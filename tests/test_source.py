"""Rules on the package and test sources, checked on their syntax trees."""

import ast
from pathlib import Path

import forestry

PACKAGE = Path(forestry.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def defined_names(stmt):
    # the module-level names one top-level statement defines
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def used_names(node):
    # names read anywhere under node, bare, as an attribute or imported
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def test_every_private_module_name_is_used_in_the_package():
    # code that only its own unit test calls is wired into a real workflow
    # or deleted: each module-level _name in src/forestry/ must be read
    # somewhere in the package outside its own definition
    statements = [
        stmt
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    uses = [used_names(stmt) for stmt in statements]
    unused = sorted(
        name
        for i, stmt in enumerate(statements)
        for name in defined_names(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in used for j, used in enumerate(uses) if j != i)
    )
    assert unused == []


def exported(tree):
    # the names a module's __all__ lists
    return {
        name
        for stmt in tree.body
        if "__all__" in defined_names(stmt)
        for name in ast.literal_eval(stmt.value)
    }


def test_every_public_name_has_a_caller():
    # a name in a module's __all__ is read by another module of the package,
    # by its own module outside the statement that defines it, by the
    # benchmark or by an acceptance criterion; the package's __init__ only
    # re-exports, so it neither counts as a reader nor exports anything new
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    init = trees.pop("__init__")
    outside = [*sorted(PERFBENCH.glob("*.py")), TESTS / "test_acceptance.py"]
    read_outside = set().union(
        *(used_names(ast.parse(path.read_text(), filename=str(path))) for path in outside)
    )
    uses = {module: used_names(tree) for module, tree in trees.items()}
    uncalled = []
    for module, tree in trees.items():
        read_elsewhere = read_outside.union(*(u for m, u in uses.items() if m != module))
        for name in sorted(exported(tree)):
            read_at_home = any(
                name in used_names(stmt) for stmt in tree.body if name not in defined_names(stmt)
            )
            if not read_at_home and name not in read_elsewhere:
                uncalled.append(name)
    assert uncalled == []
    assert exported(init) <= set().union(*map(exported, trees.values()))


def modules_naming(names):
    # per module of the package, which of names it defines, reads or imports
    named = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {n for stmt in tree.body for n in defined_names(stmt)}
        named[path.name] = names & (used_names(tree) | defined)
    return named


def test_only_pipedreams_names_the_mask_frame():
    # a dream mask's bit layout is known to one module: no other module of
    # the package names the helpers that read or write it
    frame = {"_mask", "_slides", "_replay"}
    named = modules_naming(frame)
    assert named.pop("pipedreams.py") == frame
    assert {name: found for name, found in named.items() if found} == {}


def test_only_polynomials_names_the_intern_table():
    # packed keys are decoded through one table per field layout, and only
    # _Packing fills, bounds or reads it
    table = {"_INTERNED", "_INTERN_LIMIT"}
    named = modules_naming(table)
    assert named.pop("polynomials.py") == table
    assert {name: found for name, found in named.items() if found} == {}


def test_only_permutations_names_the_byte_maps():
    # one-point deletions and value insertions on byte forms go through
    # per-value lowering and raising maps, built and read in one module
    maps = {"_LOWERING", "_RAISING", "_ONE_BYTE", "_byte_maps"}
    named = modules_naming(maps)
    assert named.pop("permutations.py") == maps
    assert {name: found for name, found in named.items() if found} == {}


def test_no_test_helper_is_defined_twice():
    # each shared test helper lives once, in tests/references.py: no
    # module-level name but a test_* function is defined in two test modules
    where: dict[str, set[str]] = {}
    for path in sorted(TESTS.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for name in defined_names(stmt):
                if not name.startswith("test_"):
                    where.setdefault(name, set()).add(path.name)
    assert {name: paths for name, paths in where.items() if len(paths) > 1} == {}
