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
    frame = {"_slides", "_replay"}
    named = modules_naming(frame)
    assert named.pop("pipedreams.py") == frame
    assert {name: found for name, found in named.items() if found} == {}


def moves_a_bit_up_a_row(node):
    # an xor with 1 << (x - stride): a mask bit flipped one row of the frame
    # above another, the mask half of a simple slide
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitXor)
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.LShift)
        and isinstance(node.right.right, ast.BinOp)
        and isinstance(node.right.right.op, ast.Sub)
        and isinstance(node.right.right.right, ast.Name)
        and node.right.right.right.id == "stride"
    )


def test_the_slide_update_is_written_once():
    # the simple slide's update, a state field lowered and the mask bit
    # moved up a row, has one statement in the package: inside the order-0
    # walk; the replay of named moves checks each against _slides in the
    # walk's frame instead of updating a mask
    found = sorted(
        (path.name, func.name, ast.unparse(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if moves_a_bit_up_a_row(node)
    )
    assert found == [("pipedreams.py", "_slide_walk", "occupied ^ 1 << at ^ 1 << at - stride")]


def is_divided_difference_step(node):
    # x - (1 << lo): one degree moved from x_i's field to x_(i+1)'s, the
    # step every offset of a d_i entry is built from; or (k >> h & m) -
    # (k >> l & m), the a - b that picks the entry
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    right = node.right
    if (
        isinstance(right, ast.BinOp)
        and isinstance(right.op, ast.LShift)
        and isinstance(right.left, ast.Constant)
        and right.left.value == 1
        and isinstance(right.right, ast.Name)
        and right.right.id == "lo"
    ):
        return True

    def field(side):
        return (
            isinstance(side, ast.BinOp)
            and isinstance(side.op, ast.BitAnd)
            and isinstance(side.left, ast.BinOp)
            and isinstance(side.left.op, ast.RShift)
        )

    return field(node.left) and field(node.right)


def test_the_divided_difference_step_is_written_once():
    # the closed form of d_i, the exponent difference of two adjacent
    # fields and the step its offsets are built from, has one place in the
    # package: the table-driven kernel that the sweep and the oracle share
    found = sorted(
        (path.name, func.name, ast.unparse(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if is_divided_difference_step(node)
    )
    assert found == [
        ("polynomials.py", "_divided_difference", "(key >> hi & mask) - (key >> lo & mask)"),
        ("polynomials.py", "_divided_difference", "unit - (1 << lo)"),
    ]


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
    maps = {"_LOWERING", "_RAISING", "_ONE_BYTE"}
    named = modules_naming(maps)
    assert named.pop("permutations.py") == maps
    assert {name: found for name, found in named.items() if found} == {}


# methods that change the object they are called on
MUTATORS = {
    "append", "extend", "insert", "update", "setdefault", "clear",
    "pop", "popitem", "add", "discard", "remove",
}


def local_names(func):
    # the names a function binds for itself, nested scopes included (its
    # parameters and the names it assigns) less those it declares global;
    # and the names it declares global
    bound = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    bound |= {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    declared = {name for n in ast.walk(func) if isinstance(n, ast.Global) for name in n.names}
    return bound - declared, declared


def base_name(node):
    # the name an attribute or subscript chain starts from, if any
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_writes(tree):
    # (function, code) for each place where a function stores into,
    # deletes from or calls a mutating method on a module-level name
    module = {n for stmt in tree.body for n in defined_names(stmt)}
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            module.update((a.asname or a.name).split(".")[0] for a in stmt.names)
    writes = []

    def visit(node, scope, state):
        # state: the module-level names visible in the enclosing function,
        # None outside functions
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                inner = scope + ("." if scope else "") + getattr(child, "name", "<lambda>")
                if isinstance(child, ast.ClassDef):
                    visit(child, inner, state)
                else:
                    bound, declared = local_names(child)
                    visit(child, inner, ((module if state is None else state) | declared) - bound)
                continue
            if state is not None:
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                    if child.func.attr in MUTATORS and base_name(child.func.value) in state:
                        writes.append((scope, ast.unparse(child.func)))
                elif isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del)):
                    if base_name(child) in state:
                        writes.append((scope, ast.unparse(child)))
            visit(child, scope, state)

    visit(tree, "", None)
    return writes


def test_module_state_stays_fixed():
    # module-level tables are built at import and only read afterwards;
    # the one exception is the intern table, which _Packing fills per
    # field layout
    writes = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := module_state_writes(ast.parse(path.read_text(), filename=str(path))))
    }
    assert writes == {"polynomials.py": [("_Packing.__init__", "_INTERNED.setdefault")]}


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
