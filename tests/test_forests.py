import itertools

import pytest
from hypothesis import given, settings, strategies as st

from forestry import forests
from forestry.forests import (
    _layout,
    code_of_forest,
    forest_from_code,
    forest_polynomial,
    forest_to_json,
    is_valid_labeling,
    render_forest,
    valid_labelings,
)
from forestry.permutations import all_permutations, lehmer_code, trim_zeros
from forestry.polynomials import Polynomial

x = Polynomial.variable


def codes(max_len=6, max_entry=3):
    return st.lists(
        st.integers(0, max_entry), min_size=0, max_size=max_len
    ).map(tuple)


def subtree(forest, v):
    out, stack = set(), [v]
    while stack:
        u = stack.pop()
        if u in out:
            continue
        out.add(u)
        for child in (forest.left_child(u), forest.right_child(u)):
            if child is not None:
                stack.append(child)
    return out


# --- construction -------------------------------------------------------------


def test_vertices_census():
    forest = forest_from_code((2, 1, 0, 0, 1))
    assert forest.vertices == ((1, 1), (1, 2), (2, 1), (5, 1))


def test_left_chain_structure():
    forest = forest_from_code((0, 3))
    assert forest.left_child((2, 3)) == (2, 2)
    assert forest.left_child((2, 1)) is None
    assert forest.parent((2, 2)) == ((2, 3), False)
    assert forest.roots() == ((2, 3),)


COVER_FIXTURES = {
    (3, 0, 2, 1, 0): {((1, 2), (3, 2)), ((3, 1), (4, 1))},
    (3, 0, 1, 0): {((1, 2), (3, 1))},
    (2, 1, 1, 0, 1, 0, 0, 1): {((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 2), (5, 1))},
    (1, 2): {((1, 1), (2, 2))},
    (1, 2, 1, 0): {((1, 1), (2, 2)), ((2, 1), (3, 1))},
    (0, 2, 2): {((2, 1), (3, 2))},
    (2, 1, 0, 1): {((1, 1), (2, 1)), ((1, 2), (4, 1))},
    (2, 2, 0, 0, 1): {((1, 1), (2, 2)), ((1, 2), (5, 1))},
    (1, 2, 2): {((1, 1), (2, 2)), ((2, 1), (3, 2))},
    (0, 2, 3): {((2, 1), (3, 3))},
    # a lone later row is adopted across the gap once the first
    # adoption has happened, but not before
    (2, 1, 0, 0, 1): {((1, 1), (2, 1)), ((1, 2), (5, 1))},
    (1, 0, 1): set(),
    (1, 0, 0, 1): set(),
}


@pytest.mark.parametrize("code,expected", sorted(COVER_FIXTURES.items()))
def test_cover_fixtures(code, expected):
    assert set(forest_from_code(code).covers) == expected


def test_empty_forest():
    forest = forest_from_code(())
    assert forest.vertices == ()
    assert forest.covers == ()
    assert forest_polynomial(forest) == 1
    assert valid_labelings(forest) == ((),)


def test_code_trimming_and_validation():
    assert forest_from_code((1, 0, 0)) is forest_from_code((1,))
    with pytest.raises(ValueError):
        forest_from_code((1, -2))


def test_forest_is_an_immutable_value():
    forest = forest_from_code((3, 0, 1))
    assert repr(forest) == (
        "IndexedForest(code=(3, 0, 1), vertices=((1, 1), (1, 2), (1, 3), (3, 1)),"
        " covers=(((1, 2), (3, 1)),))"
    )
    # steps are derived from the code, so ==, hash and repr leave them out
    twin = forests.IndexedForest(forest.code, forest.vertices, forest.covers, steps=())
    assert twin == forest
    assert hash(twin) == hash(forest)
    assert forest != forest_from_code((3,))
    assert forest != (forest.code, forest.vertices, forest.covers)
    with pytest.raises(AttributeError):
        forest.code = ()
    with pytest.raises(AttributeError):
        del forest.covers
    # the cached properties still fill in
    assert forest_polynomial(forest) == x(1) ** 3 * x(2) + x(1) ** 3 * x(3)
    assert forest.right_child((1, 2)) == (3, 1)


@given(codes())
def test_code_round_trip(code):
    forest = forest_from_code(code)
    assert code_of_forest(forest) == tuple(
        code[: len(code_of_forest(forest))]
    )
    assert sum(code) == len(forest.vertices)


@given(codes())
def test_cover_structure_invariants(code):
    forest = forest_from_code(code)
    seen_children = set()
    for parent, child in forest.covers:
        # a right child lives strictly further down and tops its chain
        assert child[0] > parent[0]
        assert child[1] == code[child[0] - 1]
        assert child not in seen_children
        seen_children.add(child)
    for v in forest.vertices:
        up = forest.parent(v)
        if up is not None:
            parent, is_right = up
            assert forest.right_child(parent) == v if is_right else True


@given(codes())
def test_rows_under_a_chain_join_its_subtrees(code):
    # all vertices within c_i rows below row i hang off row i's chain
    forest = forest_from_code(code)
    rows = {v[0] for v in forest.vertices}
    for i in sorted(rows):
        reach = set()
        for t in range(1, code[i - 1] + 1):
            reach |= subtree(forest, (i, t))
        for v in forest.vertices:
            if i < v[0] <= i + code[i - 1]:
                assert v in reach


@given(codes())
def test_nearby_diagonals_imply_subtree_membership(code):
    # vertex (j, s) with j > i and j + s <= i + t + 1 descends from (i, t)
    forest = forest_from_code(code)
    for u in forest.vertices:
        reach = subtree(forest, u)
        for v in forest.vertices:
            if v[0] > u[0] and v[0] + v[1] <= u[0] + u[1] + 1:
                assert v in reach


# --- the one-pass layout against the frame-stack scan --------------------------


def reference_covers(code):
    # one frame per chain being processed: [row, next vertex t, scan
    # position p, covered_any]; a cover pushes the covered row's frame
    n = len(code)
    covers = []
    done = set()
    for start in range(1, n + 1):
        if not code[start - 1] or start in done:
            continue
        done.add(start)
        stack = [[start, 1, start + 1, False]]
        while stack:
            frame = stack[-1]
            row, t, p, covered_any = frame
            while p <= n and (p in done or (covered_any and code[p - 1] == 0)):
                p += 1
            if t > code[row - 1] or p > n:
                stack.pop()
                continue
            if code[p - 1] == 0:
                frame[1:3] = t + 1, p + 1
                continue
            covers.append(((row, t), (p, code[p - 1])))
            frame[1:] = t + 1, p + 1, True
            done.add(p)
            stack.append([p, 1, p + 1, False])
    return covers


def reference_steps(code, covers):
    # rows top to bottom, each chain from its top vertex down
    first = list(itertools.accumulate(code, initial=0))
    covered_by = {child[0]: parent for parent, child in covers}
    steps = []
    for row, k in enumerate(code, start=1):
        if not k:
            continue
        below = first[row - 1] - 1
        parent = covered_by.get(row)
        above = -1 if parent is None else first[parent[0] - 1] + parent[1] - 1
        steps.append((below + k, above, 0, row))
        steps.extend((below + t, below + t + 1, -1, row) for t in range(k - 1, 0, -1))
    return steps


def reference_labelings(forest, order):
    # valid labelings in lex order of their values read in ``order``; each
    # vertex's constraint comes from the forest's own parent map
    slot = {v: i for i, v in enumerate(forest.vertices)}
    out, values = [], [0] * len(forest.vertices)

    def extend(k):
        if k == len(order):
            out.append(tuple(values))
            return
        v = forest.vertices[order[k]]
        low = 1
        up = forest.parent(v)
        if up is not None:
            parent, is_right = up
            low = values[slot[parent]] + is_right
        for value in range(low, v[0] + 1):
            values[order[k]] = value
            extend(k + 1)

    extend(0)
    return tuple(out)


def check_layout(code, labelings=True):
    code = trim_zeros(code)
    steps, pairs = _layout(code)
    forest = forest_from_code(code)
    covers = reference_covers(code)
    assert sorted((forest.vertices[p], forest.vertices[c]) for p, c in pairs) == sorted(covers)
    assert forest.covers == tuple(sorted(covers))
    assert steps == reference_steps(code, covers)
    if labelings:
        order = [step[0] for step in steps]
        assert valid_labelings(forest) == reference_labelings(forest, order)


def trimmed_codes(n):
    return sorted({trim_zeros(lehmer_code(w)) for w in all_permutations(n)})


def test_layout_matches_the_frame_stack_scan():
    for n in range(1, 8):
        for code in trimmed_codes(n):
            check_layout(code)


@pytest.mark.extended
def test_layout_matches_the_frame_stack_scan_s8():
    for code in trimmed_codes(8):
        check_layout(code)


@settings(deadline=None)
@given(codes(max_len=7, max_entry=4))
def test_layout_matches_the_frame_stack_scan_on_any_code(code):
    check_layout(code, labelings=sum(code) <= 8)


# --- labelings -------------------------------------------------------------------


def test_eight_row_forest_labelings():
    forest = forest_from_code((2, 1, 1, 0, 1, 0, 0, 1))
    labelings = valid_labelings(forest)
    assert len(labelings) == 32
    slot = {v: i for i, v in enumerate(forest.vertices)}
    for lab in labelings:
        assert lab[slot[(1, 1)]] == 1
        assert lab[slot[(1, 2)]] == 1
        assert lab[slot[(2, 1)]] == 2
        assert lab[slot[(3, 1)]] == 3
        assert lab[slot[(5, 1)]] in {2, 3, 4, 5}
        assert lab[slot[(8, 1)]] in range(1, 9)
    # the two free vertices range independently
    assert len({lab for lab in labelings}) == 32


@given(codes(max_len=5))
def test_labelings_are_valid_and_exhaustive(code):
    forest = forest_from_code(code)
    labelings = valid_labelings(forest)
    assert len(set(labelings)) == len(labelings)
    for lab in labelings:
        assert is_valid_labeling(forest, lab)


def test_labeling_constraints_enforced():
    forest = forest_from_code((1, 2))  # (1,1) covers (2,2); (2,2) over (2,1)
    slot = {v: i for i, v in enumerate(forest.vertices)}

    def lab(a, b, c):
        out = [0, 0, 0]
        out[slot[(1, 1)]] = a
        out[slot[(2, 1)]] = b
        out[slot[(2, 2)]] = c
        return tuple(out)

    assert is_valid_labeling(forest, lab(1, 2, 2))
    assert is_valid_labeling(forest, lab(1, 2, 2))
    assert not is_valid_labeling(forest, lab(2, 2, 2))  # f > rho at (1,1)
    assert not is_valid_labeling(forest, lab(1, 1, 2))  # chain must fall inward
    assert not is_valid_labeling(forest, lab(1, 2, 1))  # right child must rise
    assert not is_valid_labeling(forest, (1, 2))  # bad arity


def reference_is_valid_labeling(forest, labeling):
    # the rule read off the navigation: 1 <= f(v) <= rho(v), weakly up a
    # left edge, strictly up a right edge
    if len(labeling) != len(forest.vertices):
        return False
    value = dict(zip(forest.vertices, labeling))
    for v in forest.vertices:
        if not 1 <= value[v] <= v[0]:
            return False
        left = forest.left_child(v)
        if left is not None and not value[v] <= value[left]:
            return False
        right = forest.right_child(v)
        if right is not None and not value[v] < value[right]:
            return False
    return True


def labeling_box(forest):
    # every value from one below the range to one above it, at each vertex
    return itertools.product(*(range(v[0] + 2) for v in forest.vertices))


def test_labeling_rule_matches_the_navigation():
    for n in range(1, 5):
        for code in trimmed_codes(n):
            forest = forest_from_code(code)
            accepted = []
            for lab in labeling_box(forest):
                valid = is_valid_labeling(forest, lab)
                assert valid == reference_is_valid_labeling(forest, lab), (code, lab)
                if valid:
                    accepted.append(lab)
            assert set(accepted) == set(valid_labelings(forest)), code


@given(codes(max_len=6, max_entry=3), st.data())
def test_labeling_rule_matches_the_navigation_on_any_code(code, data):
    forest = forest_from_code(code)
    lab = data.draw(
        st.tuples(*(st.integers(0, v[0] + 1) for v in forest.vertices)), label="labeling"
    )
    assert is_valid_labeling(forest, lab) == reference_is_valid_labeling(forest, lab)


def test_a_built_forest_is_not_laid_out_again(monkeypatch):
    forests._forest_from_code_cached.cache_clear()
    forest = forest_from_code((2, 0, 3, 1, 0, 1))
    calls = []

    def counting_layout(code):
        calls.append(code)
        return _layout(code)

    monkeypatch.setattr(forests, "_layout", counting_layout)
    labelings = valid_labelings(forest)
    assert forest_polynomial(forest) == forest_polynomial(forest)
    assert all(is_valid_labeling(forest, lab) for lab in labelings)
    assert calls == []


# --- polynomials -----------------------------------------------------------------


def test_forest_polynomial_fixtures():
    assert forest_polynomial(forest_from_code((3, 0, 1, 0))) == x(1) ** 3 * x(
        2
    ) + x(1) ** 3 * x(3)
    assert forest_polynomial(forest_from_code((1,))) == x(1)
    assert forest_polynomial(forest_from_code((0, 1))) == x(1) + x(2)


def test_eight_row_forest_polynomial_product():
    poly = forest_polynomial(forest_from_code((2, 1, 1, 0, 1, 0, 0, 1)))
    product = (
        x(1) ** 2
        * x(2)
        * x(3)
        * (x(2) + x(3) + x(4) + x(5))
        * sum((x(i) for i in range(1, 9)), Polynomial.zero())
    )
    assert poly == product


def test_adjacent_chains_label_independently():
    # no adoption happens across (1,0,1): both chains range freely
    poly = forest_polynomial(forest_from_code((1, 0, 1)))
    assert poly == x(1) * (x(1) + x(2) + x(3))


@settings(deadline=None)
@given(codes(max_len=5))
def test_forest_polynomial_degree_and_leading_monomial(code):
    forest = forest_from_code(code)
    poly = forest_polynomial(forest)
    degree = sum(code)
    for exps, coeff in poly.items():
        assert coeff >= 1
        assert sum(exps) == degree
    trimmed = tuple(code[: len(code_of_forest(forest))])
    assert poly.leading_monomial() == trimmed or (not trimmed and poly == 1)


# --- rendering and serialization ------------------------------------------------


def test_render_forest_fixture():
    lines = render_forest(forest_from_code((3, 0, 1, 0)))
    assert lines == [
        "(row 1, #3) rho=1",
        "└─ L (row 1, #2) rho=1",
        "   ├─ L (row 1, #1) rho=1",
        "   └─ R (row 3, #1) rho=3",
    ]
    assert render_forest(forest_from_code(())) == ["(empty forest)"]


def test_render_forest_multiple_roots():
    lines = render_forest(forest_from_code((1, 0, 1)))
    assert lines == ["(row 1, #1) rho=1", "(row 3, #1) rho=3"]


def test_forest_json_fixture():
    forest = forest_from_code((3, 0, 1, 0))
    obj = forest_to_json(forest)
    assert obj == {
        "vertices": [
            {"rho": 1, "left": None, "right": None},
            {"rho": 1, "left": 0, "right": 3},
            {"rho": 1, "left": 1, "right": None},
            {"rho": 3, "left": None, "right": None},
        ]
    }


# --- deep codes --------------------------------------------------------------------


def test_deep_right_comb_needs_no_recursion():
    # code (1, 1, ..., 1) is a right comb 1200 vertices deep with exactly one
    # labeling, f = rho; building, labeling and drawing it must not recurse
    forest = forest_from_code((1,) * 1200)
    assert len(forest.covers) == 1199
    assert valid_labelings(forest) == (tuple(range(1, 1201)),)
    assert forest_polynomial(forest) == Polynomial.monomial((1,) * 1200)
    lines = render_forest(forest)
    assert len(lines) == 1200
    assert lines[-1].endswith("└─ R (row 1200, #1) rho=1200")
