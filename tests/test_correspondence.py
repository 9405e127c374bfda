import importlib
import itertools
import marshal
import os
import pkgutil
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings, strategies as st
from references import (
    grid_mask,
    label_weight,
    perms,
    reference_bottom,
    reference_closure,
    reference_move,
    reference_reading,
)

import forestry
from forestry import correspondence
from forestry.correspondence import (
    covering_relation,
    find_bad_pair,
    is_forest_by_expansion,
    labeling_to_pipe_dream,
    replay_simple_moves,
    verify_theorem,
)
from forestry.forests import _labeling_sum, _layout, forest_from_code, valid_labelings
from forestry.permutations import (
    FORBIDDEN_PATTERNS,
    PATTERN_1432,
    _code_cells,
    all_permutations,
    avoids_forbidden,
    contains_pattern,
    inversions,
    lehmer_code,
    trim,
    trim_zeros,
)
from forestry.polynomials import Polynomial, monomial_of
from forestry.pipedreams import (
    all_pipe_dreams,
    schubert,
    simple_closure,
    weight,
)


# --- covering relation -----------------------------------------------------


def test_covering_relation_fixture():
    assert covering_relation((4, 1, 5, 3, 2)) == frozenset(
        {((1, 2), (3, 2)), ((3, 1), (4, 1))}
    )
    assert covering_relation((1, 2, 3)) == frozenset()


@given(perms(6))
def test_covering_relation_matches_forest(w):
    forest = forest_from_code(lehmer_code(trim(w)))
    assert covering_relation(w) == frozenset(forest.covers)


# --- labelings to pipe dreams -----------------------------------------------


def test_slid_dream_fixture():
    # slide (3,1) of the bottom dream of 4132 up to its label row 2
    forest = forest_from_code((3, 0, 1, 0))
    slot = {v: i for i, v in enumerate(forest.vertices)}
    lab = [0] * 4
    lab[slot[(1, 1)]] = 1
    lab[slot[(1, 2)]] = 1
    lab[slot[(1, 3)]] = 1
    lab[slot[(3, 1)]] = 2
    dream = labeling_to_pipe_dream((4, 1, 3, 2), tuple(lab))
    assert dream == frozenset({(1, 1), (1, 2), (1, 3), (2, 2)})


def test_bottom_labeling_maps_to_bottom_dream():
    w = (4, 1, 5, 3, 2)
    forest = forest_from_code(lehmer_code(w))
    bottom = tuple(v[0] for v in forest.vertices)  # f = rho is always valid
    assert labeling_to_pipe_dream(w, bottom) == frozenset(forest.vertices)


def test_invalid_labeling_rejected():
    with pytest.raises(ValueError):
        labeling_to_pipe_dream((4, 1, 3, 2), (1, 1, 1, 4))


@given(perms(5))
@settings(deadline=None)
def test_slides_are_injective_weight_preserving_and_simple(w):
    forest = forest_from_code(lehmer_code(trim(w)))
    closure = simple_closure(w)
    seen = {}
    for lab in valid_labelings(forest):
        dream = labeling_to_pipe_dream(w, lab)
        assert weight(dream) == label_weight(lab)
        assert dream in closure
        assert dream not in seen, (lab, seen[dream])
        seen[dream] = lab


@given(perms(5))
@settings(deadline=None)
def test_slides_fill_the_dream_set_exactly_for_unobstructed_shapes(w):
    forest = forest_from_code(lehmer_code(trim(w)))
    image = {
        labeling_to_pipe_dream(w, lab) for lab in valid_labelings(forest)
    }
    assert (image == all_pipe_dreams(w)) == avoids_forbidden(w)


def test_slide_order_does_not_matter():
    # re-sliding in arbitrary orders, with retries, settles on the same dream
    for w in [(4, 1, 3, 2), (4, 1, 5, 3, 2), (2, 4, 1, 3), (3, 2, 1, 4, 6, 5)]:
        forest = forest_from_code(lehmer_code(trim(w)))
        width = len(trim(w))
        orders = [
            sorted(forest.vertices, key=lambda u: (u[0], -u[1]), reverse=True),
            sorted(forest.vertices, key=lambda u: (-u[0], u[1])),
            list(forest.vertices),
        ]
        for lab in valid_labelings(forest):
            want = dict(zip(forest.vertices, lab))
            expected = labeling_to_pipe_dream(w, lab)
            for order in orders:
                pos = {v: v for v in forest.vertices}
                cells = frozenset(forest.vertices)
                progress = True
                while progress:
                    progress = False
                    for v in order:
                        while pos[v][0] > want[v]:
                            move = reference_move(grid_mask(cells, width), width, pos[v])
                            if move is None or move[0]:
                                break
                            cells = cells - {pos[v]} | {move[1]}
                            pos[v] = move[1]
                            progress = True
                assert cells == expected


# --- bad pairs -----------------------------------------------------------------


# (parent, child, moves): the moves pin the walk's queue order
BAD_PAIR_FIXTURES = {
    (2, 4, 1, 3): ((1, 1), (2, 2), ((2, 2),)),
    (2, 4, 3, 1): ((1, 1), (2, 2), ((2, 2),)),
    (1, 4, 5, 2, 3): ((2, 1), (3, 2), ((2, 2), (3, 2))),
    (3, 2, 1, 5, 4): ((1, 2), (4, 1), ((4, 1),) * 3),
    (3, 4, 1, 2, 6, 5): ((1, 2), (5, 1), ((5, 1),) * 4),
    (2, 4, 5, 1, 3): ((1, 1), (2, 2), ((2, 2),)),
    (1, 4, 6, 2, 3, 5): ((2, 1), (3, 3), ((3, 3),)),
    (3, 2, 1, 4, 6, 5): ((1, 2), (5, 1), ((5, 1),) * 4),
}


@pytest.mark.parametrize("w,pair", sorted(BAD_PAIR_FIXTURES.items()))
def test_bad_pair_fixtures(w, pair):
    found = find_bad_pair(w)
    assert found is not None
    assert (found.parent, found.child, found.moves) == pair


def test_no_bad_pair_for_clean_shapes():
    assert find_bad_pair((4, 1, 3, 2)) is None
    assert find_bad_pair((1, 2, 3, 4)) is None
    assert find_bad_pair(()) is None


@pytest.mark.parametrize("w", sorted(BAD_PAIR_FIXTURES))
def test_bad_pair_witness_replays(w):
    found = find_bad_pair(w)
    placement = replay_simple_moves(w, found.moves)
    assert placement[found.child][0] <= placement[found.parent][0]


def test_code_cells_are_the_bottom_dream_and_the_forest():
    # one list of a code's cells in slot order: the bottom dream's
    # crossings, the forest's vertices and the start of every replay
    for n in range(1, 7):
        for w in all_permutations(n):
            code = lehmer_code(w)
            cells = _code_cells(code)
            assert cells == tuple(sorted(reference_bottom(w))), w
            assert cells == forest_from_code(code).vertices, w
            assert list(replay_simple_moves(w, ()).items()) == [(v, v) for v in cells], w


def test_replay_rejects_blocked_moves():
    with pytest.raises(ValueError):
        replay_simple_moves((4, 1, 3, 2), ((1, 1),))
    with pytest.raises(ValueError, match=r"\(9, 9\) is not a crossing id"):
        replay_simple_moves((4, 1, 3, 2), ((9, 9),))
    # ids read back from JSON: a short list, and one that cannot be hashed
    for moves in [([2],), ([2, [2]],)]:
        with pytest.raises(ValueError, match="is not a crossing id"):
            replay_simple_moves((2, 4, 1, 3), moves)


def test_bad_pair_exists_iff_expansion_differs():
    # over 1432-avoiders the simple closure is everything, so a bad pair
    # is exactly what breaks the labeling correspondence
    for n in range(1, 6):
        for w in all_permutations(n):
            if contains_pattern(w, (1, 4, 3, 2)):
                continue
            assert (find_bad_pair(w) is None) == is_forest_by_expansion(w)


def test_reference_slide_is_the_order_zero_move():
    # the order-0 case of reference_move is the simple slide, and its
    # closure is simple_closure
    bottom = frozenset({(1, 1), (1, 2), (1, 3), (3, 1)})
    d = grid_mask(bottom, 4)
    slid = bottom - {(3, 1)} | {(2, 2)}
    assert reference_move(d, 4, (3, 1)) == (0, (2, 2))
    assert d ^ grid_mask([(3, 1), (2, 2)], 4) == grid_mask(slid, 4)
    assert reference_move(d, 4, (1, 3)) is None
    for n in range(1, 6):
        for w in all_permutations(n):
            assert simple_closure(w) == reference_closure(w, 0), w
            for dream in all_pipe_dreams(w):
                d = grid_mask(dream, n)
                for cell in dream:
                    move = reference_move(d, n, cell)
                    if move is not None and move[0] == 0:
                        moved = dream - {cell} | {move[1]}
                        assert reference_reading(moved) == trim(w), (dream, cell)
                        assert d ^ grid_mask([cell, move[1]], n) == grid_mask(moved, n)


def reference_bad_pair(w):
    # the search on tuples of (row, col) cells, one order-0 reference_move
    # per crossing and state, every queued state checked for every cover
    # when dequeued
    w = trim(w)
    width = len(w)
    forest = forest_from_code(lehmer_code(w))
    ids = forest.vertices
    slot = {v: i for i, v in enumerate(ids)}
    pairs = [(slot[p], slot[c]) for p, c in forest.covers]
    start = tuple(ids)
    prev = {start: None}
    queue = deque([(start, grid_mask(start, width))])
    while queue:
        state, occupied = queue.popleft()
        found = next(
            ((pi, ci) for pi, ci in pairs if state[ci][0] <= state[pi][0]), None
        )
        if found is not None:
            moves = []
            cursor = state
            while prev[cursor] is not None:
                cursor, idx = prev[cursor]
                moves.append(ids[idx])
            moves.reverse()
            return ids[found[0]], ids[found[1]], tuple(moves)
        for idx, cell in enumerate(state):
            move = reference_move(occupied, width, cell)
            if move is not None and move[0] == 0:
                target = move[1]
                nxt = state[:idx] + (target,) + state[idx + 1 :]
                if nxt not in prev:
                    prev[nxt] = (state, idx)
                    queue.append((nxt, occupied ^ grid_mask([cell, target], width)))
    return None


def check_bad_pairs(n):
    for w in all_permutations(n):
        if contains_pattern(w, PATTERN_1432):
            continue
        found = find_bad_pair(w)
        expected = reference_bad_pair(w)
        if found is None:
            assert expected is None, w
            continue
        assert (found.parent, found.child, found.moves) == expected, w
        placement = replay_simple_moves(w, found.moves)
        assert placement[found.child][0] <= placement[found.parent][0], w


def test_bad_pairs_match_the_tuple_search():
    for n in range(1, 7):
        check_bad_pairs(n)


@pytest.mark.extended
def test_bad_pairs_match_the_tuple_search_s7():
    check_bad_pairs(7)


@settings(max_examples=40, deadline=None)
@given(st.integers(7, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple))
def test_bad_pairs_match_the_tuple_search_in_s7_and_s8(w):
    # a sample past S_6, untrimmed as verify sweeps it: the witness is the
    # tuple search's, and the walk verify runs, at the run's n, stops
    # exactly when there is one
    assume(not contains_pattern(w, PATTERN_1432))
    found = find_bad_pair(w)
    expected = reference_bad_pair(w)
    assert (None if found is None else (found.parent, found.child, found.moves)) == expected
    code = trim_zeros(lehmer_code(w))
    stopped = correspondence._search_bad_pair(code, _layout(code)[0], len(w))
    assert (stopped is None) == (expected is None)


def test_the_walk_at_a_runs_n_stops_where_find_bad_pair_does():
    # verify walks every w of S_n in the frame of n; find_bad_pair walks w
    # in the frame of its trimmed length.  A wider frame adds only empty
    # spare slots, so the parents, prev and the stop are the same
    for m in range(1, 8):
        for w in all_permutations(m):
            if contains_pattern(w, PATTERN_1432):
                continue
            code = trim_zeros(lehmer_code(w))
            steps = _layout(code)[0]
            trimmed = correspondence._search_bad_pair(code, steps, len(trim(w)))
            for n in (m, m + 3):
                assert correspondence._search_bad_pair(code, steps, n) == trimmed, (w, n)


# --- the two verdicts --------------------------------------------------------


def test_verdict_fixtures():
    assert avoids_forbidden((4, 1, 3, 2))
    assert is_forest_by_expansion((4, 1, 3, 2))
    assert not avoids_forbidden((1, 4, 3, 2))
    assert not is_forest_by_expansion((1, 4, 3, 2))
    for p in FORBIDDEN_PATTERNS:
        assert not avoids_forbidden(p)
        assert not is_forest_by_expansion(p)


def test_verdicts_on_the_subtle_case():
    w = (3, 2, 1, 4, 6, 5)
    assert not avoids_forbidden(w)
    assert not is_forest_by_expansion(w)


# --- divided-difference sweep -------------------------------------------------


def thaw(frozen, packing):
    # the packed terms of a frozen polynomial, decoded here and not by the
    # package: digit a*n + b of width n(n-1)/2 + 2 at key k is the
    # coefficient of x1^a x2^b times k's monomial (for n = 1, b is x1's)
    n = packing.nvars
    width = n * (n - 1) // 2 + 2
    unit_a, unit_b = ((0,) + packing.units[1:3])[-2:]
    terms = {}
    for key, value in frozen.items():
        assert value >> width * n * n == 0, key
        for a, b in itertools.product(range(n), repeat=2):
            coeff = value >> width * (a * n + b) & (1 << width) - 1
            if coeff:
                terms[key + a * unit_a + b * unit_b] = coeff
    return terms


def check_sweep(n):
    packing = correspondence._packing(n)
    found = []
    for prefix in correspondence._units(n):
        for w, _, terms in correspondence._sweep(prefix, n, packing, correspondence._plan(n)):
            assert packing.decode(thaw(terms, packing)) == schubert(w), w
            found.append(tuple(w))
    assert sorted(found) == list(all_permutations(n))


def test_sweep_matches_pipe_dreams():
    for n in range(1, 7):
        check_sweep(n)


@pytest.mark.extended
def test_sweep_matches_pipe_dreams_s7():
    check_sweep(7)


def test_sweep_carries_the_code():
    for n in range(1, 8):
        packing = correspondence._packing(n)
        for prefix in correspondence._units(n):
            for w, code, _ in correspondence._sweep(prefix, n, packing, correspondence._plan(n)):
                assert code == trim_zeros(lehmer_code(w)), w


def reference_sweep(prefix, n):
    # the walk with the child rule tested on each candidate: w = u s_i is a
    # child of u when u(i) > u(i+1) and i is the first ascent >= 3 of w
    def first_ascent(w):
        return next((i for i in range(3, len(w)) if w[i - 1] < w[i]), None)

    rest = sorted(set(range(1, n + 1)) - set(prefix), reverse=True)
    stack, out = [tuple(prefix) + tuple(rest)], []
    while stack:
        u = stack.pop()
        out.append(u)
        for i in range(3, n):
            if u[i - 1] > u[i]:
                w = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
                if first_ascent(w) == i:
                    stack.append(w)
    return out


def test_sweep_children_match_the_first_ascent_rule():
    for n in range(1, 8):
        packing = correspondence._packing(n)
        for prefix in correspondence._units(n):
            walked = [tuple(w) for w, _, _ in correspondence._sweep(prefix, n, packing, correspondence._plan(n))]
            assert walked == reference_sweep(prefix, n), prefix


def check_plan(n):
    # the plan of S_n, applied to each prefix by this test's own reading:
    # the suffix's value v becomes the v-th least value the prefix leaves;
    # each entry's w, depth, code and lead key over x3 .. xn are those of
    # the reference walk, and its parent, the last entry one level up, is
    # w s_i
    plan = correspondence._plan(n)
    packing = correspondence._packing(n)
    for prefix in correspondence._units(n):
        rest = sorted(set(range(1, n + 1)) - set(prefix))
        walked = [prefix + tuple(rest[v - 1] for v in entry[2]) for entry in plan]
        assert walked == reference_sweep(prefix, n), prefix
        top = inversions(walked[0])
        for k, ((depth, i, _, code, lead), w) in enumerate(zip(plan, walked)):
            full = lehmer_code(w)
            assert depth == top - inversions(w), w
            assert trim_zeros(full[:2] + code) == trim_zeros(full), w
            assert lead == packing.pack((0, 0) + full[2:]), w
            if depth:
                parent = next(u for (d, *_), u in zip(plan[k::-1], walked[k::-1]) if d < depth)
                assert parent == w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :], w


def test_plan_instantiates_to_every_unit():
    for n in range(3, 8):
        check_plan(n)


@pytest.mark.extended
def test_plan_instantiates_to_every_unit_s8():
    check_plan(8)


def test_plan_of_a_short_run_has_one_entry():
    for n in (1, 2):
        assert correspondence._plan(n) == [(0, 0, b"", (), 0)]


def test_a_run_builds_one_plan(monkeypatch, tmp_path):
    # serial or forked, the plan is built once per run, before any fork:
    # every build writes its process id to a file the workers share
    real, builds = correspondence._plan, tmp_path / "builds"

    def counted(n):
        with open(builds, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real(n)

    monkeypatch.setattr(correspondence, "_plan", counted)
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    for jobs in (1, 2):
        builds.write_text("")
        report = verify_theorem(6, jobs=jobs)
        assert (report.total, report.expansion_positive) == (720, 274)
        assert builds.read_text().split() == [str(os.getpid())]


def test_sweep_checks_leading_terms(monkeypatch):
    # a wrong divided difference must stop the run, not pass silently
    monkeypatch.setattr(
        correspondence, "_divided_difference", lambda terms, i, packing: terms
    )
    with pytest.raises(RuntimeError):
        list(correspondence._sweep((1, 2), 4, correspondence._packing(4), correspondence._plan(4)))


@pytest.mark.parametrize(
    "planted",
    [
        1,  # digit 0, below the unit's leading digit 5
        1 << 12 * 5,  # digit 5 at key 0, below the lead key
    ],
)
def test_sweep_checks_every_term_against_the_lead(monkeypatch, planted):
    # unit (2, 1) of S_5: digits are 12 bits wide and c_1 n + c_2 = 5; the
    # first child checked, 2 1 5 3 4, leads with x1 x3^2, whose key is not
    # 0.  Each planted value leaves the lead term alone and breaks one of
    # the two other conditions
    real = correspondence._divided_difference

    def plant(terms, i, packing):
        out = real(terms, i, packing)
        out[0] = out.get(0, 0) + planted
        return out

    monkeypatch.setattr(correspondence, "_divided_difference", plant)
    with pytest.raises(RuntimeError, match=r"went wrong at \(2, 1, 5, 3, 4\)"):
        list(correspondence._sweep((2, 1), 5, correspondence._packing(5), correspondence._plan(5)))


def test_too_narrow_digits_do_not_go_unnoticed(monkeypatch):
    # with 2-bit digits, coefficients and partial sums overflow their digits
    monkeypatch.setattr(correspondence, "_digit_bits", lambda n: 2)
    try:
        report = verify_theorem(6)
    except RuntimeError:
        return
    assert report.disagreements != ()


def test_frozen_comparison_has_no_digit_for_a_high_x1():
    # x1^3 lies outside the digits of S_3; as a forest weight it makes the
    # polynomials unequal, whatever the sums say
    packing = correspondence._packing(3)
    frozen = correspondence._freeze({packing.pack((2, 1)): 1}, packing)
    assert not correspondence._same_polynomial(frozen, {packing.pack((3,)): 1}, packing)


def test_frozen_comparison_refuses_a_count_no_digit_holds():
    packing = correspondence._packing(3)
    width = 3 * 2 // 2 + 2  # D = n(n-1)/2 + 2
    huge = 1 << width - 1
    with pytest.raises(RuntimeError, match="does not fit"):
        correspondence._same_polynomial({0: huge}, {0: huge}, packing)


@st.composite
def packed_pairs(draw):
    # a packed polynomial with x1, x2 exponents below n, as a Schubert
    # polynomial has, and a second one: unrelated, equal, or the first with
    # one unit of coefficient moved to another monomial, so the sums agree
    n = draw(st.integers(1, 4))
    packing = correspondence._packing(n)
    width = n * (n - 1) // 2 + 2

    def monomials(prefix_max):
        fields = [st.integers(0, prefix_max)] * min(n, 2)
        fields += [st.integers(0, packing.mask)] * (n - 2)
        return st.tuples(*fields).map(packing.pack)

    coeffs = st.integers(1, (1 << width - 1) - 1)
    first = draw(st.dictionaries(monomials(n - 1), coeffs, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["other", "same", "moved"]))
    if kind == "other":
        second = draw(st.dictionaries(monomials(packing.mask), coeffs, min_size=1, max_size=6))
    else:
        second = dict(first)
    if kind == "moved":
        source = draw(st.sampled_from(sorted(first)))
        target = draw(monomials(packing.mask).filter(lambda key: key != source))
        second[source] -= 1
        if not second[source]:
            del second[source]
        second[target] = second.get(target, 0) + 1
        assume(second[target] < 1 << width - 1)
    return packing, first, second


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_frozen_comparison_is_dict_equality(pair):
    packing, first, second = pair
    frozen = correspondence._freeze(first, packing)
    assert correspondence._same_polynomial(frozen, second, packing) == (first == second)


def check_labeling_sums(n):
    # the packed sum of the bulk run against the labelings, one by one
    packing = correspondence._packing(n)
    for w in all_permutations(n):
        forest = forest_from_code(lehmer_code(w))
        expected = Polynomial(Counter(map(monomial_of, valid_labelings(forest))))
        steps = _layout(forest.code)[0]
        assert packing.decode(_labeling_sum(steps, packing)) == expected, w


def test_labeling_sums_match_the_labelings():
    for n in range(1, 7):
        check_labeling_sums(n)


@pytest.mark.extended
def test_labeling_sums_match_the_labelings_s7():
    check_labeling_sums(7)


def least_labeling_rejections(n):
    # the cut of _verify_unit, never taken for a w whose polynomials
    # _same_polynomial finds equal; returns how many w it rejects
    packing = correspondence._packing(n)
    width = n * (n - 1) // 2 + 2  # D = n(n-1)/2 + 2
    rejected = 0
    for prefix in correspondence._units(n):
        for w, code, terms in correspondence._sweep(prefix, n, packing, correspondence._plan(n)):
            steps, ones, twos = _layout(code)
            if max(terms.values()) >> width * (ones * n + twos + 1):
                counts = _labeling_sum(steps, packing)
                assert not correspondence._same_polynomial(terms, counts, packing), w
                rejected += 1
    return rejected


def test_least_labeling_cut_rejects_only_unequal_polynomials():
    rejected = [least_labeling_rejections(n) for n in range(1, 7)]
    assert rejected == [0, 0, 0, 2, 31, 332]


@pytest.mark.extended
def test_least_labeling_cut_rejects_only_unequal_polynomials_s7():
    assert least_labeling_rejections(7) == 3181


# --- exhaustive verification ----------------------------------------------------


def test_verify_small_n():
    for n, positives in [(1, 1), (2, 2), (3, 6), (4, 21), (5, 76)]:
        report = verify_theorem(n)
        assert report.n == n
        assert report.total == len(list(all_permutations(n)))
        assert report.pattern_positive == positives
        assert report.expansion_positive == positives
        assert report.disagreements == ()
        assert report.badpair_disagreements == ()
        assert report.elapsed_ms >= 0


def test_verify_rejects_n_below_1():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            verify_theorem(n)


def test_verify_rejects_jobs_below_1():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="--jobs must be at least 1"):
            verify_theorem(3, jobs=jobs)


def test_verify_counts_badpair_checks():
    report = verify_theorem(4)
    # every permutation except 1432 itself is eligible for the cross-check
    assert report.badpair_checked == 23
    # 341265 is one of the six and avoids 1432; it clears only its own bit
    assert verify_theorem(6).badpair_checked == 513


def package_caches():
    # every memo of the package: the forest and the pipe-dream LRU caches
    caches = {
        id(value): value
        for info in pkgutil.iter_modules(forestry.__path__, "forestry.")
        for value in vars(importlib.import_module(info.name)).values()
        if hasattr(value, "cache_info")
    }
    assert len(caches) == 2
    return list(caches.values())


def test_bulk_verify_fills_no_cache():
    # the bulk run reads the code layout; it builds no IndexedForest and
    # neither looks up nor fills any memo
    caches = package_caches()
    before = [cache.cache_info() for cache in caches]
    verify_theorem(6)
    assert [cache.cache_info() for cache in caches] == before


def test_bulk_verify_builds_no_witness(monkeypatch):
    # the cross-check reads only whether the walk stopped: naming the pair
    # and its moves is find_bad_pair's work alone
    def no_witness(*args, **kwargs):
        raise AssertionError("verify built a BadPair")

    monkeypatch.setattr(correspondence, "BadPair", no_witness)
    report = verify_theorem(6)
    counts = (report.total, report.pattern_positive, report.expansion_positive)
    assert counts + (report.badpair_checked,) == (720, 274, 274, 513)
    assert report.disagreements == report.badpair_disagreements == ()


def test_bulk_verify_lists_no_labeling_the_cut_rejects(monkeypatch):
    # 332 of the 446 negative verdicts of S_6 are settled by the least
    # labeling's counts, before any labeling is listed
    calls = []

    def counting_sum(steps, packing):
        calls.append(steps)
        return _labeling_sum(steps, packing)

    monkeypatch.setattr(correspondence, "_labeling_sum", counting_sum)
    report = verify_theorem(6)
    assert (report.total, report.expansion_positive) == (720, 274)
    assert len(calls) == 720 - 332


def test_unit_verdict_is_find_bad_pair_verdict():
    # the walk verify runs on a 1432-avoider stops exactly when
    # find_bad_pair names a witness, and every witness replays
    for n in range(1, 7):
        for w in all_permutations(n):
            if contains_pattern(w, PATTERN_1432):
                continue
            u = trim(w)
            code = trim_zeros(lehmer_code(u))
            stopped = correspondence._search_bad_pair(code, _layout(code)[0], len(u))
            found = find_bad_pair(w)
            assert (stopped is not None) == (found is not None), w
            if found is not None:
                placement = replay_simple_moves(w, found.moves)
                assert placement[found.child][0] <= placement[found.parent][0], w


@pytest.mark.parametrize("w", sorted(BAD_PAIR_FIXTURES))
def test_order_0_walks_fill_no_cache(w):
    # the bad-pair search, the replay of its witness and the simple-move
    # closure start from the code's cells: no forest, no memo
    caches = package_caches()
    before = [cache.cache_info() for cache in caches]
    replay_simple_moves(w, find_bad_pair(w).moves)
    simple_closure(w)
    assert [cache.cache_info() for cache in caches] == before


REPORT_FIELDS = (
    "n",
    "total",
    "pattern_positive",
    "expansion_positive",
    "disagreements",
    "badpair_checked",
    "badpair_disagreements",
)


def test_verify_parallel_merge_matches_serial(monkeypatch):
    # S_4 has 12 units, so jobs=2 starts a pool, also where this process
    # may use only one CPU
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    serial = verify_theorem(4)
    parallel = verify_theorem(4, jobs=2)
    for field in REPORT_FIELDS:
        assert getattr(serial, field) == getattr(parallel, field)
    # with no avoiders at all every pattern verdict is negative, so each
    # expansion-positive permutation becomes a disagreement
    monkeypatch.setattr(correspondence, "avoider_table", lambda pattern_sets, n: {})
    serial = verify_theorem(4)
    parallel = verify_theorem(4, jobs=2)
    for field in REPORT_FIELDS:
        assert getattr(serial, field) == getattr(parallel, field)
    split = [entry["permutation"] for entry in serial.disagreements]
    assert len(split) == 21
    assert split == sorted(split)


def test_bad_pair_cross_check_lists_each_disagreement(monkeypatch):
    # a walk that always stops claims a bad pair for each of the 23
    # 1432-avoiders of S_4, so the 21 whose expansion holds are listed in
    # order, serially and in parallel
    monkeypatch.setattr(correspondence, "_search_bad_pair", lambda code, steps, n: ([], {}, 0))
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    forests = sorted(list(trim(w)) for w in all_permutations(4) if avoids_forbidden(w))
    for jobs in (1, 2):
        report = verify_theorem(4, jobs=jobs)
        assert (report.badpair_checked, report.disagreements) == (23, ())
        entries = report.badpair_disagreements
        assert [entry["permutation"] for entry in entries] == forests
        assert entries[0] == {"permutation": [], "bad_pair_found": True, "expansion_equal": True}
        assert all(entry["bad_pair_found"] and entry["expansion_equal"] for entry in entries)


def test_worker_exception_reaches_the_caller(monkeypatch):
    def fail(prefix, n, table, plan):
        raise RuntimeError(f"sweep went wrong at {prefix}")

    monkeypatch.setattr(correspondence, "_verify_unit", fail)
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    # whichever worker answers first, the first unit's error is the one
    # raised, as in a serial run
    with pytest.raises(RuntimeError, match=r"sweep went wrong at \(1, 2\)") as caught:
        verify_theorem(4, jobs=2)
    assert type(caught.value) is RuntimeError


def test_worker_that_stops_taking_units_is_a_dead_worker(monkeypatch):
    # each child answers one unit and closes both pipe ends, so the next
    # unit meets a closed pipe
    def answer_once(work, items, orders, results):
        index = int.from_bytes(os.read(orders, 4), "little")
        os.close(orders)
        os.write(results, marshal.dumps((None, work(items[index]))))

    monkeypatch.setattr(correspondence, "_serve", answer_once)
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    with pytest.raises(correspondence.WorkerDied):
        verify_theorem(4, jobs=2)


def test_failing_progress_leaves_no_worker_behind(monkeypatch):
    # a closed stderr makes the CLI's progress line raise BrokenPipeError
    def progress(done, total):
        if done >= 12:
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    with pytest.raises(BrokenPipeError):
        verify_theorem(5, jobs=2, progress=progress)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_progress_fires_once_per_unit_in_order(monkeypatch):
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 3)
    calls = []
    verify_theorem(5, jobs=3, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(6 * k, 120) for k in range(1, 21)]


def test_no_fork_runs_serially(monkeypatch):
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert correspondence._worker_count(5000, 6) == 1
    report = verify_theorem(4, jobs=2)
    assert (report.total, report.pattern_positive) == (24, 21)


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    assert correspondence._worker_count(5000, 6) == 2
    assert correspondence._worker_count(5000, 1) == 1
    assert correspondence._worker_count(2, 6) == 2
    assert correspondence._worker_count(1, 10**6) == 1
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 64)
    assert correspondence._worker_count(5000, 6) == 6
    assert correspondence._worker_count(10**9, 10**9) == 64
    # None asks for every usable CPU
    assert correspondence._worker_count(None, 6) == 6
    assert correspondence._worker_count(None, 10**9) == 64


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    # the CPUs this process may run on, not the machine's, where known
    monkeypatch.setattr(correspondence.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        correspondence.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
    )
    assert correspondence._usable_cpus() == 3
    monkeypatch.delattr(correspondence.os, "sched_getaffinity", raising=False)
    assert correspondence._usable_cpus() == 64
    monkeypatch.setattr(correspondence.os, "cpu_count", lambda: None)
    assert correspondence._usable_cpus() == 1


@pytest.mark.extended
def test_verify_s8():
    report = verify_theorem(8)
    assert (
        report.total,
        report.pattern_positive,
        report.expansion_positive,
        report.badpair_checked,
    ) == (40320, 3466, 3466, 15767)
    assert report.disagreements == ()
    assert report.badpair_disagreements == ()


def test_verify_progress_callback():
    calls = []
    report = verify_theorem(4, progress=lambda done, total: calls.append((done, total)))
    assert calls
    assert calls[-1] == (report.total, report.total)
    assert all(total == report.total for _, total in calls)
    assert [done for done, _ in calls] == sorted(done for done, _ in calls)


def test_verify_report_json_shape():
    obj = verify_theorem(3).to_json_obj()
    assert list(obj) == [
        "n",
        "total",
        "pattern_positive",
        "expansion_positive",
        "disagreements",
        "badpair_checked",
        "badpair_disagreements",
        "elapsed_ms",
    ]
    assert obj["disagreements"] == []
    assert obj["badpair_disagreements"] == []


def test_report_and_witness_refuse_assignment():
    report = verify_theorem(3)
    bad = find_bad_pair((2, 4, 1, 3))
    for obj, name in ((report, "total"), (bad, "moves")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    # a run starts from the tally fields' defaults, and a unit returns
    # the same fields
    unit = correspondence._verify_unit((1,), 1, {}, correspondence._plan(1))
    assert list(unit) == list(correspondence._tallies())
    assert correspondence._tallies() == {
        "total": 0,
        "pattern_positive": 0,
        "expansion_positive": 0,
        "disagreements": (),
        "badpair_checked": 0,
        "badpair_disagreements": (),
    }
