import importlib
import itertools
import pkgutil
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

import forestry
from forestry import correspondence
from forestry.correspondence import (
    covering_relation,
    find_bad_pair,
    is_forest_by_expansion,
    is_forest_by_pattern,
    labeling_to_pipe_dream,
    replay_simple_moves,
    verify_theorem,
)
from forestry.forests import _labeling_sum, _layout, forest_from_code, valid_labelings
from forestry.permutations import (
    FORBIDDEN_PATTERNS,
    PATTERN_1432,
    all_permutations,
    avoids_forbidden,
    contains_pattern,
    lehmer_code,
    trim,
    trim_zeros,
)
from forestry.polynomials import Polynomial, monomial_of
from forestry.pipedreams import (
    _bit,
    _mask,
    all_pipe_dreams,
    ladder_move,
    schubert,
    simple_closure,
    weight,
)


def perms(max_n=5):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


def label_weight(labeling):
    exps = [0] * (max(labeling) if labeling else 0)
    for value in labeling:
        exps[value - 1] += 1
    return tuple(exps)


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
                            moved = ladder_move(cells, pos[v], 0)
                            if moved is None:
                                break
                            (target,) = moved - cells
                            cells = moved
                            pos[v] = target
                            progress = True
                assert cells == expected


# --- bad pairs -----------------------------------------------------------------


BAD_PAIR_FIXTURES = {
    (2, 4, 1, 3): ((1, 1), (2, 2)),
    (2, 4, 3, 1): ((1, 1), (2, 2)),
    (1, 4, 5, 2, 3): ((2, 1), (3, 2)),
    (3, 2, 1, 5, 4): ((1, 2), (4, 1)),
    (3, 4, 1, 2, 6, 5): ((1, 2), (5, 1)),
    (2, 4, 5, 1, 3): ((1, 1), (2, 2)),
    (1, 4, 6, 2, 3, 5): ((2, 1), (3, 3)),
    (3, 2, 1, 4, 6, 5): ((1, 2), (5, 1)),
}


@pytest.mark.parametrize("w,pair", sorted(BAD_PAIR_FIXTURES.items()))
def test_bad_pair_fixtures(w, pair):
    found = find_bad_pair(w)
    assert found is not None
    assert (found.parent, found.child) == pair


def test_no_bad_pair_for_clean_shapes():
    assert find_bad_pair((4, 1, 3, 2)) is None
    assert find_bad_pair((1, 2, 3, 4)) is None
    assert find_bad_pair(()) is None


@pytest.mark.parametrize("w", sorted(BAD_PAIR_FIXTURES))
def test_bad_pair_witness_replays(w):
    found = find_bad_pair(w)
    placement = replay_simple_moves(w, found.moves)
    assert placement[found.child][0] <= placement[found.parent][0]


def test_replay_rejects_blocked_moves():
    with pytest.raises(ValueError):
        replay_simple_moves((4, 1, 3, 2), ((1, 1),))


def test_bad_pair_exists_iff_expansion_differs():
    # over 1432-avoiders the simple closure is everything, so a bad pair
    # is exactly what breaks the labeling correspondence
    for n in range(1, 6):
        for w in all_permutations(n):
            if contains_pattern(w, (1, 4, 3, 2)):
                continue
            assert (find_bad_pair(w) is None) == is_forest_by_expansion(w)


def reference_slide(d, width, cell):
    # the order-0 ladder move at one cell of mask d: its target and the mask
    # after it, when (r, c+1), (r-1, c) and (r-1, c+1) are all empty
    r, c = cell
    target = (r - 1, c + 1)
    if r == 1 or any(d & _bit(x, width) for x in [(r, c + 1), (r - 1, c), target]):
        return None
    return target, d ^ _bit(cell, width) ^ _bit(target, width)


def test_reference_slide_is_the_order_zero_move():
    bottom = frozenset({(1, 1), (1, 2), (1, 3), (3, 1)})
    d = _mask(bottom, 4)
    slid = bottom - {(3, 1)} | {(2, 2)}
    assert reference_slide(d, 4, (3, 1)) == ((2, 2), _mask(slid, 4))
    assert reference_slide(d, 4, (1, 3)) is None
    for n in range(1, 6):
        for w in all_permutations(n):
            for dream in all_pipe_dreams(w):
                d = _mask(dream, n)
                for cell in dream:
                    slid = reference_slide(d, n, cell)
                    moved = ladder_move(dream, cell, 0)
                    if slid is None:
                        assert moved is None, (dream, cell)
                    else:
                        assert moved == dream - {cell} | {slid[0]}, (dream, cell)
                        assert slid[1] == _mask(moved, n)


def reference_bad_pair(w):
    # the search on tuples of (row, col) cells, one slide test per crossing
    # and state, every queued state checked for every cover when dequeued
    w = trim(w)
    width = len(w)
    forest = forest_from_code(lehmer_code(w))
    ids = forest.vertices
    slot = {v: i for i, v in enumerate(ids)}
    pairs = [(slot[p], slot[c]) for p, c in forest.covers]
    start = tuple(ids)
    prev = {start: None}
    queue = deque([(start, _mask(start, width))])
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
            slid = reference_slide(occupied, width, cell)
            if slid is not None:
                target, moved = slid
                nxt = state[:idx] + (target,) + state[idx + 1 :]
                if nxt not in prev:
                    prev[nxt] = (state, idx)
                    queue.append((nxt, moved))
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


# --- the two verdicts --------------------------------------------------------


def test_verdict_fixtures():
    assert is_forest_by_pattern((4, 1, 3, 2))
    assert is_forest_by_expansion((4, 1, 3, 2))
    assert not is_forest_by_pattern((1, 4, 3, 2))
    assert not is_forest_by_expansion((1, 4, 3, 2))
    for p in FORBIDDEN_PATTERNS:
        assert not is_forest_by_pattern(p)
        assert not is_forest_by_expansion(p)


def test_verdicts_on_the_subtle_case():
    w = (3, 2, 1, 4, 6, 5)
    assert not is_forest_by_pattern(w)
    assert not is_forest_by_expansion(w)


# --- divided-difference sweep -------------------------------------------------


def check_sweep(n):
    packing = correspondence._packing(n)
    found = []
    for prefix in correspondence._units(n):
        for w, _, terms in correspondence._sweep(prefix, n, packing):
            assert packing.decode(terms) == schubert(w), w
            found.append(w)
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
            for w, code, _ in correspondence._sweep(prefix, n, packing):
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
            walked = [w for w, _, _ in correspondence._sweep(prefix, n, packing)]
            assert walked == reference_sweep(prefix, n), prefix


def test_sweep_checks_leading_terms(monkeypatch):
    # a wrong divided difference must stop the run, not pass silently
    monkeypatch.setattr(
        correspondence, "_divided_difference", lambda terms, i, packing: terms
    )
    with pytest.raises(RuntimeError):
        list(correspondence._sweep((1, 2), 4, correspondence._packing(4)))


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


def test_verify_counts_badpair_checks():
    report = verify_theorem(4)
    # every permutation except 1432 itself is eligible for the cross-check
    assert report.badpair_checked == 23
    # 341265 is one of the six and avoids 1432; it clears only its own bit
    assert verify_theorem(6).badpair_checked == 513


def test_bulk_verify_fills_no_cache():
    # the bulk run reads the code layout; it builds no IndexedForest and
    # neither looks up nor fills any memo
    caches = {
        id(value): value
        for info in pkgutil.iter_modules(forestry.__path__, "forestry.")
        for value in vars(importlib.import_module(info.name)).values()
        if hasattr(value, "cache_info")
    }
    assert len(caches) == 2
    before = [cache.cache_info() for cache in caches.values()]
    verify_theorem(6)
    assert [cache.cache_info() for cache in caches.values()] == before


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


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 2)
    assert correspondence._worker_count(5000, 6) == 2
    assert correspondence._worker_count(5000, 1) == 1
    assert correspondence._worker_count(2, 6) == 2
    assert correspondence._worker_count(1, 10**6) == 1
    monkeypatch.setattr(correspondence, "_usable_cpus", lambda: 64)
    assert correspondence._worker_count(5000, 6) == 6
    assert correspondence._worker_count(10**9, 10**9) == 64


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
    # a unit starts from the tally fields' defaults
    assert correspondence._tallies() == {
        "total": 0,
        "pattern_positive": 0,
        "expansion_positive": 0,
        "disagreements": (),
        "badpair_checked": 0,
        "badpair_disagreements": (),
    }
