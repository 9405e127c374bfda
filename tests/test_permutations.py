import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st
from references import perms, reference_deletion

from forestry import permutations
from forestry.permutations import (
    FORBIDDEN_PATTERNS,
    PATTERN_1432,
    all_permutations,
    avoidance_bits,
    avoider_table,
    avoids_forbidden,
    contains_pattern,
    format_permutation,
    insert,
    inverse,
    inversions,
    is_permutation,
    lehmer_code,
    parse_permutation,
    pattern_witness,
    trim,
    trim_zeros,
)


def standardize(word):
    # rank values down to 1..n, keeping relative order
    order = sorted(word)
    return tuple(order.index(v) + 1 for v in word)


# --- basics ---------------------------------------------------------------


def test_is_permutation():
    assert is_permutation((4, 1, 3, 2))
    assert is_permutation(())
    assert not is_permutation((0, 1))
    assert not is_permutation((1, 1))
    assert not is_permutation((2, 3))


def test_trim_strips_trailing_fixed_points():
    assert trim((4, 1, 3, 2, 5, 6)) == (4, 1, 3, 2)
    assert trim((1, 2, 3)) == ()
    assert trim(()) == ()
    assert trim((2, 1, 3)) == (2, 1)


def test_trim_zeros():
    assert trim_zeros((3, 1, 0, 0)) == (3, 1)
    assert trim_zeros([0, 2, 0]) == (0, 2)
    assert trim_zeros(()) == ()
    assert trim_zeros((0,)) == ()


def test_inverse_fixture():
    assert inverse((4, 1, 5, 3, 2)) == (2, 5, 4, 1, 3)


@given(perms(6))
def test_inverse_is_an_involution(w):
    assert inverse(inverse(w)) == w
    assert all(w[inverse(w)[i] - 1] == i + 1 for i in range(len(w)))


@given(perms(12))
def test_inversions_equals_code_sum(w):
    # against the quadratic definition: both come from one sorted pass
    code = tuple(sum(1 for v in w[i + 1 :] if v < w[i]) for i in range(len(w)))
    assert lehmer_code(w) == code
    assert inversions(w) == sum(code)


# --- Lehmer codes ----------------------------------------------------------


def test_lehmer_code_fixtures():
    assert lehmer_code((1, 5, 3, 4, 2)) == (0, 3, 1, 1, 0)
    assert lehmer_code((4, 1, 5, 3, 2)) == (3, 0, 2, 1, 0)
    assert lehmer_code((4, 1, 3, 2)) == (3, 0, 1, 0)
    assert lehmer_code(tuple(range(1, 6))) == (0, 0, 0, 0, 0)
    assert lehmer_code(()) == ()


def test_perm_from_code_fixtures():
    # the code -> permutation fixtures, read in the lehmer_code direction;
    # a code longer than its window belongs to the least n that fits it
    assert lehmer_code((4, 1, 3, 2)) == (3, 0, 1, 0)
    assert lehmer_code(()) == ()
    assert lehmer_code((1, 2)) == (0, 0)
    assert lehmer_code((3, 1, 2)) == (2, 0, 0)


def test_code_round_trip_from_permutation():
    # w comes back from its code: the codes of S_n are distinct
    for n in range(1, 7):
        assert len({lehmer_code(w) for w in all_permutations(n)}) == math.factorial(n)


def test_code_round_trip_from_code():
    # every vector with entry i at most n - i - 1 is the code of some w in S_n
    for n in range(1, 7):
        box = set(itertools.product(*(range(n - i) for i in range(n))))
        assert {lehmer_code(w) for w in all_permutations(n)} == box


def test_code_entries_fit_their_suffix():
    for n in range(1, 7):
        for w in all_permutations(n):
            c = lehmer_code(w)
            assert all(c[i] <= n - i - 1 for i in range(n)), w


# --- pattern containment ----------------------------------------------------


def test_pattern_witness_fixtures():
    assert pattern_witness((2, 4, 5, 1, 3), (2, 4, 1, 3)) == (1, 2, 4, 5)
    assert pattern_witness((1, 4, 6, 2, 3, 5), (1, 4, 5, 2, 3)) == (1, 2, 3, 4, 5)
    assert pattern_witness((3, 2, 1, 4, 6, 5), (3, 2, 1, 5, 4)) == (1, 2, 3, 5, 6)
    assert pattern_witness((4, 1, 3, 2), (1, 4, 3, 2)) is None
    assert pattern_witness((1, 4, 3, 2), (1, 4, 3, 2)) == (1, 2, 3, 4)


def test_pattern_witness_trivial_pattern():
    assert pattern_witness((3, 1, 2), ()) == ()
    assert pattern_witness((), ()) == ()
    # a pattern is searched as given: (1, 2) is no empty pattern
    assert pattern_witness((), (1, 2)) is None
    assert pattern_witness((), (2, 1)) is None


def test_patterns_ending_in_fixed_points_are_searched_whole():
    # regression: pattern and text were trimmed before the search, so their
    # trailing fixed points were lost
    assert not contains_pattern((2, 1), (1, 2))
    assert pattern_witness((3, 2, 1), (1, 2)) is None
    assert pattern_witness((), (1,)) is None
    assert pattern_witness((2, 1, 3), (1, 2)) == (1, 3)


def test_pattern_witness_is_lex_first():
    # both (1,3,4) and (2,3,4) carry 132; the first wins
    assert pattern_witness((1, 2, 5, 3), (1, 3, 2)) == (1, 3, 4)


def first_occurrence(w, p):
    # the definition: the first index tuple, in combinations order, whose
    # values are in the relative order of p
    for idx in itertools.combinations(range(len(w)), len(p)):
        values = [w[i] for i in idx]
        if all((a < b) == (c < d) for a, c in zip(values, p) for b, d in zip(values, p)):
            return tuple(i + 1 for i in idx)
    return None


def test_pattern_witness_matches_brute_force():
    small = ((), (1,), (1, 2), (2, 1), (1, 3, 2), (3, 1, 2))
    for n in range(8):
        for w in all_permutations(n):
            for p in FORBIDDEN_PATTERNS + (small if n < 7 else ()):
                assert pattern_witness(w, p) == first_occurrence(w, p), (w, p)
    rng = random.Random(8)
    for _ in range(200):
        w = tuple(rng.sample(range(1, 9), 8))
        for p in FORBIDDEN_PATTERNS:
            assert pattern_witness(w, p) == first_occurrence(w, p), (w, p)
    # a pattern longer than w, and (1, 2) against (2, 1)
    assert pattern_witness((3, 1, 2), (1, 4, 3, 2)) is None
    assert pattern_witness((2, 1), (1, 2)) is None
    assert pattern_witness((1, 2), (2, 1)) is None


@given(perms(5))
def test_witness_really_matches_the_pattern(w):
    for p in [(2, 1), (1, 3, 2), (2, 4, 1, 3)]:
        idx = pattern_witness(w, p)
        if idx is None:
            continue
        picked = tuple(w[i - 1] for i in idx)
        assert standardize(picked) == p
        assert idx == tuple(sorted(idx))


@given(perms(5))
def test_containment_ignores_trailing_fixed_points(w):
    padded = w + (len(w) + 1,)
    for p in FORBIDDEN_PATTERNS:
        assert contains_pattern(w, p) == contains_pattern(padded, p)


def test_avoids_forbidden_fixtures():
    for p in FORBIDDEN_PATTERNS:
        assert not avoids_forbidden(p)
    assert avoids_forbidden((4, 1, 3, 2))
    assert avoids_forbidden(())
    assert avoids_forbidden((2, 1, 4, 3))
    assert not avoids_forbidden((2, 4, 5, 1, 3))
    assert not avoids_forbidden((1, 4, 6, 2, 3, 5))
    assert not avoids_forbidden((3, 2, 1, 4, 6, 5))


SETS = (tuple(map(bytes, FORBIDDEN_PATTERNS)), (bytes(PATTERN_1432),))


def test_avoider_sets_match_the_pattern_search():
    # the backtracking search is the reference for the deletion rule; the
    # patterns themselves are among the permutations checked
    for n in range(1, 8):
        table = avoider_table(SETS, n)
        for w in all_permutations(n):
            bits = table.get(bytes(w), 0)
            assert bits & 1 == avoids_forbidden(w), w
            assert bits >> 1 == (not contains_pattern(w, PATTERN_1432)), w


def test_avoids_by_deletions_fixtures():
    assert avoider_table(SETS, 0) == {b"": 0b11}
    size3, size4 = avoider_table(SETS, 3), avoider_table(SETS, 4)
    assert avoidance_bits((4, 1, 3, 2), SETS, size3) == 0b11
    # 2413 is one of the six, though each of its deletions is clean; it
    # clears its own bit and keeps the other
    assert avoidance_bits((2, 4, 1, 3), SETS, size3) == 0b10
    # 1432 is a pattern of both sets
    assert avoidance_bits((1, 4, 3, 2), SETS, size3) == 0
    # 24513 is not a pattern, but deleting its 5 leaves 2413
    assert avoidance_bits((2, 4, 5, 1, 3), SETS, size4) == 0b10
    # a missing deletion counts as avoiding nothing
    assert avoidance_bits((2, 1), SETS, {}) == 0


class Lookups:
    # a table that holds every key with bit 0 and records what is looked up
    def __init__(self):
        self.keys_asked = []

    def get(self, key, default):
        self.keys_asked.append(key)
        return 1


def test_byte_deletions_match_the_reference():
    # with no pattern and every deletion avoiding, avoidance_bits looks up
    # the one-point deletion at each index of w, in index order
    for n in range(1, 8):
        for w in all_permutations(n):
            table = Lookups()
            assert avoidance_bits(w, ((),), table) == 1
            assert table.keys_asked == [bytes(reference_deletion(w, j)) for j in range(n)]


def test_avoider_candidates_are_insertions(monkeypatch):
    # with no pattern every candidate is kept, so the candidates of size k
    # are insert(v, k, last) for each entry v of size k - 1, in that order
    asked = []

    def recording(w, pattern_sets, smaller):
        asked.append(w)
        return avoidance_bits(w, pattern_sets, smaller)

    monkeypatch.setattr(permutations, "avoidance_bits", recording)
    table = avoider_table(((),), 6)
    expected, level = [b""], [()]
    for k in range(1, 7):
        level = [insert(v, k, last) for v in level for last in range(1, k + 1)]
        expected += map(bytes, level)
    assert asked == expected
    assert table == dict.fromkeys(map(bytes, all_permutations(6)), 1)


def test_byte_maps_shift_every_value():
    maps = (permutations._LOWERING, permutations._RAISING, permutations._ONE_BYTE)
    assert [len(m) for m in maps] == [256] * 3
    for v in range(256):
        assert list(permutations._LOWERING[v]) == [u - (u > v) for u in range(256)], v
        assert list(permutations._RAISING[v]) == [u + (v <= u < 255) for u in range(256)], v
        assert permutations._ONE_BYTE[v] == bytes((v,))


def test_more_than_255_values_have_no_byte_form():
    for call in (
        lambda: avoidance_bits(tuple(range(1, 257)), SETS, {}),
        lambda: avoider_table(SETS, 256),
    ):
        with pytest.raises(ValueError, match="more than 255 values"):
            call()


# --- insertion ---------------------------------------------------------------


def test_insert_fixtures():
    assert insert((1, 3, 4, 2), 2, 4) == (1, 4, 3, 5, 2)
    assert insert((1, 3, 4, 2), 2, 2) == (1, 2, 4, 5, 3)
    assert insert((1, 3, 4, 2), 1, 1) == (1, 2, 4, 5, 3)
    assert insert((), 1, 1) == (1,)


def test_insert_range_checks():
    with pytest.raises(ValueError):
        insert((2, 1), 4, 1)
    with pytest.raises(ValueError):
        insert((2, 1), 1, 0)
    with pytest.raises(ValueError):
        insert((2, 1), 1, 4)


@given(
    perms(5).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.integers(1, len(w) + 1),
            st.integers(1, len(w) + 1),
        )
    )
)
def test_insert_round_trip(args):
    w, i, k = args
    grown = insert(w, i, k)
    assert is_permutation(grown)
    assert grown[i - 1] == k
    # deleting the inserted spot recovers w
    assert standardize(grown[: i - 1] + grown[i:]) == w
    # and the grown permutation contains w as a pattern
    if trim(w):
        assert contains_pattern(grown, trim(w))


# --- parsing and printing -----------------------------------------------------


def test_parse_permutation_digit_form():
    assert parse_permutation("4132") == (4, 1, 3, 2)
    assert parse_permutation("1") == (1,)


def test_parse_permutation_comma_form():
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert parse_permutation("2,1") == (2, 1)


def test_parse_permutation_rejects_junk():
    for bad in ["", "41x2", "0", "1,1", "132 4", "1,", "-1"]:
        with pytest.raises(ValueError):
            parse_permutation(bad)


@given(perms(6))
def test_format_parse_round_trip(w):
    if not w:
        assert format_permutation(w) == "1"
        return
    assert parse_permutation(format_permutation(w)) == w


def test_all_permutations_lex_order():
    got = list(all_permutations(3))
    assert got == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert len(list(all_permutations(5))) == 120
