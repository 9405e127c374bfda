import json

import pytest
from hypothesis import given, strategies as st
from references import small_polys, x

from forestry import polynomials
from forestry.polynomials import _Packing, Polynomial


def test_constructor_normalizes():
    p = Polynomial({(1, 0): 2, (0, 1, 0): 3, (2,): 0})
    assert p.coefficient((1,)) == 2
    assert p.coefficient((0, 1)) == 3
    assert p.coefficient((2,)) == 0
    assert p.term_count() == 2


def test_constants_and_equality_with_int():
    assert Polynomial.zero() == 0
    assert Polynomial.one() == 1
    assert Polynomial.constant(-3) == -3
    assert x(1) != 1
    assert not Polynomial.zero()
    assert Polynomial.one()


def test_arithmetic_fixture():
    p = (x(1) + x(2)) ** 2
    assert p == x(1) ** 2 + 2 * x(1) * x(2) + x(2) ** 2
    assert p.coefficient((1, 1)) == 2


def test_subtraction_and_negation():
    assert x(1) - x(1) == 0
    assert 1 - x(1) == -(x(1) - 1)


def test_pow_zero_is_one():
    assert (x(3) + 2) ** 0 == 1
    assert Polynomial.zero() ** 0 == 1


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        x(1) ** -1


@given(small_polys(4), small_polys(4), small_polys(4))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p
    assert p * 1 == p
    assert p * 0 == 0


@given(small_polys(4))
def test_hash_consistency(p):
    assert hash(p) == hash(Polynomial(dict(p.items())))


@given(st.integers())
def test_constant_hashes_as_its_int(c):
    # regression: a constant polynomial equals its int, so it must hash equal
    assert Polynomial.constant(c) == c
    assert hash(Polynomial.constant(c)) == hash(c)


def test_zero_and_int_zero_are_one_set_member():
    assert len({Polynomial.zero(), 0}) == 1
    assert len({Polynomial.one(), 1, Polynomial.constant(1)}) == 1


def test_leading_monomial_prefers_later_variables():
    # ties in total weight break toward the lexicographically smaller
    # exponent vector, i.e. the monomial using later variables
    p = x(1) ** 3 * x(2) + x(1) ** 3 * x(3)
    assert p.leading_monomial() == (3, 0, 1)
    assert (x(1) + x(2) + x(3)).leading_monomial() == (0, 0, 1)


def test_leading_monomial_of_zero_raises():
    with pytest.raises(ValueError):
        Polynomial.zero().leading_monomial()


def test_str_canonical_order():
    p = x(1) ** 3 * x(2) + x(1) ** 3 * x(3)
    assert str(p) == "x1^3*x2 + x1^3*x3"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.one()) == "1"
    assert str(x(2) ** 2) == "x2^2"
    assert str(x(1) - 2 * x(2)) == "x1 - 2*x2"
    assert str(-x(1)) == "-x1"
    assert str(x(1) * x(2) + 5) == "x1*x2 + 5"


def test_items_descending_lex():
    p = x(1) ** 3 * x(3) + x(1) ** 3 * x(2) + x(2) ** 4
    assert [m for m, _ in p.items()] == [(3, 1), (3, 0, 1), (0, 4)]


def test_json_round_trip_fixture():
    p = x(1) ** 3 * x(2) + x(1) ** 3 * x(3)
    obj = p.to_json_obj()
    assert obj == [
        {"coeff": 1, "exps": [3, 1]},
        {"coeff": 1, "exps": [3, 0, 1]},
    ]
    assert json.loads(json.dumps(obj)) == obj


# --- packed monomials ----------------------------------------------------------


def wide_polys():
    exps = st.lists(st.integers(0, 40), min_size=0, max_size=6).map(tuple)
    return st.dictionaries(exps, st.integers(-5, 5), max_size=8).map(Polynomial)


@given(wide_polys(), st.integers(0, 3), st.integers(0, 20))
def test_packing_round_trip(p, more_vars, more_room):
    terms = dict(p.items())
    packing = _Packing(
        max(map(len, terms), default=0) + more_vars,
        max((max(e) for e in terms if e), default=0) + more_room,
    )
    packed = {packing.pack(exps): coeff for exps, coeff in terms.items()}
    assert len(packed) == len(terms)
    assert packing.decode(packed) == p
    if p:
        # key order is lex order, so the least key is the leading monomial
        assert packing.decode({min(packed): 1}) == Polynomial.monomial(
            p.leading_monomial()
        )


def test_packing_refuses_what_its_fields_cannot_hold():
    packing = _Packing(3, 5)  # three fields of 3 bits
    assert packing.pack((7, 0, 7)) == 7 << 6 | 7
    assert packing.units[3] == 1
    with pytest.raises(RuntimeError):
        packing.pack((8,))
    with pytest.raises(RuntimeError):
        packing.pack((0, 0, 0, 1))


def field_by_field(packing, key):
    # x_1's field first, trailing zero fields dropped
    exps = [
        key >> packing.bits * (packing.nvars - i) & packing.mask
        for i in range(1, packing.nvars + 1)
    ]
    while exps and not exps[-1]:
        exps.pop()
    return tuple(exps)


def test_decode_interns_one_tuple_per_monomial_and_layout():
    key = _Packing(3, 5).pack((2, 0, 1))
    first = next(iter(_Packing(3, 5).decode({key: 1})._terms))
    again = next(iter(_Packing(3, 5).decode({key: -4})._terms))
    assert first is again
    assert first == field_by_field(_Packing(3, 5), key) == (2, 0, 1)


def test_decode_tables_are_per_field_layout():
    # one int key, three layouts, three monomials: a table shared across
    # nvars or across field widths would answer with another layout's tuple
    key = 5
    layouts = [_Packing(3, 5), _Packing(3, 1), _Packing(2, 5)]
    for _ in range(2):
        decoded = [packing.decode({key: 1}) for packing in layouts]
        assert decoded == [
            Polynomial.monomial(field_by_field(packing, key)) for packing in layouts
        ]
    assert [next(iter(p._terms)) for p in decoded] == [(0, 0, 5), (1, 0, 1), (0, 5)]


def test_decode_table_is_bounded(monkeypatch):
    monkeypatch.setattr(polynomials, "_INTERN_LIMIT", 8)
    packing = _Packing(4, 100)  # four fields of 7 bits
    keys = [packing.pack((i % 5, i // 5, 0, 3)) for i in range(100)]
    for key in keys:
        assert packing.decode({key: 1}) == Polynomial.monomial(
            field_by_field(packing, key)
        )
        assert len(packing.interned) <= 8
    together = packing.decode(dict.fromkeys(keys, 2))
    assert len(packing.interned) <= 8
    assert together == Polynomial(
        {field_by_field(packing, key): 2 for key in keys}
    )
