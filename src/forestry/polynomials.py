"""Sparse integer polynomials in variables x1, x2, x3, ...

A monomial is a trailing-zero-trimmed tuple of nonnegative exponents
(``(3, 0, 1)`` is x1^3*x3; ``()`` is 1).  On trimmed tuples, plain tuple
comparison coincides with lexicographic comparison of the zero-padded
vectors, which is the one total order this package needs: the *leading*
monomial of a nonzero polynomial here is the lex-smallest exponent vector.
That direction is calibrated, not conventional — it is the unique order
under which the leading monomial of a Schubert polynomial is the Lehmer
code of its permutation (checked exhaustively in the test suite).

Coefficients are arbitrary-precision ints; no zero coefficient is stored.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence, Union

Monomial = tuple[int, ...]

__all__ = [
    "Monomial",
    "Polynomial",
    "trim_exponents",
    "monomial_of",
    "sum_of_monomials",
    "swap_variables",
    "divided_difference",
]


def trim_exponents(exps: Iterable[int]) -> Monomial:
    t = tuple(exps)
    n = len(t)
    while n > 0 and t[n - 1] == 0:
        n -= 1
    return t[:n]


def monomial_of(indices: Sequence[int]) -> Monomial:
    """Exponents of x_{i_1} * x_{i_2} * ... for 1-based indices i_k: entry
    j - 1 counts the k with i_k = j.  Already trimmed."""
    if not indices:
        return ()
    exps = [0] * max(indices)
    for i in indices:
        exps[i - 1] += 1
    return tuple(exps)


def _merge(exps: Monomial, other: Monomial) -> Monomial:
    # exponentwise sum; result needs no trim (no cancellation of positives)
    if len(exps) < len(other):
        exps, other = other, exps
    return tuple(
        e + (other[i] if i < len(other) else 0) for i, e in enumerate(exps)
    )


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, ** and exact equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                exps = trim_exponents(exps)
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): 1})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        """x_i (1-based)."""
        if i < 1:
            raise ValueError("variables are numbered from 1")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "Polynomial":
        return cls({tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return _raw(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Monomial, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _merge(e1, e2)
                new = terms.get(e, 0) + c1 * c2
                if new:
                    terms[e] = new
                else:
                    del terms[e]
        return _raw(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one()
        for _ in range(k):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # equal objects hash equal: a constant polynomial equals its int
        if not self._terms or (len(self._terms) == 1 and () in self._terms):
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def term_count(self) -> int:
        return len(self._terms)

    def coefficient(self, exps: Iterable[int]) -> int:
        return self._terms.get(trim_exponents(exps), 0)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order (exponent vectors descending)."""
        for exps in sorted(self._terms, reverse=True):
            yield exps, self._terms[exps]

    def leading_monomial(self) -> Monomial:
        """The calibrated leading term's exponent vector (see module docs)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return min(self._terms)

    # -- rendering / serialization ------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.items():
            factors = [
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e
            ]
            body = "*".join(factors)
            mag = abs(coeff)
            if mag != 1 or not factors:
                body = f"{mag}*{body}" if factors else str(mag)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial<{self}>"

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": coeff, "exps": list(exps)} for exps, coeff in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj: object) -> "Polynomial":
        if not isinstance(obj, list):
            raise ValueError("polynomial JSON must be a list of terms")
        terms: dict[Monomial, int] = {}
        for entry in obj:
            if not isinstance(entry, dict) or set(entry) != {"coeff", "exps"}:
                raise ValueError(f"bad polynomial term {entry!r}")
            coeff, exps = entry["coeff"], entry["exps"]
            if not isinstance(coeff, int) or not isinstance(exps, list):
                raise ValueError(f"bad polynomial term {entry!r}")
            if not all(isinstance(e, int) and e >= 0 for e in exps):
                raise ValueError(f"bad exponents {exps!r}")
            key = trim_exponents(exps)
            if key in terms:
                raise ValueError(f"duplicate monomial {exps!r}")
            terms[key] = coeff
        return cls(terms)


def _coerce(value: Union[Polynomial, int]) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented


def _raw(terms: dict[Monomial, int]) -> Polynomial:
    # internal fast path: terms already trimmed/zero-free
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


def sum_of_monomials(monomials: Iterable[Monomial]) -> Polynomial:
    """Sum of trimmed monomials, each with coefficient 1 (a weight sum)."""
    return _raw(dict(Counter(monomials)))


def swap_variables(p: Polynomial, i: int) -> Polynomial:
    """Exchange x_i and x_{i+1} (1-based i)."""
    if i < 1:
        raise ValueError("variables are numbered from 1")
    terms: dict[Monomial, int] = {}
    for exps, coeff in p._terms.items():
        padded = list(exps) + [0] * max(0, i + 1 - len(exps))
        padded[i - 1], padded[i] = padded[i], padded[i - 1]
        terms[trim_exponents(padded)] = coeff
    return _raw(terms)


def divided_difference(p: Polynomial, i: int) -> Polynomial:
    """(p - p with x_i, x_{i+1} swapped) / (x_i - x_{i+1}), exactly, term by
    term: for a > b, x_i^a x_{i+1}^b maps to the sum over k < a - b of
    x_i^(a-1-k) x_{i+1}^(b+k); equal exponents map to 0; a < b is the
    negated sum with a and b exchanged."""
    if i < 1:
        raise ValueError("variables are numbered from 1")
    terms: dict[Monomial, int] = {}
    for exps, coeff in p._terms.items():
        if len(exps) < i:
            continue  # x_i and x_{i+1} both absent: symmetric term
        a = exps[i - 1]
        b = exps[i] if len(exps) > i else 0
        if a == b:
            continue
        if a < b:
            a, b, coeff = b, a, -coeff
        head, tail = exps[: i - 1], exps[i + 1 :]
        for k in range(a - b):
            key = head + (a - 1 - k, b + k) + tail
            if not tail and b + k == 0:
                key = trim_exponents(key)
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                del terms[key]
    return _raw(terms)
