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

Hot loops (the divided-difference sweep, labeling sums, pipe-dream weight
sums) work on monomials packed into ints instead (``_Packing``) and decode
once at the end, through one interned table per field layout.  The sweep of
bulk ``verify`` never decodes: it also freezes x1 and x2 into its values
(see ``correspondence``).  One divided-difference kernel serves the sweep
and the Schubert oracle alike; it reads the offsets of each step from a
table of the same per-layout entry, filled as keys meet it.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .permutations import trim_zeros

Monomial = tuple[int, ...]

__all__ = [
    "Monomial",
    "Polynomial",
    "monomial_of",
]


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
    return tuple(map(sum, zip_longest(exps, other, fillvalue=0)))


class Polynomial:
    """Immutable sparse polynomial; supports +, -, *, ** and exact equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                exps = trim_zeros(exps)
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
        other = _coerce(other)
        if other is NotImplemented:
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
        return self._terms.get(trim_zeros(exps), 0)

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


# one entry per field layout (nvars, bits), shared by every _Packing of
# that layout: its decode table, packed key -> trimmed exponent tuple, so
# every decode of one monomial returns one tuple object, its ∂ tables (see
# _divided_difference), the pipe-dream row tables of each count k of
# leading fixed points (see pipedreams._dreams), and the row-step table of
# the pipe-dream row graph (see pipedreams._RowGraph).  A layout's decode
# table is emptied before it would pass _INTERN_LIMIT entries, and so is
# its row-step table, a _Bounded; S_8 has at most 8! monomials under the
# staircase and never fills a decode table.
_INTERNED: dict[tuple[int, int], tuple[dict[int, Monomial], list, dict, dict]] = {}
_INTERN_LIMIT = 1 << 16


class _Bounded(dict):
    """A dict that empties itself before it would pass _INTERN_LIMIT
    entries.  Only a store runs Python code, so it suits tables that are
    read far more often than filled; the decode table is filled once per
    new monomial and keeps its bound inline."""

    __slots__ = ()

    def __setitem__(self, key, value) -> None:
        if len(self) >= _INTERN_LIMIT:
            self.clear()
        super().__setitem__(key, value)


class _Packing:
    """Monomials packed into ints, for sums too hot for exponent tuples.

    Each of x_1 .. x_nvars gets a field of ``bits`` bits, x_1 the most
    significant, so the order of keys is the lex order of the padded
    exponent vectors and the least key of a packed polynomial is its
    calibrated leading monomial.  The fields must hold every exponent that
    arises: ``pack`` refuses a wider one, and the callers that add keys
    (labeling weights, pipe-dream weights) size ``max_exponent`` by the
    largest total degree they reach.
    """

    __slots__ = (
        "nvars", "bits", "mask", "units", "interned", "divdiffs", "row_cells", "row_steps"
    )

    def __init__(self, nvars: int, max_exponent: int):
        self.nvars = nvars
        self.bits = max(1, max_exponent.bit_length())
        self.mask = (1 << self.bits) - 1
        # units[i] is the key of x_i; units[0] = 0 adds nothing
        self.units = (0,) + tuple(
            1 << self.bits * (nvars - i) for i in range(1, nvars + 1)
        )
        layout = (nvars, self.bits)
        entry = _INTERNED.get(layout)
        if entry is None:
            entry = _INTERNED.setdefault(layout, ({}, [None] * nvars, {}, _Bounded()))
        self.interned, self.divdiffs, self.row_cells, self.row_steps = entry

    def pack(self, exps: Sequence[int]) -> int:
        """The key of the monomial with exponents ``exps``."""
        if len(exps) > self.nvars or any(e < 0 or e > self.mask for e in exps):
            raise RuntimeError(
                f"{tuple(exps)} does not fit {self.nvars} fields of {self.bits} bits"
            )
        key = 0
        for e in exps:
            key = key << self.bits | e
        return key << self.bits * (self.nvars - len(exps))

    def leads_with(self, terms: Mapping[int, int], exps: Sequence[int]) -> bool:
        """Whether the leading term of packed ``terms`` is the monomial
        ``exps`` with coefficient 1: its key is the least one."""
        lead = min(terms, default=None)
        return lead == self.pack(exps) and terms[lead] == 1

    def decode(self, terms: Mapping[int, int]) -> Polynomial:
        """The polynomial of packed ``terms``, which hold no zero coefficient."""
        bits, mask = self.bits, self.mask
        top = bits * (self.nvars - 1)  # the shift of x_1's field
        interned = self.interned
        known = interned.get
        out: dict[Monomial, int] = {}
        for key, coeff in terms.items():
            exps = known(key)
            if exps is None:
                if len(interned) >= _INTERN_LIMIT:
                    interned.clear()
                # the fields from x_1 down to the one with the lowest set
                # bit: the trimmed exponent tuple, () for the key 0
                stop = (key & -key).bit_length() - 1 - bits if key else top
                exps = interned[key] = tuple(
                    [key >> s & mask for s in range(top, stop, -bits)]
                )
            out[exps] = coeff
        return _raw(out)


def _divided_difference(
    terms: Mapping[int, int], i: int, packing: _Packing
) -> dict[int, int]:
    """d_i of packed ``terms`` (i < packing.nvars), term by term: for a > b,
    x_i^a x_{i+1}^b maps to the sum over k < a - b of x_i^(a-1-k) x_{i+1}^(b+k);
    equal exponents map to 0; a < b is the negated sum with a and b
    exchanged.  No exponent grows, so every key stays in its fields.

    The new keys are the old one plus offsets that depend on the layout, i
    and a - b alone, so each key reads a - b from its two fields and looks
    up (negate, offsets) in the layout's table for i, indexed by a - b: a
    list of 2 * mask + 1 slots, where a negative index is the a < b case.
    A table is made on the first d_i of its layout, and each entry on the
    first key that meets it, so a wide layout holds only the entries its
    keys reach, not all mask^2 offsets."""
    lo = packing.bits * (packing.nvars - i - 1)
    hi = lo + packing.bits
    mask = packing.mask
    table = packing.divdiffs[i]
    if table is None:
        table = packing.divdiffs[i] = [None] * (2 * mask + 1)
    out: dict[int, int] = {}
    for key, coeff in terms.items():
        d = (key >> hi & mask) - (key >> lo & mask)
        if not d:
            continue
        entry = table[d]
        if entry is None:
            unit = 1 << hi
            step = unit - (1 << lo)  # moves one degree from x_i to x_{i+1}
            # a < b: exchange the exponents first, then negate
            start = (-d * step if d < 0 else 0) - unit
            entry = table[d] = (d < 0, tuple(range(start, start - abs(d) * step, -step)))
        negate, offsets = entry
        if negate:
            coeff = -coeff
        for offset in offsets:
            new_key = key + offset
            if new_key not in out:
                out[new_key] = coeff
            elif new := out[new_key] + coeff:
                out[new_key] = new
            else:
                del out[new_key]
    return out
