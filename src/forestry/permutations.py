"""Permutations in one-line notation, Lehmer codes, pattern containment.

Permutations are plain tuples such as ``(4, 1, 3, 2)``.  Trailing fixed
points carry no meaning: ``(4, 1, 3, 2, 5)`` denotes the same value, and
``trim`` is the normal form (the identity trims to ``()``).

>>> lehmer_code((1, 5, 3, 4, 2))
(0, 3, 1, 1, 0)
>>> pattern_witness((2, 4, 5, 1, 3), (2, 4, 1, 3))
(1, 2, 4, 5)
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterable, Iterator, Mapping, Optional

Permutation = tuple[int, ...]
LehmerCode = tuple[int, ...]

# Every memo in the package is an LRU cache of this many entries; a
# 250-permutation working set (one query-mix topic) fits.  A pipe-dream
# entry holds a permutation's row graph and, once asked for, its dreams or
# its Schubert polynomial, each folded from the graph; with both, it lets
# the graph go.
_CACHE_SIZE = 256

# Avoiding 1432 makes order-0 moves reach every pipe dream, which is when
# the bad-pair search decides the verdict.
PATTERN_1432: Permutation = (1, 4, 3, 2)

# The six obstructions to a Schubert polynomial being a forest polynomial.
FORBIDDEN_PATTERNS: tuple[Permutation, ...] = (
    PATTERN_1432,
    (2, 4, 1, 3),
    (2, 4, 3, 1),
    (1, 4, 5, 2, 3),
    (3, 2, 1, 5, 4),
    (3, 4, 1, 2, 6, 5),
)

__all__ = [
    "Permutation",
    "LehmerCode",
    "PATTERN_1432",
    "FORBIDDEN_PATTERNS",
    "is_permutation",
    "trim",
    "inverse",
    "inversions",
    "lehmer_code",
    "trim_zeros",
    "contains_pattern",
    "pattern_witness",
    "avoids_forbidden",
    "avoidance_bits",
    "avoider_table",
    "insert",
    "all_permutations",
    "parse_permutation",
    "format_permutation",
]


def is_permutation(word: tuple[int, ...]) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


def trim(w: Permutation) -> Permutation:
    """Strip trailing fixed points; the identity becomes ``()``."""
    n = len(w)
    while n > 0 and w[n - 1] == n:
        n -= 1
    return tuple(w[:n])


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def inversions(w: Permutation) -> int:
    return sum(lehmer_code(w))


def lehmer_code(w: Permutation) -> LehmerCode:
    """Entry i counts the j > i with w(j) < w(i).  Length = len(w).

    Read from the right, entry i is the insertion point of w(i) among the
    sorted values after it."""
    after: list[int] = []
    code = []
    for v in reversed(w):
        i = bisect.bisect_left(after, v)
        code.append(i)
        after.insert(i, v)
    return tuple(reversed(code))


def trim_zeros(entries: Iterable[int]) -> tuple[int, ...]:
    """The entries as a tuple without trailing zeros: a Lehmer code, or a
    monomial's exponents, in canonical form."""
    t = tuple(entries)
    n = len(t)
    while n > 0 and t[n - 1] == 0:
        n -= 1
    return t[:n]


def _code_cells(code: LehmerCode) -> tuple[tuple[int, int], ...]:
    """Cells (i, t), 1 <= t <= code[i - 1], in ``forests._layout``'s slot
    order: the bottom pipe dream's crossings and the forest's vertices."""
    return tuple((i, t) for i, k in enumerate(code, 1) for t in range(1, k + 1))


def pattern_witness(w: Permutation, p: Permutation) -> Optional[tuple[int, ...]]:
    """Lexicographically first 1-based index tuple where p occurs in w, else
    None.  Both words are searched as given, trailing fixed points included:
    (1, 2) does not occur in (2, 1), and the empty pattern occurs in every w.

    The chosen prefix always matches p's prefix in relative order, so entry
    m only has to lie between the values chosen for the earlier positions
    holding the next smaller and the next larger value of p."""
    n, k = len(w), len(p)
    bounds = []  # per position of p: earlier positions of its value neighbours
    for m, v in enumerate(p):
        lo = hi = None
        for s in range(m):
            if p[s] < v:
                if lo is None or p[s] > p[lo]:
                    lo = s
            elif hi is None or p[s] < p[hi]:
                hi = s
        bounds.append((lo, hi))
    chosen = [0] * k
    m = j = 0
    while m < k:
        lo, hi = bounds[m]
        low = -math.inf if lo is None else w[chosen[lo]]
        high = math.inf if hi is None else w[chosen[hi]]
        for j in range(j, n - k + m + 1):
            if low < w[j] < high:
                chosen[m] = j
                m += 1
                j += 1
                break
        else:
            # no candidate left for position m: move position m - 1 on
            if m == 0:
                return None
            m -= 1
            j = chosen[m] + 1
    return tuple(j + 1 for j in chosen)


def contains_pattern(w: Permutation, p: Permutation) -> bool:
    return pattern_witness(w, p) is not None


def avoids_forbidden(w: Permutation) -> bool:
    return not any(contains_pattern(w, p) for p in FORBIDDEN_PATTERNS)


def insert(w: Permutation, i: int, k: int) -> Permutation:
    """Grow w by one: bump every value >= k, then put value k at index i.

    Deleting index i from the result (renormalizing values) recovers w.
    """
    n = len(w)
    if not 1 <= i <= n + 1:
        raise ValueError(f"index {i} out of range 1..{n + 1}")
    if not 1 <= k <= n + 1:
        raise ValueError(f"value {k} out of range 1..{n + 1}")
    bumped = [v + 1 if v >= k else v for v in w]
    return tuple(bumped[: i - 1] + [k] + bumped[i - 1 :])


# Pattern verdicts work on byte forms, bytes(w).  _LOWERING[v] lowers every
# byte above v by one, _RAISING[v] raises every byte from v up by one, and
# _ONE_BYTE[v] is bytes((v,)); each is sliced from the identity map once,
# at import.
_IDENTITY = bytes(range(256))
_LOWERING = tuple(_IDENTITY[: v + 1] + _IDENTITY[v:255] for v in range(256))
_RAISING = tuple(_IDENTITY[:v] + _IDENTITY[v + 1 :] + _IDENTITY[255:] for v in range(256))
_ONE_BYTE = tuple(_IDENTITY[v : v + 1] for v in range(256))
_NO_BYTE_FORM = "a permutation of more than 255 values has no byte form"


def avoidance_bits(w, pattern_sets, smaller: Mapping[bytes, int]) -> int:
    """Bit j is set when w avoids every pattern of ``pattern_sets[j]``,
    given ``smaller``, which maps each permutation of size len(w) - 1 to
    the same bits (a missing one has none).  An occurrence of a shorter
    pattern survives some one-point deletion, so w avoids a set exactly
    when it is none of its patterns and each of its deletions avoids it.
    One pass over the standardized deletions serves every set; it stops
    once no bit is left.

    The check runs on byte forms: w, a tuple or bytes, is looked up as
    bytes(w); the patterns and the keys of ``smaller`` are bytes; and the
    deletion of the value v is one ``bytes.translate`` of w that drops the
    byte v and lowers the bytes above it.  More than 255 values raise
    ``ValueError``."""
    if len(w) > 255:
        raise ValueError(_NO_BYTE_FORM)
    lowering, one_byte = _LOWERING, _ONE_BYTE
    w = bytes(w)
    bits = 0
    for j, patterns in enumerate(pattern_sets):
        if w not in patterns:
            bits |= 1 << j
    for v in w:
        bits &= smaller.get(w.translate(lowering[v], one_byte[v]), 0)
        if not bits:
            break
    return bits


def avoider_table(pattern_sets, n: int) -> dict[bytes, int]:
    """The permutations of S_n (untrimmed) that avoid every pattern of at
    least one of ``pattern_sets``, with their ``avoidance_bits``, keyed by
    byte form like the patterns.  Built up from S_0: the candidates of size
    k are the entries v of size k - 1 with one more last value, each one
    ``bytes.translate`` that raises the values from ``last`` up, then
    ``last`` appended.  n above 255 raises ``ValueError``."""
    if n > 255:
        raise ValueError(_NO_BYTE_FORM)
    level = {b"": avoidance_bits(b"", pattern_sets, {})}
    for k in range(1, n + 1):
        grow = [(_RAISING[last], _ONE_BYTE[last]) for last in range(1, k + 1)]
        level = {
            w: bits
            for v in level
            for w in (v.translate(up) + last for up, last in grow)
            if (bits := avoidance_bits(w, pattern_sets, level))
        }
    return level


def all_permutations(n: int) -> Iterator[Permutation]:
    """S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def parse_permutation(text: str) -> Permutation:
    """Digits-only for n <= 9 ("4132"); comma-separated beyond ("10,2,...")."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        try:
            word = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse permutation {text!r}") from None
    elif text.isdigit():
        word = tuple(int(ch) for ch in text)
    else:
        raise ValueError(f"cannot parse permutation {text!r}")
    if not is_permutation(word):
        raise ValueError(f"{text!r} is not a rearrangement of 1..{len(word)}")
    return word


def format_permutation(w: Permutation) -> str:
    if not w:
        return "1"
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)
