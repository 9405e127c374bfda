"""Reduced pipe dreams, ladder moves, and Schubert polynomials.

A pipe dream is a frozenset of cells (row, col), both 1-based.  The cell
(r, c) carries the transposition s_{r+c-1}; reading cells row by row top to
bottom, right to left within a row, and applying each s_a as a right
multiplication (swap one-line positions a, a+1) must produce the target
permutation through ascents only — that is what "reduced" means here, and
``permutation_of`` returns None otherwise.

The bottom pipe dream of w left-justifies lehmer_code(w): row i holds its
first code(i) cells.  Every other reduced pipe dream for w arises from it
by ladder moves; ``all_pipe_dreams`` takes the closure under moves of every
order, ``simple_closure`` under order-0 moves only.  The two closures agree
exactly when w avoids the pattern 1432 (a property the test suite checks
exhaustively through S_6).
"""

from __future__ import annotations

import functools
from typing import Optional

from .permutations import _CACHE_SIZE, Permutation, inversions, lehmer_code, trim
from .polynomials import (
    Monomial,
    Polynomial,
    divided_difference,
    monomial_of,
    sum_of_monomials,
)

Cell = tuple[int, int]
PipeDream = frozenset  # of Cell

__all__ = [
    "Cell",
    "PipeDream",
    "diagonal",
    "word_of",
    "permutation_of",
    "bottom_pipe_dream",
    "slide_target",
    "ladder_move",
    "all_pipe_dreams",
    "simple_closure",
    "weight",
    "schubert",
    "divided_difference",
    "schubert_divdiff",
    "render",
]


def diagonal(cell: Cell) -> int:
    """Northeast diagonal index row + col - 1; simple moves preserve it."""
    return cell[0] + cell[1] - 1


def word_of(cells) -> tuple[int, ...]:
    return tuple(
        r + c - 1 for r, c in sorted(cells, key=lambda rc: (rc[0], -rc[1]))
    )


def permutation_of(cells) -> Optional[Permutation]:
    """Target permutation of a reduced crossing set, or None if not reduced."""
    word = word_of(cells)
    if not word:
        return ()
    line = list(range(1, max(word) + 2))
    for a in word:
        if line[a - 1] > line[a]:
            return None  # the step would cancel an inversion
        line[a - 1], line[a] = line[a], line[a - 1]
    return trim(tuple(line))


def bottom_pipe_dream(w: Permutation) -> PipeDream:
    code = lehmer_code(trim(w))
    return frozenset(
        (i + 1, c + 1) for i, k in enumerate(code) for c in range(k)
    )


def _move_target(cells, cell: Cell) -> Optional[tuple[int, Cell]]:
    """The unique applicable ladder move at ``cell``, as (order, target).

    Scanning upward from (r, c): a row with both (r', c), (r', c+1) full
    extends the ladder; the first row with both empty receives the crossing
    (order = r - r' - 1); a mixed row blocks every order.  Hence at most one
    order applies per cell.  Order 0 is the simple slide: (r-1, c),
    (r-1, c+1) and (r, c+1) all empty.
    """
    r, c = cell
    if (r, c + 1) in cells:
        return None
    rr = r - 1
    while rr >= 1:
        left, right = (rr, c) in cells, (rr, c + 1) in cells
        if left and right:
            rr -= 1
            continue
        if not left and not right:
            return r - rr - 1, (rr, c + 1)
        return None
    return None


def slide_target(cells, cell: Cell) -> Optional[Cell]:
    """Where the order-0 move sends ``cell`` (one step up its diagonal), or
    None when that slide is blocked."""
    found = _move_target(cells, cell)
    return found[1] if found is not None and found[0] == 0 else None


def ladder_move(cells: PipeDream, cell: Cell, k: int) -> Optional[PipeDream]:
    """Apply the order-k ladder move at ``cell``; None when not applicable."""
    if cell not in cells:
        raise ValueError(f"{cell} is not a crossing of the pipe dream")
    found = _move_target(cells, cell)
    if found is None or found[0] != k:
        return None
    moved = (cells - {cell}) | {found[1]}
    if permutation_of(moved) != permutation_of(cells):
        raise RuntimeError(f"ladder move at {cell} broke reducedness")
    return frozenset(moved)


def _closure(w: Permutation, simple_only: bool) -> frozenset:
    w = trim(w)
    bottom = bottom_pipe_dream(w)
    n_inv = inversions(w)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for dream in frontier:
            for cell in dream:
                found = _move_target(dream, cell)
                if found is None or (simple_only and found[0] != 0):
                    continue
                moved = frozenset((dream - {cell}) | {found[1]})
                if moved in seen:
                    continue
                if len(moved) != n_inv or permutation_of(moved) != w:
                    raise RuntimeError(f"ladder move at {cell} broke reducedness")
                seen.add(moved)
                nxt.append(moved)
        frontier = nxt
    return frozenset(seen)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _all_pipe_dreams_cached(w: Permutation) -> frozenset:
    return _closure(w, simple_only=False)


def all_pipe_dreams(w: Permutation) -> frozenset:
    """Every reduced pipe dream for w (closure under all ladder-move orders)."""
    return _all_pipe_dreams_cached(trim(w))


def simple_closure(w: Permutation) -> frozenset:
    """Pipe dreams reachable from the bottom one by order-0 moves alone."""
    return _closure(w, simple_only=True)


def weight(cells) -> Monomial:
    """Exponent of x_r = number of crossings in row r."""
    return monomial_of([r for r, _ in cells])


def _sum_of_weights(dreams) -> Polynomial:
    return sum_of_monomials(map(weight, dreams))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _schubert_cached(w: Permutation) -> Polynomial:
    return _sum_of_weights(_all_pipe_dreams_cached(w))


def schubert(w: Permutation) -> Polynomial:
    """Schubert polynomial of w: the weight sum over all_pipe_dreams(w)."""
    return _schubert_cached(trim(w))


def _descent_word(u: Permutation) -> tuple[int, ...]:
    """Letters a_1..a_m with u = s_{a_1} ∘ ... ∘ s_{a_m}, built by
    stripping the leftmost descent until the identity remains."""
    line = list(u)
    stripped = []
    while True:
        a = next(
            (j + 1 for j in range(len(line) - 1) if line[j] > line[j + 1]),
            None,
        )
        if a is None:
            return tuple(reversed(stripped))
        line[a - 1], line[a] = line[a], line[a - 1]
        stripped.append(a)


def schubert_divdiff(w: Permutation) -> Polynomial:
    """Independent Schubert oracle: divided differences down from the
    staircase monomial x1^(n-1) x2^(n-2) ... x_{n-1}."""
    w = trim(w)
    n = len(w)
    if n <= 1:
        return Polynomial.one()
    poly = Polynomial.monomial(tuple(range(n - 1, 0, -1)))
    longest_over_w = tuple(n + 1 - v for v in w)
    for a in _descent_word(longest_over_w):
        poly = divided_difference(poly, a)
    return poly


def render(cells, size: int) -> list[str]:
    """Staircase grid lines for a dream of a size-``size`` permutation:
    '+' crossings, '.' elbows; row r spans columns 1..size-r."""
    if size <= 1:
        return ["(empty)"]
    return [
        "".join("+" if (r, c) in cells else "." for c in range(1, size - r + 1))
        for r in range(1, size)
    ]
