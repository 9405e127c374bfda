"""Where pipe dreams and forests meet.

The bottom pipe dream of w and the forest of lehmer_code(w) use the same
(row, ordinal) labels: crossing t of row i *is* internal vertex (i, t), so
the crossing <-> vertex bijection needs no table.  Everything here rides on
that identification:

- ``covering_relation`` reads the forest's right-child edges as pairs of
  crossing ids;
- ``labeling_to_pipe_dream`` realizes a valid labeling f as a pipe dream by
  sliding each crossing up its diagonal (simple moves only) until it sits in
  row f(v) — a weight-preserving injection from labelings into pipe dreams;
- ``find_bad_pair`` hunts, through the id-tracked simple-move closure, for a
  right-child crossing that can climb into (or past) its parent's row: the
  obstruction that makes a Schubert polynomial fail to be a forest
  polynomial;
- ``verify_theorem`` checks, over all of S_n, that the pattern test and the
  polynomial-equality test give the same verdict.  In bulk it gets each
  Schubert polynomial from a neighbour by one divided difference instead of
  a pipe-dream closure, both pattern verdicts from one table of the
  avoiders of S_(n-1), and each forest from the one-pass code layout.
  ``concurrent.futures`` is imported only when a run starts a process
  pool, so importing this module, or running ``verify`` serially, never
  loads the pool and the multiprocessing machinery behind it.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import time
from collections import deque
from typing import Callable, NamedTuple, Optional

from .forests import (
    Labeling,
    Vertex,
    _labeling_sum,
    _layout,
    forest_from_code,
    forest_polynomial,
    is_valid_labeling,
)
from .permutations import (
    FORBIDDEN_PATTERNS,
    PATTERN_1432,
    Permutation,
    avoidance_bits,
    avoider_table,
    avoids_forbidden,
    lehmer_code,
    trim,
    trim_zeros,
)
from .pipedreams import (
    Cell,
    PipeDream,
    _mask,
    _open_moves,
    _schubert_divdiff_terms,
    schubert,
)
from .polynomials import _divided_difference, _Packing

__all__ = [
    "BadPair",
    "covering_relation",
    "labeling_to_pipe_dream",
    "replay_simple_moves",
    "find_bad_pair",
    "is_forest_by_pattern",
    "is_forest_by_expansion",
    "VerifyReport",
    "WorkerDied",
    "verify_theorem",
]


def covering_relation(w: Permutation) -> frozenset:
    """Pairs (parent id, child id) of crossings of bottom_pipe_dream(w);
    under the identification above, exactly the forest's right-child edges."""
    return frozenset(forest_from_code(lehmer_code(trim(w))).covers)


def labeling_to_pipe_dream(w: Permutation, labeling: Labeling) -> PipeDream:
    """Slide each crossing of the bottom dream up to the row its label asks
    for, working top to bottom and right to left; raises ValueError on an
    invalid labeling, and on a blocked slide (which would disprove
    injectivity and cannot happen for a valid labeling)."""
    w = trim(w)
    forest = forest_from_code(lehmer_code(w))
    if not is_valid_labeling(forest, labeling):
        raise ValueError(f"not a valid labeling of the forest of {w}: {labeling}")
    want = dict(zip(forest.vertices, labeling))
    # each crossing v climbs row(v) - f(v) steps, top to bottom, right to left
    moves = [
        v
        for v in sorted(forest.vertices, key=lambda u: (u[0], -u[1]))
        for _ in range(v[0] - want[v])
    ]
    return frozenset(replay_simple_moves(w, moves).values())


class BadPair(NamedTuple):
    """A parent crossing whose right child can climb to its row.

    ``moves`` replays from the bottom pipe dream: each entry is the id of
    the crossing to slide one step up its diagonal.
    """

    parent: Vertex
    child: Vertex
    moves: tuple[Vertex, ...]


def replay_simple_moves(w: Permutation, moves) -> dict[Vertex, Cell]:
    """Slide the named crossings of the bottom pipe dream one step each, in
    order; returns the final id -> cell placement.  Raises ValueError when a
    slide is blocked."""
    w = trim(w)
    width = len(w)
    ids = forest_from_code(lehmer_code(w)).vertices
    pos: dict[Vertex, Cell] = {v: v for v in ids}
    occupied = _mask(ids, width)
    for moved in moves:
        r, c = pos[moved]
        at = (r - 1) * width + c - 1
        if not _open_moves(occupied, width)[0] >> at & 1:
            raise ValueError(f"simple move of {moved} not applicable at {(r, c)}")
        pos[moved] = (r - 1, c + 1)
        occupied ^= 1 << at | 1 << at - width + 1
    return pos


def find_bad_pair(w: Permutation) -> Optional[BadPair]:
    """Breadth-first search of the id-tracked simple-move closure for a
    covering pair with row(child) <= row(parent)."""
    w = trim(w)
    code = trim_zeros(lehmer_code(w))
    return _search_bad_pair(code, _layout(code)[1], len(w))


def _search_bad_pair(code, covers, width: int) -> Optional[BadPair]:
    """``find_bad_pair`` for the permutation of the trimmed ``code``, whose
    trimmed length is ``width``; ``covers`` are ``_layout(code)``'s.

    A state is one int with a field per crossing, in slot order, holding
    its row, which fixes its cell, as a slide keeps r + c.  Rows only fall
    from rho <= len(code), which sizes the fields.  The occupied cells ride
    alongside as a mask.  A slide can only bring the moved crossing level
    with its cover parent, so each new state is checked for that one pair
    as it is queued, which finds the first bad state in queue order.  The
    start is never bad: cover children lie in later rows.
    """
    if not covers:
        return None
    ids = [(row, t) for row, k in enumerate(code, start=1) for t in range(1, k + 1)]
    bits = len(code).bit_length()
    field = (1 << bits) - 1
    parent_of = {child: parent for parent, child in covers}
    # cell (r, c) is bit (r - 1) * width + c - 1: on the diagonal
    # r + c = rho + t of crossing (rho, t) that is r * step + offset, and a
    # slide to (r - 1, c + 1) lowers it by step
    step = width - 1
    crossings = []  # (slot, field shift, offset, cover parent's slot or -1)
    state = 0
    for i, (row, t) in enumerate(ids):
        state |= row << i * bits
        crossings.append((i, i * bits, row + t - width - 1, parent_of.get(i, -1)))
    prev: dict[int, Optional[tuple[int, int]]] = {state: None}
    queue = deque([(state, _mask(ids, width))])
    while queue:
        state, occupied = queue.popleft()
        slides = _open_moves(occupied, width)[0]
        for i, shift, offset, parent in crossings:
            row = state >> shift & field
            at = row * step + offset
            if not slides >> at & 1:
                continue
            nxt = state - (1 << shift)
            if nxt in prev:
                continue
            prev[nxt] = (state, i)
            if parent >= 0 and row - 1 <= nxt >> parent * bits & field:
                moves: list[Vertex] = []
                cursor = nxt
                while prev[cursor] is not None:
                    cursor, idx = prev[cursor]
                    moves.append(ids[idx])
                moves.reverse()
                return BadPair(parent=ids[parent], child=ids[i], moves=tuple(moves))
            queue.append((nxt, occupied ^ (1 << at) ^ (1 << at - step)))
    return None


def is_forest_by_pattern(w: Permutation) -> bool:
    """Does w avoid all six forbidden patterns?"""
    return avoids_forbidden(trim(w))


def is_forest_by_expansion(w: Permutation) -> bool:
    """Does the Schubert polynomial of w equal the forest polynomial of the
    forest with the same code?"""
    w = trim(w)
    return schubert(w) == forest_polynomial(forest_from_code(lehmer_code(w)))


class VerifyReport(NamedTuple):
    """Counts and disagreement lists of a verification run.  The fields
    between ``n`` and ``elapsed_ms`` are tallies: a batch starts from their
    defaults and batches merge by adding them."""

    n: int
    total: int = 0
    pattern_positive: int = 0
    expansion_positive: int = 0
    disagreements: tuple[dict, ...] = ()
    badpair_checked: int = 0
    badpair_disagreements: tuple[dict, ...] = ()
    elapsed_ms: int = 0

    def to_json_obj(self) -> dict:
        return {
            name: list(v) if isinstance(v, tuple) else v
            for name, v in zip(self._fields, self)
        }


def _tallies() -> dict:
    """A unit's counts before it has seen any permutation: the tally
    fields of VerifyReport at their defaults."""
    defaults = dict(VerifyReport._field_defaults)
    del defaults["elapsed_ms"]
    return defaults


def _units(n: int) -> list[Permutation]:
    """The work units of a run over S_n, in lexicographic order: each is a
    prefix, the first two values (the first one when n = 1), and stands for
    the permutations that start with it."""
    return list(itertools.permutations(range(1, n + 1), min(n, 2)))


def _packing(n: int) -> _Packing:
    """The packing of a run over S_n: x_n has a field, because d_(n-1)
    passes through it, and every field holds l(w0) = n(n-1)/2, the largest
    degree of a Schubert or forest polynomial in the run."""
    return _Packing(n, n * (n - 1) // 2)


def _sweep(prefix: Permutation, n: int, packing: _Packing):
    """Yield (w, trimmed Lehmer code of w, Schubert polynomial of w as
    ``packing``'s terms) for every w in S_n (untrimmed) that starts with
    ``prefix``.

    The top of the unit, the prefix followed by the other values in
    decreasing order, comes from ``schubert_divdiff``.  Every other w has a
    first ascent i >= 3 and its polynomial is the divided difference d_i of
    the polynomial of u = w s_i, which has one inversion more and the same
    prefix; so a depth-first walk down from the top reaches each w once.
    The code is carried down the walk: as u(i) > u(i+1), entries i and i+1
    of the code of w are those of u, exchanged, the first one less.
    """
    rest = sorted(set(range(1, n + 1)) - set(prefix), reverse=True)
    top = tuple(prefix) + tuple(rest)
    stack = [(top, lehmer_code(top), _schubert_divdiff_terms(top, packing))]
    while stack:
        u, code, terms = stack.pop()
        lead = min(terms, default=None)
        if lead != packing.pack(code) or terms[lead] != 1:
            raise RuntimeError(f"divided-difference sweep went wrong at {u}")
        yield u, trim_zeros(code), terms
        # with f the first ascent >= 3 of u (n if none), w = u s_i has
        # first ascent i for each i < f, and for i = f + 1 when
        # u(f+1) > u(f+2) < u(f); for no other i
        f = next((i for i in range(3, n) if u[i - 1] < u[i]), n)
        children = list(range(3, f))
        if f + 1 < n and u[f - 1] > u[f + 1] < u[f]:
            children.append(f + 1)
        for i in children:
            w = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
            c = code[: i - 1] + (code[i], code[i - 1] - 1) + code[i + 1 :]
            stack.append((w, c, _divided_difference(terms, i, packing)))


# bit 0 of a pattern verdict: w avoids the six patterns; bit 1: w avoids 1432
_PATTERN_SETS = (FORBIDDEN_PATTERNS, (PATTERN_1432,))


def _verify_unit(prefix: Permutation, n: int, table: dict[Permutation, int]) -> dict:
    """Counts and disagreements over the permutations starting with
    ``prefix``; ``table`` is ``avoider_table(_PATTERN_SETS, n - 1)``."""
    packing = _packing(n)
    out = _tallies()
    disagreements, badpair_disagreements = [], []
    for u, code, terms in _sweep(prefix, n, packing):
        w = trim(u)
        steps, covers = _layout(code)
        avoids = avoidance_bits(u, _PATTERN_SETS, table)
        by_pattern = avoids & 1 == 1
        by_expansion = terms == _labeling_sum(steps, packing)
        out["total"] += 1
        out["pattern_positive"] += by_pattern
        out["expansion_positive"] += by_expansion
        if by_pattern != by_expansion:
            disagreements.append(
                {
                    "permutation": list(w),
                    "pattern": by_pattern,
                    "expansion": by_expansion,
                }
            )
        # every w that avoids 1432, which avoiding all six implies
        if avoids:
            out["badpair_checked"] += 1
            bad = _search_bad_pair(code, covers, len(w)) is not None
            if bad == by_expansion:  # a bad pair must appear iff expansion fails
                badpair_disagreements.append(
                    {
                        "permutation": list(w),
                        "bad_pair_found": bad,
                        "expansion_equal": by_expansion,
                    }
                )
    # the sweep is depth-first; reports list permutations lexicographically
    by_perm = operator.itemgetter("permutation")
    out["disagreements"] = tuple(sorted(disagreements, key=by_perm))
    out["badpair_disagreements"] = tuple(sorted(badpair_disagreements, key=by_perm))
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, so that taskset and cpusets count, else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int, units: int) -> int:
    """Processes worth starting: no more than asked for, than there are
    units to hand out, or than there are usable CPUs."""
    return max(1, min(jobs, units, _usable_cpus()))


class WorkerDied(RuntimeError):
    """A worker process of a ``verify_theorem`` run died (killed, or out of
    memory) before the run finished."""


# a pool worker's run: (n, avoider table), set once by _start_worker
_worker_run: tuple[int, dict[Permutation, int]] = (0, {})


def _start_worker(n: int, table: dict[Permutation, int]) -> None:
    global _worker_run
    _worker_run = (n, table)


def _worker_unit(prefix: Permutation) -> dict:
    n, table = _worker_run
    return _verify_unit(prefix, n, table)


def verify_theorem(
    n: int,
    jobs: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> VerifyReport:
    """Exhaustively compare the pattern test against the polynomial test on
    S_n, cross-checking bad-pair detection on the 1432-avoiding part.

    Runs unit by unit, one unit per pair of first values, in lexicographic
    order (optionally fanned out over up to ``jobs`` processes, merged in
    order); ``progress(done, total)`` fires after each unit.  Schubert
    polynomials come from the divided-difference sweep, and pattern
    verdicts from a table of the avoiders of S_(n-1) built once per run.
    Raises ``WorkerDied`` when a worker process dies.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    started = time.monotonic()
    total = math.factorial(n)
    table = avoider_table(_PATTERN_SETS, n - 1)
    merged = _tallies()

    def absorb(unit_result: dict) -> None:
        for key, value in unit_result.items():
            merged[key] += value
        if progress is not None:
            progress(merged["total"], total)

    units = _units(n)
    jobs = _worker_count(jobs, len(units))
    if jobs == 1:
        for prefix in units:
            absorb(_verify_unit(prefix, n, table))
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # the table goes to each worker once, not once per unit
        try:
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_start_worker, initargs=(n, table)
            ) as pool:
                for result in pool.map(_worker_unit, units):
                    absorb(result)
        except BrokenProcessPool as exc:
            raise WorkerDied("a worker process died before verify finished") from exc

    return VerifyReport(
        n=n, elapsed_ms=int((time.monotonic() - started) * 1000), **merged
    )
