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
  polynomial-equality test give the same verdict.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Optional

from .forests import (
    Labeling,
    Vertex,
    _labeling_sum,
    forest_from_code,
    forest_polynomial,
    is_valid_labeling,
)
from .permutations import (
    PATTERN_1432,
    Permutation,
    all_permutations,
    avoids_forbidden,
    contains_pattern,
    lehmer_code,
    trim,
)
from .pipedreams import (
    Cell,
    PipeDream,
    _closure,
    _sum_of_weights,
    schubert,
    slide_target,
)

__all__ = [
    "BadPair",
    "covering_relation",
    "labeling_to_pipe_dream",
    "replay_simple_moves",
    "find_bad_pair",
    "is_forest_by_pattern",
    "is_forest_by_expansion",
    "VerifyReport",
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


@dataclass(frozen=True)
class BadPair:
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
    ids = forest_from_code(lehmer_code(trim(w))).vertices
    pos: dict[Vertex, Cell] = {v: v for v in ids}
    cells: set[Cell] = set(ids)
    for moved in moves:
        target = slide_target(cells, pos[moved])
        if target is None:
            raise ValueError(f"simple move of {moved} not applicable at {pos[moved]}")
        cells.remove(pos[moved])
        cells.add(target)
        pos[moved] = target
    return pos


def find_bad_pair(w: Permutation) -> Optional[BadPair]:
    """Breadth-first search of the id-tracked simple-move closure for a
    covering pair with row(child) <= row(parent)."""
    w = trim(w)
    forest = forest_from_code(lehmer_code(w))
    ids = forest.vertices
    slot = {v: i for i, v in enumerate(ids)}
    pairs = [(slot[p], slot[c]) for p, c in forest.covers]
    start = tuple(ids)
    prev: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        found = next(
            ((pi, ci) for pi, ci in pairs if state[ci][0] <= state[pi][0]), None
        )
        if found is not None:
            moves: list[Vertex] = []
            cursor = state
            while prev[cursor] is not None:
                cursor, idx = prev[cursor]
                moves.append(ids[idx])
            moves.reverse()
            return BadPair(parent=ids[found[0]], child=ids[found[1]], moves=tuple(moves))
        occupied = set(state)
        for idx, cell in enumerate(state):
            target = slide_target(occupied, cell)
            if target is not None:
                nxt = state[:idx] + (target,) + state[idx + 1 :]
                if nxt not in prev:
                    prev[nxt] = (state, idx)
                    queue.append(nxt)
    return None


def is_forest_by_pattern(w: Permutation) -> bool:
    """Does w avoid all six forbidden patterns?"""
    return avoids_forbidden(trim(w))


def is_forest_by_expansion(w: Permutation) -> bool:
    """Does the Schubert polynomial of w equal the forest polynomial of the
    forest with the same code?"""
    w = trim(w)
    return schubert(w) == forest_polynomial(forest_from_code(lehmer_code(w)))


@dataclass(frozen=True)
class VerifyReport:
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
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
        }


def _verify_batch(perms: tuple[Permutation, ...]) -> dict:
    # bulk path: the unmemoized closure and labeling sum, so a run over S_n
    # fills no cache
    out = {
        f.name: f.default
        for f in fields(VerifyReport)
        if f.name not in ("n", "elapsed_ms")
    }
    for w in perms:
        w = trim(w)
        by_pattern = is_forest_by_pattern(w)
        poly = _sum_of_weights(_closure(w, simple_only=False))
        by_expansion = poly == _labeling_sum(forest_from_code(lehmer_code(w)))
        out["total"] += 1
        out["pattern_positive"] += by_pattern
        out["expansion_positive"] += by_expansion
        if by_pattern != by_expansion:
            out["disagreements"] += (
                {
                    "permutation": list(w),
                    "pattern": by_pattern,
                    "expansion": by_expansion,
                },
            )
        if not contains_pattern(w, PATTERN_1432):
            out["badpair_checked"] += 1
            bad = find_bad_pair(w) is not None
            if bad == by_expansion:  # a bad pair must appear iff expansion fails
                out["badpair_disagreements"] += (
                    {
                        "permutation": list(w),
                        "bad_pair_found": bad,
                        "expansion_equal": by_expansion,
                    },
                )
    return out


_CHUNK_SIZE = 1000


def _chunks(n: int, size: int):
    batch: list[Permutation] = []
    for w in all_permutations(n):
        batch.append(w)
        if len(batch) == size:
            yield tuple(batch)
            batch = []
    if batch:
        yield tuple(batch)


def _worker_count(jobs: int, chunks: int) -> int:
    """Processes worth starting: no more than asked for, than there are
    chunks to hand out, or than there are CPUs."""
    return max(1, min(jobs, chunks, os.cpu_count() or 1))


def verify_theorem(
    n: int,
    jobs: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> VerifyReport:
    """Exhaustively compare the pattern test against the polynomial test on
    S_n, cross-checking bad-pair detection on the 1432-avoiding part.

    Runs in lexicographic chunks of 1000 (optionally fanned out over up to
    ``jobs`` processes, merged in order); ``progress(done, total)`` fires
    after each chunk.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    started = time.monotonic()
    total = 1
    for i in range(2, n + 1):
        total *= i
    merged = _verify_batch(())

    def absorb(batch_result: dict) -> None:
        for key, value in batch_result.items():
            merged[key] += value
        if progress is not None:
            progress(merged["total"], total)

    jobs = _worker_count(jobs, (total + _CHUNK_SIZE - 1) // _CHUNK_SIZE)
    if jobs == 1:
        for chunk in _chunks(n, _CHUNK_SIZE):
            absorb(_verify_batch(chunk))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for result in pool.map(_verify_batch, _chunks(n, _CHUNK_SIZE)):
                absorb(result)

    return VerifyReport(
        n=n, elapsed_ms=int((time.monotonic() - started) * 1000), **merged
    )
