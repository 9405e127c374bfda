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
- ``find_bad_pair`` hunts for a right-child crossing that can climb into
  (or past) its parent's row, the obstruction that makes a Schubert
  polynomial fail to be a forest polynomial: it stops the one order-0 walk,
  ``pipedreams._slide_walk``, at the first such state in queue order;
- ``verify_theorem`` checks, over all of S_n, that the pattern test and the
  polynomial-equality test give the same verdict.  In bulk it gets each
  Schubert polynomial from a neighbour by one divided difference instead of
  a pipe-dream sum, with x_1 and x_2, which no d_i of a unit moves, frozen
  into one Kronecker int per x_3 .. x_n monomial.  Every unit walks the
  same tree of divided differences, which depends only on the order of
  positions 3 .. n, so the run lists it once, as the plan of ``_plan``,
  and each unit applies it to its own top.  It takes both pattern verdicts
  from one table of the avoiders of S_(n-1), and each forest from the
  one-pass code layout, whose counts of 1s and 2s in the least labeling
  reject most negative verdicts before any labeling is listed.  Its
  bad-pair cross-check runs the walk in the frame of the run's n, and a
  permutation is trimmed only when a disagreement lists it.
  With ``jobs`` > 1 it forks its worker processes itself: each child
  inherits n, the avoider table, the plan and the code, takes one unit
  at a time over a pipe and answers with one ``marshal`` record per unit,
  so no run imports ``concurrent.futures`` or ``multiprocessing`` and
  nothing is pickled.
"""

from __future__ import annotations

import itertools
import marshal
import math
import operator
import os
import time
from typing import BinaryIO, Callable, NamedTuple, Optional

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
    _code_cells,
    avoidance_bits,
    avoider_table,
    lehmer_code,
    trim,
    trim_zeros,
)
from .pipedreams import (
    Cell,
    PipeDream,
    _can_slide,
    _schubert_divdiff_terms,
    _slide_walk,
    _start,
    schubert,
)
from .polynomials import _divided_difference, _Packing

__all__ = [
    "BadPair",
    "covering_relation",
    "labeling_to_pipe_dream",
    "replay_simple_moves",
    "find_bad_pair",
    "is_forest_by_expansion",
    "VerifyReport",
    "WorkerDied",
    "verify_theorem",
]


def covering_relation(w: Permutation) -> frozenset:
    """Pairs (parent id, child id) of the bottom dream's crossings: under
    the identification above, exactly the forest's right-child edges."""
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
    order, checking each slide in the order-0 walk's frame; returns the
    final id -> cell placement.  An id may be a list [r, t], as ``check
    --json`` prints it.  Raises ValueError when a slide is blocked or an id
    names no crossing."""
    w = trim(w)
    code = trim_zeros(lehmer_code(w))
    ids = _code_cells(code)
    pos: dict[Vertex, Cell] = {v: v for v in ids}
    frame, _, _ = _start(code, len(w))
    rows = [r for r, _ in ids]
    for moved in moves:
        key = tuple(moved) if isinstance(moved, list) else moved
        if key not in ids:  # a scan, not a hash: an unhashable value is no error
            raise ValueError(f"{moved} is not a crossing id of the bottom pipe dream of {w}")
        i = ids.index(key)
        if not _can_slide(frame, rows, i):
            raise ValueError(f"simple move of {moved} not applicable at {pos[key]}")
        rows[i] -= 1
        pos[key] = (rows[i], sum(key) - rows[i])  # the slide keeps the letter
    return pos


def find_bad_pair(w: Permutation) -> Optional[BadPair]:
    """The first state in breadth-first order of the id-tracked simple-move
    closure with a covering pair at row(child) <= row(parent), as a witness."""
    w = trim(w)
    code = trim_zeros(lehmer_code(w))
    if (found := _search_bad_pair(code, _layout(code)[0], len(w))) is None:
        return None
    parents, prev, stop = found
    ids = _code_cells(code)
    child = prev[stop][1]  # not the start's: cover children lie in later rows
    moves: list[Vertex] = []
    while prev[stop] is not None:
        stop, idx = prev[stop]
        moves.append(ids[idx])
    return BadPair(parent=ids[parents[child]], child=ids[child], moves=tuple(moves[::-1]))


def _search_bad_pair(code, steps, n: int) -> Optional[tuple[list, dict, int]]:
    """The walk of ``find_bad_pair`` on the trimmed ``code`` of a w whose
    trimmed length is at most ``n``: ``find_bad_pair`` passes that length,
    ``verify`` the run's n, as a wider frame only adds empty spare slots.
    ``steps`` are ``_layout(code)``'s.  None when no crossing reaches its
    cover parent's row, else the cover parents by slot, the walk's ``prev``
    and its stop, none of which depends on n; ``verify`` only asks whether
    it is None."""
    parents = [-1] * sum(code)
    covered = False
    for s, parent, start, _ in steps:
        if not start and parent >= 0:  # a cover: slot s is a right child
            parents[s], covered = parent, True
    if not covered:
        return None
    prev, _, stop = _slide_walk(code, n, parents)
    return None if stop is None else (parents, prev, stop)


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
    """A run's counts before it has merged any unit: the tally fields of
    VerifyReport at their defaults, which ``_verify_unit`` returns too."""
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


def _digit_bits(n: int) -> int:
    """D, the width of one digit of a frozen value over S_n, from a proven
    bound.  A coefficient of a Schubert polynomial counts reduced pipe
    dreams, subsets of the N = n(n-1)/2 staircase cells, so it is at most
    2^N; every partial sum inside one d_i is bounded by the input's
    coefficient sum, its number of reduced pipe dreams, at most 2^N too.  So
    every signed digit is below 2^(D-1) in absolute value, and a value is 0
    only when each digit is."""
    return n * (n - 1) // 2 + 2


def _freeze(terms: dict[int, int], packing: _Packing) -> Optional[dict[int, int]]:
    """Packed ``terms`` (positive coefficients) with x_1 and x_2 frozen: the
    key keeps the fields of x_3 .. x_n, and the value carries the
    coefficient of x_1^a x_2^b in its D-bit digit a*n + b, D =
    ``_digit_bits(n)``, so the order of the digits is the lex order of (a, b).
    None when some a or b is n or more, for which no digit exists.  Raises
    RuntimeError on a coefficient that no digit holds."""
    n, bits = packing.nvars, packing.bits
    width = _digit_bits(n)
    low = bits * max(n - 2, 0)  # the fields of x_3 .. x_n; for n = 1, x_1 is b
    rest = (1 << low) - 1
    out: dict[int, int] = {}
    for key, count in terms.items():
        a, b = key >> low + bits, key >> low & packing.mask
        if a >= n or b >= n:
            return None
        if not 0 < count < 1 << width - 1:
            raise RuntimeError(f"coefficient {count} does not fit a digit of {width} bits")
        out[key & rest] = out.get(key & rest, 0) + (count << width * (a * n + b))
    return out


def _same_polynomial(frozen: dict[int, int], counts: dict[int, int], packing: _Packing) -> bool:
    """Whether ``frozen``, a ``_freeze`` form, and packed positive ``counts``
    are one polynomial.  As 2^(Dj) = 1 mod 2^D - 1, the values of ``frozen``
    sum to its value at x = 1 modulo 2^D - 1, so unequal sums prove unequal
    polynomials; equality is concluded only by comparing the frozen forms."""
    modulus = (1 << _digit_bits(packing.nvars)) - 1
    if sum(frozen.values()) % modulus != sum(counts.values()) % modulus:
        return False
    return frozen == _freeze(counts, packing)


def _plan(n: int) -> list[tuple]:
    """The sweep plan of a run over S_n, built once and shared by every
    unit: the depth-first walk of ``_sweep`` on the suffix alone.

    The walk's tree in unit (p_1, p_2) depends only on the relative order
    of positions 3 .. n: so does each node's first ascent i >= 3, its code
    entries c_3 .. c_n and its lead key over x_3 .. x_n.  So the plan walks
    the standardized suffix, a permutation of 1 .. n - 2, down from the
    decreasing one, and lists the nodes in the order ``_sweep`` visits
    them, each as (depth, i, suffix as bytes, trimmed code of the suffix,
    lead key), with i the d_i that reaches the node from its parent (0 at
    the top, depth 0).  The children of u are the w = u s_i, for each
    descent i >= 3 of u, whose first ascent at or after position 3 is i.
    n = 1 and n = 2 have the one-entry plan of an empty suffix.
    """
    units = _packing(n).units
    plan = []
    stack = [(0, 0, tuple(range(n - 2, 0, -1)))]
    while stack:
        depth, i, u = stack.pop()
        code = lehmer_code(u)
        lead = sum(c * units[j] for j, c in enumerate(code, 3))
        plan.append((depth, i, bytes(u), trim_zeros(code), lead))
        # position j of the run is index j - 3 of the suffix
        for i in range(3, n):
            if u[i - 3] > u[i - 2]:
                w = u[: i - 3] + (u[i - 2], u[i - 3]) + u[i - 1 :]
                if next(j for j in range(3, n) if w[j - 3] < w[j - 2]) == i:
                    stack.append((depth + 1, i, w))
    return plan


def _sweep(prefix: Permutation, n: int, packing: _Packing, plan: list[tuple]):
    """Yield (w, trimmed Lehmer code of w, Schubert polynomial of w in the
    ``_freeze`` form of ``packing``) for every w in S_n that starts with
    ``prefix``, in the order of ``plan``, ``_plan(n)``; w is untrimmed and
    in byte form, one value per byte, as ``avoidance_bits`` reads it.

    The top of the unit, the prefix followed by the other values in
    decreasing order, comes from ``_schubert_divdiff_terms`` and is frozen
    once.  Every other w has a first ascent i >= 3 and its polynomial is the
    divided difference d_i of the polynomial of its parent u = w s_i in
    the plan, which has one inversion more and the same prefix; a level
    list holds the polynomial of the current node's ancestors, one per
    depth.  d_i with i >= 3 is linear over Z[x_1, x_2], so it runs on the
    frozen form as on packed terms, adding values.  A plan entry becomes
    the unit's: w is the prefix's bytes and one ``bytes.translate`` of the
    suffix onto the unit's other values, and its code is (c_1, c_2) and
    the suffix's.

    Each w must lead with x^code and coefficient 1, or the sweep raises
    RuntimeError.  c_1 and c_2 are fixed in the unit, so the leading digit
    s_0 is; the lead key over x_3 .. x_n comes from the plan.  The lead
    key's value has digit s_0 equal to 1, no value has a set bit below
    digit s_0, and no key below the lead key has a nonzero digit s_0: one
    mask per key, digit s_0 and the bits below it for a key below the
    lead, the bits below it for the others.
    """
    rest = sorted(set(range(1, n + 1)) - set(prefix))
    top = tuple(prefix) + tuple(reversed(rest))
    head = lehmer_code(top)[: len(prefix)]  # (c_1, c_2); (c_1,) for n = 1
    ((_, one),) = _freeze({packing.pack(head): 1}, packing).items()
    shift, below = one.bit_length() - 1, one - 1
    digit = (1 << _digit_bits(n)) - 1
    through = digit << shift | below  # digit s_0 and every bit below it
    values = bytes.maketrans(bytes(range(1, len(rest) + 1)), bytes(rest))
    start, bare = bytes(prefix), trim_zeros(head)
    # a top with no digit for some term fails the check as {} does
    frozen = _freeze(_schubert_divdiff_terms(top, packing), packing) or {}
    levels: list[dict[int, int]] = []
    for depth, i, suffix, code, lead in plan:
        terms = _divided_difference(levels[depth - 1], i, packing) if depth else frozen
        levels[depth:] = (terms,)
        w = start + suffix.translate(values)
        if terms.get(lead, 0) >> shift & digit != 1:
            raise RuntimeError(f"divided-difference sweep went wrong at {tuple(w)}")
        for key, value in terms.items():
            if value & (through if key < lead else below):
                raise RuntimeError(f"divided-difference sweep went wrong at {tuple(w)}")
        yield w, head + code if code else bare, terms


# bit 0 of a pattern verdict: w avoids the six patterns; bit 1: w avoids
# 1432; in byte form, as avoidance_bits looks them up
_PATTERN_SETS = (tuple(map(bytes, FORBIDDEN_PATTERNS)), (bytes(PATTERN_1432),))


def _verify_unit(
    prefix: Permutation, n: int, table: dict[bytes, int], plan: list[tuple]
) -> dict:
    """Counts and disagreements over the permutations starting with
    ``prefix``; ``table`` is ``avoider_table(_PATTERN_SETS, n - 1)`` and
    ``plan`` is ``_plan(n)``, both built once per run.  The sweep's w is
    bytes, which ``avoidance_bits`` reads as it is; only a disagreement
    entry turns it into a list.

    A test that can only reject runs before the labelings are listed.  Let
    a and b be the numbers of 1s and 2s in the least labeling L of the
    forest of the code, from ``_layout``.  Every valid labeling f is at
    least L at every vertex, by induction from the roots down, so f's 1s
    lie among L's 1s; if f has a of them they are L's, and then f's 2s lie
    among L's 2s.  So every term of the forest polynomial F has (x_1, x_2)
    exponents at most (a, b) in lex order.  When a, b < n, a term at
    (e_1, e_2) <= (a, b) has digit e_1*n + e_2 <= a*n + b, and as each
    digit of ``_freeze(F)`` holds a count below 2^(D-1), every value of it
    is below 2^(D*(a*n + b + 1)).  So a value of the swept polynomial at
    or above that bound proves it unequal to ``_freeze(F)``, and the
    verdict is negative without F.  When a or b is n or more, F has a term
    at (a, b), no digit holds it, and the verdict is negative whichever
    way it is reached.  A positive verdict still comes only from
    ``_same_polynomial``.
    """
    packing = _packing(n)
    width = _digit_bits(n)
    total = pattern_positive = expansion_positive = badpair_checked = 0
    disagreements, badpair_disagreements = [], []
    for u, code, terms in _sweep(prefix, n, packing, plan):
        steps, ones, twos = _layout(code)
        avoids = avoidance_bits(u, _PATTERN_SETS, table)
        by_pattern = avoids & 1 == 1
        # nonzero: some term of the swept polynomial lies above (a, b)
        above = max(terms.values()) >> width * (ones * n + twos + 1)
        by_expansion = not above and _same_polynomial(
            terms, _labeling_sum(steps, packing), packing
        )
        total += 1
        pattern_positive += by_pattern
        expansion_positive += by_expansion
        if by_pattern != by_expansion:
            disagreements.append(
                {
                    "permutation": list(trim(u)),
                    "pattern": by_pattern,
                    "expansion": by_expansion,
                }
            )
        # every w that avoids 1432, which avoiding all six implies
        if avoids:
            badpair_checked += 1
            bad = _search_bad_pair(code, steps, n) is not None
            if bad == by_expansion:  # a bad pair must appear iff expansion fails
                badpair_disagreements.append(
                    {
                        "permutation": list(trim(u)),
                        "bad_pair_found": bad,
                        "expansion_equal": by_expansion,
                    }
                )
    # the sweep is depth-first; reports list permutations lexicographically
    by_perm = operator.itemgetter("permutation")
    return {
        "total": total,
        "pattern_positive": pattern_positive,
        "expansion_positive": expansion_positive,
        "disagreements": tuple(sorted(disagreements, key=by_perm)),
        "badpair_checked": badpair_checked,
        "badpair_disagreements": tuple(sorted(badpair_disagreements, key=by_perm)),
    }


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, so that taskset and cpusets count, else the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: Optional[int], units: int) -> int:
    """Processes worth starting: no more than asked for (None: one per
    usable CPU), than there are units to hand out, or than there are usable
    CPUs; one, so the run stays serial, where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(units if jobs is None else jobs, units, _usable_cpus()))


class WorkerDied(RuntimeError):
    """A worker process of a ``verify_theorem`` run died (killed, or out of
    memory) before the run finished."""


def _serve(work: Callable, items: list, orders: int, results: int) -> None:
    """A forked child's loop: read a 4-byte item index from ``orders``,
    answer on ``results`` with one ``marshal`` record, (None, work(item)),
    or (message, None) when the work raised; stop when ``orders`` is
    closed.  A ``MemoryError`` is raised on, so the child dies with it."""
    with os.fdopen(results, "wb") as out:
        while index := os.read(orders, 4):
            try:
                record = (None, work(items[int.from_bytes(index, "little")]))
            except MemoryError:
                raise
            except Exception as exc:
                record = (f"{type(exc).__name__} in a worker: {exc}", None)
            marshal.dump(record, out)
            out.flush()


def _fork_map(work: Callable, items: list, jobs: int, absorb: Callable) -> None:
    """Call absorb(work(item)) for each item, in order, with the work done
    in ``jobs`` forked children, jobs <= len(items).

    A child inherits ``work`` and ``items``; it is sent only item indices.
    An idle child gets the next item in order, so a run that lists its
    heaviest items first starts them first.  Records are held until every
    earlier one is absorbed.  A child is handed its next item only after
    its answer is read, so a reader never buffers past the record it reads.
    A child that closes its pipe without answering raises ``WorkerDied``;
    an exception in a child's work raises ``RuntimeError`` with its message
    when that item's turn comes.  Every child is killed and reaped on the
    way out, whatever the way.  A fork copies only the calling thread, so
    the caller must run no other threads; the CLI runs none.
    """
    # only a parallel run pays for these two imports
    import select
    import signal

    pids: list[int] = []
    fds: list[int] = []  # the pipe ends this process holds
    orders: dict[int, int] = {}  # a child's results end -> its orders end
    readers: dict[int, BinaryIO] = {}  # a child's results end -> a reader on it
    held: dict[int, int] = {}  # a busy child's results end -> its item
    waiting: dict[int, tuple] = {}  # item -> record not yet absorbed
    handed = absorbed = 0
    died = "a worker process died before verify finished"

    def hand_out(child: int) -> None:
        nonlocal handed
        try:
            os.write(orders[child], handed.to_bytes(4, "little"))
        except BrokenPipeError:
            raise WorkerDied(died) from None
        held[child] = handed
        handed += 1

    try:
        for _ in range(jobs):
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            orders_r, orders_w, results_r, results_w = fds[-4:]
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in fds:
                        if fd not in (orders_r, results_w):
                            os.close(fd)
                    _serve(work, items, orders_r, results_w)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            for fd in (orders_r, results_w):
                os.close(fd)
                fds.remove(fd)
            orders[results_r] = orders_w
            readers[results_r] = os.fdopen(results_r, "rb", closefd=False)
        poller = select.poll()
        for child in orders:
            poller.register(child, select.POLLIN)
            hand_out(child)
        while absorbed < len(items):
            for child, _ in poller.poll():
                try:
                    waiting[held.pop(child)] = marshal.load(readers[child])
                except EOFError:
                    raise WorkerDied(died) from None
                if handed < len(items):
                    hand_out(child)
                else:
                    poller.unregister(child)
            while absorbed in waiting:
                message, record = waiting.pop(absorbed)
                if message is not None:
                    raise RuntimeError(message)
                absorb(record)
                absorbed += 1
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def verify_theorem(
    n: int,
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> VerifyReport:
    """Exhaustively compare the pattern test against the polynomial test on
    S_n, cross-checking bad-pair detection on the 1432-avoiding part.

    Runs one unit per pair of first values, in lexicographic order, over
    up to ``jobs`` forked processes (None: one per usable CPU), merged in
    order; ``progress(done, total)`` fires after each unit.
    Schubert polynomials come from the divided-difference sweep, and
    pattern verdicts from a table of the avoiders of S_(n-1); the table
    and the sweep plan are built once per run, before any fork.  Raises ``ValueError`` for n or ``jobs`` below 1, and
    ``WorkerDied`` when a worker process dies.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if jobs is not None and jobs < 1:
        raise ValueError("--jobs must be at least 1")
    started = time.monotonic()
    total = math.factorial(n)
    table = avoider_table(_PATTERN_SETS, n - 1)
    plan = _plan(n)
    merged = _tallies()

    def absorb(unit_result: dict) -> None:
        for key, value in unit_result.items():
            merged[key] += value
        if progress is not None:
            progress(merged["total"], total)

    def work(prefix: Permutation) -> dict:
        return _verify_unit(prefix, n, table, plan)

    units = _units(n)
    jobs = _worker_count(jobs, len(units))
    if jobs == 1:
        for prefix in units:
            absorb(work(prefix))
    else:
        _fork_map(work, units, jobs, absorb)

    return VerifyReport(
        n=n, elapsed_ms=int((time.monotonic() - started) * 1000), **merged
    )
