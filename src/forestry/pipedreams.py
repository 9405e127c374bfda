"""Reduced pipe dreams and Schubert polynomials.

A pipe dream is a frozenset of cells (row, col), both 1-based.  The cell
(r, c) carries the transposition s_{r+c-1}; reading cells row by row top to
bottom, right to left within a row, and applying each s_a as a right
multiplication (swap one-line positions a, a+1) must produce the target
permutation through ascents only — that is what "reduced" means here.

The bottom pipe dream of w left-justifies lehmer_code(w): row i holds its
first code(i) cells.  Every other reduced pipe dream for w arises from it
by ladder moves (Bergeron-Billey); ``simple_closure`` takes the closure
under order-0 moves only, which reaches every dream exactly when w avoids
the pattern 1432 (a property the test suite checks exhaustively through
S_6).  ``all_pipe_dreams`` and ``schubert`` climb no ladders: the row
graph, ``_RowGraph``, expands the nilCoxeter product row by row
(Fomin-Stanley) into a layered graph of lines, the permutations read so
far, with ``_rows`` listing the letter sets the next row can add to a
line.  Each line is held relabelled by w^-1, so a row step, the rows of a
line with the line after each, depends on the line and the row alone:
``_row_step`` builds and certifies each step once, into a table per field
layout that every w of the layout shares, emptied like the decode table
before it grows past its bound.  One cache entry per permutation is the
graph of w, its layers holding shared steps, and the two functions are
two folds over it, each run on first request: ``all_pipe_dreams``
collects the dream masks, ``schubert`` sums packed weights and builds no
dream.  Once both have run, the entry keeps their outputs and lets the
graph go.  The test suite keeps the closure under ladder moves of every
order as the reference for the row graph.

Inside this module a dream is also one int, a mask, in one frame: for w
of trimmed length n with k leading fixed points, cell (r, c) carries
letter a = r + c - 1 and is bit (r - 1) * S + a - k - 1, where the stride
S = ``_stride(n, k)`` is n - k rounded up to whole bytes.  Slots n - k - 1
to S - 1 of each row are spares that stay empty, so a shift by one bit
never carries a cell into the next row, and each row starts on a byte.
The row graph builds masks row by row, and ``_dreams`` decodes them a byte
at a time: each byte of a row has a table from its value to the frozenset
of its cells, and a dream is the union of its bytes' sets, which copies
their stored hashes instead of hashing each cell again.  ``_slide_walk``,
the one order-0 walk, gets its frame, first state and first mask from
``_start``, one pass over the rows of the Lehmer code, and takes each
state's slides from one ``_slides`` mask, with a bit test per crossing;
that loop holds the one statement of the slide's update.
``simple_closure`` takes the whole walk, and the bad-pair search in
``correspondence`` stops it at the first crossing level with its cover
parent; ``_can_slide`` checks a replayed move against the same frame.
The walk may run in the frame of a larger n, a ``verify`` run's: that
only adds spare slots; ``_start`` refuses an n below some row's
r + code(r), which would leave that row no spare slot.  The walk's
closure, the row graph and both of its folds certify what they return
with explicit checks that raise RuntimeError.
"""

from __future__ import annotations

import functools
from operator import getitem
from typing import Optional

from .permutations import _CACHE_SIZE, Permutation, inverse, lehmer_code, trim, trim_zeros
from .polynomials import (
    Monomial,
    Polynomial,
    _divided_difference,
    _Packing,
    monomial_of,
)

Cell = tuple[int, int]
PipeDream = frozenset  # of Cell

__all__ = [
    "Cell",
    "PipeDream",
    "all_pipe_dreams",
    "simple_closure",
    "weight",
    "schubert",
    "schubert_divdiff",
    "render",
]


def _stride(n: int, k: int) -> int:
    """The row stride of the mask frame for trimmed length ``n`` and ``k``
    leading fixed points: n - k slots rounded up to whole bytes, so that
    every row starts on a byte of the mask."""
    return (n - k + 7) & -8


def _replay(d: int, line: list, stride: int) -> Optional[tuple]:
    """Apply the letters of mask ``d``, in the frame of row ``stride``, rows
    top to bottom and each right to left, to ``line``, the values at
    positions k + 1 .. n, as right multiplications: slot i swaps entries i
    and i + 1.  The line reached, or None when a step would cancel an
    inversion."""
    row_bits = (1 << stride) - 1
    while d:
        bits = d & row_bits
        if not bits:
            # skip every empty row at once, to the row of the lowest set bit
            d >>= ((d & -d).bit_length() - 1) // stride * stride
            continue
        while bits:
            i = bits.bit_length() - 1
            bits ^= 1 << i
            left, right = line[i], line[i + 1]
            if left > right:
                return None
            line[i], line[i + 1] = right, left
        d >>= stride
    return tuple(line)


def _slides(d: int, stride: int) -> int:
    """The crossings of mask ``d`` that can take the simple slide, the
    order-0 ladder move, to (r - 1, c + 1): those below row 1 with
    (r, c + 1), (r - 1, c) and (r - 1, c + 1) all empty.  A slide keeps its
    letter, so it lowers the bit by ``stride``."""
    return d & ~(d >> 1) & ~(d << stride) & ~(d << stride + 1) & -(1 << stride)


def _start(code, n: int) -> tuple[tuple, int, int]:
    """``_slide_walk``'s frame, first state and mask, from one pass over the
    rows of ``code``, the trimmed Lehmer code of a w whose trimmed length
    is at most ``n``.  The frame is (stride, bits, offsets): the stride is
    ``_stride(n, k)``, k the code's leading zeros; slot i of a state is the
    ``bits``-wide field at i * bits, as wide as the last row, len(code),
    needs; and a slide keeps the letter, so the crossing in slot i sits at
    bit row * stride + offsets[i] of the mask.  An n above the trimmed
    length only adds spare slots, which stay empty.  A frame too narrow for
    some row, n < r + code[r - 1], would leave that row no spare slot and
    raises RuntimeError."""
    bits = len(code).bit_length()
    field = (1 << bits) - 1
    offsets: list[int] = []
    k = next((i for i, c in enumerate(code) if c), 0)
    stride = _stride(n, k)
    base = k + 1 + stride  # letter a sits at bit row * stride + a - base
    state, occupied, shift = 0, 0, 0
    for r, c in enumerate(code, 1):
        if c:
            if r + c > n:
                raise RuntimeError(f"a frame for n = {n} is too narrow for row {r} of {code}")
            offset = r - base  # crossing t of row r has letter r + t - 1
            offsets += range(offset, offset + c)
            # r in each of the row's c fields: r times the repunit in base 2^bits
            state |= r * ((1 << c * bits) - 1) // field << shift
            occupied |= (1 << c) - 1 << r * stride + offset
            shift += c * bits
    return (stride, bits, offsets), state, occupied


def _slide_walk(code, n: int, parents) -> tuple[dict, list, Optional[int]]:
    """The one order-0 walk: breadth first over the id-tracked states of
    the bottom dream of the trimmed, nonempty Lehmer ``code``, in the
    frame that ``_start`` builds for ``n``, the trimmed length of w or any
    larger n (a run's).  A state is one int with a field per crossing, in
    ``_layout``'s slot order, holding its row, which fixes its cell; rows
    only fall, from at most len(code), which sizes the fields.
    ``parents[i]`` is the slot of the cover parent of slot i, or -1.  Each
    state takes one ``_slides`` mask, and a crossing slides when its bit
    is set in it; a state with no slide is passed over, and so are the
    crossings of row 1, which never slide.  A slide can only bring the
    moved crossing level with its parent, so the walk checks that one pair
    as it queues each state, and stops at the first level one.  Returns
    ``prev`` (state -> the previous state and the slot that moved, None at
    the start), the reached (state, mask) pairs in queue order, and the
    stopping state, None when the closure is complete.  The states and
    ``prev`` do not depend on n; the masks do.
    """
    (stride, bits, offsets), state, occupied = _start(code, n)
    field = (1 << bits) - 1
    prev: dict[int, Optional[tuple[int, int]]] = {state: None}
    reached = [(state, occupied)]
    first = code[0]  # the crossings of row 1
    movable = offsets[first:]
    for state, occupied in reached:  # the list is the queue
        slides = _slides(occupied, stride)
        if not slides:
            continue
        for i, offset in enumerate(movable, first):
            shift = i * bits
            row = state >> shift & field
            at = row * stride + offset
            if not slides >> at & 1:
                continue
            nxt = state - (1 << shift)
            if nxt in prev:
                continue
            prev[nxt] = (state, i)
            parent = parents[i]
            if parent >= 0 and row - 1 <= nxt >> parent * bits & field:
                return prev, reached, nxt
            reached.append((nxt, occupied ^ (1 << at) ^ (1 << at - stride)))
    return prev, reached, None


def _can_slide(frame: tuple, rows: list, i: int) -> bool:
    """Whether crossing ``i`` can take the simple slide when the crossings
    of ``_start``'s ``frame`` sit in ``rows``, by slot: its bit in the
    ``_slides`` mask of the dream they make."""
    stride, _, offsets = frame
    occupied = sum([1 << row * stride + offset for row, offset in zip(rows, offsets)])
    return _slides(occupied, stride) >> rows[i] * stride + offsets[i] & 1 == 1


def _rows(line, s: int) -> list[int]:
    """The row step of the row graph: every letter set one row of a dream
    can hold when the row starts on ``line``, as masks over local letters.

    ``line`` is a line of the row graph in ``_RowGraph``'s labels: the m
    values at positions k + 1 .. n relabelled by w^-1 and complemented, so
    that the label m - 1 - s marks w(r), and local letter i swaps entries
    i and i + 1.  ``s`` is the local index of the row's own position r, -1
    for every r <= k.  After the row, position r must hold w(r): if its
    label sits at local index j, the row ends in the run of letters
    j - 1, ..., s that carries it down, letter j is absent, and the letters
    above j are free.
    A free letter, placed right to left, is kept only when it is an ascent
    of the labels, that is when w inverts the pair it swaps: no reduced
    word of w continues past an inversion w lacks.  Each letter is left out
    before it is taken, so the empty row, when there is one, comes first.
    """
    if s < 0:
        run, lo = 0, 0
    else:
        j = line.index(len(line) - 1 - s)
        run, lo = (1 << j) - (1 << s), j + 1
    rows = []
    # (letter to decide, the label at its right-hand position, letters so far)
    stack = [(len(line) - 2, line[-1], run)]
    while stack:
        i, q, bits = stack.pop()
        if i < lo:
            rows.append(bits)
            continue
        p = line[i]
        if p < q:
            stack.append((i - 1, q, bits | 1 << i))
        stack.append((i - 1, p, bits))
    return rows


def _row_step(line, s: int, steps: dict) -> tuple:
    """The certified entry of the row-step table ``steps`` for (``line``,
    ``s``): per row of ``_rows``, (its mask over local letters, the line
    after it).  Each line after a row is the one object the table keeps
    for it, under the line itself.  Raises RuntimeError unless the rows
    are distinct and every letter is an ascent of the labels when it is
    placed."""
    rows = _rows(line, s)
    if len(set(rows)) != len(rows):
        raise RuntimeError(f"the rows from line {list(line)} are not distinct")
    step = []
    for bits in rows:
        child = _replay(bits, list(line), len(line)) if bits else line
        if child is None:
            raise RuntimeError(f"a letter of row {bits:#b} from line {list(line)} is not an ascent")
        # the line's own type: bytes, or a tuple past 256 values
        child = type(line)(child)
        kept = steps.get(child)
        if kept is None:
            steps[child] = kept = child
        step.append((bits, kept))
    return tuple(step)


class _RowGraph:
    """The row graph of w (trimmed), whose paths are its reduced pipe
    dreams, and its two folds.

    A line is the permutation L read so far, at positions k + 1 .. n, held
    relabelled by w^-1 and complemented: the m = n - k labels n - pos_w(v)
    for v in L, as bytes (a tuple past 256 values).  The first line, the
    identity, is n - pos_w(k + 1), ..., n - pos_w(n), the line w is
    m - 1, ..., 0, and a row step, ``_row_step``, depends on its line and
    its index s = r - k - 1 alone, the same for every s < 0.  So the
    steps live in one table per field layout, the ``row_steps`` of the
    ``_Packing``, shared by every w of that layout, each computed and
    certified on its first use: its rows are distinct and each letter is
    an ascent of the labels, so lowers the length of w^-1 L by one.
    ``layers[r - 1]`` maps each line that dreams of w reach before row r
    to its step: the rows, as masks over local letters, each with the line
    after it.  So the completions of rows r.. from one line are shared by
    every prefix that reaches it.  Building raises RuntimeError unless
    every line after the last row is w.  A path then takes w^-1 L from
    w^-1 to the identity, one inversion down per letter, so it has l(w)
    letters, and those take L from the identity to w through ascents
    only: a reduced word.  Distinct rows make distinct paths distinct
    dreams, which the term fold has no masks to check.

    ``dreams`` folds the masks and ``polynomial`` the weights, each from
    the last layer up, with no recursion, on first request, so a w asked
    only for its polynomial builds no dream.  A line whose only row is
    empty shares the masks or terms of the line that row leads to, and
    one whose first row is empty starts from a copy of them.  Once both
    folds have run, ``layers`` is None.  The dream fold raises
    RuntimeError unless every dream has l(w) crossings and none appears
    twice; the term fold, unless every term has degree l(w) and the least
    is the Lehmer code with coefficient 1.
    """

    def __init__(self, w: Permutation) -> None:
        n = len(w)
        k = next((i for i, v in enumerate(w) if v != i + 1), 0)
        # row r holds at most one crossing per letter, of n - 1 - k
        packing = _Packing(n, n - 1 - k)
        steps = packing.row_steps
        labels = bytes if n - k <= 256 else tuple
        layers = []
        frontier = {labels([n - p for p in inverse(w)[k:]]): None}
        for r in range(1, n):
            s = max(r - k - 1, -1)
            children: dict = {}
            layer = {}
            for line in frontier:
                step = steps.get((line, s))
                if step is None:
                    step = steps[line, s] = _row_step(line, s, steps)
                layer[line] = step
                for _, child in step:
                    children[child] = None
            layers.append(layer)
            frontier = children
        end = labels(range(n - k - 1, -1, -1))
        if list(frontier) != [end]:
            raise RuntimeError(f"a dream of {w} does not end at w")
        self.w, self.k, self.packing, self.layers, self.end = w, k, packing, layers, end
        self.code = lehmer_code(w)

    @functools.cached_property
    def dreams(self) -> frozenset:
        w, k = self.w, self.k
        stride = _stride(len(w), k)
        masks = {self.end: [0]}
        for r in reversed(range(len(self.layers))):
            shift = r * stride
            up = {}
            for line, step in self.layers[r].items():
                bits, child = step[0]
                if bits:
                    up[line] = [
                        row | d
                        for bits, child in step
                        for row in (bits << shift,)
                        for d in masks[child]
                    ]
                elif len(step) == 1:
                    # a row that adds no letter lends its line the masks below
                    up[line] = masks[child]
                else:
                    # an empty first row copies them, and the other rows add theirs
                    up[line] = masks[child] + [
                        row | d
                        for bits, child in step[1:]
                        for row in (bits << shift,)
                        for d in masks[child]
                    ]
            masks = up
        (masks,) = masks.values()
        dreams = _dreams(masks, self.packing, k)
        n_inv = sum(self.code)
        if len(dreams) != len(masks) or set(map(int.bit_count, masks)) != {n_inv}:
            raise RuntimeError(f"the dreams of {w} are not {len(masks)} distinct reduced words")
        self._folded("polynomial")
        return dreams

    @functools.cached_property
    def polynomial(self) -> Polynomial:
        units = self.packing.units
        terms = {self.end: {0: 1}}
        for r in reversed(range(len(self.layers))):
            unit = units[r + 1]
            up = {}
            for line, step in self.layers[r].items():
                bits, child = step[0]
                if bits:
                    node = {}
                elif len(step) == 1:
                    # a row that adds no letter lends its line the terms below
                    up[line] = terms[child]
                    continue
                else:
                    node, step = dict(terms[child]), step[1:]
                get = node.get
                for bits, child in step:
                    weight = bits.bit_count() * unit
                    for key, c in terms[child].items():
                        key += weight
                        node[key] = get(key, 0) + c
                up[line] = node
            terms = up
        (terms,) = terms.values()
        w, code, poly = self.w, self.code, self.packing.decode(terms)
        if set(map(sum, poly._terms)) != {sum(code)}:
            raise RuntimeError(f"a term of the Schubert polynomial of {w} has the wrong degree")
        if not self.packing.leads_with(terms, code):
            raise RuntimeError(f"the leading term of the Schubert polynomial of {w} is wrong")
        self._folded("dreams")
        return poly

    def _folded(self, other: str) -> None:
        # the layers serve the two folds only
        if other in self.__dict__:
            self.layers = None


_transfer_cached = functools.lru_cache(maxsize=_CACHE_SIZE)(_RowGraph)


def all_pipe_dreams(w: Permutation) -> frozenset:
    """Every reduced pipe dream for w (the closure under ladder moves of
    every order)."""
    return _transfer_cached(trim(w)).dreams


class _ByteCells(dict):
    """One byte of a mask row: a byte value -> the frozenset of the cells
    its set bits stand for, each entry made on its first lookup."""

    __slots__ = ("cells",)

    def __init__(self, cells: list) -> None:
        super().__init__()
        self.cells = cells  # the cell of each bit, the lowest first

    def __missing__(self, byte: int) -> frozenset:
        cells = self[byte] = frozenset([c for i, c in enumerate(self.cells) if byte >> i & 1])
        return cells


def _dreams(masks, packing: _Packing, k: int) -> frozenset:
    """The ``masks`` of the frame of w, of trimmed length packing.nvars with
    ``k`` leading fixed points, as a frozenset of cell sets.  The row tables
    of the frame, one ``_ByteCells`` per byte of each row, live in the
    layout's intern entry, so every w of one frame shares them.  A dream is
    the union of the cell sets of its mask's bytes, up to the highest
    nonzero one: a union copies the hashes its small sets store, so no
    cell is hashed again."""
    tables = packing.row_cells.get(k)
    if tables is None:
        n = packing.nvars
        tables = packing.row_cells[k] = [
            _ByteCells([(r, i + k + 2 - r) for i in range(b, b + 8)])
            for r in range(1, n)
            for b in range(0, _stride(n, k), 8)
        ]
    union = frozenset().union
    return frozenset(
        union(*map(getitem, tables, d.to_bytes(d.bit_length() + 7 >> 3, "little"))) for d in masks
    )


def simple_closure(w: Permutation) -> frozenset:
    """Pipe dreams reachable from the bottom one by order-0 moves alone:
    the whole ``_slide_walk``, its masks as cell sets.  Each mask must keep
    the spare slots empty (the staircase r + c <= len(w)), have l(w)
    crossings, replay to w and be no other state's, else RuntimeError."""
    w = trim(w)
    if not w:
        return frozenset({frozenset()})
    code = trim_zeros(lehmer_code(w))
    n, n_inv = len(w), sum(code)
    k = next(i for i, v in enumerate(w) if v != i + 1)
    _, reached, _ = _slide_walk(code, n, [-1] * n_inv)
    stride = _stride(n, k)
    # slots n - k - 1 .. stride - 1 of each row
    spare = sum((1 << stride) - (1 << n - k - 1) << r * stride for r in range(n - 1))
    for _, d in reached:
        if d & spare:
            raise RuntimeError(f"a simple slide in a dream of {w} left the staircase")
        if d.bit_count() != n_inv:
            raise RuntimeError(f"a dream of {w} has {d.bit_count()} crossings, not {n_inv}")
        if _replay(d, list(range(k + 1, n + 1)), stride) != w[k:]:
            raise RuntimeError(f"a simple slide in a dream of {w} broke reducedness")
    dreams = _dreams((d for _, d in reached), _Packing(n, n - 1 - k), k)
    if len(dreams) != len(reached):
        raise RuntimeError(f"two states of the order-0 walk of {w} share a dream")
    return dreams


def weight(cells) -> Monomial:
    """Exponent of x_r = number of crossings in row r."""
    return monomial_of([r for r, _ in cells])


def schubert(w: Permutation) -> Polynomial:
    """Schubert polynomial of w: the weight sum over all_pipe_dreams(w),
    folded without building the dreams."""
    return _transfer_cached(trim(w)).polynomial


def _descent_word(u: Permutation) -> tuple[int, ...]:
    """Letters a_1..a_m with u = s_{a_1} ∘ ... ∘ s_{a_m}, reduced: the
    adjacent swaps of an insertion sort of u, each removing one inversion,
    reversed."""
    line = list(u)
    swaps = []
    for i in range(1, len(line)):
        v = line[i]
        j = i
        while j and line[j - 1] > v:
            line[j] = line[j - 1]
            swaps.append(j)
            j -= 1
        line[j] = v
    return tuple(reversed(swaps))


def _schubert_divdiff_terms(w: Permutation, packing: _Packing) -> dict[int, int]:
    """``schubert_divdiff(w)`` as packed terms; ``packing`` needs len(w)
    variables and fields that hold len(w) - 1."""
    n = len(w)
    terms = {packing.pack(tuple(range(n - 1, 0, -1))): 1}
    longest_over_w = tuple(n + 1 - v for v in w)
    for a in _descent_word(longest_over_w):
        terms = _divided_difference(terms, a, packing)
    return terms


def schubert_divdiff(w: Permutation) -> Polynomial:
    """Independent Schubert oracle: divided differences down from the
    staircase monomial x1^(n-1) x2^(n-2) ... x_{n-1}."""
    w = trim(w)
    packing = _Packing(len(w), len(w) - 1)
    return packing.decode(_schubert_divdiff_terms(w, packing))


def render(cells, size: int) -> list[str]:
    """Staircase grid lines for a dream of a size-``size`` permutation:
    '+' crossings, '.' elbows; row r spans columns 1..size-r."""
    if size <= 1:
        return ["(empty)"]
    return [
        "".join("+" if (r, c) in cells else "." for c in range(1, size - r + 1))
        for r in range(1, size)
    ]
