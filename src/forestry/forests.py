"""Binary indexed forests, valid labelings, and forest polynomials.

An internal vertex is identified by (row, ordinal): ``row`` is the leaf
label its left-edge chain reaches (called ``rho`` throughout), ``ordinal``
counts the vertex's position within that chain from the bottom (1 = deepest).
A code c gives row i exactly c[i-1] vertices; the left child of (i, t) is
(i, t-1), and right children are attached by walking down the code: row i's
vertices are spent one per empty row until some populated row j is found,
whereupon the current vertex adopts (j, c[j-1]) as right child and row j is
processed the same way; after that first adoption, each remaining vertex of
row i adopts the next populated unadopted row, passing empty rows for free.

A valid labeling f picks 1 <= f(v) <= rho(v) with f weakly increasing along
left edges and strictly increasing along right edges.  The forest polynomial
is the sum of prod_v x_{f(v)} over valid labelings.

One cache entry per trimmed code is its forest, built from the code
alone, which carries the code's layout and, once computed, its forest
polynomial.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from .permutations import _CACHE_SIZE, LehmerCode, _code_cells, trim_zeros
from .polynomials import Polynomial, _Packing

Vertex = tuple[int, int]  # (rho, ordinal), both 1-based
Labeling = tuple[int, ...]  # values aligned with IndexedForest.vertices

__all__ = [
    "Vertex",
    "Labeling",
    "IndexedForest",
    "forest_from_code",
    "code_of_forest",
    "valid_labelings",
    "is_valid_labeling",
    "forest_polynomial",
    "render_forest",
    "forest_to_json",
]


class IndexedForest:
    """The immutable forest of a code, built from the code alone: the
    code is trimmed, and a negative entry raises ValueError.  Vertices,
    covers and steps are functions of the code, so equality and hash are
    over the code; repr shows (code, vertices, covers)."""

    code: LehmerCode
    vertices: tuple[Vertex, ...]  # sorted (rho, ordinal)
    covers: tuple[tuple[Vertex, Vertex], ...]  # sorted (parent, right child), from steps
    # _layout(code)'s labeling steps, the one statement of the structure
    # that covers, roots(), the labeling rule and the polynomial read
    steps: tuple[tuple[int, int, int, int], ...]

    def __init__(self, code) -> None:
        code = trim_zeros(tuple(code))
        if any(c < 0 for c in code):
            raise ValueError("code entries must be nonnegative")
        steps = _layout(code)[0]
        vertices = _code_cells(code)
        covers = sorted((vertices[p], vertices[s]) for s, p, start, _ in steps if start == 0 <= p)
        # assignment is refused, so this and the cached properties below
        # write to the instance dict directly
        self.__dict__.update(code=code, vertices=vertices, covers=tuple(covers), steps=tuple(steps))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of IndexedForest")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of IndexedForest")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __repr__(self) -> str:
        return (
            f"IndexedForest(code={self.code!r}, vertices={self.vertices!r},"
            f" covers={self.covers!r})"
        )

    @functools.cached_property
    def _right_child(self) -> dict[Vertex, Vertex]:
        return dict(self.covers)

    def left_child(self, v: Vertex) -> Optional[Vertex]:
        return (v[0], v[1] - 1) if v[1] > 1 else None

    def right_child(self, v: Vertex) -> Optional[Vertex]:
        return self._right_child.get(v)

    def roots(self) -> tuple[Vertex, ...]:
        # root steps come in row order, so in vertex order
        return tuple(self.vertices[s] for s, p, _, _ in self.steps if p < 0)

    @functools.cached_property
    def _polynomial(self) -> Polynomial:
        # one variable per row, fields that hold the vertex count
        packing = _Packing(len(self.code), len(self.vertices))
        return packing.decode(_labeling_sum(self.steps, packing))


def _layout(code: LehmerCode) -> tuple[list[tuple[int, int, int, int]], int, int]:
    """The forest of ``code`` as labeling steps, from one pass over the
    rows, with the numbers of 1s and of 2s in its least valid labeling.
    Vertex (row, t) has slot (vertices above its row) + t - 1, its index
    in ``IndexedForest.vertices``.

    A step is (slot, parent slot, start, rho), parents first: each row's
    top vertex, then its chain downward.  A vertex counts up from its
    parent's value + start: a left child (start -1) may repeat it, a right
    child (start 0) may not; roots hang off the always-zero slot -1.  The
    covers are read off the steps: start 0 and a parent slot >= 0.

    The least labeling gives each vertex its parent's value + start + 1:
    a root 1, a left child its parent's value, a right child one more.
    So a row's chain shares its top's label, 1 for a root and the covering
    chain's label + 1 otherwise.  It is a valid labeling, as the one that
    gives every vertex its rho is.

    Open chains wait on a stack as [k, next ordinal t, covered any, slot
    base, least label]; used-up ones are popped at each row.  An empty row
    uses up vertex t of the top chain until that chain first covers, and
    is free after that; a populated row is covered by vertex t of the top
    chain and opens its own chain.
    """
    steps: list[tuple[int, int, int, int]] = []
    stack: list[list] = []
    base = 0  # the slot of the next row's vertex 1
    ones = twos = 0
    for p, k in enumerate(code, start=1):
        while stack and stack[-1][1] > stack[-1][0]:
            stack.pop()
        if not k:
            if stack and not stack[-1][2]:
                stack[-1][1] += 1
            continue
        top = base + k - 1
        if stack:
            chain = stack[-1]
            t = chain[1]
            parent = chain[3] + t - 1
            if parent >= base:
                raise RuntimeError(f"cover of row {p} by slot {parent} is not a right-child edge")
            chain[1] = t + 1
            chain[2] = True
            steps.append((top, parent, 0, p))
            label = chain[4] + 1
            if label == 2:
                twos += k
        else:
            steps.append((top, -1, 0, p))
            label = 1
            ones += k
        for s in range(top - 1, base - 1, -1):
            steps.append((s, s + 1, -1, p))
        stack.append([k, 1, False, base, label])
        base += k
    return steps, ones, twos


_forest_from_code_cached = functools.lru_cache(maxsize=_CACHE_SIZE)(IndexedForest)


def forest_from_code(code: LehmerCode) -> IndexedForest:
    # trimmed first, so that (1, 0, 0) and (1,) share one entry
    return _forest_from_code_cached(trim_zeros(tuple(code)))


def code_of_forest(forest: IndexedForest) -> LehmerCode:
    """Vertices per row: the trimmed code the forest was built from."""
    return forest.code


def _labeling_sum(
    steps: Sequence, packing: _Packing, labelings: Optional[list] = None
) -> dict[int, int]:
    """The forest polynomial as packed terms: how many valid labelings have
    each weight prod_v x_f(v).  The one walk over valid labelings, along
    the ``steps`` of a ``_layout``; when ``labelings`` is a list, each
    labeling is also appended to it, in the order ``valid_labelings``
    documents."""
    if not steps:
        if labelings is not None:
            labelings.append(())
        return {0: 1}
    # rows come in increasing order, so the last step has the largest rho
    if steps[-1][3] > packing.nvars or len(steps) > packing.mask:
        raise RuntimeError(f"labeling weights of {len(steps)} vertices overflow the packing")
    unit = packing.units
    values = [0] * (len(steps) + 1)
    # weight[k]: the packed weight of the values chosen at steps before k
    weight = [0] * len(steps)
    counts: dict[int, int] = {}
    last = len(steps) - 1
    k = 0
    while k >= 0:
        s, _, _, rho = steps[k]
        value = values[s]
        if value >= rho:
            k -= 1
            continue
        value += 1
        values[s] = value
        if k == last:
            key = weight[k] + unit[value]
            counts[key] = counts.get(key, 0) + 1
            if labelings is not None:
                labelings.append(tuple(values[:-1]))
            continue
        k += 1
        weight[k] = weight[k - 1] + unit[value]
        s, parent, start, _ = steps[k]
        values[s] = values[parent] + start
    return counts


def valid_labelings(forest: IndexedForest) -> tuple[Labeling, ...]:
    """All valid labelings, deterministically ordered (values ascending in
    parent-first vertex order); each aligned with ``forest.vertices``."""
    labelings: list[Labeling] = []
    packing = _Packing(len(forest.code), len(forest.vertices))
    _labeling_sum(forest.steps, packing, labelings)
    return tuple(labelings)


def is_valid_labeling(forest: IndexedForest, labeling: Labeling) -> bool:
    """Does each vertex's value count up from its parent's value + start to
    at most its rho, along the steps?  A root's parent is the zero slot -1."""
    if len(labeling) != len(forest.vertices):
        return False
    values = [*labeling, 0]
    return all(values[p] + start < values[s] <= rho for s, p, start, rho in forest.steps)


def forest_polynomial(forest: IndexedForest) -> Polynomial:
    """Sum over valid labelings of prod_v x_{f(v)}; 1 for the empty forest."""
    return forest._polynomial


def render_forest(forest: IndexedForest) -> list[str]:
    """Indented tree, one root per block; children tagged L/R."""
    if not forest.vertices:
        return ["(empty forest)"]
    lines: list[str] = []
    stack = [(root, "", "") for root in reversed(forest.roots())]
    while stack:
        v, prefix, tag = stack.pop()
        lines.append(f"{prefix}{tag}(row {v[0]}, #{v[1]}) rho={v[0]}")
        kids = [
            (t, c)
            for t, c in (("L ", forest.left_child(v)), ("R ", forest.right_child(v)))
            if c is not None
        ]
        child_prefix = prefix
        if tag:
            child_prefix = prefix + ("   " if tag.startswith("└") else "│  ")
        for i, (t, c) in reversed(list(enumerate(kids))):
            last = i == len(kids) - 1
            stack.append((c, child_prefix, ("└─ " if last else "├─ ") + t))
    return lines


def forest_to_json(forest: IndexedForest) -> dict:
    # vertices are in slot order, so a left child is the slot before
    slot = {v: i for i, v in enumerate(forest.vertices)}
    return {
        "vertices": [
            {
                "rho": v[0],
                "left": i - 1 if v[1] > 1 else None,
                "right": slot.get(forest.right_child(v)),
            }
            for i, v in enumerate(forest.vertices)
        ]
    }
