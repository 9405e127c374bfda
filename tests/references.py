"""The one test-side copy of each shared helper: hypothesis generators, the
grid layout of the references, the labeling weight, the one-point deletion,
the bottom dream and the reading of a cell set, the per-cell
Bergeron-Billey ladder scan with the closure it generates, and the
termwise divided difference.  None of them
reads the package's mask frame or its cell list.  Not a test module; test
modules import from it."""

from hypothesis import strategies as st

from forestry.permutations import lehmer_code, trim
from forestry.polynomials import Polynomial

x = Polynomial.variable


def perms(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


def codes(max_len, max_entry):
    return st.lists(
        st.integers(0, max_entry), min_size=0, max_size=max_len
    ).map(tuple)


def small_polys(bound):
    # at most four terms in x1..x3, exponents up to 3, coefficients in
    # -bound..bound
    exps = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)
    return st.dictionaries(exps, st.integers(-bound, bound), max_size=4).map(Polynomial)


def grid_mask(cells, width):
    # the references' own layout: (r, c) is bit (r - 1) * width + c - 1
    return sum(1 << (r - 1) * width + c - 1 for r, c in cells)


def label_weight(labeling):
    # the exponent vector of prod_v x_f(v); its last entry is nonzero
    exps = [0] * max(labeling, default=0)
    for value in labeling:
        exps[value - 1] += 1
    return tuple(exps)


def reference_deletion(w, j):
    # w without its entry at 0-based index j, standardized to 1..n-1
    v = w[j]
    return tuple(u - (u > v) for u in w[:j] + w[j + 1 :])


def reference_bottom(w):
    # the bottom pipe dream: row i holds the first code(i) cells
    return frozenset((i, t) for i, k in enumerate(lehmer_code(w), 1) for t in range(1, k + 1))


def reference_reading(cells):
    """The permutation, trimmed, that the cells' letters r + c - 1 give as
    adjacent swaps, read rows top to bottom and each right to left; None
    when a swap meets a non-ascent, so the cells are no reduced dream."""
    line = list(range(1, max((r + c for r, c in cells), default=0) + 1))
    for r, c in sorted(cells, key=lambda cell: (cell[0], -cell[1])):
        a = r + c - 1
        if line[a - 1] > line[a]:
            return None
        line[a - 1], line[a] = line[a], line[a - 1]
    return trim(tuple(line))


def reference_move(d, width, cell):
    """The one ladder move at crossing ``cell`` = (r, c) of mask ``d``, as
    (order, target), found by scanning up from the cell: a row with both
    (r', c), (r', c+1) full extends the ladder, the first row with both
    empty receives the crossing (order r - r' - 1), and a mixed row blocks
    every order.  Order 0 is the simple slide."""
    r, c = cell
    shift = (r - 1) * width + c - 1
    if d >> (shift + 1) & 1:
        return None
    rr = r - 1
    while rr >= 1:
        shift -= width
        pair = d >> shift & 3
        if pair == 3:
            rr -= 1
            continue
        return (r - rr - 1, (rr, c + 1)) if pair == 0 else None
    return None


def reference_closure(w, max_order=None):
    """The dreams of w reachable from the bottom one by ladder moves
    (Bergeron-Billey) of order at most ``max_order``, or of every order
    when it is None, as cell sets: one ``reference_move`` per crossing on
    masks of width len(w)."""
    w = trim(w)
    width = max(len(w), 1)
    start = reference_bottom(w)
    seen, stack = {start}, [start]
    while stack:
        cells = stack.pop()
        d = grid_mask(cells, width)
        for cell in cells:
            move = reference_move(d, width, cell)
            if move is not None and (max_order is None or move[0] <= max_order):
                moved = cells - {cell} | {move[1]}
                if moved not in seen:
                    seen.add(moved)
                    stack.append(moved)
    return seen


def reference_divided_difference(p, i):
    """d_i of the Polynomial p, one term at a time: the monomial
    x_i^a x_(i+1)^b m (m free of both) is m x_i^b x_(i+1)^b times
    (x_i^(a-b) - x_(i+1)^(a-b)) / (x_i - x_(i+1)), which is the sum of the
    monomials of degree a - b - 1 in x_i and x_(i+1), for a > b; for a < b
    the same with a and b exchanged, negated; 0 for a = b."""
    out = {}
    for exps, coeff in p.items():
        padded = list(exps) + [0] * max(0, i + 1 - len(exps))
        a, b = padded[i - 1], padded[i]
        low, sign = min(a, b), 1 if a > b else -1
        for k in range(abs(a - b)):
            padded[i - 1], padded[i] = low + k, low + abs(a - b) - 1 - k
            out[tuple(padded)] = out.get(tuple(padded), 0) + sign * coeff
    return Polynomial(out)
