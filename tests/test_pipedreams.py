import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st
from references import (
    grid_mask,
    perms,
    reference_bottom,
    reference_closure,
    reference_divided_difference,
    reference_move,
    reference_reading,
    small_polys,
    x,
)

from forestry import pipedreams, polynomials
from forestry.permutations import (
    all_permutations,
    contains_pattern,
    inversions,
    lehmer_code,
    trim,
    trim_zeros,
)
from forestry.pipedreams import (
    all_pipe_dreams,
    render,
    schubert,
    schubert_divdiff,
    simple_closure,
    weight,
)
from forestry.polynomials import Polynomial, _divided_difference, _Packing


# --- cells, words, reading -------------------------------------------------


def test_word_reads_rows_right_to_left():
    # the word is s3 s1 s2: row 1 right to left, then row 2
    assert reference_reading(frozenset({(1, 1), (1, 3), (2, 1)})) == (2, 4, 1, 3)


def test_permutation_of_bottom_fixture():
    assert reference_reading(frozenset({(1, 1), (1, 2), (1, 3), (3, 1)})) == (4, 1, 3, 2)
    assert reference_reading(frozenset()) == ()


def test_permutation_of_rejects_non_reduced():
    assert reference_reading(frozenset({(1, 2), (2, 1)})) is None


def test_bottom_pipe_dream_fixture():
    assert reference_bottom((4, 1, 3, 2)) == frozenset({(1, 1), (1, 2), (1, 3), (3, 1)})
    assert reference_bottom((1, 2, 3)) == frozenset()


@given(perms(5))
def test_bottom_dream_reads_back(w):
    bottom = reference_bottom(w)
    assert reference_reading(bottom) == trim(w)
    assert weight(bottom) == trim_zeros(lehmer_code(w))


# --- ladder moves ------------------------------------------------------------


def moves_of(cells, width):
    # the reference's move of each crossing that has one: cell -> (order, target)
    d = grid_mask(cells, width)
    found = {cell: reference_move(d, width, cell) for cell in cells}
    return {cell: move for cell, move in found.items() if move is not None}


def test_simple_ladder_move_fixture():
    # only order 0 applies to (3, 1), and crossings against the top edge
    # cannot move
    assert moves_of(reference_bottom((4, 1, 3, 2)), 4) == {(3, 1): (0, (2, 2))}


def test_ladder_move_order_one_fixture():
    # (3,1) climbs the full row-2 ladder and lands two rows up at (1,2);
    # the order-0 move is blocked by that same full ladder
    cells = reference_bottom((1, 4, 3, 2))
    assert cells == frozenset({(2, 1), (2, 2), (3, 1)})
    assert moves_of(cells, 4) == {(3, 1): (1, (1, 2)), (2, 2): (0, (1, 3))}


@given(perms(5))
def test_at_most_one_ladder_order_applies(w):
    # order k at (r, c) asks for (r, c + 1) empty, rows r - 1 .. r - k full
    # in columns c and c + 1 and row r - k - 1 empty there: of the orders
    # 0 .. r - 2, at most one fits, and it is the order the scan finds
    width = max(len(w), 1)
    for dream in all_pipe_dreams(w):
        d = grid_mask(dream, width)
        for r, c in dream:
            pairs = [d >> (row - 1) * width + c - 1 & 3 for row in range(1, r + 1)]
            fits = [
                k
                for k in range(r - 1)
                if pairs[r - 1] & 2 == 0 and pairs[r - k - 2 : r - 1] == [0] + [3] * k
            ]
            move = reference_move(d, width, (r, c))
            assert fits == ([] if move is None else [move[0]]), (dream, (r, c))


def diagonal(cell):
    # northeast diagonal index row + col - 1; simple moves preserve it
    return cell[0] + cell[1] - 1


@given(perms(5))
def test_ladder_moves_preserve_reducedness_and_shift_diagonal(w):
    for dream in all_pipe_dreams(w):
        for cell, (order, target) in moves_of(dream, max(len(w), 1)).items():
            assert target not in dream
            assert reference_reading(dream - {cell} | {target}) == trim(w)
            assert diagonal(target) == diagonal(cell) - order


def frame(w):
    # the trimmed length n and the leading fixed points k of w
    w = trim(w)
    return len(w), next((i for i, v in enumerate(w) if v != i + 1), 0)


def frame_stride(n, k):
    # the module's row stride as its docstring states it: n - k slots,
    # rounded up to whole bytes
    return 8 * -(-(n - k) // 8)


def frame_mask(cells, stride, k):
    # the module's frame as its docstring states it: (r, c), letter
    # a = r + c - 1, is bit (r - 1) * stride + a - k - 1
    return sum(1 << (r - 1) * stride + r + c - k - 2 for r, c in cells)


def check_slides_match_the_scan(cells, width, k):
    # the crossings of the one mask of _slides, in the frame of width
    # above k leading fixed points, are the scan's order-0 moves
    slides = [cell for cell, (order, _) in moves_of(cells, width).items() if order == 0]
    stride = frame_stride(width, k)
    d = frame_mask(cells, stride, k)
    assert pipedreams._slides(d, stride) == frame_mask(slides, stride, k), sorted(cells)


def test_whole_mask_moves_match_the_per_cell_scan():
    # every crossing of every dream, with _slides in the frame of w
    for m in range(1, 7):
        for w in all_permutations(m):
            n, k = frame(w)
            for dream in all_pipe_dreams(w):
                check_slides_match_the_scan(dream, n, k)


def decode_start(code, n):
    # _start's frame, state and mask for the code at n, with each crossing's
    # field and bit decoded to its cell through the documented frame
    (stride, bits, offsets), state, occupied = pipedreams._start(code, n)
    k = next((i for i, c in enumerate(code) if c), 0)
    cells = []
    for i, offset in enumerate(offsets):
        row = state >> i * bits & (1 << bits) - 1
        at = row * stride + offset
        cells.append((row, at - (row - 1) * stride + k + 2 - row))
    return (stride, bits), state, occupied, cells


def test_start_decodes_to_the_bottom_dream():
    # one pass over the code gives the frame of w: the stride, fields
    # just wide enough for the last row, one field per crossing in slot
    # order, and rows and offsets that decode to the bottom dream's cells;
    # a larger n adds only spare slots
    for m in range(1, 8):
        for w in all_permutations(m):
            n, k = frame(w)
            code = trim_zeros(lehmer_code(w))
            bottom = sorted(reference_bottom(w))
            for size in (n, m, m + 2):
                (stride, bits), state, occupied, cells = decode_start(code, size)
                assert cells == bottom, (w, size)
                assert stride == frame_stride(size, k), (w, size)
                assert len(code) < 1 << bits <= max(2 * len(code), 1), w
                assert state >> len(bottom) * bits == 0, w
                assert occupied == frame_mask(cells, stride, k), (w, size)


def test_start_refuses_a_frame_too_narrow_for_a_row():
    # row r with c crossings needs n >= r + c, so that its last crossing
    # keeps a spare slot to its right; the trimmed length always suffices,
    # and for w(1) = n it is exactly the need
    for m in range(1, 7):
        for w in all_permutations(m):
            code = trim_zeros(lehmer_code(w))
            if not code:
                continue
            need = max(r + c for r, c in enumerate(code, 1) if c)
            assert need <= len(trim(w)), w
            pipedreams._start(code, need)
            with pytest.raises(RuntimeError, match="too narrow"):
                pipedreams._start(code, need - 1)
    with pytest.raises(RuntimeError, match="too narrow"):
        pipedreams._slide_walk((3, 1, 1), 3, [-1] * 5)


@st.composite
def staircase_masks(draw):
    # any set of staircase cells whose letters r + c - 1 lie above k
    n = draw(st.integers(2, 8))
    k = draw(st.integers(0, n - 2))
    staircase = [(r, c) for r in range(1, n) for c in range(1, n - r + 1) if r + c > k + 1]
    return draw(st.sets(st.sampled_from(staircase))), n, k


@settings(max_examples=300)
@given(staircase_masks())
def test_whole_mask_moves_match_the_scan_on_any_staircase_mask(case):
    check_slides_match_the_scan(*case)


# --- enumeration ---------------------------------------------------------------


def test_all_pipe_dreams_fixture():
    dreams = all_pipe_dreams((4, 1, 3, 2))
    assert len(dreams) == 2
    assert {weight(d) for d in dreams} == {(3, 1), (3, 0, 1)}


def test_identity_has_one_empty_dream():
    assert all_pipe_dreams(()) == frozenset({frozenset()})
    assert simple_closure((1, 2)) == frozenset({frozenset()})


def test_simple_closure_can_be_proper():
    assert len(all_pipe_dreams((1, 4, 3, 2))) == 5
    assert len(simple_closure((1, 4, 3, 2))) == 4
    assert simple_closure((1, 4, 3, 2)) < all_pipe_dreams((1, 4, 3, 2))


def test_closure_equality_tracks_1432_at_n4():
    for w in all_permutations(4):
        gap = simple_closure(w) != all_pipe_dreams(w)
        assert gap == contains_pattern(w, (1, 4, 3, 2))


@given(perms(5))
def test_bottom_dream_is_enumerated(w):
    dreams = all_pipe_dreams(w)
    assert reference_bottom(w) in dreams
    assert simple_closure(w) <= dreams


def test_closure_matches_every_reduced_subset_of_the_staircase():
    # independent of ladder moves and of the package's masks: sort every
    # subset of the staircase by the permutation its reading word gives, and
    # keep those of the right size
    for n in range(1, 6):
        staircase = [(r, c) for r in range(1, n) for c in range(1, n - r + 1)]
        by_perm: dict = {}
        for k in range(len(staircase) + 1):
            for subset in itertools.combinations(staircase, k):
                by_perm.setdefault(reference_reading(subset), set()).add(frozenset(subset))
        for w in all_permutations(n):
            reduced = {d for d in by_perm[trim(w)] if len(d) == inversions(w)}
            assert all_pipe_dreams(w) == reduced
            assert simple_closure(w) <= reduced


def test_closure_certifies_every_move(monkeypatch):
    # slides taken from the crossing one column left of each open one land
    # on that crossing's column; the order-0 closure must stop
    slides = pipedreams._slides

    def one_column_off(d, width):
        return slides(d, width) >> 1 & d

    monkeypatch.setattr(pipedreams, "_slides", one_column_off)
    with pytest.raises(RuntimeError, match="broke reducedness"):
        simple_closure((1, 4, 3, 2))


@pytest.mark.parametrize(
    "extra,message",
    [
        (lambda d, stride: d, "share a dream"),
        # a crossing moved to the spare slot of row 1, past the staircase
        (lambda d, stride: d & d - 1 | 1 << stride - 1, "left the staircase"),
        (lambda d, stride: d & d - 1, "2 crossings, not 3"),
    ],
    ids=["twice", "staircase", "count"],
)
def test_closure_certifies_every_mask(monkeypatch, extra, message):
    # the walk reports one more state, whose mask is made from the last one
    walk = pipedreams._slide_walk

    def one_more(code, n, parents):
        prev, reached, stop = walk(code, n, parents)
        stride = frame_stride(n, next(i for i, c in enumerate(code) if c))
        return prev, [*reached, (-1, extra(reached[-1][1], stride))], stop

    monkeypatch.setattr(pipedreams, "_slide_walk", one_more)
    with pytest.raises(RuntimeError, match=message):
        simple_closure((1, 4, 3, 2))


@given(perms(5))
def test_dream_count_matches_coefficient_sum(w):
    # the divided-difference oracle, not the weight sum of the same transfer
    total = sum(c for _, c in schubert_divdiff(w).items())
    assert total == len(all_pipe_dreams(w))


# --- the row-by-row transfer against ladder moves -------------------------------


def check_transfer_matches_ladder_moves(n):
    for w in all_permutations(n):
        dreams = all_pipe_dreams(w)
        assert dreams == reference_closure(w), w
        assert all(reference_reading(d) == trim(w) for d in dreams)


def test_transfer_matches_the_ladder_move_closure():
    for n in range(1, 7):
        check_transfer_matches_ladder_moves(n)


@pytest.mark.extended
def test_transfer_matches_the_ladder_move_closure_on_s7():
    check_transfer_matches_ladder_moves(7)


@pytest.mark.extended
def test_shared_steps_match_fresh_steps_on_s8(monkeypatch):
    # every permutation of S_8 gets the same dreams and polynomial from the
    # row-step table its layout shares as from an empty one
    def digests(fresh):
        found = []
        for w in all_permutations(8):
            if fresh:
                monkeypatch.setattr(polynomials, "_INTERNED", {})
            graph = pipedreams._RowGraph(trim(w))
            found.append((hash(graph.dreams), hash(graph.polynomial)))
        return found

    assert digests(fresh=False) == digests(fresh=True)


def test_long_sparse_permutation_is_fast():
    # w = 1 2 ... 1198 1200 1199: one crossing on the diagonal r + c = 1200
    # in each of rows 1..1199, so masks must not grow with the square of n,
    # neither in the transfer nor in the order-0 walk
    n = 1200
    w = tuple(range(1, n - 1)) + (n, n - 1)
    start = time.perf_counter()
    dreams = all_pipe_dreams(w)
    poly = schubert(w)
    closed = simple_closure(w) == dreams
    assert time.perf_counter() - start < 1.0
    assert closed
    assert dreams == {frozenset({(r, n - r)}) for r in range(1, n)}
    assert poly == sum((x(r) for r in range(1, n)), Polynomial.zero())


def test_dream_fold_lends_empty_rows_the_masks_below():
    # w = 1 2 ... 2398 2400 2399: of the two lines of each layer, one has
    # only the empty row and one starts with it, so the fold must share or
    # copy the masks below them, not OR an empty row into each
    n = 2400
    w = tuple(range(1, n - 1)) + (n, n - 1)
    start = time.perf_counter()
    dreams = all_pipe_dreams(w)
    assert time.perf_counter() - start < 1.0
    assert dreams == {frozenset({(r, n - r)}) for r in range(1, n)}


def test_lines_past_256_labels_are_tuples():
    # 2 3 ... 301 1 has no leading fixed point, so its lines hold 301
    # labels, more than bytes can; its one dream is the bottom one
    n = 301
    w = tuple(range(2, n + 1)) + (1,)
    graph = pipedreams._RowGraph(w)
    assert all(type(line) is tuple for layer in graph.layers for line in layer)
    assert graph.dreams == {reference_bottom(w)}
    assert graph.polynomial == Polynomial.monomial((1,) * (n - 1))


def test_order_0_walk_skips_empty_rows_of_long_masks():
    # w = 1 2 ... 2398 2400 2399: each of the 2399 masks of the walk has one
    # crossing, in a frame of 2399 rows, so certifying each mask must not
    # shift it down one empty row at a time
    n = 2400
    w = tuple(range(1, n - 1)) + (n, n - 1)
    start = time.perf_counter()
    closed = simple_closure(w)
    assert time.perf_counter() - start < 1.0
    assert closed == {frozenset({(r, n - r)}) for r in range(1, n)}


# rows wider than one byte: n - k = 9, 9, 16 and 17 letters' slots, with
# k = 0, 2, 1 and 0; the last has letters 1, 2, 9 and 16, so a row's
# crossings sit on both sides of a byte boundary
WIDE_ROWS = [
    (2, 1, 3, 4, 5, 6, 7, 9, 8),
    (1, 2, 4, 3, 5, 6, 7, 8, 9, 11, 10),
    (1, 3, 2, *range(4, 16), 17, 16),
    (3, 1, 2, *range(4, 9), 10, 9, *range(11, 16), 17, 16),
]


def test_transfer_matches_the_ladder_move_closure_on_wide_rows():
    assert [(n - k, k) for n, k in map(frame, WIDE_ROWS)] == [(9, 0), (9, 2), (16, 1), (17, 0)]
    for w in WIDE_ROWS:
        assert all_pipe_dreams(w) == reference_closure(w), w


def test_simple_closure_on_wide_rows():
    # two 1432-avoiders, where the order-0 closure is every dream
    for w in (WIDE_ROWS[0], WIDE_ROWS[3]):
        assert not contains_pattern(w, (1, 4, 3, 2))
        assert simple_closure(w) == reference_closure(w, 0) == reference_closure(w), w


@pytest.mark.parametrize("width", [8, 9, 16, 17])
@pytest.mark.parametrize("k", [0, 1])
def test_full_staircase_mask_decodes_to_every_cell(width, k):
    # every letter slot of every row set: one or more whole bytes per row
    n = width + k
    staircase = {(r, c) for r in range(1, n) for c in range(1, n - r + 1) if r + c > k + 1}
    d = frame_mask(staircase, frame_stride(n, k), k)
    assert pipedreams._dreams([d], _Packing(n, n - 1 - k), k) == {frozenset(staircase)}


@pytest.fixture
def fresh_steps(monkeypatch):
    # empty per-layout tables, row steps among them, and an empty row-graph
    # cache, so that a step cached from a real row graph cannot hide a
    # patched _rows
    monkeypatch.setattr(polynomials, "_INTERNED", {})
    pipedreams._transfer_cached.cache_clear()
    yield
    pipedreams._transfer_cached.cache_clear()


def test_transfer_certifies_each_letter(monkeypatch, fresh_steps):
    # a row step that places local letter 0 where the labels descend
    real = pipedreams._rows

    def descent(line, s):
        return [b | (line[0] > line[1]) for b in real(line, s)]

    monkeypatch.setattr(pipedreams, "_rows", descent)
    with pytest.raises(RuntimeError, match="not an ascent"):
        pipedreams._RowGraph((2, 1, 3))


def test_transfer_certifies_the_final_line(monkeypatch, fresh_steps):
    def empty_rows(line, s):
        return [0]

    monkeypatch.setattr(pipedreams, "_rows", empty_rows)
    with pytest.raises(RuntimeError, match="does not end at w"):
        pipedreams._RowGraph((1, 3, 2))


def test_transfer_certifies_distinct_dreams(monkeypatch, fresh_steps):
    # every row twice: each dream twice, caught in the forward pass that
    # both folds share, so through either public function alone
    real = pipedreams._rows

    def twice(line, s):
        return real(line, s) * 2

    monkeypatch.setattr(pipedreams, "_rows", twice)
    for public in (schubert, all_pipe_dreams):
        pipedreams._transfer_cached.cache_clear()
        with pytest.raises(RuntimeError, match="distinct"):
            public((1, 3, 2))


# The row graph of 132 (k = 1, m = 2, stride 8), its lines as labels, the
# values relabelled by w^-1 and complemented: layer 0 holds the first line,
# 0 1, with the rows {} and {0}, to the lines 0 1 and 1 0; layer 1 holds
# 0 1 with the row {0}, which the folds shift to bit 8, and 1 0 with the
# empty row, both to the line 1 0, which is w.
START_132, END_132 = bytes([0, 1]), bytes([1, 0])


def tampered_132(change):
    # a fresh row graph of 132, not the cached one, with ``change`` applied
    # to its layers before either fold runs; a change replaces a line's
    # step in the layer and leaves the shared step table as it is
    graph = pipedreams._RowGraph((1, 3, 2))
    change(graph.layers)
    return graph


def test_dream_fold_certifies_distinct_dreams():
    def two_paths_one_dream(layers):
        layers[0][START_132] += layers[0][START_132][-1:]

    with pytest.raises(RuntimeError, match="distinct"):
        tampered_132(two_paths_one_dream).dreams


def test_dream_fold_certifies_the_crossing_count():
    def spare_slot(layers):
        # the empty last row of 1 0 gains the first spare slot of row 2,
        # local bit 1, bit 9 of the mask
        layers[1][END_132] = ((1 << 1, END_132),)

    with pytest.raises(RuntimeError, match="distinct reduced words"):
        tampered_132(spare_slot).dreams


def test_term_fold_certifies_the_degree():
    def heavier(layers):
        # the dream {(2, 1)} loses its crossing and weighs 1 instead of x2;
        # without the degree check the leading-term check would raise
        # instead
        layers[1][START_132] = ((0, END_132),)

    with pytest.raises(RuntimeError, match="degree"):
        tampered_132(heavier).polynomial


def test_a_second_row_graph_adds_no_step(fresh_steps):
    # every step of w is in the layout's table after one build; a second
    # build finds each there and shares it
    w = (2, 5, 1, 4, 3)
    first = pipedreams._RowGraph(w)
    steps = first.packing.row_steps
    size = len(steps)
    second = pipedreams._RowGraph(w)
    assert len(steps) == size > 0
    for ours, theirs in zip(first.layers, second.layers):
        assert list(ours) == list(theirs)
        assert all(ours[line] is theirs[line] for line in ours)


def test_the_step_table_is_bounded(monkeypatch, fresh_steps):
    # with room for 8 steps a layout's table is emptied again and again,
    # and the dreams and polynomials stay right
    monkeypatch.setattr(polynomials, "_INTERN_LIMIT", 8)
    seen: dict = {}
    for n in range(1, 6):
        for w in all_permutations(n):
            graph = pipedreams._RowGraph(trim(w))
            steps = graph.packing.row_steps
            assert len(steps) <= 8
            seen.setdefault(id(steps), set()).update(steps)
            assert graph.dreams == reference_closure(w), w
            assert graph.polynomial == schubert_divdiff(w), w
    assert max(map(len, seen.values())) > 8


def test_a_cached_step_with_doubled_rows_is_caught(fresh_steps):
    w = (1, 3, 2)
    steps = pipedreams._RowGraph(w).packing.row_steps
    steps[START_132, -1] *= 2
    with pytest.raises(RuntimeError, match="distinct"):
        all_pipe_dreams(w)


def test_a_cached_step_with_a_wrong_child_is_caught(fresh_steps):
    # row 2 of 0 1 now leads back to 0 1 instead of to w
    w = (1, 3, 2)
    steps = pipedreams._RowGraph(w).packing.row_steps
    steps[START_132, 0] = ((1, START_132),)
    with pytest.raises(RuntimeError, match="does not end at w"):
        pipedreams._RowGraph(w)


def test_entry_lets_its_layers_go_after_both_folds():
    graph = pipedreams._RowGraph((1, 4, 3, 2))
    assert graph.polynomial == schubert((1, 4, 3, 2))
    assert graph.layers is not None
    assert graph.dreams == all_pipe_dreams((1, 4, 3, 2))
    assert graph.layers is None


def test_transfer_certifies_the_leading_term(monkeypatch, fresh_steps):
    # 132 has the dreams {(1, 2)} and, at the bottom, {(2, 1)}; a row step
    # that never leaves row 1 empty loses the bottom one (row 1 is the one
    # row of 132 whose position is a leading fixed point, so s < 0)
    real = pipedreams._rows

    def full_first_row(line, s):
        rows = real(line, s)
        return [b for b in rows if b] if s < 0 else rows

    monkeypatch.setattr(pipedreams, "_rows", full_first_row)
    with pytest.raises(RuntimeError, match="leading term"):
        pipedreams._RowGraph((1, 3, 2)).polynomial


def test_schubert_builds_no_dream():
    # 1 3 2 9 8 7 6 5 4 has 163 592 dreams but 17 319 terms: the polynomial
    # comes from the row graph alone, well under the memory the dreams take
    w = (1, 3, 2, 9, 8, 7, 6, 5, 4)
    pipedreams._transfer_cached.cache_clear()
    tracemalloc.start()
    try:
        poly = schubert(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20
    assert "dreams" not in vars(pipedreams._transfer_cached(w))
    assert poly.term_count() == 17319
    assert sum(c for _, c in poly.items()) == 163592


# --- polynomials -----------------------------------------------------------------


def test_schubert_fixtures():
    assert schubert(()) == 1
    assert schubert((4, 1, 3, 2)) == x(1) ** 3 * x(2) + x(1) ** 3 * x(3)
    assert schubert((3, 2, 1)) == x(1) ** 2 * x(2)
    assert schubert((4, 3, 2, 1)) == x(1) ** 3 * x(2) ** 2 * x(3)
    assert schubert((2, 1)) == x(1)


def test_dominant_codes_give_monomials():
    # weakly decreasing code means the bottom dream is the only dream
    assert schubert((3, 1, 2)) == x(1) ** 2
    assert schubert((3, 2, 1, 4, 6, 5)) == schubert((3, 2, 1, 4, 6, 5))
    assert schubert((2, 3, 1)) == x(1) * x(2)


@given(perms(5))
def test_schubert_ignores_trailing_fixed_points(w):
    assert schubert(w) == schubert(w + (len(w) + 1,))


def test_schubert_of_longest_element_is_staircase():
    for n in range(2, 6):
        w0 = tuple(range(n, 0, -1))
        staircase = Polynomial.monomial(tuple(range(n - 1, 0, -1)))
        assert schubert(w0) == staircase


# --- divided differences -------------------------------------------------------


def divided_difference(p, i):
    # d_i of p through the sweep's packed step, on x1..x4 with exponents up
    # to 3: d_i raises none
    packing = _Packing(4, 3)
    terms = {packing.pack(exps): coeff for exps, coeff in p.items()}
    return packing.decode(_divided_difference(terms, i, packing))


def test_divided_difference_fixtures():
    assert divided_difference(x(1), 1) == 1
    assert divided_difference(x(2), 1) == -1
    assert divided_difference(x(1) * x(2), 1) == 0
    assert divided_difference(x(1) ** 2, 1) == x(1) + x(2)
    assert divided_difference(x(3), 1) == 0
    assert divided_difference(Polynomial.constant(7), 2) == 0


@st.composite
def packed_terms(draw):
    # a layout of 2 to 5 fields of 1 to 6 bits, an i, and terms whose
    # exponents span the whole field, so that a - b at x_i, x_(i+1) takes
    # either sign up to the field's full width
    nvars = draw(st.integers(2, 5))
    packing = _Packing(nvars, draw(st.integers(1, 63)))
    exps = st.tuples(*[st.integers(0, packing.mask)] * nvars)
    terms = draw(st.dictionaries(exps, st.integers(-5, 5).filter(bool), max_size=6))
    return packing, draw(st.integers(1, nvars - 1)), terms


@settings(max_examples=300)
@given(packed_terms())
@example((_Packing(3, 63), 1, {(63, 0, 5): 2, (0, 63, 1): -3, (7, 7, 7): 1}))
@example((_Packing(3, 1), 2, {(1, 1, 0): 4, (0, 0, 1): 1}))
def test_divided_difference_matches_the_termwise_reference(case):
    packing, i, terms = case
    packed = {packing.pack(exps): coeff for exps, coeff in terms.items()}
    got = packing.decode(_divided_difference(packed, i, packing))
    assert got == reference_divided_difference(Polynomial(terms), i)


def test_a_wide_layout_fills_only_the_entries_it_meets(monkeypatch):
    # the layout of schubert --oracle at n = 200 has 8-bit fields, so the
    # table of one d_i has 2 * 255 + 1 slots; one d_5 over keys whose
    # a - b are 3, 3, -2 and 0 makes that one table and fills the two
    # entries it meets, each with |a - b| offsets
    monkeypatch.setattr(polynomials, "_INTERNED", {})
    packing = _Packing(200, 199)
    terms = {(0, 0, 0, 0, 5, 2): 1, (1, 0, 0, 0, 7, 4): 2, (0, 0, 0, 0, 1, 3): 1}
    terms[0, 0, 0, 0, 4, 4] = 9
    packed = {packing.pack(exps): coeff for exps, coeff in terms.items()}
    got = packing.decode(_divided_difference(packed, 5, packing))
    assert got == reference_divided_difference(Polynomial(terms), 5)
    assert [i for i, table in enumerate(packing.divdiffs) if table is not None] == [5]
    table = packing.divdiffs[5]
    assert len(table) == 511
    filled = {d - 511 * (d > 255): entry for d, entry in enumerate(table) if entry is not None}
    assert sorted(filled) == [-2, 3]
    assert [(negate, len(offsets)) for negate, offsets in (filled[-2], filled[3])] == [
        (True, 2),
        (False, 3),
    ]
    # another packing of the layout shares its tables
    assert _Packing(200, 199).divdiffs is packing.divdiffs


@given(small_polys(3), st.integers(1, 3))
def test_divided_difference_squares_to_zero(p, i):
    assert divided_difference(divided_difference(p, i), i) == 0


def swap_variables(p, i):
    """p with x_i and x_(i+1) exchanged (1-based i)."""
    terms = {}
    for exps, coeff in p.items():
        padded = list(exps) + [0] * max(0, i + 1 - len(exps))
        padded[i - 1], padded[i] = padded[i], padded[i - 1]
        terms[tuple(padded)] = coeff
    return Polynomial(terms)


@given(small_polys(3), st.integers(1, 3))
def test_divided_difference_is_exact_division(p, i):
    quotient = divided_difference(p, i)
    assert (x(i) - x(i + 1)) * quotient == p - swap_variables(p, i)


@given(small_polys(3), st.integers(1, 2))
def test_divided_difference_braid_relation(p, i):
    a = divided_difference(
        divided_difference(divided_difference(p, i), i + 1), i
    )
    b = divided_difference(
        divided_difference(divided_difference(p, i + 1), i), i + 1
    )
    assert a == b


@settings(deadline=None)
@given(perms(4))
def test_divided_difference_oracle_small(w):
    assert schubert_divdiff(w) == schubert(w)


def test_divided_difference_oracle_s6():
    # criterion 6 stops at S_5; the oracle's packed sweep and the transfer
    # agree on every permutation of S_6 too
    for w in all_permutations(6):
        assert schubert_divdiff(w) == schubert(w), w


@pytest.mark.extended
def test_divided_difference_oracle_s7():
    for w in all_permutations(7):
        assert schubert_divdiff(w) == schubert(w), w


def test_descent_word_is_a_reduced_word_of_its_permutation():
    # the oracle's word: as many letters as inversions, and swapping
    # positions a, a + 1 of the identity for each letter a in turn gives u
    for n in range(1, 7):
        for u in all_permutations(n):
            word = pipedreams._descent_word(u)
            assert len(word) == inversions(u), u
            line = list(range(1, n + 1))
            for a in word:
                line[a - 1], line[a] = line[a], line[a - 1]
            assert tuple(line) == u, (u, word)


# --- rendering -------------------------------------------------------------------


def test_render_fixture():
    lines = render(reference_bottom((4, 1, 3, 2)), 4)
    assert lines == ["+++", "..", "+"]
    assert render(frozenset(), 1) == ["(empty)"]
