"""The diagonal integral-line engine against the brute-force reference.

The enumeration oracles below re-derive, with plain loops and none of the
engine's vectorization, every (diagonal offset, column) element product a
convolution reads, and the size of the flat cell grid stages 1 and 2 compute.
The plan's needed set and floor must match the first exactly, its executed
counts the second.
"""

import itertools
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fsconv.fcfs
import fsconv.oracle
from fsconv import (
    ConvGeometry,
    ConvSpec,
    FeatureMap,
    FilterSummary,
    Fallback,
    LayerPlan,
    Layout,
    MultCounter,
    RunReport,
    StridePolicy,
    build_integrals,
    bundled_arch,
    convolve,
    derive_layout,
    extract_filter,
    fcfs_conv,
    layer_plan,
    measured_acceleration,
    naive_conv,
    pad_same,
    read_arch,
    rel_dev,
    required_diagonals,
    unwrap,
)
from fsconv.errors import (
    InvalidArgumentError,
    ShapeMismatchError,
    UnsupportedGeometryError,
)
from fsconv.fcfs import PLAN_CACHE_SIZE

import helpers
from helpers import (
    LONGDOUBLE_IS_WIDER,
    gamma,
    misaligned,
    random_fast_geometry,
    random_instance,
    rounding_excess,
    wide_conv,
)


def enumerate_cells(geom, layout, d1, d2):
    """Oracle: all (offset, column) product cells, one per slice-pair element."""
    cells = set()
    p1 = d1 + geom.s1 - 1
    width = geom.slice_len
    for i in range(geom.c_out):
        for m in range(d1):
            for n in range(d2):
                for k in range(geom.s2):
                    a = (n + k) * geom.c_in * p1 + m * geom.c_in
                    b = i * layout.stride + k * width
                    for t in range(width):
                        cells.add((a - b, b + t))
    return cells


def grid_counts(geom, layout, d1, d2):
    """Oracle: (multiplies, additions, lookups) of one execution on the flat
    grid. P is every padded cell, Q the summary cells up to the last one a
    slice reads, and the windows run up to the last one a slice starts, at
    r*Q + q for padded cell r and summary cell q. A cell product is c_in
    multiplies and c_in-1 additions, stage 2 adds the s1 entries of each window
    in s1-1 adds, and stage 3 looks up one window per slice pair and adds the
    s2 of an output in s2-1 adds."""
    p1 = d1 + geom.s1 - 1
    padded = p1 * (d2 + geom.s2 - 1)
    starts = [((n + k) * p1 + m, (i * layout.stride + k * geom.slice_len) // geom.c_in)
              for i in range(geom.c_out) for m in range(d1) for n in range(d2) for k in range(geom.s2)]
    summary = max(q for _, q in starts) + geom.s1
    windows = max(r * summary + q for r, q in starts) + 1
    outputs = geom.c_out * d1 * d2
    additions = (geom.c_in - 1) * padded * summary + (geom.s1 - 1) * windows + (geom.s2 - 1) * outputs
    return geom.c_in * padded * summary, additions, geom.s2 * outputs


class Term:
    """A symbolic table entry: the G indices it sums. Each add is counted."""

    adds = 0

    def __init__(self, *indices):
        self.indices = indices

    def __add__(self, other):
        Term.adds += 1
        return Term(*self.indices, *other.indices)


def literal_products(fs, fmap, plan):
    """Every G[r, q] = x_cell[r] . w_cell[q], one Python dot product each, row-major."""
    c_in = fs.geom.c_in
    x = pad_same(fmap, fs.geom.s1, fs.geom.s2).data.reshape(plan.cells, c_in).tolist()
    w = fs.weights[: plan.summary * c_in].reshape(plan.summary, c_in).tolist()
    return np.array([sum(a * b for a, b in zip(xr, wq)) for xr in x for wq in w])


def slice_starts(fs, shape, d1):
    """Padded-map and summary element start of every slice pair, in the
    plan's (s2, d2, d1, c_out) order."""
    geom = fs.geom
    k, n, m, i = np.indices(shape)
    a = (n + k) * geom.c_in * (d1 + geom.s1 - 1) + m * geom.c_in
    b = i * fs.layout.stride + k * geom.slice_len
    return a.ravel(), b.ravel()


def assert_windows_are_slice_dots(fs, fmap, plan, table):
    """Every window the stage-3 view reads equals its slice pair's direct
    dot product, within 1e-12 in f64."""
    padded = pad_same(fmap, fs.geom.s1, fs.geom.s2).data
    a, b = slice_starts(fs, plan.shape, fmap.d1)
    span = np.arange(fs.geom.slice_len)
    direct = np.einsum("ij,ij->i", padded[a[:, None] + span], fs.weights[b[:, None] + span])
    read = plan.view(table).ravel()
    assert np.all(np.abs(read - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))


def plan_cells(plan):
    cells = set()
    for off, runs in plan.items():
        for lo, hi in runs:
            for y in range(lo, hi):
                cells.add((off, y))
    return cells


class TestRequiredDiagonals:
    def test_tiny_worked_case(self):
        # one 1x1x2 filter on a 2x2 map: offsets from 8 slice pairs
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.random(geom, seed=0)
        plan = required_diagonals(fs, FeatureMap.random(1, 2, 2, seed=1))
        assert plan == {
            0: [(0, 1)],
            1: [(0, 2)],
            2: [(0, 2)],
            3: [(0, 2)],
            4: [(1, 2)],
        }
        assert plan_cells(plan) == enumerate_cells(geom, fs.layout, 2, 2)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            geom = random_fast_geometry(rng, c_in=(1, 5), s1=(1, 3), s2=(2, 3), c_out=(1, 8))
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            d1 = int(rng.integers(1, 5))
            d2 = int(rng.integers(1, 5))
            fmap = FeatureMap.random(geom.c_in, d1, d2, seed=int(rng.integers(2**31)))
            plan = required_diagonals(fs, fmap)
            cells = enumerate_cells(geom, fs.layout, d1, d2)
            assert plan_cells(plan) == cells
            planned = layer_plan(geom, fs.layout, d1, d2).fcfs
            assert planned.needed == len(cells)
            counts = (planned.multiplies, planned.additions, planned.lookups)
            assert counts == grid_counts(geom, fs.layout, d1, d2)
            assert planned.multiplies >= planned.needed
            for runs in plan.values():  # runs disjoint, sorted, non-touching
                for (lo1, hi1), (lo2, hi2) in zip(runs, runs[1:]):
                    assert lo1 < hi1 < lo2 < hi2

    def test_channel_aligned_offsets_on_channel_residue(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            geom = random_fast_geometry(rng, c_in=(2, 8), s2=(2, 4), c_out=(2, 12))
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            plan = required_diagonals(fs, FeatureMap.random(geom.c_in, 4, 4, seed=0))
            assert all(off % geom.c_in == 0 for off in plan)

    def test_single_filter_single_position(self):
        # one slice pair per k: s2 raw segments, merging into one run at offset 0
        geom = ConvGeometry(2, 2, 3, 1, 1)
        fs = FilterSummary.random(geom, seed=4)
        plan = required_diagonals(fs, FeatureMap.random(2, 1, 1, seed=5))
        assert plan == {0: [(0, geom.filter_len)]}
        cells = enumerate_cells(geom, fs.layout, 1, 1)
        assert len(cells) == geom.s2 * geom.slice_len

    def test_s2_one_matches_enumeration_oracle(self):
        # one filter column: filters still overlap in the summary, so the plan
        # is the same grid, and the products it reads are the enumerated ones
        for geom, d1, d2 in [(ConvGeometry(2, 3, 1, 4, 2), 3, 3),
                             (ConvGeometry(3, 1, 1, 5, 2), 4, 2),
                             (ConvGeometry(1, 4, 1, 6, 3), 2, 5)]:
            fs = FilterSummary.random(geom, seed=6)
            plan = required_diagonals(fs, FeatureMap.random(geom.c_in, d1, d2, seed=7))
            cells = enumerate_cells(geom, fs.layout, d1, d2)
            assert plan_cells(plan) == cells
            planned = layer_plan(geom, fs.layout, d1, d2).fcfs
            assert planned.needed == len(cells)
            assert (planned.multiplies, planned.additions, planned.lookups) == grid_counts(
                geom, fs.layout, d1, d2)


class TestPlanGuard:
    """A layer's record holds no fcfs plan where its rule refuses the layer whatever the
    map size, an unaligned filter stride, so no stage of the engine is planned for a
    layer the engine cannot run, and every caller of the plan refuses it."""

    @pytest.mark.parametrize("geom, reason", [
        (ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), "unaligned_stride"),  # stride 13
    ])
    def test_refused_layer_has_no_plan(self, geom, reason):
        fs = FilterSummary.random(geom, seed=47)
        fmap = FeatureMap.random(geom.c_in, 4, 4, seed=48)
        for record in (LayerPlan.build(geom, fs.layout, 4, 4), layer_plan(geom, fs.layout, 4, 4)):
            assert record.fallback.value == reason
            assert record.fcfs is None
        for call in (lambda: required_diagonals(fs, fmap), lambda: build_integrals(fs, fmap)):
            with pytest.raises(UnsupportedGeometryError, match=reason):
                call()


def unblocked_windows(plan, grid):
    """Stage 2 with no blocks: G[:n] + G[step : step + n], then += G[t*step : t*step + n]
    for t = 2 .. s1-1, one new table (G itself for s1 = 1)."""
    if plan.window == 1:
        return grid
    step, n = plan.summary + 1, plan.windows
    table = np.add(grid[:n], grid[step : step + n])
    for t in range(2, plan.window):
        table += grid[t * step : t * step + n]
    return table


def blocked_windows(plan, grid, itemsize):
    """Stage 2 of a given flat G through sum_block, in the row blocks an execution in
    `itemsize`-byte entries takes, each put after the carry in one buffer. The buffer
    starts as NaN, which no window may read: a NaN or a Term + NaN would show."""
    table, size = np.empty(plan.windows, grid.dtype), plan.rows(itemsize) * plan.summary
    carry = grid.size - plan.windows
    buffer = np.full(carry + size, np.nan, grid.dtype)
    for start in range(0, grid.size, size):
        block = grid[start : start + size]
        buffer[carry : carry + block.size] = block
        plan.sum_block(table, buffer[: carry + block.size], start)
    return table


BUDGETS = [64, 4096, fsconv.fcfs.BLOCK_BYTES]


class TestStageTwo:
    @pytest.mark.parametrize("s1", range(1, 13))
    def test_windows_by_doubling(self, s1, monkeypatch):
        # on symbolic entries: window j sums exactly G's entries j + t*(Q+1),
        # t < s1, added in that order, and the adds that run are s1-1 per
        # window, the plan's stage-2 count, in one block or in many
        geom = ConvGeometry(2, s1, 2, 3, 2)
        plan = LayerPlan.build(geom, derive_layout(geom), 3, 2).fcfs
        grid = np.empty(plan.cells * plan.summary, object)
        grid[:] = [Term(j) for j in range(grid.size)]
        step = plan.summary + 1
        assert plan.windows == plan.cells * plan.summary - (s1 - 1) * step
        outputs = geom.c_out * 3 * 2
        stage2 = plan.additions - (geom.c_in - 1) * grid.size - (geom.s2 - 1) * outputs
        blocks = set()
        for budget in BUDGETS:
            monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", budget)
            Term.adds = 0
            windows = grid if s1 == 1 else blocked_windows(plan, grid, 8)
            assert [w.indices for w in windows] == [
                tuple(j + t * step for t in range(s1)) for j in range(plan.windows)]
            assert Term.adds == stage2 == (s1 - 1) * plan.windows
            blocks.add(plan.blocks(8))
        assert min(blocks) == 1 and (max(blocks) > 1) == (s1 > 1)

    def test_blocked_table_is_the_unblocked_bytes(self, monkeypatch):
        # given one G, with signed zeros, the table sum_block fills in any row blocks
        # is byte for byte the unblocked one, whose adds run in the same order
        rng = np.random.default_rng(51)
        for case in range(60):
            geom = random_fast_geometry(rng, c_in=(1, 4), s1=(2, 11), s2=(1, 4), c_out=(1, 9))
            layout = derive_layout(geom)
            d1, d2 = (int(v) for v in rng.integers(1, 16, 2))
            plan = layer_plan(geom, layout, d1, d2).fcfs
            dtype = (np.float32, np.float64)[case % 2]
            grid = rng.standard_normal(plan.cells * plan.summary).astype(dtype)
            grid[rng.random(grid.size) < 0.1] = -0.0
            expected = unblocked_windows(plan, grid).tobytes()
            for budget in BUDGETS:
                monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", budget)
                assert blocked_windows(plan, grid, grid.itemsize).tobytes() == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_shorter_than_the_carry(self, dtype, monkeypatch):
        # at a 64-byte budget each block is one row of G, Q entries, against a carry of
        # 6(Q+1) at s1 = 7: the first six blocks end before any window does, and each
        # later one completes Q windows whose entries span seven blocks. Given one G, with
        # signed zeros, the table is the unblocked one, byte for byte
        monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", 64)
        geom = ConvGeometry(2, 7, 2, 6, 3)
        plan = layer_plan(geom, derive_layout(geom), 5, 4).fcfs
        carry = plan.cells * plan.summary - plan.windows
        assert plan.rows(np.dtype(dtype).itemsize) == 1
        assert plan.summary < carry == 6 * (plan.summary + 1)
        rng = np.random.default_rng(65)
        grid = rng.standard_normal(plan.cells * plan.summary).astype(dtype)
        grid[rng.random(grid.size) < 0.1] = -0.0
        expected = unblocked_windows(plan, grid).tobytes()
        assert blocked_windows(plan, grid, grid.itemsize).tobytes() == expected

    def test_rows_per_block(self, monkeypatch):
        # B = BLOCK_BYTES // (Q * itemsize) rows, at least one and at most P; s1 = 1 is
        # one block whatever the budget, as G is the table
        geom = ConvGeometry(16, 3, 3, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        plan = layer_plan(geom, derive_layout(geom), 32, 32).fcfs
        assert (plan.cells, plan.summary) == (1156, 71)
        assert (plan.rows(4), plan.blocks(4)) == (262144 // 284, 2) == (923, 2)
        assert (plan.rows(8), plan.blocks(8)) == (461, 3)
        monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", 64)
        assert (plan.rows(8), plan.blocks(8)) == (1, 1156)
        monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", 1 << 30)
        assert (plan.rows(8), plan.blocks(8)) == (1156, 1)
        monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", 64)
        narrow = ConvGeometry(16, 1, 3, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        plan = layer_plan(narrow, derive_layout(narrow), 32, 32).fcfs
        assert (plan.rows(8), plan.blocks(8)) == (plan.cells, 1)


class TestPlanFloor:
    def test_floor_computed_on_first_read(self):
        rng = np.random.default_rng(46)
        for _ in range(15):
            fs, fmap = random_instance(rng, c_in=(1, 5), s1=(1, 3), s2=(2, 3), c_out=(1, 8), d=(1, 5))
            plan = LayerPlan.build(fs.geom, fs.layout, fmap.d1, fmap.d2).fcfs
            assert "needed" not in vars(plan)
            assert plan.needed == len(enumerate_cells(fs.geom, fs.layout, fmap.d1, fmap.d2))
            assert "needed" in vars(plan)
            assert plan == LayerPlan.build(fs.geom, fs.layout, fmap.d1, fmap.d2).fcfs

    def test_build_allocates_no_read_mask(self):
        # 16->32 at 32x32: the (P, Q) bool read mask is 1156 x 71 bytes,
        # which only the first read of `needed` allocates
        geom = ConvGeometry(16, 3, 3, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        layout = derive_layout(geom)
        tracemalloc.start()
        try:
            plan = LayerPlan.build(geom, layout, 32, 32).fcfs
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert plan.needed > 0
            floor_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mask = plan.cells * plan.summary
        assert mask == 1156 * 71
        assert build_peak < mask <= floor_peak


class TestBuildIntegrals:
    """Stages 1 and 2: the flat (P, Q) table of the cell products G[r, q] =
    x_cell[r] . w_cell[q] at r*Q + q, then window j, the sum of the s1 entries
    j + t*(Q+1) down one diagonal."""

    def test_hand_case(self):
        # one 1x1x2 filter [1, 2] on the 1x2 map [3, 4] (padded [3, 4, 0]):
        # P = 3 padded cells, Q = 2 summary cells, G = [[3, 6], [4, 8], [0, 0]].
        # With s1 = 1 a window is one product: stage 2 adds nothing.
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.from_weights(geom, np.array([1.0, 2.0]))
        fmap = FeatureMap(1, 1, 2, np.array([3.0, 4.0]))
        plan = layer_plan(geom, fs.layout, 1, 2).fcfs
        assert np.array_equal(plan.integrals(fmap, fs.weights), [3, 6, 4, 8, 0, 0])
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        assert np.array_equal(table, [3, 6, 4, 8, 0, 0])
        assert (plan.cells, plan.summary, plan.window, plan.windows) == (3, 2, 1, 6)
        # the whole 3 x 2 grid: 6 products; no cell or window additions
        # (c_in = s1 = 1), 4 lookups and 2 slice additions; 4 products read
        assert (plan.multiplies, plan.additions, plan.lookups, plan.needed) == (6, 2, 4, 4)
        assert (plan.shape, plan.strides) == ((2, 2, 1, 1), (3, 2, 2, 1))
        # the (1, 2) summary block, the padded map, alive while G is made, and G, also the windows
        assert plan.nbytes(8) == 8 * (2 + 3 + 6)
        windows = plan.view(table)
        assert np.array_equal(windows.ravel(), [3.0, 4.0, 8.0, 0.0])  # (k, n) order
        assert np.array_equal(fcfs_conv(fs, fmap)[0].data, [11.0, 4.0])

    def test_zero_summary_zero_integrals(self):
        geom = ConvGeometry(2, 2, 2, 3, 2)
        template = FilterSummary.random(geom, seed=8)
        fs = FilterSummary(geom, template.layout, np.zeros_like(template.weights))
        fmap = FeatureMap.random(2, 3, 3, seed=8)
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        plan = layer_plan(geom, fs.layout, 3, 3).fcfs
        assert table.size == plan.windows == (plan.cells - 1) * plan.summary - 1 > 0
        assert not table.any()

    def test_windows_match_direct_dot(self, monkeypatch):
        # every entry of G, as the row blocks stage 2 reads (budget 64 B, a few
        # rows each) or as the table for s1 = 1, against its cell dot product,
        # every window against the literal sum of its s1 diagonal products,
        # within 1e-12 in f64
        monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", 64)
        seen = []

        def sum_block(plan, table, buffer, start):
            seen.append((start, buffer[plan.cells * plan.summary - plan.windows :].copy()))
            sum_block.original(plan, table, buffer, start)

        sum_block.original = fsconv.fcfs.FcfsPlan.sum_block
        monkeypatch.setattr(fsconv.fcfs.FcfsPlan, "sum_block", sum_block)
        rng = np.random.default_rng(9)
        for _ in range(10):
            fs, fmap = random_instance(rng, c_in=(1, 6), c_out=(1, 8), d=(2, 6))
            plan = layer_plan(fs.geom, fs.layout, fmap.d1, fmap.d2).fcfs
            direct = literal_products(fs, fmap, plan)
            seen.clear()
            integrals = plan.integrals(fmap, fs.weights)
            if plan.window == 1:
                seen.append((0, integrals))
            starts = range(0, direct.size, plan.rows(8) * plan.summary)
            assert [start for start, _ in seen] == list(starts)
            products = np.concatenate([block for _, block in seen])
            assert products.shape == direct.shape == (plan.cells * plan.summary,)
            assert np.all(np.abs(products - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))
            table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
            assert table.shape == (plan.windows,)
            step = plan.summary + 1
            for j in range(plan.windows):
                window = sum(direct[j + t * step] for t in range(fs.geom.s1))
                assert abs(table[j] - window) <= 1e-12 * max(1.0, abs(window))
            assert_windows_are_slice_dots(fs, fmap, plan, table)

    # (c_in, s1, s2, c_out, ratio), d1, d2: s1 from 1 to 7 and 11, and one
    # table far taller than wide (Q = 450 summary cells against P = 99 padded cells)
    WINDOW_CASES = [
        ((1, 4, 4, 63, 2), 8, 9),
        ((2, 1, 3, 6, 2), 5, 4),
        ((3, 2, 2, 9, 3), 6, 5),
        ((1, 3, 3, 12, 2), 4, 7),
        ((2, 5, 2, 7, 2), 3, 6),
        ((1, 6, 2, 5, 2), 4, 3),
        ((2, 7, 2, 6, 3), 5, 4),
        ((1, 11, 2, 4, 2), 3, 5),
    ]

    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: "s1=%d" % c[0][1])
    def test_windows_by_doubling_are_slice_dots(self, case, monkeypatch):
        # each window the stage-3 view reads is its slice pair's direct dot
        # product, every window the literal sum of its diagonal, in one row
        # block or in many, and repeated calls give the same bytes
        (c_in, s1, s2, c_out, ratio), d1, d2 = case
        geom = ConvGeometry(c_in, s1, s2, c_out, ratio)
        fs = FilterSummary.random(geom, seed=49)
        fmap = FeatureMap.random(c_in, d1, d2, seed=50)
        plan = LayerPlan.build(geom, fs.layout, d1, d2).fcfs
        grid, step = literal_products(fs, fmap, plan), plan.summary + 1
        literal = sum(grid[t * step : t * step + plan.windows] for t in range(s1))
        for budget in BUDGETS:
            monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", budget)
            table = plan.integrals(fmap, fs.weights)
            assert_windows_are_slice_dots(fs, fmap, plan, table)
            assert np.all(np.abs(table - literal) <= 1e-12 * np.maximum(1.0, np.abs(literal)))
            assert build_integrals(fs, fmap).tobytes() == table.tobytes()


class TestStageThreeViews:
    """Stage 3 reads the windows through one strided view. It must name
    exactly the entries an explicit index of every slice pair names."""

    EDGE_CASES = [
        (ConvGeometry(1, 1, 2, 1, 1), 1, 2),  # the hand case
        (ConvGeometry(1, 1, 2, 3, 1), 1, 7),  # c_in = 1, s1 = 1, ratio = 1, 1xN
        (ConvGeometry(1, 3, 3, 4, 1), 7, 1),  # c_in = 1, ratio = 1, Nx1
        (ConvGeometry(3, 1, 4, 6, 1), 1, 1),  # s1 = 1, ratio = 1, one output
        (ConvGeometry(2, 2, 3, 5, 5), 1, 9),  # ratio = c_out, 1xN
        (ConvGeometry(4, 1, 2, 8, 8, StridePolicy.GENERIC), 3, 3),  # filter stride 0
    ]

    def random_cases(self, rng, count):
        for _ in range(count):
            geom = random_fast_geometry(rng, c_in=(1, 6), s1=(1, 4), s2=(2, 4), c_out=(1, 10))
            yield geom, int(rng.integers(1, 7)), int(rng.integers(1, 7))

    def test_views_equal_explicit_index(self):
        rng = np.random.default_rng(40)
        for geom, d1, d2 in self.EDGE_CASES + list(self.random_cases(rng, 40)):
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            assert layer_plan(geom, fs.layout, d1, d2).fallback is not Fallback.UNALIGNED_STRIDE
            fmap = FeatureMap.random(geom.c_in, d1, d2, seed=int(rng.integers(2**31)))
            plan = layer_plan(geom, fs.layout, d1, d2).fcfs
            # slice k of filter i at output (m, n) starts at padded cell r and
            # summary cell q; its window is entry r*Q + q of the flat table
            s1, p1, shift = geom.s1, d1 + geom.s1 - 1, fs.layout.stride // geom.c_in
            cells = p1 * (d2 + geom.s2 - 1)
            summary = (geom.c_out - 1) * shift + s1 * geom.s2
            windows = (cells - s1 + 1) * summary - s1 + 1
            assert (plan.cells, plan.summary, plan.window) == (cells, summary, s1)
            assert plan.windows == windows
            k, n, m, i = np.indices((geom.s2, d2, d1, geom.c_out))
            r, q = (n + k) * p1 + m, i * shift + k * s1
            idx = r * summary + q
            assert idx.max() == windows - 1  # the last window is read
            positions = np.arange(windows)
            assert np.array_equal(plan.view(positions), idx)
            table = build_integrals(fs, fmap)
            assert table.size == positions.size
            assert plan.view(table).tobytes() == table[idx].tobytes()

    def test_reduction_adds_the_slices_in_order(self):
        # stage 3 is one numpy reduction over the view's slice axis, the outermost and never
        # contiguous, so numpy adds each output's slices in index order: fcfs_conv is the
        # bytes of unblocked_conv's explicit loop for s2 = 1 .. 11 in f32 and f64, on a map
        # that many slices of an output read, a 1x1 map and c_out = 1 (on a 1x1 map with
        # c_out = 1, a lone output, every slice but one reads padding zeros). Were the slices
        # summed pairwise, as numpy sums a contiguous axis, v[0] + (v[1] + v[2]) and the
        # like would change bytes. The output is the reduction's own (d2, d1, c_out) array,
        # C-ordered and writable, which the map's data views: no copy follows
        rng = np.random.default_rng(71)
        for s2, dtype in itertools.product(range(1, 12), (np.float32, np.float64)):
            for c_out, d1, d2 in [((2, 9), int(rng.integers(2, 7)), s2 + int(rng.integers(1, 4))),
                                  ((1, 9), 1, 1), ((1, 1), int(rng.integers(1, 7)), s2 + 1)]:
                geom = random_fast_geometry(rng, c_in=(1, 6), s1=(1, 4), s2=(s2, s2), c_out=c_out)
                fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)), dtype=dtype)
                fmap = FeatureMap.random(geom.c_in, d1, d2, seed=int(rng.integers(2**31)),
                                         dtype=dtype)
                plan = layer_plan(geom, fs.layout, d1, d2).fcfs
                assert plan.blocks(np.dtype(dtype).itemsize) == 1  # G is unblocked_grid's product
                out = fcfs_conv(fs, fmap)[0].data
                assert out.tobytes() == unblocked_conv(plan, fs, fmap).tobytes(), (geom, d1, d2)
                assert out.base.shape == (d2, d1, geom.c_out)
                assert out.base.flags.c_contiguous and out.flags.writeable

    def test_view_refuses_an_array_it_leaves(self):
        geom = ConvGeometry(2, 3, 3, 4, 2)
        fs = FilterSummary.random(geom, seed=43)
        table = build_integrals(fs, FeatureMap.random(2, 4, 5, seed=44))
        plan = layer_plan(geom, fs.layout, 4, 5).fcfs
        assert plan.view(table).shape == (3, 5, 4, 4)
        with pytest.raises(ValueError):
            plan.view(table[:-1])  # too short
        with pytest.raises(ValueError):
            plan.view(table[::2])  # not contiguous

    @pytest.mark.parametrize("s1, cells, summary", [(3, 1156, 71), (5, 1296, 211), (7, 1444, 421)],
                             ids=["s1=3", "s1=5", "s1=7"])
    def test_warm_call_allocates_products_and_windows(self, s1, cells, summary, monkeypatch):
        # one f32 16->32 s1 x s1 layer at 32x32: P = (31+s1)^2 padded cells,
        # Q = 31*shift + s1^2 summary cells, and (P-s1+1)*Q - s1 + 1 windows in
        # one array. Every s1 here takes more than one block of B = 262,144 //
        # (4*Q) rows of G, so while stage 2 runs on a block before the last a
        # call holds exactly nbytes of numpy data: the padded map (16*P
        # entries), one block and the windows; on the last block, the map has
        # gone. That is the peak of the call: the output (131,072 bytes) comes
        # after the block goes. A second block buffer, a G of all P rows, a
        # second stage-2 table, a gathered index or a slice-sum temporary
        # (393,216 bytes at s1 = 3) would push a peak past its bound. At s1 = 5
        # and 7 the peak is below 4*(P*Q + windows), the bytes of an unblocked
        # G and table. The buffer holds the carry, (s1-1)(Q+1) entries, before
        # the block, and stage 1 reads one (16, Q) copy of the summary.
        geom = ConvGeometry(16, s1, s1, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=41, dtype=np.float32)
        fmap = FeatureMap.random(16, 32, 32, seed=42, dtype=np.float32)
        convolve(fs, fmap)  # plans the layer
        plan = layer_plan(geom, fs.layout, 32, 32).fcfs
        windows = (cells - s1 + 1) * summary - s1 + 1
        assert (plan.cells, plan.summary, plan.windows) == (cells, summary, windows)
        rows = 262_144 // (4 * summary)
        assert (plan.rows(4), plan.blocks(4)) == (rows, -(-cells // rows)) and rows < cells
        work_bytes = plan.nbytes(4)
        carry = (s1 - 1) * (summary + 1)
        assert work_bytes == 4 * (16 * summary + 16 * cells + carry + rows * summary + windows)
        numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        held = []

        def sum_block(plan, table, buffer, start):
            sum_block.original(plan, table, buffer, start)
            snapshot = tracemalloc.take_snapshot().filter_traces([numpy_data])
            held.append(sum(stat.size for stat in snapshot.statistics("filename")))

        sum_block.original = fsconv.fcfs.FcfsPlan.sum_block
        tracemalloc.start()
        try:
            with monkeypatch.context() as patched:
                patched.setattr(fsconv.fcfs.FcfsPlan, "sum_block", sum_block)
                plan.integrals(fmap, fs.weights)
            tracemalloc.reset_peak()
            out, _ = convolve(fs, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held == [work_bytes] * (plan.blocks(4) - 1) + [work_bytes - 4 * 16 * cells]
        assert out.data.dtype == np.float32
        assert peak <= work_bytes + 64 * 1024
        if s1 > 3:
            assert peak < 4 * (cells * summary + windows)


def unblocked_grid(plan, fs, fmap):
    """G as one product over all of it, by the operand stage 1 reads: the summary's first Q
    cells as one C-ordered (c_in, Q) block."""
    x = pad_same(fmap, plan.window, plan.shape[0]).data.reshape(plan.cells, -1)
    w = np.ascontiguousarray(fs.weights[: plan.summary * x.shape[1]].reshape(plan.summary, -1).T)
    return np.matmul(x, w).ravel()


def unblocked_conv(plan, fs, fmap):
    """fcfs with stages 1 and 2 unblocked: unblocked_grid, unblocked_windows, then stage 3 as
    an explicit loop in slice order, v[0] + v[1], then += v[k] (v[0] for s2 = 1): the order
    the engine's reduction must keep."""
    windows = plan.view(unblocked_windows(plan, unblocked_grid(plan, fs, fmap)))
    out = np.add(windows[0], windows[1], order="C") if len(windows) > 1 else windows[0].copy()
    for per_slice in windows[2:]:
        out += per_slice
    return out.ravel()


class TestRowBlocks:
    """Stages 1 and 2 in row blocks of G change no f32 byte on the paper's target
    network, and no f64 output past its rounding bound."""

    def test_resnet110_chain_f32_bytes_of_unblocked_stages(self):
        # on the 109-layer chain at the default budget, every fcfs_conv output is
        # the bytes of one product over all of G, the unblocked window table and
        # the same stage 3; 16->32 at 32x32 is the one layer that takes two blocks
        x = np.random.default_rng(61).standard_normal((3, 32, 32)).astype(np.float32)
        convs = [spec for spec in read_arch(bundled_arch("resnet110")).layers
                 if isinstance(spec, ConvSpec)]
        blocks = {}
        for index, spec in enumerate(convs):
            geom = ConvGeometry(spec.c_in, spec.s1, spec.s2, spec.c_out, 4)
            fs = FilterSummary.random(geom, seed=index, dtype=np.float32)
            fmap = unwrap(x)
            plan = layer_plan(geom, fs.layout, fmap.d1, fmap.d2).fcfs
            out = fcfs_conv(fs, fmap)[0]
            assert out.data.tobytes() == unblocked_conv(plan, fs, fmap).tobytes(), spec.name
            blocks[geom.c_in, geom.c_out, fmap.d1] = plan.blocks(4)
            x = out.as_3d() / np.abs(out.data).max()  # keeps f32 in range
            if spec.name.endswith("block01.conv1") and not spec.name.startswith("stage1"):
                x = x[:, ::2, ::2]  # 32, then 16, then 8
        assert len(convs) == 109
        assert {key for key, count in blocks.items() if count > 1} == {(16, 32, 32)}
        assert blocks[16, 32, 32] == 2

    def test_f64_blocks_within_rounding_bound(self, monkeypatch):
        # a block's GEMM may take other BLAS kernels than one over all of G, so f64
        # need not keep the unblocked bytes: each output stays within its rounding
        # bound, and a repeated call gives the same bytes, at every budget
        rng = np.random.default_rng(62)
        cases = [random_instance(rng, c_in=(1, 6), s1=(1, 9), s2=(1, 4), c_out=(1, 12), d=(1, 14))
                 for _ in range(12)]
        for budget in BUDGETS:
            monkeypatch.setattr(fsconv.fcfs, "BLOCK_BYTES", budget)
            for fs, fmap in cases:
                geom = fs.geom
                fast = fcfs_conv(fs, fmap)[0].data
                assert fast.tobytes() == fcfs_conv(fs, fmap)[0].data.tobytes()
                depth = geom.c_in + geom.s1 + geom.s2 - 2
                small = fast.size * geom.filter_len <= 20_000
                if LONGDOUBLE_IS_WIDER or small:
                    assert rounding_excess(fast, fs, fmap, depth).max() <= 1, (geom, budget)
                assert rel_dev(fast, naive_conv(fs, fmap).data) <= 1e-12

    @pytest.mark.parametrize("s1, c_out, d, blocks", [(3, 16, 32, 1), (5, 16, 16, 1), (3, 32, 32, 2)],
                             ids=["3x3 one block", "5x5 one block", "3x3 two blocks"])
    def test_one_sum_block_call_per_block(self, s1, c_out, d, blocks, monkeypatch):
        # f32 16->c_out s1 x s1 at d x d, warm: G of one block (as on every ResNet-110 layer
        # but 16->32 at 32x32) and G of two blocks both run sum_block once per block, and
        # the padded map of one block goes before the table comes. Each table is the bytes
        # of the unblocked stages over one product, and no call holds more than nbytes (a
        # padded map kept to the end would add 16*P entries, 25,600 bytes at 5x5)
        geom = ConvGeometry(16, s1, s1, c_out, 4)
        fs = FilterSummary.random(geom, seed=63, dtype=np.float32)
        fmap = FeatureMap.random(16, d, d, seed=64, dtype=np.float32)
        fcfs_conv(fs, fmap)
        plan = layer_plan(geom, fs.layout, d, d).fcfs
        assert plan.blocks(4) == blocks
        starts, sum_block = [], fsconv.fcfs.FcfsPlan.sum_block
        with monkeypatch.context() as patched:
            patched.setattr(fsconv.fcfs.FcfsPlan, "sum_block",
                            lambda plan, table, buffer, start: starts.append(start)
                            or sum_block(plan, table, buffer, start))
            tracemalloc.start()
            try:
                table = plan.integrals(fmap, fs.weights)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert starts == [r0 * plan.summary for r0 in range(0, plan.cells, plan.rows(4))]
        assert len(starts) == blocks
        assert peak <= plan.nbytes(4) + 8 * 1024
        assert table.tobytes() == unblocked_windows(plan, unblocked_grid(plan, fs, fmap)).tobytes()

    @pytest.mark.parametrize("geom, d, dtype, blocks", [
        (ConvGeometry(16, 1, 3, 32, 4), 32, np.float32, 1),
        (ConvGeometry(32, 2, 2, 4, 4), 16, np.float64, 1),
        (ConvGeometry(16, 3, 3, 16, 4), 32, np.float32, 1),
        (ConvGeometry(16, 3, 3, 32, 4), 32, np.float32, 2),
    ], ids=["16->32 1x3 f32", "32->4 2x2 f64", "16->16 3x3 f32", "16->32 3x3 f32 two blocks"])
    def test_nbytes_is_the_peak_of_a_warm_call(self, geom, d, dtype, blocks):
        # nbytes counts the padded map as the execution holds it: beside G, the table, for
        # s1 = 1; beside the table for more than one block; for one block with s1 > 1 the
        # map goes before the table comes, so the larger counts: the map of 32->4 (c_in*P =
        # 9,248 entries against 1,151 windows) and the table of the ResNet-110 layer 16->16
        # (45,004 windows against 18,496). A warm integrals call peaks at nbytes plus under
        # 8 KiB of small objects, and a warm fcfs_conv call holds no more beyond its output.
        # Without the map, 16->32 1x3 reads 13,248 bytes against a peak of 83,784, and 32->4
        # 19,520 against 85,536
        itemsize = np.dtype(dtype).itemsize
        fs = FilterSummary.random(geom, seed=65, dtype=dtype)
        fmap = FeatureMap.random(geom.c_in, d, d, seed=66, dtype=dtype)
        plan = layer_plan(geom, fs.layout, d, d).fcfs
        assert plan.blocks(itemsize) == blocks
        peaks = []
        for call in (lambda: plan.integrals(fmap, fs.weights), lambda: fcfs_conv(fs, fmap)):
            call()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        nbytes = plan.nbytes(itemsize)
        assert nbytes <= peaks[0] <= nbytes + 8 * 1024
        assert peaks[1] <= nbytes + itemsize * geom.c_out * d * d + 8 * 1024


class TestNarrowTypes:
    """Bool and int maps and summaries compute in float64, where their sums fit, and
    half floats in float32."""

    def test_half_floats_compute_in_float32(self):
        # a float16 16 -> 16 3x3 layer, its weights and map scaled by 300: the 144-product
        # sums pass float16's largest value, 65,504 (unscaled, they would still round to
        # 11 bits). In float32 every engine is within float32 rounding of the float64 result
        geom = ConvGeometry(16, 3, 3, 16, 4)
        template = FilterSummary.random(geom, seed=67)
        fs = FilterSummary(geom, template.layout, (300 * template.weights).astype(np.float16))
        fmap = FeatureMap(16, 8, 8, (300 * FeatureMap.random(16, 8, 8, seed=68).data).astype(np.float16))
        wide = naive_conv(FilterSummary(geom, fs.layout, fs.weights.astype(np.float64)),
                          FeatureMap(16, 8, 8, fmap.data.astype(np.float64))).data
        assert np.abs(wide).max() > np.finfo(np.float16).max
        for out in (naive_conv(fs, fmap), fcfs_conv(fs, fmap)[0], convolve(fs, fmap)[0],
                    convolve(fs, fmap, "naive")[0]):
            assert out.data.dtype == np.float32
            assert rel_dev(out.data, wide) <= 1e-5

    @pytest.mark.parametrize("dtype, value, sums", [
        (bool, True, (4, 2)),
        (np.int8, 100, (40_000, 20_000)),
    ], ids=["bool", "int8"])
    def test_sums_do_not_saturate_or_wrap(self, dtype, value, sums):
        # every weight and map value `value` on a 2 -> 2 1x2 layer at 2x2: the
        # first output column sums both padded columns of 2 channels, the last one
        # (its right neighbour is padding), so 4 and 2 products
        geom = ConvGeometry(2, 1, 2, 2, 1)
        fs = FilterSummary.from_weights(geom, np.full(derive_layout(geom).phys_length, value, dtype))
        fmap = FeatureMap(2, 2, 2, np.full(8, value, dtype))
        cube = np.broadcast_to(np.array(sums, float), (2, 2, 2))  # (c_out, d1, d2): by column
        for out in (naive_conv(fs, fmap), fcfs_conv(fs, fmap)[0], convolve(fs, fmap)[0],
                    convolve(fs, fmap, "naive")[0]):
            assert out.data.dtype == np.float64
            assert np.array_equal(out.as_3d(), cube)


class TestWeightAddress:
    """Both engines give a summary's bytes wherever its weights sat in memory. FSN1
    payloads load as views at odd byte offsets, and BLAS copies a misaligned operand
    its own way, into a block that may take other kernels; FilterSummary copies such
    weights once, aligned and C-ordered, and keeps weights that are both as given."""

    def test_misaligned_summary_gives_the_aligned_bytes(self):
        # in f32 and f64, with c_in and Q large enough for BLAS to pick its kernels by
        # operand layout
        rng = np.random.default_rng(70)
        for case in range(40):
            dtype = (np.float32, np.float64)[case % 2]
            fs, fmap = random_instance(rng, dtype=dtype, c_in=(8, 32), s1=(2, 4), c_out=(8, 64),
                                       d=(6, 16))
            payload = misaligned(fs.weights)
            assert not payload.flags.aligned and not payload.flags.writeable
            moved = FilterSummary(fs.geom, fs.layout, payload)
            assert moved.weights.flags.aligned and moved.weights.flags.c_contiguous
            assert moved.weights.tobytes() == fs.weights.tobytes()
            assert FilterSummary(fs.geom, fs.layout, fs.weights).weights is fs.weights
            for engine in (naive_conv, lambda *given: fcfs_conv(*given)[0]):
                assert engine(moved, fmap).data.tobytes() == engine(fs, fmap).data.tobytes(), case


class TestFcfsConv:
    def test_matches_reference_both_precisions(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            fs, fmap = random_instance(rng)
            reference = naive_conv(fs, fmap)
            fast, _ = fcfs_conv(fs, fmap)
            assert rel_dev(fast.data, reference.data) <= 1e-12
            fs32 = FilterSummary(fs.geom, fs.layout, fs.weights.astype(np.float32))
            fmap32 = FeatureMap(fmap.c_in, fmap.d1, fmap.d2, fmap.data.astype(np.float32))
            fast32, _ = fcfs_conv(fs32, fmap32)
            assert fast32.data.dtype == np.float32
            assert rel_dev(fast32.data, naive_conv(fs32, fmap32).data) <= 1e-5

    def test_center_delta_kernel_reproduces_input(self):
        geom = ConvGeometry(1, 1, 3, 1, 1)
        fs = FilterSummary.from_weights(geom, np.array([0.0, 1.0, 0.0]))
        fmap = FeatureMap.random(1, 4, 5, seed=11)
        fast, _ = fcfs_conv(fs, fmap)
        assert np.array_equal(fast.data, naive_conv(fs, fmap).data)
        assert rel_dev(fast.data, fmap.data) <= 1e-15

    def test_zero_stride_duplicates_channels(self):
        # K=8, L=8, generic stride floor(7/8)=0
        geom = ConvGeometry(4, 1, 2, 8, 8, StridePolicy.GENERIC)
        fs = FilterSummary.random(geom, seed=12)
        assert fs.layout.stride == 0
        out, _ = fcfs_conv(fs, FeatureMap.random(4, 3, 3, seed=13))
        cube = out.as_3d()
        for o in range(1, 8):
            assert np.array_equal(cube[o], cube[0])

    def test_unaligned_stride_falls_back_with_warning(self):
        # generic stride 13 with c_in=3 scatters the diagonals
        geom = ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC)
        fs = FilterSummary.random(geom, seed=14)
        fmap = FeatureMap.random(3, 4, 4, seed=15)
        assert fs.layout.stride % geom.c_in != 0
        with pytest.warns(UserWarning, match="not a multiple"):
            out, counter = fcfs_conv(fs, fmap)
        assert np.array_equal(out.data, naive_conv(fs, fmap).data)
        assert counter.multiplies == geom.c_out * 16 * geom.filter_len
        assert counter.lookups == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # convolve falls back without a warning
            quiet, report = convolve(fs, fmap)
        assert (report.engine, report.fallback) == ("naive", Fallback.UNALIGNED_STRIDE)
        assert report.fallback is layer_plan(geom, fs.layout, 4, 4).fallback
        assert report.counts == counter
        assert np.array_equal(quiet.data, out.data)

    def test_unaligned_stride_runs_the_reference_engine_itself(self, monkeypatch):
        # fcfs_conv's fallback is naive_conv, called directly: convolve is never entered
        def refuse(*args):
            raise AssertionError("fcfs_conv called convolve")

        monkeypatch.setattr(fsconv.fcfs, "convolve", refuse)
        fs = FilterSummary.random(ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), seed=14)
        fmap = FeatureMap.random(3, 4, 4, seed=15)
        with pytest.warns(UserWarning, match="not a multiple"):
            out, counter = fcfs_conv(fs, fmap)
        reference = MultCounter()
        assert out.data.tobytes() == naive_conv(fs, fmap, reference).data.tobytes()
        assert counter == reference

    def test_s2_one_runs_fcfs(self):
        # one filter column is an ordinary layer: stage 3 copies each output's
        # one window; f64 within 1e-12 and f32 within 1e-5 of the reference
        geom = ConvGeometry(2, 3, 1, 4, 2)
        fs = FilterSummary.random(geom, seed=16)
        fmap = FeatureMap.random(2, 3, 3, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, counter = fcfs_conv(fs, fmap)
        plan = layer_plan(geom, fs.layout, 3, 3).fcfs
        assert counter == MultCounter(plan.multiplies, plan.additions, plan.lookups)
        assert counter.lookups == geom.c_out * 9
        assert out.data.flags.c_contiguous and out.data.flags.writeable
        assert rel_dev(out.data, naive_conv(fs, fmap).data) <= 1e-12
        fs32 = FilterSummary(geom, fs.layout, fs.weights.astype(np.float32))
        fmap32 = FeatureMap(2, 3, 3, fmap.data.astype(np.float32))
        out32, _ = fcfs_conv(fs32, fmap32)
        assert out32.data.dtype == np.float32
        assert rel_dev(out32.data, naive_conv(fs32, fmap32).data) <= 1e-5

    @pytest.mark.parametrize("d1, d2", [(0, 3), (3, 0), (0, 0)])
    def test_empty_map_raises_typed_error(self, d1, d2):
        geom = ConvGeometry(2, 2, 2, 2, 1)
        fs = FilterSummary.random(geom, seed=18)
        fmap = FeatureMap(2, d1, d2, np.zeros(0))
        with pytest.raises(ShapeMismatchError, match="sizes must be >= 1"):
            fcfs_conv(fs, fmap)
        with pytest.raises(ShapeMismatchError):
            required_diagonals(fs, fmap)

    def test_channel_mismatch_raises(self):
        geom = ConvGeometry(2, 2, 2, 2, 1)
        fs = FilterSummary.random(geom, seed=18)
        with pytest.raises(ShapeMismatchError):
            fcfs_conv(fs, FeatureMap.random(3, 3, 3, seed=19))

    def test_input_checked_once_per_call(self, monkeypatch):
        # each call checks its input once, in the engine that runs: fcfs_conv
        # on the fast path (s2 = 1 too) and on the unaligned-stride fallback (in
        # the reference engine), and convolve where fcfs runs and where the
        # counts send it to the reference engine
        calls = []
        for module in (fsconv.fcfs, fsconv.oracle):
            real = module.check_conv_input
            monkeypatch.setattr(module, "check_conv_input",
                                lambda *a, real=real: calls.append(a) or real(*a))
        fast = FilterSummary.random(ConvGeometry(4, 3, 3, 8, 2), seed=43)
        unaligned = FilterSummary.random(ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), seed=44)
        column = FilterSummary.random(ConvGeometry(2, 3, 1, 4, 2), seed=46)
        for fs in (fast, unaligned, column):
            for _ in range(2):
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fcfs_conv(fs, FeatureMap.random(fs.geom.c_in, 5, 4, seed=45))
                assert len(calls) == 1
        loses = FilterSummary.random(ConvGeometry(1, 1, 3, 1, 1), seed=47)
        for fs, fmap, engine in [(fast, FeatureMap.random(4, 16, 16, seed=48), "fcfs"),
                                 (loses, FeatureMap.random(1, 5, 6, seed=49), "naive")]:
            for _ in range(2):  # the second call finds the plan cached
                calls.clear()
                assert convolve(fs, fmap)[1].engine == engine
                assert len(calls) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a refused map raises before any warning
            with pytest.raises(ShapeMismatchError, match="sizes must be >= 1"):
                fcfs_conv(unaligned, FeatureMap(3, 0, 4, np.zeros(0)))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(20)
        fs, fmap = random_instance(rng)
        first, counter1 = fcfs_conv(fs, fmap)
        second, counter2 = fcfs_conv(fs, fmap)
        assert np.array_equal(first.data, second.data)
        assert counter1 == counter2

    def test_multiply_count_is_minimal(self):
        # the floor: `needed` is the minimal multiply count, one product per
        # element pair some slice reads; the executed count sits on or above it
        rng = np.random.default_rng(21)
        for _ in range(15):
            fs, fmap = random_instance(rng, c_in=(1, 5), s1=(1, 3), s2=(2, 3), c_out=(1, 8), d=(1, 5))
            _, counter = fcfs_conv(fs, fmap)
            plan = layer_plan(fs.geom, fs.layout, fmap.d1, fmap.d2).fcfs
            cells = enumerate_cells(fs.geom, fs.layout, fmap.d1, fmap.d2)
            assert plan.needed == len(cells) <= counter.multiplies == plan.multiplies
            runs = required_diagonals(fs, fmap)
            assert plan.needed == sum(hi - lo for extents in runs.values() for lo, hi in extents)


class TestConvolve:
    def test_each_engine_runs_where_supported(self):
        # "fcfs" runs the fcfs arithmetic, bit for bit, exactly where its counts
        # beat the reference engine's, and the reference engine elsewhere
        rng = np.random.default_rng(27)
        picked = set()
        for _ in range(20):
            fs, fmap = random_instance(rng, s2=(1, 5))
            fast, counter = fcfs_conv(fs, fmap)
            out, report = convolve(fs, fmap)
            oracle = fs.geom.c_out * fmap.d1 * fmap.d2 * fs.geom.filter_len
            saves = counter.multiplies + counter.lookups < oracle
            picked.add(report.engine)
            if saves:
                assert (report.engine, report.fallback) == ("fcfs", None)
                assert np.array_equal(out.data, fast.data) and report.counts == counter
            else:
                assert (report.engine, report.fallback) == ("naive", Fallback.MORE_MULTIPLIES)
                assert np.array_equal(out.data, naive_conv(fs, fmap).data)
            naive_counter = MultCounter()
            reference = naive_conv(fs, fmap, naive_counter)
            out, report = convolve(fs, fmap, "naive")
            assert (report.engine, report.fallback) == ("naive", None)
            assert np.array_equal(out.data, reference.data) and report.counts == naive_counter
        assert picked == {"fcfs", "naive"}  # both sides of the rule

    @pytest.mark.parametrize("geom, d1, d2, engine", [
        (ConvGeometry(1, 1, 3, 1, 1), 5, 6, "naive"),  # 120 products + 90 lookups > 90
        (ConvGeometry(64, 3, 3, 64, 4), 16, 16, "fcfs"),  # the worked example
        (ConvGeometry(16, 3, 1, 16, 2), 8, 8, "fcfs"),  # one filter column that saves
        (ConvGeometry(4, 3, 3, 3, 2), 5, 4, "naive"),  # 2,856 + 180 > 2,160
    ], ids=["one_column_kernel", "worked_example", "s2_one_saves", "small_map_loses"])
    def test_engine_follows_exact_counts(self, geom, d1, d2, engine):
        fs = FilterSummary.random(geom, seed=52)
        fmap = FeatureMap.random(geom.c_in, d1, d2, seed=53)
        plan = layer_plan(geom, fs.layout, d1, d2).fcfs
        oracle = geom.c_out * d1 * d2 * geom.filter_len
        assert (plan.multiplies + plan.lookups < oracle) == (engine == "fcfs")
        out, report = convolve(fs, fmap)
        assert report.fallback is layer_plan(geom, fs.layout, d1, d2).fallback
        if engine == "fcfs":
            assert report == RunReport("fcfs", None, fcfs_conv(fs, fmap)[1])
            assert out.data.tobytes() == fcfs_conv(fs, fmap)[0].data.tobytes()
        else:
            assert (report.engine, report.fallback) == ("naive", Fallback.MORE_MULTIPLIES)
            assert report.counts.multiplies == oracle
            assert out.data.tobytes() == naive_conv(fs, fmap).data.tobytes()

    def test_report_is_the_rule_on_seeded_geometries(self):
        # the record's fallback is the rule, written out here on the stride and the
        # enumerated grid counts, and convolve reports exactly that, on every policy and on
        # both sides of the count boundary (the named cases: test_engine_follows_exact_counts
        # and test_unaligned_stride_falls_back_with_warning)
        rng = np.random.default_rng(56)
        seen = set()
        for _ in range(240):
            policy = list(StridePolicy)[int(rng.integers(3))]
            fs, fmap = random_instance(rng, c_in=(1, 6), s1=(1, 4), s2=(1, 4), c_out=(1, 10),
                                       d=(1, 7), policy=policy)
            geom, d1, d2 = fs.geom, fmap.d1, fmap.d2
            record = layer_plan(geom, fs.layout, d1, d2)
            if fs.layout.stride % geom.c_in:
                rule = Fallback.UNALIGNED_STRIDE
                assert record.fcfs is None
            else:
                multiplies, additions, lookups = grid_counts(geom, fs.layout, d1, d2)
                loses = multiplies + lookups >= geom.c_out * d1 * d2 * geom.filter_len
                rule = Fallback.MORE_MULTIPLIES if loses else None
                plan = record.fcfs
                assert (plan.multiplies, plan.additions, plan.lookups) == (multiplies, additions, lookups)
            assert record.fallback is rule, (geom, d1, d2)
            assert record == LayerPlan.build(geom, fs.layout, d1, d2)
            report = convolve(fs, fmap)[1]
            assert report.fallback is rule
            assert report.engine == ("fcfs" if rule is None else "naive")
            seen.add(rule)
        assert seen == {None, *Fallback}

    def test_empty_map_caches_no_plan(self):
        # a map side below 1 is refused before any record is kept, by every path, on an
        # aligned layer and on an unaligned one (stride 13, c_in 3), whose record the
        # cache keeps too
        layer_plan.cache_clear()
        for geom in (ConvGeometry(2, 2, 2, 2, 1), ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC)):
            fs, c_in = FilterSummary.random(geom, seed=57), geom.c_in
            for fmap in (FeatureMap(c_in, 0, 5, np.zeros(0)), unwrap(np.zeros((c_in, 0, 5)))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # refused before fcfs_conv would warn
                    for call in (lambda: convolve(fs, fmap), lambda: fcfs_conv(fs, fmap)):
                        with pytest.raises(ShapeMismatchError, match="sizes must be >= 1"):
                            call()
                assert layer_plan.cache_info().currsize == 0
                for call in (lambda: layer_plan(geom, fs.layout, fmap.d1, fmap.d2),
                             lambda: LayerPlan.build(geom, fs.layout, fmap.d1, fmap.d2)):
                    with pytest.raises(ShapeMismatchError, match="sizes must be >= 1"):
                        call()
        assert layer_plan.cache_info().currsize == 0

    def test_wrong_channel_map_caches_no_plan(self):
        # every path checks the map before it looks a plan up: a refused map
        # takes none of the PLAN_CACHE_SIZE slots, so it evicts no good plan
        fs = FilterSummary.random(ConvGeometry(2, 3, 3, 4, 2), seed=58)
        fmap = FeatureMap.random(3, 6, 6, seed=59)
        layer_plan.cache_clear()
        before = layer_plan.cache_info()
        for call in (lambda: convolve(fs, fmap), lambda: convolve(fs, fmap, "naive"),
                     lambda: fcfs_conv(fs, fmap)):
            with pytest.raises(ShapeMismatchError, match="has 3 channels, layer expects 2"):
                call()
        assert layer_plan.cache_info() == before

    def test_engines_build_their_maps_unchecked(self, monkeypatch):
        # on the 109-layer ResNet-110 chain, through both engines, FeatureMap's
        # checks run only for the maps the caller makes with unwrap: the padded
        # maps and outputs the engines compute are made without them
        calls = []
        checks = FeatureMap.__post_init__
        monkeypatch.setattr(FeatureMap, "__post_init__",
                            lambda self: calls.append(type(self)) or checks(self))
        x = np.random.default_rng(60).standard_normal((3, 32, 32)).astype(np.float32)
        convs = [spec for spec in read_arch(bundled_arch("resnet110")).layers
                 if isinstance(spec, ConvSpec)]
        for index, spec in enumerate(convs):
            geom = ConvGeometry(spec.c_in, spec.s1, spec.s2, spec.c_out, 4)
            fs = FilterSummary.random(geom, seed=index, dtype=np.float32)
            fmap = unwrap(x)
            reference, fast = naive_conv(fs, fmap), convolve(fs, fmap)[0]
            assert rel_dev(fast.data, reference.data) <= 1e-5
            x = reference.as_3d() / np.abs(reference.data).max()  # keeps f32 in range
            if spec.name.endswith("block01.conv1") and not spec.name.startswith("stage1"):
                x = x[:, ::2, ::2]  # 32, then 16, then 8
        assert len(convs) == 109 and calls == [FeatureMap] * 109

    def test_naive_on_s2_one_is_no_fallback(self):
        fs = FilterSummary.random(ConvGeometry(2, 3, 1, 4, 2), seed=28)
        _, report = convolve(fs, FeatureMap.random(2, 3, 3, seed=29), "naive")
        assert (report.engine, report.fallback) == ("naive", None)

    @pytest.mark.parametrize("engine", ["naive", "fcfs"])
    @pytest.mark.parametrize("geom", [ConvGeometry(2, 2, 2, 2, 1), ConvGeometry(2, 3, 1, 4, 2)])
    def test_empty_map_refused_by_both_engines(self, engine, geom):
        fs = FilterSummary.random(geom, seed=30)
        with pytest.raises(ShapeMismatchError, match="sizes must be >= 1"):
            convolve(fs, FeatureMap(2, 3, 0, np.zeros(0)), engine)

    def test_an_output_is_the_next_layers_input(self):
        # a conv output is a FeatureMap with c_in = c_out: either engine's
        # output feeds the other engine with no rebuild
        first = FilterSummary.random(ConvGeometry(3, 3, 3, 4, 2), seed=48)
        second = FilterSummary.random(ConvGeometry(4, 3, 2, 5, 2), seed=49)
        fmap = FeatureMap.random(3, 5, 6, seed=50)
        hidden = naive_conv(first, fmap)
        reference = naive_conv(second, FeatureMap(hidden.c_out, hidden.d1, hidden.d2, hidden.data))
        fast_hidden, _ = fcfs_conv(first, fmap)
        assert isinstance(fast_hidden, FeatureMap) and fast_hidden.c_in == fast_hidden.c_out == 4
        for out in (naive_conv(second, fast_hidden), convolve(second, hidden)[0]):
            assert (out.c_out, out.d1, out.d2) == (5, 5, 6)
            assert rel_dev(out.data, reference.data) <= 1e-12

    def test_unknown_engine_refused(self):
        fs = FilterSummary.random(ConvGeometry(2, 2, 2, 2, 1), seed=31)
        with pytest.raises(InvalidArgumentError, match="engine"):
            convolve(fs, FeatureMap.random(2, 3, 3, seed=32), "both")


class TestPlanCache:
    def test_layout_other_than_derived_matches_oracle(self):
        # a summary may carry any layout; the plan must follow its stride
        geom = ConvGeometry(4, 3, 3, 8, 2)
        derived = FilterSummary.random(geom, seed=30)
        layout = derived.layout
        other = Layout(layout.length, layout.stride - geom.c_in, layout.slices, layout.phys_length)
        fs = FilterSummary(geom, other, derived.weights)
        fmap = FeatureMap.random(4, 6, 5, seed=31)
        out, _ = fcfs_conv(derived, fmap)  # caches the derived layout's plan first
        fast, _ = fcfs_conv(fs, fmap)
        assert rel_dev(fast.data, naive_conv(fs, fmap).data) <= 1e-12
        assert not np.array_equal(fast.data, out.data)
        assert layer_plan(geom, other, 6, 5).fcfs is not layer_plan(geom, layout, 6, 5).fcfs

    def test_repeated_key_reuses_plan_bit_identical_to_cold_build(self):
        rng = np.random.default_rng(32)
        fs, fmap = random_instance(rng)
        key = (fs.geom, fs.layout, fmap.d1, fmap.d2)
        layer_plan.cache_clear()
        cold, cold_counter = fcfs_conv(fs, fmap)
        assert layer_plan.cache_info().misses == 1
        warm, warm_counter = fcfs_conv(fs, fmap)
        info = layer_plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert layer_plan(*key).fcfs is layer_plan(*key).fcfs
        assert warm.data.tobytes() == cold.data.tobytes()
        assert warm_counter == cold_counter
        fresh = LayerPlan.build(*key).fcfs
        cached = layer_plan(*key).fcfs
        assert fresh == cached and fresh is not cached
        # the plan holds plain numbers and tuples, nothing a caller could mutate
        assert all(isinstance(getattr(cached, f.name), (int, tuple)) for f in fields(cached))
        assert fresh.nbytes(8) == cached.nbytes(8) > 0
        table = build_integrals(fs, fmap)
        with pytest.raises(ValueError):
            cached.view(table)[0] = 0

    def test_warm_lookup_hashes_no_fraction(self, monkeypatch):
        # the geometry's hash is stored and Layout.slices is not part of the
        # layout's, so a hit runs no Python-level Fraction.__hash__
        geom = ConvGeometry(4, 3, 3, 8, Fraction(7, 2))
        layout = derive_layout(geom)
        plan = layer_plan(geom, layout, 6, 5).fcfs
        hits = layer_plan.cache_info().hits

        def refuse(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", refuse)
        assert layer_plan(geom, layout, 6, 5).fcfs is plan
        assert layer_plan.cache_info().hits == hits + 1

    @pytest.mark.parametrize("geom, fallback", [
        (ConvGeometry(4, 3, 3, 8, 4), None),  # at 5x4: 3,864 products + 480 lookups < 5,760
        (ConvGeometry(4, 3, 3, 3, 2), Fallback.MORE_MULTIPLIES),  # 2,856 + 180 >= 2,160
        (ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), Fallback.UNALIGNED_STRIDE),
    ], ids=["fcfs", "more_multiplies", "unaligned_stride"])
    def test_one_record_lookup_per_call(self, geom, fallback):
        # convolve looks the layer's record up exactly once per call, cold or warm, on
        # both sides of the rule, with either engine: "naive" runs the record's LoweredPlan
        fs = FilterSummary.random(geom, seed=61)
        fmap = FeatureMap.random(geom.c_in, 5, 4, seed=62)
        layer_plan.cache_clear()
        for engine, lookups in [("fcfs", 1), ("fcfs", 1), ("naive", 1), ("fcfs", 1), ("naive", 1)]:
            before = layer_plan.cache_info()
            report = convolve(fs, fmap, engine)[1]
            after = layer_plan.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + lookups, engine
            assert report.fallback is (fallback if engine == "fcfs" else None)
        before = layer_plan.cache_info()
        naive_conv(fs, fmap)
        assert layer_plan.cache_info().hits == before.hits + 1
        assert layer_plan.cache_info().misses == 1

    def test_cache_size_stays_bounded(self):
        geom = ConvGeometry(1, 1, 2, 2, 1)
        fs = FilterSummary.random(geom, seed=33)
        layer_plan.cache_clear()
        for d2 in range(1, PLAN_CACHE_SIZE + 6):
            fcfs_conv(fs, FeatureMap.random(1, 2, d2, seed=d2))
        info = layer_plan.cache_info()
        assert info.maxsize == PLAN_CACHE_SIZE
        assert info.currsize == PLAN_CACHE_SIZE
        assert info.misses == PLAN_CACHE_SIZE + 5

    def test_f32_and_f64_share_one_plan(self):
        rng = np.random.default_rng(34)
        fs, fmap = random_instance(rng)
        fs32 = FilterSummary(fs.geom, fs.layout, fs.weights.astype(np.float32))
        fmap32 = FeatureMap(fmap.c_in, fmap.d1, fmap.d2, fmap.data.astype(np.float32))
        layer_plan.cache_clear()
        out64, counter64 = fcfs_conv(fs, fmap)
        out32, counter32 = fcfs_conv(fs32, fmap32)
        info = layer_plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert (out64.data.dtype, out32.data.dtype) == (np.float64, np.float32)
        assert counter64 == counter32


class TestMeasuredAcceleration:
    def test_worked_example_16x16(self):
        geom = ConvGeometry(64, 3, 3, 64, 4, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=22)
        fmap = FeatureMap.random(64, 16, 16, seed=23)
        report = measured_acceleration(fs, fmap)
        assert report.naive.multiplies == 9_437_184
        assert report.predicted.fcfs_mults == 835_584
        assert report.measured_ratio >= Fraction(8, 10) * 4
        # the closed form undercounts stage 1, so measured stays below it
        assert report.measured_ratio < report.predicted.ratio

    def test_single_filter_column_kernel_exact_half(self):
        # K = s2: no sharing at all. The closed form is exactly 1/2; the grid
        # computes all P*Q = (5*8)*3 cell products for the 90 lookups, 3/7
        geom = ConvGeometry(1, 1, 3, 1, 1)
        fs = FilterSummary.random(geom, seed=24)
        report = measured_acceleration(fs, FeatureMap.random(1, 5, 6, seed=25))
        assert (report.naive.multiplies, report.fcfs.multiplies, report.fcfs.lookups) == (90, 120, 90)
        assert report.measured_ratio == Fraction(3, 7)
        assert report.predicted.ratio == Fraction(1, 2)

    def test_sweep_reaches_point_eight_of_ratio(self):
        # Regime where the sharing multiplicity dominates the border losses:
        # K >= 50*s2 with two-digit filter counts and spatial extents, the
        # territory the closed-form account describes.
        rng = np.random.default_rng(26)
        for _ in range(6):
            s1 = int(rng.integers(2, 4))
            s2 = int(rng.integers(2, 4))
            c_in = int(rng.integers(-(-50 // s1), 40))
            c_out = int(rng.integers(24, 49))
            ratio = int(rng.integers(2, 6))
            d = int(rng.integers(24, 33))
            geom = ConvGeometry(c_in, s1, s2, c_out, ratio)
            assert geom.filter_len >= 50 * s2
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            fmap = FeatureMap.random(c_in, d, d, seed=int(rng.integers(2**31)))
            report = measured_acceleration(fs, fmap)
            assert report.measured_ratio >= Fraction(8, 10) * ratio


REGIMES = {  # the corners the fixed sweeps miss
    "c_in=1": lambda geom, d1, d2: geom.c_in == 1,
    "s1=1": lambda geom, d1, d2: geom.s1 == 1,
    "ratio=1": lambda geom, d1, d2: geom.ratio == 1,
    "1xN map": lambda geom, d1, d2: d1 == 1 and d2 > 1,
    "Nx1 map": lambda geom, d1, d2: d2 == 1 and d1 > 1,
    "ratio>=9": lambda geom, d1, d2: geom.ratio >= 9,
    "s2=1": lambda geom, d1, d2: geom.s2 == 1,
}


@st.composite
def engine_cases(draw):
    """Layer sizes, a ratio that leaves at least one filter (1 <= ratio <= c_out), a map."""
    c_in, s1, s2, c_out = (draw(st.integers(1, top)) for top in (8, 4, 12, 20))
    ratio = Fraction(draw(st.integers(4, 4 * c_out)), 4)
    return (c_in, s1, s2, c_out, ratio), draw(st.integers(1, 7)), draw(st.integers(1, 7))


class TestEngineProperty:
    def test_fcfs_matches_oracle_and_only_stride_zero_coincides(self):
        """Under every policy, in f64 and f32: the fcfs arithmetic (fcfs_conv, whatever the
        counts; s2 = 1 too) equals the oracle to the acceptance tolerances on every aligned
        stride, where an unaligned one runs the oracle, each output of both engines is
        within its own rounding bound, and two filters of a layout are the same weights
        exactly when ConvGeometry.filters_coincide says so: at stride 0 with c_out > 1."""
        reached = set()

        @settings(derandomize=True, database=None, max_examples=150, deadline=None)
        @given(engine_cases())
        @example(((1, 1, 12, 12, Fraction(9)), 3, 5))  # slice stride > 0 at ratio >= 9 needs s2 > ratio
        def check(case):
            sizes, d1, d2 = case
            for policy, dtype in itertools.product(StridePolicy, (np.float64, np.float32)):
                geom = ConvGeometry(*sizes, policy)
                layout = derive_layout(geom)
                reached.update((name, policy) for name, holds in REGIMES.items()
                               if holds(geom, d1, d2))
                fs = FilterSummary.random(geom, seed=d1, dtype=dtype)
                fmap = FeatureMap.random(geom.c_in, d1, d2, seed=d2, dtype=dtype)
                aligned = layer_plan(geom, layout, d1, d2).fallback is not Fallback.UNALIGNED_STRIDE
                engine = fcfs_conv if aligned else convolve  # convolve: the reference engine
                out = engine(fs, fmap)[0]
                reference = naive_conv(fs, fmap)
                tolerance = 1e-12 if dtype is np.float64 else 1e-5  # the acceptance tolerances
                assert rel_dev(out.data, reference.data) <= tolerance, (geom, d1, d2)
                # each output within its own bound, also with the first map columns 2^-40 as
                # large, where an error is far below what rel_dev sees; where long double is
                # double, only small shapes, which an exact Fraction reference can afford
                small = reference.data.size * geom.filter_len <= 20_000
                if LONGDOUBLE_IS_WIDER or dtype is np.float32 or small:
                    depth = geom.filter_len  # the oracle's: one product and K - 1 adds
                    if aligned:  # c_in - 1 adds per cell, s1 - 1 per window, s2 - 1
                        depth = geom.c_in + geom.s1 + geom.s2 - 2
                    columns = fmap.data.reshape(d2, -1).copy()
                    columns[: d2 // 2] *= 2.0**-40
                    for x in (fmap, FeatureMap(geom.c_in, d1, d2, columns.ravel())):
                        fast, oracle = engine(fs, x)[0].data, naive_conv(fs, x).data
                        assert rounding_excess(fast, fs, x, depth).max() <= 1, (geom, d1, d2)
                        assert rounding_excess(oracle, fs, x, geom.filter_len).max() <= 1
                filters = {extract_filter(fs, i).tobytes() for i in range(geom.c_out)}
                assert (len(filters) < geom.c_out) == geom.filters_coincide(layout.stride)

        check()
        assert reached == set(itertools.product(REGIMES, StridePolicy))

    def test_exact_reference_on_small_shapes(self, monkeypatch):
        # the Fraction reference, which the f64 bound uses where long double is
        # no wider than double: the long double reference is within gamma_K of
        # it, and both engines are within their bounds against it
        rng = np.random.default_rng(51)
        for _ in range(4):
            fs, fmap = random_instance(rng, c_in=(1, 3), s1=(1, 3), s2=(2, 3), c_out=(1, 4), d=(1, 4))
            geom = fs.geom
            exact, _ = wide_conv(fs, fmap, object)
            long, magnitude = wide_conv(fs, fmap, np.longdouble)
            u = np.finfo(np.longdouble).eps / 2
            for value, reference, scale in zip(long, exact, magnitude):
                error = abs(Fraction(*value.as_integer_ratio()) - reference)
                assert error <= Fraction(*(gamma(geom.filter_len, u) * scale).as_integer_ratio())
            fast, naive = fcfs_conv(fs, fmap)[0].data, naive_conv(fs, fmap).data
            monkeypatch.setattr(helpers, "LONGDOUBLE_IS_WIDER", False)
            assert rounding_excess(fast, fs, fmap, geom.c_in + geom.s1 + geom.s2 - 2).max() <= 1
            assert rounding_excess(naive, fs, fmap, geom.filter_len).max() <= 1
            monkeypatch.undo()
