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
    FcfsPlan,
    FeatureMap,
    FilterSummary,
    Fallback,
    Layout,
    MultCounter,
    StridePolicy,
    build_integrals,
    convolve,
    derive_layout,
    extract_filter,
    fcfs_conv,
    fcfs_fallback,
    fcfs_plan,
    measured_acceleration,
    naive_conv,
    pad_same,
    rel_dev,
    required_diagonals,
)
from fsconv.errors import (
    DegenerateStrideError,
    InvalidArgumentError,
    ShapeMismatchError,
    UnsupportedGeometryError,
)
from fsconv.fcfs import PLAN_CACHE_SIZE

import helpers
from helpers import (
    LONGDOUBLE_IS_WIDER,
    gamma,
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
            planned = fcfs_plan(geom, fs.layout, d1, d2)
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

    def test_s2_one_unsupported(self):
        geom = ConvGeometry(2, 3, 1, 4, 2)
        fs = FilterSummary.random(geom, seed=6)
        with pytest.raises(UnsupportedGeometryError):
            required_diagonals(fs, FeatureMap.random(2, 3, 3, seed=7))


class TestPlanGuard:
    """FcfsPlan.build refuses every layer fcfs_fallback refuses, so no stage
    of the engine is planned for a layer the engine does not run."""

    @pytest.mark.parametrize("geom, reason", [
        (ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), "unaligned_stride"),  # stride 13
        (ConvGeometry(2, 3, 1, 4, 2), "s2_is_1"),
    ])
    def test_refused_layer_has_no_plan(self, geom, reason):
        fs = FilterSummary.random(geom, seed=47)
        fmap = FeatureMap.random(geom.c_in, 4, 4, seed=48)
        assert fcfs_fallback(geom, fs.layout).value == reason
        calls = (lambda: FcfsPlan.build(geom, fs.layout, 4, 4),
                 lambda: fcfs_plan(geom, fs.layout, 4, 4),
                 lambda: required_diagonals(fs, fmap),
                 lambda: build_integrals(fs, fmap))
        for call in calls:
            with pytest.raises(UnsupportedGeometryError, match=reason):
                call()


class TestStageTwo:
    @pytest.mark.parametrize("s1", range(1, 13))
    def test_windows_by_doubling(self, s1):
        # on symbolic entries: window j sums exactly G's entries j + t*(Q+1),
        # t < s1, added in that order, and the adds that run are s1-1 per
        # window, the plan's stage-2 count
        geom = ConvGeometry(2, s1, 2, 3, 2)
        plan = FcfsPlan.build(geom, derive_layout(geom), 3, 2)
        grid = np.empty(plan.cells * plan.summary, object)
        grid[:] = [Term(j) for j in range(grid.size)]
        Term.adds = 0
        windows = plan.window_sums(grid)
        step = plan.summary + 1
        assert plan.windows == plan.cells * plan.summary - (s1 - 1) * step
        assert [w.indices for w in windows] == [
            tuple(j + t * step for t in range(s1)) for j in range(plan.windows)]
        outputs = geom.c_out * 3 * 2
        stage2 = plan.additions - (geom.c_in - 1) * grid.size - (geom.s2 - 1) * outputs
        assert Term.adds == stage2 == (s1 - 1) * plan.windows


class TestPlanFloor:
    def test_floor_computed_on_first_read(self):
        rng = np.random.default_rng(46)
        for _ in range(15):
            fs, fmap = random_instance(rng, c_in=(1, 5), s1=(1, 3), s2=(2, 3), c_out=(1, 8), d=(1, 5))
            plan = FcfsPlan.build(fs.geom, fs.layout, fmap.d1, fmap.d2)
            assert "needed" not in vars(plan)
            assert plan.needed == len(enumerate_cells(fs.geom, fs.layout, fmap.d1, fmap.d2))
            assert "needed" in vars(plan)
            assert plan == FcfsPlan.build(fs.geom, fs.layout, fmap.d1, fmap.d2)

    def test_build_allocates_no_read_mask(self):
        # 16->32 at 32x32: the (P, Q) bool read mask is 1156 x 71 bytes,
        # which only the first read of `needed` allocates
        geom = ConvGeometry(16, 3, 3, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        layout = derive_layout(geom)
        tracemalloc.start()
        try:
            plan = FcfsPlan.build(geom, layout, 32, 32)
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
        plan = fcfs_plan(geom, fs.layout, 1, 2)
        assert np.array_equal(plan.products(fmap, fs.weights), [3, 6, 4, 8, 0, 0])
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        assert np.array_equal(table, [3, 6, 4, 8, 0, 0])
        assert (plan.cells, plan.summary, plan.window, plan.windows) == (3, 2, 1, 6)
        # the whole 3 x 2 grid: 6 products; no cell or window additions
        # (c_in = s1 = 1), 4 lookups and 2 slice additions; 4 products read
        assert (plan.multiplies, plan.additions, plan.lookups, plan.needed) == (6, 2, 4, 4)
        assert (plan.shape, plan.strides) == ((2, 2, 1, 1), (3, 2, 2, 1))
        assert plan.nbytes(8) == 8 * 6  # G, which is also the windows
        windows = plan.view(table)
        assert np.array_equal(windows.ravel(), [3.0, 4.0, 8.0, 0.0])  # (k, n) order
        assert np.array_equal(fcfs_conv(fs, fmap)[0].data, [11.0, 4.0])

    def test_zero_summary_zero_integrals(self):
        geom = ConvGeometry(2, 2, 2, 3, 2)
        template = FilterSummary.random(geom, seed=8)
        fs = FilterSummary(geom, template.layout, np.zeros_like(template.weights))
        fmap = FeatureMap.random(2, 3, 3, seed=8)
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        plan = fcfs_plan(geom, fs.layout, 3, 3)
        assert table.size == plan.windows == (plan.cells - 1) * plan.summary - 1 > 0
        assert not table.any()

    def test_windows_match_direct_dot(self):
        # every entry of G against its cell dot product, every window against
        # the literal sum of its s1 diagonal products, within 1e-12 in f64
        rng = np.random.default_rng(9)
        for _ in range(10):
            fs, fmap = random_instance(rng, c_in=(1, 6), c_out=(1, 8), d=(2, 6))
            plan = fcfs_plan(fs.geom, fs.layout, fmap.d1, fmap.d2)
            direct = literal_products(fs, fmap, plan)
            products = plan.products(fmap, fs.weights)
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
    def test_windows_by_doubling_are_slice_dots(self, case):
        # each window the stage-3 view reads is its slice pair's direct dot
        # product, every window the literal sum of its diagonal, and repeated
        # calls give the same bytes
        (c_in, s1, s2, c_out, ratio), d1, d2 = case
        geom = ConvGeometry(c_in, s1, s2, c_out, ratio)
        fs = FilterSummary.random(geom, seed=49)
        fmap = FeatureMap.random(c_in, d1, d2, seed=50)
        plan = FcfsPlan.build(geom, fs.layout, d1, d2)
        table = plan.window_sums(plan.products(fmap, fs.weights))
        assert_windows_are_slice_dots(fs, fmap, plan, table)
        grid, step = literal_products(fs, fmap, plan), plan.summary + 1
        literal = sum(grid[t * step : t * step + plan.windows] for t in range(s1))
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
            assert fcfs_fallback(geom, fs.layout) is None
            fmap = FeatureMap.random(geom.c_in, d1, d2, seed=int(rng.integers(2**31)))
            plan = fcfs_plan(geom, fs.layout, d1, d2)
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

    def test_view_refuses_an_array_it_leaves(self):
        geom = ConvGeometry(2, 3, 3, 4, 2)
        fs = FilterSummary.random(geom, seed=43)
        table = build_integrals(fs, FeatureMap.random(2, 4, 5, seed=44))
        plan = fcfs_plan(geom, fs.layout, 4, 5)
        assert plan.view(table).shape == (3, 5, 4, 4)
        with pytest.raises(ValueError):
            plan.view(table[:-1])  # too short
        with pytest.raises(ValueError):
            plan.view(table[::2])  # not contiguous

    @pytest.mark.parametrize("s1, cells, summary", [(3, 1156, 71), (5, 1296, 211), (7, 1444, 421)],
                             ids=["s1=3", "s1=5", "s1=7"])
    def test_warm_call_allocates_products_and_windows(self, s1, cells, summary):
        # one f32 16->32 s1 x s1 layer at 32x32: P = (31+s1)^2 padded cells,
        # Q = 31*shift + s1^2 summary cells, and (P-s1+1)*Q - s1 + 1 windows in
        # one array. Stages 1 and 2 hold exactly nbytes of numpy data, and that
        # is the peak of the call: the padded map (at most 92,416 bytes) goes
        # before stage 2 and the output (131,072) comes after G goes, both
        # smaller than the windows. A second stage-2 table, a map kept past
        # stage 1, a gathered index or a slice-sum temporary (393,216 bytes at
        # s1 = 3) would push a peak past its bound.
        geom = ConvGeometry(16, s1, s1, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=41, dtype=np.float32)
        fmap = FeatureMap.random(16, 32, 32, seed=42, dtype=np.float32)
        convolve(fs, fmap)  # plans the layer
        plan = fcfs_plan(geom, fs.layout, 32, 32)
        windows = (cells - s1 + 1) * summary - s1 + 1
        assert (plan.cells, plan.summary, plan.windows) == (cells, summary, windows)
        work_bytes = plan.nbytes(4)
        assert work_bytes == 4 * (cells * summary + windows)
        numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        tracemalloc.start()
        try:
            products = plan.products(fmap, fs.weights)
            table = plan.window_sums(products)
            fill_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.take_snapshot().filter_traces([numpy_data])
            del products, table
            tracemalloc.reset_peak()
            out, _ = convolve(fs, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(stat.size for stat in held.statistics("filename")) == work_bytes
        assert out.data.dtype == np.float32
        assert fill_peak <= work_bytes + 64 * 1024
        assert peak <= work_bytes + 64 * 1024


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
        assert report.counts == counter
        assert np.array_equal(quiet.data, out.data)

    def test_s2_one_raises(self):
        geom = ConvGeometry(2, 3, 1, 4, 2)
        fs = FilterSummary.random(geom, seed=16)
        fmap = FeatureMap.random(2, 3, 3, seed=17)
        with pytest.raises(UnsupportedGeometryError):
            fcfs_conv(fs, fmap)
        out, report = convolve(fs, fmap)
        assert (report.engine, report.fallback) == ("naive", Fallback.S2_IS_1)
        assert report.counts.multiplies == geom.c_out * 9 * geom.filter_len
        assert np.array_equal(out.data, naive_conv(fs, fmap).data)

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
        # fcfs_conv leaves the check to the engine that runs: the fast path
        # checks its input once, the unaligned-stride fallback once (in the
        # reference engine), and an s2 == 1 layer raises before any check
        calls = []
        for module in (fsconv.fcfs, fsconv.oracle):
            real = module.check_conv_input
            monkeypatch.setattr(module, "check_conv_input",
                                lambda *a, real=real: calls.append(a) or real(*a))
        fast = FilterSummary.random(ConvGeometry(4, 3, 3, 8, 2), seed=43)
        unaligned = FilterSummary.random(ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), seed=44)
        for fs in (fast, unaligned):
            for _ in range(2):
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fcfs_conv(fs, FeatureMap.random(fs.geom.c_in, 5, 4, seed=45))
                assert len(calls) == 1
        calls.clear()
        with pytest.raises(UnsupportedGeometryError):
            fcfs_conv(FilterSummary.random(ConvGeometry(2, 3, 1, 4, 2), seed=46),
                      FeatureMap.random(2, 3, 3, seed=47))
        assert calls == []
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
            plan = fcfs_plan(fs.geom, fs.layout, fmap.d1, fmap.d2)
            cells = enumerate_cells(fs.geom, fs.layout, fmap.d1, fmap.d2)
            assert plan.needed == len(cells) <= counter.multiplies == plan.multiplies
            runs = required_diagonals(fs, fmap)
            assert plan.needed == sum(hi - lo for extents in runs.values() for lo, hi in extents)


class TestConvolve:
    def test_each_engine_runs_where_supported(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            fs, fmap = random_instance(rng)
            fast, counter = fcfs_conv(fs, fmap)
            out, report = convolve(fs, fmap)
            assert (report.engine, report.fallback) == ("fcfs", None)
            assert np.array_equal(out.data, fast.data) and report.counts == counter
            naive_counter = MultCounter()
            reference = naive_conv(fs, fmap, naive_counter)
            out, report = convolve(fs, fmap, "naive")
            assert (report.engine, report.fallback) == ("naive", None)
            assert np.array_equal(out.data, reference.data) and report.counts == naive_counter

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
        fast_hidden, _ = convolve(first, fmap)
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
        assert fcfs_plan(geom, other, 6, 5) is not fcfs_plan(geom, layout, 6, 5)

    def test_repeated_key_reuses_plan_bit_identical_to_cold_build(self):
        rng = np.random.default_rng(32)
        fs, fmap = random_instance(rng)
        key = (fs.geom, fs.layout, fmap.d1, fmap.d2)
        fcfs_plan.cache_clear()
        cold, cold_counter = fcfs_conv(fs, fmap)
        assert fcfs_plan.cache_info().misses == 1
        warm, warm_counter = fcfs_conv(fs, fmap)
        info = fcfs_plan.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert fcfs_plan(*key) is fcfs_plan(*key)
        assert warm.data.tobytes() == cold.data.tobytes()
        assert warm_counter == cold_counter
        fresh = FcfsPlan.build(*key)
        cached = fcfs_plan(*key)
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
        plan = fcfs_plan(geom, layout, 6, 5)
        hits = fcfs_plan.cache_info().hits

        def refuse(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", refuse)
        assert fcfs_plan(geom, layout, 6, 5) is plan
        assert fcfs_plan.cache_info().hits == hits + 1

    def test_cache_size_stays_bounded(self):
        geom = ConvGeometry(1, 1, 2, 2, 1)
        fs = FilterSummary.random(geom, seed=33)
        fcfs_plan.cache_clear()
        for d2 in range(1, PLAN_CACHE_SIZE + 6):
            fcfs_conv(fs, FeatureMap.random(1, 2, d2, seed=d2))
        info = fcfs_plan.cache_info()
        assert info.maxsize == PLAN_CACHE_SIZE
        assert info.currsize == PLAN_CACHE_SIZE
        assert info.misses == PLAN_CACHE_SIZE + 5

    def test_f32_and_f64_share_one_plan(self):
        rng = np.random.default_rng(34)
        fs, fmap = random_instance(rng)
        fs32 = FilterSummary(fs.geom, fs.layout, fs.weights.astype(np.float32))
        fmap32 = FeatureMap(fmap.c_in, fmap.d1, fmap.d2, fmap.data.astype(np.float32))
        fcfs_plan.cache_clear()
        out64, counter64 = fcfs_conv(fs, fmap)
        out32, counter32 = fcfs_conv(fs32, fmap32)
        info = fcfs_plan.cache_info()
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
}


@st.composite
def engine_cases(draw):
    """Layer sizes, a ratio that leaves at least one filter (1 <= ratio <= c_out), a map."""
    c_in, s1, s2, c_out = (draw(st.integers(1, top)) for top in (8, 4, 12, 20))
    ratio = Fraction(draw(st.integers(4, 4 * c_out)), 4)
    return (c_in, s1, s2, c_out, ratio), draw(st.integers(1, 7)), draw(st.integers(1, 7))


class TestEngineProperty:
    def test_fcfs_matches_oracle_and_only_stride_zero_coincides(self):
        """Under every policy, in f64 and f32: fcfs (or its fallback) equals the oracle to
        the acceptance tolerances, each output of both engines is within its own rounding
        bound, and two filters of a layout are the same weights only at stride 0 with
        c_out > 1, a layout the slice policy refuses."""
        reached = set()

        @settings(derandomize=True, database=None, max_examples=150, deadline=None)
        @given(engine_cases())
        @example(((1, 1, 12, 12, Fraction(9)), 3, 5))  # slice at ratio >= 9 needs s2 > ratio
        def check(case):
            sizes, d1, d2 = case
            for policy, dtype in itertools.product(StridePolicy, (np.float64, np.float32)):
                geom = ConvGeometry(*sizes, policy)
                try:
                    layout = derive_layout(geom)
                except DegenerateStrideError:
                    assert policy is StridePolicy.SLICE_ALIGNED
                    continue
                reached.update((name, policy) for name, holds in REGIMES.items()
                               if holds(geom, d1, d2))
                fs = FilterSummary.random(geom, seed=d1, dtype=dtype)
                fmap = FeatureMap.random(geom.c_in, d1, d2, seed=d2, dtype=dtype)
                out, report = convolve(fs, fmap)  # fcfs, or the reference engine on a fallback
                reference = naive_conv(fs, fmap)
                tolerance = 1e-12 if dtype is np.float64 else 1e-5  # the acceptance tolerances
                assert rel_dev(out.data, reference.data) <= tolerance, (geom, d1, d2)
                # each output within its own bound, also with the first map columns 2^-40 as
                # large, where an error is far below what rel_dev sees; where long double is
                # double, only small shapes, which an exact Fraction reference can afford
                small = reference.data.size * geom.filter_len <= 20_000
                if LONGDOUBLE_IS_WIDER or dtype is np.float32 or small:
                    depth = geom.filter_len  # the oracle's: one product and K - 1 adds
                    if report.engine == "fcfs":  # c_in - 1 adds per cell, s1 - 1 per window, s2 - 1
                        depth = geom.c_in + geom.s1 + geom.s2 - 2
                    columns = fmap.data.reshape(d2, -1).copy()
                    columns[: d2 // 2] *= 2.0**-40
                    for x in (fmap, FeatureMap(geom.c_in, d1, d2, columns.ravel())):
                        fast, oracle = convolve(fs, x)[0].data, naive_conv(fs, x).data
                        assert rounding_excess(fast, fs, x, depth).max() <= 1, (geom, d1, d2)
                        assert rounding_excess(oracle, fs, x, geom.filter_len).max() <= 1
                filters = {extract_filter(fs, i).tobytes() for i in range(geom.c_out)}
                assert (len(filters) < geom.c_out) == (layout.stride == 0 and geom.c_out > 1)

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
            fast, naive = convolve(fs, fmap)[0].data, naive_conv(fs, fmap).data
            monkeypatch.setattr(helpers, "LONGDOUBLE_IS_WIDER", False)
            assert rounding_excess(fast, fs, fmap, geom.c_in + geom.s1 + geom.s2 - 2).max() <= 1
            assert rounding_excess(naive, fs, fmap, geom.filter_len).max() <= 1
            monkeypatch.undo()
