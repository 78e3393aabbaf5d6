"""The diagonal integral-line engine against the brute-force reference.

The enumeration oracles below re-derive, with plain loops and none of the
engine's vectorization, every (diagonal offset, column) element product a
convolution reads, and every channel-cell product stage 1 computes. The
plan's needed set and floor must match the first exactly, its executed
counts the second.
"""

import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import fsconv.fcfs
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
    fcfs_conv,
    fcfs_fallback,
    fcfs_plan,
    measured_acceleration,
    naive_conv,
    pad_same,
    rel_dev,
    required_diagonals,
)
from fsconv.errors import InvalidArgumentError, ShapeMismatchError, UnsupportedGeometryError
from fsconv.fcfs import PLAN_CACHE_SIZE

from helpers import random_fast_geometry, random_instance


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


def enumerate_banded(geom, layout, d1, d2):
    """Oracle: the (padded cell, summary cell) products stage 1 computes.
    Every padded cell of map column j meets every summary cell from the
    first to the last one a slice at column j reads."""
    banded = set()
    p1 = d1 + geom.s1 - 1
    for j in range(d2 + geom.s2 - 1):
        read = set()
        for i in range(geom.c_out):
            for k in range(geom.s2):
                if 0 <= j - k < d2:
                    for t in range(geom.s1):
                        read.add((i * layout.stride + k * geom.slice_len) // geom.c_in + t)
        for row in range(p1):
            for q in range(min(read), max(read) + 1):
                banded.add((j * p1 + row, q))
    return banded


def banded_counts(geom, banded, d1, d2):
    """Oracle: (multiplies, additions, lookups) of one execution. A cell
    product is c_in multiplies and c_in-1 additions; each diagonal's prefix
    sum adds every computed cell after its first; stage 3 subtracts once
    per slice pair and adds s2-1 slices per output."""
    diagonals = len({r - q for r, q in banded})
    lookups = geom.s2 * geom.c_out * d1 * d2
    additions = (
        geom.c_in * len(banded) - diagonals + lookups + (geom.s2 - 1) * geom.c_out * d1 * d2
    )
    return geom.c_in * len(banded), additions, lookups


def bands_by_column(geom, layout, d1, d2):
    """Oracle: stage 1's bands, one map column at a time. Column j's padded
    cells meet the summary cells from the first to the last one its slices
    read; runs of columns with equal summary ranges form one band."""
    p1, bands = d1 + geom.s1 - 1, []
    for j in range(d2 + geom.s2 - 1):
        read = [(i * layout.stride + k * geom.slice_len) // geom.c_in + t
                for i in range(geom.c_out) for k in range(geom.s2) if 0 <= j - k < d2
                for t in range(geom.s1)]
        q0, q1 = min(read), max(read) + 1
        if bands and bands[-1][2:] == (q0, q1):
            bands[-1] = (bands[-1][0], (j + 1) * p1, q0, q1)
        else:
            bands.append((j * p1, (j + 1) * p1, q0, q1))
    return tuple(bands)


def slice_starts(fs, shape, d1):
    """Padded-map and summary element start of every slice pair, in the
    plan's (s2, d2, d1, c_out) order."""
    geom = fs.geom
    k, n, m, i = np.indices(shape)
    a = (n + k) * geom.c_in * (d1 + geom.s1 - 1) + m * geom.c_in
    b = i * fs.layout.stride + k * geom.slice_len
    return a.ravel(), b.ravel()


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
            banded = enumerate_banded(geom, fs.layout, d1, d2)
            assert counts == banded_counts(geom, banded, d1, d2)
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


class TestBands:
    @pytest.mark.parametrize("s2", range(2, 6))
    def test_bands_equal_column_by_column_derivation(self, s2):
        # d2 from 1 to 8 covers d2 < s2 - 1, where no column reads all s2 slices;
        # ratio = c_out with c_in = 1 gives filter strides 0 and 1
        geoms = (ConvGeometry(1, 1, s2, 3, 1), ConvGeometry(3, 2, s2, 5, 2),
                 ConvGeometry(1, 2, s2, 6, 6), ConvGeometry(4, 3, s2, 4, 3))
        for geom in geoms:
            layout = derive_layout(geom)
            assert fcfs_fallback(geom, layout) is None
            for d1 in (1, 3):
                for d2 in range(1, 9):
                    plan = FcfsPlan.build(geom, layout, d1, d2)
                    assert plan.bands == bands_by_column(geom, layout, d1, d2)


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
        # 16->32 at 32x32: the (Q, P+Q+1) bool read mask is 71 x 1228 bytes,
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
        mask = plan.summary * (plan.cells + plan.summary + 1)
        assert mask == 71 * 1228
        assert build_peak < mask <= floor_peak


class TestBuildIntegrals:
    """Stages 1 and 2: the plan's table of diagonal prefix sums of the cell
    products G[r, q] = x_cell[r] . w_cell[q]."""

    def test_hand_case(self):
        # one 1x1x2 filter [1, 2] on the 1x2 map [3, 4] (padded [3, 4, 0]):
        # P = 3 padded cells, Q = 2 summary cells; map columns 0, 1, 2 read
        # summary cells [0, 1), [0, 2), [1, 2). G holds 3*1, 4*1, 4*2, 0*2.
        # Row q of the 3 x 6 table holds, at column Q + r - q, the sum of G
        # over the cells before (r, q) on their diagonal.
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.from_weights(geom, np.array([1.0, 2.0]))
        fmap = FeatureMap(1, 1, 2, np.array([3.0, 4.0]))
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        assert np.array_equal(
            table.reshape(3, 6), [[0, 0, 0, 0, 0, 0], [0, 0, 3, 4, 0, 0], [0, 0, 11, 4, 0, 0]]
        )
        plan = fcfs_plan(geom, fs.layout, 1, 2)
        assert plan.bands == ((0, 1, 0, 1), (1, 2, 0, 2), (2, 3, 1, 2))
        # 4 products; 2 prefix additions (diagonals 0 and 1 hold two cells
        # each), 4 lookups and 2 slice additions
        assert (plan.multiplies, plan.additions, plan.lookups, plan.needed) == (4, 8, 4, 4)
        assert (plan.shape, plan.strides, plan.step) == ((2, 2, 1, 1), (6, 1, 1, 5), 6)
        lower, upper = plan.view(table, plan.summary), plan.view(table, plan.summary + plan.step)
        assert np.array_equal((upper - lower).ravel(), [3.0, 4.0, 8.0, 0.0])  # (k, n) order
        assert np.array_equal(fcfs_conv(fs, fmap)[0].data, [11.0, 4.0])

    def test_zero_summary_zero_integrals(self):
        geom = ConvGeometry(2, 2, 2, 3, 2)
        template = FilterSummary.random(geom, seed=8)
        fs = FilterSummary(geom, template.layout, np.zeros_like(template.weights))
        fmap = FeatureMap.random(2, 3, 3, seed=8)
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        plan = fcfs_plan(geom, fs.layout, 3, 3)
        assert table.size == (plan.summary + 1) * (plan.cells + plan.summary + 1) > 0
        assert not table.any()

    def test_telescoping_matches_direct_dot(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            fs, fmap = random_instance(rng, c_in=(1, 6), c_out=(1, 8), d=(2, 6))
            geom = fs.geom
            plan = fcfs_plan(geom, fs.layout, fmap.d1, fmap.d2)
            table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
            padded = pad_same(fmap, geom.s1, geom.s2).data
            width = geom.slice_len
            # every stage-3 read is the slice pair's inner product
            lower, upper = plan.view(table, plan.summary), plan.view(table, plan.summary + plan.step)
            for read, a, b in zip((upper - lower).ravel(), *slice_starts(fs, plan.shape, fmap.d1)):
                direct = float(padded[a : a + width] @ fs.weights[b : b + width])
                assert abs(read - direct) <= 1e-12 * max(1.0, abs(direct))
            # and any segment of any diagonal telescopes to the sum of the
            # cell products stage 1 computed on it; the rest of G stays 0
            banded = enumerate_banded(geom, fs.layout, fmap.d1, fmap.d2)
            x = padded.reshape(plan.cells, geom.c_in)
            w = fs.weights[: plan.summary * geom.c_in].reshape(plan.summary, geom.c_in)
            grid = table.reshape(plan.summary + 1, plan.cells + plan.summary + 1)
            for column in rng.integers(grid.shape[1], size=20):
                lo = int(rng.integers(plan.summary + 1))
                hi = int(rng.integers(lo, plan.summary + 1))
                cells = [(column - plan.summary + q, q) for q in range(lo, hi)]
                direct = sum(float(x[r] @ w[q]) for r, q in cells if (r, q) in banded)
                got = grid[hi, column] - grid[lo, column]
                assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))


class TestStageThreeViews:
    """Stage 3 reads the table through two strided views. They must name
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
            # summary cell q; its lower entry is table row q, column Q + r - q
            s1, p1, shift = geom.s1, d1 + geom.s1 - 1, fs.layout.stride // geom.c_in
            cells = p1 * (d2 + geom.s2 - 1)
            summary = (geom.c_out - 1) * shift + s1 * geom.s2
            row = cells + summary + 1
            assert (plan.cells, plan.summary, plan.step) == (cells, summary, s1 * row)
            k, n, m, i = np.indices((geom.s2, d2, d1, geom.c_out))
            r, q = (n + k) * p1 + m, i * shift + k * s1
            idx = q * row + summary + r - q
            positions = np.arange((summary + 1) * row)
            assert np.array_equal(plan.view(positions, summary), idx)
            assert np.array_equal(plan.view(positions, summary + plan.step), idx + s1 * row)
            table = build_integrals(fs, fmap)
            assert table.size == positions.size
            lower, upper = plan.view(table, summary), plan.view(table, summary + plan.step)
            assert lower.tobytes() == table[idx].tobytes()
            assert upper.tobytes() == table[idx + s1 * row].tobytes()

    def test_view_refuses_an_array_it_leaves(self):
        geom = ConvGeometry(2, 3, 3, 4, 2)
        fs = FilterSummary.random(geom, seed=43)
        table = build_integrals(fs, FeatureMap.random(2, 4, 5, seed=44))
        plan = fcfs_plan(geom, fs.layout, 4, 5)
        assert plan.view(table, plan.summary + plan.step).shape == (3, 5, 4, 4)
        with pytest.raises(ValueError):
            plan.view(table[: plan.summary], 0)  # too short
        with pytest.raises(ValueError):
            plan.view(table[::2], 0)  # not contiguous

    def test_warm_call_allocates_only_table_and_slice_sums(self):
        # one f32 16->32 layer at 32x32: Q = 31*2 + 9 = 71 summary cells,
        # P = 34*34 padded cells, 3*32*32*32 slice sums. A gathered index
        # would push the call's peak past its bound, a copied band the
        # peak of stages 1 and 2 past theirs.
        geom = ConvGeometry(16, 3, 3, 32, 4, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=41, dtype=np.float32)
        fmap = FeatureMap.random(16, 32, 32, seed=42, dtype=np.float32)
        convolve(fs, fmap)  # plans the layer
        plan = fcfs_plan(geom, fs.layout, 32, 32)
        table, work_bytes = 4 * 72 * (1156 + 72), plan.nbytes(4)
        assert work_bytes == table + 4 * 3 * 32 * 32 * 32
        tracemalloc.start()
        try:
            build_integrals(fs, fmap)
            fill_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            out, _ = convolve(fs, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.dtype == np.float32
        padded, output = 4 * 16 * 34 * 34, out.data.nbytes
        assert fill_peak <= table + padded + 64 * 1024
        assert peak <= work_bytes + padded + output + 64 * 1024


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
        # the fast path checks its input once, and the unaligned-stride
        # fallback checks it before the warning (the reference engine then
        # runs its own check)
        calls, real = [], fsconv.fcfs.check_conv_input
        monkeypatch.setattr(fsconv.fcfs, "check_conv_input", lambda *a: calls.append(a) or real(*a))
        fast = FilterSummary.random(ConvGeometry(4, 3, 3, 8, 2), seed=43)
        unaligned = FilterSummary.random(ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC), seed=44)
        for fs in (fast, unaligned):
            for _ in range(2):
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    fcfs_conv(fs, FeatureMap.random(fs.geom.c_in, 5, 4, seed=45))
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
        for start in (cached.summary, cached.summary + cached.step):
            with pytest.raises(ValueError):
                cached.view(table, start)[0] = 0

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
        # K = s2: no sharing at all, measured and predicted both exactly 1/2
        geom = ConvGeometry(1, 1, 3, 1, 1)
        fs = FilterSummary.random(geom, seed=24)
        report = measured_acceleration(fs, FeatureMap.random(1, 5, 6, seed=25))
        assert report.measured_ratio == Fraction(1, 2)
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
