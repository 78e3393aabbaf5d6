"""The diagonal integral-line engine against the brute-force reference.

The enumeration oracle below re-derives, with plain loops and none of the
engine's vectorization, every (diagonal offset, column) cell a convolution
touches; the engine's planned extents and multiply counts must match it
exactly.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

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
    fcfs_conv,
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


def enumerate_counts(geom, cells, d1, d2):
    """Oracle: (multiplies, additions, lookups) implied by the cell set. Each
    maximal run of consecutive cells on one diagonal is prefix-summed once."""
    runs = sum((off, y - 1) not in cells for off, y in cells)
    lookups = geom.s2 * geom.c_out * d1 * d2
    additions = len(cells) - runs + lookups + (geom.s2 - 1) * geom.c_out * d1 * d2
    return len(cells), additions, lookups


def slice_starts(fs, plan_index, d1):
    """Padded-map and summary start of every slice pair, in the plan's
    (s2, d2, d1, c_out) index order."""
    geom = fs.geom
    k, n, m, i = np.indices(plan_index.shape)
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
            counts = (planned.multiplies, planned.additions, planned.lookups)
            assert counts == enumerate_counts(geom, cells, d1, d2)
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


class TestBuildIntegrals:
    """Stages 1 and 2: the plan's flat table of exclusive prefix sums."""

    def test_hand_case(self):
        # one 1x1x2 filter [1, 2] on the 1x2 map [3, 4] (padded [3, 4, 0]):
        # diagonal 0 holds products [3*1, 4*2] -> prefix sums [3, 11], and
        # diagonal 1 holds [4*1, 0*2] -> [4, 4]; each run leads with a zero
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.from_weights(geom, np.array([1.0, 2.0]))
        fmap = FeatureMap(1, 1, 2, np.array([3.0, 4.0]))
        counter = MultCounter()
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap), counter)
        assert np.array_equal(table, [0.0, 3.0, 11.0, 0.0, 4.0, 4.0])
        assert counter.multiplies == 4
        assert counter.additions == 2
        plan = fcfs_plan(geom, fs.layout, 1, 2)
        reads = table[plan.width :][plan.index] - table[plan.index]
        assert np.array_equal(reads.ravel(), [3.0, 4.0, 8.0, 0.0])  # (k, n) order
        assert np.array_equal(fcfs_conv(fs, fmap)[0].data, [11.0, 4.0])

    def test_zero_summary_zero_integrals(self):
        geom = ConvGeometry(2, 2, 2, 3, 2)
        template = FilterSummary.random(geom, seed=8)
        fs = FilterSummary(geom, template.layout, np.zeros_like(template.weights))
        fmap = FeatureMap.random(2, 3, 3, seed=8)
        table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
        assert table.size == fcfs_plan(geom, fs.layout, 3, 3).table_size > 0
        assert not table.any()

    def test_telescoping_matches_direct_dot(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            fs, fmap = random_instance(rng, c_in=(1, 6), c_out=(1, 8), d=(2, 6))
            plan = fcfs_plan(fs.geom, fs.layout, fmap.d1, fmap.d2)
            table = build_integrals(fs, fmap, required_diagonals(fs, fmap))
            padded = pad_same(fmap, fs.geom.s1, fs.geom.s2).data
            width = plan.width
            # every stage-3 read is the slice pair's inner product
            reads = (table[width:][plan.index] - table[plan.index]).ravel()
            for read, a, b in zip(reads, *slice_starts(fs, plan.index, fmap.d1)):
                direct = float(padded[a : a + width] @ fs.weights[b : b + width])
                assert abs(read - direct) <= 1e-12 * max(1.0, abs(direct))
            # and any segment of any run telescopes to its direct dot product
            pos = 0
            for length, rows, cols in plan.groups:
                for j in rng.integers(rows.size, size=5):
                    lo = int(rng.integers(length + 1))
                    hi = int(rng.integers(lo, length + 1))
                    row = pos + int(j) * (length + 1)
                    direct = float(
                        padded[rows[j] + lo : rows[j] + hi] @ fs.weights[cols[j] + lo : cols[j] + hi]
                    )
                    got = table[row + hi] - table[row + lo]
                    assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))
                pos += rows.size * (length + 1)
            assert pos == table.size


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

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(20)
        fs, fmap = random_instance(rng)
        first, counter1 = fcfs_conv(fs, fmap)
        second, counter2 = fcfs_conv(fs, fmap)
        assert np.array_equal(first.data, second.data)
        assert counter1 == counter2

    def test_multiply_count_is_minimal(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            fs, fmap = random_instance(rng, c_in=(1, 5), s1=(1, 3), s2=(2, 3), c_out=(1, 8), d=(1, 5))
            _, counter = fcfs_conv(fs, fmap)
            cells = enumerate_cells(fs.geom, fs.layout, fmap.d1, fmap.d2)
            assert counter.multiplies == len(cells)
            plan = required_diagonals(fs, fmap)
            assert counter.multiplies == sum(
                hi - lo for runs in plan.values() for lo, hi in runs
            )


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
        assert np.array_equal(fresh.index, cached.index)
        assert fresh.nbytes == cached.nbytes > 0
        with pytest.raises(ValueError):
            cached.index[0] = 0
        with pytest.raises(ValueError):
            cached.groups[0][1][0] = 0

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
