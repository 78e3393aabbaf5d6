"""The brute-force reference engine: padding, hand convolutions, counting."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    MultCounter,
    Layout,
    StridePolicy,
    derive_layout,
    fcfs_conv,
    filter_as_3d,
    layer_plan,
    naive_conv,
    pad_same,
    rel_dev,
    unwrap,
)
from fsconv.errors import InvalidDtypeError, ShapeMismatchError
from fsconv.oracle import KMAJOR_BANK_BYTES, KMAJOR_OUTPUTS

from helpers import random_fast_geometry, rounding_excess


class TestPadSame:
    def test_1x1_kernel_is_identity(self):
        fmap = FeatureMap.random(2, 3, 4, seed=0)
        padded = pad_same(fmap, 1, 1)
        assert np.array_equal(padded.data, fmap.data)

    def test_3x3_on_2x2_gives_4x4(self):
        fmap = FeatureMap.random(1, 2, 2, seed=1)
        padded = pad_same(fmap, 3, 3)
        assert (padded.d1, padded.d2) == (4, 4)
        cube = padded.as_3d()
        assert np.array_equal(cube[:, 1:3, 1:3], fmap.as_3d())
        cube_copy = cube.copy()
        cube_copy[:, 1:3, 1:3] = 0.0
        assert not cube_copy.any()

    def test_even_kernel_leading_offsets(self):
        fmap = FeatureMap.random(1, 3, 3, seed=2)
        padded = pad_same(fmap, 2, 4)
        assert (padded.d1, padded.d2) == (4, 6)
        cube = padded.as_3d()
        # floor((s-1)/2) leading zeros: 0 rows, 1 column
        assert np.array_equal(cube[:, 0:3, 1:4], fmap.as_3d())

    def test_zero_map_stays_zero(self):
        fmap = FeatureMap(2, 2, 2, np.zeros(8))
        assert not pad_same(fmap, 3, 3).data.any()


    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.bool_])
    def test_int_and_bool_keep_dtype_and_match_np_pad(self, dtype):
        rng = np.random.default_rng(3)
        cube = rng.integers(0, 2 if dtype is np.bool_ else 100, (3, 4, 5)).astype(dtype)
        for s1, s2 in [(2, 4), (4, 2), (2, 2)]:
            padded = pad_same(unwrap(cube), s1, s2)
            assert padded.data.dtype == dtype
            lead1, lead2 = (s1 - 1) // 2, (s2 - 1) // 2
            expected = np.pad(cube, ((0, 0), (lead1, s1 - 1 - lead1), (lead2, s2 - 1 - lead2)))
            assert expected.dtype == dtype
            assert np.array_equal(padded.as_3d(), expected)


class TestNaiveConv:
    def test_identity_kernel(self):
        geom = ConvGeometry(1, 1, 1, 1, 1)
        fs = FilterSummary.from_weights(geom, np.array([1.0]))
        fmap = FeatureMap.random(1, 5, 6, seed=3)
        out = naive_conv(fs, fmap)
        assert np.array_equal(out.data, fmap.data)

    def test_all_ones_3x3_on_one_hot(self):
        geom = ConvGeometry(1, 3, 3, 1, 1, StridePolicy.GENERIC)
        fs = FilterSummary.from_weights(geom, np.ones(9))
        d1 = d2 = 5
        for hot in [(0, 0), (2, 3), (4, 4)]:
            tensor = np.zeros((1, d1, d2))
            tensor[0, hot[0], hot[1]] = 1.0
            out = naive_conv(fs, unwrap(tensor)).as_3d()
            # independent oracle: a 3x3 block of ones clipped at the borders
            expected = np.zeros((1, d1, d2))
            for m in range(d1):
                for n in range(d2):
                    if abs(m - hot[0]) <= 1 and abs(n - hot[1]) <= 1:
                        expected[0, m, n] = 1.0
            assert np.array_equal(out, expected)

    def test_zero_stride_duplicates_channels(self):
        geom = ConvGeometry(2, 1, 1, 4, 2, StridePolicy.GENERIC)
        fs = FilterSummary.random(geom, seed=4)
        out = naive_conv(fs, FeatureMap.random(2, 4, 4, seed=5)).as_3d()
        for o in range(1, 4):
            assert np.array_equal(out[o], out[0])

    def test_channel_mismatch_rejected(self):
        geom = ConvGeometry(2, 1, 1, 1, 1)
        fs = FilterSummary.random(geom)
        with pytest.raises(ShapeMismatchError):
            naive_conv(fs, FeatureMap.random(3, 2, 2))

    @pytest.mark.parametrize("d1, d2", [(0, 3), (3, 0), (0, 0)])
    def test_empty_map_rejected(self, d1, d2):
        fs = FilterSummary.random(ConvGeometry(2, 3, 3, 2, 1))
        with pytest.raises(ShapeMismatchError, match="sizes must be >= 1"):
            naive_conv(fs, FeatureMap(2, d1, d2, np.zeros(0)), MultCounter())


class TestOracleProperties:
    def test_linearity(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            geom = random_fast_geometry(rng, s2=(1, 5))
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            x = FeatureMap.random(geom.c_in, 5, 4, seed=int(rng.integers(2**31)))
            y = FeatureMap.random(geom.c_in, 5, 4, seed=int(rng.integers(2**31)))
            a, b = 0.7, -1.3
            mix = FeatureMap(geom.c_in, 5, 4, a * x.data + b * y.data)
            lhs = naive_conv(fs, mix).data
            rhs = a * naive_conv(fs, x).data + b * naive_conv(fs, y).data
            assert rel_dev(lhs, rhs) <= 1e-12

    def test_translation_equivariance_in_interior(self):
        rng = np.random.default_rng(7)
        geom = ConvGeometry(1, 3, 3, 2, 2)
        fs = FilterSummary.random(geom, seed=8)
        d1 = d2 = 7
        base = np.zeros((1, d1, d2))
        base[0, 2, 3] = 1.0
        shifted = np.zeros((1, d1, d2))
        shifted[0, 3, 3] = 1.0
        out_base = naive_conv(fs, unwrap(base)).as_3d()
        out_shift = naive_conv(fs, unwrap(shifted)).as_3d()
        assert np.array_equal(out_shift[:, 1 : d1 - 1, :], out_base[:, 0 : d1 - 2, :])

    def test_multiply_count_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            geom = random_fast_geometry(rng, s2=(1, 5))
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            d1 = int(rng.integers(1, 7))
            d2 = int(rng.integers(1, 7))
            fmap = FeatureMap.random(geom.c_in, d1, d2, seed=int(rng.integers(2**31)))
            counter = MultCounter()
            naive_conv(fs, fmap, counter)
            assert counter.multiplies == geom.c_out * d1 * d2 * geom.filter_len


def copied_bank_conv(fs, fmap, order="C"):
    """The oracle's product sum with the bank always a copy of the summary's filters in
    `order`, C as before it was read in place or stored K-major (F):
    sum_k rows_k @ bank[:, k*L : (k+1)*L].T."""
    geom, d1, d2, w = fs.geom, fmap.d1, fmap.d2, fs.weights
    bank = np.ndarray((geom.c_out, geom.filter_len), w.dtype, w, 0,
                      (fs.layout.stride * w.itemsize, w.itemsize)).copy(order)
    x, span = pad_same(fmap, geom.s1, geom.s2).data, geom.slice_len
    cell = geom.c_in * x.itemsize
    rows = np.ndarray((d2 + geom.s2 - 1, d1, span), x.dtype, x, 0,
                      ((d1 + geom.s1 - 1) * cell, cell, x.itemsize)).reshape(-1, span)
    out = rows[: d1 * d2] @ bank[:, :span].T
    for k in range(1, geom.s2):
        out += rows[k * d1 : k * d1 + d1 * d2] @ bank[:, k * span : (k + 1) * span].T
    return out.ravel()


class TestLoweredMemory:
    @pytest.mark.parametrize("geom, d1, d2, dtype, rows, bank, read", [
        (ConvGeometry(55, 4, 5, 56, 2, StridePolicy.GENERIC), 14, 16, np.float64, 20 * 14 * 220, 0,
         "in_place"),
        (ConvGeometry(16, 3, 3, 16, 4), 32, 32, np.float32, 34 * 32 * 48, 16 * 144, "kmajor"),
        (ConvGeometry(64, 1, 3, 64, 4), 32, 32, np.float64, 0, 64 * 192, "kmajor"),
        (ConvGeometry(64, 3, 3, 64, 4), 5, 5, np.float32, 7 * 5 * 192, 64 * 576, "copy"),
        (ConvGeometry(64, 3, 3, 64, 4), 16, 16, np.float64, 18 * 16 * 192, 64 * 576, "copy"),
    ], ids=["55->56 4x5 f64", "16->16 3x3 f32", "64->64 1x3 f64", "64->64 3x3 f32 at 5x5",
            "64->64 3x3 f64 at 16x16"])
    def test_call_allocates_rows_bank_and_one_partial(self, geom, d1, d2, dtype, rows, bank, read):
        # beyond the padded map and the output, one call holds the row-lowered
        # matrix, (d2+s2-1)*d1 windows of s1*c_in entries, the c_out x K bank
        # where the filter stride is below s1*c_in (every layer but the first;
        # the first, at stride 549 >= 220, reads its bank in place), K-major
        # (the second and third) or C-ordered (25 outputs, then a 294,912-byte
        # bank) in the same bytes, and one d1*d2*c_out partial product. A d1*d2
        # x K patch copy (1.97 MB on the first layer) or a bank copy there
        # (492,800 bytes) would push the peak past its bound; so would any
        # lowered copy at s1 = 1, where the rows are the padded map (557,056
        # bytes on the third layer), or a second bank copy on the last
        itemsize = np.dtype(dtype).itemsize
        layout = derive_layout(geom)
        assert (layout.stride >= geom.slice_len) == (bank == 0)
        plan = layer_plan(geom, layout, d1, d2).naive
        assert plan.bank_layout(itemsize) == read
        extra = plan.nbytes(itemsize)
        assert extra == itemsize * (rows + bank + geom.c_out * d1 * d2)
        padded = geom.c_in * (d1 + geom.s1 - 1) * (d2 + geom.s2 - 1)
        bound = itemsize * (padded + geom.c_out * d1 * d2) + extra + 64 * 1024
        fs = FilterSummary.random(geom, seed=61, dtype=dtype)
        fmap = FeatureMap.random(geom.c_in, d1, d2, seed=62, dtype=dtype)
        naive_conv(fs, fmap)
        tracemalloc.start()
        try:
            out = naive_conv(fs, fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.dtype == dtype
        assert peak <= bound

    def test_closed_form_counts_no_rows_where_they_are_the_padded_map(self):
        geom = ConvGeometry(3, 3, 1, 2, 1)  # s2 = 1: no partial product
        layout = derive_layout(geom)
        assert layout.stride == 6  # below s1*c_in = 9: a bank copy
        assert layer_plan(geom, layout, 1, 5).naive.nbytes(8) == 8 * 2 * 9
        assert layer_plan(geom, layout, 2, 5).naive.nbytes(8) == 8 * (5 * 2 * 9 + 2 * 9)
        apart = Layout(18, 9, layout.slices, 18)  # stride 9: the bank is read in place
        assert layer_plan(geom, apart, 1, 5).naive.nbytes(8) == 0
        assert layer_plan(geom, apart, 2, 5).naive.nbytes(8) == 8 * 5 * 2 * 9
        narrow = ConvGeometry(3, 1, 2, 2, 1)  # stride 3 = s1*c_in: in place
        assert layer_plan(narrow, derive_layout(narrow), 4, 5).naive.nbytes(4) == 4 * 2 * 4 * 5

    def test_bank_read_in_place_gives_the_bytes_of_a_copy(self):
        # on seeded layers of every policy, in f32 and f64, the oracle is the
        # bytes of the same products over a C-ordered bank copy where it reads
        # the bank in place or copies it C-ordered; where it copies it K-major,
        # the bytes over an F-ordered copy (BLAS may sum an untransposed operand
        # in another order), within the rounding bound of the exact sums. 20 or
        # more read the bank in place; 20 cases on maps from 8x8 up, after 60 on
        # maps up to 11x11, make 10 or more copy it K-major
        rng = np.random.default_rng(63)
        seen = {"in_place": 0, "copy": 0, "kmajor": 0}
        for case in range(80):
            policy = list(StridePolicy)[case % 3]
            geom = random_fast_geometry(rng, c_in=(1, 6), s1=(1, 5), s2=(1, 4), c_out=(1, 10),
                                        policy=policy)
            d1, d2 = (int(v) for v in rng.integers(*((1, 12) if case < 60 else (8, 17)), 2))
            dtype = (np.float32, np.float64)[case % 2]
            fs = FilterSummary.random(geom, seed=case, dtype=dtype)
            fmap = FeatureMap.random(geom.c_in, d1, d2, seed=case, dtype=dtype)
            read = layer_plan(geom, fs.layout, d1, d2).naive.bank_layout(np.dtype(dtype).itemsize)
            assert (read == "in_place") == (fs.layout.stride >= geom.slice_len)
            seen[read] += 1
            out = naive_conv(fs, fmap).data
            if read == "kmajor":
                assert out.tobytes() == copied_bank_conv(fs, fmap, "F").tobytes(), geom
                assert rounding_excess(out, fs, fmap, geom.filter_len).max() <= 1, geom
            else:
                assert out.tobytes() == copied_bank_conv(fs, fmap).tobytes(), geom
        assert seen["in_place"] >= 20 and min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bank_layout_rule_at_its_thresholds(self, dtype):
        # a copied bank goes K-major exactly where at least KMAJOR_OUTPUTS
        # outputs share a bank of at most KMAJOR_BANK_BYTES, by exact sizes on
        # each side of each threshold; a bank read in place stays in place
        itemsize = np.dtype(dtype).itemsize
        assert (KMAJOR_OUTPUTS, KMAJOR_BANK_BYTES) == (36, 262_144)
        geom = ConvGeometry(8, 3, 3, 8, 4)  # stride 16 < s1*c_in = 24: a copy
        layout = derive_layout(geom)
        assert layout.stride < geom.slice_len
        for (d1, d2), read in [((6, 6), "kmajor"), ((5, 7), "copy"), ((1, 36), "kmajor"),
                               ((7, 5), "copy"), ((1, 35), "copy")]:
            assert layer_plan(geom, layout, d1, d2).naive.bank_layout(itemsize) == read, (d1, d2)
        # 16->c_out 2x2 banks (K = 64, channel stride 16 < 32: a copy) at 36 outputs:
        # exactly KMAJOR_BANK_BYTES, and one filter more
        fits = KMAJOR_BANK_BYTES // (64 * itemsize)
        for c_out, read in [(fits, "kmajor"), (fits + 1, "copy")]:
            geom = ConvGeometry(16, 2, 2, c_out, 2)
            plan = layer_plan(geom, derive_layout(geom), 6, 6).naive
            assert plan.bank * itemsize == 262_144 + 64 * itemsize * (c_out - fits)
            assert plan.bank_layout(itemsize) == read, c_out
            apart = Layout(32 * c_out + 32, 32, Fraction(c_out + 1), 32 * c_out + 32)  # stride 32
            assert layer_plan(geom, apart, 6, 6).naive.bank_layout(itemsize) == "in_place"


def literal_conv(fs, fmap):
    """output(o, m, n) = sum_{i,j,k} filter_o[i, j, k] * padded[i, m+j, n+k],
    in float64 from the 3D filters and the 3D map, with no strided views."""
    g = fs.geom
    lead1, lead2 = (g.s1 - 1) // 2, (g.s2 - 1) // 2
    padded = np.pad(fmap.as_3d().astype(np.float64),
                    ((0, 0), (lead1, g.s1 - 1 - lead1), (lead2, g.s2 - 1 - lead2)))
    filters = np.stack([filter_as_3d(fs, o) for o in range(g.c_out)]).astype(np.float64)
    windows = np.array([[padded[:, m : m + g.s1, n : n + g.s2] for n in range(fmap.d2)]
                        for m in range(fmap.d1)])
    return np.einsum("oijk,mnijk->omn", filters, windows)


class TestLiteralDefinition:
    @pytest.mark.parametrize("w_dtype, x_dtype, tol", [
        (np.float64, np.float64, 1e-12),
        (np.float32, np.float32, 1e-5),
        (np.float32, np.float64, 1e-12),
    ])
    def test_matches_the_formula(self, w_dtype, x_dtype, tol):
        rng = np.random.default_rng(11)
        seen = set()
        for case in range(90):
            policy = list(StridePolicy)[case % 3]
            geom = random_fast_geometry(rng, c_in=(1, 6), s1=(1, 4), s2=(1, 4),
                                        c_out=(1, 8), policy=policy)
            fs = FilterSummary.random(geom, seed=case, dtype=w_dtype)
            d1, d2 = (1, 1) if case % 5 == 0 else rng.integers(1, 7, size=2)
            fmap = FeatureMap.random(geom.c_in, int(d1), int(d2), seed=case + 1, dtype=x_dtype)
            out = naive_conv(fs, fmap)
            assert out.data.dtype == np.result_type(w_dtype, x_dtype)
            assert rel_dev(out.as_3d(), literal_conv(fs, fmap)) <= tol
            seen |= {policy, ("stride 0", fs.layout.stride == 0), ("s2 1", geom.s2 == 1),
                     ("1x1", fmap.d1 * fmap.d2 == 1)}
        assert seen >= set(StridePolicy) | {("stride 0", True), ("s2 1", True), ("1x1", True)}

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_strided_and_read_only_summaries(self, dtype, tol):
        # the views follow the summary's own memory, and neither engine
        # writes to the summary or the map
        rng = np.random.default_rng(13)
        for case in range(12):
            geom = random_fast_geometry(rng, c_in=(1, 6), s1=(1, 4), s2=(1, 4), c_out=(1, 8))
            dense = FilterSummary.random(geom, seed=case, dtype=dtype)
            spread = np.zeros(3 * dense.weights.size, dtype)
            spread[::3] = dense.weights
            frozen = dense.weights.copy()
            frozen.flags.writeable = False
            fmap = FeatureMap.random(geom.c_in, 5, 4, seed=case + 1, dtype=dtype)
            for weights in (spread[::3], frozen):
                fs = FilterSummary(geom, dense.layout, weights)
                before = weights.tobytes(), fmap.data.tobytes()
                out = naive_conv(fs, fmap)
                assert rel_dev(out.as_3d(), literal_conv(fs, fmap)) <= tol
                assert out.data.tobytes() == naive_conv(dense, fmap).data.tobytes()
                assert rel_dev(fcfs_conv(fs, fmap)[0].data, out.data) <= tol
                assert (weights.tobytes(), fmap.data.tobytes()) == before

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float32])
    def test_real_map_dtypes_accepted(self, dtype):
        fs = FilterSummary.random(ConvGeometry(2, 3, 2, 3, 2))
        values = np.random.default_rng(12).integers(0, 2, 2 * 4 * 5)
        fmap = FeatureMap(2, 4, 5, values.astype(dtype))
        assert rel_dev(naive_conv(fs, fmap).as_3d(), literal_conv(fs, fmap)) <= 1e-12

    @pytest.mark.parametrize("values", [np.full(8, 1j), np.full(8, "a"), np.full(8, None)],
                             ids=["complex", "string", "object"])
    def test_non_real_map_refused(self, values):
        fs = FilterSummary.random(ConvGeometry(2, 1, 2, 2, 1))
        with pytest.raises(InvalidDtypeError, match="need bool, int or float"):
            naive_conv(fs, FeatureMap(2, 2, 2, values))
