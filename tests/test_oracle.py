"""The brute-force reference engine: padding, hand convolutions, counting."""

import numpy as np
import pytest

from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    MultCounter,
    StridePolicy,
    naive_conv,
    pad_same,
    rel_dev,
    unwrap,
    wrap,
)
from fsconv.errors import ShapeMismatchError

from helpers import random_fast_geometry


class TestPadSame:
    def test_1x1_kernel_is_identity(self):
        fmap = FeatureMap.random(2, 3, 4, seed=0)
        padded = pad_same(fmap, 1, 1)
        assert np.array_equal(padded.data, fmap.data)

    def test_3x3_on_2x2_gives_4x4(self):
        fmap = FeatureMap.random(1, 2, 2, seed=1)
        padded = pad_same(fmap, 3, 3)
        assert (padded.d1, padded.d2) == (4, 4)
        cube = wrap(padded)
        assert np.array_equal(cube[:, 1:3, 1:3], wrap(fmap))
        cube_copy = cube.copy()
        cube_copy[:, 1:3, 1:3] = 0.0
        assert not cube_copy.any()

    def test_even_kernel_leading_offsets(self):
        fmap = FeatureMap.random(1, 3, 3, seed=2)
        padded = pad_same(fmap, 2, 4)
        assert (padded.d1, padded.d2) == (4, 6)
        cube = wrap(padded)
        # floor((s-1)/2) leading zeros: 0 rows, 1 column
        assert np.array_equal(cube[:, 0:3, 1:4], wrap(fmap))

    def test_zero_map_stays_zero(self):
        fmap = FeatureMap(2, 2, 2, np.zeros(8))
        assert not pad_same(fmap, 3, 3).data.any()


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
