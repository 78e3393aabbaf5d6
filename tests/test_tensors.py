"""Channel-major flattening, filter segment views, coverage and overlap."""

from fractions import Fraction

import numpy as np
import pytest

from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    StridePolicy,
    derive_layout,
    extract_filter,
    filter_as_3d,
    unwrap,
    unwrap_index,
    wrap,
)
from fsconv.errors import OutOfRangeError, ShapeMismatchError

from helpers import random_fast_geometry


class TestUnwrapIndex:
    def test_origin(self):
        assert unwrap_index(0, 0, 0, 4, 5) == 0

    def test_hand_value(self):
        assert unwrap_index(2, 1, 3, 4, 5) == 3 * 20 + 1 * 4 + 2 == 66

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            unwrap_index(4, 0, 0, 4, 5)
        with pytest.raises(OutOfRangeError):
            unwrap_index(0, 5, 0, 4, 5)
        with pytest.raises(OutOfRangeError):
            unwrap_index(0, 0, -1, 4, 5)

    def test_agrees_with_unwrap(self):
        rng = np.random.default_rng(0)
        tensor = rng.standard_normal((3, 4, 5))
        fmap = unwrap(tensor)
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    assert fmap.data[unwrap_index(i, j, k, 3, 4)] == tensor[i, j, k]


class TestUnwrapWrap:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for shape in [(1, 1, 1), (2, 3, 4), (5, 2, 7)]:
            tensor = rng.standard_normal(shape)
            assert np.array_equal(wrap(unwrap(tensor)), tensor)

    def test_inverse_direction(self):
        fmap = FeatureMap.random(3, 4, 5, seed=2)
        assert np.array_equal(unwrap(wrap(fmap)).data, fmap.data)

    def test_zeros(self):
        assert not unwrap(np.zeros((2, 2, 2))).data.any()

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            unwrap(np.zeros((2, 2)))
        with pytest.raises(ShapeMismatchError):
            FeatureMap(2, 2, 2, np.zeros(7))


class TestExtractFilter:
    def test_hand_slice(self):
        # K=3, L=5, generic stride floor(4/3)=1
        geom = ConvGeometry(1, 3, 1, 3, Fraction(9, 5), StridePolicy.GENERIC)
        fs = FilterSummary.from_weights(geom, np.arange(5.0))
        assert fs.layout.stride == 1
        assert np.array_equal(extract_filter(fs, 1), [1.0, 2.0, 3.0])

    def test_zero_stride_duplicates(self):
        geom = ConvGeometry(2, 1, 1, 4, 2, StridePolicy.GENERIC)
        fs = FilterSummary.random(geom, seed=3)
        assert fs.layout.stride == 0
        for i in range(1, 4):
            assert np.array_equal(extract_filter(fs, i), extract_filter(fs, 0))

    def test_last_filter_of_worked_example_needs_padding(self):
        geom = ConvGeometry(64, 3, 3, 64, 4, StridePolicy.GENERIC)
        fs = FilterSummary.random(geom, seed=4)
        assert fs.layout.phys_length == 9585
        seg = extract_filter(fs, 63)
        assert seg.size == 576
        assert np.shares_memory(seg, fs.weights)
        assert np.array_equal(seg, fs.weights[9009:9585])

    def test_views_reflect_mutation(self):
        geom = ConvGeometry(1, 3, 1, 3, Fraction(9, 5), StridePolicy.GENERIC)
        fs = FilterSummary.from_weights(geom, np.arange(5.0))
        seg = extract_filter(fs, 0)
        fs.weights[1] = 99.0
        assert seg[1] == 99.0
        assert extract_filter(fs, 1)[0] == 99.0

    def test_index_validation(self):
        geom = ConvGeometry(1, 3, 1, 3, Fraction(9, 5))
        fs = FilterSummary.random(geom)
        with pytest.raises(OutOfRangeError):
            extract_filter(fs, 3)
        with pytest.raises(OutOfRangeError):
            extract_filter(fs, -1)


class TestFilterAs3d:
    def test_flatten_matches_segment(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            geom = random_fast_geometry(rng, s2=(1, 5))
            fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
            i = int(rng.integers(geom.c_out))
            cube = filter_as_3d(fs, i)
            assert cube.shape == (geom.c_in, geom.s1, geom.s2)
            flat = np.ascontiguousarray(cube.transpose(2, 1, 0)).ravel()
            assert np.array_equal(flat, extract_filter(fs, i))

    def test_elementwise_layout(self):
        geom = ConvGeometry(2, 3, 2, 2, 1)
        fs = FilterSummary.random(geom, seed=6)
        seg = extract_filter(fs, 1)
        cube = filter_as_3d(fs, 1)
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    assert cube[i, j, k] == seg[k * 6 + j * 2 + i]

    def test_single_row_is_reshape(self):
        geom = ConvGeometry(1, 1, 4, 2, 1)
        fs = FilterSummary.random(geom, seed=7)
        cube = filter_as_3d(fs, 0)
        assert np.array_equal(cube[0, 0, :], extract_filter(fs, 0))


class TestCoverageAndOverlap:
    def test_neighbors_share_exactly_k_minus_s(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            geom = random_fast_geometry(rng, s2=(1, 5))
            layout = derive_layout(geom)
            k, s = geom.filter_len, layout.stride
            for i in range(min(geom.c_out - 1, 4)):
                left = set(range(i * s, i * s + k))
                right = set(range((i + 1) * s, (i + 1) * s + k))
                assert len(left & right) == max(0, k - s)

    def test_segments_tile_filter_span_without_gaps(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            geom = random_fast_geometry(rng, s2=(1, 5))
            layout = derive_layout(geom)
            span = (geom.c_out - 1) * layout.stride + geom.filter_len
            covered = np.zeros(layout.phys_length, dtype=bool)
            for i in range(geom.c_out):
                covered[i * layout.stride : i * layout.stride + geom.filter_len] = True
            assert covered[:span].all()
            # anything uncovered can only be nominal tail past the last filter
            assert not covered[span:].any()
