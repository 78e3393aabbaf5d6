"""Layout derivation, parameter counts and the closed-form multiply model."""

import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest

from fsconv import (
    ConvGeometry,
    Fallback,
    StridePolicy,
    count_params,
    derive_layout,
    layer_plan,
    predicted_acceleration,
)
from fsconv.errors import InvalidRatioError, ShapeMismatchError
from fsconv.geometry import LAYOUT_CACHE_SIZE

# the recurring worked example: 64-channel 3x3 layer, 64 filters, ratio 4
WORKED = dict(c_in=64, s1=3, s2=3, c_out=64, ratio=4)


class TestDeriveLayout:
    def test_worked_example_generic(self):
        layout = derive_layout(ConvGeometry(**WORKED, stride_policy=StridePolicy.GENERIC))
        assert layout.length == 9216  # floor(576*64/4)
        assert layout.stride == 143  # floor(9215/64)
        assert layout.phys_length == 9585  # 63*143 + 576 > 9216
        assert layout.slices == Fraction(48)

    def test_worked_example_slice_aligned_degenerates(self):
        # floor(143/192)*192 == 0: every filter is the same segment
        geom = ConvGeometry(**WORKED, stride_policy=StridePolicy.SLICE_ALIGNED)
        layout = derive_layout(geom)
        assert (layout.length, layout.stride, layout.phys_length) == (9216, 0, 9216)
        assert geom.filters_coincide(layout.stride)

    def test_single_filter_at_stride_zero_is_no_degenerate_slice(self):
        # one filter coincides with no other, so a slice-aligned stride of 0
        # is a plain layout when c_out is 1 (generic stride 11, slice length 12)
        geom = ConvGeometry(4, 3, 1, 1, 1, StridePolicy.SLICE_ALIGNED)
        layout = derive_layout(geom)
        assert (layout.stride, layout.phys_length) == (0, 12)
        assert not geom.filters_coincide(layout.stride)
        assert ConvGeometry(4, 3, 1, 2, 1).filters_coincide(0)
        # two filters, generic stride (12 - 1) // 2 = 5 < 12: both are weights 0..11
        geom = ConvGeometry(4, 3, 1, 2, 2, StridePolicy.SLICE_ALIGNED)
        layout = derive_layout(geom)
        assert (layout.length, layout.stride, layout.phys_length) == (12, 0, 12)
        assert geom.filters_coincide(layout.stride)

    def test_worked_example_channel_aligned(self):
        layout = derive_layout(
            ConvGeometry(**WORKED, stride_policy=StridePolicy.CHANNEL_ALIGNED)
        )
        assert layout.stride == 128  # floor(143/64)*64
        assert layout.phys_length == 9216  # 63*128 + 576 = 8640 < L

    def test_single_weight_layer(self):
        layout = derive_layout(ConvGeometry(1, 1, 1, 1, 1, StridePolicy.GENERIC))
        assert (layout.length, layout.stride, layout.phys_length) == (1, 0, 1)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(InvalidRatioError):
            ConvGeometry(1, 1, 1, 1, Fraction(1, 2))

    def test_summary_shorter_than_one_filter_rejected(self):
        # K=2, c_out=2, ratio 4 -> L = 1 < K
        with pytest.raises(InvalidRatioError):
            derive_layout(ConvGeometry(2, 1, 1, 2, 4))

    def test_fractional_ratio_accepted(self):
        geom = ConvGeometry(4, 3, 3, 16, Fraction("3.7"))
        assert geom.ratio == Fraction(37, 10)
        layout = derive_layout(geom)
        assert layout.length == (36 * 16 * 10) // 37

    def test_nonpositive_dims_rejected(self):
        for dims in [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, -2)]:
            with pytest.raises(ShapeMismatchError, match="must be >= 1"):
                ConvGeometry(*dims, 1)


class TestGeometryHash:
    def test_equal_geometries_hash_equal(self):
        as_int = ConvGeometry(4, 3, 3, 8, 2, "channel")
        as_fraction = ConvGeometry(4, 3, 3, 8, Fraction(4, 2), StridePolicy.CHANNEL_ALIGNED)
        assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
        assert len({as_int, as_fraction, ConvGeometry(4, 3, 3, 8, 3)}) == 2

    def test_replace_and_pickle_keep_equality_and_hash(self):
        geom = ConvGeometry(4, 3, 3, 8, Fraction(7, 2), StridePolicy.GENERIC)
        for copy in (dataclasses.replace(geom), pickle.loads(pickle.dumps(geom))):
            assert copy == geom and hash(copy) == hash(geom)
        wider = dataclasses.replace(geom, c_out=9)
        assert wider == ConvGeometry(4, 3, 3, 9, Fraction(7, 2), StridePolicy.GENERIC)
        assert hash(wider) == hash(ConvGeometry(4, 3, 3, 9, Fraction(7, 2), StridePolicy.GENERIC))
        assert derive_layout(wider) is derive_layout(ConvGeometry(4, 3, 3, 9, 3.5, "generic"))


class TestCountParams:
    def test_worked_example(self):
        geom = ConvGeometry(**WORKED, stride_policy=StridePolicy.GENERIC)
        params = count_params(geom, derive_layout(geom))
        assert params.baseline == 36864
        assert params.fs_nominal == 9216
        assert params.cr_nominal == 4
        assert params.fs == 9585  # padding weights are real storage
        assert params.cr == Fraction(36864, 9585)

    def test_no_compression(self):
        geom = ConvGeometry(4, 3, 3, 8, 1)
        params = count_params(geom, derive_layout(geom))
        assert params.cr_nominal == 1
        # padding slack only
        assert 1 <= float(params.cr_nominal) < 1.01

    def test_zero_stride_layer(self):
        # K=2, L=4, generic stride floor(3/4)=0 -> phys = max(4, 2) = 4
        geom = ConvGeometry(2, 1, 1, 4, 2, StridePolicy.GENERIC)
        layout = derive_layout(geom)
        assert (layout.length, layout.stride, layout.phys_length) == (4, 0, 4)
        params = count_params(geom, layout)
        assert params.baseline == 8
        assert params.cr == 2


class TestPredictedAcceleration:
    def test_worked_example_16x16(self):
        geom = ConvGeometry(**WORKED, stride_policy=StridePolicy.GENERIC)
        pred = predicted_acceleration(geom, derive_layout(geom), 16, 16)
        assert pred.naive_mults == 64 * 256 * 576 == 9_437_184
        assert pred.fcfs_mults == 64 * 256 * 48 + 64 * 256 * 3 == 835_584
        assert pred.ratio == Fraction(9_437_184, 835_584)
        assert abs(float(pred.ratio) - 11.294) < 1e-3

    def test_s2_one_predicted_like_any_layer(self):
        # one filter column: c_in*d1*d2*slices stage-1 products and one lookup
        # per output; K = 24 and L = 192, 8 slices of 24
        geom = ConvGeometry(8, 3, 1, 16, 2)
        pred = predicted_acceleration(geom, derive_layout(geom), 8, 8)
        assert pred.naive_mults == 16 * 64 * 24 == 24_576
        assert pred.fcfs_mults == 8 * 64 * 8 + 16 * 64 == 5_120
        assert pred.ratio == Fraction(24, 5)

    def test_filter_is_one_slice_column(self):
        # 1x1xs2 filters, single filter, no compression: ratio is exactly 1/2
        geom = ConvGeometry(1, 1, 4, 1, 1)
        pred = predicted_acceleration(geom, derive_layout(geom), 5, 6)
        assert pred.ratio == Fraction(1, 2)

    def test_rejects_empty_spatial(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        for d1, d2 in [(0, 4), (0, 1), (3, 0)]:
            with pytest.raises(ShapeMismatchError):
                predicted_acceleration(geom, derive_layout(geom), d1, d2)


@pytest.mark.parametrize(
    "geom, reason",
    [
        (ConvGeometry(**WORKED), None),
        (ConvGeometry(**WORKED, stride_policy=StridePolicy.GENERIC), Fallback.UNALIGNED_STRIDE),
        (ConvGeometry(4, 3, 1, 8, 2), None),  # s2 == 1 is an ordinary layer
        (ConvGeometry(3, 3, 1, 4, 2, StridePolicy.GENERIC), Fallback.UNALIGNED_STRIDE),
        (ConvGeometry(4, 1, 2, 8, 8, StridePolicy.GENERIC), None),  # stride 0
        (ConvGeometry(1, 1, 3, 1, 1), Fallback.MORE_MULTIPLIES),  # 864 + 768 >= 768
    ],
)
def test_fcfs_fallback_policy(geom, reason):
    # the engine rule is fcfs.py's LayerPlan; it reads the layout this module derives
    assert layer_plan(geom, derive_layout(geom), 16, 16).fallback is reason


class TestLayoutProperties:
    def test_generic_stride_below_k_over_r(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c_in = int(rng.integers(1, 17))
            s1 = int(rng.integers(1, 6))
            s2 = int(rng.integers(1, 6))
            c_out = int(rng.integers(1, 33))
            ratio = Fraction(1.0 + float(rng.random()) * (min(6, c_out) - 1.0))
            geom = ConvGeometry(c_in, s1, s2, c_out, ratio, StridePolicy.GENERIC)
            layout = derive_layout(geom)
            assert layout.stride < geom.filter_len / ratio <= geom.filter_len

    def test_nominal_cr_matches_ratio_up_to_floor(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            c_out = int(rng.integers(1, 33))
            geom = ConvGeometry(
                int(rng.integers(1, 17)),
                int(rng.integers(1, 6)),
                int(rng.integers(1, 6)),
                c_out,
                Fraction(1.0 + float(rng.random()) * (min(6, c_out) - 1.0)),
            )
            layout = derive_layout(geom)
            params = count_params(geom, layout)
            k, n = geom.filter_len, geom.c_out
            bound = geom.ratio * k * n / Fraction(layout.length * (layout.length + 1))
            assert abs(params.cr_nominal - geom.ratio) <= bound

    def test_predicted_ratio_band_for_tall_filters(self):
        # The closed form tends to ratio*s1 as K/s2 grows. The band below is
        # asserted where its derivation holds: K >= 50*s2 together with
        # 4*ratio*s1*s2 <= K (ratio <= 4, s1 <= 3 keeps the latter implied).
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 100:
            s1 = int(rng.integers(1, 4))
            s2 = int(rng.integers(2, 6))
            c_in = int(rng.integers(-(-50 // s1), 64))
            c_out = int(rng.integers(4, 65))
            ratio = Fraction(1.0 + float(rng.random()) * (min(4, c_out) - 1.0))
            geom = ConvGeometry(c_in, s1, s2, c_out, ratio)
            if geom.filter_len < 50 * s2:
                continue
            layout = derive_layout(geom)
            pred = predicted_acceleration(geom, layout, 4, 4)
            target = ratio * s1
            assert Fraction(8, 10) * target <= pred.ratio <= target
            checked += 1

    def test_channel_aligned_stride_residue_and_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            c_out = int(rng.integers(1, 33))
            geom = ConvGeometry(
                int(rng.integers(1, 17)),
                int(rng.integers(1, 6)),
                int(rng.integers(1, 6)),
                c_out,
                Fraction(1.0 + float(rng.random()) * (min(6, c_out) - 1.0)),
            )
            layout = derive_layout(geom)
            generic = (layout.length - 1) // geom.c_out
            assert layout.stride % geom.c_in == 0
            assert layout.stride <= generic

    @pytest.mark.parametrize("policy", list(StridePolicy))
    def test_filters_always_share_a_weight(self, policy):
        # derive_layout relies on stride <= K - 1 without checking it; the
        # tightest cases are ratio 1 and a single filter
        rng = np.random.default_rng(15)
        for _ in range(300):
            c_out = int(rng.integers(1, 33))
            ratio = Fraction(1.0 + float(rng.random()) * (c_out - 1.0))
            if rng.random() < 0.3:
                ratio = Fraction(1)
            geom = ConvGeometry(
                int(rng.integers(1, 17)), int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                c_out, ratio, policy,
            )
            try:
                layout = derive_layout(geom)
            except InvalidRatioError:
                continue
            assert layout.stride <= geom.filter_len - 1

    def test_layout_cached_per_geometry_and_refusals_not_cached(self):
        geom = ConvGeometry(**WORKED)
        assert derive_layout(geom) is derive_layout(ConvGeometry(**WORKED))
        refused = ConvGeometry(**{**WORKED, "ratio": 1000})  # summary 36 < K = 576
        before = derive_layout.cache_info()
        for _ in range(2):
            with pytest.raises(InvalidRatioError):
                derive_layout(refused)
        after = derive_layout.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (0, 2)
        assert after.maxsize == LAYOUT_CACHE_SIZE
