"""Linear weight grids, reconstruction bounds and the coded affine path."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fsconv import (
    MultCounter,
    QuantizedSummary,
    dequantize,
    effective_params,
    quantize,
    quantize_affine_layer,
    quantized_affine_forward,
)
from fsconv.errors import EmptyInputError, FilterSummaryError, InvalidGridError, ShapeMismatchError


class TestQuantize:
    def test_hand_example(self):
        q = quantize(np.array([-1.0, 0.0, 1.0]), 8)
        assert (q.w_min, q.w_max) == (-1.0, 1.0)
        assert q.tau == 2.0 / 255.0
        # 0 sits at level 127.5; half away from zero rounds up to 128
        assert q.codes.tolist() == [0, 128, 255]
        recon = dequantize(q)
        assert abs(recon[1] - 1.0 / 255.0) < 1e-15

    def test_constant_vector(self):
        q = quantize(np.full(7, 3.25), 8)
        assert q.tau == 0.0
        assert not q.codes.any()
        assert np.array_equal(dequantize(q), np.full(7, 3.25))

    def test_extrema_reconstruct_exactly(self):
        for nbits in (4, 8):
            rng = np.random.default_rng(nbits)
            w = rng.standard_normal(50)
            q = quantize(w, nbits)
            recon = dequantize(q)
            assert recon[np.argmin(w)] == q.w_min
            assert q.codes[np.argmax(w)] == (1 << nbits) - 1
            assert abs(recon[np.argmax(w)] - q.w_max) < 1e-12

    def test_reconstruction_bound(self):
        rng = np.random.default_rng(0)
        for nbits in (4, 8):
            for _ in range(50):
                w = rng.standard_normal(int(rng.integers(2, 200))) * float(
                    rng.uniform(0.1, 10)
                )
                q = quantize(w, nbits)
                err = np.max(np.abs(w - dequantize(q)))
                assert err <= q.tau / 2 + 1e-12 * abs(q.tau)

    def test_idempotent_after_dequantize(self):
        rng = np.random.default_rng(1)
        for nbits in (4, 8):
            w = rng.standard_normal(100)
            q = quantize(w, nbits)
            again = quantize(dequantize(q), nbits)
            assert np.array_equal(q.codes, again.codes)
            # re-derived extrema sit on the grid: w_min exactly, w_max up to
            # the rounding of w_min + tau*(levels-1)
            assert again.w_min == q.w_min
            assert again.w_max == pytest.approx(q.w_max, rel=1e-14)
            assert np.max(np.abs(dequantize(again) - dequantize(q))) <= 1e-14

    def test_codes_monotone_in_weights(self):
        rng = np.random.default_rng(2)
        w = np.sort(rng.standard_normal(200))
        for nbits in (4, 8):
            codes = quantize(w, nbits).codes
            assert (np.diff(codes.astype(int)) >= 0).all()

    def test_validation(self):
        with pytest.raises(EmptyInputError):
            quantize(np.array([]), 8)
        with pytest.raises(EmptyInputError, match="^cannot quantize an empty layer$"):
            quantize_affine_layer(np.eye(2), np.array([]), 8)  # an empty bias
        with pytest.raises(ValueError):
            quantize(np.ones(3), 6)

    @pytest.mark.parametrize(
        "w_min, w_max",
        [(1.0, -1.0), (float("nan"), 1.0), (0.0, float("nan")), (float("-inf"), 0.0),
         (-1e308, 1e308)],  # the last: finite endpoints, but w_max - w_min overflows
    )
    def test_grid_must_be_finite_and_ordered(self, w_min, w_max):
        with pytest.raises(InvalidGridError) as info:
            QuantizedSummary(np.zeros(3, dtype=np.uint8), 8, w_min, w_max)
        assert isinstance(info.value, FilterSummaryError)
        assert isinstance(info.value, ValueError)

    def test_inverted_shared_grid_refused(self):
        with pytest.raises(InvalidGridError):
            quantize(np.zeros(3), 8, w_min=1.0, w_max=-1.0)

    @pytest.mark.parametrize("nbits", [0, 2, 6, 16])
    def test_unsupported_width_is_a_grid_error(self, nbits):
        with pytest.raises(InvalidGridError, match=f"nbits must be one of \\(4, 8\\), got {nbits}"):
            quantize(np.ones(3), nbits)
        with pytest.raises(InvalidGridError, match="nbits must be one of"):
            QuantizedSummary(np.zeros(3, dtype=np.uint8), nbits, 0.0, 1.0)
        with pytest.raises(InvalidGridError, match="nbits must be one of"):
            effective_params([(10, nbits)])

    def test_code_above_the_grid_is_a_grid_error(self):
        with pytest.raises(InvalidGridError, match="code 16 exceeds 15"):
            QuantizedSummary(np.array([0, 16], dtype=np.uint8), 4, 0.0, 1.0)

    @pytest.mark.parametrize("codes, nbits, message", [
        (np.array([300, 1]), 8, "code 300 exceeds 255"),  # was stored as 44
        (np.array([-1, 2]), 8, "code -1 is below 0"),  # was stored as 255
        (np.array([3.7, 1.2]), 8, "code 3.7 is not an integer"),  # was stored as 3
        ([256, 0], 8, "code 256 exceeds 255"),  # was a bare OverflowError
        (np.array([-1, 2]), 4, "code -1 is below 0"),  # was refused as code 255
        (np.array([np.nan, 2.0]), 4, "code nan is not an integer"),
    ], ids=["above_8", "negative_8", "fraction", "list_above", "negative_4", "nan"])
    def test_codes_checked_as_given_before_the_cast(self, codes, nbits, message):
        with pytest.raises(InvalidGridError, match=f"^{message}$"):
            QuantizedSummary(codes, nbits, 0.0, 1.0)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64])
    def test_each_dtype_refused_by_its_first_offending_code(self, dtype):
        # integer codes skip the integer test, and the range is read from the
        # extremes; a refusal still names the first offending code in order,
        # below 0 before above the top, and a fraction before either
        cases = [([3, 20, 17, 0], "code 20 exceeds 15")]
        if dtype is not np.uint8:
            cases.append(([16, 2, -3, -1], "code -3 is below 0"))
        if dtype is np.float64:
            cases.append(([-1, 16, 2.5, np.inf], "code 2.5 is not an integer"))
            cases.append(([1, np.inf], "code inf exceeds 15"))
        for values, message in cases:
            codes = np.array(values, dtype)
            if dtype is np.float64:  # numpy prints a float code with its point
                message = message.replace("20 ", "20.0 ").replace("-3 ", "-3.0 ")
            with pytest.raises(InvalidGridError, match=f"^{message}$"):
                QuantizedSummary(codes, 4, 0.0, 1.0)
        q = QuantizedSummary(np.array([15, 0, 7], dtype), 4, 0.0, 1.0)
        assert q.codes.dtype == np.uint8 and q.codes.tolist() == [15, 0, 7]
        assert QuantizedSummary(np.array([], dtype), 4, 0.0, 1.0).codes.size == 0

    def test_whole_codes_of_any_dtype_are_stored_as_uint8(self):
        for codes in (np.array([15.0, 0.0]), [15, 0], np.array([15, 0], dtype=np.int64)):
            q = QuantizedSummary(codes, 4, 0.0, 1.0)
            assert q.codes.dtype == np.uint8 and q.codes.tolist() == [15, 0]

    def test_grid_must_hold_the_weights(self):
        with pytest.raises(InvalidGridError, match=r"^weights in \[0.0, 2.0\] fall outside the grid "
                                                   r"\[0.5, 1.5\]$"):
            quantize(np.array([0.0, 1.0, 2.0]), 8, w_min=0.5, w_max=1.5)  # was clipped to 0.5, 1.5
        with pytest.raises(InvalidGridError, match="fall outside the grid"):
            quantize(np.array([1.0, 2.0]), 4, w_min=1.5)
        q = quantize(np.array([1.0, 2.0]), 4, w_min=0.0, w_max=2.0)  # a covering grid still works
        assert q.codes.tolist() == [8, 15]

    @pytest.mark.parametrize("weights, nbits", [
        ([0.0, 5e-324, 1e-323], 8),  # tau = 1e-323 / 255 is 0: codes [0, 255, 255], all dequantized 0
        ([0.0, 300 * 5e-324], 8),  # tau rounds to 5e-324: the top weight's code would be 300
        ([0.0, 1e-322], 4),
    ], ids=["zero_step", "code_past_the_top", "zero_step_4"])
    def test_underflowing_step_refused(self, weights, nbits):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the typed error
            with pytest.raises(InvalidGridError, match=f"is too narrow for {nbits} bits"):
                quantize(np.array(weights), nbits)
            with pytest.raises(InvalidGridError, match="its step .* underflows$"):
                QuantizedSummary(np.zeros(2, dtype=np.uint8), nbits, weights[0], weights[-1])
        q = quantize(np.array([0.0, 1e-300]), 8)  # a small grid whose step is normal still works
        assert q.codes.tolist() == [0, 255] and dequantize(q)[-1] == pytest.approx(1e-300)

    def test_codes_are_read_only(self):
        q = quantize(np.linspace(0.0, 1.0, 5), 4)
        with pytest.raises(ValueError, match="read-only"):
            q.codes[1] = 255
        assert q.codes.tolist() == [0, 4, 8, 11, 15]
        codes = np.array([1, 2], dtype=np.uint8)  # a caller's writable array keeps its flags
        stored = QuantizedSummary(codes, 4, 0.0, 1.0).codes
        assert codes.flags.writeable and not stored.flags.writeable
        codes[0] = 9
        assert stored.tolist() == [1, 2]
        assert not np.shares_memory(QuantizedSummary(stored, 4, 0.0, 1.0).codes, stored)  # copied
        for frozen in (q.codes, stored):
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
                frozen.flags.writeable = True

    def test_trusted_build_refuses_a_wrong_field_count(self):
        with pytest.raises(ValueError, match="shorter"):  # not an instance without w_min, w_max
            QuantizedSummary._trusted(np.zeros(2, dtype=np.uint8), 4)

    @pytest.mark.parametrize("grid", [{}, {"w_min": -1.0, "w_max": 1.0}], ids=["own", "shared"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_refused_before_any_code(self, grid, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match="not finite"):
                quantize(np.array([0.0, value, 1.0]), 8, **grid)
            with pytest.raises(InvalidGridError, match="finite"):  # the bias or the shared grid
                quantize_affine_layer(np.eye(2), np.array([0.0, value]), 4)

    def test_overflowing_span_refused(self):
        # tau would be inf: every code 0, and every dequantized weight NaN
        with pytest.raises(InvalidGridError, match=r"w_max - w_min = inf"):
            quantize(np.array([-1e308, 0.0, 1e308]), 8)
        with pytest.raises(InvalidGridError, match="grid must be finite"):
            quantize_affine_layer(np.array([[-1e308]]), np.array([1e308]), 4)
        q = quantize(np.array([-8e307, 8e307]), 8)  # the widest spans still quantize
        assert np.all(np.isfinite(dequantize(q)))

    def test_bad_shared_grid_refused_before_any_code(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match="grid must be finite"):
                quantize(np.ones(3), 8, w_min=np.nan, w_max=1.0)

    def test_shape_preserved(self):
        q = quantize(np.zeros((3, 4)), 8)
        assert q.codes.shape == (3, 4)


def weight_arrays():
    """Weights of the input dtypes quantize takes: f16, f32, f64 and int."""
    dtypes = st.sampled_from([np.float16, np.float32, np.float64, np.int32])
    shapes = hnp.array_shapes(max_dims=2, max_side=12)

    def elements(dtype):
        if dtype == np.int32:
            return st.integers(-(2**31), 2**31 - 1)
        bound = float(np.finfo(dtype).max) / 4  # so that w_max - w_min stays finite
        return st.floats(-bound, bound, width=np.finfo(dtype).bits)

    return dtypes.flatmap(lambda dtype: hnp.arrays(dtype, shapes, elements=elements(dtype)))


class TestQuantizerProperty:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(weight_arrays(), st.sampled_from([4, 8]))
    def test_codes_and_reconstruction_are_the_literal_formulas(self, weights, nbits):
        w = weights.astype(np.float64)
        lo, hi = float(w.min()), float(w.max())
        tau = (hi - lo) / ((1 << nbits) - 1)
        try:
            q = quantize(weights, nbits)
        except InvalidGridError:  # only a step that underflows is refused
            assert 0 < hi - lo and not (tau and (hi - lo) / tau + 0.5 < 1 << nbits)
            return
        expected = np.zeros(w.shape) if hi == lo else np.floor((w - lo) / tau + 0.5)
        assert (q.w_min, q.w_max, q.tau) == (lo, hi, tau)
        assert q.codes.dtype == np.uint8 and np.array_equal(q.codes, expected)
        assert dequantize(q).tobytes() == (lo + tau * q.codes.astype(np.float64)).tobytes()


class TestQuantizedAffineForward:
    def test_identity_weight_example(self):
        q_w, q_b = quantize_affine_layer(np.eye(2), np.zeros(2), 8)
        x = np.array([3.0, 5.0])
        y = quantized_affine_forward(q_w, q_b, x)
        dense = dequantize(q_w) @ x + dequantize(q_b)
        bound = q_w.tau / 2 * (np.sum(np.abs(x)) + 1)
        assert np.max(np.abs(y - np.array([3.0, 5.0]))) <= bound + 1e-12
        assert np.max(np.abs(y - dense)) <= 1e-12

    def test_zero_input_returns_dequantized_bias(self):
        rng = np.random.default_rng(3)
        q_w, q_b = quantize_affine_layer(rng.standard_normal((4, 6)), rng.standard_normal(4), 8)
        y = quantized_affine_forward(q_w, q_b, np.zeros(6))
        assert np.array_equal(y, dequantize(q_b))

    def test_identity_with_dense_path(self):
        rng = np.random.default_rng(4)
        for nbits in (4, 8):
            for _ in range(20):
                n_out = int(rng.integers(1, 12))
                n_in = int(rng.integers(1, 12))
                w = rng.standard_normal((n_out, n_in)) * 3
                b = rng.standard_normal(n_out)
                x = rng.standard_normal(n_in)
                q_w, q_b = quantize_affine_layer(w, b, nbits)
                fast = quantized_affine_forward(q_w, q_b, x)
                dense = dequantize(q_w) @ x + dequantize(q_b)
                scale = max(np.max(np.abs(dense)), 1e-12)
                assert np.max(np.abs(fast - dense)) / scale <= 1e-12

    def test_multiply_overhead_is_small(self):
        # beyond the dense product: one multiply per output for the grid
        # step, one for the rank-one constant
        q_w, q_b = quantize_affine_layer(np.ones((5, 7)), np.ones(5), 8)
        counter = MultCounter()
        quantized_affine_forward(q_w, q_b, np.ones(7), counter)
        assert counter.multiplies == 5 * 7 + 5 + 1

    def test_mismatched_grids_rejected(self):
        q_w = quantize(np.eye(2), 8)
        q_b = quantize(np.array([5.0, 6.0]), 8)
        with pytest.raises(InvalidGridError, match="share one layer grid"):
            quantized_affine_forward(q_w, q_b, np.ones(2))

    def test_shape_validation(self):
        q_w, q_b = quantize_affine_layer(np.eye(3), np.zeros(3), 8)
        with pytest.raises(ShapeMismatchError):
            quantized_affine_forward(q_w, q_b, np.ones(4))
        q_w, q_b = quantize_affine_layer(np.ones(3), np.zeros(3), 8)  # a 1D weight
        with pytest.raises(ShapeMismatchError, match="^expected a 2D weight matrix"):
            quantized_affine_forward(q_w, q_b, np.ones(3))


class TestEffectiveParams:
    def test_byte_packing_rule(self):
        assert effective_params([(1_000_000, 8)]) == 250_002

    def test_nibble_packing_rule(self):
        assert effective_params([(80, 4)]) == 12

    def test_unquantized_identity(self):
        assert effective_params([(123, None), (45, None)]) == 168

    def test_mixed(self):
        total = effective_params([(100, 8), (100, 4), (100, None)])
        assert total == Fraction(25 + 2) + Fraction(25, 2) + 2 + 100

    def test_equals_the_sum_of_per_layer_fractions(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            layers = [(int(rng.integers(0, 10**7)), (None, 4, 8)[int(rng.integers(3))])
                      for _ in range(int(rng.integers(0, 12)))]
            expected = sum((Fraction(count) if nbits is None else Fraction(count * nbits, 32) + 2
                            for count, nbits in layers), Fraction(0))
            total = effective_params(layers)
            assert type(total) is Fraction and total == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_params([(10, 5)])
        with pytest.raises(ValueError):
            effective_params([(-1, None)])
