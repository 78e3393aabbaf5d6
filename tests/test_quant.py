"""Linear weight grids, reconstruction bounds and the coded affine path."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

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
