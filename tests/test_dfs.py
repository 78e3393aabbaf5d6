"""Fractional filter locations: interpolation, bounds and exact gradients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fsconv import (
    ConvGeometry,
    FilterSummary,
    StridePolicy,
    central_diff,
    extract_filter,
    extract_fractional,
    grad_alpha,
    grad_summary,
    init_alphas,
    locate,
    locate_grad,
)
from fsconv.dfs import _extract_in_cell
from fsconv.errors import FSTooShortError, NonDifferentiableWarning, OutOfRangeError


def ramp_summary():
    """K=2 filters over the summary [0, 1, 2, 3, 4] (L = phys = 5)."""
    geom = ConvGeometry(1, 2, 1, 3, Fraction(6, 5), StridePolicy.GENERIC)
    fs = FilterSummary.from_weights(geom, np.arange(5.0))
    assert fs.layout.length == 5 and fs.layout.phys_length == 5
    return fs


def random_summary(seed, *, c_out=6):
    geom = ConvGeometry(2, 3, 2, c_out, 2, StridePolicy.CHANNEL_ALIGNED)
    return FilterSummary.random(geom, seed=seed)


class TestLocate:
    def test_midpoint(self):
        assert locate(0.0, 11, 2) == 4.0  # sigmoid(0) * (11 - 2 - 1)

    def test_sigmoid_limits(self):
        assert locate(-60.0, 11, 2) == pytest.approx(0.0, abs=1e-20)
        assert locate(60.0, 11, 2) == pytest.approx(8.0, abs=1e-20)
        assert 0.0 <= locate(-60.0, 11, 2) < locate(60.0, 11, 2) < 9.0

    def test_strictly_monotone(self):
        alphas = np.linspace(-6, 6, 50)
        locs = [locate(a, 101, 10) for a in alphas]
        assert all(x < y for x, y in zip(locs, locs[1:]))

    def test_too_short(self):
        with pytest.raises(FSTooShortError):
            locate(0.0, 3, 2)
        with pytest.raises(FSTooShortError):
            locate(0.0, 5, 4)

    def test_grad_positive_and_consistent(self):
        for alpha in (-2.0, 0.0, 1.5):
            g = locate_grad(alpha, 11, 2)
            assert g > 0
            h = 1e-6
            fd = (locate(alpha + h, 11, 2) - locate(alpha - h, 11, 2)) / (2 * h)
            assert abs(g - fd) <= 1e-8 * abs(fd)


class TestExtractFractional:
    def test_hand_interpolation(self):
        fs = ramp_summary()
        assert np.array_equal(extract_fractional(fs, 1.5), [1.5, 2.5])

    def test_integer_location_is_bit_exact(self):
        fs = random_summary(0)
        for i in range(3):
            loc = float(i * fs.layout.stride)
            if loc > fs.layout.length - fs.geom.filter_len - 1:
                continue
            frac = extract_fractional(fs, loc)
            start = int(loc)
            assert np.array_equal(frac, fs.weights[start : start + fs.geom.filter_len])

    def test_constant_summary_constant_result(self):
        geom = ConvGeometry(1, 2, 1, 3, Fraction(6, 5), StridePolicy.GENERIC)
        fs = FilterSummary.from_weights(geom, np.full(5, 2.5))
        for loc in (0.0, 0.3, 1.9, 2.0):
            assert np.array_equal(extract_fractional(fs, loc), [2.5, 2.5])

    def test_convexity_elementwise(self):
        rng = np.random.default_rng(1)
        fs = random_summary(2)
        span = fs.layout.length - fs.geom.filter_len - 1
        for _ in range(50):
            loc = float(rng.uniform(0, span))
            g = extract_fractional(fs, loc)
            cell = int(math.floor(loc))
            k = fs.geom.filter_len
            lo = np.minimum(fs.weights[cell : cell + k], fs.weights[cell + 1 : cell + 1 + k])
            hi = np.maximum(fs.weights[cell : cell + k], fs.weights[cell + 1 : cell + 1 + k])
            assert (g >= lo - 1e-12).all() and (g <= hi + 1e-12).all()

    def test_continuous_across_integer_boundaries(self):
        fs = random_summary(3)
        span = fs.layout.length - fs.geom.filter_len - 1
        for cell in range(1, min(span, 6)):
            left_limit = _extract_in_cell(fs, float(cell), cell - 1)
            right_value = _extract_in_cell(fs, float(cell), cell)
            assert np.max(np.abs(left_limit - right_value)) <= 1e-12

    def test_out_of_range(self):
        fs = ramp_summary()
        with pytest.raises(OutOfRangeError):
            extract_fractional(fs, -0.1)
        with pytest.raises(OutOfRangeError):
            extract_fractional(fs, 2.5)  # span is 5-2-1 = 2


class TestGradAlpha:
    def test_constant_summary_zero_gradient(self):
        geom = ConvGeometry(1, 2, 1, 3, Fraction(6, 5), StridePolicy.GENERIC)
        fs = FilterSummary.from_weights(geom, np.full(5, 2.5))
        for alpha in (-1.0, 0.2, 3.0):
            assert grad_alpha(fs, alpha, np.ones(2)) == 0.0

    def test_hand_chain_rule(self):
        fs = ramp_summary()
        alpha = math.log(3)  # sigmoid = 3/4, location = 1.5 on span 2
        expected = 2.0 * locate_grad(alpha, 5, 2)
        assert grad_alpha(fs, alpha, np.ones(2)) == pytest.approx(expected, rel=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        fs = random_summary(5)
        k = fs.geom.filter_len
        length = fs.layout.length
        step = 1e-5
        checked = 0
        while checked < 100:
            alpha = float(rng.uniform(-4, 4))
            loc = locate(alpha, length, k)
            # keep the whole FD window inside one interpolation cell
            if abs(loc - round(loc)) <= max(2 * locate_grad(alpha, length, k) * step, 1e-9):
                continue
            upstream = rng.standard_normal(k)
            analytic = grad_alpha(fs, alpha, upstream)
            f = lambda a: float(upstream @ extract_fractional(fs, locate(a, length, k)))
            fd, denom = central_diff(f, alpha, step)
            assert abs(analytic - fd) <= 1e-6 * denom
            checked += 1

    def test_integer_location_flagged_right_derivative(self):
        fs = ramp_summary()
        alpha = 0.0  # location = 1.0 exactly
        with pytest.warns(NonDifferentiableWarning):
            g = grad_alpha(fs, alpha, np.ones(2))
        # right-hand cell [1, 2): slope (F[2:4] - F[1:3]) @ 1 = 2
        assert g == pytest.approx(2.0 * locate_grad(alpha, 5, 2), rel=1e-12)


class TestGradSummary:
    def test_integer_location_scatters_one_segment(self):
        fs = ramp_summary()
        g = grad_summary(fs, 1.0, np.array([2.0, 5.0]))
        assert np.array_equal(g, [0.0, 2.0, 5.0, 0.0, 0.0])

    def test_weights_sum_to_one_per_upstream_entry(self):
        fs = random_summary(6)
        k = fs.geom.filter_len
        g = grad_summary(fs, 2.25, np.ones(k))
        assert g.sum() == pytest.approx(k, rel=1e-12)
        assert np.count_nonzero(g) <= k + 1

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        fs = random_summary(8)
        k = fs.geom.filter_len
        span = fs.layout.length - k - 1
        for _ in range(5):
            loc = float(rng.uniform(0.05, span - 0.05))
            if abs(loc - round(loc)) < 0.01:
                continue
            upstream = rng.standard_normal(k)
            grad = grad_summary(fs, loc, upstream)
            cell = int(math.floor(loc))
            for idx in range(cell, cell + k + 1):
                def perturbed(w, idx=idx):
                    summary = fs.weights.copy()
                    summary[idx] = w
                    probe = FilterSummary(fs.geom, fs.layout, summary)
                    return float(upstream @ extract_fractional(probe, loc))

                fd, denom = central_diff(perturbed, float(fs.weights[idx]), 1e-6)
                assert abs(grad[idx] - fd) <= 1e-6 * denom
            # untouched slots stay zero
            assert not g_outside_window(grad, cell, k).any()


def g_outside_window(grad, cell, k):
    mask = np.ones_like(grad, dtype=bool)
    mask[cell : cell + k + 1] = False
    return grad[mask]


class TestInitAlphas:
    def test_reduces_to_static_layout(self):
        fs = random_summary(9)
        alphas = init_alphas(fs)
        span = fs.layout.length - fs.geom.filter_len - 1
        for i, alpha in enumerate(alphas):
            target = min(i * fs.layout.stride, span)
            loc = locate(float(alpha), fs.layout.length, fs.geom.filter_len)
            if 0 < target < span:
                assert loc == pytest.approx(target, abs=1e-6)
                frac = extract_fractional(fs, loc)
                static = extract_filter(fs, i)
                assert np.max(np.abs(frac - static)) <= 1e-6
            else:
                # unreachable endpoints are clipped toward 0 / span
                assert loc == pytest.approx(target, abs=1e-3)
