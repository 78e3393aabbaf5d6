"""Fractional filter locations with exact gradients through the interpolation.

Instead of the fixed start i*stride, a filter may start at any real location
l in [0, L-K-1]: the extracted filter is the linear interpolation

    g = (1 + floor(l) - l) * F[floor(l) : floor(l)+K]
      + (l - floor(l))     * F[floor(l)+1 : floor(l)+K+1]

and l itself is driven by an unconstrained scalar through a sigmoid,
l = sigmoid(alpha) * (L - K - 1), so both endpoints of the last segment stay
inside the nominal summary for every finite alpha. g is piecewise linear and
continuous in l; its derivative jumps only at integer l, where the
right-hand value is used (and flagged).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import FSTooShortError, NonDifferentiableWarning, OutOfRangeError
from .tensors import FilterSummary

__all__ = [
    "locate",
    "locate_grad",
    "extract_fractional",
    "grad_alpha",
    "grad_summary",
    "init_alphas",
    "central_diff",
]


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _span(length: int, filter_len: int) -> int:
    span = length - filter_len - 1
    if span < 1:
        raise FSTooShortError(
            f"summary length {length} leaves no room for a fractional "
            f"filter of {filter_len} weights (need length > {filter_len + 1})"
        )
    return span


def locate(alpha: float, length: int, filter_len: int) -> float:
    """Map an unconstrained scalar to a start location in [0, L-K-1)."""
    return _sigmoid(alpha) * _span(length, filter_len)


def locate_grad(alpha: float, length: int, filter_len: int) -> float:
    """d location / d alpha = (L-K-1) * sigmoid(alpha) * (1 - sigmoid(alpha))."""
    sig = _sigmoid(alpha)
    return _span(length, filter_len) * sig * (1.0 - sig)


def _check_loc(fs: FilterSummary, loc: float) -> int:
    span = _span(fs.layout.length, fs.geom.filter_len)
    if not 0.0 <= loc <= span:
        raise OutOfRangeError(f"location {loc} outside [0, {span}]")
    return min(int(math.floor(loc)), span)


def extract_fractional(fs: FilterSummary, loc: float) -> np.ndarray:
    """Filter of length K starting at real location loc.

    At integer loc the interpolation weights are exactly (1, 0) and the
    result equals the plain segment bit for bit.
    """
    cell = _check_loc(fs, loc)
    return _extract_in_cell(fs, loc, cell)


def _extract_in_cell(fs: FilterSummary, loc: float, cell: int) -> np.ndarray:
    k = fs.geom.filter_len
    w_right = loc - cell
    lo = fs.weights[cell : cell + k]
    hi = fs.weights[cell + 1 : cell + 1 + k]
    return (1.0 - w_right) * lo + w_right * hi


def grad_alpha(fs: FilterSummary, alpha: float, upstream) -> float:
    """Chain rule through the interpolation and the sigmoid.

    Returns <upstream, F[cell+1 : cell+1+K] - F[cell : cell+K]> * dl/dalpha.
    When the location lands exactly on an integer this is the right-hand
    one-sided derivative; a NonDifferentiableWarning flags that case.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    k = fs.geom.filter_len
    if upstream.shape != (k,):
        raise ValueError(f"upstream must have shape ({k},), got {upstream.shape}")
    loc = locate(alpha, fs.layout.length, k)
    cell = _check_loc(fs, loc)
    if loc == cell:
        warnings.warn(
            f"location {loc} is an integer; returning the right-hand derivative",
            NonDifferentiableWarning,
            stacklevel=2,
        )
    diff = fs.weights[cell + 1 : cell + 1 + k] - fs.weights[cell : cell + k]
    return float(upstream @ diff) * locate_grad(alpha, fs.layout.length, k)


def grad_summary(fs: FilterSummary, loc: float, upstream) -> np.ndarray:
    """Gradient of <upstream, extract_fractional(fs, loc)> w.r.t. the summary.

    Dense vector of phys_length entries, nonzero only on the K+1 slots
    [floor(loc), floor(loc)+K]; the two shifted copies of upstream overlap in
    K-1 slots and their contributions sum.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    k = fs.geom.filter_len
    if upstream.shape != (k,):
        raise ValueError(f"upstream must have shape ({k},), got {upstream.shape}")
    cell = _check_loc(fs, loc)
    w_right = loc - cell
    grad = np.zeros(fs.layout.phys_length, dtype=np.float64)
    grad[cell : cell + k] += (1.0 - w_right) * upstream
    grad[cell + 1 : cell + 1 + k] += w_right * upstream
    return grad


def init_alphas(fs: FilterSummary, *, eps: float = 1e-9) -> np.ndarray:
    """Per-filter alphas whose locations reproduce the static layout.

    Filter i targets location i*stride. Targets at 0 or beyond L-K-1 are not
    reachable by a finite alpha (the last filters of a padded layout start
    past the fractional range), so the sigmoid argument is clipped to
    [eps, 1-eps] before inverting.
    """
    span = _span(fs.layout.length, fs.geom.filter_len)
    targets = np.arange(fs.geom.c_out, dtype=np.float64) * fs.layout.stride
    frac = np.clip(targets / span, eps, 1.0 - eps)
    return np.log(frac / (1.0 - frac))


def central_diff(f, x: float, step: float, tol: float = 1e-6) -> tuple[float, float]:
    """Central difference of f at x, and the denominator for a `tol`-relative
    check: below its resolution, ~eps*|f|/step, a component is measured
    against that floor instead of its own noise-dominated magnitude."""
    hi = f(x + step)
    lo = f(x - step)
    fd = (hi - lo) / (2.0 * step)
    noise = 64.0 * np.finfo(np.float64).eps * max(abs(hi), abs(lo)) / step
    return fd, max(abs(fd), noise / tol)
