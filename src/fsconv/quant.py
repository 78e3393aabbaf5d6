"""n-bit linear weight grids and exact affine inference on the coded weights.

A layer quantizes to evenly spaced levels between its own min and max:
tau = (w_max - w_min)/(2^nbits - 1) and code = nearest level index, so
reconstruction w_min + tau*code is off by at most tau/2. Because the grid is
affine, a dense layer can run directly on the integer codes: with shared
(w_min, tau) for weights and bias,

    y~ = tau * (codes_W @ x + codes_b) + w_min * (sum(x) + 1)

is algebraically identical to dequantizing first — the fast path costs the
dense multiply count plus one multiply per output element for the tau
scaling, one for the rank-one constant, and len(x) - 1 additions for the
input sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .counters import MultCounter
from .errors import EmptyInputError, InvalidGridError, ShapeMismatchError
from .tensors import _trusted

__all__ = [
    "QuantizedSummary",
    "quantize",
    "dequantize",
    "quantize_affine_layer",
    "quantized_affine_forward",
    "effective_params",
]

BIT_WIDTHS = (4, 8)  # the supported code widths; a q<n> model layer stores n-bit codes


def _check_grid(nbits: int, w_min: float = 0.0, w_max: float = 0.0) -> None:
    """Refuse a width not in BIT_WIDTHS, and endpoints inverted, not finite, too far or too near."""
    if nbits not in BIT_WIDTHS:
        raise InvalidGridError(f"nbits must be one of {BIT_WIDTHS}, got {nbits}")
    span = w_max - w_min  # not finite if an endpoint is not, or if it overflows (tau = inf)
    if not (math.isfinite(span) and w_min <= w_max):
        raise InvalidGridError(f"grid must be finite with w_min <= w_max, got [{w_min}, {w_max}]"
                               f" (w_max - w_min = {span})")
    tau = span / ((1 << nbits) - 1)
    if span and not (tau and span / tau + 0.5 < 1 << nbits):  # w_max's code, as quantize computes it
        raise InvalidGridError(f"grid [{w_min}, {w_max}] is too narrow for {nbits} bits:"
                               f" its step {tau} underflows")


def _read_only(values, dtype) -> np.ndarray:
    """A read-only `dtype` copy of `values`, as a view: numpy will not set its flag back."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array.view()


@dataclass(frozen=True)
class QuantizedSummary:
    """Level codes plus the per-layer grid needed to reconstruct them.

    codes are read-only uint8 in [0, 2^nbits - 1] (same shape as the source
    array); w_min / w_max are the exact grid endpoints: finite, w_min <= w_max.
    """

    codes: np.ndarray
    nbits: int
    w_min: float
    w_max: float

    def __post_init__(self):
        _check_grid(self.nbits, self.w_min, self.w_max)
        codes, top = np.asarray(self.codes), self.levels - 1  # as given: uint8 wraps 300 to 44
        if codes.dtype.kind not in "biu" and not (np.floor(codes) == codes).all():
            raise InvalidGridError(f"code {codes[np.floor(codes) != codes][0]} is not an integer")
        if codes.size and not 0 <= codes.min() <= codes.max() <= top:  # a mask only to name one
            bad, what = ((codes < 0, "is below 0") if codes.min() < 0
                         else (codes > top, f"exceeds {top}"))
            raise InvalidGridError(f"code {codes[bad][0]} {what}")
        object.__setattr__(self, "codes", _read_only(codes, np.uint8))

    _trusted = classmethod(_trusted)  # (codes, nbits, w_min, w_max): read-only uint8 codes

    @property
    def levels(self) -> int:
        return 1 << self.nbits

    @property
    def tau(self) -> float:
        """Grid step, (w_max - w_min)/(2^nbits - 1); 0 for a constant layer."""
        return (self.w_max - self.w_min) / (self.levels - 1)


def quantize(weights, nbits: int, *, w_min=None, w_max=None) -> QuantizedSummary:
    """Snap each weight to its nearest grid level.

    The grid endpoints default to the exact extrema of the input; pass
    w_min/w_max to place several arrays (e.g. a weight matrix and its bias)
    on one shared layer grid. Ties between levels round half away from zero.
    A constant input yields tau = 0 with all codes 0. Weights that are not
    finite, an invalid grid and a grid that does not hold every weight are
    refused before any code is computed.
    """
    codes = np.array(weights, dtype=np.float64)  # a copy: the one buffer the codes are computed in
    if codes.size == 0:
        raise EmptyInputError("cannot quantize an empty weight vector")
    low, high = float(codes.min()), float(codes.max())  # NaN if any weight is NaN
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidGridError("cannot quantize weights that are not finite")
    lo = low if w_min is None else float(w_min)
    hi = high if w_max is None else float(w_max)
    _check_grid(nbits, lo, hi)
    if not lo <= low <= high <= hi:
        raise InvalidGridError(f"weights in [{low}, {high}] fall outside the grid [{lo}, {hi}]")
    # arguments are >= 0, so half-away-from-zero is floor(q + 0.5)
    codes -= lo
    codes /= (hi - lo) / ((1 << nbits) - 1) or 1.0  # tau = 0: a constant layer, all codes 0
    codes += 0.5
    codes = np.floor(codes, out=codes).astype(np.uint8)
    codes.flags.writeable = False  # and a view of it cannot be made writable again
    return QuantizedSummary._trusted(codes.view(), nbits, lo, hi)


def dequantize(q: QuantizedSummary) -> np.ndarray:
    """Reconstruct w_min + tau*code (float64, same shape as the codes)."""
    weights = q.codes.astype(np.float64)
    weights *= q.tau
    return np.add(weights, q.w_min, out=weights)


def quantize_affine_layer(weight, bias, nbits: int) -> tuple[QuantizedSummary, QuantizedSummary]:
    """Quantize a dense layer's weight matrix and bias on one shared grid
    (one min/max pair per layer), as quantized_affine_forward requires."""
    w = np.asarray(weight, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    if w.size == 0 or b.size == 0:
        raise EmptyInputError("cannot quantize an empty layer")
    lo = min(float(w.min()), float(b.min()))
    hi = max(float(w.max()), float(b.max()))
    return (
        quantize(w, nbits, w_min=lo, w_max=hi),
        quantize(b, nbits, w_min=lo, w_max=hi),
    )


def quantized_affine_forward(
    q_w: QuantizedSummary,
    q_b: QuantizedSummary,
    x,
    counter: Optional[MultCounter] = None,
) -> np.ndarray:
    """Dense forward y~ = W~ @ x + b~ evaluated on the integer codes.

    W~ and b~ are the dequantized weights, but they are never formed: the
    integer path plus the rank-one correction w_min*(sum(x) + 1) gives the
    identical result. Requires q_w and q_b on the same grid (use
    quantize_affine_layer). x is a length-n vector for an (m, n) weight
    matrix.
    """
    if (q_w.nbits, q_w.w_min, q_w.w_max) != (q_b.nbits, q_b.w_min, q_b.w_max):
        raise InvalidGridError(
            "weight and bias must share one layer grid "
            f"(got {(q_w.w_min, q_w.w_max, q_w.nbits)} vs "
            f"{(q_b.w_min, q_b.w_max, q_b.nbits)}); quantize them together"
        )
    x = np.asarray(x, dtype=np.float64)
    if q_w.codes.ndim != 2 or q_b.codes.ndim != 1 or x.ndim != 1:
        raise ShapeMismatchError("expected a 2D weight matrix, 1D bias and 1D input")
    n_out, n_in = q_w.codes.shape
    if q_b.codes.shape != (n_out,) or x.shape != (n_in,):
        raise ShapeMismatchError(
            f"shapes disagree: W {q_w.codes.shape}, b {q_b.codes.shape}, x {x.shape}"
        )
    y0 = q_w.codes.astype(np.float64) @ x + q_b.codes.astype(np.float64)
    sx = float(x.sum())
    if counter is not None:
        counter.multiplies += n_out * n_in  # integer-code dense path
        counter.additions += n_out * (n_in - 1) + n_out
        counter.multiplies += n_out + 1  # tau scaling + rank-one constant
        counter.additions += (n_in - 1) + n_out  # input sum + correction add
    return q_w.tau * y0 + q_w.w_min * (sx + 1.0)


def effective_params(layers: Iterable[tuple[int, Optional[int]]]) -> Fraction:
    """Storage-normalized parameter count.

    Each layer is (weight_count, nbits) with nbits None for full precision.
    An 8-bit weight stores in a quarter of a float32, a 4-bit weight in an
    eighth; every quantized layer additionally keeps its two grid endpoints
    at full precision.
    """
    bits = 0  # 32 per float, nbits per code: one Fraction at the end, of the same value
    for count, nbits in layers:
        if count < 0:
            raise ShapeMismatchError(f"negative layer size {count}")
        if nbits is None:
            bits += 32 * count
        else:
            _check_grid(nbits)
            bits += count * nbits + 2 * 32
    return Fraction(bits, 32)
