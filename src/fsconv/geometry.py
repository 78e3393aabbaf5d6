"""Layout derivation and cost accounting for weight-shared convolution layers.

All filters of a layer live inside one 1D weight vector, the filter summary.
Filter i is the contiguous segment of length K = c_in*s1*s2 starting at
i*stride, so consecutive filters overlap in K - stride weights and the whole
layer needs roughly K*c_out/ratio weights instead of K*c_out. This module
derives the summary length and filter stride from the layer shape, and counts
the parameters and multiplies implied by that layout.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateStrideError, InvalidRatioError, ShapeMismatchError

__all__ = [
    "StridePolicy",
    "Fallback",
    "ConvGeometry",
    "Layout",
    "ParamCount",
    "PredictedAcceleration",
    "derive_layout",
    "fcfs_fallback",
    "count_params",
    "predicted_acceleration",
]


class StridePolicy(enum.Enum):
    """Rule used to derive the filter stride from the nominal summary length.

    GENERIC
        stride = floor((L-1)/c_out). Densest packing, but generally not a
        multiple of c_in, which scatters the diagonals the fast convolution
        path needs across all channel residues.
    SLICE_ALIGNED
        Largest multiple of c_in*s1 (one filter slice) not exceeding the
        generic stride. Rounds to 0 for many realistic layer shapes, which
        would collapse all filters onto the same segment.
    CHANNEL_ALIGNED
        Largest multiple of c_in not exceeding the generic stride. Keeps the
        fast path's diagonal set channel-aligned without the degenerate
        behaviour of SLICE_ALIGNED. Default.
    """

    GENERIC = "generic"
    SLICE_ALIGNED = "slice"
    CHANNEL_ALIGNED = "channel"


@dataclass(frozen=True)
class ConvGeometry:
    """Static shape of one convolution layer plus its compression target.

    c_in, s1, s2, c_out are the usual channel/kernel/filter counts; ratio is
    the targeted parameter reduction factor for the layer (any rational >= 1,
    e.g. Fraction("3.7")).
    """

    c_in: int
    s1: int
    s2: int
    c_out: int
    ratio: Fraction = Fraction(1)
    stride_policy: StridePolicy = StridePolicy.CHANNEL_ALIGNED

    def __post_init__(self):
        for name in ("c_in", "s1", "s2", "c_out"):
            value = operator.index(getattr(self, name))
            if value < 1:
                raise ShapeMismatchError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        ratio = Fraction(self.ratio)
        if ratio < 1:
            raise InvalidRatioError(f"compression ratio must be >= 1, got {ratio}")
        object.__setattr__(self, "ratio", ratio)
        if not isinstance(self.stride_policy, StridePolicy):
            object.__setattr__(self, "stride_policy", StridePolicy(self.stride_policy))

    @property
    def filter_len(self) -> int:
        """Number of weights per filter, K = c_in*s1*s2."""
        return self.c_in * self.s1 * self.s2

    @property
    def slice_len(self) -> int:
        """Length of one filter slice, c_in*s1."""
        return self.c_in * self.s1


@dataclass(frozen=True)
class Layout:
    """Derived placement of filters inside the summary.

    length       nominal summary length, floor(K*c_out/ratio)
    stride       offset between consecutive filter starts
    slices       length in slice units, length/(c_in*s1), kept exact
    phys_length  allocated length, max(length, (c_out-1)*stride + K); the
                 excess over `length` is the padding that keeps the last
                 filter in bounds
    """

    length: int
    stride: int
    slices: Fraction
    phys_length: int


def derive_layout(geom: ConvGeometry) -> Layout:
    """Derive the summary layout for a layer shape.

    Raises InvalidRatioError when the summary would be shorter than one
    filter, and DegenerateStrideError when SLICE_ALIGNED rounds the stride
    to 0 (all filters identical).
    """
    k = geom.filter_len
    length = int(Fraction(k * geom.c_out) / geom.ratio)  # floor: num/den >= 0
    if length < k:
        raise InvalidRatioError(
            f"summary length {length} shorter than one filter ({k}); "
            f"ratio {geom.ratio} too aggressive for c_out={geom.c_out}"
        )
    generic = (length - 1) // geom.c_out
    if geom.stride_policy is StridePolicy.GENERIC:
        stride = generic
    elif geom.stride_policy is StridePolicy.SLICE_ALIGNED:
        stride = (generic // geom.slice_len) * geom.slice_len
        if stride == 0:
            raise DegenerateStrideError(
                f"slice-aligned stride is 0 (generic stride {generic} < "
                f"slice length {geom.slice_len}); all filters would coincide"
            )
    else:
        stride = (generic // geom.c_in) * geom.c_in
    assert stride <= k, "filters must overlap or touch when ratio >= 1"
    phys_length = max(length, (geom.c_out - 1) * stride + k)
    return Layout(
        length=length,
        stride=stride,
        slices=Fraction(length, geom.slice_len),
        phys_length=phys_length,
    )


class Fallback(enum.Enum):
    """Why the integral-line engine cannot run a layer."""

    S2_IS_1 = "s2_is_1"
    UNALIGNED_STRIDE = "unaligned_stride"


def fcfs_fallback(geom: ConvGeometry, layout: Layout) -> Fallback | None:
    """None if the integral-line engine can run the layer, else why not: one
    filter column shares nothing, and a filter stride off a multiple of c_in
    scatters the diagonals across channel residues."""
    if geom.s2 == 1:
        return Fallback.S2_IS_1
    if layout.stride % geom.c_in:
        return Fallback.UNALIGNED_STRIDE
    return None


@dataclass(frozen=True)
class ParamCount:
    """Parameter tally of one layer under the shared-weight layout.

    `fs` counts the allocated summary (padding included: those weights are
    real, trainable storage); `fs_nominal` is the unpadded length the
    compression target refers to. Both ratios are reported so the padding
    discrepancy stays visible.
    """

    baseline: int
    fs: int
    fs_nominal: int
    cr: Fraction
    cr_nominal: Fraction


def count_params(geom: ConvGeometry, layout: Layout) -> ParamCount:
    baseline = geom.filter_len * geom.c_out
    return ParamCount(
        baseline=baseline,
        fs=layout.phys_length,
        fs_nominal=layout.length,
        cr=Fraction(baseline, layout.phys_length),
        cr_nominal=Fraction(baseline, layout.length),
    )


@dataclass(frozen=True)
class PredictedAcceleration:
    """Closed-form multiply counts for a (d1, d2) feature map.

    naive_mults  c_out*d1*d2*K, the per-patch inner-product count
    fcfs_mults   c_in*d1*d2*slices + c_out*d1*d2*s2, the idealized cost of
                 the integral-line path (first stage plus s2 lookups per
                 output element); exact rational since `slices` is
    ratio        naive_mults / fcfs_mults
    accelerable  False when s2 == 1: the integral-line path cannot beat the
                 direct one there and the ratio must not be read as a
                 speedup
    """

    naive_mults: int
    fcfs_mults: Fraction
    ratio: Fraction
    accelerable: bool


def predicted_acceleration(
    geom: ConvGeometry, layout: Layout, d1: int, d2: int
) -> PredictedAcceleration:
    if d1 < 1 or d2 < 1:
        raise ShapeMismatchError(f"spatial size must be >= 1, got {d1}x{d2}")
    naive = geom.c_out * d1 * d2 * geom.filter_len
    fcfs = geom.c_in * d1 * d2 * layout.slices + geom.c_out * d1 * d2 * geom.s2
    return PredictedAcceleration(
        naive_mults=naive,
        fcfs_mults=fcfs,
        ratio=Fraction(naive) / fcfs,
        accelerable=fcfs_fallback(geom, layout) is not Fallback.S2_IS_1,
    )
