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
import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidRatioError, ShapeMismatchError

__all__ = [
    "StridePolicy",
    "ConvGeometry",
    "Layout",
    "ParamCount",
    "PredictedAcceleration",
    "derive_layout",
    "count_params",
    "predicted_acceleration",
]

LAYOUT_CACHE_SIZE = 256  # layouts kept by derive_layout; ResNet-110 has 6 conv shapes


class StridePolicy(enum.Enum):
    """The unit the filter stride is rounded down to: the stride is the largest
    multiple of the unit not above the generic stride floor((L-1)/c_out).

    GENERIC
        Unit 1: the generic stride itself. Densest packing, but generally not
        a multiple of c_in, which scatters the diagonals the fast convolution
        path needs across all channel residues.
    SLICE_ALIGNED
        Unit c_in*s1, one filter slice.
    CHANNEL_ALIGNED
        Unit c_in. Keeps the fast path's diagonal set channel-aligned. Default.

    Every policy rounds to 0 when the generic stride is below its unit (for
    16->16 3x3 at ratio 16 under CHANNEL_ALIGNED, say): with c_out > 1 every
    filter is then the same K weights, which ConvGeometry.filters_coincide
    reports.
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
        ints = self.c_in, self.s1, self.s2, self.c_out, *ratio.as_integer_ratio()
        object.__setattr__(self, "_key", (*ints, list(StridePolicy).index(self.stride_policy)))

    def __hash__(self) -> int:  # of ints, so alike in every process
        return hash(self._key)

    def __eq__(self, other) -> bool:  # a cache lookup compares no Fraction
        return self._key == other._key if type(other) is type(self) else NotImplemented

    @property
    def filter_len(self) -> int:
        """Number of weights per filter, K = c_in*s1*s2."""
        return self.c_in * self.s1 * self.s2

    @property
    def slice_len(self) -> int:
        """Length of one filter slice, c_in*s1."""
        return self.c_in * self.s1

    def filters_coincide(self, stride: int) -> bool:
        """Whether all filters at this stride are the same K weights: stride 0 and c_out > 1."""
        return stride == 0 and self.c_out > 1


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
    slices: Fraction = field(compare=False)  # follows from length: a plan lookup hashes no Fraction
    phys_length: int


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def derive_layout(geom: ConvGeometry) -> Layout:
    """Derive the summary layout for a layer shape, memoized per geometry
    (a refused geometry is not cached).

    Raises InvalidRatioError when the summary would be shorter than one
    filter. A stride of 0 is a layout; ConvGeometry.filters_coincide tells
    whether its filters are all the same weights.
    """
    k = geom.filter_len
    length = int(Fraction(k * geom.c_out) / geom.ratio)  # floor: num/den >= 0
    if length < k:
        raise InvalidRatioError(
            f"summary length {length} shorter than one filter ({k}); "
            f"ratio {geom.ratio} too aggressive for c_out={geom.c_out}"
        )
    unit = {StridePolicy.GENERIC: 1, StridePolicy.SLICE_ALIGNED: geom.slice_len,
            StridePolicy.CHANNEL_ALIGNED: geom.c_in}[geom.stride_policy]
    stride = (length - 1) // geom.c_out // unit * unit
    # Every policy rounds the generic stride down, and ratio >= 1 gives
    # length <= K*c_out, so stride <= (K*c_out - 1) // c_out = K - 1:
    # consecutive filters always share at least one weight.
    phys_length = max(length, (geom.c_out - 1) * stride + k)
    return Layout(
        length=length,
        stride=stride,
        slices=Fraction(length, geom.slice_len),
        phys_length=phys_length,
    )


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
    """

    naive_mults: int
    fcfs_mults: Fraction
    ratio: Fraction


def predicted_acceleration(
    geom: ConvGeometry, layout: Layout, d1: int, d2: int
) -> PredictedAcceleration:
    if d1 < 1 or d2 < 1:
        raise ShapeMismatchError(f"spatial size must be >= 1, got {d1}x{d2}")
    naive = geom.c_out * d1 * d2 * geom.filter_len
    fcfs = geom.c_in * d1 * d2 * layout.slices + geom.c_out * d1 * d2 * geom.s2
    return PredictedAcceleration(naive_mults=naive, fcfs_mults=fcfs, ratio=Fraction(naive) / fcfs)
