"""Reference convolution: one inner product per (filter, output position).

This is the ground truth the fast path is checked against: a plain stride-1,
same-padding cross-correlation with no bias, computed as one matrix product of
the patches, a strided view of the padded map, and the filter bank. Every
output element costs exactly K multiplies, so an instrumented run over a
(d1, d2) map totals c_out*d1*d2*K.
"""

from __future__ import annotations

import numpy as np

from .counters import MultCounter
from .errors import InvalidDtypeError, ShapeMismatchError
from .tensors import FeatureMap, FilterSummary

__all__ = ["ConvOutput", "pad_same", "check_conv_input", "naive_conv", "rel_dev"]


class ConvOutput(FeatureMap):
    """A layer's (c_out, d1, d2) output: the next layer's input map, its c_in named c_out."""

    @property
    def c_out(self) -> int:
        return self.c_in


def pad_same(fmap: FeatureMap, s1: int, s2: int) -> FeatureMap:
    """Zero-pad to spatial size (d1+s1-1, d2+s2-1), content centered with
    floor((s1-1)/2) leading rows and floor((s2-1)/2) leading columns."""
    lead1, lead2 = (s1 - 1) // 2, (s2 - 1) // 2
    padded = np.zeros((fmap.d2 + s2 - 1, fmap.d1 + s1 - 1, fmap.c_in), fmap.data.dtype)
    padded[lead2 : lead2 + fmap.d2, lead1 : lead1 + fmap.d1] = fmap.data.reshape(fmap.d2, fmap.d1, -1)
    return FeatureMap(fmap.c_in, fmap.d1 + s1 - 1, fmap.d2 + s2 - 1, padded.ravel())


def check_conv_input(fs: FilterSummary, fmap: FeatureMap) -> None:
    """Refuse a map whose channel count is not the layer's c_in, that is
    empty, or that holds no real numbers; both engines run this check first."""
    if fmap.c_in != fs.geom.c_in:
        raise ShapeMismatchError(
            f"feature map has {fmap.c_in} channels, layer expects {fs.geom.c_in}")
    if fmap.d1 < 1 or fmap.d2 < 1:
        raise ShapeMismatchError(f"feature map is {fmap.d1}x{fmap.d2}; both sizes must be >= 1")
    if fmap.data.dtype.kind not in "biuf":
        raise InvalidDtypeError(f"feature map has dtype {fmap.data.dtype}; need bool, int or float")


def naive_conv(fs: FilterSummary, fmap: FeatureMap, counter: MultCounter | None = None) -> ConvOutput:
    """Same-padding cross-correlation of every filter with the feature map.

    output(o, m, n) = sum_{i,j,k} filter_o[i, j, k] * padded[i, m+j, n+k].
    Filter o is the K summary entries from o*stride on, copied to one bank, as
    BLAS is faster on it than on overlapping rows. The patch at (m, n) is s2
    padded columns of c_in*s1 contiguous entries, in filter order; patches in
    (n, m) order times the bank's transpose is the channel-major output, the
    same bytes every run. A counter gets K multiplies, K-1 additions per output.
    """
    check_conv_input(fs, fmap)
    geom, d1, d2, w = fs.geom, fmap.d1, fmap.d2, np.ascontiguousarray(fs.weights)
    filters = np.ndarray((geom.c_out, geom.filter_len), w.dtype, w, 0,
                         (fs.layout.stride * w.itemsize, w.itemsize)).copy()
    x = pad_same(fmap, geom.s1, geom.s2).data
    cell = geom.c_in * x.itemsize  # the c_in channels at one padded (row, column)
    column = (d1 + geom.s1 - 1) * cell
    patches = np.ndarray((d2, d1, geom.s2, geom.slice_len), x.dtype, x, 0,
                         (column, cell, column, x.itemsize))
    out = patches.reshape(d2 * d1, geom.filter_len) @ filters.T
    if counter is not None:
        counter.multiplies += geom.c_out * d1 * d2 * geom.filter_len
        counter.additions += geom.c_out * d1 * d2 * (geom.filter_len - 1)
    return ConvOutput(geom.c_out, d1, d2, out.ravel())


def rel_dev(actual, reference) -> float:
    """Max absolute deviation normalized by the reference's max magnitude
    (unnormalized when the reference is all zeros)."""
    a = np.asarray(actual)
    b = np.asarray(reference)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff if scale == 0.0 else diff / scale
