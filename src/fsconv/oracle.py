"""Reference convolution: one inner product per (filter, output position).

This is the ground truth the fast path is checked against: a plain stride-1,
same-padding cross-correlation with no bias. It lowers the padded map along
its rows only (MEC: Cho & Brand, "MEC: Memory-efficient Convolution for Deep
Neural Network", ICML 2017): row m of padded column c is the s1*c_in values
a window starting at (m, c) reads, and the output is the sum of s2 matrix
products of overlapping row blocks of that one matrix with the filter bank's
s2 column blocks. Every output element costs exactly K multiplies, so an
instrumented run over a (d1, d2) map totals c_out*d1*d2*K.
"""

from __future__ import annotations

import numpy as np

from .counters import MultCounter
from .errors import ShapeMismatchError
from .geometry import ConvGeometry, Layout
from .tensors import FeatureMap, FilterSummary, _check_real, _compute_dtype

__all__ = ["ConvOutput", "pad_same", "check_conv_input", "naive_conv", "naive_nbytes", "rel_dev"]


class ConvOutput(FeatureMap):
    """A layer's (c_out, d1, d2) output: the next layer's input map, its c_in named c_out."""

    @property
    def c_out(self) -> int:
        return self.c_in


def pad_same(fmap: FeatureMap, s1: int, s2: int) -> FeatureMap:
    """Zero-pad to spatial size (d1+s1-1, d2+s2-1), content centered with
    floor((s1-1)/2) leading rows and floor((s2-1)/2) leading columns."""
    padded = _padded(fmap, s1, s2)
    p2, p1, _ = padded.shape  # ints, whatever types s1 and s2 came in
    return FeatureMap._trusted(fmap.c_in, p1, p2, padded.ravel())


def _padded(fmap: FeatureMap, s1: int, s2: int) -> np.ndarray:
    """pad_same's (d2+s2-1, d1+s1-1, c_in) array, which the engines read without a FeatureMap."""
    lead1, lead2 = (s1 - 1) // 2, (s2 - 1) // 2
    padded = np.zeros((fmap.d2 + s2 - 1, fmap.d1 + s1 - 1, fmap.c_in), fmap.data.dtype)
    padded[lead2 : lead2 + fmap.d2, lead1 : lead1 + fmap.d1] = fmap.data.reshape(fmap.d2, fmap.d1, -1)
    return padded


def check_conv_input(fs: FilterSummary, fmap: FeatureMap) -> None:
    """Refuse a map whose channel count is not the layer's c_in, that is
    empty, or that holds no real numbers; both engines run this check first."""
    if fmap.c_in != fs.geom.c_in:
        raise ShapeMismatchError(
            f"feature map has {fmap.c_in} channels, layer expects {fs.geom.c_in}")
    if fmap.d1 < 1 or fmap.d2 < 1:
        raise ShapeMismatchError(f"feature map is {fmap.d1}x{fmap.d2}; both sizes must be >= 1")
    _check_real(fmap.data, "feature map")


def naive_conv(fs: FilterSummary, fmap: FeatureMap, counter: MultCounter | None = None) -> ConvOutput:
    """Same-padding cross-correlation of every filter with the feature map.

    output(o, m, n) = sum_{i,j,k} filter_o[i, j, k] * padded[i, m+j, n+k].
    A counter gets K multiplies, K-1 additions per output.
    """
    check_conv_input(fs, fmap)
    return _lowered_conv(fs, fmap, counter)


def _lowered_conv(fs: FilterSummary, fmap: FeatureMap, counter: MultCounter | None) -> ConvOutput:
    """naive_conv on an input check_conv_input accepts, without checking it again.

    Filter o is the K summary entries from o*stride on. Where the stride is at
    least L = s1*c_in, no two filters overlap within a column block of that
    bank, so BLAS reads it in place; elsewhere, or for a summary not in the
    compute type, it reads a copy. Row c*d1 + m of the lowered matrix is the L
    contiguous entries of padded column c from row m on, so row (n+k)*d1 + m
    is column k of output (m, n)'s window, and the contiguous block
    rows[k*d1 : k*d1 + d1*d2] holds it for every output in (n, m) order. The
    output is sum_k block_k @ bank[:, k*L : (k+1)*L].T, added in order
    k = 0 .. s2-1: channel-major, the same bytes every run. For s1 = 1 (or
    d1 = 1) the rows are a view of the padded map; for s2 = 1 they are the
    whole patch matrix.
    """
    geom, d1, d2, w = fs.geom, fmap.d1, fmap.d2, np.ascontiguousarray(fs.weights)
    dtype, span = _compute_dtype(fmap.data, w), geom.slice_len
    bank = np.ndarray((geom.c_out, geom.filter_len), w.dtype, w, 0,
                      (fs.layout.stride * w.itemsize, w.itemsize))
    if fs.layout.stride < span or w.dtype != dtype:  # overlapping rows, which BLAS cannot read
        bank = bank.astype(dtype, order="C")
    x = _padded(fmap, geom.s1, geom.s2).astype(dtype, copy=False)
    cell = geom.c_in * x.itemsize  # bytes of one padded cell
    rows = np.ndarray((d2 + geom.s2 - 1, d1, span), x.dtype, x, 0,
                      ((d1 + geom.s1 - 1) * cell, cell, x.itemsize)).reshape(-1, span)
    out = rows[: d1 * d2] @ bank[:, :span].T
    for k in range(1, geom.s2):  # fixed order: bit-stable
        out += rows[k * d1 : k * d1 + d1 * d2] @ bank[:, k * span : (k + 1) * span].T
    if counter is not None:
        counter.multiplies += geom.c_out * d1 * d2 * geom.filter_len
        counter.additions += geom.c_out * d1 * d2 * (geom.filter_len - 1)
    return ConvOutput._trusted(geom.c_out, d1, d2, out.ravel())


def naive_nbytes(geom: ConvGeometry, layout: Layout, d1: int, d2: int, itemsize: int) -> int:
    """Bytes one naive_conv call on a map and summary of one float type allocates beyond
    the padded map and the output: the lowered rows, (d2+s2-1)*d1*s1*c_in entries (none
    for s1 = 1 or d1 = 1, where they are the padded map), the c_out x K bank where the
    filter stride is below s1*c_in (none elsewhere: it is read in place), and for s2 > 1
    one partial product."""
    rows = (d2 + geom.s2 - 1) * d1 * geom.slice_len if geom.s1 > 1 and d1 > 1 else 0
    bank = geom.c_out * geom.filter_len if layout.stride < geom.slice_len else 0
    partial = geom.c_out * d1 * d2 if geom.s2 > 1 else 0
    return itemsize * (rows + bank + partial)


def rel_dev(actual, reference) -> float:
    """Max absolute deviation normalized by the reference's max magnitude
    (unnormalized when the reference is all zeros)."""
    a = np.asarray(actual)
    b = np.asarray(reference)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff if scale == 0.0 else diff / scale
