"""Reference convolution: one inner product per (filter, output position).

This is the ground truth the fast path is checked against: a plain stride-1,
same-padding cross-correlation with no bias. It lowers the padded map along
its rows only (MEC: Cho & Brand, "MEC: Memory-efficient Convolution for Deep
Neural Network", ICML 2017): row m of padded column c is the s1*c_in values
a window starting at (m, c) reads, and the output is the sum of s2 matrix
products of overlapping row blocks of that one matrix with the filter bank's
s2 column blocks. Every output element costs exactly K multiplies, so an
instrumented run over a (d1, d2) map totals c_out*d1*d2*K.

A layer's LoweredPlan, on its LayerPlan record (fcfs.py), decides the bank's layout: read in
place where the filter stride is at least s1*c_in, else copied K-major (K x c_out, so BLAS
multiplies each column block untransposed) where at least KMAJOR_OUTPUTS = 36 outputs share a
bank of at most KMAJOR_BANK_BYTES = 256 KiB, else copied C-ordered: the K-major copy transposes,
which costs more than it saves on tiny maps and large banks (f32, 16->16 3x3 at 32x32: 119 ->
97 us; 64->64 at 4x4: 40 -> 50 us; the other shapes at _lowered_conv). A bank to be read in
place from a summary at a misaligned address, as FSN1 payloads load, is copied C-ordered
instead, which gives the bytes of an aligned summary; BLAS would copy it its own way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import MultCounter
from .errors import ShapeMismatchError
from .tensors import FeatureMap, FilterSummary, _check_real, _compute_dtype

__all__ = ["KMAJOR_OUTPUTS", "KMAJOR_BANK_BYTES", "ConvOutput", "LoweredPlan", "pad_same",
           "check_conv_input", "rel_dev"]

KMAJOR_OUTPUTS = 36  # fewest outputs d1*d2 for which a K-major bank copy pays (README)
KMAJOR_BANK_BYTES = 256 * 1024  # most bytes of a bank copied K-major (README)


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


@dataclass(frozen=True)
class LoweredPlan:
    """The reference engine's plan of one layer at one map size (LayerPlan.naive), in entries:
    the lowered rows, 0 where (s1 = 1 or d1 = 1) they view the padded map; a copied c_out x K
    bank, 0 where a filter stride of at least L = s1*c_in lets BLAS read it in place; one
    partial product (s2 > 1); and the d1*d2 outputs, which the bank layout rule reads."""

    outputs: int
    rows: int
    bank: int
    partial: int
    multiplies: int  # c_out*d1*d2*K, and K-1 additions per output element
    additions: int

    def bank_layout(self, itemsize: int) -> str:
        """How a run in this item size reads the bank: "in_place"; "kmajor", a K x c_out copy,
        where KMAJOR_OUTPUTS outputs or more share a bank of at most KMAJOR_BANK_BYTES; else
        "copy", a C-ordered c_out x K copy."""
        if not self.bank:
            return "in_place"
        pays = self.outputs >= KMAJOR_OUTPUTS and self.bank * itemsize <= KMAJOR_BANK_BYTES
        return "kmajor" if pays else "copy"

    def nbytes(self, itemsize: int) -> int:
        """Bytes one run in one float type allocates beyond the padded map and the output."""
        return itemsize * (self.rows + self.bank + self.partial)


def _lowered_conv(plan: LoweredPlan, fs: FilterSummary, fmap: FeatureMap,
                  counter: MultCounter | None) -> ConvOutput:
    """`plan` on an input check_conv_input accepts, unchecked. Filter o is the K summary entries
    from o*stride on. Row (n+k)*d1 + m of the lowered rows is the L entries of padded column n+k
    from row m on, so rows[k*d1 : k*d1 + d1*d2] is column block k of every output's window, and
    the output is sum_k block_k @ bank[:, k*L : (k+1)*L].T, added in order k = 0 .. s2-1:
    channel-major, the same bytes every run. A K-major bank is the bank F-ordered, so each
    block is an operand BLAS multiplies untransposed, at the price of a transposing copy: it
    pays where KMAJOR_OUTPUTS (36) outputs or more share a bank of at most KMAJOR_BANK_BYTES
    (256 KiB). f32 per call, one BLAS thread, C-ordered -> K-major: 16->16 3x3 at 32x32 119 ->
    97 us, 32->32 at 16x16 92 -> 74, 64->64 at 8x8 97 -> 82; kept C-ordered, 64->64 at 4x4
    40 -> 50 and 128->128 at 8x8 (a 576 KiB bank) 292 -> 418 (README: the command that fits
    both constants)."""
    geom, d1, d2, w = fs.geom, fmap.d1, fmap.d2, np.ascontiguousarray(fs.weights)
    dtype, span = _compute_dtype(fmap.data, w), geom.slice_len
    bank = np.ndarray((geom.c_out, geom.filter_len), w.dtype, w, 0,
                      (fs.layout.stride * w.itemsize, w.itemsize))
    layout = plan.bank_layout(dtype.itemsize)
    if layout != "in_place" or w.dtype != dtype or not w.flags.aligned:
        bank = bank.astype(dtype, order="F" if layout == "kmajor" else "C")
    x = _padded(fmap, geom.s1, geom.s2).astype(dtype, copy=False)
    cell = geom.c_in * x.itemsize  # bytes of one padded cell
    rows = np.ndarray((d2 + geom.s2 - 1, d1, span), x.dtype, x, 0,
                      ((d1 + geom.s1 - 1) * cell, cell, x.itemsize)).reshape(-1, span)
    out = rows[: d1 * d2] @ bank[:, :span].T
    for k in range(1, geom.s2):  # fixed order: bit-stable
        out += rows[k * d1 : k * d1 + d1 * d2] @ bank[:, k * span : (k + 1) * span].T
    if counter is not None:
        counter.multiplies += plan.multiplies
        counter.additions += plan.additions
    return ConvOutput._trusted(geom.c_out, d1, d2, out.ravel())


def rel_dev(actual, reference) -> float:
    """Max absolute deviation normalized by the reference's max magnitude
    (unnormalized when the reference is all zeros)."""
    a = np.asarray(actual)
    b = np.asarray(reference)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff if scale == 0.0 else diff / scale
