"""Reference convolution: one inner product per (filter, output position).

This is the ground truth the fast path is checked against. It is a plain
stride-1, same-padding cross-correlation with no bias, computed patch by
patch; every output element costs exactly K multiplies, so an instrumented
run over a (d1, d2) map totals c_out*d1*d2*K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import MultCounter
from .errors import ShapeMismatchError
from .tensors import FeatureMap, FilterSummary, extract_filter, wrap

__all__ = ["ConvOutput", "pad_same", "check_conv_input", "naive_conv", "rel_dev"]


@dataclass(frozen=True)
class ConvOutput:
    """A (c_out, d1, d2) output tensor in the same channel-major vector form."""

    c_out: int
    d1: int
    d2: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.shape != (self.c_out * self.d1 * self.d2,):
            raise ShapeMismatchError(
                f"output data has shape {data.shape}, expected "
                f"({self.c_out * self.d1 * self.d2},)"
            )
        object.__setattr__(self, "data", data)

    def as_3d(self) -> np.ndarray:
        return self.data.reshape(self.d2, self.d1, self.c_out).transpose(2, 1, 0)


def pad_same(fmap: FeatureMap, s1: int, s2: int) -> FeatureMap:
    """Zero-pad to spatial size (d1+s1-1, d2+s2-1), content centered with
    floor((s1-1)/2) leading rows and floor((s2-1)/2) leading columns."""
    lead1 = (s1 - 1) // 2
    lead2 = (s2 - 1) // 2
    cube = wrap(fmap)
    padded = np.pad(
        cube,
        ((0, 0), (lead1, s1 - 1 - lead1), (lead2, s2 - 1 - lead2)),
        mode="constant",
    )
    c_in, p1, p2 = padded.shape
    return FeatureMap(c_in, p1, p2, np.ascontiguousarray(padded.transpose(2, 1, 0)).ravel())


def check_conv_input(fs: FilterSummary, fmap: FeatureMap) -> None:
    """Refuse a map whose channel count is not the layer's c_in, or that is
    empty; both engines run this check first."""
    if fmap.c_in != fs.geom.c_in:
        raise ShapeMismatchError(
            f"feature map has {fmap.c_in} channels, layer expects {fs.geom.c_in}"
        )
    if fmap.d1 < 1 or fmap.d2 < 1:
        raise ShapeMismatchError(f"feature map is {fmap.d1}x{fmap.d2}; both sizes must be >= 1")


def naive_conv(fs: FilterSummary, fmap: FeatureMap, counter: MultCounter | None = None) -> ConvOutput:
    """Same-padding cross-correlation of every filter with the feature map.

    output(o, m, n) = sum_{i,j,k} filter_o[i, j, k] * padded[i, m+j, n+k].
    The per-output-element sum runs in channel-major order (i fastest, then
    j, then k), so results do not depend on how callers batch the work. If a
    counter is given it is advanced by K multiplies and K-1 additions per
    output element.
    """
    check_conv_input(fs, fmap)
    geom = fs.geom
    d1, d2 = fmap.d1, fmap.d2
    k = geom.filter_len
    padded = wrap(pad_same(fmap, geom.s1, geom.s2))

    # (c_out, K) matrix of unwrapped filters; rows alias the summary.
    filters = np.stack([extract_filter(fs, o) for o in range(geom.c_out)])

    out = np.empty((geom.c_out, d1, d2), dtype=np.result_type(fs.weights, fmap.data))
    for m in range(d1):
        for n in range(d2):
            patch = padded[:, m : m + geom.s1, n : n + geom.s2]
            vec = np.ascontiguousarray(patch.transpose(2, 1, 0)).ravel()
            out[:, m, n] = filters @ vec
            if counter is not None:
                counter.multiplies += geom.c_out * k
                counter.additions += geom.c_out * (k - 1)
    return ConvOutput(geom.c_out, d1, d2, np.ascontiguousarray(out.transpose(2, 1, 0)).ravel())


def rel_dev(actual, reference) -> float:
    """Max absolute deviation normalized by the reference's max magnitude
    (unnormalized when the reference is all zeros)."""
    a = np.asarray(actual)
    b = np.asarray(reference)
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff if scale == 0.0 else diff / scale
