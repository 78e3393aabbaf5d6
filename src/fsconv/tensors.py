"""Channel-major flattening of feature maps and segment views of filters.

Everything downstream works on 1D vectors: a (c_in, d1, d2) activation
tensor flattens with the channel index fastest, then rows, then columns, so
element (i, j, k) lands at flat position k*c_in*d1 + j*c_in + i. A filter is
the same flattening of its (c_in, s1, s2) box, which makes it one contiguous
segment of the summary. All indexing here is 0-based.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDtypeError, OutOfRangeError, ShapeMismatchError
from .geometry import ConvGeometry, Layout, derive_layout

__all__ = [
    "FeatureMap",
    "FilterSummary",
    "unwrap_index",
    "unwrap",
    "extract_filter",
    "filter_as_3d",
]


def unwrap_index(i: int, j: int, k: int, c_in: int, d1: int) -> int:
    """Flat position of element (channel i, row j, column k)."""
    if not 0 <= i < c_in:
        raise OutOfRangeError(f"channel {i} outside [0, {c_in})")
    if not 0 <= j < d1:
        raise OutOfRangeError(f"row {j} outside [0, {d1})")
    if k < 0:
        raise OutOfRangeError(f"column {k} negative")
    return k * c_in * d1 + j * c_in + i


def _check_real(values: np.ndarray, name: str) -> None:
    """Refuse values that are not real numbers; bool, int and float are."""
    if values.dtype.kind not in "biuf":
        raise InvalidDtypeError(f"{name} has dtype {values.dtype}; need bool, int or float")


def _compute_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """The type both engines multiply and add in: the common type of two float arrays, at
    least float32, else float64, so no sum of half-float, bool or int products saturates,
    wraps or rounds to half precision."""
    if a.dtype.kind == b.dtype.kind == "f":
        return np.promote_types(np.promote_types(a.dtype, b.dtype), np.float32)
    return np.dtype(np.float64)


def _trusted(cls, *values):
    """An instance of the frozen dataclass `cls` holding `values`, its fields in order, built
    without __post_init__: only for callers that have just made its checks themselves."""
    made = object.__new__(cls)
    made.__dict__.update(zip(cls.__dataclass_fields__, values, strict=True))
    return made


@dataclass(frozen=True)
class FeatureMap:
    """A (c_in, d1, d2) activation tensor stored as its channel-major vector."""

    c_in: int
    d1: int
    d2: int
    data: np.ndarray

    def __post_init__(self):
        c_in, d1, d2 = operator.index(self.c_in), operator.index(self.d1), operator.index(self.d2)
        if c_in < 0 or d1 < 0 or d2 < 0:  # an empty side makes a map, which both engines refuse
            raise ShapeMismatchError(f"feature map sizes must be >= 0, got {c_in}x{d1}x{d2}")
        data = np.asarray(self.data)
        if data.shape != (c_in * d1 * d2,):
            raise ShapeMismatchError(
                f"feature data has shape {data.shape}, expected ({c_in * d1 * d2},) for {c_in}x{d1}x{d2}"
            )
        vars(self).update(c_in=c_in, d1=d1, d2=d2, data=data)  # frozen: past __setattr__

    _trusted = classmethod(_trusted)  # (c_in, d1, d2, data): int sizes, a 1D array that fits

    def as_3d(self) -> np.ndarray:
        """The (c_in, d1, d2) array, a view of the data: the inverse of unwrap."""
        return self.data.reshape(self.d2, self.d1, self.c_in).transpose(2, 1, 0)

    @classmethod
    def random(cls, c_in, d1, d2, *, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-1.0, 1.0, c_in * d1 * d2).astype(dtype)
        return cls(c_in, d1, d2, data)


def unwrap(tensor: np.ndarray) -> FeatureMap:
    """Flatten a (c_in, d1, d2) array into a FeatureMap."""
    t = np.asarray(tensor)
    if t.ndim != 3:
        raise ShapeMismatchError(f"expected a 3D tensor, got shape {t.shape}")
    c_in, d1, d2 = t.shape
    return FeatureMap(c_in, d1, d2, np.ascontiguousarray(t.transpose(2, 1, 0)).ravel())


@dataclass(frozen=True)
class FilterSummary:
    """The shared weight vector of one layer plus its placement layout.

    `weights` has layout.phys_length entries; the slots past the nominal
    length are the padding that keeps the last filter in bounds and are
    ordinary trainable values. A layout whose stride would put a filter
    outside the summary is refused, since the reference engine reads the
    filters through a strided view, and so are weights that are not real
    numbers. Filter views returned by extract_filter / filter_as_3d alias
    this array, so mutating the summary is reflected in previously
    extracted filters.
    """

    geom: ConvGeometry
    layout: Layout
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.shape != (self.layout.phys_length,):
            raise ShapeMismatchError(
                f"summary has shape {w.shape}, expected ({self.layout.phys_length},)"
            )
        _check_real(w, "summary")
        last_end = (self.geom.c_out - 1) * self.layout.stride + self.geom.filter_len
        if self.layout.stride < 0 or last_end > w.shape[0]:
            raise ShapeMismatchError(
                f"filter stride {self.layout.stride} puts the last filter outside the summary"
            )
        object.__setattr__(self, "weights", w)

    @classmethod
    def random(cls, geom: ConvGeometry, *, seed=0, dtype=np.float64):
        """Seeded fan-in style init: uniform in [-b, b] with b = sqrt(6/K)."""
        layout = derive_layout(geom)
        bound = math.sqrt(6.0 / geom.filter_len)
        rng = np.random.default_rng(seed)
        w = rng.uniform(-bound, bound, layout.phys_length).astype(dtype)
        return cls(geom, layout, w)

    @classmethod
    def from_weights(cls, geom: ConvGeometry, weights):
        return cls(geom, derive_layout(geom), np.asarray(weights))


def extract_filter(fs: FilterSummary, i: int) -> np.ndarray:
    """Filter i as a length-K view of the summary (no copy)."""
    if not 0 <= i < fs.geom.c_out:
        raise OutOfRangeError(f"filter {i} outside [0, {fs.geom.c_out})")
    start = i * fs.layout.stride
    return fs.weights[start : start + fs.geom.filter_len]


def filter_as_3d(fs: FilterSummary, i: int) -> np.ndarray:
    """Filter i as a (c_in, s1, s2) view; channel-major flattening of the
    result is exactly extract_filter(fs, i)."""
    seg = extract_filter(fs, i)
    return seg.reshape(fs.geom.s2, fs.geom.s1, fs.geom.c_in).transpose(2, 1, 0)
