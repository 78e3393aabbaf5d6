"""Exact convolution from window sums along diagonals of channel-cell products.

A cell is the c_in values at one padded position, or c_in consecutive
summary weights. Under a channel-aligned filter stride each slice inner
product sums a window of s1 consecutive entries on one diagonal of the cell
products G[r, q] = x_cell[r] . w_cell[q]. Stage 1: BLAS writes G band by band
into a skewed table whose columns are its diagonals; stage 2 sums s1 rows
into each window in place; stage 3 reads one strided view of the windows and
adds the s2 slices per output in order, bit-identical at a fixed BLAS thread count.

geometry.fcfs_fallback is the one rule for which layers this engine runs;
FcfsPlan.build refuses the rest. convolve is the entry point, the one run of
stages 1-3 and the one place that picks the engine; fcfs_conv reads its report.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counters import MultCounter
from .errors import InvalidArgumentError, UnsupportedGeometryError
from .geometry import ConvGeometry, Fallback, Layout, PredictedAcceleration
from .geometry import fcfs_fallback, predicted_acceleration
from .oracle import ConvOutput, check_conv_input, naive_conv, pad_same
from .tensors import FeatureMap, FilterSummary

__all__ = [
    "PLAN_CACHE_SIZE", "FcfsPlan", "fcfs_plan", "RunReport", "convolve", "AccelerationReport",
    "required_diagonals", "build_integrals", "fcfs_conv", "measured_ratio", "measured_acceleration",
]

PLAN_CACHE_SIZE = 32  # plans kept by fcfs_plan; ResNet-110 needs 6
BLOCK_BYTES = 256 * 1024  # a stage-2 block is as many f64 rows as fit, one at least


@dataclass(frozen=True)
class FcfsPlan:
    """Everything fcfs_conv needs that does not depend on the data.

    cells, summary  P padded cells, Q summary cells up to the last one read.
                    G[r, q] goes to row q+1, column Q+r-q of a (Q+1) x (P+Q+1)
                    table; then for q <= Q-s1 entry Q + r + q*(P+Q) becomes the
                    window of `window` = s1 cells on a diagonal from (r, q).
    block           rows of windows stage 2 sums at a time, in one buffer
    bands           (r0, r1, q0, q1) per stage-1 product G[r0:r1, q0:q1]
    shape, strides  the (s2, d2, d1, c_out) lattice of slice pairs (see view)
    multiplies, additions, lookups: the exact counts of one execution.
    needed          c_in times the cells any slice reads, counted on first read:
                    the floor under `multiplies`, which also counts unread cells.
    """

    cells: int
    summary: int
    bands: tuple[tuple[int, int, int, int], ...]
    shape: tuple[int, int, int, int]
    strides: tuple[int, int, int, int]
    window: int
    block: int
    multiplies: int
    additions: int
    lookups: int

    @classmethod
    def build(cls, geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> "FcfsPlan":
        """Plan one layer at one map size, uncached; raises UnsupportedGeometryError
        for a layer fcfs_fallback refuses. Slice k of filter i at output
        (m, n) pairs the s1 padded cells from r = (n+k)*p1 + m with the s1
        summary cells from q = i*stride/c_in + k*s1."""
        if (fallback := fcfs_fallback(geom, layout)) is not None:
            raise UnsupportedGeometryError(f"fcfs does not run {fallback.value} layers; use naive")
        s1, s2, c_in = geom.s1, geom.s2, geom.c_in
        p1, shift = d1 + s1 - 1, layout.stride // c_in
        last = (geom.c_out - 1) * shift  # first cell of the last filter
        cells, summary = p1 * (d2 + s2 - 1), last + s1 * s2
        # map column j meets slices k = j-d2+1 .. j: summary cells s1*max(0, j-d2+1)
        # to last + s1*min(s2, j+1), which change at each j < s2 and each j >= d2
        edges = sorted({*range(s2), *range(d2, d2 + s2)})
        bands = tuple((a * p1, b * p1, s1 * max(0, a - d2 + 1), last + s1 * min(s2, a + 1))
                      for a, b in zip(edges, edges[1:]))
        computed = sum((r1 - r0) * (q1 - q0) for r0, r1, q0, q1 in bands)
        row, lookups = cells + summary + 1, s2 * d2 * d1 * geom.c_out
        strides = (p1 + s1 * (row - 1), p1, 1, shift * (row - 1))  # (k, n, m, i)
        windows = summary - s1 + 1  # adds: c_in-1 per cell, s1-1 per window entry, s2-1 per output
        additions = (c_in - 1) * computed + windows * row * (s1 - 1) + lookups // s2 * (s2 - 1)
        block = min(windows, max(1, BLOCK_BYTES // (8 * row)))
        return cls(cells, summary, bands, (s2, d2, d1, geom.c_out), strides, s1, block,
                   c_in * computed, additions, lookups)

    @functools.cached_property
    def needed(self) -> int:  # no execution needs the floor: not a field
        computed = sum((r1 - r0) * (q1 - q0) for r0, r1, q0, q1 in self.bands)
        return self.multiplies // computed * int(_reads(self).sum())  # c_in products per cell

    def nbytes(self, itemsize: int) -> int:
        """Bytes one execution allocates beyond the padded map and output: table and buffer."""
        return itemsize * (self.cells + self.summary + 1) * (self.summary + 1 + self.block)

    def window_table(self, fmap: FeatureMap, weights: np.ndarray) -> np.ndarray:
        """Pad the map, then stages 1 and 2: the flat table whose row q is window q."""
        padded = pad_same(fmap, self.window, self.shape[0]).data
        dtype = np.result_type(padded, weights)
        x = padded.astype(dtype, copy=False).reshape(self.cells, -1)
        w = weights[: self.summary * x.shape[1]].astype(dtype, copy=False).reshape(self.summary, -1)
        row = self.cells + self.summary + 1
        table = np.zeros((self.summary + 1, row), dtype)
        flat, size = table.ravel(), table.itemsize
        for r0, r1, q0, q1 in self.bands:  # BLAS writes G[r, q] at row q+1, column Q+r-q
            start = (row + self.summary + r0 + q0 * (row - 1)) * size
            skew = np.ndarray((q1 - q0, r1 - r0), dtype, flat, start, ((row - 1) * size, size))
            np.matmul(w[q0:q1], x[r0:r1].T, out=skew)
        windows, block = self.summary - self.window + 1, np.empty((self.block, row), dtype)
        for a in range(0, windows, len(block)):  # row q is free once window q-1 exists
            part = block[: windows - a]
            np.copyto(part, table[a + 1 : a + 1 + len(part)])
            for t in range(2, self.window + 1):
                part += table[a + t : a + t + len(part)]
            table[a : a + len(part)] = part
        return flat

    def view(self, flat: np.ndarray, start: int, writeable=False) -> np.ndarray:
        """The (s2, d2, d1, c_out) entries of the contiguous `flat` from `start` at the plan's
        strides, from Q each slice pair's window; numpy refuses a view that leaves `flat`."""
        size = flat.itemsize
        strides = [s * size for s in self.strides]
        view = np.ndarray(self.shape, flat.dtype, flat, start * size, strides)
        view.flags.writeable = writeable
        return view


def _reads(plan: FcfsPlan) -> np.ndarray:
    """The cells any slice reads, as a (Q, P+Q+1) mask: row q, column Q+r-q."""
    row = plan.cells + plan.summary + 1
    mask = np.zeros(plan.summary * row, bool)
    for start in range(plan.summary, plan.summary + plan.window * row, row):  # a slice's s1 cells
        plan.view(mask, start, writeable=True)[...] = True
    return mask.reshape(plan.summary, row)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def fcfs_plan(geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> FcfsPlan:
    """The cached plan for one key; a summary may carry any layout, so it is part of the key."""
    return FcfsPlan.build(geom, layout, d1, d2)


def _plan(fs: FilterSummary, fmap: FeatureMap) -> FcfsPlan:
    """The cached plan of an input check_conv_input accepts, on a layer FcfsPlan.build accepts."""
    check_conv_input(fs, fmap)
    return fcfs_plan(fs.geom, fs.layout, fmap.d1, fmap.d2)


def required_diagonals(fs: FilterSummary, fmap: FeatureMap) -> dict[int, list[tuple[int, int]]]:
    """The element products any slice reads, FcfsPlan.needed in all: offset (row - column)
    -> sorted disjoint [start, stop) column runs of padded_map[x] * summary[y]."""
    plan, c_in = _plan(fs, fmap), fs.geom.c_in
    edges = np.diff(_reads(plan).T.astype(np.int8), axis=1, prepend=0, append=0)  # along q
    starts, stops = np.argwhere(edges == 1).tolist(), np.argwhere(edges == -1)[:, 1].tolist()
    runs: dict[int, list[tuple[int, int]]] = {}
    for (d, lo), hi in zip(starts, stops):
        runs.setdefault(c_in * (d - plan.summary), []).append((c_in * lo, c_in * hi))
    return runs


def build_integrals(fs: FilterSummary, fmap: FeatureMap, diagonals=None) -> np.ndarray:
    """Stages 1 and 2 on this input: the window table (see FcfsPlan); `diagonals` is not read."""
    return _plan(fs, fmap).window_table(fmap, fs.weights)


@dataclass(frozen=True)
class RunReport:
    """What one convolve call did: the engine that ran ("naive" or "fcfs"),
    why "fcfs" was asked for and did not run (or None), and its counts."""

    engine: str
    fallback: Fallback | None
    counts: MultCounter


def convolve(fs: FilterSummary, fmap: FeatureMap, engine="fcfs") -> tuple[ConvOutput, RunReport]:
    """Convolve with "naive" or "fcfs". On a layer fcfs_fallback refuses,
    "fcfs" quietly runs the reference engine and the report says why."""
    if engine not in ("naive", "fcfs"):
        raise InvalidArgumentError(f"engine must be 'naive' or 'fcfs', got {engine!r}")
    fallback = fcfs_fallback(fs.geom, fs.layout) if engine == "fcfs" else None
    if engine == "naive" or fallback is not None:
        counter = MultCounter()
        return naive_conv(fs, fmap, counter), RunReport("naive", fallback, counter)
    plan, geom = _plan(fs, fmap), fs.geom
    windows = plan.view(plan.window_table(fmap, fs.weights), plan.summary)
    out = np.add(windows[0], windows[1], order="C")  # (d2, d1, c_out), channel-major; s2 >= 2
    for per_slice in windows[2:]:  # fixed order: bit-stable
        out += per_slice
    counts = MultCounter(plan.multiplies, plan.additions, plan.lookups)
    return ConvOutput(geom.c_out, fmap.d1, fmap.d2, out.ravel()), RunReport("fcfs", None, counts)


def fcfs_conv(fs: FilterSummary, fmap: FeatureMap) -> tuple[ConvOutput, MultCounter]:
    """convolve(fs, fmap, "fcfs") with loud fallbacks: raises for s2 == 1 before running
    anything, and warns when convolve ran the reference engine for a filter stride that is
    not channel-aligned. Equals naive_conv up to floating reassociation of the same products."""
    if fcfs_fallback(fs.geom, fs.layout) is Fallback.S2_IS_1:
        raise UnsupportedGeometryError("the integral-line path only pays off for s2 > 1; "
                                       "use the reference engine for s2 == 1 layers")
    out, report = convolve(fs, fmap)
    if report.fallback is not None:
        warnings.warn(f"filter stride {fs.layout.stride} is not a multiple of c_in={fs.geom.c_in}; "
                      "diagonal offsets scatter across channel residues, computing with "
                      "the reference engine instead", stacklevel=2)
    return out, report.counts


def measured_ratio(naive: MultCounter, fast: MultCounter) -> Fraction:
    """Reference multiplies over fcfs products plus lookups, as the closed form counts."""
    return Fraction(naive.multiplies, fast.multiplies + fast.lookups)


@dataclass(frozen=True)
class AccelerationReport:
    """Both engines' multiply accounting on one input: measured_ratio(naive, fcfs) and
    the closed form, which counts c_in*d1*d2*slices stage-1 products (PredictedAcceleration)."""

    naive: MultCounter
    fcfs: MultCounter
    measured_ratio: Fraction
    predicted: PredictedAcceleration


def measured_acceleration(fs: FilterSummary, fmap: FeatureMap) -> AccelerationReport:
    """Run both engines with instrumentation and compare multiply counts."""
    naive, fast = convolve(fs, fmap, "naive")[1].counts, fcfs_conv(fs, fmap)[1]
    predicted = predicted_acceleration(fs.geom, fs.layout, fmap.d1, fmap.d2)
    return AccelerationReport(naive, fast, measured_ratio(naive, fast), predicted)
