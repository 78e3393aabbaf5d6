"""Exact convolution from window sums along diagonals of channel-cell products.

A cell is the c_in values at one padded position, or c_in consecutive
summary weights. Under a channel-aligned filter stride each slice inner
product sums a window of s1 consecutive entries on one diagonal of the cell
products G[r, q] = x_cell[r] . w_cell[q]. Stage 1 is one matrix product into
a flat C-ordered (P, Q) table, where a diagonal steps by Q+1; stage 2 adds the
s1 entries of each window along that step into one table; stage 3 reads one
strided view of the windows and adds the s2 slices per output in order,
bit-identical at a fixed BLAS thread count.

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


@dataclass(frozen=True)
class FcfsPlan:
    """Everything fcfs_conv needs that does not depend on the data.

    cells, summary  P padded cells, Q summary cells up to the last one read:
                    stage 1 writes G[r, q] at r*Q + q of a flat table, and
                    entry j < `windows` of stage 2 sums the `window` = s1
                    entries j + t*(Q+1), t < s1, one diagonal of G.
    shape, strides  the (s2, d2, d1, c_out) lattice of slice pairs (see view)
    multiplies, additions, lookups: the exact counts of one execution.
    needed          c_in times the cells any slice reads, counted on first read:
                    the floor under `multiplies`, which counts the whole grid.
    """

    cells: int
    summary: int
    window: int
    windows: int
    shape: tuple[int, int, int, int]
    strides: tuple[int, int, int, int]
    multiplies: int
    additions: int
    lookups: int

    @classmethod
    def build(cls, geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> "FcfsPlan":
        """Plan one layer at one map size, uncached; raises UnsupportedGeometryError
        for a layer fcfs_fallback refuses. Slice k of filter i at output
        (m, n) pairs the s1 padded cells from r = (n+k)*p1 + m with the s1
        summary cells from q = i*stride/c_in + k*s1: window r*Q + q."""
        if (fallback := fcfs_fallback(geom, layout)) is not None:
            raise UnsupportedGeometryError(f"fcfs does not run {fallback.value} layers; use naive")
        s1, s2, c_in = geom.s1, geom.s2, geom.c_in
        p1, shift = d1 + s1 - 1, layout.stride // c_in
        cells, summary = p1 * (d2 + s2 - 1), (geom.c_out - 1) * shift + s1 * s2
        step = summary + 1  # along a diagonal; no window read wraps past row P-1
        windows = cells * summary - (s1 - 1) * step
        lookups = s2 * d2 * d1 * geom.c_out
        additions = (c_in - 1) * cells * summary + (s1 - 1) * windows + lookups // s2 * (s2 - 1)
        return cls(cells, summary, s1, windows, (s2, d2, d1, geom.c_out),
                   (p1 * summary + s1, p1 * summary, summary, shift),  # (k, n, m, i)
                   c_in * cells * summary, additions, lookups)

    @functools.cached_property
    def needed(self) -> int:  # no execution needs the floor: not a field
        return self.multiplies // self.cells // self.summary * int(_reads(self).sum())

    def nbytes(self, itemsize: int) -> int:
        """Bytes one execution allocates beyond the padded map and output: G, and
        for s1 > 1 the window table."""
        return itemsize * (self.cells * self.summary + (self.windows if self.window > 1 else 0))

    def products(self, fmap: FeatureMap, weights: np.ndarray) -> np.ndarray:
        """Pad the map, then stage 1: the flat (P, Q) table G of cell products."""
        x = pad_same(fmap, self.window, self.shape[0]).data.reshape(self.cells, -1)
        w = weights[: self.summary * x.shape[1]].reshape(self.summary, -1)
        return np.matmul(x, w.T).ravel()  # in the common type of map and weights

    def window_sums(self, products: np.ndarray) -> np.ndarray:
        """Stage 2: the `windows` window sums of flat G (G itself for s1 = 1), adding
        the s1 entries of each window in order into one new table."""
        if self.window == 1:
            return products
        step, n = self.summary + 1, self.windows
        table = np.add(products[:n], products[step : step + n])
        for t in range(2, self.window):
            table += products[t * step : t * step + n]
        return table

    def view(self, flat: np.ndarray) -> np.ndarray:
        """The window of each slice pair in the contiguous `flat`, as a read-only (s2, d2,
        d1, c_out) view at the plan's strides; numpy refuses a view that leaves `flat`."""
        view = np.ndarray(self.shape, flat.dtype, flat, 0, [s * flat.itemsize for s in self.strides])
        view.flags.writeable = False
        return view


def _reads(plan: FcfsPlan) -> np.ndarray:
    """The cells any slice reads, as a (P, Q) mask."""
    mask = np.zeros(plan.cells * plan.summary, bool)
    for t in range(plan.window):  # a slice's s1 cells, a diagonal step apart (bool: byte strides)
        np.ndarray(plan.shape, bool, mask, t * (plan.summary + 1), plan.strides)[...] = True
    return mask.reshape(plan.cells, plan.summary)


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
    mask, c_in = _reads(_plan(fs, fmap)), fs.geom.c_in
    edge = np.pad(mask, 1)  # no cell read past either end of a diagonal
    ends = [c[np.lexsort((c[:, 1], c[:, 0] - c[:, 1]))].tolist()  # by offset, then column
            for c in (np.argwhere(mask & ~edge[:-2, :-2]), np.argwhere(mask & ~edge[2:, 2:]))]
    runs: dict[int, list[tuple[int, int]]] = {}
    for (r, lo), (_, hi) in zip(*ends):  # the (row, column) of each run's first and last cell
        runs.setdefault(c_in * (r - lo), []).append((c_in * lo, c_in * (hi + 1)))
    return runs


def build_integrals(fs: FilterSummary, fmap: FeatureMap, diagonals=None) -> np.ndarray:
    """Stages 1 and 2 on this input: the flat window sums (see FcfsPlan); `diagonals` is not read."""
    plan = _plan(fs, fmap)
    return plan.window_sums(plan.products(fmap, fs.weights))


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
    windows = plan.view(plan.window_sums(plan.products(fmap, fs.weights)))
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
