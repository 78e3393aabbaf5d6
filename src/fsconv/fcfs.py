"""Exact convolution from window sums along diagonals of channel-cell products.

A cell is the c_in values at one padded position, or c_in consecutive
summary weights. Under a channel-aligned filter stride each slice inner
product sums a window of s1 consecutive entries on one diagonal of the cell
products G[r, q] = x_cell[r] . w_cell[q], flat and C-ordered, where a diagonal
steps by Q+1. Stages 1 and 2 run in one loop over row blocks of G that fit
BLOCK_BYTES: stage 1 multiplies one block of rows into one buffer, after a
carry of the (s1-1)(Q+1) entries before it, so every window that ends in the
block is one run of the buffer, and stage 2 sums those runs into the table.
Each window adds its s1 entries in order, so given one G the table is the same
bytes however G is cut.
Stage 3 reads one strided view of the windows and adds the s2 slices per
output in order, bit-identical at a fixed BLAS thread count.

LayerPlan.build(geom, layout, d1, d2) is the engine rule, the fcfs plan and the oracle's plan in
one record, which layer_plan caches and convolve, naive_conv and fcfs_conv read. fcfs_conv runs
stages 1-3 on every aligned layer, whatever the counts; no record plans fcfs off that alignment.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counters import MultCounter
from .errors import InvalidArgumentError, ShapeMismatchError, UnsupportedGeometryError
from .geometry import ConvGeometry, Layout, PredictedAcceleration, predicted_acceleration
from .oracle import ConvOutput, LoweredPlan, _lowered_conv, _padded, check_conv_input
from .tensors import FeatureMap, FilterSummary, _compute_dtype

__all__ = [
    "PLAN_CACHE_SIZE", "BLOCK_BYTES", "Fallback", "FcfsPlan", "LayerPlan", "layer_plan", "RunReport",
    "naive_conv", "convolve", "AccelerationReport", "required_diagonals", "build_integrals", "fcfs_conv",
    "measured_ratio", "measured_acceleration",
]

PLAN_CACHE_SIZE = 32  # records kept by layer_plan; ResNet-110 needs 6
BLOCK_BYTES = 256 * 1024  # the stage-1 block budget: G's rows that fit in cache


class Fallback(enum.Enum):
    """Why a layer's LayerPlan sends "fcfs" to the reference engine: a filter stride off a
    multiple of c_in, else a plan whose multiplies + lookups are not fewer than c_out*d1*d2*K."""

    UNALIGNED_STRIDE = "unaligned_stride"
    MORE_MULTIPLIES = "more_multiplies"


@dataclass(frozen=True)
class FcfsPlan:
    """Everything one fcfs execution needs that does not depend on the data (see LayerPlan.build).

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

    @functools.cached_property
    def needed(self) -> int:  # no execution needs the floor: not a field
        return self.multiplies // self.cells // self.summary * int(_reads(self).sum())

    def rows(self, itemsize: int) -> int:
        """Rows of G per stage-1 block: as many as BLOCK_BYTES holds, at least one, and all
        P for s1 = 1, where G is the window table."""
        if self.window == 1:
            return self.cells
        rows = BLOCK_BYTES // (self.summary * itemsize)
        return self.cells if rows >= self.cells else rows or 1

    def blocks(self, itemsize: int) -> int:
        """Stage-1 row blocks of one execution."""
        return -(-self.cells // self.rows(itemsize))

    def nbytes(self, itemsize: int) -> int:
        """Bytes one execution allocates beyond its output: stage 1's (c_in, Q) summary block,
        the window table, for s1 > 1 one buffer of the carry and one block of G, and where G
        takes more than one block the padded map (c_in*P entries), which then lives through
        stage 2; for one block it goes before the table comes, so it is not counted."""
        rows, grid = self.rows(itemsize), self.cells * self.summary
        c_in, carry = self.multiplies // grid, grid - self.windows  # (s1-1)(Q+1) entries
        buffer = carry + rows * self.summary if self.window > 1 else 0
        padded = c_in * self.cells if rows < self.cells else 0
        return itemsize * (c_in * self.summary + padded + buffer + self.windows)

    def integrals(self, fmap: FeatureMap, weights: np.ndarray) -> np.ndarray:
        """Pad the map, then stages 1 and 2. Stage 1 multiplies by one C-ordered (c_in, Q) copy
        of the summary's first Q cells in the compute type, wherever the weights sit in memory,
        so BLAS takes the same path on a summary at any address. G is the table for s1 = 1;
        else its row blocks are made in order into one buffer after the carry, each summed by
        sum_block, and the padded map goes once the last block is made, before the table comes
        where that block is the first."""
        x = _padded(fmap, self.window, self.shape[0]).reshape(self.cells, -1)
        dtype, q = _compute_dtype(x, weights), self.summary
        w = np.array(weights[: q * x.shape[1]].reshape(q, -1).T, dtype, order="C")
        if self.window == 1:
            return np.matmul(x, w, dtype=dtype).ravel()
        rows, carry = self.rows(dtype.itemsize), (self.window - 1) * (q + 1)
        buffer = np.empty(carry + rows * q, dtype)
        products = buffer[carry:].reshape(rows, q)
        for r0 in range(0, self.cells, rows):
            made = np.matmul(x[r0 : r0 + rows], w, products[: self.cells - r0], dtype=dtype)
            if r0 + rows >= self.cells:
                del x
            if not r0:
                table = np.empty(self.windows, dtype)
            self.sum_block(table, buffer[: carry + made.size], r0 * q)
        return table

    def sum_block(self, table: np.ndarray, buffer: np.ndarray, start: int) -> None:
        """Stage 2 of one row block of G, for s1 > 1. `buffer` holds the carry, the (s1-1)(Q+1)
        entries of G before `start` (unset before entry 0), then the block, G's entries from
        `start` on. Window j ends at entry j + carry, so each window that ends in the block is
        one run of the buffer: the windows [lo, hi) add buffer[lo - start + carry + t*(Q+1)],
        t < s1, in order, the first two in one np.add, as one block of all of G does. Then,
        unless this block ends G, its last `carry` entries move to the front: the next carry."""
        step = self.summary + 1
        carry = (self.window - 1) * step
        size = buffer.size - carry  # the block's entries
        lo, hi = (start - carry if start > carry else 0), start + size - carry
        if lo < hi:  # else the block ends before the first window does
            a = lo - start + carry
            out = np.add(buffer[a:size], buffer[a + step : size + step], table[lo:hi])
            for t in range(2, self.window):  # fixed order: bit-stable
                out += buffer[a + t * step : size + t * step]
        if hi < self.windows:
            buffer[:carry] = buffer[size:]

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


@dataclass(frozen=True)
class LayerPlan:
    """One layer at one map size, which no data changes: `fallback`, why "fcfs" runs the reference
    engine (None: fcfs runs), `fcfs`, its FcfsPlan (None: unaligned stride), `naive`, the oracle's."""

    fallback: Fallback | None
    fcfs: FcfsPlan | None
    naive: LoweredPlan

    @classmethod
    def build(cls, geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> "LayerPlan":
        """The record of one key, uncached; raises ShapeMismatchError for a side below 1.
        Slice k of filter i at output (m, n) pairs the s1 padded cells from r = (n+k)*p1 + m
        with the s1 summary cells from q = i*stride/c_in + k*s1: window r*Q + q."""
        if d1 < 1 or d2 < 1:
            raise ShapeMismatchError(f"feature map is {d1}x{d2}; both sizes must be >= 1")
        s1, s2, c_in, k, span = geom.s1, geom.s2, geom.c_in, geom.filter_len, geom.slice_len
        elements, rows = geom.c_out * d1 * d2, (d2 + s2 - 1) * d1 * span if s1 > 1 and d1 > 1 else 0
        naive = LoweredPlan(d1 * d2, rows, 0 if layout.stride >= span else geom.c_out * k,
                            elements if s2 > 1 else 0, elements * k, elements * (k - 1))
        if layout.stride % c_in:  # the diagonals would scatter across channel residues
            return cls(Fallback.UNALIGNED_STRIDE, None, naive)
        p1, shift = d1 + s1 - 1, layout.stride // c_in
        cells, summary = p1 * (d2 + s2 - 1), (geom.c_out - 1) * shift + s1 * s2
        step = summary + 1  # along a diagonal; no window read wraps past row P-1
        windows = cells * summary - (s1 - 1) * step
        lookups = s2 * elements
        additions = (c_in - 1) * cells * summary + (s1 - 1) * windows + elements * (s2 - 1)
        plan = FcfsPlan(cells, summary, s1, windows, (s2, d2, d1, geom.c_out),
                        (p1 * summary + s1, p1 * summary, summary, shift),  # (k, n, m, i)
                        c_in * cells * summary, additions, lookups)
        loses = plan.multiplies + lookups >= naive.multiplies
        return cls(Fallback.MORE_MULTIPLIES if loses else None, plan, naive)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def layer_plan(geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> LayerPlan:
    """The cached record for one key; a summary may carry any layout, so it is part of the key."""
    return LayerPlan.build(geom, layout, d1, d2)


def _plan(fs: FilterSummary, fmap: FeatureMap) -> FcfsPlan:
    """The cached fcfs plan of an input check_conv_input accepts; refuses an unaligned stride."""
    check_conv_input(fs, fmap)
    if (plan := layer_plan(fs.geom, fs.layout, fmap.d1, fmap.d2).fcfs) is None:
        raise UnsupportedGeometryError("fcfs does not run unaligned_stride layers; use naive")
    return plan


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
    return _plan(fs, fmap).integrals(fmap, fs.weights)


@dataclass(frozen=True)
class RunReport:
    """What one convolve call did: the engine that ran ("naive" or "fcfs"),
    why "fcfs" was asked for and did not run (or None), and its counts."""

    engine: str
    fallback: Fallback | None
    counts: MultCounter


def naive_conv(fs: FilterSummary, fmap: FeatureMap, counter: MultCounter | None = None) -> ConvOutput:
    """The reference engine: output(o, m, n) = sum_{i,j,k} filter_o[i, j, k] * padded[i, m+j, n+k]."""
    check_conv_input(fs, fmap)
    return _lowered_conv(layer_plan(fs.geom, fs.layout, fmap.d1, fmap.d2).naive, fs, fmap, counter)


def convolve(fs: FilterSummary, fmap: FeatureMap, engine="fcfs") -> tuple[ConvOutput, RunReport]:
    """Convolve with "naive" or "fcfs". "fcfs" runs fcfs_conv where the layer's LayerPlan has
    no fallback; elsewhere it quietly runs the reference engine and the report says why. The
    input is checked once, before the record is looked up (once per call) or cached."""
    if engine not in ("naive", "fcfs"):
        raise InvalidArgumentError(f"engine must be 'naive' or 'fcfs', got {engine!r}")
    check_conv_input(fs, fmap)
    record = layer_plan(fs.geom, fs.layout, fmap.d1, fmap.d2)
    if engine == "fcfs" and record.fallback is None:
        out, counts = _execute(record.fcfs, fs, fmap)
        return out, RunReport("fcfs", None, counts)
    counter, fallback = MultCounter(), record.fallback if engine == "fcfs" else None
    return _lowered_conv(record.naive, fs, fmap, counter), RunReport("naive", fallback, counter)


def fcfs_conv(fs: FilterSummary, fmap: FeatureMap) -> tuple[ConvOutput, MultCounter]:
    """Stages 1-3 on every layer with a channel-aligned filter stride, whatever the counts
    (convolve reads them from the layer's LayerPlan); an unaligned stride, which has no fcfs
    plan, runs the reference engine and warns. Equals naive_conv up to reassociation."""
    check_conv_input(fs, fmap)
    if (record := layer_plan(fs.geom, fs.layout, fmap.d1, fmap.d2)).fcfs is None:
        warnings.warn(f"filter stride {fs.layout.stride} is not a multiple of c_in={fs.geom.c_in}; "
                      "diagonal offsets scatter across channel residues, computing with "
                      "the reference engine instead", stacklevel=2)
        return _lowered_conv(record.naive, fs, fmap, counter := MultCounter()), counter
    return _execute(record.fcfs, fs, fmap)


def _execute(plan: FcfsPlan, fs: FilterSummary, fmap: FeatureMap) -> tuple[ConvOutput, MultCounter]:
    """Stages 1-3 of `plan` on an input check_conv_input accepts."""
    windows = plan.view(plan.integrals(fmap, fs.weights))
    # (d2, d1, c_out), channel-major; for s2 = 1 each output is one slice's window
    out = np.add(windows[0], windows[1], order="C") if len(windows) > 1 else windows[0].copy()
    for per_slice in windows[2:]:  # fixed order: bit-stable
        out += per_slice
    counts = MultCounter(plan.multiplies, plan.additions, plan.lookups)
    return ConvOutput._trusted(fs.geom.c_out, fmap.d1, fmap.d2, out.ravel()), counts


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
