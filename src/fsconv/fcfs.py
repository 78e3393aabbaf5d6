"""Exact convolution from diagonal prefix sums of the product matrix.

Conceptually there is a matrix A with A[x, y] = padded_map[x] * summary[y].
Every slice inner product the convolution needs (a patch column against the
matching filter column, both runs of c_in*s1 elements) is the sum of one
diagonal segment of A. Which segments those are depends only on the layer
shape and the map size, so a cached FcfsPlan per (geometry, layout, d1, d2)
holds them, merged into diagonal runs and grouped by length, together with
the exact operation counts. Execution has three stages: stage 1 materializes
every run, one multiply per entry (weights shared between overlapping
filters and patches are multiplied once); stage 2 prefix-sums each run on
its own; stage 3 reads every slice inner product as one subtraction of two
prefix values and adds the s2 slice results per output, in slice order.

Stage 1 exceeds the closed form's c_in*d1*d2*slices products, since patch
starts occupy all s1 row residues and runs cross the padding rows: 3.3-4.2x
on the six ResNet-110 shapes at 32/16/8 (705,280 against 196,608 products
for 16->16 at 32x32). In numpy, execution still trails the BLAS-backed
reference engine in wall clock.

Diagonals are keyed by offset = row - column. geometry.fcfs_fallback is the
one rule for which layers this engine runs. convolve(fs, fmap, engine) is
the entry point: asked for "fcfs" on a layer the rule refuses, it runs the
reference engine and its RunReport names the reason. fcfs_conv raises for
s2 == 1 and warns before falling back for an unaligned stride.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .counters import MultCounter
from .errors import InvalidArgumentError, UnsupportedGeometryError
from .geometry import (
    ConvGeometry,
    Fallback,
    Layout,
    PredictedAcceleration,
    fcfs_fallback,
    predicted_acceleration,
)
from .oracle import ConvOutput, check_conv_input, naive_conv, pad_same
from .tensors import FeatureMap, FilterSummary

__all__ = [
    "PLAN_CACHE_SIZE",
    "FcfsPlan",
    "fcfs_plan",
    "RunReport",
    "convolve",
    "AccelerationReport",
    "required_diagonals",
    "build_integrals",
    "fcfs_conv",
    "measured_ratio",
    "measured_acceleration",
]

PLAN_CACHE_SIZE = 32  # plans kept by fcfs_plan; ResNet-110 needs 6
_CHUNK = 1 << 16  # table entries per stage-1/2 step, bounds the temporaries


def _narrow(values: np.ndarray) -> np.ndarray:
    """int32 copy of non-negative indices when they fit, else unchanged."""
    return values.astype(np.int32) if values.size == 0 or values.max() < 2**31 else values


@dataclass(frozen=True, eq=False)
class FcfsPlan:
    """Everything fcfs_conv needs that does not depend on the data.

    groups  (length, rows, cols) per run length, ascending: the padded-map
            and summary starts of the runs. The flat prefix table holds the
            runs in this order, each as length+1 exclusive prefix sums.
    index   table position of each slice pair's lower prefix value, shape
            (s2, d2, d1, c_out): per slice, the output's channel-major order
    multiplies, additions, lookups: the exact counts of one execution.
    """

    width: int
    groups: tuple[tuple[int, np.ndarray, np.ndarray], ...]
    index: np.ndarray
    table_size: int
    multiplies: int
    additions: int
    lookups: int

    @classmethod
    def build(cls, geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> "FcfsPlan":
        """Plan one layer at one map size, uncached. Slice k of filter i at
        output (m, n) pairs the padded-map run starting at
        a = (n+k)*c_in*p1 + m*c_in with the summary run starting at
        b = i*stride + k*c_in*s1, both of length c_in*s1."""
        width = geom.slice_len
        p1 = d1 + geom.s1 - 1
        k, n, m, i = np.ogrid[: geom.s2, :d2, :d1, : geom.c_out]
        a = (n + k) * (geom.c_in * p1) + m * geom.c_in
        b = i * layout.stride + k * width
        # (offset, column) as one key; 0 <= b < span keeps the order
        # lexicographic. Since b + width <= phys_length < span, keys more
        # than width apart never share a run, within or across diagonals.
        span = layout.phys_length + 1
        keys = (a - b) * span + b
        ordered = np.sort(keys, axis=None)
        breaks = np.flatnonzero(np.diff(ordered) > width) + 1
        first = ordered[np.r_[0, breaks]]
        lengths = ordered[np.r_[breaks - 1, -1]] + width - first
        cols = first % span
        rows = first // span + cols

        by_length = np.argsort(lengths, kind="stable")
        slots = lengths[by_length] + 1
        base = np.empty_like(slots)
        base[by_length] = np.cumsum(slots) - slots
        run = np.searchsorted(first, keys, side="right") - 1
        index = _narrow(base[run] + (keys - first[run]))

        lengths, rows, cols = lengths[by_length], _narrow(rows[by_length]), _narrow(cols[by_length])
        for shared in (index, rows, cols):  # one cached plan serves every caller
            shared.flags.writeable = False
        bounds = np.r_[0, np.flatnonzero(np.diff(lengths)) + 1, lengths.size]
        groups = tuple((int(lengths[lo]), rows[lo:hi], cols[lo:hi]) for lo, hi in pairwise(bounds))
        multiplies = int(lengths.sum())
        # stage 2 adds length-1 per run; stage 3 one per slice pair and s2-1 per output
        additions = multiplies - lengths.size + keys.size + (geom.s2 - 1) * (keys.size // geom.s2)
        return cls(width, groups, index, int(slots.sum()), multiplies, additions, keys.size)

    @property
    def nbytes(self) -> int:
        """Bytes held by the plan's index arrays."""
        return self.index.nbytes + sum(r.nbytes + c.nbytes for _, r, c in self.groups)

    def diagonals(self) -> dict[int, list[tuple[int, int]]]:
        """The runs as offset -> sorted [start, stop) column runs."""
        runs: dict[int, list[tuple[int, int]]] = {}
        for off, lo, hi in sorted(
            (r - c, c, c + n) for n, rows, cols in self.groups
            for r, c in zip(rows.tolist(), cols.tolist())
        ):
            runs.setdefault(off, []).append((lo, hi))
        return runs

    def prefix_table(self, padded: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Stages 1 and 2: the flat table of per-run exclusive prefix sums."""
        flat = np.empty(self.table_size, np.result_type(padded, weights))
        pos = 0
        for length, rows, cols in self.groups:
            block = flat[pos : pos + rows.size * (length + 1)].reshape(rows.size, length + 1)
            block[:, 0] = 0
            x = sliding_window_view(padded, length)
            w = sliding_window_view(weights, length)
            step = max(1, _CHUNK // length)
            for lo in range(0, rows.size, step):
                products = x[rows[lo : lo + step]] * w[cols[lo : lo + step]]
                np.cumsum(products, axis=1, out=block[lo : lo + step, 1:])
            pos += block.size
        return flat


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def fcfs_plan(geom: ConvGeometry, layout: Layout, d1: int, d2: int) -> FcfsPlan:
    """The cached plan for one key. The layout is part of the key: a summary
    may carry any layout, not only derive_layout(geom)."""
    return FcfsPlan.build(geom, layout, d1, d2)


def _plan_key(fs: FilterSummary, fmap: FeatureMap) -> tuple:
    """The plan key of a valid input; raises for s2 == 1 and for a map
    check_conv_input refuses."""
    if fcfs_fallback(fs.geom, fs.layout) is Fallback.S2_IS_1:
        raise UnsupportedGeometryError(
            "the integral-line path only pays off for s2 > 1; "
            "use the reference engine for s2 == 1 layers"
        )
    check_conv_input(fs, fmap)
    return fs.geom, fs.layout, fmap.d1, fmap.d2


def required_diagonals(fs: FilterSummary, fmap: FeatureMap) -> dict[int, list[tuple[int, int]]]:
    """Exact set of diagonal offsets with the column extents they need.

    Maps offset -> sorted disjoint [start, stop) column runs, the union of
    the length-(c_in*s1) segments of every slice pair. Nothing outside these
    runs is ever multiplied. A view of the cached plan's runs.
    """
    return fcfs_plan(*_plan_key(fs, fmap)).diagonals()


def build_integrals(
    fs: FilterSummary, fmap: FeatureMap, diagonals: dict, counter: MultCounter | None = None
) -> np.ndarray:
    """Stages 1 and 2 on this input: the cached plan's flat prefix table
    (see FcfsPlan). `diagonals` is not read; the plan already holds them. A
    counter, if given, gets the stage-1 multiplies and stage-2 additions."""
    plan = fcfs_plan(*_plan_key(fs, fmap))
    table = plan.prefix_table(pad_same(fmap, fs.geom.s1, fs.geom.s2).data, fs.weights)
    if counter is not None:
        counter.multiplies += plan.multiplies
        counter.additions += plan.multiplies - sum(r.size for _, r, _ in plan.groups)
    return table


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
    plan = fcfs_plan(*_plan_key(fs, fmap))
    geom = fs.geom
    flat = plan.prefix_table(pad_same(fmap, geom.s1, geom.s2).data, fs.weights)
    slice_sums = flat[plan.width :][plan.index] - flat[plan.index]
    out = np.zeros(geom.c_out * fmap.d1 * fmap.d2, dtype=flat.dtype)
    for per_slice in slice_sums.reshape(geom.s2, -1):  # fixed order: bit-stable
        out += per_slice
    counter = MultCounter(plan.multiplies, plan.additions, plan.lookups)
    return ConvOutput(geom.c_out, fmap.d1, fmap.d2, out), RunReport("fcfs", None, counter)


def fcfs_conv(fs: FilterSummary, fmap: FeatureMap) -> tuple[ConvOutput, MultCounter]:
    """Convolve via diagonal integral lines; exact, not approximate.

    Equals naive_conv up to floating reassociation (the prefix sums regroup
    the same products). convolve(fs, fmap, "fcfs") with loud fallbacks:
    raises for s2 == 1 and for an empty map, and warns before running the
    reference engine when the filter stride is not channel-aligned.
    """
    _plan_key(fs, fmap)
    if fcfs_fallback(fs.geom, fs.layout) is Fallback.UNALIGNED_STRIDE:
        warnings.warn(
            f"filter stride {fs.layout.stride} is not a multiple of c_in={fs.geom.c_in}; "
            "diagonal offsets scatter across channel residues, computing with "
            "the reference engine instead",
            stacklevel=2,
        )
    out, report = convolve(fs, fmap)
    return out, report.counts


def measured_ratio(naive: MultCounter, fast: MultCounter) -> Fraction:
    """Reference multiplies over fcfs products plus lookups, the accounting
    of the closed-form prediction."""
    return Fraction(naive.multiplies, fast.multiplies + fast.lookups)


@dataclass(frozen=True)
class AccelerationReport:
    """Side-by-side multiply accounting of both engines on one input.

    measured_ratio is measured_ratio(naive, fcfs); `predicted` is the closed
    form. The two are reported separately because the closed form
    undercounts the first stage (see the module docstring).
    """

    naive: MultCounter
    fcfs: MultCounter
    measured_ratio: Fraction
    predicted: PredictedAcceleration


def measured_acceleration(fs: FilterSummary, fmap: FeatureMap) -> AccelerationReport:
    """Run both engines with instrumentation and compare multiply counts."""
    _, naive = convolve(fs, fmap, "naive")
    _, fast_counter = fcfs_conv(fs, fmap)
    return AccelerationReport(
        naive=naive.counts,
        fcfs=fast_counter,
        measured_ratio=measured_ratio(naive.counts, fast_counter),
        predicted=predicted_acceleration(fs.geom, fs.layout, fmap.d1, fmap.d2),
    )
