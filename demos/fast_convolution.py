#!/usr/bin/env python3
"""Exact convolution from window sums along diagonals, multiply for multiply.

The shared summary means overlapping filters keep re-multiplying the same
weights against the same feature values. Computing each needed channel-cell
product once (a cell is the c_in values at one padded position, or c_in
consecutive summary weights) and summing windows of s1 cells along the
diagonals of the cell product matrix turns every slice inner product into
one lookup. The result equals the brute-force path up to rounding; only the
count changes.
"""

import numpy as np

from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    MultCounter,
    StridePolicy,
    convolve,
    fcfs_plan,
    measured_acceleration,
    naive_conv,
    required_diagonals,
)

rng = np.random.default_rng(0)

print("=== a small layer, both engines ===")
geom = ConvGeometry(c_in=8, s1=3, s2=3, c_out=16, ratio=3)
fs = FilterSummary.random(geom, seed=1)
fmap = FeatureMap.random(8, 10, 10, seed=2)

counter = MultCounter()
reference = naive_conv(fs, fmap, counter)
fast, report = convolve(fs, fmap)
fast_counter = report.counts

dev = np.max(np.abs(fast.data - reference.data)) / np.max(np.abs(reference.data))
print(f"engine that ran: {report.engine}")
print(f"max relative deviation: {dev:.2e}  (reassociated rounding only)")
print(f"direct engine:    {counter.multiplies:>8} multiplies")
print(f"integral engine:  {fast_counter.multiplies:>8} multiplies "
      f"+ {fast_counter.lookups} window lookups")

print()
print("=== where the products actually live ===")
runs = required_diagonals(fs, fmap)
extents = sum(hi - lo for spans in runs.values() for lo, hi in spans)
plan = fcfs_plan(geom, fs.layout, fmap.d1, fmap.d2)
print(f"slices read {extents} element products on {len(runs)} diagonals: the floor")
print(f"(equal to plan.needed: {extents == plan.needed})")
print(f"stage 1 is one matrix product over all {plan.cells} x {plan.summary} cell pairs, "
      f"{fast_counter.multiplies} multiplies ({fast_counter.multiplies / plan.needed:.3f}x the floor)")
print(f"stage 2 sums each of {plan.windows} windows of {plan.window} products in "
      f"s1 - 1 = {plan.window - 1} adds, into one table")

print()
print("=== measured vs predicted on the classic 64x64 3x3 layer ===")
geom = ConvGeometry(64, 3, 3, 64, 4, StridePolicy.CHANNEL_ALIGNED)
fs = FilterSummary.random(geom, seed=3)
fmap = FeatureMap.random(64, 16, 16, seed=4)
report = measured_acceleration(fs, fmap)
print(f"direct multiplies:   {report.naive.multiplies}")
print(f"integral multiplies: {report.fcfs.multiplies} + {report.fcfs.lookups} lookups")
print(f"measured ratio:  {float(report.measured_ratio):.2f}")
print(f"predicted ratio: {float(report.predicted.ratio):.2f}")
closed = geom.c_in * 16 * 16 * fs.layout.slices
floor = fcfs_plan(geom, fs.layout, 16, 16).needed
print(f"stage-1 products: {report.fcfs.multiplies} executed, {floor} needed, "
      f"{float(closed):.0f} in the closed form ({float(report.fcfs.multiplies / closed):.2f}x)")
print("the closed form assumes each padded position meets one slice residue;")
print("every padded position actually meets all s1 residues, and every summary")
print("cell, so the measured ratio lands near the compression ratio instead of")
print("ratio*s1.")

print()
print("=== strides that defeat the diagonal structure fall back ===")
geom = ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC)  # stride 13, c_in 3
fs = FilterSummary.random(geom, seed=5)
fmap = FeatureMap.random(3, 6, 6, seed=6)
out, report = convolve(fs, fmap)
print(f"engine that ran: {report.engine}, because: {report.fallback.value}")
print(f"output still exact: {np.array_equal(out.data, naive_conv(fs, fmap).data)}")
