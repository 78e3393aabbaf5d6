#!/usr/bin/env python3
"""Exact convolution from diagonal prefix sums, multiply for multiply.

The shared summary means overlapping filters keep re-multiplying the same
weights against the same feature values. Materializing each needed product
once (on the diagonals of the conceptual feature x weight product matrix)
and prefix-summing turns every slice inner product into one subtraction.
The result is identical to the brute-force path; only the count changes.
"""

import numpy as np

from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    MultCounter,
    StridePolicy,
    fcfs_conv,
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
fast, fast_counter = fcfs_conv(fs, fmap)

dev = np.max(np.abs(fast.data - reference.data)) / np.max(np.abs(reference.data))
print(f"max relative deviation: {dev:.2e}  (reassociated rounding only)")
print(f"direct engine:    {counter.multiplies:>8} multiplies")
print(f"integral engine:  {fast_counter.multiplies:>8} multiplies "
      f"+ {fast_counter.lookups} prefix lookups")

print()
print("=== where the products actually live ===")
plan = required_diagonals(fs, fmap)
extents = sum(hi - lo for runs in plan.values() for lo, hi in runs)
print(f"{len(plan)} diagonals materialized, {extents} entries total")
print(f"(equal to the multiply count: {extents == fast_counter.multiplies})")

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
print(f"stage-1 products: {report.fcfs.multiplies} measured, "
      f"{float(closed):.0f} in the closed form ({float(report.fcfs.multiplies / closed):.2f}x)")
print("the closed form assumes each padded-map row meets one slice residue;")
print("patch starts actually occupy all s1 residues and the runs cross the")
print("padding rows, so stage 1 measures 3.3-4.2x the closed form on the")
print("ResNet-110 shapes and the measured ratio lands near the compression")
print("ratio instead of ratio*s1.")

print()
print("=== strides that defeat the diagonal structure fall back ===")
geom = ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC)  # stride 13, c_in 3
fs = FilterSummary.random(geom, seed=5)
fmap = FeatureMap.random(3, 6, 6, seed=6)
import warnings

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    out, counter = fcfs_conv(fs, fmap)
print(f"warning raised: {caught[0].message}")
print(f"output still exact: {np.array_equal(out.data, naive_conv(fs, fmap).data)}")
