#!/usr/bin/env python3
"""Where filters live inside a shared weight vector, and what that saves.

Walks the classic 64-channel 3x3 layer with 64 filters: at compression
ratio 4 its 36864 independent weights collapse into a summary of 9216
shared ones, with every filter a length-576 segment of it.
"""

from fractions import Fraction

from fsconv import (
    ConvGeometry,
    StridePolicy,
    bundled_arch,
    count_params,
    derive_layout,
    predicted_acceleration,
    read_arch,
    ConvSpec,
)

print("=== one layer, three stride policies ===")
for policy in StridePolicy:
    geom = ConvGeometry(c_in=64, s1=3, s2=3, c_out=64, ratio=4, stride_policy=policy)
    layout = derive_layout(geom)
    coincide = ": all filters coincide" if geom.filters_coincide(layout.stride) else ""
    print(
        f"{policy.name:16s} -> summary length {layout.length}, filter stride "
        f"{layout.stride}{coincide}, allocated {layout.phys_length}"
    )

print()
print("=== parameter accounting ===")
geom = ConvGeometry(64, 3, 3, 64, 4, StridePolicy.GENERIC)
layout = derive_layout(geom)
params = count_params(geom, layout)
print(f"independent filters: {params.baseline} weights")
print(f"shared summary:      {params.fs_nominal} nominal + "
      f"{params.fs - params.fs_nominal} padding = {params.fs}")
print(f"compression:         {float(params.cr_nominal):.2f}x nominal, "
      f"{float(params.cr):.2f}x counting padding")

print()
print("=== the multiply count the layout implies (16x16 map) ===")
pred = predicted_acceleration(geom, layout, 16, 16)
print(f"direct convolution: {pred.naive_mults:>9} multiplies")
print(f"integral-line path: {float(pred.fcfs_mults):>9.0f} (idealized closed form)")
print(f"ratio: {float(pred.ratio):.2f}  (~ ratio * s1 = {4 * 3} for tall filters)")

print()
print("=== a whole architecture ===")
arch = read_arch(bundled_arch("resnet110"))
baseline = fsnet = 0
for layer in arch.layers:
    if isinstance(layer, ConvSpec):
        g = ConvGeometry(layer.c_in, layer.s1, layer.s2, layer.c_out, Fraction(4))
        p = count_params(g, derive_layout(g))
        baseline += p.baseline
        fsnet += p.fs
    else:
        baseline += layer.params
        fsnet += layer.params
print(f"resnet110 baseline: {baseline / 1e6:.2f}M params")
print(f"resnet110 shared:   {fsnet / 1e6:.2f}M params at ratio 4 "
      f"({baseline / fsnet:.2f}x smaller)")
print()
print("(the `fsconv plan resnet110 --ratio 4` command prints the per-layer table)")
