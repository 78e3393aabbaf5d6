"""Randomized geometries and instances shared by the test modules."""

import struct
import zlib
from fractions import Fraction

import numpy as np

from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    ModelLayer,
    StridePolicy,
    dump_model,
    quantize,
)


def random_fast_geometry(
    rng,
    *,
    c_in=(1, 16),
    s1=(1, 5),
    s2=(2, 5),
    c_out=(1, 32),
    r_max=6,
    policy=StridePolicy.CHANNEL_ALIGNED,
):
    """A geometry the fast path supports: s2 >= 2, and ratio <= c_out so the
    summary is at least one filter long."""
    c_in_v = int(rng.integers(c_in[0], c_in[1] + 1))
    s1_v = int(rng.integers(s1[0], s1[1] + 1))
    s2_v = int(rng.integers(s2[0], s2[1] + 1))
    c_out_v = int(rng.integers(c_out[0], c_out[1] + 1))
    hi = min(r_max, c_out_v)
    ratio = Fraction(1.0 + float(rng.random()) * (hi - 1.0))
    return ConvGeometry(c_in_v, s1_v, s2_v, c_out_v, ratio, policy)


def random_instance(rng, *, d=(2, 12), dtype=np.float64, **geometry_kw):
    """Random (FilterSummary, FeatureMap) pair for one supported geometry."""
    geom = random_fast_geometry(rng, **geometry_kw)
    d1 = int(rng.integers(d[0], d[1] + 1))
    d2 = int(rng.integers(d[0], d[1] + 1))
    fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)), dtype=dtype)
    fmap = FeatureMap.random(
        geom.c_in, d1, d2, seed=int(rng.integers(2**31)), dtype=dtype
    )
    return fs, fmap


def q8_model_with_grid(w_min, w_max) -> bytes:
    """A one-layer q8 model whose payload claims these grid endpoints, with a
    valid checksum."""
    geom = ConvGeometry(1, 1, 2, 1, 1)
    q = quantize(FilterSummary.random(geom, seed=8).weights, 8)
    blob = bytearray(dump_model([ModelLayer("q", geom, "q8", quant=q)]))
    start = 4 + 4 + 2 + 1 + 32 + 4  # magic, count, name length, name, geometry, flags
    blob[start : start + 16] = struct.pack("<dd", w_min, w_max)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[start:-4])))
    return bytes(blob)
