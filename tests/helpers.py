"""Randomized geometries, instances and reference bounds shared by the test modules."""

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
    pad_same,
    quantize,
)

LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


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
    """A random geometry, channel-aligned unless `policy` says otherwise, with
    ratio <= c_out so the summary is at least one filter long."""
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


def misaligned(array):
    """A read-only copy of `array` at an odd byte offset, as FSN1 payloads load: numpy
    flags an array of items wider than a byte there as not aligned."""
    array = np.ascontiguousarray(array)
    return np.frombuffer(b"\0" + array.tobytes(), array.dtype, offset=1).reshape(array.shape)


def as_dtype(values, dtype):
    """values converted exactly to `dtype`; object means Fractions."""
    return np.vectorize(Fraction, otypes=[object])(values) if dtype is object else values.astype(dtype)


def wide_conv(fs, fmap, dtype):
    """The same-padding convolution and |w| * |x|, each computed from the values
    converted to `dtype`; object means exact Fractions. Independent of both
    engines: one gathered patch matrix times the gathered filters."""
    geom = fs.geom
    p1 = fmap.d1 + geom.s1 - 1
    n, m, k, t = np.indices((fmap.d2, fmap.d1, geom.s2, geom.slice_len))
    patches = ((n + k) * p1 + m) * geom.c_in + t
    filters = np.arange(geom.c_out)[:, None] * fs.layout.stride + np.arange(geom.filter_len)
    x = as_dtype(pad_same(fmap, geom.s1, geom.s2).data, dtype)[patches.reshape(fmap.d2 * fmap.d1, -1)]
    w = as_dtype(fs.weights, dtype)[filters]
    return (x @ w.T).ravel(), (np.abs(x) @ np.abs(w).T).ravel()


def gamma(n, u):
    """Higham's gamma_n = n*u / (1 - n*u) (Accuracy and Stability of Numerical Algorithms, 2nd ed.)."""
    return n * u / (1 - n * u)


def rounding_excess(out, fs, fmap, n):
    """|out - exact| / (gamma_n * (|w| * |x|)) per output, at most 1 where each output is
    within the standard bound for sums of products evaluated in any order with n
    roundings on each path (Higham, section 3.1), at the unit roundoff of out's dtype.
    The exact reference is the f64 oracle for f32 outputs; for f64 outputs it is a
    long double one, or exact Fractions where long double is no wider than double.
    The reference's own bound, gamma_K at its roundoff, widens the bound."""
    dtype = np.float64 if out.dtype == np.float32 else np.longdouble
    ref_u = np.finfo(dtype).eps / 2
    if dtype is np.longdouble and not LONGDOUBLE_IS_WIDER:
        dtype, ref_u = object, 0
    reference, magnitude = wide_conv(fs, fmap, dtype)
    slack = gamma(fs.geom.filter_len, ref_u)
    bound = (gamma(n, np.finfo(out.dtype).eps / 2) + slack) / (1 - slack) * magnitude
    return np.abs(as_dtype(out, dtype) - reference) / bound  # |w| * |x| > 0 on random data
