"""On-disk formats: the binary model container and the layer-table text format.

Model files ("FSN1") hold one record per layer: geometry, stride policy, a
payload that is either raw float32 weights or packed n-bit codes with their
grid endpoints, an optional per-filter alpha vector, and a CRC32 over the
payload bytes. Everything is little-endian and the writer is canonical, so
read-then-write reproduces a file byte for byte.

Architecture files are human-writable text: one `layer` line per layer with
key=value fields, plus optional `ratio` / `policy` defaults at the top.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import FormatError, ShapeMismatchError
from .geometry import ConvGeometry, Layout, StridePolicy, derive_layout
from .quant import QuantizedSummary
from .tensors import FilterSummary

__all__ = [
    "ModelLayer",
    "ConvSpec",
    "BatchNormSpec",
    "DenseSpec",
    "ArchSpec",
    "write_model",
    "read_model",
    "dump_model",
    "load_model",
    "read_arch",
    "dump_arch",
    "parse_arch",
    "bundled_arch",
]

MAGIC = b"FSN1"
_DTYPES = ("f32", "q8", "q4")
_POLICY_CODE = {
    StridePolicy.GENERIC: 0,
    StridePolicy.SLICE_ALIGNED: 1,
    StridePolicy.CHANNEL_ALIGNED: 2,
}
_CODE_POLICY = {v: k for k, v in _POLICY_CODE.items()}


@dataclass
class ModelLayer:
    """One stored layer: geometry plus a float or quantized summary payload."""

    name: str
    geom: ConvGeometry
    dtype: str = "f32"
    weights: Optional[np.ndarray] = None
    quant: Optional[QuantizedSummary] = None
    alphas: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise FormatError(f"unknown layer dtype {self.dtype!r}")
        phys = self.layout.phys_length
        if self.dtype == "f32":
            if self.weights is None or self.quant is not None:
                raise FormatError("f32 layers carry `weights` and no `quant`")
            self.weights = np.asarray(self.weights, dtype=np.float32)
            if self.weights.shape != (phys,):
                raise ShapeMismatchError(
                    f"layer {self.name!r}: payload {self.weights.shape} != ({phys},)"
                )
        else:
            if self.quant is None or self.weights is not None:
                raise FormatError("quantized layers carry `quant` and no `weights`")
            expected_bits = 8 if self.dtype == "q8" else 4
            if self.quant.nbits != expected_bits:
                raise FormatError(
                    f"layer {self.name!r}: dtype {self.dtype} but codes are "
                    f"{self.quant.nbits}-bit"
                )
            if self.quant.codes.shape != (phys,):
                raise ShapeMismatchError(
                    f"layer {self.name!r}: codes {self.quant.codes.shape} != ({phys},)"
                )
        if self.alphas is not None:
            self.alphas = np.asarray(self.alphas, dtype=np.float64)
            if self.alphas.shape != (self.geom.c_out,):
                raise ShapeMismatchError(
                    f"layer {self.name!r}: alphas {self.alphas.shape} != "
                    f"({self.geom.c_out},)"
                )

    @property
    def layout(self) -> Layout:
        return derive_layout(self.geom)

    def summary(self) -> FilterSummary:
        """Materialize a FilterSummary (dequantized for q8/q4 layers)."""
        from .quant import dequantize

        if self.dtype == "f32":
            return FilterSummary(self.geom, self.layout, self.weights)
        return FilterSummary(self.geom, self.layout, dequantize(self.quant))


def _pack_nibbles(codes: np.ndarray) -> bytes:
    padded = codes
    if codes.size % 2:
        padded = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    pairs = padded.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8).tobytes()


def _unpack_nibbles(raw: bytes, count: int) -> np.ndarray:
    packed = np.frombuffer(raw, dtype=np.uint8)
    codes = np.empty(packed.size * 2, dtype=np.uint8)
    codes[0::2] = packed & 0x0F
    codes[1::2] = packed >> 4
    return codes[:count].copy()


def _layer_payload(layer: ModelLayer) -> bytes:
    if layer.dtype == "f32":
        body = layer.weights.astype("<f4").tobytes()
    else:
        head = struct.pack("<dd", layer.quant.w_min, layer.quant.w_max)
        if layer.dtype == "q8":
            body = head + layer.quant.codes.tobytes()
        else:
            body = head + _pack_nibbles(layer.quant.codes)
    if layer.alphas is not None:
        body += layer.alphas.astype("<f8").tobytes()
    return body


def dump_model(layers: list[ModelLayer]) -> bytes:
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", len(layers)))
    for layer in layers:
        name = layer.name.encode("utf-8")
        out.write(struct.pack("<H", len(name)))
        out.write(name)
        g = layer.geom
        out.write(
            struct.pack(
                "<IIIIQQ",
                g.c_in,
                g.s1,
                g.s2,
                g.c_out,
                g.ratio.numerator,
                g.ratio.denominator,
            )
        )
        out.write(
            struct.pack(
                "<BBBB",
                _POLICY_CODE[g.stride_policy],
                _DTYPES.index(layer.dtype),
                0 if layer.alphas is None else 1,
                0,
            )
        )
        payload = _layer_payload(layer)
        out.write(payload)
        out.write(struct.pack("<I", zlib.crc32(payload)))
    return out.getvalue()


def write_model(path, layers: list[ModelLayer]) -> None:
    Path(path).write_bytes(dump_model(layers))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated model file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(data: bytes) -> list[ModelLayer]:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic; not a model file")
    (n_layers,) = r.unpack("<I")
    layers = []
    for _ in range(n_layers):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        c_in, s1, s2, c_out, r_num, r_den = r.unpack("<IIIIQQ")
        policy_code, dtype_code, has_alpha, _pad = r.unpack("<BBBB")
        if policy_code not in _CODE_POLICY:
            raise FormatError(f"layer {name!r}: unknown stride policy {policy_code}")
        if dtype_code >= len(_DTYPES):
            raise FormatError(f"layer {name!r}: unknown dtype code {dtype_code}")
        if r_den == 0:
            raise FormatError(f"layer {name!r}: zero ratio denominator")
        geom = ConvGeometry(
            c_in, s1, s2, c_out, Fraction(r_num, r_den), _CODE_POLICY[policy_code]
        )
        phys = derive_layout(geom).phys_length
        dtype = _DTYPES[dtype_code]
        start = r.pos
        weights = quant = None
        if dtype == "f32":
            weights = np.frombuffer(r.take(phys * 4), dtype="<f4").copy()
        else:
            w_min, w_max = r.unpack("<dd")
            if dtype == "q8":
                codes = np.frombuffer(r.take(phys), dtype=np.uint8).copy()
                quant = QuantizedSummary(codes, 8, w_min, w_max)
            else:
                codes = _unpack_nibbles(r.take((phys + 1) // 2), phys)
                quant = QuantizedSummary(codes, 4, w_min, w_max)
        alphas = None
        if has_alpha:
            alphas = np.frombuffer(r.take(c_out * 8), dtype="<f8").copy()
        payload = data[start : r.pos]
        (crc,) = r.unpack("<I")
        if crc != zlib.crc32(payload):
            raise FormatError(f"layer {name!r}: payload checksum mismatch")
        layers.append(
            ModelLayer(name, geom, dtype, weights=weights, quant=quant, alphas=alphas)
        )
    if r.pos != len(data):
        raise FormatError(f"{len(data) - r.pos} trailing bytes after last layer")
    return layers


def read_model(path) -> list[ModelLayer]:
    return load_model(Path(path).read_bytes())


# --- architecture files -----------------------------------------------------


@dataclass(frozen=True)
class ConvSpec:
    name: str
    c_in: int
    s1: int
    s2: int
    c_out: int
    ratio: Optional[Fraction] = None
    policy: Optional[StridePolicy] = None


@dataclass(frozen=True)
class BatchNormSpec:
    name: str
    channels: int

    @property
    def params(self) -> int:
        return 2 * self.channels  # scale + shift per channel


@dataclass(frozen=True)
class DenseSpec:
    name: str
    fan_in: int
    fan_out: int
    bias: bool = True

    @property
    def params(self) -> int:
        return self.fan_in * self.fan_out + (self.fan_out if self.bias else 0)


LayerSpec = Union[ConvSpec, BatchNormSpec, DenseSpec]


@dataclass
class ArchSpec:
    layers: list[LayerSpec] = field(default_factory=list)
    default_ratio: Optional[Fraction] = None
    default_policy: Optional[StridePolicy] = None


def _fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def dump_arch(arch: ArchSpec) -> str:
    lines = []
    if arch.default_ratio is not None:
        lines.append(f"ratio {_fmt_fraction(arch.default_ratio)}")
    if arch.default_policy is not None:
        lines.append(f"policy {arch.default_policy.value}")
    for layer in arch.layers:
        if isinstance(layer, ConvSpec):
            line = (
                f"layer {layer.name} kind=conv c_in={layer.c_in} s1={layer.s1} "
                f"s2={layer.s2} c_out={layer.c_out}"
            )
            if layer.ratio is not None:
                line += f" r={_fmt_fraction(layer.ratio)}"
            if layer.policy is not None:
                line += f" policy={layer.policy.value}"
        elif isinstance(layer, BatchNormSpec):
            line = f"layer {layer.name} kind=bn channels={layer.channels}"
        elif isinstance(layer, DenseSpec):
            line = (
                f"layer {layer.name} kind=fc in={layer.fan_in} "
                f"out={layer.fan_out} bias={int(layer.bias)}"
            )
        else:
            raise FormatError(f"unknown layer spec {layer!r}")
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, str]:
    kv = {}
    for tok in tokens:
        if "=" not in tok:
            raise FormatError(f"line {lineno}: expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in kv:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = value
    return kv


def _parse_int(kv: dict[str, str], key: str, lineno: int) -> int:
    if key not in kv:
        raise FormatError(f"line {lineno}: missing {key}=")
    try:
        value = int(kv.pop(key))
    except ValueError as exc:
        raise FormatError(f"line {lineno}: bad integer for {key}") from exc
    if value < 1 and key != "bias":
        raise FormatError(f"line {lineno}: {key} must be >= 1")
    return value


def _parse_policy(text: str, lineno: int) -> StridePolicy:
    try:
        return StridePolicy(text)
    except ValueError as exc:
        valid = "/".join(p.value for p in StridePolicy)
        raise FormatError(f"line {lineno}: policy must be one of {valid}") from exc


def _parse_ratio(text: str, lineno: int) -> Fraction:
    try:
        ratio = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"line {lineno}: bad ratio {text!r}") from exc
    if ratio < 1:
        raise FormatError(f"line {lineno}: ratio must be >= 1")
    return ratio


def parse_arch(text: str) -> ArchSpec:
    arch = ArchSpec()
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "ratio":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: ratio takes one value")
            arch.default_ratio = _parse_ratio(tokens[1], lineno)
        elif head == "policy":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: policy takes one value")
            arch.default_policy = _parse_policy(tokens[1], lineno)
        elif head == "layer":
            if len(tokens) < 3:
                raise FormatError(f"line {lineno}: layer needs a name and kind=")
            name = tokens[1]
            if name in names:
                raise FormatError(f"line {lineno}: duplicate layer name {name!r}")
            names.add(name)
            kv = _parse_kv(tokens[2:], lineno)
            kind = kv.pop("kind", None)
            if kind == "conv":
                c_in = _parse_int(kv, "c_in", lineno)
                s1 = _parse_int(kv, "s1", lineno)
                s2 = _parse_int(kv, "s2", lineno)
                c_out = _parse_int(kv, "c_out", lineno)
                ratio = _parse_ratio(kv.pop("r"), lineno) if "r" in kv else None
                policy = _parse_policy(kv.pop("policy"), lineno) if "policy" in kv else None
                layer = ConvSpec(name, c_in, s1, s2, c_out, ratio, policy)
            elif kind == "bn":
                layer = BatchNormSpec(name, _parse_int(kv, "channels", lineno))
            elif kind == "fc":
                fan_in = _parse_int(kv, "in", lineno)
                fan_out = _parse_int(kv, "out", lineno)
                bias = bool(int(kv.pop("bias", "1")))
                layer = DenseSpec(name, fan_in, fan_out, bias)
            else:
                raise FormatError(f"line {lineno}: kind must be conv/bn/fc")
            if kv:
                raise FormatError(f"line {lineno}: unknown keys {sorted(kv)}")
            arch.layers.append(layer)
        else:
            raise FormatError(f"line {lineno}: unknown directive {head!r}")
    return arch


def read_arch(path) -> ArchSpec:
    return parse_arch(Path(path).read_text(encoding="utf-8"))


def bundled_arch(name: str) -> Path:
    """Path of an architecture file shipped with the package."""
    candidate = resources.files("fsconv").joinpath(f"data/{name}.arch")
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled architecture {name!r}")
    with resources.as_file(candidate) as path:
        return Path(path)
