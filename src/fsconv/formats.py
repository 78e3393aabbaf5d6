"""On-disk formats: the binary model container and the layer-table text format.

Model files ("FSN1") hold one record per layer: geometry, stride policy, a
payload that is either raw float32 weights or packed n-bit codes with their
grid endpoints, an optional per-filter alpha vector, and a CRC32 over the
payload bytes. Everything is little-endian. A file loads only if it is
canonical: reserved byte 0, alpha flag 0 or 1, the ratio in lowest terms and
zero unused bits in the last q4 byte. So every file that loads is written
again byte for byte.

Architecture files are human-writable text: one `layer` line per layer with the
key=value fields ARCH_KINDS defines, plus `ratio` / `policy` defaults, each once.
"""

from __future__ import annotations

import re
import struct
import sys
import zlib
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import FilterSummaryError, FormatError, ShapeMismatchError
from .geometry import ConvGeometry, Layout, StridePolicy, derive_layout
from .quant import QuantizedSummary, _check_grid, _read_only, dequantize
from .tensors import FilterSummary, _trusted

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
    "parse_ratio",
    "arch_fields",
    "bundled_arch",
]

MAGIC = b"FSN1"
_DTYPES = ("f32", "q8", "q4")
_POLICIES = (StridePolicy.GENERIC, StridePolicy.SLICE_ALIGNED, StridePolicy.CHANNEL_ALIGNED)
# c_in, s1, s2, c_out, ratio numerator and denominator, policy, dtype, alpha flag, reserved
_HEADER = struct.Struct("<IIIIQQBBBB")
_GRID = struct.Struct("<dd")  # w_min, w_max of a quantized payload
_U16, _U32 = struct.Struct("<H"), struct.Struct("<I")  # a name's length; the layer count, a CRC


@dataclass(frozen=True)
class ModelLayer:
    """One stored layer: geometry plus a float or quantized summary payload, in read-only arrays."""

    name: str
    geom: ConvGeometry
    dtype: str = "f32"
    weights: Optional[np.ndarray] = None
    quant: Optional[QuantizedSummary] = None
    alphas: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dtype not in _DTYPES:
            raise FormatError(f"unknown layer dtype {self.dtype!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", _read_only(self.weights, np.float32))
        carried = [] if self.weights is None else [(32, self.weights.shape)]
        if self.quant is not None:
            carried.append((self.quant.nbits, self.quant.codes.shape))
        declared = (int(self.dtype[1:]), (self.layout.phys_length,))  # 32, 8 or 4 bits
        if carried != [declared]:
            raise FormatError(
                f"layer {self.name!r}: a {self.dtype} layer carries one payload of "
                f"{declared[0]}-bit values, shape {declared[1]}; got (bits, shape) {carried}"
            )
        if self.alphas is not None:
            object.__setattr__(self, "alphas", _read_only(self.alphas, np.float64))
            if self.alphas.shape != (self.geom.c_out,):
                shape = f"{self.alphas.shape} != ({self.geom.c_out},)"
                raise ShapeMismatchError(f"layer {self.name!r}: alphas {shape}")
            if not np.isfinite(self.alphas).all():
                raise FormatError(f"layer {self.name!r}: alphas must be finite")

    _trusted = classmethod(_trusted)  # of checked fields: read-only arrays, one sized payload

    @property
    def layout(self) -> Layout:
        return derive_layout(self.geom)

    def summary(self) -> FilterSummary:
        """Materialize a FilterSummary (dequantized for q8/q4 layers)."""
        weights = self.weights if self.dtype == "f32" else dequantize(self.quant)
        return FilterSummary(self.geom, self.layout, weights)


def _header(geom: ConvGeometry, dtype: str, has_alpha: bool) -> bytes:
    """The fixed-size part of a layer record: geometry, policy, dtype, alpha
    flag and a zero reserved byte. The reader compares what it read with this
    re-encoding, so only headers the writer produces load."""
    return _HEADER.pack(
        geom.c_in, geom.s1, geom.s2, geom.c_out, geom.ratio.numerator, geom.ratio.denominator,
        _POLICIES.index(geom.stride_policy), _DTYPES.index(dtype), int(has_alpha), 0,
    )


def _pack(codes: np.ndarray, nbits: int) -> bytes:
    """Pack n-bit codes 8 // nbits to a byte, the first in the low bits; the
    unused high bits of the last byte are zero. Eight bits is the identity."""
    if nbits == 8:
        return codes.tobytes()
    packed = codes[::2].copy()
    packed[: codes.size // 2] |= codes[1::2] << 4
    return packed.tobytes()


def _unpack(raw: memoryview, nbits: int, count: int) -> np.ndarray:
    """Inverse of `_pack`, read-only: the first `count` codes. Refuses nonzero unused bits."""
    unused = (-count) % (8 // nbits) * nbits  # high bits of the last byte that hold no code
    if unused and raw[-1] >> (8 - unused):
        raise FormatError(f"nonzero unused bits after the last {nbits}-bit code")
    codes = np.frombuffer(raw, dtype=np.uint8)
    if nbits == 8:
        return codes
    pairs = codes.astype("<u2")  # byte 0xHL -> 0x0H0L: its two codes, low first in memory
    pairs |= pairs << 4
    pairs &= 0x0F0F
    pairs.flags.writeable = False
    return pairs.view(np.uint8)[:count]


def _stored_name(name: str) -> bytes:
    """The UTF-8 bytes of a layer name, refused if no record can hold them."""
    try:
        stored = name.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"layer {name!r}: name cannot be encoded as UTF-8: {exc}") from exc
    if len(stored) > 0xFFFF:  # the record stores its length in 16 bits
        raise FormatError(f"layer {name[:40]!r}...: name is {len(stored)} UTF-8 bytes, over 65535")
    return stored


def dump_model(layers: list[ModelLayer]) -> bytes:
    parts = [MAGIC, _U32.pack(len(layers))]
    for layer in layers:
        name = _stored_name(layer.name)
        parts += (_U16.pack(len(name)), name, _header(layer.geom, layer.dtype, layer.alphas is not None))
        if layer.dtype == "f32":
            payload = [np.ascontiguousarray(layer.weights, dtype="<f4")]
        else:
            q = layer.quant
            payload = [_GRID.pack(q.w_min, q.w_max), _pack(q.codes, q.nbits)]
        if layer.alphas is not None:
            payload.append(np.ascontiguousarray(layer.alphas, dtype="<f8"))
        crc = 0
        for part in payload:  # checksummed where it lies, and copied once, by the join
            crc = zlib.crc32(part, crc)
        parts += (*payload, _U32.pack(crc))
    return b"".join(parts)


def write_model(path, layers: list[ModelLayer]) -> None:
    Path(path).write_bytes(dump_model(layers))


def _decode_header(header: bytes, name: str) -> tuple:
    """(geom, dtype, phys, payload size before alphas, alpha flag, canonical?) of a header."""
    *sizes, r_num, r_den, policy_code, dtype_code, has_alpha, _ = _HEADER.unpack(header)
    if policy_code >= len(_POLICIES):
        raise FormatError(f"layer {name!r}: unknown stride policy {policy_code}")
    if dtype_code >= len(_DTYPES):
        raise FormatError(f"layer {name!r}: unknown dtype code {dtype_code}")
    if r_den == 0:
        raise FormatError(f"layer {name!r}: zero ratio denominator")
    try:
        geom = ConvGeometry(*sizes, Fraction(r_num, r_den), _POLICIES[policy_code])
        phys = derive_layout(geom).phys_length
    except FilterSummaryError as exc:
        raise type(exc)(f"layer {name!r}: {exc}") from exc
    dtype = _DTYPES[dtype_code]
    body = 4 * phys if dtype == "f32" else _GRID.size + (phys * int(dtype[1:]) + 7) // 8
    return geom, dtype, phys, body, has_alpha, _header(geom, dtype, has_alpha > 0) == header


def load_model(data: bytes) -> list[ModelLayer]:
    view = memoryview(bytes(data))  # no copy of bytes; a bytearray is not held exported

    def take(start: int, size: int) -> memoryview:
        """The `size` bytes at `start`, refusing a file that ends before them."""
        if start + size > len(view):
            raise FormatError("truncated model file")
        return view[start : start + size]

    if take(0, 4) != MAGIC:
        raise FormatError("bad magic; not a model file")
    (n_layers,) = _U32.unpack(take(4, 4))
    decoded = {}  # header bytes -> _decode_header of them: many records repeat a shape
    layers = []
    pos = 8
    for _ in range(n_layers):
        (name_len,) = _U16.unpack(take(pos, 2))
        try:
            name = str(take(pos + 2, name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"layer name is not valid UTF-8: {exc}") from exc
        header = take(pos + 2 + name_len, _HEADER.size).tobytes()
        if header not in decoded:
            decoded[header] = _decode_header(header, name)
        geom, dtype, phys, body, has_alpha, canonical = decoded[header]
        start = pos = pos + 2 + name_len + _HEADER.size
        payload = take(pos, body)
        weights = quant = alphas = None
        if dtype == "f32":
            weights = np.frombuffer(payload, dtype="<f4")  # read-only, as is `view`
        else:
            nbits = int(dtype[1:])
            codes, grid = _unpack(payload[_GRID.size :], nbits, phys), _GRID.unpack_from(payload)
            _check_grid(nbits, *grid)
            quant = QuantizedSummary._trusted(codes, nbits, *grid)
        pos += body
        if has_alpha:
            alphas = np.frombuffer(take(pos, geom.c_out * 8), dtype="<f8")
            pos += geom.c_out * 8
        if _U32.unpack(take(pos, 4))[0] != zlib.crc32(view[start:pos]):
            raise FormatError(f"layer {name!r}: payload checksum mismatch")
        if alphas is not None and not np.isfinite(alphas).all():
            raise FormatError(f"layer {name!r}: alphas must be finite")
        if not canonical:  # a nonzero reserved byte, an alpha flag > 1 or an unreduced ratio
            raise FormatError(f"layer {name!r}: header is not in canonical form")
        layers.append(ModelLayer._trusted(name, geom, dtype, weights, quant, alphas))
        pos += 4
    if pos != len(view):
        raise FormatError(f"{len(view) - pos} trailing bytes after last layer")
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


def parse_ratio(text: str) -> Fraction:
    """The rational number an arch file or --ratio writes (`4`, `7/2`, `3.5`, `1e3`); ValueError
    or ZeroDivisionError if the text is not one, or if no record could show its exact value:
    more than limit = sys.get_int_max_str_digits() digits. As 10**-len(text) < |mantissa| <
    10**len(text), an exponent of ±(limit + len(text)) or beyond is refused before it is built."""
    if match := re.fullmatch(r"(.*)e([-+]?\d+(?:_\d+)*)\s*", text, re.IGNORECASE | re.DOTALL):
        mantissa, shift = Fraction(match[1] + "e0"), int(match[2])  # raise where Fraction(text) does
        if not mantissa:
            return mantissa  # 0 at any exponent
        if (limit := sys.get_int_max_str_digits()) and abs(shift) - limit >= len(text):
            raise ValueError(f"{text!r} has more than {limit} digits")
    ratio = Fraction(text)
    str(ratio)  # ValueError beyond sys.get_int_max_str_digits()
    return ratio


# Per key: (read, write, what its text must be, the least value or None). read
# raises ValueError, ZeroDivisionError or KeyError for text that is not a value.
_COUNT = int, str, "an integer >= 1", 1
_RATIO = parse_ratio, str, "a rational >= 1", 1  # written `4` or `7/2`
_POLICY = StridePolicy, lambda policy: policy.value, "/".join(p.value for p in StridePolicy), None
_BIAS = {"0": False, "1": True}.__getitem__, lambda bias: str(int(bias)), "0 or 1", None

# The line format. A `layer NAME kind=KIND ...` line holds, for each field of its
# kind's spec after the name, in order, one `key=value`: a field with a default may
# be left out, and a None is not written. A directive sets an ArchSpec default once.
ARCH_KINDS = {
    "conv": (ConvSpec, (("c_in", _COUNT), ("s1", _COUNT), ("s2", _COUNT), ("c_out", _COUNT),
                        ("r", _RATIO), ("policy", _POLICY))),
    "bn": (BatchNormSpec, (("channels", _COUNT),)),
    "fc": (DenseSpec, (("in", _COUNT), ("out", _COUNT), ("bias", _BIAS))),
}
ARCH_DIRECTIVES = {"ratio": ("default_ratio", _RATIO), "policy": ("default_policy", _POLICY)}

# Built once per kind: (key, rule, default) to read a line, (key, attribute, write) to write it.
_READ, _WRITE = {}, {}
for _kind, (_cls, _keys) in ARCH_KINDS.items():
    _specs = list(zip(_keys, fields(_cls)[1:], strict=True))
    _READ[_kind] = _cls, tuple((key, rule, f.default) for (key, rule), f in _specs)
    _WRITE[_cls] = _kind, tuple((key, f.name, rule[1]) for (key, rule), f in _specs)


def _read(key: str, text: str, rule):
    """The value of `key=text` by the key's rule; FormatError if the text is not one."""
    read, _, what, least = rule
    try:
        value = read(text)
        if least is not None and value < least:
            raise ValueError(f"{value} < {least}")
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        raise FormatError(f"{key} must be {what}, got {text!r}") from exc
    return value


def arch_fields(layer: LayerSpec) -> dict[str, str]:
    """`kind` and the key=value fields of the layer's line, in file order, as text."""
    kind, specs = _WRITE[type(layer)]
    line = {"kind": kind}
    for key, attr, write in specs:
        value = getattr(layer, attr)
        if value is not None:
            line[key] = write(value)
    return line


def dump_arch(arch: ArchSpec) -> str:
    lines = []
    for head, (attr, (_, write, _, _)) in ARCH_DIRECTIVES.items():
        if getattr(arch, attr) is not None:
            lines.append(f"{head} {write(getattr(arch, attr))}")
    for layer in arch.layers:
        lines.append(f"layer {layer.name} {' '.join(map('='.join, arch_fields(layer).items()))}")
    return "\n".join(lines) + "\n"


def parse_arch(text: str) -> ArchSpec:
    arch = ArchSpec()
    names = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head = tokens[0]
        try:
            if head != "layer":
                if head not in ARCH_DIRECTIVES:
                    raise FormatError(f"unknown directive {head!r}")
                attr, rule = ARCH_DIRECTIVES[head]
                if len(tokens) != 2:
                    raise FormatError(f"{head} takes one value")
                if getattr(arch, attr) is not None:  # a second would rewrite the layers above it
                    raise FormatError(f"repeated {head} directive")
                setattr(arch, attr, _read(head, tokens[1], rule))
                continue
            if len(tokens) < 3:
                raise FormatError("layer needs a name and kind=")
            name = tokens[1]
            if name in names:
                raise FormatError(f"duplicate layer name {name!r}")
            names.add(name)
            kv = {}
            for tok in tokens[2:]:
                key, eq, value = tok.partition("=")
                if not eq:
                    raise FormatError(f"expected key=value, got {tok!r}")
                if key in kv:
                    raise FormatError(f"duplicate key {key!r}")
                kv[key] = value
            kind = kv.pop("kind", None)
            if kind not in _READ:
                raise FormatError(f"kind must be {'/'.join(ARCH_KINDS)}")
            cls, specs = _READ[kind]
            values = []
            for key, rule, default in specs:
                given = kv.pop(key, default)
                if given is MISSING:
                    raise FormatError(f"missing {key}=")
                values.append(default if given is default else _read(key, given, rule))
            if kv:
                raise FormatError(f"unknown keys {sorted(kv)}")
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        arch.layers.append(cls(name, *values))
    return arch


def read_arch(path) -> ArchSpec:
    try:
        return parse_arch(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"architecture {str(path)!r} is not UTF-8 text: {exc}") from exc


def bundled_arch(name: str) -> Path:
    """Path of an architecture file shipped with the package."""
    candidate = resources.files("fsconv").joinpath(f"data/{name}.arch")
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled architecture {name!r}")
    with resources.as_file(candidate) as path:
        return Path(path)
