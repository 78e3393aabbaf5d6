"""Model container and architecture text format: round trips and rejection."""

import dataclasses
import re
import struct
import sys
import zlib
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsconv.formats
from fsconv import (
    ArchSpec,
    BatchNormSpec,
    ConvGeometry,
    ConvSpec,
    DenseSpec,
    FilterSummary,
    ModelLayer,
    QuantizedSummary,
    StridePolicy,
    bundled_arch,
    derive_layout,
    dump_arch,
    dump_model,
    load_model,
    parse_arch,
    quantize,
    read_arch,
    read_model,
    write_model,
)
from fsconv.errors import (
    FilterSummaryError,
    FormatError,
    InvalidGridError,
    InvalidRatioError,
    ShapeMismatchError,
)
from fsconv.formats import ARCH_DIRECTIVES, ARCH_KINDS, arch_fields, parse_ratio

from helpers import q8_model_with_grid, random_fast_geometry


def random_layer(rng, index):
    geom = random_fast_geometry(rng, c_in=(1, 6), s2=(1, 4), c_out=(1, 8))
    fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
    dtype = ("f32", "q8", "q4")[int(rng.integers(3))]
    alphas = None
    if rng.random() < 0.5:
        alphas = rng.standard_normal(geom.c_out)
    if dtype == "f32":
        return ModelLayer(f"layer{index}", geom, "f32", weights=fs.weights, alphas=alphas)
    q = quantize(fs.weights, 8 if dtype == "q8" else 4)
    return ModelLayer(f"layer{index}", geom, dtype, quant=q, alphas=alphas)


class TestModelRoundTrip:
    def test_bytes_identical(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            layers = [random_layer(rng, i) for i in range(int(rng.integers(1, 4)))]
            blob = dump_model(layers)
            again = dump_model(load_model(blob))
            assert blob == again

    def test_values_survive(self, tmp_path):
        geom = ConvGeometry(3, 3, 3, 4, 2)
        fs = FilterSummary.random(geom, seed=1, dtype=np.float32)
        alphas = np.linspace(-1, 1, 4)
        path = tmp_path / "m.fsn"
        write_model(path, [ModelLayer("c1", geom, "f32", weights=fs.weights, alphas=alphas)])
        (layer,) = read_model(path)
        assert layer.name == "c1"
        assert layer.geom == geom
        assert np.array_equal(layer.weights, fs.weights)
        assert np.array_equal(layer.alphas, alphas)

    def test_quantized_payloads(self):
        geom = ConvGeometry(2, 2, 2, 3, 1)
        fs = FilterSummary.random(geom, seed=2)
        for nbits, dtype in ((8, "q8"), (4, "q4")):
            q = quantize(fs.weights, nbits)
            blob = dump_model([ModelLayer("c", geom, dtype, quant=q)])
            (layer,) = load_model(blob)
            assert layer.quant.nbits == nbits
            assert np.array_equal(layer.quant.codes, q.codes)
            assert (layer.quant.w_min, layer.quant.w_max) == (q.w_min, q.w_max)

    def test_fractional_ratio_survives(self):
        geom = ConvGeometry(2, 3, 3, 8, Fraction("3.7"))
        fs = FilterSummary.random(geom, seed=3)
        blob = dump_model([ModelLayer("c", geom, "f32", weights=fs.weights)])
        (layer,) = load_model(blob)
        assert layer.geom.ratio == Fraction(37, 10)

    def test_bad_magic_rejected(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.random(geom, seed=4)
        blob = dump_model([ModelLayer("c", geom, "f32", weights=fs.weights)])
        with pytest.raises(FormatError, match="magic"):
            load_model(b"XXXX" + blob[4:])

    def test_corrupted_payload_rejected(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.random(geom, seed=5)
        blob = bytearray(dump_model([ModelLayer("c", geom, "f32", weights=fs.weights)]))
        blob[-6] ^= 0xFF  # a payload byte, leaving the CRC intact
        with pytest.raises(FormatError, match="checksum"):
            load_model(bytes(blob))

    def test_truncation_rejected(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.random(geom, seed=6)
        blob = dump_model([ModelLayer("c", geom, "f32", weights=fs.weights)])
        with pytest.raises(FormatError, match="truncated"):
            load_model(blob[:-3])

    def test_refused_bytearray_stays_resizable(self):
        blob = bytearray(dump_model([one_layer("f32")]) + b"x")
        with pytest.raises(FormatError, match="1 trailing bytes") as info:
            load_model(blob)
        blob.extend(b"y")  # info's traceback keeps the reader's frame alive
        assert info.value.__traceback__ is not None

    def test_invalid_utf8_name_rejected(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        fs = FilterSummary.random(geom, seed=7)
        blob = bytearray(dump_model([ModelLayer("ab", geom, "f32", weights=fs.weights)]))
        blob[10:12] = b"\xff\xfe"  # the name follows magic, layer count and name length
        with pytest.raises(FormatError, match="UTF-8"):
            load_model(bytes(blob))

    @pytest.mark.parametrize("grid", [(1.0, -1.0), (float("nan"), 1.0), (0.0, float("inf")),
                                      (-1e308, 1e308)])  # the last: w_max - w_min overflows
    def test_bad_grid_endpoints_rejected(self, grid):
        blob = q8_model_with_grid(*grid)
        with pytest.raises(InvalidGridError, match="grid must be finite with w_min <= w_max"):
            load_model(blob)

    def test_underflowing_grid_step_rejected(self):
        with pytest.raises(InvalidGridError, match=r"^grid \[0.0, 1e-323\] is too narrow for 8 bits"):
            load_model(q8_model_with_grid(0.0, 1e-323))  # every code would dequantize to 0.0

    def test_layer_validation(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        with pytest.raises(FormatError):
            ModelLayer("c", geom, "f32")  # no payload
        with pytest.raises(FormatError):
            ModelLayer("c", geom, "q8", weights=np.zeros(2, dtype=np.float32))
        q4 = quantize(np.zeros(2), 4)
        with pytest.raises(FormatError, match="a q8 layer carries one payload of 8-bit values"):
            ModelLayer("c", geom, "q8", quant=q4)
        with pytest.raises(FormatError, match="one payload"):
            ModelLayer("c", geom, "f32", weights=np.zeros(2, dtype=np.float32), quant=q4)
        with pytest.raises(FormatError, match=r"shape \(2,\); got \(bits, shape\) \[\(32, \(3,\)\)\]"):
            ModelLayer("c", geom, "f32", weights=np.zeros(3, dtype=np.float32))
        with pytest.raises(FormatError, match="^unknown layer dtype 'f16'$"):
            ModelLayer("c", geom, "f16", weights=np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeMismatchError, match=r"^layer 'c': alphas \(2,\) != \(1,\)$"):
            ModelLayer("c", geom, "f32", weights=np.zeros(2, dtype=np.float32), alphas=np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_alphas_refused(self, value):
        alphas = np.linspace(-1.0, 1.0, CANON_GEOM.c_out)
        blob = bytearray(dump_model([one_layer("f32")]))
        blob[-12:-4] = struct.pack("<d", value)  # the last alpha, before the checksum
        with pytest.raises(FormatError, match="alphas must be finite"):
            load_model(with_fresh_crc(blob))
        alphas[0] = value
        with pytest.raises(FormatError, match="alphas must be finite"):
            ModelLayer("c", CANON_GEOM, "f32", weights=np.zeros(63, dtype=np.float32),
                       alphas=alphas)

    def test_alphas_changed_in_place_refused_before_writing(self, tmp_path):
        layer = one_layer("f32")
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            layer.alphas[0] = np.nan  # the stored arrays are read-only after the checks
        path = tmp_path / "m.fsn"
        write_model(path, [layer])
        assert np.array_equal(read_model(path)[0].alphas, np.linspace(-1.0, 1.0, CANON_GEOM.c_out))

    def test_fields_cannot_be_reassigned(self):
        layer = one_layer("f32")
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.weights = np.zeros(3, dtype=np.float32)
        assert layer.weights.shape == (63,)

    @pytest.mark.parametrize("ratio, error, message", [
        ((2, 0), FormatError, "zero ratio denominator"),
        ((1, 2), InvalidRatioError, "compression ratio must be >= 1, got 1/2"),
        ((1000, 1), InvalidRatioError, r"summary length 0 shorter than one filter \(27\); "
                                       "ratio 1000 too aggressive for c_out=4"),
    ], ids=["zero_denominator", "below_one", "too_aggressive"])
    def test_header_ratio_refusal_names_the_layer(self, ratio, error, message):
        blob = bytearray(dump_model([one_layer("f32", with_alphas=False)]))
        blob[HEADER_AT + 16 : HEADER_AT + 32] = struct.pack("<QQ", *ratio)
        with pytest.raises(error, match=f"^layer 'c': {message}$"):
            load_model(with_fresh_crc(blob))

    def test_layout_is_derived_once_per_geometry(self):
        layer = ModelLayer("c", CANON_GEOM, "f32", weights=np.zeros(63, dtype=np.float32))
        first = layer.layout
        before = derive_layout.cache_info()
        for _ in range(5):
            assert layer.layout is first
        after = derive_layout.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (5, 0)

    def test_each_distinct_header_is_decoded_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        f32 = []
        for spec in read_arch(bundled_arch("resnet110")).layers:
            if isinstance(spec, ConvSpec):
                geom = ConvGeometry(spec.c_in, spec.s1, spec.s2, spec.c_out, 4)
                weights = rng.standard_normal(derive_layout(geom).phys_length)
                f32.append(ModelLayer(spec.name, geom, "f32", weights=weights))
        models = {"f32": f32}
        for nbits in (8, 4):
            models[f"q{nbits}"] = [ModelLayer(layer.name, layer.geom, f"q{nbits}",
                                              quant=quantize(layer.weights, nbits)) for layer in f32]
        built = []
        monkeypatch.setattr(fsconv.formats, "ConvGeometry",
                            lambda *args: built.append(args) or ConvGeometry(*args))
        for layers in models.values():
            blob = dump_model(layers)
            built.clear()
            loaded = load_model(blob)
            assert (len(loaded), len(built)) == (109, 6)  # ResNet-110 has 6 conv shapes
            assert dump_model(loaded) == blob

    @pytest.mark.parametrize("name, message", [("x" * 65_536, "65536 UTF-8 bytes, over 65535"),
                                               ("\ud800", "cannot be encoded as UTF-8")],
                             ids=["too_long", "lone_surrogate"])
    def test_unstorable_name_refused_before_writing(self, tmp_path, name, message):
        path = tmp_path / "m.fsn"
        unstorable = ModelLayer(name, CANON_GEOM, "f32", weights=np.zeros(63, dtype=np.float32))
        with pytest.raises(FormatError, match=message) as info:
            write_model(path, [one_layer("f32"), unstorable])
        assert str(info.value).startswith(f"layer {name[:40]!r}")
        assert not path.exists()


# Records of every dtype use this geometry; its 63 q4 codes leave the last byte half used.
CANON_GEOM = ConvGeometry(3, 3, 3, 4, 2)  # phys 63
HEADER_AT = 4 + 4 + 2 + 1  # magic, layer count, name length, the one-letter name
HEADER_SIZE = 36  # c_in s1 s2 c_out (u32), ratio (2 x u64), policy dtype alpha-flag reserved (u8)


def one_layer(dtype, with_alphas=True):
    weights = FilterSummary.random(CANON_GEOM, seed=11, dtype=np.float32).weights
    alphas = np.linspace(-1.0, 1.0, CANON_GEOM.c_out) if with_alphas else None
    if dtype == "f32":
        return ModelLayer("c", CANON_GEOM, "f32", weights=weights, alphas=alphas)
    q = quantize(weights, int(dtype[1:]))
    return ModelLayer("c", CANON_GEOM, dtype, quant=q, alphas=alphas)


def with_fresh_crc(blob: bytearray, header_at: int = HEADER_AT) -> bytes:
    """The blob with the checksum of its last record, whose header is at
    `header_at`, matching that record's (edited) payload again."""
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[header_at + HEADER_SIZE : -4])))
    return bytes(blob)


def resnet110_model():
    """The ResNet-110 conv layers at ratio 4, f32 weights, every third layer with alphas."""
    rng = np.random.default_rng(110)
    layers = []
    for spec in read_arch(bundled_arch("resnet110")).layers:
        if isinstance(spec, ConvSpec):
            geom = ConvGeometry(spec.c_in, spec.s1, spec.s2, spec.c_out, 4)
            weights = rng.standard_normal(derive_layout(geom).phys_length).astype(np.float32)
            alphas = rng.standard_normal(geom.c_out) if len(layers) % 3 == 0 else None
            layers.append(ModelLayer(spec.name, geom, "f32", weights=weights, alphas=alphas))
    return layers


def stored_arrays(layer):
    return [a for a in (layer.weights, layer.alphas, layer.quant and layer.quant.codes) if a is not None]


class TestReadOnlyLayers:
    def test_raised_q4_code_refused_at_the_assignment(self):
        layer = one_layer("q4")  # CANON_GEOM: a writable 255 was written masked, read back as 15
        codes = layer.quant.codes.copy()
        with pytest.raises(ValueError, match="^assignment destination is read-only$"):
            layer.quant.codes[1] = 255
        (again,) = load_model(dump_model([layer]))
        assert np.array_equal(again.quant.codes, codes)

    @pytest.mark.parametrize("dtype", ["f32", "q8", "q4"])
    def test_loaded_and_quantized_arrays_are_read_only(self, dtype):
        layer = one_layer(dtype)
        (loaded,) = load_model(dump_model([layer]))
        for stored in stored_arrays(layer) + stored_arrays(loaded):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
                stored.flags.writeable = True

    def test_a_writable_array_is_copied_and_keeps_its_flags(self):
        weights = np.zeros(63, dtype=np.float32)
        alphas = np.zeros(CANON_GEOM.c_out)
        layer = ModelLayer("c", CANON_GEOM, "f32", weights=weights, alphas=alphas)
        assert weights.flags.writeable and alphas.flags.writeable
        weights[0] = alphas[0] = 1.0  # does not reach the layer
        assert layer.weights[0] == layer.alphas[0] == 0.0
        again = ModelLayer("c", CANON_GEOM, "f32", weights=layer.weights, alphas=layer.alphas)
        assert not np.shares_memory(again.weights, layer.weights)  # read-only too: still copied
        assert not np.shares_memory(again.alphas, layer.alphas)
        for stored in (layer.weights, layer.alphas):
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
                stored.flags.writeable = True

    def test_a_read_only_array_made_writable_again_does_not_reach_the_file(self):
        alphas = np.zeros(CANON_GEOM.c_out)
        codes = quantize(FilterSummary.random(CANON_GEOM, seed=11).weights, 4).codes.copy()
        for owned in (alphas, codes):
            owned.flags.writeable = False  # the caller owns both, so it may set the flag back
        weights = np.zeros(63, dtype=np.float32)
        f32 = ModelLayer("c", CANON_GEOM, "f32", weights=weights, alphas=alphas)
        q4 = ModelLayer("c", CANON_GEOM, "q4", quant=QuantizedSummary(codes, 4, 0.0, 1.0))
        blob, kept = dump_model([f32, q4]), codes.copy()
        for owned in (alphas, codes):
            owned.flags.writeable = True
        alphas[0], codes[1] = np.nan, 255  # neither the NaN nor the code past 15 may reach a file
        assert np.array_equal(f32.alphas, np.zeros(CANON_GEOM.c_out))
        assert np.array_equal(q4.quant.codes, kept)
        assert dump_model([f32, q4]) == blob
        assert np.array_equal(load_model(blob)[1].quant.codes, kept)

    def test_loaded_payload_does_not_follow_the_callers_bytearray(self):
        blob = bytearray(dump_model([one_layer("f32")]))
        (layer,) = load_model(blob)
        weights = layer.weights.copy()
        blob[HEADER_AT + HEADER_SIZE : -4] = bytes(len(blob) - HEADER_AT - HEADER_SIZE - 4)
        assert np.array_equal(layer.weights, weights)

    def test_loading_never_runs_the_public_checks(self, monkeypatch):
        layers = resnet110_model()
        quantized = [ModelLayer(f.name, f.geom, "q4", quant=quantize(f.weights, 4), alphas=f.alphas)
                     for f in layers]
        blobs = dump_model(layers), dump_model(quantized)
        calls = []
        for cls in (ModelLayer, QuantizedSummary):
            def counted(self, checks=cls.__post_init__):
                calls.append(type(self).__name__)
                checks(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        for blob in blobs:
            assert dump_model(load_model(blob)) == blob
        assert len(layers) == 109 and calls == []
        ModelLayer("c", CANON_GEOM, "q8", quant=QuantizedSummary(np.zeros(63), 8, 0.0, 1.0))
        assert calls == ["QuantizedSummary", "ModelLayer"]  # the counters see the public checks


def reserved_byte(blob):
    blob[HEADER_AT + 35] = 1


def alpha_flag_two(blob):
    blob[HEADER_AT + 34] = 2


def ratio_six_thirds(blob):  # 6/3 == 2, the stored ratio, but not in lowest terms
    blob[HEADER_AT + 16 : HEADER_AT + 32] = struct.pack("<QQ", 6, 3)


def q4_pad_nibble(blob):  # the high nibble of the last code byte, before the alphas
    blob[-4 - 8 * CANON_GEOM.c_out - 1] |= 0xF0


class TestCanonicalOnly:
    """A file loads only if writing it again gives the same bytes."""

    @pytest.mark.parametrize(
        "edit, dtype, message",
        [
            (reserved_byte, "f32", "canonical"),
            (alpha_flag_two, "q8", "canonical"),
            (ratio_six_thirds, "f32", "canonical"),
            (q4_pad_nibble, "q4", "unused bits"),
        ],
        ids=["reserved_byte", "alpha_flag", "ratio_6_3", "q4_pad_nibble"],
    )
    def test_non_canonical_record_refused(self, edit, dtype, message):
        blob = bytearray(dump_model([one_layer(dtype)]))
        assert dump_model(load_model(bytes(blob))) == blob
        edit(blob)
        with pytest.raises(FormatError, match=message):
            load_model(with_fresh_crc(blob))

    @pytest.mark.parametrize("dtype", ["f32", "q4"])
    def test_repeated_header_with_reserved_byte_refused(self, dtype):
        # The reader decodes each distinct header once: a second record whose
        # header differs from the first only in the reserved byte is still refused.
        blob = bytearray(dump_model([one_layer(dtype), one_layer(dtype)]))
        second = len(dump_model([one_layer(dtype)])) + HEADER_AT - 8  # past the first record
        assert blob[second : second + HEADER_SIZE] == blob[HEADER_AT : HEADER_AT + HEADER_SIZE]
        assert load_model(bytes(blob))
        blob[second + 35] = 1  # the reserved byte
        with pytest.raises(FormatError, match="layer 'c': header is not in canonical form"):
            load_model(with_fresh_crc(blob, second))


FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None)


def payload_spans(layers):
    """(start, end) of each record's CRC-covered payload in dump_model(layers)."""
    spans = []
    for i, layer in enumerate(layers):
        start = len(dump_model(layers[:i])) + 2 + len(layer.name.encode()) + HEADER_SIZE
        spans.append((start, len(dump_model(layers[: i + 1])) - 4))
    return spans


BASE_MODELS = [
    (dump_model(layers), payload_spans(layers))
    for layers in (
        [one_layer("f32"), one_layer("q8", False), one_layer("q4")],
        [one_layer("q4", False), one_layer("f32", False)],
        [one_layer("q8")],
        [one_layer("q4"), one_layer("q4")],  # two records, one header
    )
]


@st.composite
def mutated_blobs(draw):
    """A base model with a byte or two replaced, most often in a header (which
    no checksum covers), then possibly given valid checksums and truncated."""
    blob, spans = draw(st.sampled_from(BASE_MODELS))
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 2))):
        start, _ = draw(st.sampled_from(spans))
        at = draw(
            st.integers(start - 4, start - 1)  # policy, dtype, alpha flag, reserved
            | st.integers(start - HEADER_SIZE, start - 1)
            | st.integers(0, len(blob) - 1)
        )
        blob[at] = draw(st.integers(0, 255))
    if draw(st.booleans()):  # keep every checksum valid, as a careful forger would
        for start, end in spans:
            blob[end : end + 4] = struct.pack("<I", zlib.crc32(bytes(blob[start:end])))
    if draw(st.integers(0, 3)) == 0:
        del blob[draw(st.integers(0, len(blob))) :]
    return bytes(blob)


class TestModelFuzz:
    @FUZZ
    @given(mutated_blobs())
    def test_mutated_blob_is_refused_or_canonical(self, blob):
        try:
            layers = load_model(blob)
        except FilterSummaryError:
            return
        assert dump_model(layers) == blob


class TestArchRoundTrip:
    def test_canonical_text_survives(self):
        rng = np.random.default_rng(7)
        kinds = ("conv", "bn", "fc")
        for _ in range(40):
            layers = []
            for i in range(int(rng.integers(1, 8))):
                kind = kinds[int(rng.integers(3))]
                if kind == "conv":
                    ratio = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 3))) if rng.random() < 0.5 else None
                    if ratio is not None and ratio < 1:
                        ratio = 1 / ratio
                    policy = StridePolicy.GENERIC if rng.random() < 0.3 else None
                    layers.append(
                        ConvSpec(
                            f"conv{i}",
                            int(rng.integers(1, 64)),
                            int(rng.integers(1, 6)),
                            int(rng.integers(1, 6)),
                            int(rng.integers(1, 64)),
                            ratio,
                            policy,
                        )
                    )
                elif kind == "bn":
                    layers.append(BatchNormSpec(f"bn{i}", int(rng.integers(1, 128))))
                else:
                    layers.append(
                        DenseSpec(
                            f"fc{i}",
                            int(rng.integers(1, 512)),
                            int(rng.integers(1, 64)),
                            bool(rng.integers(2)),
                        )
                    )
            default_ratio = Fraction(4) if rng.random() < 0.5 else None
            arch = ArchSpec(layers=layers, default_ratio=default_ratio)
            text = dump_arch(arch)
            assert dump_arch(parse_arch(text)) == text

    def test_comments_and_decimal_ratio(self):
        arch = parse_arch(
            "# a comment\n"
            "ratio 3.7\n"
            "layer c kind=conv c_in=2 s1=3 s2=3 c_out=4 r=2 # trailing\n"
        )
        assert arch.default_ratio == Fraction(37, 10)
        assert arch.layers[0].ratio == 2

    @pytest.mark.parametrize(
        "text",
        [
            "layer x",  # no kind=
            "layer c kind=mystery foo=1",
            "layer c kind=conv c_in=2 s1=3",  # missing keys
            "layer c kind=conv c_in=2 s1=3 s2=3 c_out=4 bogus=1",
            "layer c kind=conv c_in=x s1=3 s2=3 c_out=4",
            "layer c kind=conv c_in=2 s1=3 s2=3 c_out=4 r=0.5",
            "ratio 4 5",
            "weird directive",
            "layer a kind=bn channels=4\nlayer a kind=bn channels=4",
            "layer f kind=fc in=4 out=2 bias=abc",
            "layer f kind=fc in=4 out=2 bias=2",
            "ratio 2\nlayer c kind=conv c_in=2 s1=3 s2=3 c_out=4\nratio 8",
            "policy slice\npolicy slice",
            "ratio 1e5000",  # more digits than a record can show
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_arch(text)

    def test_repeated_directive_names_its_line(self):
        # a second `ratio` would otherwise apply to the layers above it too
        with pytest.raises(FormatError, match="^line 3: repeated ratio directive$"):
            parse_arch("ratio 2\nlayer c kind=conv c_in=2 s1=3 s2=3 c_out=4\nratio 8\n")

    def test_bias_zero_round_trips(self):
        text = "layer f kind=fc in=4 out=2 bias=0\n"
        (layer,) = parse_arch(text).layers
        assert layer.bias is False
        assert layer.params == 8
        assert dump_arch(parse_arch(text)) == text


class TestLineTable:
    """ARCH_KINDS is the one definition of a layer line: its keys, in file order."""

    def test_each_key_once_per_kind_in_field_order(self):
        for kind, (cls, keys) in ARCH_KINDS.items():
            names = [key for key, _ in keys]
            assert len(set(names)) == len(names), kind
            assert len(names) == len(fields(cls)) - 1  # one key per field after the name
        assert set(ARCH_DIRECTIVES) == {"ratio", "policy"}

    def test_fields_of_each_kind(self):
        conv = ConvSpec("c", 2, 3, 3, 4, Fraction(7, 2), StridePolicy.SLICE_ALIGNED)
        assert arch_fields(conv) == {"kind": "conv", "c_in": "2", "s1": "3", "s2": "3",
                                     "c_out": "4", "r": "7/2", "policy": "slice"}
        assert arch_fields(ConvSpec("c", 2, 3, 3, 4)) == {
            "kind": "conv", "c_in": "2", "s1": "3", "s2": "3", "c_out": "4"}  # None not written
        assert arch_fields(BatchNormSpec("b", 16)) == {"kind": "bn", "channels": "16"}
        assert arch_fields(DenseSpec("f", 64, 10, False)) == {
            "kind": "fc", "in": "64", "out": "10", "bias": "0"}

    def test_defaults_fill_left_out_fields(self):
        conv, fc = parse_arch("layer c kind=conv c_in=2 s1=3 s2=3 c_out=4\n"
                              "layer f kind=fc in=4 out=2\n").layers
        assert conv == ConvSpec("c", 2, 3, 3, 4, None, None)
        assert fc == DenseSpec("f", 4, 2, True)


def _outcome(read, text):
    """The value `read` gives for the text, or the type of its refusal."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _fraction_with_limit(text):
    """The definition parse_ratio keeps: Fraction(text), if its exact value has a text form."""
    ratio = Fraction(text)
    str(ratio)
    return ratio


def _forbid_fraction_of(monkeypatch, text):
    """Fail where fsconv.formats hands Fraction the whole text, which builds its power of ten."""
    def spy(value, *rest):
        assert value != text, "Fraction read the whole text"
        return Fraction(value, *rest)

    monkeypatch.setattr(fsconv.formats, "Fraction", spy)


class TestParseRatio:
    @pytest.mark.parametrize("text", ["1e1000000", "-1e1000000", "1e-1000000", "7.5E+10000000",
                                      "1_0e1_000_000", "0.0001e1000000"])
    def test_huge_exponent_refused_before_fraction_reads_it(self, monkeypatch, text):
        # a line holding such a ratio keeps the message it had
        _forbid_fraction_of(monkeypatch, text)
        with pytest.raises(ValueError, match="digits"):
            parse_ratio(text)
        message = f"line 1: r must be a rational >= 1, got {text!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_arch(f"layer c kind=conv c_in=2 s1=3 s2=3 c_out=4 r={text}")

    @pytest.mark.parametrize("text", ["0e1000000", "-0.000e-10000000", "+.0E99999999"])
    def test_zero_at_any_exponent_is_zero(self, monkeypatch, text):
        _forbid_fraction_of(monkeypatch, text)
        assert parse_ratio(text) == 0

    def test_agrees_with_fraction_near_the_digit_limit(self):
        # the same value or the same refusal as Fraction and its text form, on
        # each side of the digit limit and of the exponent parse_ratio refuses
        limit = sys.get_int_max_str_digits()
        texts = [f"1e{limit - 1}", f"1e{limit}", f"9.99e{limit - 1}", f"-1e{limit - 1}",
                 f"0.0001e{limit + 2}", f"0.0001e{limit + 3}", f"0.{'0' * 40}1e{limit + 40}",
                 f"1e-{limit - 1}", f"1e-{limit}", f"2e-{limit}", f"5e-{limit + 1}",
                 f"125e-{limit + 2}", f"1_000e{limit - 4}", f"{'9' * 50}e{limit - 50}",
                 f"{'9' * 50}e{limit - 51}", f"{'9' * 50}.5e-{limit - 60}",
                 f"1e{limit + 5}", f"1e{limit + 6}", f"1e-{limit + 6}", f"1e-{limit + 7}",
                 f"{'1' * limit}e0", "1e 5", "0e 5", "0/1e5", "1e", "e5", "1e5e5", "1.5E3",
                 " 1e5 ", "1.e2", ".5e-2", "1e1_0", "1e1__0", "\u0664e2", "0e" + "1" * (limit + 1)]
        for text in texts:
            assert _outcome(parse_ratio, text) == _outcome(_fraction_with_limit, text), text


class TestBundledArch:
    def test_resnet110_is_complete(self):
        arch = read_arch(bundled_arch("resnet110"))
        convs = [l for l in arch.layers if isinstance(l, ConvSpec)]
        bns = [l for l in arch.layers if isinstance(l, BatchNormSpec)]
        fcs = [l for l in arch.layers if isinstance(l, DenseSpec)]
        assert len(convs) == 109  # stem + 54 two-conv blocks
        assert len(bns) == 109
        assert len(fcs) == 1
        assert sum(c.c_in * c.s1 * c.s2 * c.c_out for c in convs) == 1_719_216

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            bundled_arch("nope")


LAYER_SIZES = {"conv": ("c_in", "s1", "s2", "c_out"), "bn": ("channels",), "fc": ("in", "out")}
ARCH_VALUE = st.sampled_from(["1", "2", "16", "0", "-1", "x", "", "3/2", "1/2", "2.5", "1/0",
                              "nan", "conv", "bn", "fc", "generic", "slice", "channel", "#"])
ARCH_KEY = st.sampled_from(["kind", "c_in", "s2", "r", "policy", "channels", "out", "bias", "x"])


@st.composite
def arch_lines(draw):
    """A well-formed layer, `ratio` or `policy` line, sometimes followed by
    tokens drawn from valid and invalid keys and values."""
    head = draw(st.sampled_from(["conv", "bn", "fc", "ratio", "policy"]))
    if head == "ratio":
        line = [f"ratio {draw(st.sampled_from(['2', '3/2', '4.5']))}"]
    elif head == "policy":
        line = [f"policy {draw(st.sampled_from([p.value for p in StridePolicy]))}"]
    else:
        line = [f"layer {draw(st.sampled_from('abcde'))} kind={head}"]
        line += [f"{key}={draw(st.integers(1, 64))}" for key in LAYER_SIZES[head]]
    token = st.builds("{}={}".format, ARCH_KEY, ARCH_VALUE) | ARCH_VALUE
    noise = draw(st.lists(token, max_size=2)) if draw(st.booleans()) else []
    return " ".join(line + noise)


class TestArchFuzz:
    @FUZZ
    @given(st.lists(arch_lines(), max_size=4).map("\n".join))
    def test_text_is_refused_or_round_trips(self, text):
        try:
            arch = parse_arch(text)
        except FormatError:
            return
        assert parse_arch(dump_arch(arch)) == arch
