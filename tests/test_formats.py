"""Model container and architecture text format: round trips and rejection."""

from fractions import Fraction

import numpy as np
import pytest

from fsconv import (
    ArchSpec,
    BatchNormSpec,
    ConvGeometry,
    ConvSpec,
    DenseSpec,
    FilterSummary,
    ModelLayer,
    StridePolicy,
    bundled_arch,
    dump_arch,
    dump_model,
    load_model,
    parse_arch,
    quantize,
    read_arch,
    read_model,
    write_model,
)
from fsconv.errors import FormatError

from helpers import random_fast_geometry


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

    def test_layer_validation(self):
        geom = ConvGeometry(1, 1, 2, 1, 1)
        with pytest.raises(FormatError):
            ModelLayer("c", geom, "f32")  # no payload
        with pytest.raises(FormatError):
            ModelLayer("c", geom, "q8", weights=np.zeros(2, dtype=np.float32))


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
            "layer c kind=mystery foo=1",
            "layer c kind=conv c_in=2 s1=3",  # missing keys
            "layer c kind=conv c_in=2 s1=3 s2=3 c_out=4 bogus=1",
            "layer c kind=conv c_in=x s1=3 s2=3 c_out=4",
            "layer c kind=conv c_in=2 s1=3 s2=3 c_out=4 r=0.5",
            "ratio 4 5",
            "weird directive",
            "layer a kind=bn channels=4\nlayer a kind=bn channels=4",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            parse_arch(text)


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
