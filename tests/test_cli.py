"""The command-line surface, invoked in-process and parsed from stdout."""

import contextlib
import io
import os
import struct
import subprocess
import sys
import warnings
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsconv.cli
import fsconv.dfs
import fsconv.fcfs
import fsconv.formats
from fsconv import (
    ConvGeometry,
    FeatureMap,
    FilterSummary,
    ModelLayer,
    StridePolicy,
    central_diff,
    derive_layout,
    dump_model,
    effective_params,
    extract_fractional,
    fcfs_conv,
    grad_alpha,
    grad_summary,
    init_alphas,
    locate,
    locate_grad,
    naive_conv,
    quantize,
    read_model,
    rel_dev,
    unwrap,
    write_model,
)
from fsconv.cli import main

from helpers import q8_model_with_grid


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    records = []
    for line in captured.out.strip().splitlines():
        tokens = line.split()
        records.append((tokens[0], dict(t.split("=", 1) for t in tokens[1:])))
    return code, records, captured.err


def records_of(records, kind):
    return [fields for record, fields in records if record == kind]


@pytest.fixture
def small_model(tmp_path):
    geom = ConvGeometry(3, 3, 3, 6, 2, StridePolicy.CHANNEL_ALIGNED)
    fs = FilterSummary.random(geom, seed=0, dtype=np.float32)
    path = tmp_path / "model.fsn"
    write_model(
        path,
        [ModelLayer("c1", geom, "f32", weights=fs.weights, alphas=init_alphas(fs))],
    )
    return path, geom, fs


@pytest.fixture
def small_input(tmp_path):
    rng = np.random.default_rng(1)
    tensor = rng.uniform(-1, 1, (3, 6, 6))
    path = tmp_path / "input.npy"
    np.save(path, tensor)
    return path, tensor


class TestPlan:
    def test_bundled_resnet110(self, capsys):
        code, records, _ = run(capsys, "plan", "resnet110", "--ratio", "4")
        assert code == 0
        (total,) = records_of(records, "total")
        baseline = int(total["baseline"])
        fsnet = int(total["fsnet"])
        assert abs(baseline - 1_740_000) <= 0.02 * 1_740_000
        assert abs(fsnet - 440_000) <= 0.05 * 440_000
        assert 3.5 <= float(total["cr"]) <= 4.3
        layers = records_of(records, "layer")
        assert len(layers) == 219

    def test_single_layer_worked_example(self, capsys, tmp_path):
        arch = tmp_path / "one.arch"
        arch.write_text("layer c kind=conv c_in=64 s1=3 s2=3 c_out=64 r=4\n")
        code, records, _ = run(capsys, "plan", arch)
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert int(layer["L"]) == 9216
        assert float(layer["cr_nominal"]) == 4.0
        assert abs(float(layer["pred_ratio"]) - 11.294) < 1e-2

    def test_ratio_one_everywhere(self, capsys, tmp_path):
        arch = tmp_path / "two.arch"
        arch.write_text(
            "layer a kind=conv c_in=8 s1=3 s2=3 c_out=8\n"
            "layer b kind=conv c_in=8 s1=1 s2=1 c_out=16\n"
        )
        code, records, _ = run(capsys, "plan", arch, "--ratio", "1")
        assert code == 0
        a, b = records_of(records, "layer")
        assert 1.0 <= float(a["cr_nominal"]) < 1.02
        # a 1x1 layer's generic stride is below c_in at every ratio, so its
        # channel-aligned stride is 0 and its c_out filters are one
        assert b["error"] == "degenerate_stride"

    def test_degenerate_stride_surfaced_not_fatal(self, capsys, tmp_path):
        arch = tmp_path / "deg.arch"
        arch.write_text(
            "layer bad kind=conv c_in=64 s1=3 s2=3 c_out=64 r=4 policy=slice\n"
            "layer good kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n"
        )
        code, records, _ = run(capsys, "plan", arch)
        assert code == 0
        layers = records_of(records, "layer")
        assert layers[0]["error"] == "degenerate_stride"
        assert (layers[0]["r"], layers[0]["policy"]) == ("4", "slice")
        assert "error" not in layers[1]

    def test_channel_aligned_stride_zero_is_degenerate(self, capsys):
        # from ratio 9 on, every 3x3 layer's channel-aligned stride rounds to
        # 0 (the generic stride is below c_in), so all its filters would be
        # one: each such layer is refused and stays uncompressed
        code, records, _ = run(capsys, "plan", "resnet110", "--ratio", "16")
        assert code == 0
        convs = [layer for layer in records_of(records, "layer") if layer["kind"] == "conv"]
        assert len(convs) == 109
        assert all(layer["error"] == "degenerate_stride" and "s" not in layer
                   and layer["fs"] == layer["baseline"] for layer in convs)
        code, records, _ = run(capsys, "plan", "resnet110", "--ratio", "8")
        assert all("error" not in layer and layer["s"] != "0"
                   for layer in records_of(records, "layer") if layer["kind"] == "conv")

    @pytest.mark.parametrize("bias", ["abc", "2"])
    def test_bad_bias_is_input_error(self, capsys, tmp_path, bias):
        arch = tmp_path / "fc.arch"
        arch.write_text(f"layer f kind=fc in=4 out=2 bias={bias}\n")
        code, records, err = run(capsys, "plan", arch)
        assert code == 2
        assert err == f"error: line 1: bias must be 0 or 1, got '{bias}'\n"
        assert records == []

    def test_missing_ratio_is_input_error(self, capsys, tmp_path):
        arch = tmp_path / "nr.arch"
        arch.write_text("layer c kind=conv c_in=2 s1=3 s2=3 c_out=4\n")
        code, _, err = run(capsys, "plan", arch)
        assert code == 2
        assert "ratio" in err

    @pytest.mark.parametrize("ratio", ["abc", "1/0", "", "1e5000"])  # the last: too many digits
    def test_bad_ratio_is_input_error(self, capsys, ratio):
        code, records, err = run(capsys, "plan", "resnet110", "--ratio", ratio)
        assert code == 2
        assert "--ratio must be a rational number" in err
        assert records_of(records, "total") == []

    @pytest.mark.parametrize("argv, text, ratio", [
        (("--ratio", "1e400"), "", 10**400),
        (("--ratio=-1e400",), "", -10**400),
        ((), " r=1e400", 10**400),
        ((), "\nratio 1e999", 10**999),
    ], ids=["option", "negative_option", "layer_r", "directive"])
    def test_ratio_beyond_float_range_is_invalid_per_layer(self, capsys, tmp_path, argv, text,
                                                          ratio):
        arch = tmp_path / "huge.arch"
        arch.write_text("layer c kind=conv c_in=2 s1=3 s2=3 c_out=4" + text + "\n")
        code, records, err = run(capsys, "plan", arch, *argv)
        assert (code, err) == (0, "")
        (layer,) = records_of(records, "layer")
        assert layer["error"] == "invalid_ratio"
        assert layer["r"] == str(ratio)  # exact, as the arch file writes it
        assert records_of(records, "total") == [{"baseline": "72", "fsnet": "72", "cr": "1"}]

    def test_records_name_every_arch_field(self, capsys, tmp_path):
        # each record has the layer's key=value fields as its arch line writes them,
        # the resolved ratio and policy included, then what plan computes
        arch = tmp_path / "all.arch"
        arch.write_text("policy generic\n"
                        "layer c kind=conv c_in=4 s1=3 s2=3 c_out=8 r=7/2\n"
                        "layer d kind=conv c_in=4 s1=3 s2=3 c_out=8\n"
                        "layer b kind=bn channels=8\n"
                        "layer f kind=fc in=8 out=2 bias=0\n")
        code, records, _ = run(capsys, "plan", arch, "--ratio", "3.5")
        assert code == 0
        conv, default, bn, fc = records_of(records, "layer")
        assert list(conv)[:8] == ["name", "kind", "c_in", "s1", "s2", "c_out", "r", "policy"]
        assert (conv["r"], conv["policy"]) == (default["r"], default["policy"]) == ("7/2", "generic")
        assert bn == {"name": "b", "kind": "bn", "channels": "8", "params": "16"}
        assert fc == {"name": "f", "kind": "fc", "in": "8", "out": "2", "bias": "0", "params": "16"}

    def test_s2_one_reports_pred_ratio(self, capsys, tmp_path):
        # one filter column is an ordinary layer: K = 24, 4 slices, so the
        # closed form at 1x1 is 8*24 / (8*4 + 8*1)
        arch = tmp_path / "one_col.arch"
        arch.write_text("layer c kind=conv c_in=8 s1=3 s2=1 c_out=8 r=2\n")
        code, records, _ = run(capsys, "plan", arch)
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert "accelerable" not in layer
        assert layer["pred_ratio"] == "4.8"


class TestConv:
    def test_both_engines_agree(self, capsys, small_model, small_input, tmp_path):
        model_path, geom, fs = small_model
        input_path, tensor = small_input
        out_path = tmp_path / "out.npy"
        code, records, _ = run(
            capsys, "conv", model_path, input_path, "--engine", "both", "--output", out_path
        )
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert float(layer["dev"]) <= 1e-5
        assert int(layer["naive_mults"]) == 6 * 36 * geom.filter_len
        saved = np.load(out_path)
        # same dtypes the command uses: f32 weights against the f64 input
        expected = naive_conv(
            FilterSummary(geom, fs.layout, fs.weights), unwrap(tensor)
        ).as_3d()
        assert saved == pytest.approx(expected, rel=1e-12)

    def test_loaded_weights_give_the_bytes_of_aligned_copies(self, capsys, tmp_path):
        # FSN1 payloads load at odd byte offsets, here after the names conv1 and conv2, and
        # each layer's summary holds an aligned C-ordered copy: the output file and each
        # layer's deviation are what both engines give on aligned copies of the same f32
        # weights, chained through the oracle as the command does
        geoms = [ConvGeometry(20, 3, 3, 32, Fraction(3, 2)), ConvGeometry(32, 2, 3, 20, 2)]
        model = tmp_path / "m.fsn"
        write_model(model, [
            ModelLayer(f"conv{i + 1}", geom, "f32",
                       weights=FilterSummary.random(geom, seed=i, dtype=np.float32).weights)
            for i, geom in enumerate(geoms)])
        tensor = np.random.default_rng(0).standard_normal((20, 11, 7)).astype(np.float32)
        np.save(tmp_path / "x.npy", tensor)
        code, records, _ = run(capsys, "conv", model, tmp_path / "x.npy", "--engine", "both")
        assert code == 0
        current, devs = unwrap(tensor), []
        for layer in read_model(model):
            loaded = layer.summary()
            assert not layer.weights.flags.aligned
            assert loaded.weights.flags.aligned and loaded.weights.flags.c_contiguous
            assert loaded.weights.tobytes() == layer.weights.tobytes()
            fs = FilterSummary(loaded.geom, loaded.layout, layer.weights.copy())
            fast = fcfs_conv(fs, current)[0]
            current = naive_conv(fs, current)
            devs.append(fsconv.cli._fmt(rel_dev(fast.data, current.data)))
        assert [layer["dev"] for layer in records_of(records, "layer")] == devs
        assert np.load(tmp_path / "x.out.npy").tobytes() == current.as_3d().tobytes()

    @pytest.mark.parametrize("engine", ["fcfs", "naive", "both"])
    def test_alphas_reported_ignored(self, capsys, small_model, small_input, tmp_path, engine):
        # small_model's layer carries alphas (init_alphas), which conv does not honor: it
        # runs the fixed layout, and the layer's record says so (test_chained_layers: a
        # layer without alphas has no such field)
        model_path, geom, fs = small_model
        input_path, tensor = small_input
        out_path = tmp_path / "out.npy"
        code, records, _ = run(
            capsys, "conv", model_path, input_path, "--engine", engine, "--output", out_path
        )
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["alphas"] == "ignored"
        fixed = naive_conv(FilterSummary(geom, fs.layout, fs.weights), unwrap(tensor)).as_3d()
        assert np.load(out_path) == pytest.approx(fixed, rel=1e-12)

    def test_zero_input_zero_output(self, capsys, small_model, tmp_path):
        model_path, _, _ = small_model
        zero = tmp_path / "zero.npy"
        np.save(zero, np.zeros((3, 4, 4)))
        code, records, _ = run(capsys, "conv", model_path, zero, "--engine", "both")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert float(layer["dev"]) == 0.0
        assert not np.load(tmp_path / "zero.out.npy").any()

    def test_fcfs_by_counts_falls_back_with_warning(self, capsys, tmp_path):
        # at 4x4, the s2 = 1 layer runs fcfs (288 products + 64 lookups < 384
        # multiplies); the next one does not save (288 + 48 >= 192) and falls
        # back with the count reason
        column, loses = ConvGeometry(2, 3, 1, 4, 2), ConvGeometry(4, 1, 3, 1, 1)
        model = tmp_path / "m.fsn"
        write_model(model, [
            ModelLayer(name, geom, "f32",
                       weights=FilterSummary.random(geom, seed=3, dtype=np.float32).weights)
            for name, geom in (("c", column), ("n", loses))])
        inp = tmp_path / "i.npy"
        np.save(inp, np.random.default_rng(4).uniform(-1, 1, (2, 4, 4)))
        code, records, err = run(capsys, "conv", model, inp, "--engine", "fcfs")
        assert code == 0
        c_row, n_row = records_of(records, "layer")
        assert (c_row["fallback"], c_row["fcfs_mults"], c_row["fcfs_lookups"]) == ("0", "288", "64")
        assert (n_row["fallback"], n_row["fcfs_mults"], n_row["fcfs_lookups"]) == ("1", "192", "0")
        assert err == "warning layer=n fcfs_unsupported=more_multiplies fallback=naive\n"

    def test_filters_that_coincide_warned_and_computed_exactly(self, capsys, tmp_path):
        geom = ConvGeometry(16, 3, 3, 16, 16)  # channel-aligned stride 0
        fs = FilterSummary.random(geom, seed=3)
        assert fs.layout.stride == 0
        model = tmp_path / "one.fsn"
        write_model(model, [ModelLayer("deg", geom, "f32", weights=fs.weights)])
        tensor = np.random.default_rng(2).uniform(-1, 1, (16, 5, 5))
        np.save(tmp_path / "x.npy", tensor)
        code, records, err = run(capsys, "conv", model, tmp_path / "x.npy")
        assert code == 0
        assert err == "warning layer=deg layout=degenerate_stride\n"
        (layer,) = records_of(records, "layer")
        assert float(layer["dev"]) <= 1e-5
        out = np.load(tmp_path / "x.out.npy")
        assert np.allclose(out, out[:1])  # every filter is the same K weights

    def test_slice_aligned_stride_zero_warned_and_computed_exactly(self, capsys, tmp_path):
        geom = ConvGeometry(4, 3, 3, 8, 4, StridePolicy.SLICE_ALIGNED)  # generic stride 8 < 12
        fs = FilterSummary.random(geom, seed=3)
        assert geom.filters_coincide(fs.layout.stride)
        model = tmp_path / "slice.fsn"
        write_model(model, [ModelLayer("deg", geom, "f32", weights=fs.weights)])
        np.save(tmp_path / "x.npy", np.random.default_rng(2).uniform(-1, 1, (4, 6, 6)))
        code, records, err = run(capsys, "conv", model, tmp_path / "x.npy", "--engine", "both",
                                 "--tolerance", 1e-12)
        assert code == 0
        assert err == "warning layer=deg layout=degenerate_stride\n"
        (layer,) = records_of(records, "layer")
        assert float(layer["dev"]) <= 1e-12 and layer["fallback"] == "0"
        assert records_of(records, "status") == [{"ok": "1"}]
        out = np.load(tmp_path / "x.out.npy")
        assert out.dtype == np.float64 and np.array_equal(out, np.broadcast_to(out[:1], out.shape))

    @pytest.mark.parametrize("engine", ["fcfs", "both"])
    def test_unaligned_stride_reports_fallback(self, capsys, tmp_path, small_input, engine):
        geom = ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC)  # stride 13, c_in 3
        fs = FilterSummary.random(geom, seed=3, dtype=np.float32)
        model = tmp_path / "g.fsn"
        write_model(model, [ModelLayer("g", geom, "f32", weights=fs.weights)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a Python warning would end in a traceback
            code, records, err = run(capsys, "conv", model, small_input[0], "--engine", engine)
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["fallback"] == "1"
        assert layer["fcfs_mults"] == str(4 * 36 * geom.filter_len)
        assert layer["fcfs_lookups"] == "0"
        assert err == "warning layer=g fcfs_unsupported=unaligned_stride fallback=naive\n"

    def test_both_runs_the_reference_once_per_fallback_layer(self, capsys, tmp_path, monkeypatch):
        generic = ConvGeometry(3, 3, 3, 4, 2, StridePolicy.GENERIC)  # stride 13, c_in 3
        aligned = ConvGeometry(4, 3, 3, 8, 4)  # at 5x4: 3,864 products + 480 lookups < 5,760
        loses = ConvGeometry(8, 1, 3, 1, 1)  # at 5x4: 720 products + 60 lookups >= 480
        model = tmp_path / "m.fsn"
        write_model(model, [
            ModelLayer("g", generic, "f32", weights=FilterSummary.random(generic, seed=3).weights),
            ModelLayer("a", aligned, "f32", weights=FilterSummary.random(aligned, seed=4).weights),
            ModelLayer("n", loses, "f32", weights=FilterSummary.random(loses, seed=6).weights),
        ])
        inp = tmp_path / "i.npy"
        np.save(inp, np.random.default_rng(5).uniform(-1, 1, (3, 5, 4)))
        calls = []
        real = fsconv.fcfs._lowered_conv  # the reference engine's body, whoever checked the input
        monkeypatch.setattr(fsconv.fcfs, "_lowered_conv", lambda *a: calls.append(1) or real(*a))
        code, records, err = run(capsys, "conv", model, inp, "--engine", "both")
        assert code == 0
        assert len(calls) == 3  # "g" and "n" once, as the fallback that is also the reference
        g_row, a_row, n_row = records_of(records, "layer")
        mults = str(4 * 20 * generic.filter_len)
        assert g_row == dict(name="g", engine="both", dev="0", naive_mults=mults,
                             fcfs_mults=mults, fcfs_lookups="0", fallback="1")
        assert a_row["fallback"] == "0"
        mults = str(20 * loses.filter_len)
        assert n_row == dict(name="n", engine="both", dev="0", naive_mults=mults,
                             fcfs_mults=mults, fcfs_lookups="0", fallback="1")
        assert err == ("warning layer=g fcfs_unsupported=unaligned_stride fallback=naive\n"
                       "warning layer=n fcfs_unsupported=more_multiplies fallback=naive\n")
        fallback_out = np.load(tmp_path / "i.out.npy")
        run(capsys, "conv", model, inp, "--engine", "naive")
        assert np.array_equal(np.load(tmp_path / "i.out.npy"), fallback_out)

    @pytest.mark.parametrize("engine", ["naive", "fcfs", "both"])
    @pytest.mark.parametrize("values", [
        np.full((3, 6, 6), 1 + 2j),
        np.full((3, 6, 6), "abc"),
        np.full((3, 6, 6), None, dtype=object),
    ], ids=["complex", "string", "object"])
    def test_non_real_input_is_input_error(self, capsys, small_model, tmp_path, engine, values):
        inp = tmp_path / "odd.npy"
        np.save(inp, values)
        code, records, err = run(capsys, "conv", small_model[0], inp, "--engine", engine)
        assert code == 2
        assert err.startswith("error: ")
        assert records_of(records, "status") == []
        assert not (tmp_path / "odd.out.npy").exists()

    @pytest.mark.parametrize("engine", ["naive", "fcfs", "both"])
    @pytest.mark.parametrize("values", [True, 7, np.float32(0.5)], ids=["bool", "int", "f32"])
    def test_real_input_dtypes_accepted(self, capsys, small_model, tmp_path, engine, values):
        inp = tmp_path / "real.npy"
        np.save(inp, np.full((3, 6, 6), values))
        code, records, _ = run(capsys, "conv", small_model[0], inp, "--engine", engine)
        assert code == 0
        assert records_of(records, "status") == [{"ok": "1"}]

    @pytest.mark.parametrize("engine", ["naive", "fcfs", "both"])
    def test_bad_layer_name_or_grid_is_input_error(self, capsys, tmp_path, small_input, engine):
        blob = bytearray(q8_model_with_grid(1.0, -1.0))
        bad_grid = tmp_path / "grid.fsn"
        bad_grid.write_bytes(bytes(blob))
        blob[10:11] = b"\xff"  # the one-letter name
        bad_name = tmp_path / "name.fsn"
        bad_name.write_bytes(bytes(blob))
        for model, message in [(bad_grid, "w_min <= w_max, got [1.0, -1.0]"), (bad_name, "UTF-8")]:
            code, records, err = run(capsys, "conv", model, small_input[0], "--engine", engine)
            assert code == 2
            assert err.startswith("error: ") and message in err
            assert records == []

    @pytest.mark.parametrize("engine", ["naive", "fcfs", "both"])
    def test_grid_span_overflow_is_input_error(self, capsys, tmp_path, engine):
        # endpoints +-1e308 are finite, but tau = (w_max - w_min)/255 is inf
        model, tensor, out = tmp_path / "wide.fsn", tmp_path / "x.npy", tmp_path / "out.npy"
        model.write_bytes(q8_model_with_grid(-1e308, 1e308))
        np.save(tensor, np.ones((1, 4, 4)))
        code, records, err = run(capsys, "conv", model, tensor, "--engine", engine,
                                 "--output", out)
        assert code == 2
        assert err.startswith("error: grid must be finite") and "w_max - w_min = inf" in err
        assert records == []
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["naive", "fcfs", "both"])
    def test_empty_input_is_input_error(self, capsys, small_model, tmp_path, engine):
        empty = tmp_path / "empty.npy"
        np.save(empty, np.zeros((3, 0, 4)))
        code, records, err = run(capsys, "conv", small_model[0], empty, "--engine", engine)
        assert code == 2
        assert "sizes must be >= 1" in err
        assert records_of(records, "status") == []
        assert not (tmp_path / "empty.out.npy").exists()

    @pytest.mark.parametrize("engine", ["naive", "fcfs", "both"])
    def test_zero_size_header_is_input_error(self, capsys, small_model, small_input, tmp_path, engine):
        _, geom, fs = small_model
        blob = bytearray(dump_model([ModelLayer("z", geom, "f32", weights=fs.weights)]))
        c_in_at = 4 + 4 + 2 + len("z")  # magic, layer count, name length, name
        blob[c_in_at : c_in_at + 4] = (0).to_bytes(4, "little")
        model = tmp_path / "zero.fsn"
        model.write_bytes(bytes(blob))
        code, records, err = run(capsys, "conv", model, small_input[0], "--engine", engine)
        assert code == 2
        assert err == "error: layer 'z': c_in must be >= 1, got 0\n"
        assert records == []

    @pytest.mark.parametrize("where", ["input", "weight"])
    def test_nan_deviation_fails(self, capsys, small_model, small_input, tmp_path, where):
        model, geom, fs = small_model
        tensor = small_input[1].copy()
        if where == "input":
            tensor[1, 2, 3] = np.nan
        else:
            weights = fs.weights.copy()
            weights[5] = np.nan
            model = tmp_path / "nan.fsn"
            write_model(model, [ModelLayer("c1", geom, "f32", weights=weights)])
        inp = tmp_path / "nan.npy"
        np.save(inp, tensor)
        code, records, _ = run(capsys, "conv", model, inp, "--engine", "both")
        assert code == 1
        (layer,) = records_of(records, "layer")
        assert layer["dev"] == "nan"
        assert records_of(records, "status") == [{"ok": "0"}]

    def test_corrupt_model_is_input_error(self, capsys, tmp_path, small_input):
        bad = tmp_path / "bad.fsn"
        bad.write_bytes(b"not a model at all")
        code, _, err = run(capsys, "conv", bad, small_input[0])
        assert code == 2
        assert "error" in err

    def test_output_written_at_the_reported_path(self, capsys, small_model, small_input, tmp_path):
        model_path, input_path = small_model[0], small_input[0]
        out, reference = tmp_path / "result.bin", tmp_path / "naive.npy"
        code, records, _ = run(capsys, "conv", model_path, input_path, "--output", out)
        assert code == 0
        assert records_of(records, "output")[0]["file"] == str(out)
        run(capsys, "conv", model_path, input_path, "--engine", "naive", "--output", reference)
        assert np.array_equal(np.load(out), np.load(reference))
        assert not (tmp_path / "result.bin.npy").exists()

    def test_chained_layers(self, capsys, tmp_path):
        g1 = ConvGeometry(2, 3, 3, 4, 2)
        g2 = ConvGeometry(4, 3, 3, 3, 2)
        layers = [
            ModelLayer("c1", g1, "f32", weights=FilterSummary.random(g1, seed=4, dtype=np.float32).weights),
            ModelLayer("c2", g2, "f32", weights=FilterSummary.random(g2, seed=5, dtype=np.float32).weights),
        ]
        model = tmp_path / "chain.fsn"
        write_model(model, layers)
        inp = tmp_path / "i.npy"
        np.save(inp, np.random.default_rng(6).uniform(-1, 1, (2, 5, 5)))
        code, records, _ = run(capsys, "conv", model, inp)
        assert code == 0
        assert len(records_of(records, "layer")) == 2
        assert not any("alphas" in layer for layer in records_of(records, "layer"))
        (out,) = records_of(records, "output")
        assert out["shape"] == "3x5x5"


class TestQuantizeCmd:
    def test_quantize_and_effective_params(self, capsys, small_model, tmp_path):
        model_path, geom, fs = small_model
        out = tmp_path / "q.fsn"
        code, records, _ = run(capsys, "quantize", model_path, "--bits", "8", "--output", out)
        assert code == 0
        phys = fs.layout.phys_length
        (total,) = records_of(records, "total")
        assert float(total["effective_params"]) == pytest.approx(phys / 4 + 2)
        from fsconv import read_model

        (layer,) = read_model(out)
        assert layer.dtype == "q8"
        assert layer.alphas is not None

    def test_requantized_conv_within_tau_bound(self, capsys, small_model, small_input, tmp_path):
        model_path, geom, fs = small_model
        input_path, tensor = small_input
        qpath = tmp_path / "q.fsn"
        run(capsys, "quantize", model_path, "--output", qpath)
        from fsconv import read_model

        (qlayer,) = read_model(qpath)
        qfs = qlayer.summary()
        float_out = naive_conv(
            FilterSummary(geom, fs.layout, fs.weights.astype(np.float64)), unwrap(tensor)
        )
        quant_out = naive_conv(qfs, unwrap(tensor))
        bound = qlayer.quant.tau / 2 * geom.filter_len * np.max(np.abs(tensor))
        assert np.max(np.abs(quant_out.data - float_out.data)) <= bound + 1e-9

    def test_constant_layer_reconstructs_exactly(self, capsys, tmp_path):
        geom = ConvGeometry(1, 1, 2, 2, 1)
        phys = FilterSummary.random(geom, seed=0).layout.phys_length
        model = tmp_path / "const.fsn"
        write_model(
            model,
            [ModelLayer("c", geom, "f32", weights=np.full(phys, 0.5, dtype=np.float32))],
        )
        qpath = tmp_path / "constq.fsn"
        code, records, _ = run(capsys, "quantize", model, "--output", qpath)
        assert code == 0
        from fsconv import read_model

        (layer,) = read_model(qpath)
        assert np.array_equal(layer.summary().weights, np.full(phys, 0.5))

    def test_quantized_layer_skipped_and_kept(self, capsys, small_model, tmp_path):
        _, geom, fs = small_model
        q4 = ModelLayer("b", geom, "q4", quant=quantize(fs.weights, 4))
        model = tmp_path / "mixed.fsn"
        write_model(model, [ModelLayer("a", geom, "f32", weights=fs.weights), q4])
        out = tmp_path / "mixed.q8.fsn"
        code, records, err = run(capsys, "quantize", model, "--bits", "8", "--output", out)
        assert code == 0
        assert err == "warning layer=b already_quantized=q4\n"
        kept, skipped = records_of(records, "layer")
        assert "skipped" not in kept and skipped == {"name": "b", "skipped": "q4"}
        first, second = read_model(out)
        assert first.dtype == "q8" and dump_model([second]) == dump_model([q4])
        phys = fs.layout.phys_length
        (total,) = records_of(records, "total")
        assert float(total["float_params"]) == 2 * phys
        expected = effective_params([(phys, 8), (phys, 4)])  # the skipped layer at its 4 bits
        assert float(total["effective_params"]) == pytest.approx(float(expected), rel=1e-5)

    def test_written_layers_are_read_only(self, capsys, small_model, tmp_path, monkeypatch):
        written = []

        def write_model(path, layers):
            written.extend(layers)
            fsconv.formats.write_model(path, layers)

        monkeypatch.setattr(fsconv.cli, "write_model", write_model)
        model_path, _, fs = small_model
        out = tmp_path / "q.fsn"
        assert run(capsys, "quantize", model_path, "--bits", "4", "--output", out)[0] == 0
        for layer in written + read_model(out):
            assert layer.dtype == "q4" and layer.alphas is not None
            for stored in (layer.quant.codes, layer.alphas):
                with pytest.raises(ValueError, match="read-only"):
                    stored[0] = 1
        assert np.array_equal(written[0].quant.codes, quantize(fs.weights, 4).codes)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_input_error(self, capsys, small_model, tmp_path, value):
        _, geom, fs = small_model
        weights = fs.weights.copy()
        weights[3] = value
        model = tmp_path / "bad.fsn"
        write_model(model, [ModelLayer("c1", geom, "f32", weights=weights)])
        out = tmp_path / "bad.q8.fsn"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the typed error
            code, records, err = run(capsys, "quantize", model, "--output", out)
        assert code == 2
        assert err == "error: cannot quantize weights that are not finite\n"
        assert records_of(records, "status") == []
        assert not out.exists()


def gradcheck_fresh_summaries(layers, points, seed, step=1e-5, tolerance=1e-6):
    """Per layer, the gradcheck record (alpha_err, summary_err, checked, flagged)
    with a new FilterSummary built for every summary evaluation, one weight
    bumped at a time; and per checked point a (K+1, 2) array of each weight's
    central difference and its rounding floor: central_diff's noise floor,
    64 eps |f| / step, taken at the sum of the absolute terms of the dot
    product f instead of at |f|. Another summation order of f rounds at that
    scale, which cancellation in f can put far above |f|."""
    rng = np.random.default_rng(seed)
    records = []
    for layer in layers:
        fs64 = FilterSummary(layer.geom, layer.layout, layer.summary().weights.astype(np.float64))
        k, length = layer.geom.filter_len, layer.layout.length
        alphas = layer.alphas if layer.alphas is not None else init_alphas(fs64)
        base = float(np.clip(np.mean(alphas), -3.0, 3.0))
        alpha_err = summary_err = 0.0
        checked = flagged = attempts = 0
        differences = []
        while checked < points and attempts < 50 * points:
            attempts += 1
            alpha = base + float(rng.uniform(-4.0, 4.0))
            loc = locate(alpha, length, k)
            if abs(loc - round(loc)) <= max(2.0 * locate_grad(alpha, length, k) * step, 1e-9):
                flagged += 1
                continue
            upstream = rng.standard_normal(k)
            fd, denom = central_diff(
                lambda a: float(upstream @ extract_fractional(fs64, locate(a, length, k))),
                alpha, step, tolerance)
            alpha_err = max(alpha_err, abs(grad_alpha(fs64, alpha, upstream) - fd) / denom)
            grad = grad_summary(fs64, loc, upstream)
            per_weight = []
            for idx in range(int(np.floor(loc)), int(np.floor(loc)) + k + 1):
                scales = []

                def value(w):
                    summary = fs64.weights.copy()
                    summary[idx] = w
                    filt = extract_fractional(FilterSummary(layer.geom, layer.layout, summary), loc)
                    scales.append(np.abs(upstream * filt).sum())
                    return float(upstream @ filt)

                fd_w, denom_w = central_diff(value, float(fs64.weights[idx]), 1e-6, tolerance)
                per_weight.append((fd_w, 64.0 * np.finfo(np.float64).eps * max(scales) / 1e-6))
                summary_err = max(summary_err, abs(grad[idx] - fd_w) / denom_w)
            differences.append(np.array(per_weight))
            checked += 1
        records.append(((alpha_err, summary_err, checked, flagged), differences))
    return records


class TestGradcheck:
    def test_records_match_fresh_summary_per_evaluation(self, monkeypatch, tmp_path):
        # the check bumps the K+1 weights of a point as one array; against a
        # new summary per evaluation and one weight at a time, alpha_err,
        # checked and flagged are equal, and each weight's central difference
        # is within the reference's rounding floor of the reference's
        rng = np.random.default_rng(5)
        layers = []
        for i, dims in enumerate([(2, 3, 3, 4, 2), (4, 3, 3, 6, 3), (6, 2, 3, 8, 4)]):
            geom = ConvGeometry(*dims)
            weights = FilterSummary.random(geom, seed=i, dtype=np.float32).weights
            alphas = rng.uniform(-2, 2, geom.c_out) if i else None
            layers.append(ModelLayer(f"c{i}", geom, "f32", weights=weights, alphas=alphas))
        model = tmp_path / "three.fsn"
        write_model(model, layers)
        emitted = []  # the records' raw values, before formatting
        monkeypatch.setattr(fsconv.cli, "_emit", lambda record, **f: emitted.append((record, f)))
        arrays = []  # the summary check's central differences, one array per point

        def spy(f, x, step, tol=1e-6):
            fd, denom = central_diff(f, x, step, tol)
            if np.ndim(x):
                arrays.append(fd)
            return fd, denom

        monkeypatch.setattr(fsconv.dfs, "central_diff", spy)
        assert main(["gradcheck", str(model), "--points", "8", "--seed", "1"]) == 0
        got = [f for record, f in emitted if record == "layer"]
        want = gradcheck_fresh_summaries(read_model(model), 8, 1)
        assert [(f["alpha_err"], f["checked"], f["flagged"]) for f in got] == [
            (alpha_err, checked, flagged) for (alpha_err, _, checked, flagged), _ in want]
        assert all(f["checked"] == 8 and f["summary_err"] <= 1e-6 for f in got)
        reference = [point for _, points in want for point in points]
        assert len(arrays) == len(reference) == 24
        for fd, point in zip(arrays, reference):
            assert fd.shape == point[:, 0].shape
            assert np.all(np.abs(fd - point[:, 0]) <= point[:, 1])

    def test_passes_on_model_with_alphas(self, capsys, small_model):
        model_path, _, _ = small_model
        code, records, _ = run(capsys, "gradcheck", model_path, "--points", "40")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["status"] == "pass"
        assert float(layer["alpha_err"]) <= 1e-6
        assert float(layer["summary_err"]) <= 1e-6

    def test_constant_summary_zero_gradients(self, capsys, tmp_path):
        geom = ConvGeometry(1, 2, 2, 3, 1, StridePolicy.GENERIC)
        phys = FilterSummary.random(geom, seed=0).layout.phys_length
        model = tmp_path / "const.fsn"
        write_model(
            model,
            [ModelLayer("c", geom, "f32", weights=np.ones(phys, dtype=np.float32))],
        )
        code, records, _ = run(capsys, "gradcheck", model, "--points", "20")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["status"] == "pass"
        assert float(layer["alpha_err"]) == 0.0

    def test_near_integer_locations_flagged_not_failed(self, capsys, small_model):
        # a huge FD step makes every sampled location fail the cell-interior
        # guard, so every point is flagged and none is graded
        model_path, _, _ = small_model
        code, records, _ = run(
            capsys, "gradcheck", model_path, "--points", "5", "--step", "5.0"
        )
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["status"] == "pass"
        assert int(layer["flagged"]) > 0
        assert int(layer["checked"]) == 0

    @pytest.mark.parametrize("nan_at", [slice(None), slice(40, 41)], ids=["all", "one"])
    def test_nan_error_fails(self, capsys, small_model, tmp_path, nan_at):
        # a NaN error is kept over every later finite one, and fails the check
        _, geom, fs = small_model
        weights = fs.weights.copy()
        weights[nan_at] = np.nan
        model = tmp_path / "nan.fsn"
        write_model(model, [ModelLayer("c1", geom, "f32", weights=weights)])
        code, records, _ = run(capsys, "gradcheck", model, "--points", "20")
        assert code == 1
        (layer,) = records_of(records, "layer")
        assert (layer["summary_err"], layer["status"]) == ("nan", "fail")
        assert records_of(records, "status") == [{"ok": "0"}]

    def test_too_short_summary_reported(self, capsys, tmp_path):
        geom = ConvGeometry(1, 1, 2, 1, 1)  # L = 2 = K: no fractional room
        model = tmp_path / "short.fsn"
        write_model(
            model,
            [ModelLayer("c", geom, "f32", weights=np.ones(2, dtype=np.float32))],
        )
        code, records, _ = run(capsys, "gradcheck", model)
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["error"] == "fs_too_short"


class TestBench:
    def test_counts_and_prediction_reported(self, capsys, tmp_path):
        arch = tmp_path / "bench.arch"
        arch.write_text(
            "ratio 2\n"
            "layer main kind=conv c_in=4 s1=3 s2=3 c_out=8\n"
            "layer narrow kind=conv c_in=4 s1=3 s2=1 c_out=8\n"
            "layer bn kind=bn channels=8\n"
        )
        code, records, _ = run(capsys, "bench", arch, "--spatial", "8", "8", "--repeat", "1")
        assert code == 0
        layers = records_of(records, "layer")
        assert len(layers) == 2
        for row, k in zip(layers, (36, 12)):  # the s2 = 1 layer is timed like any other
            assert int(row["naive_mults"]) == 8 * 64 * k
            assert float(row["dev"]) <= 1e-12
            assert float(row["measured"]) > 1
            assert float(row["predicted"]) > 0
            assert row["engine"] == "fcfs" and "reason" not in row
        assert int(layers[1]["fcfs_lookups"]) == 8 * 64

    def test_worked_example_prediction(self, capsys, tmp_path):
        arch = tmp_path / "big.arch"
        arch.write_text("layer c kind=conv c_in=64 s1=3 s2=3 c_out=64 r=4\n")
        code, records, _ = run(capsys, "bench", arch, "--spatial", "16", "16", "--repeat", "1")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert int(layer["naive_mults"]) == 9_437_184
        assert abs(float(layer["predicted"]) - 11.294) < 1e-2
        assert float(layer["measured"]) >= 3.2
        # executed products, the whole 324 x 135 cell grid, and the floor: one
        # per element pair a slice reads
        assert int(layer["fcfs_mults"]) == 64 * 324 * 135 == 2_799_360
        assert int(layer["fcfs_floor"]) == 2_751_488
        # stages 1 and 2 in blocks of 262,144 // (8 * 135) = 242 of the 324 rows of
        # G, so the padded map, 64 x 324 entries, lives through stage 2; the summary
        # block is 64 x 135 entries, and the buffer holds a carry of 2 * 136 before a block
        assert int(layer["blocks"]) == 2
        assert int(layer["work_bytes"]) == 8 * (64 * 135 + 64 * 324 + 2 * 136 + 242 * 135
                                                + 322 * 135 - 2)

    def test_plan_reported_apart_from_execution(self, capsys, tmp_path):
        arch = tmp_path / "bench.arch"
        arch.write_text("layer c kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n")
        code, records, _ = run(capsys, "bench", arch, "--spatial", "6", "5", "--repeat", "1")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert float(layer["plan_ms"]) > 0
        # one f64 execution allocates the 4 x Q summary block, the carry of 2(Q+1)
        # entries and the P x Q cell products, one block, and the (P-2)*Q - 2 windows:
        # P = 8*7 padded cells, Q = 7*(16/4) + 3*3 summary cells (channel-aligned stride 16)
        assert int(layer["work_bytes"]) == 8 * (4 * 37 + 2 * 38 + 56 * 37 + 54 * 37 - 2)
        assert int(layer["blocks"]) == 1
        # the oracle's, from the same kind of closed form: the padded map, 4 x 56
        # entries, 7 padded columns of 6 windows of 3 * 4 entries and one 8 x 6 x 5
        # partial; no bank, which it reads in place, as the stride 16 is at least
        # s1 * c_in = 12
        assert int(layer["naive_bytes"]) == 8 * (4 * 56 + 7 * 6 * 12 + 8 * 30)
        assert layer["bank"] == "in_place"
        assert float(layer["fcfs_ms"]) > 0

    @pytest.mark.parametrize("spatial, banks", [
        ((6, 6), ["in_place", "kmajor", "copy"]),
        ((5, 7), ["in_place", "kmajor", "copy"]),
    ], ids=["36 outputs", "35 outputs"])
    def test_bank_layout_and_bytes_from_the_record(self, capsys, tmp_path, spatial, banks):
        # bank= and naive_bytes= are the layer record's LoweredPlan, in f64: a stride
        # of at least s1*c_in reads the bank in place; a copy goes K-major where the bank
        # takes at most 262,144 bytes (8 x 72 entries, 4,608 bytes), at 36 outputs and at
        # 35, and stays C-ordered for a 64 x 576 bank (294,912 bytes)
        arch = tmp_path / "banks.arch"
        arch.write_text("layer a kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n"
                        "layer b kind=conv c_in=8 s1=3 s2=3 c_out=8 r=4\n"
                        "layer c kind=conv c_in=64 s1=3 s2=3 c_out=64 r=4\n")
        d1, d2 = spatial
        code, records, _ = run(capsys, "bench", arch, "--spatial", str(d1), str(d2), "--repeat", "1")
        assert code == 0
        layers = records_of(records, "layer")
        assert [layer["bank"] for layer in layers] == banks
        for layer, c_in, c_out, r in zip(layers, (4, 8, 64), (8, 8, 64), (2, 4, 4)):
            geom = ConvGeometry(c_in, 3, 3, c_out, r)
            plan = fsconv.fcfs.layer_plan(geom, derive_layout(geom), d1, d2).naive
            assert int(layer["naive_bytes"]) == plan.nbytes(8)
            assert layer["bank"] == plan.bank_layout(8)

    def test_spatial_past_numpy_index_range_is_input_error(self, capsys):
        code, records, err = run(capsys, "bench", "resnet110", "--ratio", "4",
                                 "--spatial", "1000000000", "1000000000")
        assert code == 2
        assert err.startswith("error: --spatial 1000000000 1000000000 is too big: array is too big")
        assert err.count("\n") == 1
        assert records_of(records, "status") == []

    def test_refused_allocation_names_spatial(self, capsys, monkeypatch):
        # a map the host cannot hold, without asking this host for one
        def refuse(cls, *args, **kwargs):
            raise MemoryError("Unable to allocate 21.6 GiB")

        monkeypatch.setattr(FeatureMap, "random", classmethod(refuse))
        code, records, err = run(capsys, "bench", "resnet110", "--ratio", "4",
                                 "--spatial", "30000", "30000")
        assert code == 2
        assert err == "error: --spatial 30000 30000 is too big: Unable to allocate 21.6 GiB\n"
        assert records_of(records, "status") == []

    def test_refused_floor_allocation_names_spatial(self, capsys, monkeypatch):
        # the floor's read mask is the last allocation of a layer
        def refuse(plan):
            raise MemoryError("Unable to allocate 7.1 GiB")

        monkeypatch.setattr(fsconv.fcfs, "_reads", refuse)
        code, records, err = run(capsys, "bench", "resnet110", "--ratio", "4",
                                 "--spatial", "8", "8", "--repeat", "1")
        assert code == 2
        assert err == "error: --spatial 8 8 is too big: Unable to allocate 7.1 GiB\n"
        assert records_of(records, "layer") == []

    def test_engine_value_error_is_not_an_input_error(self, capsys, monkeypatch):
        # only numpy refusing the map's size is blamed on --spatial
        def fault(fs, fmap):
            raise ValueError("view leaves its array")

        monkeypatch.setattr(fsconv.cli, "fcfs_conv", fault)
        with pytest.raises(ValueError, match="view leaves its array"):
            main(["bench", "resnet110", "--ratio", "4", "--spatial", "8", "8", "--repeat", "1"])

    def test_layers_fcfs_cannot_run_are_skipped_with_reason(self, capsys, tmp_path, monkeypatch):
        arch = tmp_path / "skip.arch"
        arch.write_text(
            "ratio 2\n"
            "layer generic kind=conv c_in=3 s1=3 s2=3 c_out=4 policy=generic\n"
            "layer narrow kind=conv c_in=4 s1=3 s2=1 c_out=8\n"
            "layer main kind=conv c_in=4 s1=3 s2=3 c_out=8\n"
        )
        calls = []
        real = fsconv.cli.fcfs_conv
        monkeypatch.setattr(fsconv.cli, "fcfs_conv", lambda *a: calls.append(1) or real(*a))
        code, records, err = run(capsys, "bench", arch, "--spatial", "5", "4", "--repeat", "2")
        assert code == 0
        assert err == ""
        layers = records_of(records, "layer")
        assert [layer.get("skipped") for layer in layers] == ["unaligned_stride", None, None]
        # "main" loses by counts at 5x4 (6,216 products + 480 lookups >= 5,760): conv would
        # run the reference engine, and fcfs_ms still times the fcfs arithmetic
        assert [(row["engine"], row.get("reason")) for row in layers[1:]] == [
            ("fcfs", None), ("naive", "more_multiplies")]
        assert float(layers[2]["measured"]) < 1
        assert len(calls) == 2 * 2

    def test_engine_is_decided_not_run(self, capsys, tmp_path, monkeypatch):
        # convolve runs only in the timed --repeat loop: the layer's record gives engine=
        # and reason= without running the layer once more, and the counts and measured=
        # come from the timed runs. Each engine's body, counted whoever calls it, runs
        # exactly --repeat times per timed layer (fcfs.py calls the reference body by
        # the name it imported from oracle.py)
        arch = tmp_path / "rule.arch"
        arch.write_text(
            "ratio 2\n"
            "layer generic kind=conv c_in=3 s1=3 s2=3 c_out=4 policy=generic\n"
            "layer narrow kind=conv c_in=4 s1=3 s2=1 c_out=8\n"
            "layer main kind=conv c_in=4 s1=3 s2=3 c_out=8\n"
        )
        calls, bodies = [], []
        real = fsconv.cli.convolve
        monkeypatch.setattr(fsconv.cli, "convolve", lambda *a: calls.append(a[2:]) or real(*a))
        execute, lowered = fsconv.fcfs._execute, fsconv.oracle._lowered_conv
        monkeypatch.setattr(fsconv.fcfs, "_execute", lambda *a: bodies.append("fcfs") or execute(*a))
        for module in (fsconv.fcfs, fsconv.oracle):
            monkeypatch.setattr(module, "_lowered_conv", lambda *a: bodies.append("naive") or lowered(*a))
        code, records, _ = run(capsys, "bench", arch, "--spatial", "5", "4", "--repeat", "3")
        assert code == 0
        timed = [layer for layer in records_of(records, "layer") if "skipped" not in layer]
        assert [layer["engine"] for layer in timed] == ["fcfs", "naive"]
        assert calls == [("naive",)] * 3 * len(timed)
        assert sorted(bodies) == ["fcfs"] * 3 * len(timed) + ["naive"] * 3 * len(timed)

    def test_one_by_one_output_is_benched(self, capsys, tmp_path):
        # s1 = 1 on a 1x1 map: layer_plan(geom, layout, 1, 1) sends the layer to the
        # reference engine by count (120 products + 24 lookups >= 96), and bench times it
        arch = tmp_path / "one.arch"
        arch.write_text("layer c kind=conv c_in=4 s1=1 s2=3 c_out=8 r=2\n")
        code, records, _ = run(capsys, "bench", arch, "--spatial", "1", "1", "--repeat", "1")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert "skipped" not in layer
        assert (layer["engine"], layer["reason"]) == ("naive", "more_multiplies")
        assert int(layer["fcfs_lookups"]) == 3 * 8
        assert float(layer["dev"]) <= 1e-12

    @pytest.mark.parametrize("text, skipped", [
        ("layer bn1 kind=bn channels=16\n", []),
        ("layer g kind=conv c_in=3 s1=3 s2=3 c_out=4 r=2 policy=generic\n", ["unaligned_stride"]),
    ], ids=["bn_only", "unaligned_only"])
    def test_nothing_timed_is_input_error(self, capsys, tmp_path, text, skipped):
        arch = tmp_path / "untimed.arch"
        arch.write_text(text)
        code, records, err = run(capsys, "bench", arch, "--repeat", "1")
        assert code == 2
        assert err == f"error: architecture {str(arch)!r} has no conv layer the fcfs engine runs\n"
        assert [layer["skipped"] for layer in records_of(records, "layer")] == skipped
        assert records_of(records, "status") == []

    def test_bad_ratio_is_input_error(self, capsys, tmp_path):
        arch = tmp_path / "nr.arch"
        arch.write_text("layer c kind=conv c_in=2 s1=3 s2=3 c_out=4\n")
        code, records, err = run(capsys, "bench", arch, "--ratio", "abc", "--repeat", "1")
        assert code == 2
        assert "--ratio must be a rational number, got 'abc'" in err
        assert records_of(records, "layer") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("--spatial", "0", "0"),
            ("--spatial", "4", "0"),
            ("--spatial", "-1", "4"),
            ("--repeat", "0"),
            ("--repeat", "-2"),
        ],
    )
    def test_sizes_below_one_refused(self, capsys, tmp_path, argv):
        arch = tmp_path / "bench.arch"
        arch.write_text("layer c kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n")
        code, records, err = run(capsys, "bench", arch, *argv)
        assert code == 2
        assert "must be >= 1" in err
        assert records_of(records, "status") == []
        assert records_of(records, "layer") == []


class TestLayerSettings:
    """plan and bench read --ratio once and resolve a conv layer one way."""

    @pytest.mark.parametrize("command", ["plan", "bench"])
    @pytest.mark.parametrize("text", [
        "layer c kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n",
        "layer bn1 kind=bn channels=16\n",
    ], ids=["all_set_r", "no_conv"])
    @pytest.mark.parametrize("ratio", ["abc", "1/0"])
    def test_malformed_ratio_refused_before_any_record(self, capsys, tmp_path, command, text,
                                                       ratio):
        arch = tmp_path / "a.arch"
        arch.write_text(text)
        code, records, err = run(capsys, command, arch, "--ratio", ratio)
        assert code == 2
        assert err == f"error: --ratio must be a rational number, got {ratio!r}\n"
        assert records == []

    def test_bench_skip_reasons_equal_plan_errors(self, capsys, tmp_path):
        arch = tmp_path / "mixed.arch"
        arch.write_text(
            "ratio 2\n"
            "layer deg kind=conv c_in=64 s1=3 s2=3 c_out=64 r=4 policy=slice\n"
            "layer agg kind=conv c_in=2 s1=1 s2=2 c_out=2 r=100\n"
            "layer low kind=conv c_in=4 s1=3 s2=3 c_out=8\n"  # takes --ratio 1/2
            "layer main kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n"
        )
        code, planned, _ = run(capsys, "plan", arch, "--ratio", "1/2")
        assert code == 0
        code, benched, _ = run(capsys, "bench", arch, "--ratio", "1/2", "--spatial", "4", "4",
                               "--repeat", "1")
        assert code == 0
        errors = [layer.get("error") for layer in records_of(planned, "layer")]
        skipped = [layer.get("skipped") for layer in records_of(benched, "layer")]
        assert errors == skipped == ["degenerate_stride", "invalid_ratio", "invalid_ratio", None]

    def test_filters_that_coincide_are_degenerate_in_plan_and_bench(self, capsys, tmp_path):
        # stride 0 under the default policy with c_out > 1 is refused as the
        # slice-aligned stride 0 is; one filter at stride 0 coincides with none
        arch = tmp_path / "zero.arch"
        arch.write_text(
            "layer deg kind=conv c_in=16 s1=3 s2=3 c_out=16 r=16\n"
            "layer one kind=conv c_in=4 s1=1 s2=1 c_out=1 r=1\n"
            "layer one_slice kind=conv c_in=4 s1=1 s2=1 c_out=1 r=1 policy=slice\n"
            "layer main kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n"
        )
        code, planned, _ = run(capsys, "plan", arch)
        assert code == 0
        code, benched, _ = run(capsys, "bench", arch, "--spatial", "4", "4", "--repeat", "1")
        assert code == 0
        layers = records_of(planned, "layer")
        assert [layer.get("error") for layer in layers] == ["degenerate_stride", None, None, None]
        assert layers[1]["s"] == layers[2]["s"] == "0"
        skipped = [layer.get("skipped") for layer in records_of(benched, "layer")]
        assert skipped == ["degenerate_stride", None, None, None]

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_layer_without_ratio_refused_before_any_record(self, capsys, tmp_path, command):
        arch = tmp_path / "nr.arch"
        arch.write_text(
            "layer a kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n"
            "layer b kind=conv c_in=4 s1=3 s2=3 c_out=8\n"
        )
        code, records, err = run(capsys, command, arch)
        assert code == 2
        assert err == "error: layer 'b' has no ratio; set r= in the file or pass --ratio\n"
        assert records == []


class TestEntryPoint:
    def test_reused_parser_matches_fresh_one(self, capsys, tmp_path, small_model, small_input):
        # main builds the argparse tree once per process; calls in a row, with
        # other commands, and options set in one call left at their defaults
        # in the next, print what calls on a freshly built tree print
        model, input_path = small_model[0], small_input[0]
        argvs = [
            ["plan", "resnet110", "--ratio", "4", "--policy", "slice"],
            ["conv", model, input_path, "--engine", "naive"],
            ["plan", "resnet110", "--ratio", "4"],
            ["quantize", model, "--bits", "4", "--output", tmp_path / "q.fsn"],
            ["conv", model, input_path],
            ["plan", "resnet110"],
        ]
        fsconv.cli.build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in argvs]
        assert fsconv.cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in argvs:
            fsconv.cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2]

    def test_python_dash_m_equals_main(self, capsys):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        argv = ["plan", "resnet110", "--ratio", "4"]
        result = subprocess.run([sys.executable, "-m", "fsconv", *argv], cwd=root, env=env,
                                capture_output=True, text=True, timeout=120)
        code = main(argv)
        captured = capsys.readouterr()
        assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, "")
        assert code == 0 and captured.out.startswith("plan ")

    def test_closed_stdout_is_not_malformed_input(self):
        # the reader is gone before the first record: exit as SIGPIPE would,
        # with nothing on stderr, neither from main nor at shutdown
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "fsconv", "plan", "resnet110",
                                     "--ratio", "4"], cwd=root, env=env, stdout=write_end,
                                    stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")


class TestNumericOptions:
    @pytest.mark.parametrize(
        "command, argv, message",
        [
            ("gradcheck", ("--step", "0"), "--step must be > 0"),
            ("gradcheck", ("--step", "inf"), "--step must be > 0"),
            ("gradcheck", ("--tolerance", "0"), "--tolerance must be > 0"),
            ("gradcheck", ("--points", "0"), "--points must be >= 1"),
            ("gradcheck", ("--points", "-3"), "--points must be >= 1"),
            ("gradcheck", ("--seed", "-1"), "--seed must be >= 0"),
            ("bench", ("--seed", "-5"), "--seed must be >= 0"),
            ("conv", ("--tolerance", "nan"), "--tolerance must be >= 0"),
            ("conv", ("--tolerance=-1e-5",), "--tolerance must be >= 0"),
        ],
    )
    def test_out_of_range_refused(self, capsys, small_model, small_input, tmp_path, command, argv,
                                  message):
        arch = tmp_path / "bench.arch"
        arch.write_text("layer c kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n")
        inputs = {"gradcheck": [small_model[0]], "bench": [arch],
                  "conv": [small_model[0], small_input[0]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, records, err = run(capsys, command, *inputs[command], *argv)
        assert code == 2
        assert err.startswith(f"error: {message} and finite, got ")
        assert records_of(records, "status") == []
        assert records_of(records, "layer") == []


class TestUnreadableFiles:
    """An empty model or architecture, and a path that cannot be read or
    written, end in one `error:` line and exit 2, with nothing written."""

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_empty_arch_refused(self, capsys, tmp_path, command):
        arch = tmp_path / "empty.arch"
        arch.write_text("ratio 4\n")
        code, records, err = run(capsys, command, arch)
        assert code == 2
        assert err == f"error: architecture {str(arch)!r} has no layers\n"
        assert records == []

    @pytest.mark.parametrize("command", ["conv", "quantize", "gradcheck"])
    def test_empty_model_refused(self, capsys, tmp_path, small_input, command):
        model, out = tmp_path / "empty.fsn", tmp_path / "out"
        write_model(model, [])
        argv = {"conv": (small_input[0], "--output", out), "quantize": ("--output", out),
                "gradcheck": ()}[command]
        code, records, err = run(capsys, command, model, *argv)
        assert code == 2
        assert err == f"error: model {str(model)!r} has no layers\n"
        assert records == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "conv", "quantize"])
    def test_directory_is_input_error(self, capsys, tmp_path, small_model, small_input, command):
        argv = {"plan": (tmp_path,), "conv": (tmp_path, small_input[0]),
                "quantize": (small_model[0], "--output", tmp_path)}[command]
        code, records, err = run(capsys, command, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert records_of(records, "status") == []

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_binary_arch_is_input_error(self, capsys, small_model, small_input, command):
        for path in (small_model[0], small_input[0]):
            code, records, err = run(capsys, command, path)
            assert code == 2
            assert err.startswith(f"error: architecture {str(path)!r} is not UTF-8 text")
            assert err.count("\n") == 1
            assert records == []

    def test_non_finite_alpha_is_input_error(self, capsys, small_model, tmp_path):
        _, geom, fs = small_model
        alphas = np.zeros(geom.c_out)
        blob = bytearray(dump_model([ModelLayer("c", geom, "f32", weights=fs.weights,
                                                alphas=alphas)]))
        blob[-12:-4] = struct.pack("<d", np.nan)  # the last alpha, before the checksum
        payload_at = 4 + 4 + 2 + 1 + 36  # magic, count, name length, name, header
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[payload_at:-4])))
        model = tmp_path / "nan_alpha.fsn"
        model.write_bytes(bytes(blob))
        code, records, err = run(capsys, "gradcheck", model)
        assert code == 2
        assert err == "error: layer 'c': alphas must be finite\n"
        assert records == []

    def test_npy_header_larger_than_file_is_input_error(self, capsys, small_model, tmp_path):
        # a 200-byte file whose header declares 3 x 99999 x 99999 f64 values,
        # 240 GB: refused before anything is allocated
        inp = tmp_path / "forged.npy"
        header = np.lib.format.header_data_from_array_1_0(np.zeros((3, 2, 2)))
        with open(inp, "wb") as file:
            np.lib.format.write_array_header_1_0(file, {**header, "shape": (3, 99999, 99999)})
            file.write(bytes(200 - file.tell()))
        code, records, err = run(capsys, "conv", small_model[0], inp)
        assert code == 2
        assert err.startswith(f"error: cannot read input tensor {str(inp)!r}") and err.count("\n") == 1
        assert records == []
        assert not (tmp_path / "forged.out.npy").exists()

    @pytest.mark.parametrize("name", ["no_such_arch", "missing.arch", "sub/missing"])
    def test_missing_arch_is_input_error(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        code, records, err = run(capsys, "plan", name)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert records == []


FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)
VALUES = ["abc", "", "1/0", "nan", "inf", "-1", "0", "1", "2", "7/2", "1e400"]  # malformed too


def exit_code(argv) -> int:
    """main(argv) with its output dropped; argparse's SystemExit becomes its code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


class TestArgvFuzz:
    def test_main_returns_an_exit_code(self, tmp_path):
        arch = tmp_path / "mixed.arch"
        arch.write_text(
            "ratio 2\n"
            "layer c kind=conv c_in=3 s1=3 s2=3 c_out=4\n"
            "layer bn kind=bn channels=4\n"
            "layer n kind=conv c_in=4 s1=3 s2=1 c_out=4\n"
        )
        bn_only = tmp_path / "bn.arch"
        bn_only.write_text("layer bn kind=bn channels=4\n")
        geoms = [ConvGeometry(3, 3, 3, 4, 2), ConvGeometry(4, 3, 3, 4, 2)]
        summaries = [FilterSummary.random(g, seed=i, dtype=np.float32) for i, g in enumerate(geoms)]
        model = tmp_path / "model.fsn"
        write_model(model, [ModelLayer(f"c{i}", fs.geom, "f32", weights=fs.weights,
                                       alphas=init_alphas(fs)) for i, fs in enumerate(summaries)])
        tensor = tmp_path / "x.npy"
        np.save(tensor, np.random.default_rng(0).uniform(-1, 1, (3, 4, 4)))
        binary = tmp_path / "blob.bin"
        binary.write_bytes(bytes(range(256)))
        directory = tmp_path / "dir"
        directory.mkdir()
        files = [str(p) for p in (arch, bn_only, model, tensor, binary, directory,
                                  tmp_path / "missing")]

        def mostly(valid, anything):  # half the draws take a value the command accepts
            return st.one_of(st.sampled_from(valid), st.sampled_from(anything))

        outputs = mostly([str(tmp_path / "out.bin")],
                         [str(directory), str(tmp_path / "missing" / "out.bin")])
        value = st.sampled_from(VALUES)
        small = mostly(["1", "2"], ["0", "-1", "abc"])
        policy = st.sampled_from(["generic", "slice", "channel", "abc"])
        commands = {  # positionals, then the options; a drawn tuple is several tokens
            "plan": ([mostly([str(arch), "resnet110"], files)],
                     {"--ratio": mostly(["1e400", "2", "7/2"], VALUES), "--policy": policy}),
            "conv": ([mostly([str(model)], files), mostly([str(tensor)], files)],
                     {"--engine": st.sampled_from(["naive", "fcfs", "both", "x"]),
                      "--tolerance": mostly(["1e-5"], VALUES), "--output": outputs}),
            "quantize": ([mostly([str(model)], files)],
                         {"--bits": st.sampled_from(["4", "8", "3", "abc"]), "--output": outputs}),
            "gradcheck": ([mostly([str(model)], files)],
                          {"--points": small, "--seed": value, "--tolerance": value,
                           "--step": value}),
            "bench": ([mostly([str(arch)], files)],
                      {"--spatial": st.tuples(small, small), "--repeat": small,
                       "--ratio": mostly(["1e400", "2", "7/2"], VALUES), "--policy": policy,
                       "--seed": value}),
        }
        required = {"--points", "--spatial", "--repeat"}  # small pools keep every call short

        @FUZZ
        @given(st.data())
        def check(data):
            command = data.draw(st.sampled_from(sorted(commands)))
            positionals, options = commands[command]
            argv = [command] + [data.draw(pool) for pool in positionals]
            for option, values in options.items():
                if option in required or data.draw(st.booleans()):
                    drawn = data.draw(values)
                    argv += [option, *(drawn if isinstance(drawn, tuple) else (drawn,))]
            argv += data.draw(st.sampled_from([[]] * 8 + [["--bogus"], ["extra"]]))
            assert exit_code(argv) in (0, 1, 2), argv

        check()
