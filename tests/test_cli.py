"""The command-line surface, invoked in-process and parsed from stdout."""

import warnings

import numpy as np
import pytest

import fsconv.cli
import fsconv.fcfs
from fsconv import (
    ConvGeometry,
    FilterSummary,
    ModelLayer,
    StridePolicy,
    central_diff,
    dump_model,
    extract_fractional,
    grad_alpha,
    grad_summary,
    init_alphas,
    locate,
    locate_grad,
    naive_conv,
    read_model,
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
        for layer in records_of(records, "layer"):
            assert 1.0 <= float(layer["cr_nominal"]) < 1.02

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

    @pytest.mark.parametrize("ratio", ["abc", "1/0", ""])
    def test_bad_ratio_is_input_error(self, capsys, ratio):
        code, records, err = run(capsys, "plan", "resnet110", "--ratio", ratio)
        assert code == 2
        assert "--ratio must be a rational number" in err
        assert records_of(records, "total") == []

    def test_s2_one_not_reported_as_acceleration(self, capsys, tmp_path):
        arch = tmp_path / "one_col.arch"
        arch.write_text("layer c kind=conv c_in=8 s1=3 s2=1 c_out=8 r=2\n")
        code, records, _ = run(capsys, "plan", arch)
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["accelerable"] == "0"
        assert "pred_ratio" not in layer


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

    def test_zero_input_zero_output(self, capsys, small_model, tmp_path):
        model_path, _, _ = small_model
        zero = tmp_path / "zero.npy"
        np.save(zero, np.zeros((3, 4, 4)))
        code, records, _ = run(capsys, "conv", model_path, zero, "--engine", "both")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert float(layer["dev"]) == 0.0
        assert not np.load(tmp_path / "zero.out.npy").any()

    def test_fcfs_on_s2_one_falls_back_with_warning(self, capsys, tmp_path):
        geom = ConvGeometry(2, 3, 1, 4, 2)
        fs = FilterSummary.random(geom, seed=3, dtype=np.float32)
        model = tmp_path / "m.fsn"
        write_model(model, [ModelLayer("c", geom, "f32", weights=fs.weights)])
        inp = tmp_path / "i.npy"
        np.save(inp, np.zeros((2, 4, 4)))
        code, records, err = run(capsys, "conv", model, inp, "--engine", "fcfs")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert layer["fallback"] == "1"
        assert err == "warning layer=c fcfs_unsupported=s2_is_1 fallback=naive\n"

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
        aligned = ConvGeometry(4, 3, 3, 3, 2)
        model = tmp_path / "m.fsn"
        write_model(model, [
            ModelLayer("g", generic, "f32", weights=FilterSummary.random(generic, seed=3).weights),
            ModelLayer("a", aligned, "f32", weights=FilterSummary.random(aligned, seed=4).weights),
        ])
        inp = tmp_path / "i.npy"
        np.save(inp, np.random.default_rng(5).uniform(-1, 1, (3, 5, 4)))
        calls = []
        real = fsconv.fcfs.naive_conv
        monkeypatch.setattr(fsconv.fcfs, "naive_conv", lambda *a: calls.append(1) or real(*a))
        code, records, err = run(capsys, "conv", model, inp, "--engine", "both")
        assert code == 0
        assert len(calls) == 2  # "g" once, as the fallback that is also the reference; "a" once
        g_row, a_row = records_of(records, "layer")
        mults = str(4 * 20 * generic.filter_len)
        assert g_row == dict(name="g", engine="both", dev="0", naive_mults=mults,
                             fcfs_mults=mults, fcfs_lookups="0", fallback="1")
        assert a_row["fallback"] == "0"
        assert err == "warning layer=g fcfs_unsupported=unaligned_stride fallback=naive\n"
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
        assert err == "error: c_in must be >= 1, got 0\n"
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
    """The gradcheck records (alpha_err, summary_err, checked, flagged) per
    layer, with a new FilterSummary built for every summary evaluation."""
    rng = np.random.default_rng(seed)
    records = []
    for layer in layers:
        fs64 = FilterSummary(layer.geom, layer.layout, layer.summary().weights.astype(np.float64))
        k, length = layer.geom.filter_len, layer.layout.length
        alphas = layer.alphas if layer.alphas is not None else init_alphas(fs64)
        base = float(np.clip(np.mean(alphas), -3.0, 3.0))
        alpha_err = summary_err = 0.0
        checked = flagged = attempts = 0
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
            for idx in range(int(np.floor(loc)), int(np.floor(loc)) + k + 1):
                def value(w):
                    summary = fs64.weights.copy()
                    summary[idx] = w
                    fs = FilterSummary(layer.geom, layer.layout, summary)
                    return float(upstream @ extract_fractional(fs, loc))

                fd_w, denom_w = central_diff(value, float(fs64.weights[idx]), 1e-6, tolerance)
                summary_err = max(summary_err, abs(grad[idx] - fd_w) / denom_w)
            checked += 1
        records.append((alpha_err, summary_err, checked, flagged))
    return records


class TestGradcheck:
    def test_records_equal_fresh_summary_per_evaluation(self, monkeypatch, tmp_path):
        # the command bumps and restores one working summary per point; its
        # records must equal those of a new summary per evaluation, exactly
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
        assert main(["gradcheck", str(model), "--points", "8", "--seed", "1"]) == 0
        got = [(f["alpha_err"], f["summary_err"], f["checked"], f["flagged"])
               for record, f in emitted if record == "layer"]
        assert got == gradcheck_fresh_summaries(read_model(model), 8, 1)
        assert all(checked == 8 for _, _, checked, _ in got)

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
        main_row = layers[0]
        assert int(main_row["naive_mults"]) == 8 * 64 * 36
        assert float(main_row["dev"]) <= 1e-12
        assert float(main_row["measured"]) > 0
        assert float(main_row["predicted"]) > 0
        assert layers[1]["skipped"] == "s2_is_1"

    def test_worked_example_prediction(self, capsys, tmp_path):
        arch = tmp_path / "big.arch"
        arch.write_text("layer c kind=conv c_in=64 s1=3 s2=3 c_out=64 r=4\n")
        code, records, _ = run(capsys, "bench", arch, "--spatial", "16", "16", "--repeat", "1")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert int(layer["naive_mults"]) == 9_437_184
        assert abs(float(layer["predicted"]) - 11.294) < 1e-2
        assert float(layer["measured"]) >= 3.2
        # executed products, and the floor: one per element pair a slice reads
        assert int(layer["fcfs_mults"]) == 2_778_624
        assert int(layer["fcfs_floor"]) == 2_751_488

    def test_plan_reported_apart_from_execution(self, capsys, tmp_path):
        arch = tmp_path / "bench.arch"
        arch.write_text("layer c kind=conv c_in=4 s1=3 s2=3 c_out=8 r=2\n")
        code, records, _ = run(capsys, "bench", arch, "--spatial", "6", "5", "--repeat", "1")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert float(layer["plan_ms"]) > 0
        # one f64 execution allocates the (Q+1) x (P+Q+1) table and s2 slice
        # sums per output: P = 8*7 padded cells, Q = 7*(16/4) + 3*3 summary
        # cells (channel-aligned stride 16), 3*8*6*5 slice pairs
        assert int(layer["work_bytes"]) == 8 * (38 * 94 + 720)
        assert float(layer["fcfs_ms"]) > 0

    def test_layers_fcfs_cannot_run_are_skipped_with_reason(self, capsys, tmp_path):
        arch = tmp_path / "skip.arch"
        arch.write_text(
            "ratio 2\n"
            "layer generic kind=conv c_in=3 s1=3 s2=3 c_out=4 policy=generic\n"
            "layer narrow kind=conv c_in=4 s1=3 s2=1 c_out=8\n"
            "layer main kind=conv c_in=4 s1=3 s2=3 c_out=8\n"
        )
        code, records, err = run(capsys, "bench", arch, "--spatial", "5", "4", "--repeat", "1")
        assert code == 0
        assert err == ""
        skipped = [layer.get("skipped") for layer in records_of(records, "layer")]
        assert skipped == ["unaligned_stride", "s2_is_1", None]

    def test_one_by_one_output_is_benched(self, capsys, tmp_path):
        # s1 = 1 on a 1x1 map: fcfs_fallback accepts the layer, so it runs
        arch = tmp_path / "one.arch"
        arch.write_text("layer c kind=conv c_in=4 s1=1 s2=3 c_out=8 r=2\n")
        code, records, _ = run(capsys, "bench", arch, "--spatial", "1", "1", "--repeat", "1")
        assert code == 0
        (layer,) = records_of(records, "layer")
        assert "skipped" not in layer
        assert int(layer["fcfs_lookups"]) == 3 * 8
        assert float(layer["dev"]) <= 1e-12

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

    @pytest.mark.parametrize("name", ["no_such_arch", "missing.arch", "sub/missing"])
    def test_missing_arch_is_input_error(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        code, records, err = run(capsys, "plan", name)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert records == []
