"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one `criterion NN [PASS|FAIL]` line (run with -s or check
captured output). Tolerances are pinned here, not tuned elsewhere.
"""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest

from fsconv import (
    ArchSpec,
    BatchNormSpec,
    ConvGeometry,
    ConvSpec,
    DenseSpec,
    FeatureMap,
    FilterSummary,
    ModelLayer,
    MultCounter,
    StridePolicy,
    central_diff,
    dequantize,
    derive_layout,
    dump_arch,
    dump_model,
    effective_params,
    extract_filter,
    extract_fractional,
    fcfs_conv,
    grad_alpha,
    grad_summary,
    load_model,
    locate,
    locate_grad,
    measured_acceleration,
    naive_conv,
    parse_arch,
    quantize,
    quantize_affine_layer,
    quantized_affine_forward,
    rel_dev,
)
from fsconv.cli import main
from fsconv.dfs import _extract_in_cell


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} [FAIL] {title}")
        raise
    print(f"criterion {number:>2} [PASS] {title}")


def test_criterion_1_layout_worked_example():
    with criterion(1, "layout worked example: L=9216, s=143"):
        layout = derive_layout(ConvGeometry(64, 3, 3, 64, 4, StridePolicy.GENERIC))
        assert layout.length == 9216
        assert layout.stride == 143


@pytest.fixture(scope="module")
def exactness_sweep():
    """200 randomized supported geometries, run in double and single precision."""
    rng = np.random.default_rng(2024)
    results = []
    for _ in range(200):
        c_in = int(rng.integers(1, 17))
        s1 = int(rng.integers(1, 6))
        s2 = int(rng.integers(2, 6))
        c_out = int(rng.integers(1, 33))
        # ratio in [1, 6], capped at c_out so the summary holds one filter
        ratio = Fraction(1.0 + float(rng.random()) * (min(6, c_out) - 1.0))
        d1 = int(rng.integers(2, 13))
        d2 = int(rng.integers(2, 13))
        geom = ConvGeometry(c_in, s1, s2, c_out, ratio, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=int(rng.integers(2**31)))
        fmap = FeatureMap.random(c_in, d1, d2, seed=int(rng.integers(2**31)))

        counter = MultCounter()
        reference = naive_conv(fs, fmap, counter)
        fast, _ = fcfs_conv(fs, fmap)
        dev64 = rel_dev(fast.data, reference.data)

        fs32 = FilterSummary(geom, fs.layout, fs.weights.astype(np.float32))
        fmap32 = FeatureMap(c_in, d1, d2, fmap.data.astype(np.float32))
        fast32, _ = fcfs_conv(fs32, fmap32)
        dev32 = rel_dev(fast32.data, naive_conv(fs32, fmap32).data)

        results.append(
            dict(geom=geom, d1=d1, d2=d2, dev64=dev64, dev32=dev32, naive=counter)
        )
    return results


def test_criterion_2_fcfs_exactness(exactness_sweep):
    with criterion(2, "fcfs == naive on 200 random geometries (1e-5 f32 / 1e-12 f64)"):
        assert len(exactness_sweep) >= 200
        assert max(r["dev64"] for r in exactness_sweep) <= 1e-12
        assert max(r["dev32"] for r in exactness_sweep) <= 1e-5


def test_criterion_3_oracle_multiply_count(exactness_sweep):
    with criterion(3, "naive multiply count == c_out*d1*d2*K on every instance"):
        for r in exactness_sweep:
            geom = r["geom"]
            expected = geom.c_out * r["d1"] * r["d2"] * geom.filter_len
            assert r["naive"].multiplies == expected


def test_criterion_4_measured_acceleration():
    with criterion(4, "measured ratio >= 3.2 on the worked example, 16x16"):
        geom = ConvGeometry(64, 3, 3, 64, 4, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=1)
        fmap = FeatureMap.random(64, 16, 16, seed=2)
        report = measured_acceleration(fs, fmap)
        assert report.measured_ratio >= Fraction(8, 10) * 4
        # the closed-form prediction is reported alongside, never conflated
        assert abs(float(report.predicted.ratio) - 11.294) < 1e-3
        print(
            f"  measured={float(report.measured_ratio):.3f} "
            f"predicted={float(report.predicted.ratio):.3f}"
        )


def test_criterion_5_quantization_bounds():
    with criterion(5, "reconstruction <= tau/2 on 1000 vectors; affine identity 1e-12"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            nbits = 8 if rng.random() < 0.5 else 4
            w = rng.standard_normal(int(rng.integers(2, 80))) * float(rng.uniform(0.1, 5))
            q = quantize(w, nbits)
            assert q.tau == (q.w_max - q.w_min) / ((1 << nbits) - 1)
            assert np.max(np.abs(w - dequantize(q))) <= q.tau / 2 + 1e-12 * abs(q.tau)
        for _ in range(50):
            n_out = int(rng.integers(1, 10))
            n_in = int(rng.integers(1, 10))
            q_w, q_b = quantize_affine_layer(
                rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out), 8
            )
            x = rng.standard_normal(n_in)
            fast = quantized_affine_forward(q_w, q_b, x)
            dense = dequantize(q_w) @ x + dequantize(q_b)
            assert rel_dev(fast, dense) <= 1e-12


def test_criterion_6_effective_params_and_planner(capsys):
    with criterion(6, "byte-packing rule exact; resnet110 plan totals in range"):
        assert effective_params([(1_000_000, 8)]) == 250_002
        assert effective_params([(1_000, 4)]) == Fraction(1000, 8) + 2
        assert effective_params([(10, None)]) == 10

        code = main(["plan", "resnet110", "--ratio", "4"])
        out = capsys.readouterr().out
        assert code == 0
        total = dict(
            t.split("=", 1) for t in out.strip().splitlines()[-1].split()[1:]
        )
        baseline = int(total["baseline"])
        fsnet = int(total["fsnet"])
        assert abs(baseline - 1_740_000) <= 0.02 * 1_740_000
        assert abs(fsnet - 440_000) <= 0.05 * 440_000


def test_criterion_7_location_gradients():
    with criterion(7, "gradients match FD to 1e-6; integer starts exact; continuity 1e-12"):
        geom = ConvGeometry(2, 3, 2, 8, 2, StridePolicy.CHANNEL_ALIGNED)
        fs = FilterSummary.random(geom, seed=4)
        k = geom.filter_len
        length = fs.layout.length
        span = length - k - 1
        rng = np.random.default_rng(5)
        step = 1e-5

        checked = 0
        while checked < 100:
            alpha = float(rng.uniform(-4, 4))
            loc = locate(alpha, length, k)
            if abs(loc - round(loc)) <= max(2 * locate_grad(alpha, length, k) * step, 1e-9):
                continue  # keep the FD window inside one interpolation cell
            upstream = rng.standard_normal(k)
            analytic = grad_alpha(fs, alpha, upstream)
            f = lambda a: float(upstream @ extract_fractional(fs, locate(a, length, k)))
            fd, denom = central_diff(f, alpha, step)
            assert abs(analytic - fd) <= 1e-6 * denom

            grad = grad_summary(fs, loc, upstream)
            cell = int(math.floor(loc))
            for idx in (cell, cell + k):  # endpoints of the touched window
                def perturbed(w, idx=idx):
                    summary = fs.weights.copy()
                    summary[idx] = w
                    probe = FilterSummary(geom, fs.layout, summary)
                    return float(upstream @ extract_fractional(probe, loc))

                fd_w, denom_w = central_diff(perturbed, float(fs.weights[idx]), 1e-6)
                assert abs(grad[idx] - fd_w) <= 1e-6 * denom_w
            checked += 1

        # integer locations reproduce the plain segment bit for bit
        for i in range(geom.c_out):
            start = i * fs.layout.stride
            if start > span:
                continue
            assert np.array_equal(
                extract_fractional(fs, float(start)), extract_filter(fs, i)
            )

        # left and right limits agree across every integer boundary
        for cell in range(1, span + 1):
            left = _extract_in_cell(fs, float(cell), cell - 1)
            right = _extract_in_cell(fs, float(cell), cell)
            assert np.max(np.abs(left - right)) <= 1e-12


def test_criterion_8_coverage_and_overlap():
    with criterion(8, "physical coverage and exact neighbor sharing on random layouts"):
        rng = np.random.default_rng(6)
        full_cover = 0
        for _ in range(200):
            c_in = int(rng.integers(1, 17))
            s1 = int(rng.integers(1, 6))
            s2 = int(rng.integers(1, 6))
            c_out = int(rng.integers(1, 33))
            ratio = Fraction(1.0 + float(rng.random()) * (min(6, c_out) - 1.0))
            policy = (
                StridePolicy.GENERIC if rng.random() < 0.5 else StridePolicy.CHANNEL_ALIGNED
            )
            geom = ConvGeometry(c_in, s1, s2, c_out, ratio, policy)
            layout = derive_layout(geom)
            k, s = geom.filter_len, layout.stride

            # neighbors share exactly max(0, K - s) weights
            if geom.c_out > 1:
                shared = len(
                    set(range(0, k)) & set(range(s, s + k))
                )
                assert shared == max(0, k - s)

            covered = np.zeros(layout.phys_length, dtype=bool)
            for i in range(geom.c_out):
                covered[i * s : i * s + k] = True
            span = (geom.c_out - 1) * s + k
            # the filter span is tiled without gaps (stride <= K)
            assert covered[:span].all()
            if span >= layout.length:
                # no nominal tail: every physical weight belongs to a filter
                assert covered.all()
                full_cover += 1
            else:
                # floor slack leaves an unread nominal tail past the last
                # filter and nowhere else
                assert not covered[span:].any()
        assert full_cover >= 100  # the typical-compression regime dominates


def test_criterion_9_file_round_trips():
    with criterion(9, "model and arch files round-trip byte-identically, 100 models"):
        rng = np.random.default_rng(7)
        for index in range(100):
            c_out = int(rng.integers(1, 9))
            geom = ConvGeometry(
                int(rng.integers(1, 7)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                c_out,
                Fraction(1.0 + float(rng.random()) * (min(4, c_out) - 1.0)),
            )
            fs = FilterSummary.random(geom, seed=index)
            dtype = ("f32", "q8", "q4")[index % 3]
            alphas = rng.standard_normal(c_out) if index % 2 else None
            if dtype == "f32":
                layer = ModelLayer("c", geom, "f32", weights=fs.weights, alphas=alphas)
            else:
                q = quantize(fs.weights, 8 if dtype == "q8" else 4)
                layer = ModelLayer("c", geom, dtype, quant=q, alphas=alphas)
            blob = dump_model([layer])
            assert dump_model(load_model(blob)) == blob

            arch = ArchSpec(
                layers=[
                    ConvSpec("a", geom.c_in, geom.s1, geom.s2, c_out, geom.ratio),
                    BatchNormSpec("b", c_out),
                    DenseSpec("c", c_out, 10, bool(index % 2)),
                ],
                default_ratio=Fraction(4) if index % 3 else None,
            )
            text = dump_arch(arch)
            assert dump_arch(parse_arch(text)) == text
