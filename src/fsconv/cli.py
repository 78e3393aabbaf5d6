"""Command-line surface: compression planner, conv runner/comparator,
quantizer, gradient checker and benchmark reporter.

All reports are structured text on stdout (space-separated key=value
tokens, one record per line); diagnostics go to stderr. Exit codes:
0 success, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .dfs import (
    central_diff,
    extract_fractional,
    grad_alpha,
    grad_summary,
    init_alphas,
    locate,
    locate_grad,
)
from .errors import (
    DegenerateStrideError,
    FilterSummaryError,
    FormatError,
    InvalidArgumentError,
    InvalidRatioError,
)
from .fcfs import FcfsPlan, convolve, measured_ratio
from .formats import (
    ArchSpec,
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    ModelLayer,
    bundled_arch,
    read_arch,
    read_model,
    write_model,
)
from .geometry import (
    ConvGeometry,
    StridePolicy,
    count_params,
    derive_layout,
    fcfs_fallback,
    predicted_acceleration,
)
from .oracle import rel_dev
from .quant import BIT_WIDTHS, effective_params, quantize
from .tensors import FeatureMap, FilterSummary, unwrap

OK, FAIL, BAD_INPUT = 0, 1, 2


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _emit(record: str, stream=None, **fields) -> None:
    """One record to stdout, or to `stream` (stderr for warnings)."""
    tokens = [record] + [f"{k}={_fmt(v)}" for k, v in fields.items()]
    print(" ".join(tokens), file=stream)


def _check_option(name: str, value, low, strict: bool = False) -> None:
    """Refuse a numeric option below `low` (or at it, when `strict`), NaN or infinite."""
    if not (low < value < math.inf if strict else low <= value < math.inf):
        op = ">" if strict else ">="
        raise InvalidArgumentError(f"{name} must be {op} {low} and finite, got {value}")


def _read_arch(name: str) -> tuple[Path, ArchSpec]:
    """(path, contents) of an architecture file, or of a bundled one by bare name; not empty."""
    path = Path(name)
    if not path.exists() and path.suffix == "" and "/" not in name:
        path = bundled_arch(name)  # FileNotFoundError: no such file or bundled name
    arch = read_arch(path)
    if not arch.layers:
        raise FormatError(f"architecture {name!r} has no layers")
    return path, arch


def _read_model(path) -> list[ModelLayer]:
    """The layers of a model file; refuses one with none."""
    layers = read_model(path)
    if not layers:
        raise FormatError(f"model {path!r} has no layers")
    return layers


def _conv_settings(arch: ArchSpec, layer: ConvSpec, args) -> tuple[Fraction, StridePolicy]:
    """Ratio and policy of a conv layer: from the layer, else the command
    line, else the file's defaults; the policy falls back to channel."""
    ratio = next((r for r in (layer.ratio, args.ratio, arch.default_ratio) if r is not None), None)
    if ratio is None:
        raise FormatError(f"layer {layer.name!r} has no ratio; set r= in the file or pass --ratio")
    try:
        ratio = Fraction(ratio)  # only --ratio is still text here
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"--ratio must be a rational number, got {ratio!r}") from exc
    flag_policy = StridePolicy(args.policy) if args.policy is not None else None
    policy = layer.policy or flag_policy or arch.default_policy or StridePolicy.CHANNEL_ALIGNED
    return ratio, policy


def _resolve_conv(arch: ArchSpec, layer: ConvSpec, args):
    """(geom, layout) of a conv layer. Raises DegenerateStrideError or
    InvalidRatioError for a layer that has no valid layout."""
    ratio, policy = _conv_settings(arch, layer, args)
    geom = ConvGeometry(layer.c_in, layer.s1, layer.s2, layer.c_out, ratio, policy)
    return geom, derive_layout(geom)


# --- plan --------------------------------------------------------------------


def cmd_plan(args) -> int:
    arch_path, arch = _read_arch(args.arch)
    _emit("plan", file=arch_path, layers=len(arch.layers))
    baseline_total = fsnet_total = 0
    for layer in arch.layers:
        if isinstance(layer, BatchNormSpec):
            _emit("layer", name=layer.name, kind="bn", params=layer.params)
        elif isinstance(layer, DenseSpec):
            _emit(
                "layer",
                name=layer.name,
                kind="fc",
                **{"in": layer.fan_in},
                out=layer.fan_out,
                bias=int(layer.bias),
                params=layer.params,
            )
        if not isinstance(layer, ConvSpec):
            baseline_total += layer.params
            fsnet_total += layer.params
            continue
        fields = dict(name=layer.name, kind="conv", c_in=layer.c_in, s1=layer.s1, s2=layer.s2,
                      c_out=layer.c_out)
        try:
            geom, layout = _resolve_conv(arch, layer, args)
        except (DegenerateStrideError, InvalidRatioError) as exc:
            # surfaced per layer, not fatal: the layer stays uncompressed
            ratio, policy = _conv_settings(arch, layer, args)
            kind = "degenerate_stride" if isinstance(exc, DegenerateStrideError) else "invalid_ratio"
            baseline = layer.c_in * layer.s1 * layer.s2 * layer.c_out
            fields.update(r=ratio, policy=policy.value, error=kind)
            _emit("layer", **fields, baseline=baseline, fs=baseline)
            baseline_total += baseline
            fsnet_total += baseline
            continue
        fields.update(r=geom.ratio, policy=geom.stride_policy.value)
        params = count_params(geom, layout)
        fields.update(
            K=geom.filter_len,
            L=layout.length,
            s=layout.stride,
            phys=layout.phys_length,
            baseline=params.baseline,
            fs=params.fs,
            cr=params.cr,
            cr_nominal=params.cr_nominal,
        )
        pred = predicted_acceleration(geom, layout, 1, 1)
        fields["accelerable"] = int(pred.accelerable)
        if pred.accelerable:
            fields["pred_ratio"] = pred.ratio
        _emit("layer", **fields)
        baseline_total += params.baseline
        fsnet_total += params.fs
    _emit(
        "total",
        baseline=baseline_total,
        fsnet=fsnet_total,
        cr=Fraction(baseline_total, fsnet_total),
    )
    return OK


# --- conv --------------------------------------------------------------------


def _load_input(path) -> np.ndarray:
    try:
        return np.load(path)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read input tensor {path!r}: {exc}") from exc


def cmd_conv(args) -> int:
    _check_option("--tolerance", args.tolerance, 0)
    layers = _read_model(args.model)
    current = unwrap(_load_input(args.input))
    engines = ("fcfs", "naive") if args.engine == "both" else (args.engine,)
    status = OK
    _emit("conv", model=args.model, input=args.input, engine=args.engine, tolerance=args.tolerance)
    for layer in layers:
        fs = layer.summary()
        runs = {}
        for engine in engines:  # an fcfs run that fell back already is the naive run
            fell_back = "fcfs" in runs and runs["fcfs"][1].engine == engine
            runs[engine] = runs["fcfs"] if fell_back else convolve(fs, current, engine)
        output = runs[engines[-1]][0]  # the reference output, when both run
        fields = dict(name=layer.name, engine=args.engine)
        if args.engine == "both":
            fields["dev"] = rel_dev(runs["fcfs"][0].data, output.data)
            if not fields["dev"] <= args.tolerance:  # a NaN deviation fails too
                status = FAIL
        if "naive" in runs:
            fields["naive_mults"] = runs["naive"][1].counts.multiplies
        if "fcfs" in runs:
            report = runs["fcfs"][1]
            if report.fallback is not None:
                _emit("warning", stream=sys.stderr, layer=layer.name,
                      fcfs_unsupported=report.fallback.value, fallback=report.engine)
            fields.update(
                fcfs_mults=report.counts.multiplies,
                fcfs_lookups=report.counts.lookups,
                fallback=int(report.fallback is not None),
            )
        _emit("layer", **fields)
        current = FeatureMap(output.c_out, output.d1, output.d2, output.data)
    out_path = args.output or str(Path(args.input).with_suffix("")) + ".out.npy"
    with open(out_path, "wb") as file:  # np.save appends .npy to a path without it
        np.save(file, output.as_3d())
    _emit("output", file=out_path, shape=f"{output.c_out}x{output.d1}x{output.d2}")
    _emit("status", ok=int(status == OK))
    return status


# --- quantize ------------------------------------------------------------------


def cmd_quantize(args) -> int:
    layers = _read_model(args.model)
    out_path = args.output or str(Path(args.model).with_suffix("")) + f".q{args.bits}.fsn"
    _emit("quantize", model=args.model, bits=args.bits, output=out_path)
    new_layers = []
    sizes = []
    float_total = 0
    for layer in layers:
        phys = layer.layout.phys_length
        float_total += phys
        if layer.dtype != "f32":
            _emit("warning", stream=sys.stderr, layer=layer.name, already_quantized=layer.dtype)
            _emit("layer", name=layer.name, skipped=layer.dtype)
        else:
            q = quantize(layer.weights, args.bits)
            layer = ModelLayer(layer.name, layer.geom, f"q{q.nbits}", quant=q, alphas=layer.alphas)
            _emit(
                "layer",
                name=layer.name,
                tau=q.tau,
                w_min=q.w_min,
                w_max=q.w_max,
                float_params=phys,
                effective_params=effective_params([(phys, args.bits)]),
            )
        new_layers.append(layer)
        sizes.append((phys, layer.quant.nbits))
    write_model(out_path, new_layers)
    effective_total = effective_params(sizes)
    _emit("total", float_params=float_total, effective_params=effective_total,
          ratio=Fraction(float_total) / effective_total)
    _emit("status", ok=1)
    return OK


# --- gradcheck ----------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    _check_option("--seed", args.seed, 0)
    _check_option("--points", args.points, 1)
    _check_option("--tolerance", args.tolerance, 0, strict=True)
    _check_option("--step", args.step, 0, strict=True)
    layers = _read_model(args.model)
    rng = np.random.default_rng(args.seed)
    _emit("gradcheck", model=args.model, seed=args.seed, points=args.points,
          tolerance=args.tolerance, step=args.step)
    status = OK
    for layer in layers:
        fs64 = FilterSummary(layer.geom, layer.layout, layer.summary().weights.astype(np.float64))
        k = layer.geom.filter_len
        length = layer.layout.length
        if length <= k + 1:
            _emit("layer", name=layer.name, error="fs_too_short")
            continue
        alphas = layer.alphas if layer.alphas is not None else init_alphas(fs64)
        # sample around the model's operating points but inside healthy
        # sigmoid territory (clipped init targets can sit at alpha ~ -20,
        # where every location rounds to an integer and gets flagged)
        base = float(np.clip(np.mean(alphas), -3.0, 3.0))

        alpha_err = summary_err = 0.0
        checked = flagged = attempts = 0
        while checked < args.points and attempts < 50 * args.points:
            attempts += 1
            alpha = base + float(rng.uniform(-4.0, 4.0))
            loc = locate(alpha, length, k)
            # an FD step must not cross an interpolation cell boundary
            guard = max(2.0 * locate_grad(alpha, length, k) * args.step, 1e-9)
            if abs(loc - round(loc)) <= guard:
                flagged += 1
                continue
            upstream = rng.standard_normal(k)
            analytic = grad_alpha(fs64, alpha, upstream)
            fd, denom = central_diff(
                lambda a: float(upstream @ extract_fractional(fs64, locate(a, length, k))),
                alpha,
                args.step,
                args.tolerance,
            )
            alpha_err = max(alpha_err, abs(analytic - fd) / denom)

            grad = grad_summary(fs64, loc, upstream)
            cell = int(np.floor(loc))
            bumped = FilterSummary(layer.geom, layer.layout, fs64.weights.copy())
            for idx in range(cell, cell + k + 1):
                def bumped_value(w):
                    bumped.weights[idx] = w
                    value = float(upstream @ extract_fractional(bumped, loc))
                    bumped.weights[idx] = fs64.weights[idx]
                    return value

                fd_w, denom_w = central_diff(
                    bumped_value, float(fs64.weights[idx]), 1e-6, args.tolerance
                )
                summary_err = max(summary_err, abs(grad[idx] - fd_w) / denom_w)
            checked += 1
        ok = alpha_err <= args.tolerance and summary_err <= args.tolerance
        if not ok:
            status = FAIL
        _emit(
            "layer",
            name=layer.name,
            alpha_err=alpha_err,
            summary_err=summary_err,
            checked=checked,
            flagged=flagged,
            status="pass" if ok else "fail",
        )
    _emit("status", ok=int(status == OK))
    return status


# --- bench --------------------------------------------------------------------


def _time_best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def cmd_bench(args) -> int:
    arch_path, arch = _read_arch(args.arch)
    d1, d2 = args.spatial
    _check_option("--spatial", min(d1, d2), 1)
    _check_option("--repeat", args.repeat, 1)
    _check_option("--seed", args.seed, 0)
    _emit("bench", file=arch_path, spatial=f"{d1}x{d2}", repeat=args.repeat, seed=args.seed)
    for index, layer in enumerate(arch.layers):
        if not isinstance(layer, ConvSpec):
            continue
        try:
            geom, layout = _resolve_conv(arch, layer, args)
        except (DegenerateStrideError, InvalidRatioError) as exc:
            _emit("layer", name=layer.name, skipped=type(exc).__name__)
            continue
        fallback = fcfs_fallback(geom, layout)
        if fallback is not None:
            _emit("layer", name=layer.name, skipped=fallback.value)
            continue
        fs = FilterSummary.random(geom, seed=args.seed + index)
        fmap = FeatureMap.random(geom.c_in, d1, d2, seed=args.seed + index + 1)
        reference, naive = convolve(fs, fmap, "naive")
        start = time.perf_counter()
        plan = FcfsPlan.build(geom, layout, d1, d2)
        plan_ms = (time.perf_counter() - start) * 1e3
        fast, report = convolve(fs, fmap)  # caches the plan: fcfs_ms is execution
        naive_ms = _time_best(lambda: convolve(fs, fmap, "naive"), args.repeat)
        fcfs_ms = _time_best(lambda: convolve(fs, fmap), args.repeat)
        _emit(
            "layer",
            name=layer.name,
            naive_mults=naive.counts.multiplies,
            fcfs_mults=report.counts.multiplies,
            fcfs_floor=plan.needed,
            fcfs_lookups=report.counts.lookups,
            measured=measured_ratio(naive.counts, report.counts),
            predicted=predicted_acceleration(geom, layout, d1, d2).ratio,
            naive_ms=naive_ms,
            fcfs_ms=fcfs_ms,
            dev=rel_dev(fast.data, reference.data),
            plan_ms=plan_ms,
            work_bytes=plan.nbytes(fast.data.itemsize),
        )
    _emit("status", ok=1)
    return OK


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsconv",
        description="Weight-shared convolution toolkit: plan, run, quantize, check.",
    )
    parser.add_argument("--version", action="version", version=f"fsconv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="per-layer layout and parameter report")
    plan.add_argument("arch", help="architecture file (or bundled name, e.g. resnet110)")
    plan.add_argument("--ratio", help="compression ratio for layers without r=")
    plan.add_argument("--policy", choices=[p.value for p in StridePolicy])
    plan.set_defaults(func=cmd_plan)

    conv = sub.add_parser("conv", help="run a model on an input tensor")
    conv.add_argument("model", help="model file (FSN1)")
    conv.add_argument("input", help=".npy input tensor of shape (c_in, d1, d2)")
    conv.add_argument("--engine", choices=("naive", "fcfs", "both"), default="both")
    conv.add_argument("--output", help="output .npy path")
    conv.add_argument("--tolerance", type=float, default=1e-5)
    conv.set_defaults(func=cmd_conv)

    quant = sub.add_parser("quantize", help="linear-quantize every layer of a model")
    quant.add_argument("model")
    quant.add_argument("--bits", type=int, choices=BIT_WIDTHS, default=8)
    quant.add_argument("--output", help="quantized model path")
    quant.set_defaults(func=cmd_quantize)

    grad = sub.add_parser("gradcheck", help="finite-difference check of location gradients")
    grad.add_argument("model")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--points", type=int, default=100)
    grad.add_argument("--tolerance", type=float, default=1e-6)
    grad.add_argument("--step", type=float, default=1e-5)
    grad.set_defaults(func=cmd_gradcheck)

    bench = sub.add_parser("bench", help="multiply counts and wall clock, both engines")
    bench.add_argument("arch")
    bench.add_argument("--ratio")
    bench.add_argument("--policy", choices=[p.value for p in StridePolicy])
    bench.add_argument("--spatial", type=int, nargs=2, default=(16, 16), metavar=("D1", "D2"))
    bench.add_argument("--repeat", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FilterSummaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
