"""Command-line surface: compression planner, conv runner/comparator,
quantizer, gradient checker and benchmark reporter.

All reports are structured text on stdout (space-separated key=value
tokens, one record per line); diagnostics go to stderr. Exit codes:
0 success, 1 verification failure, 2 malformed input, 141 (128 + SIGPIPE)
stdout closed before the report was written, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import enum
import functools
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .dfs import check_gradients
from .errors import (
    FilterSummaryError,
    FormatError,
    FSTooShortError,
    InvalidArgumentError,
    InvalidRatioError,
)
from .fcfs import LayerPlan, convolve, fcfs_conv, layer_plan, measured_ratio
from .formats import (
    ArchSpec,
    ConvSpec,
    ModelLayer,
    arch_fields,
    bundled_arch,
    parse_ratio,
    read_arch,
    read_model,
    write_model,
)
from .geometry import (
    ConvGeometry,
    StridePolicy,
    count_params,
    derive_layout,
    predicted_acceleration,
)
from .oracle import rel_dev
from .quant import BIT_WIDTHS, effective_params, quantize
from .tensors import FeatureMap, FilterSummary, unwrap

OK, FAIL, BAD_INPUT, STDOUT_CLOSED = 0, 1, 2, 141  # 141 = 128 + SIGPIPE, as the shell reports


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value.value if isinstance(value, enum.Enum) else value)


def _emit(record: str, stream=None, **fields) -> None:
    """One record to stdout, or to `stream` (stderr for warnings)."""
    tokens = [record] + [f"{k}={_fmt(v)}" for k, v in fields.items()]
    print(" ".join(tokens), file=stream)


def _check_option(name: str, value, low, strict: bool = False) -> None:
    """Refuse a numeric option below `low` (or at it, when `strict`), NaN or infinite."""
    if not (low < value < math.inf if strict else low <= value < math.inf):
        op = ">" if strict else ">="
        raise InvalidArgumentError(f"{name} must be {op} {low} and finite, got {value}")


def _read_arch(args) -> tuple[Path, list]:
    """(path, layers): the architecture file, or a bundled one by bare name, not
    empty, and per layer its _resolve_conv result, or (layer, None, None) if not conv.
    All is read before any record: --ratio and --policy once, then every conv layer."""
    path = Path(args.arch)
    if not path.exists() and path.suffix == "" and "/" not in args.arch:
        path = bundled_arch(args.arch)  # FileNotFoundError: no such file or bundled name
    arch = read_arch(path)
    if not arch.layers:
        raise FormatError(f"architecture {args.arch!r} has no layers")
    try:
        ratio = None if args.ratio is None else parse_ratio(args.ratio)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"--ratio must be a rational number, got {args.ratio!r}") from exc
    policy = None if args.policy is None else StridePolicy(args.policy)
    return path, [_resolve_conv(arch, layer, ratio, policy)
                  if isinstance(layer, ConvSpec) else (layer, None, None) for layer in arch.layers]


def _read_model(path) -> list[ModelLayer]:
    """The layers of a model file; refuses one with none."""
    layers = read_model(path)
    if not layers:
        raise FormatError(f"model {path!r} has no layers")
    return layers


def _resolve_conv(arch: ArchSpec, layer: ConvSpec, ratio, policy):
    """(layer, geom, layout) of a conv layer, the layer with its ratio and policy resolved:
    from the layer, else the command line, else the file's defaults, else (policy only)
    channel. With no valid layout, geom is None and layout is the reason:
    degenerate_stride (stride 0: every filter the same K weights) or invalid_ratio."""
    ratio = next((r for r in (layer.ratio, ratio, arch.default_ratio) if r is not None), None)
    if ratio is None:
        raise FormatError(f"layer {layer.name!r} has no ratio; set r= in the file or pass --ratio")
    policy = layer.policy or policy or arch.default_policy or StridePolicy.CHANNEL_ALIGNED
    layer = replace(layer, ratio=ratio, policy=policy)
    try:
        geom = ConvGeometry(layer.c_in, layer.s1, layer.s2, layer.c_out, ratio, policy)
        layout = derive_layout(geom)
    except InvalidRatioError:
        return layer, None, "invalid_ratio"
    if geom.filters_coincide(layout.stride):
        return layer, None, "degenerate_stride"
    return layer, geom, layout


# --- plan --------------------------------------------------------------------


def cmd_plan(args) -> int:
    arch_path, layers = _read_arch(args)
    _emit("plan", file=arch_path, layers=len(layers))
    baseline_total = fsnet_total = 0
    for layer, geom, layout in layers:
        if layout is None:  # not a conv layer
            baseline = fs = layer.params
            fields = dict(params=fs)
        elif geom is None:  # surfaced per layer, not fatal: the layer stays uncompressed
            baseline = fs = layer.c_in * layer.s1 * layer.s2 * layer.c_out
            fields = dict(error=layout, baseline=baseline, fs=fs)
        else:
            params = count_params(geom, layout)
            baseline, fs = params.baseline, params.fs
            fields = dict(K=geom.filter_len, L=layout.length, s=layout.stride,
                          phys=layout.phys_length, baseline=baseline, fs=fs, cr=params.cr,
                          cr_nominal=params.cr_nominal,
                          pred_ratio=predicted_acceleration(geom, layout, 1, 1).ratio)
        _emit("layer", name=layer.name, **arch_fields(layer), **fields)
        baseline_total += baseline
        fsnet_total += fs
    _emit("total", baseline=baseline_total, fsnet=fsnet_total,
          cr=Fraction(baseline_total, fsnet_total))
    return OK


# --- conv --------------------------------------------------------------------


def cmd_conv(args) -> int:
    _check_option("--tolerance", args.tolerance, 0)
    layers = _read_model(args.model)
    try:  # a memory map refuses a header that declares more bytes than the file, unallocated
        tensor = np.array(np.load(args.input, mmap_mode="r"))
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read input tensor {args.input!r}: {exc}") from exc
    current = unwrap(tensor)
    engines = ("fcfs", "naive") if args.engine == "both" else (args.engine,)
    status = OK
    _emit("conv", model=args.model, input=args.input, engine=args.engine, tolerance=args.tolerance)
    for layer in layers:
        if layer.geom.filters_coincide(layer.layout.stride):  # run exactly, but not silently
            _emit("warning", stream=sys.stderr, layer=layer.name, layout="degenerate_stride")
        fs = layer.summary()
        runs = {}
        for engine in engines:  # an fcfs run that fell back already is the naive run
            fell_back = "fcfs" in runs and runs["fcfs"][1].engine == engine
            runs[engine] = runs["fcfs"] if fell_back else convolve(fs, current, engine)
        current = runs[engines[-1]][0]  # the reference output, when both run: the next input
        fields = dict(name=layer.name, engine=args.engine)
        if args.engine == "both":
            fields["dev"] = rel_dev(runs["fcfs"][0].data, current.data)
            if not fields["dev"] <= args.tolerance:  # a NaN deviation fails too
                status = FAIL
        if "naive" in runs:
            fields["naive_mults"] = runs["naive"][1].counts.multiplies
        if "fcfs" in runs:
            report = runs["fcfs"][1]
            if report.fallback is not None:
                _emit("warning", stream=sys.stderr, layer=layer.name,
                      fcfs_unsupported=report.fallback, fallback=report.engine)
            fields.update(
                fcfs_mults=report.counts.multiplies,
                fcfs_lookups=report.counts.lookups,
                fallback=int(report.fallback is not None),
            )
        _emit("layer", **fields)
    out_path = args.output or str(Path(args.input).with_suffix("")) + ".out.npy"
    with open(out_path, "wb") as file:  # np.save appends .npy to a path without it
        np.save(file, current.as_3d())
    _emit("output", file=out_path, shape=f"{current.c_out}x{current.d1}x{current.d2}")
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
            layer = ModelLayer._trusted(layer.name, layer.geom, f"q{q.nbits}", None, q, layer.alphas)
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
        try:
            fields = check_gradients(layer.summary(), layer.alphas, rng, args.points,
                                     args.tolerance, args.step)
        except FSTooShortError:
            _emit("layer", name=layer.name, error="fs_too_short")
            continue
        ok = fields["alpha_err"] <= args.tolerance and fields["summary_err"] <= args.tolerance
        if not ok:
            status = FAIL
        _emit("layer", name=layer.name, **fields, status="pass" if ok else "fail")
    _emit("status", ok=int(status == OK))
    return status


# --- bench --------------------------------------------------------------------


def _time_best(fn, repeat: int):
    """(best wall time in ms, the last run's output) of `repeat` calls of fn."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3, out


def cmd_bench(args) -> int:
    arch_path, layers = _read_arch(args)
    d1, d2 = args.spatial
    _check_option("--spatial", min(d1, d2), 1)
    _check_option("--repeat", args.repeat, 1)
    _check_option("--seed", args.seed, 0)
    _emit("bench", file=arch_path, spatial=f"{d1}x{d2}", repeat=args.repeat, seed=args.seed)
    timed = 0
    for index, (layer, geom, layout) in enumerate(layers):
        if layout is None:  # not a conv layer
            continue
        record = None if geom is None else layer_plan(geom, layout, d1, d2)
        if record is None or record.fcfs is None:  # no layout, or fcfs cannot run it
            _emit("layer", name=layer.name, skipped=layout if record is None else record.fallback)
            continue
        fs = FilterSummary.random(geom, seed=args.seed + index)
        try:  # a refused allocation anywhere in the layer means the map is too big
            try:
                fmap = FeatureMap.random(geom.c_in, d1, d2, seed=args.seed + index + 1)
            except ValueError as exc:  # numpy's "array is too big": past its index range
                raise MemoryError(str(exc)) from exc
            plan_ms, plan = _time_best(lambda: LayerPlan.build(geom, layout, d1, d2).fcfs, 1)
            naive_ms, (reference, report) = _time_best(lambda: convolve(fs, fmap, "naive"), args.repeat)
            fcfs_ms, (fast, counts) = _time_best(lambda: fcfs_conv(fs, fmap), args.repeat)
            _emit(
                "layer",
                name=layer.name,
                naive_mults=report.counts.multiplies,
                fcfs_mults=counts.multiplies,
                fcfs_floor=plan.needed,
                fcfs_lookups=counts.lookups,
                measured=measured_ratio(report.counts, counts),
                predicted=predicted_acceleration(geom, layout, d1, d2).ratio,
                naive_ms=naive_ms,
                fcfs_ms=fcfs_ms,
                dev=rel_dev(fast.data, reference.data),
                plan_ms=plan_ms,
                work_bytes=plan.nbytes(fast.data.itemsize),
                blocks=plan.blocks(fast.data.itemsize),
                naive_bytes=record.naive.nbytes(reference.data.itemsize),
                bank=record.naive.bank_layout(reference.data.itemsize),
                engine="fcfs" if record.fallback is None else "naive",  # the engine conv runs
                **({} if record.fallback is None else dict(reason=record.fallback)),
            )
        except MemoryError as exc:
            raise InvalidArgumentError(f"--spatial {d1} {d2} is too big: {exc}") from exc
        timed += 1
    if not timed:
        raise FormatError(f"architecture {args.arch!r} has no conv layer the fcfs engine runs")
    _emit("status", ok=1)
    return OK


# --- entry point ----------------------------------------------------------------


@functools.cache  # one tree per process: no option has a mutable default
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsconv",
        description="Weight-shared convolution toolkit: plan, run, quantize, check.",
    )
    parser.add_argument("--version", action="version", version=f"fsconv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    arch = argparse.ArgumentParser(add_help=False)  # what plan and bench read
    arch.add_argument("arch", help="architecture file (or bundled name, e.g. resnet110)")
    arch.add_argument("--ratio", help="compression ratio for layers without r=")
    arch.add_argument("--policy", choices=[p.value for p in StridePolicy])

    plan = sub.add_parser("plan", parents=[arch], help="per-layer layout and parameter report")
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

    bench = sub.add_parser("bench", parents=[arch],
                           help="multiply counts and wall clock, both engines")
    bench.add_argument("--spatial", type=int, nargs=2, default=(16, 16), metavar=("D1", "D2"))
    bench.add_argument("--repeat", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter shutdown
        return status
    except BrokenPipeError:  # stdout closed early: nothing more to say, nor at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STDOUT_CLOSED
    except (FilterSummaryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
