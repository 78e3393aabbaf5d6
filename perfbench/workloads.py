"""The benchmark's workloads, driven only through fsconv's public functions.

Each workload has a setup, which builds seeded inputs the way a user of the
library would, and a pass, one unit of timed work whose every output is
checked. All timing and counting happens here, around the calls into fsconv;
nothing inside the package is instrumented.

resnet110-forward  one f32 image through the 109 conv layers of the bundled
                   ResNet-110 at the CIFAR schedule, both engines per layer
shape-sweep        a stream of distinct f64 geometries, each run once
model-tooling      FSN1 round trip, `fsconv quantize` and `fsconv gradcheck`
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fsconv import (
    BatchNormSpec,
    ConvGeometry,
    ConvSpec,
    FilterSummary,
    ModelLayer,
    StridePolicy,
    build_integrals,
    bundled_arch,
    dequantize,
    derive_layout,
    dump_model,
    extract_fractional,
    fcfs_conv,
    grad_alpha,
    grad_summary,
    load_model,
    locate,
    naive_conv,
    pad_same,
    parse_arch,
    quantize,
    read_model,
    required_diagonals,
    unwrap,
)
from fsconv import cli
from fsconv.counters import MultCounter
from fsconv.errors import FilterSummaryError, NonDifferentiableWarning, UnsupportedGeometryError
from speed import Speed
from tracing import Recorder

F32_TOL = 1e-5  # acceptance tolerances of fcfs against the oracle
F64_TOL = 1e-12
RESNET_RATIO = Fraction(4)
RESNET_SIZE = 32
SWEEP_PASS = 100  # geometries per sweep pass
SWEEP_DESIGN_SEED = 1  # fixes the sweep's templates, not its geometries
GRADCHECK_POINTS = 8
# c_in, s1, s2, c_out, ratio of the small model `fsconv gradcheck` runs on
SMALL_MODEL = ((2, 3, 3, 4, 2), (4, 3, 3, 6, 3), (6, 2, 3, 8, 4))


@dataclass
class Engines:
    """The two convolution engines; tests substitute perturbed ones."""

    naive: Callable = naive_conv
    fcfs: Callable = fcfs_conv


@dataclass
class Run:
    """What the passes of one benchmark run share and accumulate."""

    rec: Recorder
    work: Path
    engines: Engines = field(default_factory=Engines)
    speed: Speed = field(default_factory=Speed)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0  # typed FilterSummaryError refusals of generated inputs
    problems: Counter = field(default_factory=Counter)
    ops: list = field(default_factory=list)  # one record per operation
    pass_index: int = 0
    fmt_bytes: int = 0  # bytes through traced dump/load calls
    seen: set = field(default_factory=set)  # (geometry, d1, d2) run so far
    first_counts: dict = field(default_factory=dict)  # input -> fcfs counts

    def settle(self, record: dict, problems: list[str]) -> None:
        """Count one attempted operation, failed if any check failed, and
        sample the machine's speed after it (see speed.py)."""
        record["scale"] = self.speed.bracket()
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.update(problems)
        record.update(problems=problems, traced=self.rec.trace)
        record["pass"] = self.pass_index
        self.ops.append(record)


def rel_dev(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute deviation over the reference's max magnitude."""
    scale = float(np.max(np.abs(reference)))
    diff = float(np.max(np.abs(actual - reference)))
    return diff if scale == 0.0 else diff / scale


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _fan_in(rng, geom: ConvGeometry, n: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / geom.filter_len)  # the init FilterSummary.random uses
    return rng.uniform(-bound, bound, n).astype(dtype)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# --- convolution ---------------------------------------------------------------


def conv_op(run: Run, fs: FilterSummary, fmap, tol: float, input_key, cls=None) -> np.ndarray:
    """Both engines on one input, checked against each other. Returns the
    oracle output, which is what the next layer consumes. `input_key` names
    the input, for the repeat check; `cls` groups operations that do the
    same work, for class-median timing (default: the shape)."""
    rec, geom = run.rec, fs.geom
    d1, d2 = fmap.d1, fmap.d2
    oracle = MultCounter()
    fallback = ""
    with rec.span("op") as op:
        with rec.span("oracle.naive_conv") as naive_span:
            ref = run.engines.naive(fs, fmap, oracle)
        with rec.span("fcfs.fcfs_conv") as fcfs_span, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out, fast = run.engines.fcfs(fs, fmap)
            except UnsupportedGeometryError:
                fallback = "s2_is_1"
                fast = MultCounter()
                out = run.engines.naive(fs, fmap, fast)
        if not fallback and any(w.category is UserWarning for w in caught):
            fallback = "unaligned_stride"
        dev = rel_dev(out.data, ref.data)

    problems = []
    if not dev <= tol:
        problems.append("deviation")
    if oracle.multiplies != geom.c_out * d1 * d2 * geom.filter_len:
        problems.append("oracle_count")
    counts = (fast.multiplies, fast.additions, fast.lookups)
    if run.first_counts.setdefault(input_key, counts) != counts:
        problems.append("fcfs_count_repeat")
    shape = (geom, d1, d2)
    record = dict(
        kind="conv",
        cls=shape if cls is None else cls,
        shape=shape,
        reused=shape in run.seen,
        fallback=fallback,
        dev=dev,
        ms=op.ms,
        fcfs_ms=fcfs_span.ms,
        naive_ms=naive_span.ms,
        multiplies=fast.multiplies,
        additions=fast.additions,
        lookups=fast.lookups,
        oracle_multiplies=oracle.multiplies,
        stage1_closed=float(geom.c_in * d1 * d2 * fs.layout.slices),
        pair_entries=geom.s2 * geom.c_out * d1 * d2,
    )
    run.seen.add(shape)
    if rec.trace:
        record.update(_probe(run, fs, fmap, fallback))
    run.settle(record, problems)
    return ref


def _probe(run: Run, fs: FilterSummary, fmap, fallback: str) -> dict:
    """Stage split of the convolution just run: call fcfs's public stages
    again on the same input. Made only while tracing."""
    rec = run.rec
    with rec.span("oracle.pad_same", detail=True) as pad:
        pad_same(fmap, fs.geom.s1, fs.geom.s2)
    out = dict(pad_ms=pad.ms)
    if not fallback:
        with rec.span("fcfs.required_diagonals", detail=True) as plan:
            diagonals = required_diagonals(fs, fmap)
        with rec.span("fcfs.build_integrals", detail=True) as integrals:
            build_integrals(fs, fmap, diagonals)
        out.update(
            plan_ms=plan.ms,
            integrals_ms=integrals.ms,
            diagonals=len(diagonals),
            runs=sum(len(r) for r in diagonals.values()),
        )
    return out


# --- models ---------------------------------------------------------------------


def build_model(arch, rng, rec: Recorder) -> list[ModelLayer]:
    """An f32 model with one seeded layer per conv layer of `arch`, at
    RESNET_RATIO with the channel-aligned policy."""
    layers = []
    for spec in arch.layers:
        if isinstance(spec, ConvSpec):
            geom = ConvGeometry(
                spec.c_in, spec.s1, spec.s2, spec.c_out, RESNET_RATIO, StridePolicy.CHANNEL_ALIGNED
            )
            with rec.span("geometry.derive_layout", detail=True):
                layout = derive_layout(geom)
            weights = _fan_in(rng, geom, layout.phys_length, np.float32)
            layers.append(ModelLayer(spec.name, geom, "f32", weights=weights))
    return layers


def save_and_load(run: Run, layers: list[ModelLayer], path: Path) -> tuple[list[ModelLayer], bytes]:
    """Write an FSN1 file and read it back, as `fsconv conv` does."""
    with run.rec.span("formats.dump_model", detail=True):
        data = dump_model(layers)
    path.write_bytes(data)
    with run.rec.span("formats.load_model", detail=True):
        loaded = load_model(path.read_bytes())
    if run.rec.trace:
        run.fmt_bytes += 2 * len(data)
    return loaded, data


def _parse_resnet(rec: Recorder):
    text = bundled_arch("resnet110").read_text(encoding="utf-8")
    with rec.span("formats.parse_arch", detail=True):
        return parse_arch(text)


# --- resnet110-forward -------------------------------------------------------------


@dataclass
class ResnetState:
    arch: object
    summaries: list  # FilterSummary per conv layer, from the loaded model
    schedule: list  # (name, size computed at, subsampled after) per conv layer
    image: np.ndarray


def resnet_schedule(arch) -> list[tuple[str, int, bool]]:
    """(conv layer, spatial size it is computed at, subsampled after) for
    ResNet-110 on CIFAR: 32x32, then 16x16, then 8x8. The first conv of
    stages 2 and 3 has stride 2 in the network; here it runs at stride 1 and
    is subsampled 2x, which gives the same result."""
    size, out = RESNET_SIZE, []
    for layer in arch.layers:
        if isinstance(layer, ConvSpec):
            down = layer.name.endswith("block01.conv1") and not layer.name.startswith("stage1")
            out.append((layer.name, size, down))
            if down:
                size //= 2
    return out


def resnet_setup(seed: int, run: Run):
    rng = np.random.default_rng([seed, 1])
    arch = _parse_resnet(run.rec)
    layers, data = save_and_load(run, build_model(arch, rng, run.rec), run.work / "resnet110.fsn")
    image = rng.standard_normal((3, RESNET_SIZE, RESNET_SIZE)).astype(np.float32)
    summaries = [layer.summary() for layer in layers]
    return ResnetState(arch, summaries, resnet_schedule(arch), image), digest(data, image)


def _standardize(x: np.ndarray) -> np.ndarray:
    """A bn layer at inference, with unit scale and zero shift: per-channel
    standardization, so activations stay O(1) through 109 layers."""
    mean = x.mean(axis=(1, 2), keepdims=True)
    std = np.maximum(x.std(axis=(1, 2), keepdims=True), 1e-12)
    return ((x - mean) / std).astype(np.float32)


def resnet_pass(state: ResnetState, run: Run) -> None:
    x = state.image
    index = 0
    for layer in state.arch.layers:
        if isinstance(layer, BatchNormSpec):
            x = _standardize(x)
        elif isinstance(layer, ConvSpec):
            name, size, down = state.schedule[index]
            with run.rec.span("tensors.unwrap", detail=True):
                fmap = unwrap(x)
            if (fmap.d1, fmap.d2) != (size, size):
                raise RuntimeError(f"{name}: input is {fmap.d1}x{fmap.d2}, schedule says {size}")
            out = conv_op(run, state.summaries[index], fmap, F32_TOL, ("resnet", index)).as_3d()
            x = out[:, ::2, ::2] if down else out
            index += 1


# --- shape-sweep --------------------------------------------------------------------


@dataclass
class SweepState:
    rng: np.random.Generator
    keys: set = field(default_factory=set)  # generated (geometry, d1, d2) keys
    inputs: list = field(default_factory=list)  # (template position, FilterSummary, FeatureMap)
    count: int = 0


@functools.cache
def sweep_templates(n: int) -> tuple[tuple, ...]:
    """A fixed space-filling design of n rows (c_in, s1, s2, c_out, u,
    generic, d1, d2): each parameter covers its range evenly, and the columns
    are paired by one fixed Latin-hypercube draw. Ranges: channels 1-64,
    kernel sides 1-5, spatial sides 4-16; u in (0, 1) places the ratio in
    1-min(6, c_out); a fifth of the rows use the generic stride policy."""
    rng = np.random.default_rng(SWEEP_DESIGN_SEED)

    def spread(lo, hi):
        return rng.permutation(lo + np.arange(n) * (hi - lo + 1) // n)

    columns = (
        spread(1, 64),
        spread(1, 5),
        spread(1, 5),
        spread(1, 64),
        rng.permutation((np.arange(n) + 0.5) / n),
        rng.permutation(np.arange(n) < n // 5),
        spread(4, 16),
        spread(4, 16),
    )
    return tuple(zip(*(c.tolist() for c in columns)))


def _jitter(rng, template: tuple, n: int, radius: int) -> tuple:
    """One geometry row (c_in, s1, s2, c_out, ratio, policy, d1, d2) near a
    template row: channels moved by up to `radius` and the ratio, a fraction
    with denominator up to 64, within the template's stratum; kernel and
    spatial sides stay."""
    c_in, s1, s2, c_out, u, generic, d1, d2 = template
    c_in = int(np.clip(c_in + rng.integers(-radius, radius + 1), 1, 64))
    c_out = int(np.clip(c_out + rng.integers(-radius, radius + 1), 1, 64))
    u = u + (rng.random() - 0.5) / n
    ratio = Fraction(1 + u * (min(6, c_out) - 1)).limit_denominator(64)
    policy = StridePolicy.GENERIC if generic else StridePolicy.CHANNEL_ALIGNED
    return (c_in, s1, s2, c_out, ratio, policy, d1, d2)


def sweep_design(rng, n: int, keys: set) -> list[tuple]:
    """n geometry rows, one near each template row, none of them in `keys`
    (which they join). The seed moves every geometry; the fixed templates
    keep the spread of sizes, and so the timings, alike from pass to pass
    and from seed to seed. A template whose neighbourhood is used up, as
    happens to small channel counts in long runs, widens it."""
    rows = []
    for template in sweep_templates(n):
        attempt = 0
        row = _jitter(rng, template, n, 1)
        while row in keys:
            attempt += 1
            row = _jitter(rng, template, n, 1 + attempt // 20)
        keys.add(row)
        rows.append(row)
    return rows


def sweep_prepare(state: SweepState, run: Run) -> str:
    """Generate the next pass: an arch text for its geometries, parsed back,
    then seeded f64 weights and feature maps. Returns the inputs' digest."""
    rows = sweep_design(state.rng, SWEEP_PASS, state.keys)
    lines = []
    for c_in, s1, s2, c_out, ratio, policy, _, _ in rows:
        lines.append(
            f"layer g{state.count + len(lines)} kind=conv c_in={c_in} s1={s1} s2={s2} "
            f"c_out={c_out} r={ratio} policy={policy.value}"
        )
    text = "\n".join(lines) + "\n"
    with run.rec.span("formats.parse_arch", detail=True):
        arch = parse_arch(text)
    state.inputs = []
    arrays = []
    for position, (spec, row) in enumerate(zip(arch.layers, rows)):
        geom = ConvGeometry(spec.c_in, spec.s1, spec.s2, spec.c_out, spec.ratio, spec.policy)
        try:
            with run.rec.span("geometry.derive_layout", detail=True):
                layout = derive_layout(geom)
        except FilterSummaryError:
            run.rejected += 1
            continue
        weights = _fan_in(state.rng, geom, layout.phys_length, np.float64)
        cube = state.rng.uniform(-1.0, 1.0, (geom.c_in, row[6], row[7]))
        with run.rec.span("tensors.unwrap", detail=True):
            fmap = unwrap(cube)
        state.inputs.append((position, FilterSummary(geom, layout, weights), fmap))
        arrays += [weights, cube]
    return digest(text.encode(), *arrays)


def sweep_setup(seed: int, run: Run):
    state = SweepState(np.random.default_rng([seed, 2]))
    return state, sweep_prepare(state, run)


def sweep_pass(state: SweepState, run: Run) -> None:
    for position, fs, fmap in state.inputs:
        run.rec.group = f"pass{run.pass_index}.geom{position}"
        conv_op(run, fs, fmap, F64_TOL, ("sweep", state.count), cls=position)
        state.count += 1


# --- model-tooling --------------------------------------------------------------------


@dataclass
class ToolingState:
    seed: int
    layers: list  # the ResNet-110 f32 model, as loaded
    data: bytes  # its FSN1 bytes
    model: Path
    small: Path  # the model `fsconv gradcheck` runs on
    small_fs: list  # its layers as f64 FilterSummary


def tooling_setup(seed: int, run: Run):
    rng = np.random.default_rng([seed, 3])
    model = run.work / "resnet110.fsn"
    layers, data = save_and_load(run, build_model(_parse_resnet(run.rec), rng, run.rec), model)
    small = []
    for i, (c_in, s1, s2, c_out, ratio) in enumerate(SMALL_MODEL):
        geom = ConvGeometry(c_in, s1, s2, c_out, ratio)
        with run.rec.span("geometry.derive_layout", detail=True):
            layout = derive_layout(geom)
        alphas = rng.normal(0.0, 1.0, c_out) if i == len(SMALL_MODEL) - 1 else None
        weights = _fan_in(rng, geom, layout.phys_length, np.float32)
        small.append(ModelLayer(f"small{i}", geom, "f32", weights, alphas=alphas))
    small_path = run.work / "small.fsn"
    small, small_data = save_and_load(run, small, small_path)
    small_fs = [FilterSummary(s.geom, s.layout, s.weights.astype(np.float64)) for s in small]
    state = ToolingState(seed, layers, data, model, small_path, small_fs)
    return state, digest(data, small_data)


def _step(run: Run, name: str, fn: Callable[[], tuple[dict, list[str]]]) -> None:
    run.rec.group = f"pass{run.pass_index}.{name}"
    with run.rec.span("op") as op:
        record, problems = fn()
    record.update(kind=name, cls=name, ms=op.ms)
    run.settle(record, problems)


def _roundtrip(state: ToolingState, run: Run):
    rec = run.rec
    with rec.span("formats.roundtrip") as span:
        with rec.span("formats.dump_model", detail=True):
            data = dump_model(state.layers)
        with rec.span("formats.load_model", detail=True):
            loaded = load_model(data)
        with rec.span("formats.dump_model", detail=True):
            again = dump_model(loaded)
    if rec.trace:
        run.fmt_bytes += 3 * len(data)
    return dict(tool_ms=span.ms), [] if again == data == state.data else ["redump"]


def _quantize(state: ToolingState, run: Run, bits: int):
    rec = run.rec
    out = run.work / f"model.q{bits}.fsn"
    with rec.span("cli.quantize") as span:
        code = _cli(["quantize", str(state.model), "--bits", str(bits), "--output", str(out)])
    if code != 0:
        return dict(tool_ms=span.ms), ["exit_code"]
    problems = set()
    with rec.span("formats.load_model", detail=True):
        quantized = read_model(out)
    if rec.trace:
        run.fmt_bytes += out.stat().st_size
    for original, layer in zip(state.layers, quantized, strict=True):
        q = layer.quant
        with rec.span("quant.dequantize", detail=True):
            restored = dequantize(q)
        with rec.span("quant.quantize", detail=True):
            direct = quantize(original.weights, bits)
        slack = 4 * np.finfo(np.float64).eps * max(abs(q.w_min), abs(q.w_max))
        if np.max(np.abs(restored - original.weights.astype(np.float64))) > q.tau / 2 + slack:
            problems.add("quant_bound")
        if not np.array_equal(direct.codes, q.codes):
            problems.add("quant_codes")
    return dict(tool_ms=span.ms), sorted(problems)


def _gradcheck(state: ToolingState, run: Run):
    rec = run.rec
    argv = ["gradcheck", str(state.small), "--points", str(GRADCHECK_POINTS)]
    argv += ["--seed", str(state.seed)]
    with rec.span("cli.gradcheck") as span:
        code = _cli(argv)
    problems = set() if code == 0 else {"exit_code"}
    rng = np.random.default_rng([state.seed, 4])
    for fs in state.small_fs:
        k, length = fs.geom.filter_len, fs.layout.length
        for _ in range(4):
            alpha = float(rng.uniform(-3.0, 3.0))
            upstream = rng.standard_normal(k)
            loc = locate(alpha, length, k)
            with rec.span("dfs.extract_fractional", detail=True):
                extract_fractional(fs, loc)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonDifferentiableWarning)
                with rec.span("dfs.grad_alpha", detail=True):
                    grad_alpha(fs, alpha, upstream)
            with rec.span("dfs.grad_summary", detail=True):
                grad = grad_summary(fs, loc, upstream)
            # the two interpolation weights sum to 1, so the gradient sums to
            # the upstream's sum
            if not abs(grad.sum() - upstream.sum()) <= 1e-12 * np.abs(upstream).sum():
                problems.add("dfs_grad_sum")
    return dict(tool_ms=span.ms), sorted(problems)


def tooling_pass(state: ToolingState, run: Run) -> None:
    _step(run, "roundtrip", lambda: _roundtrip(state, run))
    _step(run, "quantize8", lambda: _quantize(state, run, 8))
    _step(run, "quantize4", lambda: _quantize(state, run, 4))
    _step(run, "gradcheck", lambda: _gradcheck(state, run))


# --- registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, Run) -> (state, digest of the generated inputs)
    run_pass: Callable  # (state, Run) -> None
    prepare: Callable = lambda state, run: None  # next pass's inputs, untimed


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "resnet110-forward": Workload(resnet_setup, resnet_pass),
    "shape-sweep": Workload(sweep_setup, sweep_pass, sweep_prepare),
    "model-tooling": Workload(tooling_setup, tooling_pass),
}
