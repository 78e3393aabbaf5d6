"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of this repository: it imports fsconv from
the checkout's src/ and builds every input from --seed. It prints a report,
then, as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # scratch files and trace output, inside the checkout
SETUP_PROBES = 6  # fresh processes that only set up; with the run's own, 7 samples
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("resnet110-forward", "shape-sweep", "model-tooling")
OPENBLAS_THREADS = (
    "scipy_openblas_get_num_threads64_",  # the OpenBLAS numpy wheels bundle
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name: str, seed: int, trace: bool, work: Path):
    """Import fsconv and build the workload's inputs. Timed by the caller
    from before the import."""
    import fsconv
    import workloads
    from tracing import Recorder

    if not Path(fsconv.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported fsconv from {fsconv.__file__}, not from {SRC}")
    run = workloads.Run(Recorder(trace), work)
    state, inputs = workloads.WORKLOADS[name].setup(seed, run)
    return run, state, inputs


def setup_samples(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes, each importing and building from
    scratch, as (reference seconds, wall seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.splitlines()[-1])
        out.append((sample["setup_s"], sample["wall_s"]))
    return out


def measure(wl, state, run, seconds: float, trace: bool) -> list[dict]:
    """Run passes until `seconds` have passed. With tracing, passes alternate
    traced and untraced, starting traced, and at least one of each runs."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline or (trace and len(passes) < 2):
        index = len(passes)
        run.pass_index = index
        run.rec.trace = trace and index % 2 == 0
        if index:
            wl.prepare(state, run)
        run.speed.restart()
        run.rec.group = f"pass{index}"
        with run.rec.span("pass") as span:
            wl.run_pass(state, run)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(dict(index=index, traced=run.rec.trace, ms=span.ms, rss_mb=rss_mb))
    return passes


def blas_info() -> tuple[str, str]:
    """BLAS library numpy was built with, and OpenBLAS's own thread count
    when its library can be found next to numpy."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    threads = "unknown"
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = str(fn())
                break
    return name, threads


def emit(record: str, **fields) -> None:
    tokens = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in fields.items()]
    print(" ".join([record] + tokens))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fsconv" / "__init__.py").is_file():
        print(f"error: no fsconv sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # one process, one BLAS thread: the steadiest timing
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            _, ref, wall = timed(lambda: setup(args.workload, args.seed, False, Path(tmp)))
            print(json.dumps({"setup_s": ref, "wall_s": wall}))
        return 0

    load = os.getloadavg()
    probes = setup_samples(args)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        built, ref, wall = timed(
            lambda: setup(args.workload, args.seed, bool(args.trace), Path(tmp))
        )
        run, state, inputs = built
        setup_s = [p[0] for p in probes] + [ref]
        setup_wall = [p[1] for p in probes] + [wall]

        import metrics
        import numpy as np
        from workloads import WORKLOADS

        passes = measure(WORKLOADS[args.workload], state, run, args.seconds, bool(args.trace))
    rss_mb = passes[0]["rss_mb"]

    blas, threads = blas_info()
    emit(
        "meta",
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        numpy=np.__version__,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        blas=blas,
        blas_threads=threads,
        loadavg=",".join(f"{x:.2f}" for x in load),
        command=json.dumps(sys.argv),
    )
    emit("setup", samples=",".join(f"{x:.4f}" for x in setup_s))
    emit("setup_wall", samples=",".join(f"{x:.4f}" for x in setup_wall))
    emit("inputs", sha256=inputs, passes=len(passes), rejected=run.rejected)
    emit("checks", attempted=run.attempted, failed=run.failed)
    for problem, count in sorted(run.problems.items()):
        emit("failure", check=problem, count=count)

    plain = metrics.end_to_end(run, setup_s, rss_mb, traced=False)
    n_ops = sum(not o["traced"] for o in run.ops)
    for name, value in plain.items():
        stat, n = {"setup_s": ("median", len(setup_s)), "peak_rss_mb": ("peak", 1)}.get(
            name, ("class-median", n_ops)
        )
        emit("metric", name=name, unit=metrics.UNITS[name], value=value, stat=stat, n=n)
    for name, unit, value, n in metrics.named(args.workload, run):
        emit("figure", name=name, unit=unit, value=value, n=n)
    if args.workload == "resnet110-forward":
        for s in metrics.shapes(run, traced_only=False):
            emit("shape", **s)

    if args.trace:
        traced = metrics.end_to_end(run, setup_s, rss_mb, traced=True)
        for name in plain:
            diff = traced[name] - plain[name]
            emit("traced", name=name, untraced=plain[name], traced=traced[name], overhead=diff)
        overhead = traced["pass_s"] / plain["pass_s"] - 1 if plain["pass_s"] else 0.0
        layers = metrics.per_layer(passes, run, overhead)
        for name, ms in sorted(run.rec.self_ms().items(), key=lambda kv: -kv[1]):
            emit("self", name=name, ms=ms)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                dict(
                    passes=passes,
                    spans=run.rec.dump(),
                    self_ms=run.rec.self_ms(),
                    shapes=metrics.shapes(run, traced_only=True),
                    per_layer=layers,
                )
            )
        )
        emit("trace", file=trace_file.relative_to(ROOT), spans=len(run.rec.spans))
        result = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        result = {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in plain.items()}
    result = dict(correct=run.failed == 0, attempted=run.attempted, failed=run.failed, metrics=result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
