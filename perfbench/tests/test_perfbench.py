"""The benchmark's own checks: seeded generators, the ResNet-110 schedule,
and failure counting when an engine misbehaves.

    python3 -m pytest perfbench/tests
"""

from collections import Counter

import numpy as np
import pytest

import workloads
from fsconv import ConvOutput, fcfs_conv, naive_conv
from tracing import Recorder
from workloads import Engines, Run


def _setup(name, seed, tmp_path, engines=None):
    run = Run(Recorder(trace=False), tmp_path, engines or Engines())
    state, inputs = workloads.WORKLOADS[name].setup(seed, run)
    return run, state, inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    first = _setup(name, 5, tmp_path)[2]
    assert _setup(name, 5, tmp_path)[2] == first
    assert _setup(name, 6, tmp_path)[2] != first


def test_sweep_design_covers_each_range_evenly():
    rows = workloads.sweep_design(np.random.default_rng(0), 100, set())
    assert rows != workloads.sweep_design(np.random.default_rng(1), 100, set())
    s2 = Counter(row[2] for row in rows)
    assert s2 == {1: 20, 2: 20, 3: 20, 4: 20, 5: 20}
    assert sum(row[5].value == "generic" for row in rows) == 20
    assert all(1 <= row[4] <= min(6, row[3]) for row in rows)


def test_resnet_schedule_covers_109_layers_at_32_16_8(tmp_path):
    _, state, _ = _setup("resnet110-forward", 0, tmp_path)
    schedule = state.schedule
    assert len(schedule) == len(state.summaries) == 109
    out_sizes = Counter(size // 2 if down else size for _, size, down in schedule)
    assert out_sizes == {32: 37, 16: 36, 8: 36}
    assert [name for name, _, down in schedule if down] == [
        "stage2.block01.conv1",
        "stage3.block01.conv1",
    ]
    keys = {(fs.geom, size) for fs, (_, size, _) in zip(state.summaries, schedule)}
    assert len(keys) == 6


def _shifted_fcfs(fs, fmap):
    out, counter = fcfs_conv(fs, fmap)
    data = out.data + 1e-3 * np.max(np.abs(out.data))
    return ConvOutput(out.c_out, out.d1, out.d2, data), counter


def _overcounting_naive(fs, fmap, counter=None):
    out = naive_conv(fs, fmap, counter)
    if counter is not None:
        counter.multiplies += 1
    return out


@pytest.mark.parametrize(
    "engines, problem",
    [
        (Engines(fcfs=_shifted_fcfs), "deviation"),
        (Engines(naive=_overcounting_naive), "oracle_count"),
    ],
)
def test_perturbed_engine_is_counted_as_failure(engines, problem, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_PASS", 10)
    honest, state, _ = _setup("shape-sweep", 1, tmp_path)
    workloads.sweep_pass(state, honest)
    assert (honest.attempted, honest.failed) == (10, 0)

    run, state, _ = _setup("shape-sweep", 1, tmp_path, engines)
    workloads.sweep_pass(state, run)
    assert run.attempted == 10
    assert run.failed > 0
    assert set(run.problems) == {problem}


def test_changed_counts_on_a_repeated_input_are_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_PASS", 4)
    run, state, _ = _setup("shape-sweep", 2, tmp_path)
    workloads.sweep_pass(state, run)
    state.count = 0  # run the same inputs again under the same keys
    calls = iter(range(1, 100))

    def drifting_fcfs(fs, fmap):
        out, counter = fcfs_conv(fs, fmap)
        counter.lookups += next(calls)
        return out, counter

    run.engines = Engines(fcfs=drifting_fcfs)
    workloads.sweep_pass(state, run)
    assert run.problems["fcfs_count_repeat"] > 0


def test_self_time_excludes_children():
    rec = Recorder(trace=True)
    with rec.span("outer"):
        with rec.span("inner"):
            sum(range(10000))
    outer, inner = rec.spans
    self_ms = rec.self_ms()
    assert inner.parent == outer.id
    assert self_ms["outer"] == pytest.approx(outer.ms - inner.ms)
    assert self_ms["inner"] == pytest.approx(inner.ms)


def test_benchmark_json_names_what_the_benchmark_reports():
    import json
    from pathlib import Path

    import metrics
    import run as entry

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(entry.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.UNITS
    empty = Run(Recorder(trace=True), None)
    empty.attempted = 1
    layers = metrics.per_layer([], empty, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_sweep_design_stays_distinct_in_long_runs():
    rng, keys = np.random.default_rng(0), set()
    for _ in range(60):
        workloads.sweep_design(rng, 100, keys)
    assert len(keys) == 6000


def test_times_are_scaled_by_the_bracketing_loops(monkeypatch):
    import metrics
    import speed

    loops = iter([2e-3, 4e-3, 4e-3])  # the second operation ran at half speed
    monkeypatch.setattr(speed, "loop_s", lambda: next(loops))
    clock = speed.Speed()
    assert clock.bracket() == pytest.approx(2 * speed.REFERENCE_S / 6e-3)
    assert clock.bracket() == pytest.approx(speed.REFERENCE_S / 4e-3)
    ops = [
        {"cls": "a", "ms": 10.0, "scale": 1.0, "pass": 0},
        {"cls": "a", "ms": 20.0, "scale": 0.5, "pass": 1},
    ]
    assert metrics.class_pass(ops) == [10.0]
    assert metrics.class_pass(ops, wall=True) == [15.0]
