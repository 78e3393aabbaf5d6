"""Turn a run's passes, operation records and spans into named metrics.

Timings are in reference seconds (speed.py): each operation's wall time
scaled by the machine speed sampled just before and after it. They are
class medians. Operations that do the same work form a class: the layers of
one shape (resnet110-forward), one template position of the sweep design
(shape-sweep), one tooling step (model-tooling). A class's time is the
median of its operations over the run, and a pass's time is the sum over
its operations of their class times.

End-to-end metrics (the ones BENCHMARK.json lists, on every workload):

  setup_s      median over fresh processes of import, arch parse, model
               build, FSN1 write and load, and input generation, each at
               the speed sampled before and after it
  pass_s       time of one pass: one image through ResNet-110, one block
               of SWEEP_PASS geometries, or one round of tooling
  op_p90_ms    90th percentile over the operations of one pass, each at
               its class time: a conv layer or geometry with both engines
               and the check, or one tooling step
  peak_rss_mb  peak resident memory of the workload's own process, over
               setup and the first pass

The named figures of each workload (fcfs_pass_s, sweep_geoms_per_s, ...) are
printed beside them, with the wall-clock pass_s and op_p90_ms. Per-layer
metrics come from traced passes only.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from workloads import Run

UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def p90(xs) -> float:
    xs = list(xs)
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[-1]


def class_pass(ops: list[dict], field: str = "ms", wall: bool = False) -> list[float]:
    """The operations of the first pass among `ops`, each at the median
    `field` of its class over all of `ops`, in reference time unless `wall`."""
    by_class = defaultdict(list)
    for o in ops:
        by_class[o["cls"]].append(o[field] if wall else o[field] * o["scale"])
    first = min((o["pass"] for o in ops), default=0)
    return [median(by_class[o["cls"]]) for o in ops if o["pass"] == first]


def end_to_end(run: Run, setup_s: list[float], rss_mb: float, traced: bool) -> dict:
    """End-to-end metrics over the operations that were (or were not) traced.
    Probe calls lie outside operations, so traced figures exclude them."""
    times = class_pass([o for o in run.ops if o["traced"] == traced])
    return {
        "setup_s": median(setup_s),
        "pass_s": sum(times) / 1e3,
        "op_p90_ms": p90(times),
        "peak_rss_mb": rss_mb,
    }


def named(workload: str, run: Run) -> list[tuple[str, str, float, int]]:
    """The workload's own figures from untraced operations, as
    (name, unit, value, samples); times are class medians."""
    ops = [o for o in run.ops if not o["traced"]]
    out = []

    def figure(name, kinds, field):
        chosen = [o for o in ops if o["kind"] in kinds]
        out.append((name, "s", sum(class_pass(chosen, field)) / 1e3, len(chosen)))

    if workload in ("resnet110-forward", "shape-sweep"):
        figure("fcfs_pass_s", {"conv"}, "fcfs_ms")
        figure("oracle_pass_s", {"conv"}, "naive_ms")
        out.append(("mult_ratio", "ratio", mult_ratio(run.ops), 1))
    if workload == "shape-sweep":
        times = class_pass(ops)
        out += [
            ("sweep_geoms_per_s", "1/s", 1e3 * len(times) / sum(times), len(ops)),
            ("sweep_geom_p50_ms", "ms", median(times), len(ops)),
            ("sweep_geom_p90_ms", "ms", p90(times), len(ops)),
        ]
    if workload == "model-tooling":
        figure("model_roundtrip_s", {"roundtrip"}, "tool_ms")
        figure("quantize_model_s", {"quantize8", "quantize4"}, "tool_ms")
        figure("gradcheck_s", {"gradcheck"}, "tool_ms")
    wall = class_pass(ops, wall=True)
    out.append(("wall_pass_s", "s", sum(wall) / 1e3, len(ops)))
    out.append(("wall_op_p90_ms", "ms", p90(wall), len(ops)))
    out.append(("reference_per_wall", "ratio", median(o["scale"] for o in ops), len(ops)))
    out.append(("failed_share", "fraction", run.failed / run.attempted, run.attempted))
    return out


def mult_ratio(ops: list[dict]) -> float:
    """Exact count over the first pass: oracle multiplies over fcfs
    multiplies plus lookups (fallbacks count what actually ran)."""
    first = [o for o in ops if o["kind"] == "conv" and o["pass"] == 0]
    denom = sum(o["multiplies"] + o["lookups"] for o in first)
    return sum(o["oracle_multiplies"] for o in first) / denom if denom else 0.0


def shapes(run: Run, traced_only: bool) -> list[dict]:
    """Per distinct (geometry, d1, d2): calls, first-stage products against
    the closed form, and fcfs/oracle call times in reference time."""
    by_shape = defaultdict(list)
    for o in run.ops:
        if o["kind"] == "conv" and (o["traced"] or not traced_only):
            by_shape[o["shape"]].append(_at_reference(o))
    out = []
    for (geom, d1, d2), ops in by_shape.items():
        o = ops[0]
        fcfs_ms = [x["fcfs_ms"] for x in ops]
        out.append(
            dict(
                c_in=geom.c_in,
                s1=geom.s1,
                s2=geom.s2,
                c_out=geom.c_out,
                r=str(geom.ratio),
                policy=geom.stride_policy.value,
                d1=d1,
                d2=d2,
                calls=len(ops),
                fallback=o["fallback"] or "none",
                stage1_products=o["multiplies"],
                stage1_closed_form=o["stage1_closed"],
                stage1_excess=o["multiplies"] / o["stage1_closed"] if not o["fallback"] else 0.0,
                fcfs_ms_p50=median(fcfs_ms),
                fcfs_ms_p90=p90(fcfs_ms),
                oracle_ms_p50=median(x["naive_ms"] for x in ops),
            )
        )
    return out


def _at_reference(op: dict) -> dict:
    """A copy of a conv record with its times in reference time."""
    times = ("fcfs_ms", "naive_ms", "plan_ms", "integrals_ms", "pad_ms")
    return {**op, **{k: op[k] * op["scale"] for k in times if k in op}}


def per_layer(passes: list[dict], run: Run, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes. Counts are per pass, taken
    on the first pass, which is traced; times are per call or per pass as
    the name says, in reference time for convolutions and their stages and
    in wall time for the other calls. A layer the workload never calls
    reads 0."""
    rec = run.rec
    n = sum(p["traced"] for p in passes)
    conv = [_at_reference(o) for o in run.ops if o["kind"] == "conv" and o["traced"]]
    first = [o for o in conv if o["pass"] == 0]
    fast = [o for o in conv if not o["fallback"]]

    def calls(name: str, scale: float = 1.0) -> float:
        return median(s.ms for s in rec.named(name)) * scale

    def pass_total(values) -> float:
        return sum(values) / n if n else 0.0

    def total(field: str, ops=first) -> int:
        return sum(o.get(field, 0) for o in ops)

    plan = pass_total(o["plan_ms"] for o in fast)
    integrals = pass_total(o["integrals_ms"] for o in fast)
    closed = sum(o["stage1_closed"] for o in first if not o["fallback"])
    naive_ms = sum(o["naive_ms"] for o in conv)
    fmt_ms = sum(s.ms for s in rec.named("formats.dump_model") + rec.named("formats.load_model"))
    fcfs_ms = sum(o["fcfs_ms"] for o in conv)
    return {
        "fcfs.conv_ms.p50": (median(o["fcfs_ms"] for o in fast), "ms"),
        "fcfs.conv_ms.p90": (p90(o["fcfs_ms"] for o in fast), "ms"),
        "fcfs.plan_ms": (plan, "ms"),
        "fcfs.integrals_ms": (integrals, "ms"),
        "fcfs.lookup_ms": (pass_total(o["fcfs_ms"] for o in fast) - plan - integrals, "ms"),
        "fcfs.multiplies": (total("multiplies"), "count"),
        "fcfs.additions": (total("additions"), "count"),
        "fcfs.lookups": (total("lookups"), "count"),
        "fcfs.stage1_excess": (
            total("multiplies", [o for o in first if not o["fallback"]]) / closed if closed else 0.0,
            "ratio",
        ),
        "fcfs.diagonals": (total("diagonals"), "count"),
        "fcfs.runs": (total("runs"), "count"),
        "fcfs.pair_table_bytes": (max((8 * o["pair_entries"] for o in conv), default=0), "bytes"),
        "fcfs.shape_reuse_share": (
            sum(o["reused"] for o in first) / len(first) if first else 0.0,
            "fraction",
        ),
        "fcfs.fallbacks.s2_is_1": (sum(o["fallback"] == "s2_is_1" for o in first), "count"),
        "fcfs.fallbacks.unaligned_stride": (
            sum(o["fallback"] == "unaligned_stride" for o in first),
            "count",
        ),
        "fcfs.over_oracle": (fcfs_ms / naive_ms if naive_ms else 0.0, "ratio"),
        "mult_ratio": (mult_ratio(run.ops), "ratio"),
        "oracle.conv_ms.p50": (median(o["naive_ms"] for o in conv), "ms"),
        "oracle.conv_ms.p90": (p90(o["naive_ms"] for o in conv), "ms"),
        "oracle.gmac_per_s": (
            sum(o["oracle_multiplies"] for o in conv) / naive_ms / 1e6 if naive_ms else 0.0,
            "GMAC/s",
        ),
        "oracle.pad_ms": (pass_total(o["pad_ms"] for o in conv), "ms"),
        "oracle.multiplies": (total("oracle_multiplies"), "count"),
        "tensors.unwrap_ms": (calls("tensors.unwrap"), "ms"),
        "geometry.layout_us": (calls("geometry.derive_layout", 1e3), "us"),
        "formats.parse_arch_ms": (calls("formats.parse_arch"), "ms"),
        "formats.dump_ms": (calls("formats.dump_model"), "ms"),
        "formats.load_ms": (calls("formats.load_model"), "ms"),
        "formats.mb_per_s": (run.fmt_bytes / fmt_ms / 1e3 if fmt_ms else 0.0, "MB/s"),
        "quant.quantize_ms": (pass_total(s.ms for s in rec.named("quant.quantize")), "ms"),
        "quant.dequantize_ms": (pass_total(s.ms for s in rec.named("quant.dequantize")), "ms"),
        "dfs.extract_fractional_us": (calls("dfs.extract_fractional", 1e3), "us"),
        "dfs.grad_alpha_us": (calls("dfs.grad_alpha", 1e3), "us"),
        "dfs.grad_summary_us": (calls("dfs.grad_summary", 1e3), "us"),
        "run.failed_share": (run.failed / run.attempted, "fraction"),
        "run.rejected": (run.rejected, "count"),
        "trace.overhead_share": (overhead, "fraction"),
    }
