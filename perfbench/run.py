"""Seeded end-to-end benchmark of the SBDMS engine, with a traced
per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 3 \
        --trace 0

``--workload`` is one of ``read_hot``, ``analytic``, ``write_oltp`` (see
``workloads.py``).  ``--seconds`` sets the size of a pass: it runs a fixed
count of ``seconds * ops_per_run_second`` operations, so every count
metric repeats exactly for a seed.  ``--trace 0`` measures the end-to-end
metrics with the engine untouched; ``--trace 1`` runs the same operations
once untraced and once with spans around each layer's entry points, and
reports the per-layer metrics and the tracing overhead.  Spans are
written to ``.bench_out/``.

Timings are reported at reference speed (see ``speed.py``): raw time
scaled by a reference loop timed alongside, because other tenants of a
shared VM move raw times by up to 2x.  The report prints the raw figures
too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit and sample count.  The process exits
with 2, printing no result, when the engine sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# (name, unit) in output order; BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("recovery_s", "s"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("rss_peak_mb", "MB"),
)


@dataclass
class Phase:
    """One pass over an operation list.  Latencies are at reference
    speed; ``raw_ns`` keeps each operation's raw time."""

    ops: int = 0
    failed: int = 0
    rows_returned: int = 0
    latencies_ns: dict = field(default_factory=dict)   # kind -> [ns]
    raw_ns: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Median scale (reference time / loop time) over the pass.
    scale: float = 1.0

    def all_latencies(self) -> list:
        return sorted(ns for values in self.latencies_ns.values()
                      for ns in values)

    def ops_per_s(self) -> float:
        waited = sum(sum(values) for values in self.latencies_ns.values())
        return self.ops / (waited / 1e9)

    def raw_ops_per_s(self) -> float:
        return self.ops / (sum(self.raw_ns) / 1e9)


def engine_counts(env) -> dict:
    """The engine's own counters that repeat exactly for a seed."""
    stats = env.db.stats()
    pool = env.db.pool.stats
    plan_cache = stats["plan_cache"]
    devices = (env.data.stats, env.wal.stats)
    return {
        "disk.reads": sum(d.reads for d in devices),
        "disk.writes": sum(d.writes for d in devices),
        "disk.bytes_written": sum(d.bytes_written for d in devices),
        "disk.flushes": sum(d.flushes for d in devices),
        "buffer.hits": pool.hits,
        "buffer.misses": pool.misses,
        "buffer.evictions": pool.evictions,
        "buffer.writebacks": pool.dirty_writebacks,
        "plan_cache.hits": plan_cache["hits"],
        "plan_cache.lookups": plan_cache["hits"] + plan_cache["misses"]
        + plan_cache["bypasses"],
        "columnar.blocks_scanned": stats["columnar"]["blocks_scanned"],
        "columnar.blocks_skipped": stats["columnar"]["blocks_skipped"],
        "vacuum.runs": stats["vacuum"]["runs"],
        "vacuum.versions_reclaimed": stats["vacuum"]["versions_reclaimed"],
        "vacuum.rows_migrated": stats["vacuum"]["versions_migrated"],
        "locks.waits": stats["locks"]["waits"],
    }


@dataclass
class Run:
    """Everything one workload run produced."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)     # self-check -> ok
    lines: list = field(default_factory=list)      # human-readable report

    def add(self, phase: Phase) -> None:
        self.attempted += phase.ops
        self.failed += phase.failed


def run_ops(workload, env, ops, start_index: int, speed,
            tracer=None) -> Phase:
    """Run ``ops`` in a closed loop, timing and checking each one."""
    phase = Phase(ops=len(ops))
    before = engine_counts(env)
    gc.collect()
    spans = []                      # (kind, started, ended) per op
    for offset, op in enumerate(ops):
        index = start_index + offset
        started = time.perf_counter_ns()
        try:
            if tracer is None:
                outcome = workload.run_op(env, index, op)
            else:
                with tracer.op(workload.name):
                    outcome = workload.run_op(env, index, op)
            kind = outcome.kind
        except Exception as exc:  # noqa: BLE001 - an engine error fails the op
            outcome, kind = None, "error"
            print(f"op {index} failed: {exc!r}", file=sys.stderr)
        spans.append((kind, started, time.perf_counter_ns()))
        if outcome is None or not outcome.ok:
            phase.failed += 1
            if outcome is not None:
                print(f"op {index} ({kind}) returned a wrong result",
                      file=sys.stderr)
        else:
            phase.rows_returned += outcome.rows
    speed.sample()
    for kind, started, ended in spans:
        raw, scaled = speed.scaled(started, ended)
        phase.raw_ns.append(raw)
        phase.latencies_ns.setdefault(kind, []).append(scaled)
    if spans:
        phase.scale = speed.median_scale(spans[0][1], spans[-1][2])
    after = engine_counts(env)
    phase.counts = {key: after[key] - before[key] for key in after}
    return phase


def traced_calls(tracer):
    """A context in which the layer entry points record spans into
    ``tracer`` (nothing is wrapped when it is None)."""
    if tracer is None:
        return nullcontext()
    from tracer import instrument
    return instrument(tracer)


def timed_pass(workload, ops: list, run: Run, speed, tracer=None):
    """Set up from empty devices, run the warm-up operations untimed,
    then the timed ones (traced when ``tracer`` is given); returns the
    ready database and the timed phase."""
    gc.collect()
    env = workload.setup(speed)
    run.add(run_ops(workload, env, ops[:workload.warmup_ops], 0, speed))
    with traced_calls(tracer):
        phase = run_ops(workload, env, ops[workload.warmup_ops:],
                        workload.warmup_ops, speed, tracer)
    run.add(phase)
    return env, phase


def pooled(phases: list) -> Phase:
    """The timed phases of several passes as one sample."""
    total = Phase(counts=phases[0].counts)
    for phase in phases:
        total.ops += phase.ops
        total.failed += phase.failed
        total.rows_returned += phase.rows_returned
        total.raw_ns.extend(phase.raw_ns)
        for kind, values in phase.latencies_ns.items():
            total.latencies_ns.setdefault(kind, []).extend(values)
    return total


def same_counts(phases: list, run: Run) -> None:
    """Self-check: passes over the same seed must count the same."""
    first = phases[0].counts
    ok = all(phase.counts == first for phase in phases)
    run.checks["same seed gives identical counts"] = ok
    if not ok:
        print("counts differ between passes: "
              f"{[phase.counts for phase in phases]}", file=sys.stderr)


def crash_check(workload, env, run: Run, speed) -> list:
    """Crash both devices, reopen with recovery, then check the ledger:
    every acknowledged write must be readable.  Returns ``(raw, scaled)``
    nanoseconds of each reopen."""
    from workloads import failed_after_crash

    reopens = workload.crash_and_reopen(env, speed)
    lost = workload.verify_after_crash(env)
    failed, attempted = failed_after_crash(env, lost)
    run.failed += failed
    run.attempted += attempted
    if lost:
        print(f"{len(lost)} rows differ after recovery (first ids "
              f"{lost[:5]})", file=sys.stderr)
    return reopens


def latency_lines(phase: Phase) -> list[str]:
    """p50 and tail per operation kind, with sample counts."""
    from workloads import percentile, tail_percentile

    lines = []
    groups = dict(phase.latencies_ns)
    if len(groups) > 1:
        groups["op"] = phase.all_latencies()
    for kind, values in sorted(groups.items()):
        values = sorted(values)
        tail = tail_percentile(len(values))
        lines.append(
            f"  {kind:<8} p50 {percentile(values, 50) / 1e3:>11.1f} us   "
            f"p{tail:g} {percentile(values, tail) / 1e3:>11.1f} us   "
            f"n={len(values)}")
    return lines


def measure(workload, seconds: int, run: Run, speed) -> dict:
    """Untraced run: the end-to-end metrics.

    The run makes :data:`SETUP_REPEATS` passes.  Each sets up from empty
    devices and times the same operations; set-up time is the median over
    the passes.  Throughput and latencies pool the passes.  The last pass
    then crashes, reopens and checks every acknowledged write; recovery
    time is the median of its reopens."""
    from workloads import percentile, row_bytes, tail_percentile

    count = workload.op_count(seconds)
    ops = workload.operations(count)
    workload.prepare_expectations(ops)
    setups, phases = [], []
    env = None
    for _ in range(SETUP_REPEATS):
        env = None          # drop the previous database before the next
        env, phase = timed_pass(workload, ops, run, speed)
        setups.append((env.setup_raw_ns, env.setup_ns))
        phases.append(phase)
    facts = workload.describe(env)
    data_bytes = env.data.num_blocks() * env.data.block_size
    live_bytes = sum(row_bytes(row) for row in env.model.values())
    written = env.data.stats.bytes_written + env.wal.stats.bytes_written
    logical = env.logical_written
    batching = env.db.transactions.stats()["group_commit"]["batching"]
    reopens = crash_check(workload, env, run, speed)
    same_counts(phases, run)

    phase = pooled(phases)
    latencies = phase.all_latencies()
    tail = min(workload.tail_q, tail_percentile(len(latencies)))
    metrics = {
        "setup_s": statistics.median(s for _, s in setups) / 1e9,
        "ops_per_s": phase.ops_per_s(),
        "op_p50_us": percentile(latencies, 50) / 1e3,
        "op_tail_us": percentile(latencies, tail) / 1e3,
        "recovery_s": statistics.median(s for _, s in reopens) / 1e9,
        "write_amp": written / logical,
        "space_amp": data_bytes / live_bytes,
        "rss_peak_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_latencies = sorted(phase.raw_ns)
    raw = {
        "setup_s": statistics.median(r for r, _ in setups) / 1e9,
        "ops_per_s": phase.raw_ops_per_s(),
        "op_p50_us": percentile(raw_latencies, 50) / 1e3,
        "op_tail_us": percentile(raw_latencies, tail) / 1e3,
        "recovery_s": statistics.median(r for r, _ in reopens) / 1e9,
    }
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{phase.ops} ops over {len(phases)} passes",
        "op_p50_us": f"n={len(latencies)}",
        "op_tail_us": f"p{tail:g}, n={len(latencies)}",
        "recovery_s": f"median of {len(reopens)} reopens",
        "write_amp": f"{written} device B / {logical} row B",
        "space_amp": f"{data_bytes} device B / {live_bytes} live row B",
        "rss_peak_mb": "peak of the process",
    }
    lines = run.lines
    lines.append(f"workload {workload.name}: seed {workload.seed}, "
                 f"{count} timed ops after {workload.warmup_ops} warm-up "
                 f"in each of {len(phases)} passes, one client, closed "
                 "loop")
    for name, sizes in facts["tables"].items():
        lines.append(f"  table {name}: {sizes['rows']} rows, "
                     f"{sizes['heap_pages']} heap pages, pool "
                     f"{facts['pool_frames']} frames")
    lines.append(f"  flush policy: {facts['flush_policy']}; group-commit "
                 f"batching {batching:.2f}")
    lines.append(f"  machine speed: median {speed.median_scale():.3f} of "
                 f"reference over {len(speed.marks)} samples")
    lines.append("end-to-end (at reference speed; raw in brackets):")
    for name, unit in END_TO_END:
        shown = f"[{raw[name]:.4f}]" if name in raw else ""
        lines.append(f"  {name:<12} {metrics[name]:>14.4f} {unit:<6} "
                     f"{shown:<16} ({samples[name]})")
    failed_frac = run.failed / run.attempted
    lines.append(f"  failed_frac  {failed_frac:>14.4f} ratio  "
                 f"({run.failed} failed / {run.attempted} attempted)")
    lines.append("latency by operation kind, all passes:")
    lines.extend(latency_lines(phase))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}


def traced(workload, seconds: int, run: Run, speed) -> dict:
    """Traced run: the operations once untraced, then once traced from a
    fresh set-up; the per-layer metrics come from the traced pass."""
    import layers
    from tracer import Tracer

    count = workload.op_count(seconds)
    ops = workload.operations(count)
    workload.prepare_expectations(ops)
    env, plain = timed_pass(workload, ops, run, speed)
    env = None
    tracer = Tracer()
    env, phase = timed_pass(workload, ops, run, speed, tracer)
    with traced_calls(tracer):
        crash_check(workload, env, run, speed)
    same_counts([plain, phase], run)
    out = ROOT / ".bench_out" / \
        f"spans-{workload.name}-seed{workload.seed}.tsv.gz"
    tracer.dump(out)

    metrics = layers.per_layer(tracer, phase, plain)
    run.lines.append(f"workload {workload.name}: seed {workload.seed}, "
                     f"{count} timed ops, traced; {len(tracer.spans)} "
                     f"spans written to {out.relative_to(ROOT)}")
    run.lines.append(f"per layer (traced; times at reference speed, "
                     f"scale {phase.scale:.3f}):")
    for name, (value, unit, numerator, denominator) in metrics.items():
        run.lines.append(f"  {name:<38} {value:>14.4f} {unit:<10} "
                         f"({numerator:g} / {denominator:g})")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit, _, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "data" / "database.py").is_file():
        print(f"perfbench: no engine sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from speed import Speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]
    workload = factory(args.seed)
    run = Run()
    digest = workload.input_digest(args.seconds)
    run.checks["same seed gives identical inputs"] = \
        digest == factory(args.seed).input_digest(args.seconds)
    run.checks["another seed gives other inputs"] = \
        digest != factory(args.seed + 1).input_digest(args.seconds)

    with Speed() as speed:
        if args.trace:
            metrics = traced(workload, args.seconds, run, speed)
        else:
            metrics = measure(workload, args.seconds, run, speed)
    for line in run.lines:
        print(line)
    for check, ok in run.checks.items():
        print(f"self-check: {check}: {'ok' if ok else 'FAILED'}")
    correct = run.failed == 0 and all(run.checks.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
