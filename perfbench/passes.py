"""One pass of a perfbench workload, in a fresh interpreter.

``perfbench/run.py`` starts this script once per pass and once per
setup probe; it is not a user entry point::

    python3 perfbench/passes.py --workload NAME --seed N --scratch DIR
        --out FILE [--traced] [--setup-only] [--size full|tiny] [--corrupt]

It writes one JSON object to ``--out``: the monotonic time at which the
first spec was handed to the executor, the wall interval from there to
the last result and its analysis, the same interval scaled to the
nominal host speed of ``reference.py``, the simulated access count, the
``htm`` totals, a sha256 over the per-run summaries, the output-check
results and, for a traced pass, every per-layer metric.  A setup-only
probe stops at the first handoff and writes only the setup figures.

The wall interval is cut into steps of at least ``STEP_S`` that end
where the executor hands back a result, a trace has been analysed, or
the analysis is done.  The reference workload runs at the handoff and
after every step, outside the steps, and each step is scaled by the
nominal reference time over the mean of the two reference times around
it.  A step is short enough that host speed barely moves within it.
Set-up is scaled by reference runs made first thing in the pass, before
any worker process exists; ``setup_ref_cost_s`` is their wall time, for
the caller to take out of the set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pickle
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from reference import NOMINAL_S, reference_s
from tracing import Tracer, install_sim_layers, install_store_layer

ROOT = Path(__file__).resolve().parent.parent

#: Workload sizes.  ``full`` is what BENCHMARK.json describes; ``tiny``
#: keeps every workload's shape for the benchmark's own tests.
SIZES = {
    "full": {
        "suite_txns": 300,
        "sweep_txns": 60,
        "sweep_benches": ("vacation", "kmeans", "ssca2", "genome",
                          "intruder", "utilitymine"),
        "trace_txns": 150,
        "trace_benches": ("kmeans", "vacation", "ssca2", "intruder"),
    },
    "tiny": {
        "suite_txns": 8,
        "sweep_txns": 8,
        "sweep_benches": ("kmeans", "vacation"),
        "trace_txns": 8,
        "trace_benches": ("kmeans", "intruder"),
    },
}

#: Worker processes (or connections) of the executor-backed workloads.
SWEEP_WORKERS = 2

#: Shortest step of the wall interval; the reference workload runs once
#: per step, so this keeps its share of the pass near 2%.
STEP_S = 0.25

#: Per-layer metrics of layers that only some workloads exercise; a
#: workload that never calls into the layer reports 0.
IDLE_LAYERS = dict.fromkeys((
    "telemetry.trace_bytes",
    "analysis.figures_s", "analysis.trace_s", "analysis.trace_events",
    "analysis.fig1_avg_false_pct", "analysis.fig8_n4_avg_pct",
    "analysis.fig9_avg_pct",
    "store.records", "store.record_s", "store.bytes", "store.resume_s",
    "store.served",
    "remote.workers_joined", "remote.batches_requeued",
    "remote.duplicates_dropped", "remote.drained_to_local",
), 0)


class SetupDone(Exception):
    """Raised at the first executor handoff of a setup-only probe."""


class Bench:
    """State of one pass: timing marks, checks and per-layer figures."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.size = SIZES[args.size]
        self.scratch = args.scratch
        self.setup_only = args.setup_only
        self.tracer = Tracer() if args.traced else None
        self.handoff: float | None = None
        self.steps: list[float] = []
        self.refs: list[float] = []
        self._mark = 0.0
        self.wall_done = False
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.layers: dict[str, float] = {}
        self.readout: dict[str, float] = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def mark_handoff(self) -> None:
        if self.handoff is None:
            self.handoff = time.monotonic()
            if self.setup_only:
                raise SetupDone
            self.refs.append(reference_s())
            self._mark = time.monotonic()

    def step(self, last: bool = False) -> None:
        """Close the current step of the wall interval once it is
        ``STEP_S`` long (or ``last``), then time the reference workload.
        Executor runs after the end of the wall interval add no steps."""
        now = time.monotonic()
        if self.wall_done or (now - self._mark < STEP_S and not last):
            return
        self.steps.append(now - self._mark)
        self.refs.append(reference_s())
        self._mark = time.monotonic()

    def end_wall(self) -> None:
        self.step(last=True)
        self.wall_done = True

    def wall_s(self) -> float:
        return sum(self.steps)

    def scaled_wall_s(self) -> float:
        """The wall interval at the nominal speed of the reference."""
        refs = self.refs
        return sum(s * 2 * NOMINAL_S / (refs[k] + refs[k + 1])
                   for k, s in enumerate(self.steps))

    def fail(self, label: str, why: str) -> None:
        self.failures.setdefault(label, why)

    def executor(self, spec, stats: dict | None = None,
                 crosses_process: bool = False) -> "TimedExecutor":
        from repro.sim.executors import build_executor

        inner = build_executor(spec, stats if stats is not None else {})
        return TimedExecutor(inner, self, crosses_process)


class TimedExecutor:
    """The executor handed to ``run_many``: marks the first handoff and
    times the batch from the parent side."""

    def __init__(self, inner, bench: Bench, crosses_process: bool) -> None:
        self.inner = inner
        self.config = inner.config
        self.bench = bench
        self.crosses_process = crosses_process
        self.wall_s = 0.0
        self.result_bytes = 0

    def run(self, tasks):
        self.bench.mark_handoff()
        refs = len(self.bench.refs)
        t0 = time.perf_counter()
        measure_bytes = self.bench.tracer is not None and self.crosses_process
        for index, res in self.inner.run(tasks):
            self.bench.step()
            if measure_bytes:
                self.result_bytes += len(pickle.dumps(res))
            yield index, res
        # Reference runs between steps are the benchmark's, not the executor's.
        self.wall_s += time.perf_counter() - t0 - sum(self.bench.refs[refs:])


# -- workloads -----------------------------------------------------------------
# Each returns the simulated runs as (label, workload name, txns/core,
# RunResult) in spec order.


def paper_suite(b: Bench) -> list[tuple]:
    from repro.analysis import figures
    from repro.analysis.experiments import run_suite

    claims = _load_example("reproduce_paper")
    txns = b.size["suite_txns"]
    if b.tracer is not None:
        install_sim_layers(b.tracer)
    ex = b.executor("serial")
    suite = run_suite(txns_per_core=txns, seed=b.seed, executor=ex)
    with b.span("analysis.figures"):
        figs = figures.compute_all_figures(suite)
    claims.measured_rows(suite)
    b.end_wall()

    fig9 = {row[0]: row[1] for row in figs["fig9_overall_reduction"]}
    b.readout = {
        "analysis.fig1_avg_false_pct":
            dict(figs["fig1_false_rates"])["average"] * 100,
        "analysis.fig8_n4_avg_pct":
            dict(figs["fig8_sensitivity"])["average"][4] * 100,
        "analysis.fig9_avg_pct": fig9["average"] * 100,
    }
    if b.tracer is not None:
        b.layers["analysis.figures_s"] = b.tracer.total_s("analysis.figures")
        _executor_layers(b, ex, workers=1)
    runs = []
    for name in suite.names():
        bench = suite[name]
        for res in (bench.baseline, bench.subblock, bench.perfect):
            runs.append((f"{name}:{res.scheme}", name, txns, res))
    return runs


def policy_specs(b: Bench) -> list:
    from repro.config import (
        POLICY_PRESETS,
        ConflictResolution,
        DetectionScheme,
        HtmPolicy,
        default_system,
    )
    from repro.sim.parallel import RunSpec

    policies = dict(POLICY_PRESETS)
    policies["stall"] = HtmPolicy(resolution=ConflictResolution.STALL_BACKOFF)
    schemes = [
        ("asf", DetectionScheme.ASF_BASELINE, 4),
        ("subblock2", DetectionScheme.SUBBLOCK, 2),
        ("subblock4", DetectionScheme.SUBBLOCK, 4),
        ("subblock8", DetectionScheme.SUBBLOCK, 8),
        ("perfect", DetectionScheme.PERFECT, 4),
    ]
    base = default_system()
    return [
        RunSpec(
            workload=bench,
            config=base.with_scheme(scheme, n).with_policy(policy),
            seed=b.seed,
            txns_per_core=b.size["sweep_txns"],
            label=f"{bench}:{sname}x{pname}",
        )
        for bench in b.size["sweep_benches"]
        for sname, scheme, n in schemes
        for pname, policy in policies.items()
    ]


def _sweep(b: Bench, executor_spec: str) -> list[tuple]:
    from repro.sim.executors import parse_executor_spec
    from repro.sim.parallel import run_many
    from repro.store import ResultsStore

    specs = policy_specs(b)
    if b.tracer is not None:
        install_store_layer(b.tracer)
    stats: dict = {}
    resume_stats: dict = {}
    with ResultsStore(os.path.join(b.scratch, "store"), fresh=True) as store:
        cfg = parse_executor_spec(executor_spec).merged(store=store)
        ex = b.executor(cfg, stats, crosses_process=True)
        results = run_many(specs, ex, stream_stats=stats)
        stored = [store.has_spec(spec) for spec in specs]
        t0 = time.perf_counter()
        served = run_many(specs, b.executor(cfg, resume_stats),
                          stream_stats=resume_stats)
        resume_s = time.perf_counter() - t0
    b.end_wall()

    b.attempted += len(specs)
    for spec, res, was_stored, back in zip(specs, results, stored, served):
        if not was_stored:
            b.fail("served:" + spec.label, "result missing from the store")
        elif back.stats.summary() != res.stats.summary():
            b.fail("served:" + spec.label, "resumed summary differs")
    if resume_stats["served_from_store"] != len(specs):
        b.fail("served:*", f"resume served {resume_stats['served_from_store']}"
               f" of {len(specs)} specs")

    runs = [(s.label, s.workload, s.txns_per_core, r)
            for s, r in zip(specs, results)]
    if b.tracer is not None:
        b.layers.update({
            "store.record_s": b.tracer.total_s("store.record"),
            "store.records": b.tracer.counts["store.records"],
            "store.bytes": os.path.getsize(store.results_path),
            "store.resume_s": resume_s,
            "store.served": resume_stats["served_from_store"],
        })
        _remote_layers(b, specs, results)
        # Engine, kernel and telemetry split: the same specs in-process.
        install_sim_layers(b.tracer)
        inproc = run_many(specs, b.executor("serial"))
        for spec, res, ref in zip(specs, results, inproc):
            if res.stats.summary() != ref.stats.summary():
                b.fail(spec.label, "executor summary differs from in-process")
        _executor_layers(b, ex, workers=SWEEP_WORKERS)
    return runs


def policy_sweep(b: Bench) -> list[tuple]:
    return _sweep(b, f"process:{SWEEP_WORKERS}")


def _remote_layers(b: Bench, specs: list, results: list) -> None:
    """The remote fabric: the same grid through a ``remote:`` executor
    with a hosts file of two ``local`` lines (two loopback workers)."""
    from repro.sim.parallel import run_many

    hosts = os.path.join(b.scratch, "hosts.txt")
    with open(hosts, "w", encoding="utf-8") as fh:
        fh.write("local\n" * SWEEP_WORKERS)
    stats: dict = {}
    fabric = run_many(specs, f"remote:{hosts}", stream_stats=stats)
    for spec, res, back in zip(specs, results, fabric):
        if back.stats.summary() != res.stats.summary():
            b.fail("remote:" + spec.label, "remote summary differs from process pool")
    b.attempted += len(specs)
    b.layers.update({
        "remote.workers_joined": stats.get("workers_joined", 0),
        "remote.batches_requeued": stats.get("batches_requeued", 0),
        "remote.duplicates_dropped": stats.get("duplicates_dropped", 0),
        "remote.drained_to_local": stats.get("drained_to_local", 0),
    })


def trace_forensics(b: Bench) -> list[tuple]:
    from repro.analysis.trace import ConflictTimeline, analyze_trace
    from repro.config import DetectionScheme, default_system
    from repro.sim.parallel import RunSpec, run_many
    from repro.sim.runner import trace_filename

    txns = b.size["trace_txns"]
    trace_dir = os.path.join(b.scratch, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    specs = [
        RunSpec(
            workload=bench,
            config=default_system(scheme, 4).with_telemetry(
                sink="trace",
                trace_path=os.path.join(trace_dir, trace_filename(bench, scheme.value)),
                trace_accesses=True,
            ),
            seed=b.seed,
            txns_per_core=txns,
            label=f"{bench}:{scheme.value}",
        )
        for bench in b.size["trace_benches"]
        for scheme in (DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK)
    ]
    if b.tracer is not None:
        install_sim_layers(b.tracer)
    ex = b.executor("serial")
    results = run_many(specs, ex)
    for spec in specs:
        with b.span("analysis.trace"):
            analyze_trace(spec.config.telemetry.trace_path)
        b.step()
    b.end_wall()

    for spec, res in zip(specs, results):
        path = spec.config.telemetry.trace_path
        if ConflictTimeline.from_trace(path).parity_summary() != res.stats.summary():
            b.fail(spec.label, "trace replay differs from the live run")
    if b.tracer is not None:
        paths = [spec.config.telemetry.trace_path for spec in specs]
        b.layers["telemetry.trace_bytes"] = sum(map(os.path.getsize, paths))
        b.layers["analysis.trace_s"] = b.tracer.total_s("analysis.trace")
        b.layers["analysis.trace_events"] = sum(_events_in(p) for p in paths)
        _executor_layers(b, ex, workers=1)
    return [(s.label, s.workload, txns, r) for s, r in zip(specs, results)]


WORKLOADS = {
    "paper_suite": paper_suite,
    "policy_sweep": policy_sweep,
    "trace_forensics": trace_forensics,
}


# -- helpers -------------------------------------------------------------------


def _load_example(name: str):
    """Import ``examples/<name>.py`` (the script users run) as a module."""
    path = ROOT / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _events_in(path: str) -> int:
    """Events in a JSONL trace: every line but the schema header."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _executor_layers(b: Bench, ex: TimedExecutor, workers: int) -> None:
    stats = ex.inner.stats
    spec_s = b.tracer.total_s("executors.spec")
    b.layers.update({
        "executors.wall_s": ex.wall_s,
        "executors.overhead_s": ex.wall_s - spec_s / workers,
        "executors.result_bytes": ex.result_bytes,
        "executors.peak_inflight": stats.get("peak_inflight", 0),
        "executors.pool_rotations": stats.get("pool_rotations", 0),
    })


def check_runs(b: Bench, runs: list[tuple]) -> None:
    """Every run commits every scripted transaction; perfect has no
    false conflicts."""
    from repro.config import DetectionScheme
    from repro.sim.parallel import compiled_scripts

    b.attempted += len(runs)
    for label, name, txns, res in runs:
        scripts = compiled_scripts(name, res.config.n_cores, res.seed, txns)
        scripted = sum(s.n_txns for s in scripts)
        if res.stats.txn_commits != scripted:
            b.fail(label, f"{res.stats.txn_commits} of {scripted} txns committed")
        if (res.config.htm.scheme is DetectionScheme.PERFECT
                and res.stats.conflicts.total_false):
            b.fail(label, "false conflicts on the perfect system")


def htm_totals(runs: list[tuple]) -> dict[str, float]:
    stats = [r.stats for _, _, _, r in runs]
    attempts = sum(s.txn_attempts for s in stats)
    commits = sum(s.txn_commits for s in stats)
    return {
        "htm.attempts": attempts,
        "htm.commits": commits,
        "htm.commit_ratio": commits / attempts if attempts else 0.0,
        "htm.conflicts": sum(s.conflicts.total for s in stats),
        "htm.false_conflicts": sum(s.conflicts.total_false for s in stats),
        "htm.stalls": sum(s.stalls for s in stats),
        "htm.sim_cycles": sum(s.execution_cycles for s in stats),
    }


def sim_layers(t: Tracer) -> dict[str, float]:
    """Workload, engine, kernel and telemetry metrics from the spans."""
    access_s = t.total_s("kernel.access")
    calls = t.counts["kernel.access_calls"]
    return {
        "workloads.build_s": t.total_s("workloads.build"),
        "workloads.builds": t.counts["workloads.builds"],
        "workloads.ops": t.counts["workloads.ops"],
        "engine.setup_s": t.total_s("engine.setup"),
        "engine.setups": t.count("engine.setup"),
        "engine.run_s": t.total_s("engine.run"),
        "engine.self_s": t.self_s("engine.run"),
        "kernel.access_calls": calls,
        "kernel.access_s": access_s,
        "kernel.ns_per_access": access_s * 1e9 / calls if calls else 0.0,
        "kernel.txn_calls": t.counts["kernel.txn_calls"],
        "kernel.txn_s": t.total_s("kernel.txn"),
        "telemetry.sink_calls": t.counts["telemetry.sink_calls"],
        "telemetry.sink_s": t.counts["telemetry.sink_ns"] / 1e9,
        "telemetry.summary_s": t.total_s("telemetry.summary"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    # The first run pays the allocator's page faults; it is dropped.
    refs = [reference_s() for _ in range(6)][1:]
    setup_ref = {"setup_ref_s": statistics.median(refs)}
    setup_ref["setup_ref_cost_s"] = time.monotonic() - t0
    b = Bench(args)
    try:
        runs = WORKLOADS[args.workload](b)
    except SetupDone:
        _write(args.out, {"handoff": b.handoff, **setup_ref})
        return 0
    if args.corrupt:
        runs[0][3].stats.txn_commits -= 1
    check_runs(b, runs)

    summaries = [r.stats.summary() for _, _, _, r in runs]
    out = {
        "handoff": b.handoff,
        **setup_ref,
        "wall_s": b.wall_s(),
        "scaled_wall_s": b.scaled_wall_s(),
        "accesses": sum(s["l1_hits"] + s["l1_misses"] for s in summaries),
        "htm": htm_totals(runs),
        "digest": hashlib.sha256(
            json.dumps(summaries, sort_keys=True).encode()
        ).hexdigest(),
        "attempted": b.attempted,
        "failures": b.failures,
        "readout": b.readout,
    }
    if b.tracer is not None:
        out["layers"] = {**IDLE_LAYERS, **sim_layers(b.tracer), **b.layers,
                         **b.readout, **out["htm"]}
        span_dir = ROOT / ".perfbench_out"
        span_dir.mkdir(exist_ok=True)
        b.tracer.write(span_dir / f"spans-{args.workload}-s{args.seed}.jsonl")
    _write(args.out, out)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
