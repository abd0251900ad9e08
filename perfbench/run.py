#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload of ``BENCHMARK.json`` from the root of a source
checkout.  Every pass runs in a fresh interpreter (``perfbench/passes.py``)
so each pays imports, executor start-up and workload builds the way a
user's run does.  ``--trace 0`` repeats passes within ``--seconds`` and
reports the end-to-end metrics as medians;
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics.  Every metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_suite", "policy_sweep", "trace_forensics")

#: Setup-only probes per untraced run, on top of one sample per pass.
SETUP_PROBES = 2
#: Passes an untraced run makes even when they overrun ``--seconds``.
MIN_PASSES = 3
#: Seconds one pass interpreter may take before it is killed.
PASS_TIMEOUT = 150
#: Paper values beside the accuracy readout (text of Figs 1, 8 and 9).
PAPER_READOUT = {
    "analysis.fig1_avg_false_pct": 46.0,
    "analysis.fig8_n4_avg_pct": 56.4,
    "analysis.fig9_avg_pct": 31.3,
}


class PassFailed(Exception):
    """A pass interpreter exited non-zero or timed out."""


class Runner:
    """Starts pass interpreters and collects what they report."""

    def __init__(self, args: argparse.Namespace, scratch: Path) -> None:
        self.args = args
        self.scratch = scratch
        self.n = 0
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def run_pass(self, traced: bool = False, setup_only: bool = False) -> dict:
        self.n += 1
        scratch = self.scratch / f"pass-{self.n}"
        scratch.mkdir()
        out = scratch / "result.json"
        cmd = [
            sys.executable, str(HERE / "passes.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--scratch", str(scratch), "--out", str(out),
        ]
        cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
        cmd += ["--corrupt"] * self.args.corrupt
        spawned = time.monotonic()
        # Own session, so a timeout can stop the pass and its workers.
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=PASS_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Stops a timed-out pass and anything a pass left behind.
            _kill_group(proc.pid)
            proc.wait()
        if code is None:
            raise PassFailed(f"pass timed out after {PASS_TIMEOUT} s")
        if code != 0:
            raise PassFailed(f"pass exited with code {code}")
        result = json.loads(out.read_text())
        shutil.rmtree(scratch)
        result["setup_s"] = result["handoff"] - spawned - result["setup_ref_cost_s"]
        result["scaled_setup_s"] = result["setup_s"] * NOMINAL_S / result["setup_ref_s"]
        return result


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Outcome:
    """What a run reports: metrics plus the output checks of its passes."""

    metrics: dict
    passes: list[dict]
    extra_failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.passes)

    @property
    def failed(self) -> int:
        return self.extra_failed + sum(len(p["failures"]) for p in self.passes)

    def failure_notes(self) -> list[str]:
        return [f"{k}: {v}" for p in self.passes
                for k, v in p["failures"].items()] + self.notes


def untraced(runner: Runner, seconds: float) -> Outcome:
    deadline = time.monotonic() + seconds
    setups = [runner.run_pass(setup_only=True) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    # Start a pass only while the last one would still fit the budget.
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() + last < deadline:
        begun = time.monotonic()
        passes.append(runner.run_pass())
        last = time.monotonic() - begun
    setups += passes
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = statistics.median(p["scaled_wall_s"] for p in passes)
    out = Outcome(metrics={
        "scaled_wall_s": wall,
        # Every pass of a seed simulates the same accesses.
        "scaled_sim_accesses_per_s": passes[0]["accesses"] / wall,
        "peak_rss_mb": usage / 1024,
        "setup_s": statistics.median(p["scaled_setup_s"] for p in setups),
    }, passes=passes)
    # A seed fixes every input, so every pass must simulate the same runs.
    for p in passes[1:]:
        if p["digest"] != passes[0]["digest"]:
            out.extra_failed += p["attempted"]
            out.notes.append("summary digest differs between passes at one seed")
    walls = sorted(p["wall_s"] for p in passes)
    print(f"passes: {len(passes)}, setup samples: {len(setups)}")
    print(f"unscaled: wall_s median {statistics.median(walls)} s "
          f"(passes {', '.join(f'{w:.3f}' for w in walls)}), setup_s median "
          f"{statistics.median(p['setup_s'] for p in setups)} s")
    return out


def traced(runner: Runner) -> Outcome:
    plain = runner.run_pass()
    trace = runner.run_pass(traced=True)
    out = Outcome(metrics=dict(trace["layers"]), passes=[plain, trace])
    out.metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    # The shims must not perturb simulated results.
    if trace["htm"] != plain["htm"] or trace["digest"] != plain["digest"]:
        out.extra_failed += trace["attempted"]
        out.notes.append("traced pass simulated different results than untraced")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload (benchmark self-tests)")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one result before the output checks (self-tests)")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running pass is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / str(os.getpid())
    scratch.mkdir(parents=True)
    runner = Runner(args, scratch)
    try:
        out = traced(runner) if args.trace else untraced(runner, args.seconds)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    for note in out.failure_notes():
        print(f"check failed: {note}")
    for name in names:
        print(f"{name} = {out.metrics[name]} {units[name]}")
    attempted, failed = out.attempted, out.failed
    print(f"error_rate = {failed / attempted} ratio ({failed} of {attempted} specs)")
    readout = out.passes[-1]["readout"]
    if readout:
        print("accuracy readout (model unvalidated against hardware: "
              "shape comparison, no error bar):")
        for name, value in readout.items():
            print(f"  {name}: measured {value:.1f}%, paper {PAPER_READOUT[name]}%")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": out.metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
