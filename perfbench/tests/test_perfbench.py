"""Self-tests of the perfbench benchmark, at tiny workload sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "1",
                 "--seed", "3", "--trace", str(trace))
    res = result_of(proc)
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        line = re.escape(m["name"]) + r" = \S+ " + re.escape(m["unit"]) + "$"
        assert re.search(line, proc.stdout, re.MULTILINE), m["name"]
    assert re.search(r"^error_rate = 0\.0 ratio", proc.stdout, re.MULTILINE)
    if not trace:
        for m in wanted:
            assert res["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_raises_error_rate(workload: str) -> None:
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "1",
                 "--corrupt")
    res = result_of(proc)
    assert res["correct"] is False
    assert res["failed"] > 0
    rate = re.search(r"^error_rate = (\S+) ratio", proc.stdout, re.MULTILINE)
    assert float(rate.group(1)) > 0


def test_paper_suite_prints_accuracy_readout() -> None:
    proc = bench("--workload", "paper_suite", "--size", "tiny", "--seconds", "1")
    result_of(proc)
    assert "unvalidated against hardware" in proc.stdout
    for name in ("analysis.fig1_avg_false_pct", "analysis.fig8_n4_avg_pct",
                 "analysis.fig9_avg_pct"):
        assert re.search(re.escape(name) + r": measured \S+%, paper \S+%",
                         proc.stdout), name


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_steps_are_scaled_by_the_reference_around_them() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from passes import Bench
    from reference import NOMINAL_S

    b = Bench.__new__(Bench)
    b.steps = [1.0, 2.0]
    # The host runs at nominal speed, then the second step ends at a third.
    b.refs = [NOMINAL_S, NOMINAL_S, 3 * NOMINAL_S]
    assert b.wall_s() == 3.0
    assert b.scaled_wall_s() == pytest.approx(1.0 + 2.0 / 2)
