"""Frozen golden digests: every kernel reproduces the recorded physics.

The parity suites compare kernels against *each other*; this oracle
compares each kernel against a frozen record, so a change that moves
both kernels the same way still fails.  The grid is every Table III
benchmark x every :class:`DetectionScheme` x every ``POLICY_PRESETS``
point x seeds {1, 2}, at 10 transactions per core without the atomicity
checker.  Each point's ``stats.summary()`` is rendered as canonical JSON
(sorted keys, compact separators) and hashed with sha256; the expected
hashes live in ``golden_digests.json`` next to this module.

The file pins the simulated behaviour, not the implementation: it was
recorded while three kernels (object, array, flat) all agreed on every
point.  After a *deliberate* physics change, regenerate it with::

    PYTHONPATH=src python tests/kernel/test_golden_digests.py

and commit the new file together with the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import POLICY_PRESETS, DetectionScheme, default_system
from repro.sim.runner import run_workload
from repro.workloads import get_workload
from repro.workloads.registry import BENCHMARK_NAMES

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
TXNS_PER_CORE = 10
SEEDS = (1, 2)


def point_key(bench: str, scheme: DetectionScheme, policy: str, seed: int) -> str:
    return f"{bench}/{scheme.value}/{policy}/{seed}"


def bench_digests(bench: str, kernel: str) -> dict[str, str]:
    """sha256 of the canonical summary JSON for every grid point of one
    benchmark on one kernel."""
    wl = get_workload(bench, txns_per_core=TXNS_PER_CORE)
    out: dict[str, str] = {}
    for scheme in DetectionScheme:
        for policy, point in POLICY_PRESETS.items():
            cfg = default_system(scheme, kernel=kernel).with_policy(point)
            for seed in SEEDS:
                res = run_workload(wl, config=cfg, seed=seed, check_atomicity=False)
                blob = json.dumps(
                    res.stats.summary(), sort_keys=True, separators=(",", ":")
                )
                out[point_key(bench, scheme, policy, seed)] = hashlib.sha256(
                    blob.encode()
                ).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


def test_golden_file_covers_grid(golden):
    expected = {
        point_key(b, s, p, seed)
        for b in BENCHMARK_NAMES
        for s in DetectionScheme
        for p in POLICY_PRESETS
        for seed in SEEDS
    }
    assert set(golden) == expected


@pytest.mark.parametrize("bench", BENCHMARK_NAMES)
@pytest.mark.parametrize("kernel", ("object", "flat"))
def test_golden_digests(golden, kernel, bench):
    got = bench_digests(bench, kernel)
    mismatched = sorted(k for k, v in got.items() if golden.get(k) != v)
    assert not mismatched, f"{kernel}: {len(mismatched)} digests moved: {mismatched}"


if __name__ == "__main__":
    # Regenerate from the object (reference) kernel.
    digests: dict[str, str] = {}
    for name in BENCHMARK_NAMES:
        digests.update(bench_digests(name, "object"))
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
