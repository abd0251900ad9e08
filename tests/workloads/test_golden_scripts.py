"""Frozen golden script digests: every benchmark compiles the recorded program.

The kernel golden digests pin what a run *does*; this oracle pins what a
workload *builds*, so a change to the op record, to interning or to a
generator that alters even one op fails here before it reaches a kernel.
The grid is every Table III benchmark at 8 cores, seeds {1, 2}, 20
transactions per core.  Each point's :func:`scripts_digest` (the same
digest ``save_scripts`` writes into a script file's header) is stored in
``golden_scripts.json`` next to this module.

After a *deliberate* change to a generator, regenerate it with::

    PYTHONPATH=src python tests/workloads/test_golden_scripts.py

and commit the new file together with the change that explains it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.trace.scriptio import scripts_digest
from repro.workloads import get_workload
from repro.workloads.registry import BENCHMARK_NAMES

DIGEST_FILE = Path(__file__).with_name("golden_scripts.json")
N_CORES = 8
TXNS_PER_CORE = 20
SEEDS = (1, 2)


def point_key(bench: str, seed: int) -> str:
    return f"{bench}/{N_CORES}/{seed}/{TXNS_PER_CORE}"


def bench_digests(bench: str) -> dict[str, str]:
    wl = get_workload(bench, txns_per_core=TXNS_PER_CORE)
    return {
        point_key(bench, seed): scripts_digest(wl.build(N_CORES, seed))
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


def test_golden_file_covers_grid(golden):
    assert set(golden) == {
        point_key(b, seed) for b in BENCHMARK_NAMES for seed in SEEDS
    }


@pytest.mark.parametrize("bench", BENCHMARK_NAMES)
def test_golden_scripts(golden, bench):
    got = bench_digests(bench)
    mismatched = sorted(k for k, v in got.items() if golden.get(k) != v)
    assert not mismatched, f"{len(mismatched)} script digests moved: {mismatched}"


if __name__ == "__main__":
    digests: dict[str, str] = {}
    for name in BENCHMARK_NAMES:
        digests.update(bench_digests(name))
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
