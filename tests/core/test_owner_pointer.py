"""The O(1) supplier owner-pointer: `MemorySystem.l1_owner` (object
kernel) and the `SimState.owner` plane (flat kernel) must always point at
the unique supply-capable (MOESI M/O/E) copy of a line.

The fill path trusts this map instead of walking sharers, so a stale or
missing entry would silently change supplier selection — these tests pin
the invariant across schemes and full engine runs, complementing the
sharer-index parity suite.
"""

from __future__ import annotations

import pytest

from repro.config import DetectionScheme, default_system
from repro.kernel.state import MOESI_O
from repro.mem.moesi import supplies_data
from repro.sim.engine import SimulationEngine
from repro.workloads.registry import get_workload

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
    DetectionScheme.DECOUPLED,
)


def assert_owner_invariant(machine) -> None:
    """Owner pointers == the set of supply-capable L1 copies, exactly, on
    whichever structures the machine's kernel keeps."""
    state = getattr(machine, "state", None)
    if state is not None:
        assert_flat_owner_invariant(state)
        return
    mem = machine.mem
    supply_holders: dict[int, list[int]] = {}
    for core, l1 in enumerate(mem.l1s):
        for line in l1.resident_lines():
            if line.valid and supplies_data(line.state):
                supply_holders.setdefault(line.addr, []).append(core)
    for line_addr, cores in supply_holders.items():
        assert len(cores) == 1, (
            f"line {line_addr:#x} has {len(cores)} supply-capable copies "
            f"(MOESI invariant broken): {cores}"
        )
        assert mem.l1_owner.get(line_addr) == cores[0], (
            f"line {line_addr:#x}: owner map says "
            f"{mem.l1_owner.get(line_addr)}, caches say {cores[0]}"
        )
    for line_addr, core in mem.l1_owner.items():
        line = mem.l1s[core].lookup(line_addr, touch=False)
        assert line is not None and line.valid and supplies_data(line.state), (
            f"stale owner entry: line {line_addr:#x} -> core {core}"
        )


def assert_flat_owner_invariant(state) -> None:
    """The flat kernel's owner plane against its MOESI plane."""
    state.audit_coherence()
    for li, line_addr in enumerate(state.line_addrs):
        cores = [
            c for c in range(state.n_cores) if state.moesi[c][li] >= MOESI_O
        ]
        assert len(cores) <= 1, (
            f"line {line_addr:#x} has {len(cores)} supply-capable copies "
            f"(MOESI invariant broken): {cores}"
        )
        assert state.owner[li] == (cores[0] if cores else -1), (
            f"line {line_addr:#x}: owner plane says {state.owner[li]}, "
            f"MOESI plane says {cores}"
        )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bench", ["kmeans", "genome"])
def test_owner_map_exact_after_full_run(scheme, bench):
    cfg = default_system(scheme, 4)
    workload = get_workload(bench, 15)
    engine = SimulationEngine(
        cfg, workload.build(cfg.n_cores, 1), seed=1, check_atomicity=False
    )
    engine.run()
    assert_owner_invariant(engine.machine)


def test_owner_map_exact_mid_run():
    """The invariant holds at every step, not just at quiescence."""
    cfg = default_system(DetectionScheme.SUBBLOCK, 4)
    workload = get_workload("intruder", 8)
    # micro_batch=False: the per-step hook below rides on _step, which the
    # batched loop deliberately bypasses.
    engine = SimulationEngine(
        cfg, workload.build(cfg.n_cores, 3), seed=3, check_atomicity=False,
        micro_batch=False,
    )

    checked = 0
    original_step = engine._step

    def checking_step(cs, now):
        nonlocal checked
        original_step(cs, now)
        checked += 1
        if checked % 50 == 0:  # every step would be O(n^2) slow
            assert_owner_invariant(engine.machine)

    engine._step = checking_step
    engine.run()
    assert checked > 100
    assert_owner_invariant(engine.machine)


def test_owner_pointer_parity_object_vs_flat():
    """The object model's ``l1_owner`` map and the flat kernel's owner
    plane pick the same supplier on every fill, bit-for-bit."""
    cfg = default_system(DetectionScheme.ASF_BASELINE, 4)
    workload = get_workload("vacation", 12)
    scripts = workload.build(cfg.n_cores, 1)

    obj = SimulationEngine(
        cfg.with_kernel("object"), scripts, seed=1, check_atomicity=False
    )
    flat = SimulationEngine(
        cfg.with_kernel("flat"), scripts, seed=1, check_atomicity=False
    )

    obj_stats = obj.run()
    flat_stats = flat.run()
    assert obj_stats.summary() == flat_stats.summary()
    assert obj_stats.per_core_cycles == flat_stats.per_core_cycles
    assert_owner_invariant(obj.machine)
    assert_owner_invariant(flat.machine)
