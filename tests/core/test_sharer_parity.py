"""Sharer-indexed probes: the object and flat kernels agree step by step.

Both kernels keep per-line sharer indexes (valid L1 copies and spec-table
entries) so probes, invalidations and fetch snoops visit only potential
responders, in round-robin order for probes and ascending order for every
other walk.  Every scenario here runs on both kernels in lockstep and
asserts identical observable behaviour after each step, including the
*order* of conflict records (multi-victim aborts and the older-wins early
exit depend on round-robin delivery order).  The object kernel's index is
also checked against a ground-truth scan of its side tables, and the flat
kernel's arrays pass the MOESI/holder audit.

Scenarios follow the protocol tests: the Figure 6 dirty-reprobe hazard,
Figure 7-style sub-block interleavings, multi-victim write probes, and
both resolution policies; an engine-level sweep closes with full-run
stats equality on contended workloads under all three schemes.
"""

from __future__ import annotations

import pytest

from repro.config import ConflictResolution, DetectionScheme, default_system
from repro.htm.txn import TxnStatus
from repro.kernel import FlatTxnMachine
from repro.sim.atomicity import AtomicityChecker
from repro.sim.engine import SimulationEngine
from repro.workloads.kmeans import KmeansWorkload
from repro.workloads.vacation import VacationWorkload
from tests.conftest import TxnDriver, make_machine

L = 0x70000
L2 = 0x71000
SB = 16


def mirrored_drivers(config) -> tuple[TxnDriver, TxnDriver]:
    """(object, flat) drivers, both with the raising atomicity checker."""
    obj = make_machine(config.with_kernel("object"), check=True)
    flat = FlatTxnMachine(config.with_kernel("flat"))
    flat.checker = AtomicityChecker(tokens=flat.tokens, versions=flat.versions)
    return TxnDriver(obj), TxnDriver(flat)


class Mirror:
    """Applies every driver step to both kernels and compares outcomes."""

    def __init__(self, config) -> None:
        self.obj, self.flat = mirrored_drivers(config)

    def _both(self, method: str, *args):
        a = getattr(self.obj, method)(*args)
        b = getattr(self.flat, method)(*args)
        if method in ("read", "write"):
            assert a.conflicts == b.conflicts, method
            assert a.self_abort == b.self_abort
            assert a.dirty_reprobe == b.dirty_reprobe
            assert a.hit_l1 == b.hit_l1
            assert a.latency == b.latency
        elif method in ("begin", "commit", "abort"):
            assert a.status == b.status
        return a

    def begin(self, core):
        return self._both("begin", core)

    def read(self, core, addr, size=8):
        return self._both("read", core, addr, size)

    def write(self, core, addr, size=8):
        return self._both("write", core, addr, size)

    def commit(self, core):
        return self._both("commit", core)

    def abort(self, core):
        return self._both("abort", core)

    def finish(self):
        """Final cross-machine invariants after the scenario."""
        om, fm = self.obj.machine, self.flat.machine
        assert om.stats.summary() == fm.stats.summary()
        for c in range(om.config.n_cores):
            oa, fa = om.active[c], fm.active[c]
            assert (oa is None) == (fa is None)
            if oa is not None:
                assert oa.status == fa.status
        # The object index itself must agree with a ground-truth scan.
        for line, mask in om.spec_holders.items():
            truth = 0
            for c, table in enumerate(om.spec_tables):
                if line in table:
                    truth |= 1 << c
            assert mask == truth
        fm.state.audit_coherence()


@pytest.fixture(params=[DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK])
def mirror(request):
    return Mirror(default_system(request.param, 4))


class TestProtocolScenarios:
    def test_figure6_dirty_reprobe(self):
        """T1's deferred read of T0's sub-block re-probes identically."""
        m = Mirror(default_system(DetectionScheme.SUBBLOCK, 4))
        t0 = m.begin(0)
        m.write(0, L, 8)
        m.begin(1)
        m.read(1, L + 2 * SB, 8)
        out = m.read(1, L, 8)
        assert out.dirty_reprobe
        assert t0.status is TxnStatus.ABORTED
        m.commit(1)
        m.finish()

    def test_figure7_disjoint_subblocks_commute(self):
        """A writer and a reader of different sub-blocks never see each
        other (writer-writer would hit the forced-WAW rule instead)."""
        m = Mirror(default_system(DetectionScheme.SUBBLOCK, 4))
        m.begin(0)
        m.begin(1)
        m.write(0, L, 8)
        out = m.read(1, L + 3 * SB, 8)
        assert not out.conflicts
        m.commit(0)
        m.commit(1)
        m.finish()

    def test_forced_waw_between_disjoint_writers(self):
        """Disjoint sub-block writers trip the forced-WAW rule — on the
        flat kernel exactly as on the object model."""
        m = Mirror(default_system(DetectionScheme.SUBBLOCK, 4))
        m.begin(0)
        m.begin(1)
        m.write(0, L, 8)
        out = m.write(1, L + 3 * SB, 8)
        assert [r.forced_waw for r in out.conflicts] == [True]
        assert out.conflicts[0].is_false
        m.commit(1)
        m.finish()

    def test_multi_victim_abort_order(self, mirror):
        """A write probing three readers aborts them in identical order."""
        for reader in (1, 2, 3):
            mirror.begin(reader)
            mirror.read(reader, L, 8)
        mirror.begin(0)
        out = mirror.write(0, L, 8)
        assert [r.victim_core for r in out.conflicts] == [1, 2, 3]
        mirror.commit(0)
        mirror.finish()

    def test_round_robin_order_from_mid_requester(self, mirror):
        """Requester 2 probes 3,...,n-1,0,1 — wrap-around must survive
        the bitmask iteration."""
        for reader in (0, 1, 3):
            mirror.begin(reader)
            mirror.read(reader, L, 8)
        mirror.begin(2)
        out = mirror.write(2, L, 8)
        assert [r.victim_core for r in out.conflicts] == [3, 0, 1]
        mirror.finish()

    def test_war_then_waw_mix(self, mirror):
        """Reader + writer victims in one probe, plus a second line."""
        mirror.begin(1)
        mirror.read(1, L, 8)
        mirror.write(1, L2, 8)
        mirror.begin(3)
        mirror.read(3, L, 8)
        mirror.begin(0)
        mirror.write(0, L, 8)   # WARs against 1 and 3
        mirror.read(0, L2, 8)   # RAW against nobody (1 already aborted)
        mirror.commit(0)
        mirror.finish()

    def test_abort_and_reuse_line(self, mirror):
        """Spec-table teardown on abort clears the index symmetrically."""
        mirror.begin(0)
        mirror.write(0, L, 8)
        mirror.abort(0)
        mirror.begin(1)
        out = mirror.write(1, L, 8)
        assert not out.conflicts
        mirror.commit(1)
        mirror.finish()

    def test_older_wins_requester_abort(self):
        """Under OLDER_WINS a young requester self-aborts at the first
        older holder — the early exit point must not move."""
        cfg = default_system(DetectionScheme.SUBBLOCK, 4).with_policy(
            resolution=ConflictResolution.OLDER_WINS
        )
        m = Mirror(cfg)
        m.begin(0)  # older
        m.write(0, L, 8)
        m.begin(1)  # younger
        out = m.write(1, L, 8)
        assert out.self_abort is not None
        assert m.obj.txn(0).status is TxnStatus.RUNNING
        m.commit(0)
        m.finish()

    def test_plain_accesses_between_txns(self, mirror):
        """Non-transactional traffic drives the L1-holder index only."""
        m = mirror
        m.write(0, L, 8)
        m.read(1, L, 8)
        m.read(2, L, 8)
        m.begin(3)
        m.write(3, L, 8)  # invalidates the three plain copies
        m.commit(3)
        m.read(0, L, 8)
        m.finish()


SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "workload",
    [VacationWorkload(txns_per_core=12), KmeansWorkload(txns_per_core=12)],
    ids=["vacation", "kmeans"],
)
def test_engine_parity_full_run(workload, scheme):
    """Contended full runs: identical stats, event lists and event order."""
    cfg = default_system(scheme, 4)
    scripts = workload.build(cfg.n_cores, 9)

    def run(kernel: str):
        engine = SimulationEngine(
            cfg.with_kernel(kernel), scripts, seed=9, check_atomicity=True,
            record_events=True,
        )
        return engine.run()

    obj, flat = run("object"), run("flat")
    assert obj.summary() == flat.summary()
    assert obj.conflict_events == flat.conflict_events
    assert obj.per_core_cycles == flat.per_core_cycles
