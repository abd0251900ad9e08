"""Cross-cutting smaller behaviours not covered elsewhere."""

import pytest

from repro.errors import (
    AtomicityViolation,
    ConfigError,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigError,
            ProtocolError,
            SimulationError,
            WorkloadError,
            AtomicityViolation,
        ):
            assert issubclass(exc, ReproError)

    def test_atomicity_violation_carries_txn(self):
        exc = AtomicityViolation("boom", txn_id=42)
        assert exc.txn_id == 42
        assert "boom" in str(exc)


class TestWorkloadBaseValidation:
    def test_rejects_nonpositive_txn_count(self):
        from repro.workloads.synthetic import SyntheticWorkload

        with pytest.raises(WorkloadError):
            SyntheticWorkload(txns_per_core=0)

    def test_rejects_bad_field_config(self):
        from repro.workloads.synthetic import SyntheticWorkload

        with pytest.raises(WorkloadError):
            SyntheticWorkload(field_bytes=0)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(field_bytes=16, record_bytes=8)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(hot_fraction=1.5)

    def test_scripted_txn_validation(self):
        from repro.htm.ops import read_op
        from repro.workloads.base import ScriptedTxn

        with pytest.raises(WorkloadError):
            ScriptedTxn(gap_cycles=-1, ops=(read_op(0, 4),))
        with pytest.raises(WorkloadError):
            ScriptedTxn(gap_cycles=0, ops=())
        with pytest.raises(WorkloadError):
            ScriptedTxn(gap_cycles=0, ops=(read_op(0, 4),), user_abort_attempts=-1)

    def test_validate_scripts_rejects_memoryless_txn(self):
        from repro.htm.ops import work_op
        from repro.workloads.base import CoreScript, ScriptedTxn
        from repro.workloads.synthetic import SyntheticWorkload

        w = SyntheticWorkload(txns_per_core=1)
        bad = [CoreScript(core=0, txns=(ScriptedTxn(1, (work_op(5),)),))]
        with pytest.raises(WorkloadError):
            w.validate_scripts(bad)


class TestEngineMisc:
    def test_cores_may_have_unequal_scripts(self):
        from repro.config import default_system
        from repro.htm.ops import read_op
        from repro.sim.engine import SimulationEngine
        from repro.workloads.base import CoreScript, ScriptedTxn

        txn = ScriptedTxn(5, (read_op(0x1000, 8),))
        scripts = [
            CoreScript(core=c, txns=(txn,) * (c + 1)) for c in range(8)
        ]
        stats = SimulationEngine(default_system(), scripts).run()
        assert stats.txn_commits == sum(range(1, 9))

    def test_zero_length_script_core_finishes_immediately(self):
        from repro.config import default_system
        from repro.htm.ops import read_op
        from repro.sim.engine import SimulationEngine
        from repro.workloads.base import CoreScript, ScriptedTxn

        txn = ScriptedTxn(5, (read_op(0x1000, 8),))
        scripts = [CoreScript(core=0, txns=(txn,))] + [
            CoreScript(core=c, txns=()) for c in range(1, 8)
        ]
        stats = SimulationEngine(default_system(), scripts).run()
        assert stats.txn_commits == 1
        assert stats.per_core_cycles[1] == 0

    def test_engine_exposes_checker_violations(self):
        from repro.config import default_system
        from repro.sim.engine import SimulationEngine
        from repro.workloads.synthetic import SyntheticWorkload

        w = SyntheticWorkload(txns_per_core=5, n_records=64)
        engine = SimulationEngine(
            default_system(), w.build(8, 1), check_atomicity=True
        )
        engine.run()
        assert engine.checker is not None and engine.checker.clean

    def test_check_atomicity_false_means_no_checker(self):
        from repro.config import default_system
        from repro.sim.engine import SimulationEngine
        from repro.workloads.synthetic import SyntheticWorkload

        w = SyntheticWorkload(txns_per_core=5, n_records=64)
        engine = SimulationEngine(
            default_system(), w.build(8, 1), check_atomicity=False
        )
        assert engine.checker is None
        engine.run()


class TestCompareWithDecoupled:
    def test_four_scheme_compare(self):
        from repro.config import DetectionScheme
        from repro.sim.runner import compare_systems
        from repro.workloads.synthetic import SyntheticWorkload

        w = SyntheticWorkload(txns_per_core=10, n_records=64)
        results = compare_systems(
            w,
            seed=3,
            schemes=(
                DetectionScheme.ASF_BASELINE,
                DetectionScheme.DECOUPLED,
                DetectionScheme.SUBBLOCK,
                DetectionScheme.PERFECT,
            ),
        )
        assert set(results) == {"asf", "decoupled", "subblock", "perfect"}
        commits = {r.stats.txn_commits for r in results.values()}
        assert commits == {80}


class TestConfigResolutionDefault:
    def test_default_is_requester_wins(self):
        from repro.config import ConflictResolution, HtmConfig

        assert HtmConfig().policy.resolution is ConflictResolution.REQUESTER_WINS

    def test_explicit_policy_respected(self):
        from repro.config import ConflictResolution, HtmConfig

        from repro.config import HtmPolicy

        cfg = HtmConfig(policy=HtmPolicy(resolution=ConflictResolution.OLDER_WINS))
        assert cfg.policy.resolution is ConflictResolution.OLDER_WINS
