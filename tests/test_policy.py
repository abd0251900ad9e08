"""HtmPolicy matrix tests: validation, presets, and end-to-end behavior
of the non-ASF design points (stall/backoff, lazy detection)."""

import pytest

from repro.config import (
    POLICY_PRESETS,
    ConflictResolution,
    DetectionScheme,
    DetectionTiming,
    HtmPolicy,
    LazyArbitration,
    VersionMgmt,
    default_system,
)
from repro.errors import ConfigError
from repro.sim.engine import SimulationEngine
from repro.workloads.synthetic import SyntheticWorkload


class TestHtmPolicy:
    def test_default_is_asf(self):
        p = HtmPolicy()
        assert p.version_mgmt is VersionMgmt.LAZY
        assert p.conflict_detection is DetectionTiming.EAGER
        assert p.resolution is ConflictResolution.REQUESTER_WINS
        assert p.is_asf

    def test_non_default_points_are_not_asf(self):
        assert not HtmPolicy(version_mgmt=VersionMgmt.EAGER).is_asf
        assert not HtmPolicy(conflict_detection=DetectionTiming.LAZY).is_asf
        assert not HtmPolicy(
            resolution=ConflictResolution.STALL_BACKOFF
        ).is_asf

    def test_eager_vm_with_lazy_cd_rejected(self):
        with pytest.raises(ConfigError):
            HtmPolicy(
                version_mgmt=VersionMgmt.EAGER,
                conflict_detection=DetectionTiming.LAZY,
            )

    def test_describe_names_every_axis(self):
        assert HtmPolicy().describe() == "lazy-vm/eager-cd/requester_wins"
        lazy = HtmPolicy(
            conflict_detection=DetectionTiming.LAZY,
            lazy_arbitration=LazyArbitration.POLITE,
        )
        assert lazy.describe().endswith("/polite")

    def test_presets_cover_the_named_regimes(self):
        assert POLICY_PRESETS["asf"].is_asf
        assert POLICY_PRESETS["eager"].version_mgmt is VersionMgmt.EAGER
        assert (
            POLICY_PRESETS["lazy"].conflict_detection is DetectionTiming.LAZY
        )

    def test_with_policy_overrides(self):
        cfg = default_system().with_policy(
            resolution=ConflictResolution.OLDER_WINS
        )
        assert cfg.htm.policy.resolution is ConflictResolution.OLDER_WINS
        # Whole-policy replacement plus an override on top.
        cfg = cfg.with_policy(
            POLICY_PRESETS["lazy"], lazy_arbitration=LazyArbitration.POLITE
        )
        assert cfg.htm.policy.lazy_arbitration is LazyArbitration.POLITE
        assert cfg.htm.policy.conflict_detection is DetectionTiming.LAZY


def _run(cfg, txns=25, seed=5, n_cores=8):
    w = SyntheticWorkload(txns_per_core=txns, n_records=48, hot_fraction=0.4)
    eng = SimulationEngine(
        cfg, w.build(n_cores, seed), seed=seed, check_atomicity=True
    )
    stats = eng.run()
    assert eng.checker.clean
    return stats


@pytest.mark.parametrize(
    "scheme", [DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK]
)
class TestPolicyEndToEnd:
    def test_stall_backoff_parks_and_commits(self, scheme):
        cfg = default_system(scheme, 4).with_policy(
            resolution=ConflictResolution.STALL_BACKOFF
        )
        stats = _run(cfg)
        assert stats.txn_commits == 200
        assert stats.stalls > 0
        assert stats.stall_cycles > 0

    def test_stall_fallback_aborts_are_bounded(self, scheme):
        # A tiny budget forces the deadlock-avoidance fallback path.
        cfg = default_system(scheme, 4).with_policy(
            resolution=ConflictResolution.STALL_BACKOFF,
            stall_limit=1,
            stall_queue_depth=1,
        )
        stats = _run(cfg)
        assert stats.txn_commits == 200
        assert stats.stall_aborts > 0

    def test_lazy_committer_wins_arbitrates(self, scheme):
        cfg = default_system(scheme, 4).with_policy(POLICY_PRESETS["lazy"])
        stats = _run(cfg)
        assert stats.txn_commits == 200
        # Commit-time kills are the only conflict records lazy CD emits.
        assert stats.conflicts.total == stats.arbitration_aborts

    def test_lazy_polite_validation_only(self, scheme):
        cfg = default_system(scheme, 4).with_policy(
            POLICY_PRESETS["lazy"],
            lazy_arbitration=LazyArbitration.POLITE,
        )
        stats = _run(cfg)
        assert stats.txn_commits == 200
        # Nobody aborts anyone: doomed readers fail their own validation.
        assert stats.conflicts.total == 0
        assert stats.arbitration_aborts == 0

    def test_eager_vm_serializable(self, scheme):
        cfg = default_system(scheme, 4).with_policy(POLICY_PRESETS["eager"])
        stats = _run(cfg)
        assert stats.txn_commits == 200

    def test_asf_point_matches_plain_default(self, scheme):
        base = _run(default_system(scheme, 4)).summary()
        asf = _run(
            default_system(scheme, 4).with_policy(POLICY_PRESETS["asf"])
        ).summary()
        assert base == asf
