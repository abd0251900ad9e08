"""Frozen byte-level contract of the JSONL trace format.

Three layers of protection for :class:`JsonlTraceSink`'s output:

* a **frozen oracle**: sha256 digests of whole traces recorded over a
  small fixed grid (workloads × schemes × policy points, every kernel),
  captured from the original ``json.dumps`` encoder — any change to a
  single byte of any event line fails here;
* the same for the ``analyze_trace`` report over those traces, so the
  reader and the timeline fold are pinned too;
* a **per-kind contract**: every hook's line equals
  ``json.dumps(payload, separators=(",", ":"))`` of the documented
  payload, across edge values (zero, masks above 2**32, both bools,
  every abort cause, fill level and conflict type);
* a **type pin** on what the kernels pass to the hooks: real ``bool``
  for flags (an ``int`` 0/1 would serialise as ``0``/``1``) and plain
  ``int`` for counts, times and masks.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from repro.analysis.trace import analyze_trace
from repro.config import (
    POLICY_PRESETS,
    ConflictResolution,
    DetectionScheme,
    LazyArbitration,
    default_system,
)
from repro.htm.conflict import ConflictRecord, ConflictType
from repro.htm.txn import AbortCause
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_workload
from repro.sim.stats import StatsCollector
from repro.telemetry.events import NullSink
from repro.telemetry.sinks import JsonlTraceSink
from repro.workloads.registry import get_workload

KERNELS = ("object", "array", "flat")
TXNS = 10
SEED = 3

#: case id -> (workload, scheme, policy preset or None, policy overrides)
CASES = {
    "kmeans-asf": ("kmeans", DetectionScheme.ASF_BASELINE, None, {}),
    "kmeans-subblock": ("kmeans", DetectionScheme.SUBBLOCK, None, {}),
    "intruder-asf": ("intruder", DetectionScheme.ASF_BASELINE, None, {}),
    "intruder-subblock": ("intruder", DetectionScheme.SUBBLOCK, None, {}),
    "intruder-subblock-stall": (
        "intruder", DetectionScheme.SUBBLOCK, None,
        {"resolution": ConflictResolution.STALL_BACKOFF},
    ),
    "intruder-subblock-lazy-committer": (
        "intruder", DetectionScheme.SUBBLOCK, "lazy",
        {"lazy_arbitration": LazyArbitration.COMMITTER_WINS},
    ),
}

#: sha256 of the full trace file (header included) per case, recorded
#: with the original dict + ``json.dumps`` encoder.  All three kernels
#: must produce these exact bytes.  Never regenerate these to make a
#: failing encoder change pass: a mismatch means the format changed.
DIGESTS = {
    "kmeans-asf": (
        "55ae54786767e2b1034f625897f03894"
        "718d5bfa6f0a42ef47aeb1d81b8058bf"
    ),
    "kmeans-subblock": (
        "667395229e24d249b660b113e0f18780"
        "0de3469db4f9580eacf27644e1649f10"
    ),
    "intruder-asf": (
        "2b0c55edcd5f17d981625eff40722047"
        "7dee9109c24016361481e56dd65266ce"
    ),
    "intruder-subblock": (
        "9f90da2438df9d9792607d19ec9b810e"
        "1f3332556e6fd4845d101e53fa9ccbea"
    ),
    "intruder-subblock-stall": (
        "2ab1a4661fe83219cd2abbb80742f346"
        "d8af3a386a43d13e5917b6d1c2356dc4"
    ),
    "intruder-subblock-lazy-committer": (
        "1e050fefa27e14e3d0191fd49dd245a1"
        "c29fe3ff057659845d45a2db948d99a4"
    ),
}

#: sha256 of ``analyze_trace`` text over each case's flat-kernel trace,
#: recorded with the original ``json.loads`` reader: the decoder, the
#: timeline fold and the renderers must reproduce it exactly.
ANALYZE_DIGESTS = {
    "kmeans-asf": (
        "462d12a0ba66c402d9443824f6e926bf"
        "35d378089a60b042b291e0db089db107"
    ),
    "kmeans-subblock": (
        "17d9a707cc32473335170c2587beff15"
        "510929889746901d4eeea0383ff2f8a3"
    ),
    "intruder-asf": (
        "9d2812425396d7c9059e585ed320c131"
        "9a8b1dcf4de71e3a92d2ee37a2aa9ac2"
    ),
    "intruder-subblock": (
        "1ad128608408362a844bdea23e416cca"
        "c2f55abf3d94becbbc34ac2b5929d423"
    ),
    "intruder-subblock-stall": (
        "c1b3016e5e0f4aa74bbaf44134b5d12b"
        "336013310c46af3e31f83179ddf468a1"
    ),
    "intruder-subblock-lazy-committer": (
        "0c125bccc7fa9e37c70579c0782fba72"
        "706aa9a937b1ab3775ae70b522883ab0"
    ),
}

EVENT_KINDS = {
    "txn_start", "txn_commit", "txn_abort", "conflict", "access",
    "backoff", "stall", "dirty_reprobe", "fill", "run_complete",
}


def case_config(case: str, kernel: str):
    _, scheme, preset, overrides = CASES[case]
    cfg = default_system(scheme, 4).with_kernel(kernel)
    if preset is not None or overrides:
        policy = POLICY_PRESETS[preset] if preset is not None else None
        cfg = cfg.with_policy(policy, **overrides)
    return cfg


def record(tmp_path, case: str, kernel: str) -> bytes:
    path = tmp_path / f"{case}-{kernel}.jsonl"
    cfg = case_config(case, kernel).with_telemetry(
        sink="trace", trace_path=str(path), trace_accesses=True,
    )
    run_workload(
        get_workload(CASES[case][0], TXNS), cfg, seed=SEED, check_atomicity=False
    )
    return path.read_bytes()


class TestFrozenTraceBytes:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest_matches_oracle(self, tmp_path, case, kernel):
        data = record(tmp_path, case, kernel)
        assert hashlib.sha256(data).hexdigest() == DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_analysis_matches_oracle(self, tmp_path, case):
        record(tmp_path, case, "flat")
        text = analyze_trace(tmp_path / f"{case}-flat.jsonl")
        assert hashlib.sha256(text.encode()).hexdigest() == ANALYZE_DIGESTS[case]

    def test_grid_covers_every_event_kind(self, tmp_path):
        kinds: Counter[str] = Counter()
        stall_aborts = at_commit = 0
        for case in CASES:
            for line in record(tmp_path, case, "flat").splitlines()[1:]:
                payload = json.loads(line)
                kinds[payload["event"]] += 1
                if payload["event"] == "stall" and payload["aborted"]:
                    stall_aborts += 1
                if payload["event"] == "conflict" and payload["at_commit"]:
                    at_commit += 1
        assert set(kinds) == EVENT_KINDS
        assert stall_aborts and at_commit


def last_line(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[-1]


def expect(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


BIG = (1 << 40) + 5  # a mask above 2**32
BOOLS = (False, True)


class TestPerKindLines:
    """Each hook writes exactly ``json.dumps`` of its documented payload."""

    @pytest.fixture
    def sink(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "k.jsonl", trace_accesses=True)
        yield sink
        sink.close()

    def check(self, sink, payload):
        sink._fh.flush()
        assert last_line(sink.path) == expect(payload)

    @pytest.mark.parametrize("vals", [(0, 0, 0, 0), (3, BIG, 7, 1_000_007)])
    def test_txn_start(self, sink, vals):
        sink.on_txn_start(*vals)
        self.check(sink, dict(zip(
            ("event", "core", "time", "attempt", "static_id"),
            ("txn_start", *vals),
        )))

    @pytest.mark.parametrize("vals", [(0, 0), (2, BIG)])
    def test_txn_commit(self, sink, vals):
        sink.on_txn_commit(*vals)
        self.check(sink, {"event": "txn_commit", "core": vals[0], "time": vals[1]})

    @pytest.mark.parametrize("cause", [c.value for c in AbortCause])
    @pytest.mark.parametrize("wasted", [0, BIG])
    def test_txn_abort(self, sink, cause, wasted):
        sink.on_txn_abort(1, 99, cause, wasted)
        self.check(sink, {"event": "txn_abort", "core": 1, "time": 99,
                          "cause": cause, "wasted_cycles": wasted})

    def test_txn_abort_unlisted_cause(self, tmp_path):
        # A cause outside AbortCause still encodes like json.dumps would
        # (the inner sink must be one that accepts any cause string).
        sink = JsonlTraceSink(tmp_path / "c.jsonl", inner=NullSink())
        cause = 'odd "cause"\u00e9\n'
        sink.on_txn_abort(0, 1, cause, 2)
        sink.close()
        assert last_line(sink.path) == expect({
            "event": "txn_abort", "core": 0, "time": 1, "cause": cause,
            "wasted_cycles": 2,
        })

    @pytest.mark.parametrize("ctype", list(ConflictType))
    @pytest.mark.parametrize("flags", [(False,) * 4, (True,) * 4,
                                       (True, False, True, False)])
    @pytest.mark.parametrize("masks", [(0, 0, 0), (BIG, 0b1100, BIG << 3)])
    def test_conflict(self, sink, ctype, flags, masks):
        is_false, is_write, forced, at_commit = flags
        rec = ConflictRecord(
            time=BIG, requester_core=1, victim_core=0, requester_txn=11,
            victim_txn=0, line_addr=BIG * 64, line_index=0, ctype=ctype,
            is_false=is_false, requester_is_write=is_write,
            requester_mask=masks[0], victim_read_mask=masks[1],
            victim_write_mask=masks[2], forced_waw=forced, at_commit=at_commit,
        )
        sink.on_conflict(rec)
        self.check(sink, {
            "event": "conflict", "time": BIG, "requester_core": 1,
            "victim_core": 0, "requester_txn": 11, "victim_txn": 0,
            "line_addr": BIG * 64, "line_index": 0, "ctype": ctype.value,
            "is_false": is_false, "requester_is_write": is_write,
            "requester_mask": masks[0], "victim_read_mask": masks[1],
            "victim_write_mask": masks[2], "forced_waw": forced,
            "at_commit": at_commit,
        })

    @pytest.mark.parametrize("is_write", BOOLS)
    @pytest.mark.parametrize("hit", BOOLS)
    @pytest.mark.parametrize("addr", [0, BIG])
    def test_access(self, sink, is_write, hit, addr):
        sink.on_access(3, addr, 63, is_write, hit)
        self.check(sink, {"event": "access", "core": 3, "line_addr": addr,
                          "offset": 63, "is_write": is_write, "hit_l1": hit})

    @pytest.mark.parametrize("cycles", [0, BIG])
    def test_backoff(self, sink, cycles):
        sink.on_backoff(1, cycles)
        self.check(sink, {"event": "backoff", "core": 1, "cycles": cycles})

    @pytest.mark.parametrize("aborted", BOOLS)
    @pytest.mark.parametrize("cycles", [0, 48])
    def test_stall(self, sink, aborted, cycles):
        sink.on_stall(2, BIG, cycles, aborted)
        self.check(sink, {"event": "stall", "core": 2, "time": BIG,
                          "cycles": cycles, "aborted": aborted})

    @pytest.mark.parametrize("vals", [(0, 0, 0), (1, BIG, 77)])
    def test_dirty_reprobe(self, sink, vals):
        sink.on_dirty_reprobe(*vals)
        self.check(sink, {"event": "dirty_reprobe", "core": vals[0],
                          "line_addr": vals[1], "time": vals[2]})

    @pytest.mark.parametrize("level", ["L2", "L3", "remote", "memory"])
    def test_fill(self, sink, level):
        sink.on_fill(0, BIG, level)
        self.check(sink, {"event": "fill", "core": 0, "line_addr": BIG,
                          "level": level})

    @pytest.mark.parametrize("per_core", [[], [0], [BIG, 0, 12]])
    def test_run_complete(self, tmp_path, per_core):
        sink = JsonlTraceSink(tmp_path / "r.jsonl")
        sink.on_run_complete(BIG, tuple(per_core))
        assert last_line(sink.path) == expect({
            "event": "run_complete", "execution_cycles": BIG,
            "per_core_cycles": per_core,
        })

    def test_every_hook_counts_one_event(self, sink):
        sink.on_txn_start(0, 1, 1, 0)
        sink.on_txn_commit(0, 2)
        sink.on_txn_abort(0, 3, "user", 1)
        sink.on_access(0, 64, 0, False, True)
        sink.on_backoff(0, 4)
        sink.on_stall(0, 5, 6, False)
        sink.on_dirty_reprobe(0, 64, 7)
        sink.on_fill(0, 64, "L2")
        assert sink.events_written == 8


class TypeRecorder(StatsCollector):
    """Records the Python type of every flag and scalar the kernel emits."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: dict[str, set[type]] = {}

    def _note(self, **fields) -> None:
        for name, value in fields.items():
            self.seen.setdefault(name, set()).add(type(value))

    def on_access(self, core, line_addr, offset, is_write, hit_l1):
        self._note(core=core, line_addr=line_addr, offset=offset,
                   is_write=is_write, hit_l1=hit_l1)
        super().on_access(core, line_addr, offset, is_write, hit_l1)

    def on_conflict(self, rec):
        self._note(**{f"conflict.{name}": getattr(rec, name) for name in (
            "time", "requester_core", "victim_core", "requester_txn",
            "victim_txn", "line_addr", "line_index", "requester_mask",
            "victim_read_mask", "victim_write_mask", "is_false",
            "requester_is_write", "forced_waw", "at_commit",
        )})
        super().on_conflict(rec)

    def on_stall(self, core, time, cycles, aborted):
        self._note(**{"stall.cycles": cycles, "stall.aborted": aborted,
                      "stall.time": time})
        super().on_stall(core, time, cycles, aborted)


BOOL_FIELDS = {
    "is_write", "hit_l1", "conflict.is_false", "conflict.requester_is_write",
    "conflict.forced_waw", "conflict.at_commit", "stall.aborted",
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "case", ["intruder-subblock-stall", "intruder-subblock-lazy-committer",
             "kmeans-subblock"],
)
def test_kernels_pass_real_bools_and_ints(case, kernel):
    cfg = case_config(case, kernel)
    scripts = get_workload(CASES[case][0], TXNS).build(cfg.n_cores, SEED)
    recorder = TypeRecorder()
    SimulationEngine(cfg, scripts, seed=SEED, stats=recorder,
                     check_atomicity=False).run()
    assert recorder.seen, "no events recorded"
    for name, types in recorder.seen.items():
        want = bool if name in BOOL_FIELDS else int
        assert types == {want}, f"{kernel}: {name} passed as {types}"
