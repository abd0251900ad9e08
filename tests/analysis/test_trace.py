"""Trace forensics: reader round-trip, header validation, torn-line
tolerance, and live-vs-replayed counter parity across schemes × workloads."""

from __future__ import annotations

import json

import pytest

from repro.analysis.trace import (
    TRACE_FIGURES,
    ConflictTimeline,
    TraceReader,
    analyze_trace,
    read_events,
)
from repro.config import DetectionScheme
from repro.errors import ConfigError
from repro.htm.conflict import ConflictType
from repro.sim.runner import default_system, run_workload
from repro.telemetry.events import (
    ConflictEvent,
    RunCompleteEvent,
    TxnAbortEvent,
    TxnCommitEvent,
    TxnStartEvent,
)
from repro.telemetry.sinks import JsonlTraceSink
from repro.workloads.registry import get_workload

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)
WORKLOADS = ("kmeans", "vacation", "intruder")


def record_trace(tmp_path, workload="kmeans", scheme=DetectionScheme.ASF_BASELINE,
                 seed=3, txns=60, accesses=True, name="t.jsonl"):
    """Run a small workload with a trace export; returns (path, result)."""
    path = str(tmp_path / name)
    cfg = default_system(scheme, 4).with_telemetry(
        sink="trace", trace_path=path, trace_accesses=accesses,
    )
    res = run_workload(
        get_workload(workload, txns), cfg, seed=seed, check_atomicity=False
    )
    return path, res


HEADER = json.dumps({
    "event": "trace_header", "schema": "repro-asf-trace", "major": 1,
    "minor": 1, "trace_accesses": False, "metadata": {},
}) + "\n"
START = '{"event":"txn_start","core":0,"time":1,"attempt":1,"static_id":7}\n'


def drive(sink) -> None:
    """Fixed mini-run touching start/abort/conflict/commit/complete."""
    sink.on_txn_start(0, 10, 1, 42)
    sink.on_txn_start(1, 12, 1, 1_000_007)
    sink.on_conflict(
        ConflictEvent(
            time=20, requester_core=1, victim_core=0, requester_txn=11,
            victim_txn=10, line_addr=192, line_index=3,
            ctype=ConflictType.WAR, is_false=True, requester_is_write=True,
            requester_mask=0b0011, victim_read_mask=0b1100,
            victim_write_mask=0, forced_waw=False,
        )
    )
    sink.on_txn_abort(0, 25, "conflict_false", 15)
    sink.on_backoff(0, 30)
    sink.on_txn_commit(1, 40)
    sink.on_txn_start(0, 60, 2, 42)
    sink.on_txn_commit(0, 90)
    sink.on_run_complete(90, [90, 40])


class TestTraceReader:
    def test_round_trip_is_typed_and_faithful(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path, metadata={"seed": 9})
        drive(sink)
        header, events = read_events(path)
        assert header.major == 1 and header.metadata["seed"] == 9
        kinds = [type(e).__name__ for e in events]
        assert kinds[0] == "TxnStartEvent"
        assert kinds[-1] == "RunCompleteEvent"
        starts = [e for e in events if isinstance(e, TxnStartEvent)]
        assert [s.static_id for s in starts] == [42, 1_000_007, 42]
        (conflict,) = [e for e in events if isinstance(e, ConflictEvent)]
        assert conflict.is_false and conflict.requester_mask == 0b0011
        assert conflict.ctype is ConflictType.WAR
        (abort,) = [e for e in events if isinstance(e, TxnAbortEvent)]
        assert abort.cause == "conflict_false" and abort.wasted_cycles == 15
        assert sum(isinstance(e, TxnCommitEvent) for e in events) == 2
        (done,) = [e for e in events if isinstance(e, RunCompleteEvent)]
        assert done.per_core_cycles == (90, 40)

    def test_full_run_round_trips_every_event(self, tmp_path):
        path, res = record_trace(tmp_path)
        with TraceReader(path) as reader:
            n = sum(1 for _ in reader)
            assert not reader.truncated
            assert reader.unknown_events == 0
        assert n == reader.events_read > 0

    def test_torn_final_line_tolerated(self, tmp_path):
        path, _ = record_trace(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.splitlines(keepends=True)
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        torn_path = str(tmp_path / "torn.jsonl")
        with open(torn_path, "wb") as fh:
            fh.write(torn)
        with TraceReader(torn_path) as reader:
            events = list(reader)
            assert reader.truncated
        assert len(events) == len(lines) - 2  # header + torn line dropped

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"event":"txn_start","core":0,"time":1,'
                        '"attempt":1,"static_id":0}\n')
        with pytest.raises(ConfigError, match="no trace schema header"):
            TraceReader(str(path))

    def test_unknown_major_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({
            "event": "trace_header", "schema": "repro-asf-trace",
            "major": 2, "minor": 0, "trace_accesses": False, "metadata": {},
        }) + "\n")
        with pytest.raises(ConfigError, match="major version 2"):
            TraceReader(str(path))

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({
            "event": "trace_header", "schema": "someone-elses",
            "major": 1, "minor": 0,
        }) + "\n")
        with pytest.raises(ConfigError, match="someone-elses"):
            TraceReader(str(path))

    def test_newer_minor_and_unknown_kinds_skipped(self, tmp_path):
        path = tmp_path / "minor.jsonl"
        path.write_text(
            json.dumps({
                "event": "trace_header", "schema": "repro-asf-trace",
                "major": 1, "minor": 99, "trace_accesses": False,
                "metadata": {},
            }) + "\n"
            + '{"event":"hologram","core":0}\n'
            + '{"event":"txn_start","core":0,"time":1,"attempt":1,'
              '"static_id":7}\n'
        )
        with TraceReader(str(path)) as reader:
            events = list(reader)
            assert reader.unknown_events == 1
        assert len(events) == 1 and events[0].static_id == 7

    def test_malformed_known_event_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({
                "event": "trace_header", "schema": "repro-asf-trace",
                "major": 1, "minor": 0, "trace_accesses": False,
                "metadata": {},
            }) + "\n"
            + '{"event":"txn_start","core":0}\n'
        )
        with pytest.raises(ConfigError, match="malformed 'txn_start'"):
            list(TraceReader(str(path)))

    @pytest.mark.parametrize("line", ["[1,2]", "3", '"x"', "null", "true"])
    def test_non_object_line_raises_with_location(self, tmp_path, line):
        path = tmp_path / "nonobj.jsonl"
        path.write_text(HEADER + START + line + "\n" + START)
        with pytest.raises(ConfigError, match=r"nonobj\.jsonl:3: expected a JSON object"):
            read_events(path)

    @pytest.mark.parametrize("bad", [
        '{"event":"txn_commit","core":0,"time":2}xyz',  # trailing garbage
        '{"event":"txn_commit","core":0,"time":2}{}',   # a second value
        "",                                            # blank line
        "   ",                                         # whitespace only
        '{"event":"txn_commit","core":0,',             # value cut short
        "{not json}",
    ])
    def test_unparseable_complete_line_ends_stream_truncated(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER + START + bad + "\n" + START)
        with TraceReader(path) as reader:
            events = list(reader)
            assert reader.truncated
        assert len(events) == 1 and reader.events_read == 1

    def test_whitespace_around_a_value_is_accepted(self, tmp_path):
        # The same lines json.loads accepts: surrounding blanks, tabs, \r.
        path = tmp_path / "ws.jsonl"
        path.write_text(
            HEADER + " \t" + START.rstrip("\n") + " \r\n" + START, newline=""
        )
        with TraceReader(path) as reader:
            assert len(list(reader)) == 2
            assert not reader.truncated

    def test_non_object_header_rejected(self, tmp_path):
        path = tmp_path / "listhead.jsonl"
        path.write_text("[1,2]\n" + START)
        with pytest.raises(ConfigError, match="no trace schema header"):
            TraceReader(path)


class TestCounterParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_replayed_counters_match_live_run(self, tmp_path, workload, scheme):
        """Trace-replayed counters equal the live run's, bit for bit."""
        path, res = record_trace(
            tmp_path, workload=workload, scheme=scheme, txns=40,
            accesses=True,
        )
        timeline = ConflictTimeline.from_trace(path)
        live = res.stats.summary()
        replayed = timeline.parity_summary()
        shared = set(live) & set(replayed)
        assert {"conflicts_total", "aborts_total", "txn_commits",
                "execution_cycles", "l1_hits"} <= shared
        assert {k: live[k] for k in shared} == {
            k: replayed[k] for k in shared
        }

    def test_accessless_trace_drops_access_counters(self, tmp_path):
        path, res = record_trace(tmp_path, accesses=False)
        timeline = ConflictTimeline.from_trace(path)
        replayed = timeline.parity_summary()
        assert "l1_hits" not in replayed and "l1_misses" not in replayed
        live = res.stats.summary()
        shared = set(live) & set(replayed)
        assert {k: live[k] for k in shared} == {
            k: replayed[k] for k in shared
        }


class TestConflictTimeline:
    def test_event_subclasses_fold_like_their_base(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        drive(JsonlTraceSink(path))
        _, events = read_events(path)
        subclassed = {
            base: type(f"Sub{base.__name__}", (base,), {"__slots__": ()})
            for base in {type(e) for e in events}
        }
        derived = [
            subclassed[type(e)](*(getattr(e, f) for f in e.__slots__))
            for e in events
        ]
        assert all(type(e) is not type(d) for e, d in zip(events, derived))
        base_tl = ConflictTimeline.from_events(events)
        sub_tl = ConflictTimeline.from_events(derived)
        assert sub_tl.summary() == base_tl.summary()
        assert len(sub_tl.attempts) == len(base_tl.attempts) == 3
        assert len(sub_tl.conflicts) == len(base_tl.conflicts) == 1

    def test_unknown_objects_are_ignored(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        drive(JsonlTraceSink(path))
        _, events = read_events(path)
        noise = [object(), "txn_start", 42, {"event": "txn_commit"}, None]
        mixed = [x for pair in zip(events, noise * 3) for x in pair]
        assert ConflictTimeline.from_events(mixed).summary() == (
            ConflictTimeline.from_events(events).summary()
        )

    def test_attempts_and_victim_attribution(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        drive(JsonlTraceSink(path))
        timeline = ConflictTimeline.from_trace(path)
        assert len(timeline.attempts) == 3
        aborted = timeline.attempts[0]
        assert aborted.outcome == "conflict_false"
        assert (aborted.start, aborted.end) == (10, 25)
        ((conflict, victim_idx),) = timeline.conflicts
        assert victim_idx == 0  # tied to the attempt it killed
        assert timeline.wasted_by_static[42] == 15
        assert timeline.commits_by_static[42] == 1

    def test_lifetime_histogram_totals_and_validation(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        hist = timeline.conflict_lifetime_histogram(bins=10)
        closed_false = sum(
            1 for c, i in timeline.conflicts
            if c.is_false and i is not None
            and timeline.attempts[i].end is not None
        )
        assert sum(hist) == closed_false
        with pytest.raises(ConfigError):
            timeline.conflict_lifetime_histogram(bins=0)

    def test_line_ranking_is_hottest_first(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        ranked = timeline.line_ranking()
        counts = [n for _, _, n in ranked]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == sum(n for _, n in timeline.line_histogram())

    def test_subblock_histogram_folds_offsets(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        by_byte = timeline.conflict_offset_histogram()
        by_sub = timeline.conflict_subblock_histogram(4)
        assert len(by_sub) == 4
        assert sum(n for _, n in by_sub) == sum(n for _, n in by_byte)
        with pytest.raises(ConfigError):
            timeline.conflict_subblock_histogram(7)  # 64 % 7 != 0

    def test_cascades_cover_every_conflict(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        cascades = timeline.abort_cascades(window=5000)
        assert sum(cascades.depths.values()) == len(timeline.conflicts)
        # A zero window cannot link anything: all conflicts are roots.
        roots_only = timeline.abort_cascades(window=0)
        assert roots_only.max_depth <= 1

    def test_wasted_ranking_accounts_all_cycles(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        ranked = timeline.wasted_cycle_ranking()
        assert sum(w for *_, w in ranked) == timeline.counters.wasted_cycles


class TestAnalyzeTrace:
    def test_report_contains_every_section(self, tmp_path):
        path, _ = record_trace(tmp_path)
        report = analyze_trace(path)
        for marker in ("Trace-derived run counters", "Figure 3", "Figure 4",
                       "Figure 5", "Forensics report"):
            assert marker in report

    def test_figure_selection(self, tmp_path):
        path, _ = record_trace(tmp_path)
        report = analyze_trace(path, figs=("4",))
        assert "Figure 4" in report
        assert "Figure 3" not in report and "Figure 5" not in report

    def test_unknown_figure_rejected(self, tmp_path):
        path, _ = record_trace(tmp_path)
        with pytest.raises(ConfigError, match="figure"):
            analyze_trace(path, figs=("9",))
        assert set(TRACE_FIGURES) == {"3", "4", "5"}

    def test_from_events_matches_from_trace(self, tmp_path):
        path, _ = record_trace(tmp_path)
        header, events = read_events(path)
        a = ConflictTimeline.from_trace(path)
        b = ConflictTimeline.from_events(events, header=header)
        assert a.summary() == b.summary()
        assert a.conflict_lifetime_histogram() == b.conflict_lifetime_histogram()
