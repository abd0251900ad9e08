"""Standard :class:`~repro.telemetry.events.EventSink` implementations.

Three sinks cover the evaluation's needs:

* :class:`CounterSink` — aggregate counters only.  The hot-path default
  for sweeps and pooled workers: every hook is a few integer adds.
* :class:`DetailSink` — counters **plus** the per-event raw material the
  paper's Figures 3–5 read (timestamps, per-line and per-offset
  histograms, optionally the full conflict-record list).  With
  ``record_detail=False`` it swaps its hooks for the inherited
  counter-only ones, so a detail-capable sink costs nothing when detail
  is off (the aggregate counters are identical either way — the parity
  tests assert it).
* :class:`JsonlTraceSink` — streams every event as one JSON line for
  offline analysis, forwarding to an inner sink so counters still
  accumulate.  Unknown attribute reads proxy to the inner sink, so a
  trace-wrapped collector still answers ``summary()`` etc.

:class:`ConflictCounts` lives here (re-exported by :mod:`repro.sim.stats`
for compatibility) because every sink and summary shares it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ConflictCounts",
    "CounterSink",
    "DetailSink",
    "JsonlTraceSink",
    "SUMMARY_KEYS",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_MAJOR",
    "TRACE_SCHEMA_MINOR",
    "cumulative_series",
    "summary_dict",
]

#: Schema identity of the JSONL trace format.  The header line every
#: :class:`JsonlTraceSink` writes first carries these; readers accept any
#: minor revision of a known major and reject everything else up front
#: (:class:`repro.analysis.trace.TraceReader`).  Bump the major on any
#: change that would misread existing consumers (field removal/renaming),
#: the minor for additive changes (new event kinds, new optional fields).
TRACE_SCHEMA = "repro-asf-trace"
TRACE_SCHEMA_MAJOR = 1
# Minor 1: added the "stall" event kind and the optional "at_commit"
# conflict field (policy-matrix stall/backoff + lazy-commit arbitration).
TRACE_SCHEMA_MINOR = 1


@dataclass(slots=True)
class ConflictCounts:
    """Counts of detected conflicts, split by ground truth and type."""

    true_raw: int = 0
    true_war: int = 0
    true_waw: int = 0
    false_raw: int = 0
    false_war: int = 0
    false_waw: int = 0

    def add(self, ctype, is_false: bool) -> None:
        key = ("false_" if is_false else "true_") + ctype.value.lower()
        setattr(self, key, getattr(self, key) + 1)

    def merge(self, other: "ConflictCounts") -> None:
        """Accumulate another run's counts into this one (field-wise sum)."""
        self.true_raw += other.true_raw
        self.true_war += other.true_war
        self.true_waw += other.true_waw
        self.false_raw += other.false_raw
        self.false_war += other.false_war
        self.false_waw += other.false_waw

    def copy(self) -> "ConflictCounts":
        return ConflictCounts(
            true_raw=self.true_raw,
            true_war=self.true_war,
            true_waw=self.true_waw,
            false_raw=self.false_raw,
            false_war=self.false_war,
            false_waw=self.false_waw,
        )

    @property
    def total(self) -> int:
        return (
            self.true_raw
            + self.true_war
            + self.true_waw
            + self.false_raw
            + self.false_war
            + self.false_waw
        )

    @property
    def total_false(self) -> int:
        return self.false_raw + self.false_war + self.false_waw

    @property
    def total_true(self) -> int:
        return self.total - self.total_false

    @property
    def false_rate(self) -> float:
        """Fraction of all conflicts that are false (Figure 1)."""
        return self.total_false / self.total if self.total else 0.0

    def false_breakdown(self) -> dict[str, float]:
        """WAR/RAW/WAW shares of the false conflicts (Figure 2)."""
        tot = self.total_false
        if not tot:
            return {"WAR": 0.0, "RAW": 0.0, "WAW": 0.0}
        return {
            "WAR": self.false_war / tot,
            "RAW": self.false_raw / tot,
            "WAW": self.false_waw / tot,
        }


#: Integer counter attributes shared by every counting sink and by
#: :class:`~repro.telemetry.summary.RunSummary`.  One list so the
#: summary/merge code cannot drift out of sync with the sinks.
COUNTER_FIELDS = (
    "txn_attempts",
    "txn_commits",
    "aborts_conflict_true",
    "aborts_conflict_false",
    "aborts_capacity",
    "aborts_user",
    "aborts_validation",
    "wasted_cycles",
    "backoff_cycles",
    "l1_hits",
    "l1_misses",
    "dirty_reprobes",
    "forced_waw_aborts",
    "fills_l2",
    "fills_l3",
    "fills_memory",
    "fills_remote",
    "stalls",
    "stall_cycles",
    "stall_aborts",
    "arbitration_aborts",
)


def summary_dict(s) -> dict[str, object]:
    """Flat summary used by reports and the EXPERIMENTS index.

    Works on anything exposing the counter attributes (``CounterSink``,
    ``StatsCollector``, ``RunSummary``) — one implementation so the
    summary-transfer parity guarantee is bit-for-bit by construction.
    """
    return {
        "txn_attempts": s.txn_attempts,
        "txn_commits": s.txn_commits,
        "aborts_total": s.total_aborts,
        "aborts_conflict_true": s.aborts_conflict_true,
        "aborts_conflict_false": s.aborts_conflict_false,
        "aborts_capacity": s.aborts_capacity,
        "aborts_user": s.aborts_user,
        "aborts_validation": s.aborts_validation,
        "conflicts_total": s.conflicts.total,
        "conflicts_false": s.conflicts.total_false,
        "false_rate": s.conflicts.false_rate,
        "avg_retries": s.avg_retries,
        "execution_cycles": s.execution_cycles,
        "wasted_cycles": s.wasted_cycles,
        "backoff_cycles": s.backoff_cycles,
        "l1_hits": s.l1_hits,
        "l1_misses": s.l1_misses,
        "dirty_reprobes": s.dirty_reprobes,
        "forced_waw_aborts": s.forced_waw_aborts,
        "fills_l2": s.fills_l2,
        "fills_l3": s.fills_l3,
        "fills_memory": s.fills_memory,
        "fills_remote": s.fills_remote,
        "stalls": s.stalls,
        "stall_cycles": s.stall_cycles,
        "stall_aborts": s.stall_aborts,
        "arbitration_aborts": s.arbitration_aborts,
    }


class CounterSink:
    """Aggregate counters only — the per-event cost is a few integer adds."""

    kind = "counters"

    def __init__(self) -> None:
        self.conflicts = ConflictCounts()
        self.txn_attempts: int = 0
        self.txn_commits: int = 0
        self.aborts_conflict_true: int = 0
        self.aborts_conflict_false: int = 0
        self.aborts_capacity: int = 0
        self.aborts_user: int = 0
        self.aborts_validation: int = 0
        self.retries_by_static: Counter[int] = Counter()
        self.wasted_cycles: int = 0
        self.backoff_cycles: int = 0
        self.l1_hits: int = 0
        self.l1_misses: int = 0
        self.dirty_reprobes: int = 0
        self.forced_waw_aborts: int = 0
        # L1-miss fills by supplying level (emitted by MemorySystem).
        self.fills_l2: int = 0
        self.fills_l3: int = 0
        self.fills_memory: int = 0
        self.fills_remote: int = 0
        # Policy-matrix counters: stall/backoff resolution and
        # lazy-detection commit arbitration (zero under plain ASF).
        self.stalls: int = 0
        self.stall_cycles: int = 0
        self.stall_aborts: int = 0
        self.arbitration_aborts: int = 0
        # Filled in by on_run_complete.
        self.execution_cycles: int = 0
        self.per_core_cycles: list[int] = []

    # -- event hooks ---------------------------------------------------------

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        self.txn_attempts += 1
        if attempt > 1:
            self.retries_by_static[static_id] += 1

    def on_txn_commit(self, core: int, time: int) -> None:
        self.txn_commits += 1

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        name = "aborts_" + cause
        setattr(self, name, getattr(self, name) + 1)
        self.wasted_cycles += wasted_cycles

    def on_conflict(self, rec) -> None:
        self.conflicts.add(rec.ctype, rec.is_false)
        if rec.forced_waw:
            self.forced_waw_aborts += 1
        if getattr(rec, "at_commit", False):
            self.arbitration_aborts += 1

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        if hit_l1:
            self.l1_hits += 1
        else:
            self.l1_misses += 1

    def on_backoff(self, core: int, cycles: int) -> None:
        self.backoff_cycles += cycles

    def on_stall(self, core: int, time: int, cycles: int, aborted: bool) -> None:
        if aborted:
            self.stall_aborts += 1
        else:
            self.stalls += 1
            self.stall_cycles += cycles

    def on_dirty_reprobe(self, core: int, line_addr: int, time: int) -> None:
        self.dirty_reprobes += 1

    def on_fill(self, core: int, line_addr: int, level: str) -> None:
        if level == "L2":
            self.fills_l2 += 1
        elif level == "L3":
            self.fills_l3 += 1
        elif level == "remote":
            self.fills_remote += 1
        else:
            self.fills_memory += 1

    def on_run_complete(
        self, execution_cycles: int, per_core_cycles: Sequence[int]
    ) -> None:
        self.execution_cycles = execution_cycles
        self.per_core_cycles = list(per_core_cycles)

    # -- derived metrics -----------------------------------------------------

    @property
    def total_aborts(self) -> int:
        return (
            self.aborts_conflict_true
            + self.aborts_conflict_false
            + self.aborts_capacity
            + self.aborts_user
            + self.aborts_validation
        )

    @property
    def avg_retries(self) -> float:
        """Average attempts per *committed* transaction."""
        if not self.txn_commits:
            return 0.0
        return self.txn_attempts / self.txn_commits

    def summary(self) -> dict[str, object]:
        return summary_dict(self)


class DetailSink(CounterSink):
    """Counters plus the per-event raw material of Figures 3–5.

    ``record_detail`` gates the detail layer: when off, the recording
    hooks are swapped once for the inherited counter-only variants so
    the per-access hot path pays nothing for analysis it will never run
    (same trick the original collector used).  ``record_events``
    additionally keeps every conflict record for the open-loop Figure 8
    replay, and implies ``record_detail``.
    """

    kind = "detail"

    def __init__(self, record_events: bool = False, record_detail: bool = True) -> None:
        super().__init__()
        self.record_events = record_events
        # Full event recording is meaningless without the detail layer.
        self.record_detail = record_detail or record_events

        self.conflict_events: list = []

        # Figure 3 raw material: event times.
        self.false_conflict_times: list[int] = []
        self.txn_start_times: list[int] = []

        # Figure 4: false conflicts per dense line index.
        self.false_by_line: Counter[int] = Counter()

        # Figure 5: access starts by byte offset within the line,
        # split by direction.
        self.access_offsets_read: Counter[int] = Counter()
        self.access_offsets_write: Counter[int] = Counter()

        if not self.record_detail:
            # Swap in the counter-only hooks once, instead of branching on
            # every one of the millions of per-access calls.
            self.on_conflict = CounterSink.on_conflict.__get__(self)  # type: ignore[method-assign]
            self.on_txn_start = CounterSink.on_txn_start.__get__(self)  # type: ignore[method-assign]
            self.on_access = CounterSink.on_access.__get__(self)  # type: ignore[method-assign]

    # -- detail-recording hooks ---------------------------------------------

    def on_conflict(self, rec) -> None:
        self.conflicts.add(rec.ctype, rec.is_false)
        if rec.is_false:
            self.false_conflict_times.append(rec.time)
            self.false_by_line[rec.line_index] += 1
        if rec.forced_waw:
            self.forced_waw_aborts += 1
        if getattr(rec, "at_commit", False):
            self.arbitration_aborts += 1
        if self.record_events:
            self.conflict_events.append(rec)

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        self.txn_attempts += 1
        self.txn_start_times.append(time)
        if attempt > 1:
            self.retries_by_static[static_id] += 1

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        if is_write:
            self.access_offsets_write[offset] += 1
        else:
            self.access_offsets_read[offset] += 1
        if hit_l1:
            self.l1_hits += 1
        else:
            self.l1_misses += 1

    # -- detail readers (Figures 3-5) ---------------------------------------

    def cumulative_false_series(self, n_points: int = 100) -> list[tuple[int, int]]:
        """(time, cumulative false conflicts) sampled at n_points (Fig. 3)."""
        return _cumulative(self.false_conflict_times, self.execution_cycles, n_points)

    def cumulative_starts_series(self, n_points: int = 100) -> list[tuple[int, int]]:
        """(time, cumulative started transactions) (Fig. 3)."""
        return _cumulative(self.txn_start_times, self.execution_cycles, n_points)

    def line_histogram(self) -> list[tuple[int, int]]:
        """(line index, false conflicts) sorted by line index (Fig. 4)."""
        return sorted(self.false_by_line.items())

    def offset_histogram(self) -> list[tuple[int, int]]:
        """(byte offset, accesses) over all accesses (Fig. 5)."""
        merged: Counter[int] = Counter()
        merged.update(self.access_offsets_read)
        merged.update(self.access_offsets_write)
        return sorted(merged.items())


#: JSON literal of a bool flag, indexed by the flag itself.
_JSON_BOOL = ("false", "true")


class _JsonStrings(dict):
    """``str`` → its JSON literal, encoded once per distinct string.

    Abort causes, fill levels and conflict types come from small fixed
    sets, so every lookup after the first is a dict hit.
    """

    def __missing__(self, text: str) -> str:
        literal = self[text] = json.dumps(text)
        return literal


# One %-template per event kind.  Each formats to exactly
# ``json.dumps(payload, separators=(",", ":")) + "\n"`` of the event's
# payload dict (keys in this order): ints go through %d, bool flags
# through _JSON_BOOL and strings through a _JsonStrings cache.
_TXN_START = '{"event":"txn_start","core":%d,"time":%d,"attempt":%d,"static_id":%d}\n'
_TXN_COMMIT = '{"event":"txn_commit","core":%d,"time":%d}\n'
_TXN_ABORT = '{"event":"txn_abort","core":%d,"time":%d,"cause":%s,"wasted_cycles":%d}\n'
_CONFLICT = (
    '{"event":"conflict","time":%d,"requester_core":%d,"victim_core":%d,'
    '"requester_txn":%d,"victim_txn":%d,"line_addr":%d,"line_index":%d,'
    '"ctype":%s,"is_false":%s,"requester_is_write":%s,"requester_mask":%d,'
    '"victim_read_mask":%d,"victim_write_mask":%d,"forced_waw":%s,'
    '"at_commit":%s}\n'
)
_ACCESS = (
    '{"event":"access","core":%d,"line_addr":%d,"offset":%d,'
    '"is_write":%s,"hit_l1":%s}\n'
)
_BACKOFF = '{"event":"backoff","core":%d,"cycles":%d}\n'
_STALL = '{"event":"stall","core":%d,"time":%d,"cycles":%d,"aborted":%s}\n'
_DIRTY_REPROBE = '{"event":"dirty_reprobe","core":%d,"line_addr":%d,"time":%d}\n'
_FILL = '{"event":"fill","core":%d,"line_addr":%d,"level":%s}\n'
_RUN_COMPLETE = '{"event":"run_complete","execution_cycles":%d,"per_core_cycles":[%s]}\n'


class JsonlTraceSink:
    """Streams events as JSON lines and forwards them to an inner sink.

    The first line is always a schema header::

        {"event": "trace_header", "schema": "repro-asf-trace",
         "major": 1, "minor": 0, "trace_accesses": false,
         "metadata": {...caller-supplied run context...}}

    then one line per event, ``{"event": <kind>, ...scalar fields}``,
    written in emission order — deterministic for a deterministic run.
    Per-access events dominate trace volume, so they are gated behind
    ``trace_accesses`` (off by default); everything else is always
    written.  ``on_run_complete`` writes the final marker and closes the
    file.  Attribute reads the trace sink does not define (``summary``,
    counters, …) proxy to the inner sink.

    Event lines are rendered from one pre-formatted ``%``-template per
    event kind rather than by building a dict for ``json.dumps``.  The
    output is byte-identical to ``json.dumps(payload,
    separators=(",", ":"))`` provided the hooks receive what the
    :class:`~repro.telemetry.events.EventSink` signatures say: plain
    ``int`` for cores, times, counts and masks, real ``bool`` for flags
    (an ``int`` 0/1 flag would print ``true``/``false`` where
    ``json.dumps`` prints ``1``/``0``) and ``str`` for causes and fill
    levels.  ``tests/telemetry/test_trace_format.py`` holds the frozen
    digest oracle, the per-kind line contract and the kernel type pin
    that keep this true.

    ``metadata`` is free-form JSON-safe run context (scheme, seed,
    workload, …) carried verbatim in the header for post-mortem analysis;
    it never affects how events are written or read.
    """

    kind = "trace"

    def __init__(
        self,
        path,
        inner=None,
        trace_accesses: bool = False,
        metadata: dict | None = None,
    ) -> None:
        self.path = path
        self.inner = inner if inner is not None else CounterSink()
        self.trace_accesses = trace_accesses
        self.metadata = dict(metadata) if metadata else {}
        self.events_written = 0
        self._fh = open(path, "w", encoding="utf-8")
        self._write = self._fh.write
        self._json_str = _JsonStrings()
        # The header is format framing, not an event: written directly so
        # events_written stays the count of simulation events.
        self._write(
            json.dumps(
                {
                    "event": "trace_header",
                    "schema": TRACE_SCHEMA,
                    "major": TRACE_SCHEMA_MAJOR,
                    "minor": TRACE_SCHEMA_MINOR,
                    "trace_accesses": self.trace_accesses,
                    "metadata": self.metadata,
                },
                separators=(",", ":"),
            )
            + "\n"
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __getattr__(self, name: str):
        # Only reached for attributes not defined on the trace sink
        # itself: proxy counters/summary/etc. to the inner sink.
        return getattr(self.inner, name)

    # -- event hooks ---------------------------------------------------------

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        self._write(_TXN_START % (core, time, attempt, static_id))
        self.events_written += 1
        self.inner.on_txn_start(core, time, attempt, static_id)

    def on_txn_commit(self, core: int, time: int) -> None:
        self._write(_TXN_COMMIT % (core, time))
        self.events_written += 1
        self.inner.on_txn_commit(core, time)

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        self._write(_TXN_ABORT % (core, time, self._json_str[cause], wasted_cycles))
        self.events_written += 1
        self.inner.on_txn_abort(core, time, cause, wasted_cycles)

    def on_conflict(self, rec) -> None:
        self._write(
            _CONFLICT
            % (
                rec.time,
                rec.requester_core,
                rec.victim_core,
                rec.requester_txn,
                rec.victim_txn,
                rec.line_addr,
                rec.line_index,
                self._json_str[rec.ctype.value],
                _JSON_BOOL[rec.is_false],
                _JSON_BOOL[rec.requester_is_write],
                rec.requester_mask,
                rec.victim_read_mask,
                rec.victim_write_mask,
                _JSON_BOOL[rec.forced_waw],
                _JSON_BOOL[getattr(rec, "at_commit", False)],
            )
        )
        self.events_written += 1
        self.inner.on_conflict(rec)

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        if self.trace_accesses:
            self._write(
                _ACCESS
                % (core, line_addr, offset, _JSON_BOOL[is_write], _JSON_BOOL[hit_l1])
            )
            self.events_written += 1
        self.inner.on_access(core, line_addr, offset, is_write, hit_l1)

    def on_backoff(self, core: int, cycles: int) -> None:
        self._write(_BACKOFF % (core, cycles))
        self.events_written += 1
        self.inner.on_backoff(core, cycles)

    def on_stall(self, core: int, time: int, cycles: int, aborted: bool) -> None:
        self._write(_STALL % (core, time, cycles, _JSON_BOOL[aborted]))
        self.events_written += 1
        self.inner.on_stall(core, time, cycles, aborted)

    def on_dirty_reprobe(self, core: int, line_addr: int, time: int) -> None:
        self._write(_DIRTY_REPROBE % (core, line_addr, time))
        self.events_written += 1
        self.inner.on_dirty_reprobe(core, line_addr, time)

    def on_fill(self, core: int, line_addr: int, level: str) -> None:
        self._write(_FILL % (core, line_addr, self._json_str[level]))
        self.events_written += 1
        self.inner.on_fill(core, line_addr, level)

    def on_run_complete(
        self, execution_cycles: int, per_core_cycles: Sequence[int]
    ) -> None:
        per_core = ",".join(["%d" % cycles for cycles in per_core_cycles])
        self._write(_RUN_COMPLETE % (execution_cycles, per_core))
        self.events_written += 1
        self.inner.on_run_complete(execution_cycles, per_core_cycles)
        self.close()


def cumulative_series(
    times: list[int], horizon: int, n_points: int
) -> list[tuple[int, int]]:
    """Sample a cumulative count of sorted-ish event times at n_points.

    The Figure 3 primitive, shared by :class:`DetailSink` (live runs) and
    :class:`repro.analysis.trace.ConflictTimeline` (recorded traces) so
    both paths bin identically.
    """
    if horizon <= 0:
        horizon = max(times, default=1)
    ordered = sorted(times)
    out: list[tuple[int, int]] = []
    idx = 0
    for k in range(1, n_points + 1):
        t = horizon * k // n_points
        while idx < len(ordered) and ordered[idx] <= t:
            idx += 1
        out.append((t, idx))
    return out


#: Backwards-compatible private alias (pre-facade name).
_cumulative = cumulative_series


SUMMARY_KEYS = (
    "txn_attempts",
    "txn_commits",
    "aborts_total",
    "aborts_conflict_true",
    "aborts_conflict_false",
    "aborts_capacity",
    "aborts_user",
    "aborts_validation",
    "conflicts_total",
    "conflicts_false",
    "false_rate",
    "avg_retries",
    "execution_cycles",
    "wasted_cycles",
    "backoff_cycles",
    "l1_hits",
    "l1_misses",
    "dirty_reprobes",
    "forced_waw_aborts",
    "fills_l2",
    "fills_l3",
    "fills_memory",
    "fills_remote",
    "stalls",
    "stall_cycles",
    "stall_aborts",
    "arbitration_aborts",
)
"""Keys of :func:`summary_dict`, in emission order."""
