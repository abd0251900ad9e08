"""Run statistics — the standard full-detail telemetry sink.

One :class:`StatsCollector` accumulates everything the paper's evaluation
reads off a run:

* conflict counts split true/false and WAR/RAW/WAW (Figures 1, 2, 9),
* the time of every false conflict and every transaction start
  (Figure 3's cumulative curves),
* false conflicts per cache-line index (Figure 4),
* access-start offsets within the line (Figure 5),
* aborts by cause, retries per transaction, commit counts,
* execution time (max core completion cycle, Figure 10),
* cache/probe traffic counters.

Since the telemetry refactor the collector *is* a
:class:`repro.telemetry.sinks.DetailSink`: the machine layers emit typed
events through the :class:`~repro.telemetry.events.EventSink` protocol
(``on_conflict``, ``on_access``, …) and the accumulation logic lives in
:mod:`repro.telemetry.sinks`.  This module keeps the historical name and
the sink-selection helper; :class:`ConflictCounts` is re-exported from
its new home.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.telemetry.sinks import ConflictCounts, DetailSink, JsonlTraceSink

__all__ = ["ConflictCounts", "StatsCollector", "build_sink"]


class StatsCollector(DetailSink):
    """Accumulates statistics for one simulation run.

    ``record_detail`` gates the per-event raw material (conflict/start
    timestamps, per-line and per-offset histograms — Figures 3-5).  It
    defaults to on; perf-sensitive sweeps that only read the aggregate
    counters turn it off, which swaps the recording hooks for cheap
    counter-only variants so the per-access hot path pays nothing for
    analysis it will never run.  The aggregate counters (conflicts,
    aborts, commits, hit/miss, cycles) are identical either way.
    """


def build_sink(
    config: SystemConfig,
    record_events: bool = False,
    record_detail: bool = True,
    metadata: dict | None = None,
):
    """Build ``(collector, sink)`` for a run per ``config.telemetry``.

    The collector is always a :class:`StatsCollector` (the object callers
    get back and read figures from); the sink is what the machine emits
    into — the collector itself, or a :class:`JsonlTraceSink` wrapping it
    when a trace export is requested.  ``sink="counters"`` downgrades the
    collector to counter-only hooks unless the caller explicitly needs
    events; ``sink="detail"``/``"trace"`` force the detail layer on.

    ``metadata`` extends the trace header's run context; the machine
    description (scheme, sub-blocks, line size, cores) is always included
    so a recorded trace is self-describing.
    """
    tcfg = config.telemetry
    if tcfg.sink == "counters":
        record_detail = False
    elif tcfg.sink in ("detail", "trace"):
        record_detail = True
    collector = StatsCollector(record_events, record_detail=record_detail)
    sink = collector
    if tcfg.trace_path is not None:
        header = {
            "scheme": config.htm.scheme.value,
            "n_subblocks": config.htm.n_subblocks,
            "line_size": config.line_size,
            "n_cores": config.n_cores,
        }
        if metadata:
            header.update(metadata)
        sink = JsonlTraceSink(
            tcfg.trace_path,
            inner=collector,
            trace_accesses=tcfg.trace_accesses,
            metadata=header,
        )
    return collector, sink
