"""Span recorder and outside-in timing shims for perfbench's traced passes.

Every shim replaces a public function, method or object of one ``repro``
layer with a wrapper that times the call with ``perf_counter_ns`` and
counts it.  Nothing under ``src/`` changes: the wrappers are installed
by :func:`install_sim_layers` in the pass interpreter only.

Spans are ``[id, name, start_ns, end_ns, parent_id, spec]`` lists kept in
memory and written out once at the end.  Per-call layers (kernel methods,
sink hooks) are too hot for one span per call; each ``engine.run`` span
instead gets one synthetic child per kernel entry point holding the
summed call time, so self time stays "duration minus covered child time".
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

now_ns = time.perf_counter_ns

#: Machine methods the engine binds at ``run()`` time.
KERNEL_ACCESS = ("access",)
KERNEL_TXN = ("new_txn", "begin_txn", "commit", "abort_self")


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.spec = ""

    @contextmanager
    def span(self, name: str):
        rec = [
            len(self.spans), name, now_ns(), 0,
            self._stack[-1] if self._stack else -1, self.spec,
        ]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = now_ns()
            self._stack.pop()

    def aggregate(self, parent: list, name: str, total_ns: int) -> None:
        """A synthetic child of ``parent`` covering ``total_ns`` of it."""
        self.spans.append(
            [len(self.spans), name, parent[2], parent[2] + total_ns,
             parent[0], parent[5]]
        )

    # -- derived figures -----------------------------------------------------

    def total_s(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def self_s(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        covered: Counter = Counter()
        for s in self.spans:
            if s[4] >= 0:
                covered[s[4]] += s[3] - s[2]
        return sum(
            s[3] - s[2] - covered[s[0]] for s in self.spans if s[1] == name
        ) / 1e9

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start_ns", "end_ns", "parent", "spec"), s
                ))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _counting(fn, acc: list):
    """Wrap a hot per-call function; ``acc`` collects ``[calls, ns]``."""

    def wrapped(*args, **kwargs):
        t0 = now_ns()
        out = fn(*args, **kwargs)
        acc[1] += now_ns() - t0
        acc[0] += 1
        return out

    return wrapped


def wrap_sink(sink, acc: list) -> None:
    """Time every ``on_*`` event hook of one sink instance."""
    for name in dir(sink):
        if name.startswith("on_"):
            setattr(sink, name, _counting(getattr(sink, name), acc))


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap workload build, engine, kernel, sink and summary calls."""
    from repro.sim import parallel
    from repro.sim.engine import SimulationEngine
    from repro.sim.stats import build_sink
    from repro.telemetry.summary import RunSummary
    from repro.workloads.registry import BENCHMARK_NAMES, get_workload

    counts = tracer.counts

    # -- repro.workloads: get_workload(...).build ----------------------------
    patched: set[type] = set()
    for name in BENCHMARK_NAMES:
        klass = next(
            k for k in type(get_workload(name, 8)).__mro__ if "build" in vars(k)
        )
        if klass in patched:
            continue
        patched.add(klass)

        def build(self, n_cores, seed, _orig=vars(klass)["build"]):
            with tracer.span("workloads.build"):
                scripts = _orig(self, n_cores, seed)
            counts["workloads.builds"] += 1
            counts["workloads.ops"] += sum(
                len(t.ops) for s in scripts for t in s.txns
            )
            return scripts

        klass.build = build

    # -- repro.sim.engine + repro.kernel + repro.telemetry sinks -------------
    orig_init = SimulationEngine.__init__
    orig_run = SimulationEngine.run
    accs: dict[int, tuple[list, list, list]] = {}

    def __init__(self, config, scripts, seed=1, stats=None,
                 check_atomicity=True, record_events=False,
                 record_detail=True, micro_batch=True):
        access_acc, txn_acc, sink_acc = [0, 0], [0, 0], [0, 0]
        with tracer.span("engine.setup"):
            if stats is None:
                # Same sink the engine would build; handed in through
                # stats= so the machine binds the timed hooks.
                _collector, stats = build_sink(
                    config, record_events, record_detail=record_detail,
                    metadata={"seed": seed},
                )
            wrap_sink(stats, sink_acc)
            orig_init(self, config, scripts, seed, stats, check_atomicity,
                      record_events, record_detail, micro_batch)
        machine = self.machine
        for attr in KERNEL_ACCESS:
            setattr(machine, attr, _counting(getattr(machine, attr), access_acc))
        for attr in KERNEL_TXN:
            setattr(machine, attr, _counting(getattr(machine, attr), txn_acc))
        accs[id(self)] = (access_acc, txn_acc, sink_acc)

    def run(self, max_cycles=None):
        with tracer.span("engine.run") as rec:
            out = orig_run(self, max_cycles)
        access_acc, txn_acc, sink_acc = accs.pop(id(self))
        tracer.aggregate(rec, "kernel.access", access_acc[1])
        tracer.aggregate(rec, "kernel.txn", txn_acc[1])
        counts["kernel.access_calls"] += access_acc[0]
        counts["kernel.txn_calls"] += txn_acc[0]
        # Sink hooks nest inside kernel calls, so they are counted, not
        # added to the span tree (that would double-cover engine.run).
        counts["telemetry.sink_calls"] += sink_acc[0]
        counts["telemetry.sink_ns"] += sink_acc[1]
        return out

    SimulationEngine.__init__ = __init__
    SimulationEngine.run = run

    # -- repro.telemetry.summary: RunSummary.from_sink -----------------------
    orig_from_sink = RunSummary.from_sink.__func__

    def from_sink(cls, *args, **kwargs):
        with tracer.span("telemetry.summary"):
            return orig_from_sink(cls, *args, **kwargs)

    RunSummary.from_sink = classmethod(from_sink)

    # -- repro.sim.parallel: one span per in-process spec --------------------
    orig_exec = parallel.execute_spec_transfer

    def execute_spec_transfer(spec, mode):
        tracer.spec = spec.label
        try:
            with tracer.span("executors.spec"):
                return orig_exec(spec, mode)
        finally:
            tracer.spec = ""

    parallel.execute_spec_transfer = execute_spec_transfer


def install_store_layer(tracer: Tracer) -> None:
    """Time ``ResultsStore.record`` on the parent side of a sweep."""
    from repro.store import ResultsStore

    orig_record = ResultsStore.record

    def record(self, spec, result):
        with tracer.span("store.record"):
            stored = orig_record(self, spec, result)
        tracer.counts["store.records"] += int(stored)
        return stored

    ResultsStore.record = record
