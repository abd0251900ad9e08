"""Fault injection for the remote sweep fabric.

Two layers of coverage:

* **Protocol-level** — a ``FakeWorker`` speaking raw length-prefixed
  pickle against a live :class:`Coordinator` makes the failure modes
  deterministic: take a batch and vanish, go silent past the heartbeat
  window, or deliver a result for a batch that was already re-assigned.
* **Fleet-level** — real ``python -m repro.cli worker`` subprocesses,
  including one SIGKILLed mid-batch, asserting bit-for-bit parity with
  the serial backend and exactly-once rows in a results store.
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.config import default_system
from repro.sim import parallel
from repro.sim.executors import ExecConfig, ExecTask, mark_provenance
from repro.sim.parallel import RunSpec, run_many
from repro.sim.remote import (
    PROTOCOL_VERSION,
    Coordinator,
    _Batch,
    recv_msg,
    send_msg,
    worker_main,
)
from repro.store import ResultsStore

TXNS = 8

#: Generous wall-clock ceiling for fleet tests (worker subprocesses pay
#: an interpreter + import startup of a couple of seconds each).
FLEET_DEADLINE = 90.0


def _specs(n=3, txns=TXNS):
    return [
        RunSpec(
            workload="kmeans",
            config=default_system(),
            seed=s,
            txns_per_core=txns,
            label=f"s{s}",
        )
        for s in range(1, n + 1)
    ]


def _batches(specs, size=2):
    tasks = [ExecTask(i, s, "summary") for i, s in enumerate(specs)]
    return [
        _Batch(id=n, tasks=tasks[pos:pos + size])
        for n, pos in enumerate(range(0, len(tasks), size))
    ]


def _coordinator(batches, **overrides):
    kwargs = dict(
        backend="remote",
        bind="127.0.0.1:0",
        heartbeat_interval=0.1,
        heartbeat_timeout=0.6,
        retry_backoff=0.05,
        max_batch_retries=2,
        connect_timeout=60.0,
    )
    kwargs.update(overrides)
    cfg = ExecConfig(**kwargs)
    stats: dict = {}
    coord = Coordinator(cfg, stats)
    coord.start(batches)
    return coord, stats


def _drain_results(coord, want, deadline=30.0):
    """Collect result events until `want` spec indices arrived (or time out),
    asserting no index is ever delivered twice."""
    import queue

    got = {}
    t_end = time.monotonic() + deadline
    while len(got) < want and time.monotonic() < t_end:
        try:
            event = coord.events.get(timeout=0.2)
        except queue.Empty:
            continue
        if event[0] == "error":
            raise AssertionError(f"worker error: {event[1]}")
        if event[0] != "results":
            continue
        for index, res in event[1]:
            assert index not in got, f"spec {index} delivered twice"
            got[index] = res
    assert len(got) == want, f"only {sorted(got)} arrived"
    return got


class FakeWorker:
    """A hand-driven protocol client for injecting faults."""

    def __init__(self, coord, ident="fake", token=None, version=PROTOCOL_VERSION):
        host, port = coord.address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=5.0)
        self.ident = ident
        send_msg(
            self.sock,
            {
                "type": "hello",
                "version": version,
                "id": ident,
                "token": coord.token if token is None else token,
            },
        )
        self.welcome = recv_msg(self.sock)

    @property
    def accepted(self):
        return (
            isinstance(self.welcome, dict)
            and self.welcome.get("type") == "welcome"
        )

    def take_batch(self, timeout=10.0):
        self.sock.settimeout(timeout)
        msg = recv_msg(self.sock)
        assert isinstance(msg, dict) and msg["type"] == "batch", msg
        return msg

    def execute(self, batch):
        results = []
        for index, spec in batch["tasks"]:
            res = parallel.execute_spec_transfer(spec, "summary")
            mark_provenance(res, worker=self.ident)
            results.append((index, res))
        return results

    def deliver(self, batch, results=None):
        send_msg(
            self.sock,
            {
                "type": "result",
                "batch_id": batch["batch_id"],
                "results": self.execute(batch) if results is None else results,
            },
        )

    def heartbeat(self, batch):
        send_msg(
            self.sock, {"type": "heartbeat", "batch_id": batch["batch_id"]}
        )

    def close(self):
        self.sock.close()


class TestProtocolFaults:
    def test_happy_path_one_fake_worker(self):
        specs = _specs(4)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            w = FakeWorker(coord)
            assert w.accepted
            for _ in range(2):
                w.deliver(w.take_batch())
            got = _drain_results(coord, want=4)
            assert sorted(got) == [0, 1, 2, 3]
            assert stats["batches_completed"] == 2
            assert stats.get("batches_requeued", 0) == 0
            w.close()
        finally:
            coord.stop()

    def test_version_and_token_rejection(self):
        coord, _ = _coordinator(_batches(_specs(1)), token="sesame")
        try:
            bad_version = FakeWorker(coord, version=PROTOCOL_VERSION + 1)
            assert not bad_version.accepted
            assert bad_version.welcome["reason"] == "bad hello"
            bad_token = FakeWorker(coord, token="wrong")
            assert not bad_token.accepted
            assert bad_token.welcome["reason"] == "bad token"
            good = FakeWorker(coord, token="sesame")
            assert good.accepted
            for w in (bad_version, bad_token, good):
                w.close()
        finally:
            coord.stop()

    def test_disconnect_mid_batch_requeues(self):
        """A worker that dies with a batch in flight loses the batch to a
        survivor; nothing is dropped, nothing arrives twice."""
        specs = _specs(4)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            victim = FakeWorker(coord, ident="victim")
            victim.take_batch()
            victim.close()  # vanish mid-batch: coordinator sees EOF
            survivor = FakeWorker(coord, ident="survivor")
            for _ in range(2):
                survivor.deliver(survivor.take_batch())
            got = _drain_results(coord, want=4)
            assert sorted(got) == [0, 1, 2, 3]
            assert stats["batches_requeued"] == 1
            assert all(res.worker == "survivor" for res in got.values())
            survivor.close()
        finally:
            coord.stop()

    def test_heartbeat_silence_requeues(self):
        """A connected-but-wedged worker (no heartbeats) forfeits its
        batch after ``heartbeat_timeout``."""
        specs = _specs(2)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            wedged = FakeWorker(coord, ident="wedged")
            batch = wedged.take_batch()
            survivor = FakeWorker(coord, ident="survivor")
            # Stay silent: past heartbeat_timeout the monitor re-queues.
            survivor.deliver(survivor.take_batch(timeout=10.0))
            got = _drain_results(coord, want=2)
            assert stats["batches_requeued"] == 1
            assert all(res.worker == "survivor" for res in got.values())
            # The re-run is provenance-stamped as a retry by the executor
            # layer; at this layer the event carries the retry count.
            wedged.close()
            survivor.close()
            del batch
        finally:
            coord.stop()

    def test_heartbeats_keep_slow_batch_alive(self):
        """Heartbeats hold the batch well past ``heartbeat_timeout``."""
        specs = _specs(2)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            w = FakeWorker(coord)
            batch = w.take_batch()
            t_end = time.monotonic() + 4 * 0.6  # 4× heartbeat_timeout
            while time.monotonic() < t_end:
                w.heartbeat(batch)
                time.sleep(0.1)
            w.deliver(batch)
            _drain_results(coord, want=2)
            assert stats.get("batches_requeued", 0) == 0
            w.close()
        finally:
            coord.stop()

    def test_duplicate_batch_result_dropped(self):
        """A presumed-dead worker delivering late is a no-op: the batch
        already completed elsewhere and the rows are dropped."""
        specs = _specs(2)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            slow = FakeWorker(coord, ident="slow")
            batch = slow.take_batch()
            survivor = FakeWorker(coord, ident="survivor")
            survivor.deliver(survivor.take_batch(timeout=10.0))
            got = _drain_results(coord, want=2)
            # Now the zombie wakes up and delivers the same batch.
            slow.deliver(batch)
            time.sleep(0.3)
            assert stats["duplicates_dropped"] == len(batch["tasks"])
            assert coord.events.qsize() == 0  # nothing re-published
            assert sorted(got) == [0, 1]
            slow.close()
            survivor.close()
        finally:
            coord.stop()

    def test_retries_exhausted_falls_back_local(self):
        """After ``max_batch_retries`` losses the batch lands on the
        coordinator's own fallback queue instead of cycling forever."""
        coord, stats = _coordinator(
            _batches(_specs(2), size=2), max_batch_retries=1
        )
        try:
            for n in range(2):  # initial attempt + one retry
                w = FakeWorker(coord, ident=f"crasher-{n}")
                w.take_batch()
                w.close()
            deadline = time.monotonic() + 10.0
            batch = None
            while batch is None and time.monotonic() < deadline:
                batch = coord.pop_fallback()
                time.sleep(0.05)
            assert batch is not None, "batch never reached the fallback queue"
            assert batch.retries == 2
            assert stats["batches_requeued"] == 2
        finally:
            coord.stop()

    def test_workerless_coordinator_drains_to_local(self):
        """No fleet ever joins: after ``connect_timeout`` every ready
        batch is drained to the local fallback path."""
        coord, stats = _coordinator(
            _batches(_specs(2), size=1), connect_timeout=0.3
        )
        try:
            deadline = time.monotonic() + 10.0
            drained = []
            while len(drained) < 2 and time.monotonic() < deadline:
                b = coord.pop_fallback()
                if b is not None:
                    drained.append(b)
                else:
                    time.sleep(0.05)
            assert len(drained) == 2
            assert stats["drained_to_local"] == 2
        finally:
            coord.stop()


def _one_shot_server(reply):
    """Listen on a free port; answer the first hello with ``reply(conn)``."""
    srv = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = srv.accept()
        with conn:
            recv_msg(conn)
            reply(conn)
            conn.recv(1)  # hold the socket open until the worker hangs up
        srv.close()

    threading.Thread(target=serve, daemon=True).start()
    return "127.0.0.1:%d" % srv.getsockname()[1]


class TestWorkerLogging:
    """worker_main reports its failures through the module logger."""

    def _failures(self, caplog):
        return [
            r for r in caplog.records
            if r.name == "repro.sim.remote" and r.levelno == logging.ERROR
        ]

    def test_unreachable_coordinator(self, caplog):
        probe = socket.create_server(("127.0.0.1", 0))
        addr = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()  # nothing listens there any more
        with caplog.at_level(logging.ERROR, logger="repro.sim.remote"):
            assert worker_main(addr, worker_id="w-unreach") == 1
        (rec,) = self._failures(caplog)
        assert "cannot reach" in rec.getMessage()
        assert rec.worker == "w-unreach" and rec.coordinator == addr

    def test_rejected_by_coordinator(self, caplog):
        addr = _one_shot_server(
            lambda conn: send_msg(conn, {"type": "reject", "reason": "bad token"})
        )
        with caplog.at_level(logging.ERROR, logger="repro.sim.remote"):
            assert worker_main(addr, worker_id="w-reject", token="x") == 1
        (rec,) = self._failures(caplog)
        assert rec.getMessage() == "worker w-reject: bad token"
        assert rec.worker == "w-reject"

    def test_connection_lost(self, caplog):
        def welcome_then_garbage(conn):
            send_msg(conn, {"type": "welcome", "heartbeat": 1.0})
            conn.sendall(b"\x00\x00\x00\x04\x00\x01\x02\x03")  # not a pickle

        addr = _one_shot_server(welcome_then_garbage)
        with caplog.at_level(logging.ERROR, logger="repro.sim.remote"):
            assert worker_main(addr, worker_id="w-lost") == 1
        (rec,) = self._failures(caplog)
        assert "connection lost" in rec.getMessage()
        assert rec.worker == "w-lost"

    def test_clean_shutdown_logs_nothing(self, caplog):
        addr = _one_shot_server(lambda conn: (
            send_msg(conn, {"type": "welcome", "heartbeat": 1.0}),
            send_msg(conn, {"type": "shutdown"}),
        ))
        with caplog.at_level(logging.ERROR, logger="repro.sim.remote"):
            assert worker_main(addr, worker_id="w-ok") == 0
        assert not self._failures(caplog)


def _spawn_worker(coord, extra=()):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", coord.address, "--token", coord.token,
            *extra,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.slow
class TestRealFleet:
    def test_sigkill_mid_batch_exactly_once_in_store(self, tmp_path):
        """The acceptance scenario: a real worker SIGKILLed mid-batch,
        the sweep still completes, results match serial bit-for-bit, and
        a results store ends up with exactly one row per spec."""
        specs = _specs(4, txns=400)  # ~0.5 s per batch: a wide kill window
        coord, stats = _coordinator(
            _batches(specs, size=1), heartbeat_timeout=2.0
        )
        procs = []
        try:
            procs.append(_spawn_worker(coord))
            deadline = time.monotonic() + FLEET_DEADLINE
            while coord.worker_count() == 0:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.05)
            # Kill it the moment a batch is in flight.
            while True:
                assert time.monotonic() < deadline, "no batch went in flight"
                with coord._lock:
                    if coord._inflight:
                        break
                time.sleep(0.002)
            os.kill(procs[0].pid, signal.SIGKILL)
            procs[0].wait()
            procs.append(_spawn_worker(coord))
            got = _drain_results(coord, want=4, deadline=FLEET_DEADLINE)
            assert stats["batches_requeued"] >= 1
            assert stats["workers_joined"] == 2
        finally:
            coord.finish()
            coord.stop()
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()

        serial = run_many(specs, "serial")
        assert [got[i].stats.summary() for i in range(4)] == [
            r.stats.summary() for r in serial
        ]
        with ResultsStore(tmp_path) as store:
            for i, spec in enumerate(specs):
                store.record(spec, got[i])
            assert len(store) == len(specs)

    def test_run_many_remote_parity_and_checkpoint(self, tmp_path):
        """End-to-end through ``run_many``: a self-launched loopback
        fleet of two, results bit-identical to serial, every spec
        checkpointed exactly once, worker provenance stamped."""
        specs = _specs(5)
        with ResultsStore(tmp_path) as store:
            cfg = ExecConfig(
                backend="remote",
                launch=("local", "local"),
                batch_size=2,
                heartbeat_interval=0.2,
                heartbeat_timeout=5.0,
                connect_timeout=FLEET_DEADLINE,
                store=store,
            )
            stats: dict = {}
            remote = run_many(specs, cfg, stream_stats=stats)
            assert len(store) == len(specs)
            assert stats["workers_joined"] == 2
        serial = run_many(specs, "serial")
        assert [r.stats.summary() for r in remote] == [
            r.stats.summary() for r in serial
        ]
        workers = {r.worker for r in remote}
        assert all(w and ":" in w for w in workers)

        # Resuming against the same store re-simulates nothing.
        with ResultsStore(tmp_path) as store:
            stats2: dict = {}
            again = run_many(
                specs,
                ExecConfig(backend="remote", connect_timeout=1.0, store=store),
                stream_stats=stats2,
            )
            assert stats2["served_from_store"] == len(specs)
            assert [r.stats.summary() for r in again] == [
                r.stats.summary() for r in serial
            ]
