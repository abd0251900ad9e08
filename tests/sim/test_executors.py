"""The executor layer: config resolution, the --executor grammar, the
removed execution keywords, and the per-spec deadline ledger."""

from __future__ import annotations

import pytest

from repro.config import default_system
from repro.errors import ConfigError
from repro.sim import executors as ex
from repro.sim.executors import (
    ExecConfig,
    ExecTask,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    _DeadlineLedger,
    build_executor,
    parse_executor_spec,
)
from repro.sim.parallel import RunSpec, iter_many, run_many

TXNS = 8


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


class TestExecutorSpecGrammar:
    def test_serial(self):
        cfg = parse_executor_spec("serial")
        assert cfg.backend == "serial"

    def test_process_all_cores(self):
        cfg = parse_executor_spec("process")
        assert cfg.backend == "process" and cfg.jobs == 0

    def test_process_n(self):
        cfg = parse_executor_spec("process:8")
        assert cfg.backend == "process" and cfg.jobs == 8

    def test_remote_default(self):
        cfg = parse_executor_spec("remote")
        assert cfg.backend == "remote" and cfg.bind == "127.0.0.1:0"
        assert cfg.launch == ()

    def test_remote_port(self):
        assert parse_executor_spec("remote:7341").bind == "0.0.0.0:7341"

    def test_remote_host_port(self):
        assert parse_executor_spec("remote:10.0.0.5:7341").bind == "10.0.0.5:7341"

    def test_remote_hosts_file(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text(
            "# fleet\n"
            "bind 0.0.0.0:0\n"
            "local\n"
            "ssh build-04\n"
            "ssh big {addr} {token}\n"
        )
        cfg = parse_executor_spec(f"remote:{hosts}")
        assert cfg.bind == "0.0.0.0:0"
        assert cfg.launch == ("local", "ssh build-04", "ssh big {addr} {token}")

    def test_hosts_file_loopback_upgraded_for_nonlocal_workers(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("ssh build-04\n")
        assert parse_executor_spec(f"remote:{hosts}").bind == "0.0.0.0:0"

    def test_hosts_file_all_local_keeps_loopback(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("local\nlocal\n")
        assert parse_executor_spec(f"remote:{hosts}").bind == "127.0.0.1:0"

    def test_empty_hosts_file_rejected(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("# nothing here\n")
        with pytest.raises(ConfigError):
            parse_executor_spec(f"remote:{hosts}")

    @pytest.mark.parametrize(
        "bad",
        [
            "serial:2",
            "process:x",
            "process:0",
            "process:-3",
            "remote:no-such-file.txt",
            "remote:99999",
            "remote:host:70000",
            "threads",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_executor_spec(bad)


class TestBuildExecutor:
    def test_none_is_inprocess_default(self):
        exec_ = build_executor(None)
        assert exec_.config == ExecConfig() and exec_.config.jobs == 1

    def test_string_is_parsed(self):
        assert build_executor("process:3").config.jobs == 3

    def test_config_is_copied_not_aliased(self):
        src = ExecConfig(jobs=2)
        exec_ = build_executor(src)
        exec_.config.timeout = 9.0
        assert exec_.config is not src and src.timeout is None

    def test_bare_int_rejected(self):
        with pytest.raises(ConfigError):
            build_executor(2)

    def test_backend_resolution(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        assert isinstance(build_executor("process:2"), ProcessExecutor)
        assert isinstance(build_executor("serial"), Executor)
        from repro.sim.remote import RemoteExecutor

        assert isinstance(build_executor("remote"), RemoteExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            build_executor(ExecConfig(backend="carrier-pigeon"))

    def test_live_executor_passes_through(self):
        live = SerialExecutor(ExecConfig(backend="serial"))
        assert build_executor(live) is live


#: Keyword arguments that once configured execution outside ``executor=``.
REMOVED_KEYWORDS = {
    "jobs": 2,
    "transfer": "summary",
    "timeout": 1.0,
    "worker_retries": 1,
    "store": None,
    "resume": False,
    "on_result": print,
}


class TestRemovedKeywords:
    """``executor=`` is the only way to say how a batch runs."""

    @pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
    def test_removed_keyword_is_typeerror(self, name):
        from repro.analysis.sweeps import sweep_subblocks
        from repro.workloads.registry import get_workload

        kw = {name: REMOVED_KEYWORDS[name]}
        with pytest.raises(TypeError):
            run_many(_specs(1), **kw)
        with pytest.raises(TypeError):
            list(iter_many(_specs(1), **kw))
        with pytest.raises(TypeError):
            sweep_subblocks(get_workload("kmeans", TXNS), counts=(1,), **kw)

    def test_cli_jobs_flag_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "ssca2", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestBackendParity:
    def test_serial_process_config_all_identical(self):
        specs = _specs(4)
        baseline = [r.stats.summary() for r in run_many(specs, "serial")]
        for executor in ("process:2", ExecConfig(backend="process", jobs=2)):
            got = [r.stats.summary() for r in run_many(specs, executor)]
            assert got == baseline, f"{executor!r} diverged"

    def test_serial_executor_streams_in_order(self):
        specs = _specs(3)
        out = list(build_executor("serial").run(
            [ExecTask(i, s, "summary") for i, s in enumerate(specs)]
        ))
        assert [i for i, _ in out] == [0, 1, 2]


class TestDeadlineLedger:
    """The double-charge fix: one budget per spec, refreshed only by a
    genuine worker-death retry."""

    def test_deadline_assigned_once(self):
        ledger = _DeadlineLedger(timeout=10.0)
        first = ledger.deadline(0, now=100.0)
        again = ledger.deadline(0, now=150.0)
        assert first == again == 100.0 + 10.0 * ex.STREAM_BACKLOG

    def test_requeue_does_not_extend_budget(self):
        # A pool rotation re-queues the spec; its clock must keep running.
        ledger = _DeadlineLedger(timeout=1.0)
        ledger.deadline(0, now=0.0)
        assert not ledger.expired(0, now=1.0)
        assert ledger.expired(0, now=1.0 * ex.STREAM_BACKLOG)

    def test_refresh_grants_new_attempt(self):
        ledger = _DeadlineLedger(timeout=1.0)
        ledger.deadline(0, now=0.0)
        ledger.refresh(0, now=5.0)
        assert not ledger.expired(0, now=5.5)
        assert ledger.deadline(0, now=6.0) == 5.0 + 1.0 * ex.STREAM_BACKLOG

    def test_no_timeout_never_expires(self):
        ledger = _DeadlineLedger(timeout=None)
        assert ledger.deadline(0, now=0.0) is None
        assert not ledger.expired(0, now=1e9)


class TestRemoteTransferRules:
    def test_full_mode_tasks_never_travel(self):
        """Event-recording specs run locally in the coordinator process."""
        from repro.sim.remote import RemoteExecutor

        spec = RunSpec(
            workload="kmeans",
            config=default_system(),
            seed=1,
            txns_per_core=TXNS,
            record_events=True,
        )
        # connect_timeout=0 would drain immediately; but a full-mode task
        # never reaches the coordinator at all, so no socket is opened.
        exec_ = RemoteExecutor(ExecConfig(backend="remote"))
        out = dict(exec_.run([ExecTask(0, spec, "full")]))
        assert out[0].stats.record_events
        assert out[0].worker == ""
