"""Script serialization tests."""

import json
import re

import pytest

from repro.errors import WorkloadError
from repro.htm.ops import read_op, work_op, write_op
from repro.trace.scriptio import load_scripts, save_scripts, scripts_digest
from repro.workloads.base import CoreScript, ScriptedTxn
from repro.workloads.registry import get_workload


def tiny_scripts():
    txn = ScriptedTxn(
        gap_cycles=10,
        ops=(read_op(0x100, 8), work_op(5), write_op(0x108, 4)),
        user_abort_attempts=1,
    )
    return [CoreScript(core=c, txns=(txn,)) for c in range(2)]


class TestRoundTrip:
    def test_tiny(self, tmp_path):
        path = tmp_path / "s.jsonl"
        scripts = tiny_scripts()
        save_scripts(scripts, path)
        assert load_scripts(path) == scripts

    def test_real_workload(self, tmp_path):
        scripts = get_workload("vacation", 10).build(8, 3)
        path = tmp_path / "vacation.jsonl"
        save_scripts(scripts, path, metadata={"seed": 3})
        loaded = load_scripts(path)
        assert loaded == scripts

    def test_every_benchmark_roundtrips(self, tmp_path):
        from repro.workloads.registry import BENCHMARK_NAMES

        for name in BENCHMARK_NAMES:
            scripts = get_workload(name, 4).build(8, 1)
            path = tmp_path / f"{name}.jsonl"
            save_scripts(scripts, path)
            assert load_scripts(path) == scripts

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "s.jsonl"
        save_scripts(tiny_scripts(), path)
        assert path.exists()

    def test_replay_equivalence(self, tmp_path):
        """A loaded program simulates identically to the original."""
        from repro.sim.runner import run_scripts
        from repro.config import default_system

        scripts = get_workload("ssca2", 15).build(8, 2)
        path = tmp_path / "t.jsonl"
        save_scripts(scripts, path)
        a = run_scripts(scripts, default_system(), 2).stats.summary()
        b = run_scripts(load_scripts(path), default_system(), 2).stats.summary()
        assert a == b


class TestDigest:
    def test_stable(self):
        assert scripts_digest(tiny_scripts()) == scripts_digest(tiny_scripts())

    def test_sensitive_to_ops(self):
        a = tiny_scripts()
        txn = ScriptedTxn(gap_cycles=10, ops=(read_op(0x200, 8),))
        b = [CoreScript(core=0, txns=(txn,)), a[1]]
        assert scripts_digest(a) != scripts_digest(b)

    def test_sensitive_to_gaps(self):
        txn1 = ScriptedTxn(gap_cycles=10, ops=(read_op(0, 8),))
        txn2 = ScriptedTxn(gap_cycles=11, ops=(read_op(0, 8),))
        assert scripts_digest([CoreScript(0, (txn1,))]) != scripts_digest(
            [CoreScript(0, (txn2,))]
        )


class TestValidation:
    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(WorkloadError):
            load_scripts(path)

    @pytest.mark.parametrize("first_line", ["not json", "[1, 2]", ""])
    def test_rejects_non_script_header(self, tmp_path, first_line):
        path = tmp_path / "bad.jsonl"
        path.write_text(first_line + "\n")
        with pytest.raises(WorkloadError, match="not a repro-script file"):
            load_scripts(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-script", "version": 99}\n')
        with pytest.raises(WorkloadError):
            load_scripts(path)

    def test_rejects_tampering(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_scripts(tiny_scripts(), path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["txns"][0][0] = 99  # edit a gap
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WorkloadError, match="digest"):
            load_scripts(path)

    def test_rejects_missing_cores(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_scripts(tiny_scripts(), path)
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[1] + "\n")  # drop core 1
        with pytest.raises(WorkloadError, match="cores"):
            load_scripts(path)

    def test_rejects_malformed_op(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_scripts([CoreScript(0, (ScriptedTxn(1, (read_op(0, 4),)),))], path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["txns"][0][2][0] = ["X", 1, 2]
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WorkloadError, match="op"):
            load_scripts(path)

    @pytest.mark.parametrize(
        "bad_op",
        [
            ["R", -8, 8],  # negative address
            ["C", 0],  # non-positive work cycles
            ["R", 8, 0],  # non-positive size
            ["R", 8.9, 8],  # float address (int() would truncate it)
            ["W", "16", 8],  # string address (int() would parse it)
            ["R", 8, 8.0],  # integral float size
            ["W", True, 8],  # bool is not an integer here
            ["C", False],
            ["C", 5, 6],  # wrong arity
        ],
        ids=repr,
    )
    def test_bad_op_names_path_and_line(self, tmp_path, bad_op):
        path = tmp_path / "s.jsonl"
        save_scripts(tiny_scripts(), path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[2])  # core 1, file line 3
        row["txns"][0][2][1] = bad_op
        lines[2] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WorkloadError, match=rf"^{re.escape(str(path))}:3: "):
            load_scripts(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda row: row["txns"][0].__setitem__(0, 10.5),
            lambda row: row["txns"][0].__setitem__(1, "1"),
            lambda row: row.__setitem__("core", 1.0),
            lambda row: row["txns"][0].__setitem__(2, []),
            lambda row: row.pop("txns"),
            lambda row: row["txns"].__setitem__(0, [10, 1]),
        ],
        ids=[
            "float-gap", "string-aborts", "float-core", "empty-txn",
            "missing-txns", "short-record",
        ],
    )
    def test_bad_core_record_names_path_and_line(self, tmp_path, edit):
        path = tmp_path / "s.jsonl"
        save_scripts(tiny_scripts(), path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        edit(row)
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WorkloadError, match=rf"^{re.escape(str(path))}:2: "):
            load_scripts(path)

    def test_cli_replay_reports_bad_op_without_traceback(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s.jsonl"
        save_scripts(tiny_scripts(), path)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        row["txns"][0][2][0] = ["R", -8, 8]
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: " in err and "negative address" in err
