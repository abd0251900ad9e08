"""Portable serialization of compiled workload scripts.

Format (versioned, line-oriented JSON for diff-friendliness):

.. code-block:: text

    {"format": "repro-script", "version": 1, "n_cores": 8, ...}   # header
    {"core": 0, "txns": [[gap, aborts, [["R", addr, size], ...]], ...]}
    ...one line per core...

Operations are encoded ``["R"|"W", addr, size]`` and ``["C", cycles]``.
A digest of the op stream lets experiments assert they replayed the exact
program a result was produced from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.errors import WorkloadError
from repro.htm.ops import OpKind, TxnOp, read_op, work_op, write_op
from repro.workloads.base import CoreScript, ScriptedTxn

__all__ = ["load_scripts", "save_scripts", "scripts_digest"]

FORMAT_NAME = "repro-script"
FORMAT_VERSION = 1


def _encode_op(op: TxnOp) -> list:
    if op.kind is OpKind.WORK:
        return ["C", op.cycles]
    return [op.kind.value, op.addr, op.size]


def _decode_op(raw: list) -> TxnOp:
    """One op record; fields must be JSON integers (never floats, strings
    or booleans), and the op factories' range checks apply."""
    try:
        match raw:
            case ["R", addr, size]:
                return read_op(addr, size)
            case ["W", addr, size]:
                return write_op(addr, size)
            case ["C", cycles]:
                return work_op(cycles)
    except (TypeError, ValueError) as exc:
        raise WorkloadError(f"malformed op record {raw!r}: {exc}") from None
    raise WorkloadError(f"malformed op record: {raw!r}")


def _decode_int(value: object, what: str) -> int:
    if type(value) is not int:
        raise WorkloadError(f"{what} must be an integer, not {value!r}")
    return value


def _decode_row(line: str) -> CoreScript:
    row = json.loads(line)
    txns = tuple(
        ScriptedTxn(
            gap_cycles=_decode_int(gap, "gap"),
            ops=tuple(_decode_op(op) for op in ops),
            user_abort_attempts=_decode_int(aborts, "user_abort_attempts"),
        )
        for gap, aborts, ops in row["txns"]
    )
    return CoreScript(core=_decode_int(row["core"], "core"), txns=txns)


def save_scripts(
    scripts: list[CoreScript],
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    """Write compiled scripts to ``path`` (creates parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_cores": len(scripts),
        "digest": scripts_digest(scripts),
        "metadata": metadata or {},
    }
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for cs in scripts:
            row = {
                "core": cs.core,
                "txns": [
                    [t.gap_cycles, t.user_abort_attempts,
                     [_encode_op(op) for op in t.ops]]
                    for t in cs.txns
                ],
            }
            fh.write(json.dumps(row) + "\n")


def load_scripts(path: str | Path) -> list[CoreScript]:
    """Load scripts written by :func:`save_scripts`; verifies the digest."""
    path = Path(path)
    with path.open() as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise WorkloadError(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise WorkloadError(
                f"{path}: unsupported version {header.get('version')}"
            )
        scripts: list[CoreScript] = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                scripts.append(_decode_row(line))
            except WorkloadError as exc:
                raise WorkloadError(f"{path}:{lineno}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise WorkloadError(
                    f"{path}:{lineno}: malformed core record: {exc!r}"
                ) from None
    if len(scripts) != header.get("n_cores"):
        raise WorkloadError(
            f"{path}: header promises {header.get('n_cores')} cores, "
            f"found {len(scripts)}"
        )
    digest = scripts_digest(scripts)
    if digest != header.get("digest"):
        raise WorkloadError(f"{path}: digest mismatch (corrupt or edited)")
    return scripts


def scripts_digest(scripts: list[CoreScript]) -> str:
    """Stable content digest of a compiled program."""
    h = hashlib.blake2b(digest_size=16)
    for cs in scripts:
        h.update(f"core{cs.core}".encode())
        for t in cs.txns:
            h.update(f"|{t.gap_cycles},{t.user_abort_attempts}".encode())
            for op in t.ops:
                h.update(f";{_encode_op(op)}".encode())
    return h.hexdigest()
