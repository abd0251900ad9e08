"""Transaction operations.

A workload describes each transaction as a fixed list of :class:`TxnOp`
values — loads, stores and pure-computation gaps.  The list is *replayed
unchanged on every retry* (transactions are deterministic code), which is
what lets two detection schemes be compared on identical programs.

The op is also the record the engine loop executes: a 5-tuple laid out
as ``(is_mem, addr, size, is_write, cycles)`` that the batched loop
unpacks in one step, so a compiled script needs no second, lowered form.

:func:`read_op`, :func:`write_op` and :func:`work_op` intern their
results: identical ops are one shared object, so a compiled workload
holds each distinct op once.  The intern table lives for the process
and grows only with *distinct* ops, never with the number of builds:
20,107 entries after the ten Table III benchmarks at one seed (8 cores,
300 txns/core), 24,969 after six seeds and 36,332 after also building
600 and 1,000 txns/core.  :class:`TxnOp` called directly builds a
fresh, uninterned op.
"""

from __future__ import annotations

import enum
from operator import itemgetter

__all__ = ["OpKind", "TxnOp", "read_op", "work_op", "write_op"]


class OpKind(enum.Enum):
    READ = "R"
    WRITE = "W"
    WORK = "C"  # pure computation: cycles with no memory traffic


class TxnOp(tuple):
    """One operation inside a transaction.

    ``addr``/``size`` are meaningful for READ/WRITE; ``cycles`` for WORK.
    Every field is a plain ``int`` (flags are ``bool``); the op is
    immutable and hashable.
    """

    __slots__ = ()

    def __new__(
        cls, kind: OpKind, addr: int = 0, size: int = 0, cycles: int = 0
    ) -> "TxnOp":
        kind = OpKind(kind)
        for name, value in (("addr", addr), ("size", size), ("cycles", cycles)):
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, not {value!r}")
        if kind is OpKind.WORK:
            if cycles <= 0:
                raise ValueError("WORK op needs positive cycles")
        else:
            if size <= 0:
                raise ValueError(f"{kind.name} op needs positive size")
            if addr < 0:
                raise ValueError("negative address")
        return tuple.__new__(
            cls, (kind is not OpKind.WORK, addr, size, kind is OpKind.WRITE, cycles)
        )

    is_mem = property(itemgetter(0), doc="True for loads and stores.")
    addr = property(itemgetter(1), doc="First byte accessed (memory ops).")
    size = property(itemgetter(2), doc="Bytes accessed (memory ops).")
    is_write = property(itemgetter(3), doc="True for stores.")
    cycles = property(itemgetter(4), doc="Computation cycles (WORK ops).")

    @property
    def kind(self) -> OpKind:
        if not self[0]:
            return OpKind.WORK
        return OpKind.WRITE if self[3] else OpKind.READ

    def __getnewargs__(self) -> tuple:
        return (self.kind, self[1], self[2], self[4])

    def __repr__(self) -> str:
        return (
            f"TxnOp(kind={self.kind!r}, addr={self[1]}, size={self[2]}, "
            f"cycles={self[4]})"
        )


#: Every op the factories have handed out, keyed by its own tuple value.
_INTERN: dict[tuple, TxnOp] = {}
_interned = _INTERN.get


def _intern(op: TxnOp) -> TxnOp:
    return _INTERN.setdefault(op, op)


def read_op(addr: int, size: int) -> TxnOp:
    """A transactional load of ``size`` bytes at ``addr``."""
    op = _interned((True, addr, size, False, 0))
    if op is None or type(addr) is not int or type(size) is not int:
        op = _intern(TxnOp(OpKind.READ, addr=addr, size=size))
    return op


def write_op(addr: int, size: int) -> TxnOp:
    """A transactional store of ``size`` bytes at ``addr``."""
    op = _interned((True, addr, size, True, 0))
    if op is None or type(addr) is not int or type(size) is not int:
        op = _intern(TxnOp(OpKind.WRITE, addr=addr, size=size))
    return op


def work_op(cycles: int) -> TxnOp:
    """Non-memory computation inside the transaction."""
    op = _interned((False, 0, 0, False, cycles))
    if op is None or type(cycles) is not int:
        op = _intern(TxnOp(OpKind.WORK, cycles=cycles))
    return op
