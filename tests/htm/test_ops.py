"""Transaction-operation record tests."""

import copy
import pickle

import pytest

from repro.htm import ops as ops_module
from repro.htm.ops import OpKind, TxnOp, read_op, work_op, write_op
from repro.workloads import get_workload


class TestConstructors:
    def test_read(self):
        op = read_op(0x100, 8)
        assert op.kind is OpKind.READ
        assert not op.is_write
        assert op.is_mem

    def test_write(self):
        op = write_op(0x100, 8)
        assert op.is_write
        assert op.is_mem

    def test_work(self):
        op = work_op(10)
        assert not op.is_mem
        assert op.cycles == 10


class TestValidation:
    def test_zero_size_mem_rejected(self):
        with pytest.raises(ValueError):
            read_op(0, 0)

    def test_negative_addr_rejected(self):
        with pytest.raises(ValueError):
            write_op(-4, 8)

    def test_zero_cycle_work_rejected(self):
        with pytest.raises(ValueError):
            work_op(0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            read_op(0, 8).addr = 5  # type: ignore[misc]

    def test_hashable_for_dedup(self):
        assert len({read_op(0, 8), read_op(0, 8), write_op(0, 8)}) == 2


class TestOpRecord:
    """The op is the engine's 5-tuple record ``(is_mem, addr, size,
    is_write, cycles)``; ``kind`` is derived from the flags."""

    def test_layout(self):
        assert tuple(read_op(0x100, 8)) == (True, 0x100, 8, False, 0)
        assert tuple(write_op(0x108, 4)) == (True, 0x108, 4, True, 0)
        assert tuple(work_op(7)) == (False, 0, 0, False, 7)

    def test_derived_kind(self):
        assert read_op(0, 8).kind is OpKind.READ
        assert write_op(0, 8).kind is OpKind.WRITE
        assert work_op(3).kind is OpKind.WORK
        for kind in OpKind:
            args = {"cycles": 2} if kind is OpKind.WORK else {"size": 8}
            assert TxnOp(kind, **args).kind is kind

    def test_constructor_matches_factories(self):
        assert TxnOp(OpKind.READ, addr=64, size=8) == read_op(64, 8)
        assert TxnOp(OpKind.WRITE, 64, 8) == write_op(64, 8)
        assert TxnOp(OpKind.WORK, cycles=9) == work_op(9)
        assert TxnOp("R", 64, 8) == read_op(64, 8)  # OpKind value accepted

    @pytest.mark.parametrize(
        "kind, kwargs",
        [
            (OpKind.READ, {"addr": 0, "size": 0}),
            (OpKind.WRITE, {"addr": 0, "size": -1}),
            (OpKind.READ, {"addr": -1, "size": 8}),
            (OpKind.WORK, {"cycles": 0}),
            (OpKind.WORK, {"cycles": -3}),
            ("X", {"size": 8}),
        ],
    )
    def test_constructor_validation(self, kind, kwargs):
        with pytest.raises(ValueError):
            TxnOp(kind, **kwargs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TxnOp(OpKind.READ, addr=8.0, size=8),
            lambda: read_op(8, 8.0),
            lambda: write_op("16", 8),
            lambda: write_op(True, 8),
            lambda: work_op(2.5),
        ],
        ids=["ctor-float", "read-float", "write-str", "write-bool", "work-float"],
    )
    def test_fields_must_be_ints(self, build):
        # Equal-valued int ops already interned must not mask the type check.
        read_op(8, 8)
        write_op(1, 8)
        with pytest.raises(TypeError):
            build()

    def test_frozen_and_hashable(self):
        op = write_op(64, 8)
        for name in ("kind", "is_mem", "addr", "size", "is_write", "cycles"):
            with pytest.raises(AttributeError):
                setattr(op, name, 1)
        with pytest.raises(AttributeError):
            op.extra = 1  # type: ignore[attr-defined]
        assert {op: 1}[TxnOp(OpKind.WRITE, 64, 8)] == 1

    @pytest.mark.parametrize("op", [read_op(64, 8), write_op(72, 4), work_op(11)])
    def test_pickle_and_deepcopy_roundtrip(self, op):
        for clone in (pickle.loads(pickle.dumps(op)), copy.deepcopy(op), copy.copy(op)):
            assert type(clone) is TxnOp
            assert clone == op and clone.kind is op.kind
            assert tuple(clone) == tuple(op)

    def test_repr_names_fields(self):
        assert repr(read_op(256, 8)) == (
            "TxnOp(kind=<OpKind.READ: 'R'>, addr=256, size=8, cycles=0)"
        )


class TestInterning:
    def test_identical_factory_ops_are_one_object(self):
        assert read_op(0x4000, 8) is read_op(0x4000, 8)
        assert write_op(0x4000, 8) is write_op(0x4000, 8)
        assert work_op(123) is work_op(123)
        assert read_op(0x4000, 8) is not write_op(0x4000, 8)

    def test_direct_construction_is_not_interned(self):
        op = TxnOp(OpKind.READ, 0x4100, 8)
        assert op == read_op(0x4100, 8) and op is not read_op(0x4100, 8)

    def test_rebuild_adds_no_intern_entries(self):
        wl = get_workload("vacation", txns_per_core=15)
        first = wl.build(8, 5)
        size = len(ops_module._INTERN)
        second = wl.build(8, 5)
        assert len(ops_module._INTERN) == size
        assert first == second
        # The rebuilt program shares every op object with the first build.
        assert all(
            a is b
            for ca, cb in zip(first, second)
            for ta, tb in zip(ca.txns, cb.txns)
            for a, b in zip(ta.ops, tb.ops)
        )
