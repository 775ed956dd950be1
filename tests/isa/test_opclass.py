"""Tests for the opcode-class taxonomy."""

from repro.isa.opclass import (
    BRANCH_CLASSES,
    CONTROL_CLASSES,
    MEMORY_CLASSES,
    OpClass,
    is_branch,
    is_memory,
    writes_register,
)


class TestOpClassValues:
    def test_values_fit_int8(self):
        assert all(0 <= int(c) < 128 for c in OpClass)

    def test_values_are_distinct(self):
        assert len({int(c) for c in OpClass}) == len(OpClass)

    def test_roundtrip_through_int(self):
        for c in OpClass:
            assert OpClass(int(c)) is c


class TestPredicates:
    def test_memory_classes(self):
        assert is_memory(OpClass.LOAD)
        assert is_memory(OpClass.STORE)
        assert not is_memory(OpClass.IALU)
        assert not is_memory(OpClass.BRANCH)

    def test_branch_classes(self):
        assert is_branch(OpClass.BRANCH)
        assert not is_branch(OpClass.JUMP)
        assert not is_branch(OpClass.LOAD)

    def test_loads_write_registers(self):
        assert writes_register(OpClass.LOAD)

    def test_stores_do_not_write_registers(self):
        assert not writes_register(OpClass.STORE)

    def test_branches_do_not_write_registers(self):
        assert not writes_register(OpClass.BRANCH)
        assert not writes_register(OpClass.JUMP)

    def test_alu_classes_write_registers(self):
        for c in (OpClass.IALU, OpClass.IMUL, OpClass.IDIV, OpClass.FALU,
                  OpClass.FMUL, OpClass.FDIV):
            assert writes_register(c)

    def test_nop_writes_nothing(self):
        assert not writes_register(OpClass.NOP)


class TestClassSets:
    def test_sets_are_disjoint_where_expected(self):
        assert not (MEMORY_CLASSES & BRANCH_CLASSES)

    def test_branch_subset_of_control(self):
        assert BRANCH_CLASSES <= CONTROL_CLASSES
