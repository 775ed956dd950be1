"""Opcode classes for the synthetic RISC-like ISA.

The first-order model never looks at concrete opcodes; it only needs to
distinguish instruction *classes* because a class determines

* the functional-unit latency (Table 1's "Avg. Lat." column is the
  mix-weighted mean of these latencies),
* whether the instruction references memory (drives the data-cache
  simulation), and
* whether it is a conditional branch (drives the predictor simulation).

The class set mirrors the classical SimpleScalar taxonomy that the paper's
experiments were built on.
"""

from __future__ import annotations

import enum


class OpClass(enum.IntEnum):
    """Instruction classes, ordered so that NumPy arrays of these values
    are compact ``int8`` columns."""

    IALU = 0       #: integer add/sub/logic/shift
    IMUL = 1       #: integer multiply
    IDIV = 2       #: integer divide
    FALU = 3       #: floating-point add/sub/convert
    FMUL = 4       #: floating-point multiply
    FDIV = 5       #: floating-point divide
    LOAD = 6       #: memory read
    STORE = 7      #: memory write
    BRANCH = 8     #: conditional branch
    JUMP = 9       #: unconditional jump / call / return
    NOP = 10       #: no-op (consumes a slot, no dependences)


#: classes that access the data cache
MEMORY_CLASSES = frozenset({OpClass.LOAD, OpClass.STORE})

#: classes that consult the branch predictor
BRANCH_CLASSES = frozenset({OpClass.BRANCH})

#: classes that redirect fetch but are always predicted correctly in the
#: first-order machine (the paper models only conditional-branch
#: mispredictions)
CONTROL_CLASSES = frozenset({OpClass.BRANCH, OpClass.JUMP})

#: classes that produce a register value
_WRITERS = frozenset(
    {
        OpClass.IALU,
        OpClass.IMUL,
        OpClass.IDIV,
        OpClass.FALU,
        OpClass.FMUL,
        OpClass.FDIV,
        OpClass.LOAD,
    }
)


def is_memory(opclass: OpClass) -> bool:
    """Return True if instructions of this class access the data cache."""
    return opclass in MEMORY_CLASSES


def is_branch(opclass: OpClass) -> bool:
    """Return True if instructions of this class are conditional branches."""
    return opclass in BRANCH_CLASSES


def writes_register(opclass: OpClass) -> bool:
    """Return True if instructions of this class produce a register value."""
    return opclass in _WRITERS
