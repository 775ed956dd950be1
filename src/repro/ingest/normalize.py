"""Normalization of foreign instruction records into trace columns.

Readers (:mod:`repro.ingest.readers`) parse a foreign file into *column
batches* — plain dicts of per-field sequences.  This module turns those
batches into the repository's canonical columnar form
(:data:`repro.trace.trace._COLUMNS`): opcode names map onto the
:class:`~repro.isa.opclass.OpClass` taxonomy, missing fields get
deterministic defaults, and out-of-range register names fold into the
modeled register file.  Everything lossy is reported through the shared
``warn`` callback, so an ingested trace carries a faithful record of
what normalization had to invent.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.isa.instruction import NO_REG
from repro.isa.opclass import OpClass
from repro.trace.trace import Trace

__all__ = [
    "OPCLASS_ALIASES",
    "REGISTER_LIMIT",
    "batch_to_trace",
    "opclass_code",
]

#: accepted spellings for each opclass — SimpleScalar-ish names, common
#: disassembler mnemonic families, and the canonical lower-case names
OPCLASS_ALIASES: dict[str, OpClass] = {
    **{c.name.lower(): c for c in OpClass},
    "int": OpClass.IALU, "alu": OpClass.IALU, "add": OpClass.IALU,
    "sub": OpClass.IALU, "logic": OpClass.IALU, "shift": OpClass.IALU,
    "iop": OpClass.IALU, "mov": OpClass.IALU,
    "mul": OpClass.IMUL, "mult": OpClass.IMUL,
    "div": OpClass.IDIV,
    "fp": OpClass.FALU, "fadd": OpClass.FALU, "fsub": OpClass.FALU,
    "flop": OpClass.FALU, "fcvt": OpClass.FALU,
    "fmul": OpClass.FMUL, "fmult": OpClass.FMUL,
    "fdiv": OpClass.FDIV, "fsqrt": OpClass.FDIV,
    "ld": OpClass.LOAD, "read": OpClass.LOAD, "lw": OpClass.LOAD,
    "st": OpClass.STORE, "write": OpClass.STORE, "sw": OpClass.STORE,
    "br": OpClass.BRANCH, "bcc": OpClass.BRANCH, "cond": OpClass.BRANCH,
    "jmp": OpClass.JUMP, "call": OpClass.JUMP, "ret": OpClass.JUMP,
    "j": OpClass.JUMP,
    "nop": OpClass.NOP,
}

#: registers above this fold modulo the limit (int16 column, and the
#: renamer sizes its producer map from the largest name seen)
REGISTER_LIMIT = 4096

#: synthetic code segment base for records without a pc
PC_BASE = 0x40_0000


def opclass_code(token: str, warn: Callable[[str], None]) -> int:
    """Map one op spelling to its :class:`OpClass` code.

    Integer spellings pass through range-checked; unknown names fall
    back to ``IALU`` with a warning (once per distinct spelling, handled
    by the caller's warn dedup).
    """
    text = token.strip().lower()
    cls = OPCLASS_ALIASES.get(text)
    if cls is not None:
        return int(cls)
    try:
        code = int(text)
    except ValueError:
        warn(f"unknown op {token!r}; treated as ialu")
        return int(OpClass.IALU)
    if 0 <= code < len(OpClass):
        return code
    warn(f"op code {code} out of range; treated as ialu")
    return int(OpClass.IALU)


def _int_column(values: Sequence, dtype, default: int, n: int,
                name: str, warn: Callable[[str], None]) -> np.ndarray:
    if values is None:
        return np.full(n, default, dtype=dtype)
    try:
        arr = np.asarray(values, dtype=np.int64)
    except OverflowError:
        # kernel-space addresses and pcs (e.g. 0xffff800000000000) are
        # u64 values past the signed trace columns' range; fold them by
        # two's complement so the bit pattern — and with it cache-line
        # and set geometry — survives the signed representation
        warn(f"column {name!r} has values outside int64; "
             "folded to signed 64-bit (two's complement)")
        mask = (1 << 64) - 1
        arr = np.asarray([int(v) & mask for v in values],
                         dtype=np.uint64).view(np.int64)
    if len(arr) != n:
        raise ValueError(f"column {name!r} has {len(arr)} values != {n}")
    return arr


def batch_to_trace(batch: Mapping[str, Sequence], name: str,
                   warn: Callable[[str], None],
                   pc_offset: int = 0) -> Trace:
    """One reader column batch as a :class:`Trace` chunk.

    ``batch`` must carry ``opclass`` (already mapped to codes); every
    other column is optional.  Missing columns get deterministic
    defaults: sequential 4-byte pcs from ``PC_BASE`` (shifted by
    ``pc_offset`` instructions), absent registers, address 0, untaken,
    fall-through target.  Register names at or above
    :data:`REGISTER_LIMIT` fold modulo the limit with a warning.
    """
    op = np.asarray(batch["opclass"], dtype=np.int64)
    n = len(op)
    if np.any((op < 0) | (op >= len(OpClass))):
        raise ValueError("opclass codes out of range after normalization")
    pc = batch.get("pc")
    if pc is None:
        warn("no pc column; synthesized sequential pcs")
        pc = PC_BASE + 4 * (pc_offset + np.arange(n, dtype=np.int64))
    else:
        pc = _int_column(pc, np.int64, 0, n, "pc", warn)
    regs = {}
    for col in ("dst", "src1", "src2"):
        arr = _int_column(batch.get(col), np.int16, NO_REG, n, col, warn)
        arr = np.asarray(arr, dtype=np.int64)
        bad = arr < NO_REG
        if np.any(bad):
            warn(f"negative register names in {col!r}; treated as absent")
            arr = np.where(bad, NO_REG, arr)
        wide = arr >= REGISTER_LIMIT
        if np.any(wide):
            warn(f"register names >= {REGISTER_LIMIT} in {col!r}; "
                 f"folded modulo {REGISTER_LIMIT}")
            arr = np.where(wide, arr % REGISTER_LIMIT, arr)
        regs[col] = arr
    addr = _int_column(batch.get("addr"), np.int64, 0, n, "addr", warn)
    taken = batch.get("taken")
    if taken is None:
        taken = np.zeros(n, dtype=np.bool_)
        if int(np.sum(op == int(OpClass.BRANCH))):
            warn("no taken column; all branches treated as not taken")
    else:
        taken = np.asarray(taken, dtype=np.bool_)
        if len(taken) != n:
            raise ValueError(f"column 'taken' has {len(taken)} values != {n}")
    target = batch.get("target")
    if target is None:
        target = np.asarray(pc, dtype=np.int64) + 4
        if int(np.sum(np.isin(op, [int(OpClass.BRANCH),
                                   int(OpClass.JUMP)]))):
            warn("no target column; control targets synthesized as pc+4")
    else:
        target = _int_column(target, np.int64, 0, n, "target", warn)
    return Trace(
        pc=pc, opclass=op, dst=regs["dst"], src1=regs["src1"],
        src2=regs["src2"], addr=addr, taken=taken, target=target,
        name=name,
    )
