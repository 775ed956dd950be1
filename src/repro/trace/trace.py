"""Columnar dynamic-instruction trace.

A :class:`Trace` stores one dynamic instruction stream as parallel NumPy
arrays.  All simulators in this repository (the functional miss-event
collector, the idealized IW simulator and the detailed cycle-level
simulator) consume this representation; the row-oriented
:class:`repro.isa.Instruction` view is generated on demand.

The most important derived product is :meth:`Trace.dependences`: the
register-renaming pass that converts source-register names into the trace
index of the producing instruction.  Downstream simulators never touch
register names — data-dependence questions become integer comparisons on
producer indices, which is both faster and closer to how the paper
reasons about dependences ("register-based data dependence properties",
§3).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.isa.instruction import NO_REG, Instruction
from repro.isa.latency import LatencyTable
from repro.isa.opclass import OpClass, writes_register

#: columns of a trace and their dtypes, in serialisation order
_COLUMNS = (
    ("pc", np.int64),
    ("opclass", np.int8),
    ("dst", np.int16),
    ("src1", np.int16),
    ("src2", np.int16),
    ("addr", np.int64),
    ("taken", np.bool_),
    ("target", np.int64),
)


@dataclass(frozen=True)
class Dependences:
    """Producer indices for each instruction's source operands.

    ``dep1[k]``/``dep2[k]`` hold the trace index of the instruction that
    produces the value consumed by instruction ``k``'s first/second source
    operand, or -1 when the operand is absent or architecturally live-in.
    """

    dep1: np.ndarray
    dep2: np.ndarray

    def __len__(self) -> int:
        return len(self.dep1)

    def distances(self) -> np.ndarray:
        """Dependence distances (consumer index minus producer index) for
        every present operand, flattened.  This is the raw statistic behind
        the IW power-law (paper §3)."""
        idx = np.arange(len(self.dep1))
        d1 = idx - self.dep1
        d2 = idx - self.dep2
        out = np.concatenate([d1[self.dep1 >= 0], d2[self.dep2 >= 0]])
        return out.astype(np.int64)


class Trace:
    """An immutable dynamic instruction stream in columnar form."""

    def __init__(
        self,
        pc: np.ndarray,
        opclass: np.ndarray,
        dst: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        addr: np.ndarray,
        taken: np.ndarray,
        target: np.ndarray,
        name: str = "trace",
    ) -> None:
        arrays = {
            "pc": pc, "opclass": opclass, "dst": dst, "src1": src1,
            "src2": src2, "addr": addr, "taken": taken, "target": target,
        }
        n = len(pc)
        for col, dtype in _COLUMNS:
            arr = np.asarray(arrays[col], dtype=dtype)
            if len(arr) != n:
                raise ValueError(f"column {col!r} has length {len(arr)} != {n}")
            arr.setflags(write=False)
            setattr(self, col, arr)
        self.name = name
        #: derived products, computed once per trace object (:meth:`memo`)
        self._memo: dict[Hashable, Any] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_instructions(
        cls, instructions: Iterable[Instruction], name: str = "trace"
    ) -> "Trace":
        """Build a trace from row-oriented instruction records."""
        rows = list(instructions)
        return cls(
            pc=np.array([i.pc for i in rows], dtype=np.int64),
            opclass=np.array([int(i.opclass) for i in rows], dtype=np.int8),
            dst=np.array([i.dst for i in rows], dtype=np.int16),
            src1=np.array([i.src1 for i in rows], dtype=np.int16),
            src2=np.array([i.src2 for i in rows], dtype=np.int16),
            addr=np.array([i.addr for i in rows], dtype=np.int64),
            taken=np.array([i.taken for i in rows], dtype=np.bool_),
            target=np.array([i.target for i in rows], dtype=np.int64),
            name=name,
        )

    # -- container protocol ---------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[Instruction]:
        for k in range(len(self)):
            yield self[k]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Trace(
                self.pc[key], self.opclass[key], self.dst[key],
                self.src1[key], self.src2[key], self.addr[key],
                self.taken[key], self.target[key], name=self.name,
            )
        k = int(key)
        return Instruction(
            pc=int(self.pc[k]),
            opclass=OpClass(int(self.opclass[k])),
            dst=int(self.dst[k]),
            src1=int(self.src1[k]),
            src2=int(self.src2[k]),
            addr=int(self.addr[k]),
            taken=bool(self.taken[k]),
            target=int(self.target[k]),
        )

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, n={len(self)})"

    # -- pickling: the memo never travels --------------------------------

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _memo={})

    # -- masks ----------------------------------------------------------

    def mask(self, *classes: OpClass) -> np.ndarray:
        """Boolean mask selecting instructions of the given classes."""
        out = np.zeros(len(self), dtype=bool)
        for c in classes:
            out |= self.opclass == int(c)
        return out

    @property
    def loads(self) -> np.ndarray:
        return self.mask(OpClass.LOAD)

    @property
    def stores(self) -> np.ndarray:
        return self.mask(OpClass.STORE)

    @property
    def branches(self) -> np.ndarray:
        return self.mask(OpClass.BRANCH)

    # -- derived products -------------------------------------------------

    def memo(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The derived product named ``key``, computing it on first use.

        The memo lives as long as this trace object: slices start empty
        and pickles leave it behind.  ``key`` must name everything the
        product depends on besides the trace itself.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def dependences(self) -> Dependences:
        """Run the register-renaming pass (memoized).

        Each source register name maps to the trace index of its most
        recent producer, as an in-order sweep would find it (see
        :class:`StreamingRenamer`).  Loads/stores do not create memory
        dependences here; the paper's model (and its detailed reference
        simulator) track register dependences only.
        """
        return self.memo("dependences",
                         lambda: StreamingRenamer().rename_chunk(self))

    def latencies(self, table: LatencyTable) -> np.ndarray:
        """Per-instruction static latency column under ``table``."""
        return table.as_vector()[self.opclass.astype(np.int64)]

    def instruction_mix(self) -> dict[OpClass, float]:
        """Dynamic frequency of each opclass present in the trace."""
        counts = np.bincount(self.opclass.astype(np.int64), minlength=len(OpClass))
        n = len(self)
        return {OpClass(c): counts[c] / n for c in range(len(OpClass)) if counts[c]}

    # -- (de)serialisation ------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as a compressed ``.npz`` archive."""
        np.savez_compressed(
            Path(path),
            name=np.array(self.name),
            **{col: getattr(self, col) for col, _ in _COLUMNS},
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(
                **{col: data[col] for col, _ in _COLUMNS},
                name=str(data["name"]),
            )


class StreamingRenamer:
    """Chunk-at-a-time register renaming with cross-chunk carry.

    Feeding the chunks of a stream through :meth:`rename_chunk` in order
    produces exactly the dependences :meth:`Trace.dependences` computes
    on the concatenated trace: the producer map persists across chunk
    boundaries, so a source operand whose producer lives in an earlier
    chunk resolves to that producer's *global* trace index.  Peak memory
    is O(chunk) plus the register file.

    Each chunk is renamed with whole-array operations instead of a
    per-instruction sweep: the operand slots are grouped by register
    with a stable sort, so within a group they stay in program order,
    and a running maximum over the group's writer slots gives every
    read its latest earlier producer.
    """

    def __init__(self) -> None:
        #: register -> global index of its latest producer, -1 for none
        self._prod = np.full(1, -1, dtype=np.int64)
        self._writes = np.array(
            [writes_register(OpClass(c)) for c in range(len(OpClass))]
        )
        self._next = 0

    @property
    def position(self) -> int:
        """Global index of the next instruction to be renamed."""
        return self._next

    def rename_chunk(self, chunk: "Trace") -> Dependences:
        """Dependences of ``chunk`` (producer indices are global)."""
        n = len(chunk)
        base = self._next
        self._next = base + n
        # three operand slots per instruction, in program order: slot
        # 3k and 3k+1 read its sources before slot 3k+2 writes its
        # destination
        dst = np.where(self._writes[chunk.opclass], chunk.dst, NO_REG)
        reg = np.stack((chunk.src1, chunk.src2, dst), axis=1).ravel()
        hi = 1 + int(reg.max(initial=NO_REG))
        if hi > len(self._prod):
            self._prod = np.concatenate(
                (self._prod, np.full(hi - len(self._prod), -1, np.int64))
            )
        prod = self._prod
        order = np.argsort(reg, kind="stable")
        reg_s = reg[order]
        pos_s = order // 3 + base
        writer = np.zeros(3 * n, dtype=bool)
        writer[2::3] = dst != NO_REG
        writer_s = writer[order]
        # sorted position of the latest writer slot up to each slot; it
        # produces the slot's register only if it lies in the same group
        last = np.maximum.accumulate(
            np.where(writer_s, np.arange(3 * n), -1)
        )
        in_chunk = (last >= 0) & (reg_s[last] == reg_s)
        dep_s = np.where(in_chunk, pos_s[last], prod[reg_s])
        dep_s[reg_s == NO_REG] = -1
        dep = np.empty(3 * n, dtype=np.int64)
        dep[order] = dep_s
        # carry each register's last writer in this chunk forward
        w = np.flatnonzero(writer_s)
        if len(w):
            w_reg = reg_s[w]
            tail = w[np.append(w_reg[1:] != w_reg[:-1], True)]
            prod[reg_s[tail]] = pos_s[tail]
        return Dependences(dep1=dep[0::3].copy(), dep2=dep[1::3].copy())
