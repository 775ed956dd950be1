"""Synthetic instruction-trace generation.

Replaces the SPECint2000 traces the paper gathers with SimpleScalar-style
tooling.  A :class:`SyntheticTraceGenerator` first lays out a *static
program skeleton* — basic blocks with fixed addresses, terminator kinds,
branch targets and per-branch behaviour — then walks it, emitting dynamic
instructions whose register dependences, memory addresses and branch
outcomes follow the knobs of a :class:`~repro.trace.profiles.BenchmarkProfile`.

Design notes
------------
* **Dependences** — each source operand is either architecturally live-in
  (registers 0..7, never written) or refers to the destination written
  ``j`` dynamic writes earlier, with ``j`` geometric around
  ``dep_mean_distance``.  The realised dependence-distance distribution is
  the statistic that produces the IW power-law of paper §3.
* **Control flow** — block terminators are conditional branches or jumps.
  Loop back-edges follow a trip-count automaton (mispredicted only at
  loop exit by a history predictor), biased branches are Bernoulli with a
  strong bias, and "hard" branches are near-50/50 — these set the gShare
  misprediction rate.
* **Memory** — load/store addresses come from a three-region mixture
  (small stack, strided streams, large heap with tunable temporal
  locality).  Footprints relative to the cache geometry produce the
  short/long miss rates and the long-miss clustering used by Eq. 8.
* Realised class fractions: control instructions appear once per block,
  so the dynamic branch fraction is ~``1/mean_block_size`` scaled by the
  branch:jump ratio of the profile; body instructions are drawn from the
  remaining mix.

The walk
--------
:func:`_walk` states the per-instruction semantics once, as a resumable
walk over :class:`_GenState` that takes its randomness from a small draw
interface.  It has two sources: numpy's own ``Generator``
(:class:`_GeneratorDraws`, what :class:`SyntheticTraceGenerator` uses,
the reference) and the windowed PCG64 tape of
:mod:`repro.trace.vectorgen`, which replays the same draws for the
chunked generator's warm-up and for the spans its fast decoder cannot
resolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.instruction import NO_REG
from repro.isa.opclass import OpClass
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.trace import Trace

#: registers 0..LIVE_IN_REGS-1 are never written: reading them models a
#: long-distance (always-ready) dependence
LIVE_IN_REGS = 8

#: address-space region bases (comfortably disjoint).  The low bits are
#: deliberately staggered: bases that are multiples of large powers of two
#: all map to cache set 0, piling every region onto the same sets and
#: manufacturing conflict misses no real address-space layout would have.
STACK_BASE = 0x7FF0_4A00
STREAM_BASE = 0x2000_0000
STREAM_SPACING = 0x0100_0000
#: per-stream extra offset spreading streams across the L2 index space
#: (the L2 index wraps every 128 KB for the baseline geometry)
STREAM_STAGGER = 0x9400
HEAP_BASE = 0x4000_CC80
CODE_BASE = 0x0040_1180

#: granularity of the heap temporal-locality recency buffer (bytes);
#: matches the paper's 128-byte cache lines
_LOCALITY_LINE = 128
_RECENCY_DEPTH = 16

#: opclass-pool entries decoded per window (see ``_Session.pool_peek``)
_POOL_WINDOW = 1 << 12

_BODY_CLASSES = (
    OpClass.LOAD,
    OpClass.STORE,
    OpClass.IMUL,
    OpClass.IDIV,
    OpClass.FALU,
    OpClass.FMUL,
    OpClass.FDIV,
    OpClass.IALU,
)

_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)
_OP_JUMP = int(OpClass.JUMP)

# terminator behaviour kinds
_KIND_LOOP = 0
_KIND_BIASED = 1
_KIND_HARD = 2
_KIND_JUMP = 3


@dataclass(frozen=True)
class _StaticBlock:
    """One basic block of the synthetic program skeleton."""

    index: int
    addr: int            #: pc of the first instruction
    size: int            #: instructions including the terminator
    kind: int            #: terminator kind (_KIND_*)
    target: int          #: taken-successor block index (branches)
    trip_count: int      #: for loops: taken trip_count-1 times, then exits
    taken_prob: float    #: for biased/hard branches
    #: candidate targets for jumps; a jump picks one per dynamic execution
    #: (call/indirect-jump behaviour).  Static jump targets would make the
    #: block walk deterministic inside jump-only cycles and trap it there.
    jump_targets: tuple[int, ...] = ()

    @property
    def terminator_pc(self) -> int:
        return self.addr + 4 * (self.size - 1)


class _StaticProgram:
    """The static skeleton: block layout plus taken-successor structure."""

    def __init__(self, profile: BenchmarkProfile, rng: np.random.Generator):
        n = profile.num_static_blocks
        sizes = 2 + rng.geometric(
            1.0 / max(1.0, profile.mean_block_size - 2.0), size=n
        )
        addrs = CODE_BASE + 4 * np.concatenate([[0], np.cumsum(sizes[:-1])])

        control_total = profile.frac_branch + profile.frac_jump
        p_jump = profile.frac_jump / control_total if control_total > 0 else 0.0

        blocks: list[_StaticBlock] = []
        for b in range(n):
            u = rng.random()
            jump_targets: tuple[int, ...] = ()
            if u < p_jump:
                kind = _KIND_JUMP
                jump_targets = tuple(
                    int(t) for t in rng.integers(0, n, size=4)
                )
                target = jump_targets[0]
                trip, p_taken = 0, 1.0
            else:
                v = rng.random()
                if v < profile.frac_loop_branches and b > 0:
                    kind = _KIND_LOOP
                    # back-edge to a nearby earlier block (the loop head)
                    span = int(rng.integers(1, min(8, b) + 1))
                    target = b - span
                    trip = max(2, int(rng.geometric(1.0 / profile.mean_trip_count)))
                    p_taken = 0.0
                elif v < profile.frac_loop_branches + profile.frac_hard_branches:
                    kind = _KIND_HARD
                    target = int(rng.integers(0, n))
                    trip = 0
                    p_taken = float(rng.uniform(0.35, 0.65))
                else:
                    kind = _KIND_BIASED
                    # forward skip, as in if/else hammocks
                    target = (b + int(rng.integers(2, 9))) % n
                    trip = 0
                    p_taken = profile.biased_taken_prob
            blocks.append(
                _StaticBlock(
                    index=b, addr=int(addrs[b]), size=int(sizes[b]),
                    kind=kind, target=target, trip_count=trip,
                    taken_prob=p_taken, jump_targets=jump_targets,
                )
            )
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.blocks)


@dataclass
class _GenState:
    """Resumable walk state at an instruction boundary."""

    k: int = 0                 #: instructions emitted so far
    pos: int = 0               #: tape tokens consumed
    has32: bool = False        #: uint32 half-cache present
    cached: int = 0            #: cached uint32 half value
    allocs: int = 0            #: destination registers allocated so far
    pool_base: int = 0         #: tape offset of the current opclass pool
    pool_i: int = 0            #: draws consumed from the current pool
    block: int = -1            #: current static block (-1: entry not drawn)
    slot: int = 0              #: next body slot within the current block
    stream_pos: list[int] | None = None
    ring: list[int] | None = None          #: last <=16 heap miss lines
    loop_counters: list[int] | None = None


class _Session:
    """Shared static context for one (profile, length, seed) generation.

    Draws the static skeleton with the real generator and records the
    generator state right after it (``state0``): the opclass pool and
    the walk draw everything else from that point on.
    """

    def __init__(self, profile: BenchmarkProfile, num_regs: int,
                 length: int, seed: int | None) -> None:
        if num_regs <= LIVE_IN_REGS + 1:
            raise ValueError(f"num_regs must exceed {LIVE_IN_REGS + 1}")
        if length <= 0:
            raise ValueError("trace length must be positive")
        self.profile = profile
        self.n = length
        self.num_writable = num_regs - LIVE_IN_REGS
        self.recent_cap = 4 * self.num_writable

        rng = np.random.default_rng(profile.seed if seed is None else seed)
        self.blocks = _StaticProgram(profile, rng).blocks
        classes, probs = _body_mix(profile)
        self.body_probs = probs
        self.body_classes_np = classes
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self.body_cdf = cdf
        #: decoded pool window: classes of tape offsets from ``_win_lo``
        self._win = np.empty(0, dtype=np.int8)
        self._win_lo = 0

        #: tape origin: generator state right before the pool draw
        self.state0 = rng.bit_generator.state

        total = profile.stack_frac + profile.stream_frac + profile.heap_frac
        self.cum_stack = profile.stack_frac / total
        self.cum_stream = self.cum_stack + profile.stream_frac / total
        self.stack_excl = max(4, profile.stack_bytes) // 4
        self.num_lines = max(1, profile.heap_bytes // _LOCALITY_LINE)
        self.geom_p = 1.0 / profile.dep_mean_distance
        self.frac_live_in = profile.frac_live_in
        self.frac_two_sources = profile.frac_two_sources
        self.heap_locality = profile.heap_locality
        self.num_streams = profile.num_streams
        self.stream_stride = profile.stream_stride
        self.stream_bytes = profile.stream_bytes
        self.has_heap = profile.heap_frac > 0

    # -- tape access ---------------------------------------------------

    def tokens(self, pos: int, count: int) -> np.ndarray:
        """``count`` tape tokens starting ``pos`` tokens past the origin."""
        bg = np.random.PCG64()
        bg.state = self.state0
        if pos:
            bg.advance(pos)
        gen = np.random.Generator(bg)
        return gen.integers(0, 2 ** 64, dtype=np.uint64, size=count)

    def initial_state(self) -> _GenState:
        """State right after the pool draw: ``rng.choice(body_classes,
        size=n, p=body_probs)`` consumes exactly n doubles, and the
        skeleton draws may leave an unconsumed uint32 half that the
        walk's first bounded draw picks up."""
        return _GenState(
            pos=self.n,
            has32=bool(self.state0["has_uint32"]),
            cached=int(self.state0["uinteger"]),
            stream_pos=[0] * self.num_streams,
            ring=[],
            loop_counters=[0] * len(self.blocks),
        )

    def pool_peek(self, st: _GenState, count: int) -> np.ndarray:
        """The next pool opclasses (a pure function of the tape), without
        consuming them, clamped to stop short of the refill boundary."""
        count = min(count, self.n - 1 - st.pool_i)
        if count <= 0:
            return np.empty(0, dtype=np.int8)
        return self._pool_window(st.pool_base + st.pool_i, count)

    def pool_class_at(self, pos: int) -> int:
        """Decode a single pool opclass at absolute tape offset ``pos``."""
        return int(self._pool_window(pos, 1)[0])

    def _pool_window(self, pos: int, count: int) -> np.ndarray:
        """Pool opclasses at tape offsets ``pos .. pos + count - 1``.

        A pool class is a pure function of its tape token, so the decoded
        window is keyed on absolute offsets and never goes stale; a read
        outside it decodes a fresh window of at least ``_POOL_WINDOW``
        entries starting at ``pos``.
        """
        off = pos - self._win_lo
        if off < 0 or off + count > len(self._win):
            toks = self.tokens(pos, max(count, _POOL_WINDOW))
            u = (toks >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
            idx = np.searchsorted(self.body_cdf, u, side="right")
            self._win = self.body_classes_np[idx]
            self._win_lo = pos
            off = 0
        return self._win[off:off + count]

    def is_warm(self, st: _GenState) -> bool:
        """Fast-decoder preconditions: the register recency window is
        full (every dependence distance <= cap resolves arithmetically)
        and, when the profile has heap traffic, the heap recency ring
        holds its full 16 lines."""
        return (st.allocs >= self.recent_cap
                and (not self.has_heap or len(st.ring) >= _RECENCY_DEPTH))


class _Columns:
    """Append-oriented column buffers for one chunk.

    The walk appends per-instruction to plain Python lists; the fast
    decoder lands whole numpy column blocks via :meth:`append_arrays`.
    Both interleave freely — list segments are flushed into array parts
    in order.
    """

    __slots__ = ("pc", "opclass", "dst", "src1", "src2", "addr", "taken",
                 "target", "_parts", "_parts_n")

    def __init__(self) -> None:
        self.pc: list[int] = []
        self.opclass: list[int] = []
        self.dst: list[int] = []
        self.src1: list[int] = []
        self.src2: list[int] = []
        self.addr: list[int] = []
        self.taken: list[bool] = []
        self.target: list[int] = []
        self._parts: list[tuple[np.ndarray, ...]] = []
        self._parts_n = 0

    def __len__(self) -> int:
        return self._parts_n + len(self.pc)

    def _flush(self) -> None:
        if not self.pc:
            return
        self._parts.append((
            np.array(self.pc, dtype=np.int64),
            np.array(self.opclass, dtype=np.int8),
            np.array(self.dst, dtype=np.int16),
            np.array(self.src1, dtype=np.int16),
            np.array(self.src2, dtype=np.int16),
            np.array(self.addr, dtype=np.int64),
            np.array(self.taken, dtype=np.bool_),
            np.array(self.target, dtype=np.int64),
        ))
        self._parts_n += len(self.pc)
        for lst in (self.pc, self.opclass, self.dst, self.src1, self.src2,
                    self.addr, self.taken, self.target):
            lst.clear()

    def append_arrays(self, pc, opclass, dst, src1, src2, addr, taken,
                      target) -> None:
        """Append one decoded block of columns (from the fast path)."""
        self._flush()
        self._parts.append((pc, opclass, dst, src1, src2, addr, taken,
                            target))
        self._parts_n += len(pc)

    def to_trace(self, name: str) -> Trace:
        self._flush()
        if len(self._parts) == 1:
            return Trace(*self._parts[0], name=name)
        cols = [np.concatenate([p[i] for p in self._parts])
                if self._parts else np.empty(0)
                for i in range(8)]
        return Trace(*cols, name=name)


def _walk(s: _Session, st: _GenState, draws, count: int, cols: _Columns,
          stop=None) -> None:
    """The generator's per-instruction semantics, written once.

    Emits up to ``count`` instructions into ``cols`` and advances ``st``
    to the exact instruction boundary.  ``draws`` is the randomness:
    ``random()``, ``integers(excl)`` (``Generator.integers(0, excl)``),
    ``geometric(p)``, the body-class pool (``pool(st, count)`` for a
    slice that stays clear of the refill, ``pool_next(st)`` one class at
    a time across it) and ``save(st)``, which records the draw cursor.
    ``stop(st)`` is polled at block boundaries and may end the walk
    early (used to hand over to the fast decoder).

    Destinations go round-robin over the writable registers, which
    maximises the time before a register is overwritten, so requested
    dependence distances survive renaming; a dependence reaching past
    the last ``4 * writable`` allocations falls back to live-in.
    """
    n = s.n
    blocks = s.blocks
    limit = min(st.k + count, n)
    random = draws.random
    integers = draws.integers
    geometric = draws.geometric
    frac_live_in = s.frac_live_in
    geom_p = s.geom_p
    cap = s.recent_cap
    writable = s.num_writable
    two_sources = s.frac_two_sources
    cum_stack = s.cum_stack
    cum_stream = s.cum_stream
    stack_excl = s.stack_excl
    num_streams = s.num_streams
    stride = s.stream_stride
    stream_bytes = s.stream_bytes
    locality = s.heap_locality
    num_lines = s.num_lines
    stream_pos = st.stream_pos
    ring = st.ring
    loop_counters = st.loop_counters
    add_pc, add_op = cols.pc.append, cols.opclass.append
    add_dst, add_src1 = cols.dst.append, cols.src1.append
    add_src2, add_addr = cols.src2.append, cols.addr.append
    add_taken, add_target = cols.taken.append, cols.target.append
    allocs = st.allocs

    def source() -> int:
        recent = allocs if allocs < cap else cap
        if recent == 0 or random() < frac_live_in:
            return integers(LIVE_IN_REGS)
        j = geometric(geom_p)
        if j > recent:
            return integers(LIVE_IN_REGS)
        return LIVE_IN_REGS + (allocs - j) % writable

    def address() -> int:
        u = random()
        if u < cum_stack:
            return STACK_BASE + integers(stack_excl) * 4
        if u < cum_stream:
            stream = integers(num_streams)
            pos = stream_pos[stream]
            stream_pos[stream] = (pos + stride) % stream_bytes
            return (STREAM_BASE + stream * (STREAM_SPACING + STREAM_STAGGER)
                    + pos)
        if ring and random() < locality:
            line = ring[integers(len(ring))]
        else:
            line = integers(num_lines)
            ring.append(line)
            if len(ring) > _RECENCY_DEPTH:
                del ring[0]
        return (HEAP_BASE + line * _LOCALITY_LINE
                + integers(_LOCALITY_LINE // 4) * 4)

    if st.block < 0:
        st.block = integers(len(blocks))
    k = st.k
    while k < limit:
        block = blocks[st.block]
        body = block.size - 1
        if st.slot < body:
            take = min(body - st.slot, limit - k)
            if st.pool_i + take < n:
                classes = draws.pool(st, take)
            else:
                # the pool runs out inside this span: the reference
                # refills it eagerly, right after reading the class and
                # before that instruction's operand draws
                classes = (draws.pool_next(st) for _ in range(take))
            pc = block.addr + 4 * st.slot
            for cls in classes:
                src1 = source()
                if cls == _OP_LOAD:
                    dst = LIVE_IN_REGS + allocs % writable
                    allocs += 1
                    src2 = NO_REG
                    addr = address()
                elif cls == _OP_STORE:
                    src2 = source()
                    dst = NO_REG
                    addr = address()
                else:
                    src2 = source() if random() < two_sources else NO_REG
                    dst = LIVE_IN_REGS + allocs % writable
                    allocs += 1
                    addr = 0
                add_pc(pc)
                add_op(cls)
                add_dst(dst)
                add_src1(src1)
                add_src2(src2)
                add_addr(addr)
                add_taken(False)
                add_target(0)
                pc += 4
            k += take
            st.slot += take
            if k >= limit:
                break
        # terminator
        if block.kind == _KIND_JUMP:
            op = _OP_JUMP
            src1 = NO_REG
            is_taken = True
            succ = block.jump_targets[integers(len(block.jump_targets))]
        else:
            op = _OP_BRANCH
            src1 = source()
            if block.kind == _KIND_LOOP:
                trips = loop_counters[block.index] + 1
                is_taken = trips < block.trip_count
                loop_counters[block.index] = trips if is_taken else 0
            else:
                is_taken = random() < block.taken_prob
            succ = block.target if is_taken else (block.index + 1) % len(blocks)
        add_pc(block.terminator_pc)
        add_op(op)
        add_dst(NO_REG)
        add_src1(src1)
        add_src2(NO_REG)
        add_addr(0)
        add_taken(is_taken)
        add_target(blocks[succ].addr if is_taken else 0)
        k += 1
        st.block = succ
        st.slot = 0
        if stop is not None:
            st.k, st.allocs = k, allocs
            if stop(st):
                break
    st.k, st.allocs = k, allocs
    draws.save(st)


class _GeneratorDraws:
    """The walk's reference draw source: numpy's own ``Generator``,
    positioned at the session's ``state0`` with the pool drawn by the
    same ``rng.choice`` call."""

    def __init__(self, s: _Session) -> None:
        bg = np.random.PCG64()
        bg.state = s.state0
        rng = np.random.Generator(bg)
        self._rng = rng
        self._n = s.n
        self._refill = lambda: rng.choice(s.body_classes_np, size=s.n,
                                          p=s.body_probs)
        self._pool = self._refill()
        self.random = rng.random

    def integers(self, excl: int) -> int:
        return int(self._rng.integers(0, excl))

    def geometric(self, p: float) -> int:
        return int(self._rng.geometric(p))

    def pool(self, st: _GenState, count: int) -> list[int]:
        i = st.pool_i
        st.pool_i = i + count
        return self._pool[i:i + count].tolist()

    def pool_next(self, st: _GenState) -> int:
        cls = int(self._pool[st.pool_i])
        st.pool_i += 1
        if st.pool_i >= self._n:
            self._pool = self._refill()
            st.pool_i = 0
        return cls

    def save(self, st: _GenState) -> None:
        """The generator keeps its own cursor; nothing to record."""


class SyntheticTraceGenerator:
    """Generates reproducible dynamic traces for one benchmark profile.

    Example:
        >>> from repro.trace import SyntheticTraceGenerator, get_profile
        >>> gen = SyntheticTraceGenerator(get_profile("gzip"))
        >>> trace = gen.generate(10_000)
        >>> len(trace)
        10000
    """

    def __init__(self, profile: BenchmarkProfile, num_regs: int = 64):
        if num_regs <= LIVE_IN_REGS + 1:
            raise ValueError(f"num_regs must exceed {LIVE_IN_REGS + 1}")
        self.profile = profile
        self.num_regs = num_regs

    def generate(self, length: int | None = None, seed: int | None = None) -> Trace:
        """Produce a trace of ``length`` dynamic instructions.

        Args:
            length: dynamic instruction count; defaults to the profile's
                ``default_length``.
            seed: RNG seed; defaults to the profile's ``seed`` so repeated
                calls yield identical traces.
        """
        profile = self.profile
        n = profile.default_length if length is None else int(length)
        s = _Session(profile, self.num_regs, n, seed)
        cols = _Columns()
        _walk(s, s.initial_state(), _GeneratorDraws(s), n, cols)
        return cols.to_trace(profile.name)


def _body_mix(profile: BenchmarkProfile) -> tuple[np.ndarray, np.ndarray]:
    """Normalised opclass distribution for non-control instructions."""
    mix = profile.full_mix()
    classes = [c for c in _BODY_CLASSES if mix.get(c, 0.0) > 0.0]
    probs = np.array([mix[c] for c in classes], dtype=float)
    probs /= probs.sum()
    return np.array([int(c) for c in classes], dtype=np.int8), probs


def generate_trace(
    benchmark: str, length: int | None = None, seed: int | None = None
) -> Trace:
    """Convenience wrapper: trace for a named SPECint2000 stand-in.

    Generated by :class:`~repro.trace.vectorgen.ChunkedTraceGenerator`,
    whose bytes equal :class:`SyntheticTraceGenerator`'s; the latter is
    kept as the test oracle.
    """
    from repro.trace.vectorgen import ChunkedTraceGenerator

    return ChunkedTraceGenerator(get_profile(benchmark)).generate(length, seed)
