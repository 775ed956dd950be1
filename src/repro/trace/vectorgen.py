"""Chunked, vectorized synthetic-trace generation.

Emits the trace of :class:`repro.trace.synthetic.SyntheticTraceGenerator`,
byte for byte, as a *stream of fixed-size column chunks* instead of one
whole-trace materialization, and replaces most of the per-instruction
Python loop with numpy span kernels.

Equivalence strategy
--------------------
The reference interleaves scalar ``numpy.random.Generator`` draws in a
data-dependent order, so naive batching changes every value.  Instead
we split the problem (see :mod:`repro.trace._tape`):

1. the static program skeleton uses the *real* generator, exactly like
   the reference (:class:`~repro.trace.synthetic._Session`);
2. from that point the raw PCG64 uint64 stream (the "tape") is generated
   at C speed, and the reference's draw sequence is *decoded* from it:

   - the reference's own walk (:func:`~repro.trace.synthetic._walk`)
     runs over :class:`_TapeDraws`, a windowed
     :class:`~repro.trace._tape.Tape`, instead of the ``Generator``.
     It is exact for every profile and every state, and serves as the
     warm-up stepper, the rare-span replay and the engine for profiles
     the fast decoder does not support;
   - a **fast span decoder** (:class:`~repro.trace._fastcore._FastCore`)
     precomputes, for a window of tape, every *hypothetical* draw
     outcome (uniform values, ziggurat accept/reject, geometric values,
     Lemire halves) as numpy arrays, walks the block skeleton in a lean
     Python loop that only tracks the tape cursor, then materializes all
     columns with vectorized gathers.  Rare events the vectorized tables
     cannot resolve (deep ziggurat rejection, dependence distances
     beyond the recency window, Lemire rejection entry on
     non-power-of-two bounds) are flagged in the tables and replayed by
     the walk.

Generation state between chunks lives in
:class:`~repro.trace.synthetic._GenState`, a small tuple of integers and
short lists, so streaming at any chunk size yields byte-identical
concatenations (chunk-size invariance) with O(chunk) peak memory.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.trace._tape import Tape
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.synthetic import _Columns, _GenState, _Session, _walk
from repro.trace.trace import Trace

__all__ = ["ChunkedTraceGenerator", "DEFAULT_CHUNK_SIZE", "stream_chunks"]

#: default instructions per chunk; 2**16 keeps span working sets ~10 MB
DEFAULT_CHUNK_SIZE = 1 << 16

#: tape tokens per :class:`_TapeDraws` window
_WINDOW = 1 << 15


class _TapeDraws(Tape):
    """The walk's draw source over the session's PCG64 tape.

    Holds one window of at most ``_WINDOW`` tokens and slides it forward
    when a draw runs past its end, so memory stays O(window) however
    long the walk runs.
    """

    __slots__ = ("s", "base")

    def __init__(self, s: _Session, st: _GenState) -> None:
        super().__init__((), 0, st.has32, st.cached)
        self.s = s
        self.base = st.pos     #: tape offset of ``tokens[0]``

    def u64(self) -> int:
        try:
            v = self.tokens[self.pos]
        except IndexError:
            self.base += self.pos
            self.tokens = self.s.tokens(self.base, _WINDOW).tolist()
            self.pos = 0
            v = self.tokens[0]
        self.pos += 1
        return v

    def pool(self, st: _GenState, count: int) -> list[int]:
        classes = self.s.pool_peek(st, count).tolist()
        st.pool_i += count
        return classes

    def pool_next(self, st: _GenState) -> int:
        s = self.s
        cls = s.pool_class_at(st.pool_base + st.pool_i)
        st.pool_i += 1
        if st.pool_i >= s.n:
            # the refill's rng.choice consumes the next n tokens
            st.pool_base = self.base + self.pos
            st.pool_i = 0
            self.base = st.pool_base + s.n
            self.tokens = []
            self.pos = 0
        return cls

    def save(self, st: _GenState) -> None:
        st.pos = self.base + self.pos
        st.has32, st.cached = self.has32, self.cached


def _replay(s: _Session, st: _GenState, count: int, cols: _Columns,
            stop=None) -> None:
    """Run the walk from ``st`` over the tape (see :func:`_walk`)."""
    _walk(s, st, _TapeDraws(s, st), count, cols, stop)


class ChunkedTraceGenerator:
    """Streaming, vectorized drop-in for ``SyntheticTraceGenerator``.

    ``generate`` returns the same :class:`Trace` the original produces,
    byte for byte; ``chunks`` yields it as successive column chunks with
    O(chunk) peak memory.
    """

    def __init__(self, profile: BenchmarkProfile, num_regs: int = 64) -> None:
        self.profile = profile
        self.num_regs = num_regs

    def chunks(self, length: int | None = None, seed: int | None = None,
               chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Trace]:
        """Yield the trace as consecutive chunks of ``chunk_size``
        instructions (the last may be shorter)."""
        profile = self.profile
        n = profile.default_length if length is None else int(length)
        session = _Session(profile, self.num_regs, n, seed)
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        state = session.initial_state()
        fast = _fast_core_for(session)
        while state.k < n:
            cols = _Columns()
            want = min(chunk_size, n - state.k)
            while len(cols) < want:
                if fast is not None and session.is_warm(state):
                    fast.run(state, want - len(cols), cols)
                else:
                    # warm-up walk; hand over at the first block
                    # boundary where the fast preconditions hold
                    stop = session.is_warm if fast is not None else None
                    _replay(session, state, want - len(cols), cols, stop)
            yield cols.to_trace(profile.name)

    def generate(self, length: int | None = None,
                 seed: int | None = None) -> Trace:
        """Whole-trace generation (concatenation of one stream)."""
        profile = self.profile
        n = profile.default_length if length is None else int(length)
        parts = list(self.chunks(length=n, seed=seed,
                                 chunk_size=max(n, 1)))
        if len(parts) == 1:
            return parts[0]
        return concat_traces(parts, name=profile.name)


def _fast_core_for(session: _Session):
    """The fast span decoder for a session, or None when its
    preconditions cannot hold (tiny traces, replica self-check failed)."""
    from repro.trace._fastcore import _FastCore

    if _FastCore.supports(session):
        return _FastCore(session)
    return None


def concat_traces(parts: list[Trace], name: str) -> Trace:
    """Concatenate column chunks into one materialized :class:`Trace`."""
    return Trace(
        pc=np.concatenate([p.pc for p in parts]),
        opclass=np.concatenate([p.opclass for p in parts]),
        dst=np.concatenate([p.dst for p in parts]),
        src1=np.concatenate([p.src1 for p in parts]),
        src2=np.concatenate([p.src2 for p in parts]),
        addr=np.concatenate([p.addr for p in parts]),
        taken=np.concatenate([p.taken for p in parts]),
        target=np.concatenate([p.target for p in parts]),
        name=name,
    )


def stream_chunks(benchmark: str, length: int | None = None,
                  seed: int | None = None,
                  chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[Trace]:
    """Stream a named benchmark's trace as column chunks."""
    gen = ChunkedTraceGenerator(get_profile(benchmark))
    return gen.chunks(length=length, seed=seed, chunk_size=chunk_size)
