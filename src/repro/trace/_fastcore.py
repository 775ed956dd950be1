"""Vectorized span decoder for the chunked trace generator.

The generator's walk (:func:`repro.trace.synthetic._walk`), run over the
tape by :mod:`repro.trace.vectorgen`, replays the reference draw-for-draw.
This module is the fast path: it decodes the
same tape in *spans* of up to ``_SPAN_MAX`` instructions with numpy
kernels plus one lean Python loop, producing byte-identical columns.

How a span is decoded
---------------------
1.  A window of ``W`` raw tape tokens is generated (C speed).
2.  Every *hypothetical* draw outcome is tabulated per token position:
    uniform doubles, ziggurat accept/reject and geometric values,
    region/live/two-source threshold tests.  From these, per-``q``
    consumption tables are composed, where ``q = 2*t + parity`` encodes
    the tape cursor ``t`` together with the uint32 half-cache parity.
    ``dq[class][q]`` is the total tape movement of one whole
    instruction of that class starting at ``q`` — so the decode loop
    advances one instruction per table lookup.  All tables live in
    per-core scratch buffers reused across spans.
3.  The Python decode loop walks the block skeleton: per body
    instruction a single ``q += dq[...]`` lookup, per terminator the
    branch/loop/jump automaton.  It records each instruction's start
    ``q`` and one record per block visit.  Rare events (dependence
    distance beyond the recency window, ziggurat chains leaving the
    window) are encoded as huge ``dq`` values that push ``q`` out of
    range; the resulting ``IndexError`` rolls the current block back,
    closes the span, and lets the walk replay that block exactly.
4.  The materializer reconstructs every draw *site* from the recorded
    ``q`` starts with vectorized gathers, enumerates all bounded-integer
    draws in order to resolve Lemire uint32 half-cache values, and
    emits the eight trace columns.  Global invariants (half-cache
    parity alternation, absence of Lemire rejection retries on the one
    non-power-of-two bound) are verified; a violation raises
    ``_SpanInvalid`` and the span is regenerated by the walk, so
    the fast path can never produce wrong bytes silently.

Preconditions (checked in :meth:`_FastCore.supports` / established by
the warm-up walk): every bounded draw except the heap line pick has a
power-of-two range (no Lemire rejection), the register recency window
is full, and when the profile touches the heap its recency ring holds
all 16 lines.  Under these, every draw's tape consumption is a pure
function of position, which is what makes the tables possible.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from repro.isa.instruction import NO_REG
from repro.isa.opclass import OpClass
from repro.trace._tape import FE, KE, WE, ZIG_R, self_check
from repro.trace.synthetic import (
    HEAP_BASE,
    STACK_BASE,
    STREAM_BASE,
    STREAM_SPACING,
    STREAM_STAGGER,
    _KIND_JUMP,
    _KIND_LOOP,
    _LOCALITY_LINE,
    _RECENCY_DEPTH,
)

__all__ = ["FAST_OK", "_FastCore", "_SpanInvalid"]

#: the fast path is gated on the draw-stream replica matching the
#: installed numpy at import time; on mismatch everything degrades to
#: the exact walk
FAST_OK = self_check()

_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)
_OP_JUMP = int(OpClass.JUMP)

#: sentinel consumption marking "cannot resolve vectorized" (fits int32
#: even when three of them are summed during table composition)
_LARGE = 1 << 28
#: max instructions decoded per span.  A span's tables cover about six
#: tape tokens per instruction, so this bounds the decoder's working set
#: (about 18 MiB peak for a whole 30k trace at 2**14, 30 at 2**15)
_SPAN_MAX = 1 << 14
#: tape tokens of guard zone at the window end
_GUARD_T = 1 << 11

_M32 = 0xFFFFFFFF

_FE = FE.tolist()
_WE = WE.tolist()
_KE = KE.tolist()

def _pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class _SpanInvalid(Exception):
    """A span-level invariant failed; redo the span with the walk."""


class _FastCore:
    """Span-at-a-time vectorized decoder for one generation session."""

    def __init__(self, session) -> None:
        self.s = session
        #: EWMA of tape tokens consumed per instruction (sizes windows)
        self.mu = 5.0
        self.p_search = session.geom_p >= 1.0 / 3.0
        self.geo_denom = math.log1p(-session.geom_p)
        if self.p_search:
            self.search_tbl = _geo_search_table(session.geom_p)
        blocks = session.blocks
        nb = len(blocks)
        self.blk_addr = np.array([b.addr for b in blocks], dtype=np.int64)
        self.blk_kind = np.array([b.kind for b in blocks], dtype=np.int8)
        # python-list mirrors for the decode loop (attribute access on
        # dataclasses is the hot path otherwise)
        self.blk_size_l = [b.size for b in blocks]
        self.blk_kind_l = [b.kind for b in blocks]
        self.blk_trip_l = [b.trip_count for b in blocks]
        self.blk_prob_l = [b.taken_prob for b in blocks]
        self.blk_tgt_l = [b.target for b in blocks]
        self.blk_jt_l = [b.jump_targets for b in blocks]
        self.blk_next_l = [(i + 1) % nb for i in range(nb)]
        self.blk_addr_l = [b.addr for b in blocks]
        #: Lemire rejection threshold of the heap line bound — the only
        #: draw with a (possibly) non-power-of-two range on the fast path
        self.line_threshold = (2 ** 32 - session.num_lines) % session.num_lines
        self._bufs: dict[str, np.ndarray] = {}

    @staticmethod
    def supports(session) -> bool:
        if not FAST_OK:
            return False
        if session.n < 1024 or session.num_streams > 64:
            return False
        # every bounded draw except the heap line pick must be
        # power-of-two so its tape consumption is position-pure
        if not (_pow2(session.stack_excl) and _pow2(session.num_streams)):
            return False
        for b in session.blocks:
            if b.kind == _KIND_JUMP and not _pow2(len(b.jump_targets)):
                return False
        return True

    def _buf(self, name: str, size: int, dtype) -> np.ndarray:
        b = self._bufs.get(name)
        if b is None or len(b) < size:
            b = np.empty(max(size, 1), dtype=dtype)
            self._bufs[name] = b
        return b[:size]

    # -- driver --------------------------------------------------------

    def run(self, st, count: int, cols) -> None:
        """Emit up to ``count`` instructions via fast spans, falling
        back to single walked blocks around rare events."""
        from repro.trace.vectorgen import _replay

        s = self.s
        end_k = min(st.k + count, s.n)
        stalls = 0
        while st.k < end_k:
            span_n = min(end_k - st.k, _SPAN_MAX)
            before = st.k
            reason = self._span(st, span_n, cols)
            if st.k == before:
                if reason == "window" and self.mu < 16.0:
                    self.mu = min(self.mu * 1.5 + 1.0, 16.0)
                    continue
                stalls += 1
                reason = "rare"
            else:
                stalls = 0
            if reason == "rare" and st.k < end_k:
                _replay(s, st, end_k - st.k, cols, stop=lambda _st: True)
            if stalls > 4:
                # defensive: never spin without progress
                _replay(s, st, end_k - st.k, cols)
                return

    def _span(self, st, span_n: int, cols) -> str:
        """Decode + materialize one span; on an invariant violation,
        restore the entry state and replay the span exactly."""
        snap = _snapshot(st)
        try:
            return self._span_fast(st, span_n, cols)
        except _SpanInvalid:
            _restore(st, snap)
            from repro.trace.vectorgen import _replay

            _replay(self.s, st, span_n, cols)
            return "ok"

    # -- hypothetical tables -------------------------------------------

    def _geo_tables(self, U: np.ndarray, D: np.ndarray, W: int):
        """Per-token geometric draw (value, tokens consumed) assuming a
        geometric draw starts at that token; scratch-buffer backed."""
        cons = self._buf("geo_cons", W, np.int32)
        val = self._buf("geo_val", W, np.int32)
        if self.p_search:
            cons.fill(1)
            np.copyto(val, np.searchsorted(self.search_tbl, D),
                      casting="unsafe")
            val += 1
            return cons, val
        idx = self._buf("zig_idx", W, np.uint64)
        np.right_shift(U, 3, out=idx)
        np.bitwise_and(idx, 0xFF, out=idx)
        idxp = self._buf("zig_idxp", W, np.intp)
        np.copyto(idxp, idx, casting="unsafe")
        ri = self._buf("zig_ri", W, np.uint64)
        np.right_shift(U, 11, out=ri)
        zx = self._buf("zig_zx", W, np.float64)
        np.take(WE, idxp, out=zx)
        np.multiply(zx, ri, out=zx, casting="unsafe")
        ke = self._buf("zig_ke", W, np.uint64)
        np.take(KE, idxp, out=ke)
        zslow = self._buf("zig_slow", W, np.bool_)
        np.greater_equal(ri, ke, out=zslow)
        denom = self.geo_denom
        fval = self._buf("zig_fval", W, np.float64)
        np.divide(zx, -denom, out=fval)
        np.ceil(fval, out=fval)
        np.copyto(val, fval, casting="unsafe")
        cons.fill(1)
        slow = np.flatnonzero(zslow)
        if len(slow):
            self._zig_slow(U, W, slow, idx, zx, cons, val, denom)
        return cons, val

    def _zig_slow(self, U, W, slow, idx_arr, zx, cons, val, denom):
        """Resolve ziggurat-rejected geometric sites, vectorized round
        by round (each round is one more ziggurat iteration for every
        still-pending site).

        The wedge accept test compares against ``exp(-x)``; numpy's
        vectorized exp is not bit-identical to the C library scalar exp
        the original generator uses, so any comparison within 1e-12
        relative margin is replayed exactly in scalar (the borderline
        set is empty in practice).
        """
        t0 = slow                       # site ids
        cidx = idx_arr[slow].astype(np.int64)
        cx = zx[slow]
        rpos = slow                     # token of the current iteration
        inv53 = 2.0 ** -53
        while len(t0):
            # every pending site was rejected at (rpos, cidx, cx);
            # idx==0 tail sites and borderline wedge tests go scalar
            zero = cidx == 0
            dpos = rpos + 1
            oob = dpos >= W
            d = (U[np.minimum(dpos, W - 1)] >> np.uint64(11)) * inv53
            lhs = (FE[cidx - 1] - FE[cidx]) * d + FE[cidx]
            rhs = np.exp(-cx)
            risky = np.abs(lhs - rhs) <= rhs * 1e-12
            scalar_set = (zero | risky) & ~oob
            acc = (lhs < rhs) & ~zero & ~risky & ~oob
            if np.any(oob):
                cons[t0[oob]] = _LARGE
            if np.any(acc):
                ids = t0[acc]
                cons[ids] = (dpos[acc] + 1 - ids).astype(np.int32)
                val[ids] = np.ceil(cx[acc] / -denom).astype(np.int32)
            if np.any(scalar_set):
                for site in t0[scalar_set].tolist():
                    self._zig_scalar(U, W, site, denom, cons, val)
            pend = ~(acc | scalar_set | oob)
            if not np.any(pend):
                break
            t0 = t0[pend]
            rpos = rpos[pend] + 2
            oob2 = rpos >= W
            if np.any(oob2):
                cons[t0[oob2]] = _LARGE
                keep = ~oob2
                t0 = t0[keep]
                rpos = rpos[keep]
                if not len(t0):
                    break
            tok = U[rpos]
            r = tok >> np.uint64(3)
            cidx = (r & np.uint64(0xFF)).astype(np.int64)
            r = r >> np.uint64(8)
            cx = WE[cidx] * r
            fast = r < KE[cidx]
            if np.any(fast):
                ids = t0[fast]
                cons[ids] = (rpos[fast] + 1 - ids).astype(np.int32)
                val[ids] = np.ceil(cx[fast] / -denom).astype(np.int32)
                keep = ~fast
                t0 = t0[keep]
                rpos = rpos[keep]
                cidx = cidx[keep]
                cx = cx[keep]

    def _zig_scalar(self, U, W, t0, denom, cons, val) -> None:
        """Exact scalar ziggurat chain from token ``t0`` (libm paths)."""
        uit = U.item
        fe, we, ke_l = _FE, _WE, _KE
        inv53 = 2.0 ** -53
        pos = t0
        x = 0.0
        try:
            while True:
                if pos >= W:
                    raise IndexError
                v = uit(pos)
                pos += 1
                r = v >> 3
                i8 = r & 0xFF
                r >>= 8
                x = r * we[i8]
                if r < ke_l[i8]:
                    break
                if i8 == 0:
                    if pos >= W:
                        raise IndexError
                    x = ZIG_R - math.log1p(-((uit(pos) >> 11) * inv53))
                    pos += 1
                    break
                if pos >= W:
                    raise IndexError
                u = (uit(pos) >> 11) * inv53
                pos += 1
                if (fe[i8 - 1] - fe[i8]) * u + fe[i8] < math.exp(-x):
                    break
        except IndexError:
            cons[t0] = _LARGE
            return
        cons[t0] = pos - t0
        val[t0] = math.ceil(-x / denom)

    # -- the span ------------------------------------------------------

    def _span_fast(self, st, span_n: int, cols) -> str:
        s = self.s
        W = int(span_n * self.mu * 1.25) + 2 * _GUARD_T
        B = st.pos
        U = s.tokens(B, W)
        W2 = 2 * W

        D = self._buf("D", W, np.float64)
        np.right_shift(U, 11, out=self._buf("zig_ri", W, np.uint64))
        np.multiply(self._bufs["zig_ri"][:W], 2.0 ** -53, out=D,
                    casting="unsafe")
        geo_cons, geo_val = self._geo_tables(U, D, W)

        live = self._buf("live", W, np.bool_)
        np.less(D, s.frac_live_in, out=live)
        twos = self._buf("twos", W, np.bool_)
        np.less(D, s.frac_two_sources, out=twos)
        astack = self._buf("astack", W, np.bool_)
        np.less(D, s.cum_stack, out=astack)
        astream = self._buf("astream", W, np.bool_)
        np.less(D, s.cum_stream, out=astream)
        heap = self._buf("heap", W, np.bool_)
        np.logical_not(astream, out=heap)
        astream &= ~astack
        heaphit = self._buf("heaphit", W, np.bool_)
        np.less(D, s.heap_locality, out=heaphit)

        # -- consumption tables over q = 2*t + parity ------------------
        # each table packs its (parity 0, parity 1) entries for one
        # token as the int32 halves of an int64 row, so tables build
        # with full-width passes and 1-D masked fills instead of
        # strided stores or advanced row indexing
        L = s.recent_cap
        guard = 2 * (W - _GUARD_T)
        nl64 = self._buf("nl64", W, np.int64)
        np.copyto(nl64[:W - 1], geo_cons[1:], casting="unsafe")
        nl64[:W - 1] *= 0x2_0000_0002
        nl64[:W - 1] += 0x2_0000_0002
        nl64[W - 1] = _LARGE * 0x1_0000_0001
        far = self._buf("far", W - 1, np.bool_)
        np.greater(geo_val[1:], L, out=far)
        nl64[:W - 1][far] = _LARGE * 0x1_0000_0001

        dqps = self._buf("dqps", W2, np.int32)
        p64 = dqps.view(np.int64)
        np.copyto(p64, nl64)
        p64[live] = (1 << 32) | 5       # live pick: 5 even / 1 odd
        dqps[guard:] = _LARGE

        # address step per q: 6 half-tokens on the heap, else 5/1 by
        # parity
        dqa = self._buf("dqa", W2, np.int32)
        a64 = dqa.view(np.int64)
        a64.fill((1 << 32) | 5)
        a64[heap] = (6 << 32) | 6
        dqa[guard:] = _LARGE
        # OTHER tail per q: the uniform draw plus, for two-source
        # instructions, the second ps draw — a shifted dqps view, no
        # gather required
        dqo = self._buf("dqo", W2, np.int32)
        o64 = dqo.view(np.int64)
        o64[:W - 1] = p64[1:]
        o64[W - 1] = 0
        o64[~twos] = 0
        o64 += (2 << 32) | 2
        dqo[guard:] = _LARGE

        # -- pool classes for the span ---------------------------------
        classes_np = s.pool_peek(st, span_n)
        cmap = np.zeros(16, dtype=np.int64)
        cmap[_OP_LOAD] = 1
        cmap[_OP_STORE] = 2
        codes = cmap[classes_np.astype(np.int64)].tolist()

        # -- decode loop -----------------------------------------------
        mvp = memoryview(dqps)
        mva = memoryview(dqa)
        mvo = memoryview(dqo)
        Dit = D.item
        Uit = U.item
        sizeL = self.blk_size_l
        kindL = self.blk_kind_l
        tripL = self.blk_trip_l
        probL = self.blk_prob_l
        tgtL = self.blk_tgt_l
        jtL = self.blk_jt_l
        nextL = self.blk_next_l
        addrL = self.blk_addr_l
        lc = st.loop_counters
        q = 1 if st.has32 else 0
        entry_cached = st.cached
        k_emit = 0
        p_i = 0
        qstarts = array("i")    # zero-copy into numpy at materialize
        qs_append = qstarts.append
        recs: list[tuple] = []      # (block, take, term, taken, target, p0)
        rec_append = recs.append
        bi = st.block
        slot = st.slot
        entry_slot = slot
        qclose = guard - 512
        close = "window"

        while k_emit < span_n:
            body = sizeL[bi] - 1
            take = body - slot
            left = span_n - k_emit
            if take > left:
                take = left
            q0 = q
            nq = len(qstarts)
            p0 = p_i
            try:
                cslice = codes[p_i:p_i + take]
                if len(cslice) < take:
                    # pool peek exhausted: the eager mid-instruction
                    # refill is next; let the walk replay it
                    close = "rare"
                    break
                for c in cslice:
                    qs_append(q)
                    qb = q + mvp[q]
                    if c == 0:          # OTHER: ps, maybe second ps
                        q = qb + mvo[qb]
                    elif c == 1:        # LOAD: ps, then the address
                        q = qb + mva[qb]
                    else:               # STORE: ps, ps, address
                        qb += mvp[qb]
                        q = qb + mva[qb]
                if q >= W2:
                    raise IndexError
                k_emit += take
                p_i += take
                slot += take
                if slot < body or k_emit >= span_n:
                    if take:
                        rec_append((bi, take, 0, 0, 0, p0))
                    break
                # terminator
                kind = kindL[bi]
                if kind == _KIND_JUMP:
                    jt = jtL[bi]
                    if q & 1:
                        cached = self._scan_cached(
                            qstarts, recs, codes, take, p0, mvp, live,
                            twos, astack, astream, entry_cached, U, W)
                        succ = jt[(cached * len(jt)) >> 32]
                        qs_append(q)
                        q -= 1
                    else:
                        t = q >> 1
                        if t >= W:
                            raise IndexError
                        succ = jt[((Uit(t) & _M32) * len(jt)) >> 32]
                        qs_append(q)
                        q += 3
                    is_taken = True
                else:
                    q2 = q + mvp[q]
                    if kind == _KIND_LOOP:
                        if q2 >= W2:
                            raise IndexError
                        qs_append(q)
                        c = lc[bi] + 1
                        if c < tripL[bi]:
                            lc[bi] = c
                            is_taken = True
                            succ = tgtL[bi]
                        else:
                            lc[bi] = 0
                            is_taken = False
                            succ = nextL[bi]
                        q = q2
                    else:
                        t2 = q2 >> 1
                        if t2 >= W:
                            raise IndexError
                        qs_append(q)
                        if Dit(t2) < probL[bi]:
                            is_taken = True
                            succ = tgtL[bi]
                        else:
                            is_taken = False
                            succ = nextL[bi]
                        q = q2 + 2
                        if q >= W2:
                            raise IndexError
                k_emit += 1
                rec_append((bi, take, 1, 1 if is_taken else 0,
                            addrL[succ] if is_taken else 0, p0))
                bi = succ
                slot = 0
            except IndexError:
                q = q0
                del qstarts[nq:]
                close = "window" if q0 >= qclose else "rare"
                break
        else:
            close = "ok"
        if k_emit and close == "window":
            close = "ok"

        m = k_emit
        if m == 0:
            return close

        self._materialize(
            st, cols, U, W, m, B, q, bi, slot, entry_slot, entry_cached,
            dqps, live, twos, astack, astream, heap, heaphit, geo_val,
            classes_np, qstarts, recs,
        )
        self.mu = 0.7 * self.mu + 0.3 * max(1.0, (st.pos - B) / m)
        return close

    # -- backward scan for the cached uint32 half ----------------------

    def _last_site(self, q: int, c: int, mvp, live, twos, astack, astream,
                   W: int):
        """The q position of the last bounded-integer draw of the body
        instruction starting at ``q`` (class code ``c``), or None."""
        last = None
        if live[q >> 1]:
            last = q + 2
        qb = q + mvp[q]
        if c == 0:       # OTHER
            if twos[qb >> 1] and live[(qb + 2) >> 1]:
                last = qb + 4
            return last
        if c == 2:       # STORE: second source, then the address
            if live[qb >> 1]:
                last = qb + 2
            qb = qb + mvp[qb]
        ta = qb >> 1
        if astack[ta] or astream[ta]:
            return qb + 2
        q_hi = qb + 4
        return q_hi + (3 if (q_hi & 1) == 0 else -1)

    def _scan_cached(self, qstarts, recs, codes, cur_take, cur_p0, mvp,
                     live, twos, astack, astream, entry_cached: int,
                     U, W: int) -> int:
        """Value of the uint32 half-cache at the current decode point
        (parity 1), found by scanning back to the most recent
        bounded-integer draw site."""
        i = len(qstarts) - 1

        def hit(site):
            if site & 1:
                raise _SpanInvalid("cached-half scan parity")
            return int(U[site >> 1]) >> 32

        for j in range(cur_take - 1, -1, -1):
            site = self._last_site(qstarts[i], codes[cur_p0 + j], mvp,
                                   live, twos, astack, astream, W)
            if site is not None:
                return hit(site)
            i -= 1
        for bi, take, term, _tk, _tg, p0 in reversed(recs):
            if term:
                qt = qstarts[i]
                if self.blk_kind_l[bi] == _KIND_JUMP:
                    return hit(qt)
                if live[qt >> 1]:       # branch: first-source live pick
                    return hit(qt + 2)
                i -= 1
            for j in range(take - 1, -1, -1):
                site = self._last_site(qstarts[i], codes[p0 + j], mvp,
                                       live, twos, astack, astream, W)
                if site is not None:
                    return hit(site)
                i -= 1
        return entry_cached

    # -- materialization -----------------------------------------------

    def _materialize(self, st, cols, U, W, m, B, q_end, bi, slot,
                     entry_slot, entry_cached, dqps, live, twos, astack,
                     astream, heap, heaphit, geo_val, classes_np, qstarts,
                     recs) -> None:
        s = self.s
        tlim = W - 1
        NW = s.num_writable
        A0 = st.allocs

        R = np.array(recs, dtype=np.int64)
        rb, rt, rterm = R[:, 0], R[:, 1], R[:, 2]
        sizes = rt + rterm
        starts = np.zeros(len(rb), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        rep = np.repeat(np.arange(len(rb)), sizes)
        slot_vec = np.arange(m, dtype=np.int64)
        slot_vec -= starts[rep]
        if entry_slot:
            slot_vec[:sizes[0]] += entry_slot
        pc = self.blk_addr[rb][rep]
        pc += 4 * slot_vec

        term_sel = rterm == 1
        idx_term = (starts + rt)[term_sel]
        n_body = m - len(idx_term)
        is_term = np.zeros(m, dtype=bool)
        is_term[idx_term] = True
        cls = np.empty(m, dtype=np.int64)
        cls[~is_term] = classes_np[:n_body]
        term_kinds = self.blk_kind[rb[term_sel]]
        cls[idx_term] = np.where(term_kinds == _KIND_JUMP, _OP_JUMP,
                                 _OP_BRANCH)

        taken = np.zeros(m, dtype=np.bool_)
        taken[idx_term] = R[:, 3][term_sel] != 0
        target = np.zeros(m, dtype=np.int64)
        target[idx_term] = R[:, 4][term_sel]

        is_load = cls == _OP_LOAD
        is_store = cls == _OP_STORE
        is_jump = cls == _OP_JUMP
        am = ~(is_term | is_store)
        cum = np.cumsum(am)
        Ab = A0 + cum
        Ab -= am                    # allocs before each instruction
        dst = np.where(am, 8 + (A0 + cum - 1) % NW, NO_REG)

        Q = np.frombuffer(qstarts, dtype=np.int32).astype(np.int64)
        t1 = Q >> 1
        live1 = live[t1] & ~is_jump
        j1 = geo_val[np.minimum(t1 + 1, tlim)].astype(np.int64)
        src1_nl = 8 + (Ab - j1) % NW
        q_b = Q + dqps[Q]            # committed starts satisfy Q < 2W

        other_body = ~(is_term | is_load | is_store)
        two_mask = other_body & twos[np.minimum(q_b >> 1, tlim)]
        q_ps2 = np.where(is_store, q_b, q_b + 2)
        ps2_present = is_store | two_mask
        t2s = np.minimum(q_ps2 >> 1, tlim)
        live2 = live[t2s] & ps2_present
        j2 = geo_val[np.minimum(t2s + 1, tlim)].astype(np.int64)
        src2_nl = 8 + (Ab - j2) % NW
        qa = np.where(is_load, q_b,
                      q_ps2 + dqps[np.minimum(q_ps2, 2 * W - 1)])

        addr_present = is_load | is_store
        ta = np.minimum(qa >> 1, tlim)
        a_stack = addr_present & astack[ta]
        a_stream = addr_present & astream[ta]
        a_heap = addr_present & heap[ta]
        hit = a_heap & heaphit[np.minimum(ta + 1, tlim)]
        q_hI = qa + 4
        q_aI = np.where(a_heap, q_hI, qa + 2)
        q_hO = q_hI + np.where((q_hI & 1) == 0, 3, -1)

        # -- bounded-draw site enumeration -----------------------------
        masks = np.empty((m, 5), dtype=np.bool_)
        masks[:, 0] = live1
        masks[:, 1] = live2
        masks[:, 2] = addr_present
        masks[:, 3] = a_heap
        masks[:, 4] = is_jump
        qsite = np.empty((m, 5), dtype=np.int64)
        qsite[:, 0] = Q + 2
        qsite[:, 1] = q_ps2 + 2
        qsite[:, 2] = q_aI
        qsite[:, 3] = q_hO
        qsite[:, 4] = Q

        mask_f = masks.ravel()
        qs_f = qsite.ravel()[mask_f]
        ns = len(qs_f)
        entry_par = 1 if st.has32 else 0
        par = qs_f & 1
        if ns:
            if par[0] != entry_par or np.any(par[1:] == par[:-1]):
                raise _SpanInvalid("site parity")
        tok = U[qs_f >> 1]
        lo = (tok & np.uint64(_M32)).astype(np.int64)
        hi = (tok >> np.uint64(32)).astype(np.int64)
        half = np.empty(ns, dtype=np.int64)
        if ns:
            half[0] = lo[0] if entry_par == 0 else entry_cached
            if entry_par == 0:
                half[2::2] = lo[2::2]
                half[1::2] = hi[0::2][:len(half[1::2])]
            else:
                half[1::2] = lo[1::2]
                half[2::2] = hi[1::2][:len(half[2::2])]
        halfmat = np.zeros((m, 5), dtype=np.int64)
        halfmat[masks] = half

        v_live1 = (halfmat[:, 0] * 8) >> 32
        v_live2 = (halfmat[:, 1] * 8) >> 32
        v_off = (halfmat[:, 3] * (_LOCALITY_LINE // 4)) >> 32

        src1 = np.where(live1, v_live1, src1_nl)
        src1[is_jump] = NO_REG
        src2 = np.where(live2, v_live2, src2_nl)
        src2[~ps2_present] = NO_REG

        # -- addresses -------------------------------------------------
        addr = np.zeros(m, dtype=np.int64)
        half_a = halfmat[:, 2]
        if np.any(a_stack):
            addr[a_stack] = (STACK_BASE
                             + ((half_a[a_stack] * s.stack_excl) >> 32) * 4)
        new_stream_pos = list(st.stream_pos)
        sel_s = np.flatnonzero(a_stream)
        if len(sel_s):
            sids = (half_a[sel_s] * s.num_streams) >> 32
            for strm in range(s.num_streams):
                sub = sel_s[sids == strm]
                if not len(sub):
                    continue
                p0 = new_stream_pos[strm]
                pos = (p0 + s.stream_stride
                       * np.arange(len(sub), dtype=np.int64)) % s.stream_bytes
                addr[sub] = (STREAM_BASE
                             + strm * (STREAM_SPACING + STREAM_STAGGER) + pos)
                new_stream_pos[strm] = int(
                    (p0 + s.stream_stride * len(sub)) % s.stream_bytes)
        new_ring = st.ring
        sel_h = np.flatnonzero(a_heap)
        if len(sel_h):
            hit_h = hit[sel_h]
            miss_h = ~hit_h
            prod_h = half_a[sel_h]
            lines = np.empty(len(sel_h), dtype=np.int64)
            miss_prod = prod_h[miss_h] * s.num_lines
            if self.line_threshold and np.any(
                    (miss_prod & _M32) < self.line_threshold):
                raise _SpanInvalid("lemire retry")
            lines[miss_h] = miss_prod >> 32
            cnt_before = np.cumsum(miss_h) - miss_h
            miss_seq = np.concatenate([
                np.array(st.ring, dtype=np.int64), lines[miss_h]])
            if np.any(hit_h):
                gidx = (cnt_before + ((prod_h * _RECENCY_DEPTH) >> 32))[hit_h]
                lines[hit_h] = miss_seq[gidx]
            addr[sel_h] = HEAP_BASE + lines * _LOCALITY_LINE
            addr[sel_h] += v_off[sel_h] * 4
            new_ring = miss_seq[-_RECENCY_DEPTH:].tolist()

        cols.append_arrays(
            pc,
            cls.astype(np.int8),
            dst.astype(np.int16),
            src1.astype(np.int16),
            src2.astype(np.int16),
            addr,
            taken,
            target,
        )

        # -- commit end state ------------------------------------------
        st.k += m
        st.pos = B + (q_end >> 1)
        end_par = q_end & 1
        st.has32 = bool(end_par)
        if end_par:
            st.cached = int(hi[-1]) if ns else entry_cached
        else:
            st.cached = 0
        st.allocs = A0 + int(cum[-1])
        st.pool_i += n_body
        st.block = bi
        st.slot = slot
        st.stream_pos = new_stream_pos
        st.ring = new_ring


def _snapshot(st):
    return (st.k, st.pos, st.has32, st.cached, st.allocs, st.pool_base,
            st.pool_i, st.block, st.slot, list(st.stream_pos),
            list(st.ring), list(st.loop_counters))


def _restore(st, snap) -> None:
    (st.k, st.pos, st.has32, st.cached, st.allocs, st.pool_base,
     st.pool_i, st.block, st.slot, stream_pos, ring, lc) = snap
    st.stream_pos = stream_pos
    st.ring = ring
    st.loop_counters = lc


def _geo_search_table(p: float) -> np.ndarray:
    """Partial sums of the geometric pmf, accumulated in the same float
    order as numpy's CDF-search loop; the drawn value is
    ``1 + searchsorted(table, u)``."""
    total = prod = p
    q = 1.0 - p
    tbl = [total]
    while total < 1.0 and prod > 0.0 and len(tbl) < (1 << 16):
        prod *= q
        total += prod
        tbl.append(total)
    return np.array(tbl, dtype=np.float64)
