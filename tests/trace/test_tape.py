"""The PCG64 tape replica against numpy's own ``Generator``.

Every draw the synthetic generator's walk makes over the tape must equal
the draw numpy makes from the same state: value, tape consumption and
the uint32 half-cache left behind.  If numpy's draw semantics drift, these
tests fail instead of the chunked generator silently changing bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace._fastcore import FAST_OK, _FastCore
from repro.trace._tape import KE, Tape, generator_at, raw_tape
from repro.trace.profiles import BENCHMARK_ORDER, get_profile
from repro.trace.synthetic import _Session

N_TOKENS = 1 << 15


def fresh(seed: int = 2024):
    """A numpy generator and a tape replica over its raw stream."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    return rng, Tape(raw_tape(state, N_TOKENS)), state


def assert_in_sync(rng, tape, state):
    """The replica consumed exactly what numpy did, half-cache included."""
    resync = generator_at(state, tape.pos, tape.has32, tape.cached)
    assert resync.bit_generator.state == rng.bit_generator.state


def halves_consumed(tape: Tape) -> int:
    return 2 * tape.pos - (1 if tape.has32 else 0)


def test_random():
    rng, tape, state = fresh()
    for _ in range(2_000):
        assert tape.random() == rng.random()
    assert tape.pos == 2_000
    assert_in_sync(rng, tape, state)


@pytest.mark.parametrize("excl", [1, 2, 8, 64, 1 << 20, 1 << 32])
def test_integers_power_of_two_bounds(excl):
    rng, tape, state = fresh()
    for _ in range(1_000):
        assert tape.integers(excl) == int(rng.integers(0, excl))
    assert_in_sync(rng, tape, state)


@pytest.mark.parametrize("excl", [3, 7, 24_576, 100_003])
def test_integers_non_power_of_two_bounds(excl):
    rng, tape, state = fresh()
    for _ in range(1_000):
        assert tape.integers(excl) == int(rng.integers(0, excl))
    assert_in_sync(rng, tape, state)


def test_integers_lemire_rejection_retries():
    """A bound just above 2**31 rejects about half of all uint32 halves,
    so the retry loop runs many times."""
    excl = (1 << 31) + 1
    rng, tape, state = fresh()
    draws = 1_000
    for _ in range(draws):
        assert tape.integers(excl) == int(rng.integers(0, excl))
    assert halves_consumed(tape) > draws * 3 // 2
    assert_in_sync(rng, tape, state)


@pytest.mark.parametrize("p", [1.0, 0.5, 1 / 2.6, 1 / 3])
def test_geometric_cdf_search(p):
    rng, tape, state = fresh()
    for _ in range(2_000):
        assert tape.geometric(p) == int(rng.geometric(p))
    assert_in_sync(rng, tape, state)


@pytest.mark.parametrize("p", [0.3, 1 / 6, 1 / 40, 1e-3])
def test_geometric_exponential_inversion(p):
    rng, tape, state = fresh()
    for _ in range(5_000):
        assert tape.geometric(p) == int(rng.geometric(p))
    assert_in_sync(rng, tape, state)


def _ziggurat_sites(tokens: np.ndarray, strip_zero: bool) -> list[int]:
    """Token positions whose first ziggurat step rejects, in the base
    strip (``strip_zero``: the exponential tail) or in a wedge."""
    ri = tokens >> np.uint64(3)
    idx = (ri & np.uint64(0xFF)).astype(np.int64)
    rejects = (ri >> np.uint64(8)) >= KE[idx]
    where = rejects & ((idx == 0) if strip_zero else (idx != 0))
    return np.flatnonzero(where).tolist()


@pytest.mark.parametrize("strip_zero", [True, False], ids=["tail", "wedge"])
def test_ziggurat_rejection_paths(strip_zero):
    """Start a draw exactly at tokens that leave the ziggurat's fast
    accept, and compare with numpy positioned at the same token."""
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    tokens = raw_tape(state, 1 << 18)
    sites = _ziggurat_sites(tokens, strip_zero)[:40]
    assert sites, "no rejection site in the sampled tape"
    listed = tokens.tolist()
    for pos in sites:
        tape = Tape(listed, pos)
        ref = generator_at(state, pos)
        assert tape.std_exp() == ref.standard_exponential()
        assert_in_sync(ref, tape, state)
        tape = Tape(listed, pos)
        ref = generator_at(state, pos)
        assert tape.geometric(0.05) == int(ref.geometric(0.05))
        assert_in_sync(ref, tape, state)


def test_uint32_half_cache_carries_across_draws():
    """A bounded draw leaves the high half cached; a ``random()`` in
    between consumes a whole token and leaves the cache alone; the next
    bounded draw takes the cached half."""
    rng, tape, state = fresh()
    for _ in range(500):
        assert tape.integers(8) == int(rng.integers(0, 8))
        bg = rng.bit_generator.state
        assert tape.has32 == bool(bg["has_uint32"])
        if tape.has32:
            assert tape.cached == bg["uinteger"]
        assert tape.random() == rng.random()
    assert_in_sync(rng, tape, state)


def test_resync_continues_the_stream():
    """``generator_at`` rebuilds a generator that continues exactly where
    the replica stopped, mid half-cache included."""
    rng, tape, state = fresh()
    for i in range(301):
        assert tape.integers(24_576) == int(rng.integers(0, 24_576))
        if i % 3 == 0:
            assert tape.geometric(1 / 6) == int(rng.geometric(1 / 6))
    assert tape.has32
    resync = generator_at(state, tape.pos, tape.has32, tape.cached)
    assert resync.bit_generator.state == rng.bit_generator.state
    for _ in range(100):
        assert int(resync.integers(0, 1_000)) == int(rng.integers(0, 1_000))
        assert resync.random() == rng.random()


def test_fast_decoder_is_live():
    """The import-time self check passed, so generation is not silently
    running on the walk alone (several times slower)."""
    assert FAST_OK


@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_fast_decoder_supports_every_profile(bench):
    session = _Session(get_profile(bench), 64, 30_000, None)
    assert _FastCore.supports(session)
