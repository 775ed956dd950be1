"""Vectorized chunked generation: byte-identity and chunk invariance.

The chunked generator is only allowed to be *fast* — every emitted
column must be byte-identical to the original scalar generator, for
every profile, at any chunk size.  These are the acceptance tests of
that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace import _fastcore, synthetic, vectorgen
from repro.trace.chunks import chunk_content_key
from repro.trace.profiles import BENCHMARK_ORDER, get_profile
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.trace import _COLUMNS
from repro.trace.vectorgen import (
    ChunkedTraceGenerator,
    concat_traces,
)


def assert_traces_identical(got, ref, label=""):
    assert len(got) == len(ref), label
    for col, _ in _COLUMNS:
        assert np.array_equal(
            np.asarray(getattr(got, col)), np.asarray(getattr(ref, col))
        ), f"{label}: column {col!r} differs"


#: ``chunk_content_key`` of every profile's default-seed 30k trace.  Any
#: change to these bytes changes every cached artifact and published
#: number, so a refactor of the generator must leave them untouched.
GOLDEN_30K_KEYS = {
    "bzip":
        "d0c0b83b2a851fd10793ef0df0eca7d538ed989a2fa30418f1c168eb6351b21d",
    "crafty":
        "401b91e444a8b665dda56303241f6f9a74caa556d7c223ee0b38ad0e68205971",
    "eon":
        "637b695dcc7a71b0b920c68a91561de497ab1a33dc0a83653664b2df16d2fe19",
    "gap":
        "cfe7cc2895010e261102fd4355348e5a78e7555f6a0ccccb09f3312f81a177a2",
    "gcc":
        "99c96705277b0f5c647a753ca19291a55d85defc9132d5fb20c2d7698bf57521",
    "gzip":
        "437dae51e5958cf3ccc3430a7d4a38449b00482805aa791a13e86a6819629555",
    "mcf":
        "ca708b68ab63aa30b44d2aafd3f34bb4f6c3df660473a078a325f84f44b9c025",
    "parser":
        "8c6e557254092a54e2834ef516881b42b92aa75ef8c465807978963a1ba84875",
    "perl":
        "0d329cb07a890128c48135ac277155421b304aca34855b83d8eadd5819a3cac8",
    "twolf":
        "8a912718be1d49c7305888b83579ce2d71099481a445a09056ce3e6bc482f91c",
    "vortex":
        "e1c6c410182b7b5940ac37695085689a49e30ef6cf6cb6b03af0d95dfb3acc36",
    "vpr":
        "92f9b2bece758cebce7076834d5269dc22c52ac03672b115febf11cba0e522d1",
}


@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_default_trace_bytes_are_pinned(bench):
    profile = get_profile(bench)
    ref = SyntheticTraceGenerator(profile).generate(30_000)
    assert chunk_content_key(ref) == GOLDEN_30K_KEYS[bench]
    got = ChunkedTraceGenerator(profile).generate(30_000)
    assert chunk_content_key(got) == GOLDEN_30K_KEYS[bench]
    parts = list(ChunkedTraceGenerator(profile).chunks(
        30_000, chunk_size=16_384))
    assert chunk_content_key(concat_traces(parts, name=bench)) \
        == GOLDEN_30K_KEYS[bench]


#: lengths 1-40 keep the whole trace inside the entry block's body, so
#: the last instruction exhausts the opclass pool and replays the eager
#: mid-instruction refill
@pytest.mark.parametrize("bench, lengths", [
    *(pytest.param(b, (5_000,), id=b) for b in BENCHMARK_ORDER),
    *(pytest.param(b, tuple(range(1, 41)), id=f"{b}-1-40")
      for b in BENCHMARK_ORDER),
])
def test_byte_identical_to_scalar_generator(bench, lengths):
    profile = get_profile(bench)
    for n in lengths:
        ref = SyntheticTraceGenerator(profile).generate(n)
        got = ChunkedTraceGenerator(profile).generate(n)
        assert_traces_identical(got, ref, f"{bench}@{n}")


@pytest.mark.parametrize("bench", BENCHMARK_ORDER)
def test_chunked_and_walk_only_match_reference(bench, monkeypatch):
    """Chunk size never changes the bytes, and neither does switching
    the fast decoder off (every span then goes through the walk)."""
    profile = get_profile(bench)
    ref = SyntheticTraceGenerator(profile).generate(5_000)
    for chunk_size in (64, 997, 16_384):
        parts = list(ChunkedTraceGenerator(profile).chunks(
            5_000, chunk_size=chunk_size))
        assert_traces_identical(concat_traces(parts, name=ref.name), ref,
                                f"{bench} chunk_size={chunk_size}")
    monkeypatch.setattr(_fastcore, "FAST_OK", False)
    got = ChunkedTraceGenerator(profile).generate(5_000)
    assert_traces_identical(got, ref, f"{bench} walk only")


def test_tape_window_slides_mid_walk(monkeypatch):
    """A tiny tape window makes the walk slide it within single draws
    and right after the eager pool refill skips ahead."""
    monkeypatch.setattr(_fastcore, "FAST_OK", False)
    monkeypatch.setattr(vectorgen, "_WINDOW", 3)
    profile = get_profile("mcf")
    for n in (*range(1, 41), 3_000):
        ref = SyntheticTraceGenerator(profile).generate(n)
        got = ChunkedTraceGenerator(profile).generate(n)
        assert_traces_identical(got, ref, f"window=3 @{n}")


@pytest.mark.parametrize("span_max", [1_000, 4_097])
@pytest.mark.parametrize("bench", ["gzip", "mcf", "eon"])
def test_span_cap_never_changes_the_bytes(bench, span_max, monkeypatch):
    """The span cap only bounds the decoder's tables: spans that end
    mid-block, at any cap, resume exactly, whole and chunked."""
    profile = get_profile(bench)
    ref = SyntheticTraceGenerator(profile).generate(12_000)
    monkeypatch.setattr(_fastcore, "_SPAN_MAX", span_max)
    got = ChunkedTraceGenerator(profile).generate(12_000)
    assert_traces_identical(got, ref, f"{bench} span_max={span_max}")
    parts = list(ChunkedTraceGenerator(profile).chunks(
        12_000, chunk_size=997))
    assert_traces_identical(concat_traces(parts, name=ref.name), ref,
                            f"{bench} span_max={span_max} chunk_size=997")


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "walk"])
@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("bench", ["mcf", "gzip"])
def test_pool_window_never_changes_the_bytes(bench, window, fast,
                                             monkeypatch):
    """A tiny opclass-pool window is re-decoded on almost every read:
    walk blocks, span peeks and the eager refill crossing (lengths
    1-40) all read through it."""
    profile = get_profile(bench)
    refs = {n: SyntheticTraceGenerator(profile).generate(n)
            for n in (*range(1, 41), 3_000)}
    monkeypatch.setattr(synthetic, "_POOL_WINDOW", window)
    monkeypatch.setattr(_fastcore, "FAST_OK", fast)
    for n, ref in refs.items():
        got = ChunkedTraceGenerator(profile).generate(n)
        assert_traces_identical(got, ref, f"window={window} @{n}")


def test_pool_decodes_per_window_not_per_block(monkeypatch):
    """A 30k trace re-seeds the tape a handful of times (the walk's
    window, one pool window per span, the spans), not once per block."""
    calls = []
    tokens = synthetic._Session.tokens
    monkeypatch.setattr(
        synthetic._Session, "tokens",
        lambda self, pos, count: calls.append(1) or tokens(self, pos, count))
    for bench in BENCHMARK_ORDER:
        calls.clear()
        ChunkedTraceGenerator(get_profile(bench)).generate(30_000)
        assert len(calls) <= 8, bench


def test_byte_identical_at_longer_length_and_explicit_seed():
    profile = get_profile("mcf")
    ref = SyntheticTraceGenerator(profile).generate(20_000, seed=123)
    got = ChunkedTraceGenerator(profile).generate(20_000, seed=123)
    assert_traces_identical(got, ref, "mcf@20k")


@pytest.mark.parametrize("chunk_size", [64, 1009, 1 << 14, 12_000])
def test_chunk_size_invariance(chunk_size):
    """Chunks concatenate byte-identically regardless of granularity.

    Chunk size is a delivery knob, never a semantic one: {tiny, prime,
    power-of-two, whole-trace} granularities all reassemble into the
    same bytes.
    """
    profile = get_profile("gzip")
    n = 12_000
    ref = SyntheticTraceGenerator(profile).generate(n)
    parts = list(
        ChunkedTraceGenerator(profile).chunks(n, chunk_size=chunk_size)
    )
    assert all(len(p) == chunk_size for p in parts[:-1])
    assert sum(len(p) for p in parts) == n
    assert_traces_identical(concat_traces(parts, name=ref.name), ref,
                            f"chunk_size={chunk_size}")


def test_generator_is_deterministic_per_seed():
    profile = get_profile("vpr")
    a = ChunkedTraceGenerator(profile).generate(3_000, seed=9)
    b = ChunkedTraceGenerator(profile).generate(3_000, seed=9)
    c = ChunkedTraceGenerator(profile).generate(3_000, seed=10)
    assert_traces_identical(a, b, "same seed")
    assert any(
        not np.array_equal(getattr(a, col), getattr(c, col))
        for col, _ in _COLUMNS
    )
