"""Chunked trace streams and the mmap-able chunk container format.

A long trace is delivered as a sequence of fixed-size *chunks* — each a
small :class:`~repro.trace.trace.Trace` holding ``chunk_size``
consecutive instructions in columnar form.  Streaming consumers (the
functional frontend fast pass, the detailed engine's table builder)
iterate chunks and never hold more than O(chunk) live
data, which is what makes 10^7-instruction workloads routine.

Two layers live here:

:class:`TraceChunkStream`
    A re-iterable stream of chunks with metadata (name, total length,
    chunk size) and a :meth:`~TraceChunkStream.materialize` escape hatch
    that concatenates into a plain in-memory :class:`Trace`.

The ``.rtc`` chunk container
    One chunk serialized as a single flat file: a 4-byte magic, a JSON
    header describing the columns, then the raw column payloads at
    64-byte-aligned offsets.  The format is designed for ``mmap``:
    :func:`read_chunk` maps the file once and returns a :class:`Trace`
    whose columns are zero-copy views into the mapping.  Chunks are
    *content addressed* — :func:`chunk_content_key` hashes the column
    bytes — so identical chunks produced under different recipes (same
    seed at two lengths, shared warmup prefixes) deduplicate to one
    payload file in the artifact cache.

Corruption tolerance: every structural defect a torn write can produce
(short file, bad magic, mangled header, truncated payload) raises
:class:`ChunkCorruptError` from :func:`read_chunk`; cache readers treat
that as a miss and regenerate.  :func:`verify_chunk` additionally
re-hashes the payload against the name the file is stored under.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.trace.trace import _COLUMNS, Trace

__all__ = [
    "CHUNK_MAGIC",
    "ChunkCorruptError",
    "TraceChunkStream",
    "chunk_content_key",
    "chunk_layout",
    "read_chunk",
    "rechunk_stream",
    "verify_chunk",
    "write_chunk",
]

#: magic prefix of the chunk container format ("Repro Trace Chunk v1")
CHUNK_MAGIC = b"RTC1"

#: payload alignment inside the container, so mmap'd columns are
#: cache-line aligned
_ALIGN = 64

_HDR_LEN = struct.Struct("<I")


class ChunkCorruptError(Exception):
    """A chunk container failed structural or content validation."""


def chunk_content_key(chunk: Trace) -> str:
    """Content hash of a chunk's column bytes (dtype-tagged sha256).

    The trace *name* is deliberately excluded: two byte-identical chunks
    generated under different labels share one payload file.
    """
    h = hashlib.sha256(b"repro-trace-chunk-v1")
    h.update(str(len(chunk)).encode())
    for col, dtype in _COLUMNS:
        arr = np.ascontiguousarray(getattr(chunk, col))
        h.update(col.encode())
        h.update(np.dtype(dtype).str.encode())
        h.update(arr)
    return h.hexdigest()


def chunk_layout(chunk: Trace) -> dict:
    """The container header for ``chunk`` (also useful for inspection)."""
    columns = []
    offset = 0
    for col, dtype in _COLUMNS:
        nbytes = len(chunk) * np.dtype(dtype).itemsize
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        columns.append(
            {"name": col, "dtype": np.dtype(dtype).str,
             "offset": offset, "nbytes": nbytes}
        )
        offset += nbytes
    return {"n": len(chunk), "columns": columns, "payload_bytes": offset}


def write_chunk(path: str | Path, chunk: Trace) -> str:
    """Serialize ``chunk`` to ``path`` atomically; returns its content key.

    The write goes to a temporary sibling and is published with
    ``os.replace``, so readers never observe a torn container (a torn
    *temporary* is left behind only on a crash and never has the final
    name).
    """
    path = Path(path)
    layout = chunk_layout(chunk)
    header = json.dumps(layout, separators=(",", ":")).encode()
    buf = io.BytesIO()
    buf.write(CHUNK_MAGIC)
    buf.write(_HDR_LEN.pack(len(header)))
    buf.write(header)
    data_start = (buf.tell() + _ALIGN - 1) // _ALIGN * _ALIGN
    buf.write(b"\0" * (data_start - buf.tell()))
    for spec in layout["columns"]:
        pos = data_start + spec["offset"]
        buf.write(b"\0" * (pos - buf.tell()))
        arr = np.ascontiguousarray(getattr(chunk, spec["name"]))
        buf.write(arr.tobytes())
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".chunk-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return chunk_content_key(chunk)


def _parse_container(raw, path: Path) -> tuple[dict, int]:
    if len(raw) < len(CHUNK_MAGIC) + _HDR_LEN.size:
        raise ChunkCorruptError(f"{path}: truncated container")
    if bytes(raw[: len(CHUNK_MAGIC)]) != CHUNK_MAGIC:
        raise ChunkCorruptError(f"{path}: bad magic")
    (hdr_len,) = _HDR_LEN.unpack(
        bytes(raw[len(CHUNK_MAGIC): len(CHUNK_MAGIC) + _HDR_LEN.size])
    )
    hdr_start = len(CHUNK_MAGIC) + _HDR_LEN.size
    if hdr_start + hdr_len > len(raw):
        raise ChunkCorruptError(f"{path}: truncated header")
    try:
        layout = json.loads(bytes(raw[hdr_start: hdr_start + hdr_len]))
        n = int(layout["n"])
        columns = layout["columns"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ChunkCorruptError(f"{path}: unreadable header ({exc})") from exc
    data_start = (hdr_start + hdr_len + _ALIGN - 1) // _ALIGN * _ALIGN
    names = {spec.get("name") for spec in columns}
    if names != {col for col, _ in _COLUMNS}:
        raise ChunkCorruptError(f"{path}: column set mismatch")
    for spec in columns:
        dtype = np.dtype(spec["dtype"])
        if spec["nbytes"] != n * dtype.itemsize:
            raise ChunkCorruptError(f"{path}: column size mismatch")
        if data_start + spec["offset"] + spec["nbytes"] > len(raw):
            raise ChunkCorruptError(f"{path}: truncated payload")
    return layout, data_start


def read_chunk(path: str | Path, name: str = "trace",
               mmap: bool = True) -> Trace:
    """Load a chunk container; columns are zero-copy views of an mmap.

    With ``mmap=False`` the file is read into memory instead (useful for
    short-lived chunks on filesystems where mappings are expensive).
    Raises :class:`ChunkCorruptError` on any structural defect.
    """
    path = Path(path)
    try:
        if mmap:
            raw = np.memmap(path, dtype=np.uint8, mode="r")
        else:
            raw = np.fromfile(path, dtype=np.uint8)
    except (OSError, ValueError) as exc:
        raise ChunkCorruptError(f"{path}: unreadable ({exc})") from exc
    layout, data_start = _parse_container(raw, path)
    cols = {}
    for spec in layout["columns"]:
        dtype = np.dtype(spec["dtype"])
        start = data_start + spec["offset"]
        cols[spec["name"]] = raw[start: start + spec["nbytes"]].view(dtype)
    return Trace(name=name, **cols)


def verify_chunk(path: str | Path, expected_key: str) -> bool:
    """Whether the container at ``path`` hashes to ``expected_key``."""
    try:
        chunk = read_chunk(path, mmap=False)
    except ChunkCorruptError:
        return False
    return chunk_content_key(chunk) == expected_key


def rechunk_stream(
    chunks: Iterable[Trace],
    *,
    length: int | None = None,
    chunk_size: int,
    name: str = "trace",
) -> Iterator[Trace]:
    """Re-slice a chunk iterator to ``chunk_size`` granularity.

    Yields chunks of exactly ``chunk_size`` instructions (the last may
    be shorter), truncating the stream after ``length`` instructions
    when given.  Slices are zero-copy views wherever a stored chunk
    already aligns; only boundary-straddling chunks concatenate.  The
    ingest layer stores foreign traces at one fixed granularity and
    serves any requested ``chunk_size``/``length`` through this.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    pending: list[Trace] = []
    buffered = 0
    remaining = length
    for chunk in chunks:
        if remaining is not None:
            if remaining <= 0:
                break
            if len(chunk) > remaining:
                chunk = chunk[:remaining]
            remaining -= len(chunk)
        if len(chunk) == 0:
            continue
        pending.append(chunk)
        buffered += len(chunk)
        while buffered >= chunk_size:
            take: list[Trace] = []
            need = chunk_size
            while need:
                head = pending[0]
                if len(head) <= need:
                    take.append(head)
                    need -= len(head)
                    pending.pop(0)
                else:
                    take.append(head[:need])
                    pending[0] = head[need:]
                    need = 0
            buffered -= chunk_size
            if len(take) == 1:
                out = take[0]
                yield out if out.name == name else _renamed(out, name)
            else:
                from repro.trace.vectorgen import concat_traces

                yield concat_traces(take, name=name)
    if pending:
        if len(pending) == 1:
            out = pending[0]
            yield out if out.name == name else _renamed(out, name)
        else:
            from repro.trace.vectorgen import concat_traces

            yield concat_traces(pending, name=name)


def _renamed(chunk: Trace, name: str) -> Trace:
    """The same column views under another trace name."""
    return Trace(
        name=name, **{col: getattr(chunk, col) for col, _ in _COLUMNS}
    )


class TraceChunkStream:
    """A re-iterable stream of trace chunks with known metadata.

    ``source`` is a zero-argument callable returning a fresh chunk
    iterator — streams are re-iterable so one stream object can feed
    multiple passes (e.g. the functional frontend then the detailed
    engine) without materializing anything.
    """

    def __init__(self, source: Callable[[], Iterable[Trace]], *,
                 name: str, length: int, chunk_size: int) -> None:
        self._source = source
        self.name = name
        self.length = int(length)
        self.chunk_size = int(chunk_size)

    def __len__(self) -> int:
        """Total instruction count (not the number of chunks)."""
        return self.length

    @property
    def num_chunks(self) -> int:
        return -(-self.length // self.chunk_size) if self.length else 0

    def __iter__(self) -> Iterator[Trace]:
        emitted = 0
        for chunk in self._source():
            emitted += len(chunk)
            if emitted > self.length:
                raise ChunkCorruptError(
                    f"stream {self.name!r} produced {emitted} > "
                    f"{self.length} instructions"
                )
            yield chunk
        if emitted != self.length:
            raise ChunkCorruptError(
                f"stream {self.name!r} produced {emitted} != "
                f"{self.length} instructions"
            )

    def materialize(self) -> Trace:
        """Concatenate the stream into one in-memory :class:`Trace`."""
        from repro.trace.vectorgen import concat_traces

        parts = list(self)
        if len(parts) == 1:
            return parts[0]
        return concat_traces(parts, name=self.name)

    def __repr__(self) -> str:
        return (f"TraceChunkStream(name={self.name!r}, length={self.length}, "
                f"chunk_size={self.chunk_size})")
