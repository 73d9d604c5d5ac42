"""Vectorized varint / delta codecs for posting blocks.

Postings are stored per block as LEB128-style varints (7 data bits per byte,
high bit = continuation), doc_ids delta-encoded within a block and positions
delta-encoded within each document — the columnar analogue of the reference's
varint posting values (/root/reference/src/json_shred.rs:176-182,
src/key_builder.rs:64-82).  Encode/decode are numpy-vectorized: no Python
loop over values.
"""

from __future__ import annotations

import numpy as np

_MAX_BYTES = 10  # enough for uint64


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Per-value LEB128 byte count (1..10) of a uint64/int64 array."""
    v = np.asarray(values, dtype=np.uint64)
    sizes = np.ones(v.shape, dtype=np.int64)
    top = int(v.max()) if v.size else 0
    for k in range(1, _MAX_BYTES):
        if top >> (7 * k) == 0:
            break
        sizes += v >= np.uint64(1 << (7 * k))
    return sizes


def varint_ends(buf: bytes | memoryview) -> np.ndarray:
    """Byte offset just past each LEB128 value in ``buf`` (its last byte
    has the high bit clear)."""
    return np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) < 0x80) + 1


def encode_varint(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64/int64 array (values must be >= 0)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    sizes = varint_sizes(v)
    ends = np.cumsum(sizes)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    # pass j writes byte j of every value still longer than j bytes
    at = ends - sizes
    for j in range(_MAX_BYTES):
        more = sizes > j + 1
        out[at] = (v & np.uint64(0x7F)).astype(np.uint8) | (
            more.view(np.uint8) << 7)
        if not more.any():
            break
        v, at, sizes = v[more] >> np.uint64(7), at[more] + 1, sizes[more]
    return out.tobytes()


def decode_varint(buf: bytes | memoryview, count: int | None = None) -> np.ndarray:
    """Decode LEB128 bytes to a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = varint_ends(b) - 1
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    offsets = np.arange(b.size, dtype=np.int64) - np.repeat(starts, ends - starts + 1)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << (
        offsets.astype(np.uint64) * np.uint64(7)
    )
    out = np.add.reduceat(contrib, starts)
    if count is not None and out.size != count:
        raise ValueError(f"varint decode: expected {count} values, got {out.size}")
    return out


def encode_deltas(sorted_values: np.ndarray,
                  starts: np.ndarray | None = None) -> bytes:
    """Delta+varint encode an ascending int64 array (first value absolute).

    With ``starts``, the array is a concatenation of ascending runs: the
    delta restarts (value absolute) at each index in ``starts``, so the
    result is the concatenation of the runs' own encodings.
    """
    v = np.asarray(sorted_values, dtype=np.int64)
    if v.size == 0:
        return b""
    d = np.empty_like(v)
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:])
    if starts is not None:
        d[starts] = 0
    if d.size > 1 and d[1:].min() < 0:
        raise ValueError("encode_deltas requires ascending input")
    if starts is not None:
        d[starts] = v[starts]
    return encode_varint(d.astype(np.uint64))


def decode_deltas(buf: bytes | memoryview, count: int | None = None) -> np.ndarray:
    """Inverse of :func:`encode_deltas` → int64 array."""
    d = decode_varint(buf, count)
    return np.cumsum(d.astype(np.int64))


def encode_position_lists(positions_concat: np.ndarray, tfs: np.ndarray) -> bytes:
    """Encode concatenated per-doc position lists, delta-coded within a doc.

    ``positions_concat`` holds each doc's ascending positions back to back;
    ``tfs`` gives the per-doc list lengths (the split points).
    """
    p = np.asarray(positions_concat, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    if p.size == 0:
        return b""
    d = np.empty_like(p)
    d[0] = p[0]
    np.subtract(p[1:], p[:-1], out=d[1:])
    starts = np.zeros(tfs.size, dtype=np.int64)
    np.cumsum(tfs[:-1], out=starts[1:])
    d[starts] = p[starts]  # reset delta at each doc boundary
    return encode_varint(d.astype(np.uint64))


def decode_position_lists(buf: bytes | memoryview, tfs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_position_lists` → concatenated positions."""
    tfs = np.asarray(tfs, dtype=np.int64)
    total = int(tfs.sum())
    d = decode_varint(buf, total).astype(np.int64)
    if total == 0:
        return d
    starts = np.zeros(tfs.size, dtype=np.int64)
    np.cumsum(tfs[:-1], out=starts[1:])
    out = np.cumsum(d)
    # subtract the running total at each doc start to undo the global cumsum
    # (valid because all deltas are >= 0, so `out` is non-decreasing)
    base = np.zeros(total, dtype=np.int64)
    base[starts[1:]] = out[starts[1:] - 1]
    base = np.maximum.accumulate(base)
    return out - base
