import numpy as np
import pytest
from hypothesis import given, strategies as st

from noise_ray.build.codec import (
    decode_deltas,
    decode_position_lists,
    decode_varint,
    encode_deltas,
    encode_position_lists,
    encode_varint,
    varint_ends,
    varint_sizes,
)


def test_varint_roundtrip_simple():
    v = np.array([0, 1, 127, 128, 255, 300, 16383, 16384, 2**32, 2**63 - 1], dtype=np.uint64)
    assert (decode_varint(encode_varint(v)) == v).all()


def test_varint_empty():
    assert encode_varint(np.array([], dtype=np.uint64)) == b""
    assert decode_varint(b"").size == 0


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_varint_roundtrip_hypothesis(vals):
    v = np.array(vals, dtype=np.uint64)
    assert (decode_varint(encode_varint(v), v.size) == v).all()


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=200))
def test_delta_roundtrip(vals):
    v = np.sort(np.array(vals, dtype=np.int64))
    assert (decode_deltas(encode_deltas(v), v.size) == v).all()


def test_delta_rejects_unsorted():
    with pytest.raises(ValueError):
        encode_deltas(np.array([5, 3], dtype=np.int64))


def test_position_lists_roundtrip():
    # three docs with position lists [0,2,7], [1], [0,1,2,3]
    pos = np.array([0, 2, 7, 1, 0, 1, 2, 3], dtype=np.int64)
    tfs = np.array([3, 1, 4], dtype=np.int64)
    enc = encode_position_lists(pos, tfs)
    assert (decode_position_lists(enc, tfs) == pos).all()


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=10000), min_size=1, max_size=20),
        min_size=1,
        max_size=30,
    )
)
def test_position_lists_hypothesis(lists):
    lists = [sorted(set(l)) for l in lists]
    pos = np.array([p for l in lists for p in l], dtype=np.int64)
    tfs = np.array([len(l) for l in lists], dtype=np.int64)
    enc = encode_position_lists(pos, tfs)
    assert (decode_position_lists(enc, tfs) == pos).all()


def _leb128(x: int) -> bytes:
    """Per-value reference LEB128."""
    out = bytearray()
    while True:
        b, x = x & 0x7F, x >> 7
        if not x:
            return bytes(out + bytes([b]))
        out.append(b | 0x80)


_BOUNDARY = [0, 1, 127, 128, 16383, 16384, 2**63 - 1, 2**63, 2**64 - 1] + [
    2**(7 * k) + d for k in range(1, 10) for d in (-1, 0)]


@given(st.lists(st.one_of(st.sampled_from(_BOUNDARY),
                          st.integers(min_value=0, max_value=2**64 - 1)),
                max_size=200))
def test_varint_matches_reference_leb128(vals):
    v = np.array(vals, dtype=np.uint64)
    ref = [_leb128(x) for x in vals]
    assert encode_varint(v) == b"".join(ref)
    assert varint_sizes(v).tolist() == [len(r) for r in ref]
    assert varint_ends(encode_varint(v)).tolist() == np.cumsum(
        [len(r) for r in ref], dtype=np.int64).tolist()


def test_varint_boundaries_roundtrip():
    v = np.array(_BOUNDARY, dtype=np.uint64)
    assert encode_varint(v) == b"".join(_leb128(x) for x in _BOUNDARY)
    assert (decode_varint(encode_varint(v), v.size) == v).all()


_runs = st.lists(st.lists(st.integers(min_value=0, max_value=2**40),
                          min_size=1, max_size=30).map(sorted),
                 min_size=1, max_size=20)


@given(_runs)
def test_deltas_with_starts_equal_per_slice(runs):
    v = np.array([x for r in runs for x in r], dtype=np.int64)
    starts = np.cumsum([0] + [len(r) for r in runs[:-1]])
    assert encode_deltas(v, starts=starts) == b"".join(
        encode_deltas(np.array(r, dtype=np.int64)) for r in runs)


def test_deltas_with_starts_reject_unsorted_run():
    v = np.array([5, 9, 1, 4, 3], dtype=np.int64)
    with pytest.raises(ValueError):
        encode_deltas(v, starts=np.array([0, 2]))  # run [1, 4, 3]
    assert encode_deltas(v, starts=np.array([0, 2, 4])) == (
        encode_deltas(v[:2]) + encode_deltas(v[2:4]) + encode_deltas(v[4:]))


@given(st.lists(_runs, min_size=1, max_size=10))
def test_position_lists_batch_equal_per_slice(slices):
    # each slice is a block of postings; each posting an ascending list
    enc = []
    for s in slices:
        enc.append(encode_position_lists(
            np.array([p for r in s for p in r], dtype=np.int64),
            np.array([len(r) for r in s], dtype=np.int64)))
    lists = [r for s in slices for r in s]
    assert encode_position_lists(
        np.array([p for r in lists for p in r], dtype=np.int64),
        np.array([len(r) for r in lists], dtype=np.int64)) == b"".join(enc)
