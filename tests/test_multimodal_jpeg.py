"""Real baseline-JPEG decode (ops/jpeg.py): codec round-trips across
grayscale / 4:4:4 / 4:2:0 / restart markers / non-multiple-of-8 dims,
an independent direct-formula IDCT cross-check (the decoder's batched
matrix IDCT vs the textbook O(n^4) double sum), hypothesis property
suites on random full-AC images, truncation fuzzing at every byte
offset, and the jpeg_decode pipeline vs its closed-form DuckDB
oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_ray.ops.jpeg import (_M, ZIGZAG, JpegError, _rgb_to_ycbcr,
                                _ycbcr_to_rgb, decode_jpeg, encode_jpeg,
                                synth_image)

SF = "/root/testdata/sf0.001"


def _rand_img(rng, h, w, c=None):
    shape = (h, w) if c is None else (h, w, c)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


# ------------------------------------------------------------- codec


def test_block_constant_images_decode_exactly():
    """Unit-quant DC-only blocks survive the full chain bit-for-bit:
    decode == closed-form RGB->rounded-YCbCr->rounded-inverse."""
    for d in (0, 1, 2, 5, 17, 123, 999, 4242):
        img = synth_image(d)
        ycc = _rgb_to_ycbcr(img)
        want = _ycbcr_to_rgb(ycc[..., 0], ycc[..., 1], ycc[..., 2])
        got = decode_jpeg(encode_jpeg(img))
        assert got.shape == img.shape
        assert np.array_equal(got, want)


def test_grayscale_round_trip_bounded_error():
    rng = np.random.default_rng(11)
    for h, w in ((8, 8), (5, 13), (24, 17), (40, 40)):
        img = _rand_img(rng, h, w)
        out = decode_jpeg(encode_jpeg(img))
        assert out.shape == (h, w)
        # unit quant: only coefficient rounding (<=0.5 each) separates
        # the round trip from identity
        assert np.abs(out.astype(int) - img.astype(int)).max() <= 2


def test_rgb_444_round_trip_bounded_error():
    rng = np.random.default_rng(13)
    img = _rand_img(rng, 19, 23, 3)
    out = decode_jpeg(encode_jpeg(img))
    assert out.shape == (19, 23, 3)
    # + YCbCr forward/inverse integer rounding on top of DCT rounding
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 6


def test_420_subsampling_smooth_chroma():
    """4:2:0 discards chroma detail by design; on smooth chroma the
    loss is small, and dims that are not MCU multiples still decode."""
    y, x = np.mgrid[0:33, 0:37]
    img = np.stack([(x * 4) % 256, (y * 4) % 256,
                    ((x + y) * 2) % 256], -1).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, subsample=True))
    assert out.shape == (33, 37, 3)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 8
    # constant chroma is exact through 4:2:0
    flat = np.full((16, 16, 3), 77, np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(flat, subsample=True)),
                          decode_jpeg(encode_jpeg(flat)))


def test_restart_markers_do_not_change_pixels():
    rng = np.random.default_rng(17)
    img = _rand_img(rng, 40, 48)
    base = decode_jpeg(encode_jpeg(img))
    for ri in (1, 3, 7):
        assert np.array_equal(
            decode_jpeg(encode_jpeg(img, restart_interval=ri)), base)
    # and for subsampled color, where an MCU covers 16x16
    img3 = _rand_img(rng, 32, 32, 3)
    assert np.array_equal(
        decode_jpeg(encode_jpeg(img3, subsample=True,
                                restart_interval=2)),
        decode_jpeg(encode_jpeg(img3, subsample=True)))


def test_nontrivial_quant_tables_round_trip():
    q = np.ones(64)
    q[1:] = 16  # keep DC exact, coarsen AC
    img = synth_image(7)
    out = decode_jpeg(encode_jpeg(img, quant=q))
    ycc = _rgb_to_ycbcr(img)
    want = _ycbcr_to_rgb(ycc[..., 0], ycc[..., 1], ycc[..., 2])
    assert np.array_equal(out, want)  # DC-only content ignores AC quant
    with pytest.raises(JpegError):
        encode_jpeg(img, quant=np.zeros(64))


def test_idct_matches_direct_formula():
    """The decoder's separable matrix IDCT against an independent
    textbook implementation (T.81 A.3.3 double sum)."""
    rng = np.random.default_rng(23)
    coefs = rng.integers(-200, 200, (8, 8)).astype(np.float64)

    def direct_idct(S):
        out = np.zeros((8, 8))
        c = np.ones(8)
        c[0] = 1 / np.sqrt(2)
        for x in range(8):
            for y in range(8):
                acc = 0.0
                for u in range(8):
                    for v in range(8):
                        acc += (c[u] * c[v] / 4 * S[u, v]
                                * np.cos((2 * x + 1) * u * np.pi / 16)
                                * np.cos((2 * y + 1) * v * np.pi / 16))
                out[x, y] = acc
        return out

    ours = _M.T @ coefs @ _M
    assert np.allclose(ours, direct_idct(coefs), atol=1e-9)


def test_zigzag_is_a_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))
    # spec spot checks (T.81 Figure 5)
    assert ZIGZAG[0] == 0 and ZIGZAG[1] == 1 and ZIGZAG[2] == 8
    assert ZIGZAG[63] == 63


# -------------------------------------------------- hypothesis suites


@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 24), w=st.integers(1, 24),
       seed=st.integers(0, 2**31))
def test_property_grayscale_round_trip(h, w, seed):
    img = _rand_img(np.random.default_rng(seed), h, w)
    out = decode_jpeg(encode_jpeg(img))
    assert out.shape == (h, w)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 2


@settings(max_examples=15, deadline=None)
@given(h=st.integers(1, 20), w=st.integers(1, 20),
       seed=st.integers(0, 2**31), ri=st.integers(0, 4))
def test_property_rgb_round_trip_with_restarts(h, w, seed, ri):
    img = _rand_img(np.random.default_rng(seed), h, w, 3)
    out = decode_jpeg(encode_jpeg(img, restart_interval=ri))
    assert out.shape == (h, w, 3)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 6


# --------------------------------------------------- malformed input


def test_truncation_at_every_offset_raises_never_hangs():
    """Every strict prefix must raise JpegError (or decode nothing
    silently — not allowed), never hang or return garbage."""
    buf = encode_jpeg(synth_image(3))
    for cut in range(len(buf)):
        with pytest.raises(JpegError):
            decode_jpeg(buf[:cut])


def test_truncation_of_subsampled_restart_stream():
    img = np.random.default_rng(5).integers(
        0, 256, (24, 24, 3), dtype=np.uint8)
    buf = encode_jpeg(img, subsample=True, restart_interval=1)
    for cut in range(2, len(buf), 7):
        try:
            decode_jpeg(buf[:cut])
        except JpegError:
            continue
        raise AssertionError(f"prefix of length {cut} decoded")


def test_malformed_inputs_raise():
    good = encode_jpeg(synth_image(1))
    with pytest.raises(JpegError):
        decode_jpeg(b"")
    with pytest.raises(JpegError):
        decode_jpeg(b"\x00" * 16)
    with pytest.raises(JpegError):  # PNG magic
        decode_jpeg(b"\x89PNG\r\n\x1a\n" + good[2:])
    # corrupt a Huffman-coded byte mid-scan: must raise, not mis-decode
    # silently into a full-size image with bad pixel stats, or raise a
    # non-JpegError
    bad = bytearray(good)
    bad[-10] ^= 0xFF
    try:
        out = decode_jpeg(bytes(bad))
        assert out.shape == synth_image(1).shape  # tolerated only if
        # the flipped bits landed in padding
    except JpegError:
        pass
    # progressive SOF marker is rejected, not mis-parsed
    prog = bytearray(good)
    idx = prog.find(b"\xFF\xC0")
    prog[idx + 1] = 0xC2
    with pytest.raises(JpegError):
        decode_jpeg(bytes(prog))


def test_dc_category_above_baseline_max_raises():
    """A DHT whose DC symbols exceed the 8-bit baseline maximum category
    (11, T.81 Table F.1) raises JpegError, not a raw shift-count
    ValueError from the bit reader."""
    bad = bytearray(encode_jpeg(synth_image(1)))
    i = bad.find(b"\xFF\xC4")
    assert bad[i + 4] == 0x00  # Tc=0 (DC), Th=0
    n = sum(bad[i + 5:i + 21])
    bad[i + 21:i + 21 + n] = bytes(range(20, 20 + n))  # categories 20+
    with pytest.raises(JpegError, match="DC category"):
        decode_jpeg(bytes(bad))


def test_synth_image_matches_closed_form():
    img = synth_image(17)
    h, w, _ = img.shape
    assert (w, h) == (8 * (1 + 17 % 3), 8 * (1 + (17 * 5 + 1) % 3))
    # the two dims vary independently: non-square images occur
    assert any(synth_image(d).shape[0] != synth_image(d).shape[1]
               for d in range(9))
    # pixel (y=9, x=2) lives in block (by=1, bx=0)
    assert img[9, 2, 0] == (17 * 31 + 1 * 17 + 0 * 5) % 256
    assert img[9, 2, 1] == (17 * 31 + 1 * 17 + 0 * 5 + 11) % 256


# ----------------------------------------------------- pipeline gate


def test_jpeg_decode_matches_oracle(ray_session):
    import duckdb

    import __ray_entry__ as e
    from noise_ray.ops.multimodal import jpeg_decode

    got = jpeg_decode(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(e.oracle_sql()["jpeg_decode"]).fetchdf()
    want = want.sort_values("doc_id").reset_index(drop=True)
    got = got[want.columns.tolist()].astype(want.dtypes.to_dict())
    assert len(got) > 0
    assert got.equals(want)


def test_jpeg_decoder_empty_batch():
    import pyarrow as pa

    from noise_ray.ops.multimodal import JpegDecoder

    out = JpegDecoder()(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "payload": pa.array([], pa.binary()),
        "mime": pa.array([], pa.string()),
    }))
    assert out.num_rows == 0
    assert out.column_names == ["doc_id", "width", "height", "channels",
                                "sum_r", "sum_g", "sum_b"]


def test_jpeg_decoder_grayscale_payload():
    import pyarrow as pa

    from noise_ray.ops.multimodal import JpegDecoder

    img = np.full((8, 8), 50, np.uint8)
    out = JpegDecoder()(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "payload": pa.array([encode_jpeg(img)], pa.binary()),
        "mime": pa.array(["image/jpeg"], pa.string()),
    }))
    assert out.column("channels")[0].as_py() == 1
    # luma sum replicated across rgb
    assert (out.column("sum_r")[0].as_py()
            == out.column("sum_g")[0].as_py()
            == out.column("sum_b")[0].as_py() == 64 * 50)


def test_422_subsampling_decodes():
    """4:2:2 (horizontal-only chroma subsampling) exercises the
    decoder's general (hi, vi) path that 4:4:4 and 4:2:0 do not."""
    y, x = np.mgrid[0:33, 0:37]
    img = np.stack([(x * 4) % 256, (y * 4) % 256,
                    ((x + y) * 2) % 256], -1).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, subsample="422"))
    assert out.shape == (33, 37, 3)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 8
    flat = np.full((16, 16, 3), 93, np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(flat, subsample="422")),
                          decode_jpeg(encode_jpeg(flat)))
    rng = np.random.default_rng(3)
    img2 = rng.integers(0, 256, (24, 40, 3), dtype=np.uint8)
    assert np.array_equal(
        decode_jpeg(encode_jpeg(img2, subsample="422",
                                restart_interval=2)),
        decode_jpeg(encode_jpeg(img2, subsample="422")))
    with pytest.raises(JpegError):
        encode_jpeg(img, subsample="411")
