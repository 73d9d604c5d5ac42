"""Pure-numpy baseline JPEG codec (grayscale / RGB, 4:4:4 and 4:2:0).

No imaging library ships in this environment, so the multimodal decode
stage carries its own real codec, like ``ops/png.py``: a spec-compliant
baseline-sequential-DCT JFIF subset built on numpy + stdlib ``struct``
(ITU-T T.81 / ISO 10918-1 and the JFIF 1.02 spec — public documents).

The encoder writes genuine JPEG files (SOI, APP0/JFIF, DQT, SOF0, DHT
with the spec Annex K typical Huffman tables, optional DRI, SOS,
entropy-coded scan with byte stuffing and restart markers, EOI).  The
decoder is NOT the encoder inverted: it walks markers, parses
arbitrary quantization/Huffman table definitions, Huffman-decodes the
scan through a 16-bit-prefix lookup table, handles general per-
component sampling factors (4:4:4, 4:2:2, 4:2:0), restart intervals,
non-multiple-of-8 dimensions (decode-side crop), dequantizes, runs a
separable orthogonal-matrix IDCT batched over all blocks of a
component, rounds samples to integers, and color-converts with the
JFIF YCbCr formulas — any baseline non-progressive 8-bit JPEG from
any writer decodes, not just ours.

Exactness contract for the oracle (cf. ops/multimodal payload_decode):
``synth_image`` produces 8x8-block-constant RGB images.  A constant
block has an exactly-representable DC coefficient and zero AC, so with
unit quantization tables the decode chain (Huffman -> dequant -> IDCT
-> round -> color convert) reproduces, bit-for-bit, the closed-form
``floor(x + 0.5)`` integer chain a SQL oracle can recompute from
doc_id alone.  The decoder rounds IDCT output to integer samples
BEFORE color conversion (standard decoder structure), so the color
math runs on exact integers and float-epsilon cannot flip a floor.
Generality beyond DC-only images is covered by tests: a direct
O(n^4) textbook IDCT cross-check and encode/decode round-trip bounds
on random full-AC images (tests/test_multimodal_jpeg.py).

Reference parity note: /root/reference has no multimodal surface; this
module extends the engine for 100 TB crawl payloads (SURVEY.md §2
extras), same adjudication as ops/png.py.
"""

from __future__ import annotations

import struct

import numpy as np

# Zigzag scan order (T.81 Figure 5): ZIGZAG[k] = natural index of the
# k-th coefficient in zigzag order.
ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], np.int64)

# T.81 Annex K.3 "typical" Huffman tables: (BITS[1..16], HUFFVAL).
_DC_LUM = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
           list(range(12)))
_DC_CHR = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
           list(range(12)))
_AC_LUM = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_AC_CHR = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])

# Orthogonal 8x8 DCT-II matrix: M[u, x] = c(u)/2 * cos((2x+1) u pi/16);
# forward S = M s M^T, inverse s = M^T S M (M M^T = I).
_x = np.arange(8)
_M = np.cos((2 * _x[None, :] + 1) * _x[:, None] * np.pi / 16) / 2.0
_M[0, :] = 1.0 / (2.0 * np.sqrt(2.0))


def _canonical_codes(bits, vals):
    """(code, length) per symbol in HUFFVAL order (T.81 Annex C)."""
    out = []
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out.append((code, length))
            code += 1
            k += 1
        code <<= 1
    return dict(zip(vals, out))


_LUT_CACHE: dict = {}


def _decode_lut(bits, vals):
    """16-bit-prefix lookup: sym[peek16], len[peek16] (0 = invalid).
    Cached by table content — the Annex K tables recur in virtually
    every file, and building two 64Ki arrays dominated small-image
    decode time (measured ~0.5 ms of a 0.83 ms/img decode)."""
    key = (bytes(bits), bytes(vals))
    hit = _LUT_CACHE.get(key)
    if hit is not None:
        return hit
    sym = np.zeros(1 << 16, np.uint8)
    ln = np.zeros(1 << 16, np.uint8)
    for v, (code, length) in _canonical_codes(bits, vals).items():
        start = code << (16 - length)
        ln[start:start + (1 << (16 - length))] = length
        sym[start:start + (1 << (16 - length))] = v
    if len(_LUT_CACHE) > 64:  # adversarial many-table streams stay bounded
        _LUT_CACHE.clear()
    _LUT_CACHE[key] = (sym, ln)
    return sym, ln


class JpegError(ValueError):
    pass


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:  # byte stuffing (T.81 F.1.2.3)
                self.out.append(0x00)
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def pad_to_byte(self) -> None:
        if self.n:
            self.put(0x7F, 8 - self.n)  # pad with 1-bits


class _BitReader:
    """MSB-first reader over de-stuffed entropy data; zero-pads past
    the end so a final peek16 near EOF is well-defined."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def peek16(self) -> int:
        while self.n < 16:
            b = self.data[self.pos] if self.pos < len(self.data) else 0
            self.pos += 1
            self.acc = (self.acc << 8) | b
            self.n += 8
        return (self.acc >> (self.n - 16)) & 0xFFFF

    def skip(self, k: int) -> None:
        if self.n < k:
            self.peek16()
        self.n -= k
        self.acc &= (1 << self.n) - 1

    def receive(self, k: int) -> int:
        if k == 0:
            return 0
        v = self.peek16() >> (16 - k)
        self.skip(k)
        return v

    def overrun(self) -> bool:
        # consumed bits beyond the real data (zero padding reached)
        return (self.pos - (self.n + 7) // 8) > len(self.data)


def _extend(v: int, t: int) -> int:
    """T.81 F.2.2.1 EXTEND: map t received bits to a signed value."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


def _category(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    """JFIF forward color transform, floor(x + 0.5) integer rounding."""
    r = img[..., 0].astype(np.float64)
    g = img[..., 1].astype(np.float64)
    b = img[..., 2].astype(np.float64)
    y = np.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5)
    cb = np.floor(128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b + 0.5)
    cr = np.floor(128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b + 0.5)
    return np.clip(np.stack([y, cb, cr], axis=-1), 0, 255).astype(np.uint8)


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray
                  ) -> np.ndarray:
    """JFIF inverse color transform on INTEGER samples (see module
    docstring for why rounding happens before this step)."""
    y = y.astype(np.float64)
    cbf = cb.astype(np.float64) - 128.0
    crf = cr.astype(np.float64) - 128.0
    r = np.floor(y + 1.402 * crf + 0.5)
    g = np.floor(y - 0.344136 * cbf - 0.714136 * crf + 0.5)
    b = np.floor(y + 1.772 * cbf + 0.5)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


def _seg(marker: int, payload: bytes) -> bytes:
    return struct.pack(">HH", marker, len(payload) + 2) + payload


def _dht_payload(tc: int, th: int, table) -> bytes:
    bits, vals = table
    return bytes([tc << 4 | th]) + bytes(bits) + bytes(vals)


def _encode_blocks(coefs: np.ndarray, dc_codes, ac_codes, bw: _BitWriter,
                   pred: int) -> int:
    """Entropy-code quantized blocks (n, 64) in zigzag order; returns
    the final DC predictor."""
    for blk in coefs:
        diff = int(blk[0]) - pred
        pred = int(blk[0])
        t = _category(diff)
        code, ln = dc_codes[t]
        bw.put(code, ln)
        if t:
            bw.put(diff if diff >= 0 else diff + (1 << t) - 1, t)
        # AC: run-length of zeros then (run, size) symbol
        nz = np.nonzero(blk[1:])[0]
        prev = 0
        for idx in nz:
            run = int(idx) - prev
            prev = int(idx) + 1
            while run >= 16:
                code, ln = ac_codes[0xF0]  # ZRL
                bw.put(code, ln)
                run -= 16
            v = int(blk[1 + idx])
            s = _category(v)
            code, ln = ac_codes[run << 4 | s]
            bw.put(code, ln)
            bw.put(v if v >= 0 else v + (1 << s) - 1, s)
        if prev < 63:
            code, ln = ac_codes[0x00]  # EOB
            bw.put(code, ln)
    return pred


def _plane_blocks(plane: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """Pad a sample plane to 8-multiples (edge replication, T.81
    recommendation), FDCT every block, quantize, zigzag: (n, 64)."""
    h, w = plane.shape
    ph, pw = -h % 8, -w % 8
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    hh, ww = plane.shape
    shifted = plane.astype(np.float64) - 128.0
    blocks = (shifted.reshape(hh // 8, 8, ww // 8, 8)
              .transpose(0, 2, 1, 3).reshape(-1, 8, 8))
    s = np.einsum("ux,nxy,vy->nuv", _M, blocks, _M)
    q = np.rint(s / qt.reshape(8, 8)).astype(np.int32)
    return q.reshape(-1, 64)[:, ZIGZAG]


def encode_jpeg(img: np.ndarray, quant: np.ndarray | None = None,
                subsample: bool = False, restart_interval: int = 0
                ) -> bytes:
    """Encode an (h, w) grayscale or (h, w, 3) RGB uint8 array as a
    baseline JFIF JPEG.  ``quant`` is a natural-order 64-entry table
    applied to all components (default all-ones: near-lossless, the
    exactness mode the oracle relies on).  ``subsample`` selects the
    chroma sampling: False/"444" = none, True/"420" = 2x2 box-mean,
    "422" = horizontal-only 2x1 (the decoder handles general (hi, vi),
    so the encoder emits all three to keep every decode path
    exercisable); ``restart_interval`` emits DRI + RSTn markers every
    that many MCUs."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, ncomp = img.shape
    if ncomp not in (1, 3):
        raise JpegError(f"unsupported component count {ncomp}")
    qt = (np.ones(64) if quant is None
          else np.asarray(quant, np.float64).reshape(64))
    if np.any(qt < 1) or np.any(qt > 255):
        raise JpegError("quant entries must be in 1..255")
    mode = {False: "444", True: "420"}.get(subsample, subsample)
    if mode not in ("444", "420", "422"):
        raise JpegError(f"unsupported subsample mode {subsample!r}")

    if ncomp == 3:
        ycc = _rgb_to_ycbcr(img)
        planes = [ycc[:, :, 0], ycc[:, :, 1], ycc[:, :, 2]]
        sy, sx = {"444": (1, 1), "420": (2, 2), "422": (1, 2)}[mode]
        samp = [(sx, sy), (1, 1), (1, 1)]
        if mode != "444":
            for ci in (1, 2):
                p = planes[ci].astype(np.float64)
                p = np.pad(p, ((0, h % sy), (0, w % sx)), mode="edge")
                p = (p.reshape(p.shape[0] // sy, sy,
                               p.shape[1] // sx, sx).mean(axis=(1, 3)))
                planes[ci] = np.floor(p + 0.5).astype(np.uint8)
    else:
        planes = [img[:, :, 0]]
        samp = [(1, 1)]
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)

    out = bytearray(b"\xFF\xD8")  # SOI
    out += _seg(0xFFE0, b"JFIF\x00\x01\x02\x00\x00\x01\x00\x01\x00\x00")
    qt_z = np.rint(qt).astype(np.uint8)[ZIGZAG]
    out += _seg(0xFFDB, bytes([0]) + qt_z.tobytes())  # DQT id 0
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci in range(ncomp):
        sof += bytes([ci + 1, samp[ci][0] << 4 | samp[ci][1], 0])
    out += _seg(0xFFC0, sof)  # SOF0 baseline
    out += _seg(0xFFC4, _dht_payload(0, 0, _DC_LUM))
    out += _seg(0xFFC4, _dht_payload(1, 0, _AC_LUM))
    if ncomp == 3:
        out += _seg(0xFFC4, _dht_payload(0, 1, _DC_CHR))
        out += _seg(0xFFC4, _dht_payload(1, 1, _AC_CHR))
    if restart_interval:
        out += _seg(0xFFDD, struct.pack(">H", restart_interval))
    sos = bytes([ncomp])
    for ci in range(ncomp):
        td_ta = 0x00 if ci == 0 else 0x11
        sos += bytes([ci + 1, td_ta])
    sos += bytes([0, 63, 0])
    out += _seg(0xFFDA, sos)

    dc_tabs = [_canonical_codes(*_DC_LUM)] + \
              [_canonical_codes(*_DC_CHR)] * (ncomp - 1)
    ac_tabs = [_canonical_codes(*_AC_LUM)] + \
              [_canonical_codes(*_AC_CHR)] * (ncomp - 1)

    # Per-component quantized blocks arranged on the MCU-padded grid.
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    comp_coefs = []
    for ci in range(ncomp):
        hi, vi = samp[ci]
        bw_, bh_ = mcux * hi, mcuy * vi  # block-grid dims incl. MCU pad
        p = planes[ci]
        ph, pw = bh_ * 8 - p.shape[0], bw_ * 8 - p.shape[1]
        p = np.pad(p, ((0, max(ph, 0)), (0, max(pw, 0))), mode="edge")
        comp_coefs.append(
            _plane_blocks(p, qt).reshape(bh_, bw_, 64))

    bw = _BitWriter()
    preds = [0] * ncomp
    mcu_i = 0
    rst = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_i and \
                    mcu_i % restart_interval == 0:
                bw.pad_to_byte()
                out += bw.out
                bw = _BitWriter()
                out += bytes([0xFF, 0xD0 + rst])
                rst = (rst + 1) % 8
                preds = [0] * ncomp
            for ci in range(ncomp):
                hi, vi = samp[ci]
                for vy in range(vi):
                    for vx in range(hi):
                        blk = comp_coefs[ci][my * vi + vy,
                                             mx * hi + vx][None, :]
                        preds[ci] = _encode_blocks(
                            blk, dc_tabs[ci], ac_tabs[ci], bw, preds[ci])
            mcu_i += 1
    bw.pad_to_byte()
    out += bw.out
    out += b"\xFF\xD9"  # EOI
    return bytes(out)


def _parse_entropy(buf: bytes, pos: int):
    """Split the entropy-coded scan into de-stuffed segments separated
    by RST markers; returns (segments, pos_after_scan)."""
    segs = []
    cur = bytearray()
    n = len(buf)
    while pos < n:
        b = buf[pos]
        if b != 0xFF:
            cur.append(b)
            pos += 1
            continue
        if pos + 1 >= n:
            raise JpegError("truncated entropy stream")
        m = buf[pos + 1]
        if m == 0x00:
            cur.append(0xFF)
            pos += 2
        elif 0xD0 <= m <= 0xD7:  # RSTn
            segs.append(bytes(cur))
            cur = bytearray()
            pos += 2
        else:  # next real marker (EOI or otherwise) ends the scan
            break
    segs.append(bytes(cur))
    return segs, pos


def decode_jpeg(buf: bytes) -> np.ndarray:
    """Decode a baseline JPEG to (h, w) uint8 (grayscale) or
    (h, w, 3) uint8 RGB."""
    if len(buf) < 4 or buf[0:2] != b"\xFF\xD8":
        raise JpegError("bad SOI")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    dc_luts: dict[int, tuple] = {}
    ac_luts: dict[int, tuple] = {}
    frame = None  # (h, w, [(cid, hi, vi, tq)])
    restart_interval = 0
    scan = None
    saw_eoi = False
    n = len(buf)
    while pos < n:
        if buf[pos] != 0xFF or pos + 1 >= n:
            raise JpegError(f"expected marker at {pos}")
        marker = buf[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            saw_eoi = True
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            continue  # standalone
        if pos + 2 > n:
            raise JpegError("truncated segment header")
        seglen = struct.unpack(">H", buf[pos:pos + 2])[0]
        if seglen < 2 or pos + seglen > n:
            raise JpegError("truncated segment")
        body = buf[pos + 2:pos + seglen]
        pos += seglen
        if marker == 0xDB:  # DQT — possibly several tables
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 15
                i += 1
                if pq == 0:
                    tab = np.frombuffer(body[i:i + 64], np.uint8)\
                        .astype(np.float64)
                    i += 64
                else:
                    tab = np.frombuffer(body[i:i + 128], ">u2")\
                        .astype(np.float64)
                    i += 128
                nat = np.empty(64)
                nat[ZIGZAG] = tab  # stored zigzag -> natural
                qts[tq] = nat
        elif marker == 0xC4:  # DHT — possibly several tables
            i = 0
            while i < len(body):
                tc, th = body[i] >> 4, body[i] & 15
                bits = list(body[i + 1:i + 17])
                cnt = sum(bits)
                vals = list(body[i + 17:i + 17 + cnt])
                i += 17 + cnt
                lut = _decode_lut(bits, vals)
                (dc_luts if tc == 0 else ac_luts)[th] = lut
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 baseline
            prec, h, w, ncomp = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise JpegError(f"unsupported precision {prec}")
            comps = []
            for ci in range(ncomp):
                cid, hv, tq = body[6 + ci * 3:9 + ci * 3]
                comps.append((cid, hv >> 4, hv & 15, tq))
            frame = (h, w, comps)
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise JpegError(f"non-baseline SOF 0x{marker:02X}")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", body[:2])[0]
        elif marker == 0xDA:  # SOS
            ns = body[0]
            scomps = []
            for si in range(ns):
                cs, tdta = body[1 + si * 2:3 + si * 2]
                scomps.append((cs, tdta >> 4, tdta & 15))
            segs, pos = _parse_entropy(buf, pos)
            scan = (scomps, segs)
            # continue the marker walk (expects EOI next)
        # other markers (APPn, COM) are skipped
    if frame is None or scan is None:
        raise JpegError("missing SOF/SOS")
    if not saw_eoi:
        raise JpegError("missing EOI (truncated file)")
    h, w, comps = frame
    scomps, segs = scan
    if len(scomps) != len(comps):
        raise JpegError("progressive/multi-scan not supported")
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    by_cid = {c[0]: c for c in comps}
    order = []  # (coef_array, dc_lut, ac_lut, hi, vi) in scan order
    coef_arrays = {}
    for cs, td, ta in scomps:
        if cs not in by_cid:
            raise JpegError(f"scan references unknown component {cs}")
        _, hi, vi, tq = by_cid[cs]
        if td not in dc_luts or ta not in ac_luts:
            raise JpegError("scan references undefined Huffman table")
        if tq not in qts:
            raise JpegError("frame references undefined quant table")
        arr = np.zeros((mcuy * vi, mcux * hi, 64), np.int32)
        coef_arrays[cs] = (arr, tq, hi, vi)
        order.append((arr, dc_luts[td], ac_luts[ta], hi, vi))

    total_mcus = mcux * mcuy
    per_seg = restart_interval if restart_interval else total_mcus
    mcu_i = 0
    for seg in segs:
        if mcu_i >= total_mcus:
            break
        br = _BitReader(seg)
        preds = [0] * len(order)
        seg_end = min(mcu_i + per_seg, total_mcus)
        while mcu_i < seg_end:
            my, mx = divmod(mcu_i, mcux)
            for oi, (arr, (dsym, dlen), (asym, alen), hi, vi) \
                    in enumerate(order):
                for vy in range(vi):
                    for vx in range(hi):
                        blk = arr[my * vi + vy, mx * hi + vx]
                        p = br.peek16()
                        ln = int(dlen[p])
                        if ln == 0:
                            raise JpegError("invalid DC Huffman code")
                        br.skip(ln)
                        t = int(dsym[p])
                        if t > 11:  # 8-bit baseline max (T.81 Table F.1)
                            raise JpegError(f"invalid DC category {t}")
                        diff = _extend(br.receive(t), t)
                        preds[oi] += diff
                        blk[0] = preds[oi]
                        k = 1
                        while k < 64:
                            p = br.peek16()
                            ln = int(alen[p])
                            if ln == 0:
                                raise JpegError("invalid AC Huffman code")
                            br.skip(ln)
                            rs = int(asym[p])
                            if rs == 0x00:  # EOB
                                break
                            if rs == 0xF0:  # ZRL
                                k += 16
                                continue
                            k += rs >> 4
                            s = rs & 15
                            if k > 63:
                                raise JpegError("AC index out of range")
                            blk[k] = _extend(br.receive(s), s)
                            k += 1
            mcu_i += 1
            if br.overrun():
                raise JpegError("entropy stream overrun")
    if mcu_i < total_mcus:
        raise JpegError("truncated scan: "
                        f"{mcu_i}/{total_mcus} MCUs decoded")

    planes = {}
    for cs, (arr, tq, hi, vi) in coef_arrays.items():
        bh_, bw_ = arr.shape[0], arr.shape[1]
        coefs = arr.reshape(-1, 64).astype(np.float64) \
            * qts[tq][ZIGZAG][None, :]
        nat = np.zeros((coefs.shape[0], 64))
        nat[:, ZIGZAG] = coefs
        blocks = nat.reshape(-1, 8, 8)
        pix = np.einsum("xu,nuv,yv->nxy", _M.T, blocks, _M.T)
        # round to integer samples BEFORE color conversion (exactness
        # contract, module docstring)
        pix = np.clip(np.floor(pix + 128.0 + 0.5), 0, 255)
        plane = (pix.reshape(bh_, bw_, 8, 8).transpose(0, 2, 1, 3)
                 .reshape(bh_ * 8, bw_ * 8))
        # upsample to full resolution then crop
        ry, rx = vmax // vi, hmax // hi
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes[cs] = plane[:h, :w].astype(np.uint8)

    if len(comps) == 1:
        return planes[comps[0][0]]
    if len(comps) != 3:  # 2- or 4-component (e.g. CMYK) frames
        raise JpegError(f"unsupported component count {len(comps)}")
    y, cb, cr = (planes[comps[i][0]] for i in range(3))
    return _ycbcr_to_rgb(y, cb, cr)


def synth_image(doc_id: int) -> np.ndarray:
    """Deterministic 8x8-block-constant RGB image for doc_id: dims
    8*(1 + doc_id % 3) x 8*(1 + (doc_id * 5 + 1) % 3) (w x h), block
    (bx, by) colored r = (doc_id*31 + by*17 + bx*5) % 256, g = r+11
    mod 256, b = r+22 mod 256 — closed-form for the SQL oracle, and
    exactly round-trippable through the unit-quant codec."""
    w = 8 * (1 + doc_id % 3)
    h = 8 * (1 + (doc_id * 5 + 1) % 3)
    by, bx = np.meshgrid(np.arange(h // 8), np.arange(w // 8),
                         indexing="ij")
    r = (doc_id * 31 + by * 17 + bx * 5) % 256
    img = np.stack([r, (r + 11) % 256, (r + 22) % 256], axis=-1)
    return np.repeat(np.repeat(img.astype(np.uint8), 8, axis=0),
                     8, axis=1)
