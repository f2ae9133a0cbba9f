"""Pure-stdlib baseline JPEG codec (numpy for the DCT math).

Closes the round-3 seam where ``stages/media.py`` decoded JPEG
*headers* (dims via SOF scan) but not pixels, so a mostly-JPEG web
corpus silently got stub thumbnails. The reference pipeline carries no
media at all (this tier comes from the builder's brief, not the Java);
the format itself is public — ITU-T T.81 baseline sequential DCT.

Coverage:
- decode: baseline sequential (SOF0/SOF1) AND progressive (SOF2)
  Huffman JPEG, 8-bit, grayscale or YCbCr, sampling grids with
  integer upsampling ratios (4:4:4, 4:2:2, 4:2:0, ...; a non-integer
  ratio like 3:2 raises), multi-scan streams (spectral selection +
  successive approximation per T.81 G.1.2 / Annex G), EOB runs,
  restart markers, 0xFF00 byte stuffing, fill bytes (header and
  scan). Single-component scans decode non-interleaved per T.81
  A.2.2. Only hierarchical (SOF3/5-7/13-15) and arithmetic coding
  (SOF9-11) raise ``NotImplementedError`` — vanishingly rare on real
  web corpora.
- encode: baseline, standard Annex-K quantization (IJG quality
  scaling) + Annex-K Huffman tables, 4:4:4 or 4:2:0, optional restart
  interval. Exists so the engine can emit JPEG thumbnails and so tests
  can exercise the decoder's subsampling/restart paths on
  self-contained bytes; the tests' progressive encoder
  (``tests/codec_fixtures.py``) builds on ``_EncPrep`` and
  ``_BitWriter`` for the multi-scan paths.

Per-block entropy coding is a Python loop by necessity (bit-serial
Huffman); the DCT/IDCT, quantization, color transforms and chroma
resampling are vectorized numpy over whole planes. At pipeline scale
this runs inside the media stages' tasks (one cached codec instance per
worker process), never on the driver.

Performance note (ADVICE r4): progressive decode runs the bit-serial
entropy loop once per SCAN (typical emitted scripts have ~10 scans),
so SOF2 images decode roughly an order of magnitude slower than
baseline. On a progressive-heavy corpus this dominates the media
tier (transcode upstream if it matters).
Refinement scans whose band carries no coefficients still consume
their bits, so they cannot be skipped without parsing them.
"""

from __future__ import annotations

import struct

import numpy as np

# --- constants (ITU-T T.81 Annex K) ---------------------------------

ZIGZAG = np.array([
    0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

QUANT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)

QUANT_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# (bits[1..16], values) — standard tables
DC_LUM = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
          list(range(12)))
DC_CHROM = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
            list(range(12)))
AC_LUM = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
     0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
     0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
     0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
     0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
     0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
     0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
     0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
     0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
     0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
     0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
     0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
     0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
     0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
     0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
     0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
     0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
     0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
     0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
     0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
     0xF9, 0xFA])
AC_CHROM = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
     0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
     0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
     0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
     0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
     0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
     0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
     0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
     0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
     0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
     0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
     0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
     0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
     0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
     0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
     0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
     0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
     0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
     0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
     0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
     0xF9, 0xFA])

# orthonormal 8-point DCT-II matrix: F = M f M^T, f = M^T F M
_M = np.zeros((8, 8))
for _u in range(8):
    _c = np.sqrt(0.125) if _u == 0 else 0.5
    for _x in range(8):
        _M[_u, _x] = _c * np.cos((2 * _x + 1) * _u * np.pi / 16)
del _u, _c, _x


# --- Huffman machinery ------------------------------------------------

def _canonical_codes(bits, values):
    """(symbol -> (code, length)) for the canonical code of Annex C."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[values[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _HuffDecoder:
    """Canonical Huffman decode tables (F.2.2.3: mincode / maxcode /
    valptr per code length)."""

    def __init__(self, bits, values):
        self.values = values
        self.mincode = [0] * 17
        self.maxcode = [-1] * 17
        self.valptr = [0] * 17
        code = 0
        k = 0
        for length in range(1, 17):
            n = bits[length - 1]
            self.valptr[length] = k
            self.mincode[length] = code
            self.maxcode[length] = code + n - 1 if n else -1
            code = (code + n) << 1
            k += n


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.bit = 0

    def read_bit(self) -> int:
        if self.pos >= len(self.data):
            return 0            # T.81 F.2.2.5: pad past end with 0s
        b = (self.data[self.pos] >> (7 - self.bit)) & 1
        self.bit += 1
        if self.bit == 8:
            self.bit = 0
            self.pos += 1
        return b

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def decode_symbol(self, tbl: _HuffDecoder) -> int:
        code = 0
        for length in range(1, 17):
            code = (code << 1) | self.read_bit()
            if code <= tbl.maxcode[length]:
                return tbl.values[tbl.valptr[length]
                                  + code - tbl.mincode[length]]
        raise ValueError("invalid Huffman code in JPEG scan")


def _extend(v: int, n: int) -> int:
    """T.81 F.2.2.1: magnitude bits → signed value."""
    if n == 0:
        return 0
    return v if v >= (1 << (n - 1)) else v - (1 << n) + 1


# --- decoder ----------------------------------------------------------

def _destuff(payload: bytes, pos: int) -> tuple[list[bytes], int]:
    """De-stuff entropy-coded data starting at ``pos``, splitting on
    restart markers. Returns (segments, index of the terminating
    marker's 0xFF byte)."""
    n = len(payload)
    segments: list[bytearray] = [bytearray()]
    j = pos
    while j < n:
        b = payload[j]
        if b == 0xFF:
            nxt = payload[j + 1] if j + 1 < n else 0xD9
            if nxt == 0x00:
                segments[-1].append(0xFF)
                j += 2
                continue
            if nxt == 0xFF:                     # fill byte before a
                j += 1                          # marker (T.81 B.1.1.2)
                continue
            if 0xD0 <= nxt <= 0xD7:             # RSTn
                segments.append(bytearray())
                j += 2
                continue
            break                               # EOI / next marker
        segments[-1].append(b)
        j += 1
    return [bytes(s) for s in segments], j


class _ScanState:
    """Per-restart-segment entropy state: bit reader, DC predictors,
    and the progressive EOB-run counter (none may cross a restart)."""

    def __init__(self, segments: list[bytes], ncomp: int,
                 restart_interval: int):
        self.segments = segments
        self.ncomp = ncomp
        self.restart_interval = restart_interval
        self.seg_idx = 0
        self.reader = _BitReader(segments[0])
        self.preds = [0] * ncomp
        self.eobrun = 0

    def maybe_restart(self, unit: int):
        if (self.restart_interval and unit
                and unit % self.restart_interval == 0):
            self.seg_idx += 1
            if self.seg_idx >= len(self.segments):
                raise ValueError("missing JPEG restart segment")
            self.reader = _BitReader(self.segments[self.seg_idx])
            self.preds = [0] * self.ncomp
            self.eobrun = 0


def _block_full(st: _ScanState, coef: np.ndarray, ci: int,
                dct: _HuffDecoder, act: _HuffDecoder):
    """Baseline: full-band DC+AC decode of one block (T.81 F.2.2)."""
    r = st.reader
    t = r.decode_symbol(dct)
    st.preds[ci] += _extend(r.read_bits(t), t)
    coef[0] = st.preds[ci]
    k = 1
    while k < 64:
        rs = r.decode_symbol(act)
        run, s = rs >> 4, rs & 0x0F
        if s == 0:
            if run == 15:                       # ZRL
                k += 16
                continue
            break                               # EOB
        k += run
        if k > 63:
            raise ValueError("JPEG AC index overflow")
        coef[k] = _extend(r.read_bits(s), s)
        k += 1


def _block_dc_first(st: _ScanState, coef: np.ndarray, ci: int,
                    dct: _HuffDecoder, al: int):
    """Progressive DC, first pass (T.81 G.1.2.1): diff-coded point
    transform, stored shifted left by Al."""
    r = st.reader
    t = r.decode_symbol(dct)
    st.preds[ci] += _extend(r.read_bits(t), t)
    coef[0] = st.preds[ci] << al


def _block_dc_refine(st: _ScanState, coef: np.ndarray, al: int):
    """Progressive DC refinement: one raw bit per block at position
    Al (two's-complement OR, the libjpeg-documented semantics)."""
    if st.reader.read_bit():
        coef[0] |= 1 << al


def _block_ac_first(st: _ScanState, coef: np.ndarray,
                    act: _HuffDecoder, ss: int, se: int, al: int):
    """Progressive AC, first pass over band Ss..Se (T.81 G.1.2.2):
    run-length + EOBn runs, values stored shifted left by Al."""
    if st.eobrun > 0:
        st.eobrun -= 1
        return
    r = st.reader
    k = ss
    while k <= se:
        rs = r.decode_symbol(act)
        run, s = rs >> 4, rs & 0x0F
        if s == 0:
            if run == 15:                       # ZRL
                k += 16
                continue
            st.eobrun = (1 << run) - 1          # EOBn
            if run:
                st.eobrun += r.read_bits(run)
            break
        k += run
        if k > se:
            raise ValueError("JPEG AC index overflow")
        coef[k] = _extend(r.read_bits(s), s) << al
        k += 1


def _block_ac_refine(st: _ScanState, coef: np.ndarray,
                     act: _HuffDecoder, ss: int, se: int, al: int):
    """Progressive AC refinement (T.81 G.1.2.3, the libjpeg
    decode_mcu_AC_refine structure): new coefficients arrive as ±1
    at bit Al; already-nonzero coefficients absorb one correction bit
    whenever the scan passes over them."""
    p1 = 1 << al
    m1 = -1 << al
    r = st.reader

    def correct(k: int):
        # correction bit for a history-nonzero coefficient
        if r.read_bit() and not (coef[k] & p1):
            coef[k] += p1 if coef[k] >= 0 else m1

    k = ss
    if st.eobrun == 0:
        while k <= se:
            rs = r.decode_symbol(act)
            run, s = rs >> 4, rs & 0x0F
            val = 0
            if s == 0:
                if run != 15:                   # EOBn
                    st.eobrun = 1 << run
                    if run:
                        st.eobrun += r.read_bits(run)
                    break
                # run == 15: ZRL — skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError(
                        "invalid refinement magnitude in JPEG scan")
                val = p1 if r.read_bit() else m1
            while k <= se:
                if coef[k] != 0:
                    correct(k)
                else:
                    run -= 1
                    if run < 0:
                        break
                k += 1
            if val:
                if k > se:
                    raise ValueError("JPEG AC refine overflow")
                coef[k] = val
            k += 1
    if st.eobrun > 0:
        while k <= se:
            if coef[k] != 0:
                correct(k)
            k += 1
        st.eobrun -= 1


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline or progressive JPEG bytes → uint8 pixels [h, w, 1|3]."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload")
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple[int, int], _HuffDecoder] = {}
    restart_interval = 0
    frame = None    # (h, w, [(cid, hs, vs, tq), ...], progressive)
    # scans: (sel=[(ci, dc_id, ac_id)], ss, se, ah, al, segments, ri)
    scans: list[tuple] = []

    i = 2
    n = len(payload)
    while i < n:
        if payload[i] != 0xFF:
            i += 1
            continue
        marker = payload[i + 1]
        if marker == 0xFF:                      # fill byte
            i += 1
            continue
        if marker == 0xD9:                      # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD8:
            i += 2
            continue
        seglen = int.from_bytes(payload[i + 2:i + 4], "big")
        seg = payload[i + 4:i + 2 + seglen]
        if marker == 0xDB:                      # DQT
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 0x0F
                p += 1
                if pq:
                    vals = np.frombuffer(seg[p:p + 128],
                                         ">u2").astype(np.int64)
                    p += 128
                else:
                    vals = np.frombuffer(seg[p:p + 64],
                                         np.uint8).astype(np.int64)
                    p += 64
                q = np.empty(64, np.int64)
                q[ZIGZAG] = vals
                qtables[tq] = q.reshape(8, 8)
        elif marker == 0xC4:                    # DHT
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 0x0F
                bits = list(seg[p + 1:p + 17])
                nv = sum(bits)
                values = list(seg[p + 17:p + 17 + nv])
                htables[(tc, th)] = _HuffDecoder(bits, values)
                p += 17 + nv
        elif marker in (0xC0, 0xC1, 0xC2):      # SOF0/1/2
            h = int.from_bytes(seg[1:3], "big")
            w = int.from_bytes(seg[3:5], "big")
            ncomp = seg[5]
            comps = []
            for c in range(ncomp):
                cid = seg[6 + 3 * c]
                hv = seg[7 + 3 * c]
                comps.append((cid, hv >> 4, hv & 0x0F,
                              seg[8 + 3 * c]))
            frame = (h, w, comps, marker == 0xC2)
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                "only baseline (SOF0/SOF1) and progressive (SOF2) "
                "Huffman JPEG")
        elif marker == 0xDD:                    # DRI
            restart_interval = int.from_bytes(seg[0:2], "big")
        elif marker == 0xDA:                    # SOS
            ns = seg[0]
            if frame is None:
                raise ValueError("JPEG SOS before SOF")
            cids = [c[0] for c in frame[2]]
            sel = []
            for c in range(ns):
                cid = seg[1 + 2 * c]
                tt = seg[2 + 2 * c]
                sel.append((cids.index(cid), tt >> 4, tt & 0x0F))
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ahal = seg[3 + 2 * ns]
            segments, j = _destuff(payload, i + 2 + seglen)
            scans.append((sel, ss, se, ahal >> 4, ahal & 0x0F,
                          segments, restart_interval))
            i = j
            continue
        i += 2 + seglen
    if frame is None or not scans:
        raise ValueError("no JPEG frame/scan found")

    h, w, comps, progressive = frame
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    for (_cid, hs, vs, _tq) in comps:
        if hmax % hs or vmax % vs:
            raise NotImplementedError(
                "non-integer chroma upsampling ratio "
                f"(h {hmax}/{hs}, v {vmax}/{vs})")
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    # Per component: zigzag-domain coefficient grid over the padded
    # interleaved-MCU geometry; non-interleaved scans address the
    # row-major top-left sub-rectangle of ceil(comp_dims/8) blocks
    # (T.81 A.2.2). All scans accumulate into these grids; IDCT runs
    # once at the end.
    grids: list[np.ndarray] = []
    nblocks: list[tuple[int, int]] = []         # (bh, bw) per comp
    for (_cid, hs, vs, _tq) in comps:
        grids.append(np.zeros((mcuy * vs, mcux * hs, 64), np.int64))
        cw = -(-w * hs // hmax)
        chh = -(-h * vs // vmax)
        nblocks.append((-(-chh // 8), -(-cw // 8)))

    for (sel, ss, se, ah, al, segments, ri) in scans:
        if not progressive:
            ss, se, ah, al = 0, 63, 0, 0
        st = _ScanState(segments, len(comps), ri)

        def decode_block(ci: int, by: int, bx: int,
                         dc_id: int, ac_id: int):
            coef = grids[ci][by, bx]
            if not progressive:
                _block_full(st, coef, ci,
                            htables[(0, dc_id)], htables[(1, ac_id)])
            elif ss == 0 and ah == 0:
                _block_dc_first(st, coef, ci,
                                htables[(0, dc_id)], al)
            elif ss == 0:
                _block_dc_refine(st, coef, al)
            elif ah == 0:
                _block_ac_first(st, coef, htables[(1, ac_id)],
                                ss, se, al)
            else:
                _block_ac_refine(st, coef, htables[(1, ac_id)],
                                 ss, se, al)

        if len(sel) > 1:                        # interleaved MCUs
            if ss != 0:
                raise ValueError(
                    "interleaved JPEG AC scan is not legal (T.81)")
            for m in range(mcux * mcuy):
                st.maybe_restart(m)
                my, mx = divmod(m, mcux)
                for (ci, dc_id, ac_id) in sel:
                    _cid, hs, vs, _tq = comps[ci]
                    for by in range(vs):
                        for bx in range(hs):
                            decode_block(ci, my * vs + by,
                                         mx * hs + bx, dc_id, ac_id)
        else:                                   # non-interleaved
            ci, dc_id, ac_id = sel[0]
            bh, bw = nblocks[ci]
            for b in range(bh * bw):
                st.maybe_restart(b)
                by, bx = divmod(b, bw)
                decode_block(ci, by, bx, dc_id, ac_id)

    # dequantize + IDCT per component, vectorized over all blocks
    out_planes = []
    for ci, (_cid, hs, vs, tq) in enumerate(comps):
        gh, gw, _ = grids[ci].shape
        blocks = (grids[ci].reshape(gh * gw, 64)[:, UNZIGZAG]
                  .reshape(gh, gw, 8, 8).astype(np.float64)
                  * qtables[tq][None, None])
        pix = np.einsum("ij,yxjk,kl->yxil", _M.T, blocks, _M) + 128.0
        plane = pix.transpose(0, 2, 1, 3).reshape(gh * 8, gw * 8)
        # upsample to full-frame resolution and crop
        plane = np.repeat(np.repeat(plane, vmax // vs, axis=0),
                          hmax // hs, axis=1)
        out_planes.append(plane[:h, :w])

    if len(out_planes) == 1:
        y = np.clip(out_planes[0], 0, 255)
        return (y + 0.5).astype(np.uint8)[:, :, None]
    y, cb, cr = out_planes
    cb = cb - 128.0
    cr = cr - 128.0
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=-1)
    return (np.clip(rgb, 0, 255) + 0.5).astype(np.uint8)


# --- encoder ----------------------------------------------------------

def _quality_tables(quality: int):
    quality = min(100, max(1, quality))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    out = []
    for base in (QUANT_LUM, QUANT_CHROM):
        q = (base * scale + 50) // 100
        out.append(np.clip(q, 1, 255).reshape(8, 8))
    return out


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | code
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)           # byte stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)     # pad with 1-bits


def _plane_blocks(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """float plane (already level-shifted) with dims multiple of 8 →
    quantized zigzag coefficients (nby, nbx, 64), vectorized."""
    ph, pw = plane.shape
    blocks = (plane.reshape(ph // 8, 8, pw // 8, 8)
              .transpose(0, 2, 1, 3))
    coef = np.einsum("ij,yxjk,kl->yxil", _M, blocks, _M.T)
    quant = np.round(coef / q[None, None]).astype(np.int64)
    return quant.reshape(ph // 8, pw // 8, 64)[:, :, ZIGZAG]


def _encode_block(bw: _BitWriter, zz: np.ndarray, pred: int,
                  dc_codes: dict, ac_codes: dict) -> int:
    diff = int(zz[0]) - pred
    cat = int(abs(diff)).bit_length()
    code, length = dc_codes[cat]
    bw.write(code, length)
    if cat:
        bw.write(diff if diff >= 0 else diff + (1 << cat) - 1, cat)
    run = 0
    last_nz = int(np.max(np.nonzero(zz)[0])) if np.any(zz[1:]) else 0
    for k in range(1, 64):
        v = int(zz[k])
        if v == 0:
            if k > last_nz:
                break
            run += 1
            if run == 16:
                code, length = ac_codes[0xF0]   # ZRL
                bw.write(code, length)
                run = 0
            continue
        cat = int(abs(v)).bit_length()
        code, length = ac_codes[(run << 4) | cat]
        bw.write(code, length)
        bw.write(v if v >= 0 else v + (1 << cat) - 1, cat)
        run = 0
    if last_nz < 63:
        code, length = ac_codes[0x00]           # EOB
        bw.write(code, length)
    return int(zz[0])


def _pad_to(plane: np.ndarray, my: int, mx: int) -> np.ndarray:
    ph = -(-plane.shape[0] // my) * my
    pw = -(-plane.shape[1] // mx) * mx
    return np.pad(plane,
                  ((0, ph - plane.shape[0]), (0, pw - plane.shape[1])),
                  mode="edge")


class _EncPrep:
    """Shared front half of both encoders: color transform, optional
    4:2:0 subsampling, padding, forward DCT + quantization. Holds the
    per-component quantized zigzag block grids plus the geometry both
    scan orders (interleaved MCU / non-interleaved per T.81 A.2.2)
    need."""

    def __init__(self, px: np.ndarray, quality: int, subsample: bool):
        if px.ndim == 2:
            px = px[:, :, None]
        h, w, ch = px.shape
        if ch not in (1, 3):
            raise ValueError("encode_jpeg expects 1 or 3 channels")
        qlum, qchrom = _quality_tables(quality)

        f = px.astype(np.float64)
        if ch == 3:
            r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
            yp = 0.299 * r + 0.587 * g + 0.114 * b
            cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
            cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
            if subsample:
                samp = [(2, 2), (1, 1), (1, 1)]
                cbp = _pad_to(cb, 2, 2)
                crp = _pad_to(cr, 2, 2)
                cb = cbp.reshape(cbp.shape[0] // 2, 2,
                                 cbp.shape[1] // 2,
                                 2).mean(axis=(1, 3))
                cr = crp.reshape(crp.shape[0] // 2, 2,
                                 crp.shape[1] // 2,
                                 2).mean(axis=(1, 3))
            else:
                samp = [(1, 1), (1, 1), (1, 1)]
            planes = [yp, cb, cr]
            qids = [0, 1, 1]
            qts = [qlum, qchrom, qchrom]
            hids = [(0, 0), (1, 1), (1, 1)]
        else:
            samp = [(1, 1)]
            planes = [f[:, :, 0]]
            qids = [0]
            qts = [qlum]
            hids = [(0, 0)]

        hmax = max(s[0] for s in samp)
        vmax = max(s[1] for s in samp)
        self.h, self.w, self.ch = h, w, ch
        self.samp, self.qids, self.hids = samp, qids, hids
        self.qlum, self.qchrom = qlum, qchrom
        self.mcux = -(-w // (8 * hmax))
        self.mcuy = -(-h // (8 * vmax))

        # per component: quantized zigzag blocks [by, bx, 64] on the
        # padded interleaved grid, and the non-interleaved block dims
        self.comp_zz = []
        self.nblocks = []
        for plane, (hs, vs), qt in zip(planes, samp, qts):
            p = _pad_to(plane, self.mcuy * vs * 8,
                        self.mcux * hs * 8) - 128.0
            self.comp_zz.append(_plane_blocks(p, qt))
            self.nblocks.append((-(-plane.shape[0] // 8),
                                 -(-plane.shape[1] // 8)))

    def headers(self, sof_marker: int) -> bytearray:
        """SOI + DQT + SOF + DHT (Annex-K tables); caller appends
        DRI/SOS/entropy/EOI."""
        out = bytearray(b"\xff\xd8")                        # SOI
        qts = [self.qlum] + ([self.qchrom] if self.ch == 3 else [])
        for tq, qt in enumerate(qts):
            zz = qt.reshape(-1)[ZIGZAG].astype(np.uint8).tobytes()
            out += b"\xff\xdb" + struct.pack(">H", 67) \
                + bytes([tq]) + zz                          # DQT
        sof = struct.pack(">BHHB", 8, self.h, self.w, self.ch)
        for ci, (hs, vs) in enumerate(self.samp):
            sof += bytes([ci + 1, (hs << 4) | vs, self.qids[ci]])
        out += bytes([0xFF, sof_marker]) \
            + struct.pack(">H", 2 + len(sof)) + sof
        tables = [(0, 0, DC_LUM), (1, 0, AC_LUM)]
        if self.ch == 3:
            tables += [(0, 1, DC_CHROM), (1, 1, AC_CHROM)]
        for tc, th, (bits, values) in tables:               # DHT
            body = bytes([(tc << 4) | th]) + bytes(bits) \
                + bytes(values)
            out += b"\xff\xc4" + struct.pack(">H", 2 + len(body)) \
                + body
        return out


def encode_jpeg(px: np.ndarray, *, quality: int = 85,
                subsample: bool = False,
                restart_interval: int = 0) -> bytes:
    """uint8 [h, w, 1|3] (or [h, w]) → baseline JPEG bytes.

    ``subsample=True`` emits 4:2:0 (Y at (2,2), chroma 2×2-mean
    downsampled); otherwise 4:4:4."""
    prep = _EncPrep(px, quality, subsample)
    h, w, ch = prep.h, prep.w, prep.ch
    samp, hids = prep.samp, prep.hids
    mcux, mcuy = prep.mcux, prep.mcuy
    comp_zz = prep.comp_zz

    dc_lum_codes = _canonical_codes(*DC_LUM)
    ac_lum_codes = _canonical_codes(*AC_LUM)
    dc_chrom_codes = _canonical_codes(*DC_CHROM)
    ac_chrom_codes = _canonical_codes(*AC_CHROM)
    code_sets = [(dc_lum_codes, ac_lum_codes),
                 (dc_chrom_codes, ac_chrom_codes)]

    bw = _BitWriter()
    preds = [0] * ch
    scan_chunks: list[bytes] = []
    rst = 0
    for m in range(mcux * mcuy):
        if restart_interval and m and m % restart_interval == 0:
            bw.flush()
            scan_chunks.append(bytes(bw.buf))
            scan_chunks.append(bytes([0xFF, 0xD0 + (rst % 8)]))
            rst += 1
            bw = _BitWriter()
            preds = [0] * ch
        my, mx = divmod(m, mcux)
        for ci, ((hs, vs), (dc_id, _ac_id)) in \
                enumerate(zip(samp, hids)):
            dc_codes, ac_codes = code_sets[dc_id]
            for by in range(vs):
                for bx in range(hs):
                    zz = comp_zz[ci][my * vs + by, mx * hs + bx]
                    preds[ci] = _encode_block(
                        bw, zz, preds[ci], dc_codes, ac_codes)
    bw.flush()
    scan_chunks.append(bytes(bw.buf))
    scan_data = b"".join(scan_chunks)

    out = prep.headers(0xC0)
    if restart_interval:                                    # DRI
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    sos = bytes([ch])
    for ci, (dc_id, ac_id) in enumerate(hids):
        sos += bytes([ci + 1, (dc_id << 4) | ac_id])
    sos += b"\x00\x3f\x00"
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    out += scan_data
    out += b"\xff\xd9"                                      # EOI
    return bytes(out)
