"""Test-vector encoders for the media codecs: a progressive (SOF2) JPEG
encoder over ``jpegcodec``'s baseline front half, and a 16-bit PCM WAV
writer. The package only decodes these formats (and encodes baseline
JPEG thumbnails); the tests build their inputs here."""

from __future__ import annotations

import struct

import numpy as np

from stanford_relation_extractor_ray.stages.jpegcodec import (
    AC_CHROM, AC_LUM, DC_CHROM, DC_LUM, _BitWriter, _canonical_codes,
    _EncPrep)


def encode_wav(samples: np.ndarray, rate: int) -> bytes:
    """float [n, ch] (or [n]) in [-1, 1] → 16-bit PCM RIFF/WAVE."""
    if samples.ndim == 1:
        samples = samples[:, None]
    ch = samples.shape[1]
    pcm = np.clip(np.round(samples * 32767.0), -32768,
                  32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, ch, rate, rate * ch * 2,
                      ch * 2, 16)
    return (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(pcm)) + pcm)


class _ScanWriter:
    """One progressive scan's entropy stream with restart-marker
    support. ``unit()`` is called once per MCU/block; it flushes and
    emits RSTn at the configured interval and reports whether state
    (DC predictors) must reset."""

    def __init__(self, restart_interval: int):
        self.ri = restart_interval
        self.bw = _BitWriter()
        self.parts: list[bytes] = []
        self.rst = 0

    def unit(self, idx: int) -> bool:
        if self.ri and idx and idx % self.ri == 0:
            self.bw.flush()
            self.parts.append(bytes(self.bw.buf))
            self.parts.append(bytes([0xFF, 0xD0 + (self.rst % 8)]))
            self.rst += 1
            self.bw = _BitWriter()
            return True
        return False

    def data(self) -> bytes:
        self.bw.flush()
        self.parts.append(bytes(self.bw.buf))
        return b"".join(self.parts)


def _enc_ac_first(bw: _BitWriter, zz: np.ndarray, ac_codes: dict,
                  ss: int, se: int, al: int):
    """AC first pass over band Ss..Se with point transform Al
    (T.81 G.1.2.2). The point transform on AC is a magnitude shift
    (divide toward zero), not an arithmetic shift."""
    run = 0
    for k in range(ss, se + 1):
        v = int(zz[k])
        t = (v if v >= 0 else -v) >> al
        if t == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_codes[0xF0]       # ZRL
            bw.write(code, length)
            run -= 16
        cat = t.bit_length()
        code, length = ac_codes[(run << 4) | cat]
        bw.write(code, length)
        sv = t if v >= 0 else -t
        bw.write(sv if sv >= 0 else sv + (1 << cat) - 1, cat)
        run = 0
    if run > 0:
        code, length = ac_codes[0x00]           # EOB (run length 1)
        bw.write(code, length)


def _enc_ac_refine(bw: _BitWriter, zz: np.ndarray, ac_codes: dict,
                   ss: int, se: int, al: int):
    """AC refinement pass (T.81 G.1.2.3, the public libjpeg
    encode_mcu_AC_refine structure): newly-nonzero coefficients emit
    (run, 1) symbols; history-nonzero ones buffer a correction bit
    that is flushed after the next emitted symbol so the decoder
    consumes it while advancing over the run. EOB runs are emitted
    per block (length 1), never carried across blocks."""
    absv = np.abs(zz[ss:se + 1].astype(np.int64)) >> al
    eob_pos = ss - 1                            # last newly-nonzero k
    for k in range(ss, se + 1):
        if absv[k - ss] == 1:
            eob_pos = k
    run = 0
    br: list[int] = []
    for k in range(ss, se + 1):
        t = int(absv[k - ss])
        if t == 0:
            run += 1
            continue
        # ZRLs that cannot fold into the block-final EOB
        while run > 15 and k <= eob_pos:
            code, length = ac_codes[0xF0]
            bw.write(code, length)
            run -= 16
            for b in br:
                bw.write(b, 1)
            br = []
        if t > 1:                               # history-nonzero:
            br.append(t & 1)                    # one correction bit
            continue
        code, length = ac_codes[(run << 4) | 1]
        bw.write(code, length)
        bw.write(1 if int(zz[k]) >= 0 else 0, 1)
        for b in br:
            bw.write(b, 1)
        br = []
        run = 0
    if run > 0 or br:
        code, length = ac_codes[0x00]           # EOB (run length 1)
        bw.write(code, length)
        for b in br:
            bw.write(b, 1)


def encode_progressive_jpeg(px: np.ndarray, *, quality: int = 85,
                            subsample: bool = False,
                            restart_interval: int = 0) -> bytes:
    """uint8 [h, w, 1|3] (or [h, w]) → progressive (SOF2) JPEG bytes.

    Emits the classic spectral-selection + successive-approximation
    script (DC Al=1 then refine; AC bands 1-5 / 6-63 at Al=2, refined
    2→1→0 per component). The quantized coefficients are identical to
    ``encode_jpeg``'s at the same quality, so decoding both must give
    byte-identical pixels — the property the tests pin."""
    prep = _EncPrep(px, quality, subsample)
    ch, hids, samp = prep.ch, prep.hids, prep.samp
    mcux, mcuy = prep.mcux, prep.mcuy
    comp_zz, nblocks = prep.comp_zz, prep.nblocks

    dc_codes = [_canonical_codes(*DC_LUM), _canonical_codes(*DC_CHROM)]
    ac_codes = [_canonical_codes(*AC_LUM), _canonical_codes(*AC_CHROM)]

    # scan script: (kind, comp_or_None, Ss, Se, Ah, Al)
    script: list[tuple] = [("dc_first", None, 0, 0, 0, 1)]
    for c in range(ch):
        script.append(("ac_first", c, 1, 5, 0, 2))
    for c in range(ch):
        script.append(("ac_first", c, 6, 63, 0, 2))
    for c in range(ch):
        script.append(("ac_refine", c, 1, 63, 2, 1))
    script.append(("dc_refine", None, 0, 0, 1, 0))
    for c in range(ch):
        script.append(("ac_refine", c, 1, 63, 1, 0))

    out = prep.headers(0xC2)
    if restart_interval:                                    # DRI
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)

    for (kind, comp, ss, se, ah, al) in script:
        sw = _ScanWriter(restart_interval)
        if kind == "dc_first":
            preds = [0] * ch
            for m in range(mcux * mcuy):
                if sw.unit(m):
                    preds = [0] * ch
                my, mx = divmod(m, mcux)
                for ci, ((hs, vs), (dc_id, _)) in \
                        enumerate(zip(samp, hids)):
                    codes = dc_codes[dc_id]
                    for by in range(vs):
                        for bx in range(hs):
                            zz = comp_zz[ci][my * vs + by,
                                             mx * hs + bx]
                            # DC point transform is an ARITHMETIC
                            # shift (G.1.2.1), unlike AC
                            v = int(zz[0]) >> al
                            diff = v - preds[ci]
                            preds[ci] = v
                            cat = abs(diff).bit_length()
                            code, length = codes[cat]
                            sw.bw.write(code, length)
                            if cat:
                                sw.bw.write(
                                    diff if diff >= 0
                                    else diff + (1 << cat) - 1, cat)
        elif kind == "dc_refine":
            for m in range(mcux * mcuy):
                sw.unit(m)
                my, mx = divmod(m, mcux)
                for ci, (hs, vs) in enumerate(samp):
                    for by in range(vs):
                        for bx in range(hs):
                            zz = comp_zz[ci][my * vs + by,
                                             mx * hs + bx]
                            sw.bw.write((int(zz[0]) >> al) & 1, 1)
        else:                                   # ac_first / ac_refine
            ci = comp
            _dc_id, ac_id = hids[ci]
            codes = ac_codes[ac_id]
            bh, bw_ = nblocks[ci]
            enc = _enc_ac_first if kind == "ac_first" else \
                _enc_ac_refine
            for b in range(bh * bw_):
                sw.unit(b)
                by, bx = divmod(b, bw_)
                enc(sw.bw, comp_zz[ci][by, bx], codes, ss, se, al)

        if kind.startswith("dc"):
            sel = [(c + 1, (hids[c][0] << 4) | 0) for c in range(ch)]
        else:
            sel = [(comp + 1, hids[comp][1])]
        sos = bytes([len(sel)])
        for cid, tt in sel:
            sos += bytes([cid, tt])
        sos += bytes([ss, se, (ah << 4) | al])
        out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
        out += sw.data()

    out += b"\xff\xd9"                                      # EOI
    return bytes(out)
