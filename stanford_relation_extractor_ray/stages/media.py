"""Multimodal (image / audio / table) span processing.

The reference pipeline carries no media, but the corpus shape this
engine targets (driver ``input_hint``) interleaves opaque media spans
with text spans inside every document row. These stages give media
spans the same first-class treatment text gets: fetch → decode →
(resize | frame-sample) → feature-extract, each expressed as a
``map_batches`` stage over Arrow batches. Codecs are per-worker state
at real scale, so decode, resize, window stats and featurize run as
stateless tasks over a per-worker cached instance
(``runtime.map_cached``).

Codec stubs: the container has no image/audio libraries, so the
decode step is a clearly-marked deterministic fake
(``_fake_decode_*``): it parses a structured header out of the
deterministic payload bytes. The Ray-side plumbing — schemas, batch
sizes, component signatures, output layout — is real and tested
(tests/test_media.py); dropping in PIL/ffmpeg means replacing the
``_fake_decode_*`` bodies only (they raise ``NotImplementedError``
when handed a payload that does not carry the synthetic magic, which
is exactly where a real codec plugs in).

Scale notes: media payloads dominate block size, so stages run with
small ``batch_size`` (64) and the payload column is dropped as soon
as a stage no longer needs it (decode keeps it for the resizer;
features drop it). At 100 TB the fetch stage becomes a ranged read
against object storage keyed by ``media_ref``; everything downstream
is unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_ITEM_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("span_seq", pa.int32()),       # position in the document's span list
    ("kind", pa.string()),
    ("media_ref", pa.string()),
    ("payload", pa.binary()),
])

_MAGIC = b"SYNM"                    # synthetic-media payload marker


# --------------------------------------------------------------------------
# fetch: documents → one row per media span, with payload bytes
# --------------------------------------------------------------------------

def _payload_for(ref: str) -> bytes:
    """Deterministic opaque payload for a media_ref.

    Layout: MAGIC | 12 header bytes (blake2b of ref) | body. The header
    bytes are what the fake decoders parse; a real fetch stage returns
    whatever object storage holds and real codecs parse that instead.
    """
    h = hashlib.blake2b(ref.encode(), digest_size=12).digest()
    body = hashlib.blake2b(ref.encode(), digest_size=64,
                           person=b"mediabdy").digest()
    return _MAGIC + h + body * 4


def _explode_media(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_pylist()
    span_lists = batch.column("spans").to_pylist()
    out = {k: [] for k in ("doc_id", "span_seq", "kind", "media_ref")}
    payloads = []
    for did, spans in zip(doc_ids, span_lists):
        for seq, sp in enumerate(spans):
            if sp["kind"] == "text":
                continue
            out["doc_id"].append(did)
            out["span_seq"].append(seq)
            out["kind"].append(sp["kind"])
            out["media_ref"].append(sp["media_ref"])
            payloads.append(_payload_for(sp["media_ref"]))
    return pa.Table.from_arrays(
        [pa.array(out["doc_id"], pa.string()),
         pa.array(out["span_seq"], pa.int32()),
         pa.array(out["kind"], pa.string()),
         pa.array(out["media_ref"], pa.string()),
         pa.array(payloads, pa.binary())],
        schema=MEDIA_ITEM_SCHEMA)


def extract_media(documents):
    """documents → media-items Dataset (stateless flat explode)."""
    return documents.map_batches(_explode_media, batch_format="pyarrow",
                                 batch_size=256)


# --------------------------------------------------------------------------
# real pure-stdlib codecs: full pixel decode for PNG (8-bit,
# non-interlaced), BMP (24-bit uncompressed), PNM, and Huffman JPEG
# (baseline + progressive, stages/jpegcodec.py), plus WAV / JPEG
# header parsing — no external libraries required, so REAL media
# bytes decode end-to-end in this container
# --------------------------------------------------------------------------

def sniff_format(payload: bytes) -> str | None:
    """Magic-byte container sniffing; None = unknown format."""
    if payload[:4] == _MAGIC:
        return "synthetic"
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:2] in (b"P5", b"P6"):
        return "pnm"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:2] == b"\xff\xd8":
        return "jpeg"
    return None


_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def decode_image_meta(payload: bytes, fmt: str) -> tuple[int, int, int]:
    """(width, height, channels) from real image headers."""
    if fmt == "png":
        w = int.from_bytes(payload[16:20], "big")
        h = int.from_bytes(payload[20:24], "big")
        return w, h, _PNG_CHANNELS[payload[25]]
    if fmt == "bmp":
        w = int.from_bytes(payload[18:22], "little", signed=True)
        h = abs(int.from_bytes(payload[22:26], "little", signed=True))
        bpp = int.from_bytes(payload[28:30], "little")
        return w, h, max(1, bpp // 8)
    if fmt == "pnm":
        toks, _ = _pnm_header_tokens(payload)
        return int(toks[1]), int(toks[2]), 3 if toks[0] == "P6" else 1
    if fmt == "jpeg":
        i = 2
        while i + 9 < len(payload):
            if payload[i] != 0xFF:
                i += 1
                continue
            marker = payload[i + 1]
            if marker in (0xC0, 0xC1, 0xC2, 0xC3):      # SOF0-3
                h = int.from_bytes(payload[i + 5:i + 7], "big")
                w = int.from_bytes(payload[i + 7:i + 9], "big")
                return w, h, payload[i + 9]
            if marker == 0xFF:          # fill/pad byte, not a marker
                i += 1
                continue
            if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
                i += 2
                continue
            i += 2 + int.from_bytes(payload[i + 2:i + 4], "big")
        raise ValueError("no JPEG SOF marker")
    raise ValueError(f"not an image format: {fmt}")


def decode_wav_meta(payload: bytes) -> tuple[int, float]:
    """(sample_rate, duration_s) from a RIFF/WAVE container."""
    pos = 12
    rate, byte_rate, data_len = 0, 0, 0
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        clen = int.from_bytes(payload[pos + 4:pos + 8], "little")
        if cid == b"fmt ":
            rate = int.from_bytes(payload[pos + 12:pos + 16], "little")
            byte_rate = int.from_bytes(payload[pos + 16:pos + 20],
                                       "little")
        elif cid == b"data":
            data_len = clen
        pos += 8 + clen + (clen & 1)
    if not rate or not byte_rate:
        raise ValueError("no WAVE fmt chunk")
    return rate, data_len / byte_rate


def decode_wav_samples(payload: bytes) -> tuple[int, np.ndarray]:
    """Full PCM sample decode from a RIFF/WAVE container →
    (sample_rate, float32 [n_samples, channels] in [-1, 1]).

    Covers PCM (format 1) at 8/16/32 bits and IEEE float (format 3)
    at 32 bits — the WAV encodings that occur in practice. Other
    formats (ADPCM, a-law/µ-law) raise ``NotImplementedError``, the
    same seam contract as the image codecs.
    """
    pos = 12
    fmt_code = channels = bits = rate = 0
    data = b""
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        clen = int.from_bytes(payload[pos + 4:pos + 8], "little")
        body = payload[pos + 8:pos + 8 + clen]
        if cid == b"fmt ":
            fmt_code = int.from_bytes(body[0:2], "little")
            channels = int.from_bytes(body[2:4], "little")
            rate = int.from_bytes(body[4:8], "little")
            bits = int.from_bytes(body[14:16], "little")
        elif cid == b"data":
            data = body
        pos += 8 + clen + (clen & 1)
    if not rate or not channels:
        raise ValueError("no WAVE fmt chunk")
    if fmt_code == 1 and bits == 8:
        x = (np.frombuffer(data, np.uint8).astype(np.float32)
             - 128.0) / 128.0
    elif fmt_code == 1 and bits == 16:
        x = np.frombuffer(data, "<i2").astype(np.float32) / 32768.0
    elif fmt_code == 1 and bits == 32:
        x = np.frombuffer(data, "<i4").astype(np.float32) \
            / np.float32(2 ** 31)
    elif fmt_code == 3 and bits == 32:
        x = np.frombuffer(data, "<f4").astype(np.float32)
    else:
        raise NotImplementedError(
            f"WAV format {fmt_code} at {bits} bits (PCM 8/16/32 and "
            "float32 decode natively)")
    n = (len(x) // channels) * channels
    return rate, x[:n].reshape(-1, channels)


def encode_wav(samples: np.ndarray, rate: int) -> bytes:
    """float [n, ch] (or [n]) in [-1, 1] → 16-bit PCM RIFF/WAVE."""
    if samples.ndim == 1:
        samples = samples[:, None]
    ch = samples.shape[1]
    pcm = np.clip(np.round(samples * 32767.0), -32768,
                  32767).astype("<i2").tobytes()
    import struct
    fmt = struct.pack("<HHIIHH", 1, ch, rate, rate * ch * 2,
                      ch * 2, 16)
    out = (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
           + b"fmt " + struct.pack("<I", len(fmt)) + fmt
           + b"data" + struct.pack("<I", len(pcm)) + pcm)
    return out


def _pnm_header_tokens(payload: bytes) -> tuple[list[str], int]:
    """First 4 whitespace-separated header tokens (comments skipped)
    plus the offset just past the last one — pixel data begins one
    whitespace byte later. (Searching for the maxval token instead
    would mis-locate it whenever width/height/comments contain the
    same digits.)"""
    toks: list[str] = []
    i = 0
    while len(toks) < 4 and i < len(payload):
        while i < len(payload) and payload[i:i + 1].isspace():
            i += 1
        if payload[i:i + 1] == b"#":
            while i < len(payload) and payload[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(payload) and not payload[j:j + 1].isspace():
            j += 1
        toks.append(payload[i:j].decode("ascii"))
        i = j
    return toks, i


def decode_image_pixels(payload: bytes) -> np.ndarray:
    """Full pixel decode → uint8 array [h, w, channels].

    Real formats covered: PNG (8-bit gray/RGB/RGBA AND palette via
    PLTE/tRNS lookup, non-interlaced; zlib inflate + per-row
    unfilter), BMP (24-bit uncompressed, bottom-up or top-down), PNM
    P5/P6 (binary), and Huffman JPEG — baseline sequential AND
    progressive (spectral selection + successive approximation), any
    integer sampling grid, restart markers — see
    ``stages/jpegcodec.py``. Only hierarchical/arithmetic JPEG keeps
    the ``NotImplementedError`` seam.
    """
    fmt = sniff_format(payload)
    if fmt == "jpeg":
        from .jpegcodec import decode_jpeg
        return decode_jpeg(payload)
    if fmt == "pnm":
        toks, hdr_end = _pnm_header_tokens(payload)
        w, h = int(toks[1]), int(toks[2])
        ch = 3 if toks[0] == "P6" else 1
        # pixel data begins one whitespace byte after the maxval token
        arr = np.frombuffer(payload, np.uint8, count=w * h * ch,
                            offset=hdr_end + 1)
        return arr.reshape(h, w, ch)
    if fmt == "bmp":
        w, h, ch = decode_image_meta(payload, "bmp")
        if ch != 3:
            raise NotImplementedError("only 24-bit BMP")
        off = int.from_bytes(payload[10:14], "little")
        stride = (w * 3 + 3) & ~3
        raw_h = int.from_bytes(payload[22:26], "little", signed=True)
        rows = np.frombuffer(payload, np.uint8, count=stride * h,
                             offset=off).reshape(h, stride)
        px = rows[:, :w * 3].reshape(h, w, 3)[:, :, ::-1]   # BGR→RGB
        return px[::-1] if raw_h > 0 else px    # bottom-up storage
    if fmt == "png":
        import zlib as _z
        w, h, ch = decode_image_meta(payload, "png")
        color_type = payload[25]
        if payload[24] != 8 or payload[28] != 0:
            raise NotImplementedError(
                "only 8-bit non-interlaced PNG")
        idat = b""
        plte = trns = None
        pos = 8
        while pos + 8 <= len(payload):
            clen = int.from_bytes(payload[pos:pos + 4], "big")
            ctype = payload[pos + 4:pos + 8]
            if ctype == b"IDAT":
                idat += payload[pos + 8:pos + 8 + clen]
            elif ctype == b"PLTE":
                plte = payload[pos + 8:pos + 8 + clen]
            elif ctype == b"tRNS":
                trns = payload[pos + 8:pos + 8 + clen]
            pos += 12 + clen
        raw = _z.decompress(idat)
        stride = w * ch
        out = np.empty((h, stride), dtype=np.uint8)
        prev = np.zeros(stride, dtype=np.uint8)
        for y in range(h):
            f = raw[y * (stride + 1)]
            line = np.frombuffer(
                raw, np.uint8, count=stride,
                offset=y * (stride + 1) + 1).astype(np.int32)
            if f == 0:
                cur = line
            elif f == 2:                           # Up
                cur = (line + prev) % 256
            else:                                  # Sub/Average/Paeth
                cur = np.empty(stride, dtype=np.int32)
                for x in range(stride):
                    a = cur[x - ch] if x >= ch else 0
                    b = int(prev[x])
                    c = int(prev[x - ch]) if x >= ch else 0
                    if f == 1:
                        pred = a
                    elif f == 3:
                        pred = (a + b) // 2
                    else:                          # Paeth
                        p = a + b - c
                        pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                        pred = a if pa_ <= pb and pa_ <= pc \
                            else (b if pb <= pc else c)
                    cur[x] = (line[x] + pred) % 256
            out[y] = cur.astype(np.uint8)
            prev = out[y]
        px = out.reshape(h, w, ch)
        if color_type == 3:
            # palette lookup: the unfiltered bytes are PLTE indices
            # (ch = 1); expand through the palette, with tRNS alpha
            # when present (entries past the tRNS table are opaque)
            if plte is None:
                raise ValueError("palette PNG missing PLTE chunk")
            pal = np.frombuffer(plte, np.uint8).reshape(-1, 3)
            idx = px.reshape(h, w)
            px = pal[idx]
            if trns is not None:
                alpha = np.full(len(pal), 255, dtype=np.uint8)
                alpha[:len(trns)] = np.frombuffer(trns, np.uint8)
                px = np.concatenate([px, alpha[idx][..., None]],
                                    axis=2)
        return px
    raise NotImplementedError(f"no pixel decoder for {fmt}")


def encode_ppm(px: np.ndarray) -> bytes:
    """uint8 [h, w, 3|1] → binary PNM payload (thumbnail output)."""
    h, w, ch = px.shape
    magic = b"P6" if ch == 3 else b"P5"
    return magic + f"\n{w} {h}\n255\n".encode() + px.tobytes()


# --------------------------------------------------------------------------
# decode: payload → typed metadata (codec = per-worker cached state)
# --------------------------------------------------------------------------

def _fake_decode_image(header: bytes) -> tuple[int, int, int]:
    w = 64 + (int.from_bytes(header[0:2], "big") % 1985)
    h = 64 + (int.from_bytes(header[2:4], "big") % 1985)
    channels = 1 + (header[4] % 4)
    return w, h, channels


def _fake_decode_audio(header: bytes) -> tuple[int, float]:
    rate = (8000, 16000, 22050, 44100)[header[5] % 4]
    duration = 0.5 + (int.from_bytes(header[6:8], "big") % 5950) / 100.0
    return rate, duration


def _fake_decode_table(header: bytes) -> tuple[int, int]:
    return 1 + header[8] % 200, 1 + header[9] % 30   # rows, cols


class MediaDecoder:
    """payload bytes → typed metadata columns.

    Real codecs (PIL / soundfile / ffmpeg) load once per worker here;
    the fake path validates the synthetic magic and parses the header.
    """

    def __init__(self):
        try:                                # real codec, if present
            import PIL.Image                # noqa: F401
            self._pil = True
        except Exception:
            self._pil = False

    def _decode(self, kind: str, payload: bytes):
        fmt = sniff_format(payload)
        w = h = ch = rows = cols = 0
        rate, dur = 0, 0.0
        if fmt in ("png", "bmp", "pnm", "jpeg"):
            # REAL image bytes: pure-stdlib header decode
            w, h, ch = decode_image_meta(payload, fmt)
            return w, h, ch, rate, dur, rows, cols
        if fmt == "wav":
            rate, dur = decode_wav_meta(payload)
            return w, h, ch, rate, dur, rows, cols
        if fmt is None:
            # an unrecognized real payload — the exotic-codec seam
            raise NotImplementedError(
                "unrecognized media container; plug a codec into "
                "MediaDecoder._decode (PNG/BMP/PNM/JPEG/WAV decode "
                "natively)")
        hdr = payload[4:16]
        if kind == "image":
            w, h, ch = _fake_decode_image(hdr)
        elif kind == "audio":
            rate, dur = _fake_decode_audio(hdr)
        elif kind == "table":
            rows, cols = _fake_decode_table(hdr)
        return w, h, ch, rate, dur, rows, cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        kinds = batch.column("kind").to_pylist()
        payloads = batch.column("payload").to_pylist()
        meta = [self._decode(k, p) for k, p in zip(kinds, payloads)]
        cols = list(zip(*meta)) if meta else [[]] * 7
        names = ["width", "height", "channels", "sample_rate",
                 "duration_s", "n_rows", "n_cols"]
        types = [pa.int32(), pa.int32(), pa.int32(), pa.int32(),
                 pa.float64(), pa.int32(), pa.int32()]
        for nm, ty, vals in zip(names, types, cols):
            batch = batch.append_column(nm, pa.array(list(vals), ty))
        return batch


def decode(media_items, *, batch_size: int = 64):
    from ..runtime import map_cached
    return map_cached(media_items, MediaDecoder, batch_size=batch_size)


# --------------------------------------------------------------------------
# resize (images): decoded rows → thumbnail payloads
# --------------------------------------------------------------------------

class ImageResizer:
    """Thumbnailer: decodable real images (PNG/BMP/PNM/baseline-JPEG
    pixel decoders above) are ACTUALLY downsampled (nearest-neighbor)
    and re-encoded
    as binary PNM; synthetic payloads keep the deterministic stand-in
    (a payload whose length tracks the target area). Metadata updates
    to the aspect-preserving fit box either way."""

    def __init__(self, max_side: int = 256):
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.equal(batch.column("kind"), "image")
        imgs = batch.filter(mask)
        w = imgs.column("width").to_pylist()
        h = imgs.column("height").to_pylist()
        refs = imgs.column("media_ref").to_pylist()
        payloads = imgs.column("payload").to_pylist()
        new_w, new_h, thumbs = [], [], []
        for wi, hi, ref, payload in zip(w, h, refs, payloads):
            scale = min(1.0, self.max_side / max(wi, hi))
            nw, nh = max(1, int(wi * scale)), max(1, int(hi * scale))
            new_w.append(nw)
            new_h.append(nh)
            fmt = sniff_format(payload)
            thumb = None
            if fmt in ("png", "bmp", "pnm", "jpeg"):
                # sniffable-but-unsupported variants (16-bit PNG,
                # 32bpp BMP, truncated payloads) must degrade to the
                # stub like any other undecodable payload, not kill
                # the whole stage. Truncated/corrupt bytes surface as
                # zlib.error (PNG IDAT), IndexError (JPEG scan past
                # end), KeyError (undefined JPEG table id) or
                # struct.error — all are "undecodable", same as the
                # deliberate NotImplementedError seams.
                import struct as _struct
                import zlib as _zlib
                try:
                    px = decode_image_pixels(payload)
                    if px.shape[2] == 4:      # drop alpha for PNM
                        px = px[:, :, :3]
                    elif px.shape[2] == 2:
                        px = px[:, :, :1]
                    ys = (np.arange(nh) * (hi / nh)).astype(np.int64)
                    xs = (np.arange(nw) * (wi / nw)).astype(np.int64)
                    thumb = encode_ppm(
                        np.ascontiguousarray(px[ys][:, xs]))
                except (NotImplementedError, ValueError, IndexError,
                        KeyError, _zlib.error, _struct.error):
                    thumb = None
            if thumb is None:
                raw = hashlib.blake2b(f"{ref}|{nw}x{nh}".encode(),
                                      digest_size=32).digest()
                thumb = raw * max(1, (nw * nh) // 2048)
            thumbs.append(thumb)
        out = imgs.drop_columns(["payload", "width", "height"])
        out = out.append_column("width", pa.array(new_w, pa.int32()))
        out = out.append_column("height", pa.array(new_h, pa.int32()))
        return out.append_column("payload", pa.array(thumbs, pa.binary()))


def resize_images(decoded, *, max_side: int = 256, batch_size: int = 64):
    from ..runtime import map_cached
    return map_cached(decoded, ImageResizer, batch_size=batch_size,
                      max_side=max_side)


# --------------------------------------------------------------------------
# frame/clip sampling (audio): one row per sampled window
# --------------------------------------------------------------------------

def sample_frames(decoded, *, every_s: float = 1.0, max_frames: int = 16,
                  batch_size: int = 64):
    """audio rows → one row per sampled window (stateless flat-map):
    (doc_id, media_ref, frame_idx, t_start, t_end)."""

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        aud = batch.filter(pc.equal(batch.column("kind"), "audio"))
        doc = aud.column("doc_id").to_pylist()
        ref = aud.column("media_ref").to_pylist()
        dur = aud.column("duration_s").to_pylist()
        o_doc, o_ref, o_idx, o_t0, o_t1 = [], [], [], [], []
        for d, r, du in zip(doc, ref, dur):
            n = min(max_frames, max(1, int(du / every_s)))
            for fi in range(n):
                o_doc.append(d)
                o_ref.append(r)
                o_idx.append(fi)
                o_t0.append(fi * every_s)
                o_t1.append(min(du, (fi + 1) * every_s))
        return pa.table({
            "doc_id": pa.array(o_doc, pa.string()),
            "media_ref": pa.array(o_ref, pa.string()),
            "frame_idx": pa.array(o_idx, pa.int32()),
            "t_start": pa.array(o_t0, pa.float64()),
            "t_end": pa.array(o_t1, pa.float64())})

    return decoded.map_batches(fn, batch_format="pyarrow",
                               batch_size=batch_size)


class AudioWindowStats:
    """audio rows → one row per sampled window with REAL signal
    statistics (rms, peak) for decodable WAV payloads; stub payloads
    (synthetic magic / exotic codecs) get deterministic digest-derived
    stats, mirroring the image stages' real/stub split.

    Per-window reduction is a vectorized cumulative-sum-of-squares
    over the mono mixdown (one pass per payload, no per-sample
    Python).
    """

    def __init__(self, *, every_s: float = 1.0, max_frames: int = 16):
        self.every_s = every_s
        self.max_frames = max_frames

    def _windows(self, payload: bytes):
        import zlib as _zlib
        try:
            rate, x = decode_wav_samples(payload)
        except (NotImplementedError, ValueError, _zlib.error):
            return None
        if len(x) == 0:
            # structurally valid WAV with an empty data chunk: fall
            # back to the deterministic stub stats like any other
            # undecodable payload instead of silently emitting zero
            # rows (ADVICE r4)
            return None
        mono = x.mean(axis=1)
        dur = len(mono) / rate
        n = min(self.max_frames, max(1, int(dur / self.every_s)))
        # windowed sum of squares via one cumsum (vectorized)
        sq = np.concatenate([[0.0], np.cumsum(mono.astype(np.float64)
                                              ** 2)])
        out = []
        for fi in range(n):
            a = int(fi * self.every_s * rate)
            b = min(len(mono), int((fi + 1) * self.every_s * rate))
            if b <= a:
                break
            rms = float(np.sqrt((sq[b] - sq[a]) / (b - a)))
            peak = float(np.abs(mono[a:b]).max())
            out.append((fi, fi * self.every_s, min(dur, (fi + 1)
                                                   * self.every_s),
                        rms, peak))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        aud = batch.filter(pc.equal(batch.column("kind"), "audio"))
        o = {k: [] for k in ("doc_id", "media_ref", "frame_idx",
                             "t_start", "t_end", "rms", "peak")}
        for d, r, p in zip(aud.column("doc_id").to_pylist(),
                           aud.column("media_ref").to_pylist(),
                           aud.column("payload").to_pylist()):
            wins = self._windows(p)
            if wins is None:                    # stub path
                if sniff_format(p) == "synthetic":
                    # same duration the decode stage reports for
                    # synthetic payloads (header bytes 4:16)
                    _rate, dur = _fake_decode_audio(p[4:16])
                else:
                    dur = 0.5 + (int.from_bytes(hashlib.blake2b(
                        p, digest_size=2).digest(), "big") % 5950) \
                        / 100.0
                hdr = hashlib.blake2b(p, digest_size=8).digest()
                n = min(self.max_frames,
                        max(1, int(dur / self.every_s)))
                wins = [(fi, fi * self.every_s,
                         min(dur, (fi + 1) * self.every_s),
                         (hdr[fi % 8] % 100) / 100.0,
                         (hdr[(fi + 3) % 8] % 100) / 100.0)
                        for fi in range(n)]
            for (fi, t0, t1, rms, peak) in wins:
                o["doc_id"].append(d)
                o["media_ref"].append(r)
                o["frame_idx"].append(fi)
                o["t_start"].append(t0)
                o["t_end"].append(t1)
                o["rms"].append(rms)
                o["peak"].append(peak)
        return pa.table({
            "doc_id": pa.array(o["doc_id"], pa.string()),
            "media_ref": pa.array(o["media_ref"], pa.string()),
            "frame_idx": pa.array(o["frame_idx"], pa.int32()),
            "t_start": pa.array(o["t_start"], pa.float64()),
            "t_end": pa.array(o["t_end"], pa.float64()),
            "rms": pa.array(o["rms"], pa.float64()),
            "peak": pa.array(o["peak"], pa.float64())})


def audio_window_stats(media_items, *, every_s: float = 1.0,
                       max_frames: int = 16, batch_size: int = 64):
    """media items (with payloads) → per-window audio statistics."""
    from ..runtime import map_cached
    return map_cached(media_items, AudioWindowStats, batch_size=batch_size,
                      every_s=every_s, max_frames=max_frames)


# --------------------------------------------------------------------------
# feature extraction: payload → embedding (batched "model")
# --------------------------------------------------------------------------

class MediaFeaturizer:
    """payload → unit-norm float32 embedding of dim ``dim``.

    Deterministic stand-in for a vision/audio encoder: expands the
    payload digest into ``dim`` floats. Batched like a real model
    forward pass (one vectorized op per batch, not per row)."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        n = len(payloads)
        raw = np.empty((n, self.dim), dtype=np.float32)
        nbytes = self.dim * 4
        for i, p in enumerate(payloads):
            d = hashlib.blake2b(p, digest_size=32).digest()
            buf = (d * ((nbytes // 32) + 1))[:nbytes]
            raw[i] = np.frombuffer(buf, dtype=np.uint32).astype(
                np.float32) / np.float32(2 ** 32) - np.float32(0.5)
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        raw = raw / np.maximum(norms, 1e-9)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(raw.reshape(-1), pa.float32()), self.dim)
        return batch.drop_columns(["payload"]).append_column(
            "embedding", emb)


def featurize_media(media_items, *, dim: int = 64, batch_size: int = 64):
    from ..runtime import map_cached
    return map_cached(media_items, MediaFeaturizer, batch_size=batch_size,
                      dim=dim)
