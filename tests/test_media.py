"""Multimodal stage plumbing: fetch → decode → resize/frames → features.

Codecs are deterministic stubs (stages/media.py); these tests pin the
Ray-side contract — schemas, row multiplicity, determinism, and that
media spans in ``documents`` are untouched by the text pipeline.
"""

import pyarrow as pa
import pytest

from stanford_relation_extractor_ray.corpus import documents_dataset
from stanford_relation_extractor_ray.stages import media

N_DOCS = 60


@pytest.fixture(scope="module")
def media_items(ray_session):
    return media.extract_media(documents_dataset(N_DOCS)).materialize()


def test_extract_media_schema_and_refs(media_items):
    tables = list(media_items.iter_batches(batch_format="pyarrow"))
    t = pa.concat_tables(tables)
    assert t.schema.equals(media.MEDIA_ITEM_SCHEMA)
    assert t.num_rows > 0
    kinds = set(t.column("kind").to_pylist())
    assert kinds <= {"image", "audio", "table"}
    for ref in t.column("media_ref").to_pylist():
        assert ref.startswith("media://d")


def test_decode_metadata(media_items):
    dec = media.decode(media_items).materialize()
    rows = dec.take_all()
    assert len(rows) == media_items.count()
    for r in rows:
        if r["kind"] == "image":
            assert 64 <= r["width"] <= 2048 and 64 <= r["height"] <= 2048
            assert 1 <= r["channels"] <= 4
        elif r["kind"] == "audio":
            assert r["sample_rate"] in (8000, 16000, 22050, 44100)
            assert 0.5 <= r["duration_s"] <= 60.0
        elif r["kind"] == "table":
            assert r["n_rows"] >= 1 and r["n_cols"] >= 1


def test_decode_rejects_non_synthetic_payload():
    d = media.MediaDecoder()
    with pytest.raises(NotImplementedError):
        d._decode("image", b"\x89PNG----real-bytes----")


def test_resize_fits_box_and_is_deterministic(media_items):
    dec = media.decode(media_items)
    small = media.resize_images(dec, max_side=128)
    rows = sorted(small.take_all(), key=lambda r: r["media_ref"])
    assert rows, "corpus should contain image spans"
    for r in rows:
        assert r["kind"] == "image"
        assert max(r["width"], r["height"]) <= 128
        assert len(r["payload"]) > 0
    # determinism: second run bit-identical
    rows2 = sorted(
        media.resize_images(media.decode(media_items),
                            max_side=128).take_all(),
        key=lambda r: r["media_ref"])
    assert [r["payload"] for r in rows] == [r["payload"] for r in rows2]


def test_frame_sampling_multiplicity(media_items):
    dec = media.decode(media_items).materialize()
    frames = media.sample_frames(dec, every_s=1.0, max_frames=16)
    rows = frames.take_all()
    n_audio = sum(1 for r in dec.take_all() if r["kind"] == "audio")
    assert n_audio > 0
    by_ref: dict[str, list] = {}
    for r in rows:
        by_ref.setdefault(r["media_ref"], []).append(r)
    assert len(by_ref) == n_audio
    for ref, fr in by_ref.items():
        fr.sort(key=lambda r: r["frame_idx"])
        assert [f["frame_idx"] for f in fr] == list(range(len(fr)))
        assert len(fr) <= 16
        for f in fr:
            assert f["t_start"] < f["t_end"]


def test_media_features_unit_norm(media_items):
    import numpy as np
    feats = media.featurize_media(media_items, dim=32)
    rows = feats.take_all()
    assert len(rows) == media_items.count()
    for r in rows[:20]:
        v = np.asarray(r["embedding"], dtype=np.float64)
        assert v.shape == (32,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-5
    assert "payload" not in feats.schema().names


# ---- real pure-stdlib codecs: constructed PNG/BMP/PNM/WAV/JPEG bytes
# decode without any external imaging library ------------------------

import struct
import zlib as _zlib

import numpy as np


def _make_png(px):
    h, w, ch = px.shape
    ct = {1: 0, 3: 2, 4: 6}[ch]
    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", _zlib.crc32(tag + data)))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ct, 0, 0, 0)
    raw = b"".join(b"\x00" + px[y].tobytes() for y in range(h))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", _zlib.compress(raw))
            + chunk(b"IEND", b""))


def _make_bmp(px):
    h, w, _ = px.shape
    stride = (w * 3 + 3) & ~3
    rows = b""
    for y in range(h - 1, -1, -1):            # bottom-up
        row = px[y, :, ::-1].tobytes()
        rows += row + b"\x00" * (stride - len(row))
    header = (b"BM" + struct.pack("<IHHI", 54 + len(rows), 0, 0, 54)
              + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0,
                            len(rows), 2835, 2835, 0, 0))
    return header + rows


def _make_wav(rate=16000, seconds=2.0, channels=1):
    n = int(rate * seconds)
    data = b"\x00\x00" * n * channels
    block = 2 * channels
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block,
                      block, 16)
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def _px(h, w):
    rng = np.random.default_rng(7)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_real_codec_metadata():
    from stanford_relation_extractor_ray.stages.media import MediaDecoder
    d = MediaDecoder()
    px = _px(5, 9)
    assert d._decode("image", _make_png(px))[:3] == (9, 5, 3)
    assert d._decode("image", _make_bmp(px))[:3] == (9, 5, 3)
    ppm = b"P6\n9 5\n255\n" + px.tobytes()
    assert d._decode("image", ppm)[:3] == (9, 5, 3)
    rate, dur = d._decode("audio", _make_wav(16000, 2.0))[3:5]
    assert rate == 16000 and abs(dur - 2.0) < 1e-6


def test_real_pixel_decode_roundtrip():
    from stanford_relation_extractor_ray.stages.media import \
        decode_image_pixels
    px = _px(6, 4)
    assert np.array_equal(decode_image_pixels(_make_png(px)), px)
    assert np.array_equal(decode_image_pixels(_make_bmp(px)), px)
    ppm = b"P6\n4 6\n255\n" + px.tobytes()
    assert np.array_equal(decode_image_pixels(ppm), px)


def test_png_filtered_rows_decode():
    """PNG rows using Sub/Up/Average/Paeth filters unfilter exactly."""
    from stanford_relation_extractor_ray.stages.media import \
        decode_image_pixels
    px = _px(4, 4)
    h, w, ch = px.shape
    rows = []
    prev = np.zeros(w * ch, dtype=np.int32)
    for y, f in zip(range(h), (1, 2, 3, 4)):
        cur = px[y].reshape(-1).astype(np.int32)
        enc = np.empty_like(cur)
        for x in range(len(cur)):
            a = int(cur[x - ch]) if x >= ch else 0
            b = int(prev[x])
            c = int(prev[x - ch]) if x >= ch else 0
            if f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa_ <= pb and pa_ <= pc else \
                    (b if pb <= pc else c)
            enc[x] = (cur[x] - pred) % 256
        rows.append(bytes([f]) + enc.astype(np.uint8).tobytes())
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", _zlib.crc32(tag + data)))
    payload = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
               + chunk(b"IDAT", _zlib.compress(b"".join(rows)))
               + chunk(b"IEND", b""))
    assert np.array_equal(decode_image_pixels(payload), px)


def test_real_resize_real_pixels(ray_session):
    """A real PNG flows through decode → resize: the thumbnail payload
    is a real PNM holding actually-downsampled pixels."""
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.media import (
        ImageResizer, MediaDecoder, decode_image_pixels)
    px = _px(40, 100)
    items = rd.from_items([{
        "doc_id": "d1", "span_seq": 0, "kind": "image",
        "media_ref": "media://real/1.png",
        "payload": _make_png(px)}])
    decoded = items.map_batches(MediaDecoder, batch_format="pyarrow",
                                concurrency=1)
    out = decoded.map_batches(ImageResizer,
                              fn_constructor_kwargs={"max_side": 50},
                              batch_format="pyarrow",
                              concurrency=1).take_all()
    assert out[0]["width"] == 50 and out[0]["height"] == 20
    thumb = decode_image_pixels(out[0]["payload"])
    assert thumb.shape == (20, 50, 3)
    ys = (np.arange(20) * 2).astype(int)
    xs = (np.arange(50) * 2).astype(int)
    assert np.array_equal(thumb, px[ys][:, xs])


def test_unknown_container_is_the_seam():
    import pytest
    from stanford_relation_extractor_ray.stages.media import MediaDecoder
    with pytest.raises(NotImplementedError):
        MediaDecoder()._decode("image", b"\x00unknown-bytes")


def test_pnm_decode_with_maxval_digits_in_dimensions():
    """Header parsing must not locate pixel data by searching for the
    maxval string: a 255-wide image (or a '# 255' comment) contains
    the same digits earlier in the header."""
    import numpy as np
    from stanford_relation_extractor_ray.stages.media import \
        decode_image_pixels
    px = (np.arange(255 * 2 * 3) % 251).astype(np.uint8) \
        .reshape(2, 255, 3)
    payload = b"P6\n# 255 note\n255 2\n255\n" + px.tobytes()
    assert np.array_equal(decode_image_pixels(payload), px)


def _make_palette_png(idx, plte, trns=None):
    """color-type-3 PNG from an index matrix + palette bytes."""
    h, w = idx.shape

    def chunk(tag, data):
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", _zlib.crc32(tag + data)))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
    raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(h))
    out = b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) \
        + chunk(b"PLTE", plte)
    if trns is not None:
        out += chunk(b"tRNS", trns)
    return out + chunk(b"IDAT", _zlib.compress(raw)) \
        + chunk(b"IEND", b"")


def test_palette_png_decodes_via_plte():
    """Color type 3 decodes through the PLTE lookup to the SAME
    pixels as its direct-RGB twin (round-4 missing-list #2; the
    round-3 ADVICE rejection is now a real decode)."""
    from stanford_relation_extractor_ray.stages.media import \
        decode_image_pixels

    rng = np.random.RandomState(5)
    pal = rng.randint(0, 256, size=(16, 3), dtype=np.uint8)
    idx = rng.randint(0, 16, size=(7, 11), dtype=np.uint8)
    want = pal[idx]                          # the RGB twin's pixels
    got = decode_image_pixels(_make_palette_png(idx, pal.tobytes()))
    assert np.array_equal(got, want)
    # and the twin built as a direct RGB PNG decodes identically
    assert np.array_equal(decode_image_pixels(_make_png(want)), got)


def test_palette_png_trns_alpha():
    """A tRNS chunk yields RGBA: listed entries take their alpha,
    entries past the table are opaque."""
    from stanford_relation_extractor_ray.stages.media import \
        decode_image_pixels

    pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]],
                   dtype=np.uint8)
    idx = np.array([[0, 1, 2]], dtype=np.uint8)
    got = decode_image_pixels(
        _make_palette_png(idx, pal.tobytes(), trns=bytes([7, 200])))
    assert got.shape == (1, 3, 4)
    assert list(got[0, :, 3]) == [7, 200, 255]
    assert np.array_equal(got[..., :3], pal[idx])


def test_jpeg_sof_scan_skips_fill_bytes():
    """0xFF fill/pad bytes before a marker must advance one byte, not
    read a bogus segment length from the padding (ADVICE r3)."""
    from stanford_relation_extractor_ray.stages.media import \
        decode_image_meta
    sof = (b"\xff\xc0" + struct.pack(">H", 11)
           + b"\x08" + struct.pack(">HH", 5, 9) + b"\x03"
           + b"\x01\x11\x00")
    # APP0 with fill bytes between SOI and the real SOF marker
    payload = (b"\xff\xd8" + b"\xff\xff\xff\xff" + sof
               + b"\xff\xd9")
    assert decode_image_meta(payload, "jpeg") == (9, 5, 3)


def test_resizer_falls_back_to_stub_on_undecodable(ray_session):
    """A sniffable-but-unsupported real image (32bpp BMP) must get the
    deterministic stub thumbnail, not kill the stage (ADVICE r3)."""
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.media import (
        ImageResizer, sniff_format)
    # 32bpp BMP header (decode_image_meta → ch=4 → NotImplementedError
    # in decode_image_pixels)
    header = (b"BM" + struct.pack("<IHHI", 54 + 16, 0, 0, 54)
              + struct.pack("<IiiHHIIiiII", 40, 2, 2, 1, 32, 0,
                            16, 2835, 2835, 0, 0)) + b"\x00" * 16
    assert sniff_format(header) == "bmp"
    items = rd.from_items([{
        "doc_id": "d1", "span_seq": 0, "kind": "image",
        "media_ref": "media://real/x.bmp", "payload": header,
        "width": 2, "height": 2}])
    out = items.map_batches(ImageResizer,
                            fn_constructor_kwargs={"max_side": 50},
                            batch_format="pyarrow",
                            concurrency=1).take_all()
    assert len(out) == 1 and len(out[0]["payload"]) > 0


# ---- baseline JPEG codec (stages/jpegcodec.py) ----------------------

def _gradient(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack([np.clip(xx * 4, 0, 255), np.clip(yy * 4, 0, 255),
                     np.clip(xx * 2 + yy * 2, 0, 255)],
                    axis=-1).astype(np.uint8)


def test_jpeg_roundtrip_444_and_gray():
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    px = _gradient(33, 47)
    dec = decode_jpeg(encode_jpeg(px, quality=95))
    assert dec.shape == (33, 47, 3)
    assert np.abs(dec.astype(int) - px.astype(int)).max() <= 4
    g = px[:, :, 0]
    dg = decode_jpeg(encode_jpeg(g, quality=95))
    assert dg.shape == (33, 47, 1)
    assert np.abs(dg[:, :, 0].astype(int) - g.astype(int)).max() <= 2
    solid = np.full((16, 24, 3), [120, 60, 200], dtype=np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(solid, quality=90)),
                          solid)


def test_jpeg_roundtrip_420_and_restart():
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    px = _gradient(33, 47)
    dec = decode_jpeg(encode_jpeg(px, quality=95, subsample=True))
    assert dec.shape == (33, 47, 3)
    assert np.abs(dec.astype(int) - px.astype(int)).max() <= 8
    # restart markers must not change the decoded pixels
    a = decode_jpeg(encode_jpeg(px, quality=95, restart_interval=3))
    b = decode_jpeg(encode_jpeg(px, quality=95))
    assert np.array_equal(a, b)


def test_jpeg_noise_entropy_paths():
    """Random pixels at q100 stress ZRL runs and 0xFF byte
    stuffing/destuffing."""
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    rng = np.random.default_rng(7)
    px = rng.integers(0, 256, size=(24, 17, 3), dtype=np.uint8)
    dec = decode_jpeg(encode_jpeg(px, quality=100))
    assert np.abs(dec.astype(int) - px.astype(int)).max() <= 3


def test_jpeg_progressive_decodes_identically_to_baseline():
    """SOF2 decode: the progressive encoder writes the SAME quantized
    coefficients as the baseline encoder (spectral selection +
    successive approximation is a lossless reordering), so both
    streams must decode to byte-identical pixels — across subsampling,
    grayscale, odd dims and restart markers."""
    import numpy as np
    from codec_fixtures import encode_progressive_jpeg
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    rng = np.random.default_rng(42)
    for (h, w, ch, sub, q, ri) in [
            (33, 47, 3, False, 90, 0),
            (33, 47, 3, True, 75, 0),
            (21, 13, 1, False, 95, 0),
            (40, 56, 3, True, 85, 3)]:
        px = _gradient(h, w)[:, :, :ch]
        noise = rng.integers(0, 60, size=px.shape).astype(np.uint8)
        px = ((px.astype(int) + noise) % 256).astype(np.uint8)
        if ch == 1:
            px = px[:, :, 0]
        base = decode_jpeg(encode_jpeg(
            px, quality=q, subsample=sub, restart_interval=ri))
        prog = decode_jpeg(encode_progressive_jpeg(
            px, quality=q, subsample=sub, restart_interval=ri))
        assert np.array_equal(base, prog), (h, w, ch, sub, q, ri)


def test_jpeg_progressive_eob_run_with_extension_bits():
    """The EOBn path (run > 1, extension bits) — which our encoder
    never emits (standard tables define no EOBn>0 symbols) — decoded
    from a handcrafted SOF2 stream: one AC coefficient in block 0,
    then EOBRUN=2 covering blocks 1-2."""
    import struct
    import numpy as np
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        _M, decode_jpeg)
    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([0]) \
        + bytes([1] * 64)                       # DQT: all ones
    sof = struct.pack(">BHHB", 8, 8, 24, 1) + bytes([1, 0x11, 0])
    out += b"\xff\xc2" + struct.pack(">H", 2 + len(sof)) + sof
    bits = [0] * 16
    bits[1] = 2                                 # codes 00 -> (2,1),
    body = bytes([0x10]) + bytes(bits) + bytes([0x21, 0x10])
    out += b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body
    sos = bytes([1, 1, 0x00, 1, 63, 0])         # AC scan 1..63
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    # 00 (r=2,s=1)  1 (+1)  01 (EOB, r=1)  1 (ext) -> eobrun = 2
    out += bytes([0b00101111]) + b"\xff\xd9"
    px = decode_jpeg(bytes(out))
    coef = np.zeros((8, 8))
    coef[2, 0] = 1.0                            # zigzag index 3
    blk = _M.T @ coef @ _M + 128.0
    exp = np.full((8, 24), 128.0)
    exp[:, :8] = blk
    exp = (np.clip(exp, 0, 255) + 0.5).astype(np.uint8)[:, :, None]
    assert np.array_equal(px, exp)


def test_jpeg_hierarchical_and_arithmetic_stay_the_seam():
    import pytest
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    for marker in (0xC3, 0xC9, 0xCA):   # lossless / arith seq / prog
        payload = bytearray(encode_jpeg(_gradient(8, 8)))
        i = payload.index(b"\xff\xc0")
        payload[i + 1] = marker
        with pytest.raises(NotImplementedError):
            decode_jpeg(bytes(payload))


def test_jpeg_flows_through_decode_and_resize(ray_session):
    """A real JPEG payload gets REAL pixel thumbnails through the
    decode → resize actor-pool stages (the round-3 seam where JPEG got
    stub thumbs)."""
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.jpegcodec import \
        encode_jpeg
    from stanford_relation_extractor_ray.stages.media import (
        ImageResizer, MediaDecoder, decode_image_pixels)
    px = _gradient(40, 100)
    items = rd.from_items([{
        "doc_id": "d1", "span_seq": 0, "kind": "image",
        "media_ref": "media://real/1.jpg",
        "payload": encode_jpeg(px, quality=95, subsample=True)}])
    decoded = items.map_batches(MediaDecoder, batch_format="pyarrow",
                                concurrency=1)
    out = decoded.map_batches(ImageResizer,
                              fn_constructor_kwargs={"max_side": 50},
                              batch_format="pyarrow",
                              concurrency=1).take_all()
    assert out[0]["width"] == 50 and out[0]["height"] == 20
    thumb = decode_image_pixels(out[0]["payload"])
    assert thumb.shape == (20, 50, 3)
    # nearest-neighbor downsample of the (lossy) decoded pixels
    full = decode_image_pixels(encode_jpeg(px, quality=95,
                                           subsample=True))
    ys = (np.arange(20) * 2).astype(int)
    xs = (np.arange(50) * 2).astype(int)
    assert np.array_equal(thumb, full[ys][:, xs])


def test_progressive_jpeg_flows_through_decode_and_resize(ray_session):
    """A progressive (SOF2) JPEG gets real metadata + real pixel
    thumbnails through the MediaDecoder → ImageResizer actor pool —
    identical to what the baseline encode of the same image yields."""
    import ray.data as rd
    from codec_fixtures import encode_progressive_jpeg
    from stanford_relation_extractor_ray.stages.jpegcodec import \
        encode_jpeg
    from stanford_relation_extractor_ray.stages.media import (
        ImageResizer, MediaDecoder, decode_image_pixels)
    px = _gradient(40, 100)
    rows = [{"doc_id": "d1", "span_seq": s, "kind": "image",
             "media_ref": f"media://real/{s}.jpg", "payload": p}
            for s, p in enumerate([
                encode_jpeg(px, quality=95, subsample=True),
                encode_progressive_jpeg(px, quality=95,
                                        subsample=True)])]
    out = (rd.from_items(rows)
           .map_batches(MediaDecoder, batch_format="pyarrow",
                        concurrency=1)
           .map_batches(ImageResizer,
                        fn_constructor_kwargs={"max_side": 50},
                        batch_format="pyarrow", concurrency=1)
           .take_all())
    out.sort(key=lambda r: r["span_seq"])
    base, prog = out
    assert (prog["width"], prog["height"]) == (50, 20)
    assert np.array_equal(decode_image_pixels(base["payload"]),
                          decode_image_pixels(prog["payload"]))


def test_jpeg_scan_fill_byte_before_restart():
    """A 0xFF fill byte before an RSTn inside scan data (legal per
    T.81 B.1.1.2) must not truncate the scan."""
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    px = _gradient(33, 47)
    payload = encode_jpeg(px, quality=95, restart_interval=2)
    want = decode_jpeg(payload)
    i = payload.index(b"\xff\xd0")
    padded = payload[:i] + b"\xff" + payload[i:]
    assert np.array_equal(decode_jpeg(padded), want)


def test_jpeg_single_component_scan_is_non_interleaved():
    """T.81 A.2.2: an Ns=1 scan is non-interleaved (one 8x8 block per
    MCU, row-major) regardless of the SOF sampling factors — a
    grayscale JPEG declaring (2,2) must decode like (1,1)."""
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    g = _gradient(33, 47)[:, :, 0]
    payload = bytearray(encode_jpeg(g, quality=95))
    want = decode_jpeg(bytes(payload))
    i = payload.index(b"\xff\xc0")
    # SOF0: len(2) prec(1) h(2) w(2) ncomp(1) then cid, hv, tq
    assert payload[i + 11] == 0x11
    payload[i + 11] = 0x22                    # declare (2,2) sampling
    assert np.array_equal(decode_jpeg(bytes(payload)), want)


def test_jpeg_non_integer_upsampling_is_the_seam():
    """hmax/hs that doesn't divide evenly (e.g. Y=(3,1), Cb=(2,1))
    raises the documented NotImplementedError instead of silently
    producing a wrong-sized plane."""
    import pytest
    from stanford_relation_extractor_ray.stages.jpegcodec import (
        decode_jpeg, encode_jpeg)
    payload = bytearray(encode_jpeg(_gradient(16, 16), quality=90))
    i = payload.index(b"\xff\xc0")
    payload[i + 11] = 0x31                    # Y  (3,1)
    payload[i + 14] = 0x21                    # Cb (2,1)
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(payload))


def test_resizer_degrades_on_truncated_payloads(ray_session):
    """Truncated PNG (zlib.error) and truncated JPEG (IndexError)
    payloads fall back to the stub thumbnail instead of killing the
    resize stage."""
    import ray.data as rd
    from stanford_relation_extractor_ray.stages.jpegcodec import \
        encode_jpeg
    from stanford_relation_extractor_ray.stages.media import ImageResizer
    png = _make_png(_px(12, 12))
    rows = [
        {"doc_id": "d1", "span_seq": 0, "kind": "image",
         "media_ref": "m://t/1.png", "payload": png[:len(png) - 30],
         "width": 12, "height": 12},
        {"doc_id": "d1", "span_seq": 1, "kind": "image",
         "media_ref": "m://t/2.jpg", "payload": b"\xff\xd8\xff",
         "width": 8, "height": 8},
    ]
    out = (rd.from_items(rows)
           .map_batches(ImageResizer,
                        fn_constructor_kwargs={"max_side": 6},
                        batch_format="pyarrow", concurrency=1)
           .take_all())
    assert len(out) == 2
    assert all(len(r["payload"]) > 0 for r in out)   # stub thumbs


def test_wav_sample_roundtrip_and_formats():
    """encode_wav → decode_wav_samples roundtrip; 8-bit and float32
    containers decode too; exotic codecs raise the seam error."""
    import struct

    from codec_fixtures import encode_wav
    from stanford_relation_extractor_ray.stages.media import \
        decode_wav_samples
    t = np.arange(8000, dtype=np.float64) / 8000.0
    sig = np.stack([0.5 * np.sin(2 * np.pi * 440 * t),
                    0.25 * np.sin(2 * np.pi * 220 * t)], axis=1)
    rate, x = decode_wav_samples(encode_wav(sig, 8000))
    assert rate == 8000 and x.shape == (8000, 2)
    assert np.abs(x - sig).max() < 1e-4          # 16-bit quantization

    # float32 (format 3) container
    pcm = sig[:, 0].astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
    wav = (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
           + b"fmt " + struct.pack("<I", len(fmt)) + fmt
           + b"data" + struct.pack("<I", len(pcm)) + pcm)
    rate, x = decode_wav_samples(wav)
    assert np.abs(x[:, 0] - sig[:, 0].astype(np.float32)).max() == 0

    # a-law (format 6) stays the seam
    fmt = struct.pack("<HHIIHH", 6, 1, 8000, 8000, 1, 8)
    wav = (b"RIFF" + struct.pack("<I", 36 + 8) + b"WAVE"
           + b"fmt " + struct.pack("<I", len(fmt)) + fmt
           + b"data" + struct.pack("<I", 8) + b"\0" * 8)
    with pytest.raises(NotImplementedError):
        decode_wav_samples(wav)


def test_audio_window_stats_real_and_stub(ray_session):
    """AudioWindowStats computes real per-window RMS/peak for WAV
    payloads (constant-amplitude sine → rms ≈ A/√2, peak ≈ A per
    window) and deterministic stub stats for synthetic payloads."""
    import ray.data as rd

    from codec_fixtures import encode_wav
    from stanford_relation_extractor_ray.stages.media import \
        AudioWindowStats
    rate = 8000
    t = np.arange(3 * rate, dtype=np.float64) / rate     # 3 s
    wav = encode_wav(0.8 * np.sin(2 * np.pi * 440 * t), rate)
    rows = [
        {"doc_id": "d1", "span_seq": 0, "kind": "audio",
         "media_ref": "m://a/1.wav", "payload": wav},
        {"doc_id": "d1", "span_seq": 1, "kind": "audio",
         "media_ref": "m://a/2.syn",
         "payload": b"SYNM" + bytes(range(16))},
        {"doc_id": "d1", "span_seq": 2, "kind": "image",
         "media_ref": "m://a/3.png", "payload": b"\x89PNG\r\n\x1a\n"},
    ]
    out = (rd.from_items(rows)
           .map_batches(AudioWindowStats,
                        fn_constructor_kwargs={"every_s": 1.0},
                        batch_format="pyarrow", concurrency=1)
           .take_all())
    real = [r for r in out if r["media_ref"].endswith("1.wav")]
    stub = [r for r in out if r["media_ref"].endswith("2.syn")]
    assert len(real) == 3                       # one row per second
    for r in real:
        assert abs(r["rms"] - 0.8 / np.sqrt(2)) < 1e-3
        assert abs(r["peak"] - 0.8) < 1e-3
    assert stub and all(0 <= r["rms"] < 1 for r in stub)
    assert not any(r["media_ref"].endswith("3.png") for r in out)


def test_audio_window_stats_empty_wav_falls_to_stub(ray_session):
    """A structurally valid WAV whose data chunk is empty must emit
    the deterministic stub windows, not silently zero rows (ADVICE
    r4)."""
    import ray.data as rd

    from codec_fixtures import encode_wav
    from stanford_relation_extractor_ray.stages.media import \
        AudioWindowStats
    wav = encode_wav(np.empty((0, 1), dtype=np.float64), 8000)
    out = (rd.from_items([
        {"doc_id": "d1", "span_seq": 0, "kind": "audio",
         "media_ref": "m://a/empty.wav", "payload": wav}])
        .map_batches(AudioWindowStats,
                     fn_constructor_kwargs={"every_s": 1.0},
                     batch_format="pyarrow", concurrency=1)
        .take_all())
    assert len(out) >= 1                      # stub path produced rows
    assert all(0 <= r["rms"] < 1 for r in out)
