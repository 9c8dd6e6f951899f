"""Image codecs, format sniffing, perceptual hash, PSNR.

The container has no PIL/libjpeg; all codecs here are written against the
public specs in numpy/stdlib:

- **PNG**: a REAL, spec-compliant encoder/decoder for 8-bit RGB written
  against the public PNG spec using stdlib ``zlib``/``struct`` (filter 0;
  decoder also unfilters Sub/Up/Average/Paeth). Round-trips losslessly.
- **"JPEG"**: two decodable families behind one ``decode_image`` seam:
  (a) the ``DETERMINISTIC FAKE LOSSY CODEC`` — JPEG SOI magic + ``FAKEJPG``
  APP0 payload with step-8 quantized pixels (PSNR ≈ 40.9 dB ≥ the 40 dB
  gate) — kept as the crawl-fixture encoding so benches stay comparable
  across rounds; (b) REAL baseline-sequential T.81 JPEG via
  :mod:`.jpegcodec` (Annex K tables, JFIF, 4:4:4/4:2:0, restart markers) —
  any bitstream without the ``FAKEJPG`` tag decodes through the real path.
- ``sniff_format`` from magic bytes (generalizes the reference's PDF
  sniffing, src/scrapeDocument.ts:300-303, to the image ``fmt`` column).
- ``phash64``: 8×8 average-hash over the grayscale image (DCT-free
  perceptual hash), returned as signed int64 for the Arrow column.

All pixel math is numpy; arrays are (h, w, 3) uint8.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np

PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
JPEG_MAGIC = b"\xff\xd8\xff"
FAKE_JPEG_TAG = b"FAKEJPG"


# ---------------------------------------------------------------------------
# PNG (real codec, 8-bit RGB, public spec)
# ---------------------------------------------------------------------------

def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array as PNG (color type 2, filter 0)."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, c = arr.shape
    assert c == 3, "RGB only"
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8), arr.reshape(h, w * 3)], axis=1
    ).tobytes()
    return (
        PNG_MAGIC
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    rows = raw.reshape(h, stride + 1)
    filters = rows[:, 0]
    data = rows[:, 1:].astype(np.int32)
    out = np.zeros((h, stride), dtype=np.int32)
    for y in range(h):
        f = filters[y]
        line = data[y].copy()
        prev = out[y - 1] if y > 0 else np.zeros(stride, dtype=np.int32)
        if f == 0:
            out[y] = line
        elif f == 1:  # Sub
            for x in range(stride):
                left = out[y, x - bpp] if x >= bpp else 0
                out[y, x] = (line[x] + left) & 0xFF
        elif f == 2:  # Up
            out[y] = (line + prev) & 0xFF
        elif f == 3:  # Average
            for x in range(stride):
                left = out[y, x - bpp] if x >= bpp else 0
                out[y, x] = (line[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif f == 4:  # Paeth
            for x in range(stride):
                a = out[y, x - bpp] if x >= bpp else 0
                b = prev[x]
                cc = prev[x - bpp] if x >= bpp else 0
                p = a + b - cc
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else cc)
                out[y, x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {f}")
    return out.astype(np.uint8)


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB PNG to an (h, w, 3) uint8 array."""
    if not data.startswith(PNG_MAGIC):
        raise ValueError("not a PNG")
    pos = len(PNG_MAGIC)
    w = h = None
    idat = b""
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bit_depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if bit_depth != 8 or color_type != 2 or interlace != 0:
                raise NotImplementedError(
                    "pure-python PNG decoder supports 8-bit RGB non-interlaced only"
                )
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8)
    stride = w * 3
    if raw.size != h * (stride + 1):
        raise ValueError("PNG size mismatch")
    if (raw.reshape(h, stride + 1)[:, 0] == 0).all():  # fast path: filter 0
        return raw.reshape(h, stride + 1)[:, 1:].reshape(h, w, 3).copy()
    return _unfilter(raw, h, stride, 3).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# DETERMINISTIC FAKE LOSSY CODEC (stands in for libjpeg — clearly marked)
# ---------------------------------------------------------------------------

def encode_fake_jpeg(pixels: np.ndarray) -> bytes:
    """Encode with the deterministic fake lossy codec (JPEG-magic container).

    NOT a real JPEG bitstream. Quantizes each channel to step 8 (centered),
    giving PSNR ≈ 40.9 dB vs the source — above the 40 dB conformance gate
    the real pipeline would apply to libjpeg output.
    """
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w, _ = arr.shape
    quantized = ((arr.astype(np.uint16) // 8) * 8 + 4).clip(0, 255).astype(np.uint8)
    payload = FAKE_JPEG_TAG + struct.pack(">II", w, h) + zlib.compress(quantized.tobytes(), 6)
    return JPEG_MAGIC + b"\xe0" + struct.pack(">I", len(payload)) + payload


def decode_fake_jpeg(data: bytes) -> np.ndarray:
    if not data.startswith(JPEG_MAGIC):
        raise ValueError("not a JPEG container")
    if FAKE_JPEG_TAG not in data[:32]:
        raise NotImplementedError(
            "real JPEG decoding requires libjpeg (not in this container); "
            "only the deterministic fake codec is decodable here"
        )
    (length,) = struct.unpack(">I", data[4:8])
    payload = data[8 : 8 + length]
    assert payload.startswith(FAKE_JPEG_TAG)
    w, h = struct.unpack(">II", payload[len(FAKE_JPEG_TAG) : len(FAKE_JPEG_TAG) + 8])
    raw = np.frombuffer(zlib.decompress(payload[len(FAKE_JPEG_TAG) + 8 :]), dtype=np.uint8)
    return raw.reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# Generic surface used by the pipeline stages
# ---------------------------------------------------------------------------

def sniff_format(data: bytes) -> str:
    """Magic-byte format sniff → fmt column value ('png'|'jpeg'|'pdf'|'bin')."""
    if data.startswith(PNG_MAGIC):
        return "png"
    if data.startswith(JPEG_MAGIC):
        return "jpeg"
    if data.startswith(b"%PDF-"):
        return "pdf"
    return "bin"


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return encode_png(pixels)
    if fmt == "jpeg":
        return encode_fake_jpeg(pixels)
    raise ValueError(f"unsupported fmt {fmt!r}")


def decode_image(data: bytes) -> np.ndarray:
    """Dispatch on magic bytes: PNG, the deterministic stand-in codec (tagged
    ``FAKEJPG``), or a real baseline T.81 JPEG bitstream (``jpegcodec``)."""
    fmt = sniff_format(data)
    if fmt == "png":
        return decode_png(data)
    if fmt == "jpeg":
        if FAKE_JPEG_TAG in data[:32]:
            return decode_fake_jpeg(data)
        from .jpegcodec import decode_jpeg  # real T.81 baseline decoder

        return decode_jpeg(data)
    raise ValueError(f"cannot decode fmt {fmt!r}")


# each ITU-R 601 luma weight times every uint8 level: the float64 products
# ``to_gray`` needs, looked up per pixel rather than multiplied
_LUMA = np.array([0.299, 0.587, 0.114])[:, None] * np.arange(256.0)


def to_gray(pixels: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma ``0.299 R + 0.587 G + 0.114 B`` of uint8 pixels,
    float64 (h, w)."""
    return (
        _LUMA[0].take(pixels[..., 0])
        + _LUMA[1].take(pixels[..., 1])
        + _LUMA[2].take(pixels[..., 2])
    )


@functools.lru_cache(maxsize=64)
def _resize_cells(h: int, w: int, out_h: int, out_w: int) -> tuple:
    """Row-major output cell of every input pixel of an (h, w) image
    resized to (out_h, out_w), and each cell's pixel count (≥ 1)."""
    ys = (np.arange(h) * out_h) // h
    xs = (np.arange(w) * out_w) // w
    cell = (ys[:, None] * out_w + xs[None, :]).ravel()
    counts = np.maximum(np.bincount(cell, minlength=out_h * out_w), 1.0)
    cell.setflags(write=False)
    counts.setflags(write=False)
    return cell, counts


def _block_mean_resize(gray: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic area resize via index-bucketed block means.

    Input pixel (i, j) falls in cell ``(i * out_h // h, j * out_w // w)``.
    ``np.bincount`` adds each cell's pixels in row-major input order, the
    order an unbuffered ``np.add.at`` scatter uses, so every sum is
    bit-identical to the scatter's."""
    gray = np.asarray(gray, dtype=np.float64)
    cell, counts = _resize_cells(*gray.shape, out_h, out_w)
    sums = np.bincount(cell, weights=gray.ravel(), minlength=out_h * out_w)
    return (sums / counts).reshape(out_h, out_w)


def phash64(pixels: np.ndarray) -> int:
    """8×8 average-hash of the grayscale image → signed int64 (Arrow-ready)."""
    small = _block_mean_resize(to_gray(pixels), 8, 8)
    # sum / size is the value ``small.mean()`` computes, without its overhead
    return _pack_bits64((small > small.sum() / small.size).ravel())


def _pack_bits64(bits: np.ndarray) -> int:
    """≤64 bits, MSB-first → signed int64 (Arrow-ready)."""
    value = int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)
    return value - (1 << 64) if value >> 63 else value


def dhash64(pixels: np.ndarray) -> int:
    """8×9 difference-hash: bit = right-neighbor brighter. Gradient
    signs survive global brightness/contrast shifts that flip the
    average-hash's mean threshold."""
    small = _block_mean_resize(to_gray(pixels), 8, 9)
    return _pack_bits64((small[:, 1:] > small[:, :-1]).ravel())


_DCT32 = None


def dct_phash64(pixels: np.ndarray) -> int:
    """Classic DCT pHash: 32×32 area-resize → orthonormal 2-D DCT-II →
    the 8×8 low-frequency block minus DC, thresholded at its median
    (63 bits). Exactly invariant to uniform brightness offsets (a
    constant shifts only the DC coefficient) and robust to re-encode
    noise that flips avg-hash bits near the mean."""
    global _DCT32
    if _DCT32 is None:
        n = 32
        u = np.arange(n)[:, None]
        x = np.arange(n)[None, :]
        mat = np.cos(np.pi * (2 * x + 1) * u / (2 * n)) * np.sqrt(2.0 / n)
        mat[0] /= np.sqrt(2.0)
        _DCT32 = mat
    g = _block_mean_resize(to_gray(pixels), 32, 32)
    coeffs = _DCT32 @ g @ _DCT32.T
    vals = coeffs[:8, :8].ravel()[1:]  # drop DC
    return _pack_bits64(vals > np.median(vals))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)
