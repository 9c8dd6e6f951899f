"""Multimodal (image) column stages — actor-pool ``map_batches`` classes.

Images travel as opaque ``binary`` columns with typed metadata (the
input-hint images schema). Stages here are the decode / resize /
feature-extract plumbing a training-data pipeline needs; the codec seam is
functions.imagecodec (real pure-python PNG, deterministic stand-in lossy
codec, and a REAL baseline T.81 JPEG codec in functions.jpegcodec — any
JPEG bitstream without the FAKEJPG tag decodes through the real path).

Batch sizing: image payloads are wide — callers should use small
``batch_size`` (64-256) so batch × concurrency stays inside worker heaps;
blocks stay Arrow ``binary`` end-to-end (zero-copy from the object store).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.imagecodec import (
    _block_mean_resize,
    decode_image,
    encode_image,
    phash64,
    sniff_format,
    to_gray,
)


class DecodeStats:
    """bytes → (w, h, fmt, mean_luma, phash) metadata columns.

    Stateless math but shipped as a class so a real build swaps in a codec
    handle loaded once per actor in ``__init__``.
    """

    def __init__(self, bytes_col: str = "bytes"):
        self.bytes_col = bytes_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column(self.bytes_col).to_pylist()
        w, h, fmt, luma, ph = [], [], [], [], []
        for blob in blobs:
            f = sniff_format(blob)
            fmt.append(f)
            if f in ("png", "jpeg"):
                px = decode_image(blob)
                h.append(int(px.shape[0]))
                w.append(int(px.shape[1]))
                luma.append(float(to_gray(px).mean()))
                ph.append(phash64(px))
            else:
                h.append(None)
                w.append(None)
                luma.append(None)
                ph.append(None)
        return (
            batch.append_column("dec_w", pa.array(w, pa.int32()))
            .append_column("dec_h", pa.array(h, pa.int32()))
            .append_column("dec_fmt", pa.array(fmt, pa.string()))
            .append_column("mean_luma", pa.array(luma, pa.float64()))
            .append_column("dec_phash", pa.array(ph, pa.int64()))
        )


class Resize:
    """Deterministic area resize to (out_h, out_w), re-encoded as PNG."""

    def __init__(self, out_h: int = 16, out_w: int = 16, bytes_col: str = "bytes"):
        self.out_h, self.out_w = out_h, out_w
        self.bytes_col = bytes_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column(self.bytes_col).to_pylist()
        out = []
        for blob in blobs:
            if sniff_format(blob) in ("png", "jpeg"):
                px = decode_image(blob)
                small = np.stack(
                    [
                        _block_mean_resize(px[..., c].astype(np.float64), self.out_h, self.out_w)
                        for c in range(3)
                    ],
                    axis=-1,
                ).clip(0, 255).astype(np.uint8)
                out.append(encode_image(small, "png"))
            else:
                out.append(None)
        return batch.append_column("thumb_bytes", pa.array(out, pa.binary()))


class ImageEmbed:
    """Tiny deterministic image feature vector (luma histogram + moments).

    STAND-IN for a real vision encoder (no torch/GPU in this container) —
    the actor-pool signature, batched inference shape, and output layout
    (list<float> column) are exactly what a real model stage uses; a real
    build loads the model once here in ``__init__``.
    """

    DIM = 20

    def __init__(self, bytes_col: str = "bytes"):
        self.bytes_col = bytes_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column(self.bytes_col).to_pylist()
        vecs = []
        for blob in blobs:
            if sniff_format(blob) not in ("png", "jpeg"):
                vecs.append(None)
                continue
            gray = to_gray(decode_image(blob))
            hist, _ = np.histogram(gray, bins=16, range=(0, 255))
            hist = hist / max(1, gray.size)
            moments = np.array(
                [gray.mean() / 255.0, gray.std() / 255.0,
                 float(np.abs(np.diff(gray, axis=0)).mean()) / 255.0,
                 float(np.abs(np.diff(gray, axis=1)).mean()) / 255.0]
            )
            vecs.append(np.concatenate([hist, moments]).astype(np.float32).tolist())
        return batch.append_column(
            "img_embedding", pa.array(vecs, pa.list_(pa.float32()))
        )


class JpegTranscode:
    """Transcode stored image bytes to REAL baseline T.81 JPEG + PSNR gate.

    decode stored (png / stand-in jpeg) → encode real JPEG (quality/
    subsample fixed per actor) → decode the real bitstream → PSNR vs the
    stored-decoded pixels. Emits ``jpeg_bytes_real`` plus ``psnr_db`` and
    the north-rule conformance flag ``psnr_ok`` (>= 40 dB for lossy
    output). Encoder/decoder setup (Huffman code tables) is module-level
    one-time work; the class still rides an actor pool so a libjpeg-backed
    build slots in unchanged.
    """

    def __init__(self, bytes_col: str = "bytes", quality: int = 100, subsample: bool = False):
        from ..functions.jpegcodec import decode_jpeg, encode_jpeg

        self.bytes_col = bytes_col
        self.quality = quality
        self.subsample = subsample
        self._enc = encode_jpeg
        self._dec = decode_jpeg

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.imagecodec import psnr

        blobs = batch.column(self.bytes_col).to_pylist()
        out_bytes, out_psnr, out_ok = [], [], []
        for blob in blobs:
            if sniff_format(blob) not in ("png", "jpeg"):
                out_bytes.append(None)
                out_psnr.append(None)
                out_ok.append(None)
                continue
            src = decode_image(blob)
            real = self._enc(src, quality=self.quality, subsample=self.subsample)
            back = self._dec(real)
            db = float(psnr(src, back))
            out_bytes.append(real)
            out_psnr.append(db)
            out_ok.append(db >= 40.0)
        return (
            batch.append_column("jpeg_bytes_real", pa.array(out_bytes, pa.binary()))
            .append_column("psnr_db", pa.array(out_psnr, pa.float64()))
            .append_column("psnr_ok", pa.array(out_ok, pa.bool_()))
        )


class Augment:
    """Deterministic per-image training augmentation: center-crop to a
    fraction, optional horizontal flip and brightness shift chosen by
    ``md5(image_id, seed)`` — reproducible across runs/engines (no RNG
    state), which is what makes augmented corpora diffable and resumable.
    Actor-pool stage: parameters resolve once per actor in ``__init__``;
    ``__call__`` decodes, transforms with pure-numpy slicing/flipping,
    re-encodes PNG. Emits aug_bytes, aug_w, aug_h, aug_flipped,
    aug_brightness."""

    def __init__(
        self,
        crop_frac: float = 0.875,
        max_brightness: int = 32,
        seed: int = 0,
        id_col: str = "image_id",
        bytes_col: str = "bytes",
    ):
        import hashlib

        self.crop_frac = crop_frac
        self.max_brightness = max_brightness
        self.seed = seed
        self.id_col = id_col
        self.bytes_col = bytes_col
        self._md5 = hashlib.md5

    def _params(self, image_id) -> tuple[bool, int]:
        digest = self._md5(f"{self.seed}:{image_id}".encode()).digest()
        flip = bool(digest[0] & 1)
        brightness = int(digest[1] % (2 * self.max_brightness + 1)) - self.max_brightness
        return flip, brightness

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column(self.bytes_col).to_pylist()
        ids = batch.column(self.id_col).to_pylist()
        out_b, out_w, out_h, out_f, out_br = [], [], [], [], []
        for image_id, blob in zip(ids, blobs):
            if sniff_format(blob) not in ("png", "jpeg"):
                out_b.append(None)
                out_w.append(None)
                out_h.append(None)
                out_f.append(None)
                out_br.append(None)
                continue
            px = decode_image(blob).astype(np.int16)
            h, w = px.shape[0], px.shape[1]
            ch, cw = max(1, int(h * self.crop_frac)), max(1, int(w * self.crop_frac))
            top, left = (h - ch) // 2, (w - cw) // 2
            px = px[top : top + ch, left : left + cw]
            flip, brightness = self._params(image_id)
            if flip:
                px = px[:, ::-1]
            px = np.clip(px + brightness, 0, 255).astype(np.uint8)
            out_b.append(encode_image(px, "png"))
            out_w.append(cw)
            out_h.append(ch)
            out_f.append(flip)
            out_br.append(brightness)
        return (
            batch.append_column("aug_bytes", pa.array(out_b, pa.binary()))
            .append_column("aug_w", pa.array(out_w, pa.int32()))
            .append_column("aug_h", pa.array(out_h, pa.int32()))
            .append_column("aug_flipped", pa.array(out_f, pa.bool_()))
            .append_column("aug_brightness", pa.array(out_br, pa.int32()))
        )
