import numpy as np
import pytest

from spider_ray.functions import imagecodec
from spider_ray.functions.imagecodec import (
    _block_mean_resize,
    _pack_bits64,
    dct_phash64,
    decode_fake_jpeg,
    decode_image,
    decode_png,
    dhash64,
    encode_fake_jpeg,
    encode_png,
    hamming64,
    phash64,
    psnr,
    sniff_format,
    to_gray,
)


def _img(seed=0, h=48, w=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_png_roundtrip_lossless():
    img = _img(1)
    data = encode_png(img)
    assert sniff_format(data) == "png"
    out = decode_png(data)
    assert np.array_equal(out, img)
    assert psnr(img, out) == float("inf")


def test_fake_jpeg_psnr_gate():
    img = _img(2, 64, 64)
    data = encode_fake_jpeg(img)
    assert sniff_format(data) == "jpeg"
    out = decode_fake_jpeg(data)
    assert out.shape == img.shape
    p = psnr(img, out)
    assert p >= 40.0, f"lossy codec must clear the 40 dB gate, got {p}"


def test_real_jpeg_raises_not_implemented():
    with pytest.raises(NotImplementedError):
        decode_fake_jpeg(b"\xff\xd8\xff\xe0\x00\x10JFIF" + b"\x00" * 64)


def test_sniffing():
    assert sniff_format(b"%PDF-1.4") == "pdf"
    assert sniff_format(b"garbage") == "bin"


def test_decode_image_dispatch():
    img = _img(3, 32, 32)
    assert np.array_equal(decode_image(encode_png(img)), img)
    assert decode_image(encode_fake_jpeg(img)).shape == img.shape


def test_phash_properties():
    img = _img(4, 128, 96)
    h1 = phash64(img)
    assert h1 == phash64(img)  # deterministic
    # small noise → small hamming distance
    noisy = np.clip(img.astype(np.int16) + 2, 0, 255).astype(np.uint8)
    assert hamming64(h1, phash64(noisy)) <= 6
    # unrelated image → larger distance
    other = _img(5, 128, 96)
    assert hamming64(h1, phash64(other)) > 6
    assert -(2**63) <= h1 < 2**63  # fits int64 column


def test_dhash_and_dct_phash_properties():
    import numpy as np

    from spider_ray.functions.imagecodec import (
        dct_phash64,
        dhash64,
        hamming64,
        phash64,
    )
    from spider_ray.sources.fixtures import MockWebConfig, image_pixels

    cfg = MockWebConfig(n_pages=50)
    a = image_pixels(0, cfg)
    b = image_pixels(5, cfg)
    for fn in (dhash64, dct_phash64, phash64):
        # deterministic + self-identical
        assert fn(a) == fn(a)
        # distinct images land far apart
        assert hamming64(fn(a), fn(b)) > 8, fn.__name__

    # dct_phash: EXACTLY invariant to a uniform brightness offset (the
    # constant moves only the DC coefficient, which is dropped)
    shifted = np.clip(a.astype(np.int64) + 10, 0, 255).astype(np.uint8)
    if (a <= 245).all():  # no clipping occurred → exact invariance holds
        assert dct_phash64(shifted) == dct_phash64(a)
    # dhash: gradient signs survive the offset too
    assert hamming64(dhash64(shifted), dhash64(a)) <= 2


def test_dhash_dct_phash_reencode_stability():
    from spider_ray.functions.imagecodec import (
        dct_phash64,
        decode_image,
        dhash64,
        encode_image,
        hamming64,
    )
    from spider_ray.sources.fixtures import MockWebConfig, image_pixels

    cfg = MockWebConfig(n_pages=50)
    for i in range(0, 50, 5):
        px = image_pixels(i, cfg)
        png = decode_image(encode_image(px, "png"))
        jpg = decode_image(encode_image(px, "jpeg"))
        assert hamming64(dhash64(png), dhash64(jpg)) <= 3, i
        assert hamming64(dct_phash64(png), dct_phash64(jpg)) <= 3, i


# --- exactness of the vectorized kernels -----------------------------------
# The references are the kernels the hashes were first defined by (per-pixel
# luma products, an ``np.add.at`` scatter, ``mean()`` and a 64-step uint64
# shift loop); the stored phash values of every crawl, and the oracle
# literals, come from them.

def _ref_pack_bits64(bits):
    value = np.uint64(0)
    for b in bits.astype(np.uint64):
        value = (value << np.uint64(1)) | b
    return int(np.int64(value))


def _ref_to_gray(px):
    arr = px.astype(np.float64)
    return 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]


def _ref_block_mean_resize(gray, out_h, out_w):
    h, w = gray.shape
    ys = (np.arange(h) * out_h) // h
    xs = (np.arange(w) * out_w) // w
    out = np.zeros((out_h, out_w))
    counts = np.zeros((out_h, out_w))
    np.add.at(out, (ys[:, None], xs[None, :]), gray)
    np.add.at(counts, (ys[:, None], xs[None, :]), 1.0)
    return out / np.maximum(counts, 1.0)


def _ref_phash64(px):
    small = _ref_block_mean_resize(_ref_to_gray(px), 8, 8)
    return _ref_pack_bits64((small > small.mean()).ravel())


def _ref_dhash64(px):
    small = _ref_block_mean_resize(_ref_to_gray(px), 8, 9)
    return _ref_pack_bits64((small[:, 1:] > small[:, :-1]).ravel())


def _ref_dct_phash64(px):
    dct_phash64(px)  # builds the module's DCT matrix
    mat = imagecodec._DCT32
    g = _ref_block_mean_resize(_ref_to_gray(px), 32, 32)
    vals = (mat @ g @ mat.T)[:8, :8].ravel()[1:]
    return _ref_pack_bits64(vals > np.median(vals))


_SHAPES = [(16, 16), (32, 32), (17, 13), (16, 18), (7, 5), (4, 4)]


def _bits_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", _SHAPES)
def test_block_mean_resize_is_bit_identical_to_the_scatter(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(8):
        px = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        gray = to_gray(px)
        assert _bits_equal(gray, _ref_to_gray(px))
        for out_h, out_w in ((8, 8), (8, 9), (32, 32)):
            assert _bits_equal(
                _block_mean_resize(gray, out_h, out_w),
                _ref_block_mean_resize(gray, out_h, out_w),
            ), (shape, out_h, out_w)
        # the thumbnail stage resizes one uint8 channel cast to float64
        channel = px[..., 0].astype(np.float64)
        assert _bits_equal(
            _block_mean_resize(channel, 16, 16), _ref_block_mean_resize(channel, 16, 16)
        )


@pytest.mark.parametrize("shape", _SHAPES)
def test_image_hashes_are_bit_identical_to_the_scalar_kernels(shape):
    rng = np.random.default_rng(7 + shape[0] * 100 + shape[1])
    for _ in range(8):
        px = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        assert phash64(px) == _ref_phash64(px)
        assert dhash64(px) == _ref_dhash64(px)
        assert dct_phash64(px) == _ref_dct_phash64(px)


def test_pack_bits64_matches_the_shift_loop_for_1_to_64_bits():
    rng = np.random.default_rng(11)
    for n in range(1, 65):
        patterns = [np.ones(n, bool), np.zeros(n, bool)] + [
            rng.random(n) > 0.5 for _ in range(6)
        ]
        for bits in patterns:
            got = _pack_bits64(bits)
            assert got == _ref_pack_bits64(bits), (n, bits)
            assert -(2**63) <= got < 2**63
