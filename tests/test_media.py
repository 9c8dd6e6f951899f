"""Multimodal stages (stages.media): REAL stdlib-WAV audio features and
SRV1 frame sampling with real per-frame decode."""

import numpy as np
import pyarrow as pa

import ray

from spider_ray.functions.avcodec import (
    decode_wav,
    encode_wav,
    encode_video,
    is_video,
    is_wav,
    iter_video_frames,
    video_info,
)
from spider_ray.sources.fixtures import MockWebConfig, audio_wav_for, image_pixels, video_for
from spider_ray.stages.media import AudioFeatures, FrameSample

CFG = MockWebConfig(n_pages=100)


def test_wav_roundtrip_exact():
    rng = np.random.default_rng(3)
    samples = (rng.standard_normal(4000) * 0.3).clip(-1, 1)
    data = encode_wav(samples, rate=8000)
    assert is_wav(data)
    decoded, rate = decode_wav(data)
    assert rate == 8000
    # 16-bit quantization bound
    assert np.abs(decoded - samples).max() < 1.0 / 32000


def test_srv1_roundtrip_and_stride_skips_decode():
    frames = [image_pixels(i, CFG) for i in range(6)]
    data = encode_video(frames, fps=5, fmt="png")
    assert is_video(data)
    assert video_info(data) == (6, 5)
    got = dict(iter_video_frames(data, stride=2))
    assert sorted(got) == [0, 2, 4]
    for i in (0, 2, 4):
        assert np.array_equal(got[i], frames[i])  # png lossless exact


def test_audio_features_stage(ray_session):
    rows = [
        {"audio_id": f"a{i}", "audio_bytes": audio_wav_for(i, CFG)} for i in range(8)
    ] + [{"audio_id": "bad", "audio_bytes": b"not a wav"}]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = ds.map_batches(
        AudioFeatures, batch_size=4, concurrency=2, batch_format="pyarrow"
    ).to_pandas()
    good = out[out["audio_id"] != "bad"]
    assert (good["duration_s"] - 0.5).abs().max() < 1e-6
    assert (good["rms"] > 0.1).all()
    assert (good["zcr"] > 0).all()
    # centroid tracks the seeded partials: audio 0 (100+300 Hz) sits lower
    # than audio with high partials
    assert good["spectral_centroid_hz"].between(50, 2500).all()
    assert out[out["audio_id"] == "bad"]["rms"].isna().all()
    # determinism: same input, same features
    out2 = ds.map_batches(
        AudioFeatures, batch_size=4, concurrency=2, batch_format="pyarrow"
    ).to_pandas()
    assert out.sort_values("audio_id").reset_index(drop=True).equals(
        out2.sort_values("audio_id").reset_index(drop=True)
    )


def test_frame_sample_stage(ray_session):
    rows = [
        {"video_id": f"v{i}", "video_bytes": video_for(i, CFG)} for i in range(0, 6, 2)
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = ds.map_batches(
        FrameSample,
        fn_constructor_kwargs={"stride": 5},
        batch_size=2, concurrency=2, batch_format="pyarrow",
    ).to_pandas()
    # 12 frames, stride 5 → indices 0, 5, 10 per video
    for vid in ("v0", "v2", "v4"):
        assert out[out["video_id"] == vid]["frame_index"].tolist() == [0, 5, 10]
    assert (out["ts_s"] == out["frame_index"] / 10).all()
    assert out["mean_luma"].between(0, 255).all()
    # frames of one video are near-dups but not identical → phash differs
    # somewhere across the sampled set
    assert out.groupby("video_id")["frame_phash"].nunique().ge(1).all()


def test_augment_stage_deterministic_and_correct(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from spider_ray.functions.imagecodec import decode_image, encode_image
    from spider_ray.stages.images import Augment

    rng = np.random.default_rng(9)
    imgs = [rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8) for _ in range(6)]
    tbl = pa.table(
        {
            "image_id": pa.array(range(6), pa.int64()),
            "bytes": pa.array([encode_image(p, "png") for p in imgs], pa.binary()),
        }
    )

    def run():
        return (
            ray.data.from_arrow(tbl)
            .map_batches(Augment, batch_size=3, concurrency=1, batch_format="pyarrow")
            .to_pandas()
            .sort_values("image_id")
            .reset_index(drop=True)
        )

    a, b = run(), run()
    assert [bytes(x) for x in a["aug_bytes"]] == [bytes(x) for x in b["aug_bytes"]]

    stage = Augment()
    for i, px in enumerate(imgs):
        row = a.iloc[i]
        # crop dims: 87.5% center crop
        assert (row["aug_h"], row["aug_w"]) == (21, 28)
        ref = px.astype(np.int16)[1:22, 2:30]
        flip, brightness = stage._params(i)
        assert row["aug_flipped"] == flip
        assert row["aug_brightness"] == brightness
        assert abs(brightness) <= 32
        if flip:
            ref = ref[:, ::-1]
        ref = np.clip(ref + brightness, 0, 255).astype(np.uint8)
        got = decode_image(bytes(row["aug_bytes"]))
        assert np.array_equal(got, ref)


def test_aspect_bucket_batches(ray_session):
    """Nearest-ratio assignment, per-bucket rank by id, partial-batch
    drop; empty input returns the typed empty schema."""
    import numpy as np
    import ray.data as rd

    from spider_ray.pipelines.train_data import aspect_bucket_batches

    rows = [
        {"image_id": i, "w": w, "h": h}
        for i, (w, h) in enumerate(
            [(512, 512), (256, 512), (1024, 256), (512, 510), (100, 400),
             (513, 512), (640, 480)]
        )
    ]
    out = (
        aspect_bucket_batches(rd.from_items(rows), batch_size=2)
        .to_pandas()
        .set_index("id")
        .sort_index()
    )
    # 512/512 and 512/510 and 513/512 -> bucket 3 (1.0); 256/512 -> 0.5;
    # 1024/256 -> 4.0; 100/400 -> 0.25; 640/480 -> 4/3
    assert out.loc[0, "bucket_id"] == 3
    assert out.loc[1, "bucket_id"] == 1
    assert out.loc[2, "bucket_id"] == 6
    assert out.loc[4, "bucket_id"] == 0
    assert out.loc[6, "bucket_id"] == 4
    b3 = out[out.bucket_id == 3].sort_values("seq")
    assert b3.index.tolist() == [0, 3, 5]           # ranked by id
    assert b3["batch_idx"].tolist() == [0, 0, 1]
    assert b3["kept"].tolist() == [1, 1, 0]          # trailing partial dropped
    # singleton buckets with batch_size 2 are all dropped
    assert out.loc[1, "kept"] == 0 and out.loc[4, "kept"] == 0
    # empty input
    empty = aspect_bucket_batches(
        rd.from_items(rows).filter(lambda r: False), batch_size=2
    )
    # (Dataset.to_pandas() drops columns at 0 rows — assert on the schema)
    assert empty.schema().names == ["id", "bucket_id", "seq", "batch_idx", "kept"]
    assert empty.count() == 0
