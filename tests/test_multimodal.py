import hashlib

import numpy as np


def media_docs():
    return [
        {"doc_id": 0, "text": "an image payload " * 10},
        {"doc_id": 1, "text": "an audio payload " * 20},
        {"doc_id": 2, "text": "a video payload " * 300},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "x"},
        {"doc_id": 5, "text": "y" * 5000},
    ]


def _media(ray_session):
    import ray.data

    from opentapioca_ray.stages.multimodal import synthesize_media

    return synthesize_media(ray.data.from_items(media_docs()))


def test_synthesize_media_schema_and_payload(ray_session):
    rows = _media(ray_session).take_all()
    by_id = {r["media_id"]: r for r in rows}
    assert by_id[0]["kind"] == "image"
    assert by_id[1]["kind"] == "audio"
    assert by_id[2]["kind"] == "video"
    assert bytes(by_id[2]["payload"]) == media_docs()[2]["text"].encode("utf-8")


def test_decode_images_deterministic_fake(ray_session):
    from opentapioca_ray.stages.multimodal import decode_images

    out = decode_images(_media(ray_session)).take_all()
    by_id = {r["media_id"]: r for r in out}
    # only image-kind rows (ids % 3 == 0)
    assert set(by_id) == {0, 3}
    text = media_docs()[0]["text"]
    n = len(text.encode("utf-8"))
    assert by_id[0]["n_bytes"] == n
    assert by_id[0]["width"] == n % 640 + 1
    assert by_id[0]["height"] == (n // 640) % 480 + 1
    # payload sha256 invariant survives the decode stage
    assert by_id[0]["payload_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    # empty payload is handled
    assert by_id[3]["n_bytes"] == 0 and by_id[3]["width"] == 1


def test_audio_features_shape(ray_session):
    from opentapioca_ray.stages.multimodal import audio_features

    out = audio_features(_media(ray_session), n_windows=8).take_all()
    by_id = {r["media_id"]: r for r in out}
    assert set(by_id) == {1, 4}
    assert len(by_id[1]["energy"]) == 8
    assert all(e >= 0 for e in by_id[1]["energy"])
    # deterministic: same input -> same features
    out2 = audio_features(_media(ray_session), n_windows=8).take_all()
    assert {r["media_id"]: r["energy"] for r in out2} == {
        k: v["energy"] for k, v in by_id.items()
    }


def test_frame_sampling(ray_session):
    from opentapioca_ray.stages.multimodal import sample_frames

    out = sample_frames(_media(ray_session), frame_bytes=256, stride=2).take_all()
    vids = [r for r in out if r["media_id"] == 2]
    payload = media_docs()[2]["text"].encode("utf-8")
    n_frames = (len(payload) + 255) // 256
    assert len(vids) == (n_frames + 1) // 2  # every 2nd frame
    first = next(r for r in vids if r["frame_index"] == 0)
    assert bytes(first["frame"]) == payload[:256]
    assert first["frame_sha256"] == hashlib.sha256(payload[:256]).hexdigest()


def test_image_feature_stage_is_normalized(ray_session):
    from opentapioca_ray.stages.multimodal import ImageFeatureStage, MEDIA_BATCH_SIZE

    ds = _media(ray_session)
    out = ds.map_batches(
        lambda b: ImageFeatureStage()(b),
        batch_size=MEDIA_BATCH_SIZE,
        batch_format="pyarrow",
    ).take_all()
    by_id = {r["media_id"]: np.array(r["feature"]) for r in out}
    assert len(by_id[0]) == 64
    assert abs(by_id[0].sum() - 1.0) < 1e-9
    assert by_id[3].sum() == 0.0  # empty payload


def test_stub_gate_raises_without_pil():
    import pytest

    from opentapioca_ray.stages import multimodal

    if not multimodal.HAVE_PIL:
        with pytest.raises(NotImplementedError):
            multimodal.require_real_decoders()
