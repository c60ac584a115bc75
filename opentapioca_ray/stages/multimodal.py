"""Multimodal (image/audio/video) column plumbing.

Treats media as opaque `binary` payload columns with typed metadata, processed
by stage classes run on Ray tasks (one instance per batch; their setup is
trivial) — the Ray-side plumbing (schemas, batch sizing, output layout) is
real and tested; the
actual codec work is STUBBED behind a deterministic fake because no
image/audio libraries ship in this environment (see `HAVE_PIL`; a real
deployment drops `PIL.Image.open` / soundfile into the same `__call__`).

Scale notes: payloads are large — stages default to small `batch_size` so
the batches in flight stay well under the object-store block target, and
payload bytes never leave Arrow buffers except inside the
per-batch kernel. Decoded features are fixed-size list<float> columns.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

try:  # pragma: no cover - not present in this environment
    from PIL import Image  # type: ignore

    HAVE_PIL = True
except ImportError:
    HAVE_PIL = False

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),
        ("payload", pa.large_binary()),
        ("meta", pa.string()),
    ]
)

KINDS = ["image", "audio", "video"]

# Stage defaults: payload rows are wide — keep batches small (SURVEY.md §7.4,
# "memory-aware" driver brief).
MEDIA_BATCH_SIZE = 64


def require_real_decoders() -> None:
    """Call before using real-codec paths; clearly-marked stub gate."""
    if not HAVE_PIL:
        raise NotImplementedError(
            "real image/audio decoding requires PIL/soundfile, which are not "
            "available in this environment; the deterministic fake decode is "
            "used instead"
        )


def synthesize_media(docs_ds, id_column: str = "doc_id", text_column: str = "text"):
    """Derive a deterministic media table from a documents table: payload =
    utf-8 bytes of the text (an opaque stand-in), kind cycles by id."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).to_pylist()
        texts = batch.column(text_column).to_pylist()
        payloads = [(t or "").encode("utf-8") for t in texts]
        kinds = [KINDS[i % 3] for i in ids]
        metas = [
            json.dumps({"n_bytes": len(p), "codec": "raw"}, sort_keys=True)
            for p in payloads
        ]
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "kind": pa.array(kinds, type=pa.string()),
                "payload": pa.array(payloads, type=pa.large_binary()),
                "meta": pa.array(metas, type=pa.string()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


class DecodeImageStage:
    """Stage: binary payload -> image metadata (+sha256 invariant).

    Real path (PIL) decodes width/height/mode; the deterministic fake maps
    payload length to a plausible geometry so downstream layout code is
    exercised identically. `decode_images` runs it on tasks.
    """

    def __init__(self):
        self.have_pil = HAVE_PIL

    def _decode(self, payload: bytes) -> tuple[int, int]:
        if self.have_pil:  # pragma: no cover - env has no PIL
            import io

            with Image.open(io.BytesIO(payload)) as im:
                return im.width, im.height
        # deterministic fake: geometry from payload length
        n = len(payload)
        return n % 640 + 1, (n // 640) % 480 + 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        widths, heights, shas = [], [], []
        for p in payloads:
            w, h = self._decode(p)
            widths.append(w)
            heights.append(h)
            shas.append(hashlib.sha256(p).hexdigest())
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "kind": batch.column("kind"),
                "n_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
                "width": pa.array(widths, type=pa.int64()),
                "height": pa.array(heights, type=pa.int64()),
                "payload_sha256": pa.array(shas, type=pa.string()),
            }
        )


class ImageFeatureStage:
    """Stage: payload bytes -> fixed-size feature vector
    (byte-histogram folded to `dim`, L1-normalized — a deterministic stand-in
    for a CNN embedding; vectorized with numpy over the raw buffers)."""

    def __init__(self, dim: int = 64):
        self.dim = dim
        self.fold = 256 // dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for p in batch.column("payload").to_pylist():
            arr = np.frombuffer(p, dtype=np.uint8)
            hist = np.bincount(arr, minlength=256).astype(np.float64)
            folded = hist.reshape(self.dim, self.fold).sum(axis=1)
            total = folded.sum()
            feats.append(folded / total if total else folded)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "feature": pa.array([f.tolist() for f in feats], type=pa.list_(pa.float64())),
            }
        )


class FrameSampleStage:
    """Stage for "video": treat the payload as concatenated
    fixed-size frames; emit every `stride`-th frame as its own row
    (media_id, frame_index, frame payload, sha). Output is a flat_map-shaped
    batch: one input row -> many frame rows."""

    def __init__(self, frame_bytes: int = 1024, stride: int = 2):
        self.frame_bytes = frame_bytes
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, out_idx, out_frame, out_sha = [], [], [], []
        ids = batch.column("media_id").to_pylist()
        for mid, p in zip(ids, batch.column("payload").to_pylist()):
            n_frames = max(1, (len(p) + self.frame_bytes - 1) // self.frame_bytes)
            for i in range(0, n_frames, self.stride):
                frame = p[i * self.frame_bytes : (i + 1) * self.frame_bytes]
                out_id.append(mid)
                out_idx.append(i)
                out_frame.append(frame)
                out_sha.append(hashlib.sha256(frame).hexdigest())
        return pa.table(
            {
                "media_id": pa.array(out_id, type=pa.int64()),
                "frame_index": pa.array(out_idx, type=pa.int64()),
                "frame": pa.array(out_frame, type=pa.large_binary()),
                "frame_sha256": pa.array(out_sha, type=pa.string()),
            }
        )


class AudioFeatureStage:
    """Stage for "audio": bytes -> per-window RMS energy curve
    (list<float>, `n_windows` fixed) — a deterministic stand-in for mel
    features; numpy-vectorized."""

    def __init__(self, n_windows: int = 16):
        self.n_windows = n_windows

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for p in batch.column("payload").to_pylist():
            arr = np.frombuffer(p, dtype=np.uint8).astype(np.float64)
            if arr.size == 0:
                feats.append([0.0] * self.n_windows)
                continue
            pad = (-arr.size) % self.n_windows
            arr = np.pad(arr, (0, pad))
            win = arr.reshape(self.n_windows, -1)
            feats.append(np.sqrt((win**2).mean(axis=1)).tolist())
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "energy": pa.array(feats, type=pa.list_(pa.float64())),
            }
        )


def _only_kind(kind: str):
    import pyarrow.compute as pc

    def fn(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("kind"), kind))

    return fn


def _on_tasks(media_ds, kind: str, stage_cls, **kwargs):
    """The `kind` rows of `media_ds` through `stage_cls(**kwargs)` on Ray
    tasks. Stateless stages need no actor pool, and a pool would hold CPUs
    that the upstream read tasks wait for (no progress at num_cpus=1)."""
    rows = media_ds.map_batches(_only_kind(kind), batch_format="pyarrow")
    return rows.map_batches(
        lambda b: stage_cls(**kwargs)(b),
        batch_size=MEDIA_BATCH_SIZE,
        batch_format="pyarrow",
    )


def decode_images(media_ds):
    """Image rows -> decoded metadata."""
    return _on_tasks(media_ds, "image", DecodeImageStage)


def audio_features(media_ds, n_windows: int = 16):
    return _on_tasks(media_ds, "audio", AudioFeatureStage, n_windows=n_windows)


def sample_frames(media_ds, frame_bytes: int = 1024, stride: int = 2):
    return _on_tasks(
        media_ds, "video", FrameSampleStage, frame_bytes=frame_bytes, stride=stride
    )
