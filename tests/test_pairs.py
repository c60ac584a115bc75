import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from opentapioca_ray.stages.pairs import (
    PairFeaturizer,
    PairScorerStage,
    block_pairs,
    blocking_batch,
    bounded_edit_distance,
)


def files_batch(rows):
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("file_id", pa.int64()),
                ("repo", pa.string()),
                ("content", pa.string()),
            ]
        ),
    )


BASE = " ".join(f"tok{i} filler{i % 7} word{i % 13}" for i in range(60))


def test_blocking_near_dups_share_band():
    near = BASE + " trailing marker"  # tiny edit: ~2 shingles differ
    far = " ".join(f"zz{i}" for i in range(120))
    batch = files_batch(
        [
            {"file_id": 1, "repo": "r1", "content": BASE},
            {"file_id": 2, "repo": "r2", "content": near},
            {"file_id": 3, "repo": "r3", "content": far},
        ]
    )
    out = blocking_batch(batch, bands=16)
    keys = {}
    for r in out.to_pylist():
        keys.setdefault(r["file_id"], set()).add(r["block_key"])
    assert keys[1] & keys[2], "near-duplicates must share at least one band"
    assert not (keys[1] & keys[3]), "unrelated docs must not collide"
    # token prefix carried, capped
    assert all(len(r["tokens"]) <= 128 for r in out.to_pylist())


def test_pair_group_all_pairs_and_dedup_ids():
    ids = np.array([5, 3, 9, 3])
    sig_head = np.array([1, 2, 3, 2], dtype=np.uint64)
    i, j, capped = block_pairs(np.zeros(4, dtype=np.int64), sig_head, ids, 64, 8)
    assert len(i) == 3  # 3 distinct files -> 3 pairs
    assert set(zip(ids[i].tolist(), ids[j].tolist())) == {(5, 3), (5, 9), (3, 9)}
    assert 3 not in i and 3 not in j  # the repeated id keeps its first row
    assert (capped == 0).all()


def test_pair_group_skew_guard():
    n = 100
    ids = np.arange(n)
    i, j, capped = block_pairs(
        np.full(n, "blk", dtype=object), np.arange(n)[::-1], ids, 64, 8
    )
    assert len(i) < n * (n - 1) // 2
    assert (capped == n * (n - 1) // 2 - len(i)).all()
    # bounded: at most window pairs per member, neighbours in sig order
    assert len(i) <= n * 8
    assert (ids[i] - ids[j] >= 1).all() and (ids[i] - ids[j] <= 8).all()


def test_bounded_edit_distance():
    assert bounded_edit_distance(["a", "b"], ["a", "b"]) == 1.0
    assert bounded_edit_distance(["a", "b"], ["a", "c"]) == 0.5
    assert bounded_edit_distance([], []) == 1.0
    assert bounded_edit_distance(["a"], []) == 0.0


def test_featurizer():
    f = PairFeaturizer(idf={"a": 1.0, "b": 2.0}, repo_prior={"r1": 0.5})
    row = {
        "left_tokens": ["a", "b"],
        "right_tokens": ["a", "b"],
        "left_repo": "r1",
        "right_repo": "r2",
    }
    feats = f.features(row)
    assert feats[0] == pytest.approx(1.0)  # identical tfidf vectors
    assert feats[1] == 1.0 and feats[2] == 1.0 and feats[3] == 1.0
    assert feats[4] == pytest.approx(0.25)


def test_scorer_stage_untrained(ray_session):
    import ray

    batch = pa.Table.from_pylist(
        [
            {
                "left_id": 1,
                "right_id": 2,
                "left_repo": "r",
                "right_repo": "r",
                "left_tokens": ["a", "b", "c"],
                "right_tokens": ["a", "b", "c"],
                "capped": 0,
            },
            {
                "left_id": 1,
                "right_id": 3,
                "left_repo": "r",
                "right_repo": "r",
                "left_tokens": ["a", "b", "c"],
                "right_tokens": ["x", "y", "z"],
                "capped": 0,
            },
        ]
    )
    stage = PairScorerStage(idf_ref=None, repo_prior_ref=None, model_dict=None)
    out = stage(batch).to_pylist()
    assert out[0]["score"] > 0  # identical -> positive
    assert out[1]["score"] < 0  # disjoint -> negative


def test_features_batch_matches_row_featurizer():
    """The vectorized batch featurizer must reproduce the per-row reference
    implementation exactly (modulo float summation order)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.pairs import PairFeaturizer

    rng = np.random.RandomState(7)
    vocab = [f"tok{i}" for i in range(30)]
    idf = {w: float(0.1 + i * 0.13) for i, w in enumerate(vocab[:20])}
    prior = {"repoA": 0.7, "repoB": 0.2}
    feat = PairFeaturizer(idf, prior)

    def rand_tokens():
        k = rng.randint(0, 12)
        return [vocab[rng.randint(0, len(vocab))] for _ in range(k)]

    rows = []
    for _ in range(40):
        rows.append(
            {
                "left_tokens": rand_tokens(),
                "right_tokens": rand_tokens(),
                "left_repo": rng.choice(["repoA", "repoB", "repoC"]),
                "right_repo": rng.choice(["repoA", "repoB", "repoC"]),
            }
        )
    # edge cases: both empty, one empty, identical, shorter than bigram
    rows += [
        {"left_tokens": [], "right_tokens": [], "left_repo": "x", "right_repo": "y"},
        {"left_tokens": [], "right_tokens": ["tok1"], "left_repo": "x", "right_repo": "y"},
        {"left_tokens": ["tok1"], "right_tokens": ["tok1"], "left_repo": "repoA", "right_repo": "repoA"},
        {"left_tokens": ["tok2"], "right_tokens": ["tok3"], "left_repo": "x", "right_repo": "y"},
    ]
    expected = np.array([feat.features(r) for r in rows])
    got = feat.features_batch(
        pa.array([r["left_tokens"] for r in rows], type=pa.list_(pa.string())),
        pa.array([r["right_tokens"] for r in rows], type=pa.list_(pa.string())),
        [r["left_repo"] for r in rows],
        [r["right_repo"] for r in rows],
    )
    assert got.shape == expected.shape
    assert np.allclose(got, expected, atol=1e-12)


def test_blocking_repo_column_only_when_asked():
    batch = files_batch([{"file_id": 1, "repo": "r1", "content": BASE}])
    slim = blocking_batch(batch, bands=4, repo_column=None, include_tokens=False)
    assert slim.column_names == ["block_key", "file_id", "sig_head"]
    full = blocking_batch(batch, bands=4)
    assert full.column("repo").to_pylist() == ["r1"] * 4


def test_token_prefix_lists_match_per_doc_slices():
    """The vectorized prefix builder equals slicing each doc's tokens to
    the cap, for empty docs, docs under, at and over the cap, and an empty
    batch."""
    from opentapioca_ray.functions.text import tokenize, tokenize_flat
    from opentapioca_ray.stages.pairs import token_prefix_lists

    texts = ["", "a b", "c d e f", "g h i j k l m", None, "n o p"]
    for docs in (texts, []):
        flat, counts = tokenize_flat(docs)
        got = token_prefix_lists(flat, counts, 4)
        assert got.type == pa.list_(pa.string())
        assert got.to_pylist() == [tokenize(t or "")[:4] for t in docs]


def _levenshtein_similarity(a, b, cap=48):
    """Plain-Python token Levenshtein, normalized like the scorer."""
    a, b = a[:cap], b[:cap]
    if not a and not b:
        return 1.0
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return 1.0 - prev[-1] / max(len(a), len(b))


def test_edit_similarity_batch_matches_python_levenshtein():
    """The one batch edit DP equals a plain-Python Levenshtein per pair, on
    seeded pairs of 0 to 60 tokens (both sides over the 48-token cap
    included), in one batch and one pair at a time."""
    import random

    from opentapioca_ray.stages.pairs import edit_similarity_batch

    rng = random.Random(5)
    pairs = [([], []), ([1], []), ([], [2]), ([3] * 60, [3] * 60), ([1] * 50, [2] * 55)]
    for _ in range(300):
        alphabet = rng.randrange(1, 6)
        a = [rng.randrange(alphabet) for _ in range(rng.randrange(0, 61))]
        b = a[: rng.randrange(0, 61)] if rng.random() < 0.3 else []
        b = b + [rng.randrange(alphabet) for _ in range(rng.randrange(0, 61 - len(b)))]
        pairs.append((a, b))
    want = np.array([_levenshtein_similarity(a, b) for a, b in pairs])
    got = edit_similarity_batch(
        np.array([x for a, _ in pairs for x in a], dtype=np.int64),
        [len(a) for a, _ in pairs],
        np.array([x for _, b in pairs for x in b], dtype=np.int64),
        [len(b) for _, b in pairs],
    )
    assert np.array_equal(got, want)
    for a, b in pairs[:60]:
        sa, sb = [f"t{x}" for x in a], [f"t{x}" for x in b]
        assert bounded_edit_distance(sa, sb) == _levenshtein_similarity(a, b)
    assert edit_similarity_batch(np.zeros(0), [], np.zeros(0), []).shape == (0,)
