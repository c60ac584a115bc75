"""Incremental cross-side dedup and cluster survivorship."""

import pyarrow as pa


def test_incremental_jaccard_pairs_cross_side_only(ray_session):
    import ray.data

    from opentapioca_ray.stages.dedup import incremental_jaccard_pairs

    base = "alpha beta gamma delta epsilon"
    new = pa.table(
        {
            "doc_id": [100, 101],
            "text": [base, "totally different content here now"],
        }
    )
    # old corpus: 1 near-identical to doc 100, plus two docs that are
    # near-identical to EACH OTHER (must NOT pair: both are old)
    old = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [base + " zeta", base + " zeta eta", base + " zeta"],
        }
    )
    out = incremental_jaccard_pairs(
        ray.data.from_arrow(new).repartition(2),
        ray.data.from_arrow(old).repartition(2),
        threshold=0.3,
    ).to_pandas()
    got = set(zip(out["u"], out["v"]))
    # doc 100 pairs with all three olds (shared prefix grams); old-old and
    # new-new pairs never appear
    assert got == {(100, 1), (100, 2), (100, 3)}
    assert all(u >= 100 and v < 100 for u, v in got)


def test_survivorship_majority_with_tiebreak(ray_session):
    import ray.data

    from opentapioca_ray.stages.matching import survivorship

    assign = pa.table(
        {
            "node": [1, 2, 3, 4, 5],
            "component": [1, 1, 1, 4, 4],
        }
    )
    attrs = pa.table(
        {
            "id": [1, 2, 3, 4, 5],
            "lang": ["en", "en", "fr", "de", "zh"],
        }
    )
    out = survivorship(
        ray.data.from_arrow(assign).repartition(2),
        ray.data.from_arrow(attrs).repartition(2),
        "id",
        ["lang"],
    ).to_pandas()
    got = {
        (r["component"], r["attr"]): (r["value"], r["n_votes"])
        for _, r in out.iterrows()
    }
    # component 1: en wins 2-1; component 4: tie de/zh -> lexical min 'de'
    assert got == {(1, "lang"): ("en", 2), (4, "lang"): ("de", 1)}


def test_incremental_pairs_broadcast_matches_exchange(ray_session, monkeypatch):
    """The delta-broadcast regime (corpus-side Arrow hash join against the
    ray.put gram table) must reproduce the two-sided-exchange regime
    bit-for-bit, jaccard values included, on a random corpus."""
    import numpy as np
    import ray.data

    from opentapioca_ray.stages import dedup
    from opentapioca_ray.stages.dedup import incremental_jaccard_pairs

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    bases = [
        " ".join(rng.choice(vocab, size=int(rng.integers(8, 14))))
        for _ in range(12)
    ]

    def doc():
        # mutate a shared base so cross-side near-dups actually exist
        words = bases[int(rng.integers(0, len(bases)))].split()
        if rng.random() < 0.5:
            words = words + [str(rng.choice(vocab))]
        if rng.random() < 0.3:
            words = words[1:]
        return " ".join(words)

    new = pa.table(
        {"doc_id": list(range(100, 130)), "text": [doc() for _ in range(30)]}
    )
    old = pa.table(
        {"doc_id": list(range(1, 81)), "text": [doc() for _ in range(80)]}
    )
    kw = dict(id_column="doc_id", text_column="text", k=2, threshold=0.2)
    broadcast = incremental_jaccard_pairs(
        ray.data.from_arrow(new).repartition(3),
        ray.data.from_arrow(old).repartition(4),
        **kw,
    ).to_pandas()
    monkeypatch.setattr(dedup, "_DELTA_BROADCAST_LIMIT", 0)
    exchange = incremental_jaccard_pairs(
        ray.data.from_arrow(new).repartition(3),
        ray.data.from_arrow(old).repartition(4),
        **kw,
    ).to_pandas()
    key = ["u", "v"]
    b = broadcast.sort_values(key).reset_index(drop=True)
    e = exchange.sort_values(key).reset_index(drop=True)
    assert len(b) == len(e) and len(b) > 0
    assert (b["u"] == e["u"]).all() and (b["v"] == e["v"]).all()
    assert np.allclose(b["jaccard"], e["jaccard"])


def test_incremental_pairs_empty_sides(ray_session):
    """Empty delta or empty corpus: the broadcast regime must return an
    empty (u, v, jaccard) dataset, not error."""
    import ray.data

    from opentapioca_ray.stages.dedup import incremental_jaccard_pairs

    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    some = pa.table({"doc_id": [1, 2], "text": ["alpha beta gamma", "alpha beta delta"]})
    for new_t, old_t in ((empty, some), (some, empty), (empty, empty)):
        out = incremental_jaccard_pairs(
            ray.data.from_arrow(new_t), ray.data.from_arrow(old_t), threshold=0.1
        ).to_pandas()
        assert len(out) == 0
