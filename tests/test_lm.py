"""Unigram LM scoring: hand-computed log-probs, OOV handling, empties."""

import math

import pyarrow as pa
import pytest


def _scores(rows, **kw):
    import ray.data

    from opentapioca_ray.stages.lm import unigram_lm_scores

    ds = ray.data.from_arrow(pa.table(rows)).materialize()
    out = unigram_lm_scores(ds, "doc_id", "text", **kw).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def test_hand_computed_scores(ray_session):
    # corpus: a a b  |  b c  -> counts a:2 b:2 c:1, total 5
    out = _scores({"doc_id": [1, 2], "text": ["a a b", "b c"]})
    lp = {w: round(math.log(c / 5) * 1_000_000) for w, c in
          {"a": 2, "b": 2, "c": 1}.items()}
    assert out["n_tokens"].tolist() == [3, 2]
    assert out["sum_lp_e6"].tolist() == [
        2 * lp["a"] + lp["b"], lp["b"] + lp["c"]
    ]


def test_empty_and_whitespace_docs_dropped(ray_session):
    out = _scores({"doc_id": [1, 2, 3], "text": ["a b", "", "   "]})
    assert out["doc_id"].tolist() == [1]


def test_vocabulary_over_limit_raises(ray_session, monkeypatch):
    """A vocabulary over `_VOCAB_LIMIT` words is not broadcast."""
    from opentapioca_ray.stages import lm

    monkeypatch.setattr(lm, "_VOCAB_LIMIT", 2)
    with pytest.raises(ValueError, match="_VOCAB_LIMIT"):
        _scores({"doc_id": [1, 2], "text": ["a a b", "b c"]})


def test_foreign_model_oov(ray_session):
    import ray.data

    from opentapioca_ray.stages.lm import train_unigram_counts, unigram_lm_scores

    ref = ray.data.from_arrow(pa.table({"text": ["x x x y"]}))
    counts = train_unigram_counts(ref).materialize()
    target = ray.data.from_arrow(
        pa.table({"doc_id": [1], "text": ["x z"]})
    )
    out = unigram_lm_scores(
        target, "doc_id", "text", counts_ds=counts
    ).to_pandas()
    lp_x = round(math.log(3 / 4) * 1_000_000)
    lp_min = round(math.log(1 / 4) * 1_000_000)  # rarest word = OOV penalty
    assert out["sum_lp_e6"].tolist() == [lp_x + lp_min]


def test_scores_deterministic_across_block_layouts(ray_session):
    import ray.data

    from opentapioca_ray.stages.lm import unigram_lm_scores

    rows = {"doc_id": list(range(20)),
            "text": [f"w{i % 3} common w{i % 5}" for i in range(20)]}
    a = unigram_lm_scores(
        ray.data.from_arrow(pa.table(rows)).materialize(), "doc_id", "text"
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = unigram_lm_scores(
        ray.data.from_arrow(pa.table(rows)).repartition(7).materialize(),
        "doc_id", "text",
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_ccnet_buckets_query(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    df = entry.queries()["ccnet_buckets"]("/root/testdata/sf0.001").to_pandas()
    assert sorted(df.columns) == ["bucket", "lang", "n_docs", "tokens"]
    assert set(df["bucket"]).issubset({0, 1, 2})
    # every language with >= 3 docs fills all three buckets, terciles
    # differ by at most one doc
    for lang, g in df.groupby("lang"):
        n = g["n_docs"].sum()
        if n >= 3:
            assert set(g["bucket"]) == {0, 1, 2}
            assert g["n_docs"].max() - g["n_docs"].min() <= 1
    # bucket doc totals cover every scored (non-empty) document
    assert df["n_docs"].sum() > 400


def test_nb_lang_confusion_separable(ray_session):
    import pandas as pd
    import ray.data

    from opentapioca_ray.stages.lm import nb_lang_confusion

    # two clearly separable vocabularies -> perfect diagonal confusion
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "alpha beta alpha",
                "alpha beta beta",
                "zed yon zed",
                "yon zed yon",
            ],
            "lang": ["en", "en", "zz", "zz"],
        }
    )
    out = (
        nb_lang_confusion(ray.data.from_pandas(docs))
        .to_pandas()
        .set_index(["true_lang", "pred_lang"])["n"]
        .to_dict()
    )
    assert out == {("en", "en"): 2, ("zz", "zz"): 2}


def test_vocab_richness_hand_case(ray_session):
    import math

    import pandas as pd
    import ray.data

    from opentapioca_ray.stages.lm import vocab_richness

    # counts: a=3, b=2, c=1, d=1 -> V=4, N=7, N1=2, N2=1, N3=1
    docs = pd.DataFrame({"text": ["a a a b", "b c d"]})
    out = vocab_richness(ray.data.from_pandas(docs)).to_pandas().iloc[0]
    assert (out.v_types, out.n_tokens, out.n1, out.n2, out.n3) == (4, 7, 2, 1, 1)
    assert out.p0_e6 == math.floor(2 * 1e6 / 7 + 0.5)
    assert out.r1_star_e6 == math.floor(2.0 * 1 / 2 * 1e6 + 0.5)
    assert out.chao1_e6 == math.floor((4 + 4 / 2.0) * 1e6 + 0.5)  # 6.0
