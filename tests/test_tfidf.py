"""TF-IDF top terms: kernel semantics + broadcast/shuffle equivalence."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from opentapioca_ray.stages import tfidf
from opentapioca_ray.stages.tfidf import _tf_batch, tfidf_top_terms


def _top_terms(monkeypatch, mode, ds, **kw):
    """`tfidf_top_terms` in its broadcast regime, or with the vocabulary
    limit at 0 (the reduce-side join)."""
    with monkeypatch.context() as m:
        if mode == "shuffle":
            m.setattr(tfidf, "_VOCAB_BROADCAST_LIMIT", 0)
        return tfidf_top_terms(ds, "doc_id", "text", **kw).to_pandas()


def test_tf_batch_counts():
    batch = pa.table(
        {"doc_id": [1, 2], "text": ["a b a", "b c c c"]}
    )
    t = _tf_batch(batch, "doc_id", "text").to_pandas()
    got = {(r.doc_id, r.word): r.tf for r in t.itertuples()}
    assert got == {(1, "a"): 2, (1, "b"): 1, (2, "b"): 1, (2, "c"): 3}


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_tfidf_rare_term_wins(ray_session, monkeypatch, mode):
    # 'zebra' appears once in the corpus -> highest idf in doc 1
    rows = [
        {"doc_id": 1, "text": "common common zebra"},
        {"doc_id": 2, "text": "common word word"},
        {"doc_id": 3, "text": "common word other"},
    ]
    out = _top_terms(monkeypatch, mode, ray.data.from_items(rows), top_n=1)
    top = {r.doc_id: r.word for r in out.itertuples()}
    assert top[1] == "zebra"
    assert (out["rk"] == 1).all()


def test_tfidf_modes_equivalent(ray_session, monkeypatch):
    rng = np.random.RandomState(3)
    words = ["w%d" % i for i in range(30)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(words, size=12))}
        for i in range(40)
    ]
    ds = ray.data.from_items(rows)
    a, b = (
        _top_terms(monkeypatch, mode, ds, top_n=3)
        .sort_values(["doc_id", "rk"])
        .reset_index(drop=True)
        for mode in ("broadcast", "shuffle")
    )
    assert a.values.tolist() == b.values.tolist()


def test_inverted_index_cap_and_df(ray_session):
    import ray.data

    from opentapioca_ray.stages.tfidf import inverted_index

    rows = [
        {"doc_id": 3, "text": "apple banana"},
        {"doc_id": 1, "text": "apple apple cherry"},
        {"doc_id": 2, "text": "apple"},
    ]
    out = inverted_index(
        ray.data.from_items(rows).repartition(2), max_postings=2
    ).to_pandas()
    got = {r["word"]: (r["df"], r["postings"]) for _, r in out.iterrows()}
    # df counts ALL holders; postings capped at 2, sorted by doc_id
    assert got["apple"] == (3, "1,2")
    assert got["banana"] == (1, "3")
    assert got["cherry"] == (1, "1")


def test_word_cooccurrence_cap_and_threshold(ray_session):
    import ray.data

    from opentapioca_ray.stages.tfidf import word_cooccurrence

    rows = [
        {"doc_id": 1, "text": "a b c"},
        {"doc_id": 2, "text": "a b"},
        {"doc_id": 3, "text": "a c d e"},
    ]
    out = word_cooccurrence(
        ray.data.from_items(rows).repartition(2),
        max_words_per_doc=3,
        min_count=2,
    ).to_pandas()
    got = {(r["u"], r["v"]): r["n_docs"] for _, r in out.iterrows()}
    # (a,b) in docs 1+2; (a,c) in docs 1+3; doc 3's 'e' is capped away
    # (first 3 distinct words lexicographically: a c d)
    assert got == {("a", "b"): 2, ("a", "c"): 2}


def test_bigram_counts(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.tfidf import bigram_counts

    t = pa.table(
        {
            "text": [
                "the cat sat", "the cat ran", "", "sat",
            ]
        }
    )
    out = bigram_counts(
        ray.data.from_arrow(t).repartition(3), "text", min_count=2
    ).to_pandas()
    got = {(r["w1"], r["w2"]): r["n"] for _, r in out.iterrows()}
    # only ('the','cat') crosses min_count=2; bigrams never span docs
    assert got == {("the", "cat"): 2}
