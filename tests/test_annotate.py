"""End-to-end annotate pipeline: a synthetic five-affiliations-style corpus
(reference test_classifier.py:59-61 — doc 1 yields exactly 2 mentions),
training -> F1 on the toy corpus."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from opentapioca_ray.pipelines.annotate import (
    annotate,
    grid_search,
    tag_documents,
    train_annotation_model,
)
from opentapioca_ray.stages.classify import ClassifierParams, evaluate_predictions


def entities():
    rows = [
        {
            "id": "Q686",
            "label": "Vanuatu",
            "aliases": ["Republic of Vanuatu"],
            "extra_aliases": [],
            "edges": [458],
            "nb_statements": 30,
            "nb_sitelinks": 20,
        },
        {
            "id": "Q34",
            "label": "Sweden",
            "aliases": [],
            "extra_aliases": [],
            "edges": [458],
            "nb_statements": 80,
            "nb_sitelinks": 100,
        },
        {
            "id": "Q458",
            "label": "EU",
            "aliases": ["European Union"],
            "extra_aliases": [],
            "edges": [34],
            "nb_statements": 90,
            "nb_sitelinks": 60,
        },
        # decoy with same alias as Sweden but rare
        {
            "id": "Q999",
            "label": "Sweden",
            "aliases": [],
            "extra_aliases": [],
            "edges": [],
            "nb_statements": 1,
            "nb_sitelinks": 0,
        },
    ]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("id", pa.string()),
                ("label", pa.string()),
                ("aliases", pa.list_(pa.string())),
                ("extra_aliases", pa.list_(pa.string())),
                ("edges", pa.list_(pa.int64())),
                ("nb_statements", pa.int32()),
                ("nb_sitelinks", pa.int32()),
            ]
        ),
    )


def corpus():
    docs = [
        {"doc_id": "d1", "text": "I live in Vanuatu near Sweden"},
        {"doc_id": "d2", "text": "Sweden joined the EU a while ago"},
        {"doc_id": "d3", "text": "The European Union includes Sweden"},
        {"doc_id": "d4", "text": "Vanuatu and the EU signed a treaty"},
        {"doc_id": "d5", "text": "nothing relevant here"},
    ]
    gold = pd.DataFrame(
        [
            {"doc_id": "d1", "begin": 10, "end": 17, "gold_qid": "Q686"},
            {"doc_id": "d1", "begin": 23, "end": 29, "gold_qid": "Q34"},
            {"doc_id": "d2", "begin": 0, "end": 6, "gold_qid": "Q34"},
            {"doc_id": "d2", "begin": 18, "end": 20, "gold_qid": "Q458"},
            {"doc_id": "d3", "begin": 4, "end": 18, "gold_qid": "Q458"},
            {"doc_id": "d3", "begin": 28, "end": 34, "gold_qid": "Q34"},
            {"doc_id": "d4", "begin": 0, "end": 7, "gold_qid": "Q686"},
            {"doc_id": "d4", "begin": 16, "end": 18, "gold_qid": "Q458"},
        ]
    )
    return docs, gold


def bow_and_pagerank():
    counts = {"Vanuatu": 5, "Sweden": 9, "EU": 7, "the": 50, "in": 30}
    bow = {"word_count": counts, "total_count": 200}
    pr = np.full(1000, 1e-6)
    pr[686] = 3e-4
    pr[34] = 8e-4
    pr[458] = 9e-4
    pr[999] = 1e-6
    return bow, pr


def test_tag_documents_counts(ray_session):
    import ray.data

    docs, _ = corpus()
    bow, pr = bow_and_pagerank()
    tags = tag_documents(
        ray.data.from_items(docs), entities(), bow, pr, concurrency=1
    )
    df = tags.to_pandas()
    d1 = df[df.doc_id == "d1"]
    assert len(d1[["start", "end"]].drop_duplicates()) == 2  # two mentions
    # ambiguous Sweden has two candidates
    sweden = d1[(d1.start == 23)]
    assert set(sweden.qid) == {"Q34", "Q999"}


def test_train_and_annotate_f1(ray_session):
    import ray.data

    docs, gold = corpus()
    bow, pr = bow_and_pagerank()
    params = ClassifierParams(nb_steps=1, C=0.1)
    docs_ds = ray.data.from_items(docs)
    tags = tag_documents(docs_ds, entities(), bow, pr, concurrency=1).materialize()
    model = train_annotation_model(tags, gold, params)
    result = annotate(
        docs_ds, entities(), bow, pr, model, params, concurrency=1
    ).to_pandas()
    best = result[result.is_best][["doc_id", "start", "end", "best_qid"]].drop_duplicates()
    metrics = evaluate_predictions(best, gold)
    assert metrics["f1"] >= 0.8, metrics
    # the popular Sweden (Q34) must beat the decoy (Q999)
    d1 = best[(best.doc_id == "d1") & (best.start == 23)]
    assert list(d1.best_qid) == ["Q34"]


def test_grid_search_improves_or_matches(ray_session):
    import ray.data

    docs, gold = corpus()
    bow, pr = bow_and_pagerank()
    docs_df = pd.DataFrame(docs)
    tags = tag_documents(
        ray.data.from_items(docs), entities(), bow, pr, concurrency=1
    ).materialize()
    best_params, best_f1, best_model = grid_search(
        tags,
        docs_df,
        gold,
        grid={"nb_steps": [0, 1], "C": [0.1, 1.0]},
        k=2,
        max_iter=100,
    )
    assert best_model is not None
    assert best_f1 > 0.0


def test_resolve_tags_accepts_pandas_blocks(ray_session):
    """The block refs of a pandas-lineage tags Dataset hold pandas frames;
    `_resolve_tags` must rebuild the same rows as from Arrow blocks."""
    import ray
    import ray.data

    from opentapioca_ray.pipelines.annotate import _resolve_tags

    docs, _ = corpus()
    bow, pr = bow_and_pagerank()
    tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr)
    pandas_tags = tags.map_batches(lambda df: df, batch_format="pandas").materialize()
    refs = [r for b in pandas_tags.iter_internal_ref_bundles() for r in b.block_refs]
    assert any(isinstance(b, pd.DataFrame) for b in ray.get(refs))
    key = ["doc_id", "start", "end", "qid"]
    got = _resolve_tags(refs).sort_values(key).reset_index(drop=True)
    want = tags.to_pandas().sort_values(key).reset_index(drop=True)
    assert got[key].equals(want[key])
    assert np.allclose(got["rank"], want["rank"])


def test_build_design_matrix_matches_per_doc_path(ray_session):
    """The distributed design matrix (numeric feature columns collected
    from the exchange's blocks) holds the per-doc path's rows."""
    import ray.data

    from opentapioca_ray.pipelines.annotate import build_design_matrix
    from opentapioca_ray.stages.classify import (
        compute_similarities,
        doc_design_matrix,
        mentions_from_rows,
    )

    docs, gold = corpus()
    bow, pr = bow_and_pagerank()
    tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr).materialize()
    params = ClassifierParams(nb_steps=2)
    X, y, doc_hash = build_design_matrix(tags, gold, params)
    want = []
    for doc_id, doc_df in tags.to_pandas().groupby("doc_id"):
        mentions = mentions_from_rows(doc_df)
        compute_similarities(mentions, params)
        gold_doc = {(r.begin, r.end): r.gold_qid for r in gold[gold.doc_id == doc_id].itertuples()}
        Xd, yd = doc_design_matrix(mentions, gold_doc, params)
        want += [(tuple(np.round(x, 9)), int(v)) for x, v in zip(Xd, yd)]
    assert X.shape == (len(want), 15) and len(doc_hash) == len(want)
    assert sorted(zip(map(tuple, np.round(X, 9)), y.tolist())) == sorted(want)
    assert y.sum() > 0
