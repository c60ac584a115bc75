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
from opentapioca_ray.state.linear import LinearModel


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
    tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr)
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
    tags = tag_documents(docs_ds, entities(), bow, pr).materialize()
    model = train_annotation_model(tags, gold, params)
    result = annotate(docs_ds, entities(), bow, pr, model, params).to_pandas()
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
    tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr).materialize()
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


def _fixed_model(nb_steps: int) -> LinearModel:
    """A model fitted in-process on random rows: no Ray execution."""
    rng = np.random.RandomState(5)
    X = rng.randn(40, 5 * (nb_steps + 1))
    return LinearModel(C=0.1, max_iter=50).fit(X, (X[:, 0] > 0).astype(int))


def test_annotate_and_collect_run_once(ray_session, ray_execs):
    """Tagging, classifying and collecting the result are one Ray Data
    execution, whether the input is `annotate`'s documents or lazy tags
    handed to `classify_dataset`: below `_DRIVER_CLASSIFY_LIMIT` tag rows
    classify materializes the tags (the one execution), runs its kernel
    on the driver and returns one materialized block. Over tags that are
    already materialized, classify plus the collect run none."""
    import ray.data

    from opentapioca_ray.stages.classify import classify_dataset
    from opentapioca_ray.stages.exchange import arrow_blocks

    docs, _ = corpus()
    bow, pr = bow_and_pagerank()
    params = ClassifierParams(nb_steps=2)
    model = _fixed_model(params.nb_steps)
    docs_ds = ray.data.from_items(docs)

    start = ray_execs()
    annotated = list(arrow_blocks(annotate(docs_ds, entities(), bow, pr, model, params)))
    assert ray_execs() - start == 1

    start = ray_execs()
    lazy_tags = tag_documents(docs_ds, entities(), bow, pr)
    classified = list(arrow_blocks(classify_dataset(lazy_tags, model, params)))
    assert ray_execs() - start == 1

    tags = tag_documents(docs_ds, entities(), bow, pr).materialize()
    start = ray_execs()
    from_materialized = list(arrow_blocks(classify_dataset(tags, model, params)))
    assert ray_execs() - start == 0

    n_tags = tags.count()
    assert sum(t.num_rows for t in annotated) == n_tags
    assert sum(t.num_rows for t in classified) == n_tags
    assert sum(t.num_rows for t in from_materialized) == n_tags


def test_classify_builds_no_from_arrow_dataset(ray_session, from_arrow_calls):
    """Below `_DRIVER_CLASSIFY_LIMIT` tag rows the driver-classified
    result becomes a Dataset through `driver_dataset`: classifying lazy
    tags and collecting the result builds no `from_arrow_refs` Dataset
    (one remote metadata task per block)."""
    import ray.data

    from opentapioca_ray.stages.classify import classify_dataset
    from opentapioca_ray.stages.exchange import arrow_blocks

    docs, _ = corpus()
    bow, pr = bow_and_pagerank()
    params = ClassifierParams(nb_steps=2)
    lazy_tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr)
    result = classify_dataset(lazy_tags, _fixed_model(params.nb_steps), params)
    assert sum(t.num_rows for t in arrow_blocks(result)) > 0
    assert from_arrow_calls() == 0


def _classified(tags, model, params) -> pa.Table:
    """`classify_dataset`'s blocks, each checked against the fixed result
    schema, concatenated in (doc_id, start, end, qid) order. The exchange
    may add empty blocks without columns (Ray Data's shuffle output)."""
    from opentapioca_ray.stages.classify import RESULT_SCHEMA, classify_dataset
    from opentapioca_ray.stages.exchange import arrow_blocks

    blocks = [t for t in arrow_blocks(classify_dataset(tags, model, params)) if t.num_columns]
    assert blocks and all(t.schema.equals(RESULT_SCHEMA) for t in blocks)
    key = [(c, "ascending") for c in ("doc_id", "start", "end", "qid")]
    return pa.concat_tables(blocks).sort_by(key)


def _both_regimes(monkeypatch, run):
    """`run()` at the default classify limit, then with the limit at 0
    (the doc_id exchange for any non-empty tags)."""
    from opentapioca_ray.stages import classify

    driver = run()
    with monkeypatch.context() as m:
        m.setattr(classify, "_DRIVER_CLASSIFY_LIMIT", 0)
        return driver, run()


@pytest.mark.parametrize("nb_steps", [0, 2])
def test_classify_regimes_agree(ray_session, monkeypatch, ray_execs, nb_steps):
    """The driver regime and the doc_id exchange give the same rows, the
    same Arrow schema and the same design matrix; the driver regime's
    result is one block whose collect runs no execution, the exchange's
    collect runs one."""
    import ray.data

    from opentapioca_ray.pipelines.annotate import build_design_matrix

    docs, gold = corpus()
    bow, pr = bow_and_pagerank()
    tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr).materialize()
    params = ClassifierParams(nb_steps=nb_steps)
    model = _fixed_model(nb_steps)

    def classify_counted():
        start = ray_execs()
        out = _classified(tags, model, params)
        return out, ray_execs() - start

    (driver, driver_execs), (shuffle, shuffle_execs) = _both_regimes(
        monkeypatch, classify_counted
    )
    assert (driver_execs, shuffle_execs) == (0, 1)
    assert driver.num_rows == tags.count() and driver.equals(shuffle)
    assert driver.column("best_qid").null_count < driver.num_rows  # some mention won

    def design():
        X, y, doc_hash = build_design_matrix(tags, gold, params)
        return sorted(zip(map(tuple, X), y.tolist(), doc_hash.tolist()))

    driver_rows, shuffle_rows = _both_regimes(monkeypatch, design)
    assert len(driver_rows) == tags.count() and driver_rows == shuffle_rows


def test_classify_edge_cases_keep_schema(ray_session, monkeypatch):
    """Empty tags give one empty block with the fixed result schema (and
    an empty design matrix); with no winning mention `best_qid` stays a
    null string column; a document whose rows arrive in two input blocks
    is classified as one, in both regimes."""
    import ray.data

    from opentapioca_ray.pipelines.annotate import build_design_matrix
    from opentapioca_ray.stages.classify import RESULT_COLUMNS
    from opentapioca_ray.stages.exchange import arrow_blocks

    docs, gold = corpus()
    bow, pr = bow_and_pagerank()
    params = ClassifierParams(nb_steps=1)
    model = _fixed_model(params.nb_steps)

    quiet = [{"doc_id": "d5", "text": "nothing relevant here"}]
    empty = tag_documents(ray.data.from_items(quiet), entities(), bow, pr).materialize()
    assert empty.count() == 0
    result = _classified(empty, model, params)
    assert result.num_rows == 0 and result.column_names == RESULT_COLUMNS
    X, y, doc_hash = build_design_matrix(empty, gold, params)
    assert X.shape == (0, 10) and len(y) == len(doc_hash) == 0

    tags = tag_documents(ray.data.from_items(docs), entities(), bow, pr).materialize()
    strict = ClassifierParams(nb_steps=1, score_threshold=np.inf)
    for none_won in _both_regimes(monkeypatch, lambda: _classified(tags, model, strict)):
        assert none_won.num_rows == tags.count()
        assert none_won.schema.field("best_qid").type == pa.string()
        assert none_won.column("best_qid").null_count == none_won.num_rows

    table = pa.concat_tables([t for t in arrow_blocks(tags) if t.num_rows]).sort_by("doc_id")
    d1 = np.flatnonzero(table.column("doc_id").to_numpy(zero_copy_only=False) == "d1")
    assert len(d1) >= 3
    cut = int(d1[0]) + 1
    split = ray.data.from_arrow([table.slice(0, cut), table.slice(cut)]).materialize()
    whole = _classified(tags, model, params)
    for got in _both_regimes(monkeypatch, lambda: _classified(split, model, params)):
        assert got.equals(whole)
