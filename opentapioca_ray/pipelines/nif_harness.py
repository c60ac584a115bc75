"""End-to-end F1 harness on the reference's REAL labeled NIF corpora
(ISTEX / RSS-500 `.ttl` files shipped with opentapioca) — the
tag -> similarity -> classify -> evaluate flow of reference
`classifier.py:94-260` run over the Ray Data stages of this repo.

The reference tags against a Solr index of all of Wikidata, which is not
available in this environment. The self-contained stand-in builds the
entity catalog FROM THE CORPUS'S OWN GOLD ANNOTATIONS:

- every annotated entity (train + test) becomes a catalog row — like the
  Wikidata index, the dictionary covers all entities independent of the
  train/test split; classifier WEIGHTS are fit on the train file only;
- surface forms are the anchor texts observed for that entity;
- `nb_statements` / `nb_sitelinks` popularity proxies are the entity's
  TRAIN annotation count;
- the pagerank prior is computed by the repo's own 16-iteration
  L1-compensated power iteration (state/graph.py, reference
  wikidatagraph.py:131-157) over the entity co-annotation graph of the
  train file;
- real Wikidata qids (up to Q10^8) are remapped to dense local ids so the
  pagerank vector stays O(#entities) instead of O(max qid).

This exercises every production stage (trie tagger, BOW model,
similarity smoothing, design matrix, linear model, evaluation) on real
text with real gold labels.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa


def load_contexts(path: str) -> list[dict]:
    from opentapioca_ray.functions.nif import parse_nif_turtle

    with open(path) as f:
        return parse_nif_turtle(f.read())


def _gold_phrases(context: dict):
    return [p for p in context["phrases"] if p.get("gold_qid")]


def build_catalog(
    dictionary_contexts: list[dict], train_contexts: list[dict]
) -> tuple[pa.Table, np.ndarray, dict]:
    """(entities table with dense ids, pagerank vector, real->dense map).

    `dictionary_contexts` defines the entity inventory + surface forms (the
    Wikidata-index analog); popularity counts and the pagerank graph use
    `train_contexts` only.
    """
    from opentapioca_ray.state.graph import LinkGraph

    forms: dict[str, set] = {}
    for ctx in dictionary_contexts:
        for p in _gold_phrases(ctx):
            forms.setdefault(p["gold_qid"], set()).add(p["phrase"])
    real_qids = sorted(forms)
    qid_map = {q: f"Q{i}" for i, q in enumerate(real_qids)}
    dense_of = {q: i for i, q in enumerate(real_qids)}
    n = len(real_qids)

    counts: Counter = Counter()
    co: Counter = Counter()
    for ctx in train_contexts:
        ids = sorted(
            {dense_of[p["gold_qid"]] for p in _gold_phrases(ctx) if p["gold_qid"] in dense_of}
        )
        counts.update(ids)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                co[(a, b)] += 1
                co[(b, a)] += 1

    # row-normalized co-annotation edges -> the repo's pagerank kernel
    if co:
        src = np.array([k[0] for k in co], dtype=np.int64)
        dst = np.array([k[1] for k in co], dtype=np.int64)
        w = np.array([co[k] for k in co], dtype=np.float64)
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        row_sum = np.bincount(src, weights=w, minlength=n)
        g = LinkGraph.from_sorted_edges(src, dst, w / row_sum[src], shape=n)
        pagerank = g.compute_pagerank()
    else:
        pagerank = np.full(max(n, 1), 1.0 / max(n, 1))

    rows = []
    for q in real_qids:
        i = dense_of[q]
        surface = sorted(forms[q])
        edges = sorted(b for (a, b) in co if a == i)
        rows.append(
            {
                "id": qid_map[q],
                "label": surface[0],
                "aliases": surface[1:],
                "extra_aliases": [],
                "edges": edges,
                "nb_statements": int(counts.get(i, 0)),
                "nb_sitelinks": int(counts.get(i, 0)),
            }
        )
    entities = pa.Table.from_pylist(
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
    return entities, pagerank, qid_map


def gold_df(contexts: list[dict], qid_map: dict) -> pd.DataFrame:
    rows = [
        {
            "doc_id": ctx["uri"],
            "begin": p["begin"],
            "end": p["end"],
            "gold_qid": qid_map.get(p["gold_qid"]),
        }
        for ctx in contexts
        for p in _gold_phrases(ctx)
        if p["gold_qid"] in qid_map
    ]
    return pd.DataFrame(rows, columns=["doc_id", "begin", "end", "gold_qid"])


def tune_score_threshold(
    annotated_train: pd.DataFrame,
    gold_train: pd.DataFrame,
    candidates=None,
    precision_floor: float = 0.85,
) -> float:
    """Pick the accept-cut on the TRAIN split only: among candidate
    thresholds whose train precision stays above `precision_floor`,
    maximize train F1 (ties -> the most conservative cut). The reference's
    hard-coded `argmax > 0` is always a candidate, so this never does
    worse than reference behavior on the split it can see.

    The class-balanced squared-hinge boundary is systematically
    conservative when gold annotations are sparse (every unannotated
    mention trains as negative), so the F1-optimal cut sits below 0; what
    generalizes is chosen from train evidence only — the test split never
    informs it."""
    from opentapioca_ray.stages.classify import evaluate_predictions

    if candidates is None:
        candidates = [0.0] + [-0.1 * i for i in range(1, 31)]
    am = annotated_train.loc[
        annotated_train.groupby(["doc_id", "start", "end"])["score"].idxmax()
    ]
    best_thr, best_f1 = 0.0, -1.0
    for thr in sorted(candidates, reverse=True):
        pred = am[am["score"] > thr][["doc_id", "start", "end", "qid"]].rename(
            columns={"qid": "best_qid"}
        )
        m = evaluate_predictions(pred, gold_train)
        if m["precision"] >= precision_floor and m["f1"] > best_f1:
            best_thr, best_f1 = thr, m["f1"]
    return best_thr


def run_f1(
    train_path: str,
    test_path: str,
    nb_steps: int = 2,
    C: float = 1.0,
    max_contexts: int | None = None,
    similarity_smoothing: float = 0.3,
    max_similarity_distance: int = 200,
    tune_threshold: bool = True,
    precision_floor: float = 0.85,
) -> dict:
    """Train on the train file, evaluate micro P/R/F1 on the test file
    (reference classifier.py:221-260 metric definitions). The accept cut
    (`score_threshold`) is tuned on the train split when `tune_threshold`
    — see `tune_score_threshold`; everything the test split contributes is
    the final metric."""
    import ray.data

    from opentapioca_ray.pipelines.annotate import (
        annotate,
        tag_documents,
        train_annotation_model,
    )
    from opentapioca_ray.stages.classify import (
        ClassifierParams,
        evaluate_predictions,
    )
    from opentapioca_ray.state.bow import BOWLanguageModel

    train = load_contexts(train_path)
    test = load_contexts(test_path)
    if max_contexts:
        train = train[:max_contexts]
        test = test[:max_contexts]

    entities, pagerank, qid_map = build_catalog(train + test, train)

    # corpus-trained BOW over the train text (the reference trains its
    # language model on a public text dump the same way — one ingest per
    # document, reference languagemodel.py)
    from opentapioca_ray.functions.text import tokenize

    bow_model = BOWLanguageModel()
    for c in train:
        bow_model.ingest(tokenize(c["text"]))
    bow = {"word_count": bow_model.word_count, "total_count": bow_model.total_count}

    params = ClassifierParams(
        nb_steps=nb_steps,
        C=C,
        similarity_smoothing=similarity_smoothing,
        max_similarity_distance=max_similarity_distance,
    )
    train_ds = ray.data.from_items(
        [{"doc_id": c["uri"], "text": c["text"]} for c in train]
    )
    test_ds = ray.data.from_items(
        [{"doc_id": c["uri"], "text": c["text"]} for c in test]
    )

    gold_train = gold_df(train, qid_map)
    tags_train = tag_documents(train_ds, entities, bow, pagerank).materialize()
    model = train_annotation_model(tags_train, gold_train, params)

    if tune_threshold:
        annotated_train = annotate(
            train_ds, entities, bow, pagerank, model, params
        ).to_pandas()
        params.score_threshold = tune_score_threshold(
            annotated_train, gold_train, precision_floor=precision_floor
        )

    result = annotate(test_ds, entities, bow, pagerank, model, params).to_pandas()
    best = (
        result[result.is_best][["doc_id", "start", "end", "best_qid"]]
        .drop_duplicates()
    )
    gold_test = gold_df(test, qid_map)
    metrics = evaluate_predictions(best, gold_test)
    metrics["nb_gold"] = int(len(gold_test))
    metrics["nb_predictions"] = int(best.best_qid.notna().sum())
    metrics["nb_entities"] = int(entities.num_rows)
    metrics["score_threshold"] = float(params.score_threshold)
    return metrics
