"""The partition classify kernel == the per-doc dataclass path.

`classify_partition_vectorized` and `design_rows_vectorized` must
reproduce the MentionRec/TagRec path row for row, for every nb_steps and
similarity measure: same feature matrix and scores (to 1e-9), same
winner under the strict-argmax (rank desc, original row order)
tie-break. The seeded fuzz draws multi-doc partitions in shuffled row
order with overlapping spans, mentions exactly at (and one below)
`max_similarity_distance`, non-empty edge lists that name other
candidates, repeated and non-numeric qids, and nan log_likelihoods.

Exact score ties only survive float rounding when the arithmetic is exact
(BLAS rounds identical rows differently depending on where they sit in
the matrix), so tie draws use dyadic features and a model that weighs
only the base features; generic draws use continuous features, where
ties do not occur.
"""

import itertools

import numpy as np
import pandas as pd
import pytest

from opentapioca_ray.stages.classify import (
    ClassifierParams,
    RESULT_COLUMNS,
    classify_mentions,
    classify_partition_vectorized,
    compute_similarities,
    design_rows_vectorized,
    doc_design_matrix,
    mentions_from_rows,
)
from opentapioca_ray.state.linear import LinearModel

SIMILARITIES = ["direct_link", "edge_ratio", "one_step"]
MAXD = 30
QIDS = [f"Q{i}" for i in range(1, 13)] + ["Qx", "P7a", "Q", "L3b"]


def make_model(w, b):
    return LinearModel.from_dict(
        {
            "C": 0.001,
            "max_iter": 1,
            "lr": 0.05,
            "w": list(w),
            "b": b,
            "mean": [0.0] * len(w),
            "scale": [1.0] * len(w),
        }
    )


def reference_rows(df, model, params):
    out = []
    for _, doc_df in df.groupby("doc_id", sort=False):
        mentions = mentions_from_rows(doc_df)
        compute_similarities(mentions, params)
        classify_mentions(mentions, model, params)
        for m in mentions:
            for t in m.tags:
                out.append(
                    {
                        "doc_id": m.doc_id,
                        "start": m.start,
                        "end": m.end,
                        "phrase": m.phrase,
                        "qid": t.id,
                        "score": t.score,
                        "is_best": t.id == m.best_qid,
                        "best_qid": m.best_qid,
                    }
                )
    return pd.DataFrame(out, columns=RESULT_COLUMNS)


def random_spans(rng):
    """Unique spans for one doc: random (often overlapping) ones, plus a
    mention exactly MAXD and one MAXD - 1 past the first one's end."""
    spans = set()
    for _ in range(int(rng.integers(0, 6))):
        s = int(rng.integers(0, 120))
        spans.add((s, s + int(rng.integers(1, 12))))
    if spans and rng.random() < 0.6:
        s0, e0 = min(spans)
        spans.add((e0 + MAXD, e0 + MAXD + 4))
        spans.add((e0 + MAXD - 1, e0 + MAXD + 2))
    return sorted(spans)


def random_partition(seed, n_docs=5, ties=False, nan=False):
    """Shuffled (mention, tag) rows of several docs. `ties`: dyadic
    features with duplicated rows inside a mention. `nan`: some mentions
    get a nan log_likelihood on one row (first or not)."""
    rng = np.random.default_rng(seed)
    rows = []
    for d in range(n_docs):
        for start, end in random_spans(rng):
            n_tags = int(rng.integers(1, 5))
            qids = rng.choice(QIDS, size=n_tags, replace=False)
            ll = float(rng.integers(0, 8)) / 2 if ties else float(rng.normal())
            nan_row = int(rng.integers(n_tags)) if nan and rng.random() < 0.3 else -1
            for t, qid in enumerate(qids):
                base = int(rng.integers(0, 2)) if ties else t
                edges = None
                if rng.random() < 0.8:
                    edges = [int(e) for e in rng.integers(1, 13, size=int(rng.integers(0, 5)))]
                rows.append(
                    {
                        "doc_id": f"doc{d}",
                        "start": start,
                        "end": end,
                        "phrase": f"p{start}_{t}",
                        "log_likelihood": np.nan if t == nan_row else ll,
                        "qid": str(qid),
                        "label": "L",
                        "rank": 4.0 - base if ties else float(rng.normal()),
                        "nb_statements": base % 3 if ties else int(rng.integers(0, 50)),
                        "nb_sitelinks": (base * 2) % 3 if ties else int(rng.integers(0, 50)),
                        "edges": edges,
                    }
                )
    df = pd.DataFrame(rows)
    return df.iloc[rng.permutation(len(df))].reset_index(drop=True) if len(df) else df


def draw_model(seed, nb_steps, ties):
    k = 5 * (nb_steps + 1)
    if ties:
        # exact arithmetic: dyadic weights on the base features only
        return make_model([0.5, 1.0, 0.25, -0.5, 0.0] + [0.0] * (k - 5), -3.0)
    rng = np.random.default_rng(seed + 1000)
    return make_model(rng.normal(size=k), float(rng.normal()))


def assert_same_rows(got, want, case=""):
    assert got.columns.tolist() == want.columns.tolist() == RESULT_COLUMNS
    assert len(got) == len(want), case
    np.testing.assert_allclose(
        got["score"].astype(float), want["score"].astype(float), rtol=0, atol=1e-9,
        err_msg=case,
    )
    for col in RESULT_COLUMNS:
        if col != "score":
            assert got[col].tolist() == want[col].tolist(), (case, col)


CASES = list(itertools.product([0, 1, 2], SIMILARITIES))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_vectorized_matches_reference(seed):
    """Every nb_steps x similarity, on a generic and on a tie draw."""
    for (nb_steps, similarity), ties in itertools.product(CASES, [False, True]):
        case = f"seed={seed} nb_steps={nb_steps} {similarity} ties={ties}"
        df = random_partition(seed * 7 + nb_steps, ties=ties, nan=seed % 2 == 0 and not ties)
        assert df["doc_id"].nunique() > 1
        params = ClassifierParams(
            nb_steps=nb_steps, similarity=similarity, max_similarity_distance=MAXD
        )
        model = draw_model(seed, nb_steps, ties)
        want = reference_rows(df, model, params)
        assert_same_rows(classify_partition_vectorized(df, model, params), want, case)
        if ties:  # the draw really has ties and winners
            assert want["best_qid"].notna().any(), case
            assert want.duplicated(["doc_id", "start", "end", "score"]).any(), case


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_design_rows_vectorized_matches_doc_design_matrix(seed):
    df = random_partition(seed + 40)
    gold = random_gold(df, seed)
    gold_by_doc = {}
    for r in gold.itertuples():
        gold_by_doc.setdefault(str(r.doc_id), {})[(r.begin, r.end)] = r.gold_qid
    for nb_steps, similarity in CASES:
        case = f"seed={seed} nb_steps={nb_steps} {similarity}"
        params = ClassifierParams(
            nb_steps=nb_steps, similarity=similarity, max_similarity_distance=MAXD
        )
        docs, X, y = design_rows_vectorized(df, gold, params)
        want_docs, want_X, want_y = [], [], []
        for doc_id, doc_df in df.groupby("doc_id", sort=False):
            mentions = mentions_from_rows(doc_df)
            compute_similarities(mentions, params)
            Xd, yd = doc_design_matrix(mentions, gold_by_doc.get(str(doc_id), {}), params)
            want_docs += [str(doc_id)] * len(Xd)
            want_X += Xd
            want_y += yd
        assert docs.tolist() == want_docs, case
        np.testing.assert_allclose(X, np.asarray(want_X), rtol=0, atol=1e-9, err_msg=case)
        assert y.tolist() == want_y, case
        assert 0 < y.sum() < len(y), case


def test_nan_log_likelihood_on_first_row():
    """A mention's features come from its positional first row, even when
    that row's log_likelihood is nan (a nan-skipping "first" would read
    the next row); nan scores never win, and at nb_steps > 0 the nan
    reaches the whole document like the per-doc dense matmul."""
    rows = [
        ("d1", 0, 4, np.nan, "Q1", 2.0),
        ("d1", 0, 4, 1.0, "Q2", 1.0),
        ("d1", 200, 204, 1.0, "Q3", 1.0),
        ("d2", 0, 4, 1.0, "Q1", 2.0),
        ("d2", 0, 4, np.nan, "Q2", 1.0),
    ]
    df = pd.DataFrame(
        [
            {"doc_id": d, "start": s, "end": e, "phrase": "p", "log_likelihood": ll,
             "qid": q, "label": q, "rank": r, "nb_statements": 1, "nb_sitelinks": 1,
             "edges": []}
            for d, s, e, ll, q, r in rows
        ]
    )
    for nb_steps in (0, 2):
        params = ClassifierParams(nb_steps=nb_steps)
        model = make_model([0.1] * 5 * (nb_steps + 1), 5.0)
        got = classify_partition_vectorized(df, model, params)
        assert_same_rows(got, reference_rows(df, model, params))
        best = got.drop_duplicates(["doc_id", "start"]).set_index(["doc_id", "start"])
        assert best.loc[("d1", 0), "best_qid"] is None
        assert best.loc[("d2", 0), "best_qid"] == "Q1"
        assert (best.loc[("d1", 200), "best_qid"] is None) == (nb_steps > 0)


def test_empty_partition():
    params = ClassifierParams()
    got = classify_partition_vectorized(pd.DataFrame(), make_model([1.0] * 15, 0.0), params)
    assert got.empty and got.columns.tolist() == RESULT_COLUMNS
    docs, X, y = design_rows_vectorized(pd.DataFrame(), pd.DataFrame(), params)
    assert len(docs) == len(y) == 0 and X.shape == (0, 15)


def test_threshold_respected():
    df = random_partition(7)
    params = ClassifierParams(nb_steps=0, score_threshold=0.5)
    model = make_model([0.0, 1.0, 0.0, 0.0, 0.0], 0.0)  # score = rank
    got = classify_partition_vectorized(df, model, params)
    assert (got[got.is_best]["score"] > 0.5).all()
    rejected_mentions = got[got.best_qid.isna()]
    # every mention with no winner has ALL its scores <= threshold
    assert (
        rejected_mentions.groupby(["doc_id", "start", "end"])["score"].max()
        <= 0.5
    ).all()


def random_gold(df, seed):
    """Gold for ~half the mentions; some with qids not among the tags."""
    rng = np.random.default_rng(seed + 99)
    rows = []
    for (d, s, e), grp in df.groupby(["doc_id", "start", "end"]):
        r = rng.random()
        if r < 0.4:
            rows.append(
                {"doc_id": d, "begin": s, "end": e,
                 "gold_qid": grp["qid"].iloc[int(rng.integers(len(grp)))]}
            )
        elif r < 0.55:
            rows.append({"doc_id": d, "begin": s, "end": e, "gold_qid": "Q_none"})
    return pd.DataFrame(rows, columns=["doc_id", "begin", "end", "gold_qid"])
