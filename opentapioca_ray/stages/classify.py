"""Candidate classification.

Re-expression of the reference's `SimpleTagClassifier`
(opentapioca/classifier.py:14-374). The within-document similarity graph,
feature propagation `[F, AF, A²F, …]` hstack, linear decision function and
argmax-with-positive-threshold winner are all LOCAL to one document, so
the Ray shape is one coarse exchange on hash(doc_id) followed by
`classify_partition_vectorized`: a columnar kernel that handles every
document of a partition at once, for every `nb_steps` (graph edges from a
sorted-interval join, similarities as set algebra on edge arrays,
propagation as a segment sum). Training collects the (small) design
matrix to the driver exactly like the reference does.

`mentions_from_rows` -> `compute_similarities` -> `classify_mentions`
(and `doc_design_matrix`) are the per-document dataclass path, kept as
the readable reference twin the kernel is fuzz-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.functions.similarities import get_similarity
from opentapioca_ray.state.linear import LinearModel


@dataclass
class TagRec:
    id: str
    label: str | None
    rank: float
    nb_statements: int
    nb_sitelinks: int
    edges: list[int]
    similarities: list[dict] = field(default_factory=list)
    score: float | None = None
    valid: bool | None = None


@dataclass
class MentionRec:
    doc_id: str
    phrase: str
    start: int
    end: int
    log_likelihood: float
    tags: list[TagRec]
    best_qid: str | None = None
    best_tag_label: str | None = None

    def key(self):
        return (self.start, self.end)

    def tag_key(self, qid):
        return (self.start, self.end, qid)


@dataclass
class ClassifierParams:
    """Hyperparameters (reference classifier.py:18-32).

    `score_threshold` generalizes the reference's hard-coded `argmax > 0`
    accept cut (classifier.py:310-339): a mention's best tag is kept iff
    its decision score exceeds the threshold. 0.0 IS the reference
    behavior; the NIF harness CV-tunes it on the train split only (the
    class-balanced squared-hinge boundary is systematically conservative
    on sparse gold annotations, so a small negative cut trades almost no
    precision for large recall)."""

    beta: float = 0.85
    nb_steps: int = 2
    C: float = 0.001
    max_similarity_distance: int = 100
    similarity_smoothing: float = 0.1
    similarity: str = "direct_link"
    score_threshold: float = 0.0


def mentions_from_rows(df: pd.DataFrame) -> list[MentionRec]:
    """Rebuild per-mention nested structure from flat (mention, tag) rows.

    Rows for one doc; tag order within a mention = rank desc (the tagger
    emits them that way; re-sorted here for safety after shuffles)."""
    mentions: list[MentionRec] = []
    for (start, end), grp in df.groupby(["start", "end"], sort=True):
        first = grp.iloc[0]
        tags = [
            TagRec(
                id=r.qid,
                label=r.label,
                rank=float(r.rank),
                nb_statements=int(r.nb_statements),
                nb_sitelinks=int(r.nb_sitelinks),
                edges=list(r.edges) if r.edges is not None else [],
            )
            for r in grp.itertuples()
        ]
        tags.sort(key=lambda t: -t.rank)
        mentions.append(
            MentionRec(
                doc_id=str(first.doc_id),
                phrase=str(first.phrase),
                start=int(start),
                end=int(end),
                log_likelihood=float(first.log_likelihood),
                tags=tags,
            )
        )
    return mentions


def compute_similarities(mentions: list[MentionRec], params: ClassifierParams) -> None:
    """Within-document tag-similarity graph (reference classifier.py:341-374):
    self-loop at `similarity_smoothing`, distance-decayed edge scores to tags
    of mentions within `max_similarity_distance` chars, normalized per tag to
    the probability simplex.

    With `nb_steps == 0` the propagation loop never runs and the adjacency
    is dead weight, so the O(mentions^2 x tags^2) graph build is skipped
    entirely."""
    if params.nb_steps == 0:
        return
    sim_fn = get_similarity(params.similarity, params.beta)
    maxd = params.max_similarity_distance
    for mention in mentions:
        start, end = mention.start, mention.end
        for tag in mention.tags:
            sims = [{"tag": mention.tag_key(tag.id), "score": params.similarity_smoothing}]
            qid_a = int(tag.id[1:]) if tag.id[1:].isdigit() else -1
            edges_a = set(tag.edges)
            for other in mentions:
                distance = max(start - other.end, other.start - end)
                if (other.start == start and other.end == end) or distance > maxd:
                    continue
                for other_tag in other.tags:
                    qid_b = int(other_tag.id[1:]) if other_tag.id[1:].isdigit() else -2
                    similarity = params.similarity_smoothing + sim_fn(
                        qid_a, qid_b, edges_a, set(other_tag.edges)
                    )
                    similarity *= float(maxd - distance) / maxd
                    if similarity > 0.0:
                        sims.append(
                            {"tag": other.tag_key(other_tag.id), "score": similarity}
                        )
            weight_sum = sum(s["score"] for s in sims)
            if weight_sum > 0.0:
                tag.similarities = [
                    {"tag": s["tag"], "score": s["score"] / weight_sum} for s in sims
                ]


def build_feature_matrix(mentions: list[MentionRec], nb_steps: int):
    """Base features [−ll, rank, nb_statements, nb_sitelinks, 1] +
    propagation `hstack([F, AF, A²F, …])` (reference classifier.py:262-308)."""
    feature_rows = []
    tag_key_to_idx: dict = {}
    for mention in mentions:
        for tag in mention.tags:
            tag_key_to_idx[mention.tag_key(tag.id)] = len(feature_rows)
            feature_rows.append(
                [
                    mention.log_likelihood,
                    tag.rank,
                    tag.nb_statements,
                    tag.nb_sitelinks,
                    1.0,
                ]
            )
    if not feature_rows:
        return np.zeros((0, 5 * (nb_steps + 1))), {}
    feature_array = np.asarray(feature_rows, dtype=np.float64)
    n = len(feature_array)
    adj = np.zeros((n, n))
    for mention in mentions:
        for tag in mention.tags:
            tag_idx = tag_key_to_idx[mention.tag_key(tag.id)]
            for similarity in tag.similarities:
                other_idx = tag_key_to_idx.get(similarity["tag"])
                if other_idx is None:
                    continue  # the tag was pruned
                adj[other_idx, tag_idx] = similarity["score"]
    mixed = feature_array
    parts = [feature_array]
    for _ in range(nb_steps):
        mixed = adj @ mixed
        parts.append(mixed)
    return np.hstack(parts), tag_key_to_idx


def classify_mentions(
    mentions: list[MentionRec], model: LinearModel, params: ClassifierParams
) -> None:
    """Score every tag; per mention keep argmax with score >
    params.score_threshold (reference classifier.py:310-339 keeps
    argmax > 0 — the default threshold)."""
    features, tag_key_to_idx = build_feature_matrix(mentions, params.nb_steps)
    scores = model.decision_function(features) if tag_key_to_idx else np.zeros(0)
    for mention in mentions:
        max_score = params.score_threshold
        best_tag = best_label = None
        for tag in mention.tags:
            tag.score = float(scores[tag_key_to_idx[mention.tag_key(tag.id)]])
            if tag.score > max_score:
                max_score = tag.score
                best_tag = tag.id
                best_label = tag.label
        mention.best_qid = best_tag
        mention.best_tag_label = best_label


def doc_design_matrix(
    mentions: list[MentionRec],
    gold: dict[tuple[int, int], str],
    params: ClassifierParams,
):
    """Training rows for one document: features + validity labels
    (reference classifier.py:160-208). `gold` maps (begin, end) -> qid."""
    for mention in mentions:
        gold_qid = gold.get(mention.key())
        if gold_qid is not None:
            for tag in mention.tags:
                tag.valid = tag.id == gold_qid
    features, tag_key_to_idx = build_feature_matrix(mentions, params.nb_steps)
    X, y = [], []
    for mention in mentions:
        for tag in mention.tags:
            idx = tag_key_to_idx.get(mention.tag_key(tag.id))
            if idx is not None:
                X.append(features[idx])
                y.append(int(tag.valid or False))
    return X, y


# ---------------------------------------------------------------------------
# Partition kernel (every nb_steps) and its Ray Data wrappers
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ["doc_id", "start", "end", "phrase", "qid", "score", "is_best", "best_qid"]


class PartitionRows(NamedTuple):
    """A partition's tag rows in the per-doc path's order, with features."""

    order: np.ndarray  # sorted position -> original row
    doc: np.ndarray  # doc_id as str, sorted
    start: np.ndarray
    end: np.ndarray
    seg_id: np.ndarray  # mention index of each sorted row
    seg_start: np.ndarray  # first sorted row of each mention
    first: np.ndarray  # original row the mention's ll/phrase come from
    X: np.ndarray  # [F, AF, …, A^nb_steps F]


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """Expand half-open ranges: -> (owner k, value) for value in [lo_k, hi_k)."""
    cnt = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(lo)), cnt)
    return owner, np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt) + lo[owner]


def _similarity_graph(doc, st, en, seg_start, qids, edges, params):
    """Within-document tag graph of `compute_similarities` as edge arrays
    (src, dst, w) over sorted rows, self-loops included and weights
    normalized per source tag.

    Mention pairs come from a sorted-interval join: for mentions i < j in
    (doc, start) order the distance is start_j - end_i, so j runs up to a
    searchsorted bound and memory follows local density, not doc size.
    The similarity measures are set algebra on the deduplicated
    (row, edge) keys: membership by searchsorted, common neighbours by
    probing the smaller edge set of each pair."""
    n, maxd = len(qids), params.max_similarity_distance
    m_st, m_en, m_nt = st[seg_start], en[seg_start], np.diff(np.append(seg_start, n))
    lo = m_st.min()
    key = doc[seg_start] * (int(m_en.max() - lo) + maxd + 2) - lo
    bound = np.searchsorted(key + m_st, key + m_en + maxd, side="right")
    mi, mj = _ranges(np.arange(1, len(key) + 1), bound)
    dist = np.maximum(m_st[mi] - m_en[mj], m_st[mj] - m_en[mi])
    p, k = _ranges(np.zeros(len(mi), dtype=np.int64), m_nt[mi] * m_nt[mj])
    a, b = seg_start[mi][p] + k // m_nt[mj][p], seg_start[mj][p] + k % m_nt[mj][p]

    lists = pa.array(edges, type=pa.list_(pa.int64()), from_pandas=True)
    e_val = lists.flatten().to_numpy(zero_copy_only=False)
    # int(qid[1:]) as the per-doc path reads it: a non-numeric qid is -1 on
    # the scanning side (qid_a) and -2 on the other side (qid_b)
    tail = pd.Series(qids, dtype=object).astype(str).str[1:]
    q_src = np.where(tail.str.isdigit(), tail, "-1").astype(np.int64)
    q_dst = np.where(q_src < 0, -2, q_src)
    codes = pd.factorize(np.concatenate([e_val, q_src, q_dst]))[0]
    V, ne = int(codes.max()) + 1, len(e_val)
    c_src, c_dst = codes[ne : ne + n], codes[ne + n :]
    e_row = np.repeat(np.arange(n), lists.value_lengths().fill_null(0).to_numpy())
    ekeys = np.append(np.unique(e_row * V + codes[:ne]), np.iinfo(np.int64).max)
    deg = np.bincount(ekeys[:-1] // V, minlength=n)  # len(set(edges))

    def has(rows, code):
        q = rows * V + code
        return ekeys[np.searchsorted(ekeys, q)] == q

    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    eq = q_src[src] == q_dst[dst]
    fwd = has(src, c_dst[dst])  # qid_b in edges_a
    back = has(dst, c_src[src])  # qid_a in edges_b
    if params.similarity == "direct_link":
        sim = (eq | fwd).astype(np.float64) + (eq | back)
    elif params.similarity in ("edge_ratio", "one_step"):
        x = np.where(deg[a] <= deg[b], a, b)
        x_off = np.searchsorted(ekeys, x * V)
        owner, pos = _ranges(x_off, x_off + deg[x])
        common = np.bincount(owner, has((a + b - x)[owner], ekeys[pos] % V), len(a))
        common = np.concatenate([common, common])
        with np.errstate(divide="ignore", invalid="ignore"):
            if params.similarity == "edge_ratio":  # both sets gain their own qid
                own_a, own_b = has(src, c_src[src]), has(dst, c_dst[dst])
                common = common + (fwd & ~own_b) + (back & ~own_a) + (eq & ~own_a & ~own_b)
                sim = 0.5 * (common / (deg[src] + ~own_a) + common / (deg[dst] + ~own_b))
            else:
                beta = params.beta
                sim = np.where(eq, beta * beta, 0.0)
                sim = sim + np.where(fwd, (1 - beta) * beta / deg[src], 0.0)
                sim = sim + np.where(back, beta * (1 - beta) / deg[dst], 0.0)
                walk = (1 - beta) * (1 - beta) * (common / deg[src]) * (common / deg[dst])
                sim = sim + np.where(common > 0, walk, 0.0)
    else:
        raise ValueError(f"unknown similarity: {params.similarity}")
    smoothing = params.similarity_smoothing
    w = (smoothing + sim) * ((maxd - np.concatenate([dist[p], dist[p]])) / maxd)
    keep = w > 0.0
    src = np.concatenate([np.arange(n), src[keep]])
    dst = np.concatenate([np.arange(n), dst[keep]])
    w = np.concatenate([np.full(n, smoothing), w[keep]])
    total = np.bincount(src, w, n)[src]
    keep = total > 0.0  # a tag whose weights sum to <= 0 gets no edges
    return src[keep], dst[keep], w[keep] / total[keep]


def _propagate(F: np.ndarray, graph, rows_doc: np.ndarray, nb_steps: int) -> np.ndarray:
    """`hstack([F, AF, A²F, …])` with A[dst, src] = w, as one segment sum
    (bincount) per feature column and step. The per-doc path multiplies a
    dense matrix, so 0 * nan and 0 * inf turn a non-finite feature into
    nan for every row of its document that no edge connects it to; that
    is reproduced here."""
    src, dst, w = graph
    n = len(F)

    def step(col: np.ndarray) -> np.ndarray:
        out = np.bincount(dst, w * col[src], n)
        bad = ~np.isfinite(col)
        if bad.any():
            reached = np.bincount(dst, bad[src], n)
            out[reached < np.bincount(rows_doc, bad)[rows_doc]] = np.nan
        return out

    mixed, parts = np.ascontiguousarray(F.T), [F]
    for _ in range(nb_steps):
        mixed = np.array([step(col) for col in mixed])
        parts.append(mixed.T)
    return np.hstack(parts)


def partition_features(df: pd.DataFrame, params: ClassifierParams) -> PartitionRows:
    """Feature matrix of `build_feature_matrix` for a whole partition of
    (mention, tag) rows, many documents at once. Rows are sorted by doc
    (first appearance), start, end, rank desc, original row order, which
    is the per-doc path's order; a mention's log_likelihood and phrase
    come from its first original row (`grp.iloc[0]`)."""
    n = len(df)
    doc = df["doc_id"].astype(str).to_numpy(dtype=object)
    doc_code = pd.factorize(doc, sort=False)[0]
    start, end = (df[c].to_numpy(dtype=np.int64) for c in ("start", "end"))
    rank = df["rank"].to_numpy(dtype=np.float64)
    order = np.lexsort((-rank, end, start, doc_code))  # stable: ties keep row order
    dc, st, en = doc_code[order], start[order], end[order]
    new_seg = np.r_[True, (np.diff(np.column_stack([dc, st, en]), axis=0) != 0).any(axis=1)]
    seg_id = np.cumsum(new_seg) - 1
    seg_start = np.flatnonzero(new_seg)
    first = np.minimum.reduceat(order, seg_start)
    F = np.column_stack(
        [
            df["log_likelihood"].to_numpy(dtype=np.float64)[first][seg_id],
            df[["rank", "nb_statements", "nb_sitelinks"]].to_numpy(dtype=np.float64)[order],
            np.ones(n),
        ]
    )
    X = F
    if params.nb_steps:
        qids, edges = (df[c].to_numpy(dtype=object)[order] for c in ("qid", "edges"))
        graph = _similarity_graph(dc, st, en, seg_start, qids, edges, params)
        X = _propagate(F, graph, dc, params.nb_steps)
    return PartitionRows(order, doc[order], st, en, seg_id, seg_start, first, X)


def classify_partition_vectorized(
    df: pd.DataFrame, model: LinearModel, params: ClassifierParams
) -> pd.DataFrame:
    """The classifier over a whole partition, for every nb_steps: one
    feature build, one matmul, and a segment argmax per mention. The
    winner is the per-doc path's: the first maximal score in (rank desc,
    row order), kept only if it is > `score_threshold`; nan never wins.
    Fuzz-pinned against `classify_mentions` in
    tests/test_classify_vectorized.py."""
    if df.empty:
        return pd.DataFrame(columns=RESULT_COLUMNS)
    rows = partition_features(df, params)
    n = len(rows.order)
    sc = model.decision_function(rows.X)
    seg_max = np.fmax.reduceat(sc, rows.seg_start)
    hit = np.where(sc == seg_max[rows.seg_id], np.arange(n), n)
    win_idx = np.minimum.reduceat(hit, rows.seg_start)
    accepted = seg_max > params.score_threshold
    qid = df["qid"].to_numpy(dtype=object)[rows.order]
    best = np.where(accepted, qid[np.minimum(win_idx, n - 1)], None)
    is_best = np.zeros(n, dtype=bool)
    is_best[win_idx[accepted]] = True
    return pd.DataFrame(
        {
            "doc_id": rows.doc,
            "start": rows.start,
            "end": rows.end,
            "phrase": df["phrase"].to_numpy(dtype=object)[rows.first][rows.seg_id],
            "qid": qid,
            "score": sc,
            "is_best": is_best,
            "best_qid": best[rows.seg_id],
        },
        columns=RESULT_COLUMNS,
    )


def design_rows_vectorized(
    df: pd.DataFrame, gold: pd.DataFrame, params: ClassifierParams
):
    """`doc_design_matrix` for a whole partition: `(doc_ids, X, y)` in the
    per-doc path's row order. y is 1 where the tag's qid is its mention's
    gold qid (gold keyed by str doc_id, begin, end; the last duplicate
    wins); unlabeled mentions contribute y=0 rows.

    `gold` columns: doc_id, begin, end, gold_qid."""
    if df.empty:
        X = np.zeros((0, 5 * (params.nb_steps + 1)))
        return np.zeros(0, dtype=object), X, np.zeros(0, dtype=np.int64)
    rows = partition_features(df, params)
    qid = df["qid"].to_numpy(dtype=object)[rows.order]
    y = np.zeros(len(qid), dtype=np.int64)
    if len(gold):
        g = gold.astype({"doc_id": str}).drop_duplicates(["doc_id", "begin", "end"], keep="last")
        merged = pd.DataFrame(
            {"doc_id": rows.doc, "begin": rows.start, "end": rows.end}
        ).merge(g, on=["doc_id", "begin", "end"], how="left")
        y = (merged["gold_qid"].to_numpy(dtype=object) == qid).astype(np.int64)
    return rows.doc, rows.X, y


def classify_dataset(tags_ds, model: LinearModel, params: ClassifierParams):
    """tags Dataset -> per-tag scores + per-mention winners. The model ships
    as a plain dict inside the closure (small). ONE coarse-partition
    exchange on hash(doc_id) % P (stages/exchange.py) puts whole documents
    in one partition, and `classify_partition_vectorized` classifies all
    of them at once: no per-document Python loop, no Ray-level per-doc
    `map_groups`."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    model_dict = model.to_dict()

    def partition_fn(df: pd.DataFrame) -> pd.DataFrame:
        return classify_partition_vectorized(df, LinearModel.from_dict(model_dict), params)

    return coarse_group_apply(tags_ds, "doc_id", partition_fn)


def evaluate_predictions(pred_best: pd.DataFrame, gold: pd.DataFrame) -> dict:
    """Micro precision/recall/F1 (reference classifier.py:221-260).

    `pred_best`: one row per mention with best_qid (may be None).
    `gold`: doc_id, begin, end, gold_qid.
    """
    merged = pred_best.merge(
        gold,
        left_on=["doc_id", "start", "end"],
        right_on=["doc_id", "begin", "end"],
        how="left",
    )
    has_pred = merged["best_qid"].notna()
    nb_predictions = int(has_pred.sum())
    nb_valid = int((merged["best_qid"] == merged["gold_qid"]).sum())
    nb_judgments = len(gold)
    precision = nb_valid / nb_predictions if nb_predictions else 1.0
    recall = nb_valid / nb_judgments if nb_judgments else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}
