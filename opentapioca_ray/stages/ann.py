"""Similarity search over an embedding column (`list<float>`).

- `brute_force_topk`: baseline — the query matrix is broadcast once via
  `ray.put`, every batch does one numpy matmul against it, global top-k per
  query is a small groupby at the end. Streams the corpus; never
  materializes it.
- `ivf_topk`: scale path — coarse k-means centroids (trained on a driver
  sample, broadcast), each corpus vector is assigned to its nearest
  centroid bucket, queries probe only the `nprobe` nearest buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.functions.vectors import list_to_matrix
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


def _unit(mat: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(mat, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return mat / norm


def brute_force_topk(
    ds,
    queries: np.ndarray,
    query_ids: list,
    k: int = 10,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
):
    """Exact cosine top-k: per batch, keep the local top-k per query
    (combiner), then reduce with a per-query groupby top-k."""
    import ray

    qmat_ref = ray.put(_unit(np.asarray(queries, dtype=np.float64)))
    qids = list(query_ids)

    qids_arr = np.asarray(qids, dtype=np.int64)

    def score_batch(batch: pa.Table) -> pa.Table:
        qmat = ray.get(qmat_ref)
        vecs = _unit(list_to_matrix(batch.column(vector_column)))
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        sims = qmat @ vecs.T  # (nq, batch)
        kk = min(k, sims.shape[1])
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]  # (nq, kk)
        return pa.table(
            {
                "query_id": pa.array(np.repeat(qids_arr, kk), type=pa.int64()),
                "vec_id": pa.array(ids[top].ravel(), type=pa.int64()),
                "cosine": pa.array(
                    np.take_along_axis(sims, top, axis=1).ravel(), type=pa.float64()
                ),
            }
        )

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["cosine", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    partial = ds.map_batches(score_batch, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


def train_centroids(
    ds, n_centroids: int = 16, sample_size: int = 2000, vector_column: str = "embedding", iters: int = 10
) -> np.ndarray:
    """Deterministic k-means on a driver-side sample (the small side)."""
    sample = ds.limit(sample_size).to_pandas()
    mat = _unit(np.array(sample[vector_column].tolist(), dtype=np.float64))
    rng = np.random.RandomState(42)
    centroids = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)]
    for _ in range(iters):
        assign = (mat @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = mat[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _unit(centroids)
    return centroids


def ivf_topk(
    ds,
    queries: np.ndarray,
    query_ids: list,
    centroids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
):
    """IVF: corpus rows keep only their nearest-centroid bucket; each query
    scores only rows in its `nprobe` closest buckets."""
    import ray

    qmat = _unit(np.asarray(queries, dtype=np.float64))
    cent_ref = ray.put(_unit(np.asarray(centroids, dtype=np.float64)))
    # per-query probe sets (small, in closure)
    # stable sort: cosine ties resolve to the lower centroid index, the
    # same tie-break an ORDER BY (cos DESC, centroid_rank ASC) oracle uses
    probe = np.argsort(
        -(qmat @ _unit(np.asarray(centroids, dtype=np.float64)).T),
        axis=1,
        kind="stable",
    )[:, :nprobe]
    bucket_to_queries: dict[int, list[int]] = {}
    for qi, buckets in enumerate(probe):
        for b in buckets:
            bucket_to_queries.setdefault(int(b), []).append(qi)
    qmat_ref = ray.put(qmat)
    qids = list(query_ids)

    qids_arr = np.asarray(qids, dtype=np.int64)

    def score_batch(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        qm = ray.get(qmat_ref)
        vecs = _unit(list_to_matrix(batch.column(vector_column)))
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        assign = (vecs @ cents.T).argmax(axis=1)
        out_q, out_v, out_s = [], [], []
        for b, qlist in bucket_to_queries.items():
            mask = assign == b
            if not mask.any():
                continue
            sub_ids = ids[mask]
            sims = qm[qlist] @ vecs[mask].T
            kk = min(k, sims.shape[1])
            top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]  # (len(qlist), kk)
            out_q.append(np.repeat(qids_arr[qlist], kk))
            out_v.append(sub_ids[top].ravel())
            out_s.append(np.take_along_axis(sims, top, axis=1).ravel())
        if not out_q:
            return pa.schema(
                [
                    ("query_id", pa.int64()),
                    ("vec_id", pa.int64()),
                    ("cosine", pa.float64()),
                ]
            ).empty_table()
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
                "cosine": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["cosine", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)

    partial = ds.map_batches(score_batch, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


def cosine_threshold_join(
    ds,
    queries: np.ndarray,
    query_ids: list,
    threshold: float,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
):
    """Similarity JOIN (not top-k): every (query, corpus) pair with cosine
    >= threshold. The query matrix is broadcast once via ray.put; each
    corpus batch does one float64 matmul and emits only the surviving
    pairs with the score in exact-comparable e6 micro-units — the corpus
    streams, nothing is materialized, output volume is the matches."""
    import ray

    qmat_ref = ray.put(_unit(np.asarray(queries, dtype=np.float64)))
    qids_arr = np.asarray(list(query_ids), dtype=np.int64)

    out_schema = pa.schema(
        [
            pa.field("query_id", pa.int64()),
            pa.field("vec_id", pa.int64()),
            pa.field("cos_e6", pa.int64()),
        ]
    )

    def score_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or vector_column not in batch.column_names:
            return out_schema.empty_table()
        qmat = ray.get(qmat_ref)
        vecs = _unit(list_to_matrix(batch.column(vector_column)))
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        sims = qmat @ vecs.T  # (nq, batch)
        iq, iv = np.nonzero(sims >= threshold)
        return pa.table(
            {
                "query_id": pa.array(qids_arr[iq]),
                "vec_id": pa.array(ids[iv]),
                "cos_e6": pa.array(
                    np.round(sims[iq, iv] * 1e6).astype(np.int64)
                ),
            }
        )

    return ds.map_batches(score_batch, batch_format="pyarrow")


def pq_topk(
    ds,
    queries: np.ndarray,
    query_ids: list,
    codebook: np.ndarray,
    k: int = 10,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
):
    """Product-quantization ANN (Jégou et al., PAMI 2011) with EXACT
    integer arithmetic so the approximate index is value-hash-checkable:

    coordinates quantize to e6 ints; `codebook` is (M, C, dsub) int64 in
    the same units. Encoding assigns each corpus vector's m-th subvector
    to its nearest codeword by squared L2 (ties -> smallest codeword id,
    numpy argmin's convention). Query scoring is the classic asymmetric
    distance computation: a per-(query, subspace, codeword) lookup table
    built ONCE per task from the broadcast codebook, so each batch scores
    as one gather + sum over M — no per-vector float math at all. The
    compressed code (M bytes/vector here, vs M*dsub*8 raw) is what makes
    a 10^12-vector corpus scannable; recall vs brute force stays a pytest
    property, the query pins exact semantics.

    Output: per query the top-`k` (query_id, vec_id, adc_e12) by
    ascending ADC squared distance, ties by vec_id."""
    import ray

    M, C, dsub = codebook.shape
    qmat = np.rint(np.asarray(queries, dtype=np.float64) * 1e6).astype(np.int64)
    assert qmat.shape[1] == M * dsub
    # (nq, M, C) exact integer ADC table
    lut = np.zeros((len(qmat), M, C), dtype=np.int64)
    for m in range(M):
        qs = qmat[:, m * dsub : (m + 1) * dsub]  # (nq, dsub)
        diff = qs[:, None, :] - codebook[m][None, :, :]  # (nq, C, dsub)
        lut[:, m, :] = (diff * diff).sum(axis=2)
    state_ref = ray.put((codebook, lut))
    qids_arr = np.asarray(list(query_ids), dtype=np.int64)

    out_schema = pa.schema(
        [
            pa.field("query_id", pa.int64()),
            pa.field("vec_id", pa.int64()),
            pa.field("adc_e12", pa.int64()),
        ]
    )

    def score_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or vector_column not in batch.column_names:
            return out_schema.empty_table()
        from opentapioca_ray.functions.vectors import list_to_matrix

        cb, table = ray.get(state_ref)
        vecs = np.rint(
            list_to_matrix(batch.column(vector_column)) * 1e6
        ).astype(np.int64)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        codes = np.zeros((len(vecs), M), dtype=np.int64)
        for m in range(M):
            vs = vecs[:, m * dsub : (m + 1) * dsub]
            diff = vs[:, None, :] - cb[m][None, :, :]  # (B, C, dsub)
            codes[:, m] = (diff * diff).sum(axis=2).argmin(axis=1)
        # ADC: gather per query -> (nq, B)
        adc = np.zeros((len(qids_arr), len(vecs)), dtype=np.int64)
        for m in range(M):
            adc += table[:, m, :][:, codes[:, m]]
        kk = min(k, adc.shape[1])
        # integer ADC ties are COMMON (equal codes -> equal distance), so
        # the per-batch combiner must already break ties by vec_id or it
        # can drop the id the global merge would keep: order columns by id
        # then take a STABLE partial sort
        id_order = np.argsort(ids, kind="mergesort")
        ids = ids[id_order]
        adc = adc[:, id_order]
        top = np.argsort(adc, axis=1, kind="stable")[:, :kk]
        return pa.table(
            {
                "query_id": pa.array(np.repeat(qids_arr, kk), type=pa.int64()),
                "vec_id": pa.array(ids[top].ravel(), type=pa.int64()),
                "adc_e12": pa.array(np.take_along_axis(adc, top, axis=1).ravel()),
            }
        )

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["adc_e12", "vec_id"], ascending=[True, True], kind="mergesort"
        ).head(k)

    partial = ds.map_batches(score_batch, batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(final_topk, batch_format="pandas")


def hard_negatives(
    ds,
    k: int = 5,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    label_column: str = "label",
):
    """Contrastive hard-negative mining: for EVERY vector, the `k` most
    cosine-similar vectors carrying a DIFFERENT label — the standard
    candidate set for contrastive/triplet training and the
    labeled-pair analogue of near-dup detection. Output:
    (anchor_id, neg_id, cosine round-6, rank 1..k), ties broken by
    neg_id asc, self excluded.

    This is the EXACT all-pairs baseline (the driver brief's brute-force
    regime): the unit-normalized corpus matrix + labels broadcast once
    via ray.put, one matmul per anchor batch, streaming anchors. The
    bucketed scale path for corpora past broadcast size is the
    hyperplane-LSH banding already used by `dedup.embedding_dedup` — mine
    within buckets instead of against the broadcast."""
    import ray

    ds = ds.materialize()
    parts = [
        t
        for t in arrow_blocks(ds)
        if t.num_rows and id_column in t.column_names
    ]
    out_schema = pa.schema(
        [
            ("anchor_id", pa.int64()),
            ("neg_id", pa.int64()),
            ("cosine", pa.float64()),
            ("rank", pa.int64()),
        ]
    )
    if not parts:
        return driver_dataset(out_schema.empty_table())
    full = pa.concat_tables(parts)
    ids = full.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    labels = full.column(label_column).to_numpy(zero_copy_only=False).astype(np.int64)
    mat = _unit(list_to_matrix(full.column(vector_column)))
    corpus_ref = ray.put((ids, labels, mat))

    def mine(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return out_schema.empty_table()
        c_ids, c_labels, c_mat = ray.get(corpus_ref)
        a_ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        a_labels = (
            batch.column(label_column).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        a_mat = _unit(list_to_matrix(batch.column(vector_column)))
        sims = a_mat @ c_mat.T  # (na, n)
        same = a_labels[:, None] == c_labels[None, :]
        sims = np.where(same, -np.inf, sims)
        n = sims.shape[1]
        kk = min(n, k + 32)  # tie margin before the exact per-row sort
        cand = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        cand_sims = np.take_along_axis(sims, cand, axis=1)
        cand_ids = c_ids[cand]
        # exact (cosine desc, neg_id asc) order within each row
        order = np.lexsort(
            (cand_ids, -cand_sims), axis=1
        )
        top = order[:, :k]
        sel_ids = np.take_along_axis(cand_ids, top, axis=1)
        sel_sims = np.take_along_axis(cand_sims, top, axis=1)
        keep = np.isfinite(sel_sims)  # rows with < k cross-label partners
        n_anchor, kcols = sel_ids.shape
        anchor_rep = np.repeat(a_ids, kcols).reshape(n_anchor, kcols)
        rank = np.tile(np.arange(1, kcols + 1, dtype=np.int64), (n_anchor, 1))
        return pa.table(
            {
                "anchor_id": pa.array(anchor_rep[keep]),
                "neg_id": pa.array(sel_ids[keep]),
                "cosine": pa.array(np.round(sel_sims[keep], 6)),
                "rank": pa.array(rank[keep]),
            }
        )

    return ds.map_batches(mine, batch_format="pyarrow")


def mutual_best_cross_label(
    ds,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    label_column: str = "label",
):
    """Bitext-mining-style alignment (the mutual-best criterion of
    Artetxe & Schwenk's margin mining, without the margin): pairs where
    each vector is the OTHER's single most cosine-similar cross-label
    neighbor. Output (u, v, cosine round-6) with u < v.

    Composition: `hard_negatives(k=1)` gives every vector's best
    cross-label partner (exact broadcast baseline); one coarse exchange
    on the unordered pair key keeps the pairs present in BOTH
    directions."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    best = hard_negatives(
        ds,
        k=1,
        id_column=id_column,
        vector_column=vector_column,
        label_column=label_column,
    )

    pair_schema = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("cosine", pa.float64())]
    )

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "anchor_id" not in batch.column_names:
            return pair_schema.empty_table()
        a = batch.column("anchor_id").to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column("neg_id").to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch.column("cosine").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": pa.array(np.minimum(a, b)),
                "v": pa.array(np.maximum(a, b)),
                "cosine": pa.array(c),
            }
        )

    merged = coarse_groupby_agg(
        best.map_batches(orient, batch_format="pyarrow"),
        ["u", "v"],
        {"n_dir": ("cosine", "size"), "cosine": ("cosine", "max")},
    )

    def mutual(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0 or "n_dir" not in batch.column_names:
            return pair_schema.empty_table()
        t = batch.filter(pc.equal(batch.column("n_dir"), pa.scalar(2)))
        return pa.table(
            {
                "u": t.column("u").cast(pa.int64()),
                "v": t.column("v").cast(pa.int64()),
                "cosine": t.column("cosine").cast(pa.float64()),
            }
        )

    return merged.map_batches(mutual, batch_format="pyarrow")


def embedding_outliers(
    ds,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    label_column: str = "label",
    scale: int = 10_000,
):
    """Per-vector outlier score for label-conditioned data cleaning: the
    squared L2 distance to the vector's own label centroid, made EXACT by
    quantizing dims once to 1/scale units and multiplying through by the
    label count n — dist2_scaled = sum_d (n*xq_d - s_d)^2 = n^2 * ||x -
    mean||^2 in integer units, no float mean anywhere. Output
    (vec_id, label, n, dist2_scaled); downstream cleaning drops the top
    quantile per label.

    Shape: one combiner pass collects per-label quantized dim sums
    (labels x dim ints — broadcast-small by construction), then one map
    scores every vector. The facts stream twice, nothing else moves."""
    import ray

    ds = ds.materialize()

    def quantize(batch: pa.Table) -> np.ndarray:
        mat = list_to_matrix(batch.column(vector_column)).astype(np.float64)
        return np.floor(mat * float(scale) + 0.5).astype(np.int64)

    # combiner: per-label (count, dim sums) partials, driver-combined
    # (O(labels x dim) state — the broadcast-small regime)
    totals: dict[int, tuple[int, np.ndarray]] = {}
    stats_schema = pa.schema(
        [("label", pa.int64()), ("n", pa.int64()), ("sums", pa.list_(pa.int64()))]
    )

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or label_column not in batch.column_names:
            return stats_schema.empty_table()
        xq = quantize(batch)
        labels = (
            batch.column(label_column).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), xq.shape[1]), dtype=np.int64)
        np.add.at(sums, inv, xq)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(uniq),
                "n": pa.array(counts),
                "sums": pa.array(list(sums), type=pa.list_(pa.int64())),
            }
        )

    for t in arrow_blocks(ds.map_batches(partials, batch_format="pyarrow")):
        if t.num_rows == 0 or "label" not in t.column_names:
            continue
        for lbl, n, s in zip(
            t.column("label").to_pylist(),
            t.column("n").to_pylist(),
            t.column("sums").to_pylist(),
        ):
            if lbl in totals:
                pn, ps = totals[lbl]
                totals[lbl] = (pn + n, ps + np.asarray(s, dtype=np.int64))
            else:
                totals[lbl] = (n, np.asarray(s, dtype=np.int64))
    out_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("label", pa.int64()),
            ("n", pa.int64()),
            ("dist2_scaled", pa.int64()),
        ]
    )
    if not totals:
        return driver_dataset(out_schema.empty_table())
    lbl_sorted = np.array(sorted(totals), dtype=np.int64)
    n_arr = np.array([totals[l][0] for l in lbl_sorted], dtype=np.int64)
    s_mat = np.stack([totals[l][1] for l in lbl_sorted])
    stats_ref = ray.put((lbl_sorted, n_arr, s_mat))

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or label_column not in batch.column_names:
            return out_schema.empty_table()
        lbls, ns, sums = ray.get(stats_ref)
        xq = quantize(batch)
        labels = (
            batch.column(label_column).to_numpy(zero_copy_only=False).astype(np.int64)
        )
        idx = np.searchsorted(lbls, labels)
        n = ns[idx]
        diff = n[:, None] * xq - sums[idx]
        return pa.table(
            {
                "vec_id": batch.column(id_column).cast(pa.int64()),
                "label": pa.array(labels),
                "n": pa.array(n),
                "dist2_scaled": pa.array((diff * diff).sum(axis=1)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
