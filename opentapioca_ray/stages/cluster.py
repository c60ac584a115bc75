"""Distributed k-means over an embedding column (topic-style clustering).

Lloyd's algorithm, Ray-Data-first: each iteration is ONE streaming pass —
centroids broadcast via `ray.put`, every batch computes its assignments and
a (k x dim) partial sum + count matrix (the combiner), and only those tiny
partials reach the driver for the centroid update. The corpus is never
materialized; per-iteration driver state is O(k x dim), same acceptance as
PageRank's O(|V|) rank vector (pipelines/pagerank.py).

Cosine geometry (unit sphere), matching the embedding-dedup / ANN stages:
vectors are L2-normalized once per batch, assignment is argmax dot product,
and updated centroids are re-normalized means.
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


def kmeans_fit(
    ds,
    k: int = 8,
    iters: int = 10,
    vector_column: str = "embedding",
    sample_size: int = 2000,
    seed: int = 42,
) -> np.ndarray:
    """Fit k unit centroids. Deterministic: init from a seeded choice over
    the first `sample_size` rows, then `iters` full Lloyd passes."""
    import ray

    head = ds.limit(sample_size).to_pandas()
    init = _unit(np.array(head[vector_column].tolist(), dtype=np.float64))
    rng = np.random.RandomState(seed)
    centroids = init[rng.choice(len(init), size=min(k, len(init)), replace=False)]
    dim = centroids.shape[1]

    for _ in range(iters):
        cent_ref = ray.put(centroids)

        def partials(batch: pa.Table) -> pa.Table:
            cents = ray.get(cent_ref)
            vecs = _unit(list_to_matrix(batch.column(vector_column)))
            assign = (vecs @ cents.T).argmax(axis=1)
            sums = np.zeros((len(cents), vecs.shape[1]), dtype=np.float64)
            np.add.at(sums, assign, vecs)
            counts = np.bincount(assign, minlength=len(cents)).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(len(cents)), type=pa.int64()),
                    "vsum": pa.array(list(sums), type=pa.list_(pa.float64())),
                    "n": pa.array(counts, type=pa.int64()),
                }
            )

        part_ds = ds.select_columns([vector_column]).map_batches(
            partials, batch_format="pyarrow"
        )
        total = np.zeros((k, dim), dtype=np.float64)
        total_n = np.zeros(k, dtype=np.int64)
        for t in arrow_blocks(part_ds):
            if t.num_rows == 0 or "cluster" not in t.column_names:
                continue
            cl = t.column("cluster").to_numpy(zero_copy_only=False)
            vs = list_to_matrix(t.column("vsum"))
            nn = t.column("n").to_numpy(zero_copy_only=False)
            np.add.at(total, cl, vs)
            np.add.at(total_n, cl, nn)
        nonzero = total_n > 0
        new = centroids.copy()
        new[nonzero] = total[nonzero] / total_n[nonzero, None]
        centroids = _unit(new)
    return centroids


def kmeans_assign(
    ds,
    centroids: np.ndarray,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
):
    """Label every row with its nearest (cosine) centroid — one stateless
    broadcast pass; output (id_column, cluster, cosine)."""
    import ray

    cent_ref = ray.put(_unit(np.asarray(centroids, dtype=np.float64)))

    def fn(batch: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        vecs = _unit(list_to_matrix(batch.column(vector_column)))
        sims = vecs @ cents.T
        assign = sims.argmax(axis=1)
        return pa.table(
            {
                id_column: batch.column(id_column),
                "cluster": pa.array(assign, type=pa.int64()),
                "cosine": pa.array(sims[np.arange(len(assign)), assign], type=pa.float64()),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def embedding_coherence(
    ds,
    label_column: str = "label",
    vector_column: str = "embedding",
    scale: int = 10_000,
    outlier_dist_units: int = 10_100,
    n_parts: int | None = None,
):
    """Cluster-coherence audit over an embedding column: per label, how
    many members sit farther than a distance threshold from the label's
    OWN centroid, plus the worst offender — EXACT integer arithmetic via
    the n-scaled identity ||n·x − S||² = n²·||x − centroid||² (S = the
    label's component-sum vector), so no float means ever enter the
    comparison. Components quantize to `1/scale` units first; distances
    compare in (scale·n)² units (int64-safe for n ≲ 30k members per
    label at the default scale — shrink `scale` beyond that).

    Two passes, both combiner-first: (1) O(labels × dim) sufficient
    statistics to the driver (the k-means-centroid state-size contract),
    broadcast back once; (2) per-batch vectorized d2 + per-label partial
    (n_outliers, max_d2) merged in one tiny exchange. Returns
    (label, n, n_outliers, max_d2)."""
    import ray

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    stat_schema = pa.schema(
        [("label", pa.int64()), ("dim", pa.int64()), ("s", pa.int64())]
    )

    def quantize(batch: pa.Table) -> np.ndarray | None:
        if batch.num_rows == 0 or vector_column not in batch.column_names:
            return None
        vecs = batch.column(vector_column).combine_chunks()
        flat = vecs.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = len(flat) // batch.num_rows
        return np.rint(flat * float(scale)).astype(np.int64).reshape(
            batch.num_rows, dim
        )

    def partials(batch: pa.Table) -> pa.Table:
        X = quantize(batch)
        if X is None:
            return stat_schema.empty_table()
        lab = batch.column(label_column).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        ul, inv = np.unique(lab, return_inverse=True)
        dim = X.shape[1]
        sums = np.zeros((len(ul), dim), dtype=np.int64)
        np.add.at(sums, inv, X)
        counts = np.bincount(inv).astype(np.int64)
        labels_rep = np.repeat(ul, dim + 1)
        dims = np.tile(np.arange(-1, dim, dtype=np.int64), len(ul))
        vals = np.concatenate(
            [np.concatenate(([counts[i]], sums[i])) for i in range(len(ul))]
        )
        return pa.table(
            {
                "label": pa.array(labels_rep),
                "dim": pa.array(dims),  # dim -1 carries the member count
                "s": pa.array(vals),
            }
        )

    # O(labels x dim) driver state, exactly like the k-means centroid table
    stats: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for t in arrow_blocks(ds.map_batches(partials, batch_format="pyarrow")):
        if t.num_rows == 0 or "label" not in t.column_names:
            continue
        lab = t.column("label").to_numpy(zero_copy_only=False)
        dim = t.column("dim").to_numpy(zero_copy_only=False)
        s = t.column("s").to_numpy(zero_copy_only=False)
        for lb, dm, sv in zip(lab, dim, s):
            if dm < 0:
                counts[lb] = counts.get(lb, 0) + int(sv)
            else:
                arr = stats.setdefault(lb, None)
                if arr is None:
                    ndim = int(dim.max()) + 1
                    arr = stats[lb] = np.zeros(ndim, dtype=np.int64)
                arr[dm] += int(sv)
    labels_sorted = np.array(sorted(stats), dtype=np.int64)
    S = np.stack([stats[lb] for lb in labels_sorted]) if len(labels_sorted) else None
    N = np.array([counts[lb] for lb in labels_sorted], dtype=np.int64)
    state_ref = ray.put((labels_sorted, S, N))

    part_schema = pa.schema(
        [
            ("label", pa.int64()),
            ("n", pa.int64()),
            ("n_outliers", pa.int64()),
            ("max_d2", pa.int64()),
        ]
    )

    def score(batch: pa.Table) -> pa.Table:
        X = quantize(batch)
        if X is None:
            return part_schema.empty_table()
        labels_s, S_m, N_v = ray.get(state_ref)
        lab = batch.column(label_column).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        li = np.searchsorted(labels_s, lab)
        n_l = N_v[li]
        diff = X * n_l[:, None] - S_m[li]
        d2 = np.einsum("ij,ij->i", diff, diff)
        thr = (np.int64(outlier_dist_units) ** 2) * (n_l.astype(object) * n_l)
        is_out = d2 > np.array(thr, dtype=np.int64)
        ul, inv = np.unique(lab, return_inverse=True)
        n_seg = len(ul)
        mx = np.zeros(n_seg, dtype=np.int64)
        np.maximum.at(mx, inv, d2)
        return pa.table(
            {
                "label": pa.array(ul),
                "n": pa.array(np.bincount(inv).astype(np.int64)),
                "n_outliers": pa.array(
                    np.bincount(inv, weights=is_out).astype(np.int64)
                ),
                "max_d2": pa.array(mx),
            }
        )

    return coarse_groupby_agg(
        ds.map_batches(score, batch_format="pyarrow"),
        ["label"],
        {
            "n": ("n", "sum"),
            "n_outliers": ("n_outliers", "sum"),
            "max_d2": ("max_d2", "max"),
        },
        n_parts=n_parts,
    )


def embedding_dim_profile(
    ds,
    vector_column: str = "embedding",
    scale: int = 10_000,
    n_parts: int | None = None,
):
    """Per-dimension feature profile of an embedding column — the
    feature-store health check run before training (dead dims, scale
    drift, clipped ranges): n, sum, sum-of-squares, min, max for every
    dimension, all exact int64 in `1/scale` units (sumsq term bound:
    scale=1e4, |x|<1 -> x²≤1e8 per row, safe to ~9e10 rows per dim).

    One stateless pass emits O(blocks x dim) partials; ONE tiny
    combiner exchange on the dim id merges them. Returns
    (dim, n, sum_u, sumsq_u, min_u, max_u)."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    part_schema = pa.schema(
        [
            ("dim", pa.int64()),
            ("n", pa.int64()),
            ("sum_u", pa.int64()),
            ("sumsq_u", pa.int64()),
            ("min_u", pa.int64()),
            ("max_u", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or vector_column not in batch.column_names:
            return part_schema.empty_table()
        vecs = batch.column(vector_column).combine_chunks()
        flat = vecs.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        dim = len(flat) // batch.num_rows
        X = np.rint(flat * float(scale)).astype(np.int64).reshape(
            batch.num_rows, dim
        )
        return pa.table(
            {
                "dim": pa.array(np.arange(dim, dtype=np.int64)),
                "n": pa.array(np.full(dim, batch.num_rows, dtype=np.int64)),
                "sum_u": pa.array(X.sum(axis=0)),
                "sumsq_u": pa.array((X * X).sum(axis=0)),
                "min_u": pa.array(X.min(axis=0)),
                "max_u": pa.array(X.max(axis=0)),
            }
        )

    return coarse_groupby_agg(
        ds.select_columns([vector_column]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["dim"],
        {
            "n": ("n", "sum"),
            "sum_u": ("sum_u", "sum"),
            "sumsq_u": ("sumsq_u", "sum"),
            "min_u": ("min_u", "min"),
            "max_u": ("max_u", "max"),
        },
        n_parts=n_parts,
    )


def kmedoids_fit_assign(
    ds,
    k: int = 8,
    rounds: int = 2,
    dims: int = 4,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    n_parts=None,
    as_dataset: bool = False,
):
    """PAM-style k-medoids with EXACT integer arithmetic — the
    hash-verifiable counterpart to float k-means (kmeans_fit is
    pytest-golden; every step here is replayable in SQL): coordinates
    quantize to e6 ints over the first `dims` dimensions, distance is L1,
    medoids initialize as the k smallest md5-priority points (the IVF
    recipe), and each round (a) assigns every point to its nearest medoid
    (ties -> smallest medoid id) via a broadcast medoid table, then (b)
    re-elects each cluster's medoid as the member minimizing total L1
    distance to the cluster (ties -> smallest id) inside ONE coarse
    exchange keyed by cluster — the classic per-cluster quadratic, run
    vectorized per partition and bounded by cluster size.

    Returns the final per-point assignment DataFrame (vec_id, medoid)."""
    import ray

    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.sketches import _md5_u64

    def quantized(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("vec_id", pa.int64())]
            + [(f"d{i}", pa.int64()) for i in range(dims)]
        )
        if batch.num_rows == 0 or vector_column not in batch.column_names:
            return schema.empty_table()
        from opentapioca_ray.functions.vectors import list_to_matrix

        mat = list_to_matrix(batch.column(vector_column))[:, :dims]
        q = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        cols = {"vec_id": batch.column(id_column).cast(pa.int64())}
        for i in range(dims):
            cols[f"d{i}"] = pa.array(q[:, i])
        return pa.table(cols)

    pts = ds.map_batches(quantized, batch_format="pyarrow").materialize()

    # deterministic init: k smallest md5-priority ids (collected rows are
    # k-bounded via the combiner top-k shape)
    def prio_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "vec_id" not in batch.column_names:
            return batch
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        hv = _md5_u64(ids)
        order = np.lexsort((ids, hv))[: min(k, len(ids))]
        return batch.take(pa.array(order))

    cands = pts.map_batches(prio_partial, batch_format="pyarrow").take_all()
    cands.sort(
        key=lambda r: (
            int(_md5_u64(np.array([r["vec_id"]]))[0]),
            r["vec_id"],
        )
    )
    medoids = cands[:k]

    def med_matrix(rows):
        ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
        mat = np.array(
            [[r[f"d{i}"] for i in range(dims)] for r in rows], dtype=np.int64
        )
        order = np.argsort(ids, kind="mergesort")
        return ids[order], mat[order]

    assign = None
    for _ in range(rounds):
        mid, mmat = med_matrix(medoids)
        med_ref = ray.put((mid, mmat))

        def assign_batch(batch: pa.Table) -> pa.Table:
            schema = pa.schema(
                [("vec_id", pa.int64()), ("medoid", pa.int64())]
                + [(f"d{i}", pa.int64()) for i in range(dims)]
            )
            if batch.num_rows == 0 or "vec_id" not in batch.column_names:
                return schema.empty_table()
            mi, mm = ray.get(med_ref)
            x = np.stack(
                [
                    batch.column(f"d{i}").to_numpy(zero_copy_only=False)
                    for i in range(dims)
                ],
                axis=1,
            )
            d = np.abs(x[:, None, :] - mm[None, :, :]).sum(axis=2)
            best = d.argmin(axis=1)  # ties -> first = smallest medoid id
            cols = {
                "vec_id": batch.column("vec_id"),
                "medoid": pa.array(mi[best]),
            }
            for i in range(dims):
                cols[f"d{i}"] = batch.column(f"d{i}")
            return pa.table(cols)

        assign = pts.map_batches(assign_batch, batch_format="pyarrow")

        def elect(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame(
                {
                    "medoid": pd.Series(dtype=np.int64),
                    "vec_id": pd.Series(dtype=np.int64),
                    **{f"d{i}": pd.Series(dtype=np.int64) for i in range(dims)},
                }
            )
            if df.empty or "medoid" not in df.columns:
                return empty
            outs = []
            for m, grp in df.groupby("medoid", sort=True):
                x = grp[[f"d{i}" for i in range(dims)]].to_numpy(np.int64)
                ids = grp["vec_id"].to_numpy(np.int64)
                tot = np.abs(x[:, None, :] - x[None, :, :]).sum(axis=(1, 2))
                j = np.lexsort((ids, tot))[0]
                outs.append((m, ids[j], *x[j]))
            return pd.DataFrame(
                outs,
                columns=["medoid", "vec_id"]
                + [f"d{i}" for i in range(dims)],
            ).astype(np.int64)

        elected = coarse_group_apply(
            assign, "medoid", elect, n_parts=n_parts
        ).to_pandas()  # <= k rows
        medoids = elected.drop(columns=["medoid"]).to_dict("records")

    mid, mmat = med_matrix(medoids)
    med_ref = ray.put((mid, mmat))

    def final_assign(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("vec_id", pa.int64()), ("medoid", pa.int64())])
        if batch.num_rows == 0 or "vec_id" not in batch.column_names:
            return schema.empty_table()
        mi, mm = ray.get(med_ref)
        x = np.stack(
            [
                batch.column(f"d{i}").to_numpy(zero_copy_only=False)
                for i in range(dims)
            ],
            axis=1,
        )
        d = np.abs(x[:, None, :] - mm[None, :, :]).sum(axis=2)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "medoid": pa.array(mi[d.argmin(axis=1)]),
            }
        )

    out = pts.map_batches(final_assign, batch_format="pyarrow")
    return out if as_dataset else out.to_pandas()


def semdedup(
    ds,
    tau: float = 0.99,
    k: int = 8,
    rounds: int = 2,
    dims: int = 4,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    n_parts: int | None = None,
):
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
    web-scale through semantic deduplication"): partition the embedding
    space with k-medoids (this repo's hash-verifiable exact-integer PAM),
    then WITHIN each cluster link every pair with round-6 cosine >= `tau`
    and keep one exemplar (min id) per linked group. Duplicate pairs
    split across clusters are missed by construction — the documented
    recall trade the paper makes for never comparing across partitions.
    Output: (vec_id, rep, keep) for EVERY vector.

    Shape: the k-medoids assignment (exact integers end-to-end), one
    vec_id-keyed exchange attaching each vector's medoid, one
    medoid-keyed exchange whose kernel does the per-cluster cosine
    matrix + vectorized min-label closure (a cluster fits a worker —
    choose k ~ sqrt(n) at scale, exactly as the paper does)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply

    ds = ds.materialize()
    assign = kmedoids_fit_assign(
        ds, k=k, rounds=rounds, dims=dims,
        id_column=id_column, vector_column=vector_column,
        as_dataset=True,
    ).materialize()

    union_schema = pa.schema(
        [
            (id_column, pa.int64()),
            ("emb", pa.list_(pa.float64())),
            ("medoid", pa.int64()),
            ("is_assign", pa.bool_()),
        ]
    )

    def emb_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                id_column: batch.column(id_column).cast(pa.int64()),
                "emb": batch.column(vector_column).cast(pa.list_(pa.float64())),
                "medoid": pa.nulls(n, pa.int64()),
                "is_assign": pa.array(np.zeros(n, dtype=bool)),
            }
        )

    def assign_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "medoid" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                id_column: batch.column(id_column).cast(pa.int64()),
                "emb": pa.nulls(n, pa.list_(pa.float64())),
                "medoid": batch.column("medoid").cast(pa.int64()),
                "is_assign": pa.array(np.ones(n, dtype=bool)),
            }
        )

    unioned = ds.map_batches(emb_rows, batch_format="pyarrow").union(
        assign.map_batches(assign_rows, batch_format="pyarrow")
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_column: np.int64, "medoid": np.int64, "emb": object}
        if df.empty or "is_assign" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        isa = df["is_assign"].to_numpy(dtype=bool)
        vecs, lab = df[~isa], df[isa]
        if vecs.empty or lab.empty:
            return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
        lid = lab[id_column].to_numpy(dtype=np.int64)
        lmed = lab["medoid"].to_numpy(dtype=np.int64)
        o = np.argsort(lid, kind="stable")
        lid, lmed = lid[o], lmed[o]
        vid = vecs[id_column].to_numpy(dtype=np.int64)
        pos = np.clip(np.searchsorted(lid, vid), 0, len(lid) - 1)
        ok = lid[pos] == vid
        return pd.DataFrame(
            {
                id_column: vid[ok],
                "medoid": lmed[pos[ok]],
                "emb": vecs["emb"].to_numpy()[ok],
            }
        )

    with_medoid = coarse_group_apply(unioned, id_column, attach, n_parts=n_parts)

    out_cols = (id_column, "rep", "keep")

    def cluster_dedup(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "medoid" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        med = df["medoid"].to_numpy(dtype=np.int64)
        ids = df[id_column].to_numpy(dtype=np.int64)
        embs = df["emb"].to_numpy()
        order = np.lexsort((ids, med))
        med, ids, embs = med[order], ids[order], embs[order]
        starts = np.flatnonzero(np.concatenate(([True], med[1:] != med[:-1])))
        ends = np.append(starts[1:], len(med))
        out_id, out_rep = [], []
        for s, e in zip(starts, ends):
            cid = ids[s:e]
            mat = np.array(list(embs[s:e]), dtype=np.float64)
            nrm = np.linalg.norm(mat, axis=1, keepdims=True)
            nrm[nrm == 0] = 1.0
            sims = np.round((mat / nrm) @ (mat / nrm).T, 6)
            iu, ju = np.triu_indices(len(cid), k=1)
            hit = sims[iu, ju] >= tau
            lab = np.arange(len(cid), dtype=np.int64)
            uc, vc = iu[hit], ju[hit]
            while True:  # vectorized min-label closure (cc.py recipe)
                m = np.minimum(lab[uc], lab[vc])
                new = lab.copy()
                np.minimum.at(new, uc, m)
                np.minimum.at(new, vc, m)
                new = new[new]
                if np.array_equal(new, lab):
                    break
                lab = new
            out_id.append(cid)
            out_rep.append(cid[lab])  # ids ascend within cluster: min code
            # position = min id
        if not out_id:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        oid = np.concatenate(out_id)
        orep = np.concatenate(out_rep)
        return pd.DataFrame(
            {
                id_column: oid,
                "rep": orep,
                "keep": (oid == orep).astype(np.int64),
            }
        )

    return coarse_group_apply(with_medoid, "medoid", cluster_dedup, n_parts=n_parts)


def silhouette_kmedoids(
    ds,
    k: int = 8,
    rounds: int = 2,
    dims: int = 4,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    n_parts: int | None = None,
):
    """Simplified silhouette (Hruschka et al. 2004 — centroid-distance
    variant of Rousseeuw 1987) over the exact-integer k-medoids
    clustering: per point, a = L1 distance to its own medoid, b = min L1
    to any other medoid, s_e6 = floor((b - a) * 1e6 / max(a, b) + 0.5)
    (0 when both are 0). With medoid centers and e6-quantized dims,
    a and b are plain int64 — the whole cluster-quality diagnostic is
    hash-verifiable. Output: (vec_id, medoid, a_l1, b_l1, s_e6).

    Shape: the k-medoids assignment, a k-row broadcast medoid-coordinate
    table, one vec_id-keyed attach exchange, one scoring map."""
    import pyarrow.compute as pc
    import ray

    from opentapioca_ray.functions.vectors import list_to_matrix
    from opentapioca_ray.stages.exchange import coarse_group_apply

    ds = ds.materialize()
    assign = kmedoids_fit_assign(
        ds, k=k, rounds=rounds, dims=dims,
        id_column=id_column, vector_column=vector_column, as_dataset=True,
    ).materialize()

    # medoid ids (<= k) and their quantized coordinates, broadcast once
    med_ids = set()
    for t in arrow_blocks(assign):
        if t.num_rows == 0 or "medoid" not in t.column_names:
            continue
        med_ids.update(t.column("medoid").to_pylist())
    out_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("medoid", pa.int64()),
            ("a_l1", pa.int64()),
            ("b_l1", pa.int64()),
            ("s_e6", pa.int64()),
        ]
    )
    if not med_ids:
        return driver_dataset(out_schema.empty_table())
    med_set = pa.array(sorted(med_ids), type=pa.int64())

    def med_rows(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("mid", pa.int64()), ("coords", pa.list_(pa.int64()))]
        )
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return schema.empty_table()
        mask = pc.is_in(batch.column(id_column).cast(pa.int64()), value_set=med_set)
        t = batch.filter(mask)
        if t.num_rows == 0:
            return schema.empty_table()
        mat = list_to_matrix(t.column(vector_column))[:, :dims]
        q = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        return pa.table(
            {
                "mid": t.column(id_column).cast(pa.int64()),
                "coords": pa.array(list(q), type=pa.list_(pa.int64())),
            }
        )

    med_parts = [
        t
        for t in arrow_blocks(
            ds.map_batches(med_rows, batch_format="pyarrow").materialize()
        )
        if t.num_rows and "mid" in t.column_names
    ]
    med_tbl = pa.concat_tables(med_parts)
    mid = med_tbl.column("mid").to_numpy(zero_copy_only=False).astype(np.int64)
    mmat = np.array(med_tbl.column("coords").to_pylist(), dtype=np.int64)
    o = np.argsort(mid)
    med_ref = ray.put((mid[o], mmat[o]))

    # attach medoid to each point's quantized coords: one vec_id exchange
    union_schema = pa.schema(
        [
            ("vec_id", pa.int64()),
            ("coords", pa.list_(pa.int64())),
            ("medoid", pa.int64()),
            ("is_assign", pa.bool_()),
        ]
    )

    def pt_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return union_schema.empty_table()
        mat = list_to_matrix(batch.column(vector_column))[:, :dims]
        q = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        n = batch.num_rows
        return pa.table(
            {
                "vec_id": batch.column(id_column).cast(pa.int64()),
                "coords": pa.array(list(q), type=pa.list_(pa.int64())),
                "medoid": pa.nulls(n, pa.int64()),
                "is_assign": pa.array(np.zeros(n, dtype=bool)),
            }
        )

    def asg_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "medoid" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "vec_id": batch.column(id_column).cast(pa.int64()),
                "coords": pa.nulls(n, pa.list_(pa.int64())),
                "medoid": batch.column("medoid").cast(pa.int64()),
                "is_assign": pa.array(np.ones(n, dtype=bool)),
            }
        )

    unioned = ds.map_batches(pt_rows, batch_format="pyarrow").union(
        assign.map_batches(asg_rows, batch_format="pyarrow")
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cols = ("vec_id", "medoid", "a_l1", "b_l1", "s_e6")
        if df.empty or "is_assign" not in df.columns:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        isa = df["is_assign"].to_numpy(dtype=bool)
        pts_df, lab = df[~isa], df[isa]
        if pts_df.empty or lab.empty:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        lid = lab["vec_id"].to_numpy(dtype=np.int64)
        lmed = lab["medoid"].to_numpy(dtype=np.int64)
        o2 = np.argsort(lid, kind="stable")
        lid, lmed = lid[o2], lmed[o2]
        vid = pts_df["vec_id"].to_numpy(dtype=np.int64)
        pos = np.clip(np.searchsorted(lid, vid), 0, len(lid) - 1)
        ok = lid[pos] == vid
        pts_df = pts_df[ok]
        vid = vid[ok]
        own = lmed[pos[ok]]
        q = np.array(list(pts_df["coords"].to_numpy()), dtype=np.int64)
        ms, mm = ray.get(med_ref)
        # L1 distance matrix points x medoids (k small)
        dmat = np.abs(q[:, None, :] - mm[None, :, :]).sum(axis=2)
        own_idx = np.searchsorted(ms, own)
        a = dmat[np.arange(len(vid)), own_idx]
        if dmat.shape[1] < 2:  # k=1: silhouette undefined -> b=a, s=0
            b = a.copy()
        else:
            masked = dmat.copy()
            masked[np.arange(len(vid)), own_idx] = np.iinfo(np.int64).max
            b = masked.min(axis=1)
        mx = np.maximum(a, b)
        s = np.where(
            mx > 0,
            np.floor((b - a) * 1_000_000.0 / np.maximum(mx, 1) + 0.5),
            0.0,
        ).astype(np.int64)
        return pd.DataFrame(
            {"vec_id": vid, "medoid": own, "a_l1": a, "b_l1": b, "s_e6": s}
        )

    return coarse_group_apply(unioned, "vec_id", score, n_parts=n_parts)
