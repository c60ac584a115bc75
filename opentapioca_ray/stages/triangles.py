"""Distributed triangle counting (degree-oriented wedge join).

The classic scalable algorithm (Suri & Vassilvitskii's MapReduce formulation,
"Counting triangles and the curse of the last reducer", WWW'11): orient every
undirected edge from its lower-(degree, id) endpoint to the higher one — this
bounds every node's OUT-degree by O(sqrt(|E|)) regardless of how skewed the
raw degree distribution is (the hub's edges point INTO it) — generate wedges
(a, b) from each node's oriented out-neighborhood, and count wedges that are
themselves oriented edges. Every step is a coarse hash exchange + one
vectorized numpy/pandas kernel per partition; nothing is per-row Python and
nothing lands on the driver except the final P partial counts.

Stages (exchanges marked *):
  1. degrees:    flat endpoints -> combiner-first count per node        (*)
  2. attach:     deg(u), deg(v) onto each edge — broadcast lookup when
                 the degree table is small, reduce-side `shuffle_join`
                 otherwise                                              (*)×2
  3. orient:     src = argmin_{(deg, id)}(u, v)  — pure map
  4. wedges:     exchange on src; per-partition segment pair kernel     (*)
  5. closure:    wedges ∪ oriented edges exchanged on hash(a, b);
                 per-partition vectorized merge-count                   (*)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


# fixed 16-byte SipHash key for deterministic hub chunk assignment
_BF_HASH_KEY = "opentapioca_bfly"


def _segment_pairs(keys: np.ndarray):
    """All within-segment ordered index pairs (i, j), i<j, of a SORTED key
    array — one vectorized kernel for every logical group in a partition.
    Returns (left_idx, right_idx) into the input order."""
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    return _segment_pairs_flags(new)


def _segment_pairs_flags(new: np.ndarray):
    """`_segment_pairs` over precomputed segment-start flags (`new[i]` is
    True where row i opens a new logical group) — lets callers with
    composite sort keys avoid building a packed key array."""
    n = len(new)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    seg_start = np.flatnonzero(new)
    seg_id = np.cumsum(new) - 1
    seg_end = np.concatenate((seg_start[1:], [n]))
    pos = np.arange(n, dtype=np.int64)
    start = seg_start[seg_id]
    end = seg_end[seg_id]
    # row i pairs with every later row of its segment
    rep = end - pos - 1
    left = np.repeat(pos, rep)
    run_start = np.concatenate(([0], np.cumsum(rep)[:-1]))
    right = np.arange(rep.sum(), dtype=np.int64) - np.repeat(run_start, rep) + left + 1
    return left, right


def cooccurrence_edges(ds, group_column: str, item_column: str):
    """Distinct undirected item pairs (u < v) co-occurring in a group.
    One coarse exchange on the group key, a per-partition segment pair
    kernel over all of the partition's groups, a map-side partial dedup,
    then one coarse dedup exchange on (u, v)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"u": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)}
        )
        if df.empty or group_column not in df.columns:
            return empty
        g = df[group_column].to_numpy()
        it = df[item_column].to_numpy(dtype=np.int64)
        order = np.lexsort((it, g))
        g, it = g[order], it[order]
        # dedupe (group, item) so one group never emits a pair twice
        keep = np.concatenate(([True], (g[1:] != g[:-1]) | (it[1:] != it[:-1])))
        g, it = g[keep], it[keep]
        li, ri = _segment_pairs(g)
        if len(li) == 0:
            return empty
        u, v = it[li], it[ri]  # it sorted within group => u < v
        # partial dedup inside the partition before the (u, v) exchange
        return pd.DataFrame({"u": u, "v": v}).drop_duplicates()

    pairs = coarse_group_apply(
        ds.select_columns([group_column, item_column]), group_column, pair_partition
    )
    dedup = coarse_groupby_agg(pairs, ["u", "v"], {"_n": ("u", "size")})
    return dedup.map_batches(
        lambda b: b.drop_columns("_n") if "_n" in b.column_names else b,
        batch_format="pyarrow",
    )


_DEG_BROADCAST_LIMIT = 5_000_000
_EDGE_BROADCAST_LIMIT = 50_000_000  # packed uint64 edge set, <= 400 MB plasma


def count_triangles(edges_ds):
    """Total triangle count of an undirected simple graph given as distinct
    (u < v) int64 edges. Returns a single-row dataset (n_triangles: int64).
    Up to `_DEG_BROADCAST_LIMIT` nodes and `_EDGE_BROADCAST_LIMIT` edges
    the degree lookup and the closing edge set ride ray.put state; above
    either, reduce-side attaches and a wedge-emission exchange."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import composite_codes, default_n_parts
    from opentapioca_ray.stages.relational import shuffle_join

    # the edge list is consumed by several downstream passes (degrees,
    # attach, wedge generation) — pin it in the object store ONCE instead
    # of re-executing the upstream extraction per pass
    edges_ds = edges_ds.materialize()

    # -- 1. degrees (combiner-first count over both endpoints)
    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([pa.field("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("u").combine_chunks().cast(pa.int64()),
                        batch.column("v").combine_chunks().cast(pa.int64()),
                    ]
                )
            }
        )

    deg = partial_sum_count(
        edges_ds.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        [],
        alias={"count": "deg"},
    ).materialize()

    # -- 2. attach deg(u), deg(v)
    broadcast = (
        deg.count() <= _DEG_BROADCAST_LIMIT
        and edges_ds.count() <= _EDGE_BROADCAST_LIMIT
    )
    if broadcast:
        # fused attach+orient: one ray.put of the sorted (node, deg) arrays,
        # one map over the edges — no join passes, no renames
        deg_tbl = pa.concat_tables(
            [t for t in arrow_blocks(deg)
             if t.num_rows and "node" in t.column_names]
        )
        nodes = deg_tbl.column("node").to_numpy(zero_copy_only=False)
        degs = deg_tbl.column("deg").to_numpy(zero_copy_only=False)
        o = np.argsort(nodes)
        deg_ref = ray.put((nodes[o], degs[o].astype(np.int64)))

        def attach_broadcast(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "u" not in batch.column_names:
                return pa.schema(
                    [pa.field(c, pa.int64())
                     for c in ("u", "v", "deg_u", "deg_v")]
                ).empty_table()
            n_sorted, d_sorted = ray.get(deg_ref)
            u = batch.column("u").to_numpy(zero_copy_only=False)
            v = batch.column("v").to_numpy(zero_copy_only=False)
            du = d_sorted[np.searchsorted(n_sorted, u)]
            dv = d_sorted[np.searchsorted(n_sorted, v)]
            return pa.table(
                {
                    "u": pa.array(u.astype(np.int64)),
                    "v": pa.array(v.astype(np.int64)),
                    "deg_u": pa.array(du),
                    "deg_v": pa.array(dv),
                }
            )

        attached = edges_ds.map_batches(attach_broadcast, batch_format="pyarrow")
    else:
        deg_u = deg.map_batches(
            lambda b: b.rename_columns(["node", "deg_u"])
            if "node" in b.column_names else b,
            batch_format="pyarrow",
        )
        deg_v = deg.map_batches(
            lambda b: b.rename_columns(["node", "deg_v"])
            if "node" in b.column_names else b,
            batch_format="pyarrow",
        )
        attached = shuffle_join(edges_ds, deg_u, "u", "node", ["deg_u"])
        attached = shuffle_join(attached, deg_v, "v", "node", ["deg_v"])

    # -- 3. orient low-(deg, id) -> high-(deg, id)
    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [pa.field(c, pa.int64()) for c in ("src", "dst", "rank_dst")]
            ).empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        du = batch.column("deg_u").to_numpy(zero_copy_only=False)
        dv = batch.column("deg_v").to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        ddst = np.where(u_first, dv, du)
        # single sortable rank for the wedge ordering: (deg, id) packed —
        # degrees and ids both < 2^31 here; callers with larger domains
        # sort by the two columns instead
        rank_dst = ddst.astype(np.int64) * np.int64(1 << 31) + dst.astype(np.int64)
        return pa.table(
            {
                "src": pa.array(src.astype(np.int64)),
                "dst": pa.array(dst.astype(np.int64)),
                "rank_dst": pa.array(rank_dst),
            }
        )

    oriented = attached.map_batches(orient, batch_format="pyarrow")

    from opentapioca_ray.stages.exchange import coarse_group_apply

    # -- 4+5 fast path: when the oriented edge set fits in the object store
    # (packed (src << 32 | dst) uint64s), broadcast it ONCE via ray.put and
    # close wedges inside the wedge partition kernel — the O(sum outdeg^2)
    # wedge rows never leave the worker; only P count rows move. The
    # wedge-emission exchange below is the 100 TB fallback.
    if broadcast:
        oriented = oriented.materialize()
        packed_parts = []
        for t in arrow_blocks(oriented):
            if t.num_rows == 0 or "src" not in t.column_names:
                continue
            s = t.column("src").to_numpy(zero_copy_only=False).astype(np.uint64)
            d = t.column("dst").to_numpy(zero_copy_only=False).astype(np.uint64)
            packed_parts.append((s << np.uint64(32)) | d)
        if not packed_parts:
            return driver_dataset(
                pa.table({"n_triangles": pa.array([0], type=pa.int64())})
            )
        edge_set_ref = ray.put(np.sort(np.concatenate(packed_parts)))

        def wedge_count_partition(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty or "src" not in df.columns:
                return pd.DataFrame({"n": pd.Series(dtype=np.int64)})
            src = df["src"].to_numpy(dtype=np.int64)
            dst = df["dst"].to_numpy(dtype=np.int64)
            rank = df["rank_dst"].to_numpy(dtype=np.int64)
            order = np.lexsort((rank, src))
            src, dst = src[order], dst[order]
            li, ri = _segment_pairs(src)
            if len(li) == 0:
                return pd.DataFrame({"n": [0]})
            edge_set = ray.get(edge_set_ref)
            w = (dst[li].astype(np.uint64) << np.uint64(32)) | dst[ri].astype(
                np.uint64
            )
            idx = np.searchsorted(edge_set, w)
            idx = np.clip(idx, 0, len(edge_set) - 1)
            n = int((edge_set[idx] == w).sum())
            return pd.DataFrame({"n": [n]})

        partials = coarse_group_apply(oriented, "src", wedge_count_partition)
        return partials.groupby(None).aggregate(Sum("n", alias_name="n_triangles"))

    # -- 4. wedges from each source's oriented out-neighborhood

    def wedge_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"a": pd.Series(dtype=np.int64), "b": pd.Series(dtype=np.int64)}
        )
        if df.empty or "src" not in df.columns:
            return empty
        src = df["src"].to_numpy(dtype=np.int64)
        dst = df["dst"].to_numpy(dtype=np.int64)
        rank = df["rank_dst"].to_numpy(dtype=np.int64)
        order = np.lexsort((rank, src))
        src, dst = src[order], dst[order]
        li, ri = _segment_pairs(src)
        if len(li) == 0:
            return empty
        # pair ordered by rank => (a, b) matches the edge orientation
        return pd.DataFrame({"a": dst[li], "b": dst[ri]})

    wedges = coarse_group_apply(oriented, "src", wedge_partition)

    # -- 5. closure: count wedges that are oriented edges, co-partitioned
    #       on hash(a, b)
    n_parts = default_n_parts()

    def tag_wedge(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return batch
        t = pa.table({"a": batch.column("a"), "b": batch.column("b")})
        t = t.append_column(
            "__side", pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        )
        return t.append_column("__part", composite_codes(t, ["a", "b"], n_parts))

    def tag_edge(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return batch
        t = pa.table({"a": batch.column("src"), "b": batch.column("dst")})
        t = t.append_column(
            "__side", pa.array(np.ones(batch.num_rows, dtype=np.int8))
        )
        return t.append_column("__part", composite_codes(t, ["a", "b"], n_parts))

    both = wedges.map_batches(tag_wedge, batch_format="pyarrow").union(
        oriented.map_batches(tag_edge, batch_format="pyarrow")
    )

    def close_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "__side" not in df.columns:
            return pd.DataFrame({"n": pd.Series(dtype=np.int64)})
        w = df.loc[df["__side"] == 0, ["a", "b"]]
        e = df.loc[df["__side"] == 1, ["a", "b"]].drop_duplicates()
        n = len(w.merge(e, on=["a", "b"]))
        return pd.DataFrame({"n": [n]})

    partials = both.groupby("__part").map_groups(
        close_partition, batch_format="pandas"
    )
    total = partials.groupby(None).aggregate(Sum("n", alias_name="n_triangles"))
    return total


def per_node_triangles(edges_ds, n_parts=None):
    """Per-node triangle participation counts: (node, n_triangles) for
    every node in >= 1 triangle. Same degree-oriented wedge scheme as
    `count_triangles`' broadcast path, but each closed wedge credits all
    THREE corners — the kernel emits per-partition (node, count) partials
    (bounded by nodes, not wedges) and one coarse merge sums them.
    Partitioning note: the oriented edge set is broadcast via ray.put
    (O(|E|) ints); beyond object-store scale, swap in the wedge-emission
    exchange exactly as count_triangles documents."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    edges_ds = edges_ds.materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([pa.field("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("u").combine_chunks().cast(pa.int64()),
                        batch.column("v").combine_chunks().cast(pa.int64()),
                    ]
                )
            }
        )

    deg = partial_sum_count(
        edges_ds.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        [],
        alias={"count": "deg"},
    ).materialize()
    deg_tbl = pa.concat_tables(
        [
            t
            for t in arrow_blocks(deg)
            if t.num_rows and "node" in t.column_names
        ]
    )
    nodes = deg_tbl.column("node").to_numpy(zero_copy_only=False)
    degs = deg_tbl.column("deg").to_numpy(zero_copy_only=False)
    o = np.argsort(nodes)
    deg_ref = ray.put((nodes[o], degs[o].astype(np.int64)))

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [pa.field(c, pa.int64()) for c in ("src", "dst", "rank_dst")]
            ).empty_table()
        n_sorted, d_sorted = ray.get(deg_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        du = d_sorted[np.searchsorted(n_sorted, u)]
        dv = d_sorted[np.searchsorted(n_sorted, v)]
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v).astype(np.int64)
        dst = np.where(u_first, v, u).astype(np.int64)
        ddst = np.where(u_first, dv, du)
        rank_dst = ddst.astype(np.int64) * np.int64(1 << 31) + dst
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "rank_dst": pa.array(rank_dst),
            }
        )

    oriented = edges_ds.map_batches(orient, batch_format="pyarrow").materialize()
    packed_parts = []
    for t in arrow_blocks(oriented):
        if t.num_rows == 0 or "src" not in t.column_names:
            continue
        s = t.column("src").to_numpy(zero_copy_only=False).astype(np.uint64)
        d = t.column("dst").to_numpy(zero_copy_only=False).astype(np.uint64)
        packed_parts.append((s << np.uint64(32)) | d)
    out_schema = pa.schema([("node", pa.int64()), ("n_triangles", pa.int64())])
    if not packed_parts:
        return driver_dataset(out_schema.empty_table())
    edge_set_ref = ray.put(np.sort(np.concatenate(packed_parts)))

    def corner_partials(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "node": pd.Series(dtype=np.int64),
                "c": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "src" not in df.columns:
            return empty
        src = df["src"].to_numpy(dtype=np.int64)
        dst = df["dst"].to_numpy(dtype=np.int64)
        rank = df["rank_dst"].to_numpy(dtype=np.int64)
        order = np.lexsort((rank, src))
        src, dst = src[order], dst[order]
        li, ri = _segment_pairs(src)
        if len(li) == 0:
            return empty
        edge_set = ray.get(edge_set_ref)
        w = (dst[li].astype(np.uint64) << np.uint64(32)) | dst[ri].astype(
            np.uint64
        )
        idx = np.clip(np.searchsorted(edge_set, w), 0, len(edge_set) - 1)
        hit = edge_set[idx] == w
        if not hit.any():
            return empty
        corners = np.concatenate(
            [src[li[hit]], dst[li[hit]], dst[ri[hit]]]
        )
        uniq, cnt = np.unique(corners, return_counts=True)
        return pd.DataFrame({"node": uniq, "c": cnt.astype(np.int64)})

    partials = coarse_group_apply(oriented, "src", corner_partials, n_parts=n_parts)
    return coarse_groupby_agg(
        partials, ["node"], {"n_triangles": ("c", "sum")}, n_parts=n_parts
    )


def _sup_zero_rows(batch: pa.Table) -> pa.Table:
    """One (u, v, 0) credit row per edge so triangle-free edges still get
    a support row after the final aggregation."""
    if batch.num_rows == 0 or "u" not in batch.column_names:
        return pa.schema([(c, pa.int64()) for c in ("u", "v", "c")]).empty_table()
    return pa.table(
        {
            "u": batch.column("u").cast(pa.int64()),
            "v": batch.column("v").cast(pa.int64()),
            "c": pa.array(np.zeros(batch.num_rows, dtype=np.int64)),
        }
    )


def _edge_support_shuffle(edges_ds, deg, n_parts):
    """Exchange-only per-edge support (see `_edge_support` mode="shuffle"):
    reduce-side degree attach, apex-carrying wedge emission, closure by
    co-partitioning wedges with oriented edges on hash(a, b), per-hit
    3-edge credits pre-aggregated in the closure kernel. No ray.put of
    anything proportional to |V| or |E|."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        composite_codes,
        default_n_parts,
    )
    from opentapioca_ray.stages.relational import shuffle_join

    deg_u = deg.map_batches(
        lambda b: b.rename_columns(["node", "deg_u"])
        if "node" in b.column_names
        else b,
        batch_format="pyarrow",
    )
    deg_v = deg.map_batches(
        lambda b: b.rename_columns(["node", "deg_v"])
        if "node" in b.column_names
        else b,
        batch_format="pyarrow",
    )
    attached = shuffle_join(edges_ds, deg_u, "u", "node", ["deg_u"])
    attached = shuffle_join(attached, deg_v, "v", "node", ["deg_v"])

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [pa.field(c, pa.int64()) for c in ("src", "dst", "rank_dst")]
            ).empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        du = batch.column("deg_u").to_numpy(zero_copy_only=False)
        dv = batch.column("deg_v").to_numpy(zero_copy_only=False)
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        ddst = np.where(u_first, dv, du)
        rank_dst = ddst.astype(np.int64) * np.int64(1 << 31) + dst.astype(
            np.int64
        )
        return pa.table(
            {
                "src": pa.array(src.astype(np.int64)),
                "dst": pa.array(dst.astype(np.int64)),
                "rank_dst": pa.array(rank_dst),
            }
        )

    oriented = attached.map_batches(orient, batch_format="pyarrow").materialize()

    def wedge_rows(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("a", "b", "s")}
        )
        if df.empty or "src" not in df.columns:
            return empty
        src = df["src"].to_numpy(dtype=np.int64)
        dst = df["dst"].to_numpy(dtype=np.int64)
        rank = df["rank_dst"].to_numpy(dtype=np.int64)
        order = np.lexsort((rank, src))
        src, dst = src[order], dst[order]
        li, ri = _segment_pairs(src)
        if len(li) == 0:
            return empty
        return pd.DataFrame({"a": dst[li], "b": dst[ri], "s": src[li]})

    wedges = coarse_group_apply(oriented, "src", wedge_rows, n_parts=n_parts)

    np_ = default_n_parts(n_parts)
    tag_schema = pa.schema(
        [
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("s", pa.int64()),
            ("__side", pa.int8()),
            ("__part", pa.int64()),
        ]
    )

    def tag_wedge(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return tag_schema.empty_table()
        t = pa.table(
            {
                "a": batch.column("a").cast(pa.int64()),
                "b": batch.column("b").cast(pa.int64()),
                "s": batch.column("s").cast(pa.int64()),
                "__side": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
            }
        )
        return t.append_column(
            "__part", composite_codes(t, ["a", "b"], np_)
        ).cast(tag_schema)

    def tag_edge(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return tag_schema.empty_table()
        t = pa.table(
            {
                "a": batch.column("src").cast(pa.int64()),
                "b": batch.column("dst").cast(pa.int64()),
                "s": pa.array(np.full(batch.num_rows, -1, dtype=np.int64)),
                "__side": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
            }
        )
        return t.append_column(
            "__part", composite_codes(t, ["a", "b"], np_)
        ).cast(tag_schema)

    both = wedges.map_batches(tag_wedge, batch_format="pyarrow").union(
        oriented.map_batches(tag_edge, batch_format="pyarrow")
    )

    def close_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "c")}
        )
        if df.empty or "__side" not in df.columns:
            return empty
        side = df["__side"].to_numpy()
        a = df["a"].to_numpy(dtype=np.int64)
        b = df["b"].to_numpy(dtype=np.int64)
        s = df["s"].to_numpy(dtype=np.int64)
        em = side == 1
        wm = ~em
        if not em.any() or not wm.any():
            return empty
        ep = np.unique(
            (a[em].astype(np.uint64) << np.uint64(32)) | b[em].astype(np.uint64)
        )
        wp = (a[wm].astype(np.uint64) << np.uint64(32)) | b[wm].astype(
            np.uint64
        )
        idx = np.clip(np.searchsorted(ep, wp), 0, len(ep) - 1)
        hit = ep[idx] == wp
        if not hit.any():
            return empty
        sa, aa, bb = s[wm][hit], a[wm][hit], b[wm][hit]

        def pack_mm(x, y):
            lo = np.minimum(x, y).astype(np.uint64)
            hi = np.maximum(x, y).astype(np.uint64)
            return (lo << np.uint64(32)) | hi

        cred = np.concatenate(
            [pack_mm(sa, aa), pack_mm(sa, bb), pack_mm(aa, bb)]
        )
        uniq, cnt = np.unique(cred, return_counts=True)
        return pd.DataFrame(
            {
                "u": (uniq >> np.uint64(32)).astype(np.int64),
                "v": (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64),
                "c": cnt.astype(np.int64),
            }
        )

    credits = both.groupby("__part").map_groups(
        close_partition, batch_format="pandas"
    )
    unioned = credits.union(
        edges_ds.map_batches(_sup_zero_rows, batch_format="pyarrow")
    )
    return coarse_groupby_agg(
        unioned, ["u", "v"], {"sup": ("c", "sum")}, n_parts=n_parts
    )


def _edge_support(edges_ds, n_parts=None, return_internals=False, mode="broadcast"):
    """Per-edge triangle support of a distinct (u < v) edge set: the same
    degree-oriented wedge scheme as `per_node_triangles`, but each closed
    wedge credits its three EDGES; union with a zero row per edge so every
    current edge gets a support row (0 when triangle-free). Returns
    (u, v, sup).

    `mode="broadcast"`: the oriented edge set is ray.put once (O(|E|)
    packed ints of driver/object-store state) and each wedge kernel closes
    against it — fastest while |E| fits the object store.
    `mode="shuffle"`: NO broadcast — wedges are EMITTED carrying their
    apex, co-partitioned with the oriented edges on hash(a, b), and each
    closure partition credits the three edges of its hits; the per-edge
    merge is the same coarse aggregation. Nothing anywhere is proportional
    to |E| outside the exchanges — the beyond-object-store path
    `count_triangles` implements for counting, here for support.
    Equivalence is pinned in tests/test_ktruss_delta.py.

    With `return_internals=True` (broadcast mode only) returns
    (sup_ds, internals) where internals carries the materialized oriented
    stream, the sorted packed oriented edge set, and the degree arrays —
    so `ktruss_edges` can peel with support DELTAS instead of a full
    wedge pass per round."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    edges_ds = edges_ds.materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([pa.field("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("u").combine_chunks().cast(pa.int64()),
                        batch.column("v").combine_chunks().cast(pa.int64()),
                    ]
                )
            }
        )

    deg = partial_sum_count(
        edges_ds.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        [],
        alias={"count": "deg"},
    ).materialize()
    if mode == "shuffle":
        return _edge_support_shuffle(edges_ds, deg, n_parts)
    deg_parts = [
        t
        for t in arrow_blocks(deg)
        if t.num_rows and "node" in t.column_names
    ]
    if not deg_parts:
        empty = driver_dataset(
            pa.schema([(c, pa.int64()) for c in ("u", "v", "sup")]).empty_table()
        )
        return (empty, None) if return_internals else empty
    deg_tbl = pa.concat_tables(deg_parts)
    nodes = deg_tbl.column("node").to_numpy(zero_copy_only=False)
    degs = deg_tbl.column("deg").to_numpy(zero_copy_only=False)
    o = np.argsort(nodes)
    deg_ref = ray.put((nodes[o], degs[o].astype(np.int64)))

    def orient(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [pa.field(c, pa.int64()) for c in ("src", "dst", "rank_dst")]
            ).empty_table()
        n_sorted, d_sorted = ray.get(deg_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        du = d_sorted[np.searchsorted(n_sorted, u)]
        dv = d_sorted[np.searchsorted(n_sorted, v)]
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v).astype(np.int64)
        dst = np.where(u_first, v, u).astype(np.int64)
        ddst = np.where(u_first, dv, du)
        rank_dst = ddst.astype(np.int64) * np.int64(1 << 31) + dst
        return pa.table(
            {
                "src": pa.array(src),
                "dst": pa.array(dst),
                "rank_dst": pa.array(rank_dst),
            }
        )

    oriented = edges_ds.map_batches(orient, batch_format="pyarrow").materialize()
    packed_parts = []
    for t in arrow_blocks(oriented):
        if t.num_rows == 0 or "src" not in t.column_names:
            continue
        s = t.column("src").to_numpy(zero_copy_only=False).astype(np.uint64)
        d = t.column("dst").to_numpy(zero_copy_only=False).astype(np.uint64)
        packed_parts.append((s << np.uint64(32)) | d)
    edge_set_np = (
        np.sort(np.concatenate(packed_parts))
        if packed_parts
        else np.zeros(0, dtype=np.uint64)
    )
    edge_set_ref = ray.put(edge_set_np) if packed_parts else None

    def edge_credit_partials(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "c")}
        )
        if df.empty or "src" not in df.columns or edge_set_ref is None:
            return empty
        src = df["src"].to_numpy(dtype=np.int64)
        dst = df["dst"].to_numpy(dtype=np.int64)
        rank = df["rank_dst"].to_numpy(dtype=np.int64)
        order = np.lexsort((rank, src))
        src, dst = src[order], dst[order]
        li, ri = _segment_pairs(src)
        if len(li) == 0:
            return empty
        edge_set = ray.get(edge_set_ref)
        w = (dst[li].astype(np.uint64) << np.uint64(32)) | dst[ri].astype(
            np.uint64
        )
        idx = np.clip(np.searchsorted(edge_set, w), 0, len(edge_set) - 1)
        hit = edge_set[idx] == w
        if not hit.any():
            return empty
        a, b, c = src[li[hit]], dst[li[hit]], dst[ri[hit]]
        eu = np.concatenate([np.minimum(a, b), np.minimum(a, c), np.minimum(b, c)])
        ev = np.concatenate([np.maximum(a, b), np.maximum(a, c), np.maximum(b, c)])
        packed = (eu.astype(np.uint64) << np.uint64(32)) | ev.astype(np.uint64)
        uniq, cnt = np.unique(packed, return_counts=True)
        return pd.DataFrame(
            {
                "u": (uniq >> np.uint64(32)).astype(np.int64),
                "v": (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64),
                "c": cnt.astype(np.int64),
            }
        )

    credits = coarse_group_apply(oriented, "src", edge_credit_partials, n_parts=n_parts)

    def zero_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [(c, pa.int64()) for c in ("u", "v", "c")]
            ).empty_table()
        return pa.table(
            {
                "u": batch.column("u").cast(pa.int64()),
                "v": batch.column("v").cast(pa.int64()),
                "c": pa.array(np.zeros(batch.num_rows, dtype=np.int64)),
            }
        )

    unioned = credits.union(edges_ds.map_batches(zero_rows, batch_format="pyarrow"))
    sup_ds = coarse_groupby_agg(
        unioned, ["u", "v"], {"sup": ("c", "sum")}, n_parts=n_parts
    )
    if return_internals:
        return sup_ds, {
            "oriented": oriented,
            "edge_set": edge_set_np,
            "nodes": nodes[o],
            "degs": degs[o].astype(np.int64),
        }
    return sup_ds


def _support_numpy(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-edge triangle support of a distinct (u < v) edge list, fully
    vectorized on one process — the same degree-oriented wedge + closure
    math as `_edge_support`, used by the bounded driver fast path."""
    n = len(u)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    nodes, counts = np.unique(np.concatenate([u, v]), return_counts=True)
    du = counts[np.searchsorted(nodes, u)]
    dv = counts[np.searchsorted(nodes, v)]
    u_first = (du < dv) | ((du == dv) & (u < v))
    src = np.where(u_first, u, v).astype(np.int64)
    dst = np.where(u_first, v, u).astype(np.int64)
    ddst = np.where(u_first, dv, du).astype(np.int64)
    rank = ddst * np.int64(1 << 31) + dst
    order = np.lexsort((rank, src))
    s_s, d_s = src[order], dst[order]
    li, ri = _segment_pairs(s_s)
    sup = np.zeros(n, dtype=np.int64)
    edge_packed = np.sort((src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64))
    if len(li):
        w = (d_s[li].astype(np.uint64) << np.uint64(32)) | d_s[ri].astype(np.uint64)
        idx = np.clip(np.searchsorted(edge_packed, w), 0, len(edge_packed) - 1)
        hit = edge_packed[idx] == w
        if hit.any():
            a, b, c = s_s[li[hit]], d_s[li[hit]], d_s[ri[hit]]
            eu = np.concatenate(
                [np.minimum(a, b), np.minimum(a, c), np.minimum(b, c)]
            ).astype(np.uint64)
            ev = np.concatenate(
                [np.maximum(a, b), np.maximum(a, c), np.maximum(b, c)]
            ).astype(np.uint64)
            cred = (eu << np.uint64(32)) | ev
            uniq, cnt = np.unique(cred, return_counts=True)
            mine = (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)
            ix = np.clip(np.searchsorted(uniq, mine), 0, len(uniq) - 1)
            got = uniq[ix] == mine
            sup[got] = cnt[ix[got]]
    return sup


# k-truss regimes by edge count: up to `_KTRUSS_DRIVER_LIMIT` edges the
# peel runs in numpy on the driver; up to `_SUPPORT_BROADCAST_LIMIT` the
# delta peel broadcasts the packed edge set; above, every round is an
# exchange-only support pass. Tests reach the other regimes by
# monkeypatching these to 0.
_KTRUSS_DRIVER_LIMIT = 2_000_000
_SUPPORT_BROADCAST_LIMIT = 50_000_000


def ktruss_edges(
    edges_ds,
    k: int = 4,
    rounds: int = 6,
    n_parts=None,
):
    """k-truss decomposition: iteratively drop every edge with triangle
    support < k-2 until stable (or `rounds` peels — mirror the SQL twin's
    unrolled depth). Returns the surviving edges with their support in the
    FINAL graph: (u, v, sup). Peeling is monotone, so an early-converged
    round is identical to running the full unroll.

    DELTA peeling (round-3 verdict item 2): only round 0 pays a full
    `_edge_support` wedge pass. Every later round recomputes NOTHING for
    untouched edges — when edges D are dropped, support changes exactly
    for edges sharing a triangle with some d ∈ D, and every such triangle
    has ≥2 vertices in F = endpoints(D). So each round enumerates only
    the old-graph triangles touching F (wedge rows restricted to
    src ∈ F or dst ∈ F before pair generation), keeps those containing a
    dropped edge, and emits a −1 credit per surviving edge of each; new
    support = old kept support + credits, one small coarse aggregation.
    Orientation is frozen at the ROUND-0 (degree, id) total order — any
    consistent acyclic orientation enumerates each triangle exactly once,
    so reusing it across peels is exact and skips the per-round degree
    pass. Dropped-edge and frontier sets ride the same ray.put broadcast
    regime as the closure edge set (O(|E|) packed ints); block counts are
    re-sized every round (the repo's iterative-loop gotcha)."""
    import ray
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )

    thresh = k - 2
    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return _edge_support(edges, n_parts=n_parts)

    if n_edges <= _KTRUSS_DRIVER_LIMIT:
        # Bounded driver fast path. `_edge_support` ALREADY holds the full
        # packed edge set on the driver (the broadcast closure regime), so
        # peeling ≤ _KTRUSS_DRIVER_LIMIT edges in one numpy process adds no new
        # scale assumption — and skips the ~1 s/round exchange floor that
        # dominates tail peels. Above the limit, the delta-distributed
        # path below takes over (equivalence pinned in
        # tests/test_ktruss_delta.py).
        import ray

        parts = []
        for t in arrow_blocks(edges):
            if isinstance(t, pd.DataFrame):
                if len(t) == 0:
                    continue
                t = pa.Table.from_pandas(t, preserve_index=False)
            if t.num_rows and "u" in t.column_names:
                parts.append(t)
        if not parts:
            return _edge_support(edges.limit(0), n_parts=n_parts)
        tbl = pa.concat_tables(parts)
        u = tbl.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = tbl.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        for _ in range(rounds):
            if len(u) == 0:
                break
            s = _support_numpy(u, v)
            keep_m = s >= thresh
            if keep_m.all():
                return driver_dataset(
                    pa.table(
                        {
                            "u": pa.array(u, pa.int64()),
                            "v": pa.array(v, pa.int64()),
                            "sup": pa.array(s, pa.int64()),
                        }
                    )
                )
            u, v = u[keep_m], v[keep_m]
        s = _support_numpy(u, v)
        return driver_dataset(
            pa.table(
                {
                    "u": pa.array(u, pa.int64()),
                    "v": pa.array(v, pa.int64()),
                    "sup": pa.array(s, pa.int64()),
                }
            )
        )

    out_schema = pa.schema([(c, pa.int64()) for c in ("u", "v", "sup")])

    def split(batch: pa.Table, keep_kept: bool) -> pa.Table:
        if batch.num_rows == 0 or "sup" not in batch.column_names:
            return out_schema.empty_table()
        cond = pc.greater_equal(batch.column("sup"), pa.scalar(thresh))
        if not keep_kept:
            cond = pc.invert(cond)
        t = batch.filter(cond)
        return pa.table(
            {
                "u": t.column("u").cast(pa.int64()),
                "v": t.column("v").cast(pa.int64()),
                "sup": t.column("sup").cast(pa.int64()),
            }
        )

    if n_edges > _SUPPORT_BROADCAST_LIMIT:
        # Beyond object-store broadcast capacity: classic synchronous peel
        # with an exchange-only support pass per round (`_edge_support`
        # mode="shuffle") — no ray.put of anything proportional to |E|,
        # at the cost of a full wedge-emission exchange per round. The
        # delta path below is faster but its dropped-set/frontier
        # bookkeeping rides the same broadcast regime as the closure set.
        edges_cur = edges
        for _ in range(rounds):
            if n_edges == 0:
                break
            sup_x = _edge_support(
                edges_cur, n_parts=n_parts, mode="shuffle"
            ).materialize()
            kept = right_size(
                sup_x.map_batches(
                    lambda b: split(b, True), batch_format="pyarrow"
                ).materialize()
            )
            n_kept = kept.count()
            if n_kept == n_edges:
                return kept
            edges_cur = right_size(kept.drop_columns(["sup"]).materialize())
            n_edges = n_kept
        return _edge_support(edges_cur, n_parts=n_parts, mode="shuffle")

    sup, internals = _edge_support(edges, n_parts=n_parts, return_internals=True)
    sup = sup.materialize()
    if internals is None:
        return sup

    nodes_sorted = internals["nodes"]
    degs_sorted = internals["degs"]
    oriented = internals["oriented"]
    edge_set = internals["edge_set"]
    # minmax-packed edges dropped in PREVIOUS rounds: the oriented stream is
    # never rewritten — each round's candidate filter masks them out instead
    cum_dropped = np.zeros(0, dtype=np.uint64)

    import os as _os
    import time as _time

    _dbg = bool(_os.environ.get("KTRUSS_DEBUG"))
    for _round in range(rounds):
        _t0 = _time.time()
        # --- dropped edges to the driver (same O(|E|) broadcast regime as
        # the closure edge set; shrinks geometrically after round 1) ---
        drop_parts = []
        for t in arrow_blocks(
            sup.map_batches(lambda b: split(b, False), batch_format="pyarrow")
            .materialize()
        ):
            if t.num_rows and "u" in t.column_names:
                drop_parts.append(t)
        n_dropped = sum(t.num_rows for t in drop_parts)
        if n_dropped == 0:
            # converged: every support row passed the threshold, so `sup`
            # (kept edges only after round 1) IS the final-graph support
            return right_size(
                sup.map_batches(
                    lambda b: split(b, True), batch_format="pyarrow"
                ).materialize()
            )
        if n_dropped == n_edges:
            return driver_dataset(out_schema.empty_table())
        d_tbl = pa.concat_tables(drop_parts)
        du = d_tbl.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        dv = d_tbl.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        d_minmax = np.sort(
            (du.astype(np.uint64) << np.uint64(32)) | dv.astype(np.uint64)
        )
        frontier = np.unique(np.concatenate([du, dv]))
        # oriented packing of the dropped edges (round-0 degree order)
        ddu = degs_sorted[np.searchsorted(nodes_sorted, du)]
        ddv = degs_sorted[np.searchsorted(nodes_sorted, dv)]
        u_first = (ddu < ddv) | ((ddu == ddv) & (du < dv))
        d_src = np.where(u_first, du, dv).astype(np.uint64)
        d_dst = np.where(u_first, dv, du).astype(np.uint64)
        d_oriented = np.sort((d_src << np.uint64(32)) | d_dst)

        es_ref = ray.put(edge_set)
        dm_ref = ray.put(d_minmax)
        f_ref = ray.put(frontier)
        cum_ref = ray.put(cum_dropped)

        def candidates(batch: pa.Table) -> pa.Table:
            """Pre-exchange filter: drop previously-peeled rows, keep only
            rows that can belong to a triangle touching this round's
            frontier (src ∈ F keeps the WHOLE out-list — needed for its
            segment pairs — src ∉ F keeps only dst ∈ F arms). This is
            exactly the kernel's own restriction hoisted before the
            shuffle, so exchange volume tracks the frontier size."""
            if batch.num_rows == 0 or "src" not in batch.column_names:
                return pa.schema(
                    [(c, pa.int64()) for c in ("src", "dst", "rank_dst")]
                ).empty_table()
            s = batch.column("src").to_numpy(zero_copy_only=False)
            d = batch.column("dst").to_numpy(zero_copy_only=False)
            fr = ray.get(f_ref)
            m = np.isin(s, fr) | np.isin(d, fr)
            cum = ray.get(cum_ref)
            if len(cum):
                lo = np.minimum(s, d).astype(np.uint64)
                hi = np.maximum(s, d).astype(np.uint64)
                e = (lo << np.uint64(32)) | hi
                ix = np.clip(np.searchsorted(cum, e), 0, len(cum) - 1)
                m &= cum[ix] != e
            return batch.filter(pa.array(m))

        def delta_credit_partials(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("u", "v", "c")}
            )
            if df.empty or "src" not in df.columns:
                return empty
            fr = ray.get(f_ref)
            src = df["src"].to_numpy(dtype=np.int64)
            dst = df["dst"].to_numpy(dtype=np.int64)
            rank = df["rank_dst"].to_numpy(dtype=np.int64)
            s_in = np.isin(src, fr)
            d_in = np.isin(dst, fr)
            m = s_in | d_in
            if not m.any():
                return empty
            src, dst, rank, d_in = src[m], dst[m], rank[m], d_in[m]
            order = np.lexsort((rank, src))
            src, dst, d_in = src[order], dst[order], d_in[order]
            li, ri = _segment_pairs(src)
            if len(li) == 0:
                return empty
            # a triangle touching a dropped edge needs ≥1 wedge arm in F
            pm = d_in[li] | d_in[ri]
            li, ri = li[pm], ri[pm]
            if len(li) == 0:
                return empty
            es = ray.get(es_ref)
            if len(es) == 0:
                return empty
            w = (dst[li].astype(np.uint64) << np.uint64(32)) | dst[ri].astype(
                np.uint64
            )
            idx = np.clip(np.searchsorted(es, w), 0, len(es) - 1)
            hit = es[idx] == w
            if not hit.any():
                return empty
            a, b, c = src[li[hit]], dst[li[hit]], dst[ri[hit]]
            dmm = ray.get(dm_ref)

            def pack_mm(x, y):
                lo = np.minimum(x, y).astype(np.uint64)
                hi = np.maximum(x, y).astype(np.uint64)
                return (lo << np.uint64(32)) | hi

            e1, e2, e3 = pack_mm(a, b), pack_mm(a, c), pack_mm(b, c)

            def in_d(e):
                if len(dmm) == 0:
                    return np.zeros(len(e), dtype=bool)
                ix = np.clip(np.searchsorted(dmm, e), 0, len(dmm) - 1)
                return dmm[ix] == e

            i1, i2, i3 = in_d(e1), in_d(e2), in_d(e3)
            touched = i1 | i2 | i3
            if not touched.any():
                return empty
            # each touched triangle decrements each of its KEPT edges once
            cred = np.concatenate(
                [
                    e1[touched & ~i1],
                    e2[touched & ~i2],
                    e3[touched & ~i3],
                ]
            )
            if len(cred) == 0:
                return empty
            uniq, cnt = np.unique(cred, return_counts=True)
            return pd.DataFrame(
                {
                    "u": (uniq >> np.uint64(32)).astype(np.int64),
                    "v": (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64),
                    "c": -cnt.astype(np.int64),
                }
            )

        decrements = coarse_group_apply(
            oriented.map_batches(candidates, batch_format="pyarrow"),
            "src",
            delta_credit_partials,
            n_parts=n_parts,
        )

        def kept_as_credit(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "sup" not in batch.column_names:
                return pa.schema(
                    [(c, pa.int64()) for c in ("u", "v", "c")]
                ).empty_table()
            return pa.table(
                {
                    "u": batch.column("u").cast(pa.int64()),
                    "v": batch.column("v").cast(pa.int64()),
                    "c": batch.column("sup").cast(pa.int64()),
                }
            )

        kept_lazy = sup.map_batches(
            lambda b: split(b, True), batch_format="pyarrow"
        )
        # right_size: the union adds the decrement exchange's block count to
        # sup every round — unchecked, block counts grow linearly per peel
        # and per-block overhead swamps the shrinking delta work
        sup = right_size(
            coarse_groupby_agg(
                kept_lazy.map_batches(
                    kept_as_credit, batch_format="pyarrow"
                ).union(decrements),
                ["u", "v"],
                {"sup": ("c", "sum")},
                n_parts=n_parts,
            ).materialize()
        )

        # --- advance graph state (driver-side numpy; the oriented stream is
        # reused as-is — `candidates` masks peeled rows at kernel input) ---
        edge_set = edge_set[~np.isin(edge_set, d_oriented)]
        cum_dropped = np.union1d(cum_dropped, d_minmax)
        n_edges -= n_dropped
        if _dbg:
            print(
                f"KTRUSS round={_round} dropped={n_dropped} "
                f"frontier={len(frontier)} t={_time.time() - _t0:.2f}s"
            )
    # round budget exhausted before convergence: `sup` already holds the
    # surviving edges with their current-graph support
    return right_size(sup)


#: Driver-side telemetry for the butterfly hub guard (reset per call):
#: how many right-side hubs were salted and how many chunk-pair kernels
#: the salted exchange fanned out to. Tests assert the plan is bounded.
BUTTERFLY_TELEMETRY = {"hubs": 0, "chunk_tasks": 0, "max_chunks": 0}

# butterfly hub guard: right nodes above `_HUB_DEGREE_THRESHOLD` are
# salted into chunks of `_HUB_CHUNK_SIZE` left neighbours. Tests
# monkeypatch both to force or forbid salting.
_HUB_DEGREE_THRESHOLD = 8192
_HUB_CHUNK_SIZE = 4096


def butterfly_count(ds, left_column: str, right_column: str, n_parts=None):
    """Bipartite butterfly (4-cycle) census — the bipartite analogue of
    the triangle count (Wang et al., "Butterfly Counting in Bipartite
    Networks"): one summary row (n_edges, n_wedges, n_left_pairs,
    n_butterflies) over the DISTINCT (left, right) edge set, where a
    butterfly is an unordered pair of left nodes sharing an unordered
    pair of right neighbors: sum over co-neighbor counts cn of C(cn, 2).

    Shape (round 5 — fused, narrow): per-batch distinct (l, r) combiner
    (materialized once — it is the edge list every later pass reads),
    then ONE exchange on the right node whose kernel does everything the
    old plan took three passes for: global edge dedup, exact per-right
    degrees (segment lengths — this IS hub detection; no second
    aggregation, no hub-id collect), and PACKED light wedge-pair keys
    (l1<<32|l2), all in a 2-column (kind, k) stream. The census exchange
    then co-locates copies of each packed key and each partition emits a
    single (w, p, b) roll-up row — the distinct left-pair table is never
    materialized, re-hashed, or carried as two columns. Raw pair keys are
    NOT pre-deduped per partition (measured: dedup removed 0.3% on the
    bench graph but paid a full sort per kernel).

    Hub guard (exactness-preserving salting): a right node of degree d
    emits C(d, 2) wedge pairs, and without a guard all of them would
    materialize inside ONE census-side allocation for that node's kernel.
    Any right node with degree > `_HUB_DEGREE_THRESHOLD` is instead
    SALTED: the fused kernel emits NO pairs for it (just a stat row); a
    hub-only second pass over the materialized edge list replicates each
    hub edge to its m = ceil(d / _HUB_CHUNK_SIZE) chunk-pair keys
    (h, min(c, x), max(c, x)); the (h, i, i) kernel emits within-chunk
    pairs and each (h, i, j≠i) kernel only cross-chunk pairs, so every
    unordered pair lands in exactly ONE kernel (the pair-key stream is
    identical to the unsalted one) and per-kernel allocation is bounded
    by ~(2·_HUB_CHUNK_SIZE)² candidates regardless of hub degree. The
    hub pass only exists when a hub does — zero marginal cost on
    hub-free graphs beyond a vectorized segment-length compare — and
    only the per-hub stat rows (≤ |E|/threshold) plus one edge-count row
    per partition ever touch the driver.

    Packing assumption (documented): left ids fit in uint32 (the packed
    pair key is l1<<32|l2); right ids are unconstrained int64.

    Partitioning note: exchanging per-batch-dedupped edges by the right
    node means a right node's residual duplicates co-locate too —
    bounded by min(raw rows, input blocks × deg), linear in degree (rows,
    not pairs), the price of fusing dedup + degrees + wedges into one
    all-to-all."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        segment_starts,
    )

    # read on the driver: the partition kernels close over these values
    hub_degree_threshold = _HUB_DEGREE_THRESHOLD
    hub_chunk_size = _HUB_CHUNK_SIZE

    out_schema = pa.schema(
        [
            ("n_edges", pa.int64()),
            ("n_wedges", pa.int64()),
            ("n_left_pairs", pa.int64()),
            ("n_butterflies", pa.int64()),
        ]
    )
    # 2-column union stream emitted by the fused kernel; `kind`:
    #   0 = light wedge-pair key        (k = l1<<32 | l2, raw, one per wedge)
    #   2 = per-hub chunk count         (k = m)             [telemetry]
    #   3 = per-partition edge count    (k = distinct edges here)
    #   4 = hub right-node id           (k = h)  [selects the hub pass]
    slim_schema = pa.schema(
        [(left_column, pa.int64()), (right_column, pa.int64())]
    )

    def _empty_mixed() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "kind": pd.Series(dtype=np.int8),
                "k": pd.Series(dtype=np.int64),
            }
        )

    def distinct_batch(batch: pa.Table) -> pa.Table:
        """Per-batch (l, r) dedup — the combiner that shrinks the one
        exchange to O(blocks × distinct edges per block)."""
        if batch.num_rows == 0 or right_column not in batch.column_names:
            return slim_schema.empty_table()
        t = pa.table(
            {
                left_column: batch.column(left_column).cast(pa.int64()),
                right_column: batch.column(right_column).cast(pa.int64()),
            }
        )
        return t.group_by([left_column, right_column]).aggregate([]).cast(
            slim_schema
        )

    edges = (
        ds.select_columns([left_column, right_column])
        .map_batches(distinct_batch, batch_format="pyarrow")
        .materialize()
    )

    def fused_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or right_column not in df.columns:
            return _empty_mixed()
        r = df[right_column].to_numpy(dtype=np.int64)
        l = df[left_column].to_numpy(dtype=np.int64)
        order = np.lexsort((l, r))
        r, l = r[order], l[order]
        # global dedup for this partition's right nodes (each is wholly here)
        keep = np.concatenate(([True], (r[1:] != r[:-1]) | (l[1:] != l[:-1])))
        r, l = r[keep], l[keep]
        n_edges_here = len(r)
        if n_edges_here == 0:
            return _empty_mixed()
        starts = segment_starts(r)
        ends = np.concatenate((starts[1:], [len(r)]))
        deg = ends - starts
        seg_new = np.concatenate(([True], r[1:] != r[:-1]))
        seg_id = np.cumsum(seg_new) - 1
        is_hub_seg = deg > hub_degree_threshold
        kinds = [np.array([3], dtype=np.int8)]
        ks = [np.array([n_edges_here], dtype=np.int64)]
        light_mask = ~is_hub_seg[seg_id]
        rl, ll = r[light_mask], l[light_mask]
        li, ri = _segment_pairs(rl)
        if len(li):
            packed = (ll[li].astype(np.uint64) << np.uint64(32)) | ll[
                ri
            ].astype(np.uint64)
            kinds.append(np.zeros(len(packed), dtype=np.int8))
            ks.append(packed.view(np.int64))
        if is_hub_seg.any():
            hub_ids = r[starts[is_hub_seg]]
            hub_m = np.maximum(
                1,
                (deg[is_hub_seg] + hub_chunk_size - 1) // hub_chunk_size,
            ).astype(np.int64)
            kinds.append(np.full(len(hub_ids), 2, dtype=np.int8))
            ks.append(hub_m)
            kinds.append(np.full(len(hub_ids), 4, dtype=np.int8))
            ks.append(hub_ids)
        return pd.DataFrame(
            {"kind": np.concatenate(kinds), "k": np.concatenate(ks)}
        )

    mixed = coarse_group_apply(
        edges, right_column, fused_partition, n_parts=n_parts
    ).materialize()

    def stat_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        stat_schema = pa.schema([("kind", pa.int8()), ("k", pa.int64())])
        if batch.num_rows == 0 or "kind" not in batch.column_names:
            return stat_schema.empty_table()
        t = batch.filter(pc.greater_equal(batch.column("kind"), pa.scalar(2)))
        return t.select(["kind", "k"]).cast(stat_schema)

    stats = mixed.map_batches(stat_rows, batch_format="pyarrow").take_all()
    n_edges = int(sum(s["k"] for s in stats if s["kind"] == 3))
    hub_ms = np.array(
        [s["k"] for s in stats if s["kind"] == 2], dtype=np.int64
    )
    hub_ids = np.sort(
        np.array([s["k"] for s in stats if s["kind"] == 4], dtype=np.int64)
    )
    BUTTERFLY_TELEMETRY["hubs"] = len(hub_ms)
    BUTTERFLY_TELEMETRY["chunk_tasks"] = int((hub_ms * (hub_ms + 1) // 2).sum())
    BUTTERFLY_TELEMETRY["max_chunks"] = int(hub_ms.max()) if len(hub_ms) else 0

    if n_edges == 0:
        return driver_dataset(
            pa.table(
                {
                    "n_edges": pa.array([0], pa.int64()),
                    "n_wedges": pa.array([0], pa.int64()),
                    "n_left_pairs": pa.array([0], pa.int64()),
                    "n_butterflies": pa.array([0], pa.int64()),
                }
            )
        )

    def pair_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key_schema = pa.schema([("k", pa.int64())])
        if batch.num_rows == 0 or "kind" not in batch.column_names:
            return key_schema.empty_table()
        t = batch.filter(pc.equal(batch.column("kind"), pa.scalar(0)))
        return t.select(["k"]).cast(key_schema)

    pair_stream = mixed.map_batches(pair_keys, batch_format="pyarrow")

    if len(hub_ids):
        # --- hub-only pass over the SAME materialized edge list: emit each
        # hub edge's m chunk-pair copies, then a chunk-pair-keyed kernel
        # emits exactly the pair keys the unsalted kernel would have ---
        copy_schema = pa.schema(
            [
                ("h", pa.int64()),
                ("i", pa.int64()),
                ("j", pa.int64()),
                ("ch", pa.int64()),
                ("l", pa.int64()),
                ("__bk", pa.int64()),
            ]
        )

        def hub_edges_only(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or right_column not in batch.column_names:
                return slim_schema.empty_table()
            r = batch.column(right_column).to_numpy(zero_copy_only=False)
            r = r.astype(np.int64)
            idx = np.clip(np.searchsorted(hub_ids, r), 0, len(hub_ids) - 1)
            return batch.filter(pa.array(hub_ids[idx] == r)).cast(slim_schema)

        def emit_chunk_copies(df: pd.DataFrame) -> pd.DataFrame:
            """Keyed by the hub right node, so each hub's FULL (dedupped)
            neighbor list is local: recompute d and m exactly, hash each
            left into its chunk, replicate to the m chunk-pair keys."""
            import pandas as pd_

            empty = pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in copy_schema.names}
            )
            if df.empty or right_column not in df.columns:
                return empty
            r = df[right_column].to_numpy(dtype=np.int64)
            l = df[left_column].to_numpy(dtype=np.int64)
            order = np.lexsort((l, r))
            r, l = r[order], l[order]
            keep = np.concatenate(
                ([True], (r[1:] != r[:-1]) | (l[1:] != l[:-1]))
            )
            r, l = r[keep], l[keep]
            if len(r) == 0:
                return empty
            starts = segment_starts(r)
            ends = np.concatenate((starts[1:], [len(r)]))
            deg = ends - starts
            seg_id = np.cumsum(
                np.concatenate(([True], r[1:] != r[:-1]))
            ) - 1
            m = np.maximum(
                1, (deg + hub_chunk_size - 1) // hub_chunk_size
            ).astype(np.int64)[seg_id]
            ch = (
                pd_.util.hash_array(l, hash_key=_BF_HASH_KEY)
                % m.astype(np.uint64)
            ).astype(np.int64)
            n = len(l)
            row = np.repeat(np.arange(n, dtype=np.int64), m)
            run0 = np.concatenate(([0], np.cumsum(m)[:-1]))
            x = np.arange(int(m.sum()), dtype=np.int64) - np.repeat(run0, m)
            cc = ch[row]
            i = np.minimum(cc, x)
            j = np.maximum(cc, x)
            hh = r[row]
            # partition key: deterministic mix of (h, i, j); collisions
            # only affect balance (the kernel re-groups by the columns)
            bk = (
                hh.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                + i.astype(np.uint64) * np.uint64(0x100000001B3)
                + j.astype(np.uint64)
            ).view(np.int64)
            return pd.DataFrame(
                {
                    "h": hh,
                    "i": i,
                    "j": j,
                    "ch": cc,
                    "l": l[row],
                    "__bk": bk,
                }
            )

        def hub_pair_keys(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({"k": pd.Series(dtype=np.int64)})
            if df.empty or "h" not in df.columns:
                return empty
            h = df["h"].to_numpy(dtype=np.int64)
            i_ = df["i"].to_numpy(dtype=np.int64)
            j_ = df["j"].to_numpy(dtype=np.int64)
            ch = df["ch"].to_numpy(dtype=np.int64)
            l = df["l"].to_numpy(dtype=np.int64)
            order = np.lexsort((l, ch, j_, i_, h))
            h, i_, j_, ch, l = (
                h[order],
                i_[order],
                j_[order],
                ch[order],
                l[order],
            )
            new = np.concatenate(
                (
                    [True],
                    (h[1:] != h[:-1])
                    | (i_[1:] != i_[:-1])
                    | (j_[1:] != j_[:-1]),
                )
            )
            li, ri = _segment_pairs_flags(new)
            if len(li) == 0:
                return empty
            # (h, i, i) kernels own ALL within-chunk-i pairs; (h, i, j≠i)
            # kernels own ONLY cross-chunk pairs — so every unordered pair
            # of N(h) is emitted by exactly one kernel.
            keep = (i_[li] == j_[li]) | (ch[li] != ch[ri])
            li, ri = li[keep], ri[keep]
            if len(li) == 0:
                return empty
            a, b = l[li], l[ri]
            packed = (
                np.minimum(a, b).astype(np.uint64) << np.uint64(32)
            ) | np.maximum(a, b).astype(np.uint64)
            return pd.DataFrame({"k": packed.view(np.int64)})

        hub_copies = coarse_group_apply(
            edges.map_batches(hub_edges_only, batch_format="pyarrow"),
            right_column,
            emit_chunk_copies,
            n_parts=n_parts,
        )
        hub_pairs = coarse_group_apply(
            hub_copies, "__bk", hub_pair_keys, n_parts=n_parts
        )
        pair_stream = pair_stream.union(hub_pairs)

    def census_partition(df: pd.DataFrame) -> pd.DataFrame:
        """Merge + roll-up fused: every copy of one packed pair key lands
        here, so one sort + run-length pass yields its exact co-neighbor
        count and the partition's census contribution — no distinct-pair
        table is ever materialized or re-hashed."""
        empty = pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("w", "p", "b")}
        )
        if df.empty or "k" not in df.columns:
            return empty
        k = np.sort(df["k"].to_numpy(dtype=np.int64))
        starts = segment_starts(k)
        cn = np.diff(np.concatenate((starts, [len(k)])))
        return pd.DataFrame(
            {
                "w": np.array([len(k)], dtype=np.int64),
                "p": np.array([len(cn)], dtype=np.int64),
                "b": np.array(
                    [int((cn * (cn - 1) // 2).sum())], dtype=np.int64
                ),
            }
        )

    census = coarse_group_apply(
        pair_stream, "k", census_partition, n_parts=n_parts
    ).take_all()
    return driver_dataset(
        pa.table(
            {
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_wedges": pa.array(
                    [int(sum(r["w"] for r in census))], pa.int64()
                ),
                "n_left_pairs": pa.array(
                    [int(sum(r["p"] for r in census))], pa.int64()
                ),
                "n_butterflies": pa.array(
                    [int(sum(r["b"] for r in census))], pa.int64()
                ),
            }
        )
    ).map_batches(lambda b: b.cast(out_schema), batch_format="pyarrow")
