"""Pair-graph hygiene operators for ER clustering.

Between pair generation and connected components, production ER pipelines
reshape the match graph: EXPAND it where blocking missed pairs that
transitivity suggests (2-hop candidates), and SPARSIFY it so one hub
record cannot glue unrelated clusters into a mega-component (the
classic CC failure mode at corpus scale). Both operate on slim (u, v)
edge lists and never touch record payloads.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset, materialized

_EDGE_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])


def _symmetrize(pairs_ds, weight_column: str | None = None, weight_scale: int | None = None):
    def fn(batch: pa.Table) -> pa.Table:
        from opentapioca_ray.stages.matching import to_fixed_point

        cols = [("a", pa.int64()), ("b", pa.int64())]
        if weight_column:
            cols.append(("w", pa.int64()))
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(cols).empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        out = {
            "a": pa.array(np.concatenate((u, v))),
            "b": pa.array(np.concatenate((v, u))),
        }
        if weight_column:
            w = to_fixed_point(
                batch.column(weight_column).to_numpy(zero_copy_only=False),
                weight_scale,
                weight_column,
            )
            out["w"] = pa.array(np.concatenate((w, w)))
        return pa.table(out)

    return pairs_ds.map_batches(fn, batch_format="pyarrow")


def two_hop_pairs(pairs_ds, max_degree: int = 1024, n_parts: int | None = None):
    """Candidate expansion: node pairs joined through >= 1 common neighbor
    but NOT already edges — (u, v, n_mids) with the common-neighbor count.
    The transitive candidates a second matching round scores when blocking
    recall is suspect.

    ONE exchange on the middle node pairs each partition's neighbor lists
    vectorized; a second slim (u, v) merge both counts middles AND
    anti-joins the original edges (edges ride in with a -BIG tag, so any
    group containing one nets negative and drops — no separate join).
    Nodes above `max_degree` are skipped as middles (a hub's neighbor
    pairs are quadratic; the skip is the same documented skew guard as
    everywhere else)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg
    from opentapioca_ray.stages.triangles import _segment_pairs

    sym = _symmetrize(pairs_ds)

    def neighbor_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                "tag": pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        mids = df["a"].to_numpy(dtype=np.int64)
        nbrs = df["b"].to_numpy(dtype=np.int64)
        order = np.lexsort((nbrs, mids))
        mids, nbrs = mids[order], nbrs[order]
        # drop duplicate (mid, nbr) and cap hub degrees
        first = np.concatenate(
            ([True], (mids[1:] != mids[:-1]) | (nbrs[1:] != nbrs[:-1]))
        )
        mids, nbrs = mids[first], nbrs[first]
        new = np.concatenate(([True], mids[1:] != mids[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        deg = np.bincount(seg)
        keep = deg[seg] <= max_degree
        mids, nbrs = mids[keep], nbrs[keep]
        li, ri = _segment_pairs(mids)
        if len(li) == 0:
            return empty
        return pd.DataFrame(
            {
                "u": nbrs[li],  # nbrs ascend within a mid segment: u < v
                "v": nbrs[ri],
                "tag": np.ones(len(li), dtype=np.int64),
            }
        )

    cands = coarse_group_apply(sym, "a", neighbor_pairs, n_parts=n_parts)

    def edges_tagged(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [("u", pa.int64()), ("v", pa.int64()), ("tag", pa.int64())]
            ).empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "u": pa.array(np.minimum(u, v)),
                "v": pa.array(np.maximum(u, v)),
                "tag": pa.array(np.full(len(u), -(1 << 40), dtype=np.int64)),
            }
        )

    tagged = cands.union(pairs_ds.map_batches(edges_tagged, batch_format="pyarrow"))
    merged = coarse_groupby_agg(
        tagged, ["u", "v"], {"n_mids": ("tag", "sum")}, n_parts=n_parts
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_mids" not in batch.column_names:
            return pa.schema(
                [("u", pa.int64()), ("v", pa.int64()), ("n_mids", pa.int64())]
            ).empty_table()
        n = batch.column("n_mids").to_numpy(zero_copy_only=False)
        t = batch.filter(pa.array(n > 0))  # existing edges net negative
        import pyarrow.compute as pc

        return pa.table(
            {
                "u": pc.cast(t.column("u"), pa.int64()),
                "v": pc.cast(t.column("v"), pa.int64()),
                "n_mids": pc.cast(t.column("n_mids"), pa.int64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def sparsify_edges(
    pairs_ds,
    weight_column: str,
    k: int = 2,
    ascending: bool = True,
    n_parts: int | None = None,
    weight_scale: int | None = None,
):
    """Degree-capped sparsification: each node nominates its `k`
    best-weighted incident edges (ties by partner id); an edge survives if
    EITHER endpoint nominated it. Bounds every node's degree at 2k-ish
    before connected components, killing hub-glued mega-clusters while
    keeping each record's strongest matches (mutual-kNN graph
    construction, standard before clustering).

    ONE exchange on the node ranks all its incident edges vectorized; one
    slim (u, v) merge dedups dual nominations. Weights compare as int64:
    float weight columns must pass `weight_scale` (fixed-point units; the
    output weight column is in those units)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    sym = _symmetrize(pairs_ds, weight_column, weight_scale)

    def nominate(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                "w": pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        a = df["a"].to_numpy(dtype=np.int64)
        b = df["b"].to_numpy(dtype=np.int64)
        w = df["w"].to_numpy(dtype=np.int64)
        wkey = w if ascending else -w
        order = np.lexsort((b, wkey, a))
        a, b, w = a[order], b[order], w[order]
        new = np.concatenate(([True], a[1:] != a[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(len(a), dtype=np.int64) - starts[seg]
        keep = pos < k
        a, b, w = a[keep], b[keep], w[keep]
        return pd.DataFrame(
            {"u": np.minimum(a, b), "v": np.maximum(a, b), "w": w}
        )

    nominated = coarse_group_apply(sym, "a", nominate, n_parts=n_parts)
    merged = coarse_groupby_agg(
        nominated, ["u", "v"], {weight_column: ("w", "max")}, n_parts=n_parts
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema(
                [
                    ("u", pa.int64()),
                    ("v", pa.int64()),
                    (weight_column, pa.int64()),
                ]
            ).empty_table()
        import pyarrow.compute as pc

        return pa.table(
            {
                "u": pc.cast(batch.column("u"), pa.int64()),
                "v": pc.cast(batch.column("v"), pa.int64()),
                weight_column: pc.cast(batch.column(weight_column), pa.int64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def _peel_kernel(u: np.ndarray, v: np.ndarray, k: int, rounds: int):
    """In-memory fixed-round k-core peel: drop edges with an endpoint of
    degree < k, up to `rounds` times (a fixpoint makes further rounds
    identity, so early exit never changes the result)."""
    for _ in range(rounds):
        if len(u) == 0:
            break
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        deg = np.bincount(inv)
        iu, iv = inv[: len(u)], inv[len(u):]
        keep = (deg[iu] >= k) & (deg[iv] >= k)
        if keep.all():
            break
        u, v = u[keep], v[keep]
    return u, v


def kcore_degrees(
    edges,
    k: int = 2,
    rounds: int = 12,
    n_parts=None,
):
    """Fixed-round k-core peel (Seidman 1983 coreness, bounded-round form
    mirroring the repo's 16-iteration PageRank contract): repeatedly drop
    edges touching a node of degree < k, `rounds` times. Because a
    fixpoint is stable, the output is well-defined whether or not the
    peel converged, and the SQL twin unrolls the identical rounds.

    Input: (u, v) edge rows (distinct). Output: (node, degree) of the
    surviving subgraph. Up to `cc._LOCAL_EDGE_LIMIT` edges the peel runs
    on the driver (`_peel_kernel`) and returns one `driver_dataset` block.
    Above it, per round: ONE combiner degree roll-up + TWO coarse
    semi-joins (edges keyed by u, then v) — all integer, nothing
    driver-side."""
    from opentapioca_ray.stages.cc import local_edge_columns
    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size
    from opentapioca_ray.stages.relational import coarse_semi_join

    deg_schema = pa.schema([("node", pa.int64()), ("degree", pa.int64())])

    edges = materialized(edges)
    cols = local_edge_columns(edges)
    if cols is not None:
        u, v = _peel_kernel(cols["u"], cols["v"], k, rounds)
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        return driver_dataset(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "degree": pa.array(
                        np.bincount(inv, minlength=len(nodes)), pa.int64()
                    ),
                }
            )
        )

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        u = batch.column("u").cast(pa.int64()).combine_chunks()
        v = batch.column("v").cast(pa.int64()).combine_chunks()
        return pa.table({"node": pa.concat_arrays([u, v])})

    def final_degrees(ds):
        return coarse_groupby_agg(
            ds.map_batches(explode, batch_format="pyarrow"),
            ["node"],
            {"degree": ("node", "size")},
            n_parts=n_parts,
        ).map_batches(
            lambda b: (
                pa.table(
                    {
                        "node": b.column("node").cast(pa.int64()),
                        "degree": b.column("degree").cast(pa.int64()),
                    }
                )
                if b.num_rows and "node" in b.column_names
                else deg_schema.empty_table()
            ),
            batch_format="pyarrow",
        )

    for _ in range(rounds):
        core = coarse_groupby_agg(
            edges.map_batches(explode, batch_format="pyarrow"),
            ["node"],
            {"c": ("node", "size")},
            n_parts=n_parts,
        ).map_batches(
            lambda b: (
                b.filter(pa.compute.greater_equal(b.column("c"), k)).select(
                    ["node"]
                )
                if b.num_rows and "node" in b.column_names
                else pa.schema([("node", pa.int64())]).empty_table()
            ),
            batch_format="pyarrow",
        ).materialize()
        # Re-block both sides each round: union+groupby preserves input
        # block counts, so without this the 2-semi-join round TRIPLES the
        # block count every iteration (4 -> 3^rounds blocks — observed as
        # a 26GB driver-memory sort on a 400-edge test graph).
        core = right_size(core)
        edges = coarse_semi_join(
            edges, "u", core, _EDGE_SCHEMA, keys_column="node", n_parts=n_parts
        )
        edges = right_size(
            coarse_semi_join(
                edges, "v", core, _EDGE_SCHEMA, keys_column="node", n_parts=n_parts
            ).materialize()
        )
    return final_degrees(edges)


def both_dirs(
    batch: pa.Table, names: tuple[str, str] = ("u", "v"), weight: str | None = None
) -> pa.Table:
    """Each (u, v[, weight]) edge row in both orientations, as int64
    columns `names` (plus `weight`, copied to both rows): the symmetrize
    step of every operator that treats edges as undirected."""
    fields = [(n, pa.int64()) for n in (*names, *([weight] if weight else []))]
    if batch.num_rows == 0 or "u" not in batch.column_names:
        return pa.schema(fields).empty_table()
    u = batch.column("u").cast(pa.int64()).combine_chunks()
    v = batch.column("v").cast(pa.int64()).combine_chunks()
    out = {names[0]: pa.concat_arrays([u, v]), names[1]: pa.concat_arrays([v, u])}
    if weight:
        w = batch.column(weight).cast(pa.int64()).combine_chunks()
        out[weight] = pa.concat_arrays([w, w])
    return pa.table(out)


def _hops_kernel(
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    lm: np.ndarray,
    seeds: np.ndarray,
    rounds: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-memory fixed-round min-plus relaxation over an undirected edge
    list with nonnegative int64 weights `w`: each distinct landmark `lm`
    relaxes from the seed nodes it labels, `rounds` times (a fixpoint is
    stable, so stopping early changes nothing). Returns (lm, node, dist)
    for every node reached within `rounds` rounds, seeds included at dist
    0; duplicate (lm, seed) pairs count once. With w = 1 this is BFS."""
    INF = np.int64(2**62)
    nodes = np.unique(np.concatenate([u, v, seeds]))
    iu, iv = np.searchsorted(nodes, u), np.searchsorted(nodes, v)
    src, dst, ww = np.concatenate([iu, iv]), np.concatenate([iv, iu]), np.concatenate([w, w])
    o = np.argsort(lm, kind="stable")
    landmarks, starts = np.unique(lm[o], return_index=True)
    out_lm, out_node, out_dist = [], [], []
    for landmark, group in zip(landmarks, np.split(seeds[o], starts[1:])):
        dist = np.full(len(nodes), INF, dtype=np.int64)
        dist[np.searchsorted(nodes, group)] = 0
        for _ in range(rounds):
            ok = dist[src] < INF  # never add a weight to the INF sentinel
            nd = dist.copy()
            np.minimum.at(nd, dst[ok], dist[src[ok]] + ww[ok])
            if np.array_equal(nd, dist):
                break
            dist = nd
        reached = np.flatnonzero(dist < INF)
        out_lm.append(np.full(len(reached), landmark, dtype=np.int64))
        out_node.append(nodes[reached])
        out_dist.append(dist[reached])
    if not out_lm:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return np.concatenate(out_lm), np.concatenate(out_node), np.concatenate(out_dist)


_HOPS_SCHEMA = pa.schema(
    [("lm", pa.int64()), ("node", pa.int64()), ("dist", pa.int64())]
)


def _relax(edges, seeds, rounds: int, n_parts, weighted: bool, per_landmark: bool):
    """The fixed-round relaxation behind `bfs_hops`, `weighted_hops` and
    `multi_source_hops`: (lm, node, dist) state, one min-plus step per
    round over the undirected edges. Each edge adds its `w` column when
    `weighted`, else 1; each seed is its own landmark (lm = node) when
    `per_landmark`, else every seed shares lm = 0. Seeds are deduplicated
    once, so duplicate seeds change nothing in either regime.

    Up to `cc._LOCAL_EDGE_LIMIT` edges the edges and seeds are collected
    to the driver and `_hops_kernel` returns one `driver_dataset` block.
    Above it, per round: ONE reduce-side lookup exchange keyed by edge
    source (the state rows ride the same shuffle; the message kernel
    expands every state row co-located with an edge source through
    multi-match searchsorted ranges) + ONE coarse min-groupby on
    (lm, node) over the messages ∪ the current state."""
    from opentapioca_ray.stages.cc import local_edge_columns
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )

    def seed_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return _HOPS_SCHEMA.empty_table()
        node = batch.column("node").cast(pa.int64()).combine_chunks()
        zeros = pa.array(np.zeros(batch.num_rows, dtype=np.int64))
        return pa.table(
            {"lm": node if per_landmark else zeros, "node": node, "dist": zeros}
        )

    seed_ds = seeds.map_batches(seed_rows, batch_format="pyarrow")
    edges = materialized(edges)
    cols = local_edge_columns(edges, ("u", "v", "w") if weighted else ("u", "v"))
    if cols is not None:
        # seeds are O(seed-count): tiny next to the edges collected above
        s = pa.concat_tables(
            [_HOPS_SCHEMA.empty_table()]
            + [t for t in arrow_blocks(seed_ds) if t.num_rows and "lm" in t.column_names]
        )
        u, v = cols["u"], cols["v"]
        lm, node, dist = _hops_kernel(
            u,
            v,
            cols["w"] if weighted else np.ones(len(u), dtype=np.int64),
            s.column("lm").to_numpy(),
            s.column("node").to_numpy(),
            rounds,
        )
        return driver_dataset(
            pa.table(
                [pa.array(lm), pa.array(node), pa.array(dist)], schema=_HOPS_SCHEMA
            )
        )

    union_schema = pa.schema(
        [
            ("key", pa.int64()),
            ("v", pa.int64()),
            ("w", pa.int64()),
            ("lm", pa.int64()),
            ("d", pa.int64()),
            ("__is_dist", pa.bool_()),
        ]
    )

    def edge_rows(batch: pa.Table) -> pa.Table:
        t = both_dirs(batch, weight="w" if weighted else None)
        n = t.num_rows
        return pa.table(
            {
                "key": t.column("u"),
                "v": t.column("v"),
                "w": t.column("w") if weighted else pa.array(np.ones(n, dtype=np.int64)),
                "lm": pa.nulls(n, pa.int64()),
                "d": pa.nulls(n, pa.int64()),
                "__is_dist": pa.array(np.zeros(n, dtype=bool)),
            }
        ).cast(union_schema)

    def dist_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("node").cast(pa.int64()),
                "v": pa.nulls(n, pa.int64()),
                "w": pa.nulls(n, pa.int64()),
                "lm": batch.column("lm").cast(pa.int64()),
                "d": batch.column("dist").cast(pa.int64()),
                "__is_dist": pa.array(np.ones(n, dtype=bool)),
            }
        ).cast(union_schema)

    def messages(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__is_dist" not in t.column_names:
            return _HOPS_SCHEMA.empty_table()
        isd = t.column("__is_dist").to_numpy(zero_copy_only=False).astype(bool)
        key = t.column("key").to_numpy(zero_copy_only=False)
        ek, dk = key[~isd], key[isd]
        ev = t.column("v").to_numpy(zero_copy_only=False)[~isd]
        ew = t.column("w").to_numpy(zero_copy_only=False)[~isd]
        dl = t.column("lm").to_numpy(zero_copy_only=False)[isd]
        dd = t.column("d").to_numpy(zero_copy_only=False)[isd]
        o = np.argsort(dk, kind="stable")
        dk, dl, dd = dk[o], dl[o], dd[o]
        lo = np.searchsorted(dk, ek, side="left")
        cnt = np.searchsorted(dk, ek, side="right") - lo
        total = int(cnt.sum())
        if total == 0:
            return _HOPS_SCHEMA.empty_table()
        rep = np.repeat(np.arange(len(ek)), cnt)
        idx = np.repeat(lo, cnt) + (np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt))
        return pa.table(
            {
                "lm": pa.array(dl[idx].astype(np.int64)),
                "node": pa.array(ev[rep].astype(np.int64)),
                "dist": pa.array((dd[idx] + ew[rep]).astype(np.int64)),
            }
        )

    def clean(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "node" not in b.column_names:
            return _HOPS_SCHEMA.empty_table()
        return b.select(["lm", "node", "dist"]).cast(_HOPS_SCHEMA)

    def min_dist(ds):
        return right_size(
            coarse_groupby_agg(
                ds, ["lm", "node"], {"dist": ("dist", "min")}, n_parts=n_parts
            )
            .map_batches(clean, batch_format="pyarrow")
            .materialize()
        )

    sym = right_size(edges.map_batches(edge_rows, batch_format="pyarrow").materialize())
    dist = min_dist(seed_ds)
    for _ in range(rounds):
        unioned = sym.union(dist.map_batches(dist_rows, batch_format="pyarrow"))
        msgs = coarse_group_apply(
            unioned, "key", messages, n_parts=n_parts, batch_format="pyarrow"
        )
        dist = min_dist(msgs.union(dist))
    return dist


def bfs_hops(edges, seeds, rounds: int = 6, n_parts=None):
    """Fixed-round breadth-first hop distances from a seed set (the
    bounded-iteration contract shared with the repo's 16-round PageRank
    and 12-round k-core: a fixpoint is stable, so the unrolled SQL twin
    matches whether or not the relaxation converged).

    Inputs: `edges` with (u, v) int64 rows (undirected, distinct),
    `seeds` with a `node` int64 column. Output: (node, dist) for nodes
    within `rounds` hops (isolated seeds included, dist 0). `_relax`
    with unit weights and one shared landmark."""
    out = _relax(edges, seeds, rounds, n_parts, weighted=False, per_landmark=False)
    return out.drop_columns(["lm"])


def weighted_hops(edges, seeds, rounds: int = 6, n_parts=None):
    """Fixed-round single-source-set shortest paths (Bellman-Ford,
    min-plus semiring) over an undirected weighted edge list — the
    weighted sibling of `bfs_hops` (reference analogue: the bounded
    16-iteration PageRank contract, wikidatagraph.py:140-156; distances
    generalize hop counts exactly as rank mass generalizes reachability).

    Inputs: `edges` with (u, v, w) int64 rows (w >= 0, distinct pairs),
    `seeds` with a `node` int64 column. Output: (node, dist) rows where
    dist is the cheapest path cost found within `rounds` relaxation
    rounds (isolated seeds at dist 0). Integer weights keep the unrolled
    SQL twin exact whether or not the relaxation converged. `_relax`
    with the `w` column and one shared landmark."""
    out = _relax(edges, seeds, rounds, n_parts, weighted=True, per_landmark=False)
    return out.drop_columns(["lm"])


def multi_source_hops(edges, seeds, rounds: int = 4, n_parts=None):
    """Per-landmark fixed-round BFS: (lm, node, dist) rows for every
    landmark in `seeds` (a `node` int64 column) — the building block for
    landmark/pivot distance sketches and closeness-centrality estimates
    (Potamias et al. CIKM 2009). `_relax` with unit weights and each
    seed its own landmark."""
    return _relax(edges, seeds, rounds, n_parts, weighted=False, per_landmark=True)


def degree_assortativity(edges, n_parts=None):
    """Degree assortativity coefficient (Newman 2002): the Pearson
    correlation of endpoint degrees over the SYMMETRIZED edge list (each
    undirected edge counted in both directions, the standard convention).
    One summary row (m2, sx, sxy, sxx, r_e6): all sufficient statistics
    are exact int64 sums (symmetry makes the x/y marginals identical);
    r is ONE fixed quantized float expression replayed by the SQL twin.

    Shape: degree roll-up (one combiner exchange) + two reduce-side
    lookup exchanges attaching each endpoint's degree + a map-side
    partial-sum combine; only O(1) summary rows reach the driver."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size
    from opentapioca_ray.stages.metablocking import _attach_node_stats

    sym = right_size(
        edges.map_batches(both_dirs, batch_format="pyarrow").materialize()
    )

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": batch.column("u").cast(pa.int64())})

    deg = coarse_groupby_agg(
        sym.map_batches(explode, batch_format="pyarrow"),
        ["node"],
        {"d": ("node", "size")},
        n_parts=n_parts,
    ).map_batches(
        lambda b: (
            pa.table(
                {
                    "node": b.column("node").cast(pa.int64()),
                    "s": b.column("d").cast(pa.int64()),
                    "d": b.column("d").cast(pa.int64()),
                }
            )
            if b.num_rows and "node" in b.column_names
            else pa.schema(
                [("node", pa.int64()), ("s", pa.int64()), ("d", pa.int64())]
            ).empty_table()
        ),
        batch_format="pyarrow",
    )
    deg = right_size(deg.materialize())

    with_u = _attach_node_stats(
        sym, deg, "u", ["u", "v"], "du", "_du2", n_parts
    )
    both = _attach_node_stats(
        with_u, deg, "v", ["u", "v", "du", "_du2"], "dv", "_dv2", n_parts
    )

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("m2", pa.int64()),
                ("sx", pa.int64()),
                ("sxy", pa.int64()),
                ("sxx", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "du" not in batch.column_names:
            return schema.empty_table()
        du = batch.column("du").to_numpy(zero_copy_only=False).astype(np.int64)
        dv = batch.column("dv").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "m2": pa.array([len(du)], pa.int64()),
                "sx": pa.array([int(du.sum())], pa.int64()),
                "sxy": pa.array([int((du * dv).sum())], pa.int64()),
                "sxx": pa.array([int((du * du).sum())], pa.int64()),
            }
        )

    m2 = sx = sxy = sxx = 0
    for t in arrow_blocks(both.map_batches(partial, batch_format="pyarrow")):
        if t.num_rows == 0 or "m2" not in t.column_names:
            continue
        m2 += int(t.column("m2").to_numpy().sum())
        sx += int(t.column("sx").to_numpy().sum())
        sxy += int(t.column("sxy").to_numpy().sum())
        sxx += int(t.column("sxx").to_numpy().sum())
    out_schema = pa.schema(
        [
            ("m2", pa.int64()),
            ("sx", pa.int64()),
            ("sxy", pa.int64()),
            ("sxx", pa.int64()),
            ("r_e6", pa.int64()),
        ]
    )
    if m2 == 0:
        return driver_dataset(out_schema.empty_table())
    # symmetric list: x/y marginals identical, so one mean/variance pair.
    # Same IEEE op order as the SQL twin.
    mean = float(sx) / m2
    var = float(sxx) / m2 - mean * mean
    cov = float(sxy) / m2 - mean * mean
    r_e6 = int(np.floor(1e6 * cov / var + 0.5)) if var > 0 else 0
    return driver_dataset(
        pa.table(
            {
                "m2": pa.array([m2], pa.int64()),
                "sx": pa.array([sx], pa.int64()),
                "sxy": pa.array([sxy], pa.int64()),
                "sxx": pa.array([sxx], pa.int64()),
                "r_e6": pa.array([r_e6], pa.int64()),
            }
        )
    )


def hll_ball_sketches(edges, rounds: int = 3, n_parts=None):
    """HyperANF (Boldi, Rosa & Vigna, WWW 2011) in the repo's
    bounded-round form: every node carries a 256-register HyperLogLog of
    its r-hop ball; each round the sketch becomes the register-wise max
    of itself and its neighbors' sketches (HLL union IS max, so the
    merge is associative and exact-integer). After `rounds` rounds the
    per-node estimate approximates |ball(v, rounds)| — the neighborhood
    function that yields effective-diameter estimates without any BFS
    per source.

    Register conventions are IDENTICAL to stages/sketches.hll_distinct
    (md5-u64, reg = hv >> 56, rho = 57 - bit_length(low 56 bits)), so
    the unrolled SQL twin reproduces every register bit-for-bit; the
    estimate is the same one fixed float expression.

    Output: (node, n_registers_zero, sum_rho, ball_e2). Distributed
    shape per round: ONE reduce-side exchange keyed by edge source
    (sparse state rows ride with the edges; message fan-out is
    edges x live registers) + ONE coarse (node, reg) max-merge. Sparse
    state: absent registers are rho 0 and never shipped."""
    import math

    import ray

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )
    from opentapioca_ray.stages.sketches import _HLL_ALPHA_256, _md5_u64

    state_schema = pa.schema(
        [("node", pa.int64()), ("reg", pa.int64()), ("rho", pa.int64())]
    )

    edges = edges.materialize()
    sym = right_size(
        edges.map_batches(both_dirs, batch_format="pyarrow").materialize()
    )

    # init: each node's own-hash register (distinct endpoints, combiner)
    nodes = coarse_groupby_agg(
        sym.map_batches(
            lambda b: (
                pa.table({"node": b.column("u").cast(pa.int64())})
                if b.num_rows and "u" in b.column_names
                else pa.schema([("node", pa.int64())]).empty_table()
            ),
            batch_format="pyarrow",
        ),
        ["node"],
        {"c": ("node", "size")},
        n_parts=n_parts,
    )

    def init_state(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return state_schema.empty_table()
        node = (
            batch.column("node").cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        hv = _md5_u64(node)
        reg = (hv >> np.uint64(56)).astype(np.int64)
        suffix = hv & np.uint64((1 << 56) - 1)
        pows = (np.uint64(1) << np.arange(56, dtype=np.uint64))[None, :]
        nbits = (suffix[:, None] >= pows).sum(axis=1).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(node),
                "reg": pa.array(reg),
                "rho": pa.array(57 - nbits),
            }
        )

    state = right_size(
        nodes.map_batches(init_state, batch_format="pyarrow").materialize()
    )

    union_schema = pa.schema(
        [
            ("key", pa.int64()),
            ("v", pa.int64()),
            ("reg", pa.int64()),
            ("rho", pa.int64()),
            ("__is_state", pa.bool_()),
        ]
    )

    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("u").cast(pa.int64()),
                "v": batch.column("v").cast(pa.int64()),
                "reg": pa.nulls(n, pa.int64()),
                "rho": pa.nulls(n, pa.int64()),
                "__is_state": pa.array(np.zeros(n, dtype=bool)),
            }
        ).cast(union_schema)

    def state_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("node").cast(pa.int64()),
                "v": pa.nulls(n, pa.int64()),
                "reg": batch.column("reg").cast(pa.int64()),
                "rho": batch.column("rho").cast(pa.int64()),
                "__is_state": pa.array(np.ones(n, dtype=bool)),
            }
        ).cast(union_schema)

    def messages(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__is_state" not in t.column_names:
            return state_schema.empty_table()
        iss = t.column("__is_state").to_numpy(zero_copy_only=False).astype(bool)
        ek = t.column("key").to_numpy(zero_copy_only=False)[~iss]
        ev = t.column("v").to_numpy(zero_copy_only=False)[~iss]
        sk = t.column("key").to_numpy(zero_copy_only=False)[iss]
        sr = t.column("reg").to_numpy(zero_copy_only=False)[iss]
        sh = t.column("rho").to_numpy(zero_copy_only=False)[iss]
        if len(ek) == 0 or len(sk) == 0:
            return state_schema.empty_table()
        o = np.argsort(sk, kind="mergesort")
        sk, sr, sh = sk[o], sr[o], sh[o]
        lo = np.searchsorted(sk, ek, side="left")
        hi = np.searchsorted(sk, ek, side="right")
        lens = hi - lo
        total = int(lens.sum())
        if total == 0:
            return state_schema.empty_table()
        # flat index of every (edge, state-row) combination — the HLL
        # payload fan-out, fully vectorized
        flat = np.repeat(lo, lens) + (
            np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        return pa.table(
            {
                "node": pa.array(np.repeat(ev, lens).astype(np.int64)),
                "reg": pa.array(sr[flat].astype(np.int64)),
                "rho": pa.array(sh[flat].astype(np.int64)),
            }
        )

    for _ in range(rounds):
        unioned = sym.map_batches(edge_rows, batch_format="pyarrow").union(
            state.map_batches(state_rows, batch_format="pyarrow")
        )
        msgs = coarse_group_apply(
            unioned, "key", messages, n_parts=n_parts, batch_format="pyarrow"
        )
        state = right_size(
            coarse_groupby_agg(
                msgs.union(state),
                ["node", "reg"],
                {"rho": ("rho", "max")},
                n_parts=n_parts,
            )
            .map_batches(
                lambda b: (
                    pa.table(
                        {
                            "node": b.column("node").cast(pa.int64()),
                            "reg": b.column("reg").cast(pa.int64()),
                            "rho": b.column("rho").cast(pa.int64()),
                        }
                    )
                    if b.num_rows and "node" in b.column_names
                    else state_schema.empty_table()
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "node": pd.Series(dtype=np.int64),
            "n_registers_zero": pd.Series(dtype=np.int64),
            "sum_rho": pd.Series(dtype=np.int64),
            "ball_e2": pd.Series(dtype=np.int64),
        }
        if df.empty or "node" not in df.columns:
            return pd.DataFrame(cols)
        rows = []
        for nd, grp in df.groupby("node", sort=True):
            M = np.zeros(256, dtype=np.int64)
            M[grp["reg"].to_numpy(dtype=np.int64)] = grp["rho"].to_numpy(
                dtype=np.int64
            )
            v = int((M == 0).sum())
            t = sum(1 << (57 - int(r)) for r in M)
            e = _HLL_ALPHA_256 * 65536.0 * 144115188075855872.0 / float(t)
            if e <= 2.5 * 256 and v > 0:
                e = 256.0 * math.log(256.0 / v)
            rows.append(
                {
                    "node": int(nd),
                    "n_registers_zero": v,
                    "sum_rho": int(M.sum()),
                    "ball_e2": int(np.floor(e * 100.0 + 0.5)),
                }
            )
        return pd.DataFrame(rows)

    return coarse_group_apply(state, "node", estimate, n_parts=n_parts)


def stress_centrality(
    edges,
    seeds,
    rounds: int = 4,
    n_parts=None,
):
    """Bounded-radius stress centrality (Shimbel 1953; the exact-integer
    member of the betweenness family): from each seed s, count the
    shortest s->t paths (t within `rounds` hops) that pass through each
    node v — mass_s(v) = sigma_s(v) * (paths_s(v) - 1), where sigma is
    the forward shortest-path count and paths(v) = 1 + sum of paths(w)
    over v's shortest-path-DAG successors counts the DAG suffixes from v
    (every suffix endpoint is a valid t, so no fractional dependency
    accumulation — unlike Brandes' betweenness deltas, every quantity
    here is an exact int64 and the unrolled SQL twin replays it).
    Returns (node, stress) = mass summed over seeds, reached nodes only.

    Scale shape: ONE coarse exchange builds the adjacency; dist / sigma /
    paths evolve as per-seed node-bounded driver state (the
    MIS/WL/HITS convention) refreshed by one broadcast streaming pass per
    level — 3 * `rounds` passes total, no per-level shuffle. Memory is
    O(#seeds * #nodes) on the driver: landmark methods use O(1) seeds by
    construction (Potamias et al. CIKM 2009), keeping this node-bounded."""
    import ray

    from .exchange import coarse_group_apply, default_n_parts

    out_schema = pa.schema([("node", pa.int64()), ("stress", pa.int64())])

    sym = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()
    n_edges = sym.count()
    if n_parts is None:
        n_parts = max(4, min(default_n_parts(), n_edges // 8192 + 1))
    adj = coarse_group_apply(
        sym, "u", lambda df: df, n_parts=n_parts, batch_format="pandas"
    ).materialize()

    def nodes_of(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.array(
                    np.unique(
                        batch.column("u").to_numpy(zero_copy_only=False)
                    ).astype(np.int64)
                )
            }
        )

    tabs = list(
        arrow_blocks(adj.map_batches(nodes_of, batch_format="pyarrow"))
    )
    tabs = [t for t in tabs if t.num_rows and "node" in t.column_names]

    seed_tabs = list(
        arrow_blocks(
            seeds.map_batches(
                lambda b: b.select(["node"])
                if b.num_rows and "node" in b.column_names
                else pa.schema([("node", pa.int64())]).empty_table(),
                batch_format="pyarrow",
            )
        )
    )
    lms = np.unique(
        np.concatenate(
            [
                t.column("node").to_numpy(zero_copy_only=False)
                for t in seed_tabs
                if t.num_rows
            ]
            or [np.zeros(0, dtype=np.int64)]
        )
    ).astype(np.int64)
    # isolated seeds (no edges) stay in the universe: they are reached at
    # dist 0 and report stress 0, matching the SQL twin's d0 rows
    nodes = np.unique(
        np.concatenate(
            [t.column("node").to_numpy(zero_copy_only=False) for t in tabs]
            + [lms]
        )
    ).astype(np.int64)
    K, N = len(lms), len(nodes)
    if K == 0:
        return out_schema.empty_table()

    BIG = np.int64(1 << 62)
    dist = np.full((K, N), BIG, dtype=np.int64)
    dist[np.arange(K), np.searchsorted(nodes, lms)] = 0

    def level_pass(make_messages):
        """One streaming adjacency pass; merge (k, node_pos, val) partials."""
        tabs = list(
            arrow_blocks(
                adj.map_batches(make_messages, batch_format="pyarrow")
            )
        )
        return [t for t in tabs if t.num_rows and "k" in t.column_names]

    msg_schema = pa.schema(
        [("k", pa.int64()), ("p", pa.int64()), ("val", pa.int64())]
    )

    # ---- forward BFS levels
    for lvl in range(1, rounds + 1):
        state = ray.put((nodes, dist, lvl))

        def frontier(batch: pa.Table, _ref=state) -> pa.Table:
            if batch.num_rows == 0 or "u" not in batch.column_names:
                return msg_schema.empty_table()
            nd, d, l = ray.get(_ref)
            su = np.searchsorted(nd, batch.column("u").to_numpy(zero_copy_only=False))
            sv = np.searchsorted(nd, batch.column("v").to_numpy(zero_copy_only=False))
            ks, ps = [], []
            for k in range(d.shape[0]):
                hit = (d[k, su] == l - 1) & (d[k, sv] >= l)
                if hit.any():
                    tgt = np.unique(sv[hit])
                    ks.append(np.full(len(tgt), k, dtype=np.int64))
                    ps.append(tgt.astype(np.int64))
            if not ks:
                return msg_schema.empty_table()
            kk = np.concatenate(ks)
            return pa.table(
                {
                    "k": pa.array(kk),
                    "p": pa.array(np.concatenate(ps)),
                    "val": pa.array(np.full(len(kk), lvl, dtype=np.int64)),
                }
            )

        for t in level_pass(frontier):
            kk = t.column("k").to_numpy(zero_copy_only=False)
            pp = t.column("p").to_numpy(zero_copy_only=False)
            np.minimum.at(dist, (kk, pp), np.int64(lvl))

    # ---- forward sigma by level
    sigma = np.zeros((K, N), dtype=np.int64)
    sigma[np.arange(K), np.searchsorted(nodes, lms)] = 1
    for lvl in range(1, rounds + 1):
        state = ray.put((nodes, dist, sigma, lvl))

        def sig_msgs(batch: pa.Table, _ref=state) -> pa.Table:
            if batch.num_rows == 0 or "u" not in batch.column_names:
                return msg_schema.empty_table()
            nd, d, sg, l = ray.get(_ref)
            su = np.searchsorted(nd, batch.column("u").to_numpy(zero_copy_only=False))
            sv = np.searchsorted(nd, batch.column("v").to_numpy(zero_copy_only=False))
            ks, ps, vals = [], [], []
            for k in range(d.shape[0]):
                hit = (d[k, su] == l - 1) & (d[k, sv] == l)
                if not hit.any():
                    continue
                tgt, contrib = sv[hit], sg[k, su[hit]]
                o = np.argsort(tgt, kind="stable")
                tgt, contrib = tgt[o], contrib[o]
                starts = np.flatnonzero(
                    np.concatenate(([True], tgt[1:] != tgt[:-1]))
                )
                ks.append(np.full(len(starts), k, dtype=np.int64))
                ps.append(tgt[starts].astype(np.int64))
                vals.append(np.add.reduceat(contrib, starts))
            if not ks:
                return msg_schema.empty_table()
            return pa.table(
                {
                    "k": pa.array(np.concatenate(ks)),
                    "p": pa.array(np.concatenate(ps)),
                    "val": pa.array(np.concatenate(vals)),
                }
            )

        for t in level_pass(sig_msgs):
            kk = t.column("k").to_numpy(zero_copy_only=False)
            pp = t.column("p").to_numpy(zero_copy_only=False)
            vv = t.column("val").to_numpy(zero_copy_only=False)
            np.add.at(sigma, (kk, pp), vv)

    # ---- backward DAG suffix counts
    paths = np.where(dist < BIG, np.int64(1), np.int64(0))
    for lvl in range(rounds - 1, -1, -1):
        state = ray.put((nodes, dist, paths, lvl))

        def path_msgs(batch: pa.Table, _ref=state) -> pa.Table:
            if batch.num_rows == 0 or "u" not in batch.column_names:
                return msg_schema.empty_table()
            nd, d, pth, l = ray.get(_ref)
            su = np.searchsorted(nd, batch.column("u").to_numpy(zero_copy_only=False))
            sv = np.searchsorted(nd, batch.column("v").to_numpy(zero_copy_only=False))
            ks, ps, vals = [], [], []
            for k in range(d.shape[0]):
                hit = (d[k, su] == l) & (d[k, sv] == l + 1)
                if not hit.any():
                    continue
                tgt, contrib = su[hit], pth[k, sv[hit]]
                o = np.argsort(tgt, kind="stable")
                tgt, contrib = tgt[o], contrib[o]
                starts = np.flatnonzero(
                    np.concatenate(([True], tgt[1:] != tgt[:-1]))
                )
                ks.append(np.full(len(starts), k, dtype=np.int64))
                ps.append(tgt[starts].astype(np.int64))
                vals.append(np.add.reduceat(contrib, starts))
            if not ks:
                return msg_schema.empty_table()
            return pa.table(
                {
                    "k": pa.array(np.concatenate(ks)),
                    "p": pa.array(np.concatenate(ps)),
                    "val": pa.array(np.concatenate(vals)),
                }
            )

        for t in level_pass(path_msgs):
            kk = t.column("k").to_numpy(zero_copy_only=False)
            pp = t.column("p").to_numpy(zero_copy_only=False)
            vv = t.column("val").to_numpy(zero_copy_only=False)
            np.add.at(paths, (kk, pp), vv)

    mass = sigma * np.maximum(paths - 1, 0)
    stress = mass.sum(axis=0)
    # reached-but-leaf nodes have mass 0; report every REACHED node so the
    # output is a function of the radius, not of which masses are zero
    reached = (dist < BIG).any(axis=0)
    return pa.table(
        {
            "node": pa.array(nodes[reached]),
            "stress": pa.array(stress[reached]),
        }
    ).cast(out_schema)


def link_prediction(pairs_ds, max_degree: int = 1024, n_parts: int | None = None):
    """Link-prediction scores for every non-adjacent node pair with >= 1
    common neighbor: (u, v, cn, du, dv, jaccard_e6) — the common-neighbor
    count, both endpoint degrees, and the neighborhood-Jaccard score
    cn / (du + dv - cn) in EXACT integer millionths (Liben-Nowell &
    Kleinberg's common-neighbors / Jaccard predictors, the standard
    second-round candidate rankers when blocking recall is suspect).

    Shape: `two_hop_pairs` (one middle-keyed exchange + one slim pair
    merge, hubs above `max_degree` skipped as middles) + a degree roll-up
    + two reduce-side lookup exchanges attaching endpoint degrees (the
    `_attach_node_stats` shape shared with metablocking /
    degree_assortativity). All arithmetic is int64; no floats anywhere."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size
    from opentapioca_ray.stages.metablocking import _attach_node_stats

    pairs_ds = pairs_ds.materialize()  # consumed by cands AND degrees
    cands = two_hop_pairs(pairs_ds, max_degree=max_degree, n_parts=n_parts)
    sym = _symmetrize(pairs_ds)

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": batch.column("a").cast(pa.int64())})

    deg_schema = pa.schema([("node", pa.int64()), ("s", pa.int64()), ("d", pa.int64())])
    deg = coarse_groupby_agg(
        sym.map_batches(explode, batch_format="pyarrow"),
        ["node"],
        {"d": ("node", "size")},
        n_parts=n_parts,
    ).map_batches(
        lambda b: (
            pa.table(
                {
                    "node": b.column("node").cast(pa.int64()),
                    "s": b.column("d").cast(pa.int64()),
                    "d": b.column("d").cast(pa.int64()),
                }
            )
            if b.num_rows and "node" in b.column_names
            else deg_schema.empty_table()
        ),
        batch_format="pyarrow",
    )
    deg = right_size(deg.materialize())

    with_u = _attach_node_stats(
        cands, deg, "u", ["u", "v", "n_mids"], "du", "_du2", n_parts
    )
    both = _attach_node_stats(
        with_u, deg, "v", ["u", "v", "n_mids", "du", "_du2"], "dv", "_dv2", n_parts
    )
    out_schema = pa.schema(
        [
            ("u", pa.int64()),
            ("v", pa.int64()),
            ("cn", pa.int64()),
            ("du", pa.int64()),
            ("dv", pa.int64()),
            ("jaccard_e6", pa.int64()),
        ]
    )

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_mids" not in batch.column_names:
            return out_schema.empty_table()
        cn = batch.column("n_mids").to_numpy(zero_copy_only=False).astype(np.int64)
        du = batch.column("du").to_numpy(zero_copy_only=False).astype(np.int64)
        dv = batch.column("dv").to_numpy(zero_copy_only=False).astype(np.int64)
        union = du + dv - cn  # >= 1 whenever cn >= 1
        return pa.table(
            {
                "u": pc.cast(batch.column("u"), pa.int64()),
                "v": pc.cast(batch.column("v"), pa.int64()),
                "cn": pa.array(cn),
                "du": pa.array(du),
                "dv": pa.array(dv),
                "jaccard_e6": pa.array(cn * 1_000_000 // union),
            }
        )

    return both.map_batches(score, batch_format="pyarrow")


def rich_club(edges_ds, ks: list[int] | None = None, n_parts=None):
    """Rich-club coefficients (Zhou & Mondragón 2004): for each degree
    threshold k, the density of the subgraph induced by nodes with
    degree > k — phi(k) = 2*E_k / (N_k*(N_k-1)) in exact integer
    millionths. A rising phi(k) means hubs preferentially interconnect —
    the hub-glued-cluster early warning for match graphs. Output:
    (k, n_nodes, n_edges, phi_e6).

    Shape: one combiner degree roll-up, the (node, degree) table
    broadcast once via ray.put (O(|V|) ints — swap in the two reduce-side
    attach exchanges of degree_assortativity past broadcast scale), one
    counting pass over the edges."""
    import ray

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    ks = ks or [1, 2, 4, 8, 16]
    edges_ds = edges_ds.materialize()

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        u = batch.column("u").cast(pa.int64()).combine_chunks()
        v = batch.column("v").cast(pa.int64()).combine_chunks()
        return pa.table({"node": pa.concat_arrays([u, v])})

    deg = coarse_groupby_agg(
        edges_ds.map_batches(endpoints, batch_format="pyarrow"),
        ["node"],
        {"d": ("node", "size")},
        n_parts=n_parts,
    ).materialize()
    out_schema = pa.schema(
        [
            ("k", pa.int64()),
            ("n_nodes", pa.int64()),
            ("n_edges", pa.int64()),
            ("phi_e6", pa.int64()),
        ]
    )
    parts = [
        t
        for t in arrow_blocks(deg)
        if t.num_rows and "node" in t.column_names
    ]
    if not parts:
        return driver_dataset(out_schema.empty_table())
    deg_tbl = pa.concat_tables(parts)
    nodes = deg_tbl.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
    degs = deg_tbl.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(nodes)
    nodes, degs = nodes[o], degs[o]
    deg_ref = ray.put((nodes, degs))
    karr = np.array(sorted(ks), dtype=np.int64)

    def edge_counts(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.table(
                {"k": pa.array([], pa.int64()), "e": pa.array([], pa.int64())}
            )
        ns, ds_ = ray.get(deg_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        du = ds_[np.searchsorted(ns, u)]
        dv = ds_[np.searchsorted(ns, v)]
        m = np.minimum(du, dv)
        counts = [(int((m > kk).sum())) for kk in karr]
        return pa.table(
            {"k": pa.array(karr), "e": pa.array(counts, pa.int64())}
        )

    # per-batch partials are len(ks) rows each — sum on the driver
    ec = edges_ds.map_batches(edge_counts, batch_format="pyarrow").materialize()
    e_by_k = {}
    for t in arrow_blocks(ec):
        if t.num_rows == 0 or "k" not in t.column_names:
            continue
        for kk, e in zip(t.column("k").to_pylist(), t.column("e").to_pylist()):
            e_by_k[kk] = e_by_k.get(kk, 0) + e
    rows = []
    for kk in karr:
        n_k = int((degs > kk).sum())
        e_k = int(e_by_k.get(int(kk), 0))
        phi = 2 * e_k * 1_000_000 // (n_k * (n_k - 1)) if n_k >= 2 else 0
        rows.append((int(kk), n_k, e_k, phi))
    return driver_dataset(
        pa.table(
            {
                "k": pa.array([r[0] for r in rows], pa.int64()),
                "n_nodes": pa.array([r[1] for r in rows], pa.int64()),
                "n_edges": pa.array([r[2] for r in rows], pa.int64()),
                "phi_e6": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )
