"""HITS hubs & authorities (Kleinberg, JACM 1999) with quantized rounds.

The dual eigenvector centrality: on a directed graph, authority(v) sums
the hub scores pointing at it, hub(u) sums the authority scores it
points to, each half-round renormalized. Complements PageRank (A4): on
the bipartite part->supplier graph hubs are prolific parts, authorities
the suppliers they concentrate on.

Determinism (the repo's iterative-oracle recipe): scores live as e9
integers; each half-round computes integer sums over edges, finds the
global max via a combiner, and renormalizes with HUGEINT-exact floor
division (score * 1e9 // max) — a pure integer function of the edge
set, replayed by unrolled SQL CTEs.

Scale shape: scores are (node, score) datasets; each half-round is one
lookup-join exchange (edges + scores tagged on the edge tail) + one sum
aggregation on the head + an O(blocks) max reduce; partitions auto-size
to the edge count (the LPA lesson)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

E9 = 1_000_000_000

_SCORE_SCHEMA = pa.schema([("node", pa.int64()), ("score", pa.int64())])


def _attach_sum(edges_tagged, scores, src_name: str, dst_name: str, n_parts):
    """sum of tail scores per head node: one tagged lookup exchange
    (edge rows + score rows keyed on the tail) emitting (head, score),
    then one keyed sum."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
    )

    def tag_scores(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return pa.schema(
                [
                    (src_name, pa.int64()),
                    (dst_name, pa.int64()),
                    ("score", pa.int64()),
                    ("__is_edge", pa.int64()),
                ]
            ).empty_table()
        n = batch.num_rows
        return pa.table(
            {
                src_name: batch.column("node"),
                dst_name: pa.array(np.zeros(n, dtype=np.int64)),
                "score": batch.column("score"),
                "__is_edge": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def join_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "node": pd.Series(dtype=np.int64),
                "s": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "__is_edge" not in df.columns:
            return empty
        edges = df[df["__is_edge"] == 1]
        sc = df[df["__is_edge"] == 0]
        if edges.empty or sc.empty:
            return empty
        lut = pd.Series(
            sc["score"].to_numpy(dtype=np.int64),
            index=sc[src_name].to_numpy(dtype=np.int64),
        )
        vals = lut.reindex(edges[src_name].to_numpy(dtype=np.int64)).to_numpy(
            dtype=np.int64
        )
        out = pd.DataFrame(
            {"node": edges[dst_name].to_numpy(dtype=np.int64), "s": vals}
        )
        return out.groupby("node", sort=False)["s"].sum().reset_index()

    union = edges_tagged.union(scores.map_batches(tag_scores, batch_format="pyarrow"))
    partial = coarse_group_apply(union, src_name, join_partition, n_parts=n_parts)
    return coarse_groupby_agg(
        partial, ["node"], {"s": ("s", "sum")}, n_parts=n_parts
    )


def _normalize(sums, n_parts):
    """(node, s) -> (node, score) with score = s * 1e9 // max(s). The max
    is an O(blocks) combiner reduce; Python ints keep the product exact
    (the SQL twin uses HUGEINT)."""

    def block_max(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "s" not in batch.column_names:
            return pa.schema([("m", pa.int64())]).empty_table()
        import pyarrow.compute as pc

        return pa.table({"m": pa.array([pc.max(batch.column("s")).as_py()])})

    sums = sums.materialize()
    cands = sums.map_batches(block_max, batch_format="pyarrow").take_all()
    mx = max((r["m"] for r in cands), default=0)

    def norm(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return _SCORE_SCHEMA.empty_table()
        s = batch.column("s").to_numpy(zero_copy_only=False)
        score = (
            np.array([int(x) * E9 // mx for x in s], dtype=np.int64)
            if mx
            else np.zeros(len(s), dtype=np.int64)
        )  # python-int product: s * 1e9 can exceed int64
        return pa.table(
            {"node": batch.column("node"), "score": pa.array(score)}
        )

    return sums.map_batches(norm, batch_format="pyarrow")


def _collect_scores(scores_ds):
    """Materialized (node, score) dataset -> sorted driver arrays. Only
    ever called on the broadcast path, where the mode guard bounds the
    node table."""
    import ray

    ns, vs = [], []
    for t in arrow_blocks(scores_ds):
        if t.num_rows == 0 or "node" not in t.column_names:
            continue
        ns.append(t.column("node").to_numpy(zero_copy_only=False))
        vs.append(t.column("score").to_numpy(zero_copy_only=False))
    if not ns:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    nodes = np.concatenate(ns).astype(np.int64)
    vals = np.concatenate(vs).astype(np.int64)
    order = np.argsort(nodes, kind="mergesort")
    return nodes[order], vals[order]


def _half_round_driver(edges, state_ref, tail: str, head: str):
    """ONE streaming pass per half-round: each edge block looks the tail
    scores up in the broadcast state and emits exact-int64 per-head
    partial sums (sort + reduceat, no float accumulation); the driver
    merges the node-bounded partials, takes the max and renormalizes with
    Python-int floor division. Zero exchanges, zero intermediate
    materializations — the state is driver-resident on this path anyway
    (the broadcast guard bounds it)."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.schema([("node", pa.int64()), ("s", pa.int64())]).empty_table()
        if batch.num_rows == 0 or tail not in batch.column_names:
            return empty
        nodes, vals = ray.get(state_ref)
        t = batch.column(tail).to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch.column(head).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(nodes):
            pos = np.minimum(np.searchsorted(nodes, t), len(nodes) - 1)
            sc = np.where(nodes[pos] == t, vals[pos], 0)
        else:
            sc = np.zeros(len(t), dtype=np.int64)
        order = np.argsort(h, kind="mergesort")
        h, sc = h[order], sc[order]
        starts = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))
        sums = np.add.reduceat(sc, starts).astype(np.int64)
        return pa.table({"node": pa.array(h[starts]), "s": pa.array(sums)})

    tables = list(
        arrow_blocks(edges.map_batches(partial, batch_format="pyarrow"))
    )
    tables = [t for t in tables if t.num_rows and "node" in t.column_names]
    if not tables:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    tbl = pa.concat_tables(tables)
    n = tbl.column("node").to_numpy(zero_copy_only=False)
    s = tbl.column("s").to_numpy(zero_copy_only=False)
    order = np.argsort(n, kind="mergesort")
    n, s = n[order], s[order]
    starts = np.flatnonzero(np.concatenate(([True], n[1:] != n[:-1])))
    sums = np.add.reduceat(s, starts)
    mx = int(sums.max())
    if mx:
        # python-int product: s * 1e9 can exceed int64
        scores = np.fromiter(
            (int(x) * E9 // mx for x in sums),
            dtype=np.int64,
            count=len(sums),
        )
    else:
        scores = np.zeros(len(sums), dtype=np.int64)
    return n[starts], scores


# Node-table rows up to which each HITS half-round broadcasts the score
# table; above it the tagged lookup-join shuffle runs. Tests reach the
# shuffle by monkeypatching this to 0.
_SCORE_BROADCAST_LIMIT = 5_000_000


def hits_scores(
    edges_ds,
    rounds: int = 3,
    src_column: str = "src",
    dst_column: str = "dst",
    n_parts: int | None = None,
):
    """`rounds` HITS rounds over distinct directed edges. Returns
    (hubs, auths): two Datasets of (node, score) with e9 scores.

    When the node table fits `_SCORE_BROADCAST_LIMIT` rows, each
    half-round is ONE exchange (broadcast score lookup + combiner sums);
    above it, the tagged lookup-join shuffle path runs — same results."""
    from opentapioca_ray.stages.exchange import (
        coarse_groupby_agg,
        default_n_parts,
        right_size,
    )

    def slim(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or src_column not in batch.column_names:
            return pa.schema([("src", pa.int64()), ("dst", pa.int64())]).empty_table()
        return pa.table(
            {
                "src": batch.column(src_column).cast(pa.int64()),
                "dst": batch.column(dst_column).cast(pa.int64()),
            }
        )

    edges = right_size(
        coarse_groupby_agg(
            edges_ds.map_batches(slim, batch_format="pyarrow"),
            ["src", "dst"],
            {"__n": ("src", "size")},
            n_parts=n_parts,
        )
        .drop_columns(["__n"])
        .materialize()
    )
    if n_parts is None:
        n_parts = max(4, min(default_n_parts(), edges.count() // 8192 + 1))

    def init_nodes(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or col not in batch.column_names:
                return _SCORE_SCHEMA.empty_table()
            return pa.table(
                {
                    "node": batch.column(col),
                    "score": pa.array(
                        np.full(batch.num_rows, E9, dtype=np.int64)
                    ),
                }
            )

        return fn

    from opentapioca_ray.stages.exchange import coarse_groupby_agg as _agg

    hubs = right_size(
        _agg(
            edges.map_batches(init_nodes("src"), batch_format="pyarrow"),
            ["node"],
            {"score": ("score", "min")},
            n_parts=n_parts,
        ).materialize()
    )

    def tag_edges(tail_from: str):
        """Edge rows with `tail` = the score-carrying endpoint (exchange
        key) and `head` = the endpoint the sums aggregate into."""
        head_from = "dst" if tail_from == "src" else "src"

        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "src" not in batch.column_names:
                return pa.schema(
                    [
                        ("tail", pa.int64()),
                        ("head", pa.int64()),
                        ("score", pa.int64()),
                        ("__is_edge", pa.int64()),
                    ]
                ).empty_table()
            n = batch.num_rows
            return pa.table(
                {
                    "tail": batch.column(tail_from),
                    "head": batch.column(head_from),
                    "score": pa.array(np.zeros(n, dtype=np.int64)),
                    "__is_edge": pa.array(np.ones(n, dtype=np.int64)),
                }
            )

        return fn

    use_broadcast = hubs.count() <= _SCORE_BROADCAST_LIMIT

    if use_broadcast:
        import ray

        hub_state = _collect_scores(hubs)
        auth_state = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        for _ in range(rounds):
            auth_state = _half_round_driver(
                edges, ray.put(hub_state), "src", "dst"
            )
            hub_state = _half_round_driver(
                edges, ray.put(auth_state), "dst", "src"
            )

        def to_ds(state):
            return driver_dataset(
                pa.table(
                    {"node": pa.array(state[0]), "score": pa.array(state[1])}
                ).cast(_SCORE_SCHEMA)
            )

        return to_ds(hub_state), to_ds(auth_state)

    # shuffle path: scores never leave the cluster
    # auth update: scores ride the src (hub) side; hub update: the dst side
    fwd = edges.map_batches(tag_edges("src"), batch_format="pyarrow").materialize()
    bwd = edges.map_batches(tag_edges("dst"), batch_format="pyarrow").materialize()

    auths = None
    for _ in range(rounds):
        auths = right_size(
            _normalize(
                _attach_sum(fwd, hubs, "tail", "head", n_parts), n_parts
            ).materialize()
        )
        hubs = right_size(
            _normalize(
                _attach_sum(bwd, auths, "tail", "head", n_parts), n_parts
            ).materialize()
        )
    return hubs, auths
