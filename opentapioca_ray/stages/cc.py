"""Connected components over a match-edge Dataset.

Large-star / small-star alternation (Kiveris et al., "Connected Components
in MapReduce and Beyond") expressed as Ray Data shuffles — the clustering
step mandated by the north rule (BASELINE.json): converges in O(log n)
rounds. Each round is ONE coarse-partition exchange (hash(node) % P, see
stages/exchange.py) whose partition kernel processes every node of the
partition with vectorized numpy — NOT a per-node `map_groups`, which pays
per-group pandas overhead on millions of near-singleton nodes. The driver
loop stops when the edge multiset digest stabilizes. Small edge sets
skip the rounds: one vectorized min-label / pointer-jumping kernel
(`_local_components`, also the per-partition pre-contraction) labels
them on the driver. The Python union-find `connected_components_local`
is the oracle for tests.

Edges are undirected (u, v) int64 pairs; output is (node, component) where
component = min node id of the cluster (singletons excluded — callers union
them back in if needed).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.stages.exchange import (
    coarse_group_apply,
    driver_dataset,
    materialized,
    segment_ids,
    segment_starts,
)


def _sorted_dedup(df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) rows -> u-major sorted, duplicate rows removed."""
    u = df["u"].to_numpy(dtype=np.int64)
    v = df["v"].to_numpy(dtype=np.int64)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    if len(u):
        keep = np.concatenate(([True], (u[1:] != u[:-1]) | (v[1:] != v[:-1])))
        u, v = u[keep], v[keep]
    return u, v


_EDGE_SCHEMA = {"u": np.int64, "v": np.int64}


def _large_star_partition(df: pd.DataFrame) -> pd.DataFrame:
    """All nodes of one coarse partition at once (input: both directions).
    Per node u: m = min(u, min neighbor); emit (v, m) for neighbors v > u."""
    u, v = _sorted_dedup(df)
    if len(u) == 0:
        return pd.DataFrame({"u": [], "v": []}).astype(_EDGE_SCHEMA)
    starts = segment_starts(u)
    gid = segment_ids(u)
    m = np.minimum(u[starts], v[starts])  # v sorted per group: first = min
    mask = v > u
    return pd.DataFrame({"u": v[mask], "v": m[gid[mask]]})


def _small_star_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Input orientation high -> low (u >= v). Per node u with neighbors N:
    m = min(N ∪ {u}); emit (x, m) for x in (N ∪ {u}) \\ {m}."""
    u, v = _sorted_dedup(df)
    if len(u) == 0:
        return pd.DataFrame({"u": [], "v": []}).astype(_EDGE_SCHEMA)
    starts = segment_starts(u)
    gid = segment_ids(u)
    m = v[starts]  # v <= u everywhere, so min(N ∪ {u}) = first v
    mask = (v != m[gid]) & (v != u)  # u itself is appended once below
    out_u = [v[mask]]
    out_v = [m[gid[mask]]]
    gu = u[starts]
    gmask = gu != m
    out_u.append(gu[gmask])
    out_v.append(m[gmask])
    return pd.DataFrame(
        {"u": np.concatenate(out_u), "v": np.concatenate(out_v)}
    )


def _local_components(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) int64 edge arrays -> (nodes, roots): every node ascending, and
    the smallest node id of its component. Vectorized min-label
    propagation with pointer jumping on dense codes: each sweep is O(E)
    numpy; labels only decrease, so the fixpoint loop terminates, in
    O(log n) sweeps. A self-loop keeps its node as its own root."""
    nodes, codes = np.unique(np.concatenate((u, v)), return_inverse=True)
    uc, vc = codes[: len(u)], codes[len(u) :]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        m = np.minimum(lab[uc], lab[vc])
        new = lab.copy()
        np.minimum.at(new, uc, m)
        np.minimum.at(new, vc, m)
        new = new[new]  # pointer jump
        if np.array_equal(new, lab):
            break
        lab = new
    # nodes[] is sorted ascending, so code order == value order: the min
    # code IS the min node id
    return nodes, nodes[lab]


def _contract_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Local pre-contraction: replace one coarse partition's edge set by the
    star edges (node -> local min root) of its LOCAL connectivity.
    Connectivity-equivalent (a spanning star per local component), so the
    global star rounds start from depth-1 chains instead of arbitrary local
    chains — typically 1 global round instead of 3-4."""
    u = df["u"].to_numpy(dtype=np.int64)
    v = df["v"].to_numpy(dtype=np.int64)
    if len(u) == 0:
        return pd.DataFrame({"u": [], "v": []}).astype(_EDGE_SCHEMA)
    nodes, roots = _local_components(u, v)
    mask = roots != nodes  # every emitted edge is high -> low
    return pd.DataFrame({"u": nodes[mask], "v": roots[mask]})


def _both_directions(batch: pa.Table) -> pa.Table:
    fwd = pa.table({"u": batch.column("u"), "v": batch.column("v")})
    rev = pa.table({"u": batch.column("v"), "v": batch.column("u")})
    return pa.concat_tables([fwd, rev])


def _high_low(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    u = batch.column("u")
    v = batch.column("v")
    hi = pc.max_element_wise(u, v)
    lo = pc.min_element_wise(u, v)
    return pa.table({"u": hi, "v": lo})


def _edge_digest(ds) -> tuple[int, int]:
    """Cheap convergence check: (row count, sum of u*31+v mod 2^61)."""
    from opentapioca_ray.stages.exchange import arrow_blocks

    count = 0
    acc = 0
    for t in arrow_blocks(ds):
        count += t.num_rows
        if t.num_rows:
            u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
            v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
            acc = (acc + int((u * 31 + v).sum())) % ((1 << 61) - 1)
    return count, acc


# Graphs of at most this many edges run on the driver: their int64 edge
# columns are collected into driver memory (2M edges x 16 B for (u, v),
# 24 B with a weight column) and handed to a numpy kernel. Above it each
# graph stage (connected_components, kcore_degrees and the hop operators
# in stages/graphops.py) runs its exchange rounds instead.
_LOCAL_EDGE_LIMIT = 2_000_000


def local_edge_columns(
    edges_ds, columns: tuple[str, ...] = ("u", "v")
) -> dict[str, np.ndarray] | None:
    """`columns` of the MATERIALIZED `edges_ds` as int64 numpy arrays,
    collected to the driver in one pass, when it holds at most
    `_LOCAL_EDGE_LIMIT` rows; None above it (the caller runs its exchange
    rounds). An empty edge set gives empty arrays."""
    from opentapioca_ray.stages.exchange import arrow_blocks

    if edges_ds.count() > _LOCAL_EDGE_LIMIT:
        return None
    parts = {c: [np.zeros(0, dtype=np.int64)] for c in columns}
    for t in arrow_blocks(edges_ds):
        if t.num_rows == 0 or columns[0] not in t.column_names:
            continue
        for c in columns:
            parts[c].append(t.column(c).to_numpy(zero_copy_only=False).astype(np.int64))
    return {c: np.concatenate(p) for c, p in parts.items()}


def connected_components(
    edges_ds,
    max_rounds: int = 30,
    n_parts: int | None = None,
):
    """edges Dataset (u, v) -> assignments Dataset (node, component).

    Scale-adaptive: up to `_LOCAL_EDGE_LIMIT` edges the edge columns are
    collected to the driver, labelled by the vectorized
    `_local_components` kernel and returned as ONE `driver_dataset` block,
    nodes ascending — match edges are a tiny fraction of input rows, so
    this is the common case even for huge corpora. Above the
    limit it runs the large-star/small-star rounds, one coarse-partition
    exchange each (O(log n) rounds); stop when the edge digest is stable.
    Tests reach the exchange rounds by monkeypatching `_LOCAL_EDGE_LIMIT`
    to 0.
    """
    edges_ds = materialized(edges_ds)
    cols = local_edge_columns(edges_ds)
    if cols is not None:
        nodes, roots = _local_components(cols["u"], cols["v"])
        return driver_dataset(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "component": pa.array(roots, pa.int64()),
                }
            )
        )

    # every input node must appear in the output even if its edges are
    # self-loops (dropped by the star rounds) — union self-assignments in
    # before the final min-aggregate
    def _self_assign(batch: pa.Table) -> pa.Table:
        nodes = pa.concat_tables(
            [
                pa.table({"node": batch.column("u").cast(pa.int64())}),
                pa.table({"node": batch.column("v").cast(pa.int64())}),
            ]
        ).column("node")
        return pa.table({"node": nodes, "component": nodes})

    self_assign = edges_ds.map_batches(_self_assign, batch_format="pyarrow")

    # local pre-contraction (one coarse exchange): each partition
    # collapses its local chains to depth-1 stars before the global rounds
    ds = coarse_group_apply(
        edges_ds.map_batches(_high_low, batch_format="pyarrow"),
        "u",
        _contract_partition,
        n_parts=n_parts,
    )
    prev_digest = None
    for _ in range(max_rounds):
        ds = coarse_group_apply(
            ds.map_batches(_both_directions, batch_format="pyarrow"),
            "u",
            _large_star_partition,
            n_parts=n_parts,
        )
        ds = coarse_group_apply(
            ds.map_batches(_high_low, batch_format="pyarrow"),
            "u",
            _small_star_partition,
            n_parts=n_parts,
        )
        ds = ds.materialize()
        digest = _edge_digest(ds)
        if digest == prev_digest:
            break
        prev_digest = digest
    # converged: every edge is (node -> root)
    out = ds.map_batches(
        lambda b: pa.table(
            {"node": b.column("u"), "component": b.column("v")}
        )
        if b.num_rows and "u" in b.column_names
        else pa.schema([("node", pa.int64()), ("component", pa.int64())]).empty_table(),
        batch_format="pyarrow",
    )
    from ray.data.aggregate import Min

    return (
        out.union(self_assign)
        .groupby("node")
        .aggregate(Min("component", alias_name="component"))
    )


def connected_components_local(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find oracle for tests."""
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return {node: find(node) for node in parent}


def component_size_histogram(assign_ds, component_column: str = "component"):
    """(size, n_components) histogram of connected-component sizes —
    the dedup health report (how much of the corpus sits in mega-clusters
    vs pairs). Two chained combiner aggregates; nothing bigger than the
    per-size counts ever moves."""
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_sum_count

    sizes = partial_sum_count(
        assign_ds.select_columns([component_column]), component_column, []
    )

    def as_size(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "count" not in batch.column_names:
            return pa.schema([("size", pa.int64())]).empty_table()
        return pa.table({"size": batch.column("count").cast(pa.int64())})

    per_size = sizes.map_batches(as_size, batch_format="pyarrow")
    hist = partial_sum_count(per_size, "size", [], alias={"count": "n_components"})
    return hist
