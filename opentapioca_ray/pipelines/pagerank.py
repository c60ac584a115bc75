"""Graph pipeline: edge extraction -> sort -> normalize -> PageRank.

The reference's chain (opentapioca/cli.py:49-86) was dump -> TSV -> GNU
sort -> scipy CSR -> 16 power iterations (wikidatagraph.py:24-157). Here:

- `extract_edges`: per item, dedup targets + multiplicity counts
  (A2, wikidatagraph.py:44-59) inside `map_batches`;
- `count_edges`: (src, dst) multiplicities, combined per batch and summed
  by the repo's one partial-sum merge (`stages/exchange.py:sum_partials`);
- `normalize_edges`: row-normalized weights per src (A3) — per-src totals
  from the same merge, broadcast to one vectorized divide per batch;
- `sorted_edge_arrays`: the edges collected to the driver and ordered by
  one `np.lexsort` (replaces GNU sort — K1; the arrays feed the local CSR
  kernel anyway);
- `compute_pagerank_local`: numpy kernel (semantics-identical 16 iterations
  + L1 loss compensation) for graphs whose dense rank vector fits one node;
- `compute_pagerank_distributed`: the scale path — per iteration one
  `map_batches` (broadcast rank vector via ray.put) + `groupby(dst).sum()`
  shuffle + scalar loss compensation. Same numerics, all-to-all per
  iteration.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from opentapioca_ray.state.graph import LinkGraph
from opentapioca_ray.stages.exchange import arrow_blocks


def extract_edges_batch(batch: pa.Table) -> pa.Table:
    """items (id, item_json) -> (src, dst, count) with per-src dedup."""
    from opentapioca_ray.sources.items import get_outgoing_edges

    out_src, out_dst, out_cnt = [], [], []
    for qid, item_json in zip(
        batch.column("id").to_pylist(), batch.column("item_json").to_pylist()
    ):
        if not qid or not qid.startswith("Q"):
            continue
        item = json.loads(item_json)
        edges = get_outgoing_edges(item)
        if not edges:
            continue
        src = int(qid[1:])
        counts: dict[int, int] = {}
        for t in edges:
            counts[int(t)] = counts.get(int(t), 0) + 1
        for dst in sorted(counts):
            out_src.append(src)
            out_dst.append(dst)
            out_cnt.append(counts[dst])
    return pa.table(
        {
            "src": pa.array(out_src, type=pa.int64()),
            "dst": pa.array(out_dst, type=pa.int64()),
            "count": pa.array(out_cnt, type=pa.int64()),
        }
    )


def extract_edges(items_ds):
    return items_ds.map_batches(extract_edges_batch, batch_format="pyarrow")


_EDGE_COUNT_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("count", pa.int64())]
)


def count_edges(ds, src_col: str, dst_col: str):
    """(src, dst) multiplicity counts with a map-side combiner: each batch
    pre-aggregates locally with Arrow's hash group-by, and the partials are
    summed per (src, dst) by `stages/exchange.py:sum_partials` (a driver
    group-by up to its row limit, else one coarse exchange)."""
    from opentapioca_ray.stages.exchange import sum_partials

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "src": batch.column(src_col).cast(pa.int64()),
                "dst": batch.column(dst_col).cast(pa.int64()),
            }
        )
        g = t.group_by(["src", "dst"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "src": g.column("src"),
                "dst": g.column("dst"),
                "count": g.column("count_all"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    return sum_partials(partials, ["src", "dst"], _EDGE_COUNT_SCHEMA)


_WEIGHT_SCHEMA = pa.schema(
    [("src", pa.int64()), ("dst", pa.int64()), ("weight", pa.float64())]
)


def normalize_edges(edges_ds):
    """weight = count / sum(count) per src (reference wikidatagraph.py:103-104).

    Vectorized map-side join: the per-src totals are the edge counts summed
    by `stages/exchange.py:sum_partials` (driver group-by or coarse
    exchange, from the edge row count), collected as the |V|-sized small
    side and broadcast once via ray.put as two sorted numpy arrays; a numpy
    searchsorted lookup inside map_batches then divides. No per-group
    Python: a `groupby(src).map_groups` formulation pays per-group pandas
    overhead on millions of tiny groups. At graphs where |V| outgrows
    driver memory, swap the broadcast for a reduce-side join keyed on src —
    same dataflow shape."""
    import ray

    from opentapioca_ray.stages.exchange import materialized, sum_partials

    edges_ds = materialized(edges_ds)  # consumed twice: totals + normalize
    totals = sum_partials(
        edges_ds, ["src"], pa.schema([("src", pa.int64()), ("count", pa.int64())])
    )
    key_chunks, tot_chunks = [], []
    for t in arrow_blocks(totals):
        if t.num_rows == 0 or "src" not in t.column_names:
            continue
        key_chunks.append(t.column("src").to_numpy(zero_copy_only=False))
        tot_chunks.append(t.column("count").to_numpy(zero_copy_only=False))
    keys = np.concatenate(key_chunks) if key_chunks else np.zeros(0, np.int64)
    tots = np.concatenate(tot_chunks) if tot_chunks else np.zeros(0, np.int64)
    order = np.argsort(keys)
    keys_ref = ray.put(keys[order])
    tots_ref = ray.put(tots[order].astype(np.float64))

    def norm(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return _WEIGHT_SCHEMA.empty_table()
        k = ray.get(keys_ref)
        t = ray.get(tots_ref)
        src = batch.column("src").to_numpy(zero_copy_only=False)
        cnt = batch.column("count").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(k, src)
        return pa.table(
            {
                "src": batch.column("src"),
                "dst": batch.column("dst"),
                "weight": pa.array(cnt / t[idx], type=pa.float64()),
            }
        )

    return edges_ds.map_batches(norm, batch_format="pyarrow")


def sorted_edge_arrays(edges_ds):
    """Edges -> (src, dst, weight) numpy arrays globally sorted by (src, dst):
    collected to the driver, where the local CSR kernel reads them, and
    ordered by one `np.lexsort`."""
    srcs, dsts, weights = [], [], []
    for t in arrow_blocks(edges_ds):
        if t.num_rows == 0 or "src" not in t.column_names:
            continue
        srcs.append(t.column("src").to_numpy(zero_copy_only=False))
        dsts.append(t.column("dst").to_numpy(zero_copy_only=False))
        weights.append(t.column("weight").to_numpy(zero_copy_only=False))
    src = np.concatenate(srcs) if srcs else np.zeros(0, np.int64)
    dst = np.concatenate(dsts) if dsts else np.zeros(0, np.int64)
    weight = np.concatenate(weights) if weights else np.zeros(0)
    order = np.lexsort((dst, src))
    return src[order], dst[order], weight[order]


def compute_pagerank_local(edges_ds, shape: int | None = None, iterations: int = 16):
    """Collect normalized edges into the numpy CSR kernel (parity path)."""
    src, dst, weight = sorted_edge_arrays(edges_ds)
    graph = LinkGraph.from_sorted_edges(src, dst, weight, shape)
    graph.compute_pagerank(iterations)
    return graph


def compute_pagerank_distributed(
    edges_ds, shape: int, iterations: int = 16
) -> np.ndarray:
    """Scale path: rank vector broadcast per iteration, contributions
    computed per edge batch, summed with groupby(dst), loss-compensated.

    The rank vector is O(|V|) floats on the driver — the adjacency (the big
    side) never leaves the cluster."""
    import ray
    from ray.data.aggregate import Sum

    edges = edges_ds.materialize()
    v = np.full(shape, 1.0 / shape, dtype=np.float64)
    for _ in range(iterations):
        v_ref = ray.put(v)

        def contrib(batch: pa.Table) -> pa.Table:
            vec = ray.get(v_ref)
            src = batch.column("src").to_numpy(zero_copy_only=False)
            dst = batch.column("dst").to_numpy(zero_copy_only=False)
            w = batch.column("weight").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "dst": pa.array(dst, type=pa.int64()),
                    "mass": pa.array(w * vec[src], type=pa.float64()),
                }
            )

        sums = (
            edges.map_batches(contrib, batch_format="pyarrow")
            .groupby("dst")
            .aggregate(Sum("mass", alias_name="mass"))
        )
        # stream the aggregated blocks into the dense rank vector (no
        # take_all dict-row round-trip: zero-copy Arrow -> numpy scatter)
        nv = np.zeros(shape, dtype=np.float64)
        for t in arrow_blocks(sums):
            if t.num_rows == 0 or "dst" not in t.column_names:
                continue
            d = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
            m = t.column("mass").to_numpy(zero_copy_only=False)
            np.add.at(nv, d, m)
        nv += (1.0 - nv.sum()) / shape
        v = nv
    return v
