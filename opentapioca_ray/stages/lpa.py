"""Synchronous label-propagation communities (Raghavan et al., 2007).

Community detection beyond connectivity: every node starts labeled with
its own id; each round it adopts the most frequent label among its
neighbors PLUS its own current label (the self-vote damps the oscillation
synchronous LPA is known for on bipartite graphs), ties broken by the
smallest label. A FIXED round count with a deterministic tie-break makes
the whole trajectory a pure function of the edge set — the repo's
standard iterative-oracle recipe (the DuckDB twin unrolls the rounds).

Scale shape: labels are a (node, label) dataset; each round is two
coarse exchanges — a lookup-join attach (edges + labels tagged into one
exchange keyed on the edge source, emitting (dst, src_label) votes) and
a vote aggregation keyed on the voting node (count per label, then a
per-node argmax inside the partition kernel). Nothing is ever collected;
per-round state is O(V) rows. Round outputs are re-blocked so chained
rounds don't multiply block counts (the kcore/bfs lesson)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset
from opentapioca_ray.stages.graphops import both_dirs

_LABELS_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])

_VOTE_EMPTY = pa.schema(
    [("node", pa.int64()), ("label", pa.int64()), ("w", pa.int64())]
).empty_table()


def _attach_votes(df: pd.DataFrame) -> pd.DataFrame:
    """One src-hash partition of tagged rows: edge rows (src, dst) +
    label rows (src, label). Emit a (node=dst, label=label(src), w=1)
    vote per edge — a vectorized merge on the src codes."""
    empty = pd.DataFrame(
        {
            "node": pd.Series(dtype=np.int64),
            "label": pd.Series(dtype=np.int64),
            "w": pd.Series(dtype=np.int64),
        }
    )
    if df.empty or "__is_edge" not in df.columns:
        return empty
    edges = df[df["__is_edge"] == 1]
    labels = df[df["__is_edge"] == 0]
    if edges.empty or labels.empty:
        return empty
    lab = pd.Series(
        labels["label"].to_numpy(dtype=np.int64),
        index=labels["src"].to_numpy(dtype=np.int64),
    )
    src = edges["src"].to_numpy(dtype=np.int64)
    out = pd.DataFrame(
        {
            "node": edges["dst"].to_numpy(dtype=np.int64),
            "label": lab.reindex(src).to_numpy(dtype=np.int64),
            "w": np.ones(len(edges), dtype=np.int64),
        }
    )
    return out


def _argmax_partition(df: pd.DataFrame) -> pd.DataFrame:
    """All (node, label, w) votes of one node-hash partition -> per node
    the (max total weight, then smallest label) winner. Vectorized:
    groupby-sum then a lexsorted boundary pick."""
    empty = pd.DataFrame(
        {"node": pd.Series(dtype=np.int64), "label": pd.Series(dtype=np.int64)}
    )
    if df.empty or "node" not in df.columns:
        return empty
    agg = (
        df.groupby(["node", "label"], sort=False)["w"].sum().reset_index()
    )
    node = agg["node"].to_numpy(dtype=np.int64)
    label = agg["label"].to_numpy(dtype=np.int64)
    w = agg["w"].to_numpy(dtype=np.int64)
    order = np.lexsort((label, -w, node))
    node, label = node[order], label[order]
    first = np.concatenate(([True], node[1:] != node[:-1]))
    return pd.DataFrame({"node": node[first], "label": label[first]})


# Node-table rows up to which each LPA round broadcasts the label table;
# above it the tagged-union shuffle runs. Tests reach the shuffle by
# monkeypatching this to 0.
_LABEL_BROADCAST_LIMIT = 5_000_000


def label_propagation(
    edges_ds,
    rounds: int = 4,
    n_parts: int | None = None,
    edges_distinct_directed: bool = False,
):
    """`rounds` synchronous LPA rounds over the undirected edge set.
    Returns (node, label) for every endpoint node.

    `edges_distinct_directed=True` declares `edges_ds` already the
    materialized DISTINCT both-direction (src, dst) table (a graph
    shared across queries in one process) and skips the dedup exchange.

    While the node table fits `_LABEL_BROADCAST_LIMIT` rows, each round
    broadcasts the sorted (node, label) arrays via `ray.put` and maps
    over the STATIC edge blocks (searchsorted lookup + per-block partial
    vote aggregation) — one node-keyed exchange per round instead of two
    (the HITS `_SCORE_BROADCAST_LIMIT` pattern). Beyond the limit, the
    tagged-union shuffle path runs; the two are equivalence-tested."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )

    if edges_distinct_directed:
        directed = edges_ds
    else:
        directed = edges_ds.map_batches(
            both_dirs, batch_format="pyarrow", fn_kwargs={"names": ("src", "dst")}
        )
        # distinct directed edges (parallel edges would double votes)
        directed = right_size(
            coarse_groupby_agg(
                directed, ["src", "dst"], {"__n": ("src", "size")},
                n_parts=n_parts,
            )
            .drop_columns(["__n"])
            .materialize()
        )
    if n_parts is None:
        # 8 chained exchanges follow; size P to the (now known) graph so a
        # small graph doesn't pay default-P task launches per round while a
        # big one still fans out (~8k edge rows per partition kernel)
        from opentapioca_ray.stages.exchange import default_n_parts

        n_parts = max(4, min(default_n_parts(), directed.count() // 8192 + 1))

    def init_labels(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return _LABELS_SCHEMA.empty_table()
        return pa.table(
            {"node": batch.column("src"), "label": batch.column("src")}
        )

    labels = right_size(
        coarse_groupby_agg(
            directed.map_batches(init_labels, batch_format="pyarrow"),
            ["node"],
            {"label": ("label", "min")},
            n_parts=n_parts,
        ).materialize()
    )

    def tag_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return pa.schema(
                [
                    ("src", pa.int64()),
                    ("dst", pa.int64()),
                    ("label", pa.int64()),
                    ("__is_edge", pa.int64()),
                ]
            ).empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "src": batch.column("src"),
                "dst": batch.column("dst"),
                "label": pa.array(np.zeros(n, dtype=np.int64)),
                "__is_edge": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    def tag_labels(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return pa.schema(
                [
                    ("src", pa.int64()),
                    ("dst", pa.int64()),
                    ("label", pa.int64()),
                    ("__is_edge", pa.int64()),
                ]
            ).empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "src": batch.column("node"),
                "dst": pa.array(np.zeros(n, dtype=np.int64)),
                "label": batch.column("label"),
                "__is_edge": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    if labels.count() <= _LABEL_BROADCAST_LIMIT:
        return _lpa_broadcast(directed, labels, rounds, n_parts)

    edges_tagged = directed.map_batches(
        tag_edges, batch_format="pyarrow"
    ).materialize()

    for _ in range(rounds):
        union = edges_tagged.union(
            labels.map_batches(tag_labels, batch_format="pyarrow")
        )
        votes = coarse_group_apply(union, "src", _attach_votes, n_parts=n_parts)
        # self-vote: each node's own current label with weight 1
        self_votes = labels.map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("node"),
                    "label": b.column("label"),
                    "w": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                }
            )
            if b.num_rows and "node" in b.column_names
            else _VOTE_EMPTY,
            batch_format="pyarrow",
        )
        labels = right_size(
            coarse_group_apply(
                votes.union(self_votes),
                "node",
                _argmax_partition,
                n_parts=n_parts,
            ).materialize()
        )
    return labels


def _lpa_broadcast(directed, labels, rounds: int, n_parts: int):
    """Broadcast-regime LPA rounds: per round, `ray.put` the sorted
    (node, label) arrays (node-bounded by the caller's mode guard), map
    the STATIC edge blocks into per-block partially-aggregated votes,
    then ONE node-keyed coarse exchange for the argmax. Self-votes join
    as a driver-built Dataset from the same broadcast arrays."""
    import ray

    from opentapioca_ray.stages.exchange import coarse_group_apply, right_size

    def bcast(lab_ds):
        ns, vs = [], []
        for t in arrow_blocks(lab_ds):
            if t.num_rows == 0 or "node" not in t.column_names:
                continue
            ns.append(t.column("node").to_numpy(zero_copy_only=False))
            vs.append(t.column("label").to_numpy(zero_copy_only=False))
        if not ns:
            return None, None, None
        nodes = np.concatenate(ns).astype(np.int64)
        labs = np.concatenate(vs).astype(np.int64)
        order = np.argsort(nodes, kind="mergesort")
        nodes, labs = nodes[order], labs[order]
        return ray.put((nodes, labs)), nodes, labs

    for _ in range(rounds):
        lab_ref, nodes, labs = bcast(labels)
        if lab_ref is None:
            return labels

        def vote_partial(batch: pa.Table, lab_ref=lab_ref) -> pa.Table:
            if batch.num_rows == 0 or "src" not in batch.column_names:
                return _VOTE_EMPTY
            b_nodes, b_labs = ray.get(lab_ref)
            src = batch.column("src").to_numpy(zero_copy_only=False)
            dst = batch.column("dst").to_numpy(zero_copy_only=False)
            lab = b_labs[np.searchsorted(b_nodes, src)]
            # per-block partial aggregation: (dst, label) -> vote count
            key = pd.DataFrame({"node": dst, "label": lab})
            agg = key.groupby(["node", "label"], sort=False).size()
            idx = agg.index
            return pa.table(
                {
                    "node": pa.array(
                        idx.get_level_values(0).to_numpy().astype(np.int64)
                    ),
                    "label": pa.array(
                        idx.get_level_values(1).to_numpy().astype(np.int64)
                    ),
                    "w": pa.array(agg.to_numpy().astype(np.int64)),
                }
            )

        votes = directed.map_batches(vote_partial, batch_format="pyarrow")
        self_votes = driver_dataset(
            pa.table(
                {
                    "node": pa.array(nodes, type=pa.int64()),
                    "label": pa.array(labs, type=pa.int64()),
                    "w": pa.array(np.ones(len(nodes), dtype=np.int64)),
                }
            )
        )
        labels = right_size(
            coarse_group_apply(
                votes.union(self_votes),
                "node",
                _argmax_partition,
                n_parts=n_parts,
            ).materialize()
        )
    return labels
