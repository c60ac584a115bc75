"""Deterministic random walks over a graph (node2vec-style sampling).

Graph-embedding pipelines (DeepWalk, node2vec — public algorithms) train
on walk corpora: sequences of nodes from short random walks. In a
distributed, resumable engine the walks must be REPRODUCIBLE, so the
"random" next-hop choice is derandomized: from node n at step t, walker
w moves to the k-th smallest neighbor of n where
k = md5_u64(f"{w}:{t}") % degree(n) — a fixed pseudo-uniform index per
(walker, step), independent of execution order, replayable in SQL with
the shared md5-u64 convention (row_number() over the sorted adjacency).

Cost per step is ONE md5 per walker — independent of edge count (an
earlier revision hashed every (walker, incident edge) candidate, which
made each step O(sum of degrees of occupied nodes) hash work; the
indexed rule is O(#walkers) and picks from the same uniform adjacency).

Scale shape: positions are a (walker, node) dataset, bounded by NODE
count (one walker per node), not data volume. The adjacency is ranked
ONCE (per-src sort + rank/degree columns); every step is a (node, rank)
point lookup against it. Two regimes, the repo's standard
node-table-bounded pattern (HITS `_SCORE_BROADCAST_LIMIT`):

- broadcast (while the ranked adjacency has at most
  `_WALK_BROADCAST_LIMIT` rows, an upper bound on #walkers): the
  (walker, node, k) table is `ray.put` per step and merged against the
  STATIC ranked adjacency blocks inside `map_batches` — zero edge
  shuffles; exactly one matching row per walker comes back to the
  driver, which must hold O(#walkers) rows anyway to re-broadcast.
- shuffle (beyond the limit, the 10^12-edge path): every step is ONE
  lookup-join exchange keyed on the current node (ranked edge rows +
  position rows tagged together; each node's whole ranked adjacency
  lives in its partition), kernel = vectorized merge on (src, rank).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset
from opentapioca_ray.stages.graphops import both_dirs

_WALK_SCHEMA = pa.schema(
    [("walker", pa.int64()), ("step", pa.int64()), ("node", pa.int64())]
)

_POS_SCHEMA = pa.schema([("walker", pa.int64()), ("node", pa.int64())])

_ADJ_SCHEMA = pa.schema(
    [
        ("src", pa.int64()),
        ("dst", pa.int64()),
        ("rank", pa.int64()),
        ("deg", pa.int64()),
    ]
)


def _step_keys(w: np.ndarray, t: int) -> np.ndarray:
    """md5-u64 of f"{walker}:{t}" per walker — ONE hash per walker per
    step (the whole per-step hashing budget)."""
    md5 = hashlib.md5
    digests = b"".join(
        md5(f"{a}:{t}".encode()).digest()[:8] for a in w.tolist()
    )
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def _rank_adjacency(directed, n_parts: int):
    """Rank each node's deduped neighbors by dst (0-based) and attach the
    node degree — one exchange on src, done ONCE for all steps."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "src" not in df.columns:
            return pd.DataFrame(
                {
                    "src": pd.Series(dtype=np.int64),
                    "dst": pd.Series(dtype=np.int64),
                    "rank": pd.Series(dtype=np.int64),
                    "deg": pd.Series(dtype=np.int64),
                }
            )
        s = df["src"].to_numpy(dtype=np.int64)
        d = df["dst"].to_numpy(dtype=np.int64)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        new = np.concatenate(([True], s[1:] != s[:-1]))
        seg_start = np.flatnonzero(new)
        seg_id = np.cumsum(new) - 1
        rank = np.arange(len(s), dtype=np.int64) - seg_start[seg_id]
        seg_len = np.diff(np.append(seg_start, len(s)))
        return pd.DataFrame(
            {"src": s, "dst": d, "rank": rank, "deg": seg_len[seg_id]}
        )

    return coarse_group_apply(directed, "src", kernel, n_parts=n_parts)


# Ranked adjacency rows (one per directed edge, an upper bound on
# #walkers) up to which the walk takes the broadcast regime; the
# exchange-per-step regime above it.
_WALK_BROADCAST_LIMIT = 2_000_000


def random_walks(
    edges_ds,
    steps: int = 4,
    n_parts: int | None = None,
    edges_distinct_directed: bool = False,
):
    """One `steps`-hop deterministic walk per distinct node of the
    undirected edge set. Returns a Dataset of (walker, step, node) rows,
    step 0 being the start node.

    `edges_distinct_directed=True` declares `edges_ds` already the
    materialized DISTINCT both-direction (src, dst) table (e.g. a graph
    shared across queries in one process) and skips the dedup exchange.

    Up to `_WALK_BROADCAST_LIMIT` ranked adjacency rows a `ray.put`
    (walker, node, k) table is merged against static ranked-adjacency
    blocks (no per-step edge shuffle; driver holds O(#walkers) rows —
    NODE-bounded, never data-bounded); above it every step is one
    exchange. The two regimes are equivalence-tested in
    tests/test_walks.py."""
    from opentapioca_ray.stages.exchange import (
        coarse_groupby_agg,
        default_n_parts,
        right_size,
    )

    if edges_distinct_directed:
        directed = edges_ds
    else:
        directed = right_size(
            coarse_groupby_agg(
                edges_ds.map_batches(
                    both_dirs,
                    batch_format="pyarrow",
                    fn_kwargs={"names": ("src", "dst")},
                ),
                ["src", "dst"],
                {"__n": ("src", "size")},
                n_parts=n_parts,
            )
            .drop_columns(["__n"])
            .materialize()
        )
    if n_parts is None:
        n_parts = max(4, min(default_n_parts(), directed.count() // 8192 + 1))

    adj = right_size(_rank_adjacency(directed, n_parts).materialize())

    # walkers == distinct nodes <= ranked rows; adj is materialized, so
    # its row count costs no execution
    if adj.count() <= _WALK_BROADCAST_LIMIT:
        return _walks_broadcast(adj, steps)
    return _walks_shuffle(adj, steps, n_parts)


def _walks_shuffle(adj, steps: int, n_parts: int):
    """Exchange-per-step regime: ranked adjacency + positions tagged into
    one union, per-src kernel picks row rank == md5(w:t) % deg."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )

    tag_schema = pa.schema(
        [
            ("src", pa.int64()),
            ("dst", pa.int64()),
            ("rank", pa.int64()),
            ("deg", pa.int64()),
            ("walker", pa.int64()),
            ("__is_edge", pa.int64()),
        ]
    )

    def tag_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return tag_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "src": batch.column("src"),
                "dst": batch.column("dst"),
                "rank": batch.column("rank"),
                "deg": batch.column("deg"),
                "walker": pa.array(np.zeros(n, dtype=np.int64)),
                "__is_edge": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    def tag_pos(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "walker" not in batch.column_names:
            return tag_schema.empty_table()
        n = batch.num_rows
        z = pa.array(np.zeros(n, dtype=np.int64))
        return pa.table(
            {
                "src": batch.column("node"),
                "dst": z,
                "rank": z,
                "deg": z,
                "walker": batch.column("walker"),
                "__is_edge": z,
            }
        )

    edges_tagged = adj.map_batches(tag_edges, batch_format="pyarrow").materialize()

    def init_pos(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "src" not in batch.column_names:
            return _POS_SCHEMA.empty_table()
        return pa.table(
            {"walker": batch.column("src"), "node": batch.column("src")}
        )

    positions = right_size(
        coarse_groupby_agg(
            adj.map_batches(init_pos, batch_format="pyarrow"),
            ["walker"],
            {"node": ("node", "min")},
            n_parts=n_parts,
        ).materialize()
    )

    def step_kernel(t: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame(
                {
                    "walker": pd.Series(dtype=np.int64),
                    "node": pd.Series(dtype=np.int64),
                }
            )
            if df.empty or "__is_edge" not in df.columns:
                return empty
            edges = df[df["__is_edge"] == 1][["src", "dst", "rank", "deg"]]
            pos = df[df["__is_edge"] == 0][["src", "walker"]]
            if edges.empty or pos.empty:
                return empty
            # degree per src from the edge rows (constant within src)
            deg_map = edges.drop_duplicates("src").set_index("src")["deg"]
            w = pos["walker"].to_numpy(dtype=np.int64)
            s = pos["src"].to_numpy(dtype=np.int64)
            deg = deg_map.reindex(s).to_numpy()
            hit = ~np.isnan(deg)
            if not hit.any():
                return empty
            w, s, deg = w[hit], s[hit], deg[hit].astype(np.uint64)
            k = (_step_keys(w, t) % deg).astype(np.int64)
            want = pd.DataFrame({"src": s, "rank": k, "walker": w})
            got = want.merge(edges[["src", "rank", "dst"]], on=["src", "rank"])
            return pd.DataFrame(
                {
                    "walker": got["walker"].to_numpy(dtype=np.int64),
                    "node": got["dst"].to_numpy(dtype=np.int64),
                }
            )

        return fn

    walk_rows = [positions]
    for t in range(steps):
        union = edges_tagged.union(
            positions.map_batches(tag_pos, batch_format="pyarrow")
        )
        positions = right_size(
            coarse_group_apply(
                union, "src", step_kernel(t), n_parts=n_parts
            ).materialize()
        )
        walk_rows.append(positions)

    out = None
    for i, p in enumerate(walk_rows):
        step_ds = p.map_batches(
            lambda b, step=i: pa.table(
                {
                    "walker": b.column("walker"),
                    "step": pa.array(
                        np.full(b.num_rows, step, dtype=np.int64)
                    ),
                    "node": b.column("node"),
                }
            )
            if b.num_rows and "walker" in b.column_names
            else _WALK_SCHEMA.empty_table(),
            batch_format="pyarrow",
        )
        out = step_ds if out is None else out.union(step_ds)
    return out


def _walks_broadcast(adj, steps: int):
    """Broadcast-regime walk driver: static ranked-adjacency blocks, a
    per-step `ray.put` (walker, node, k) table, exactly one matching
    (src, rank) row per walker returned (O(#walkers) driver rows —
    NODE-bounded, guarded by `_WALK_BROADCAST_LIMIT` in random_walks)."""
    import ray

    # node -> degree, node-bounded, one collect for all steps
    refs = [t for t in arrow_blocks(adj) if t.num_rows > 0]
    if not refs:
        return driver_dataset([_WALK_SCHEMA.empty_table()])
    deg_tbl = pa.concat_tables(
        [t.select(["src", "deg", "rank"]) for t in refs]
    )
    m0 = deg_tbl.column("rank").to_numpy(zero_copy_only=False) == 0
    nodes = deg_tbl.column("src").to_numpy(zero_copy_only=False)[m0]
    degs = deg_tbl.column("deg").to_numpy(zero_copy_only=False)[m0]
    order = np.argsort(nodes)
    nodes, degs = nodes[order], degs[order]

    cur_w = nodes.copy()
    cur_n = nodes.copy()
    walk_tables = [
        pa.table(
            {
                "walker": pa.array(cur_w, type=pa.int64()),
                "step": pa.array(np.zeros(len(cur_w), dtype=np.int64)),
                "node": pa.array(cur_n, type=pa.int64()),
            }
        )
    ]
    _PART_SCHEMA = pa.schema([("walker", pa.int64()), ("node", pa.int64())])
    for t in range(steps):
        if cur_w.size == 0:
            break
        deg = degs[np.searchsorted(nodes, cur_n)].astype(np.uint64)
        k = (_step_keys(cur_w, t) % deg).astype(np.int64)
        pos_ref = ray.put(
            pa.table(
                {
                    "walker": pa.array(cur_w, type=pa.int64()),
                    "src": pa.array(cur_n, type=pa.int64()),
                    "rank": pa.array(k, type=pa.int64()),
                }
            )
        )

        def lookup(batch: pa.Table, pos_ref=pos_ref) -> pa.Table:
            if batch.num_rows == 0 or "src" not in batch.column_names:
                return _PART_SCHEMA.empty_table()
            pos = ray.get(pos_ref).to_pandas()
            got = pos.merge(
                batch.select(["src", "rank", "dst"]).to_pandas(),
                on=["src", "rank"],
                how="inner",
            )
            if got.empty:
                return _PART_SCHEMA.empty_table()
            return pa.table(
                {
                    "walker": pa.array(got["walker"].to_numpy(dtype=np.int64)),
                    "node": pa.array(got["dst"].to_numpy(dtype=np.int64)),
                }
            )

        parts = [
            t
            for t in arrow_blocks(
                adj.map_batches(lookup, batch_format="pyarrow")
            )
            if t.num_rows > 0
        ]
        if not parts:
            break
        merged = pa.concat_tables(parts)
        cur_w = merged.column("walker").to_numpy(zero_copy_only=False)
        cur_n = merged.column("node").to_numpy(zero_copy_only=False)
        order = np.argsort(cur_w)
        cur_w, cur_n = np.ascontiguousarray(cur_w[order]), np.ascontiguousarray(
            cur_n[order]
        )
        walk_tables.append(
            pa.table(
                {
                    "walker": pa.array(cur_w, type=pa.int64()),
                    "step": pa.array(
                        np.full(len(cur_w), t + 1, dtype=np.int64)
                    ),
                    "node": pa.array(cur_n, type=pa.int64()),
                }
            )
        )
    return driver_dataset(walk_tables)
