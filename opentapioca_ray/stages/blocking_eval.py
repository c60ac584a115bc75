"""Blocking-quality evaluation for entity resolution.

A blocking scheme is judged by two numbers (Christen, "Data Matching",
Springer 2012, ch. 7): REDUCTION RATIO (how many of the n*(n-1)/2
possible pairs the blocks avoid) and PAIR COMPLETENESS (what fraction of
TRUE duplicate pairs share a block). Both derive from three pair masses:

  n_candidate_pairs = sum over blocking keys  of c*(c-1)/2
  n_true_pairs      = sum over duplicate keys of c*(c-1)/2
  n_covered_pairs   = sum over (block, dup)   of c*(c-1)/2

This module computes those masses WITHOUT materializing any pair: a
combiner counts rows per key (exchange volume O(blocks x distinct keys)),
then a second combiner folds c*(c-1)/2 into one row. At 100 TB nothing
larger than the per-key count table ever moves, and that table itself is
only ever aggregated, never collected.

Reference parity: the reference's blocking is its Solr `/tag` candidate
lookup (tagger.py); it reports no blocking metrics. This evaluator is part
of the beyond-reference ER surface, with the blocking key abstracted so
SQL oracles can pin the arithmetic.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


def blocking_quality(ds, block_cols: list[str], truth_cols: list[str]):
    """One row: (n_candidate_pairs, n_true_pairs, n_covered_pairs) for a
    blocking scheme (`block_cols`) against ground-truth duplicate identity
    (`truth_cols`). Reduction ratio and pair completeness are one division
    away; the integers hash exactly against SQL.

    ONE combiner exchange over the facts builds the (block, truth) count
    table; all three masses then come from that table (covered directly;
    candidate/true by re-summing it per block / per truth key — the combo
    table is O(distinct combos), orders of magnitude smaller than the
    corpus, so the extra aggregations are cheap)."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count

    key_cols = list(dict.fromkeys(block_cols + truth_cols))
    combos = partial_multi_sum_count(
        ds.select_columns(key_cols), key_cols, [], alias={"count": "_c"}
    ).materialize()

    def mass_of(counts_ds, name: str) -> int:
        total = 0
        for t in arrow_blocks(counts_ds):
            if t.num_rows == 0 or "_c" not in t.column_names:
                continue
            c = t.column("_c").to_numpy(zero_copy_only=False).astype(np.int64)
            total += int((c * (c - 1) // 2).sum())
        return total

    n_covered = mass_of(combos, "covered")
    by_block = partial_multi_sum_count(
        combos, block_cols, ["_c"], alias={"_c": "_c", "count": "_n"}
    )
    by_truth = partial_multi_sum_count(
        combos, truth_cols, ["_c"], alias={"_c": "_c", "count": "_n"}
    )
    n_candidate = mass_of(by_block, "candidate")
    n_true = mass_of(by_truth, "true")
    return pa.table(
        {
            "n_candidate_pairs": pa.array([n_candidate], pa.int64()),
            "n_true_pairs": pa.array([n_true], pa.int64()),
            "n_covered_pairs": pa.array([n_covered], pa.int64()),
        }
    )


def bcubed_combo_stats(ds, pred_col: str, truth_col: str):
    """B-cubed evaluation statistics (Bagga & Baldwin 1998, the standard
    ER cluster-quality metric): for every (predicted cluster, true
    cluster) combination, its record count `n`, the predicted cluster's
    total size `csize`, and the true cluster's total size `tsize`. From
    these, B^3 precision = sum(n * n/csize) / N and
    B^3 recall = sum(n * n/tsize) / N — both one aggregation away; the
    emitted table is all-integer so SQL pins it exactly.

    ONE combiner exchange builds the (pred, truth) count table; two more
    SLIM exchanges over that table (orders of magnitude smaller than the
    corpus) attach the per-pred and per-truth totals — the fact table
    never moves twice."""
    import pandas as pd

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    combos = partial_multi_sum_count(
        ds.select_columns(list(dict.fromkeys([pred_col, truth_col]))),
        [pred_col, truth_col],
        [],
        alias={"count": "n"},
    )

    def attach_total(key: str, out: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty or key not in df.columns:
                cols = {c: pd.Series(dtype=object) for c in df.columns}
                cols[out] = pd.Series(dtype=np.int64)
                return pd.DataFrame(cols)
            _, codes = np.unique(df[key].to_numpy(), return_inverse=True)
            n = df["n"].to_numpy(dtype=np.int64)
            totals = np.bincount(codes, weights=n).astype(np.int64)
            df = df.copy()
            df[out] = totals[codes]
            return df

        return fn

    with_c = coarse_group_apply(combos, pred_col, attach_total(pred_col, "csize"))
    return coarse_group_apply(with_c, truth_col, attach_total(truth_col, "tsize"))


def adjusted_rand_stats(ds, a_col: str, b_col: str):
    """Pair-counting agreement between two clusterings/blockings of the
    same records: the Adjusted Rand Index (Hubert & Arabie 1985), the
    standard way to compare two dedup methods' outputs without labels.

    Everything reduces through exact integers: ONE combiner exchange
    builds the (a, b) contingency cells, two slim exchanges roll up the
    marginal cluster sizes, and the three pair-count sums
    (sum C(n_ij,2), sum C(a_i,2), sum C(b_j,2)) are per-batch partials +
    a scalar `sum()` — O(1) driver state, nothing proportional to the
    corpus. The ARI itself is ONE fixed float expression over those four
    integers (quantized to micro-units) so the SQL twin matches
    bit-for-bit. Returns a single-row Arrow table:
    (n_items, sum_comb_cells, sum_comb_a, sum_comb_b, ari_e6)."""
    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    cells = partial_multi_sum_count(
        ds.select_columns(list(dict.fromkeys([a_col, b_col]))),
        [a_col, b_col],
        [],
        alias={"count": "n"},
    ).materialize()  # tiny (<= #distinct label pairs); read 3x below

    def comb2(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or col not in batch.column_names:
                return pa.table({"c2": pa.array([], pa.int64())})
            x = batch.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"c2": pa.array(x * (x - 1) // 2)})

        return fn

    def total_c2(d, col):
        v = d.map_batches(comb2(col), batch_format="pyarrow").sum("c2")
        return int(v or 0)

    n = int(cells.sum("n") or 0)
    si = total_c2(cells, "n")
    sa = total_c2(
        coarse_groupby_agg(cells, [a_col], {"sz": ("n", "sum")}), "sz"
    )
    sb = total_c2(
        coarse_groupby_agg(cells, [b_col], {"sz": ("n", "sum")}), "sz"
    )
    cn2 = n * (n - 1) // 2
    if cn2 == 0:
        ari = 1.0
    else:
        exp = float(sa) * float(sb) / float(cn2)
        denom = 0.5 * (float(sa) + float(sb)) - exp
        ari = 1.0 if denom == 0.0 else (float(si) - exp) / denom
    return pa.table(
        {
            "n_items": pa.array([n], pa.int64()),
            "sum_comb_cells": pa.array([si], pa.int64()),
            "sum_comb_a": pa.array([sa], pa.int64()),
            "sum_comb_b": pa.array([sb], pa.int64()),
            "ari_e6": pa.array(
                [int(np.floor(ari * 1e6 + 0.5))], pa.int64()
            ),
        }
    )


def nmi_stats(ds, a_col: str, b_col: str):
    """Normalized mutual information (sqrt normalization, Strehl & Ghosh
    2002) between two clusterings/blockings of the same records — the
    information-theoretic complement to `adjusted_rand_stats`' pair
    counting.

    Exactness: MI decomposes as
    ln N + (sum n_ij ln n_ij - sum a_i ln a_i - sum b_j ln b_j) / N, so no
    cell<->marginal join is needed; each x*ln(x) term is quantized to
    integer 1e-6 nat-units BEFORE summation (the repo's float-sum rule),
    the three sums reduce exactly, and the final NMI is ONE fixed float
    expression over (n, snn, saa, sbb) replayed verbatim in SQL.
    Degenerate zero-entropy sides report 0. Returns a single-row Arrow
    table (n_items, snn_u, saa_u, sbb_u, nmi_e6).

    Scale shape: identical to ARI — ONE combiner exchange for the
    contingency cells, two slim marginal exchanges, per-batch quantized
    partials + scalar sums; O(1) driver state."""
    import math

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    cells = partial_multi_sum_count(
        ds.select_columns(list(dict.fromkeys([a_col, b_col]))),
        [a_col, b_col],
        [],
        alias={"count": "n"},
    ).materialize()  # <= #distinct label pairs; read 3x below

    def xlnx(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or col not in batch.column_names:
                return pa.table({"t": pa.array([], pa.int64())})
            x = (
                batch.column(col)
                .to_numpy(zero_copy_only=False)
                .astype(np.float64)
            )
            return pa.table(
                {
                    "t": pa.array(
                        np.floor(x * np.log(x) * 1e6 + 0.5).astype(np.int64)
                    )
                }
            )

        return fn

    def total(d, col):
        v = d.map_batches(xlnx(col), batch_format="pyarrow").sum("t")
        return int(v or 0)

    n = int(cells.sum("n") or 0)
    snn = total(cells, "n")
    saa = total(
        coarse_groupby_agg(cells, [a_col], {"sz": ("n", "sum")}), "sz"
    )
    sbb = total(
        coarse_groupby_agg(cells, [b_col], {"sz": ("n", "sum")}), "sz"
    )
    if n <= 0:
        nmi = 0.0
    else:
        lnn = math.log(float(n))
        mi = lnn + float(snn - saa - sbb) / 1000000.0 / float(n)
        ha = lnn - float(saa) / 1000000.0 / float(n)
        hb = lnn - float(sbb) / 1000000.0 / float(n)
        # a degenerate single-cluster side has true entropy 0 but carries
        # up to 0.5e-6 of term-quantization residue — clamp below the
        # noise floor (identically in the SQL twin)
        nmi = (
            0.0
            if ha <= 0.000001 or hb <= 0.000001
            else mi / math.sqrt(ha * hb)
        )
    return pa.table(
        {
            "n_items": pa.array([n], pa.int64()),
            "snn_u": pa.array([snn], pa.int64()),
            "saa_u": pa.array([saa], pa.int64()),
            "sbb_u": pa.array([sbb], pa.int64()),
            "nmi_e6": pa.array(
                [int(np.floor(nmi * 1e6 + 0.5))], pa.int64()
            ),
        }
    )


_SPLIT_SCHEMA = pa.schema(
    [
        ("block_key", pa.string()),
        ("chunk_i", pa.int64()),
        ("chunk_j", pa.int64()),
        ("n_i", pa.int64()),
        ("n_j", pa.int64()),
        ("n_comparisons", pa.int64()),
        ("reducer", pa.int64()),
    ]
)


def block_split_plan(ds, block_col: str, m: int = 8, n_parts=None):
    """Dedoop-style BlockSplit load-balancing plan (Kolb, Thor & Rahm,
    "Load Balancing for MapReduce-based Entity Resolution", ICDE 2012):
    every block whose comparison mass cb = s*(s-1)/2 exceeds the fair
    share avg = ceil(C/m) is split into k balanced record chunks — the
    smallest k whose k*(k+1)/2 sub-tasks bring the mass under the fair
    share, capped at s — and the plan enumerates every match sub-task:
    chunk pair (i, i) with n_i*(n_i-1)/2 comparisons, (i, j) i < j with
    n_i*n_j, assigned round-robin to `m` reducers in decreasing-
    comparison order (exact global rank, ties by block_key, i, j).

    Nothing proportional to records moves: one per-key count exchange, a
    scalar total, a vectorized integer triangle expansion over the block
    table, the repo's sampled-boundary `global_rank` over plan rows, and
    one rank-attach exchange. Plan rows are identified by a 63-bit
    SipHash of their unique (cb, key, i, j) sort string (one C-level
    pass; a collision could only swap two reducer labels and is
    vanishingly unlikely at plan cardinality)."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import (
        _HASH_KEY,
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )
    from opentapioca_ray.stages.snm import global_rank

    sizes = coarse_groupby_agg(
        ds.select_columns([block_col]),
        [block_col],
        {"s": (block_col, "size")},
        n_parts=n_parts,
    ).materialize()

    def comps(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "s" not in batch.column_names:
            return pa.table({"cb": pa.array([], pa.int64())})
        s = batch.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"cb": pa.array(s * (s - 1) // 2)})

    total_c = int(sizes.map_batches(comps, batch_format="pyarrow").sum("cb") or 0)
    if total_c == 0:
        return driver_dataset(_SPLIT_SCHEMA.empty_table())
    avg = (total_c + m - 1) // m  # fair share, exact integer ceil

    plan_fields = [
        ("rid", pa.int64()),
        ("rkey", pa.string()),
        ("block_key", pa.string()),
        ("chunk_i", pa.int64()),
        ("chunk_j", pa.int64()),
        ("n_i", pa.int64()),
        ("n_j", pa.int64()),
        ("n_comparisons", pa.int64()),
    ]
    plan_schema = pa.schema(plan_fields)

    def _excl_cumsum(a: np.ndarray) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(a)[:-1])).astype(np.int64)

    def expand(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "s" not in batch.column_names:
            return plan_schema.empty_table()
        key = batch.column(block_col).to_numpy(zero_copy_only=False)
        s = batch.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        big = s >= 2  # singleton blocks carry no comparisons
        key, s = key[big], s[big]
        if not len(s):
            return plan_schema.empty_table()
        cb = s * (s - 1) // 2
        q = (cb + avg - 1) // avg
        # smallest k with k(k+1)/2 >= q (sqrt is correctly rounded, exact
        # on the integral boundary cases; mirrored verbatim in SQL)
        k = np.where(
            cb <= avg,
            np.int64(1),
            np.minimum(
                s, np.ceil((np.sqrt(8.0 * q + 1.0) - 1.0) / 2.0).astype(np.int64)
            ),
        )
        # integer triangle expansion: per block, rows i = 0..k-1, each
        # with columns j = i..k-1 — two repeat/arange passes, no floats
        blk_r = np.repeat(np.arange(len(s)), k)
        i_r = np.arange(int(k.sum()), dtype=np.int64) - np.repeat(_excl_cumsum(k), k)
        lens = k[blk_r] - i_r
        blk = np.repeat(blk_r, lens)
        i = np.repeat(i_r, lens)
        j = i + (
            np.arange(int(lens.sum()), dtype=np.int64)
            - np.repeat(_excl_cumsum(lens), lens)
        )
        kk, sz = k[blk], s[blk]
        n_i = sz // kk + (i < sz % kk)
        n_j = sz // kk + (j < sz % kk)
        n_comp = np.where(i == j, n_i * (n_i - 1) // 2, n_i * n_j)
        keep = n_comp > 0
        blk, i, j, n_i, n_j, n_comp = (
            blk[keep],
            i[keep],
            j[keep],
            n_i[keep],
            n_j[keep],
            n_comp[keep],
        )
        keyr = key[blk]
        # composite sort string: n_comparisons DESC, chunk_i, chunk_j,
        # block_key — the key goes LAST with nothing after it so plain
        # byte order matches SQL's column order even when one key is a
        # prefix of another (a mid-string delimiter would not)
        rkey = np.char.add(
            np.char.add(
                np.char.add(
                    np.char.zfill((10**18 - n_comp).astype(str), 19), "|"
                ),
                np.char.add(np.char.zfill(i.astype(str), 9), "|"),
            ),
            np.char.add(
                np.char.add(np.char.zfill(j.astype(str), 9), "|"),
                keyr.astype(str),
            ),
        ).astype(object)
        rid = (
            (pd.util.hash_array(rkey, hash_key=_HASH_KEY) >> np.uint64(1))
            .astype(np.int64)
            if len(rkey)
            else np.zeros(0, dtype=np.int64)
        )
        return pa.table(
            {
                "rid": pa.array(rid),
                "rkey": pa.array(rkey, pa.string()),
                "block_key": pa.array(keyr, pa.string()),
                "chunk_i": pa.array(i),
                "chunk_j": pa.array(j),
                "n_i": pa.array(n_i),
                "n_j": pa.array(n_j),
                "n_comparisons": pa.array(n_comp),
            }
        )

    plan = right_size(sizes.map_batches(expand, batch_format="pyarrow").materialize())
    ranks = global_rank(plan, key_column="rkey", id_column="rid")

    # rank-attach: union plan rows (is_rank=false) with (rid, rn) rows and
    # resolve in ONE coarse exchange on rid
    union_schema = pa.schema(
        [*plan_fields[:1], *plan_fields[2:], ("rn", pa.int64()), ("is_rank", pa.bool_())]
    )

    def plan_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "rid" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        cols = {
            name: batch.column(name)
            for name, _ in plan_fields
            if name != "rkey"
        }
        cols["rn"] = pa.nulls(n, pa.int64())
        cols["is_rank"] = pa.array(np.zeros(n, dtype=bool))
        return pa.table(cols).cast(union_schema)

    def rank_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "rn" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        cols = {"rid": batch.column("rid").cast(pa.int64())}
        for name, typ in plan_fields[2:]:
            cols[name] = pa.nulls(n, typ)
        cols["rn"] = batch.column("rn").cast(pa.int64())
        cols["is_rank"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols).cast(union_schema)

    unioned = plan.map_batches(plan_rows, batch_format="pyarrow").union(
        ranks.map_batches(rank_rows, batch_format="pyarrow")
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = [f.name for f in _SPLIT_SCHEMA]
        if df.empty or "is_rank" not in df.columns:
            return pd.DataFrame(
                {
                    c: pd.Series(dtype=object if c == "block_key" else np.int64)
                    for c in out_cols
                }
            )
        isr = df["is_rank"].to_numpy(dtype=bool)
        dat, rnk = df[~isr], df[isr]
        if dat.empty or rnk.empty:
            return pd.DataFrame(
                {
                    c: pd.Series(dtype=object if c == "block_key" else np.int64)
                    for c in out_cols
                }
            )
        krid = rnk["rid"].to_numpy(dtype=np.int64)
        krn = rnk["rn"].to_numpy(dtype=np.int64)
        o = np.argsort(krid, kind="stable")
        krid, krn = krid[o], krn[o]
        drid = dat["rid"].to_numpy(dtype=np.int64)
        pos = np.clip(np.searchsorted(krid, drid), 0, len(krid) - 1)
        ok = krid[pos] == drid
        dat = dat[ok]
        rn = krn[pos[ok]]
        return pd.DataFrame(
            {
                "block_key": dat["block_key"].to_numpy(),
                "chunk_i": dat["chunk_i"].to_numpy(dtype=np.int64),
                "chunk_j": dat["chunk_j"].to_numpy(dtype=np.int64),
                "n_i": dat["n_i"].to_numpy(dtype=np.int64),
                "n_j": dat["n_j"].to_numpy(dtype=np.int64),
                "n_comparisons": dat["n_comparisons"].to_numpy(dtype=np.int64),
                "reducer": (rn - 1) % m,
            }
        )

    return coarse_group_apply(unioned, "rid", attach, n_parts=n_parts)


def clustering_disagreement(
    pairs_ds, clusters_ds, node_column: str, cluster_column: str, n_parts=None
):
    """Correlation-clustering disagreement objective (the quantity
    CC-Pivot 3-approximates, Ailon-Charikar-Newman 2008): given a match
    graph and a clustering, editing_cost = missing intra-cluster edges +
    present cross-cluster edges — the number of edge flips separating the
    clustering from a disjoint union of cliques. One summary row
    (n_nodes, n_clusters, intra_pairs, intra_edges, missing_intra,
    cross_edges, editing_cost), all exact int64.

    Shape: one cluster-size roll-up (combiner), two reduce-side lookup
    exchanges attaching the endpoint clusters to each edge
    (metablocking's `_attach_node_stats`), one counting map."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size
    from opentapioca_ray.stages.metablocking import _attach_node_stats

    clusters_ds = clusters_ds.materialize()
    sizes = coarse_groupby_agg(
        clusters_ds.select_columns([cluster_column]),
        [cluster_column],
        {"s": (cluster_column, "size")},
        n_parts=n_parts,
    ).materialize()

    def size_partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "s" not in batch.column_names:
            return pa.table(
                {
                    "n": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                    "p": pa.array([], pa.int64()),
                }
            )
        s = batch.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([int(s.sum())], pa.int64()),
                "c": pa.array([len(s)], pa.int64()),
                "p": pa.array([int((s * (s - 1) // 2).sum())], pa.int64()),
            }
        )

    sp = sizes.map_batches(size_partials, batch_format="pyarrow").materialize()
    n_nodes = int(sp.sum("n") or 0)
    n_clusters = int(sp.sum("c") or 0)
    intra_pairs = int(sp.sum("p") or 0)

    stats_schema = pa.schema(
        [("node", pa.int64()), ("s", pa.int64()), ("d", pa.int64())]
    )

    def as_stats(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or node_column not in batch.column_names:
            return stats_schema.empty_table()
        return pa.table(
            {
                "node": batch.column(node_column).cast(pa.int64()),
                "s": batch.column(cluster_column).cast(pa.int64()),
                "d": batch.column(cluster_column).cast(pa.int64()),
            }
        )

    stats = right_size(
        clusters_ds.map_batches(as_stats, batch_format="pyarrow").materialize()
    )
    with_u = _attach_node_stats(
        pairs_ds.select_columns(["u", "v"]), stats, "u", ["u", "v"], "cu", "_cu2",
        n_parts,
    )
    both = _attach_node_stats(
        with_u, stats, "v", ["u", "v", "cu", "_cu2"], "cv", "_cv2", n_parts
    )

    def edge_partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "cu" not in batch.column_names:
            return pa.table(
                {
                    "intra": pa.array([], pa.int64()),
                    "cross": pa.array([], pa.int64()),
                }
            )
        cu = batch.column("cu").to_numpy(zero_copy_only=False)
        cv = batch.column("cv").to_numpy(zero_copy_only=False)
        same = cu == cv
        return pa.table(
            {
                "intra": pa.array([int(same.sum())], pa.int64()),
                "cross": pa.array([int((~same).sum())], pa.int64()),
            }
        )

    ep = both.map_batches(edge_partials, batch_format="pyarrow").materialize()
    intra_edges = int(ep.sum("intra") or 0)
    cross_edges = int(ep.sum("cross") or 0)
    missing = intra_pairs - intra_edges
    return driver_dataset(
        pa.table(
            {
                "n_nodes": pa.array([n_nodes], pa.int64()),
                "n_clusters": pa.array([n_clusters], pa.int64()),
                "intra_pairs": pa.array([intra_pairs], pa.int64()),
                "intra_edges": pa.array([intra_edges], pa.int64()),
                "missing_intra": pa.array([missing], pa.int64()),
                "cross_edges": pa.array([cross_edges], pa.int64()),
                "editing_cost": pa.array([missing + cross_edges], pa.int64()),
            }
        )
    )
