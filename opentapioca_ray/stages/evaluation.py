"""Model-evaluation operators over scored rows.

The classifier stages (stages/classify.py, reference classifier.py:221-260)
report P/R/F1 at a fixed threshold; production eval also needs the
threshold-free ranking metric. `roc_auc` computes the EXACT Mann-Whitney
AUC (ties counted half, the Wilcoxon convention) with integer pair
arithmetic, so the DuckDB window-function twin matches bit-for-bit.

Scale shape: one combiner pass collapses the corpus to per-distinct-score
(pos, neg) counts; the distinct-score table is RANGE-partitioned on the
score via sampled boundaries (equal scores co-locate by construction —
each partition owns a half-open score interval); each partition reduces to
ONE (pos_sum, neg_sum, local_pair_term) summary row; the driver combines
only those P summary rows — O(n_parts) driver state, like the k-means
centroid and pagerank-compensation combines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

_SUMMARY = pa.schema(
    [
        ("pid", pa.int64()),
        ("s_pos", pa.int64()),
        ("s_neg", pa.int64()),
        ("l2", pa.int64()),
    ]
)
_OUT = pa.schema(
    [
        ("n_pos", pa.int64()),
        ("n_neg", pa.int64()),
        ("u2", pa.int64()),
        ("auc_e6", pa.int64()),
    ]
)


def roc_auc(
    ds,
    score_column: str,
    label_column: str,
    positive_value,
    n_parts: int | None = None,
):
    """Exact ROC AUC of `score_column` ranking `label_column ==
    positive_value`, as one summary row (n_pos, n_neg, u2, auc_e6) where
    u2 = 2*U (U the Mann-Whitney statistic with half-credit ties:
    u2 = sum over distinct scores v of 2*pos_v*neg_below(v) +
    pos_v*neg_v) and auc_e6 = round(1e6 * u2 / (2*n_pos*n_neg)).
    Everything upstream of auc_e6 is exact integer math."""
    from opentapioca_ray.stages.exchange import (
        coarse_groupby_agg,
        default_n_parts,
        right_size,
    )

    def partials(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("score", pa.float64()), ("pos", pa.int64()), ("neg", pa.int64())]
        )
        if batch.num_rows == 0 or score_column not in batch.column_names:
            return schema.empty_table()
        s = (
            batch.column(score_column)
            .cast(pa.float64())
            .to_numpy(zero_copy_only=False)
        )
        lab = batch.column(label_column).to_numpy(zero_copy_only=False)
        is_pos = lab == positive_value
        vals, inv = np.unique(s, return_inverse=True)
        pos = np.bincount(inv, weights=is_pos).astype(np.int64)
        neg = np.bincount(inv, weights=~is_pos).astype(np.int64)
        return pa.table(
            {"score": pa.array(vals), "pos": pa.array(pos), "neg": pa.array(neg)}
        )

    distinct = right_size(
        coarse_groupby_agg(
            ds.map_batches(partials, batch_format="pyarrow"),
            ["score"],
            {"pos": ("pos", "sum"), "neg": ("neg", "sum")},
            n_parts=n_parts,
        ).materialize()
    )

    n_parts_eff = default_n_parts(n_parts)
    n_distinct = distinct.count()
    n_parts_eff = min(n_parts_eff, max(1, (n_distinct + 4095) // 4096))

    # deterministic score-range boundaries from a bounded sample: hash the
    # score's bit pattern (scores are distinct after the merge, so the
    # sample is uniform over distinct scores)
    bounds = None
    if n_parts_eff > 1:
        import pandas as pd_

        target = max(n_parts_eff * 64, 2048)
        prob_mod = max(1, n_distinct // target)

        def pick(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "score" not in batch.column_names:
                return pa.schema([("score", pa.float64())]).empty_table()
            s = batch.column("score").to_numpy(zero_copy_only=False)
            keep = (
                pd_.util.hash_array(s.view(np.int64), hash_key="opentapioca_ray0")
                % np.uint64(prob_mod)
            ) == 0
            return pa.table({"score": pa.array(s[keep])})

        sampled = []
        for t in arrow_blocks(distinct.select_columns(["score"]).map_batches(
            pick, batch_format="pyarrow"
        )):
            if t.num_rows and "score" in t.column_names:
                sampled.append(t.column("score").to_numpy(zero_copy_only=False))
        if sampled:
            k = np.sort(np.concatenate(sampled))
            pos_idx = (np.arange(1, n_parts_eff) * len(k)) // n_parts_eff
            pos_idx = np.unique(pos_idx[(pos_idx > 0) & (pos_idx < len(k))])
            if len(pos_idx):
                bounds = np.unique(k[pos_idx])

    def add_pid(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("score", pa.float64()),
                ("pos", pa.int64()),
                ("neg", pa.int64()),
                ("pid", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "score" not in batch.column_names:
            return schema.empty_table()
        s = batch.column("score").to_numpy(zero_copy_only=False)
        pid = (
            np.searchsorted(bounds, s, side="right").astype(np.int64)
            if bounds is not None
            else np.zeros(len(s), dtype=np.int64)
        )
        return pa.table(
            {
                "score": batch.column("score"),
                "pos": batch.column("pos").cast(pa.int64()),
                "neg": batch.column("neg").cast(pa.int64()),
                "pid": pa.array(pid),
            }
        )

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in _SUMMARY.names}
            )
        # one partition can host several pids (hash co-location) — segment
        # the vectorized prefix per pid, never across
        s = df["score"].to_numpy(dtype=np.float64)
        pos = df["pos"].to_numpy(dtype=np.int64)
        neg = df["neg"].to_numpy(dtype=np.int64)
        pid = df["pid"].to_numpy(dtype=np.int64)
        o = np.lexsort((s, pid))
        s, pos, neg, pid = s[o], pos[o], neg[o], pid[o]
        new = np.concatenate(([True], pid[1:] != pid[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        cum = np.concatenate(([0], np.cumsum(neg)[:-1]))
        negbelow = cum - cum[starts[seg]]
        term = 2 * pos * negbelow + pos * neg
        n_seg = int(seg[-1]) + 1
        return pd.DataFrame(
            {
                "pid": pid[starts].astype(np.int64),
                "s_pos": np.bincount(seg, weights=pos, minlength=n_seg).astype(
                    np.int64
                ),
                "s_neg": np.bincount(seg, weights=neg, minlength=n_seg).astype(
                    np.int64
                ),
                "l2": np.bincount(seg, weights=term, minlength=n_seg).astype(
                    np.int64
                ),
            }
        )

    from opentapioca_ray.stages.exchange import coarse_group_apply

    summaries = coarse_group_apply(
        distinct.map_batches(add_pid, batch_format="pyarrow"),
        "pid",
        summarize,
        n_parts=n_parts_eff,
    )

    # O(n_parts) driver combine — the only rows that ever leave the cluster
    rows = []
    for t in arrow_blocks(summaries):
        if t.num_rows and "pid" in t.column_names:
            rows.append(t.to_pandas())
    if not rows:
        return driver_dataset(_OUT.empty_table())
    agg = pd.concat(rows).sort_values("pid")
    s_pos = agg["s_pos"].to_numpy(dtype=np.int64)
    s_neg = agg["s_neg"].to_numpy(dtype=np.int64)
    l2 = agg["l2"].to_numpy(dtype=np.int64)
    neg_before = np.concatenate(([0], np.cumsum(s_neg)[:-1]))
    u2 = int(np.sum(l2 + 2 * s_pos * neg_before))
    n_pos, n_neg = int(s_pos.sum()), int(s_neg.sum())
    auc_e6 = (
        int(np.floor(1e6 * u2 / (2.0 * n_pos * n_neg) + 0.5))
        if n_pos and n_neg
        else 0
    )
    out = pa.table(
        {
            "n_pos": pa.array([n_pos], pa.int64()),
            "n_neg": pa.array([n_neg], pa.int64()),
            "u2": pa.array([u2], pa.int64()),
            "auc_e6": pa.array([auc_e6], pa.int64()),
        }
    )

    return driver_dataset(out)


def welch_t_stats(ds, arm_column: str, units_column: str):
    """Welch two-sample t statistic between arm 0 and arm 1 over an
    integer-unit value column (the repo's fixed-point convention: callers
    rint-scale floats to int64 units so the sufficient statistics
    n / Σu / Σu² accumulate EXACTLY — no float-summation order
    dependence). Combiner-first: the corpus reduces map-side to per-arm
    (n, sum, sumsq); only the two arm rows reach the driver; the t value
    is ONE fixed float expression quantized to micro-units, replayed
    term-for-term by the SQL twin."""
    from opentapioca_ray.stages.aggregates import partial_sum_count

    out_schema = pa.schema(
        [
            ("n_a", pa.int64()),
            ("n_b", pa.int64()),
            ("sum_a", pa.int64()),
            ("sum_b", pa.int64()),
            ("ssq_a", pa.int64()),
            ("ssq_b", pa.int64()),
            ("t_e6", pa.int64()),
        ]
    )

    def add_sq(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                (arm_column, pa.int64()),
                ("u", pa.int64()),
                ("uu", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or units_column not in batch.column_names:
            return schema.empty_table()
        u = (
            batch.column(units_column)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                arm_column: batch.column(arm_column).cast(pa.int64()),
                "u": pa.array(u),
                "uu": pa.array(u * u),
            }
        )

    stats = partial_sum_count(
        ds.map_batches(add_sq, batch_format="pyarrow"), arm_column, ["u", "uu"]
    )
    acc = {}
    for t in arrow_blocks(stats):
        if t.num_rows == 0 or arm_column not in t.column_names:
            continue
        for row in t.to_pylist():
            a = int(row[arm_column])
            n, s, q = acc.get(a, (0, 0, 0))
            acc[a] = (
                n + int(row["count"]),
                s + int(row["sum_u"]),
                q + int(row["sum_uu"]),
            )
    na, sa, qa = acc.get(0, (0, 0, 0))
    nb, sb, qb = acc.get(1, (0, 0, 0))
    if na > 1 and nb > 1:
        # the SQL twin replays this expression with identical IEEE op order
        va = (qa - float(sa) * float(sa) / na) / (na - 1)
        vb = (qb - float(sb) * float(sb) / nb) / (nb - 1)
        denom = np.sqrt(va / na + vb / nb)
        t_e6 = (
            int(np.floor(1e6 * (sa / na - sb / nb) / denom + 0.5))
            if denom > 0
            else 0
        )
    else:
        t_e6 = 0
    out = pa.table(
        {
            "n_a": pa.array([na], pa.int64()),
            "n_b": pa.array([nb], pa.int64()),
            "sum_a": pa.array([sa], pa.int64()),
            "sum_b": pa.array([sb], pa.int64()),
            "ssq_a": pa.array([qa], pa.int64()),
            "ssq_b": pa.array([qb], pa.int64()),
            "t_e6": pa.array([t_e6], pa.int64()),
        }
    )
    return driver_dataset(out)


def footrule_stats(ds, id_column: str, key_a: str, key_b: str):
    """Spearman's footrule disagreement between two orderings of the same
    rows: n and sum(|rank_a - rank_b|), ranks being exact global
    row_number() OVER (ORDER BY key, id) — deterministic tie-break, so
    the result is a pure integer and the SQL window twin matches
    bit-for-bit. The label-free way to quantify how much two ranking
    criteria (price vs recency, quality vs length) disagree.

    Shape: two `global_rank` passes (sampled-boundary range exchange,
    O(n_parts) driver offsets each); the rank join is ONE coarse
    groupby-sum on the id — ranking A rides in as +rn, ranking B as -rn,
    so the group sum IS rank_a - rank_b and no join kernel exists at
    all. Final |d| roll-up is a map-side partial combine."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.snm import global_rank

    def signed(rank_ds, sign: int):
        def fn(batch: pa.Table) -> pa.Table:
            schema = pa.schema([("id", pa.int64()), ("rn", pa.int64())])
            if batch.num_rows == 0 or id_column not in batch.column_names:
                return schema.empty_table()
            rn = batch.column("rn").to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "id": batch.column(id_column).cast(pa.int64()),
                    "rn": pa.array(sign * rn),
                }
            )

        return rank_ds.map_batches(fn, batch_format="pyarrow")

    ra = signed(global_rank(ds, key_a, id_column), 1)
    rb = signed(global_rank(ds, key_b, id_column), -1)
    diffs = coarse_groupby_agg(
        ra.union(rb), ["id"], {"d": ("rn", "sum")}
    )

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("n", pa.int64()), ("s", pa.int64())])
        if batch.num_rows == 0 or "d" not in batch.column_names:
            return schema.empty_table()
        d = batch.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(d)], pa.int64()),
                "s": pa.array([int(np.abs(d).sum())], pa.int64()),
            }
        )

    n = s = 0
    for t in arrow_blocks(diffs.map_batches(partial, batch_format="pyarrow")):
        if t.num_rows and "n" in t.column_names:
            n += int(t.column("n").to_numpy().sum())
            s += int(t.column("s").to_numpy().sum())
    return driver_dataset(
        pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "footrule": pa.array([s], pa.int64()),
            }
        )
    )


def kendall_tau_binned(ds, x_column: str, y_column: str, n_parts=None):
    """Exact Kendall tau-b between a BOUNDED-cardinality variable
    (`x_column`, e.g. a 1..50 quantity, a grade, a bucket id) and an
    arbitrary numeric (`y_column`), without enumerating pairs:
    tau_b = (C - D) / sqrt((n0 - n1)(n0 - n2)). Output one row
    (n, c, d, n1, n2, taub_e6) — everything left of taub_e6 exact int64.

    The concordant/discordant counts are 2-D dominance sums: C = the
    number of row pairs with y_a < y_b AND x_a < x_b. Scale shape: rows
    are RANGE-partitioned on y (sampled boundaries); each partition
    builds a per-row "rows strictly below my y, per x-bin" table from
    ONE one-hot cumulative sum anchored at y-tie-block starts plus an
    O(n_parts x bins) carry-in of earlier partitions' bin totals — the
    vector generalization of the late-event carry-in. Tie terms n1/n2
    are combiner roll-ups. Nothing row-proportional reaches the driver.

    Partitioning assumption: the x cardinality is bounded (the one-hot
    cum is rows x bins per partition); unbounded x needs the pairwise
    IEJoin formulation instead."""
    import ray

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        default_n_parts,
        right_size,
    )

    slim_schema = pa.schema([("y", pa.int64()), ("x", pa.int64())])

    def slim(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or x_column not in batch.column_names:
            return slim_schema.empty_table()
        return pa.table(
            {
                "y": batch.column(y_column).cast(pa.int64()),
                "x": batch.column(x_column).cast(pa.int64()),
            }
        )

    rows = right_size(
        ds.select_columns([x_column, y_column])
        .map_batches(slim, batch_format="pyarrow")
        .materialize()
    )
    n_rows = rows.count()

    # distinct x bins AND the x-tie term n1 from ONE combiner pass: each
    # block emits its (x, count) partials (bounded bins per block by
    # contract), the driver merges O(blocks x bins) rows — no exchange
    def x_partials(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("x", pa.int64()), ("c", pa.int64())])
        if batch.num_rows == 0 or "x" not in batch.column_names:
            return schema.empty_table()
        ux, cnt = np.unique(
            batch.column("x").to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {"x": pa.array(ux), "c": pa.array(cnt.astype(np.int64))}
        )

    x_counts: dict[int, int] = {}
    for t in arrow_blocks(rows.select_columns(["x"]).map_batches(
        x_partials, batch_format="pyarrow"
    )):
        if t.num_rows == 0 or "x" not in t.column_names:
            continue
        for xv, cv in zip(
            t.column("x").to_pylist(), t.column("c").to_pylist()
        ):
            x_counts[xv] = x_counts.get(xv, 0) + cv
    bins = np.sort(np.array(sorted(x_counts), dtype=np.int64))
    n_bins = len(bins)
    n1 = sum(c * (c - 1) // 2 for c in x_counts.values())
    # n2 (y ties) is emitted by the main dominance exchange below: equal y
    # values share a pid by construction, so each partition counts its own
    # y-tie blocks exactly once — the standalone y exchange is gone.

    # y range boundaries (sampled, like roc_auc)
    n_parts_eff = min(
        default_n_parts(n_parts), max(1, (n_rows + 65_535) // 65_536)
    )
    bounds = None
    if n_parts_eff > 1:
        import pandas as pd_

        target = max(n_parts_eff * 64, 2048)
        prob_mod = max(1, n_rows // target)

        def pick(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "y" not in batch.column_names:
                return pa.schema([("y", pa.int64())]).empty_table()
            y = batch.column("y").to_numpy(zero_copy_only=False)
            keep = (
                pd_.util.hash_array(
                    y.astype(np.int64), hash_key="opentapioca_ray0"
                )
                % np.uint64(prob_mod)
            ) == 0
            return pa.table({"y": pa.array(y[keep])})

        sampled = []
        for t in arrow_blocks(rows.select_columns(["y"]).map_batches(
            pick, batch_format="pyarrow"
        )):
            if t.num_rows and "y" in t.column_names:
                sampled.append(t.column("y").to_numpy(zero_copy_only=False))
        if sampled:
            k = np.sort(np.concatenate(sampled))
            pos = (np.arange(1, n_parts_eff) * len(k)) // n_parts_eff
            pos = np.unique(pos[(pos > 0) & (pos < len(k))])
            if len(pos):
                bounds = np.unique(k[pos])

    def add_pid(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "y" not in batch.column_names:
            return pa.schema(
                [("y", pa.int64()), ("x", pa.int64()), ("pid", pa.int64())]
            ).empty_table()
        y = batch.column("y").to_numpy(zero_copy_only=False)
        pid = (
            np.searchsorted(bounds, y, side="right").astype(np.int64)
            if bounds is not None
            else np.zeros(len(y), dtype=np.int64)
        )
        return batch.append_column("pid", pa.array(pid))

    parted = right_size(
        rows.map_batches(add_pid, batch_format="pyarrow").materialize()
    )

    # carry-in: per-pid x-bin totals (O(n_parts x bins) driver state)
    def bin_partials(b: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("pid", pa.int64()), ("bi", pa.int64()), ("c", pa.int64())]
        )
        if b.num_rows == 0 or "pid" not in b.column_names:
            return schema.empty_table()
        pid = b.column("pid").to_numpy(zero_copy_only=False).astype(np.int64)
        x = b.column("x").to_numpy(zero_copy_only=False).astype(np.int64)
        bi = np.searchsorted(bins, x)
        key = pid * n_bins + bi
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "pid": pa.array((uniq // n_bins).astype(np.int64)),
                "bi": pa.array((uniq % n_bins).astype(np.int64)),
                "c": pa.array(cnt.astype(np.int64)),
            }
        )

    totals = np.zeros((n_parts_eff, n_bins), dtype=np.int64)
    for t in arrow_blocks(parted.map_batches(
        bin_partials, batch_format="pyarrow"
    )):
        if t.num_rows == 0 or "pid" not in t.column_names:
            continue
        np.add.at(
            totals,
            (
                t.column("pid").to_numpy(zero_copy_only=False),
                t.column("bi").to_numpy(zero_copy_only=False),
            ),
            t.column("c").to_numpy(zero_copy_only=False),
        )
    carry = np.zeros((n_parts_eff, n_bins), dtype=np.int64)
    if n_parts_eff > 1:
        carry[1:] = np.cumsum(totals, axis=0)[:-1]
    carry_ref = ray.put(carry)
    bins_ref = ray.put(bins)

    def cd_partition(df) -> pd.DataFrame:
        if df.empty or "y" not in df.columns:
            return pd.DataFrame(
                {
                    "c": pd.Series(dtype=np.int64),
                    "d": pd.Series(dtype=np.int64),
                    "t2": pd.Series(dtype=np.int64),
                }
            )
        cr = ray.get(carry_ref)
        bn = ray.get(bins_ref)
        y = df["y"].to_numpy(dtype=np.int64)
        x = df["x"].to_numpy(dtype=np.int64)
        pid = df["pid"].to_numpy(dtype=np.int64)
        order = np.lexsort((y, pid))
        y, x, pid = y[order], x[order], pid[order]
        bi = np.searchsorted(bn, x)
        c_tot = d_tot = 0
        t2_tot = 0
        new_p = np.concatenate(([True], pid[1:] != pid[:-1]))
        p_starts = np.flatnonzero(new_p)
        p_ends = np.concatenate((p_starts[1:], [len(y)]))
        for ps, pe in zip(p_starts, p_ends):  # pids hosted here (bounded)
            seg_y, seg_bi = y[ps:pe], bi[ps:pe]
            # per-BIN 1-D dominance scan: the 2-D rows x bins matrices
            # (onehot cumsum / block-granular prefixes) were memory-bound
            # and 40-100x slower on this class of box; `bins` iterations
            # of contiguous 1-D cumsum+gather+masked-sum cost the same
            # element ops with cache-resident working sets.
            # C = sum_j sum_{rows r with bin>j} (# bin-j rows strictly
            # below r's y, incl. earlier partitions' carry); D mirrors <j.
            new_y = np.concatenate(([True], seg_y[1:] != seg_y[:-1]))
            starts = np.flatnonzero(new_y)
            segid = np.cumsum(new_y) - 1
            start_idx = starts[segid]
            pos = start_idx > 0
            prev_gather = np.maximum(start_idx - 1, 0)
            cr_p = cr[int(pid[ps])]
            for j in range(len(bn)):
                hits = seg_bi == j
                if not hits.any() and cr_p[j] == 0:
                    continue
                cum_j = np.cumsum(hits)
                prev = np.where(pos, cum_j[prev_gather], 0) + cr_p[j]
                c_tot += int(prev[seg_bi > j].sum())
                d_tot += int(prev[seg_bi < j].sum())
            # y-tie term for this pid: tie-block sizes
            sizes = np.diff(np.concatenate((starts, [pe - ps]))).astype(
                np.int64
            )
            t2_tot += int((sizes * (sizes - 1) // 2).sum())
        return pd.DataFrame({"c": [c_tot], "d": [d_tot], "t2": [t2_tot]})

    c = d = 0
    n2 = 0
    for t in arrow_blocks(coarse_group_apply(
        parted, "pid", cd_partition, n_parts=n_parts_eff,
        batch_format="pandas",
    )):
        if t.num_rows and "c" in t.column_names:
            c += int(t.column("c").to_numpy().sum())
            d += int(t.column("d").to_numpy().sum())
            n2 += int(t.column("t2").to_numpy().sum())

    n0 = n_rows * (n_rows - 1) // 2
    denom = float(n0 - n1) * float(n0 - n2)
    taub_e6 = (
        int(np.floor(1e6 * (c - d) / np.sqrt(denom) + 0.5)) if denom > 0 else 0
    )
    return driver_dataset(
        pa.table(
            {
                "n": pa.array([n_rows], pa.int64()),
                "c": pa.array([c], pa.int64()),
                "d": pa.array([d], pa.int64()),
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "taub_e6": pa.array([taub_e6], pa.int64()),
            }
        )
    )


def rrf_fuse(ranks_a, ranks_b, id_column: str, k: int = 60):
    """Reciprocal-rank fusion of two rankings (Cormack et al., SIGIR'09):
    score = 1/(k+r_a) + 1/(k+r_b), each term quantized to int64 1e-9
    units BEFORE the sum so the fused score is exact integer arithmetic
    from exact integer ranks (no float accumulation). Inputs are two
    (id, rn) datasets (e.g. from `snm.global_rank`); output
    (id, rank_a, rank_b, rrf_e9) for ids present in BOTH rankings.

    ONE coarse exchange on the id co-locates each item's two rank rows;
    the kernel pivots and scores vectorized."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    union_schema = pa.schema(
        [(id_column, pa.int64()), ("rn", pa.int64()), ("side", pa.int64())]
    )

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "rn" not in batch.column_names:
                return union_schema.empty_table()
            return pa.table(
                {
                    id_column: batch.column(id_column).cast(pa.int64()),
                    "rn": batch.column("rn").cast(pa.int64()),
                    "side": pa.array(
                        np.full(batch.num_rows, side, dtype=np.int64)
                    ),
                }
            )

        return fn

    unioned = ranks_a.map_batches(tag(0), batch_format="pyarrow").union(
        ranks_b.map_batches(tag(1), batch_format="pyarrow")
    )

    def fuse(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            id_column: pd.Series(dtype=np.int64),
            "rank_a": pd.Series(dtype=np.int64),
            "rank_b": pd.Series(dtype=np.int64),
            "rrf_e9": pd.Series(dtype=np.int64),
        }
        if df.empty or "side" not in df.columns:
            return pd.DataFrame(cols)
        ids = df[id_column].to_numpy(dtype=np.int64)
        rn = df["rn"].to_numpy(dtype=np.int64)
        side = df["side"].to_numpy(dtype=np.int64)
        order = np.lexsort((side, ids))
        ids, rn, side = ids[order], rn[order], side[order]
        new = np.concatenate(([True], ids[1:] != ids[:-1]))
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate((starts, [len(ids)])))
        both = sizes == 2  # inner semantics: id must appear in both
        sa = starts[both]
        ra, rb = rn[sa], rn[sa + 1]
        term_a = np.floor(1e9 / (k + ra) + 0.5).astype(np.int64)
        term_b = np.floor(1e9 / (k + rb) + 0.5).astype(np.int64)
        return pd.DataFrame(
            {
                id_column: ids[sa],
                "rank_a": ra,
                "rank_b": rb,
                "rrf_e9": term_a + term_b,
            }
        )

    return coarse_group_apply(unioned, id_column, fuse)


def rbo_depth_table(
    ds,
    a_value: str,
    b_value: str,
    id_column: str,
    depth: int = 50,
    p: float = 0.9,
    n_parts=None,
):
    """Rank-biased overlap (Webber, Moffat & Zobel 2010) between the two
    rankings of `ds` induced by `a_value` desc and `b_value` desc (ties ->
    id asc), truncated at `depth`: per-depth rows (d, overlap, term_e9,
    rbo_e9) where term = (1-p) * p^(d-1) * overlap/d quantized ONCE to
    integer nano-units and rbo_e9 is the exact integer prefix sum — the
    top-weighted ranking-agreement diagnostic for comparing two scoring
    functions before swapping one in.

    Shape: each ranking's exact global top-`depth` via per-batch combiner
    top-k + one driver merge (2 x depth rows of driver state); the depth
    table itself is O(depth)."""
    ds = ds.select_columns([id_column, a_value, b_value]).materialize()

    def local_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return pa.schema(
                [
                    (id_column, pa.int64()),
                    (a_value, pa.int64()),
                    (b_value, pa.int64()),
                ]
            ).empty_table()
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        av = batch.column(a_value).to_numpy(zero_copy_only=False).astype(np.int64)
        bv = batch.column(b_value).to_numpy(zero_copy_only=False).astype(np.int64)
        ia = np.lexsort((ids, -av))[:depth]
        ib = np.lexsort((ids, -bv))[:depth]
        keep = np.union1d(ia, ib)
        return pa.table(
            {
                id_column: pa.array(ids[keep]),
                a_value: pa.array(av[keep]),
                b_value: pa.array(bv[keep]),
            }
        )

    parts = [
        t
        for t in arrow_blocks(
            ds.map_batches(local_top, batch_format="pyarrow")
        )
        if t.num_rows and id_column in t.column_names
    ]
    out_schema = pa.schema(
        [
            ("d", pa.int64()),
            ("overlap", pa.int64()),
            ("term_e9", pa.int64()),
            ("rbo_e9", pa.int64()),
        ]
    )
    if not parts:
        return driver_dataset(out_schema.empty_table())
    t = pa.concat_tables(parts)
    ids = t.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    av = t.column(a_value).to_numpy(zero_copy_only=False).astype(np.int64)
    bv = t.column(b_value).to_numpy(zero_copy_only=False).astype(np.int64)
    top_a = ids[np.lexsort((ids, -av))[:depth]]
    top_b = ids[np.lexsort((ids, -bv))[:depth]]
    dmax = min(depth, len(top_a), len(top_b))
    rows_d = np.arange(1, dmax + 1, dtype=np.int64)
    overlap = np.array(
        [len(np.intersect1d(top_a[:d], top_b[:d])) for d in rows_d],
        dtype=np.int64,
    )
    term = np.floor(
        (1.0 - p) * np.power(p, (rows_d - 1).astype(np.float64))
        * overlap / rows_d * 1_000_000_000.0
        + 0.5
    ).astype(np.int64)
    return driver_dataset(
        pa.table(
            {
                "d": pa.array(rows_d),
                "overlap": pa.array(overlap),
                "term_e9": pa.array(term),
                "rbo_e9": pa.array(np.cumsum(term)),
            }
        )
    )


def ndcg_at_k(
    ds,
    rank_value: str,
    rel_column: str,
    id_column: str,
    k: int = 10,
    n_parts=None,
):
    """NDCG@k (Järvelin & Kekäläinen 2002) of the ranking induced by
    `rank_value` desc (ties -> id asc) against integer relevance grades
    `rel_column`: one summary row (k, dcg_e6, idcg_e6, ndcg_e6). The
    per-rank discount 1/log2(r+1) is quantized ONCE to integer
    micro-units; DCG/IDCG are then exact int64 dot products and the final
    ratio is exact integer division.

    Shape: two per-batch combiner top-k passes (ranking head + largest
    relevance grades) + a driver merge of 2k rows."""
    ds = ds.select_columns([id_column, rank_value, rel_column]).materialize()

    def local_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return pa.schema(
                [
                    (id_column, pa.int64()),
                    (rank_value, pa.int64()),
                    (rel_column, pa.int64()),
                ]
            ).empty_table()
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        rv = batch.column(rank_value).to_numpy(zero_copy_only=False).astype(np.int64)
        rel = batch.column(rel_column).to_numpy(zero_copy_only=False).astype(np.int64)
        head = np.lexsort((ids, -rv))[:k]
        ideal = np.argsort(-rel, kind="stable")[:k]
        keep = np.union1d(head, ideal)
        return pa.table(
            {
                id_column: pa.array(ids[keep]),
                rank_value: pa.array(rv[keep]),
                rel_column: pa.array(rel[keep]),
            }
        )

    parts = [
        t
        for t in arrow_blocks(
            ds.map_batches(local_top, batch_format="pyarrow")
        )
        if t.num_rows and id_column in t.column_names
    ]
    out_schema = pa.schema(
        [
            ("k", pa.int64()),
            ("dcg_e6", pa.int64()),
            ("idcg_e6", pa.int64()),
            ("ndcg_e6", pa.int64()),
        ]
    )
    if not parts:
        return driver_dataset(out_schema.empty_table())
    t = pa.concat_tables(parts)
    ids = t.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    rv = t.column(rank_value).to_numpy(zero_copy_only=False).astype(np.int64)
    rel = t.column(rel_column).to_numpy(zero_copy_only=False).astype(np.int64)
    head = np.lexsort((ids, -rv))[:k]
    ranks = np.arange(1, len(head) + 1, dtype=np.int64)
    disc = np.floor(
        1_000_000.0 / np.log2(ranks.astype(np.float64) + 1.0) + 0.5
    ).astype(np.int64)
    dcg = int((rel[head] * disc).sum())
    ideal = np.sort(rel)[::-1][: len(head)]
    idcg = int((ideal * disc).sum())
    ndcg = dcg * 1_000_000 // idcg if idcg > 0 else 0
    return driver_dataset(
        pa.table(
            {
                "k": pa.array([k], pa.int64()),
                "dcg_e6": pa.array([dcg], pa.int64()),
                "idcg_e6": pa.array([idcg], pa.int64()),
                "ndcg_e6": pa.array([ndcg], pa.int64()),
            }
        )
    )
