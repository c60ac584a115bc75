"""Ordered funnel analysis over an event stream.

"How many users viewed, then clicked, then purchased — in that order?" is
the canonical product-analytics query over the events table. Step k is
reached by a user when an event of type `steps[k]` exists at a timestamp
>= the (earliest) time step k-1 was reached; the count per step is
monotonically non-increasing.

Scale shape: filter to the step event types at the scan (column + row
pruning), ONE coarse hash exchange on the user key co-locates each user's
events, and a per-partition vectorized kernel resolves all of the
partition's users step by step (pandas groupby-min per step — a few
vectorized passes total, never per-user Python). Only P × |steps| partial
count rows leave the partitions.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


def funnel_counts(
    ds,
    steps: list[str],
    user_column: str = "user_id",
    ts_column: str = "ts",
    type_column: str = "event_type",
):
    """Returns (step_idx: int64, step: string, n_users: int64), one row per
    funnel step, counting users who reached that step in order."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    steps = list(steps)
    step_set = set(steps)

    def prune(batch: pa.Table) -> pa.Table:
        cols = [user_column, ts_column, type_column]
        if batch.num_rows == 0 or type_column not in batch.column_names:
            return batch
        import pyarrow.compute as pc

        mask = pc.is_in(
            batch.column(type_column), value_set=pa.array(sorted(step_set))
        )
        return batch.select(cols).filter(mask)

    def funnel_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "step_idx": pd.Series(dtype=np.int64),
                "n_part": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or user_column not in df.columns:
            return empty
        counts = []
        # step 0: earliest event of type steps[0] per user
        cur = (
            df.loc[df[type_column] == steps[0]]
            .groupby(user_column, sort=False)[ts_column]
            .min()
        )
        counts.append(len(cur))
        for s in steps[1:]:
            if cur.empty:
                counts.append(0)
                continue
            cand = df.loc[df[type_column] == s, [user_column, ts_column]]
            thr = cand[user_column].map(cur)
            ok = cand.loc[thr.notna() & (cand[ts_column] >= thr)]
            cur = ok.groupby(user_column, sort=False)[ts_column].min()
            counts.append(len(cur))
        return pd.DataFrame(
            {
                "step_idx": np.arange(len(steps), dtype=np.int64),
                "n_part": np.asarray(counts, dtype=np.int64),
            }
        )

    partials = coarse_group_apply(
        ds.map_batches(prune, batch_format="pyarrow"),
        user_column,
        funnel_partition,
    )

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    totals = coarse_groupby_agg(
        partials, ["step_idx"], {"n_users": ("n_part", "sum")}
    )

    # The result is |steps| rows by construction — collect the tiny total
    # table and fill steps no partition reached with an explicit 0 (SQL's
    # count(*) over an empty CTE), so the output always has one row per step.
    counts = np.zeros(len(steps), dtype=np.int64)
    for t in arrow_blocks(totals):
        if t.num_rows == 0 or "step_idx" not in t.column_names:
            continue
        idx = t.column("step_idx").to_numpy(zero_copy_only=False).astype(int)
        counts[idx] += t.column("n_users").to_numpy(zero_copy_only=False)
    return driver_dataset(
        pa.table(
            {
                "step_idx": pa.array(
                    np.arange(len(steps), dtype=np.int64)
                ),
                "step": pa.array(steps, type=pa.string()),
                "n_users": pa.array(counts),
            }
        )
    )


def retention_cohorts(ds, user_column: str = "user_id", ts_column: str = "ts"):
    """Cohort retention counts: users are cohorted by their FIRST active
    day; output (cohort_day, offset_days, n_users) = how many of each
    cohort's users were active `offset` days later.

    One coarse exchange total: per-batch distinct (user, day) pairs
    (combiner), shuffle on user so each partition holds whole users, a
    vectorized segment-min kernel computes every user's cohort and offsets
    in one pass, then the tiny (cohort, offset) counts merge combiner-first."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    day_us = 86_400_000_000

    def to_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or user_column not in batch.column_names:
            return pa.schema(
                [pa.field("user_id", pa.int64()), pa.field("day", pa.int64())]
            ).empty_table()
        us = batch.column(ts_column).cast(pa.int64())
        t = pa.table(
            {
                "user_id": batch.column(user_column).cast(pa.int64()),
                "day": pa.compute.divide(us, day_us),
            }
        )
        return t.group_by(["user_id", "day"]).aggregate([])  # batch-local dedup

    def cohort_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "user_id" not in df.columns:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series(dtype=np.int64),
                    "offset_days": pd.Series(dtype=np.int64),
                }
            )
        df = df.drop_duplicates(["user_id", "day"])
        u = df["user_id"].to_numpy(dtype=np.int64)
        d = df["day"].to_numpy(dtype=np.int64)
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        new = np.concatenate(([True], u[1:] != u[:-1]))
        seg = np.cumsum(new) - 1
        first = d[np.flatnonzero(new)]  # per-user min day (sorted within user)
        cohort = first[seg]
        return pd.DataFrame({"cohort_day": cohort, "offset_days": d - cohort})

    pairs = ds.map_batches(to_pairs, batch_format="pyarrow")
    per_user = coarse_group_apply(pairs, "user_id", cohort_partition)
    return partial_multi_sum_count(
        per_user, ["cohort_day", "offset_days"], [], alias={"count": "n_users"}
    )


def last_touch_attribution(
    events_ds,
    conversion_type: str = "purchase",
    touch_types: tuple[str, ...] = ("click", "view"),
    window_us: int = 7 * 24 * 3_600_000_000,
    group_column: str = "user_id",
    ts_column: str = "ts",
    id_column: str = "event_id",
    value_column: str = "value",
    n_parts: int | None = None,
):
    """Last-touch marketing attribution: each conversion event's value is
    credited to the user's most recent STRICTLY-preceding touch event
    (by (ts, id) order) of a touch type, provided it happened within
    `window_us`; conversions with no qualifying touch credit 'none'.
    Returns (touch_type, n_conversions, attributed_value_c) — exact
    centi-unit sums.

    Scale shape: column-pruned scan, ONE coarse exchange on the user key,
    a per-partition kernel (lexsort + segment-aware cummax forward-fill of
    the last touch index — pandas C kernels, no per-row loop), then a
    final 3-row partial-sum merge."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
    )

    touch_set = set(touch_types)

    def to_units(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("g", pa.int64()),
                ("t", pa.int64()),
                ("i", pa.int64()),
                ("c", pa.int64()),
                ("kind", pa.string()),
            ]
        )
        if batch.num_rows == 0 or ts_column not in batch.column_names:
            return schema.empty_table()
        kinds = batch.column("event_type")
        keep = pc.is_in(
            kinds, value_set=pa.array([conversion_type, *touch_types])
        )
        batch = batch.filter(keep)
        if batch.num_rows == 0:
            return schema.empty_table()
        t = pc.cast(
            pc.cast(batch.column(ts_column).combine_chunks(), pa.timestamp("us")),
            pa.int64(),
        )
        c = np.rint(
            batch.column(value_column).to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "g": batch.column(group_column).cast(pa.int64()),
                "t": t,
                "i": batch.column(id_column).cast(pa.int64()),
                "c": pa.array(c),
                "kind": batch.column("event_type").cast(pa.string()),
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "touch_type": pd.Series(dtype=object),
            "n_conversions": pd.Series(dtype=np.int64),
            "attributed_value_c": pd.Series(dtype=np.int64),
        }
        if df.empty or "g" not in df.columns:
            return pd.DataFrame(cols)
        df = df.sort_values(["g", "t", "i"], kind="mergesort")
        g = df["g"].to_numpy(dtype=np.int64)
        t = df["t"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        kind = df["kind"].to_numpy()
        n = len(g)
        is_touch = np.isin(kind, list(touch_set))
        idx = np.arange(n, dtype=np.int64)
        touch_pos = np.where(is_touch, idx, np.int64(-1))
        # strictly-preceding: shift by one inside each group, then cummax
        new = np.concatenate(([True], g[1:] != g[:-1]))
        shifted = np.concatenate(([np.int64(-1)], touch_pos[:-1]))
        shifted[new] = -1
        seg = np.cumsum(new) - 1
        prev = pd.Series(shifted).groupby(seg).cummax().to_numpy(dtype=np.int64)
        is_conv = kind == conversion_type
        cpos = np.flatnonzero(is_conv)
        pidx = prev[cpos]
        has = pidx >= 0
        in_window = np.zeros(len(cpos), dtype=bool)
        in_window[has] = (t[cpos[has]] - t[pidx[has]]) <= np.int64(window_us)
        label = np.full(len(cpos), "none", dtype=object)
        label[in_window] = kind[pidx[in_window]]
        out = pd.DataFrame(
            {"touch_type": label, "c": c[cpos]}
        ).groupby("touch_type", sort=True)
        agg = out.agg(n_conversions=("c", "size"), attributed_value_c=("c", "sum"))
        agg = agg.reset_index()
        agg["n_conversions"] = agg["n_conversions"].astype(np.int64)
        agg["attributed_value_c"] = agg["attributed_value_c"].astype(np.int64)
        return agg

    units = events_ds.map_batches(to_units, batch_format="pyarrow")
    partials = coarse_group_apply(units, "g", kernel, n_parts=n_parts)
    return coarse_groupby_agg(
        partials,
        ["touch_type"],
        {
            "n_conversions": ("n_conversions", "sum"),
            "attributed_value_c": ("attributed_value_c", "sum"),
        },
        n_parts=n_parts,
    )
