"""Windowed / temporal operators over event tables.

Operators Ray Data's Dataset API lacks natively, expressed as compositions
of map_batches (+ combiner) and keyed groupby shuffles, per the driver
brief's custom-operator guidance:

- `tumbling_window_agg` — fixed-width window aggregate: window key computed
  per batch, per-batch Arrow group-by combiner, then a small groupby-sum
  merge (shuffle rows ~= #windows x #keys per batch, not #events).
- `sessionize` — gap-based session windows per user: ONE coarse-partition
  exchange (hash(user) % P, stages/exchange.py); the partition kernel
  sessionizes ALL its users at once with vectorized numpy (sort, diff,
  cumsum with user-boundary resets) — not per-user `map_groups`, which
  pays per-group overhead on millions of small users. Partitioning
  assumption: one user's events land in one partition (hash-guaranteed)
  and a partition fits in worker heap; salt by time-range for pathological
  single users.
- `asof_join_events` — per left event, the most recent right event with
  ts <= left ts for the same user (DuckDB ASOF JOIN semantics): both sides
  tagged + unioned + one coarse-partition exchange; within a partition a
  single segment-cummax pass matches every left event of every user.
- `interval_join_events` — range join: every (interval, event) pair with
  the same key and start <= ts <= end (SQL `BETWEEN`; intervals may
  overlap). Same tag + union + one-exchange shape; the partition kernel
  matches ALL intervals with two `searchsorted` calls over a
  (key, ts)-rank composite — no per-key loop, no per-group `map_groups`.

Timestamps are returned as epoch microseconds (int64) so results compare
bit-exactly against SQL oracles.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from opentapioca_ray.stages.exchange import arrow_blocks


def _ts_us(col) -> "pa.Array":
    # normalize the unit first: sources differ (parquet: us, from_items: s/ns)
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us"))
    return pc.cast(col, pa.int64())


def tumbling_window_agg(
    events_ds,
    ts_column: str = "ts",
    key_column: str = "event_type",
    value_column: str = "value",
    window_us: int = 3_600_000_000,
):
    """-> (window_start_us, key, n, total_value) per fixed window."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("window_start_us", pa.int64()), (key_column, pa.string()),
                 ("n", pa.int64()), ("total_value", pa.float64())]
            ).empty_table()
        us = _ts_us(batch.column(ts_column)).to_numpy(zero_copy_only=False)
        win = pa.array((us // window_us) * window_us, type=pa.int64())
        t = pa.table(
            {
                "window_start_us": win,
                key_column: batch.column(key_column),
                value_column: batch.column(value_column),
            }
        )
        g = t.group_by(["window_start_us", key_column]).aggregate(
            [([], "count_all"), (value_column, "sum")]
        )
        return pa.table(
            {
                "window_start_us": g.column("window_start_us"),
                key_column: g.column(key_column),
                "n": g.column("count_all"),
                "total_value": g.column(f"{value_column}_sum"),
            }
        )

    return (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["window_start_us", key_column])
        .aggregate(Sum("n", alias_name="n"), Sum("total_value", alias_name="total_value"))
    )


def sessionize(
    events_ds,
    user_column: str = "user_id",
    ts_column: str = "ts",
    value_column: str = "value",
    gap_us: int = 1_800_000_000,
):
    """Gap-based sessions per user -> (user_id, session_index, start_us,
    end_us, n_events, total_value). A new session starts when the gap to the
    previous event of the same user exceeds `gap_us`."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series(dtype=np.int64),
                "session_index": pd.Series(dtype=np.int64),
                "start_us": pd.Series(dtype=np.int64),
                "end_us": pd.Series(dtype=np.int64),
                "n_events": pd.Series(dtype=np.int64),
                "total_value": pd.Series(dtype=np.float64),
            }
        )
        if df.empty:
            return empty
        user = df[user_column].to_numpy(dtype=np.int64)
        ts = df[ts_column].astype("datetime64[us]").astype("int64").to_numpy()
        eid = (
            df["event_id"].to_numpy()
            if "event_id" in df
            else np.zeros(len(df), dtype=np.int64)
        )
        order = np.lexsort((eid, ts, user))
        user, ts = user[order], ts[order]
        vals = df[value_column].to_numpy()[order]
        new_user = np.concatenate(([True], user[1:] != user[:-1]))
        new_sess = new_user | np.concatenate(([False], np.diff(ts) > gap_us))
        sid = np.cumsum(new_sess) - 1  # dense session id across the partition
        bounds = np.flatnonzero(new_sess)
        counts = np.bincount(sid)
        sums = np.bincount(sid, weights=vals)
        starts = ts[bounds]
        ends = ts[np.concatenate((bounds[1:] - 1, [len(ts) - 1]))]
        sess_user = user[bounds]
        # per-user session_index: position within the user's session run
        user_run_start = np.flatnonzero(
            np.concatenate(([True], sess_user[1:] != sess_user[:-1]))
        )
        run_id = np.cumsum(
            np.concatenate(([True], sess_user[1:] != sess_user[:-1]))
        ) - 1
        session_index = np.arange(len(bounds), dtype=np.int64) - user_run_start[run_id]
        return pd.DataFrame(
            {
                "user_id": sess_user,
                "session_index": session_index,
                "start_us": starts,
                "end_us": ends,
                "n_events": counts.astype(np.int64),
                "total_value": sums,
            }
        )

    return coarse_group_apply(events_ds, user_column, per_partition)


def asof_join_events(
    left_ds,
    right_ds,
    user_column: str = "user_id",
    ts_column: str = "ts",
):
    """For each left event: the greatest right-event ts <= left ts for the
    same user (DuckDB `ASOF JOIN` semantics, inner). Returns
    (event_id, ts_us, match_ts_us, lag_us).

    Both sides are tagged and unioned so matching needs exactly one
    coarse-partition exchange (hash(user) % P); the partition kernel matches
    EVERY left event of every user in one segment-cummax pass over the
    (user, ts, side)-sorted stream — no per-user groups."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.schema(
                    [("user_id", pa.int64()), ("event_id", pa.int64()),
                     ("ts_us", pa.int64()), ("side", pa.int8())]
                ).empty_table()
            return pa.table(
                {
                    "user_id": b.column(user_column).cast(pa.int64()),
                    "event_id": b.column("event_id").cast(pa.int64()),
                    "ts_us": _ts_us(b.column(ts_column)),
                    "side": pa.array([side] * b.num_rows, type=pa.int8()),
                }
            )

        return fn

    unioned = left_ds.map_batches(tag(0), batch_format="pyarrow").union(
        right_ds.map_batches(tag(1), batch_format="pyarrow")
    )

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "ts_us": pd.Series(dtype=np.int64),
                "match_ts_us": pd.Series(dtype=np.int64),
                "lag_us": pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        user = df["user_id"].to_numpy(dtype=np.int64)
        ts = df["ts_us"].to_numpy(dtype=np.int64)
        side = df["side"].to_numpy(dtype=np.int8)
        eid = df["event_id"].to_numpy(dtype=np.int64)
        n = len(df)
        # sort (user, ts, rights-before-lefts): a right at the same ts as a
        # left precedes it, so "most recent right with ts <= left ts" is
        # simply the last right seen so far in the sorted stream
        order = np.lexsort(((side == 0).astype(np.int8), ts, user))
        user, ts, side, eid = user[order], ts[order], side[order], eid[order]
        is_right = side == 1
        pos = np.arange(n, dtype=np.int64)
        val = np.where(is_right, pos, -1)  # position of a right row, else -1
        seg = np.cumsum(np.concatenate(([True], user[1:] != user[:-1]))) - 1
        # segment-reset cummax in one pass: fold (segment, value) into one
        # monotone key; a row's own key >= every earlier segment's keys, so
        # decoding the running max always yields THIS segment's best value
        key = seg * np.int64(n + 1) + (val + 1)
        last = np.maximum.accumulate(key) % np.int64(n + 1) - 1
        lmask = (~is_right) & (last >= 0)
        if not lmask.any():
            return empty
        match = last[lmask]
        return pd.DataFrame(
            {
                "event_id": eid[lmask],
                "ts_us": ts[lmask],
                "match_ts_us": ts[match],
                "lag_us": ts[lmask] - ts[match],
            }
        )

    return coarse_group_apply(unioned, "user_id", per_partition)


def interval_join_events(
    intervals_ds,
    events_ds,
    key_column: str = "user_id",
    start_column: str = "start_us",
    end_column: str = "end_us",
    ts_column: str = "ts",
    id_column: str = "event_id",
):
    """Range join: every (interval, event) pair sharing `key_column` with
    interval start <= event ts <= interval end (inclusive, SQL `BETWEEN`).
    Intervals may overlap — an event matches every containing interval.
    Returns (key, start_us, end_us, event_id, ts_us).

    Both sides are tagged and unioned so the join costs ONE
    hash(key) % P exchange. The partition kernel is loop-free: it ranks all
    time values of the partition (so comparisons stay exact across the two
    sides), folds (key_code, ts_rank) into one monotone int64 composite,
    sorts the events once, and finds each interval's matching event run
    with a left/right `searchsorted` pair; runs are expanded with the
    repeat/cumsum range trick. Partitioning assumption: one key's rows fit
    in a worker heap (same as `sessionize`)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def tag_intervals(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [("key", pa.int64()), ("t0", pa.int64()), ("t1", pa.int64()),
                 ("rid", pa.int64()), ("side", pa.int8())]
            ).empty_table()
        return pa.table(
            {
                "key": b.column(key_column).cast(pa.int64()),
                "t0": b.column(start_column).cast(pa.int64()),
                "t1": b.column(end_column).cast(pa.int64()),
                "rid": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                "side": pa.array(np.zeros(b.num_rows, dtype=np.int8)),
            }
        )

    def tag_events(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [("key", pa.int64()), ("t0", pa.int64()), ("t1", pa.int64()),
                 ("rid", pa.int64()), ("side", pa.int8())]
            ).empty_table()
        us = _ts_us(b.column(ts_column))
        return pa.table(
            {
                "key": b.column(key_column).cast(pa.int64()),
                "t0": us,
                "t1": us,
                "rid": b.column(id_column).cast(pa.int64()),
                "side": pa.array(np.ones(b.num_rows, dtype=np.int8)),
            }
        )

    unioned = intervals_ds.map_batches(tag_intervals, batch_format="pyarrow").union(
        events_ds.map_batches(tag_events, batch_format="pyarrow")
    )

    out_cols = ["key", "start_us", "end_us", "event_id", "ts_us"]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        if df.empty:
            return empty
        side = df["side"].to_numpy(dtype=np.int8)
        is_ev = side == 1
        if not is_ev.any() or is_ev.all():
            return empty
        key = df["key"].to_numpy(dtype=np.int64)
        t0 = df["t0"].to_numpy(dtype=np.int64)
        t1 = df["t1"].to_numpy(dtype=np.int64)
        rid = df["rid"].to_numpy(dtype=np.int64)
        # dense key codes over BOTH sides; exact time ranks over all bounds
        codes, _ = pd.factorize(key)
        ranks = np.unique(np.concatenate((t0, t1)))
        R = np.int64(len(ranks) + 1)
        ev_code, ev_ts, ev_id = codes[is_ev], t0[is_ev], rid[is_ev]
        comp_ev = ev_code * R + np.searchsorted(ranks, ev_ts)
        order = np.argsort(comp_ev)
        comp_sorted = comp_ev[order]
        iv_code = codes[~is_ev]
        iv_t0, iv_t1 = t0[~is_ev], t1[~is_ev]
        lo = np.searchsorted(comp_sorted, iv_code * R + np.searchsorted(ranks, iv_t0), "left")
        hi = np.searchsorted(comp_sorted, iv_code * R + np.searchsorted(ranks, iv_t1), "right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        iv_idx = np.repeat(np.arange(len(iv_code), dtype=np.int64), counts)
        run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ev_pos = np.repeat(lo, counts) + np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        ev_orig = order[ev_pos]
        return pd.DataFrame(
            {
                "key": key[~is_ev][iv_idx],
                "start_us": iv_t0[iv_idx],
                "end_us": iv_t1[iv_idx],
                "event_id": ev_id[ev_orig],
                "ts_us": ev_ts[ev_orig],
            }
        )

    return coarse_group_apply(unioned, "key", per_partition)


def windowed_frame(
    events_ds,
    user_column: str = "user_id",
    ts_column: str = "ts",
    value_column: str = "value",
    preceding: int = 2,
):
    """SQL window-frame aggregates per partition key: running SUM and
    rolling AVG over `ROWS BETWEEN preceding PRECEDING AND CURRENT ROW`,
    ordered by (ts, event_id) within each user (the event_id tie-break makes
    the frame deterministic). Sums are exact int64 micro-units
    (`running_sum_u`) and the rolling average is ONE IEEE division of two
    exact integers (`rolling_avg_u`, micro-units) — no float accumulation
    order, no decimal rounding, so the value hash against SQL is bit-exact
    (round-half ties under a 4-decimal rounding would otherwise mismatch
    numpy's half-even vs SQL's half-away on ~0.5% of rows).

    Scale shape: ONE coarse exchange on hash(user) % P, then a single
    vectorized kernel per partition — lexsort, segment boundaries, global
    cumsum, and the frame sum as `cum[i] - cum[max(seg_start, i-preceding)
    - 1]`. No per-user pandas groups (the tiny-group collapse at millions
    of users), no sort of the whole dataset — order is only ever needed
    WITHIN a user, so a partition-local sort suffices.
    """
    from opentapioca_ray.stages.exchange import coarse_group_apply, segment_ids

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "running_sum_u": pd.Series(dtype=np.int64),
                "rolling_avg_u": pd.Series(dtype=np.float64),
            }
        )
        if df.empty or user_column not in df.columns:
            return empty
        user = df[user_column].to_numpy(dtype=np.int64)
        ts = df[ts_column].astype("datetime64[us]").astype("int64").to_numpy()
        eid = df["event_id"].to_numpy(dtype=np.int64)
        vals = df[value_column].to_numpy(dtype=np.float64)
        order = np.lexsort((eid, ts, user))
        user, eid, vals = user[order], eid[order], vals[order]
        # exact integer micro-units: float cumsum accumulates in a different
        # order than SQL's frame-order sum; int64 arithmetic is order-free
        vals_u = np.round(vals * 1_000_000).astype(np.int64)
        seg = segment_ids(user)
        seg_start = np.flatnonzero(
            np.concatenate(([True], seg[1:] != seg[:-1]))
        )[seg]
        pos = np.arange(len(user), dtype=np.int64)
        cum = np.concatenate(([0], np.cumsum(vals_u)))
        lo = np.maximum(seg_start, pos - preceding)
        frame_sum = cum[pos + 1] - cum[lo]
        frame_n = pos - lo + 1
        running = cum[pos + 1] - cum[seg_start]
        return pd.DataFrame(
            {
                "event_id": eid,
                "running_sum_u": running,
                "rolling_avg_u": frame_sum / frame_n,
            }
        )

    return coarse_group_apply(
        events_ds.select_columns([user_column, ts_column, "event_id", value_column]),
        user_column,
        per_partition,
    )


def grouped_sequence(
    events_ds,
    user_column: str = "user_id",
    ts_column: str = "ts",
    value_column: str = "event_type",
    sep: str = ",",
):
    """Ordered per-key sequence aggregation — SQL's
    `string_agg(value, sep ORDER BY ts, event_id) GROUP BY user` — without
    a global sort: ONE coarse exchange on hash(user) % P, then a vectorized
    kernel per partition (lexsort, segment boundaries, one Arrow
    `binary_join` over a ListArray built from segment offsets). Order is
    only ever needed WITHIN a user, so a partition-local sort suffices; no
    per-user pandas groups. Returns (user, seq, n_events)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                user_column: pd.Series(dtype=np.int64),
                "seq": pd.Series(dtype=object),
                "n_events": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or user_column not in df.columns:
            return empty
        user = df[user_column].to_numpy(dtype=np.int64)
        ts = df[ts_column].astype("datetime64[us]").astype("int64").to_numpy()
        eid = (
            df["event_id"].to_numpy(dtype=np.int64)
            if "event_id" in df
            else np.zeros(len(df), dtype=np.int64)
        )
        vals = df[value_column].astype(str).to_numpy()
        order = np.lexsort((eid, ts, user))
        user, vals = user[order], vals[order]
        new = np.concatenate(([True], user[1:] != user[:-1]))
        starts = np.flatnonzero(new)
        offsets = np.concatenate((starts, [len(user)])).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(vals, type=pa.string())
        )
        joined = pc.binary_join(lists, sep).to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                user_column: user[starts],
                "seq": joined,
                "n_events": np.diff(offsets).astype(np.int64),
            }
        )

    def select(batch: pa.Table) -> pa.Table:
        # event_id is optional: picked per batch, so the input's schema is
        # never fetched (a separate execution on a lazy dataset)
        cols = [user_column, ts_column, value_column, "event_id"]
        return batch.select([c for c in cols if c in batch.column_names])

    return coarse_group_apply(
        events_ds.map_batches(select, batch_format="pyarrow"),
        user_column,
        per_partition,
    )


def hopping_window_agg(
    events_ds,
    ts_column: str = "ts",
    key_column: str = "event_type",
    value_column: str = "value",
    window_us: int = 3_600_000_000,
    hop_us: int = 900_000_000,
):
    """Hopping (sliding) window aggregate: every event lands in
    window_us/hop_us overlapping windows; -> (window_start_us, key, n,
    total_e4) per window x key. `window_us` must be a multiple of `hop_us`.

    Scale shape: the k-fold replication happens inside the per-batch
    combiner (numpy tile + one Arrow group-by), so the exchange still moves
    only windowsxkeys partial rows per block, never k x events. Value sums
    are e4 micro-unit int64 (exact vs SQL)."""
    if window_us % hop_us != 0:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("window_start_us", pa.int64()), (key_column, pa.string()),
             ("n", pa.int64()), ("total_e4", pa.int64())]
        )
        if batch.num_rows == 0 or ts_column not in batch.column_names:
            return schema.empty_table()
        us = _ts_us(batch.column(ts_column)).to_numpy(zero_copy_only=False)
        v_e4 = np.round(
            batch.column(value_column).to_numpy(zero_copy_only=False) * 10_000.0
        ).astype(np.int64)
        keys = batch.column(key_column)
        base = (us // hop_us) * hop_us
        # event -> its k windows: starts base, base-hop, ..., base-(k-1)*hop
        starts = np.concatenate([base - j * hop_us for j in range(k)])
        rep_idx = pa.array(np.tile(np.arange(batch.num_rows), k))
        t = pa.table(
            {
                "window_start_us": pa.array(starts, type=pa.int64()),
                key_column: keys.take(rep_idx),
                "_v": pa.array(np.tile(v_e4, k)),
                "_one": pa.array(np.ones(batch.num_rows * k, dtype=np.int64)),
            }
        )
        g = t.group_by(["window_start_us", key_column]).aggregate(
            [("_one", "sum"), ("_v", "sum")]
        )
        return g.rename_columns(
            ["window_start_us", key_column, "n", "total_e4"]
        )

    partials = events_ds.map_batches(partial, batch_format="pyarrow")
    return coarse_groupby_agg(
        partials,
        ["window_start_us", key_column],
        {"n": ("n", "sum"), "total_e4": ("total_e4", "sum")},
    )


def group_ntile(
    ds,
    group_column: str,
    value_column: str,
    id_column: str,
    n_buckets: int = 4,
):
    """SQL `ntile(n) OVER (PARTITION BY group ORDER BY value, id)` — equal
    rank buckets per group, first (size % n) buckets one row larger, the
    id column as the deterministic tie-break. One coarse exchange on the
    group key + a vectorized segment rank kernel; no per-group pandas."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def ntile_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    group_column: pd.Series(dtype=object),
                    "bucket": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy()
        val = df[value_column].to_numpy()
        rid = df[id_column].to_numpy(dtype=np.int64)
        order = np.lexsort((rid, val, g))
        g_s, rid_s = g[order], rid[order]
        new = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        sizes = np.diff(np.concatenate((starts, [len(g_s)])))
        rank = np.arange(len(g_s)) - starts[seg]
        n = sizes[seg]
        q, r = n // n_buckets, n % n_buckets
        big = (q + 1) * r
        bucket = np.where(
            rank < big,
            rank // np.maximum(q + 1, 1),
            r + (rank - big) // np.maximum(q, 1),
        ) + 1
        return pd.DataFrame(
            {
                id_column: rid_s,
                group_column: g_s,
                "bucket": bucket.astype(np.int64),
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, value_column, id_column]),
        group_column,
        ntile_partition,
    )


def group_lag_delta(
    ds,
    group_column: str = "user_id",
    order_column: str = "ts",
    value_column: str = "value",
    id_column: str = "event_id",
):
    """SQL `value - lag(value) OVER (PARTITION BY group ORDER BY order, id)`
    in exact int64 micro-units (e4): per-row delta to the previous row of
    the same group. Rows with no predecessor (each group's first) are
    DROPPED rather than emitted as NULL, so the output is a dense integer
    column on both engines. One coarse exchange on the group key + a
    vectorized shift kernel — order is only needed WITHIN a group, so no
    global sort."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def delta_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    group_column: pd.Series(dtype=np.int64),
                    "delta_e4": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy(dtype=np.int64)
        o = df[order_column].astype("datetime64[us]").astype("int64").to_numpy()
        rid = df[id_column].to_numpy(dtype=np.int64)
        v = np.round(df[value_column].to_numpy() * 10_000.0).astype(np.int64)
        order = np.lexsort((rid, o, g))
        g_s, rid_s, v_s = g[order], rid[order], v[order]
        delta = np.empty(len(v_s), dtype=np.int64)
        delta[1:] = v_s[1:] - v_s[:-1]
        delta[0] = 0
        first = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        keep = ~first
        return pd.DataFrame(
            {
                id_column: rid_s[keep],
                group_column: g_s[keep],
                "delta_e4": delta[keep],
            }
        )

    return coarse_group_apply(
        ds.select_columns(
            [group_column, order_column, value_column, id_column]
        ),
        group_column,
        delta_partition,
    )


def ratio_to_report(
    ds,
    group_column: str,
    value_column: str,
    id_column: str,
):
    """SQL ratio-to-report: each row's share of its group's total —
    emitted as exact integers (value_e4, group_total_e4, share_ppm =
    value_e4 * 1e6 // total_e4) so the division is bit-deterministic.
    Group totals come from the combiner aggregate and ride back as a
    broadcast lookup; the fact rows never shuffle."""
    import pyarrow.compute as pc
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count

    def to_units(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or value_column not in batch.column_names:
            return batch
        v_e4 = pc.cast(
            pc.round(pc.multiply(batch.column(value_column), 10_000.0), 0),
            pa.int64(),
        )
        return pa.table(
            {
                id_column: batch.column(id_column),
                group_column: batch.column(group_column),
                "value_e4": v_e4,
            }
        )

    units = ds.map_batches(to_units, batch_format="pyarrow").materialize()
    totals = partial_sum_count(units, group_column, ["value_e4"])
    tbl = pa.concat_tables(
        [t for t in arrow_blocks(totals) if t.num_rows]
    )
    keys = tbl.column(group_column).to_numpy(zero_copy_only=False)
    sums = tbl.column("sum_value_e4").to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(keys)
    state_ref = ray.put((keys[o], sums[o]))

    def attach(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "value_e4" not in batch.column_names:
            return batch
        ks, ss = ray.get(state_ref)
        g = batch.column(group_column).to_numpy(zero_copy_only=False)
        tot = ss[np.searchsorted(ks, g)]
        v = batch.column("value_e4").to_numpy(zero_copy_only=False)
        share = np.where(tot != 0, v * 1_000_000 // np.where(tot == 0, 1, tot), 0)
        return batch.append_column(
            "group_total_e4", pa.array(tot)
        ).append_column("share_ppm", pa.array(share.astype(np.int64)))

    return units.map_batches(attach, batch_format="pyarrow")


def group_transition_counts(
    ds,
    group_column: str = "user_id",
    order_column: str = "ts",
    type_column: str = "event_type",
    id_column: str = "event_id",
):
    """Markov transition counts: how often `type_column` value A is
    immediately followed by value B within a group's (order, id)-ordered
    sequence, summed over ALL groups. SQL twin: LAG(type) OVER (PARTITION
    BY group ORDER BY order, id) then GROUP BY (prev, next).

    Scale shape: one coarse exchange on the group key (order matters only
    within a group — no global sort); each partition reduces its rows to at
    most |types|^2 partial-count rows with a vectorized shift kernel, so
    the final exchange moves O(P x |types|^2), never O(rows)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    def transitions_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series(dtype=object),
                    "next_type": pd.Series(dtype=object),
                    "_pn": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy(dtype=np.int64)
        o = df[order_column].astype("datetime64[us]").astype("int64").to_numpy()
        rid = df[id_column].to_numpy(dtype=np.int64)
        t_codes, t_uniques = pd.factorize(df[type_column], sort=True)
        order = np.lexsort((rid, o, g))
        g_s, t_s = g[order], t_codes[order]
        same = g_s[1:] == g_s[:-1]
        prev_c, next_c = t_s[:-1][same], t_s[1:][same]
        if len(prev_c) == 0:
            return pd.DataFrame(
                {
                    "prev_type": pd.Series(dtype=object),
                    "next_type": pd.Series(dtype=object),
                    "_pn": pd.Series(dtype=np.int64),
                }
            )
        k = len(t_uniques)
        counts = np.bincount(prev_c * k + next_c, minlength=k * k)
        nz = np.flatnonzero(counts)
        return pd.DataFrame(
            {
                "prev_type": t_uniques.take(nz // k),
                "next_type": t_uniques.take(nz % k),
                "_pn": counts[nz].astype(np.int64),
            }
        )

    partials = coarse_group_apply(
        ds.select_columns([group_column, order_column, type_column, id_column]),
        group_column,
        transitions_partition,
    )
    return coarse_groupby_agg(
        partials, ["prev_type", "next_type"], {"n": ("_pn", "sum")}
    )


def interarrival_stats(
    ds,
    group_column: str = "user_id",
    order_column: str = "ts",
    id_column: str = "event_id",
):
    """Per-group inter-arrival-time summary over the (order, id)-ordered
    event sequence: number of gaps, total gap, and max gap — all in exact
    int64 microseconds so the SQL twin hashes bit-for-bit. Groups with a
    single event (no gap) are dropped, keeping every output column dense.

    One coarse exchange on the group key; each partition sorts once and
    reduces every group it holds with contiguous-segment numpy ops (no
    per-group pandas objects)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def gaps_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                group_column: pd.Series(dtype=np.int64),
                "n_gaps": pd.Series(dtype=np.int64),
                "sum_gap_us": pd.Series(dtype=np.int64),
                "max_gap_us": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or group_column not in df.columns:
            return empty
        g = df[group_column].to_numpy(dtype=np.int64)
        o = df[order_column].astype("datetime64[us]").astype("int64").to_numpy()
        rid = df[id_column].to_numpy(dtype=np.int64)
        order = np.lexsort((rid, o, g))
        g_s, o_s = g[order], o[order]
        same = np.concatenate(([False], g_s[1:] == g_s[:-1]))
        gap = np.empty(len(o_s), dtype=np.int64)
        gap[1:] = o_s[1:] - o_s[:-1]
        gap[0] = 0
        # contiguous segments: one row per group present in this partition
        new = ~same
        seg = np.cumsum(new) - 1
        n_seg = seg[-1] + 1 if len(seg) else 0
        n_gaps = np.bincount(seg, weights=same.astype(np.int64), minlength=n_seg)
        keep_gap = np.where(same, gap, 0)
        sum_gap = np.bincount(seg, weights=keep_gap, minlength=n_seg)
        max_gap = np.full(n_seg, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(max_gap, seg[same], gap[same])
        has = n_gaps > 0
        if not has.any():
            return empty
        return pd.DataFrame(
            {
                group_column: g_s[np.flatnonzero(new)][has],
                "n_gaps": n_gaps[has].astype(np.int64),
                "sum_gap_us": sum_gap[has].astype(np.int64),
                "max_gap_us": max_gap[has],
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, order_column, id_column]),
        group_column,
        gaps_partition,
    )


def activity_streaks(
    ds,
    group_column: str = "user_id",
    ts_column: str = "ts",
    day_us: int = 86_400_000_000,
):
    """Gaps-and-islands: per group, the count of distinct active days, the
    number of maximal consecutive-day runs (streaks), and the longest run.
    SQL twin: the classic `day - row_number() OVER (...)` island trick.

    Shape: per-batch distinct (group, day) partials shrink the exchange,
    one coarse exchange on the group key, then a single sorted-segment
    numpy kernel per partition handles every group it holds (global
    dedup is safe because all rows of a group co-locate)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def day_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return pa.schema(
                [
                    pa.field(group_column, pa.int64()),
                    pa.field("day", pa.int64()),
                ]
            ).empty_table()
        day = pc.divide(
            _ts_us(batch.column(ts_column)), pa.scalar(day_us, pa.int64())
        )
        t = pa.table(
            {group_column: batch.column(group_column), "day": day}
        )
        return t.group_by([group_column, "day"]).aggregate([])

    rows = ds.select_columns([group_column, ts_column]).map_batches(
        day_partial, batch_format="pyarrow"
    )

    def streak_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                group_column: pd.Series(dtype=np.int64),
                "n_active_days": pd.Series(dtype=np.int64),
                "n_streaks": pd.Series(dtype=np.int64),
                "longest_streak": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or group_column not in df.columns:
            return empty
        df = df.drop_duplicates([group_column, "day"])
        g = df[group_column].to_numpy(dtype=np.int64)
        d = df["day"].to_numpy(dtype=np.int64)
        order = np.lexsort((d, g))
        g_s, d_s = g[order], d[order]
        new_group = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        consec = np.empty(len(d_s), dtype=bool)
        consec[0] = False
        consec[1:] = (d_s[1:] == d_s[:-1] + 1) & ~new_group[1:]
        new_island = ~consec
        island = np.cumsum(new_island) - 1
        n_islands = island[-1] + 1
        island_len = np.bincount(island, minlength=n_islands).astype(np.int64)
        # one group-index per island (islands never span groups)
        grp_seg = np.cumsum(new_group) - 1
        island_grp = grp_seg[np.flatnonzero(new_island)]
        n_groups = grp_seg[-1] + 1
        n_days = np.bincount(grp_seg, minlength=n_groups).astype(np.int64)
        n_streaks = np.bincount(island_grp, minlength=n_groups).astype(np.int64)
        longest = np.zeros(n_groups, dtype=np.int64)
        np.maximum.at(longest, island_grp, island_len)
        return pd.DataFrame(
            {
                group_column: g_s[np.flatnonzero(new_group)],
                "n_active_days": n_days,
                "n_streaks": n_streaks,
                "longest_streak": longest,
            }
        )

    return coarse_group_apply(rows, group_column, streak_partition)


def group_rank(
    ds,
    group_column: str = "event_type",
    value_column: str = "value",
    id_column: str = "event_id",
    descending: bool = True,
    scale: int = 10_000,
):
    """SQL RANK() with tie semantics: within each group, rows ordered by
    value (desc by default, compared in exact `1/scale` integer units so
    both engines agree on every tie) get rank = 1 + number of strictly
    better rows; ties share a rank and the next rank skips.

    One coarse exchange on the group key; each partition ranks all its
    groups with a sorted-segment kernel (rank of a row = index of the
    first row with its (group, value), relative to the group start)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    group_column: pd.Series(dtype=object),
                    "value_units": pd.Series(dtype=np.int64),
                    "rnk": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy()
        v = np.round(df[value_column].to_numpy() * float(scale)).astype(np.int64)
        rid = df[id_column].to_numpy(dtype=np.int64)
        sort_v = -v if descending else v
        order = np.lexsort((rid, sort_v, g))
        g_s, v_s, rid_s = g[order], v[order], rid[order]
        new_group = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        new_val = new_group | np.concatenate(([True], v_s[1:] != v_s[:-1]))
        pos = np.arange(len(g_s), dtype=np.int64)
        group_start = np.maximum.accumulate(np.where(new_group, pos, 0))
        val_start = np.maximum.accumulate(np.where(new_val, pos, 0))
        rnk = val_start - group_start + 1
        return pd.DataFrame(
            {
                id_column: rid_s,
                group_column: g_s,
                "value_units": v_s,
                "rnk": rnk,
            }
        )

    return coarse_group_apply(
        ds.select_columns([id_column, group_column, value_column]),
        group_column,
        rank_partition,
    )


def global_order_index(
    ds,
    value_column: str = "value",
    id_column: str = "event_id",
    scale: int = 10_000,
):
    """Global curriculum ordering: row_number() OVER (ORDER BY value, id)
    across the WHOLE dataset, without a global sort. Two slim passes:
    (1) a combiner histogram of the value (in exact `1/scale` int64
    units) whose cumulative counts are broadcast once via ray.put,
    (2) one coarse exchange on the value key; each partition ranks its
    tied rows by id and adds the broadcast count-below offset.

    Partitioning assumption: the VALUE column has bounded cardinality
    (scores, grades, quantized metrics — the broadcast table is
    O(|distinct values|), not O(rows)); ids within one value co-locate
    because the exchange hashes the value."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def to_units(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or value_column not in batch.column_names:
            return pa.schema(
                [pa.field(id_column, pa.int64()), pa.field("v_units", pa.int64())]
            ).empty_table()
        v = np.round(
            batch.column(value_column).to_numpy(zero_copy_only=False)
            * float(scale)
        ).astype(np.int64)
        return pa.table(
            {id_column: batch.column(id_column), "v_units": pa.array(v)}
        )

    units = ds.select_columns([id_column, value_column]).map_batches(
        to_units, batch_format="pyarrow"
    ).materialize()
    hist = partial_sum_count(units.select_columns(["v_units"]), "v_units", [])
    tables = [
        t
        for t in arrow_blocks(hist)
        if t.num_rows and "v_units" in t.column_names
    ]
    if not tables:
        return units.map_batches(
            lambda b: pa.schema(
                [
                    pa.field(id_column, pa.int64()),
                    pa.field("v_units", pa.int64()),
                    pa.field("row_idx", pa.int64()),
                ]
            ).empty_table(),
            batch_format="pyarrow",
        )
    ht = pa.concat_tables(tables)
    vals = ht.column("v_units").to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = ht.column("count").to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(vals, kind="mergesort")
    vals, cnts = vals[o], cnts[o]
    below = np.concatenate(([0], np.cumsum(cnts)[:-1]))
    state_ref = ray.put((vals, below))

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "v_units" not in df.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    "v_units": pd.Series(dtype=np.int64),
                    "row_idx": pd.Series(dtype=np.int64),
                }
            )
        sorted_vals, below_arr = ray.get(state_ref)
        v = df["v_units"].to_numpy(dtype=np.int64)
        rid = df[id_column].to_numpy(dtype=np.int64)
        order = np.lexsort((rid, v))
        v_s, rid_s = v[order], rid[order]
        new = np.concatenate(([True], v_s[1:] != v_s[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        within = np.arange(len(v_s), dtype=np.int64) - starts[seg]
        offs = below_arr[np.searchsorted(sorted_vals, v_s)]
        return pd.DataFrame(
            {
                id_column: rid_s,
                "v_units": v_s,
                "row_idx": offs + within + 1,
            }
        )

    return coarse_group_apply(units, "v_units", rank_partition)


def state_intervals(
    ds,
    key_column: str = "user_id",
    ts_column: str = "ts",
    state_column: str = "event_type",
    id_column: str = "event_id",
):
    """Gaps-and-islands state history (SCD2-style interval compaction):
    per key, order rows by (ts, id) and collapse CONSECUTIVE runs of the
    same state into one interval row
    (key, state, start_us, end_us, n_rows). The SQL twin is the classic
    LAG -> running-sum island id -> GROUP BY.

    ONE coarse exchange on the key; the partition kernel sorts once and
    reduces ALL its keys' islands with contiguous-segment numpy ops
    (no per-key groups). Timestamps compare as exact int64 epoch-us."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def island_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                key_column: pd.Series(dtype=np.int64),
                "state": pd.Series(dtype=object),
                "start_us": pd.Series(dtype=np.int64),
                "end_us": pd.Series(dtype=np.int64),
                "n_rows": pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        keys = df[key_column].to_numpy(dtype=np.int64)
        tus = df[ts_column].to_numpy(dtype="datetime64[us]").astype(np.int64)
        ids = df[id_column].to_numpy(dtype=np.int64)
        states = df[state_column].to_numpy()
        _, scodes = np.unique(states, return_inverse=True)
        order = np.lexsort((ids, tus, keys))
        keys, tus, scodes = keys[order], tus[order], scodes[order]
        states = states[order]
        brk = np.concatenate(
            ([True], (keys[1:] != keys[:-1]) | (scodes[1:] != scodes[:-1]))
        )
        starts = np.flatnonzero(brk)
        ends = np.concatenate((starts[1:], [len(keys)]))
        return pd.DataFrame(
            {
                key_column: keys[starts],
                "state": states[starts],
                "start_us": tus[starts],
                "end_us": tus[ends - 1],
                "n_rows": (ends - starts).astype(np.int64),
            }
        )

    slim = ds.select_columns([key_column, ts_column, state_column, id_column])
    return coarse_group_apply(slim, key_column, island_partition)


def late_event_counts(
    ds,
    order_column: str = "event_id",
    ts_column: str = "ts",
    group_column: str = "event_type",
    allowed_lateness_us: int = 30 * 60 * 1_000_000,
    n_parts: int | None = None,
):
    """Streaming watermark accounting: an event is LATE when its event
    time trails the running maximum event time of all PRIOR arrivals
    (arrival order = `order_column`) by more than `allowed_lateness_us`
    — exactly `ts < MAX(ts) OVER (ORDER BY order ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING) - lateness`, the discard rule a windowed
    streaming engine applies at ingest. Output: (group, n_events,
    n_late), all integers.

    Scale shape: the global ordered prefix-max decomposes — ONE range
    exchange on sampled `order_column` boundaries, a vectorized prefix
    max inside each ordered partition, and an O(n_parts) driver combine
    of per-partition maxima whose running max is re-broadcast as each
    partition's carry-in (the same two-pass recipe as `roc_auc`'s
    range-partitioned prefix). Nothing row-proportional touches the
    driver."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        default_n_parts,
        right_size,
    )

    slim_schema = pa.schema(
        [
            ("o", pa.int64()),
            ("t", pa.int64()),
            ("g", pa.string()),
        ]
    )

    def slim(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or order_column not in batch.column_names:
            return slim_schema.empty_table()
        return pa.table(
            {
                "o": batch.column(order_column).cast(pa.int64()),
                "t": _ts_us(batch.column(ts_column).combine_chunks()),
                "g": batch.column(group_column).cast(pa.string()),
            }
        )

    rows = right_size(
        ds.select_columns([order_column, ts_column, group_column])
        .map_batches(slim, batch_format="pyarrow")
        .materialize()
    )
    n_rows = rows.count()
    n_parts_eff = min(
        default_n_parts(n_parts), max(1, (n_rows + 65_535) // 65_536)
    )

    # sampled order-boundaries (deterministic md5-hash pick, like roc_auc)
    bounds = None
    if n_parts_eff > 1:
        import pandas as pd_

        target = max(n_parts_eff * 64, 2048)
        prob_mod = max(1, n_rows // target)

        def pick(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "o" not in batch.column_names:
                return pa.schema([("o", pa.int64())]).empty_table()
            o = batch.column("o").to_numpy(zero_copy_only=False)
            keep = (
                pd_.util.hash_array(
                    o.astype(np.int64), hash_key="opentapioca_ray0"
                )
                % np.uint64(prob_mod)
            ) == 0
            return pa.table({"o": pa.array(o[keep])})

        sampled = []
        for t in arrow_blocks(rows.select_columns(["o"]).map_batches(
            pick, batch_format="pyarrow"
        )):
            if t.num_rows and "o" in t.column_names:
                sampled.append(t.column("o").to_numpy(zero_copy_only=False))
        if sampled:
            k = np.sort(np.concatenate(sampled))
            pos = (np.arange(1, n_parts_eff) * len(k)) // n_parts_eff
            pos = np.unique(pos[(pos > 0) & (pos < len(k))])
            if len(pos):
                bounds = np.unique(k[pos])

    def add_pid(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "o" not in batch.column_names:
            return pa.schema(
                [*zip(slim_schema.names, slim_schema.types), ("pid", pa.int64())]
            ).empty_table()
        o = batch.column("o").to_numpy(zero_copy_only=False)
        pid = (
            np.searchsorted(bounds, o, side="right").astype(np.int64)
            if bounds is not None
            else np.zeros(len(o), dtype=np.int64)
        )
        return batch.append_column("pid", pa.array(pid))

    parted = right_size(
        rows.map_batches(add_pid, batch_format="pyarrow").materialize()
    )

    # pass 1: per-pid max event time -> running-max carry-ins (O(P) driver)
    def pid_partials(b: pa.Table) -> pa.Table:
        schema = pa.schema([("pid", pa.int64()), ("mx", pa.int64())])
        if b.num_rows == 0 or "pid" not in b.column_names:
            return schema.empty_table()
        pid = b.column("pid").to_numpy(zero_copy_only=False).astype(np.int64)
        t = b.column("t").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(pid, return_inverse=True)
        mx = np.full(len(uniq), -(1 << 62), dtype=np.int64)
        np.maximum.at(mx, inv, t)
        return pa.table({"pid": pa.array(uniq), "mx": pa.array(mx)})

    pid_max: dict[int, int] = {}
    for t in arrow_blocks(parted.map_batches(
        pid_partials, batch_format="pyarrow"
    )):
        if t.num_rows == 0 or "pid" not in t.column_names:
            continue
        for p, m in zip(
            t.column("pid").to_numpy(zero_copy_only=False),
            t.column("mx").to_numpy(zero_copy_only=False),
        ):
            p = int(p)
            pid_max[p] = max(pid_max.get(p, -(1 << 62)), int(m))
    carry = np.full(n_parts_eff + 1, -(1 << 62), dtype=np.int64)
    run = -(1 << 62)
    for p in range(n_parts_eff + 1):
        carry[p] = run
        run = max(run, pid_max.get(p, -(1 << 62)))
    carry_ref = ray.put(carry)

    # pass 2: ordered prefix max within each pid + the carry-in
    def flag_partition(df) -> "pa.Table":
        out_schema = pa.schema([("g", pa.string()), ("late", pa.int64())])
        if df.empty or "o" not in df.columns:
            return out_schema.empty_table()
        cr = ray.get(carry_ref)
        o = df["o"].to_numpy(dtype=np.int64)
        t = df["t"].to_numpy(dtype=np.int64)
        g = df["g"].to_numpy()
        pid = df["pid"].to_numpy(dtype=np.int64)
        order = np.lexsort((o, pid))
        o, t, g, pid = o[order], t[order], g[order], pid[order]
        new = np.concatenate(([True], pid[1:] != pid[:-1]))
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [len(t)]))
        seg_carry = cr[np.clip(pid[starts], 0, len(cr) - 1)]
        # per-SEGMENT loop (segments = pids hosted here, n_parts-bounded —
        # never a per-row loop): ordered prefix max with the carry-in of
        # all earlier partitions as each segment's seed
        pmax = np.empty(len(t), dtype=np.int64)
        for s_i, e_i, c_in in zip(starts, ends, seg_carry):
            seg_t = t[s_i:e_i]
            pr = np.concatenate(([c_in], np.maximum.accumulate(seg_t)[:-1]))
            pmax[s_i:e_i] = np.maximum(pr, c_in)
        late = (t < pmax - allowed_lateness_us) & (pmax > -(1 << 61))
        import pandas as pd__

        return pa.Table.from_pandas(
            pd__.DataFrame({"g": g, "late": late.astype(np.int64)}),
            preserve_index=False,
        ).cast(out_schema)

    flagged = coarse_group_apply(
        parted, "pid", flag_partition, n_parts=n_parts_eff,
        batch_format="pandas",
    )
    return partial_sum_count(
        flagged, "g", ["late"], alias={"late": "n_late", "count": "n_events"}
    )


def cusum_stats(
    events_ds,
    drift_c: int,
    alarm_c: int,
    group_column: str = "user_id",
    ts_column: str = "ts",
    id_column: str = "event_id",
    value_column: str = "value",
    n_parts: int | None = None,
):
    """One-sided CUSUM drift detection per group — the classic streaming
    change-point statistic S_i = max(0, S_{i-1} + (x_i - k)), computed
    EXACTLY in centi-units without sequential recursion via the identity
    S_i = C_i - min(0, min_{j<=i} C_j) with C the running sum of
    (x - k). That identity is also what makes the SQL twin a plain
    nested-window query instead of a recursive CTE.

    Returns one row per group: (group, n_alarms, max_stat_c, n_events)
    where n_alarms counts events whose statistic reached `alarm_c`.
    Ordering inside a group is (ts, id) so timestamp peers are
    deterministic. One coarse exchange on the group key; per-partition
    work is a lexsort + segmented cumsum/cummin (pandas C kernels)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def to_units(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("g", pa.int64()),
                ("t", pa.int64()),
                ("i", pa.int64()),
                ("y", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or ts_column not in batch.column_names:
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
                "y": pa.array(c - np.int64(drift_c)),
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            group_column: pd.Series(dtype=np.int64),
            "n_alarms": pd.Series(dtype=np.int64),
            "max_stat_c": pd.Series(dtype=np.int64),
            "n_events": pd.Series(dtype=np.int64),
        }
        if df.empty or "g" not in df.columns:
            return pd.DataFrame(cols)
        df = df.sort_values(["g", "t", "i"], kind="mergesort")
        g = df["g"].to_numpy(dtype=np.int64)
        y = df["y"].to_numpy(dtype=np.int64)
        new = np.concatenate(([True], g[1:] != g[:-1]))
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        cum = np.cumsum(y)
        base = np.concatenate((np.zeros(1, dtype=np.int64), cum[starts[1:] - 1]))
        cum_in = cum - base[seg]
        run_min = pd.Series(cum_in).groupby(seg).cummin().to_numpy()
        stat = cum_in - np.minimum(0, run_min)
        alarms = (stat >= np.int64(alarm_c)).astype(np.int64)
        n_seg = len(starts)
        return pd.DataFrame(
            {
                group_column: g[starts],
                "n_alarms": np.bincount(seg, weights=alarms, minlength=n_seg).astype(
                    np.int64
                ),
                "max_stat_c": pd.Series(stat).groupby(seg).max().to_numpy(
                    dtype=np.int64
                ),
                "n_events": np.diff(
                    np.concatenate((starts, [len(g)]))
                ).astype(np.int64),
            }
        )

    units = events_ds.map_batches(to_units, batch_format="pyarrow")
    return coarse_group_apply(units, "g", kernel, n_parts=n_parts)


def ewma_trailing(
    events_ds,
    taps: int = 16,
    group_column: str = "user_id",
    ts_column: str = "ts",
    id_column: str = "event_id",
    value_column: str = "value",
    n_parts: int | None = None,
):
    """Exponentially-weighted trailing average (alpha = 1/2) per group,
    EXACT: the EWMA recursion truncated at `taps` lags has weights
    2^-(lag) whose common denominator is 2^taps, so the numerator
    sum(c_j * 2^(taps - lag)) is plain int64 arithmetic — no float
    accumulation order to diverge from the SQL twin. Returns one row per
    event: (event_id, ewma_num) with ewma_num in centi-units * 2^taps.

    One coarse exchange on the group key; the per-partition kernel is a
    lexsort + `taps`+1 segment-masked shifted adds (vectorized numpy),
    not a per-row loop."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def to_units(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("g", pa.int64()),
                ("t", pa.int64()),
                ("i", pa.int64()),
                ("c", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or ts_column not in batch.column_names:
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
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            id_column: pd.Series(dtype=np.int64),
            "ewma_num": pd.Series(dtype=np.int64),
        }
        if df.empty or "g" not in df.columns:
            return pd.DataFrame(cols)
        df = df.sort_values(["g", "t", "i"], kind="mergesort")
        g = df["g"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        ids = df["i"].to_numpy(dtype=np.int64)
        n = len(g)
        out = np.zeros(n, dtype=np.int64)
        for lag in range(taps + 1):
            w = np.int64(1) << np.int64(taps - lag)
            if lag == 0:
                out += c * w
                continue
            same = g[lag:] == g[:-lag]  # stay inside the logical group
            out[lag:] += np.where(same, c[:-lag], 0) * w
        return pd.DataFrame({id_column: ids, "ewma_num": out})

    units = events_ds.map_batches(to_units, batch_format="pyarrow")
    return coarse_group_apply(units, "g", kernel, n_parts=n_parts)


def time_weighted_value(
    events_ds,
    group_column: str = "user_id",
    ts_column: str = "ts",
    id_column: str = "event_id",
    value_column: str = "value",
    n_parts: int | None = None,
):
    """Time-weighted value integral per group — the metering/billing
    primitive: treat each group's value as a step function that holds
    from one event until the next, and integrate it over the group's
    observed span. Exact int64: value in centi-units x holding time in
    SECONDS (weighted_sum_cs), plus the span. The mean height is
    weighted_sum_cs / span_s — left to the consumer so the row stays
    pure integers.

    One coarse exchange on the group key; per-partition lexsort +
    segment-shifted differences (no per-row loop). Timestamp peers order
    by id; the last event of a group holds for zero time (right-open
    convention, matching SQL's LEAD)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def to_units(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("g", pa.int64()),
                ("t", pa.int64()),
                ("i", pa.int64()),
                ("c", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or ts_column not in batch.column_names:
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
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            group_column: pd.Series(dtype=np.int64),
            "weighted_sum_cs": pd.Series(dtype=np.int64),
            "span_s": pd.Series(dtype=np.int64),
            "n_events": pd.Series(dtype=np.int64),
        }
        if df.empty or "g" not in df.columns:
            return pd.DataFrame(cols)
        df = df.sort_values(["g", "t", "i"], kind="mergesort")
        g = df["g"].to_numpy(dtype=np.int64)
        t_s = df["t"].to_numpy(dtype=np.int64) // 1_000_000
        c = df["c"].to_numpy(dtype=np.int64)
        n = len(g)
        same_next = np.zeros(n, dtype=bool)
        same_next[:-1] = g[1:] == g[:-1]
        hold = np.zeros(n, dtype=np.int64)
        hold[:-1] = np.where(same_next[:-1], t_s[1:] - t_s[:-1], 0)
        new = np.concatenate(([True], g[1:] != g[:-1]))
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        n_seg = len(starts)
        ends = np.concatenate((starts[1:], [n])) - 1
        return pd.DataFrame(
            {
                group_column: g[starts],
                "weighted_sum_cs": np.bincount(
                    seg, weights=c * hold, minlength=n_seg
                ).astype(np.int64),
                "span_s": (t_s[ends] - t_s[starts]).astype(np.int64),
                "n_events": np.diff(
                    np.concatenate((starts, [n]))
                ).astype(np.int64),
            }
        )

    units = events_ds.map_batches(to_units, batch_format="pyarrow")
    return coarse_group_apply(units, "g", kernel, n_parts=n_parts)


def peak_concurrency(
    intervals_ds,
    start_column: str = "start_us",
    end_column: str = "end_us",
    day_us: int = 86_400_000_000,
    n_parts=None,
):
    """Per-day PEAK number of concurrently-open intervals — the classic
    sweep-line max, distributed as a two-phase segmented scan: intervals
    become (+1 at start, -1 at end+1) deltas keyed by day; each day
    partition reduces to THREE numbers (net delta, max within-day prefix
    from zero, its day id); the driver then runs the carry recursion over
    the O(#days) partials — bounded state, like the FS histogram. Days an
    interval merely spans (no deltas) still appear: their peak is the
    carry. Endpoints are inclusive (an interval covers [start, end])."""
    import ray

    delta_schema = pa.schema(
        [("day", pa.int64()), ("us", pa.int64()), ("delta", pa.int64())]
    )

    def deltas(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or start_column not in batch.column_names:
            return delta_schema.empty_table()
        s = batch.column(start_column).to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch.column(end_column).to_numpy(zero_copy_only=False).astype(np.int64) + 1
        us = np.concatenate([s, e])
        d = np.concatenate(
            [np.ones(len(s), dtype=np.int64), -np.ones(len(e), dtype=np.int64)]
        )
        return pa.table(
            {
                "day": pa.array(us // day_us),
                "us": pa.array(us),
                "delta": pa.array(d),
            }
        )

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "day": pd.Series(dtype=np.int64),
                "total": pd.Series(dtype=np.int64),
                "max_prefix": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "day" not in df.columns:
            return empty
        g = df.groupby(["day", "us"], sort=True)["delta"].sum().reset_index()
        day = g["day"].to_numpy(dtype=np.int64)
        delta = g["delta"].to_numpy(dtype=np.int64)
        run = np.cumsum(delta)
        first = np.concatenate(([True], day[1:] != day[:-1]))
        seg = np.cumsum(first) - 1
        # per-day prefix = partition-run minus the run before the day
        day_start_run = run[np.flatnonzero(first)] - delta[np.flatnonzero(first)]
        prefix = run - day_start_run[seg]
        out = pd.DataFrame({"day": day, "prefix": prefix, "delta": delta})
        agg = out.groupby("day", sort=True).agg(
            total=("delta", "sum"), max_prefix=("prefix", "max")
        )
        return agg.reset_index()

    partials = coarse_group_apply(
        intervals_ds.map_batches(deltas, batch_format="pyarrow"),
        "day",
        day_partial,
        n_parts=n_parts,
    ).to_pandas()  # O(#days) rows
    if partials.empty:
        return pd.DataFrame(
            {"day": pd.Series(dtype=np.int64), "peak": pd.Series(dtype=np.int64)}
        )
    partials = partials.sort_values("day").reset_index(drop=True)
    lo, hi = int(partials["day"].iloc[0]), int(partials["day"].iloc[-1])
    days = np.arange(lo, hi + 1, dtype=np.int64)
    total = np.zeros(len(days), dtype=np.int64)
    maxp = np.full(len(days), np.iinfo(np.int64).min, dtype=np.int64)
    idx = partials["day"].to_numpy(dtype=np.int64) - lo
    total[idx] = partials["total"].to_numpy(dtype=np.int64)
    maxp[idx] = partials["max_prefix"].to_numpy(dtype=np.int64)
    carry = np.concatenate(([0], np.cumsum(total)[:-1]))
    peak = np.maximum(carry, carry + np.where(maxp == np.iinfo(np.int64).min, 0, maxp))
    return pd.DataFrame({"day": days, "peak": peak})


def interval_union_per_key(
    intervals_ds,
    key_column: str,
    start_column: str,
    end_column: str,
    n_parts=None,
):
    """Total covered length of the UNION of (possibly overlapping,
    variable-length) intervals per key — the gaps-and-islands operator:
    sort each key's intervals by (start, end); an interval starts a new
    island iff its start exceeds the running max end; each island's
    coverage is contiguous, so the union length is sum(island max end -
    island min start). One coarse exchange on the key; the kernel is
    pandas C-level groupby cummax + segment sums (no per-row Python).
    Returns (key, covered, n_islands)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                key_column: pd.Series(dtype=np.int64),
                "covered": pd.Series(dtype=np.int64),
                "n_islands": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or key_column not in df.columns:
            return empty
        k = df[key_column].to_numpy(dtype=np.int64)
        s = df[start_column].to_numpy(dtype=np.int64)
        e = df[end_column].to_numpy(dtype=np.int64)
        order = np.lexsort((e, s, k))
        k, s, e = k[order], s[order], e[order]
        g = pd.DataFrame({"k": k, "e": e})
        run_max = g.groupby("k", sort=False)["e"].cummax().to_numpy()
        first = np.concatenate(([True], k[1:] != k[:-1]))
        prev_max = np.concatenate(([0], run_max[:-1]))
        new_island = first | (s > prev_max)
        isl_start = s[new_island]
        isl_end = np.maximum.reduceat(e, np.flatnonzero(new_island))
        isl_key = k[new_island]
        out = pd.DataFrame(
            {
                key_column: isl_key,
                "len": isl_end - isl_start,
            }
        )
        agg = out.groupby(key_column, sort=False).agg(
            covered=("len", "sum"), n_islands=("len", "size")
        )
        return agg.reset_index()

    return coarse_group_apply(intervals_ds, key_column, kernel, n_parts=n_parts)


def next_greater_event(
    events_ds,
    key_column: str = "user_id",
    order_columns: tuple = ("us", "event_id"),
    value_column: str = "value_e4",
    n_parts=None,
):
    """For every event, the time until the SAME key's next event with a
    strictly greater value (time-to-exceed; -1 if none follows). The
    classic monotone-stack problem, but a stack scan is sequential — the
    kernel instead answers ALL rows at once with a sparse-table binary
    descent: log2(n) max-over-2^k window tables (vectorized
    np.maximum.accumulate shifts), then a vectorized descent that
    advances every query past windows whose max cannot exceed its value.
    +inf sentinel walls between key segments stop the descent at key
    boundaries, so one partition-wide pass serves all keys. O(n log n)
    with no per-row Python. Returns (event_id, wait_us)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    ts_col, id_col = order_columns

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "wait_us": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or key_column not in df.columns:
            return empty
        k = df[key_column].to_numpy(dtype=np.int64)
        ts = df[ts_col].to_numpy(dtype=np.int64)
        eid = df[id_col].to_numpy(dtype=np.int64)
        val = df[value_column].to_numpy(dtype=np.int64)
        order = np.lexsort((eid, ts, k))
        k, ts, eid, val = k[order], ts[order], eid[order], val[order]
        n = len(k)
        # pad with +inf walls between key segments (and one at the end)
        first = np.concatenate(([True], k[1:] != k[:-1]))
        wall_after = np.concatenate((first[1:], [True]))
        m = n + int(wall_after.sum())
        v = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
        # positions of real rows in the padded array
        pos = np.arange(n) + np.cumsum(np.concatenate(([False], wall_after[:-1])))
        v[pos] = val
        # sparse table: T[kk][j] = max v[j : j + 2^kk]
        tables = [v]
        kk = 1
        while (1 << kk) <= m:
            prev = tables[-1]
            half = 1 << (kk - 1)
            cur = prev.copy()
            cur[:-half] = np.maximum(prev[:-half], prev[half:])
            tables.append(cur)
            kk += 1
        # vectorized binary descent from each row's successor position
        ans = pos + 1
        for lev in range(len(tables) - 1, -1, -1):
            step = 1 << lev
            ok = ans + step <= m
            idx = np.minimum(ans, m - 1)
            skip = ok & (tables[lev][idx] <= val)
            ans = np.where(skip, ans + step, ans)
        found = ans < m
        # a found position that landed on a wall means "none in segment"
        found &= np.isin(ans, pos, assume_unique=False) if found.any() else found
        next_ts = np.full(n, -1, dtype=np.int64)
        if found.any():
            # map padded position back to row index
            back = np.full(m, -1, dtype=np.int64)
            back[pos] = np.arange(n)
            j = back[ans[found]]
            next_ts[found] = ts[j]
        wait = np.where(found & (next_ts >= 0), next_ts - ts, -1)
        return pd.DataFrame({"event_id": eid, "wait_us": wait})

    return coarse_group_apply(events_ds, key_column, kernel, n_parts=n_parts)
