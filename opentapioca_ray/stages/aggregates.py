"""Combiner-first aggregation operators.

Ray Data's `groupby(key).aggregate(...)` shuffles every input row to its
key's reducer. For high-cardinality facts over a bounded key space that is
wasted exchange volume: a map-side combiner (partial aggregate per batch)
shrinks the shuffle to at most |distinct keys| rows PER BLOCK before the
all-to-all — the classic combiner pattern the driver brief mandates
("pre-aggregate inside map_batches before a groupby").

- `partial_sum_count`: per-batch Arrow `group_by` partials -> one small
  groupby-sum. Exchange volume drops from O(rows) to
  O(blocks x distinct keys in block).
- `histogram_quantiles`: exact type-1 quantiles of a bounded-cardinality
  integer column via a (value -> count) histogram built with the same
  combiner; only the histogram (|distinct values| rows) is ever collected.
  DuckDB's `quantile_disc` implements the same type-1 definition, which is
  what makes the driver oracle exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


def partial_sum_count(ds, key: str, sum_cols: list[str], alias: dict | None = None):
    """groupby(key) with Sum(sum_cols...) + Count, combiner-first: the
    one-column case of `partial_multi_sum_count`.

    Returns a dataset with columns `key, <alias.get(c, 'sum_'+c)>...,
    <alias.get('count', 'count')>`. Semantically identical to
    `ds.groupby(key).aggregate(Sum(c)..., Count())` but the all-to-all moves
    partial rows, not facts — and the merge itself is one coarse hash
    exchange + a vectorized per-partition aggregate, because Ray's
    sort-based groupby pays per-row sort cost on the partials (measured
    5.8s -> 1.0s on 1.3M partial rows / 20k keys at 32 CPUs)."""
    return partial_multi_sum_count(ds, [key], sum_cols, alias)


_HISTOGRAM_LIMIT = 5_000_000  # distinct values the driver may hold


def histogram_quantiles(
    ds, value_column: str, probs: list[float], limit: int = _HISTOGRAM_LIMIT
) -> pa.Table:
    """Exact type-1 (inverse empirical CDF) quantiles of an integer-valued
    column: smallest x whose cumulative count reaches ceil(p * n).

    Distributed work is ONE combiner pass + a groupby over distinct values;
    only the aggregated histogram lands on the driver (guarded by `limit` —
    quantiles of genuinely continuous columns need a sketch, not this).
    Returns an Arrow table (p_e4: int64, value: int64) with p scaled by 1e4
    so the join key is integral on both the Ray and SQL sides."""
    hist_ds = partial_sum_count(ds.select_columns([value_column]), value_column, [])
    import ray

    tables = list(arrow_blocks(hist_ds))
    tables = [t for t in tables if t.num_rows and value_column in t.column_names]
    if not tables:
        return pa.table(
            {"p_e4": pa.array([], type=pa.int64()), "value": pa.array([], type=pa.int64())}
        )
    hist = pa.concat_tables(tables)
    if hist.num_rows > limit:
        raise ValueError(
            f"histogram cardinality {hist.num_rows} exceeds driver limit {limit}; "
            "use a quantile sketch for continuous columns"
        )
    vals = hist.column(value_column).to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = hist.column("count").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vals, kind="mergesort")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    ranks = np.ceil(np.asarray(probs, dtype=np.float64) * n).astype(np.int64)
    ranks = np.clip(ranks, 1, n)
    idx = np.searchsorted(cum, ranks, side="left")
    return pa.table(
        {
            "p_e4": pa.array(
                [int(round(p * 10_000)) for p in probs], type=pa.int64()
            ),
            "value": pa.array(vals[idx], type=pa.int64()),
        }
    )


def grouped_quantiles(ds, group_column: str, value_column: str, probs: list[float]):
    """Exact per-group type-1 quantiles (`sorted[ceil(p*n)-1]`, DuckDB's
    `quantile_disc` rule — verified empirically, so the oracle match is by
    definition, not luck).

    Scale shape: ONE coarse exchange on hash(group) % P ships only the two
    pruned columns; each partition then handles ALL of its logical groups in
    a single vectorized kernel — lexsort by (group, value), segment
    boundaries, fancy-indexed quantile positions. No per-group pandas
    groups, no driver collect, works for continuous (float) columns where
    `histogram_quantiles` can't. Output: (group, p_e4, value); the selected
    value is an exact input element (no interpolation arithmetic), so
    float hashing is bit-exact against SQL."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply, segment_starts

    probs_arr = np.asarray(sorted(probs), dtype=np.float64)
    p_e4 = np.round(probs_arr * 10_000).astype(np.int64)

    def quantile_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    group_column: pd.Series(dtype=object),
                    "p_e4": pd.Series(dtype=np.int64),
                    "value": pd.Series(dtype=np.float64),
                }
            )
        keys = df[group_column].to_numpy()
        vals = df[value_column].to_numpy()
        order = np.lexsort((vals, keys))
        keys, vals = keys[order], vals[order]
        starts = segment_starts(keys)
        ends = np.concatenate((starts[1:], [len(keys)]))
        sizes = ends - starts
        # position of each prob inside each segment: start + ceil(p*n) - 1
        offs = np.ceil(probs_arr[None, :] * sizes[:, None]).astype(np.int64)
        offs = np.clip(offs, 1, sizes[:, None]) - 1
        idx = (starts[:, None] + offs).ravel()
        g = np.repeat(keys[starts], len(probs_arr))
        return pd.DataFrame(
            {
                group_column: g,
                "p_e4": np.tile(p_e4, len(starts)),
                "value": vals[idx],
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, value_column]),
        group_column,
        quantile_partition,
    )


def group_moments(
    ds,
    group_column: str,
    x_column: str,
    y_column: str | None = None,
    ndigits: int = 4,
):
    """Per-group mean / sample-stddev (and Pearson corr when `y_column` is
    given) from ONE combiner pass over sufficient statistics
    (n, Σx, Σx², [Σy, Σy², Σxy]): per-batch Arrow group_by partials, a
    small groupby-sum exchange, then a row-wise vectorized finalize.
    Exchange volume is O(blocks × groups), never O(rows) — the classic
    distributed-moments pattern. float64 sums are exact enough here
    (inputs are O(1e5), corpora O(1e12) rows keep Σx² « 2^53 per group
    only with pre-scaled inputs; callers with wide-magnitude columns
    should pre-center — documented trade-off vs a Chan/Welford merge)."""

    def add_squares(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0 or group_column not in batch.column_names:
            return batch
        x = pc.cast(batch.column(x_column), pa.float64())
        cols = {group_column: batch.column(group_column), "_x": x,
                "_xx": pc.multiply(x, x)}
        if y_column is not None:
            y = pc.cast(batch.column(y_column), pa.float64())
            cols.update({"_y": y, "_yy": pc.multiply(y, y), "_xy": pc.multiply(x, y)})
        return pa.table(cols)

    sum_cols = ["_x", "_xx"] + (["_y", "_yy", "_xy"] if y_column else [])
    partial = ds.map_batches(add_squares, batch_format="pyarrow")
    merged = partial_sum_count(partial, group_column, sum_cols)

    def finalize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return batch
        n = batch.column("count").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = batch.column("sum__x").to_numpy(zero_copy_only=False)
        sxx = batch.column("sum__xx").to_numpy(zero_copy_only=False)
        mean = sx / n
        var = np.maximum(sxx - n * mean * mean, 0.0) / np.maximum(n - 1, 1.0)
        out = {
            group_column: batch.column(group_column),
            "n": batch.column("count"),
            "mean_x": pa.array(np.round(mean, ndigits)),
            "stddev_x": pa.array(np.round(np.sqrt(var), ndigits)),
        }
        if y_column is not None:
            sy = batch.column("sum__y").to_numpy(zero_copy_only=False)
            syy = batch.column("sum__yy").to_numpy(zero_copy_only=False)
            sxy = batch.column("sum__xy").to_numpy(zero_copy_only=False)
            my = sy / n
            cov = (sxy - n * mean * my) / np.maximum(n - 1, 1.0)
            vy = np.maximum(syy - n * my * my, 0.0) / np.maximum(n - 1, 1.0)
            denom = np.sqrt(var * vy)
            corr = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), np.nan)
            out["corr_xy"] = pa.array(np.round(corr, ndigits))
        return pa.table(out)

    return merged.map_batches(finalize, batch_format="pyarrow")


# Fine-grain rows up to which `rollup_sum` derives every coarser level in
# one task; above it each level gets its own exchange. Tests reach that by
# monkeypatching this to 0.
_ROLLUP_FINE_LIMIT = 2_000_000


def rollup_sum(
    ds,
    key_columns: list[str],
    value_column: str,
    sentinel: str = "ALL",
):
    """GROUP BY ROLLUP(keys...) of SUM(value) + COUNT(*), computed the
    scalable way: ONE distributed pass over the facts (per-batch combiner +
    one coarse exchange) builds the finest grain; every coarser ROLLUP
    level is then derived from that output — whose size is bounded by the
    key-combination cardinality, not the input — in a single vectorized
    task. Only if the fine grain exceeds `_ROLLUP_FINE_LIMIT` rows (ultra-high-
    cardinality keys) does each coarser level get its own distributed
    merge; either way the facts are scanned exactly once. Coarser levels
    mark collapsed keys with `sentinel` (COALESCE the SQL side's NULLs to
    the same sentinel)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_columns[0] not in batch.column_names:
            return batch
        t = batch.select(key_columns + [value_column])
        g = pa.TableGroupBy(t, key_columns).aggregate(
            [(value_column, "sum"), (value_column, "count")]
        )
        return g.rename_columns(key_columns + ["_sum", "_n"])

    fine = coarse_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        key_columns,
        {"_sum": ("_sum", "sum"), "_n": ("_n", "sum")},
    ).materialize()

    def finish_tbl(tbl: pa.Table) -> pa.Table:
        cols = {k: tbl.column(k) for k in key_columns}
        # e4-scaled integer total: decimal inputs keep the true sum >=5e-5
        # away from any rounding tie, so both sides land on the same int
        cols["total_e4"] = pc.cast(
            pc.round(pc.multiply(tbl.column("_sum"), 10000.0), 0), pa.int64()
        )
        cols["n"] = tbl.column("_n")
        return pa.table(cols)

    if fine.count() <= _ROLLUP_FINE_LIMIT:
        # All coarser levels in ONE task over the tiny fine grain.
        def all_levels(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "_sum" not in batch.column_names:
                return batch
            pieces = [batch.select(key_columns + ["_sum", "_n"])]
            for depth in range(len(key_columns) - 1, -1, -1):
                keys = key_columns[:depth]
                if keys:
                    g = pa.TableGroupBy(
                        batch.select(keys + ["_sum", "_n"]), keys
                    ).aggregate([("_sum", "sum"), ("_n", "sum")])
                    g = g.rename_columns(keys + ["_sum", "_n"])
                else:
                    g = pa.table(
                        {
                            "_sum": [pc.sum(batch.column("_sum")).as_py()],
                            "_n": pa.array(
                                [pc.sum(batch.column("_n")).as_py()],
                                type=pa.int64(),
                            ),
                        }
                    )
                n = g.num_rows
                cols = {}
                for k in key_columns:
                    cols[k] = (
                        g.column(k)
                        if k in keys
                        else pa.array([sentinel] * n, type=pa.string())
                    )
                cols["_sum"] = g.column("_sum")
                cols["_n"] = g.column("_n")
                pieces.append(pa.table(cols))
            return finish_tbl(pa.concat_tables(pieces))

        return fine.repartition(1).map_batches(
            all_levels, batch_format="pyarrow", batch_size=None
        )

    # Fallback: per-level distributed merges; each tiny level is consumed
    # twice (unioned + re-aggregated), so pin it with materialize().
    from ray.data.aggregate import Sum

    def merge(level_ds, keys: list[str]):
        if len(keys) > 1:
            return coarse_groupby_agg(
                level_ds, keys, {"_sum": ("_sum", "sum"), "_n": ("_n", "sum")}
            )
        if keys:
            return level_ds.groupby(keys).aggregate(
                Sum("_sum", alias_name="_sum"), Sum("_n", alias_name="_n")
            )
        return level_ds.groupby(None).aggregate(
            Sum("_sum", alias_name="_sum"), Sum("_n", alias_name="_n")
        )

    levels = [fine]
    prev = fine
    for depth in range(len(key_columns) - 1, -1, -1):
        keys = key_columns[:depth]
        coarser = right_size(merge(prev, keys).materialize())

        def pad(batch: pa.Table, _keys=tuple(keys)) -> pa.Table:
            if batch.num_rows == 0 or "_sum" not in batch.column_names:
                return batch
            cols = {}
            for k in key_columns:
                cols[k] = (
                    batch.column(k)
                    if k in _keys
                    else pa.array([sentinel] * batch.num_rows, type=pa.string())
                )
            cols["_sum"] = batch.column("_sum")
            cols["_n"] = batch.column("_n")
            return pa.table(cols)

        levels.append(coarser.map_batches(pad, batch_format="pyarrow"))
        prev = coarser

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "_sum" not in batch.column_names:
            return batch
        return finish_tbl(batch)

    return out.map_batches(finish, batch_format="pyarrow")


def distinct_count(ds, group_column: str, value_column: str, alias: str = "n_distinct"):
    """Exact COUNT(DISTINCT value) per group, the scalable way: per-batch
    unique (group, value) pairs (combiner), ONE groupby dedup over unique
    pairs, then a combiner-first count per group. No per-group Python sets,
    no driver collect; exchange volume is bounded by the number of DISTINCT
    pairs, not input rows. (Approximate HLL is the sketch path when even
    distinct pairs are too many; exactness here is what the oracle checks.)"""

    def uniq_pairs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return batch
        return (
            batch.select([group_column, value_column])
            .group_by([group_column, value_column])
            .aggregate([])
        )

    pairs = ds.map_batches(uniq_pairs, batch_format="pyarrow")
    from opentapioca_ray.stages.exchange import coarse_group_apply

    # ONE coarse exchange on the group key finishes both steps: all rows of
    # a group co-locate, so the partition kernel dedups (group, value) and
    # counts per group in one vectorized pass (the former sort-based
    # two-key groupby paid per-row sort cost on every distinct pair)
    import pandas as pd

    def count_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    group_column: pd.Series(dtype=object),
                    alias: pd.Series(dtype=np.int64),
                }
            )
        d = df.drop_duplicates([group_column, value_column])
        g = d.groupby(group_column, sort=False).size()
        return pd.DataFrame(
            {group_column: g.index.to_numpy(), alias: g.to_numpy(dtype=np.int64)}
        )

    return coarse_group_apply(pairs, group_column, count_partition)


def group_regression(
    ds,
    key: str,
    x_column: str,
    y_column: str,
    x_scale: int = 1,
    y_scale: int = 10_000,
):
    """Per-group OLS fit y = slope*x + intercept, combiner-first and EXACT.

    One pass over the facts accumulates integer sufficient statistics per
    (group, block) — n, Σx, Σy, Σxy, Σx² on `x*x_scale` / `y*y_scale`
    micro-units — one coarse exchange merges them, and the closed form runs
    per group on arbitrary-precision ints (n*Σxy - ΣxΣy overflows int64 at
    ~1e6 rows; Python bigint here, HUGEINT in the SQL twin). Outputs
    truncate-toward-zero e6-quantized slope/intercept so both sides do the
    identical integer division (DuckDB `//` truncates; Python `//` floors).

    Returns (key, n, slope_e6, intercept_e6); groups with zero x-variance
    are dropped (slope undefined), matching SQL regr_slope's NULL."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                pa.field(key, batch.schema.field(key).type
                         if key in batch.column_names else pa.string()),
                pa.field("_n", pa.int64()),
                pa.field("_sx", pa.int64()),
                pa.field("_sy", pa.int64()),
                pa.field("_sxy", pa.int64()),
                pa.field("_sxx", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or key not in batch.column_names:
            return schema.empty_table()
        x = np.round(
            batch.column(x_column).to_numpy(zero_copy_only=False)
            * float(x_scale)
        ).astype(np.int64)
        y = np.round(
            batch.column(y_column).to_numpy(zero_copy_only=False)
            * float(y_scale)
        ).astype(np.int64)
        t = pa.table(
            {
                key: batch.column(key),
                "_one": pa.array(np.ones(len(x), dtype=np.int64)),
                "_x": pa.array(x),
                "_y": pa.array(y),
                "_xy": pa.array(x * y),
                "_xx": pa.array(x * x),
            }
        )
        g = pa.TableGroupBy(t, key).aggregate(
            [("_one", "sum"), ("_x", "sum"), ("_y", "sum"),
             ("_xy", "sum"), ("_xx", "sum")]
        )
        return g.rename_columns([key, "_n", "_sx", "_sy", "_sxy", "_sxx"])

    merged = coarse_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        [key],
        {c: (c, "sum") for c in ["_n", "_sx", "_sy", "_sxy", "_sxx"]},
    )

    def _tdiv(a: int, b: int) -> int:
        """Truncate-toward-zero bigint division (DuckDB `//` semantics)."""
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    def solve(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                pa.field(key, batch.schema.field(key).type
                         if key in batch.column_names else pa.string()),
                pa.field("n", pa.int64()),
                pa.field("slope_e6", pa.int64()),
                pa.field("intercept_e6", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "_n" not in batch.column_names:
            return out_schema.empty_table()
        keys, ns, slopes, intercepts = [], [], [], []
        cols = {c: batch.column(c).to_pylist()
                for c in [key, "_n", "_sx", "_sy", "_sxy", "_sxx"]}
        for k, n, sx, sy, sxy, sxx in zip(
            cols[key], cols["_n"], cols["_sx"], cols["_sy"],
            cols["_sxy"], cols["_sxx"],
        ):
            den = n * sxx - sx * sx  # exact bigint
            if den == 0:
                continue
            num = n * sxy - sx * sy
            # slope in original units = (num/den) * x_scale / y_scale
            slope_e6 = _tdiv(10**6 * num * x_scale, den * y_scale)
            # intercept = (Σy - slope*Σx)/n in original units
            inum = 10**6 * (sy * den - num * sx) * 1
            iden = den * n * y_scale
            intercepts.append(_tdiv(inum, iden))
            keys.append(k)
            ns.append(n)
            slopes.append(slope_e6)
        return pa.table(
            {
                key: pa.array(keys, type=out_schema.field(key).type),
                "n": pa.array(ns, type=pa.int64()),
                "slope_e6": pa.array(slopes, type=pa.int64()),
                "intercept_e6": pa.array(intercepts, type=pa.int64()),
            }
        )

    # the merged group table is tiny (one row per group); the bigint solve
    # is a per-group scalar pass over it
    return merged.map_batches(solve, batch_format="pyarrow")


def pivot_counts(ds, key_column: str, pivot_column: str, categories: list[str]):
    """Wide pivot: one row per key with a count column per category value
    (`n_<category>`), zero-filled.

    Map-side partial pivot per batch (one lexsort + bincount over
    key x category codes — no per-key loop), then ONE coarse exchange on
    the key merges partials with vectorized sums. Exchange volume is
    O(distinct keys per batch x |categories|), not O(rows); |categories|
    must be small and known (the wide schema is fixed up front)."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    cat_index = {c: i for i, c in enumerate(categories)}
    ncat = len(categories)
    out_cols = [f"n_{c}" for c in categories]
    empty = pa.schema(
        [(key_column, pa.int64())] + [(c, pa.int64()) for c in out_cols]
    ).empty_table()

    def partial_pivot(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return empty
        keys = batch.column(key_column).to_numpy(zero_copy_only=False)
        cats = batch.column(pivot_column).to_numpy(zero_copy_only=False)
        # dictionary-encode the category column once per batch
        uniq, inv = np.unique(cats, return_inverse=True)
        cmap = np.array([cat_index.get(u, -1) for u in uniq], dtype=np.int64)
        ccodes = cmap[inv]
        ok = ccodes >= 0
        keys, ccodes = keys[ok], ccodes[ok]
        if len(keys) == 0:
            return empty
        ukeys, kinv = np.unique(keys, return_inverse=True)
        counts = np.bincount(kinv * ncat + ccodes, minlength=len(ukeys) * ncat)
        mat = counts.reshape(len(ukeys), ncat)
        cols = {key_column: pa.array(ukeys.astype(np.int64))}
        for j, c in enumerate(out_cols):
            cols[c] = pa.array(mat[:, j].astype(np.int64))
        return pa.table(cols)

    partial = ds.map_batches(partial_pivot, batch_format="pyarrow")
    return coarse_groupby_agg(
        partial, [key_column], {c: (c, "sum") for c in out_cols}
    )


def _multi_partial(batch: pa.Table, keys: list[str], sum_cols: list[str]) -> pa.Table:
    names = list(keys) + [f"_psum_{c}" for c in sum_cols] + ["_pcount"]
    if batch.num_rows == 0 or keys[0] not in batch.column_names:
        fields = [batch.schema.field(k) for k in keys if k in batch.column_names]
        if len(fields) != len(keys):
            return batch  # schema-less shuffle filler block
        fields += [batch.schema.field(c) for c in sum_cols]
        fields += [pa.field("_pcount", pa.int64())]
        return pa.schema(
            [pa.field(n, f.type) for n, f in zip(names, fields)]
        ).empty_table()
    cols = list(keys) + [c for c in sum_cols if c not in keys]
    aggs = [(c, "sum") for c in sum_cols] + [(keys[0], "count")]
    out = pa.TableGroupBy(batch.select(cols), keys).aggregate(aggs)
    return out.rename_columns(names)


def partial_multi_sum_count(
    ds, keys: list[str], sum_cols: list[str], alias: dict | None = None
):
    """groupby(keys) with Sum(sum_cols...) + Count over a COMPOSITE group
    key (`partial_sum_count` is its one-key case): per-batch
    Arrow group_by partials over `keys`, then ONE coarse hash exchange on
    the key tuple + a vectorized per-partition merge. Exchange volume is
    O(blocks x distinct key tuples per block), never O(rows) — the combiner
    shape TPC-H Q1-style multi-aggregate summaries need at 100 TB (the key
    space is tiny; the fact table is not)."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    alias = alias or {}
    partials = ds.map_batches(
        lambda b: _multi_partial(b, keys, sum_cols), batch_format="pyarrow"
    )
    spec = {alias.get(c, f"sum_{c}"): (f"_psum_{c}", "sum") for c in sum_cols}
    spec[alias.get("count", "count")] = ("_pcount", "sum")
    return coarse_groupby_agg(partials, keys, spec)


def group_arg_extreme(
    ds,
    key_cols: list[str],
    order_cols: list[str],
    keep_cols: list[str],
    ascending: bool = True,
):
    """First row per key tuple under a total lexicographic order — the
    distributed ARGMIN/ARGMAX (e.g. "cheapest supplier per part"). The
    order MUST be total (include a unique tie-break column in `order_cols`)
    so the winner is deterministic at any partitioning.

    Combiner-first: each batch keeps one candidate row per key it sees
    (a sort + segment-first kernel), so the exchange moves at most
    |distinct keys| rows per block; the final pass is the SAME kernel per
    coarse hash partition. argmin is associative, so partial winners
    compose exactly."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    out_cols = list(dict.fromkeys(key_cols + order_cols + keep_cols))

    def best_per_key(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or key_cols[0] not in df.columns:
            return df
        df = df.sort_values(
            key_cols + order_cols,
            ascending=[True] * len(key_cols) + [ascending] * len(order_cols),
            kind="mergesort",
        )
        return df.drop_duplicates(key_cols, keep="first")[out_cols]

    partials = ds.select_columns(out_cols).map_batches(
        best_per_key, batch_format="pandas"
    )
    return coarse_group_apply(partials, key_cols[0], best_per_key)


def group_gini(ds, group_column: str, value_column: str, scale: int = 100):
    """Exact per-group Gini concentration terms in integer units:
    with x_1 <= ... <= x_n the group's values in `1/scale` units,
      gini_num = 2 * sum(i * x_i) - (n + 1) * sum(x)
      gini_den = n * sum(x)
    so Gini = gini_num / gini_den without ever dividing (both engines emit
    the same int64s; ties contribute identically regardless of sort order,
    so the result is deterministic at any partitioning). SQL twin:
    row_number() OVER (PARTITION BY g ORDER BY x) + one GROUP BY.

    One coarse exchange on the group key; each partition sorts once and
    reduces all its groups with contiguous-segment numpy ops."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def gini_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    group_column: pd.Series(dtype=np.int64),
                    "n": pd.Series(dtype=np.int64),
                    "sum_units": pd.Series(dtype=np.int64),
                    "gini_num": pd.Series(dtype=np.int64),
                    "gini_den": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy(dtype=np.int64)
        x = np.round(df[value_column].to_numpy() * float(scale)).astype(np.int64)
        order = np.lexsort((x, g))
        g_s, x_s = g[order], x[order]
        new = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        n_seg = len(starts)
        rank = np.arange(len(g_s), dtype=np.int64) - starts[seg] + 1  # 1-based
        n = np.bincount(seg, minlength=n_seg).astype(np.int64)
        sx = np.bincount(seg, weights=x_s, minlength=n_seg).astype(np.int64)
        six = np.bincount(seg, weights=rank * x_s, minlength=n_seg).astype(np.int64)
        return pd.DataFrame(
            {
                group_column: g_s[starts],
                "n": n,
                "sum_units": sx,
                "gini_num": 2 * six - (n + 1) * sx,
                "gini_den": n * sx,
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, value_column]),
        group_column,
        gini_partition,
    )


def above_group_mean(
    ds,
    group_column: str,
    value_column: str,
    id_column: str,
    scale: int = 100,
):
    """The correlated-subquery filter `WHERE x > (SELECT avg(x) ... same
    group)`: keep rows whose value strictly exceeds their group's mean.
    The compare is exact — `v * n > sum` over int64 `1/scale` units — so
    both engines agree on every boundary row without float division.

    One coarse exchange on the group key; each partition computes all its
    group sums with a factorize+bincount kernel and filters vectorized
    (no second pass over the input, no broadcast of a per-group table
    that is O(|groups|) at scale)."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def filter_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    group_column: pd.Series(dtype=np.int64),
                    "value_units": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy(dtype=np.int64)
        v = np.round(df[value_column].to_numpy() * float(scale)).astype(np.int64)
        rid = df[id_column].to_numpy(dtype=np.int64)
        codes, _ = pd.factorize(g, sort=False)
        sums = np.bincount(codes, weights=v).astype(np.int64)
        ns = np.bincount(codes).astype(np.int64)
        keep = v * ns[codes] > sums[codes]
        return pd.DataFrame(
            {
                id_column: rid[keep],
                group_column: g[keep],
                "value_units": v[keep],
            }
        )

    return coarse_group_apply(
        ds.select_columns([id_column, group_column, value_column]),
        group_column,
        filter_partition,
    )


def group_set_overlap(ds, key_column: str, member_column: str):
    """Audience overlap between set keys: for every unordered key pair
    (a <= b), the number of DISTINCT members present in both sets —
    diagonal rows (a == b) carry each set's distinct-member count, so
    Jaccard/overlap coefficients are one division away. SQL twin: a
    self-join of SELECT DISTINCT (key, member) on the member.

    Shape: per-batch distinct partials, one coarse exchange on the MEMBER
    (a member's keys co-locate), a segment pair kernel + k*k bincount per
    partition (exchange out is O(P x |keys|^2)), then the multi-key
    combiner merge. Assumes |distinct keys| is small (categories, not
    ids); members may be billions."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg
    from opentapioca_ray.stages.triangles import _segment_pairs

    def distinct_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return pa.schema(
                [
                    pa.field(key_column, pa.string()),
                    pa.field(member_column, pa.int64()),
                ]
            ).empty_table()
        return (
            batch.select([key_column, member_column])
            .group_by([key_column, member_column])
            .aggregate([])
        )

    rows = ds.map_batches(distinct_partial, batch_format="pyarrow")
    empty = pd.DataFrame(
        {
            "type_a": pd.Series(dtype=object),
            "type_b": pd.Series(dtype=object),
            "_pn": pd.Series(dtype=np.int64),
        }
    )

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or key_column not in df.columns:
            return empty
        df = df.drop_duplicates([member_column, key_column])
        m = df[member_column].to_numpy(dtype=np.int64)
        codes, uniques = pd.factorize(df[key_column], sort=True)
        order = np.lexsort((codes, m))
        m_s, c_s = m[order], codes[order]
        left, right = _segment_pairs(m_s)
        k = len(uniques)
        pair_idx = c_s[left] * k + c_s[right]  # c_s sorted within member: a <= b
        counts = np.bincount(pair_idx, minlength=k * k)
        counts += np.bincount(c_s * k + c_s, minlength=k * k)  # diagonal
        nz = np.flatnonzero(counts)
        if len(nz) == 0:
            return empty
        return pd.DataFrame(
            {
                "type_a": uniques.take(nz // k),
                "type_b": uniques.take(nz % k),
                "_pn": counts[nz].astype(np.int64),
            }
        )

    partials = coarse_group_apply(rows, member_column, pair_partition)
    return coarse_groupby_agg(
        partials, ["type_a", "type_b"], {"n_common": ("_pn", "sum")}
    )


def weighted_median(
    ds,
    group_column: str,
    value_column: str,
    weight_column: str,
    scale: int = 100,
):
    """Per-group weighted lower median: the smallest value v (in exact
    `1/scale` int64 units) whose cumulative weight reaches half the
    group's total weight (2 * cumw >= total, integer compare — identical
    to SQL's RANGE-framed cumulative-sum formulation on both engines,
    including tied values). Weights must be integral.

    One coarse exchange on the group key; each partition resolves all its
    groups with a sorted-segment cumulative-sum kernel."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def median_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    group_column: pd.Series(dtype=object),
                    "median_units": pd.Series(dtype=np.int64),
                    "total_weight": pd.Series(dtype=np.int64),
                }
            )
        g = df[group_column].to_numpy()
        v = np.round(df[value_column].to_numpy() * float(scale)).astype(np.int64)
        w = np.round(df[weight_column].to_numpy()).astype(np.int64)
        order = np.lexsort((v, g))
        g_s, v_s, w_s = g[order], v[order], w[order]
        new = np.concatenate(([True], g_s[1:] != g_s[:-1]))
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        n_seg = len(starts)
        totals = np.bincount(seg, weights=w_s, minlength=n_seg).astype(np.int64)
        cum = np.cumsum(w_s)
        base = np.concatenate((np.zeros(1, dtype=np.int64), cum[starts[1:] - 1]))
        cum_in = cum - base[seg]
        # EARLIEST row per segment where 2*cum_in >= total — the true
        # min-over-reach-set (SQL's MIN(CASE WHEN 2*cum >= total THEN rn END)),
        # correct even when negative weights make the cumulative sum
        # non-monotonic (a miss COUNT would diverge there). Groups where no
        # row reaches (possible only with a negative total) fall back to the
        # last row; the SQL twin yields NULL for those — don't feed negative
        # totals if the twin must hash-match.
        sizes = np.diff(np.concatenate((starts, [len(g_s)])))
        pos_in = np.arange(len(g_s), dtype=np.int64) - starts[seg]
        reached = 2 * cum_in >= totals[seg]
        cand = np.where(reached, pos_in, sizes[seg] - 1)
        idx = starts + np.minimum.reduceat(cand, starts)
        return pd.DataFrame(
            {
                group_column: g_s[starts],
                "median_units": v_s[idx],
                "total_weight": totals,
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, value_column, weight_column]),
        group_column,
        median_partition,
    )


def decile_summary(ds, value_column: str, scale: int = 100, n_buckets: int = 10):
    """Global distribution summary: exact type-1 decile edges (input
    elements, from the distributed value histogram) split the column into
    `n_buckets` buckets; per bucket the row count and exact unit sum.
    bucket = 1 + (number of edges strictly below the value), matching the
    SQL twin's correlated count, so ties land identically on both engines.

    Scale shape: the histogram pass bounds driver state by DISTINCT values
    (guarded in `histogram_quantiles`); the edges (9 ints) broadcast in the
    closure; bucket assignment + partial sums stream map-side and ONE
    combiner groupby over <= n_buckets keys finishes."""
    probs = [i / n_buckets for i in range(1, n_buckets)]

    def to_units(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or value_column not in batch.column_names:
            return pa.schema([("v_u", pa.int64())]).empty_table()
        v = np.round(
            batch.column(value_column).to_numpy(zero_copy_only=False)
            * float(scale)
        ).astype(np.int64)
        return pa.table({"v_u": pa.array(v)})

    units = ds.select_columns([value_column]).map_batches(
        to_units, batch_format="pyarrow"
    ).materialize()
    q = histogram_quantiles(units, "v_u", probs)
    edges = np.sort(q.column("value").to_numpy(zero_copy_only=False).astype(np.int64))

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "v_u" not in batch.column_names:
            return pa.schema(
                [("decile", pa.int64()), ("v_u", pa.int64())]
            ).empty_table()
        v = batch.column("v_u").to_numpy(zero_copy_only=False).astype(np.int64)
        # strictly-below edge count: ties with an edge stay in its bucket
        b = np.searchsorted(edges, v, side="left") + 1
        return pa.table({"decile": pa.array(b.astype(np.int64)), "v_u": batch.column("v_u")})

    bucketed = units.map_batches(bucketize, batch_format="pyarrow")
    return partial_sum_count(
        bucketed, "decile", ["v_u"], alias={"v_u": "sum_units", "count": "n"}
    )


def group_entropy(ds, group_column: str, item_column: str, n_parts=None):
    """Shannon entropy (nats) of each group's item-occurrence distribution
    from EXACT integer counts: H = ln(N) - (sum c*ln(c)) / N over the
    per-(group, item) counts c. Two combiner-first reductions — the
    (group, item) count table, then the O(groups) (N, sum c*ln c) roll-up;
    no row-level data ever reshuffles twice. Output:
    (group, entropy_e6 fixed-point micro-nats, n_rows)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def count_partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                (group_column, pa.string()),
                (item_column, pa.int64()),
                ("_n", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return schema.empty_table()
        out = pa.TableGroupBy(
            batch.select([group_column, item_column]), [group_column, item_column]
        ).aggregate([(group_column, "count")])
        return out.rename_columns([group_column, item_column, "_n"])

    counts = coarse_groupby_agg(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        [group_column, item_column],
        {"c": ("_n", "sum")},
        n_parts=n_parts,
    )

    def clnc(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                (group_column, pa.string()),
                ("_nn", pa.int64()),
                ("_clnc", pa.float64()),
            ]
        )
        if batch.num_rows == 0 or "c" not in batch.column_names:
            return schema.empty_table()
        c = batch.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                group_column: batch.column(group_column),
                "_nn": batch.column("c").cast(pa.int64()),
                "_clnc": pa.array(c * np.log(c)),
            }
        )

    rolled = coarse_groupby_agg(
        counts.map_batches(clnc, batch_format="pyarrow"),
        [group_column],
        {"n_rows": ("_nn", "sum"), "sclnc": ("_clnc", "sum")},
        n_parts=n_parts,
    )

    def finish(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                (group_column, pa.string()),
                ("entropy_e6", pa.int64()),
                ("n_rows", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "n_rows" not in batch.column_names:
            return schema.empty_table()
        n = batch.column("n_rows").to_numpy(zero_copy_only=False).astype(np.float64)
        s = batch.column("sclnc").to_numpy(zero_copy_only=False)
        # fixed-point half-up, matching the SQL twin's floor(x*1e6 + 0.5)
        h = np.floor((np.log(n) - s / n) * 1e6 + 0.5).astype(np.int64)
        return pa.table(
            {
                group_column: batch.column(group_column),
                "entropy_e6": pa.array(h),
                "n_rows": batch.column("n_rows").cast(pa.int64()),
            }
        )

    return rolled.map_batches(finish, batch_format="pyarrow")


def winsorized_group_means(
    ds,
    group_column: str,
    units_column: str,
    lo_p: float = 0.05,
    hi_p: float = 0.95,
    mean_scale: int = 10_000,
):
    """Robust per-group mean: clip each row's integer-unit value to the
    group's exact type-1 [lo_p, hi_p] quantiles (`sorted[ceil(p*n)-1]`,
    DuckDB's quantile_disc rule), then average. Clipping and summing stay
    in exact int64 units; only the mean is one fixed quantized float
    expression — so the SQL twin matches bit-for-bit.

    ONE coarse exchange on the group key; each partition winsorizes all
    its whole groups in a single lexsort + segment kernel (no per-group
    pandas, no second pass: the quantile bounds and the clipped sum come
    from the same sorted array)."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply, segment_starts

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    group_column: pd.Series(dtype=object),
                    "n": pd.Series(dtype=np.int64),
                    "sum_c": pd.Series(dtype=np.int64),
                    "wmean_c_e4": pd.Series(dtype=np.int64),
                }
            )
        keys = df[group_column].to_numpy()
        vals = df[units_column].to_numpy(dtype=np.int64)
        order = np.lexsort((vals, keys))
        keys, vals = keys[order], vals[order]
        starts = segment_starts(keys)
        ends = np.concatenate((starts[1:], [len(keys)]))
        sizes = ends - starts
        seg = np.cumsum(
            np.concatenate(([True], keys[1:] != keys[:-1]))
        ) - 1

        def qpos(p: float) -> np.ndarray:
            off = np.clip(np.ceil(p * sizes).astype(np.int64), 1, sizes) - 1
            return starts + off

        lo = vals[qpos(lo_p)][seg]
        hi = vals[qpos(hi_p)][seg]
        clipped = np.minimum(np.maximum(vals, lo), hi)
        sum_c = np.bincount(seg, weights=clipped).astype(np.int64)
        # same quantized expression as the SQL twin:
        # FLOOR(scale * sum / n + 0.5)
        wmean = np.floor(
            float(mean_scale) * sum_c / sizes + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {
                group_column: keys[starts],
                "n": sizes.astype(np.int64),
                "sum_c": sum_c,
                "wmean_c_e4": wmean,
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, units_column]), group_column, kernel
    )


def grouped_mad(ds, group_column: str, units_column: str):
    """Per-group median absolute deviation in exact int64 units: the
    type-1 group median (`sorted[ceil(n/2)-1]`, DuckDB's quantile_disc
    rule), then the type-1 median of |x - median| — both selections are
    exact input elements, so every output column is integer and the SQL
    twin matches bit-for-bit (the robust scale estimate next to
    `winsorized_group_means`' robust location).

    ONE coarse exchange; each partition runs two lexsort+segment passes
    over all its whole groups (the deviations need re-sorting — that
    second sort is partition-local, never a shuffle)."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply, segment_starts

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or group_column not in df.columns:
            return pd.DataFrame(
                {
                    group_column: pd.Series(dtype=object),
                    "n": pd.Series(dtype=np.int64),
                    "med_c": pd.Series(dtype=np.int64),
                    "mad_c": pd.Series(dtype=np.int64),
                }
            )
        keys = df[group_column].to_numpy()
        vals = df[units_column].to_numpy(dtype=np.int64)
        order = np.lexsort((vals, keys))
        keys, vals = keys[order], vals[order]
        starts = segment_starts(keys)
        ends = np.concatenate((starts[1:], [len(keys)]))
        sizes = ends - starts
        seg = np.cumsum(np.concatenate(([True], keys[1:] != keys[:-1]))) - 1

        def qpos(sorted_vals, p=0.5):
            off = np.clip(np.ceil(p * sizes).astype(np.int64), 1, sizes) - 1
            return sorted_vals[starts + off]

        med = qpos(vals)
        dev = np.abs(vals - med[seg])
        # re-sort deviations within each segment (keys already grouped,
        # so lexsort on (dev, seg) keeps segment layout identical)
        order2 = np.lexsort((dev, seg))
        dev = dev[order2]
        mad = qpos(dev)
        return pd.DataFrame(
            {
                group_column: keys[starts],
                "n": sizes.astype(np.int64),
                "med_c": med.astype(np.int64),
                "mad_c": mad.astype(np.int64),
            }
        )

    return coarse_group_apply(
        ds.select_columns([group_column, units_column]), group_column, kernel
    )


def exact_kth_narrowing(
    ds,
    value_column: str,
    rank: int | None = None,
    n_buckets: int = 4096,
    max_rounds: int = 8,
):
    """Exact k-th smallest element (default: the (n+1)//2 lower median)
    of an int64 column by iterative histogram narrowing — the
    distributed-selection algorithm: each round is ONE combiner scan
    (O(blocks x n_buckets) partials to the driver, NO exchange at all);
    the bucket containing rank k narrows the candidate range by ~n_buckets
    x until the range itself fits one histogram, where width-1 buckets
    resolve the answer exactly. A 2^63 range needs at most
    log_4096(2^63) ≈ 6 rounds; a global sort is never paid.

    Returns one row (n, k, kth)."""
    def minmax_count(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("lo", pa.int64()), ("hi", pa.int64()), ("n", pa.int64())]
        )
        if batch.num_rows == 0 or value_column not in batch.column_names:
            return schema.empty_table()
        v = batch.column(value_column).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "lo": pa.array([int(v.min())], pa.int64()),
                "hi": pa.array([int(v.max())], pa.int64()),
                "n": pa.array([len(v)], pa.int64()),
            }
        )

    slim = ds.select_columns([value_column]).materialize()
    lo = hi = None
    n = 0
    for t in arrow_blocks(slim.map_batches(
        minmax_count, batch_format="pyarrow"
    )):
        if t.num_rows == 0 or "lo" not in t.column_names:
            continue
        blo = int(t.column("lo").to_numpy().min())
        bhi = int(t.column("hi").to_numpy().max())
        n += int(t.column("n").to_numpy().sum())
        lo = blo if lo is None else min(lo, blo)
        hi = bhi if hi is None else max(hi, bhi)
    if n == 0:
        return driver_dataset(
            pa.schema(
                [("n", pa.int64()), ("k", pa.int64()), ("kth", pa.int64())]
            ).empty_table()
        )
    k = rank if rank is not None else (n + 1) // 2

    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        span = hi - lo + 1
        width = max(1, (span + n_buckets - 1) // n_buckets)
        nb = (span + width - 1) // width

        def hist(batch: pa.Table, lo=lo, hi=hi, width=width, nb=nb) -> pa.Table:
            schema = pa.schema([("b", pa.int64()), ("c", pa.int64())])
            if batch.num_rows == 0 or value_column not in batch.column_names:
                return schema.empty_table()
            v = batch.column(value_column).to_numpy(zero_copy_only=False)
            v = v[(v >= lo) & (v <= hi)]
            if len(v) == 0:
                return schema.empty_table()
            b = (v - lo) // width
            ub, cnt = np.unique(b, return_counts=True)
            return pa.table(
                {"b": pa.array(ub.astype(np.int64)), "c": pa.array(cnt.astype(np.int64))}
            )

        counts = np.zeros(nb, dtype=np.int64)
        for t in arrow_blocks(slim.map_batches(hist, batch_format="pyarrow")):
            if t.num_rows and "b" in t.column_names:
                np.add.at(
                    counts,
                    t.column("b").to_numpy(zero_copy_only=False),
                    t.column("c").to_numpy(zero_copy_only=False),
                )
        cum = np.cumsum(counts)
        bi = int(np.searchsorted(cum, k))
        k -= int(cum[bi - 1]) if bi > 0 else 0
        lo, hi = lo + bi * width, min(hi, lo + (bi + 1) * width - 1)
        if width == 1:
            break

    return driver_dataset(
        pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "k": pa.array(
                    [rank if rank is not None else (n + 1) // 2], pa.int64()
                ),
                "kth": pa.array([lo], pa.int64()),
            }
        )
    )
