"""Data-quality audit operators: FD violations, IQR outliers, profiling.

Entity resolution lives or dies on input hygiene, and the reference's
pipeline simply trusts its dump (readers/dumpreader.py never validates).
These operators are the audit pass a 100 TB ingest runs FIRST:

- `fd_violations` — which left-hand-side keys break a functional
  dependency X -> Y (the "same entity id, different canonical name"
  smell that precedes every bad merge);
- `iqr_outliers` — per-group Tukey-fence outliers in EXACT integer
  arithmetic (quantiles are input elements; fences compare as
  2*v vs 2*q1 - 3*iqr, so no float division ever happens);
- `profile_columns` — per-column null/distinct/min/max profile in ONE
  exchange over (column, value) partial-distinct rows.

All three are combiner-first: the exchange ships per-block DISTINCT rows
or per-group thresholds, never the fact table.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


def fd_violations(ds, lhs_column: str, rhs_column: str):
    """Keys violating the functional dependency lhs -> rhs: one row per
    lhs with >= 2 distinct rhs values — (lhs, n_rhs, n_rows).

    Per-batch combiner reduces to distinct (lhs, rhs, count) triples, so
    the exchange is bounded by the distinct-pair cardinality; the
    partition kernel counts distinct rhs per lhs with one segment pass."""
    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    pairs = partial_multi_sum_count(
        ds.select_columns([lhs_column, rhs_column]),
        [lhs_column, rhs_column],
        [],
        alias={"count": "_n"},
    )

    def violations_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                lhs_column: pd.Series(dtype=object),
                "n_rhs": pd.Series(dtype=np.int64),
                "n_rows": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or lhs_column not in df.columns:
            return empty
        lhs = df[lhs_column].to_numpy()
        rhs = df[rhs_column].to_numpy()
        n = df["_n"].to_numpy(dtype=np.int64)
        _, lcodes = np.unique(lhs, return_inverse=True)
        _, rcodes = np.unique(rhs, return_inverse=True)
        order = np.lexsort((rcodes, lcodes))
        lhs, lcodes, rcodes, n = lhs[order], lcodes[order], rcodes[order], n[order]
        new_l = np.concatenate(([True], lcodes[1:] != lcodes[:-1]))
        # distinct rhs per lhs: pairs arrive pre-deduped per block but can
        # repeat ACROSS blocks — count rhs transitions within lhs segments
        new_pair = np.concatenate(
            ([True], (lcodes[1:] != lcodes[:-1]) | (rcodes[1:] != rcodes[:-1]))
        )
        seg = np.cumsum(new_l) - 1
        n_seg = int(seg[-1]) + 1
        n_rhs = np.bincount(seg, weights=new_pair, minlength=n_seg).astype(np.int64)
        n_rows = np.bincount(seg, weights=n, minlength=n_seg).astype(np.int64)
        keep = n_rhs >= 2
        starts = np.flatnonzero(new_l)
        return pd.DataFrame(
            {
                lhs_column: lhs[starts][keep],
                "n_rhs": n_rhs[keep],
                "n_rows": n_rows[keep],
            }
        )

    return coarse_group_apply(pairs, lhs_column, violations_partition)


def iqr_outliers(
    ds,
    group_column: str,
    value_column: str,
    id_column: str,
    scale: int = 1_000_000,
    k_halves: int = 3,
):
    """Per-group Tukey-fence outliers: rows whose value (in exact
    `1/scale` integer units) falls outside
    [q1 - (k_halves/2) * iqr, q3 + (k_halves/2) * iqr], with q1/q3 the
    exact type-1 quartiles. The fence compare is pure int64
    (2*v < 2*q1 - k*iqr), so Ray and SQL agree bit-for-bit.

    Quartiles come from the grouped-quantile kernel (one coarse exchange);
    the per-group fence table is broadcast once via ray.put and the filter
    streams — outlier detection never re-shuffles the fact table."""
    import ray

    from opentapioca_ray.stages.aggregates import grouped_quantiles

    def to_units(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or value_column not in batch.column_names:
            return pa.schema(
                [
                    (id_column, pa.int64()),
                    (group_column, pa.string()),
                    ("v_u", pa.int64()),
                ]
            ).empty_table()
        v = np.round(
            batch.column(value_column).to_numpy(zero_copy_only=False)
            * float(scale)
        ).astype(np.int64)
        return pa.table(
            {
                id_column: batch.column(id_column),
                group_column: batch.column(group_column),
                "v_u": pa.array(v),
            }
        )

    units = ds.select_columns(
        [id_column, group_column, value_column]
    ).map_batches(to_units, batch_format="pyarrow").materialize()

    q = grouped_quantiles(units, group_column, "v_u", [0.25, 0.75]).to_pandas()
    if q.empty:
        return units.map_batches(
            lambda b: pa.schema(
                [
                    (id_column, pa.int64()),
                    (group_column, pa.string()),
                    ("v_u", pa.int64()),
                ]
            ).empty_table(),
            batch_format="pyarrow",
        )
    piv = q.pivot_table(
        index=group_column, columns="p_e4", values="value", aggfunc="first"
    )
    groups = piv.index.to_numpy()
    order = np.argsort(groups)
    q1 = piv[2500].to_numpy(dtype=np.int64)[order]
    q3 = piv[7500].to_numpy(dtype=np.int64)[order]
    groups = groups[order]
    lo2 = 2 * q1 - k_halves * (q3 - q1)  # fences in doubled units
    hi2 = 2 * q3 + k_halves * (q3 - q1)
    fence_ref = ray.put((groups, lo2, hi2))

    def outlier_filter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return batch
        g_sorted, lo, hi = ray.get(fence_ref)
        g = batch.column(group_column).to_numpy(zero_copy_only=False)
        v2 = 2 * batch.column("v_u").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(g_sorted, g)
        keep = (v2 < lo[pos]) | (v2 > hi[pos])
        return batch.filter(pa.array(keep))

    return units.map_batches(outlier_filter, batch_format="pyarrow")


def profile_columns(ds, columns: list[str]):
    """Per-column profile: (column, n_null, n_distinct, min_v, max_v) with
    min/max compared as strings (values are stringified with str(), so use
    int/string columns for cross-engine parity — float formatting differs
    between engines).

    Combiner emits per-block DISTINCT (column, value, count, n_null) rows;
    ONE coarse exchange on the column name merges them. Exchange volume is
    the distinct-value cardinality, never the row count."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def partial(batch: pa.Table) -> pa.Table:
        out_c, out_v, out_n, out_nulls = [], [], [], []
        if batch.num_rows:
            for col in columns:
                if col not in batch.column_names:
                    continue
                arr = batch.column(col)
                n_null = int(arr.null_count)
                vals = arr.drop_null().to_numpy(zero_copy_only=False)
                svals = np.array([str(x) for x in vals], dtype=object)
                uniq, cnt = np.unique(svals, return_counts=True)
                out_c.append(np.full(len(uniq), col, dtype=object))
                out_v.append(uniq)
                out_n.append(cnt.astype(np.int64))
                # carry the block's null count on the first row (0 rows ->
                # a dedicated null-only marker row)
                nn = np.zeros(len(uniq), dtype=np.int64)
                if len(nn):
                    nn[0] = n_null
                    out_nulls.append(nn)
                else:
                    out_c.append(np.array([col], dtype=object))
                    out_v.append(np.array([None], dtype=object))
                    out_n.append(np.zeros(1, dtype=np.int64))
                    out_nulls.append(np.array([n_null], dtype=np.int64))
        if not out_c:
            return pa.schema(
                [
                    ("column", pa.string()),
                    ("value", pa.string()),
                    ("_n", pa.int64()),
                    ("_nulls", pa.int64()),
                ]
            ).empty_table()
        return pa.table(
            {
                "column": pa.array(np.concatenate(out_c), type=pa.string()),
                "value": pa.array(np.concatenate(out_v), type=pa.string()),
                "_n": pa.array(np.concatenate(out_n)),
                "_nulls": pa.array(np.concatenate(out_nulls)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "column": pd.Series(dtype=object),
                "n_null": pd.Series(dtype=np.int64),
                "n_distinct": pd.Series(dtype=np.int64),
                "min_v": pd.Series(dtype=object),
                "max_v": pd.Series(dtype=object),
            }
        )
        if df.empty or "column" not in df.columns:
            return empty
        cols = df["column"].to_numpy()
        vals = df["value"].to_numpy()
        nulls = df["_nulls"].to_numpy(dtype=np.int64)
        real = pd.notna(vals)
        out = []
        for c in np.unique(cols):
            m = cols == c
            vs = np.unique(vals[m & real].astype(str)) if (m & real).any() else None
            out.append(
                {
                    "column": c,
                    "n_null": int(nulls[m].sum()),
                    "n_distinct": 0 if vs is None else len(vs),
                    "min_v": None if vs is None else vs[0],
                    "max_v": None if vs is None else vs[-1],
                }
            )
        return pd.DataFrame(out)

    return coarse_group_apply(partials, "column", merge_partition)


def k_anonymity_violations(ds, quasi_columns: list[str], k: int = 10):
    """Privacy audit: quasi-identifier combinations held by FEWER than `k`
    rows (the re-identifiable slices a release gate must suppress or
    generalize; Sweeney 2002). Output: one row per violating combo with its
    group size.

    Combiner-first: per-block distinct combo counts merge in one coarse
    exchange; the fact table never moves."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count

    combos = partial_multi_sum_count(
        ds.select_columns(quasi_columns), quasi_columns, [], alias={"count": "n"}
    )

    def violating(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n" not in batch.column_names:
            return batch
        return batch.filter(pc.less(batch.column("n"), k))

    return combos.map_batches(violating, batch_format="pyarrow")


def pareto_count(
    ds,
    group_column: str,
    member_column: str,
    value_column: str,
    scale: int = 100,
    num: int = 4,
    den: int = 5,
):
    """Concentration audit ("how many members make num/den of the
    value"): per group, the minimum number of members whose summed value
    (in exact `1/scale` units, members ranked by value desc then id)
    reaches num/den of the group total — plus the member count and total.
    The reach test is pure integer cross-multiplication
    (den * cum >= num * total), so SQL pins it exactly.

    Two stages, both slim: a combiner reduces to per-(group, member)
    sums, then ONE coarse exchange on the group ranks all of a
    partition's groups in a single lexsort + segment scan."""
    import pandas as pd

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def to_units(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or value_column not in batch.column_names:
            return pa.schema(
                [
                    (group_column, pa.string()),
                    (member_column, pa.int64()),
                    ("v_u", pa.int64()),
                ]
            ).empty_table()
        v = np.round(
            batch.column(value_column).to_numpy(zero_copy_only=False)
            * float(scale)
        ).astype(np.int64)
        return pa.table(
            {
                group_column: batch.column(group_column),
                member_column: batch.column(member_column),
                "v_u": pa.array(v),
            }
        )

    units = ds.select_columns(
        [group_column, member_column, value_column]
    ).map_batches(to_units, batch_format="pyarrow")
    per_member = partial_multi_sum_count(
        units, [group_column, member_column], ["v_u"], alias={"v_u": "mv"}
    )

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                group_column: pd.Series(dtype=object),
                "n_top": pd.Series(dtype=np.int64),
                "n_members": pd.Series(dtype=np.int64),
                "total_units": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or group_column not in df.columns:
            return empty
        g = df[group_column].to_numpy()
        m = df[member_column].to_numpy(dtype=np.int64)
        v = df["mv"].to_numpy(dtype=np.int64)
        _, gcodes = np.unique(g, return_inverse=True)
        # rank by value DESC then member id ASC within each group
        order = np.lexsort((m, -v, gcodes))
        g, gcodes, v = g[order], gcodes[order], v[order]
        new = np.concatenate(([True], gcodes[1:] != gcodes[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        n_seg = len(starts)
        sizes = np.diff(np.concatenate((starts, [len(g)])))
        totals = np.bincount(seg, weights=v, minlength=n_seg).astype(np.int64)
        cum = np.cumsum(v)
        base = np.concatenate(
            (np.zeros(1, dtype=np.int64), cum[starts[1:] - 1])
        )
        cum_in = cum - base[seg]
        # EARLIEST rank per group reaching den*cum >= num*total — the true
        # min-over-reach-set (SQL's MIN(CASE WHEN ... THEN rn END)), correct
        # even when negative member values make the cumulative sum
        # non-monotonic (a miss COUNT would diverge there). Groups where no
        # rank reaches (possible only with a negative total) fall back to
        # n_members; the SQL twin yields NULL for those.
        pos_in = np.arange(len(g), dtype=np.int64) - starts[seg]
        reached = den * cum_in >= num * totals[seg]
        cand = np.where(reached, pos_in, sizes[seg] - 1)
        n_top = np.minimum.reduceat(cand, starts).astype(np.int64) + 1
        return pd.DataFrame(
            {
                group_column: g[starts],
                "n_top": n_top,
                "n_members": sizes.astype(np.int64),
                "total_units": totals,
            }
        )

    return coarse_group_apply(per_member, group_column, rank_partition)


def _serialize_rows(batch: pa.Table, columns: list[str], sep: str):
    """One C-level pass: cast each column to string and element-wise join.
    Non-int/string types keep the historical Python str() fallback so the
    serialization (and therefore the digest) never changes."""
    import pyarrow.compute as pc

    cols = []
    for c in columns:
        col = batch.column(c).combine_chunks()
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            cols.append(col)
        elif pa.types.is_integer(col.type):
            cols.append(pc.cast(col, pa.string()))
        else:
            cols.append(
                pa.array(
                    [str(x) for x in col.to_numpy(zero_copy_only=False)],
                    type=pa.string(),
                )
            )
    return cols[0] if len(cols) == 1 else pc.binary_join_element_wise(*cols, sep)


def _row_md5_u64(joined) -> np.ndarray:
    """Big-endian first 8 md5 bytes per row of a string/binary Arrow array,
    as a uint64 numpy vector.

    The md5-per-row digest choice is pinned by parity with the DuckDB
    oracle's md5(); what IS ours to optimize is the per-row Python around
    it: memoryview slices over the single Arrow data buffer (no per-row
    bytes allocation via to_pylist), one join of FULL digests + a strided
    frombuffer view (no per-row [:8] slice). Micro-bench, 1M ~20-byte
    rows, single core: 1.51 s (to_pylist + digest[:8]) -> 0.87 s (this) =
    1.73x. The remaining floor is hashlib's per-call C overhead
    (~0.9 µs/row, GIL held for sub-2 KiB inputs) — past that the operator
    scales by DISTRIBUTION (the loop runs per batch across the cluster),
    not by the kernel; an md5 without per-call object setup isn't
    available in-sandbox."""
    import hashlib

    import pyarrow.compute as pc

    arr = pc.cast(joined, pa.binary())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    off = arr.offset
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32, count=n + 1 + off)[
        off:
    ]
    data = memoryview(arr.buffers()[2] or b"")
    md5 = hashlib.md5
    dig = b"".join(
        [
            md5(data[s:e]).digest()
            for s, e in zip(offs[:-1].tolist(), offs[1:].tolist())
        ]
    )
    return np.frombuffer(dig, dtype=">u8")[::2].astype(np.uint64)


def table_checksum(ds, columns: list[str], sep: str = "|"):
    """Order-independent content checksum of a table: the mod-2^64 sum of
    the big-endian first 8 md5 bytes of each row's `sep`-joined string
    serialization. Two snapshots are content-identical iff their checksums
    match — the O(1)-state integrity primitive behind snapshot
    reconciliation (`snapshot_diff` tells you WHAT changed; this tells you
    WHETHER, at a millionth of the cost). Addition is commutative, so the
    checksum is partition-order-invariant by construction.

    Pure map + driver sum of one uint64 per block — no exchange at all.
    Returns a 1-row table (hi, lo): the 64-bit sum split into two int64s
    so SQL HUGEINT arithmetic pins it exactly."""
    import hashlib

    import pyarrow.compute as pc
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or columns[0] not in batch.column_names:
            return pa.table({"_psum": pa.array([], type=pa.uint64())})
        hv = _row_md5_u64(_serialize_rows(batch, columns, sep))
        with np.errstate(over="ignore"):
            s = np.uint64(hv.sum(dtype=np.uint64))
        return pa.table({"_psum": pa.array([s], type=pa.uint64())})

    total = np.uint64(0)
    partials = ds.select_columns(columns).map_batches(
        partial, batch_format="pyarrow"
    )
    for t in arrow_blocks(partials):
        if t.num_rows == 0 or "_psum" not in t.column_names:
            continue
        vals = t.column("_psum").to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            total = np.uint64(total + np.uint64(vals.sum(dtype=np.uint64)))
    total_int = int(total)
    return pa.table(
        {
            "hi": pa.array([total_int >> 32], type=pa.int64()),
            "lo": pa.array([total_int & 0xFFFFFFFF], type=pa.int64()),
        }
    )


def bucketed_checksums(
    ds,
    key_column: str,
    columns: list[str],
    bucket_width: int,
    sep: str = "|",
):
    """Range-bucketed content checksums — the Merkle level below
    `table_checksum`: one order-independent mod-2^64 digest sum per
    key-range bucket (key // bucket_width), so two replicas that disagree
    can localize WHICH key ranges diverged and re-sync only those — the
    anti-entropy primitive for 100TB snapshot reconciliation (level 0:
    whole-table checksum; this: per-range; `snapshot_diff`: per-row).

    Row serialization and digest convention are identical to
    `table_checksum` (md5 first-8-bytes big-endian). Per-batch partials
    carry split 32-bit half-sums (overflow-free for < 2^32 rows/bucket);
    ONE tiny combiner-first exchange on the bucket id merges them.
    Returns (bucket, hi, lo) with the same hi/lo split as the 1-row op."""
    import hashlib

    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    part_schema = pa.schema(
        [("bucket", pa.int64()), ("hsum", pa.int64()), ("lsum", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return part_schema.empty_table()
        # serialization + digest kernel shared with table_checksum (see
        # _row_md5_u64 for the measured per-row md5 ceiling)
        hv = _row_md5_u64(_serialize_rows(batch, columns, sep))
        keys = batch.column(key_column).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        bucket = keys // np.int64(bucket_width)
        ub, inv = np.unique(bucket, return_inverse=True)
        hi = (hv >> np.uint64(32)).astype(np.int64)
        lo = (hv & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(ub),
                "hsum": pa.array(np.bincount(inv, weights=hi).astype(np.int64)),
                "lsum": pa.array(np.bincount(inv, weights=lo).astype(np.int64)),
            }
        )

    merged = coarse_groupby_agg(
        ds.select_columns(list({key_column, *columns})).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["bucket"],
        {"hsum": ("hsum", "sum"), "lsum": ("lsum", "sum")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("bucket", pa.int64()), ("hi", pa.int64()), ("lo", pa.int64())]
        )
        if batch.num_rows == 0 or "bucket" not in batch.column_names:
            return schema.empty_table()
        hsum = batch.column("hsum").to_numpy(zero_copy_only=False).astype(object)
        lsum = batch.column("lsum").to_numpy(zero_copy_only=False).astype(object)
        # exact big-int reassembly mod 2^64, then the hi/lo 32-bit split
        tot = [((int(h) << 32) + int(l)) % (1 << 64) for h, l in zip(hsum, lsum)]
        return pa.table(
            {
                "bucket": batch.column("bucket").cast(pa.int64()),
                "hi": pa.array([t >> 32 for t in tot], pa.int64()),
                "lo": pa.array([t & 0xFFFFFFFF for t in tot], pa.int64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def token_kl_drift(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    n_parts: int | None = None,
):
    """Corpus drift detector: KL(first half || second half) between the
    token distributions of the two doc-id-parity halves, add-1 smoothed
    over the union vocabulary. Per-token contributions are quantized to
    int64 micro-nats BEFORE the final sum, so both engines sum integers
    and the result is exact despite the float log — the same fixed-point
    discipline as the entropy/PMI operators (a raw float SUM would be
    accumulation-order-dependent and unverifiable).

    Scale shape: token explosion is a stateless map; ONE combiner-first
    exchange builds (word, c0, c1); totals are O(blocks) driver partials;
    per-token contributions need no second exchange (each word row is
    already whole); the final roll-up is one int64 partial per block.
    Returns one row (v, t0, t1, kl_e6)."""
    from opentapioca_ray.functions.text import tokenize_flat
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    tok_schema = pa.schema([("w", pa.string()), ("half", pa.int64())])

    def tokens(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or text_column not in batch.column_names:
            return tok_schema.empty_table()
        texts = batch.column(text_column).to_pylist()
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        flat, counts = tokenize_flat([t or "" for t in texts])
        halves = np.repeat(ids % 2, counts)
        return pa.table(
            {
                "w": pa.array(flat.astype(object), type=pa.string()),
                "half": pa.array(halves),
            }
        )

    tok = ds.select_columns([id_column, text_column]).map_batches(
        tokens, batch_format="pyarrow"
    )

    def split_counts(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("w", pa.string()), ("c0", pa.int64()), ("c1", pa.int64())]
        )
        if batch.num_rows == 0 or "w" not in batch.column_names:
            return schema.empty_table()
        h = batch.column("half").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        return pa.table(
            {
                "w": batch.column("w"),
                "c0": pa.array((h == 0).astype(np.int64)),
                "c1": pa.array((h == 1).astype(np.int64)),
            }
        )

    counts = coarse_groupby_agg(
        tok.map_batches(split_counts, batch_format="pyarrow"),
        ["w"],
        {"c0": ("c0", "sum"), "c1": ("c1", "sum")},
        n_parts=n_parts,
    ).materialize()

    # totals: O(blocks) driver partials over the aggregated (vocab-sized) table
    t0 = t1 = v = 0
    for t in arrow_blocks(counts.map_batches(
        lambda b: pa.table(
            {
                "t0": pa.array(
                    [int(b.column("c0").to_numpy(zero_copy_only=False).sum())]
                    if b.num_rows and "c0" in b.column_names
                    else [],
                    pa.int64(),
                ),
                "t1": pa.array(
                    [int(b.column("c1").to_numpy(zero_copy_only=False).sum())]
                    if b.num_rows and "c0" in b.column_names
                    else [],
                    pa.int64(),
                ),
                "v": pa.array(
                    [b.num_rows] if b.num_rows and "c0" in b.column_names else [],
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )):
        if t.num_rows:
            t0 += int(t.column("t0").to_numpy().sum())
            t1 += int(t.column("t1").to_numpy().sum())
            v += int(t.column("v").to_numpy().sum())

    def contrib(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("e", pa.int64())])
        if batch.num_rows == 0 or "c0" not in batch.column_names:
            return schema.empty_table()
        c0 = batch.column("c0").to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = batch.column("c1").to_numpy(zero_copy_only=False).astype(np.float64)
        p0 = (c0 + 1.0) / float(t0 + v)
        p1 = (c1 + 1.0) / float(t1 + v)
        e = np.floor(1_000_000.0 * p0 * np.log(p0 / p1) + 0.5).astype(np.int64)
        return pa.table({"e": pa.array([int(e.sum())], pa.int64())})

    kl = 0
    for t in arrow_blocks(counts.map_batches(contrib, batch_format="pyarrow")):
        if t.num_rows:
            kl += int(t.column("e").to_numpy().sum())

    return driver_dataset(
        pa.table(
            {
                "v": pa.array([v], pa.int64()),
                "t0": pa.array([t0], pa.int64()),
                "t1": pa.array([t1], pa.int64()),
                "kl_e6": pa.array([kl], pa.int64()),
            }
        )
    )


def l_diversity_violations(
    ds, quasi_columns: list[str], sensitive_column: str, l: int = 3
):
    """Privacy audit one step past k-anonymity (Machanavajjhala et al.
    2007): quasi-identifier combos whose SENSITIVE attribute takes fewer
    than `l` distinct values — a homogeneous group leaks the attribute
    even when the group is large. Output: one row per violating combo
    with its row count `k` and distinct-sensitive count `l`.

    Two combiner-first reductions: per-block distinct
    (quasi..., sensitive) counts merge in one coarse exchange, then the
    combo table (O(distinct combos), far smaller than the facts) rolls up
    per quasi combo. The fact table never moves."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    pairs = partial_multi_sum_count(
        ds.select_columns([*quasi_columns, sensitive_column]),
        [*quasi_columns, sensitive_column],
        [],
        alias={"count": "n"},
    )
    rolled = coarse_groupby_agg(
        pairs,
        list(quasi_columns),
        {"k": ("n", "sum"), "l": ("n", "size")},
    )

    def violating(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l" not in batch.column_names:
            return batch
        t = batch.filter(pc.less(batch.column("l"), l))
        return pa.table(
            {
                **{c: t.column(c) for c in quasi_columns},
                "k": t.column("k").cast(pa.int64()),
                "l": t.column("l").cast(pa.int64()),
            }
        )

    return rolled.map_batches(violating, batch_format="pyarrow")


def fd_profile(ds, columns: list[str]):
    """TANE-style single-column functional-dependency discovery over the
    given columns: for every ordered pair (A, B), A -> B holds iff the
    distinct (A, B) combo count equals the distinct A count; the gap is
    the violation mass (Huhtala et al. 1999, level 1 of the lattice).
    Output: (lhs, rhs, n_lhs, n_pairs, violations, holds) per ordered
    pair — the schema-profiling pass run before choosing merge keys.

    One combiner-deduped count per column and per unordered pair —
    O(m^2) scalar aggregates, each a `partial_multi_sum_count` whose
    exchange carries only distinct combos; the facts never move."""
    import itertools

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count

    ds = ds.select_columns(list(columns)).materialize()
    col_distinct = {
        c: partial_multi_sum_count(ds.select_columns([c]), [c], []).count()
        for c in columns
    }
    pair_distinct = {}
    for a, b in itertools.combinations(columns, 2):
        pair_distinct[(a, b)] = partial_multi_sum_count(
            ds.select_columns([a, b]), [a, b], []
        ).count()
    rows = []
    for a, b in itertools.permutations(columns, 2):
        np_ = pair_distinct.get((a, b)) or pair_distinct[(b, a)]
        nl = col_distinct[a]
        rows.append((a, b, nl, np_, np_ - nl, int(np_ == nl)))
    return driver_dataset(
        pa.table(
            {
                "lhs": pa.array([r[0] for r in rows], pa.string()),
                "rhs": pa.array([r[1] for r in rows], pa.string()),
                "n_lhs": pa.array([r[2] for r in rows], pa.int64()),
                "n_pairs": pa.array([r[3] for r in rows], pa.int64()),
                "violations": pa.array([r[4] for r in rows], pa.int64()),
                "holds": pa.array([r[5] for r in rows], pa.int64()),
            }
        )
    )


def t_closeness(
    ds,
    quasi_columns: list[str],
    band_column: str,
    n_parts=None,
):
    """t-closeness (Li, Li & Venkatasubramanian 2007), completing the
    k-anonymity / l-diversity privacy trio: per quasi-identifier group,
    the Earth Mover's Distance between the group's ORDERED sensitive-band
    distribution and the global one — EMD = (1/(m-1)) * sum_i
    |cum_g(i)/n_g - cum_all(i)/N| over the m global bands. The sum is
    kept EXACT by cross-multiplying the rationals
    (|cum_g * N - cum_all * n_g| in Python ints, no overflow bound), and
    only the final per-group EMD quantizes once to integer millionths.
    Output: one row per quasi group (quasi..., n, t_e6).

    Shape: one combiner over (quasi..., band) counts, the m-row global
    band histogram broadcast (bands are bounded by construction), one
    group-keyed exchange whose kernel walks each group's aligned
    cumulative gap."""
    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    cells = partial_multi_sum_count(
        ds.select_columns([*quasi_columns, band_column]),
        [*quasi_columns, band_column],
        [],
        alias={"count": "c"},
    ).materialize()

    # global band histogram: bounded by distinct bands
    gb: dict[int, int] = {}
    for t in arrow_blocks(cells):
        if t.num_rows == 0 or band_column not in t.column_names:
            continue
        for b, c in zip(
            t.column(band_column).to_pylist(), t.column("c").to_pylist()
        ):
            gb[int(b)] = gb.get(int(b), 0) + int(c)
    out_schema = pa.schema(
        [*[(c, pa.int64()) for c in quasi_columns], ("n", pa.int64()),
         ("t_e6", pa.int64())]
    )
    if not gb:
        return driver_dataset(out_schema.empty_table())
    bands = np.array(sorted(gb), dtype=np.int64)
    gcounts = np.array([gb[int(b)] for b in bands], dtype=np.int64)
    gcum = np.cumsum(gcounts)
    n_total = int(gcum[-1])
    m = len(bands)

    # composite group key for the exchange
    def add_key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0 or band_column not in batch.column_names:
            return batch
        parts = [pc.cast(batch.column(c), pa.string()) for c in quasi_columns]
        key = parts[0]
        for p in parts[1:]:
            key = pc.binary_join_element_wise(key, p, "\x1f")
        return batch.append_column("__gkey", key)

    keyed = cells.map_batches(add_key, batch_format="pyarrow")

    def emd_partition(df: pd.DataFrame) -> pd.DataFrame:
        cols = [*quasi_columns, "n", "t_e6"]
        if df.empty or "__gkey" not in df.columns:
            return pd.DataFrame(
                {
                    **{c: pd.Series(dtype=object) for c in quasi_columns},
                    "n": pd.Series(dtype=np.int64),
                    "t_e6": pd.Series(dtype=np.int64),
                }
            )
        keys = df["__gkey"].to_numpy()
        b = df[band_column].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        _, kcodes = np.unique(keys, return_inverse=True)
        order = np.lexsort((b, kcodes))
        kcodes, b, c = kcodes[order], b[order], c[order]
        idx_sorted = np.arange(len(kcodes))[order]
        starts = np.flatnonzero(
            np.concatenate(([True], kcodes[1:] != kcodes[:-1]))
        )
        ends = np.append(starts[1:], len(kcodes))
        rows = []
        orig = df.iloc[order].reset_index(drop=True)
        for s, e in zip(starts, ends):
            dense = np.zeros(m, dtype=np.int64)
            pos = np.searchsorted(bands, b[s:e])
            dense[pos] = c[s:e]
            cumg = np.cumsum(dense)
            ng = int(cumg[-1])
            S = sum(
                abs(int(cumg[i]) * n_total - int(gcum[i]) * ng)
                for i in range(m)
            )
            denom = float(ng) * float(n_total) * float(m - 1)
            t_e6 = (
                int(np.floor(S * 1_000_000.0 / denom + 0.5)) if m > 1 else 0
            )
            rows.append(
                (*[orig.iloc[s][qc] for qc in quasi_columns], ng, t_e6)
            )
        return pd.DataFrame(rows, columns=cols)

    return coarse_group_apply(keyed, "__gkey", emd_partition, n_parts=n_parts)
