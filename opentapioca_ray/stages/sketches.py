"""Mergeable sketches for when exact answers stop fitting.

`distinct_count` (stages/aggregates.py) is exact but its exchange volume is
the number of DISTINCT (group, value) pairs — at 100 TB that can itself be
the bottleneck. The KMV (K-minimum-values) sketch bounds the exchange at
K rows per (group, block): keep the K smallest 64-bit hashes of the values;
the K-th smallest hash h estimates the distinct count as
(K-1) * 2^64 / h (Bar-Yossef et al., RANDOM'02). The sketch is a true
combiner — merging two sketches is "union, keep K smallest" — so it
composes with the same coarse-exchange machinery as every other aggregate
here. Relative error ~ 1/sqrt(K-2) (~6% at K=256).

Hashes are the big-endian first 8 bytes of md5(str(value)) — the same
convention as simhash/hash_sample — which makes the DuckDB oracle EXACT:
the SQL twin recomputes the identical sketch via
('0x' || substr(md5(v::VARCHAR), 1, 16))::UBIGINT, so the driver checks a
hash match, not an accuracy band. Groups with fewer than K distinct values
report their exact count (the sketch holds every hash).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

_TWO64 = 18446744073709551616.0  # 2^64, exact in float64


def _md5_u64(values: np.ndarray) -> np.ndarray:
    """Big-endian first 8 md5 digest bytes of str(value), as uint64 —
    hashed once per DISTINCT value in the batch (md5 is the cost center)."""
    uniq, inv = np.unique(values.astype(str), return_inverse=True)
    digests = b"".join(hashlib.md5(s.encode("utf-8")).digest()[:8] for s in uniq)
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)[inv]


def _k_smallest(g: np.ndarray, hv: np.ndarray, k: int):
    """Per-group K smallest DISTINCT hashes of (group, hash) rows.
    Returns (g, hv) filtered, sorted by (g, hv) — one vectorized pass."""
    order = np.lexsort((hv, g))
    g, hv = g[order], hv[order]
    keep = np.concatenate(([True], (g[1:] != g[:-1]) | (hv[1:] != hv[:-1])))
    g, hv = g[keep], hv[keep]
    new = np.concatenate(([True], g[1:] != g[:-1]))
    seg_start = np.flatnonzero(new)
    seg_id = np.cumsum(new) - 1
    pos = np.arange(len(g), dtype=np.int64) - seg_start[seg_id]
    mask = pos < k
    return g[mask], hv[mask]


def approx_distinct(
    ds,
    group_column: str,
    value_column: str,
    k: int = 256,
    alias: str = "n_approx",
):
    """Approximate COUNT(DISTINCT value) per group via a KMV sketch:
    per-batch partial sketch (combiner, <= k rows per group per block),
    ONE coarse exchange on the group key, per-partition sketch merge +
    estimate. Deterministic — the DuckDB twin reproduces it bit-for-bit."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return pa.table(
                {
                    group_column: pa.array([], type=pa.string()),
                    "_hv": pa.array([], type=pa.uint64()),
                }
            )
        g = batch.column(group_column).to_numpy(zero_copy_only=False)
        vals = batch.column(value_column).to_numpy(zero_copy_only=False)
        hv = _md5_u64(vals)
        g2, hv2 = _k_smallest(g, hv, k)
        return pa.table(
            {
                group_column: pa.array(g2.astype(str)),
                "_hv": pa.array(hv2, type=pa.uint64()),
            }
        )

    partials = ds.select_columns([group_column, value_column]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {group_column: pd.Series(dtype=object), alias: pd.Series(dtype=np.int64)}
        )
        if df.empty or group_column not in df.columns:
            return empty
        g = df[group_column].to_numpy()
        hv = df["_hv"].to_numpy(dtype=np.uint64)
        g2, hv2 = _k_smallest(g, hv, k)
        if len(g2) == 0:
            return empty
        new = np.concatenate(([True], g2[1:] != g2[:-1]))
        seg_start = np.flatnonzero(new)
        seg_end = np.concatenate((seg_start[1:], [len(g2)]))
        m = seg_end - seg_start
        kth = hv2[seg_end - 1].astype(np.float64)  # K-th smallest when m == k
        # operand order mirrors the SQL twin exactly: (k-1) * 2^64 / kth,
        # then half-up via floor(x + 0.5) (numpy round is half-even, SQL
        # round is half-away — floor(+0.5) is the portable spelling)
        est = np.floor((k - 1) * _TWO64 / kth + 0.5)
        n = np.where(m < k, m.astype(np.float64), est).astype(np.int64)
        return pd.DataFrame({group_column: g2[seg_start], alias: n})

    return coarse_group_apply(partials, group_column, finalize)


def heavy_hitters(ds, column: str, phi: float = 0.01, slack: float = 2.0):
    """EXACT phi-heavy hitters (items with count > phi * N) found with a
    bounded candidate pass: each block summarizes its items with a
    Misra-Gries sketch of k = ceil(slack / phi) counters (Misra & Gries
    1982; mergeable-summaries guarantee, Agarwal et al. PODS'12: summing MG
    counters preserves the count-undercounts-by-at-most-N/k property), so
    every true heavy hitter survives into the candidate set no matter how
    its occurrences are spread across blocks. Exchange volume is k rows per
    block, NOT the per-block distinct count.

    Pass 2 broadcasts the (tiny) candidate set and takes exact counts for
    candidates only, plus the exact total N, then filters count > phi * N.
    The answer is therefore EXACT and SQL-oracle-checkable (GROUP BY +
    HAVING count > phi * N); the sketch only bounds the candidate volume.

    Returns (item, count) rows."""
    import ray

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    k = max(8, int(np.ceil(slack / phi)))

    def mg_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or column not in batch.column_names:
            return pa.schema(
                [("item", pa.string()), ("mg", pa.int64())]
            ).empty_table()
        vals = batch.column(column).to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(vals.astype(str), return_counts=True)
        if len(uniq) > k:
            # MG decrement in one shot: subtract the (k+1)-th largest count
            # from everything, keep positive survivors (equivalent to
            # repeated decrement-all-by-one rounds)
            thresh = np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1]
            keep = counts > thresh
            uniq, counts = uniq[keep], counts[keep] - thresh
        return pa.table(
            {
                "item": pa.array(uniq, type=pa.string()),
                "mg": pa.array(counts.astype(np.int64)),
            }
        )

    partials = ds.map_batches(mg_partial, batch_format="pyarrow").materialize()
    # merged MG counters (sum) — k-bounded per block, tiny after merge
    merged = coarse_groupby_agg(partials, ["item"], {"mg": ("mg", "sum")})
    cand_chunks = []
    # exact corpus total: one row per occurrence by contract
    total_n = ds.count()
    for t in arrow_blocks(merged):
        if t.num_rows == 0 or "item" not in t.column_names:
            continue
        mg = t.column("mg").to_numpy(zero_copy_only=False)
        items = t.column("item").to_numpy(zero_copy_only=False)
        cand_chunks.append(items[mg > 0])
    if not cand_chunks or total_n == 0:
        return driver_dataset(
            pa.schema([("item", pa.string()), ("count", pa.int64())]).empty_table()
        )
    cand = np.unique(np.concatenate(cand_chunks))
    cand_ref = ray.put(pa.array(cand, type=pa.string()))

    def exact_partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0 or column not in batch.column_names:
            return pa.schema(
                [("item", pa.string()), ("count", pa.int64())]
            ).empty_table()
        col = pa.array(
            batch.column(column).to_numpy(zero_copy_only=False).astype(str),
            type=pa.string(),
        )
        mask = pc.is_in(col, value_set=ray.get(cand_ref))
        vals = col.filter(mask)
        if len(vals) == 0:
            return pa.schema(
                [("item", pa.string()), ("count", pa.int64())]
            ).empty_table()
        uniq, counts = np.unique(
            vals.to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "item": pa.array(uniq, type=pa.string()),
                "count": pa.array(counts.astype(np.int64)),
            }
        )

    exact = coarse_groupby_agg(
        ds.map_batches(exact_partial, batch_format="pyarrow"),
        ["item"],
        {"count": ("count", "sum")},
    )
    cut = phi * total_n

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "count" not in batch.column_names:
            return pa.schema(
                [("item", pa.string()), ("count", pa.int64())]
            ).empty_table()
        c = batch.column("count").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(c > cut)).select(["item", "count"])

    return exact.map_batches(finish, batch_format="pyarrow")


_HLL_ALPHA_256 = 0.7213 / (1.0 + 1.079 / 256.0)


def hll_distinct(ds, group_column: str, value_column: str, n_parts=None):
    """HyperLogLog distinct sketch per group (Flajolet et al. 2007),
    p=8 / 256 registers, over the SAME deterministic md5-u64 hash as the
    KMV sketch so the DuckDB twin reproduces every register exactly:
    register = hv >> 56, rho = 57 - bit_length(low 56 bits) (57 when 0).
    Per-batch combiner emits (group, register, max rho) partials — at most
    256 rows per (group, block) regardless of input volume; one tiny merge,
    then the standard estimator with the small-range (linear counting)
    correction. Output: (group, n_registers_zero, sum_rho,
    hll_estimate_e2) — the register state is pure integers, and the raw
    estimate's harmonic sum is carried as the EXACT integer
    T = sum(2^(57-rho)) (Python int here, HUGEINT in the SQL twin) so the
    only float ops are a fixed left-to-right expression both engines
    evaluate identically; only the final estimate is quantized
    (centi-units)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                (group_column, pa.string()),
                ("reg", pa.int64()),
                ("_rho", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or group_column not in batch.column_names:
            return schema.empty_table()
        g = batch.column(group_column).to_numpy(zero_copy_only=False)
        hv = _md5_u64(batch.column(value_column).to_numpy(zero_copy_only=False))
        reg = (hv >> np.uint64(56)).astype(np.int64)
        suffix = hv & np.uint64((1 << 56) - 1)
        # rho = 57 - bit_length(suffix), bit_length(0) = 0 -> rho 57.
        # bit_length computed EXACTLY by threshold counting (float log2 is
        # unsafe for 56-bit ints): bit_length(x) = #{b in 0..55 : x >= 2^b}
        pows = (np.uint64(1) << np.arange(56, dtype=np.uint64))[None, :]
        nbits = (suffix[:, None] >= pows).sum(axis=1).astype(np.int64)
        rho = 57 - nbits
        t = pa.table(
            {group_column: pa.array(g.astype(object), type=pa.string()),
             "reg": pa.array(reg), "rho": pa.array(rho)}
        )
        out = pa.TableGroupBy(t, [group_column, "reg"]).aggregate([("rho", "max")])
        return out.rename_columns([group_column, "reg", "_rho"])

    regs = coarse_groupby_agg(
        ds.select_columns([group_column, value_column]).map_batches(
            partial, batch_format="pyarrow"
        ),
        [group_column, "reg"],
        {"max_rho": ("_rho", "max")},
        n_parts=n_parts,
    )

    def estimate(df):
        import pandas as pd

        cols = {
            group_column: pd.Series(dtype=object),
            "n_registers_zero": pd.Series(dtype=np.int64),
            "sum_rho": pd.Series(dtype=np.int64),
            "hll_estimate_e2": pd.Series(dtype=np.int64),
        }
        if df.empty:
            return pd.DataFrame(cols)
        rows = []
        m = 256
        for gval, grp in df.groupby(group_column, sort=True):
            M = np.zeros(m, dtype=np.int64)
            M[grp["reg"].to_numpy(dtype=np.int64)] = grp["max_rho"].to_numpy(
                dtype=np.int64
            )
            v = int((M == 0).sum())
            # harmonic sum scaled by 2^57: T = sum(2^(57-rho)) is an EXACT
            # integer (rho <= 57), immune to float summation order — the
            # one divergence channel between numpy and the SQL twin. The
            # estimate is then ONE fixed float expression, evaluated
            # left-to-right identically here and in DuckDB.
            t = sum(1 << (57 - int(r)) for r in M)
            e = _HLL_ALPHA_256 * 65536.0 * 144115188075855872.0 / float(t)
            if e <= 2.5 * m and v > 0:
                e = 256.0 * math.log(256.0 / v)
            rows.append(
                {
                    group_column: gval,
                    "n_registers_zero": v,
                    "sum_rho": int(M.sum()),
                    "hll_estimate_e2": int(np.floor(e * 100.0 + 0.5)),
                }
            )
        return pd.DataFrame(rows)

    from opentapioca_ray.stages.exchange import coarse_group_apply

    return coarse_group_apply(regs, group_column, estimate, n_parts=n_parts)


def count_min_sketch(
    ds,
    column: str,
    depth: int = 4,
    width: int = 64,
    n_parts=None,
):
    """Count-min sketch (Cormode & Muthukrishnan, 2005): `depth` hash rows
    x `width` counters; item frequency estimate = min over rows of the
    counter at h_j(item). Overestimates only (collisions add), never
    under — the point-query workhorse when exact per-key counts don't fit.

    Row hashes are md5(f"{j}:{value}") first-8-bytes % width (the repo's
    SQL-reproducible convention), so the ENTIRE sketch is value-checkable.
    Build is one combiner pass: each batch bincounts its items into the
    (depth x width) grid locally and emits <= depth*width partial rows;
    the merge is a tiny keyed aggregation. Returns the counters as a
    Dataset of (row, bucket, n)."""
    schema = pa.schema(
        [("row", pa.int64()), ("bucket", pa.int64()), ("n", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or column not in batch.column_names:
            return schema.empty_table()
        vals = batch.column(column).to_numpy(zero_copy_only=False)
        rows, buckets, ns = [], [], []
        for j in range(depth):
            tagged = np.char.add(f"{j}:", vals.astype(str))
            b = (_md5_u64(tagged) % np.uint64(width)).astype(np.int64)
            cnt = np.bincount(b, minlength=width)
            nz = np.flatnonzero(cnt)
            rows.append(np.full(len(nz), j, dtype=np.int64))
            buckets.append(nz.astype(np.int64))
            ns.append(cnt[nz].astype(np.int64))
        return pa.table(
            {
                "row": pa.array(np.concatenate(rows)),
                "bucket": pa.array(np.concatenate(buckets)),
                "n": pa.array(np.concatenate(ns)),
            }
        )

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    return coarse_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["row", "bucket"],
        {"n": ("n", "sum")},
        n_parts=n_parts,
    )


def cms_estimate(counters: "pd.DataFrame", values, depth: int = 4, width: int = 64):
    """Point queries against collected CMS counters (depth*width rows —
    O(1) driver state): estimate per value = min over rows of its
    counter. Missing counters are 0."""
    grid = np.zeros((depth, width), dtype=np.int64)
    grid[
        counters["row"].to_numpy(dtype=np.int64),
        counters["bucket"].to_numpy(dtype=np.int64),
    ] = counters["n"].to_numpy(dtype=np.int64)
    vals = np.asarray(values)
    est = np.full(len(vals), np.iinfo(np.int64).max, dtype=np.int64)
    for j in range(depth):
        tagged = np.char.add(f"{j}:", vals.astype(str))
        b = (_md5_u64(tagged) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, grid[j, b])
    return est
