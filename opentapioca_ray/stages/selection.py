"""Corpus-selection operators: deterministic sampling and per-group top-k.

Training-data pipelines constantly carve sub-corpora: "deterministic 10%
sample", "at most N documents per domain", "per-language quotas". Both
operators here are exact, reproducible, and shuffle-frugal:

- `hash_sample` / `stratified_sample`: keep a row iff the first 8 hex chars
  of md5(key) fall below a rate threshold. A pure stateless `map_batches`
  filter — no shuffle, no RNG state, identical row set on ANY cluster size
  or partitioning, and bit-reproducible in SQL (`substr(md5(key), 1, 8) <
  'xxxxxxxx'`), which is what makes the driver oracle exact.
- `group_top_k`: keep the best k rows per group by a value column with a
  deterministic tie-break — ONE coarse-partition exchange
  (hash(group) % P) and a vectorized lexsort-per-partition kernel, not a
  per-group `map_groups` (stages/exchange.py rationale).

No reference analog (the reference pipeline consumes its corpus whole —
opentapioca/cli.py:107-119 indexes every dump line); these are the
scale-path additions mandated by the driver brief's training-data-pipeline
inventory.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa


def rate_to_hex_threshold(rate: float) -> str:
    """Map a sampling rate in [0, 1] to the threshold string used by both
    the Python filter and its SQL twin. Rows with `md5(key)[:8] < threshold`
    are kept; 2**32 buckets give rate granularity of ~2.3e-10. rate >= 1
    returns "g", which sorts after every hex digit (keep-all) in both
    Python and SQL string comparison."""
    rate = min(max(rate, 0.0), 1.0)
    if rate >= 1.0:
        return "g"
    return format(int(rate * (1 << 32)), "08x")


def _md5_prefixes(keys: np.ndarray) -> np.ndarray:
    md5 = hashlib.md5
    return np.fromiter(
        (md5(str(k).encode("utf-8")).hexdigest()[:8] for k in keys),
        dtype="U8",
        count=len(keys),
    )


def hash_sample_batch(
    batch: pa.Table, key_column: str, rate: float
) -> pa.Table:
    """Deterministic rate-sample of one Arrow batch (the map_batches body).

    Key is stringified exactly like SQL's `key::VARCHAR` (integers print
    identically), so the kept row set matches the DuckDB twin
    `substr(md5(key::VARCHAR), 1, 8) < '<threshold>'` byte-for-byte."""
    if batch.num_rows == 0 or key_column not in batch.column_names:
        return batch
    keys = batch.column(key_column).to_numpy(zero_copy_only=False)
    thr = rate_to_hex_threshold(rate)
    mask = _md5_prefixes(keys) < thr
    return batch.filter(pa.array(mask))


def hash_sample(ds, key_column: str, rate: float):
    """Deterministic corpus sample: keep ~`rate` of rows, chosen by a
    content-independent hash of `key_column`. Stateless filter — streams at
    any scale, no shuffle."""
    return ds.map_batches(
        lambda b: hash_sample_batch(b, key_column, rate), batch_format="pyarrow"
    )


def stratified_sample(ds, key_column: str, stratum_column: str, rates: dict, default_rate: float = 0.0):
    """Per-stratum deterministic sampling: stratum -> rate (e.g. language
    quotas). Rows in strata missing from `rates` keep `default_rate`."""
    thresholds = {s: rate_to_hex_threshold(r) for s, r in rates.items()}
    default_thr = rate_to_hex_threshold(default_rate)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return batch
        keys = batch.column(key_column).to_numpy(zero_copy_only=False)
        strata = batch.column(stratum_column).to_numpy(zero_copy_only=False)
        prefixes = _md5_prefixes(keys)
        codes, uniq = pd.factorize(strata)
        thr_by_code = np.array(
            [thresholds.get(s, default_thr) for s in uniq], dtype="U8"
        )
        mask = prefixes < thr_by_code[codes]
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


def global_top_k(
    ds,
    value_column: str,
    k: int,
    tiebreak_column: str,
    descending: bool = True,
):
    """Dataset-global top-k WITHOUT a global sort: every block keeps only
    its own top-k (a map_batches combiner), then the <= k-per-block
    survivors collapse into one tiny block for the exact final ranking.
    Exchange volume is O(k x #blocks), not O(rows) — the all-to-all
    `sort().limit(k)` alternative moves every row.

    `tiebreak_column` ascending breaks value ties deterministically;
    `value_column` must be numeric (negated for descending order)."""

    def topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k or value_column not in batch.column_names:
            return batch
        vals = batch.column(value_column).to_numpy(zero_copy_only=False)
        ties = batch.column(tiebreak_column).to_numpy(zero_copy_only=False)
        order = np.lexsort((ties, -vals if descending else vals))[:k]
        return batch.take(pa.array(order))

    partial = ds.map_batches(topk, batch_format="pyarrow")
    # batch_size=None: the final pass must see the single merged block whole,
    # or per-1024-row batching would emit k rows per CHUNK instead of k total
    return partial.repartition(1).map_batches(
        topk, batch_format="pyarrow", batch_size=None
    )


def group_top_k(
    ds,
    group_column: str,
    value_column: str,
    k: int,
    tiebreak_column: str,
    descending: bool = True,
    n_parts: int | None = None,
):
    """Keep the top `k` rows of each group by `value_column`
    (`tiebreak_column` ascending breaks ties deterministically — it must be
    unique per group for a stable result).

    One hash(group) % P exchange; each partition ranks ALL its groups with
    a single lexsort + segment-cumcount pass."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, segment_ids

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        vals = df[value_column].to_numpy()
        groups = df[group_column].to_numpy()
        ties = df[tiebreak_column].to_numpy()
        order = np.lexsort((ties, -vals if descending else vals, groups))
        sorted_groups = groups[order]
        seg = segment_ids(sorted_groups)  # dense 0..G-1 over the sorted run
        # rank within group = position - start position of the group
        starts = np.flatnonzero(
            np.concatenate(([True], seg[1:] != seg[:-1]))
        ).astype(np.int64)
        rank = np.arange(len(seg), dtype=np.int64) - starts[seg]
        return df.iloc[order[rank < k]]

    return coarse_group_apply(ds, group_column, per_partition, n_parts=n_parts)


def priority_sample(ds, id_column: str, k: int, keep_columns: list[str]):
    """Deterministic uniform sample of k rows: rank every row by the
    md5-derived 64-bit hash of its id (the KMV hash, reproducible in SQL as
    ('0x' || substr(md5(id::VARCHAR), 1, 16))::UBIGINT) and keep the k
    smallest. Runs as the global top-k combiner — per-block k survivors,
    one tiny final merge — so no all-to-all sort and no driver loop."""
    from opentapioca_ray.stages.sketches import _md5_u64

    def add_priority(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        t = batch.select(keep_columns)
        return t.append_column("__prio", pa.array(_md5_u64(ids), type=pa.uint64()))

    ranked = global_top_k(
        ds.map_batches(add_priority, batch_format="pyarrow"),
        "__prio",
        k,
        tiebreak_column=id_column,
        descending=False,
    )
    return ranked.map_batches(
        lambda b: b.drop_columns("__prio") if "__prio" in b.column_names else b,
        batch_format="pyarrow",
    )


def prefix_scan_select(
    ds,
    order_columns: list[str],
    descending: list[bool],
    value_column: str,
    budget: int,
):
    """Greedy budgeted selection: global ORDER BY `order_columns`, then keep
    rows while the running total of `value_column` stays <= `budget`
    (SQL: cumulative SUM() OVER (ORDER BY ...) <= budget) — the
    "take the best documents until the token budget is spent" selector
    every curriculum/corpus-curation pipeline needs.

    Distributed prefix scan, driver holds O(#blocks) scalars only:
      1. `ds.sort(order_columns)` — Ray's external shuffle sort; sorted
         block ORDER is the global order.
      2. one tiny Ray task per block computes its value sum; the driver
         turns those into exclusive prefix offsets (O(blocks) floats).
      3. one Ray task per block filters it with a vectorized cumsum
         against its offset; blocks entirely past the budget collapse to
         empty without touching their rows.

    The order must be total (include a unique tie-break column) for the
    cutoff to be deterministic."""
    import ray
    import ray.data

    from opentapioca_ray.stages.exchange import as_arrow_block, block_refs

    refs = block_refs(ds.sort(order_columns, descending=descending))

    @ray.remote
    def block_sum(t) -> int:
        t = as_arrow_block(t)
        if t.num_rows == 0 or value_column not in t.column_names:
            return 0
        import pyarrow.compute as pc

        return int(pc.sum(t.column(value_column)).as_py() or 0)

    sums = ray.get([block_sum.remote(r) for r in refs])
    offsets = np.concatenate(([0], np.cumsum(sums)[:-1])).astype(np.int64)

    @ray.remote
    def cut_block(t, offset: int) -> pa.Table:
        t = as_arrow_block(t)
        if t.num_rows == 0 or value_column not in t.column_names:
            return t
        if offset >= budget:
            return t.schema.empty_table()
        vals = t.column(value_column).to_numpy(zero_copy_only=False)
        running = offset + np.cumsum(vals)
        return t.filter(pa.array(running <= budget))

    out_refs = [cut_block.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def weighted_priority_sample(
    ds, id_column: str, weight_column: str, k: int, keep_columns: list[str]
):
    """Deterministic weighted sample WITHOUT replacement (Efraimidis &
    Spirakis 2006, exponential-jumps formulation): each row gets the
    priority key -ln(u) / w with u = (md5_u64(id) + 0.5) / 2^64, and the k
    SMALLEST keys win — inclusion probability proportional to weight, no
    RNG state, identical selection on any cluster shape. Same global top-k
    combiner shape as `priority_sample` (per-block k survivors, tiny final
    merge). Output carries `es_key` in round-6 units."""
    import numpy as np
    import pyarrow.compute as pc

    from opentapioca_ray.stages.sketches import _md5_u64

    def add_priority(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        w = (
            batch.column(weight_column)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        u = (_md5_u64(ids).astype(np.float64) + 0.5) / float(2**64)
        key = -np.log(u) / w
        t = batch.select(keep_columns)
        return t.append_column("es_key", pa.array(key, type=pa.float64()))

    ranked = global_top_k(
        ds.map_batches(add_priority, batch_format="pyarrow"),
        "es_key",
        k,
        tiebreak_column=id_column,
        descending=False,
    )
    return ranked.map_batches(
        lambda b: b.set_column(
            b.column_names.index("es_key"), "es_key", pc.round(b.column("es_key"), 6)
        )
        if "es_key" in b.column_names
        else b,
        batch_format="pyarrow",
    )


def stratified_split_labels(
    ds,
    id_column: str,
    stratum_column: str,
    fracs: tuple = (0.8, 0.9),
    labels: tuple = ("train", "val", "test"),
    n_parts=None,
):
    """Exact-quota stratified split: within every stratum, rows ordered by
    (md5(id), id) get `train` up to floor(n*fracs[0]), `val` up to
    floor(n*fracs[1]), else `test` — so each stratum's split proportions
    are exact (global md5-mod splits are only proportional in
    expectation). ONE coarse exchange on the stratum key; each partition
    ranks all its whole strata with a sorted-segment kernel.

    Partitioning assumption: a stratum's rows fit in a worker's heap (a
    stratum is a language/source/domain — bounded by corpus share, the
    same contract as every coarse_group_apply stage); extreme single-
    stratum skew needs an upstream salt+merge, documented trade-off."""
    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.sketches import _md5_u64

    def label_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or stratum_column not in df.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    stratum_column: pd.Series(dtype=object),
                    "split": pd.Series(dtype=object),
                }
            )
        ids = df[id_column].to_numpy(dtype=np.int64)
        strat = df[stratum_column].to_numpy()
        h = _md5_u64(ids)
        _, scodes = np.unique(strat, return_inverse=True)
        order = np.lexsort((ids, h, scodes))
        ids_s, strat_s, codes_s = ids[order], strat[order], scodes[order]
        new = np.concatenate(([True], codes_s[1:] != codes_s[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        n_per = np.bincount(seg)
        rn = np.arange(len(ids_s), dtype=np.int64) - starts[seg] + 1
        n_g = n_per[seg]
        # same quantized quota expression as the SQL twin: FLOOR(n * frac)
        q0 = np.floor(n_g * fracs[0])
        q1 = np.floor(n_g * fracs[1])
        lab = np.where(rn <= q0, labels[0], np.where(rn <= q1, labels[1], labels[2]))
        return pd.DataFrame(
            {id_column: ids_s, stratum_column: strat_s, "split": lab}
        )

    return coarse_group_apply(
        ds.select_columns([id_column, stratum_column]),
        stratum_column,
        label_partition,
        n_parts=n_parts,
    )


def zorder_block_stats(
    ds,
    x_column: str,
    y_column: str,
    bits: int = 16,
    block_shift: int = 24,
    n_parts: int | None = None,
):
    """Z-order (Morton) layout index: interleave the low `bits` bits of
    two integer dimensions into one space-filling-curve key, bucket rows
    by its top bits (zblock = zval >> block_shift), and emit per-block
    pruning manifests (n, min/max of BOTH dims) — the statistics a
    z-clustered layout hands the reader so a 2-D predicate can skip
    blocks on either dimension (the Delta/Iceberg OPTIMIZE ZORDER
    primitive). Bit interleave is a vectorized numpy shift-or over `bits`
    positions; the manifest roll-up is ONE combiner-first exchange on the
    block id."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    part_schema = pa.schema(
        [
            ("zblock", pa.int64()),
            ("n", pa.int64()),
            ("min_x", pa.int64()),
            ("max_x", pa.int64()),
            ("min_y", pa.int64()),
            ("max_y", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or x_column not in batch.column_names:
            return part_schema.empty_table()
        mask = np.int64((1 << bits) - 1)
        x = batch.column(x_column).to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch.column(y_column).to_numpy(zero_copy_only=False).astype(np.int64)
        xb = x & mask
        yb = y & mask
        z = np.zeros(len(x), dtype=np.int64)
        for i in range(bits):
            z |= ((xb >> i) & 1) << (2 * i)
            z |= ((yb >> i) & 1) << (2 * i + 1)
        zblock = z >> np.int64(block_shift)
        ub, inv = np.unique(zblock, return_inverse=True)
        n_seg = len(ub)
        big = np.int64(2**62)
        min_x = np.full(n_seg, big)
        max_x = np.full(n_seg, -big)
        min_y = np.full(n_seg, big)
        max_y = np.full(n_seg, -big)
        np.minimum.at(min_x, inv, x)
        np.maximum.at(max_x, inv, x)
        np.minimum.at(min_y, inv, y)
        np.maximum.at(max_y, inv, y)
        return pa.table(
            {
                "zblock": pa.array(ub),
                "n": pa.array(np.bincount(inv).astype(np.int64)),
                "min_x": pa.array(min_x),
                "max_x": pa.array(max_x),
                "min_y": pa.array(min_y),
                "max_y": pa.array(max_y),
            }
        )

    return coarse_groupby_agg(
        ds.select_columns(list({x_column, y_column})).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["zblock"],
        {
            "n": ("n", "sum"),
            "min_x": ("min_x", "min"),
            "max_x": ("max_x", "max"),
            "min_y": ("min_y", "min"),
            "max_y": ("max_y", "max"),
        },
        n_parts=n_parts,
    )


def path_tree_rollup(
    files_ds,
    repo_column: str = "repo",
    path_column: str = "path",
    size_column: str = "content",
    max_depth: int = 3,
    n_parts: int | None = None,
):
    """Namespace-tree rollup of a file corpus: for every '/'-prefix of
    repo/path up to `max_depth` segments, the file count and total
    content size — the data-lake directory summary that drives quota
    accounting, shard planning, and skew diagnosis without listing any
    leaf twice at the same level. Each file fans out to at most
    `max_depth` prefix rows (a stateless map); ONE combiner-first
    exchange on the prefix merges them. Returns
    (depth, prefix, n_files, total_chars)."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    part_schema = pa.schema(
        [
            ("depth", pa.int64()),
            ("prefix", pa.string()),
            ("n_files", pa.int64()),
            ("total_chars", pa.int64()),
        ]
    )

    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or repo_column not in batch.column_names:
            return part_schema.empty_table()
        repo = batch.column(repo_column).to_pylist()
        path = batch.column(path_column).to_pylist()
        import pyarrow.compute as pc

        sizes = pc.utf8_length(
            batch.column(size_column).cast(pa.large_string())
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        depths, prefixes, counts, chars = [], [], [], []
        for full, sz in zip(
            (f"{r}/{p}" for r, p in zip(repo, path)), sizes
        ):
            segs = full.split("/")
            for d in range(1, min(max_depth, len(segs)) + 1):
                depths.append(d)
                prefixes.append("/".join(segs[:d]))
                counts.append(1)
                chars.append(int(sz))
        return pa.table(
            {
                "depth": pa.array(depths, pa.int64()),
                "prefix": pa.array(prefixes, pa.string()),
                "n_files": pa.array(counts, pa.int64()),
                "total_chars": pa.array(chars, pa.int64()),
            }
        )

    return coarse_groupby_agg(
        files_ds.select_columns(
            [repo_column, path_column, size_column]
        ).map_batches(explode, batch_format="pyarrow"),
        ["depth", "prefix"],
        {"n_files": ("n_files", "sum"), "total_chars": ("total_chars", "sum")},
        n_parts=n_parts,
    )
