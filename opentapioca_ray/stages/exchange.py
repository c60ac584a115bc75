"""Coarse-partition exchange primitives.

`groupby(key).map_groups(fn)` collapses when keys are numerous and groups
are tiny (per-group pandas/task overhead dominates — the classic Ray Data
tiny-group failure at millions of users/nodes/blocks). The fix, used by
every wide stage in this repo: shuffle by a COARSE key (hash(key) % P) so
each group holds MANY whole logical groups, then run ONE vectorized numpy
kernel per partition that processes all its logical groups at once.

Partitioning assumption (documented per the driver brief): all rows of one
logical key land in one coarse partition — guaranteed by hashing the key —
and a partition's rows fit in a worker's heap (P is sized so corpus/P does;
raise `n_parts` for bigger corpora; skewed single keys need the caller's
own skew guard, e.g. the sorted-neighborhood cap in stages/pairs.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


_HASH_KEY = "opentapioca_ray0"  # fixed 16 bytes: deterministic across procs


def _coarse_codes(key_col, n_parts: int) -> pa.Array:
    """Deterministic hash(key) % n_parts as an int64 Arrow array (stable
    across worker processes — never builtin hash())."""
    if isinstance(key_col, pa.ChunkedArray):
        key_col = key_col.combine_chunks()
    if pa.types.is_string(key_col.type) or pa.types.is_large_string(key_col.type):
        # one C-level SipHash pass over the column (pd.util.hash_array with
        # a fixed key) — not a per-row Python crc32 loop
        import pandas as pd_  # noqa: PLC0415

        vals = key_col.to_numpy(zero_copy_only=False)
        codes = pd_.util.hash_array(vals, hash_key=_HASH_KEY) % np.uint64(n_parts)
        return pa.array(codes.astype(np.int64), type=pa.int64())
    vals = key_col.cast(pa.int64())
    if n_parts & (n_parts - 1) == 0:
        part = pc.bit_wise_and(vals, pa.scalar(n_parts - 1, pa.int64()))
    else:
        part = pc.subtract(
            vals, pc.multiply(pc.divide(vals, n_parts), pa.scalar(n_parts, pa.int64()))
        )
        part = pc.if_else(pc.less(part, 0), pc.add(part, n_parts), part)
    if part.null_count:  # null keys share partition 0
        part = pc.fill_null(part, 0)
    return part.combine_chunks() if isinstance(part, pa.ChunkedArray) else part


def as_arrow_block(block) -> pa.Table:
    """Normalize one materialized Ray Data block to a pa.Table.

    Ray Data keeps each block in the format of the operator that produced
    it, so a pandas-lineage dataset (map_groups / pandas map_batches) can
    hold Arrow and pandas blocks side by side — e.g. an empty Arrow
    passthrough block next to pandas partition outputs. Which mix appears
    is data- and execution-order-dependent, so every driver-side consumer
    in this repo goes through here (or `arrow_blocks`) instead of trusting
    a block's type.

    A pandas block holds list columns as Ray tensor columns, which
    `from_pandas` would turn into Ray's fixed- or variable-shape tensor
    extension types depending on the block's contents; 1-D ones are
    rebuilt as plain Arrow lists, the type the Arrow-lineage blocks
    carry, so blocks of either lineage concatenate."""
    if isinstance(block, pd.DataFrame):
        from ray.air.util.tensor_extensions.pandas import TensorDtype

        lists = {
            c: list(block[c].array.to_numpy())
            for c, t in block.dtypes.items()
            if isinstance(t, TensorDtype) and len(t.element_shape) == 1
        }
        return pa.Table.from_pandas(block.assign(**lists), preserve_index=False)
    return block


def block_refs(ds) -> list:
    """Execute `ds` once and return the ObjectRefs of its blocks, in
    dataset order. The ref bundles are drained into a list before this
    returns, so the streaming executor has finished even if the caller
    reads only some of the blocks.

    This is the repo's one collect path. `Dataset.to_arrow_refs` (Ray
    2.49) also fetches the dataset schema after producing the blocks, and
    on a lazy dataset that fetch executes the plan a second time; no
    schema is asked for here. Blocks keep their native format (Arrow or
    pandas) — normalize with `as_arrow_block` where they are read."""
    return [ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs]


def arrow_blocks(ds):
    """Yield each block of `ds` as a pa.Table (`as_arrow_block` over
    `block_refs`). Runs the plan of a lazy `ds` exactly once, and not at
    all for a materialized one. Driver-side only — use on the small
    partials/summaries this repo collects, never on a volume-carrying
    dataset."""
    import ray

    for ref in block_refs(ds):
        yield as_arrow_block(ray.get(ref))


def default_n_parts(n_parts: int | None = None) -> int:
    """P defaults to ~4 partitions per CPU (power of two): enough groups to
    balance, few enough that per-partition kernel launches stay cheap."""
    if n_parts is not None:
        return n_parts
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    p = 1
    while p < cpus * 4:
        p *= 2
    return min(p, 1024)


def coarse_group_apply(
    ds,
    key_column: str,
    partition_fn,
    n_parts: int | None = None,
    batch_format: str = "pandas",
):
    """One keyed shuffle: rows land in hash(key) % P partitions;
    `partition_fn` receives ALL rows of one partition (many whole logical
    groups) and must handle them vectorized. Replaces per-tiny-key
    `groupby(key).map_groups`."""
    n_parts = default_n_parts(n_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        if key_column not in batch.column_names:
            return batch  # schema-less empty block (Ray 2.49 shuffle output)
        return batch.append_column("__part", _coarse_codes(batch.column(key_column), n_parts))

    def drop_part_fn(group):
        if isinstance(group, pd.DataFrame):
            group = group.drop(columns="__part", errors="ignore")
        elif isinstance(group, pa.Table) and "__part" in group.column_names:
            group = group.drop_columns("__part")
        return partition_fn(group)

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(drop_part_fn, batch_format=batch_format)
    )


def segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where a new logical group starts in a sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    ).astype(np.int64)


def segment_ids(sorted_keys: np.ndarray) -> np.ndarray:
    """Dense 0..G-1 group id per row of a sorted key array."""
    if len(sorted_keys) == 0:
        return np.zeros(0, dtype=np.int64)
    new = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    return np.cumsum(new, dtype=np.int64) - 1


def composite_codes(batch: pa.Table, key_cols: list[str], n_parts: int) -> pa.Array:
    """Deterministic hash(key_cols...) % n_parts for multi-column keys.
    Collisions only affect balance, never correctness (all rows of one key
    still co-locate)."""
    import pandas as pd_

    acc = None
    for i, col in enumerate(key_cols):
        vals = batch.column(col).to_numpy(zero_copy_only=False)
        h = pd_.util.hash_array(vals, hash_key=_HASH_KEY)
        h = (h << np.uint64(i)) | (h >> np.uint64(64 - i)) if i else h
        acc = h if acc is None else acc ^ h
    return pa.array((acc % np.uint64(n_parts)).astype(np.int64), type=pa.int64())


def coarse_groupby_agg(ds, key_cols: list[str], agg_spec: dict, n_parts: int | None = None):
    """groupby(key_cols).agg(...) via ONE coarse exchange + a vectorized
    pandas aggregate per partition — orders of magnitude cheaper than Ray's
    sort-based multi-key `groupby().aggregate()` when groups are tiny and
    numerous (measured 106s -> 1.5s on 1M pair rows / 33k groups at 32
    CPUs). `agg_spec` maps output column -> (source column, pandas agg fn
    name), e.g. {"capped": ("capped", "max"), "nb_bands": ("capped",
    "size")}."""
    n_parts = default_n_parts(n_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        if key_cols[0] not in batch.column_names:
            return batch
        return batch.append_column("__part", composite_codes(batch, key_cols, n_parts))

    def agg_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns="__part", errors="ignore")
        if df.empty:
            # preserve dtypes so empty partitions stay schema-compatible
            out = {c: df[c] for c in key_cols}
            for out_col, (src, fn) in agg_spec.items():
                out[out_col] = (
                    pd.Series(dtype=np.int64)
                    if fn == "size"
                    else df[src].iloc[:0]
                )
            return pd.DataFrame(out)
        g = df.groupby(key_cols, sort=False).agg(
            **{out_col: (src, fn) for out_col, (src, fn) in agg_spec.items()}
        )
        return g.reset_index()

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(agg_partition, batch_format="pandas")
    )


# Partial rows `sum_partials` merges on the driver. It bounds the driver's
# share of a merge: up to this many rows (key columns plus int64 sums, a
# few hundred MB of string keys) are concatenated and grouped in driver
# memory; above it one coarse exchange sums them on the workers.
_SUM_DRIVER_LIMIT = 5_000_000


def driver_dataset(tables):
    """Driver-held Arrow tables (one `pa.Table` or a list, each one block)
    as an already-executed `MaterializedDataset`: the engine's one way to
    turn a driver-built result into a Dataset.

    Each block's metadata is computed here from the table in hand and the
    block is `ray.put` once; the Dataset is the `InputData` plan that
    `Dataset.materialize()` ends with (Ray 2.49), marked executed. Its
    collect, `count()`, schema and `num_blocks()` therefore run no Ray
    Data execution and no remote task, where `ray.data.from_arrow` runs one
    remote metadata task per block and its un-materialized collect one
    execution (tests/test_exchange.py pins both against Ray upgrades)."""
    import ray
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    if isinstance(tables, pa.Table):
        tables = [tables]
    metas = [
        BlockMetadataWithSchema.from_block(t, stats=BlockExecStats.builder().build())
        for t in tables
    ]
    bundles = [
        RefBundle(blocks=((ray.put(t), m.metadata),), owns_blocks=False, schema=m.schema)
        for t, m in zip(tables, metas)
    ]
    context = DataContext.get_current().copy()
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metas}, parent=None), context)
    ds = MaterializedDataset(plan, LogicalPlan(InputData(input_data=bundles), context))
    plan.execute()  # no execution: marks the plan as holding its output
    return ds


def materialized(ds):
    """`ds` itself when its plan already holds its output (a
    `driver_dataset` or a `.materialize()` result), else
    `ds.materialize()`: materializing a materialized Dataset runs no
    execution but still copies its plan twice."""
    return ds if ds._plan.has_computed_output() else ds.materialize()


def driver_slices(table: pa.Table):
    """A table built on the driver as a `driver_dataset` of about 2 blocks
    per CPU (at most 64), so downstream maps parallelize (one block would
    serialize everything after it)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    step = max(1, -(-table.num_rows // min(64, 2 * cpus)))
    slices = [table.slice(i, step) for i in range(0, table.num_rows, step)]
    return driver_dataset(slices or [table])


def sum_partials(parts, keys: list[str], schema: pa.Schema):
    """The one merge of combiner partial rows: sum every column of `schema`
    that is not in `keys`, per `keys`, one row per key (null keys dropped,
    as the exchange's pandas group-by drops them).

    `parts` is a MATERIALIZED Dataset of partial rows, or its blocks already
    on the driver (a list of pa.Table); either way the partial-row count is
    known without an execution, and it picks the regime. The sums come
    back in the form the partials came in: a Dataset, or a list of
    pa.Table on the driver.

    Up to `_SUM_DRIVER_LIMIT` rows the partials are concatenated on the
    driver for one single-threaded Arrow group-by (groups in
    first-appearance order, so thread scheduling never reorders them); a
    Dataset result is then `driver_slices`, so a collect of it runs no
    execution. Above, one `coarse_groupby_agg` exchange sums them
    on the workers, and only driver-side partials have their sums brought
    back to the driver."""
    values = [n for n in schema.names if n not in keys]
    on_driver = isinstance(parts, list)
    n_rows = sum(t.num_rows for t in parts) if on_driver else parts.count()
    if n_rows > _SUM_DRIVER_LIMIT:
        ds = driver_dataset(parts) if on_driver else parts
        sums = coarse_groupby_agg(ds, keys, {v: (v, "sum") for v in values})
        return list(arrow_blocks(sums)) if on_driver else sums
    tables = [
        t.select(schema.names).cast(schema)
        for t in (parts if on_driver else arrow_blocks(parts))
        if t.num_rows and keys[0] in t.column_names
    ]
    merged = pa.concat_tables(tables) if tables else schema.empty_table()
    for k in keys:
        if merged.column(k).null_count:
            merged = merged.filter(pc.is_valid(merged.column(k)))
    sums = pa.TableGroupBy(merged, keys, use_threads=False).aggregate(
        [(v, "sum") for v in values]
    )
    table = pa.table(
        [sums.column(n if n in keys else f"{n}_sum") for n in schema.names], schema=schema
    )
    return [table] if on_driver else driver_slices(table)


def right_size(ds, rows_per_block: int = 65_536):
    """Repartition a MATERIALIZED dataset whose block count is far out of
    proportion to its row count. Derived datasets inherit their parent's
    block count, so a pair/token table filtered down from a big corpus can
    arrive as hundreds of near-empty blocks — and every downstream
    all-to-all then pays per-task scheduling overhead per block (measured
    5.0s -> 1.7s for one 16k-row union exchange at 32 CPUs). Blocks already
    proportional to data (the real-scale case) pass through untouched, so
    this never adds a pass at 100 TB; it only collapses the
    blocks >> rows regime."""
    n = ds.count()
    target = max(1, (n + rows_per_block - 1) // rows_per_block)
    if ds.num_blocks() > 4 * target:
        return ds.repartition(int(target)).materialize()
    return ds
