"""Relational joins: equi-joins, semi/anti joins and division.

`broadcast_join` attaches columns of a small dimension table (shipped once
via ray.put) to each probe batch by a sorted-key lookup; `shuffle_join`
joins two big sides with ONE coarse exchange on hash(key) % P and
pyarrow's hash join per partition (m:n keys fan out as in SQL).

Every semi/anti join is defined here, over one membership kernel
(`sorted_keys` + `is_member`) and one contract in every regime: a null
key never matches, so the semi-join drops null-key probe rows and the
anti-join keeps them (SQL `NOT EXISTS`), and null build keys are ignored;
duplicate keys never multiply rows; the output schema is exactly the
probe schema (no widening, no pandas metadata). `semi_join` broadcasts
the sorted build keys (`broadcast_semi_join`) up to
`_SEMI_BROADCAST_LIMIT` distinct keys, else runs the exchange regime
(`coarse_semi_join`: ONE coarse exchange over probe rows plus slim key
rows), which scale callers with big build sides also call directly.
`bloom_semi_join` prunes the probe with a Bloom filter before the exact
`semi_join`; `bloom_semijoin` keeps the filter's false positives in its
output, annotated.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks


def broadcast_join(
    ds,
    dim_table: pa.Table,
    left_key: str,
    right_key: str,
    columns: list[str],
):
    """Inner-join `columns` of `dim_table` onto every row of `ds` by
    equi-key; unmatched fact rows are dropped. The dimension side must have
    unique keys (validated)."""
    import ray

    keys = dim_table.column(right_key).to_numpy(zero_copy_only=False)
    order = np.argsort(keys)
    keys_sorted = keys[order]
    # equality compare (not np.diff): works for string/object keys too
    if len(keys_sorted) > 1 and (keys_sorted[1:] == keys_sorted[:-1]).any():
        raise ValueError(f"dimension key {right_key} is not unique")
    payload = {c: dim_table.column(c).take(pa.array(order)) for c in columns}
    state_ref = ray.put((keys_sorted, payload))

    def attach(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_key not in batch.column_names:
            cols = list(batch.schema) + [
                pa.field(c, dim_table.schema.field(c).type) for c in columns
            ]
            return pa.schema(cols).empty_table()
        keys_s, pay = ray.get(state_ref)
        lk = batch.column(left_key).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(keys_s, lk)
        idx_clipped = np.clip(idx, 0, len(keys_s) - 1)
        matched = keys_s[idx_clipped] == lk
        out = batch.filter(pa.array(matched))
        take_idx = pa.array(idx_clipped[matched])
        for c in columns:
            out = out.append_column(c, pay[c].take(take_idx))
        return out

    return ds.map_batches(attach, batch_format="pyarrow")


def _key_values(col) -> np.ndarray:
    """A null-free key column as numpy. Integer keys widen to int64, so
    probe and build keys of different widths compare by value."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type) and col.type != pa.uint64():
        col = col.cast(pa.int64())
    return col.to_numpy(zero_copy_only=False)


def sorted_keys(col) -> np.ndarray:
    """Build side of the membership kernel: the distinct non-null values of
    a key column (Arrow), sorted. Null build keys are dropped here: a null
    never matches."""
    return np.unique(_key_values(col.drop_null()))


def is_member(keys: np.ndarray, col) -> np.ndarray:
    """The semi-join membership kernel, shared by both regimes: a bool mask
    over the probe key column `col` (Arrow), True where the key is non-null
    and occurs in `keys` (a `sorted_keys` array). One vectorized
    searchsorted; no hash set is built per batch."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    mask = np.zeros(len(col), dtype=bool)
    if len(keys) == 0 or len(col) == 0:
        return mask
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    vals = _key_values(col.drop_null())
    idx = np.clip(np.searchsorted(keys, vals), 0, len(keys) - 1)
    mask[valid] = keys[idx] == vals
    return mask


def distinct_keys(ds, column: str, limit: int = 50_000_000) -> np.ndarray:
    """Distinct non-null values of `column` as a sorted numpy array for
    broadcast (`sorted_keys` of the deduped column).

    Combiner-first: per-batch unique (map side) -> groupby dedup -> the
    distinct set (bounded by `limit`) is the only thing collected. This is
    the build side of `broadcast_semi_join`; beyond `limit` it raises and
    `semi_join` takes the exchange regime instead."""
    import pyarrow.compute as pc

    def uniq(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or column not in batch.column_names:
            return batch
        return pa.table({column: pc.unique(batch.column(column).combine_chunks())})

    dedup = (
        ds.select_columns([column])
        .map_batches(uniq, batch_format="pyarrow")
        .groupby(column)
        .count()
    ).materialize()  # one execution serves both the guard and the collect
    if dedup.count() > limit:
        raise ValueError(
            f"distinct({column}) exceeds broadcast limit {limit}; "
            "use the exchange regime (coarse_semi_join)"
        )
    parts = list(arrow_blocks(dedup))
    parts = [t for t in parts if t.num_rows and column in t.column_names]
    if not parts:
        return np.empty(0, dtype=object)
    return sorted_keys(pa.concat_tables(parts).column(column))


def broadcast_semi_join(ds, keys, left_key: str, anti: bool = False):
    """Broadcast regime of the semi-join: `keys` (numpy or Arrow; nulls and
    duplicates ignored) ship ONCE via ray.put as a `sorted_keys` array and
    each probe batch filters with `is_member` — no shuffle of the probe
    side. Contract in the module docstring."""
    import ray

    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(np.asarray(keys))
    keys_ref = ray.put(sorted_keys(keys))

    def fil(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_key not in batch.column_names:
            return batch
        mask = is_member(ray.get(keys_ref), batch.column(left_key))
        return batch.filter(pa.array(~mask if anti else mask))

    return ds.map_batches(fil, batch_format="pyarrow")


def _schema_once(ds):
    """(ds, schema) without a `limit=1` execution of a lazy `ds`'s
    upstream: the schema Ray already knows, else `ds` materialized once
    (the exchange consumes it anyway) and its schema read from the block
    metadata. The schema may be None when `ds` has no rows."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        ds = ds.materialize()
        schema = ds.schema()
    return ds, schema


def coarse_semi_join(
    ds,
    key_column: str,
    keys_ds,
    schema,
    keys_column: str | None = None,
    n_parts: int | None = None,
    anti: bool = False,
):
    """Exchange regime of the semi-join: keep `ds` rows whose `key_column`
    value appears (`anti=True`: does not appear) anywhere in
    `keys_ds[keys_column]`. ONE coarse exchange on hash(key) % P over the
    union of probe rows and slim key rows; each partition filters its probe
    rows with `is_member`. Nothing proportional to the key volume touches
    the driver. `schema` is `ds`'s schema, Arrow or a Ray Data one with
    Arrow types (callers know it; asking the Dataset would force
    execution); its names and types are the output schema.

    Integer keys travel as int64 so build keys of another width compare by
    value. The semi-join drops null-key probe rows before the exchange;
    the anti-join carries them (null keys share one partition) and keeps
    them."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply

    keys_column = keys_column or key_column
    out_schema = pa.schema(list(zip(schema.names, schema.types)))
    key_type = out_schema.field(key_column).type
    if pa.types.is_integer(key_type) and key_type != pa.uint64():
        key_type = pa.int64()
    union_schema = pa.schema(
        [
            (name, key_type if name == key_column else typ)
            for name, typ in zip(out_schema.names, out_schema.types)
        ]
        + [("__is_key", pa.bool_())]
    )

    def data_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return union_schema.empty_table()
        if not anti and batch.column(key_column).null_count:
            batch = batch.filter(pc.is_valid(batch.column(key_column)))
        cols = {name: batch.column(name) for name in out_schema.names}
        cols["__is_key"] = pa.array(np.zeros(batch.num_rows, dtype=bool))
        return pa.table(cols).cast(union_schema)

    def key_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or keys_column not in batch.column_names:
            return union_schema.empty_table()
        keys = batch.column(keys_column).drop_null()
        n = len(keys)
        cols = {
            name: keys.cast(typ) if name == key_column else pa.nulls(n, type=typ)
            for name, typ in zip(union_schema.names, union_schema.types)
        }
        cols["__is_key"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols).cast(union_schema)

    unioned = ds.map_batches(data_rows, batch_format="pyarrow").union(
        keys_ds.map_batches(key_rows, batch_format="pyarrow")
    )

    def filter_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__is_key" not in t.column_names:
            return out_schema.empty_table()
        isk = t.column("__is_key")
        data = t.filter(pc.invert(isk))
        mask = is_member(
            sorted_keys(t.filter(isk).column(key_column)), data.column(key_column)
        )
        kept = data.filter(pa.array(~mask if anti else mask))
        return kept.select(out_schema.names).cast(out_schema)

    return coarse_group_apply(
        unioned, key_column, filter_partition, n_parts=n_parts,
        batch_format="pyarrow",
    )


_SEMI_BROADCAST_LIMIT = 5_000_000


def semi_join(ds, build_ds, left_key: str, build_key: str, anti: bool = False):
    """Scale-adaptive semi/anti join: the broadcast regime
    (`distinct_keys` + `broadcast_semi_join`, no probe shuffle) while the
    build side holds at most `_SEMI_BROADCAST_LIMIT` distinct keys, else
    the exchange regime (`coarse_semi_join`). Both give the same rows and
    the probe schema. Tests reach the exchange by monkeypatching the limit
    below 0."""
    try:
        keys = distinct_keys(build_ds, build_key, limit=_SEMI_BROADCAST_LIMIT)
    except ValueError:
        ds, schema = _schema_once(ds)
        if schema is None:  # no probe rows
            return ds
        return coarse_semi_join(
            ds, left_key, build_ds.select_columns([build_key]), schema,
            keys_column=build_key, anti=anti,
        )
    return broadcast_semi_join(ds, keys, left_key, anti)


def shuffle_join(
    probe_ds,
    build_ds,
    left_key: str,
    build_key: str,
    payload_columns: list[str],
    how: str = "inner",
    n_parts: int | None = None,
):
    """Reduce-side equi-join for two BIG tables (neither side broadcastable):
    tag probe and build rows, pad both legs to one shared schema (Ray 2.49
    shuffles choke on heterogeneous union blocks), ONE coarse exchange on
    hash(key) % P, then pyarrow's hash join per partition. Build rows
    ship only key + payload columns; m:n keys fan out exactly like SQL.

    Partitioning assumption: all rows of one key land in one partition
    (guaranteed by the hash); a partition's probe+build rows fit in a
    worker's heap — skewed single keys need a caller-side salt/cap."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    probe_ds, schema = _schema_once(probe_ds)
    probe_fields = list(zip(schema.names, schema.types))
    build_ds, bschema = _schema_once(
        build_ds.select_columns(
            [build_key] + [c for c in payload_columns if c != build_key]
        )
    )
    pay_fields = [
        (c, bschema.types[bschema.names.index(c)]) for c in payload_columns
    ]

    def tag_probe(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_key not in batch.column_names:
            return batch
        out = batch
        for c, typ in pay_fields:
            out = out.append_column(c, pa.nulls(batch.num_rows, typ))
        return out.append_column(
            "__side", pa.array(np.zeros(batch.num_rows, dtype=np.int8))
        )

    def tag_build(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or build_key not in batch.column_names:
            return batch
        n = batch.num_rows
        cols = {}
        for name, typ in probe_fields:
            if name == left_key:
                cols[name] = batch.column(build_key).cast(typ)
            else:
                cols[name] = pa.nulls(n, typ)
        for c, _ in pay_fields:
            cols[c] = batch.column(c)
        out = pa.table(cols)
        return out.append_column("__side", pa.array(np.ones(n, dtype=np.int8)))

    probe = probe_ds.map_batches(tag_probe, batch_format="pyarrow")
    build = build_ds.map_batches(tag_build, batch_format="pyarrow")
    both = probe.union(build)
    probe_cols = [n for n, _ in probe_fields]
    pay_cols = [c for c, _ in pay_fields]

    out_schema = pa.schema(
        [pa.field(n, t) for n, t in probe_fields]
        + [pa.field(c, t) for c, t in pay_fields if c != left_key]
    )

    def join_partition(t: pa.Table) -> pa.Table:
        # Arrow kernel: the per-partition merge is pyarrow's C++ hash join,
        # so the null-padded union never round-trips through pandas (no
        # int->float64 widening to undo, no object columns).
        if t.num_rows == 0 or "__side" not in t.column_names:
            return out_schema.empty_table()
        t = t.combine_chunks()
        side = t.column("__side")
        import pyarrow.compute as pc

        left = t.filter(pc.equal(side, 0)).select(
            [n for n, _ in probe_fields]
        )
        right = t.filter(pc.equal(side, 1)).select(
            [left_key] + [c for c in pay_cols if c != left_key]
        )
        joined = left.join(
            right,
            keys=left_key,
            join_type="inner" if how == "inner" else "left outer",
        )
        return joined.select(out_schema.names).cast(out_schema)

    return coarse_group_apply(
        both, left_key, join_partition, n_parts=n_parts, batch_format="pyarrow"
    )


_BLOOM_DEFAULT_BITS = 1 << 23  # 1 MiB bitmap


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Vigna, public domain) — vectorized uint64 mix."""
    z = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def _bloom_positions(key_col, n_bits: int, n_hashes: int) -> np.ndarray:
    """(n_rows, n_hashes) bit positions via Kirsch–Mitzenmacher double
    hashing h1 + i*h2 from one 64-bit hash per key."""
    if isinstance(key_col, pa.ChunkedArray):
        key_col = key_col.combine_chunks()
    if pa.types.is_string(key_col.type) or pa.types.is_large_string(key_col.type):
        import pandas as pd_

        from opentapioca_ray.stages.exchange import _HASH_KEY

        h = pd_.util.hash_array(
            key_col.to_numpy(zero_copy_only=False), hash_key=_HASH_KEY
        )
    else:
        h = _splitmix64(
            key_col.cast(pa.int64()).to_numpy(zero_copy_only=False).view(np.uint64)
        )
    h1 = h & np.uint64(0xFFFFFFFF)
    h2 = (h >> np.uint64(32)) | np.uint64(1)
    i = np.arange(n_hashes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pos = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(n_bits)
    return pos.astype(np.int64)


def bloom_semi_join(
    probe_ds,
    build_ds,
    left_key: str,
    build_key: str,
    anti: bool = False,
    n_bits: int = _BLOOM_DEFAULT_BITS,
    n_hashes: int = 4,
):
    """Semi/anti join with a Bloom-filter pre-pass — EXACT results (the
    Bloom filter only prunes; survivors are verified by the real join).

    Why it matters at scale: the broadcast state is O(n_bits) REGARDLESS of
    build-side cardinality (a 1 MiB bitmap summarizes a billion keys, where
    `distinct_keys` would need 8 GB), and probe rows that fail the filter
    never enter the verify exchange. Bitmap partials are built per batch
    and OR-merged streaming on the driver (O(n_bits) memory, one block at
    a time).

    Semi (`anti=False`): one pass — probe rows failing the filter are
    definite non-members and are dropped; survivors go through the exact
    `semi_join`. Anti (`anti=True`): rows failing the filter are definite
    non-members and pass straight through; only filter-survivors ride the
    exact anti verify. The anti composition consumes `probe_ds` twice
    (union of two branches) — pass a materialized/cheap-to-recompute probe.

    False-positive rate ~ (1 - e^{-kn/m})^k; size n_bits >= ~10x build
    cardinality for <1% candidates passing the filter spuriously."""
    import ray

    def build_bitmap(batch: pa.Table) -> pa.Table:
        bm = np.zeros(n_bits // 8, dtype=np.uint8)
        if batch.num_rows and build_key in batch.column_names:
            keys = batch.column(build_key).drop_null()
            pos = _bloom_positions(keys, n_bits, n_hashes)
            np.bitwise_or.at(
                bm,
                pos >> 3,
                (np.uint8(1) << (pos & 7).astype(np.uint8)),
            )
        return pa.table({"bitmap": pa.array([bm.tobytes()], type=pa.large_binary())})

    bitmap_ds = build_ds.select_columns([build_key]).map_batches(
        build_bitmap, batch_format="pyarrow", batch_size=65_536
    )
    bm = np.zeros(n_bits // 8, dtype=np.uint8)
    for b in bitmap_ds.iter_batches(batch_format="pyarrow", batch_size=4):
        if b.num_rows == 0 or "bitmap" not in b.column_names:
            continue
        for buf in b.column("bitmap"):
            bm |= np.frombuffer(buf.as_py(), dtype=np.uint8)
    bm_ref = ray.put(bm)

    def bloom_mask(batch: pa.Table) -> np.ndarray:
        # a null probe key is a definite non-member; the others are hashed
        # null-free (a nullable int column would reach numpy as float64)
        bitmap = ray.get(bm_ref)
        col = batch.column(left_key)
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        pos = _bloom_positions(col.drop_null(), n_bits, n_hashes)
        bits = (bitmap[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        mask = np.zeros(batch.num_rows, dtype=bool)
        mask[valid] = bits.all(axis=1)
        return mask

    def keep_members(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_key not in batch.column_names:
            return batch
        return batch.filter(pa.array(bloom_mask(batch)))

    candidates = probe_ds.map_batches(keep_members, batch_format="pyarrow")
    if not anti:
        return semi_join(candidates, build_ds, left_key, build_key)

    def keep_nonmembers(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_key not in batch.column_names:
            return batch
        return batch.filter(pa.array(~bloom_mask(batch)))

    definite = probe_ds.map_batches(keep_nonmembers, batch_format="pyarrow")
    verified = semi_join(candidates, build_ds, left_key, build_key, anti=True)
    return definite.union(verified)


def relational_division(ds, key_column: str, attr_column: str):
    """Relational DIVISION: keys associated with EVERY distinct value of
    `attr_column` ("customers who ordered in all priorities"). The divisor
    set is small by the operator's nature, so its cardinality is the one
    scalar the driver holds; the per-key distinct counts run combiner-first
    (`distinct_count`), bounded by distinct pairs, never input rows."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import distinct_count

    n_attrs = len(distinct_keys(ds, attr_column))
    per_key = distinct_count(ds, key_column, attr_column, alias="n_attrs")
    return per_key.map_batches(
        lambda b: b.filter(pc.equal(b.column("n_attrs"), n_attrs))
        if "n_attrs" in b.column_names
        else b,
        batch_format="pyarrow",
    )


def bloom_semijoin(
    probe_ds,
    build_ds,
    probe_key: str,
    build_key: str,
    out_columns: list[str],
    m_bits: int = 1 << 20,
    n_parts: int | None = None,
):
    """Bloom-prefiltered distributed semi-join — the classic big-join
    optimization: the small build side compresses to an m-bit Bloom filter
    (k=2 hashes = the two 8-byte halves of md5(str(key))) broadcast once;
    the big probe side drops every row the filter rejects BEFORE any
    exchange; only the surviving candidates (true matches + the filter's
    false positives) ride ONE exact verification exchange, which ANNOTATES
    rather than filters so the measured false-positive set is part of the
    output. Returns out_columns + is_match (int64 0/1) for candidate rows
    only.

    Scale shape: the filter is m/8 bytes regardless of build cardinality
    (vs a broadcast hash set that grows with it); the verify exchange
    carries matches + FP only. Hash convention matches the repo's md5-u64
    sketches, so a SQL twin reproduces the filter bit-for-bit."""
    import hashlib

    import ray

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def _two_positions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(h1, h2) bloom positions per value: the big-endian first and
        second 8-byte halves of md5(str(value)), mod m — hashed once per
        DISTINCT value (md5 is the cost center)."""
        uniq, inv = np.unique(values.astype(str), return_inverse=True)
        digests = b"".join(
            hashlib.md5(s.encode("utf-8")).digest() for s in uniq
        )
        both = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
        h1 = (both[0::2] % np.uint64(m_bits)).astype(np.int64)
        h2 = (both[1::2] % np.uint64(m_bits)).astype(np.int64)
        return h1[inv], h2[inv]

    # 1. build the filter: per-block distinct positions -> driver OR-merge
    # (the driver holds m bits, never the build keys themselves)
    def build_positions(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("p", pa.int64())])
        if batch.num_rows == 0 or build_key not in batch.column_names:
            return schema.empty_table()
        keys = np.unique(
            batch.column(build_key).to_numpy(zero_copy_only=False)
        )
        h1, h2 = _two_positions(keys)
        return pa.table({"p": pa.array(np.unique(np.concatenate([h1, h2])))})

    bits = np.zeros(m_bits, dtype=bool)
    for t in arrow_blocks(build_ds.map_batches(
        build_positions, batch_format="pyarrow"
    )):
        if t.num_rows and "p" in t.column_names:
            bits[t.column("p").to_numpy(zero_copy_only=False)] = True
    bits_ref = ray.put(bits)

    # 2. probe-side prefilter: zero exchanges, candidates only survive
    cand_fields = [(c, pa.int64()) for c in out_columns] + [
        ("__k", pa.int64())
    ]
    cand_schema = pa.schema(cand_fields)

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or probe_key not in batch.column_names:
            return cand_schema.empty_table()
        b = ray.get(bits_ref)
        keys = batch.column(probe_key).to_numpy(zero_copy_only=False)
        h1, h2 = _two_positions(keys)
        keep = b[h1] & b[h2]
        t = batch.filter(pa.array(keep))
        cols = {c: t.column(c).cast(pa.int64()) for c in out_columns}
        cols["__k"] = t.column(probe_key).cast(pa.int64())
        return pa.table(cols).cast(cand_schema)

    candidates = probe_ds.map_batches(prefilter, batch_format="pyarrow")

    # 3. exact verify exchange over candidates ∪ slim build keys — ANNOTATE
    union_schema = pa.schema([*cand_fields, ("__is_key", pa.bool_())])

    def cand_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "__k" not in batch.column_names:
            return union_schema.empty_table()
        return batch.append_column(
            "__is_key", pa.array(np.zeros(batch.num_rows, dtype=bool))
        ).cast(union_schema)

    def key_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or build_key not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        cols = {c: pa.nulls(n, pa.int64()) for c in out_columns}
        cols["__k"] = batch.column(build_key).cast(pa.int64())
        cols["__is_key"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols).cast(union_schema)

    unioned = candidates.map_batches(cand_rows, batch_format="pyarrow").union(
        build_ds.map_batches(key_rows, batch_format="pyarrow")
    )
    out_schema = pa.schema(
        [(c, pa.int64()) for c in out_columns] + [("is_match", pa.int64())]
    )

    def annotate(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__is_key" not in t.column_names:
            return out_schema.empty_table()
        isk = t.column("__is_key").to_numpy(zero_copy_only=False).astype(bool)
        data = t.filter(pa.array(~isk))
        if data.num_rows == 0:
            return out_schema.empty_table()
        match = is_member(
            sorted_keys(t.filter(pa.array(isk)).column("__k")), data.column("__k")
        )
        cols = {c: data.column(c) for c in out_columns}
        cols["is_match"] = pa.array(match.astype(np.int64))
        return pa.table(cols).cast(out_schema)

    return coarse_group_apply(
        unioned, "__k", annotate, n_parts=n_parts, batch_format="pyarrow"
    )


def basket_rules(
    ds,
    order_column: str,
    item_column: str,
    min_support: int = 2,
    max_basket: int = 1024,
    n_parts: int | None = None,
):
    """Size-2 association rules over transaction baskets (the classic
    market-basket mining kernel): for every item pair co-occurring in
    >= `min_support` orders, the support count, both direction
    confidences (floor-divided e6), and the lift — all from exact
    integer counts, one quantized division each. Output:
    (x, y, n_xy, n_x, n_y, conf_xy_e6, conf_yx_e6, lift_e6), x < y.

    Scale shape: ONE exchange on the order key does everything upstream —
    the partition kernel dedups (order, item) locally (orders arrive
    whole), emits within-basket pair partials (baskets above `max_basket`
    items are dropped — the pair fan-out skew guard), and rides the item
    marginals (v = -1) and the partition's distinct-order count
    (u = v = -1) in the SAME pair key space (the pmi_bigrams tagging
    trick); ONE combiner groupby then sums pairs, marginals and the order
    total together. Item marginals attach via the metablocking lookup
    shape (slim exchanges over the surviving pairs), never a driver
    collect."""
    import ray

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )
    from opentapioca_ray.stages.metablocking import _attach_node_stats

    slim_schema = pa.schema([("o", pa.int64()), ("i", pa.int64())])

    def slim(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or order_column not in batch.column_names:
            return slim_schema.empty_table()
        return pa.table(
            {
                "o": batch.column(order_column).cast(pa.int64()),
                "i": batch.column(item_column).cast(pa.int64()),
            }
        )

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "c")}
        )
        if df.empty or "o" not in df.columns:
            return empty
        o = df["o"].to_numpy(dtype=np.int64)
        it = df["i"].to_numpy(dtype=np.int64)
        # local (order, item) dedup — each order arrives whole
        order = np.lexsort((it, o))
        o, it = o[order], it[order]
        first = np.concatenate(
            ([True], (o[1:] != o[:-1]) | (it[1:] != it[:-1]))
        )
        o, it = o[first], it[first]
        new = np.concatenate(([True], o[1:] != o[:-1]))
        starts = np.flatnonzero(new)
        sizes = np.diff(np.concatenate((starts, [len(o)])))
        keep = sizes <= max_basket
        from opentapioca_ray.stages.triangles import _segment_pairs

        seg = np.cumsum(new) - 1
        seg_keep = keep[seg]
        li, ri = _segment_pairs(seg[seg_keep])
        itk = it[seg_keep]
        parts = []
        if len(li):
            part = pd.DataFrame({"u": itk[li], "v": itk[ri]})
            parts.append(
                part.groupby(["u", "v"], sort=False)
                .size()
                .reset_index(name="c")
            )
        # item marginals (distinct orders per item), tagged v = -1
        ui, cnt = np.unique(it, return_counts=True)
        parts.append(
            pd.DataFrame(
                {"u": ui, "v": np.full(len(ui), -1, dtype=np.int64), "c": cnt}
            )
        )
        # this partition's distinct-order count, tagged u = v = -1
        parts.append(
            pd.DataFrame(
                {
                    "u": np.array([-1], dtype=np.int64),
                    "v": np.array([-1], dtype=np.int64),
                    "c": np.array([len(starts)], dtype=np.int64),
                }
            )
        )
        return pd.concat(parts, ignore_index=True)

    tagged = right_size(
        coarse_groupby_agg(
            coarse_group_apply(
                ds.select_columns([order_column, item_column]).map_batches(
                    slim, batch_format="pyarrow"
                ),
                "o",
                pair_partition,
                n_parts=n_parts,
            ),
            ["u", "v"],
            {"n_xy": ("c", "sum")},
            n_parts=n_parts,
        ).materialize()
    )

    import pyarrow.compute as pc

    def pairs_only(b: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("u", pa.int64()), ("v", pa.int64()), ("n_xy", pa.int64())]
        )
        if b.num_rows == 0 or "n_xy" not in b.column_names:
            return schema.empty_table()
        return b.filter(
            pc.and_(
                pc.greater_equal(b.column("v"), pa.scalar(0, pa.int64())),
                pc.greater_equal(b.column("n_xy"), min_support),
            )
        ).cast(schema)

    pairs = right_size(
        tagged.map_batches(pairs_only, batch_format="pyarrow").materialize()
    )

    def stats_only(b: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("node", pa.int64()), ("s", pa.int64()), ("d", pa.int64())]
        )
        if b.num_rows == 0 or "n_xy" not in b.column_names:
            return schema.empty_table()
        t = b.filter(
            pc.and_(
                pc.equal(b.column("v"), pa.scalar(-1, pa.int64())),
                pc.greater_equal(b.column("u"), pa.scalar(0, pa.int64())),
            )
        )
        return pa.table(
            {
                "node": t.column("u").cast(pa.int64()),
                "s": t.column("n_xy").cast(pa.int64()),
                "d": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
            }
        ).cast(schema)

    stats = tagged.map_batches(stats_only, batch_format="pyarrow")

    # total distinct orders: the single (-1, -1) roll-up row
    t_orders = 0
    for t in arrow_blocks(tagged.map_batches(
        lambda b: (
            b.filter(
                pc.and_(
                    pc.equal(b.column("u"), pa.scalar(-1, pa.int64())),
                    pc.equal(b.column("v"), pa.scalar(-1, pa.int64())),
                )
            ).select(["n_xy"])
            if b.num_rows and "n_xy" in b.column_names
            else pa.schema([("n_xy", pa.int64())]).empty_table()
        ),
        batch_format="pyarrow",
    )):
        if t.num_rows:
            t_orders += int(t.column("n_xy").to_numpy().sum())

    with_u = _attach_node_stats(
        pairs, stats, "u", ["u", "v", "n_xy"], "n_x", "_du", n_parts
    )
    both = _attach_node_stats(
        with_u, stats, "v", ["u", "v", "n_xy", "n_x", "_du"], "n_y", "_dv",
        n_parts,
    )

    out_schema = pa.schema(
        [
            ("x", pa.int64()),
            ("y", pa.int64()),
            ("n_xy", pa.int64()),
            ("n_x", pa.int64()),
            ("n_y", pa.int64()),
            ("conf_xy_e6", pa.int64()),
            ("conf_yx_e6", pa.int64()),
            ("lift_e6", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return out_schema.empty_table()
        n_xy = batch.column("n_xy").to_numpy(zero_copy_only=False).astype(np.int64)
        n_x = batch.column("n_x").to_numpy(zero_copy_only=False).astype(np.int64)
        n_y = batch.column("n_y").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "x": batch.column("u").cast(pa.int64()),
                "y": batch.column("v").cast(pa.int64()),
                "n_xy": pa.array(n_xy),
                "n_x": pa.array(n_x),
                "n_y": pa.array(n_y),
                "conf_xy_e6": pa.array(n_xy * 1_000_000 // n_x),
                "conf_yx_e6": pa.array(n_xy * 1_000_000 // n_y),
                "lift_e6": pa.array(
                    n_xy * np.int64(t_orders) * 1_000_000 // (n_x * n_y)
                ),
            }
        )

    return both.map_batches(finish, batch_format="pyarrow")
