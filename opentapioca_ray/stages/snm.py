"""Standalone sorted-neighborhood method (SNM) pair generation.

The classic ER blocking alternative (Hernandez & Stolfo, "The merge/purge
problem for large databases", SIGMOD 1995): impose ONE total order on the
corpus by a sort key, slide a window of w positions, emit every pair within
the window. Near-duplicates with similar sort keys become candidate pairs
without any O(n^2) block.

This repo already uses windowed pairing INSIDE oversized blocks as a skew
guard (stages/pairs.block_pairs); this module is the global, corpus-wide
variant — the one a user of the reference's blocking would reach for when
no natural blocking key exists.

Distributed shape (no global Ray sort, no driver materialization):

1. sample ~8k sort keys deterministically -> P-1 range boundaries
   (broadcast, tiny);
2. ONE range exchange on the boundary id assigns each row its range
   partition; a slim per-partition count table (P rows) is the only thing
   the driver ever sees, and its cumulative sums give exact global ranks;
3. each ranked row is re-keyed by rank chunk (rn // C); rows in the first
   w ranks of a chunk are DUPLICATED into the previous chunk, so every
   window pair is local to exactly one chunk owner;
4. ONE chunk exchange; a vectorized kernel pairs rank i with ranks
   i+1..i+w (ownership test `rn // C == chunk` keeps each pair unique).

Partitioning assumptions: sampled boundaries keep range partitions near
corpus/P rows (skewed identical keys concentrate — same caveat as any
range sort); C >> w so duplicated boundary rows are a w/C sliver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks

_PAIR_SCHEMA = pa.schema(
    [("u", pa.int64()), ("v", pa.int64()), ("gap", pa.int64())]
)

_HASH_KEY = "opentapioca_ray0"


def _sample_boundaries(slim, key_column: str, id_column: str, n_parts: int):
    """Deterministic ~8k-key sample -> sorted (key, id) range boundaries.

    Sampling hashes the ID (uniform regardless of key skew); the collected
    sample is bounded, never the corpus."""
    import ray

    n = slim.count()
    target = max(n_parts * 64, 2048)
    if n <= target:
        prob_mod = 1
    else:
        prob_mod = max(1, n // target)

    def pick(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return pa.schema(
                [(key_column, pa.string()), (id_column, pa.int64())]
            ).empty_table()
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        keep = (
            pd.util.hash_array(ids.astype(np.int64), hash_key=_HASH_KEY)
            % np.uint64(prob_mod)
        ) == 0
        return batch.filter(pa.array(keep))

    keys, ids = [], []
    for t in arrow_blocks(slim.map_batches(pick, batch_format="pyarrow")):
        if t.num_rows == 0 or key_column not in t.column_names:
            continue
        keys.append(t.column(key_column).to_numpy(zero_copy_only=False))
        ids.append(t.column(id_column).to_numpy(zero_copy_only=False))
    if not keys:
        return None
    k = np.concatenate(keys)
    i = np.concatenate(ids).astype(np.int64)
    # lexsort on sorted-unique codes (np.unique codes are order-preserving):
    # integer codes sort faster than object arrays and pin a deterministic
    # code-based ordering for the boundary pick
    _, codes = np.unique(k, return_inverse=True)
    order = np.lexsort((i, codes))
    k, i = k[order], i[order]
    # P-1 evenly spaced boundaries over the sample
    pos = (np.arange(1, n_parts) * len(k)) // n_parts
    pos = np.unique(pos[(pos > 0) & (pos < len(k))])
    return k[pos], i[pos]


def _range_pid(keys: np.ndarray, ids: np.ndarray, bounds) -> np.ndarray:
    """Partition id in [0, P): count of boundaries strictly below (key, id).
    Composite searchsorted: strictly-below on key, then tie-broken by id."""
    bk, bi = bounds
    lo = np.searchsorted(bk, keys, side="left")
    hi = np.searchsorted(bk, keys, side="right")
    pid = lo.astype(np.int64)
    ties = hi > lo
    if ties.any():
        # boundary keys equal the row key: boundary sorts before the row
        # iff its id <= row id; boundaries are (key,id)-sorted so the ids
        # of the tied boundary run are bi[lo:hi] (ascending). lo/hi depend
        # only on the key, so loop over the <= P-1 distinct runs, not rows.
        t = np.flatnonzero(ties)
        for u in np.unique(lo[t]):
            sel = t[lo[t] == u]
            run = bi[u : hi[sel[0]]]
            pid[sel] = u + np.searchsorted(run, ids[sel], side="right")
    return pid


def global_rank(
    ds,
    key_column: str,
    id_column: str,
    n_parts: int | None = None,
):
    """(id, key) -> (id, rn) where rn is the exact dense global
    row_number() OVER (ORDER BY key, id), 1-based. Works for arbitrary
    (string) sort keys — no bounded-cardinality assumption (contrast
    `stages/windows.global_order_index`, which broadcasts a value
    histogram)."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        default_n_parts,
        right_size,
    )

    slim = right_size(
        ds.select_columns([id_column, key_column]).materialize()
    )
    # size P to the data: tiny inputs take ONE partition (three exchanges
    # over 128 near-empty partitions is pure scheduling overhead), large
    # inputs get the full CPU-proportional fan-out
    n_rows = slim.count()
    if n_parts is None:
        n_parts = min(
            default_n_parts(), max(1, (n_rows + 65_535) // 65_536)
        )
    bounds = _sample_boundaries(slim, key_column, id_column, n_parts)

    def add_pid(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or key_column not in batch.column_names:
            return pa.schema(
                [
                    (id_column, pa.int64()),
                    (key_column, pa.string()),
                    ("pid", pa.int64()),
                ]
            ).empty_table()
        keys = batch.column(key_column).to_numpy(zero_copy_only=False)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        if bounds is None:
            pid = np.zeros(len(keys), dtype=np.int64)
        else:
            pid = _range_pid(keys, ids, bounds)
        return pa.table(
            {
                id_column: pa.array(ids),
                key_column: batch.column(key_column),
                "pid": pa.array(pid),
            }
        )

    with_pid = slim.map_batches(add_pid, batch_format="pyarrow").materialize()
    # per-pid counts: P rows — the only driver-side table
    counts = partial_sum_count(with_pid.select_columns(["pid"]), "pid", [])
    pid_n = np.zeros(n_parts, dtype=np.int64)
    for t in arrow_blocks(counts):
        if t.num_rows == 0 or "pid" not in t.column_names:
            continue
        p = t.column("pid").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("count").to_numpy(zero_copy_only=False).astype(np.int64)
        np.add.at(pid_n, p, c)
    offsets = np.concatenate(([0], np.cumsum(pid_n)[:-1]))

    def rank_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    "rn": pd.Series(dtype=np.int64),
                }
            )
        keys = df[key_column].to_numpy()
        ids = df[id_column].to_numpy(dtype=np.int64)
        pids = df["pid"].to_numpy(dtype=np.int64)
        _, kcodes = np.unique(keys, return_inverse=True)
        order = np.lexsort((ids, kcodes, pids))
        pids_s, ids_s = pids[order], ids[order]
        new = np.concatenate(([True], pids_s[1:] != pids_s[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        within = np.arange(len(ids_s), dtype=np.int64) - starts[seg]
        return pd.DataFrame(
            {id_column: ids_s, "rn": offsets[pids_s] + within + 1}
        )

    return coarse_group_apply(with_pid, "pid", rank_partition, n_parts=n_parts)


def sorted_neighborhood_pairs(
    ds,
    key_column: str,
    id_column: str,
    window: int = 5,
    chunk: int = 4096,
    n_parts: int | None = None,
):
    """Corpus-wide SNM candidate pairs: every (u, v, gap) where v follows u
    by gap <= `window` positions in the global (key, id) order."""
    if window >= chunk:
        raise ValueError("chunk must exceed window")

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        default_n_parts,
        right_size,
    )

    ranked = right_size(
        global_rank(ds, key_column, id_column, n_parts=n_parts).materialize()
    )
    if n_parts is None:
        n_parts = min(
            default_n_parts(),
            max(1, (ranked.count() + 65_535) // 65_536),
        )

    def to_chunks(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "rn" not in batch.column_names:
            return pa.schema(
                [
                    (id_column, pa.int64()),
                    ("rn", pa.int64()),
                    ("chunk", pa.int64()),
                ]
            ).empty_table()
        rn = batch.column("rn").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        own = (rn - 1) // chunk
        dup = ((rn - 1) % chunk < window) & (own > 0)
        out_id = np.concatenate((ids, ids[dup]))
        out_rn = np.concatenate((rn, rn[dup]))
        out_ch = np.concatenate((own, own[dup] - 1))
        return pa.table(
            {
                id_column: pa.array(out_id),
                "rn": pa.array(out_rn),
                "chunk": pa.array(out_ch),
            }
        )

    chunked = ranked.map_batches(to_chunks, batch_format="pyarrow")

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                "gap": pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        ch = df["chunk"].to_numpy(dtype=np.int64)
        rn = df["rn"].to_numpy(dtype=np.int64)
        ids = df[id_column].to_numpy(dtype=np.int64)
        order = np.lexsort((rn, ch))
        ch, rn, ids = ch[order], rn[order], ids[order]
        own = (rn - 1) // chunk == ch  # pair belongs to its left row's chunk
        out_u, out_v, out_g = [], [], []
        n = len(rn)
        for d in range(1, window + 1):
            if n <= d:
                break
            left = np.arange(n - d)
            ok = (
                (ch[left] == ch[left + d])
                & (rn[left + d] - rn[left] == d)
                & own[left]
            )
            if ok.any():
                out_u.append(ids[left[ok]])
                out_v.append(ids[left[ok] + d])
                out_g.append(np.full(int(ok.sum()), d, dtype=np.int64))
        if not out_u:
            return empty
        return pd.DataFrame(
            {
                "u": np.concatenate(out_u),
                "v": np.concatenate(out_v),
                "gap": np.concatenate(out_g),
            }
        )

    return coarse_group_apply(chunked, "chunk", pair_partition, n_parts=n_parts)


def block_key_pairs(
    ds,
    key_column: str,
    id_column: str,
    max_block_size: int = 512,
    window: int = 16,
    n_parts: int | None = None,
):
    """All candidate pairs sharing a blocking key, canonicalized to
    (u, v) with u < v by id. Oversized blocks fall back to the
    sorted-neighborhood window by id — the `stages/pairs.block_pairs` skew
    guard used across this repo (documented recall loss, sized so
    oracle-scale inputs never hit it). ONE coarse exchange on the key; the
    partition kernel pairs ALL its blocks vectorized."""
    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.pairs import block_pairs

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"u": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)}
            )
        ids = df[id_column].to_numpy(dtype=np.int64)
        i, j, _ = block_pairs(
            df[key_column].to_numpy(), ids, ids, max_block_size, window
        )
        return pd.DataFrame({"u": ids[i], "v": ids[j]})

    slim = ds.select_columns([id_column, key_column])
    return coarse_group_apply(slim, key_column, pair_partition, n_parts=n_parts)


def multi_pass_pairs(pair_sets: list):
    """Multi-pass blocking union with provenance: given [(pairs_ds, bit)]
    where each dataset holds canonical (u, v) pairs emitted AT MOST ONCE
    per scheme, returns (u, v, schemes) with `schemes` the bit-OR of the
    passes that proposed the pair. Classic ER practice (Hernandez &
    Stolfo 1995 multi-pass sorted neighborhood): cheap independent keys
    whose UNION recovers recall any single key misses.

    One tagged union + ONE coarse (u, v) merge (bits are disjoint, so sum
    == OR); no pair payloads ride the exchange."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def tag(bit: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "u" not in batch.column_names:
                return pa.schema(
                    [("u", pa.int64()), ("v", pa.int64()), ("schemes", pa.int64())]
                ).empty_table()
            u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
            v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "u": pa.array(np.minimum(u, v)),
                    "v": pa.array(np.maximum(u, v)),
                    "schemes": pa.array(
                        np.full(batch.num_rows, bit, dtype=np.int64)
                    ),
                }
            )

        return fn

    tagged = None
    for ds_i, bit in pair_sets:
        t = ds_i.map_batches(tag(bit), batch_format="pyarrow")
        tagged = t if tagged is None else tagged.union(t)
    return coarse_groupby_agg(tagged, ["u", "v"], {"schemes": ("schemes", "sum")})


def progressive_pairs(
    ds,
    key_column: str,
    id_column: str,
    window: int = 5,
    budget: int = 1000,
    chunk: int = 4096,
    n_parts: int | None = None,
):
    """Progressive SNM (Papenbrock, Heise & Naumann, "Progressive
    Duplicate Detection", TKDE 2015): the first `budget` candidate pairs
    in the pay-as-you-go comparison order — ALL gap-1 neighbors first,
    then gap 2, ... — so a truncated run maximizes early matches. Output
    (u, v, gap, ord) where ord is the exact 1-based position in that
    order: ord = (gap-1)*n - gap*(gap-1)/2 + rank(u), a closed form over
    the global rank, so the budget cut needs NO extra pass — the same
    chunked exchange as `sorted_neighborhood_pairs` emits and filters in
    place."""
    if window >= chunk:
        raise ValueError("chunk must exceed window")

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        default_n_parts,
        right_size,
    )

    ranked = right_size(
        global_rank(ds, key_column, id_column, n_parts=n_parts).materialize()
    )
    n_total = ranked.count()
    if n_parts is None:
        n_parts = min(default_n_parts(), max(1, (n_total + 65_535) // 65_536))

    def to_chunks(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "rn" not in batch.column_names:
            return pa.schema(
                [
                    (id_column, pa.int64()),
                    ("rn", pa.int64()),
                    ("chunk", pa.int64()),
                ]
            ).empty_table()
        rn = batch.column("rn").to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        own = (rn - 1) // chunk
        dup = ((rn - 1) % chunk < window) & (own > 0)
        return pa.table(
            {
                id_column: pa.array(np.concatenate((ids, ids[dup]))),
                "rn": pa.array(np.concatenate((rn, rn[dup]))),
                "chunk": pa.array(np.concatenate((own, own[dup] - 1))),
            }
        )

    chunked = ranked.map_batches(to_chunks, batch_format="pyarrow")
    out_cols = ("u", "v", "gap", "ord")

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        if df.empty:
            return empty
        ch = df["chunk"].to_numpy(dtype=np.int64)
        rn = df["rn"].to_numpy(dtype=np.int64)
        ids = df[id_column].to_numpy(dtype=np.int64)
        order = np.lexsort((rn, ch))
        ch, rn, ids = ch[order], rn[order], ids[order]
        own = (rn - 1) // chunk == ch
        out = []
        n = len(rn)
        for d in range(1, window + 1):
            if n <= d:
                break
            left = np.arange(n - d)
            ok = (
                (ch[left] == ch[left + d])
                & (rn[left + d] - rn[left] == d)
                & own[left]
            )
            if not ok.any():
                continue
            r = rn[left[ok]]
            ordv = (d - 1) * n_total - d * (d - 1) // 2 + r
            keep = ordv <= budget
            if keep.any():
                out.append(
                    pd.DataFrame(
                        {
                            "u": ids[left[ok]][keep],
                            "v": ids[left[ok] + d][keep],
                            "gap": np.full(int(keep.sum()), d, dtype=np.int64),
                            "ord": ordv[keep],
                        }
                    )
                )
        if not out:
            return empty
        return pd.concat(out, ignore_index=True)

    return coarse_group_apply(chunked, "chunk", pair_partition, n_parts=n_parts)
