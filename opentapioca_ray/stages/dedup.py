"""Deduplication operators over document/file tables.

First-class training-data-pipeline components (driver brief): exact dedup
(hash-partitioned), MinHash-LSH near-dedup, SimHash near-dedup, n-gram
Jaccard verification, embedding-cosine near-dup. The transitive-closure step
reuses stages/cc.py; the reference's exact upsert-by-id semantics are
mirrored by `compact_by_key` (reference taggerfactory.py:103-120, Solr
last-write-wins on uniqueKey id — SURVEY.md D5).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.functions.minhash import jaccard, simhash
from opentapioca_ray.functions.vectors import list_to_matrix, matrix_to_list
from opentapioca_ray.stages.cc import connected_components
from opentapioca_ray.stages.pairs import CONTENT_CAP, block_pairs, blocking_batch
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset


def add_hash_column(
    batch: pa.Table, text_column: str = "text", algo: str = "md5", name: str = "text_hash"
) -> pa.Table:
    fn = hashlib.md5 if algo == "md5" else hashlib.sha256
    hashes = [
        fn((t or "").encode("utf-8")).hexdigest()
        for t in batch.column(text_column).to_pylist()
    ]
    return batch.append_column(name, pa.array(hashes, type=pa.string()))


def exact_dedup(ds, id_column: str, text_column: str = "text", algo: str = "md5"):
    """Hash-partition + per-group first: one row per distinct content hash
    with the minimal id as representative and the duplicate count.

    Pre-aggregates inside map_batches? Not needed: the groupby moves only
    (hash, id) pairs after column pruning."""
    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(
        lambda b: add_hash_column(b, text_column, algo),
        batch_format="pyarrow",
    ).select_columns(["text_hash", id_column])
    return hashed.groupby("text_hash").aggregate(
        Min(id_column, alias_name="keep_id"),
        Count(alias_name="dup_count"),
    )


def compact_by_key(
    ds, key: str = "id", version: str = "revid", tombstone: str | None = None
):
    """Upsert compaction: keep the row with max version per key
    (reference Solr last-write-wins, taggerfactory.py:103-120).

    `tombstone` names an optional boolean column marking delete markers
    (reference `_push_documents` interprets None docs as deletions when
    `delete_excluded=True`, taggerfactory.py:103-124): a key whose WINNING
    (latest) row is a tombstone is dropped entirely — the anti-join runs
    vectorized inside the same partition kernel, no extra exchange.

    One coarse-partition exchange (hash(key) % P); the partition kernel
    compacts ALL its keys with one vectorized lexsort + last-per-segment
    take — not a per-key `map_groups`, which pays per-group overhead on
    millions of near-singleton keys. The kernel is Arrow-native (`take` on
    the zero-copy table), so nested columns (list<...>) survive untouched —
    a pandas round-trip would mangle empty list columns."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def keep_latest_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or key not in t.column_names:
            return t
        k = t.column(key).to_numpy(zero_copy_only=False)
        ver = t.column(version).to_numpy(zero_copy_only=False)
        _, codes = np.unique(k, return_inverse=True)  # string-safe sort key
        order = np.lexsort((ver, codes))
        sc = codes[order]
        last = np.flatnonzero(np.concatenate((sc[1:] != sc[:-1], [True])))
        take = order[last]
        if tombstone is not None and tombstone in t.column_names:
            dead = (
                pc.fill_null(t.column(tombstone).cast(pa.bool_()), False)
                .to_numpy(zero_copy_only=False)
                .astype(bool)
            )
            take = take[~dead[take]]
        return t.take(pa.array(np.sort(take)))

    return coarse_group_apply(
        ds, key, keep_latest_partition, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# MinHash-LSH near-dedup
# ---------------------------------------------------------------------------

def _shingle_set(tokens, k: int) -> set:
    """Distinct k-token shingle strings; docs shorter than k (including
    empty) collapse to the single whole-doc shingle — the exact semantics
    the SQL oracle mirrors (space-join is injective: the tokenizer splits on
    space, so no token contains one)."""
    if len(tokens) >= k:
        return {" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)}
    return {" ".join(tokens)}


def _verify_partition_fn(threshold: float, shingle_k: int, max_block_size: int = 64, window: int = 8):
    """ALL blocks of one coarse partition at once (not per-tiny-block
    map_groups): `block_pairs` enumerates each block's candidate pairs
    (all-pairs under `max_block_size`, else sorted-neighborhood by minhash
    head with `window`), verified with exact token-shingle Jaccard on the
    carried prefixes. Shingle sets are cached per file within the
    partition."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                "jaccard": pd.Series(dtype=np.float64),
            }
        )
        if df.empty:
            return empty
        ids = df["file_id"].to_numpy(dtype=np.int64)
        tokens = df["tokens"].to_numpy()
        pi, pj, _ = block_pairs(
            df["block_key"].to_numpy(), df["sig_head"].to_numpy(), ids,
            max_block_size, window,
        )
        cache: dict[int, set] = {}
        seen_pairs: set[tuple[int, int]] = set()
        out_u, out_v, out_j = [], [], []
        for i, j in zip(pi, pj):
            u, v = (ids[i], ids[j]) if ids[i] <= ids[j] else (ids[j], ids[i])
            if (u, v) in seen_pairs:
                continue  # already verified within this partition
            seen_pairs.add((u, v))
            sa = cache.get(u)
            if sa is None:
                sa = cache[u] = _shingle_set(
                    list(tokens[i if ids[i] == u else j]), shingle_k
                )
            sb = cache.get(v)
            if sb is None:
                sb = cache[v] = _shingle_set(
                    list(tokens[j if ids[j] == v else i]), shingle_k
                )
            jac = jaccard(sa, sb)
            if jac >= threshold:
                out_u.append(u)
                out_v.append(v)
                out_j.append(jac)
        if not out_u:
            return empty
        return pd.DataFrame(
            {
                "u": np.array(out_u, dtype=np.int64),
                "v": np.array(out_v, dtype=np.int64),
                "jaccard": np.array(out_j, dtype=np.float64),
            }
        )

    return fn


def minhash_pairs(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    threshold: float = 0.7,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 3,
    n_parts: int | None = None,
):
    """shingle -> minhash -> band -> coarse-partition verify -> verified
    near-dup pairs (u, v, jaccard) with u < v and jaccard >= threshold.

    The Jaccard is EXACT over the carried token-prefix shingle sets, so the
    pair set is SQL-oracle-checkable (the LSH banding only provides the
    candidate filter)."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
        right_size,
    )
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    blocks = ds.map_batches(
        lambda b: blocking_batch(
            b,
            id_column=id_column,
            text_column=text_column,
            repo_column=None,
            num_perm=num_perm,
            bands=bands,
            shingle_k=shingle_k,
        ),
        batch_format="pyarrow",
    )
    # survivors of the singleton prefilter are a sliver of the corpus but
    # inherit its block count — collapse before the exchanges so the sort
    # doesn't pay per-block task overhead (blocks >> rows regime)
    survivors = right_size(prefilter_singleton_blocks(blocks).materialize())
    edges = coarse_group_apply(
        survivors,
        "block_key",
        _verify_partition_fn(threshold, shingle_k),
        n_parts=n_parts,
    )
    # a pair can surface from several bands/partitions — keep one row
    # (jaccard is deterministic per pair, so max == first); ONE coarse
    # (u, v) exchange, not Ray's sort-based multi-key groupby
    return coarse_groupby_agg(
        right_size(edges.materialize()),
        ["u", "v"],
        {"jaccard": ("jaccard", "max")},
        n_parts=n_parts,
    )


def minhash_dedup(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    threshold: float = 0.7,
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 3,
):
    """Transitive MinHash-LSH near-dedup: verified pairs -> CC clusters.
    Returns (node, component) assignments for every doc in a near-dup
    cluster of size >= 2."""
    pairs = minhash_pairs(
        ds, id_column, text_column, threshold, num_perm, bands, shingle_k
    )
    return connected_components(pairs.select_columns(["u", "v"]))


# ---------------------------------------------------------------------------
# SimHash near-dedup
# ---------------------------------------------------------------------------

def simhash_batch(
    batch: pa.Table, id_column: str = "doc_id", text_column: str = "text", shingle_k: int = 3
) -> pa.Table:
    """Per doc: 64-bit simhash + 4 x 16-bit band keys (a pair within
    hamming distance 3 shares at least one band by pigeonhole)."""
    ids = batch.column(id_column).to_pylist()
    texts = batch.column(text_column).to_pylist()
    from opentapioca_ray.functions.minhash import shingle_stream, token_hashes
    from opentapioca_ray.functions.text import tokenize_codes

    codes, vocab, counts = tokenize_codes([(text or "")[:CONTENT_CAP] for text in texts])
    sh, sh_counts = shingle_stream(token_hashes(codes, vocab), counts, shingle_k)
    out_id, out_sim, out_band = [], [], []
    for fid, hashes in zip(ids, np.split(sh, np.cumsum(sh_counts)[:-1])):
        h = simhash(hashes)
        for band in range(4):
            chunk = (h >> (band * 16)) & 0xFFFF
            out_id.append(fid)
            out_sim.append(h)
            out_band.append(f"s{band}:{chunk:04x}")
    return pa.table(
        {
            "doc_id": pa.array(out_id, type=pa.int64()),
            "simhash": pa.array(out_sim, type=pa.uint64()),
            "block_key": pa.array(out_band, type=pa.string()),
        }
    )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (numpy < 2 has no bit_count)."""
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)


def _simhash_verify_partition(max_hamming: int):
    """ALL pigeonhole blocks of one coarse partition at once: `block_pairs`
    enumerates every block's pairs (uncapped), and their Hamming distances
    are one vectorized XOR + popcount pass. Emits (u, v, hamming) per pair
    within `max_hamming`."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("u", "v", "hamming")}
            )
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        sims = df["simhash"].to_numpy(dtype=np.uint64)
        i, j, _ = block_pairs(df["block_key"].to_numpy(), ids, ids, None, 0)
        ham = _popcount64(sims[i] ^ sims[j]).astype(np.int64)
        hit = ham <= max_hamming
        a, b = ids[i[hit]], ids[j[hit]]
        return pd.DataFrame(
            {"u": np.minimum(a, b), "v": np.maximum(a, b), "hamming": ham[hit]}
        )

    return fn


_SHIFTS64 = np.arange(64, dtype=np.uint64)


def simhash_md5_batch(
    batch: pa.Table,
    id_column: str = "doc_id",
    text_column: str = "text",
    shingle_k: int = 3,
    max_chars: int = 10_000,
) -> pa.Table:
    """Per doc: 64-bit simhash over DISTINCT word-k-grams where the per-gram
    hash is the big-endian first 8 bytes of md5(gram) — the one 64-bit hash
    DuckDB can reproduce (`('0x' || substr(md5(g),1,16))::UBIGINT`), which
    makes the verified pair set fully SQL-oracle-checkable. Bit i of the
    simhash is 1 iff strictly more grams set bit i than clear it. Gram
    definition matches `gram_table` (docs with < k tokens collapse to one
    whole-doc gram; token-less docs emit nothing); text is truncated to
    `max_chars` first (reference tagger truncation, tagger.py:52-55).

    Emits 4 x 16-bit pigeonhole band rows per doc — a pair within Hamming
    distance 3 shares at least one band, so banded recall on qualifying
    pairs is exactly 1 and the banded output EQUALS the all-pairs answer."""
    from opentapioca_ray.functions.text import tokenize_flat

    ids = batch.column(id_column).to_pylist()
    texts = batch.column(text_column).to_pylist()
    flat, counts = tokenize_flat([(t or "")[:max_chars] for t in texts])
    ends = np.cumsum(counts)
    keep_ids, gram_lists = [], []
    for fid, n, e in zip(ids, counts, ends):
        if not n:
            continue
        toks = flat[e - n : e]
        if n < shingle_k:
            grams = [" ".join(toks)]
        else:
            grams = sorted(
                {" ".join(toks[i : i + shingle_k]) for i in range(n - shingle_k + 1)}
            )
        keep_ids.append(fid)
        gram_lists.append(grams)
    if not keep_ids:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "simhash": pa.array([], type=pa.uint64()),
                "block_key": pa.array([], type=pa.string()),
            }
        )
    # hash each distinct gram once per batch (md5 is the cost center)
    all_grams = np.concatenate([np.asarray(g, dtype=object) for g in gram_lists])
    uniq, inv = np.unique(all_grams, return_inverse=True)
    digests = b"".join(hashlib.md5(g.encode("utf-8")).digest()[:8] for g in uniq)
    uniq_h = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    flat_h = uniq_h[inv]
    gcounts = np.array([len(g) for g in gram_lists], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(gcounts)[:-1]))
    bits = ((flat_h[:, None] >> _SHIFTS64) & np.uint64(1)).astype(np.uint8)
    sums = np.add.reduceat(bits, starts, axis=0, dtype=np.int64)  # D x 64
    votes = 2 * sums - gcounts[:, None]
    sims = ((votes > 0).astype(np.uint64) << _SHIFTS64).sum(axis=1, dtype=np.uint64)
    out_id, out_sim, out_band = [], [], []
    for fid, h in zip(keep_ids, sims.tolist()):
        for band in range(4):
            chunk = (h >> (band * 16)) & 0xFFFF
            out_id.append(fid)
            out_sim.append(h)
            out_band.append(f"s{band}:{chunk:04x}")
    return pa.table(
        {
            "doc_id": pa.array(out_id, type=pa.int64()),
            "simhash": pa.array(out_sim, type=pa.uint64()),
            "block_key": pa.array(out_band, type=pa.string()),
        }
    )


def simhash_md5_pairs(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    max_hamming: int = 3,
    shingle_k: int = 3,
):
    """SimHash near-dup VERIFIED pair set (u, v, hamming) with the
    md5-derived gram hash — exactly the all-pairs `hamming <= max_hamming`
    answer (see `simhash_md5_batch`), so a DuckDB all-pairs oracle checks it
    value-for-value."""
    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    sims = ds.map_batches(
        lambda b: simhash_md5_batch(b, id_column, text_column, shingle_k),
        batch_format="pyarrow",
        batch_size=256,  # the 64-wide bit matrix is the memory driver
    )
    sims = prefilter_singleton_blocks(sims, min_size=2)
    edges = coarse_group_apply(
        sims, "block_key", _simhash_verify_partition(max_hamming)
    )
    # cross-band dedup; hamming is identical on every band hit, min is a tag
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    return coarse_groupby_agg(edges, ["u", "v"], {"hamming": ("hamming", "min")})


def simhash_dedup(ds, id_column: str = "doc_id", text_column: str = "text", max_hamming: int = 3):
    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    sims = ds.map_batches(
        lambda b: simhash_batch(b, id_column, text_column), batch_format="pyarrow"
    )
    sims = prefilter_singleton_blocks(sims, min_size=2)
    edges = coarse_group_apply(
        sims, "block_key", _simhash_verify_partition(max_hamming)
    )
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    # cross-band dedup; the aggregate keeps (u, v, nb) and drops `hamming`
    edges = coarse_groupby_agg(edges, ["u", "v"], {"nb": ("u", "size")})
    return connected_components(edges.select_columns(["u", "v"]))


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard near-dedup
# ---------------------------------------------------------------------------

def _gram_pieces(ids, texts, k: int):
    """Tokenize a batch and compose its word-k-gram rows.

    Docs shorter than k tokens collapse to a single whole-doc gram; empty
    docs yield no grams. Fully vectorized: ONE Arrow
    `binary_join_element_wise` composes every k-gram window of the whole
    batch.

    Returns None for a gram-less batch, else `(all_docs, all_grams)` —
    the doc index of each gram row and the flat Arrow string grams, with
    every regular doc's window grams in POSITIONAL order (flat order) and
    the short docs' single whole-doc grams appended after. Callers that
    need per-doc positional sequences (winnowing) stable-sort by doc;
    `_gram_kernel` sorts by (doc, gram code) to dedup."""
    import pyarrow.compute as pc

    from opentapioca_ray.functions.text import tokenize_flat

    flat, counts = tokenize_flat([t or "" for t in texts])
    n = len(flat)
    ndocs = len(ids)
    if n == 0:
        return None
    counts = counts.astype(np.int64)
    doc_rep = np.repeat(np.arange(ndocs), counts)
    flat_arr = pa.array(flat, type=pa.string())
    piece_docs, piece_grams = [], []
    if n >= k:
        if k == 1:
            grams = flat_arr
            valid = np.ones(n, dtype=bool)
        else:
            parts = [flat_arr.slice(j, n - k + 1) for j in range(k)]
            grams = pc.binary_join_element_wise(*parts, " ")
            valid = doc_rep[: n - k + 1] == doc_rep[k - 1 :]
        if valid.any():
            piece_docs.append(doc_rep[: len(valid)][valid])
            piece_grams.append(grams.filter(pa.array(valid)))
    short = (counts > 0) & (counts < k)
    if short.any():
        # whole-doc gram for short docs: gather their token runs into one
        # list array and join each list in a single kernel call
        offs = np.concatenate(([0], np.cumsum(counts)))
        sidx = np.flatnonzero(short)
        lens = counts[sidx]
        run_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = (
            np.arange(lens.sum(), dtype=np.int64)
            - np.repeat(run_start, lens)
            + np.repeat(offs[sidx], lens)
        )
        vals = flat_arr.take(pa.array(pos))
        loffs = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(loffs, type=pa.int32()), vals)
        piece_docs.append(sidx)
        piece_grams.append(pc.binary_join(lists, " "))
    if not piece_docs:
        return None
    all_docs = np.concatenate(piece_docs)
    all_grams = pa.concat_arrays(
        [g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g
         for g in piece_grams]
    )
    return all_docs, all_grams


def _gram_kernel(batch: pa.Table, id_column: str, text_column: str, k: int):
    """Shared distinct word-k-gram kernel for a whole batch: `_gram_pieces`
    plus one lexsort over (doc, gram-code) to dedup per doc — no per-doc
    Python sets/joins (measured 1.4s -> 0.3s over 5k docs at sf0.1).

    Returns None for a gram-less batch, else a tuple
    `(ids_int64, kept_grams, kept_docs, per_doc)`: the batch's doc ids, a
    flat Arrow string array of distinct grams sorted by (doc index, gram
    code), the doc index of each kept gram, and the per-doc distinct-gram
    counts."""
    ids = batch.column(id_column).to_numpy(zero_copy_only=False)
    ndocs = len(ids)
    res = _gram_pieces(ids, batch.column(text_column).to_pylist(), k)
    if res is None:
        return None
    all_docs, all_grams = res
    codes = all_grams.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    o = np.lexsort((codes, all_docs))
    d_s, c_s = all_docs[o], codes[o]
    first = np.concatenate(
        ([True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1]))
    )
    kept_docs = d_s[first]
    kept_grams = all_grams.take(pa.array(o[np.flatnonzero(first)]))
    per_doc = np.bincount(kept_docs, minlength=ndocs)
    return ids.astype(np.int64), kept_grams, kept_docs, per_doc


def gram_table(
    batch: pa.Table, id_column: str = "doc_id", text_column: str = "text", k: int = 3
) -> pa.Table:
    """Per doc: distinct word-k-gram set as a `list<string>` column."""
    res = _gram_kernel(batch, id_column, text_column, k)
    if res is None:
        return pa.schema(
            [pa.field("doc_id", pa.int64()),
             pa.field("grams", pa.list_(pa.string()))]
        ).empty_table()
    ids, kept_grams, _kept_docs, per_doc = res
    loffs = np.concatenate(([0], np.cumsum(per_doc))).astype(np.int32)
    lists_all = pa.ListArray.from_arrays(pa.array(loffs, type=pa.int32()), kept_grams)
    return pa.table(
        {"doc_id": pa.array(ids), "grams": lists_all}
    ).filter(pa.array(per_doc > 0))


def gram_doc_rows(
    batch: pa.Table, id_column: str = "doc_id", text_column: str = "text", k: int = 3
) -> pa.Table:
    """Exploded distinct (gram, doc) rows, each carrying the doc's total
    distinct-gram count — ONE pass produces blocking keys AND the |A| sizes
    exact Jaccard needs, so no separate size dataset / attach exchange."""
    res = _gram_kernel(batch, id_column, text_column, k)
    if res is None:
        return _GRAM_ROWS_EMPTY
    ids, kept_grams, kept_docs, per_doc = res
    return pa.table(
        {
            "gram": kept_grams,
            "doc_id": pa.array(ids[kept_docs]),
            "n_grams": pa.array(per_doc[kept_docs].astype(np.int64)),
        }
    )


_GRAM_ROWS_EMPTY = pa.schema(
    [("gram", pa.string()), ("doc_id", pa.int64()), ("n_grams", pa.int64())]
).empty_table()


_NGRAM_DRIVER_LIMIT = 20_000_000

_NGRAM_EMPTY = pa.schema(
    [("u", pa.int64()), ("v", pa.int64()), ("jaccard", pa.float64())]
).empty_table()


def _pair_multiplicity(codes, ids, ngr):
    """Sorted-by-(code, id) distinct (code, id) rows -> unique doc pairs
    with their within-input shared-code multiplicity and each side's
    carried per-doc size. One `_segment_pairs` sweep + one `np.unique` over
    packed compact-id pairs — no per-group Python loop, and id magnitudes
    never limit the packing (ids are compacted first)."""
    from opentapioca_ray.stages.triangles import _segment_pairs

    li, ri = _segment_pairs(codes)
    if len(li) == 0:
        return None
    # rows are distinct (code, doc) and ids ascend within a code segment,
    # so ids[li] < ids[ri] strictly; compact ids so packing fits uint64
    _, inv = np.unique(ids, return_inverse=True)
    packed = (inv[li].astype(np.uint64) << np.uint64(32)) | inv[ri].astype(np.uint64)
    _, idx0, inter = np.unique(packed, return_index=True, return_counts=True)
    return (
        ids[li[idx0]],
        ids[ri[idx0]],
        inter.astype(np.int64),
        ngr[li[idx0]],
        ngr[ri[idx0]],
    )


def _ngram_pair_partition(df: pd.DataFrame) -> pd.DataFrame:
    """All (gram, doc, n_grams) rows of one coarse gram-hash partition ->
    per-pair shared-gram counts WITHIN the partition plus the carried
    per-doc sizes. Every row of a gram lands in the same partition, so
    summing the partial counts across partitions gives the exact global
    intersection size; na/nb are global per-doc constants and merge with
    max."""
    empty = pd.DataFrame(
        {
            c: pd.Series(dtype=np.int64)
            for c in ("u", "v", "inter", "na", "nb")
        }
    )
    if df.empty:
        return empty
    codes, _ = pd.factorize(df["gram"].to_numpy())
    ids = df["doc_id"].to_numpy(dtype=np.int64)
    ngr = df["n_grams"].to_numpy(dtype=np.int64)
    o = np.lexsort((ids, codes))
    res = _pair_multiplicity(codes[o], ids[o], ngr[o])
    if res is None:
        return empty
    u, v, inter, na, nb = res
    return pd.DataFrame({"u": u, "v": v, "inter": inter, "na": na, "nb": nb})


def _ngram_shuffle_pairs(exploded, threshold: float, n_parts=None):
    """All-shuffle n-gram Jaccard: ONE coarse gram-hash exchange computes
    partial pair counts with both sizes riding along, then one coarse
    (u, v) merge sums intersections (sizes are per-doc constants -> max).
    Identical math to the driver merge, no driver-side materialization and
    no separate size-attach exchanges."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    partial = coarse_group_apply(exploded, "gram", _ngram_pair_partition, n_parts=n_parts)
    pair_counts = coarse_groupby_agg(
        partial,
        ["u", "v"],
        {"inter": ("inter", "sum"), "na": ("na", "max"), "nb": ("nb", "max")},
        n_parts=n_parts,
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return _NGRAM_EMPTY
        inter = batch.column("inter").to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch.column("na").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch.column("nb").to_numpy(zero_copy_only=False).astype(np.float64)
        jac = inter / (na + nb - inter)
        keep = jac >= threshold
        return pa.table(
            {
                "u": pc.cast(batch.column("u"), pa.int64()).filter(pa.array(keep)),
                "v": pc.cast(batch.column("v"), pa.int64()).filter(pa.array(keep)),
                "jaccard": pa.array(jac[keep], type=pa.float64()),
            }
        )

    return pair_counts.map_batches(finish, batch_format="pyarrow")


def ngram_jaccard_pairs(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    k: int = 3,
    threshold: float = 0.5,
    max_df: int | None = None,
):
    """Exact n-gram Jaccard near-dup pairs: candidates = pairs sharing >= 1
    distinct word-k-gram; verified with exact Jaccard over the gram sets.

    Scale notes: exact gram blocking is the verification-grade variant —
    common grams create O(n^2) blocks, so at scale pass `max_df` to drop
    grams appearing in more than `max_df` docs (stop-gram pruning: pairs
    sharing only ultra-common grams are missed by design, and intersection
    counts then cover surviving grams only — a lower bound on true Jaccard).
    `minhash_dedup` is the approximate scale path.

    Key identity both regimes use: |A ∩ B| for a doc pair equals the pair's
    MULTIPLICITY across shared-gram groups, and |A| / |B| are the per-doc
    distinct-gram counts — exact Jaccard needs NO gram-set payloads, just
    pair occurrence counts + two size lookups (carried on the exploded rows
    themselves). Scale-adaptive merge: up to `_NGRAM_DRIVER_LIMIT`
    surviving (gram, doc) rows the counting happens in one vectorized
    driver pass (no shuffle); above it the same kernel runs per coarse
    gram-hash partition followed by one coarse (u, v) merge, fully
    distributed (`_ngram_shuffle_pairs`).

    Returns (u, v, jaccard) with u < v and jaccard >= threshold."""
    _EMPTY = _NGRAM_EMPTY

    # ONE pass over the corpus produces the exploded (gram, doc) rows WITH
    # each doc's distinct-gram count riding along — no gram-list dataset,
    # no separate size pass, no size-attach exchanges downstream.
    exploded = ds.map_batches(
        lambda b: gram_doc_rows(b, id_column, text_column, k),
        batch_format="pyarrow",
    )
    # Singleton grams (the overwhelming majority) can't produce pairs: drop
    # them before the wide groupby; `max_df` additionally drops stop-grams.
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    exploded = prefilter_singleton_blocks(
        exploded.map_batches(
            lambda b: b.rename_columns(["block_key", "doc_id", "n_grams"]),
            batch_format="pyarrow",
        ),
        min_size=2,
        max_size=max_df,
    ).map_batches(
        lambda b: b.rename_columns(["gram", "doc_id", "n_grams"]),
        batch_format="pyarrow",
    )

    exploded = exploded.materialize()
    if exploded.count() > _NGRAM_DRIVER_LIMIT:
        return _ngram_shuffle_pairs(exploded, threshold)

    # surviving (gram, doc, n_grams) rows -> pair occurrence counts
    gram_chunks, id_chunks, ngr_chunks = [], [], []
    for t in arrow_blocks(exploded):
        if t.num_rows == 0 or "gram" not in t.column_names:
            continue
        col = t.column("gram")
        gram_chunks.extend(col.chunks if isinstance(col, pa.ChunkedArray) else [col])
        id_chunks.append(t.column("doc_id").to_numpy(zero_copy_only=False))
        ngr_chunks.append(t.column("n_grams").to_numpy(zero_copy_only=False))
    if not gram_chunks:
        return driver_dataset(_EMPTY)
    codes = (
        pa.chunked_array(gram_chunks)
        .combine_chunks()
        .dictionary_encode()
        .indices.to_numpy(zero_copy_only=False)
    )
    ids = np.concatenate(id_chunks).astype(np.int64)
    ngr = np.concatenate(ngr_chunks).astype(np.int64)
    o = np.lexsort((ids, codes))
    res = _pair_multiplicity(codes[o], ids[o], ngr[o])
    if res is None:
        return driver_dataset(_EMPTY)
    u, v, inter, na, nb = res
    jac = inter / (na + nb - inter)
    keep = jac >= threshold
    table = pa.table(
        {
            "u": pa.array(u[keep], type=pa.int64()),
            "v": pa.array(v[keep], type=pa.int64()),
            "jaccard": pa.array(jac[keep], type=pa.float64()),
        }
    )
    n_slices = max(1, min(32, table.num_rows // 4096 + 1))
    step = max(1, (table.num_rows + n_slices - 1) // n_slices)
    slices = [table.slice(i, step) for i in range(0, table.num_rows, step)]
    return driver_dataset(slices or [table])


def ngram_jaccard_dedup(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    k: int = 3,
    threshold: float = 0.5,
    max_df: int | None = None,
):
    """Transitive n-gram-Jaccard near-dedup: verified pairs -> CC clusters."""
    pairs = ngram_jaccard_pairs(ds, id_column, text_column, k, threshold, max_df)
    return connected_components(pairs.select_columns(["u", "v"]))


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------

def embedding_pairs(
    ds,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    threshold: float = 0.95,
    num_bands: int = 8,
    planes_per_band: int = 8,
):
    """Random-hyperplane LSH (banded) + exact cosine verification ->
    verified pairs (u, v, cosine) with u < v and cosine >= threshold.

    Banding fixes the single-code recall cliff: one 16-plane code catches a
    cosine-0.95 pair with prob (1-θ/π)^16 ≈ 0.19, while 8 bands of 8 planes
    catch it with 1-(1-(1-θ/π)^8)^8 ≈ 0.97 — and exact-direction duplicates
    (cos = 1) collide in EVERY band, so recall on them is deterministic
    regardless of the plane draw. Cosine itself is exact (unit-vector dot),
    so the pair set is SQL-oracle-checkable.

    Scale shape (same as the linkage slim path): the band shuffle ships
    (vec_id, band_code) ONLY — vectors never ride the exchange. Candidate
    pairs are deduplicated across bands first; then the (far fewer)
    candidate vectors are broadcast once via ray.put and every pair is
    cosine-verified vectorized inside map_batches. Driver/broadcast state is
    bounded by candidate ids x dim, not the corpus."""
    import ray
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    num_planes = num_bands * planes_per_band
    planes_holder: dict = {}

    _EMPTY_PAIRS = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("cosine", pa.float64())]
    ).empty_table()

    def _planes(dim: int) -> np.ndarray:
        planes = planes_holder.get(dim)
        if planes is None:
            planes = np.random.RandomState(997).randn(dim, num_planes)
            planes_holder[dim] = planes
        return planes

    def _band_codes(vecs: np.ndarray) -> np.ndarray:
        """(n, num_bands) int64: per-band sign code + band offset so the
        same code in different bands never collides."""
        signs = (vecs @ _planes(vecs.shape[1]) > 0).astype(np.int64)
        codes = (
            signs.reshape(len(vecs), num_bands, planes_per_band)
            << np.arange(planes_per_band, dtype=np.int64)[None, None, :]
        ).sum(axis=2)
        return codes + (np.arange(num_bands, dtype=np.int64) << planes_per_band)[None, :]

    def bucket(batch: pa.Table) -> pa.Table:
        """slim: one (vec_id, block_key) row per band."""
        if batch.num_rows == 0:
            return pa.schema(
                [("block_key", pa.int64()), ("vec_id", pa.int64())]
            ).empty_table()
        vecs = list_to_matrix(batch.column(vector_column))
        codes = _band_codes(vecs)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "block_key": pa.array(codes.ravel(), type=pa.int64()),
                "vec_id": pa.array(np.repeat(ids, num_bands), type=pa.int64()),
            }
        )

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        """candidate (u, v) pairs, u < v, for ALL buckets of one coarse
        partition (uncapped: every pair of a bucket)."""
        if df.empty:
            return pd.DataFrame(
                {"u": pd.Series(dtype=np.int64), "v": pd.Series(dtype=np.int64)}
            )
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        i, j, _ = block_pairs(
            df["block_key"].to_numpy(dtype=np.int64), ids, ids, None, 0
        )
        return pd.DataFrame({"u": ids[i], "v": ids[j]})

    buckets = ds.map_batches(bucket, batch_format="pyarrow")
    buckets = prefilter_singleton_blocks(buckets, min_size=2)
    pairs = coarse_group_apply(buckets, "block_key", pair_partition)
    # cross-band dedup: ONE coarse (u, v) exchange, not Ray's sort-based
    # two-key groupby (per-key overhead collapses at many tiny pair keys)
    pairs = coarse_groupby_agg(pairs, ["u", "v"], {"nb_bands": ("u", "size")})
    pairs = pairs.materialize()

    # candidate ids -> broadcast unit-vector matrix (small side by design)
    id_chunks = []
    for t in arrow_blocks(pairs):
        if t.num_rows == 0 or "u" not in t.column_names:
            continue
        id_chunks.append(t.column("u").to_numpy(zero_copy_only=False))
        id_chunks.append(t.column("v").to_numpy(zero_copy_only=False))
    if not id_chunks:
        return driver_dataset(_EMPTY_PAIRS)
    cand = np.unique(np.concatenate(id_chunks)).astype(np.int64)
    cand_ref = ray.put(pa.array(cand, type=pa.int64()))

    def unit_rows(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column(id_column), value_set=ray.get(cand_ref))
        t = batch.filter(mask)
        if t.num_rows == 0:
            return pa.schema(
                [("vec_id", pa.int64()), ("unit", pa.list_(pa.float64()))]
            ).empty_table()
        vecs = list_to_matrix(t.column(vector_column))
        norm = np.linalg.norm(vecs, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        return pa.table(
            {
                "vec_id": t.column(id_column).cast(pa.int64()),
                "unit": matrix_to_list(vecs / norm),
            }
        )

    uid_chunks, umat_chunks = [], []
    for t in arrow_blocks(ds.map_batches(unit_rows, batch_format="pyarrow")):
        if t.num_rows == 0 or "vec_id" not in t.column_names:
            continue
        uid_chunks.append(t.column("vec_id").to_numpy(zero_copy_only=False))
        umat_chunks.append(list_to_matrix(t.column("unit")))
    uids = np.concatenate(uid_chunks)
    umat = np.concatenate(umat_chunks, axis=0)
    order = np.argsort(uids)
    units_ref = ray.put((uids[order], umat[order]))

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return _EMPTY_PAIRS
        k, m = ray.get(units_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        cos = (m[np.searchsorted(k, u)] * m[np.searchsorted(k, v)]).sum(axis=1)
        keep = cos >= threshold
        return pa.table(
            {
                "u": pa.array(u[keep], type=pa.int64()),
                "v": pa.array(v[keep], type=pa.int64()),
                "cosine": pa.array(cos[keep], type=pa.float64()),
            }
        )

    return pairs.map_batches(verify, batch_format="pyarrow")


def embedding_dedup(
    ds,
    id_column: str = "vec_id",
    vector_column: str = "embedding",
    threshold: float = 0.95,
    num_bands: int = 8,
    planes_per_band: int = 8,
):
    """Transitive embedding-cosine near-dedup: verified pairs -> CC."""
    pairs = embedding_pairs(
        ds, id_column, vector_column, threshold, num_bands, planes_per_band
    )
    return connected_components(pairs.select_columns(["u", "v"]))


def duplicated_gram_stats(
    ds, id_column: str = "doc_id", text_column: str = "text", k: int = 3
):
    """Per-doc duplicated-n-gram fraction — the "how much of this document
    is corpus boilerplate" quality signal (the doc-level aggregate of the
    duplicate-text analysis in Lee et al., "Deduplicating Training Data
    Makes Language Models Better"): for each doc, the share of its DISTINCT
    word-k-grams that appear in >= 2 documents.

    Two coarse exchanges, both carrying bounded rows: (1) distinct
    (gram, doc) rows shuffle on gram so each partition sees every holder
    of its grams — document frequency and the per-doc dup counts are one
    vectorized kernel; (2) the per-partition (doc, n_dup) partials merge
    combiner-first on doc. Gram semantics (short docs collapse to one
    whole-doc gram, empty docs drop) match `gram_doc_rows` exactly."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    rows = ds.map_batches(
        lambda b: gram_doc_rows(b, id_column, text_column, k),
        batch_format="pyarrow",
    )

    def dup_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "gram" not in df.columns:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "n_dup": pd.Series(dtype=np.int64),
                    "n_grams": pd.Series(dtype=np.int64),
                }
            )
        # rows are distinct (gram, doc): df(gram) = run length after a sort
        codes, _uniq = pd.factorize(df["gram"], sort=False)
        dfreq = np.bincount(codes)
        is_dup = dfreq[codes] >= 2
        docs = df["doc_id"].to_numpy(dtype=np.int64)
        udocs, dinv = np.unique(docs, return_inverse=True)
        n_dup = np.bincount(dinv, weights=is_dup).astype(np.int64)
        # n_grams is a per-doc constant carried on every row
        n_grams = np.zeros(len(udocs), dtype=np.int64)
        n_grams[dinv] = df["n_grams"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"doc_id": udocs, "n_dup": n_dup, "n_grams": n_grams}
        )

    partials = coarse_group_apply(rows, "gram", dup_partition)
    merged = coarse_groupby_agg(
        partials,
        ["doc_id"],
        {"n_dup": ("n_dup", "sum"), "n_grams": ("n_grams", "max")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n_dup" not in batch.column_names:
            return pa.schema(
                [
                    pa.field("doc_id", pa.int64()),
                    pa.field("n_grams", pa.int64()),
                    pa.field("n_dup", pa.int64()),
                    pa.field("dup_frac_e6", pa.int64()),
                ]
            ).empty_table()
        nd = batch.column("n_dup").cast(pa.int64())
        ng = batch.column("n_grams").cast(pa.int64())
        frac = pc.divide(pc.multiply(nd, pa.scalar(1_000_000, pa.int64())), ng)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": ng,
                "n_dup": nd,
                "dup_frac_e6": frac,
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


_CONTAIN_EMPTY = pa.schema(
    [("u", pa.int64()), ("v", pa.int64()), ("containment", pa.float64())]
).empty_table()


def ngram_containment_pairs(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    k: int = 3,
    threshold: float = 0.8,
    max_df: int | None = None,
    n_parts: int | None = None,
):
    """Near-SUBSET duplication: pairs where the smaller doc's distinct
    word-k-gram set is >= `threshold` contained in the larger's
    (containment = |A ∩ B| / min(|A|, |B|), the overlap coefficient).
    Jaccard misses these — a doc pasted inside a 10x larger one scores
    Jaccard ~0.1 but containment 1.0 (the boilerplate-inclusion case
    n-gram dedup exists to catch).

    Same scale shape as `_ngram_shuffle_pairs`: the pair-multiplicity
    identity means only (gram, doc, n_grams) rows and per-pair count
    partials ever move; sizes ride the exploded rows. Always the shuffle
    path (no driver merge) — containment's candidate mass equals
    Jaccard's, already bounded by the singleton/`max_df` prefilter."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    exploded = ds.map_batches(
        lambda b: gram_doc_rows(b, id_column, text_column, k),
        batch_format="pyarrow",
    )
    exploded = prefilter_singleton_blocks(
        exploded.map_batches(
            lambda b: b.rename_columns(["block_key", "doc_id", "n_grams"]),
            batch_format="pyarrow",
        ),
        min_size=2,
        max_size=max_df,
    ).map_batches(
        lambda b: b.rename_columns(["gram", "doc_id", "n_grams"]),
        batch_format="pyarrow",
    )
    partial = coarse_group_apply(
        exploded, "gram", _ngram_pair_partition, n_parts=n_parts
    )
    pair_counts = coarse_groupby_agg(
        partial,
        ["u", "v"],
        {"inter": ("inter", "sum"), "na": ("na", "max"), "nb": ("nb", "max")},
        n_parts=n_parts,
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return _CONTAIN_EMPTY
        inter = batch.column("inter").to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch.column("na").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch.column("nb").to_numpy(zero_copy_only=False).astype(np.float64)
        cont = inter / np.minimum(na, nb)
        keep = cont >= threshold
        return pa.table(
            {
                "u": pc.cast(batch.column("u"), pa.int64()).filter(pa.array(keep)),
                "v": pc.cast(batch.column("v"), pa.int64()).filter(pa.array(keep)),
                "containment": pa.array(cont[keep], type=pa.float64()),
            }
        )

    return pair_counts.map_batches(finish, batch_format="pyarrow")


# Delta gram rows up to which `incremental_jaccard_pairs` broadcasts the
# delta; above it the gram-keyed exchange runs. Tests reach the exchange
# by monkeypatching this to 0.
_DELTA_BROADCAST_LIMIT = 2_000_000


def incremental_jaccard_pairs(
    new_ds,
    old_ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    k: int = 3,
    threshold: float = 0.5,
    max_df: int | None = None,
    n_parts: int | None = None,
):
    """Streaming-dedup primitive: exact n-gram Jaccard pairs between a
    NEW delta and the EXISTING corpus only — never corpus x corpus (the
    re-pairing a production ingest cannot afford). Returns (u, v, jaccard)
    with u the NEW doc's id and jaccard >= threshold.

    Two regimes:

    - **delta broadcast** (delta gram rows ≤ `_DELTA_BROADCAST_LIMIT`, no
      `max_df`): the delta's (gram, doc, size) table is ray.put once and
      the corpus side streams through ONE embarrassingly-parallel
      map_batches — per batch an exact Arrow hash join on the gram string
      against the broadcast table, pre-aggregated to (u, v) partials; the
      only exchange left is the tiny pair merge. The old corpus is never
      shuffled — at 100 TB the per-delta cost is one corpus scan, which is
      the whole point of incremental dedup.
    - **two-sided exchange** (fallback): same pair-multiplicity identity
      as `ngram_jaccard_pairs`; the gram exchange carries a side bit, the
      kernel emits cross-side pairs only, and the (u, v) merge sums the
      partial intersections.

    Contract: the two inputs are disjoint id spaces (the delta's ids are
    new); a doc present in both sides would pair with itself."""
    import ray
    import pandas as pd

    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg
    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks
    from opentapioca_ray.stages.triangles import _segment_pairs

    part_schema = pa.schema(
        [
            ("u", pa.int64()),
            ("v", pa.int64()),
            ("inter", pa.int64()),
            ("na", pa.int64()),
            ("nb", pa.int64()),
        ]
    )

    pair_counts = None
    if max_df is None:
        new_grams = new_ds.map_batches(
            lambda b: gram_doc_rows(b, id_column, text_column, k),
            batch_format="pyarrow",
        ).materialize()
        if new_grams.count() <= _DELTA_BROADCAST_LIMIT:
            parts = []
            for t in arrow_blocks(new_grams):
                if isinstance(t, pd.DataFrame):
                    if len(t) == 0:
                        continue
                    t = pa.Table.from_pandas(t, preserve_index=False)
                if t.num_rows and "gram" in t.column_names:
                    parts.append(t)
            delta_tbl = (
                pa.concat_tables(parts).rename_columns(["gram", "u", "na"])
                if parts
                else pa.schema(
                    [("gram", pa.string()), ("u", pa.int64()), ("na", pa.int64())]
                ).empty_table()
            ).combine_chunks()
            delta_ref = ray.put(delta_tbl)

            def cross_partials(batch: pa.Table) -> pa.Table:
                g = gram_doc_rows(batch, id_column, text_column, k)
                if g.num_rows == 0:
                    return part_schema.empty_table()
                d = ray.get(delta_ref)
                if d.num_rows == 0:
                    return part_schema.empty_table()
                joined = g.rename_columns(["gram", "v", "nb"]).join(
                    d, keys="gram", join_type="inner"
                )
                if joined.num_rows == 0:
                    return part_schema.empty_table()
                u = joined.column("u").to_numpy(zero_copy_only=False)
                v = joined.column("v").to_numpy(zero_copy_only=False)
                na = joined.column("na").to_numpy(zero_copy_only=False)
                nb = joined.column("nb").to_numpy(zero_copy_only=False)
                # rows are distinct (gram, u, v): per-batch intersection
                # partial = multiplicity of each compacted (u, v) pair
                _, iu = np.unique(u, return_inverse=True)
                _, iv = np.unique(v, return_inverse=True)
                packed = (iu.astype(np.uint64) << np.uint64(32)) | iv.astype(
                    np.uint64
                )
                _, idx0, cnt = np.unique(
                    packed, return_index=True, return_counts=True
                )
                return pa.table(
                    {
                        "u": pa.array(u[idx0].astype(np.int64)),
                        "v": pa.array(v[idx0].astype(np.int64)),
                        "inter": pa.array(cnt.astype(np.int64)),
                        "na": pa.array(na[idx0].astype(np.int64)),
                        "nb": pa.array(nb[idx0].astype(np.int64)),
                    }
                )

            pair_counts = coarse_groupby_agg(
                old_ds.map_batches(cross_partials, batch_format="pyarrow"),
                ["u", "v"],
                {
                    "inter": ("inter", "sum"),
                    "na": ("na", "max"),
                    "nb": ("nb", "max"),
                },
                n_parts=n_parts,
            )

    def explode(ds, side: int):
        def add_side(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "side", pa.array(np.full(batch.num_rows, side, dtype=np.int64))
            )

        return ds.map_batches(
            lambda b: gram_doc_rows(b, id_column, text_column, k),
            batch_format="pyarrow",
        ).map_batches(add_side, batch_format="pyarrow")

    exploded = None
    if pair_counts is None:
        exploded = explode(new_ds, 0).union(explode(old_ds, 1))
        exploded = prefilter_singleton_blocks(
            exploded.map_batches(
                lambda b: b.rename_columns(
                    ["block_key", "doc_id", "n_grams", "side"]
                ),
                batch_format="pyarrow",
            ),
            min_size=2,
            max_size=max_df,
        ).map_batches(
            lambda b: b.rename_columns(["gram", "doc_id", "n_grams", "side"]),
            batch_format="pyarrow",
        )

    def cross_pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                c: pd.Series(dtype=np.int64)
                for c in ("u", "v", "inter", "na", "nb")
            }
        )
        if df.empty:
            return empty
        codes, _ = pd.factorize(df["gram"].to_numpy())
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        ngr = df["n_grams"].to_numpy(dtype=np.int64)
        side = df["side"].to_numpy(dtype=np.int64)
        o = np.lexsort((ids, side, codes))
        codes, ids, ngr, side = codes[o], ids[o], ngr[o], side[o]
        li, ri = _segment_pairs(codes)
        if len(li) == 0:
            return empty
        # sides ascend within a segment, so cross-side pairs have
        # side[li] == 0 (new) and side[ri] == 1 (old)
        cross = side[li] != side[ri]
        li, ri = li[cross], ri[cross]
        if len(li) == 0:
            return empty
        # rows are distinct (gram, doc): multiplicity over compacted pairs
        _, inv = np.unique(ids, return_inverse=True)
        packed = (
            inv[li].astype(np.uint64) << np.uint64(32)
        ) | inv[ri].astype(np.uint64)
        _, idx0, inter = np.unique(packed, return_index=True, return_counts=True)
        return pd.DataFrame(
            {
                "u": ids[li[idx0]],
                "v": ids[ri[idx0]],
                "inter": inter.astype(np.int64),
                "na": ngr[li[idx0]],
                "nb": ngr[ri[idx0]],
            }
        )

    if pair_counts is None:
        partial = coarse_group_apply(
            exploded, "gram", cross_pair_partition, n_parts=n_parts
        )
        pair_counts = coarse_groupby_agg(
            partial,
            ["u", "v"],
            {"inter": ("inter", "sum"), "na": ("na", "max"), "nb": ("nb", "max")},
            n_parts=n_parts,
        )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return _NGRAM_EMPTY
        inter = batch.column("inter").to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch.column("na").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch.column("nb").to_numpy(zero_copy_only=False).astype(np.float64)
        jac = inter / (na + nb - inter)
        keep = jac >= threshold
        return pa.table(
            {
                "u": pc.cast(batch.column("u"), pa.int64()).filter(pa.array(keep)),
                "v": pc.cast(batch.column("v"), pa.int64()).filter(pa.array(keep)),
                "jaccard": pa.array(jac[keep], type=pa.float64()),
            }
        )

    return pair_counts.map_batches(finish, batch_format="pyarrow")


def gram_novelty_stats(
    ds, id_column: str = "doc_id", text_column: str = "text", k: int = 3
):
    """Order-aware n-gram NOVELTY per document: the share of each doc's
    distinct word-k-grams never seen in any EARLIER document (by id order)
    — the streaming-corpus complement of `duplicated_gram_stats`'s
    order-free boilerplate share. A crawler appending shards uses this to
    decide whether an incoming document adds anything the corpus doesn't
    already have (memorization/staleness control in training-data
    curation).

    Same two-exchange shape as duplicated_gram_stats: (1) distinct
    (gram, doc) rows shuffle on gram — each partition holds every holder
    of its grams, so "earliest holder" (min doc id) and the per-doc
    seen-before counts are one vectorized kernel; (2) per-doc partials
    merge combiner-first. Gram semantics match `gram_doc_rows`."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    rows = ds.map_batches(
        lambda b: gram_doc_rows(b, id_column, text_column, k),
        batch_format="pyarrow",
    )

    def seen_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "gram" not in df.columns:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "n_seen": pd.Series(dtype=np.int64),
                    "n_grams": pd.Series(dtype=np.int64),
                }
            )
        codes, _uniq = pd.factorize(df["gram"], sort=False)
        docs = df["doc_id"].to_numpy(dtype=np.int64)
        n_codes = codes.max() + 1
        min_doc = np.full(n_codes, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(min_doc, codes, docs)
        seen_before = min_doc[codes] < docs
        udocs, dinv = np.unique(docs, return_inverse=True)
        n_seen = np.bincount(dinv, weights=seen_before).astype(np.int64)
        n_grams = np.zeros(len(udocs), dtype=np.int64)
        n_grams[dinv] = df["n_grams"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"doc_id": udocs, "n_seen": n_seen, "n_grams": n_grams}
        )

    partials = coarse_group_apply(rows, "gram", seen_partition)
    merged = coarse_groupby_agg(
        partials,
        ["doc_id"],
        {"n_seen": ("n_seen", "sum"), "n_grams": ("n_grams", "max")},
    )

    def finish(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_grams", pa.int64()),
                ("n_seen_before", pa.int64()),
                ("novelty_e6", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return schema.empty_table()
        n_grams = batch.column("n_grams").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n_seen = batch.column("n_seen").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_grams": pa.array(n_grams),
                "n_seen_before": pa.array(n_seen),
                "novelty_e6": pa.array(
                    ((n_grams - n_seen) * 1_000_000) // n_grams
                ),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")
