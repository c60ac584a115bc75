"""Prefix-filtered exact set-similarity self-join (AllPairs / PPJoin
family, Bayardo et al. WWW'07; Xiao et al. WWW'08 — public algorithms).

The existing near-dup paths block on ALL of a doc's keys (every k-gram in
`ngram_jaccard_pairs`, every LSH band in `minhash_dedup`). The prefix
filter ships a provably sufficient SUBSET instead: order the token
universe globally, and for Jaccard threshold t a doc of |X| = L distinct
tokens only needs its first p = L - ceil(t*L) + 1 tokens in that order as
blocking keys — any pair with J >= t must share a token inside BOTH
prefixes, so candidate generation over prefixes alone is LOSSLESS while
the exchange carries ~(1-t) of the token volume. Ordering tokens by
ascending document frequency additionally makes prefixes rare-token-heavy,
collapsing hot blocks (the ordering affects only performance, never the
result — any consistent total order is correct, which is what keeps the
DuckDB oracle independent of the df table).

Reference parity note: the reference engine has no set-similarity join;
this is a scale-path operator in the spirit of its Solr-side candidate
blocking (opentapioca/tagger.py:61-69 retrieves candidates by shared
tokens, then scores exactly) — candidates from a cheap shared-key lookup,
exact verification after.

Pipeline shape (all on the coarse exchange primitives):
  1. one corpus pass -> distinct (word, doc_id, n_tokens) rows
  2. df table via one combiner exchange; ONLY the top `df_table_size`
     most frequent tokens are broadcast (bounded driver state — the
     rare tail defaults to df=1 and orders by token string, still a
     total order)
  3. prefix rows -> ONE coarse exchange on word -> per-token pair
     generation (skew-capped, capped counts logged) -> distinct pairs
  4. candidate doc ids semi-join the FULL token rows (coarse_semi_join;
     nothing proportional to pair volume touches the driver)
  5. the `_pair_multiplicity` identity over candidate docs' tokens ->
     one (u, v) merge -> exact integer threshold den*inter >= num*union

Output: (u, v, jacc_e6) with u < v and Jaccard >= num/den exactly
(jacc_e6 = floor(1e6 * |A∩B| / |A∪B|), fixed-point so the oracle compares
integers, never floats).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from opentapioca_ray.stages.exchange import arrow_blocks

logger = logging.getLogger(__name__)

_WORD_ROWS_SCHEMA = pa.schema(
    [("word", pa.string()), ("doc_id", pa.int64()), ("n_tokens", pa.int64())]
)

_PAIRS_EMPTY = pa.schema(
    [("u", pa.int64()), ("v", pa.int64()), ("jacc_e6", pa.int64())]
).empty_table()


def token_doc_rows(
    batch: pa.Table, id_column: str, text_column: str, k: int = 1
) -> pa.Table:
    """One batch -> exploded DISTINCT (word, doc_id, n_tokens) rows, the
    per-doc distinct-token count riding along. `k >= 2` makes the token
    universe word k-grams via dedup.gram_doc_rows (same `< k tokens ->
    whole-doc gram` convention the ngram oracles pin), so the join can run
    over shingles when single words are too dense to discriminate."""
    if k >= 2:
        from opentapioca_ray.stages.dedup import gram_doc_rows

        t = gram_doc_rows(batch, id_column=id_column, text_column=text_column, k=k)
        return t.rename_columns(["word", "doc_id", "n_tokens"])
    return word_doc_rows(batch, id_column, text_column)


def word_doc_rows(batch: pa.Table, id_column: str, text_column: str) -> pa.Table:
    """One batch -> exploded DISTINCT (word, doc_id, n_tokens) rows, the
    per-doc distinct-token count riding along (same one-pass shape as
    dedup.gram_doc_rows, word-level)."""
    from opentapioca_ray.functions.text import tokenize_flat

    if batch.num_rows == 0 or id_column not in batch.column_names:
        return _WORD_ROWS_SCHEMA.empty_table()
    texts = batch.column(text_column).to_pylist()
    ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    flat, counts = tokenize_flat([t or "" for t in texts])
    if not len(flat):
        return _WORD_ROWS_SCHEMA.empty_table()
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    # distinct (doc, word): lexsort then boundary mask — no per-doc loop
    order = np.lexsort((flat, doc_idx))
    f, d = flat[order], doc_idx[order]
    first = np.concatenate(([True], (d[1:] != d[:-1]) | (f[1:] != f[:-1])))
    f, d = f[first], d[first]
    per_doc = np.bincount(d, minlength=len(texts)).astype(np.int64)
    return pa.table(
        {
            "word": pa.array(f.astype(object), type=pa.string()),
            "doc_id": pa.array(ids[d]),
            "n_tokens": pa.array(per_doc[d]),
        }
    )


def _prefix_rows_fn(df_ranks_ref, num: int, den: int):
    """Partition-local prefix selection: order each doc's distinct tokens by
    (broadcast df rank, token) and keep the first L - ceil(t*L) + 1."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "word" not in batch.column_names:
            return _WORD_ROWS_SCHEMA.empty_table()
        ranks: dict = ray.get(df_ranks_ref)
        words = batch.column("word").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ntok = batch.column("n_tokens").to_numpy(zero_copy_only=False)
        # df rank per row (tail tokens -> rank 0 = rarest bucket); the
        # lookup is one vectorized pandas map over the dictionary codes
        codes, uniq = pd.factorize(words)
        uniq_rank = np.array(
            [ranks.get(w, 0) for w in uniq], dtype=np.int64
        )  # vocab-sized per batch, not row-sized
        row_rank = uniq_rank[codes]
        order = np.lexsort((words, row_rank, ids))
        w, i, n = words[order], ids[order], ntok[order]
        first = np.concatenate(([True], i[1:] != i[:-1]))
        seg = np.cumsum(first) - 1
        pos = np.arange(len(i), dtype=np.int64) - np.flatnonzero(first)[seg]
        # p = L - ceil(num*L/den) + 1, exact integer ceil
        p = n - (-(-(num * n) // den)) + 1
        keep = pos < p
        return pa.table(
            {
                "word": pa.array(w[keep].astype(object), type=pa.string()),
                "doc_id": pa.array(i[keep]),
                "n_tokens": pa.array(n[keep]),
                "pos": pa.array(pos[keep]),
            }
        )

    return fn


def _prefix_pair_partition(max_block_size: int, num: int, den: int):
    """One coarse word-hash partition of prefix rows -> distinct candidate
    (u, v) pairs within it, POSITIONALLY filtered (PPJoin, Xiao et al.
    WWW'08): a pair emitted from a token at prefix positions (pu, pv) can
    overlap at most 1 + min(Lu-pu-1, Lv-pv-1) tokens, so emissions whose
    bound falls below the required overlap alpha = ceil(num(Lu+Lv)/
    (num+den)) are dropped. LOSSLESS: a qualifying pair always passes at
    its FIRST shared prefix token (every shared token sits at positions
    >= (pu, pv) there). Blocks above `max_block_size` docs are capped
    (kept pairs only among the first `max_block_size` ids) and counted —
    the caller logs the total so dropped recall is visible, mirroring the
    skew guards in stages/pairs.py."""

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                "capped": pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        from opentapioca_ray.stages.triangles import _segment_pairs

        codes, _ = pd.factorize(df["word"].to_numpy())
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        ntok = df["n_tokens"].to_numpy(dtype=np.int64)
        ppos = df["pos"].to_numpy(dtype=np.int64)
        o = np.lexsort((ids, codes))
        codes, ids, ntok, ppos = codes[o], ids[o], ntok[o], ppos[o]
        # cap oversized blocks: keep each block's first max_block_size rows
        first = np.concatenate(([True], codes[1:] != codes[:-1]))
        seg = np.cumsum(first) - 1
        pos = np.arange(len(ids), dtype=np.int64) - np.flatnonzero(first)[seg]
        keep = pos < max_block_size
        n_capped = int((~keep).sum())
        codes, ids, ntok, ppos = (
            codes[keep],
            ids[keep],
            ntok[keep],
            ppos[keep],
        )
        li, ri = _segment_pairs(codes)
        if len(li):
            # positional filter: exact-integer ceil for alpha
            lu, lv = ntok[li], ntok[ri]
            alpha = (num * (lu + lv) + num + den - 1) // (num + den)
            bound = 1 + np.minimum(lu - ppos[li] - 1, lv - ppos[ri] - 1)
            ok = bound >= alpha
            li, ri = li[ok], ri[ok]
        if len(li) == 0:
            if n_capped:
                return pd.DataFrame(
                    {"u": [-1], "v": [-1], "capped": [n_capped]}
                ).astype(np.int64)
            return empty
        # compact ids before packing so magnitudes never overflow the
        # 32-bit halves (same contract as _pair_multiplicity)
        _, inv = np.unique(ids, return_inverse=True)
        packed = (inv[li].astype(np.uint64) << np.uint64(32)) | inv[ri].astype(
            np.uint64
        )
        # within-partition dedup only (cross-partition dedup is the (u,v)
        # merge downstream)
        _, idx = np.unique(packed, return_index=True)
        out = pd.DataFrame(
            {
                "u": ids[li[idx]],
                "v": ids[ri[idx]],
                "capped": np.zeros(len(idx), dtype=np.int64),
            }
        )
        if n_capped:
            out.loc[len(out)] = [-1, -1, n_capped]
        return out.astype(np.int64)

    return kernel


# Candidate pairs up to which `prefix_filter_pairs` broadcasts the packed
# pair set for a pair-restricted verify; above it the full shuffle verify
# runs. Tests reach it by monkeypatching this to 0.
_PAIR_BROADCAST_LIMIT = 5_000_000


def prefix_filter_pairs(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    num: int = 1,
    den: int = 2,
    k: int = 1,
    df_table_size: int = 65_536,
    max_block_size: int = 4_096,
    n_parts: int | None = None,
):
    """Exact token-set Jaccard self-join via AllPairs prefix filtering.

    Returns (u, v, jacc_e6) with u < v and den*inter >= num*union exactly.
    `num/den` is the Jaccard threshold as an exact rational so the keep
    decision is integer arithmetic on both the Ray and the oracle side;
    `k` picks the token universe (1 = words, >=2 = word k-grams).

    Verification is pair-restricted when the candidate pair set fits
    `_PAIR_BROADCAST_LIMIT` (explicitly bounded driver state: 8 bytes/pair,
    the repo's standard driver-limit + shuffle-fallback convention): the
    packed (u, v) set is broadcast and each verify partition keeps only
    candidate pairs' partial counts, so the merge exchange carries the
    candidate volume instead of every gram-sharing pair. Above the limit,
    the full shuffle verify runs — still exact, just heavier.
    """
    import ray
    import ray.data

    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg
    from opentapioca_ray.stages.relational import coarse_semi_join
    from opentapioca_ray.stages.selection import global_top_k

    n_docs = ds.count()  # metadata count for sourced reads

    words = ds.map_batches(
        lambda b: token_doc_rows(b, id_column, text_column, k),
        batch_format="pyarrow",
    ).materialize()  # consumed by the df pass, the prefix pass AND the verify semi-join

    if num <= 0:
        # threshold 0 degenerates the prefix filter to full blocking:
        # candidate generation (df table, prefix rows, pair exchange,
        # pair dedup) would enumerate exactly the pairs the verify
        # pass enumerates anyway — skip straight to the exact verify
        # over every gram-sharing pair.
        packed_ref = None
        cand_words = words
    else:
        # ---- bounded df table: top `df_table_size` tokens by document count.
        # O(df_table_size) driver state regardless of corpus vocabulary; every
        # other token shares rank 0 and orders by its own string (total order).
        # combiner-first: per-batch Arrow group counts, so the exchange
        # carries distinct words per block instead of every token row
        # (measured 2.2 s -> sub-second on the 260k-row sf0.1 stream)
        from opentapioca_ray.stages.aggregates import partial_sum_count

        df_tbl = partial_sum_count(
            words.select_columns(["word"]),
            "word",
            [],
            alias={"count": "df"},
        )
        # combiner top-k, not sort().limit(): the ordering is a performance
        # heuristic (any consistent total order is correct), but the exchange
        # volume difference is real — O(k x blocks) vs every vocab row
        top = global_top_k(
            df_tbl, "df", df_table_size, tiebreak_column="word"
        ).to_pandas()
        ranks = dict(zip(top["word"], top["df"].astype(np.int64)))
        ranks_ref = ray.put(ranks)

        prefix = words.map_batches(
            _prefix_rows_fn(ranks_ref, num, den), batch_format="pyarrow"
        )

        raw_pairs = coarse_group_apply(
            prefix,
            "word",
            _prefix_pair_partition(max_block_size, num, den),
            n_parts=n_parts,
        )
        pairs = coarse_groupby_agg(
            raw_pairs, ["u", "v"], {"capped": ("capped", "sum")}, n_parts=n_parts
        ).materialize()
        capped_rows = pairs.filter(expr="u < 0")
        n_capped = sum(
            r["capped"] for r in capped_rows.take_all()
        )  # <=1 row per partition: O(P) driver data
        if n_capped:
            logger.warning(
                "prefix_filter_pairs: %d prefix rows dropped by max_block_size=%d "
                "(hot-token skew cap; raise max_block_size for full recall)",
                n_capped,
                max_block_size,
            )
        pairs = pairs.filter(expr="u >= 0")

        # ---- pair-restricted verify (small/medium regime): pack the candidate
        # pair set into a sorted u64 array on the driver (bounded by
        # _PAIR_BROADCAST_LIMIT) and broadcast it
        n_pairs = pairs.count()  # capped sentinel rows already filtered out
        packed_ref = None
        cand_doc_count = None
        if 0 < n_pairs <= _PAIR_BROADCAST_LIMIT:
            chunks = []
            for t in arrow_blocks(pairs):
                if t.num_rows == 0 or "u" not in t.column_names:
                    continue
                u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
                v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
                keep = u >= 0
                u, v = u[keep], v[keep]
                # ids compacted downstream too; packing is only valid under 2^31
                if len(u) and max(u.max(), v.max()) < (1 << 31):
                    chunks.append(
                        (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)
                    )
                else:
                    chunks = None
                    break
            if chunks:
                packed = np.unique(np.concatenate(chunks))
                packed_ref = ray.put(packed)
                ids_flat = np.unique(
                    np.concatenate(
                        [(packed >> np.uint64(32)), packed & np.uint64(0xFFFFFFFF)]
                    ).astype(np.int64)
                )
                cand_doc_count = len(ids_flat)

        # candidate doc ids (slim, distinct via the merge) -> semi-join the full
        # token rows; skipped when EVERY doc is a candidate (dense corpora),
        # where the semi-join would ship all rows to filter nothing
        def pair_ids(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "u" not in t.column_names:
                return pa.schema([("doc_id", pa.int64())]).empty_table()
            return pa.table(
                {
                    "doc_id": pa.concat_arrays(
                        [
                            t.column("u").cast(pa.int64()).combine_chunks(),
                            t.column("v").cast(pa.int64()).combine_chunks(),
                        ]
                    )
                }
            )

        # skip when ~every doc is a candidate (dense corpora): the
        # semi-join would ship all token rows to filter almost nothing,
        # and the broadcast pair filter in the verify kernel keeps
        # exactness regardless (candidates are a superset of the answer)
        if cand_doc_count is not None and cand_doc_count >= 0.9 * n_docs:
            cand_words = words
        else:
            cand_ids = pairs.map_batches(pair_ids, batch_format="pyarrow")
            cand_words = coarse_semi_join(
                words, "doc_id", cand_ids, _WORD_ROWS_SCHEMA, n_parts=n_parts
            )

    # exact intersection via the pair-multiplicity identity (shared with the
    # ngram path): per word-hash partition partial counts, one (u,v) merge.
    # With the broadcast pair set, each partition drops non-candidate pairs
    # BEFORE the merge exchange (candidates are a superset of the answer by
    # the prefix lemma, so this never changes the result)
    def verify_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "inter", "na", "nb")}
        )
        if df.empty:
            return empty
        from opentapioca_ray.stages.dedup import _pair_multiplicity

        codes, _ = pd.factorize(df["word"].to_numpy())
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        ntok = df["n_tokens"].to_numpy(dtype=np.int64)
        o = np.lexsort((ids, codes))
        res = _pair_multiplicity(codes[o], ids[o], ntok[o])
        if res is None:
            return empty
        u, v, inter, na, nb = res
        if packed_ref is not None:
            cand = ray.get(packed_ref)
            key = (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)
            pos = np.searchsorted(cand, key)
            pos = np.minimum(pos, len(cand) - 1)
            keep = cand[pos] == key
            u, v, inter, na, nb = u[keep], v[keep], inter[keep], na[keep], nb[keep]
        return pd.DataFrame({"u": u, "v": v, "inter": inter, "na": na, "nb": nb})

    partial = coarse_group_apply(
        cand_words, "word", verify_partition, n_parts=n_parts
    )
    merged = coarse_groupby_agg(
        partial,
        ["u", "v"],
        {"inter": ("inter", "sum"), "na": ("na", "max"), "nb": ("nb", "max")},
        n_parts=n_parts,
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return _PAIRS_EMPTY
        inter = batch.column("inter").to_numpy(zero_copy_only=False).astype(np.int64)
        na = batch.column("na").to_numpy(zero_copy_only=False).astype(np.int64)
        nb = batch.column("nb").to_numpy(zero_copy_only=False).astype(np.int64)
        union = na + nb - inter
        keep = den * inter >= num * union
        jacc = np.zeros(len(inter), dtype=np.int64)
        nz = union > 0
        jacc[nz] = (inter[nz] * 1_000_000) // union[nz]
        m = pa.array(keep)
        return pa.table(
            {
                "u": batch.column("u").cast(pa.int64()).filter(m),
                "v": batch.column("v").cast(pa.int64()).filter(m),
                "jacc_e6": pa.array(jacc[keep]),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")
