"""Shared-span detection: maximal duplicated token spans across documents.

The ExactSubstr family of LLM-corpus dedup (Lee et al., "Deduplicating
Training Data Makes Language Models Better") removes literal repeated
passages rather than whole near-dup documents. The suffix-array build of
the paper is a single-machine construction; the distributed equivalent
used here finds every maximal cross-document token span of length >= k
as DIAGONAL RUNS of matching positional k-grams:

  a span of L >= k shared tokens between docs u and v appears as exactly
  L - k + 1 positional k-gram matches that all sit on one diagonal
  (pos_u - pos_v constant) at consecutive pos_u — so grouping matches by
  (u, v, diagonal) and run-length-encoding consecutive pos_u recovers
  each maximal span once, with its length = run_length + k - 1.

Two coarse exchanges, both standard for this repo (stages/exchange.py):

  1. hash(gram) % P over positional k-gram rows — every occurrence of one
     gram co-locates, so the partition kernel emits all cross-document
     (u, v, pos_u, pos_v) matches with one segment cross-product. Hot
     grams (boilerplate headers) are dropped by an occurrence cap
     (`df_cap`), mirrored exactly in the SQL oracle; the kernel counts
     what it drops.
  2. hash(u, v) % P over match rows — every diagonal of one pair
     co-locates, so the islands kernel recovers maximal runs with one
     lexsort, no per-pair Python.

Reference anchor: OpenTapioca dedups at whole-mention granularity
(tagger.py builds per-mention candidate sets); shared spans are the
sub-document analogue this engine adds for training-data pipelines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


_GRAM_POS_EMPTY = pa.schema(
    [("gram", pa.string()), ("doc_id", pa.int64()), ("pos", pa.int64())]
).empty_table()

_MATCH_EMPTY = pa.schema(
    [
        ("u", pa.int64()),
        ("v", pa.int64()),
        ("pu", pa.int64()),
        ("pv", pa.int64()),
    ]
).empty_table()

_SPAN_EMPTY = pa.schema(
    [
        ("u", pa.int64()),
        ("v", pa.int64()),
        ("u_start", pa.int64()),
        ("v_start", pa.int64()),
        ("n_tokens", pa.int64()),
    ]
).empty_table()


def positional_gram_rows(
    batch: pa.Table, id_column: str = "doc_id", text_column: str = "text", k: int = 8
) -> pa.Table:
    """Exploded POSITIONAL word-k-gram rows (gram, doc_id, pos) — unlike
    `dedup.gram_doc_rows` these are NOT deduped per doc and carry the
    0-based token offset of each window. Docs shorter than k tokens yield
    no rows (a span needs >= k tokens on both sides)."""
    import pyarrow.compute as pc

    from opentapioca_ray.functions.text import tokenize_flat

    if batch.num_rows == 0 or id_column not in batch.column_names:
        return _GRAM_POS_EMPTY
    ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch.column(text_column).to_pylist()
    flat, counts = tokenize_flat([t or "" for t in texts])
    n = len(flat)
    if n < k:
        return _GRAM_POS_EMPTY
    counts = counts.astype(np.int64)
    doc_rep = np.repeat(np.arange(len(ids)), counts)
    flat_arr = pa.array(flat, type=pa.string())
    parts = [flat_arr.slice(j, n - k + 1) for j in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    valid = doc_rep[: n - k + 1] == doc_rep[k - 1 :]
    if not valid.any():
        return _GRAM_POS_EMPTY
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    win_docs = doc_rep[: n - k + 1]
    pos = np.arange(n - k + 1, dtype=np.int64) - offsets[win_docs]
    sel = pa.array(valid)
    return pa.table(
        {
            "gram": grams.filter(sel),
            "doc_id": pa.array(ids[win_docs[valid]], type=pa.int64()),
            "pos": pa.array(pos[valid], type=pa.int64()),
        }
    )


def _match_partition(df: pd.DataFrame, df_cap: int) -> pd.DataFrame:
    """All cross-document (u, v, pu, pv) gram matches of one gram-hash
    partition: dict-encode the grams once, then ONE segment cross-product
    over the sorted codes. Grams with more than `df_cap` total occurrences
    are dropped (boilerplate guard, mirrored in the oracle)."""
    if df.empty:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "pu", "pv")}
        )
    codes, _ = pd.factorize(df["gram"].to_numpy(), sort=False)
    doc = df["doc_id"].to_numpy(dtype=np.int64)
    pos = df["pos"].to_numpy(dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    c_s, d_s, p_s = codes[order], doc[order], pos[order]
    new = np.concatenate(([True], c_s[1:] != c_s[:-1]))
    starts = np.flatnonzero(new).astype(np.int64)
    sizes = np.diff(np.append(starts, len(c_s)))
    keep = (sizes > 1) & (sizes <= df_cap)
    starts_k, sizes_k = starts[keep], sizes[keep]
    if not len(starts_k):
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "pu", "pv")}
        )
    s2 = sizes_k * sizes_k
    total = int(s2.sum())
    base = np.repeat(starts_k, s2)
    sz = np.repeat(sizes_k, s2)
    cume = np.repeat(np.concatenate(([0], np.cumsum(s2)[:-1])), s2)
    within = np.arange(total, dtype=np.int64) - cume
    i = base + within // sz
    j = base + within % sz
    mask = i < j  # each unordered row pair once
    i, j = i[mask], j[mask]
    da, db = d_s[i], d_s[j]
    cross = da != db  # cross-document only (SQL twin: a.doc_id < b.doc_id)
    i, j, da, db = i[cross], j[cross], da[cross], db[cross]
    swap = da > db
    return pd.DataFrame(
        {
            "u": np.where(swap, db, da),
            "v": np.where(swap, da, db),
            "pu": np.where(swap, p_s[j], p_s[i]),
            "pv": np.where(swap, p_s[i], p_s[j]),
        }
    )


def _span_partition(df: pd.DataFrame, k: int, min_tokens: int) -> pd.DataFrame:
    """Maximal diagonal runs of one pair-hash partition: lexsort by
    (u, v, diagonal, pu); a run breaks where the pair, the diagonal, or
    the pu-consecutiveness breaks. Span length = run length + k - 1."""
    cols = ("u", "v", "u_start", "v_start", "n_tokens")
    if df.empty:
        return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
    u = df["u"].to_numpy(dtype=np.int64)
    v = df["v"].to_numpy(dtype=np.int64)
    pu = df["pu"].to_numpy(dtype=np.int64)
    pv = df["pv"].to_numpy(dtype=np.int64)
    diag = pu - pv
    order = np.lexsort((pu, diag, v, u))
    u, v, pu, pv, diag = u[order], v[order], pu[order], pv[order], diag[order]
    breaks = np.concatenate(
        (
            [True],
            (u[1:] != u[:-1])
            | (v[1:] != v[:-1])
            | (diag[1:] != diag[:-1])
            | (pu[1:] != pu[:-1] + 1),
        )
    )
    starts = np.flatnonzero(breaks).astype(np.int64)
    run_len = np.diff(np.append(starts, len(u)))
    n_tokens = run_len + k - 1
    sel = n_tokens >= min_tokens
    return pd.DataFrame(
        {
            "u": u[starts][sel],
            "v": v[starts][sel],
            "u_start": pu[starts][sel],
            "v_start": pv[starts][sel],
            "n_tokens": n_tokens[sel],
        }
    )


def shared_spans(
    docs,
    id_column: str = "doc_id",
    text_column: str = "text",
    k: int = 8,
    min_tokens: int | None = None,
    df_cap: int = 64,
    n_parts: int | None = None,
):
    """Every maximal cross-document shared token span of length >=
    max(k, min_tokens), as (u, v, u_start, v_start, n_tokens) with u < v
    and 0-based token offsets. Two coarse exchanges end-to-end (gram hash,
    then pair hash); no driver collects; hot grams (> `df_cap` total
    occurrences) are excluded on BOTH sides of the oracle comparison."""
    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        composite_codes,
        default_n_parts,
    )

    min_tokens = k if min_tokens is None else max(k, min_tokens)
    n_parts = default_n_parts(n_parts)
    grams = docs.map_batches(
        lambda b: positional_gram_rows(b, id_column, text_column, k),
        batch_format="pyarrow",
    )
    matches = coarse_group_apply(
        grams, "gram", lambda d: _match_partition(d, df_cap), n_parts=n_parts
    )

    def add_pair_part(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return _MATCH_EMPTY.append_column(
                "__part", pa.array([], type=pa.int64())
            )
        return batch.append_column(
            "__part", composite_codes(batch, ["u", "v"], n_parts)
        )

    def drop_part(df: pd.DataFrame) -> pd.DataFrame:
        return _span_partition(
            df.drop(columns="__part", errors="ignore"), k, min_tokens
        )

    return (
        matches.map_batches(add_pair_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(drop_part, batch_format="pandas")
    )


_COVER_EMPTY = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("covered_tokens", pa.int64()),
        ("dup_fraction_e6", pa.int64()),
    ]
).empty_table()


def span_coverage(
    spans_ds,
    docs,
    id_column: str = "doc_id",
    text_column: str = "text",
    n_parts: int | None = None,
):
    """Per-document duplicated-token fraction: the union of all shared-span
    intervals touching each doc (both sides of every `shared_spans` row),
    as (doc_id, n_tokens, covered_tokens, dup_fraction_e6) in exact integer
    millionths — the ExactSubstr removal budget per doc. Docs with no
    shared span are omitted (their fraction is 0).

    ONE coarse exchange on doc_id carries both the exploded span intervals
    and the per-doc token counts (tagged union rows); the partition kernel
    merges each doc's intervals with one sorted cumulative-max pass (docs
    are separated by offsetting positions with doc_rank * LARGE, so one
    partition needs one accumulate, not per-doc calls)."""
    from opentapioca_ray.functions.text import tokenize_flat
    from opentapioca_ray.stages.exchange import coarse_group_apply

    iv_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("s", pa.int64()),
            ("e", pa.int64()),
            ("cnt", pa.int64()),
        ]
    )

    def interval_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return iv_schema.empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        us = batch.column("u_start").to_numpy(zero_copy_only=False).astype(np.int64)
        vs = batch.column("v_start").to_numpy(zero_copy_only=False).astype(np.int64)
        nt = batch.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([u, v])),
                "s": pa.array(np.concatenate([us, vs])),
                "e": pa.array(np.concatenate([us + nt, vs + nt])),
                "cnt": pa.array(np.full(2 * len(u), -1, dtype=np.int64)),
            }
        )

    def count_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return iv_schema.empty_table()
        ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        _, counts = tokenize_flat(
            [t or "" for t in batch.column(text_column).to_pylist()]
        )
        n = len(ids)
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "s": pa.array(np.zeros(n, dtype=np.int64)),
                "e": pa.array(np.zeros(n, dtype=np.int64)),
                "cnt": pa.array(counts.astype(np.int64)),
            }
        )

    # a lazy `shared_spans` plan (two exchanges) unioned with a docs map
    # does not progress in a num_cpus=1 session: materialize it first
    unioned = spans_ds.materialize().map_batches(
        interval_rows, batch_format="pyarrow"
    ).union(docs.map_batches(count_rows, batch_format="pyarrow"))

    def cover_partition(df: pd.DataFrame) -> pd.DataFrame:
        cols = ("doc_id", "n_tokens", "covered_tokens", "dup_fraction_e6")
        if df.empty:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        cnt = df["cnt"].to_numpy(dtype=np.int64)
        is_iv = cnt < 0
        if not is_iv.any():
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        doc = df["doc_id"].to_numpy(dtype=np.int64)[is_iv]
        s = df["s"].to_numpy(dtype=np.int64)[is_iv]
        e = df["e"].to_numpy(dtype=np.int64)[is_iv]
        # dense doc codes * LARGE separate docs so ONE cumulative max
        # serves the whole partition (LARGE > any token offset)
        order = np.lexsort((e, s, doc))
        doc, s, e = doc[order], s[order], e[order]
        dcode = np.cumsum(np.concatenate(([0], doc[1:] != doc[:-1])))
        large = np.int64(1) << 42
        s_adj = s + dcode * large
        e_adj = e + dcode * large
        cmax = np.maximum.accumulate(e_adj)
        brk = np.concatenate(([True], s_adj[1:] > cmax[:-1]))
        starts = np.flatnonzero(brk)
        mx = np.maximum.reduceat(e_adj, starts)  # islands are contiguous
        covered_isl = mx - s_adj[starts]
        isl_doc = doc[starts]
        # roll islands up to docs (doc codes are sorted; islands follow)
        dstarts = np.flatnonzero(
            np.concatenate(([True], isl_doc[1:] != isl_doc[:-1]))
        )
        covered = np.add.reduceat(covered_isl, dstarts)
        out_doc = isl_doc[dstarts]
        # attach token counts via searchsorted over the partition's count rows
        cdoc = df["doc_id"].to_numpy(dtype=np.int64)[~is_iv]
        cval = cnt[~is_iv]
        o = np.argsort(cdoc, kind="stable")
        cdoc, cval = cdoc[o], cval[o]
        if len(cdoc) == 0:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in cols})
        pos = np.searchsorted(cdoc, out_doc)
        pos = np.clip(pos, 0, len(cdoc) - 1)
        found = cdoc[pos] == out_doc
        out_doc, covered, pos = out_doc[found], covered[found], pos[found]
        n_tok = cval[pos]
        return pd.DataFrame(
            {
                "doc_id": out_doc,
                "n_tokens": n_tok,
                "covered_tokens": covered,
                "dup_fraction_e6": covered * 1_000_000 // np.maximum(n_tok, 1),
            }
        )

    return coarse_group_apply(unioned, "doc_id", cover_partition, n_parts=n_parts)


_REMOVE_COLS = ("doc_id", "n_tokens", "n_removed", "clean_md5")


def span_removal(
    spans_ds,
    docs,
    id_column: str = "doc_id",
    text_column: str = "text",
    n_parts: int | None = None,
):
    """ExactSubstr REMOVAL: drop every token covered by the union of the
    given shared-span intervals and emit, per document, the removal
    accounting plus the md5 of the cleaned (single-space re-joined) token
    stream — (doc_id, n_tokens, n_removed, clean_md5). Every doc appears,
    including untouched and fully-removed ones; the md5 stands in for the
    cleaned text so the result stays slim enough to hash-verify (the
    production sink would write the cleaned text column instead).

    ONE coarse exchange on doc_id co-locates each doc's text with its
    span intervals; the partition kernel tokenizes once, builds the
    covered mask for ALL its docs with one +1/-1 delta cumsum over the
    concatenated token space, and hashes one string per doc."""
    import hashlib

    from opentapioca_ray.functions.text import tokenize_flat
    from opentapioca_ray.stages.exchange import coarse_group_apply

    union_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("s", pa.int64()),
            ("e", pa.int64()),
            ("text", pa.string()),
            ("is_text", pa.bool_()),
        ]
    )

    def interval_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return union_schema.empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        us = batch.column("u_start").to_numpy(zero_copy_only=False).astype(np.int64)
        vs = batch.column("v_start").to_numpy(zero_copy_only=False).astype(np.int64)
        nt = batch.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
        n2 = 2 * len(u)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([u, v])),
                "s": pa.array(np.concatenate([us, vs])),
                "e": pa.array(np.concatenate([us + nt, vs + nt])),
                "text": pa.nulls(n2, pa.string()),
                "is_text": pa.array(np.zeros(n2, dtype=bool)),
            }
        )

    def text_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch.column(id_column).cast(pa.int64()),
                "s": pa.array(np.zeros(n, dtype=np.int64)),
                "e": pa.array(np.zeros(n, dtype=np.int64)),
                "text": batch.column(text_column).cast(pa.string()),
                "is_text": pa.array(np.ones(n, dtype=bool)),
            }
        )

    # materialized first, as in `span_coverage` (num_cpus=1 progress)
    unioned = spans_ds.materialize().map_batches(
        interval_rows, batch_format="pyarrow"
    ).union(docs.map_batches(text_rows, batch_format="pyarrow"))

    def clean_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "is_text" not in df.columns:
            return pd.DataFrame(
                {
                    c: pd.Series(dtype=object if c == "clean_md5" else np.int64)
                    for c in _REMOVE_COLS
                }
            )
        ist = df["is_text"].to_numpy(dtype=bool)
        txt = df[ist]
        if txt.empty:
            return pd.DataFrame(
                {
                    c: pd.Series(dtype=object if c == "clean_md5" else np.int64)
                    for c in _REMOVE_COLS
                }
            )
        doc_ids = txt["doc_id"].to_numpy(dtype=np.int64)
        o = np.argsort(doc_ids, kind="stable")
        doc_ids = doc_ids[o]
        texts = txt["text"].to_numpy()[o]
        flat, counts = tokenize_flat([t or "" for t in texts])
        counts = counts.astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(counts)))
        total = int(offs[-1])
        delta = np.zeros(total + 1, dtype=np.int64)
        iv = df[~ist]
        if not iv.empty:
            idoc = iv["doc_id"].to_numpy(dtype=np.int64)
            s = iv["s"].to_numpy(dtype=np.int64)
            e = iv["e"].to_numpy(dtype=np.int64)
            pos = np.searchsorted(doc_ids, idoc)
            ok = (pos < len(doc_ids)) & (doc_ids[np.clip(pos, 0, len(doc_ids) - 1)] == idoc)
            pos, s, e = pos[ok], s[ok], e[ok]
            s = np.clip(s, 0, counts[pos])
            e = np.clip(e, 0, counts[pos])
            np.add.at(delta, offs[pos] + s, 1)
            np.add.at(delta, offs[pos] + e, -1)
        covered = np.cumsum(delta[:-1]) > 0 if total else np.zeros(0, dtype=bool)
        removed = (
            np.add.reduceat(covered.astype(np.int64), offs[:-1])
            if total and len(counts)
            else np.zeros(len(counts), dtype=np.int64)
        )
        removed = np.where(counts > 0, removed, 0)
        kept = np.asarray(flat, dtype=object)[~covered] if total else np.asarray([], dtype=object)
        kept_counts = counts - removed
        koffs = np.concatenate(([0], np.cumsum(kept_counts)))
        md5s = [
            hashlib.md5(
                " ".join(kept[koffs[ix] : koffs[ix + 1]]).encode()
            ).hexdigest()
            for ix in range(len(counts))
        ]
        return pd.DataFrame(
            {
                "doc_id": doc_ids,
                "n_tokens": counts,
                "n_removed": removed,
                "clean_md5": np.array(md5s, dtype=object),
            }
        )

    return coarse_group_apply(unioned, "doc_id", clean_partition, n_parts=n_parts)
