"""TF-IDF top terms per document.

Scale shape: term frequencies never leave their batch (documents are whole
rows, so tf is batch-local); only the (word, df) vocabulary aggregate moves
— combiner-first, O(blocks × vocab-in-block) rows. The IDF lookup is
broadcast (ray.put of sorted arrays) when the vocabulary fits, else a
reduce-side `shuffle_join` on word + a coarse per-doc top-k exchange.

Scores are quantized to integer micro-units BEFORE ranking: numpy's log and
SQL's ln can differ in the last ulp (different libm builds), and
structurally-tied scores (tf=2 @ df=x vs tf=1 @ df=x²/N both give k·ln 2)
would otherwise rank-flip between the two sides. Quantized equals fall back
to the word tie-break, which both sides share. The emitted columns are
(doc_id, word, rk) — integers and strings only, nothing float reaches the
oracle hash.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

_VOCAB_BROADCAST_LIMIT = 20_000_000


def _tf_batch(batch: pa.Table, id_column: str, text_column: str) -> pa.Table:
    """Per-(doc, word) term frequencies of one batch — tokenize_flat +
    one lexsort + segment run-length counts, no Python loops."""
    from opentapioca_ray.functions.text import tokenize_flat

    empty = pa.table(
        {
            id_column: pa.array([], type=pa.int64()),
            "word": pa.array([], type=pa.string()),
            "tf": pa.array([], type=pa.int64()),
        }
    )
    if batch.num_rows == 0 or id_column not in batch.column_names:
        return empty
    ids = batch.column(id_column).to_numpy(zero_copy_only=False)
    toks, counts = tokenize_flat(
        [(t or "") for t in batch.column(text_column).to_pylist()]
    )
    if len(toks) == 0:
        return empty
    doc_rep = np.repeat(ids, counts)
    order = np.lexsort((toks, doc_rep))
    d, w = doc_rep[order], toks[order]
    new = np.concatenate(([True], (d[1:] != d[:-1]) | (w[1:] != w[:-1])))
    starts = np.flatnonzero(new)
    tf = np.diff(np.concatenate((starts, [len(d)])))
    return pa.table(
        {
            id_column: pa.array(d[starts].astype(np.int64)),
            "word": pa.array(w[starts].astype(str)),
            "tf": pa.array(tf.astype(np.int64)),
        }
    )


def _score_and_rank(
    t: pa.Table, id_column: str, df_log: np.ndarray, vocab: np.ndarray,
    top_n: int,
) -> pa.Table:
    """Attach quantized tf*idf and keep the top_n terms per doc — assumes
    all rows of one doc are in this table (true for batch-local tf)."""
    empty = pa.table(
        {
            id_column: pa.array([], type=pa.int64()),
            "word": pa.array([], type=pa.string()),
            "rk": pa.array([], type=pa.int64()),
        }
    )
    if t.num_rows == 0 or id_column not in t.column_names:
        return empty
    ids = t.column(id_column).to_numpy(zero_copy_only=False)
    words = t.column("word").to_numpy(zero_copy_only=False)
    tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    pos = np.searchsorted(vocab, words)
    score_e6 = np.floor(tf * df_log[pos] * 1e6 + 0.5).astype(np.int64)
    order = np.lexsort((words, -score_e6, ids))
    d = ids[order]
    new = np.concatenate(([True], d[1:] != d[:-1]))
    seg_start = np.flatnonzero(new)[np.cumsum(new) - 1]
    rk = np.arange(len(d), dtype=np.int64) - seg_start + 1
    keep = rk <= top_n
    return pa.table(
        {
            id_column: pa.array(d[keep].astype(np.int64)),
            "word": pa.array(words[order][keep].astype(str)),
            "rk": pa.array(rk[keep]),
        }
    )


def tfidf_top_terms(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    top_n: int = 3,
):
    """Top `top_n` TF-IDF terms per document, score = tf * ln(N / df),
    ranked by (quantized score desc, word asc). Returns
    (id_column, word, rk). Up to `_VOCAB_BROADCAST_LIMIT` distinct words
    the df table is broadcast to one scoring map; above it the df rides a
    reduce-side join."""
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count

    n_docs = ds.count()
    tf_ds = ds.map_batches(
        lambda b: _tf_batch(b, id_column, text_column), batch_format="pyarrow"
    ).materialize()  # consumed by both the df aggregate and the scorer
    df_ds = partial_sum_count(
        tf_ds.select_columns(["word"]), "word", [], alias={"count": "df"}
    )

    if df_ds.count() <= _VOCAB_BROADCAST_LIMIT:
        parts = [
            t for t in arrow_blocks(df_ds)
            if t.num_rows and "word" in t.column_names
        ]
        if not parts:
            return driver_dataset(
                pa.table(
                    {
                        id_column: pa.array([], type=pa.int64()),
                        "word": pa.array([], type=pa.string()),
                        "rk": pa.array([], type=pa.int64()),
                    }
                )
            )
        df_tbl = pa.concat_tables(parts)
        vocab = df_tbl.column("word").to_numpy(zero_copy_only=False)
        dfc = df_tbl.column("df").to_numpy(zero_copy_only=False).astype(np.float64)
        o = np.argsort(vocab)
        state_ref = ray.put((vocab[o], np.log(n_docs / dfc[o])))

        def score_batch(batch: pa.Table) -> pa.Table:
            vocab_s, df_log = ray.get(state_ref)
            return _score_and_rank(batch, id_column, df_log, vocab_s, top_n)

        return tf_ds.map_batches(score_batch, batch_format="pyarrow")

    # shuffle regime: idf rides a reduce-side join on word, ranking runs in
    # a coarse per-doc exchange (docs are no longer batch-local after the
    # join moves rows)
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.relational import shuffle_join

    joined = shuffle_join(tf_ds, df_ds, "word", "word", ["df"])

    def rank_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        if pdf.empty or id_column not in pdf.columns:
            return pd.DataFrame(
                {
                    id_column: pd.Series(dtype=np.int64),
                    "word": pd.Series(dtype=object),
                    "rk": pd.Series(dtype=np.int64),
                }
            )
        t = pa.table(
            {
                id_column: pa.array(pdf[id_column].to_numpy(dtype=np.int64)),
                "word": pa.array(pdf["word"].astype(str)),
                "tf": pa.array(pdf["tf"].to_numpy(dtype=np.int64)),
            }
        )
        dfv = pdf["df"].to_numpy(dtype=np.float64)
        words = pdf["word"].to_numpy()
        o = np.argsort(words)
        uniq_mask = np.concatenate(([True], words[o][1:] != words[o][:-1]))
        vocab_s = words[o][uniq_mask]
        df_log = np.log(n_docs / dfv[o][uniq_mask])
        return _score_and_rank(t, id_column, df_log, vocab_s, top_n).to_pandas()

    return coarse_group_apply(joined, id_column, rank_partition)


def inverted_index(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    max_postings: int = 64,
):
    """Build a search-style inverted index: per word, its document
    frequency and a sorted posting list (doc ids joined by ','), capped at
    `max_postings` entries per word — the cap bounds the hot-stopword rows
    that would otherwise dominate output size at corpus scale (df still
    counts ALL holders, so nothing is silently lost).

    One coarse exchange on word; the posting-list build is a vectorized
    segment kernel (lexsort + rank cap + one Arrow binary_join), never
    per-word Python groups."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from opentapioca_ray.stages.dedup import gram_doc_rows
    from opentapioca_ray.stages.exchange import coarse_group_apply

    rows = ds.map_batches(
        lambda b: gram_doc_rows(b, id_column, text_column, k=1).select(
            ["gram", "doc_id"]
        ),
        batch_format="pyarrow",
    )

    def build_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "word": pd.Series(dtype=object),
                "df": pd.Series(dtype=np.int64),
                "postings": pd.Series(dtype=object),
            }
        )
        if df.empty or "gram" not in df.columns:
            return empty
        words = df["gram"].to_numpy()
        docs = df["doc_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((docs, words))
        words, docs = words[order], docs[order]
        new = np.concatenate(([True], words[1:] != words[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        df_counts = np.diff(np.concatenate((starts, [len(words)])))
        rank = np.arange(len(words)) - starts[seg]
        keep = rank < max_postings
        kept_docs = docs[keep]
        kept_seg = seg[keep]
        kstarts = np.flatnonzero(
            np.concatenate(([True], kept_seg[1:] != kept_seg[:-1]))
        )
        offsets = np.concatenate((kstarts, [len(kept_docs)])).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            pa.array(kept_docs.astype(str), type=pa.string()),
        )
        postings = pc.binary_join(lists, ",").to_numpy(zero_copy_only=False)
        return pd.DataFrame(
            {
                "word": words[starts],
                "df": df_counts.astype(np.int64),
                "postings": postings,
            }
        )

    return coarse_group_apply(rows, "gram", build_partition)


def word_cooccurrence(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    max_words_per_doc: int = 256,
    min_count: int = 2,
):
    """Document-level word co-occurrence counts: for every unordered word
    pair (u < v), the number of documents containing both. The classic
    PMI/embedding-training statistic.

    Scale guards: each doc contributes its first `max_words_per_doc`
    distinct words in lexicographic order (a doc's pair fan-out is bounded
    at O(cap^2), never O(vocab^2)); pairs below `min_count` are dropped
    AFTER the combiner merge so nothing is silently lost before counting.
    Shape: distinct (doc, word) rows exchange on doc (whole docs
    co-locate), the segment pair kernel emits each doc's pairs, then the
    multi-key combiner counts them."""
    import pandas as pd

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.dedup import gram_doc_rows
    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.triangles import _segment_pairs

    rows = ds.map_batches(
        lambda b: gram_doc_rows(b, id_column, text_column, k=1).select(
            ["doc_id", "gram"]
        ),
        batch_format="pyarrow",
    )

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"u": pd.Series(dtype=object), "v": pd.Series(dtype=object)}
        )
        if df.empty or "gram" not in df.columns:
            return empty
        docs = df["doc_id"].to_numpy(dtype=np.int64)
        words = df["gram"].to_numpy()
        order = np.lexsort((words, docs))
        docs, words = docs[order], words[order]
        # cap: keep each doc's first max_words_per_doc distinct words
        new = np.concatenate(([True], docs[1:] != docs[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rank = np.arange(len(docs)) - starts[seg]
        keep = rank < max_words_per_doc
        docs, words = docs[keep], words[keep]
        li, ri = _segment_pairs(docs)
        if len(li) == 0:
            return empty
        return pd.DataFrame({"u": words[li], "v": words[ri]})

    pairs = coarse_group_apply(rows, "doc_id", pair_partition)
    counts = partial_multi_sum_count(pairs, ["u", "v"], [], alias={"count": "n_docs"})

    def threshold(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if batch.num_rows == 0 or "n_docs" not in batch.column_names:
            return batch
        return batch.filter(
            pc.greater_equal(batch.column("n_docs"), min_count)
        )

    return counts.map_batches(threshold, batch_format="pyarrow")


def bigram_counts(ds, text_column: str = "text", min_count: int = 2):
    """Global ordered token-bigram counts: (w1, w2, n) for every adjacent
    whitespace-token pair across the corpus — the n-gram LM / collocation
    statistic. Unlike `word_cooccurrence` this is ORDER-sensitive and
    adjacency-bounded, so the pair fan-out is O(tokens), not O(cap^2).

    Shape: bigrams are row-local, so there is NO keyed exchange on the
    corpus — each batch emits (w1, w2, partial_count) combiner rows and
    one coarse merge on the pair sums them. `min_count` prunes AFTER the
    merge so nothing is lost before counting."""
    import pandas as pd

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def pair_partial(batch: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                pa.field("w1", pa.string()),
                pa.field("w2", pa.string()),
                pa.field("_pn", pa.int64()),
            ]
        ).empty_table()
        if batch.num_rows == 0 or text_column not in batch.column_names:
            return empty
        toks = whitespace_token_lists(batch, text_column)
        flat = toks.values.to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return empty
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.ones(len(flat), dtype=bool)
        mask[offsets[1:] - 1] = False  # last token of each list has no successor
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            return empty
        df = pd.DataFrame({"w1": flat[idx], "w2": flat[idx + 1]})
        part = df.groupby(["w1", "w2"], sort=False).size().reset_index(name="_pn")
        return pa.Table.from_pandas(part, preserve_index=False)

    partials = ds.select_columns([text_column]).map_batches(
        pair_partial, batch_format="pyarrow"
    )
    merged = coarse_groupby_agg(partials, ["w1", "w2"], {"n": ("_pn", "sum")})

    def prune(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n" not in batch.column_names:
            return batch
        import pyarrow.compute as pc_

        return batch.filter(pc_.greater_equal(batch.column("n"), min_count))

    return merged.map_batches(prune, batch_format="pyarrow")


def bm25_scores(
    ds,
    id_column: str,
    text_column: str,
    query_terms: list[str],
    k1: float = 1.2,
    b: float = 0.75,
):
    """Okapi BM25 document scores for a fixed query (the classic retrieval
    score behind the reference's Solr/BM25 candidate ranking): per document
    containing >= 1 query term,

        score = sum_t idf(t) * tf * (k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
        idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1)      (Lucene shape)

    Documents with zero tokens don't count toward N / avgdl (they can never
    match). Scale shape: ONE tokenize pass emits a slim tagged intermediate
    — per doc a ('', dl) row and a (term, tf) row per query-term hit; the
    corpus stats (N, sum_dl, per-term df: O(#terms) scalars) reduce
    combiner-first and broadcast back into a vectorized per-batch scorer.
    Scores quantized to integer micro-units (see module docstring).
    Output: (doc_id, bm25_e6)."""
    import math

    import ray

    qset = sorted(set(query_terms))

    def slim(batch: pa.Table) -> pa.Table:
        tf = _tf_batch(batch, id_column, text_column)
        if tf.num_rows == 0:
            return pa.table(
                {
                    id_column: pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "tf": pa.array([], type=pa.int64()),
                }
            )
        d = tf.column(id_column).to_numpy(zero_copy_only=False)
        w = tf.column("word").to_numpy(zero_copy_only=False).astype(object)
        t = tf.column("tf").to_numpy(zero_copy_only=False)
        # per-doc dl rows (term = ''): tf output is doc-sorted
        new = np.concatenate(([True], d[1:] != d[:-1]))
        starts = np.flatnonzero(new)
        dl = np.add.reduceat(t, starts)
        hit = np.isin(w, qset)
        return pa.table(
            {
                id_column: pa.array(
                    np.concatenate((d[starts], d[hit])).astype(np.int64)
                ),
                "term": pa.array(
                    np.concatenate(
                        (np.full(len(starts), "", dtype=object), w[hit])
                    ),
                    type=pa.string(),
                ),
                "tf": pa.array(np.concatenate((dl, t[hit])).astype(np.int64)),
            }
        )

    rows = ds.map_batches(slim, batch_format="pyarrow").materialize()

    # O(#terms) corpus stats via per-batch combiner partials
    n_docs = 0
    sum_dl = 0
    df: dict[str, int] = {t: 0 for t in qset}
    for t in arrow_blocks(rows):
        if isinstance(t, pa.Table) and t.num_rows and "term" in t.column_names:
            terms = t.column("term").to_numpy(zero_copy_only=False)
            tfs = t.column("tf").to_numpy(zero_copy_only=False)
            is_dl = terms == ""
            n_docs += int(is_dl.sum())
            sum_dl += int(tfs[is_dl].sum())
            for q in qset:
                df[q] += int((terms == q).sum())
    idf = {
        q: math.log((n_docs - df[q] + 0.5) / (df[q] + 0.5) + 1.0) for q in qset
    }

    def score(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("doc_id", pa.int64()), ("bm25_e6", pa.int64())])
        if batch.num_rows == 0 or "term" not in batch.column_names:
            return schema.empty_table()
        d = batch.column(id_column).to_numpy(zero_copy_only=False)
        terms = batch.column("term").to_numpy(zero_copy_only=False)
        tfs = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.int64)
        is_dl = terms == ""
        dl_of = dict(zip(d[is_dl].tolist(), tfs[is_dl].tolist()))
        hd, ht, htf = d[~is_dl], terms[~is_dl], tfs[~is_dl]
        if len(hd) == 0:
            return schema.empty_table()
        dl = np.array([dl_of[x] for x in hd.tolist()], dtype=np.int64)
        idf_v = np.array([idf[t] for t in ht.tolist()], dtype=np.float64)
        rel = (dl * n_docs).astype(np.float64) / float(sum_dl)
        part = idf_v * (htf * (k1 + 1.0)) / (htf + k1 * (1.0 - b + b * rel))
        order = np.argsort(hd, kind="stable")
        hd, part = hd[order], part[order]
        starts = np.flatnonzero(np.concatenate(([True], hd[1:] != hd[:-1])))
        score_v = np.add.reduceat(part, starts)
        return pa.table(
            {
                "doc_id": pa.array(hd[starts].astype(np.int64)),
                "bm25_e6": pa.array(
                    np.floor(score_v * 1_000_000 + 0.5).astype(np.int64)
                ),
            }
        )

    # batch_size=None: whole blocks, so a doc's dl row and hit rows (emitted
    # together by `slim`) are never split across scoring batches
    return rows.map_batches(score, batch_format="pyarrow", batch_size=None)


def _attach_unigram_count(pairs, uni, key_word: str, out_col: str, carry: list):
    """Reduce-side lookup: each (w1, w2, ...) bigram row gains the corpus
    count of its `key_word` endpoint. ONE coarse exchange on the word
    string with the slim (w, n) unigram rows riding the same shuffle —
    the string-keyed sibling of metablocking's int-keyed attach; nothing
    is broadcast or collected."""
    import pandas as pd

    from opentapioca_ray.stages.exchange import coarse_group_apply

    carry_fields = [("w1", pa.string()), ("w2", pa.string())] + [
        (c, pa.int64()) for c in carry
    ]
    union_schema = pa.schema(
        [*carry_fields, ("__cnt", pa.int64()), ("__is_uni", pa.bool_())]
    )
    out_schema = pa.schema([*carry_fields, (out_col, pa.int64())])

    def pair_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "w1" not in batch.column_names:
            return union_schema.empty_table()
        cols = {name: batch.column(name).cast(typ) for name, typ in carry_fields}
        cols["__cnt"] = pa.nulls(batch.num_rows, pa.int64())
        cols["__is_uni"] = pa.array(np.zeros(batch.num_rows, dtype=bool))
        return pa.table(cols).cast(union_schema)

    def uni_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "w" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        cols = {}
        for name, typ in carry_fields:
            if name == key_word:
                cols[name] = batch.column("w").cast(pa.string())
            elif typ == pa.string():
                cols[name] = pa.nulls(n, pa.string())
            else:
                cols[name] = pa.nulls(n, pa.int64())
        cols["__cnt"] = batch.column("n").cast(pa.int64())
        cols["__is_uni"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols).cast(union_schema)

    unioned = pairs.map_batches(pair_rows, batch_format="pyarrow").union(
        uni.map_batches(uni_rows, batch_format="pyarrow")
    )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "__is_uni" not in t.column_names:
            return out_schema.empty_table()
        isu = t.column("__is_uni").to_numpy(zero_copy_only=False).astype(bool)
        data = t.filter(pa.array(~isu))
        if data.num_rows == 0:
            return out_schema.empty_table()
        keys = t.filter(pa.array(isu))
        kw = keys.column(key_word).to_numpy(zero_copy_only=False)
        kc = keys.column("__cnt").to_numpy(zero_copy_only=False)
        o = np.argsort(kw)
        kw, kc = kw[o], kc[o]
        dw = data.column(key_word).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(kw, dw)
        # every bigram word exists in the unigram table by construction
        cols = {name: data.column(name) for name, _ in carry_fields}
        cols[out_col] = pa.array(kc[idx].astype(np.int64))
        return pa.table(cols).cast(out_schema)

    return coarse_group_apply(
        unioned, key_word, merge, batch_format="pyarrow"
    )


def pmi_bigrams(ds, text_column: str = "text", min_count: int = 5):
    """Pointwise mutual information collocations: for every bigram with
    n >= min_count, pmi = ln(p(xy) / (p(x)p(y))) = ln(n*T*T / (B*c1*c2))
    with T total tokens and B total bigrams. Counts are exact integers
    end-to-end (combiner partials, string-keyed lookup exchanges for the
    unigram marginals); pmi_e6 is ONE fixed quantized float expression.
    Output: (w1, w2, n, c1, c2, pmi_e6)."""
    import ray

    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size
    from opentapioca_ray.functions.textstats import whitespace_token_lists

    # ONE corpus tokenization pass + ONE exchange for BOTH count tables:
    # unigram partials ride the bigram key space as (w, "") rows (the empty
    # string cannot be a whitespace token, so the tag cannot collide)
    def fused_partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        empty = pa.schema(
            [
                pa.field("w1", pa.string()),
                pa.field("w2", pa.string()),
                pa.field("_pn", pa.int64()),
            ]
        ).empty_table()
        if batch.num_rows == 0 or text_column not in batch.column_names:
            return empty
        toks = whitespace_token_lists(batch, text_column)
        flat = toks.values.to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return empty
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.ones(len(flat), dtype=bool)
        mask[offsets[1:] - 1] = False
        idx = np.flatnonzero(mask)
        uni_part = (
            pd.DataFrame({"w1": flat})
            .groupby("w1", sort=False)
            .size()
            .reset_index(name="_pn")
        )
        uni_part["w2"] = ""
        parts = [uni_part[["w1", "w2", "_pn"]]]
        if len(idx):
            big_part = (
                pd.DataFrame({"w1": flat[idx], "w2": flat[idx + 1]})
                .groupby(["w1", "w2"], sort=False)
                .size()
                .reset_index(name="_pn")
            )
            parts.append(big_part[["w1", "w2", "_pn"]])
        return pa.Table.from_pandas(
            pd.concat(parts, ignore_index=True), preserve_index=False
        )

    fused = right_size(
        coarse_groupby_agg(
            ds.select_columns([text_column]).map_batches(
                fused_partial, batch_format="pyarrow"
            ),
            ["w1", "w2"],
            {"n": ("_pn", "sum")},
        ).materialize()
    )

    import pyarrow.compute as pc0

    def split(tag_uni: bool):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "w1" not in batch.column_names:
                return (
                    pa.schema([("w", pa.string()), ("n", pa.int64())])
                    if tag_uni
                    else pa.schema(
                        [
                            ("w1", pa.string()),
                            ("w2", pa.string()),
                            ("n", pa.int64()),
                        ]
                    )
                ).empty_table()
            is_uni = pc0.equal(batch.column("w2"), "")
            if tag_uni:
                t = batch.filter(is_uni)
                return pa.table(
                    {"w": t.column("w1"), "n": t.column("n").cast(pa.int64())}
                )
            t = batch.filter(pc0.invert(is_uni))
            return pa.table(
                {
                    "w1": t.column("w1"),
                    "w2": t.column("w2"),
                    "n": t.column("n").cast(pa.int64()),
                }
            )

        return fn

    big = fused.map_batches(split(False), batch_format="pyarrow")
    uni = fused.map_batches(split(True), batch_format="pyarrow")

    def _total(counts_ds, col: str) -> int:
        tot = 0
        for t in arrow_blocks(counts_ds.map_batches(
            lambda b: pa.table(
                {
                    "t": pa.array(
                        [
                            int(
                                b.column(col)
                                .to_numpy(zero_copy_only=False)
                                .sum()
                            )
                        ]
                        if b.num_rows and col in b.column_names
                        else [],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )):
            if t.num_rows:
                tot += int(t.column("t").to_numpy().sum())
        return tot

    t_tokens = _total(uni, "n")
    b_bigrams = _total(big, "n")

    import pyarrow.compute as pc

    filtered = big.map_batches(
        lambda b: (
            b.filter(pc.greater_equal(b.column("n"), min_count))
            if b.num_rows and "n" in b.column_names
            else pa.schema(
                [("w1", pa.string()), ("w2", pa.string()), ("n", pa.int64())]
            ).empty_table()
        ),
        batch_format="pyarrow",
    )
    with_c1 = _attach_unigram_count(filtered, uni, "w1", "c1", ["n"])
    both = _attach_unigram_count(with_c1, uni, "w2", "c2", ["n", "c1"])

    out_schema = pa.schema(
        [
            ("w1", pa.string()),
            ("w2", pa.string()),
            ("n", pa.int64()),
            ("c1", pa.int64()),
            ("c2", pa.int64()),
            ("pmi_e6", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n" not in batch.column_names:
            return out_schema.empty_table()
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = batch.column("c1").to_numpy(zero_copy_only=False).astype(np.float64)
        c2 = batch.column("c2").to_numpy(zero_copy_only=False).astype(np.float64)
        # identical IEEE op order to the SQL twin
        pmi = np.floor(
            1e6
            * np.log(
                (n * float(t_tokens) * float(t_tokens))
                / (float(b_bigrams) * c1 * c2)
            )
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "w1": batch.column("w1").cast(pa.string()),
                "w2": batch.column("w2").cast(pa.string()),
                "n": batch.column("n").cast(pa.int64()),
                "c1": batch.column("c1").cast(pa.int64()),
                "c2": batch.column("c2").cast(pa.int64()),
                "pmi_e6": pa.array(pmi),
            }
        )

    return both.map_batches(finish, batch_format="pyarrow")


def zipf_slope(
    docs,
    text_column: str = "text",
    group_column: str = "lang",
    n_parts=None,
):
    """Zipf's-law fit per group: the least-squares slope of ln(frequency)
    on ln(rank) over the group's token vocabulary (tokens ranked by count
    desc, token asc). Healthy natural-language corpora sit near -1;
    boilerplate-heavy or synthetic text drifts off — a standard corpus
    diagnostic.

    Exactness: ln(rank) and ln(count) are quantized ONCE per type to
    integer milli-nats; the regression's four sums are then exact int64
    arithmetic (order-independent), and the slope is ONE fixed quantized
    float expression replayed by the SQL twin. Output:
    (group, n_types, slope_e6).

    Shape: combiner-first (group, token) counts, then one exchange on the
    group key; the ranking kernel handles each group's whole vocabulary in
    one lexsort (partitioning assumption: one group's vocab fits a worker —
    the same per-logical-group bound documented across stages/)."""
    import pandas as pd

    from opentapioca_ray.functions.text import tokenize_flat
    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply

    tok_schema = pa.schema([("grp", pa.string()), ("token", pa.string())])

    def token_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or text_column not in batch.column_names:
            return tok_schema.empty_table()
        groups = batch.column(group_column).to_numpy(zero_copy_only=False)
        flat, counts = tokenize_flat(
            [t or "" for t in batch.column(text_column).to_pylist()]
        )
        if not len(flat):
            return tok_schema.empty_table()
        rep = np.repeat(groups, counts.astype(np.int64))
        return pa.table(
            {
                "grp": pa.array(rep, pa.string()),
                "token": pa.array(flat, pa.string()),
            }
        )

    counts = partial_multi_sum_count(
        docs.map_batches(token_rows, batch_format="pyarrow"),
        ["grp", "token"],
        [],
        alias={"count": "c"},
    )

    out_cols = ("grp", "n_types", "slope_e6")

    def slope_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "grp" not in df.columns:
            return pd.DataFrame(
                {
                    "grp": pd.Series(dtype=object),
                    "n_types": pd.Series(dtype=np.int64),
                    "slope_e6": pd.Series(dtype=np.int64),
                }
            )
        g = df["grp"].to_numpy()
        tok = df["token"].to_numpy()
        c = df["c"].to_numpy(dtype=np.int64)
        _, gcodes = np.unique(g, return_inverse=True)
        order = np.lexsort((tok, -c, gcodes))
        g, c, gcodes = g[order], c[order], gcodes[order]
        new = np.concatenate(([True], gcodes[1:] != gcodes[:-1]))
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rk = np.arange(len(c), dtype=np.int64) - starts[seg] + 1
        x = np.floor(np.log(rk.astype(np.float64)) * 1000.0 + 0.5).astype(np.int64)
        y = np.floor(np.log(c.astype(np.float64)) * 1000.0 + 0.5).astype(np.int64)
        n = np.diff(np.append(starts, len(c))).astype(np.int64)
        sx = np.add.reduceat(x, starts)
        sy = np.add.reduceat(y, starts)
        sxy = np.add.reduceat(x * y, starts)
        sxx = np.add.reduceat(x * x, starts)
        # cross terms n*sxy etc. overflow int64 past ~1e6 types, so the
        # final per-group arithmetic runs in Python ints (groups are few);
        # the expression shape (num*1e6)/den matches the SQL twin exactly
        rows = []
        for gi in range(len(starts)):
            num = int(n[gi]) * int(sxy[gi]) - int(sx[gi]) * int(sy[gi])
            den = int(n[gi]) * int(sxx[gi]) - int(sx[gi]) * int(sx[gi])
            if den == 0:  # single-type groups have no slope
                continue
            rows.append(
                (
                    g[starts[gi]],
                    int(n[gi]),
                    int(np.floor((float(num) * 1_000_000.0) / float(den) + 0.5)),
                )
            )
        return pd.DataFrame(rows, columns=["grp", "n_types", "slope_e6"]).astype(
            {"n_types": np.int64, "slope_e6": np.int64}
        )

    return coarse_group_apply(counts, "grp", slope_partition, n_parts=n_parts)
