"""Unigram language-model quality scoring (CCNet-style perplexity filter).

Pre-training pipelines score documents by how "natural" their token
distribution is under a language model trained on the corpus itself (or a
trusted reference corpus); low-probability documents are filtered or
down-sampled. This module implements the unigram variant: one distributed
counting pass trains the model, one streaming pass scores every document.

Scale notes:
- training is a per-batch Arrow `value_counts` combiner + ONE coarse hash
  exchange over DISTINCT (word, count) partials — facts never shuffle;
- the model is the vocabulary table, bounded by distinct-word count, not
  corpus size; it is broadcast once via `ray.put` (guarded by
  `_VOCAB_LIMIT` — a vocabulary beyond that needs a hashed-feature model,
  not an exact table);
- scoring is a stateless `map_batches` fan-out: flatten tokens, one
  `searchsorted` lookup into the broadcast log-prob table, one segment sum
  per document. No exchange, no Python-per-row.

Exactness: the ONLY float operation is building the per-word integer
log-prob table lp_e6(w) = round(ln(count / total) * 1e6); every per-doc
score is then an exact int64 sum of those integers, so the DuckDB twin
reproduces results bit-for-bit from the same quantized table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from opentapioca_ray.functions.textstats import whitespace_token_lists
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

_VOCAB_LIMIT = 20_000_000  # distinct words the driver may hold / broadcast


def train_unigram_counts(ds, text_column: str = "text"):
    """Distributed corpus word counts: per-batch combiner + one coarse
    exchange. Returns a dataset of (word: string, count: int64)."""
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or text_column not in batch.column_names:
            return pa.schema(
                [pa.field("word", pa.string()), pa.field("count", pa.int64())]
            ).empty_table()
        toks = whitespace_token_lists(batch, text_column)
        vc = toks.flatten().value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "count": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return coarse_groupby_agg(partials, ["word"], {"count": ("count", "sum")})


def unigram_lm_scores(
    ds,
    id_column: str = "doc_id",
    text_column: str = "text",
    counts_ds=None,
    carry_columns: list | None = None,
):
    """Score every document under the corpus unigram model.

    Returns (id, n_tokens: int64, sum_lp_e6: int64) for every document with
    at least one token, where sum_lp_e6 = Σ_tokens round(ln(p(w)) * 1e6).
    Mean log-prob / perplexity are monotone in sum_lp_e6 / n_tokens, so
    downstream filters threshold on the exact integers.

    `carry_columns`: extra input columns passed through onto the output
    rows (same keep-filter), so a consumer needing e.g. the language label
    next to the score doesn't pay a doc-keyed join afterwards.

    `counts_ds`: pre-trained (word, count) model (e.g. from a reference
    corpus); defaults to training on `ds` itself. `ds` is consumed twice
    in that case, so pass a materialized dataset for anything expensive."""
    import ray

    if counts_ds is None:
        counts_ds = train_unigram_counts(ds, text_column)

    tables = list(arrow_blocks(counts_ds))
    tables = [
        t for t in tables if t.num_rows and "word" in t.column_names
    ]
    if not tables:
        return ds.map_batches(
            lambda b: pa.schema(
                [
                    pa.field(id_column, pa.int64()),
                    pa.field("n_tokens", pa.int64()),
                    pa.field("sum_lp_e6", pa.int64()),
                ]
            ).empty_table(),
            batch_format="pyarrow",
        )
    vocab = pa.concat_tables(tables)
    if vocab.num_rows > _VOCAB_LIMIT:
        raise ValueError(
            f"vocabulary {vocab.num_rows} exceeds _VOCAB_LIMIT {_VOCAB_LIMIT}; "
            "use a hashed-feature LM for open vocabularies"
        )
    words = vocab.column("word").to_numpy(zero_copy_only=False)
    counts = vocab.column("count").to_numpy(zero_copy_only=False).astype(np.float64)
    total = counts.sum()
    order = np.argsort(words)
    lp_e6 = np.round(
        np.log(counts[order] / total) * 1_000_000.0
    ).astype(np.int64)
    model_ref = ray.put((words[order], lp_e6))

    carry = list(carry_columns or [])

    def score(batch: pa.Table) -> pa.Table:
        fields = [
            pa.field(id_column, pa.int64()),
            pa.field("n_tokens", pa.int64()),
            pa.field("sum_lp_e6", pa.int64()),
        ]
        for c in carry:
            fields.append(
                pa.field(
                    c,
                    batch.schema.field(c).type
                    if c in batch.column_names
                    else pa.string(),
                )
            )
        empty = pa.schema(fields).empty_table()
        if batch.num_rows == 0 or text_column not in batch.column_names:
            return empty
        w_sorted, lp = ray.get(model_ref)
        toks = whitespace_token_lists(batch, text_column)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        n_tok = np.diff(offsets)
        if flat.size == 0:
            return empty
        idx = np.clip(np.searchsorted(w_sorted, flat), 0, len(lp) - 1)
        tok_lp = lp[idx]
        # out-of-vocabulary tokens (scoring under a foreign model) get the
        # rarest-word probability; self-trained models never hit this
        oov = w_sorted[idx] != flat
        if oov.any():
            tok_lp = np.where(oov, lp.min(), tok_lp)
        doc_rep = np.repeat(np.arange(batch.num_rows), n_tok)
        sums = np.bincount(doc_rep, weights=tok_lp, minlength=batch.num_rows)
        keep = n_tok > 0
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        keep_arr = pa.array(keep)
        cols = {
            id_column: pa.array(ids[keep].astype(np.int64)),
            "n_tokens": pa.array(n_tok[keep].astype(np.int64)),
            "sum_lp_e6": pa.array(np.round(sums[keep]).astype(np.int64)),
        }
        for c in carry:
            cols[c] = batch.column(c).filter(keep_arr)
        return pa.table(cols)

    return ds.map_batches(score, batch_format="pyarrow")


def nb_lang_confusion(
    docs,
    text_column: str = "text",
    label_column: str = "lang",
    n_parts: int | None = None,
):
    """Train-classify-evaluate in one exact pipeline: a multinomial Naive
    Bayes language identifier over word unigrams with add-one smoothing,
    trained on the corpus's own labels, applied back to every document,
    reported as the confusion matrix (true_lang, pred_lang, n).

    Exactness convention: the ONLY float op is the per-(lang, word)
    smoothed log-probability, quantized ONCE to integer micro-nats —
    lp_e6 = floor(ln((c_lw + 1) / (total_l + V)) * 1e6 + 0.5) — from
    exact integer counts; each document's per-lang score is then an
    int64 sum of c_w * lp_e6(l, w), order-independent, argmax ties
    broken by lang asc. Documents with no tokens are skipped.

    Shape (the DSIR recipe): per-(doc, word) count rows, ONE word-keyed
    exchange where each word's per-lang counts co-locate (the smoothed
    log-probs for ALL langs are computed where the doc-word counts
    already live, using the broadcast per-lang totals + V — a handful of
    scalars), per-(doc, lang) integer partials, one doc-keyed roll-up,
    one confusion combiner."""
    import pandas as pd

    from opentapioca_ray.functions.text import tokenize_flat
    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    feat_schema = pa.schema(
        [
            ("word", pa.string()),
            ("doc_id", pa.int64()),
            ("c", pa.int64()),
            ("lang", pa.string()),
        ]
    )

    def word_count_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return feat_schema.empty_table()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        langs = batch.column(label_column).to_numpy(zero_copy_only=False)
        flat, counts = tokenize_flat(
            [t or "" for t in batch.column(text_column).to_pylist()]
        )
        if not len(flat):
            return feat_schema.empty_table()
        counts = counts.astype(np.int64)
        docs_rep = np.repeat(np.arange(len(ids)), counts)
        flat_arr = pa.array(flat, type=pa.string())
        codes = flat_arr.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((codes, docs_rep))
        d_s, c_s = docs_rep[order], codes[order]
        new = np.concatenate(([True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])))
        starts = np.flatnonzero(new)
        occ = np.diff(np.append(starts, len(c_s)))
        kept_docs = d_s[starts]
        return pa.table(
            {
                "word": flat_arr.take(pa.array(order[starts])),
                "doc_id": pa.array(ids[kept_docs]),
                "c": pa.array(occ.astype(np.int64)),
                "lang": pa.array(langs[kept_docs], pa.string()),
            }
        )

    feats = docs.map_batches(word_count_rows, batch_format="pyarrow").materialize()

    # per-lang token totals + global distinct-word count V: scalars
    lang_totals = {}

    lt = coarse_groupby_agg(
        feats.map_batches(
            lambda b: pa.table(
                {"lang": b.column("lang"), "c": b.column("c")}
            )
            if b.num_rows and "lang" in b.column_names
            else pa.schema([("lang", pa.string()), ("c", pa.int64())]).empty_table(),
            batch_format="pyarrow",
        ),
        ["lang"],
        {"t": ("c", "sum")},
        n_parts=n_parts,
    )
    for t in arrow_blocks(lt):
        if t.num_rows == 0 or "lang" not in t.column_names:
            continue
        for l, v in zip(t.column("lang").to_pylist(), t.column("t").to_pylist()):
            lang_totals[l] = lang_totals.get(l, 0) + int(v)
    v_distinct = partial_multi_sum_count(
        feats.select_columns(["word"]), ["word"], []
    ).count()
    if not lang_totals or v_distinct == 0:
        return driver_dataset(
            pa.schema(
                [
                    ("true_lang", pa.string()),
                    ("pred_lang", pa.string()),
                    ("n", pa.int64()),
                ]
            ).empty_table()
        )
    langs_sorted = sorted(lang_totals)
    denoms = np.array(
        [lang_totals[l] + v_distinct for l in langs_sorted], dtype=np.float64
    )

    def score_partition(df: pd.DataFrame) -> pd.DataFrame:
        cols = ("doc_id", "lang", "true_lang", "score")
        if df.empty or "word" not in df.columns:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "lang": pd.Series(dtype=object),
                    "true_lang": pd.Series(dtype=object),
                    "score": pd.Series(dtype=np.int64),
                }
            )
        words = df["word"].to_numpy()
        doc = df["doc_id"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        tl = df["lang"].to_numpy()
        _, wcodes = np.unique(words, return_inverse=True)
        nw = wcodes.max() + 1
        nl = len(langs_sorted)
        # per-(word, lang) counts within this partition == global counts
        # (words are hash-co-located)
        cw = np.zeros((nw, nl), dtype=np.int64)
        lidx = np.searchsorted(np.array(langs_sorted, dtype=object), tl)
        np.add.at(cw, (wcodes, lidx), c)
        lp = np.floor(
            np.log((cw + 1).astype(np.float64) / denoms[None, :]) * 1_000_000.0
            + 0.5
        ).astype(np.int64)  # (nw, nl)
        # per-(doc, lang) partials: c * lp[word, lang]
        contrib = c[:, None] * lp[wcodes]  # (rows, nl)
        out = pd.DataFrame(
            {
                "doc_id": np.repeat(doc, nl),
                "lang": np.tile(np.array(langs_sorted, dtype=object), len(doc)),
                "true_lang": np.repeat(tl, nl),
                "score": contrib.ravel(),
            }
        )
        return out.groupby(
            ["doc_id", "lang", "true_lang"], as_index=False, sort=False
        )["score"].sum()

    partials = coarse_group_apply(feats, "word", score_partition, n_parts=n_parts)
    scores = coarse_groupby_agg(
        partials,
        ["doc_id", "lang", "true_lang"],
        {"score": ("score", "sum")},
        n_parts=n_parts,
    )

    def argmax_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "doc_id" not in df.columns:
            return pd.DataFrame(
                {
                    "true_lang": pd.Series(dtype=object),
                    "pred_lang": pd.Series(dtype=object),
                }
            )
        d = df["doc_id"].to_numpy(dtype=np.int64)
        l = df["lang"].to_numpy()
        tl = df["true_lang"].to_numpy()
        s = df["score"].to_numpy(dtype=np.int64)
        order = np.lexsort((l, -s, d))  # per doc: score desc, lang asc
        d_s = d[order]
        first = np.concatenate(([True], d_s[1:] != d_s[:-1]))
        return pd.DataFrame(
            {
                "true_lang": tl[order][first],
                "pred_lang": l[order][first],
            }
        )

    preds = coarse_group_apply(scores, "doc_id", argmax_partition, n_parts=n_parts)
    return partial_multi_sum_count(
        preds, ["true_lang", "pred_lang"], [], alias={"count": "n"}
    )


def vocab_richness(docs, text_column: str = "text", n_parts: int | None = None):
    """Vocabulary richness / coverage estimators from the corpus unigram
    counts: Good-Turing missing mass p0 = N1/N (Good 1953) — the
    probability the NEXT token is an unseen type, i.e. how under-sampled
    the corpus still is — the adjusted count r* = (r+1) N2/N1 for r=1,
    and the Chao1 richness estimate V + N1^2 / (2 N2) (Chao 1984). One
    summary row (v_types, n_tokens, n1, n2, n3, p0_e6, r1_star_e6,
    chao1_e6); every input is an exact integer and each estimator is ONE
    quantized float expression the SQL twin replays.

    Shape: the distributed unigram counts (combiner + one exchange), then
    a per-batch count-of-counts partial and a scalar roll-up."""
    counts = train_unigram_counts(docs, text_column=text_column)

    def partials(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "count" not in batch.column_names:
            return pa.table(
                {c: pa.array([], pa.int64()) for c in ("v", "n", "n1", "n2", "n3")}
            )
        c = batch.column("count").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "v": pa.array([len(c)], pa.int64()),
                "n": pa.array([int(c.sum())], pa.int64()),
                "n1": pa.array([int((c == 1).sum())], pa.int64()),
                "n2": pa.array([int((c == 2).sum())], pa.int64()),
                "n3": pa.array([int((c == 3).sum())], pa.int64()),
            }
        )

    p = counts.map_batches(partials, batch_format="pyarrow").materialize()
    v = int(p.sum("v") or 0)
    n = int(p.sum("n") or 0)
    n1 = int(p.sum("n1") or 0)
    n2 = int(p.sum("n2") or 0)
    n3 = int(p.sum("n3") or 0)
    p0 = int(np.floor(n1 * 1_000_000.0 / n + 0.5)) if n else 0
    r1 = int(np.floor(2.0 * n2 / n1 * 1_000_000.0 + 0.5)) if n1 else 0
    chao1 = (
        int(np.floor((v + n1 * n1 / (2.0 * n2)) * 1_000_000.0 + 0.5))
        if n2
        else v * 1_000_000
    )
    return driver_dataset(
        pa.table(
            {
                "v_types": pa.array([v], pa.int64()),
                "n_tokens": pa.array([n], pa.int64()),
                "n1": pa.array([n1], pa.int64()),
                "n2": pa.array([n2], pa.int64()),
                "n3": pa.array([n3], pa.int64()),
                "p0_e6": pa.array([p0], pa.int64()),
                "r1_star_e6": pa.array([r1], pa.int64()),
                "chao1_e6": pa.array([chao1], pa.int64()),
            }
        )
    )
