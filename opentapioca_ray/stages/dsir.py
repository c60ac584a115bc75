"""DSIR-style importance weights for corpus selection.

Data Selection via Importance Resampling (Xie et al., 2023) scores every
source document by how much its hashed n-gram feature distribution looks
like a target corpus: weight(doc) = sum_f c_f(doc) * log(p_target(f) /
p_source(f)). Documents are then resampled proportionally to exp(weight)
— the standard recipe for skewing a web-scale crawl toward a
Wikipedia-like (here: English-subset) distribution before training.

Exactness convention (repo-wide): the ONLY float operation is the
per-feature log-ratio, quantized ONCE to integer millionths —
r_e6(f) = floor((ln(t_f/T) - ln(s_f/S)) * 1e6 + 0.5) — from exact integer
counts; per-document weights are then plain int64 sums of c_f * r_e6(f),
order-independent by construction, so the DuckDB twin reproduces them
bit-for-bit (no float-summation-order hazard).

Features are word bigrams WITH multiplicity (unhashed — honest at test
scale; swapping in a hashed feature space is a one-line change to the
feature kernel and the documented scale path for 100 TB vocabularies).
Features never seen in the target contribute 0 (the seen-in-target
vocabulary restriction; DSIR's smoothing alternative would need a float
prior, breaking exact parity).

Shape: one feature-stat exchange (hash(feature) % P co-locates every
occurrence, so t_f / s_f and the quantized ratio are computed where the
doc-feature counts already live) + one doc-keyed combine of integer
partials. Corpus totals T and S are two scalar aggregates (O(1) driver
state, same regime as linkage's corpus_stats).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.stages.exchange import driver_dataset


_FEAT_EMPTY = pa.schema(
    [
        ("feat", pa.string()),
        ("doc_id", pa.int64()),
        ("c", pa.int64()),
        ("is_t", pa.int64()),
    ]
).empty_table()

_OUT_COLS = ("doc_id", "n_feats", "weight_e6")


def bigram_count_rows(
    batch: pa.Table,
    id_column: str = "doc_id",
    text_column: str = "text",
    target_column: str = "lang",
    target_value: str = "en",
) -> pa.Table:
    """Per-(doc, bigram) occurrence counts + the doc's target flag; docs
    with fewer than 2 tokens yield no rows. One Arrow window join + one
    lexsort per batch — no per-doc Python."""
    import pyarrow.compute as pc

    from opentapioca_ray.functions.text import tokenize_flat

    if batch.num_rows == 0 or id_column not in batch.column_names:
        return _FEAT_EMPTY
    ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    is_t = (
        pc.equal(batch.column(target_column), target_value)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    flat, counts = tokenize_flat(
        [t or "" for t in batch.column(text_column).to_pylist()]
    )
    n = len(flat)
    if n < 2:
        return _FEAT_EMPTY
    counts = counts.astype(np.int64)
    doc_rep = np.repeat(np.arange(len(ids)), counts)
    flat_arr = pa.array(flat, type=pa.string())
    grams = pc.binary_join_element_wise(
        flat_arr.slice(0, n - 1), flat_arr.slice(1, n - 1), " "
    )
    valid = doc_rep[: n - 1] == doc_rep[1:]
    if not valid.any():
        return _FEAT_EMPTY
    grams = grams.filter(pa.array(valid))
    docs = doc_rep[: n - 1][valid]
    codes = grams.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    order = np.lexsort((codes, docs))
    d_s, c_s = docs[order], codes[order]
    new = np.concatenate(([True], (d_s[1:] != d_s[:-1]) | (c_s[1:] != c_s[:-1])))
    starts = np.flatnonzero(new)
    occ = np.diff(np.append(starts, len(c_s)))
    kept_docs = d_s[starts]
    kept_grams = grams.take(pa.array(order[starts]))
    return pa.table(
        {
            "feat": kept_grams,
            "doc_id": pa.array(ids[kept_docs], type=pa.int64()),
            "c": pa.array(occ.astype(np.int64)),
            "is_t": pa.array(is_t[kept_docs]),
        }
    )


def dsir_weights(
    docs,
    id_column: str = "doc_id",
    text_column: str = "text",
    target_column: str = "lang",
    target_value: str = "en",
    n_parts: int | None = None,
):
    """(doc_id, n_feats, weight_e6): DSIR importance weight of every doc
    with >= 1 bigram, in exact integer millionths (see module docstring).
    n_feats is the doc's total bigram occurrence count."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    feats = docs.map_batches(
        lambda b: bigram_count_rows(
            b, id_column, text_column, target_column, target_value
        ),
        batch_format="pyarrow",
    ).materialize()  # consumed by the totals pass AND the stat exchange

    # corpus totals: two exact scalars (S = all bigram occurrences,
    # T = target-doc bigram occurrences)
    def totals(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "c" not in batch.column_names:
            return pa.table(
                {"s": pa.array([], pa.int64()), "t": pa.array([], pa.int64())}
            )
        c = batch.column("c").to_numpy(zero_copy_only=False)
        it = batch.column("is_t").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s": pa.array([int(c.sum())], pa.int64()),
                "t": pa.array([int((c * it).sum())], pa.int64()),
            }
        )

    tot = feats.map_batches(totals, batch_format="pyarrow")
    s_total = int(tot.sum("s") or 0)
    t_total = int(tot.sum("t") or 0)
    if s_total == 0 or t_total == 0:
        return driver_dataset(
            pa.schema([(c, pa.int64()) for c in _OUT_COLS]).empty_table()
        )

    def stat_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({c: pd.Series(dtype=np.int64) for c in _OUT_COLS})
        codes, _ = pd.factorize(df["feat"].to_numpy(), sort=False)
        c = df["c"].to_numpy(dtype=np.int64)
        it = df["is_t"].to_numpy(dtype=np.int64)
        doc = df["doc_id"].to_numpy(dtype=np.int64)
        nf = np.max(codes) + 1
        s_f = np.bincount(codes, weights=c, minlength=nf).astype(np.int64)
        t_f = np.bincount(codes, weights=c * it, minlength=nf).astype(np.int64)
        # the one float op, quantized once per feature (t_f = 0 -> ratio 0:
        # unseen-in-target features are outside the vocabulary)
        with np.errstate(divide="ignore"):
            raw = np.log(t_f.astype(np.float64) / float(t_total)) - np.log(
                s_f.astype(np.float64) / float(s_total)
            )
        r_e6 = np.where(
            t_f > 0, np.floor(raw * 1_000_000.0 + 0.5), 0.0
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": doc,
                "n_feats": c,
                "weight_e6": c * r_e6[codes],
            }
        )

    partials = coarse_group_apply(feats, "feat", stat_partition, n_parts=n_parts)
    return coarse_groupby_agg(
        partials,
        ["doc_id"],
        {"n_feats": ("n_feats", "sum"), "weight_e6": ("weight_e6", "sum")},
        n_parts=n_parts,
    )
