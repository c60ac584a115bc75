"""Bag-of-words language model.

Scoring parity with the reference (opentapioca/languagemodel.py:21-88):
`log_likelihood(phrase) = Σ_w [log(smoothing + count[w])] − n·log(smoothing·(1+V) + total)`
with smoothing=1 and a save threshold that drops words with count < 2.

Training is NOT the reference's single-threaded loop: it is a Ray Data
aggregation — per-row distinct-word extraction (`flat_map` semantics inside
`map_batches`) pre-aggregated per batch, then summed per word by the
repo's one partial-sum merge (`stages/exchange.py:sum_partials`: a driver
group-by for small corpora, one coarse exchange above), scaling to
arbitrarily many documents (reference languagemodel.py:91-123 trains in
one process).
"""

from __future__ import annotations

import json
from math import log

import pyarrow as pa

from opentapioca_ray.functions.text import tokenize
from opentapioca_ray.stages.exchange import arrow_blocks


class BOWLanguageModel:
    """In-memory scoring state; broadcast to actors via `ray.put`."""

    def __init__(self, smoothing: int = 1, threshold: int = 2):
        self.total_count = 0
        self.word_count: dict[str, int] = {}
        self.smoothing = smoothing
        self.threshold = threshold
        self._log_quotient: float | None = None

    def ingest(self, words) -> None:
        for word in words:
            self.word_count[word] = self.word_count.get(word, 0) + 1
        self.total_count += len(words)
        self._log_quotient = None

    def ingest_phrases(self, phrases) -> None:
        """Dedup words across the phrases of one entity, then count
        (reference languagemodel.py:37-45)."""
        word_set = set()
        for phrase in phrases:
            word_set |= set(tokenize(phrase))
        self.ingest(word_set)

    def log_likelihood(self, phrase: str) -> float:
        return sum(self._word_log_likelihood(w) for w in tokenize(phrase))

    def _word_log_likelihood(self, word: str) -> float:
        if self._log_quotient is None:
            self._update_log_quotient()
        return log(float(self.smoothing + self.word_count.get(word, 0))) - self._log_quotient

    def _update_log_quotient(self) -> None:
        self._log_quotient = log(
            self.smoothing * (1 + len(self.word_count)) + self.total_count
        )

    # -- persistence: JSON instead of pickle (same content as the reference's
    # pickled dict: total_count + thresholded (word,count) pairs,
    # languagemodel.py:78-88).
    def save(self, filename: str) -> None:
        with open(filename, "w") as f:
            json.dump(
                {
                    "total_count": self.total_count,
                    "word_count": [
                        (w, c) for w, c in self.word_count.items() if c >= self.threshold
                    ],
                },
                f,
            )

    def load(self, filename: str) -> None:
        with open(filename) as f:
            dct = json.load(f)
        self.total_count = dct["total_count"]
        self.word_count = dict(dct["word_count"])
        self._update_log_quotient()

    @classmethod
    def from_counts(cls, word_count: dict[str, int], total_count: int) -> "BOWLanguageModel":
        bow = cls()
        bow.word_count = dict(word_count)
        bow.total_count = total_count
        bow._update_log_quotient()
        return bow


# ---------------------------------------------------------------------------
# Distributed training (Ray Data)
# ---------------------------------------------------------------------------

_COUNT_SCHEMA = pa.schema([("word", pa.string()), ("count", pa.int64())])


def partial_word_counts(batch: pa.Table, text_column: str) -> pa.Table:
    """Combiner: count distinct-per-row words inside the batch BEFORE the
    shuffle, so the groupby moves (word, partial_count) not raw tokens."""
    from opentapioca_ray.functions.text import tokenize_codes

    return word_counts_from_codes(*tokenize_codes(batch.column(text_column).to_pylist()))


def word_counts_from_codes(codes, vocab, counts) -> pa.Table:
    """`partial_word_counts` of an already-tokenized batch (`tokenize_codes`'
    `(codes, vocab, counts)`): (word, count) rows, count = the number of
    rows the word occurs in. The distinct (row, word) pairs are found with
    one `np.unique` over a fused int64 key of the token codes — the
    multiset of per-row `set(tokenize(text))`, in a deterministic order
    (the vocabulary's first appearance), unlike Python set iteration."""
    import numpy as np

    if len(codes) == 0:
        cnt = np.zeros(len(vocab), dtype=np.int64)
    else:
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        distinct = np.unique(doc_idx * np.int64(len(vocab)) + codes) % len(vocab)
        cnt = np.bincount(distinct, minlength=len(vocab))
    return pa.table(
        {
            "word": pa.array(vocab, type=pa.string()),
            "count": pa.array(cnt, type=pa.int64()),
        }
    )


def train_bow(ds, text_column: str = "text", threshold: int = 2):
    """documents Dataset -> (word_counts Dataset, total_count int).

    Pipeline: map_batches(partial combiner) -> `stages/exchange.py:
    sum_partials` -> filter. The merge picks its regime from the partial
    row count: a driver group-by for small corpora, else one coarse
    exchange. The summed counts are materialized once; the kept (count >=
    `threshold`) rows are a filter over them, and `total_count` is read off
    their (vocabulary-bounded) blocks with no further execution of the
    merge. `total_count` is the number of (row, distinct word) pairs
    BEFORE thresholding (reference counts every ingested word, then
    thresholds only at save time — languagemodel.py:78-88).
    """
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import sum_partials

    partial = ds.map_batches(
        lambda b: partial_word_counts(b, text_column),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    counts = sum_partials(partial, ["word"], _COUNT_SCHEMA).materialize()
    total = sum(
        pc.sum(t.column("count")).as_py() or 0
        for t in arrow_blocks(counts)
        if t.num_rows and "count" in t.column_names
    )
    return counts.filter(expr=f"count >= {threshold}"), int(total)


def bow_from_dataset(ds, text_column: str = "text", threshold: int = 2) -> BOWLanguageModel:
    """Materialize the trained counts into a broadcastable scoring model.

    The counts table is the small side (vocabulary), safe to collect.
    """
    kept, total = train_bow(ds, text_column, threshold)

    word_count: dict[str, int] = {}
    for t in arrow_blocks(kept):
        if t.num_rows == 0 or "word" not in t.column_names:
            continue  # empty shuffle blocks arrive schema-less
        for w, c in zip(t.column("word").to_pylist(), t.column("count").to_pylist()):
            word_count[w] = int(c)
    return BOWLanguageModel.from_counts(word_count, total)
