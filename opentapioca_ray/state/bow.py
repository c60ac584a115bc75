"""Bag-of-words language model.

Scoring parity with the reference (opentapioca/languagemodel.py:21-88):
`log_likelihood(phrase) = Σ_w [log(smoothing + count[w])] − n·log(smoothing·(1+V) + total)`
with smoothing=1 and a save threshold that drops words with count < 2.

Training is NOT the reference's single-threaded loop: it is a Ray Data
aggregation — per-row distinct-word extraction (`flat_map` semantics inside
`map_batches`) followed by a `groupby("word").count()` shuffle with partial
pre-aggregation, scaling to arbitrarily many documents (reference
languagemodel.py:91-123 trains in one process).
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


def train_bow(ds, text_column: str = "text", threshold: int = 2,
              mode: str = "auto", driver_limit: int = 5_000_000):
    """documents Dataset -> (word_counts Dataset, total_count int).

    Pipeline: map_batches(partial combiner) -> merge -> filter. The final
    merge is scale-adaptive: partial (word, count) rows under `driver_limit`
    merge with one vectorized dictionary-encode + bincount pass on the
    driver (no shuffle); above, a distributed groupby(word).sum runs.
    `total_count` is the number of (row, distinct word) pairs BEFORE
    thresholding (reference counts every ingested word, then thresholds only
    at save time — languagemodel.py:78-88).
    """
    import numpy as np
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        lambda b: partial_word_counts(b, text_column),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    if mode == "auto":
        mode = "driver" if partial.count() <= driver_limit else "shuffle"
    if mode == "driver":
        word_chunks, cnt_chunks = [], []
        for t in arrow_blocks(partial):
            if t.num_rows == 0 or "word" not in t.column_names:
                continue
            col = t.column("word")
            word_chunks.extend(col.chunks if isinstance(col, pa.ChunkedArray) else [col])
            cnt_chunks.append(t.column("count").to_numpy(zero_copy_only=False))
        if not word_chunks:
            empty = pa.schema([("word", pa.string()), ("count", pa.int64())]).empty_table()
            return rd.from_arrow(empty), 0
        enc = pa.chunked_array(word_chunks).combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        cnts = np.concatenate(cnt_chunks).astype(np.int64)
        sums = np.bincount(codes, weights=cnts).astype(np.int64)
        total = int(sums.sum())
        sel = sums >= threshold
        table = pa.table(
            {
                "word": enc.dictionary.filter(pa.array(sel)),
                "count": pa.array(sums[sel], type=pa.int64()),
            }
        )
        n_slices = max(1, min(16, table.num_rows // 4096 + 1))
        step = max(1, (table.num_rows + n_slices - 1) // n_slices)
        slices = [table.slice(i, step) for i in range(0, table.num_rows, step)]
        return rd.from_arrow(slices or [table]), total
    counts = partial.groupby("word").aggregate(Sum("count", alias_name="count"))
    total = counts.sum("count")
    kept = counts.filter(
        expr=f"count >= {threshold}"
    ) if hasattr(counts, "filter") else counts
    return kept, int(total or 0)


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
