"""Canopy clustering (McCallum, Nigam & Ungar, KDD 2000) as a cheap
blocking primitive for entity resolution: greedy rounds each pick the
smallest-id still-alive doc as a canopy center, pull every alive doc whose
cheap-metric similarity to the center clears a LOOSE threshold into the
canopy (docs may belong to several canopies), and retire docs clearing the
TIGHT threshold (plus the center) from the pool. The expensive pairwise
matcher then only runs within canopies.

The reference blocks mentions by exact normalized surface keys
(`opentapioca/tagger.py:45-69`); canopy generalizes that to overlapping
soft blocks. Cheap metric here: the number of shared distinct word-k-grams
(an exact integer — no float quantization between Ray and the SQL twin).

Distributed shape: the doc->gram-list table is one ROW per doc (rows never
split across blocks, so block-local argmins over whole docs are exact).
Each round is two streaming passes — a block-min scan whose O(#blocks)
candidate rows carry their own gram lists (the driver never re-scans the
corpus to fetch the chosen center's grams), then one broadcast-overlap map
that scores every alive doc against the center and filters the survivor
pool. Driver state is a single center row; the alive set stays distributed
and is re-materialized once per round.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from opentapioca_ray.stages.exchange import driver_dataset

_CAND_EMPTY = pa.schema(
    [("doc_id", pa.int64()), ("grams", pa.list_(pa.string()))]
).empty_table()

_MEMBER_SCHEMA = pa.schema(
    [
        ("canopy_round", pa.int64()),
        ("center_id", pa.int64()),
        ("doc_id", pa.int64()),
        ("overlap", pa.int64()),
    ]
)


def _block_min(batch: pa.Table) -> pa.Table:
    """The block's smallest-doc_id row (id + gram list), or empty."""
    if batch.num_rows == 0 or "doc_id" not in batch.column_names:
        return _CAND_EMPTY
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    i = int(np.argmin(ids))
    return batch.select(["doc_id", "grams"]).slice(i, 1)


def _overlap_counts(batch: pa.Table, center_grams: np.ndarray) -> np.ndarray:
    """Per-row count of grams shared with the (broadcast) center set."""
    lists = batch.column("grams").combine_chunks()
    flat = lists.flatten().to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    hit = np.isin(flat, center_grams)
    doc_idx = np.repeat(np.arange(len(lens)), lens)
    return np.bincount(doc_idx, weights=hit, minlength=len(lens)).astype(
        np.int64
    )


def canopy_clusters(doc_grams, t1: int = 4, t2: int = 10, rounds: int = 8):
    """Greedy canopy formation over a one-row-per-doc (doc_id, grams)
    dataset. Returns (canopy_round, center_id, doc_id, overlap) membership
    rows for every doc whose shared-gram count with that round's center is
    >= `t1`; docs reaching `t2` (and the center) leave the pool. `rounds`
    is fixed so the SQL twin can unroll it exactly."""
    import ray

    from .exchange import right_size

    assert t2 >= t1, "tight threshold must imply the loose one"
    # one row per doc: collapse the blocks>>rows regime up front so the 2
    # driver-synchronized waves per round are a handful of tasks, not
    # #input-blocks near-empty ones (real-scale inputs pass through)
    alive = right_size(doc_grams.materialize(), rows_per_block=16_384)
    member_dsets = []
    for rnd in range(rounds):
        cands = alive.map_batches(
            _block_min, batch_format="pyarrow"
        ).take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: r["doc_id"])
        center = int(best["doc_id"])
        cg_ref = ray.put(np.asarray(best["grams"], dtype=object))

        def score(batch: pa.Table, _ref=cg_ref):
            schema = pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("grams", pa.list_(pa.string())),
                    ("overlap", pa.int64()),
                ]
            )
            if batch.num_rows == 0 or "grams" not in batch.column_names:
                return schema.empty_table()
            ov = _overlap_counts(batch, ray.get(_ref))
            return batch.select(["doc_id", "grams"]).append_column(
                "overlap", pa.array(ov, type=pa.int64())
            )

        scored = alive.map_batches(score, batch_format="pyarrow").materialize()

        def tag(batch: pa.Table, _rnd=rnd, _center=center) -> pa.Table:
            if batch.num_rows == 0 or "doc_id" not in batch.column_names:
                return _MEMBER_SCHEMA.empty_table()
            n = batch.num_rows
            return pa.table(
                {
                    "canopy_round": pa.array(np.full(n, _rnd, dtype=np.int64)),
                    "center_id": pa.array(np.full(n, _center, dtype=np.int64)),
                    "doc_id": batch.column("doc_id"),
                    "overlap": batch.column("overlap"),
                }
            )

        member_dsets.append(
            scored.filter(expr=f"overlap >= {int(t1)}").map_batches(
                tag, batch_format="pyarrow"
            )
        )
        # lazy: next round's two consumers re-run only this filter over the
        # materialized `scored` — cheaper than a second full materialization
        # of the gram lists every round
        alive = scored.filter(
            expr=f"overlap < {int(t2)} and doc_id != {center}"
        ).drop_columns(["overlap"])
    if not member_dsets:
        return driver_dataset(_MEMBER_SCHEMA.empty_table())
    out = member_dsets[0]
    if len(member_dsets) > 1:
        out = out.union(*member_dsets[1:])
    return out
