"""Flagship record-linkage pipeline (BASELINE.json north_star):

files -> blocking (MinHash-LSH map_batches) -> candidate pairs
(`stages/pairs.block_pairs` per band block, with its skew guard) ->
cross-band dedup -> token attach (reduce-side join) -> pairwise scoring
(stateless map_batches on the warm worker pool) -> threshold -> match
edges -> connected components -> clusters.

In the small regime (not `distributed`, files x bands <=
`DRIVER_COMBINE_LIMIT`) the front is ONE pass: `front_batch` tokenizes
each file once and emits both the corpus-stats partials and the band rows,
materialized once and read by the stats merge and the driver pairing; the
match edges are filtered on the driver off the materialized scored blocks.
Above that volume, and on the forced-shuffle path, `corpus_stats` and
`build_id_pairs` run as separate passes.

Every wide step is a keyed shuffle with explicit keys (SURVEY.md §7.3);
broadcast state (IDF stats, repo prior, model) ships via `ray.put` once.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.stages.cc import connected_components
from opentapioca_ray.stages.pairs import (
    PairFeaturizer,
    PairScorerStage,
    block_pairs,
    blocking_batch,
)
from opentapioca_ray.state.linear import LinearModel
from opentapioca_ray.stages.exchange import arrow_blocks, sum_partials


# ---------------------------------------------------------------------------
# Broadcast corpus statistics
# ---------------------------------------------------------------------------

# Broadcast-state guard: the repo prior is shipped to every scorer task,
# so it keeps only this many repos (the ones with the most files).
_MAX_REPOS = 2_000_000

# idf entries kept in the broadcast (the lowest-idf ones)
_MAX_VOCAB = 500_000

_STATS_SCHEMA = pa.schema(
    [("kind", pa.int8()), ("key", pa.string()), ("count", pa.int64())]
)


def _stats_partials(batch: pa.Table, codes, vocab, counts, repo_column: str) -> pa.Table:
    """One batch's tagged partial counts over its `tokenize_codes` stream of
    the full content: kind 0 = word document frequency, kind 1 = repo file
    count (first-appearance order). A null repo is no key: its files count
    in no repo's prior, as the shuffle merge's groupby drops null keys."""
    import pyarrow.compute as pc

    from opentapioca_ray.state.bow import word_counts_from_codes

    words = word_counts_from_codes(codes, vocab, counts)
    if repo_column in batch.column_names:
        repos = pc.value_counts(pc.drop_null(batch.column(repo_column).cast(pa.string())))
        repo_keys, repo_counts = repos.field("values"), repos.field("counts")
    else:
        repo_keys, repo_counts = pa.array([], pa.string()), pa.array([], pa.int64())
    n_w, n_r = words.num_rows, len(repo_keys)
    return pa.table(
        {
            "kind": pa.array(np.repeat(np.array([0, 1], np.int8), [n_w, n_r])),
            "key": pa.concat_arrays([words.column("word").combine_chunks(), repo_keys]),
            "count": pa.concat_arrays(
                [words.column("count").combine_chunks(), repo_counts.cast(pa.int64())]
            ),
        },
        schema=_STATS_SCHEMA,
    )


def _merge_stats(tables, n_docs: int, max_vocab: int) -> tuple[dict, dict]:
    """Summed (kind, key, count) rows, one per (kind, key) as
    `sum_partials` returns them -> (idf, prior). Entries tied at the
    `max_vocab` and `_MAX_REPOS` cuts are kept by key, so the dicts never
    depend on the order the partial blocks arrive in."""
    import pyarrow.compute as pc

    tables = [t for t in tables if t.num_rows and "kind" in t.column_names]
    if not tables:
        return {}, {}
    merged = pa.concat_tables(tables)

    def sums_of(kind: int) -> dict:
        t = merged.filter(pc.equal(merged.column("kind"), kind))
        return dict(zip(t.column("key").to_pylist(), t.column("count").to_pylist()))

    word_sum, repo_sum = sums_of(0), sums_of(1)
    idf = {w: float(np.log(n_docs / (1.0 + c))) for w, c in word_sum.items()}
    if len(idf) > max_vocab:
        idf = dict(sorted(idf.items(), key=lambda kv: (kv[1], kv[0]))[:max_vocab])
    if len(repo_sum) > _MAX_REPOS:
        repo_sum = dict(
            sorted(repo_sum.items(), key=lambda kv: (-kv[1], kv[0]))[:_MAX_REPOS]
        )
    if repo_sum:
        logs = {k: float(np.log1p(v)) for k, v in repo_sum.items()}
        mx = max(logs.values()) or 1.0
        prior = {k: v / mx for k, v in logs.items()}
    else:
        prior = {}
    return idf, prior


def corpus_stats(
    files_ds,
    text_column: str = "content",
    repo_column: str = "repo",
    max_vocab: int = _MAX_VOCAB,
) -> tuple[dict, dict]:
    """One pass over files -> (idf dict, repo prior dict), the broadcast
    corpus statistics of the pair scorer.

    - idf: per token, log(N / (1 + document frequency)); beyond `max_vocab`
      tokens only the lowest-idf ones are kept (the rest score the default
      idf).
    - prior: the PageRank-style popularity prior from repo in-degree
      (north_star), log1p(file count per repo) normalized to [0, 1]. Only
      the `_MAX_REPOS` repos with the most files are kept; a missing repo
      scores the 0.0 floor in the pair features — the same OOV treatment as
      the reference's pagerank default (opentapioca/wikidatagraph.py:165-170).

    Each batch emits tagged partial counts (`_stats_partials`: kind 0 =
    word document frequency, kind 1 = repo file count), so the corpus is
    read and tokenized once and there is no separate shuffle for the prior.
    The partials are materialized and merged by `stages/exchange.py:
    sum_partials`, which picks the driver group-by or the coarse exchange
    from their row count; only the (vocabulary-bounded) sums come back to
    build the broadcast dicts (`_merge_stats`)."""
    from opentapioca_ray.functions.text import tokenize_codes

    n_docs = files_ds.count()

    def partial(batch: pa.Table) -> pa.Table:
        codes, vocab, counts = tokenize_codes(batch.column(text_column).to_pylist())
        return _stats_partials(batch, codes, vocab, counts, repo_column)

    parts = files_ds.map_batches(partial, batch_format="pyarrow").materialize()
    sums = sum_partials(parts, ["kind", "key"], _STATS_SCHEMA)
    return _merge_stats(arrow_blocks(sums), n_docs, max_vocab)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def score_pairs(pairs_ds, idf: dict, prior: dict, model: LinearModel | None):
    """Pairwise feature + score stage: stateless map_batches on the
    already-warm worker pool. The broadcast state (idf/prior/model) ships
    once via ray.put; each worker process resolves it once
    (`stages/pairs._resolve_cached`) — no actor spin-up cost."""
    import ray

    idf_ref = ray.put(idf)
    prior_ref = ray.put(prior)
    model_dict = model.to_dict() if model is not None else None

    def score_batch(batch: pa.Table) -> pa.Table:
        stage = PairScorerStage(
            idf_ref=idf_ref, repo_prior_ref=prior_ref, model_dict=model_dict
        )
        return stage(batch)

    return pairs_ds.map_batches(score_batch, batch_format="pyarrow")


def _edges_of(batch: pa.Table, threshold: float) -> pa.Table:
    import pyarrow.compute as pc

    t = batch.filter(pc.greater(batch.column("score"), threshold))
    return pa.table({"u": t.column("left_id"), "v": t.column("right_id")})


def match_edges(scored_unique_ds, threshold: float = 0.0):
    return scored_unique_ds.map_batches(
        lambda b: _edges_of(b, threshold), batch_format="pyarrow"
    )


def _driver_match_edges(scored, threshold: float):
    """`match_edges` of a MATERIALIZED scored dataset, filtered on the driver
    over its blocks (no execution) and returned as ONE `from_arrow` block."""
    import ray.data as rd

    DRIVER_COLLECTS["pairs_proportional"] += 1  # scored pairs
    edges = [
        _edges_of(t, threshold)
        for t in arrow_blocks(scored)
        if t.num_rows and "score" in t.column_names
    ]
    if not edges:
        return rd.from_arrow(
            pa.schema([("u", pa.int64()), ("v", pa.int64())]).empty_table()
        )
    return rd.from_arrow(pa.concat_tables(edges).combine_chunks())


_DRIVER_PAIRS_LIMIT = 20_000_000

# Coarse partitions of the shuffle regime's band exchange; the round-5
# scaling numbers (2.56M files, 8 vs 32 CPUs) were taken with this P.
_SHUFFLE_PAIR_PARTS = 1024


def _driver_id_pairs(tables, survivors, max_block_size: int, window: int):
    """Small-regime pair generation: each band-row table (block_key,
    file_id, sig_head) is filtered against the `survivors` key set as it is
    read (None keeps every row), and the surviving rows — a tiny fraction
    of the band rows — are held as three numpy columns and paired +
    cross-band-deduplicated vectorized on the driver, with zero shuffles.
    Same semantics (all-pairs / sorted-neighborhood skew guard /
    Max(capped) / band count) as the distributed path."""
    import pyarrow.compute as pc
    import ray.data as rd

    DRIVER_COLLECTS["pairs_proportional"] += 1  # candidate rows
    key_chunks, id_chunks, sig_chunks = [], [], []
    for t in tables:
        if t.num_rows == 0 or "block_key" not in t.column_names:
            continue
        if survivors is not None:
            t = t.filter(pc.is_in(t.column("block_key"), value_set=survivors))
        key_chunks.extend(t.column("block_key").chunks)
        id_chunks.append(t.column("file_id").to_numpy(zero_copy_only=False))
        sig_chunks.append(t.column("sig_head").to_numpy(zero_copy_only=False))
    empty = pa.schema(
        [("left_id", pa.int64()), ("right_id", pa.int64()),
         ("capped", pa.int64()), ("nb_bands", pa.int64())]
    ).empty_table()
    if not key_chunks:
        return rd.from_arrow(empty)
    keys = pa.chunked_array(key_chunks).combine_chunks().to_numpy(zero_copy_only=False)
    ids = np.concatenate(id_chunks).astype(np.int64)
    sigs = np.concatenate(sig_chunks).astype(np.uint64)
    i, j, cap = block_pairs(keys, sigs, ids, max_block_size, window)
    left, right = np.minimum(ids[i], ids[j]), np.maximum(ids[i], ids[j])
    if not len(left):
        return rd.from_arrow(empty)
    # cross-band dedupe: unique (left,right), Max(capped), Count(bands)
    pair_mat = np.stack([left, right], axis=1)
    o = np.lexsort((cap, right, left))
    pair_mat, cap = pair_mat[o], cap[o]
    new = np.concatenate(
        ([True], (pair_mat[1:] != pair_mat[:-1]).any(axis=1))
    )
    group = np.cumsum(new) - 1
    nb_bands = np.bincount(group)
    max_cap = np.maximum.reduceat(cap, np.flatnonzero(new))
    uniq = pair_mat[new]
    table = pa.table(
        {
            "left_id": pa.array(uniq[:, 0], type=pa.int64()),
            "right_id": pa.array(uniq[:, 1], type=pa.int64()),
            "capped": pa.array(max_cap, type=pa.int64()),
            "nb_bands": pa.array(nb_bands, type=pa.int64()),
        }
    )
    return rd.from_arrow(table)


def build_id_pairs(
    files_ds,
    num_perm=128,
    bands=32,
    shingle_k=3,
    max_block_size=64,
    window=8,
    mode: str = "auto",
):
    """Slim blocking + pair generation: the band shuffle moves only
    (block_key, file_id, sig_head); candidate pairs are deduplicated across
    bands BEFORE any payload is attached or scored.

    Scale-adaptive. Driver regime: the band rows are materialized in ONE
    Ray Data execution; the singleton-key count (`surviving_keys`) reads
    only their key column, and its surviving-row count decides the regime
    with no further execution. At most `_DRIVER_PAIRS_LIMIT` surviving
    rows are read back, filtered block by block, and paired vectorized on
    the driver (no shuffle). Above that, or with `mode="shuffle"`, the
    groupby(block_key) + groupby(pair) coarse shuffles run distributed.
    Both regimes pair each band block with `stages/pairs.block_pairs`."""
    from opentapioca_ray.stages.pairs import DRIVER_COMBINE_LIMIT

    blocks = files_ds.map_batches(
        lambda b: blocking_batch(
            b,
            id_column="file_id",
            text_column="content",
            repo_column=None,
            num_perm=num_perm,
            bands=bands,
            shingle_k=shingle_k,
            include_tokens=False,
            key_type="u64",
        ),
        batch_format="pyarrow",
    )
    if mode == "auto":
        # The auto decision must itself be cheap. Deciding from an exact
        # post-prefilter count pays the prefilter first — and above ITS
        # driver regime (DRIVER_COMBINE_LIMIT band rows) that is a full
        # distributed groupby(block_key) count over every band row:
        # measured 507 s at 82M band rows (2.56M files x 32 bands) vs 43 s
        # for the entire forced-shuffle job. So above that volume go
        # straight to the shuffle path with NO prefilter (the coarse pair
        # kernel drops singletons vectorized at ~zero cost — same
        # reasoning as the forced-shuffle branch below); the band-row
        # count is exact and free (blocking emits `bands` rows per file).
        if files_ds.count() * bands > DRIVER_COMBINE_LIMIT:
            mode = "shuffle"
    if mode == "shuffle":
        # Shuffle mode: NO singleton prefilter. The prefilter exists to
        # shrink a per-key exchange, but the coarse pair kernel drops
        # singleton blocks vectorized at ~zero cost — and the prefilter's
        # own count is a full groupby(block_key) sort over every band row
        # (5M distinct keys), strictly more expensive than the one
        # coarse-partition sort (P distinct keys) it would be saving.
        return _shuffle_id_pairs(blocks, max_block_size, window)
    blocks = blocks.materialize()
    return _band_pairs(list(arrow_blocks(blocks)), blocks, mode, max_block_size, window)


def _band_pairs(tables, bands_ds, mode: str, max_block_size: int, window: int):
    """Pairs of MATERIALIZED band rows: `tables` are their blocks (read on
    the driver, no execution), `bands_ds` the dataset they came from. The
    singleton-key count decides the regime: driver pairing up to
    `_DRIVER_PAIRS_LIMIT` surviving rows (or with `mode="driver"`), else a
    distributed `keep_keys` filter of `bands_ds` and the shuffle pairing."""
    from opentapioca_ray.stages.pairs import keep_keys, surviving_keys

    survivors, n_survivors = surviving_keys(tables)
    if mode == "driver" or n_survivors <= _DRIVER_PAIRS_LIMIT:
        return _driver_id_pairs(tables, survivors, max_block_size, window)
    return _shuffle_id_pairs(keep_keys(bands_ds, survivors), max_block_size, window)


def _shuffle_id_pairs(candidates, max_block_size: int, window: int):
    """Scale-path pair generation over band rows (block_key, file_id,
    sig_head): shuffle by a COARSE partition key (hash of block_key mod P)
    so each group holds many whole blocks and is paired with the same
    vectorized kernel — per-group work is O(partition), not a per-tiny-
    group pandas call (which collapses at millions of singleton-ish keys)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, coarse_groupby_agg

    def pair_partition(t: pa.Table) -> pa.Table:
        ids = t.column("file_id").to_numpy().astype(np.int64)
        i, j, cap = block_pairs(
            t.column("block_key").to_numpy(), t.column("sig_head").to_numpy(), ids,
            max_block_size, window,
        )
        return pa.table(
            {
                "left_id": np.minimum(ids[i], ids[j]),
                "right_id": np.maximum(ids[i], ids[j]),
                "capped": cap,
            }
        )

    pairs = coarse_group_apply(
        candidates, "block_key", pair_partition, n_parts=_SHUFFLE_PAIR_PARTS,
        batch_format="pyarrow",
    )
    # cross-band dedup via a SECOND coarse exchange + vectorized pandas
    # aggregate — Ray's sort-based two-key groupby().aggregate() costs 106s
    # on the same 1M pair rows this does in 1.5s (tiny numerous groups)
    return coarse_groupby_agg(
        pairs,
        ["left_id", "right_id"],
        {"capped": ("capped", "max"), "nb_bands": ("capped", "size")},
    )


# The linkage front: ONE tokenizing map over the files emits both the
# corpus-stats partials and the slim band rows, in one block schema (nulls
# where a column does not apply, empty batches included), so block types
# never depend on execution order.
_FRONT_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),  # 0 word df, 1 repo count (stats); 2 band row
        ("key", pa.string()),
        ("count", pa.int64()),
        ("block_key", pa.int64()),
        ("file_id", pa.int64()),
        ("sig_head", pa.uint64()),
    ]
)
_BAND_KIND = 2
_BAND_COLUMNS = ["block_key", "file_id", "sig_head"]


def _front_rows(t: pa.Table) -> pa.Table:
    """`t` in the front schema, null columns added."""
    return pa.table(
        [
            t.column(f.name) if f.name in t.column_names else pa.nulls(t.num_rows, f.type)
            for f in _FRONT_SCHEMA
        ],
        schema=_FRONT_SCHEMA,
    )


def front_batch(
    batch: pa.Table, num_perm: int, bands: int, shingle_k: int, with_stats: bool
) -> pa.Table:
    """The linkage front's kernel: `corpus_stats`' partials (kind 0/1, only
    `with_stats`) plus `build_id_pairs`' slim u64 band rows (kind 2) from
    ONE `tokenize_codes` pass over the full content, whose token hashes
    (each distinct token hashed once) feed the blocking. Blocking reads
    `content[:CONTENT_CAP]`, whose tokens are the full stream's unless the
    file is longer (the cut can fall mid-token): only those files are
    re-tokenized on their prefix and spliced into the hash stream."""
    from opentapioca_ray.functions.minhash import token_hashes
    from opentapioca_ray.functions.text import tokenize_codes
    from opentapioca_ray.stages.pairs import CONTENT_CAP, band_columns, gather_index

    texts = batch.column("content").to_pylist()
    codes, vocab, counts = tokenize_codes(texts)
    parts = []
    if with_stats:
        parts.append(_front_rows(_stats_partials(batch, codes, vocab, counts, "repo")))
    th = token_hashes(codes, vocab)
    long = [i for i, t in enumerate(texts) if t is not None and len(t) > CONTENT_CAP]
    if long:
        pcodes, pvocab, pcounts = tokenize_codes([texts[i][:CONTENT_CAP] for i in long])
        starts = np.cumsum(counts) - counts
        starts[long] = len(th) + np.cumsum(pcounts) - pcounts
        counts = counts.copy()
        counts[long] = pcounts
        th = np.concatenate([th, token_hashes(pcodes, pvocab)])[gather_index(starts, counts)]
    ids = batch.column("file_id").to_numpy(zero_copy_only=False)
    band = pa.table(band_columns(ids, th, counts, num_perm, bands, shingle_k))
    kind = pa.array(np.full(band.num_rows, _BAND_KIND, dtype=np.int8))
    parts.append(_front_rows(band.append_column("kind", kind)))
    return pa.concat_tables(parts)


def _front_pass(files_ds, idf, prior, num_perm, bands, shingle_k, max_block_size, window):
    """Small-regime linkage front -> (idf, prior, pairs_ds): ONE Ray Data
    execution (`front_batch` over the materialized files) feeds both the
    corpus stats (computed only for a missing `idf`/`prior`) and the
    driver pair generation, read off the same materialized blocks — the
    same outputs as `corpus_stats` + `build_id_pairs(mode="auto")` below
    `DRIVER_COMBINE_LIMIT` band rows. The stats rows, already on the
    driver, are summed by `sum_partials` (which picks its own regime and
    hands the sums back on the driver) and finished by `corpus_stats`'
    `_merge_stats`; the pairs keep `build_id_pairs`' fallback to the
    shuffle pairing above `_DRIVER_PAIRS_LIMIT` surviving rows."""
    import pyarrow.compute as pc

    with_stats = idf is None or prior is None
    front = files_ds.map_batches(
        lambda b: front_batch(b, num_perm, bands, shingle_k, with_stats),
        batch_format="pyarrow",
    ).materialize()

    stat_tables, band_tables = [], []
    for t in arrow_blocks(front):
        if t.num_rows == 0 or "kind" not in t.column_names:
            continue  # empty blocks may arrive schema-less
        stat_tables.append(
            t.filter(pc.not_equal(t.column("kind"), _BAND_KIND)).select(_STATS_SCHEMA.names)
        )
        band_tables.append(
            t.filter(pc.equal(t.column("kind"), _BAND_KIND)).select(_BAND_COLUMNS)
        )
    if with_stats:
        sums = sum_partials(stat_tables, ["kind", "key"], _STATS_SCHEMA)
        stats_idf, stats_prior = _merge_stats(sums, files_ds.count(), _MAX_VOCAB)
        idf = stats_idf if idf is None else idf
        prior = stats_prior if prior is None else prior
    pairs = _band_pairs(
        band_tables, front.select_columns(_BAND_COLUMNS), "auto", max_block_size, window
    )
    return idf, prior, pairs


_DRIVER_ATTACH_LIMIT = 200_000

# Telemetry for the scaling contract: every driver-side collect whose volume
# is proportional to #pairs / #candidate-files bumps this counter (the
# broadcast-small-side collects in corpus_stats are vocab-bounded
# and exempt). The distributed paths (mode="shuffle", i.e. what
# linkage_clusters(distributed=True) forces) must leave it untouched —
# asserted in tests/test_distributed_modes.py.
DRIVER_COLLECTS = {"pairs_proportional": 0}


def attach_pair_tokens(pairs_ds, files_ds, tokens_cap: int | None = None, mode: str = "auto"):
    """Reduce-side join: ship each candidate file's token prefix (packed as
    one \\x1f string) to its pairs via union + groupby(file_id), one pass per
    side.

    mode="driver" (small regime, <= _DRIVER_ATTACH_LIMIT pairs): candidate
    ids come to the driver once for a broadcast `is_in` prefilter and a
    vectorized dict join. mode="shuffle" (the 100 TB path): NOTHING
    proportional to #pairs touches the driver — candidate token rows are
    selected by a distributed semi-join on the slim pair-id column
    (stages/exchange.coarse_semi_join), then attached to both pair sides
    with coarse exchanges."""
    import ray
    import pyarrow.compute as pc

    from opentapioca_ray.stages.pairs import CONTENT_CAP, TOKENS_CAP, token_prefix_lists

    cap = tokens_cap or TOKENS_CAP
    pairs_ds = pairs_ds.materialize()  # small: deduped candidate pairs
    if pairs_ds.count() == 0:
        return None
    if mode == "auto":
        mode = "driver" if pairs_ds.count() <= _DRIVER_ATTACH_LIMIT else "shuffle"

    def make_token_rows(ids_ref):
        """Tokenize file contents into packed \\x1f-joined prefixes. With
        `ids_ref` (driver mode) a broadcast `is_in` prefilter keeps only
        candidate files; without (shuffle mode) every file is tokenized and
        the semi-join exchange drops non-candidates."""

        def token_rows(batch: pa.Table) -> pa.Table:
            from opentapioca_ray.functions.text import tokenize_flat

            if ids_ref is not None:
                mask = pc.is_in(batch.column("file_id"), value_set=ray.get(ids_ref))
                t = batch.filter(mask)
            else:
                t = batch
            texts = [(c or "")[:CONTENT_CAP] for c in t.column("content").to_pylist()]
            token_lists = token_prefix_lists(*tokenize_flat(texts), cap)
            return pa.table(
                {
                    "file_id": t.column("file_id"),
                    "repo": t.column("repo"),
                    "packed": pc.binary_join(token_lists, "\x1f"),
                }
            )

        return token_rows

    if mode == "driver":
        # ONE read of the deduped pairs (bounded by the mode guard) feeds
        # both the candidate-id broadcast — one vectorized np.unique over
        # the pair id columns — and the dict join below
        DRIVER_COLLECTS["pairs_proportional"] += 1
        pl_c, pr_c, pc_c, pn_c = [], [], [], []
        for t in arrow_blocks(pairs_ds):
            if t.num_rows == 0 or "left_id" not in t.column_names:
                continue
            pl_c.append(t.column("left_id").to_numpy(zero_copy_only=False))
            pr_c.append(t.column("right_id").to_numpy(zero_copy_only=False))
            pc_c.append(t.column("capped").to_numpy(zero_copy_only=False))
            pn_c.append(t.column("nb_bands").to_numpy(zero_copy_only=False))
        if not pl_c:
            return None
        pl = np.concatenate(pl_c).astype(np.int64)
        pr = np.concatenate(pr_c).astype(np.int64)
        pcap = np.concatenate(pc_c).astype(np.int64)
        pnb = np.concatenate(pn_c).astype(np.int64)
        cand_ids = np.unique(np.concatenate([pl, pr]))
        ids_ref = ray.put(pa.array(cand_ids, type=pa.int64()))
        tokens = files_ds.map_batches(make_token_rows(ids_ref), batch_format="pyarrow")
        # Small regime: tokenization stays distributed (the map above); only
        # the packed prefixes of candidate files (bounded by cand_ids x cap)
        # come to the driver for a vectorized dict join — sorted token-id
        # arrays + two searchsorted lookups over the pair columns (no
        # per-row Python) — then ship back as sliced Arrow blocks so the
        # scorer tasks parallelize.
        from opentapioca_ray.stages.exchange import driver_slices

        DRIVER_COLLECTS["pairs_proportional"] += 1  # token rows
        tid_c, trepo_c, tpack_c = [], [], []
        for t in arrow_blocks(tokens):
            if t.num_rows == 0 or "file_id" not in t.column_names:
                continue
            tid_c.append(t.column("file_id").to_numpy(zero_copy_only=False))
            trepo_c.append(t.column("repo").to_numpy(zero_copy_only=False))
            tpack_c.append(t.column("packed").to_numpy(zero_copy_only=False))
        if not tid_c:
            return None
        tids = np.concatenate(tid_c).astype(np.int64)
        o = np.argsort(tids)
        tids = tids[o]
        trepo = np.concatenate(trepo_c)[o]
        tpack = np.concatenate(tpack_c)[o]
        li = np.clip(np.searchsorted(tids, pl), 0, len(tids) - 1)
        ri = np.clip(np.searchsorted(tids, pr), 0, len(tids) - 1)
        ok = (tids[li] == pl) & (tids[ri] == pr)
        table = pa.table(
            {
                "left_id": pa.array(pl[ok], type=pa.int64()),
                "right_id": pa.array(pr[ok], type=pa.int64()),
                "capped": pa.array(pcap[ok], type=pa.int64()),
                "nb_bands": pa.array(pnb[ok], type=pa.int64()),
                "left_repo": pa.array(trepo[li[ok]], type=pa.string()),
                "left_packed": pa.array(tpack[li[ok]], type=pa.string()),
                "right_repo": pa.array(trepo[ri[ok]], type=pa.string()),
                "right_packed": pa.array(tpack[ri[ok]], type=pa.string()),
            }
        )
        return driver_slices(table)

    # Shuffle regime below — the 100 TB path. Candidate tokens are selected
    # by ONE distributed semi-join exchange: every file is tokenized in
    # place (a local map; packed prefixes are capped, so the exchanged
    # volume is O(corpus prefixes), the same order as reading the corpus
    # once), the slim pair-id column (int64s) is unioned in as key rows,
    # and each hash(file_id) % P partition keeps only files present in some
    # pair. No driver collect anywhere on this path. The surviving token
    # set feeds BOTH side-attaches — materialize once, and collapse the
    # blocks >> rows regime (the filtered candidate tokens inherit the
    # corpus's block count; Ray's sort groupby pays per-block task
    # overhead) before the exchanges.
    from opentapioca_ray.stages.exchange import coarse_semi_join, right_size

    key_schema = pa.schema([("file_id", pa.int64())])

    def pair_id_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "left_id" not in batch.column_names:
            return key_schema.empty_table()
        left = batch.select(["left_id"]).rename_columns(["file_id"])
        right = batch.select(["right_id"]).rename_columns(["file_id"])
        return pa.concat_tables([left, right]).cast(key_schema)

    token_schema = pa.schema(
        [("file_id", pa.int64()), ("repo", pa.string()), ("packed", pa.string())]
    )
    tokens = coarse_semi_join(
        files_ds.map_batches(make_token_rows(None), batch_format="pyarrow"),
        "file_id",
        pairs_ds.map_batches(pair_id_rows, batch_format="pyarrow"),
        schema=token_schema,
    )
    tokens = right_size(tokens.materialize())
    pairs_ds = right_size(pairs_ds)

    def _attach(side_pairs_ds, key: str, prefix: str, carry: list[tuple[str, pa.DataType]]):
        """union(pair rows keyed by `key`, token rows) -> ONE coarse-
        partition exchange on hash(file_id) % P -> pair rows +
        {prefix}_repo/{prefix}_packed. The partition kernel joins ALL its
        files with one sorted-array searchsorted pass — not per-file groups
        (per-group overhead collapses at millions of candidate files)."""
        carry_names = [c for c, _ in carry]
        union_schema = pa.schema(
            [("file_id", pa.int64()), ("is_token", pa.bool_()),
             ("repo", pa.string()), ("packed", pa.string()), *carry]
        )

        def pair_rows(batch: pa.Table) -> pa.Table:
            if "left_id" not in batch.column_names:
                return union_schema.empty_table()
            n = batch.num_rows
            cols = {
                "file_id": batch.column(key).cast(pa.int64()),
                "is_token": pa.array([False] * n, type=pa.bool_()),
                "repo": pa.array([""] * n, type=pa.string()),
                "packed": pa.array([""] * n, type=pa.string()),
            }
            for c, typ in carry:
                cols[c] = batch.column(c).cast(typ)
            return pa.table(cols).cast(union_schema)

        def tok_rows(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {
                "file_id": batch.column("file_id").cast(pa.int64()),
                "is_token": pa.array([True] * n, type=pa.bool_()),
                "repo": batch.column("repo"),
                "packed": batch.column("packed"),
            }
            for c, typ in carry:
                cols[c] = pa.nulls(n, type=typ)
            return pa.table(cols).cast(union_schema)

        unioned = side_pairs_ds.map_batches(pair_rows, batch_format="pyarrow").union(
            tokens.map_batches(tok_rows, batch_format="pyarrow")
        )
        out_schema = pa.schema(
            [*carry, (f"{prefix}_repo", pa.string()), (f"{prefix}_packed", pa.string())]
        )

        def attach_partition(df: pd.DataFrame) -> pd.DataFrame:
            tok = df[df["is_token"]]
            mem = df[~df["is_token"]]
            if tok.empty or mem.empty:
                return out_schema.empty_table().to_pandas()
            tk = tok["file_id"].to_numpy(dtype=np.int64)
            o = np.argsort(tk)
            tk = tk[o]
            trepo = tok["repo"].to_numpy()[o]
            tpack = tok["packed"].to_numpy()[o]
            mk = mem["file_id"].to_numpy(dtype=np.int64)
            idx = np.clip(np.searchsorted(tk, mk), 0, len(tk) - 1)
            ok = tk[idx] == mk
            out = mem.loc[ok, carry_names].reset_index(drop=True)
            # token rows carry nulls in the pair columns, so pandas widened
            # the ints to float64 across the union — restore the schema dtype
            for c, typ in carry:
                if pa.types.is_integer(typ):
                    out[c] = out[c].astype(np.int64)
            out[f"{prefix}_repo"] = trepo[idx[ok]]
            out[f"{prefix}_packed"] = tpack[idx[ok]]
            return out

        from opentapioca_ray.stages.exchange import coarse_group_apply

        return coarse_group_apply(unioned, "file_id", attach_partition)

    base_carry = [
        ("left_id", pa.int64()),
        ("right_id", pa.int64()),
        ("capped", pa.int64()),
        ("nb_bands", pa.int64()),
    ]
    with_left = right_size(_attach(pairs_ds, "left_id", "left", base_carry).materialize())
    return _attach(
        with_left,
        "right_id",
        "right",
        base_carry + [("left_repo", pa.string()), ("left_packed", pa.string())],
    )


def linkage_clusters(
    files_ds,
    model: LinearModel | None = None,
    idf: dict | None = None,
    prior: dict | None = None,
    threshold: float = 0.0,
    num_perm: int = 128,
    bands: int = 32,
    shingle_k: int = 3,
    max_block_size: int = 64,
    window: int = 8,
    distributed: bool = False,
):
    """Full pipeline -> (clusters_ds (node, component), scored_pairs_ds).

    Small regime (`distributed=False` and files x bands <=
    `DRIVER_COMBINE_LIMIT`, where `build_id_pairs` pairs on the driver):
    ONE front pass (`_front_pass`) tokenizes each file once and yields both
    the corpus stats and the candidate pairs, and the match edges are
    filtered on the driver straight off the materialized scored blocks
    when attach took its driver regime. With a collect of the clusters
    that is 4 Ray Data executions: the front, attach's token rows, the
    scored pairs and the caller's collect. Above that volume the stats and
    the pairs run as `corpus_stats` + `build_id_pairs` passes.

    `distributed=True` forces every VOLUME-carrying stage (blocking, pair
    generation, token attach, match edges) onto its distributed/shuffle
    implementation — no driver-side small-regime shortcuts on anything that
    scales with the input; the configuration the scaling benchmark
    measures. Two stages keep their own scale-adaptive choice even here,
    because their input is already reduced: the corpus stats merge
    (`sum_partials` over per-batch combined partials, vocabulary-bounded
    and exempt from `DRIVER_COLLECTS`) switches to its exchange by itself
    above `_SUM_DRIVER_LIMIT` partial rows, and connected components runs
    on the derived MATCH-EDGE set (a tiny fraction of the corpus by
    construction), so a multi-node 100TB run takes the same vectorized
    driver-side labelling below `local_threshold` edges. Both exchange
    regimes are equivalence-tested separately (tests/test_cc.py with
    local_threshold=0; the stats merge with `_SUM_DRIVER_LIMIT`
    monkeypatched to 0).

    The band shuffle ships ids only: pairs are deduplicated across bands
    first, then token payloads are attached to the surviving pairs by a
    reduce-side join and each pair is scored exactly once, so shuffle
    bytes do not grow with content width.
    """
    import ray.data as rd

    from opentapioca_ray.stages.pairs import DRIVER_COMBINE_LIMIT

    files_ds = files_ds.materialize()  # consumed by the front and the tokens
    mode = "shuffle" if distributed else "auto"
    if not distributed and files_ds.count() * bands <= DRIVER_COMBINE_LIMIT:
        idf, prior, pairs = _front_pass(
            files_ds, idf, prior, num_perm, bands, shingle_k, max_block_size, window
        )
    else:
        if idf is None or prior is None:
            stats_idf, stats_prior = corpus_stats(files_ds)
            idf = stats_idf if idf is None else idf
            prior = stats_prior if prior is None else prior
        pairs = build_id_pairs(
            files_ds, num_perm, bands, shingle_k, max_block_size, window, mode=mode
        )
    enriched = attach_pair_tokens(pairs, files_ds, mode=mode)
    if enriched is None:  # no candidate pairs at all
        empty_sc = pa.schema(
            [("left_id", pa.int64()), ("right_id", pa.int64()), ("score", pa.float64())]
        ).empty_table()
        empty_cl = pa.schema(
            [("node", pa.int64()), ("component", pa.int64())]
        ).empty_table()
        return rd.from_arrow(empty_cl), rd.from_arrow(empty_sc)
    scored = score_pairs(enriched, idf, prior, model)
    # scored is consumed at least twice (match-edge derivation here, and
    # callers re-read it: F1 eval, the oracle's match-edge dump); left lazy,
    # each consumer re-runs the whole blocking+scoring pipeline
    scored = scored.materialize()
    if not distributed and scored.count() <= _DRIVER_ATTACH_LIMIT:
        edges = _driver_match_edges(scored, threshold)  # attach's driver regime
    else:
        edges = match_edges(scored, threshold)
    clusters = connected_components(edges)
    return clusters, scored


def linkage_checkpointed(
    sf_dir: str,
    out_root: str,
    model: LinearModel | None = None,
    threshold: float = 0.0,
    replicate: int = 1,
    **kwargs,
):
    """Stage-by-stage checkpointed run (north rule: every stage to Parquet
    with per-partition lineage + metrics; a re-run skips stages whose
    manifest is complete and fingerprint-matches its params + upstreams).

    Stages: files -> pairs -> scored -> clusters. Returns
    (clusters_ds, checkpoint) — `checkpoint.metrics()` is the per-stage
    lineage/row-count roll-up."""
    from opentapioca_ray.checkpoint import StageCheckpoint
    from opentapioca_ray.sources.files import read_files

    ckpt = StageCheckpoint(out_root)
    # the input's size and mtime are fingerprinted too: a documents.parquet
    # rewritten at the same path rebuilds every stage
    st = os.stat(f"{sf_dir}/documents.parquet")
    base_params = {
        "sf_dir": sf_dir,
        "replicate": replicate,
        "documents": {"size": st.st_size, "mtime_ns": st.st_mtime_ns},
    }

    files = ckpt.run("files", base_params, [], lambda: read_files(sf_dir, replicate))
    files = files.materialize()

    idf, prior = corpus_stats(files)

    # fingerprint EVERY param build_id_pairs consumes (max_block_size and
    # window change the emitted pair set too) so a re-run with different
    # values invalidates the stage instead of reusing a stale checkpoint
    _PAIR_KEYS = ("num_perm", "bands", "shingle_k", "max_block_size", "window", "mode")
    pair_kwargs = {k: kwargs[k] for k in _PAIR_KEYS if k in kwargs}
    pair_params = {**base_params, **pair_kwargs}
    pairs = ckpt.run(
        "pairs", pair_params, ["files"],
        lambda: build_id_pairs(files, **pair_kwargs),
    )

    def build_scored():
        enriched = attach_pair_tokens(pairs, files)
        if enriched is None:
            return _empty_scored()
        return score_pairs(enriched, idf, prior, model)

    def _empty_scored():
        import ray.data as rd

        return rd.from_arrow(
            pa.schema(
                [("left_id", pa.int64()), ("right_id", pa.int64()),
                 ("score", pa.float64())]
            ).empty_table()
        )

    score_params = {**base_params, "model": model.to_dict() if model else None}
    scored = ckpt.run("scored", score_params, ["pairs"], build_scored)

    cluster_params = {**base_params, "threshold": threshold}
    clusters = ckpt.run(
        "clusters",
        cluster_params,
        ["scored"],
        lambda: connected_components(match_edges(scored, threshold)),
    )
    return clusters, ckpt


# ---------------------------------------------------------------------------
# Training on labeled pairs
# ---------------------------------------------------------------------------

def featurize_labeled_pairs(
    files_df: pd.DataFrame, labeled: pd.DataFrame, idf: dict, prior: dict
) -> tuple[np.ndarray, np.ndarray]:
    """Driver-side design matrix for the (small) labeled-pairs corpus."""
    from opentapioca_ray.functions.text import tokenize
    from opentapioca_ray.stages.pairs import CONTENT_CAP, TOKENS_CAP

    feat = PairFeaturizer(idf, prior)
    by_id = files_df.set_index("file_id")
    X, y = [], []
    for r in labeled.itertuples():
        left = by_id.loc[r.left_id]
        right = by_id.loc[r.right_id]
        row = {
            "left_tokens": tokenize(str(left["content"])[:CONTENT_CAP])[:TOKENS_CAP],
            "right_tokens": tokenize(str(right["content"])[:CONTENT_CAP])[:TOKENS_CAP],
            "left_repo": left["repo"],
            "right_repo": right["repo"],
        }
        X.append(feat.features(row))
        y.append(int(r.is_match))
    return np.asarray(X), np.asarray(y)


def train_linkage_model(
    files_df: pd.DataFrame,
    labeled: pd.DataFrame,
    idf: dict,
    prior: dict,
    C: float = 1.0,
    max_iter: int = 300,
) -> LinearModel:
    X, y = featurize_labeled_pairs(files_df, labeled, idf, prior)
    return LinearModel(C=C, max_iter=max_iter).fit(X, y)


def train_linkage_model_ds(
    files_ds,
    labeled: pd.DataFrame,
    idf: dict,
    prior: dict,
    C: float = 1.0,
    max_iter: int = 300,
) -> LinearModel:
    """`train_linkage_model` over a Dataset WITHOUT collecting the corpus
    (round-5 verdict item 4): the labeled pairs reference at most
    2×|labeled| file ids, so broadcast that id set into a distributed
    filter and collect only the referenced rows — the driver never holds
    more than the labeled corpus's own files, however big `files_ds` is."""
    import pyarrow.compute as pc

    needed = set(labeled["left_id"].astype(str)) | set(
        labeled["right_id"].astype(str)
    )
    id_set = pa.array(sorted(needed), type=pa.string())

    def keep_labeled(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "file_id" not in batch.column_names:
            return batch
        return batch.filter(
            pc.is_in(batch.column("file_id").cast(pa.string()), value_set=id_set)
        )

    files_df = files_ds.map_batches(
        keep_labeled, batch_format="pyarrow"
    ).to_pandas()
    return train_linkage_model(
        files_df, labeled, idf, prior, C=C, max_iter=max_iter
    )
