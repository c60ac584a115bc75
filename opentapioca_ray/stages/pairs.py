"""Blocking, candidate-pair generation and pairwise scoring.

The graft's wide self-join (BASELINE.json north_star; SURVEY.md J7/ST6):

1. `blocking_batch` (stateless `map_batches`, zero-copy Arrow): per file,
   normalize content -> token shingles -> MinHash signature -> LSH band
   keys; emits one row per (block_key, file) carrying the signature head
   and, unless the slim path asks otherwise, a bounded token prefix — NOT
   the full content, so the block shuffle moves O(tokens_cap) bytes per
   row however large the file is.
2. `block_pairs`: the one within-block pair enumerator every blocked
   self-join in this repo calls (linkage, MinHash/SimHash/embedding dedup,
   key blocking, fuzzy name matching), over all blocks of a coarse
   partition at once. Skew guard: an oversized block switches to a
   sorted-neighborhood window (pair each member with the next W in the
   caller's order) instead of the quadratic all-pairs — bounded work per
   block, dropped-pair counts are reported as `capped`, never silent.
3. `PairScorerStage` (a `map_batches` callable): holds the broadcast IDF
   statistics, repo popularity prior and linear model; computes the
   reference-shaped pairwise features (TF-IDF cosine, token Jaccard,
   n-gram Jaccard, bounded edit distance, popularity prior — feature
   semantics after opentapioca/classifier.py:41-47) and scores them.

Pairs emitted by several bands are deduplicated downstream (see
pipelines/linkage.py:build_id_pairs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.functions.minhash import band_keys
from opentapioca_ray.stages.exchange import arrow_blocks, segment_starts

TOKENS_CAP = 128  # token prefix carried through the block shuffle
CONTENT_CAP = 10_000  # characters of content that blocking and token prefixes read


def gather_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the segments `[starts[i], starts[i] + lengths[i])`,
    concatenated in order — one vectorized pass, no per-segment loop."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])


def token_prefix_lists(flat_tokens: np.ndarray, counts: np.ndarray, cap: int) -> pa.ListArray:
    """Per-doc token prefixes, at most `cap` tokens each, as ONE Arrow list
    array over a `tokenize_flat` stream."""
    capped = np.minimum(counts, cap)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(capped, out=offsets[1:])
    take_idx = gather_index(np.cumsum(counts) - counts, capped)
    return pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()),
        pa.array(flat_tokens[take_idx], type=pa.string()),
    )


def band_columns(
    ids: np.ndarray,
    th: np.ndarray,
    counts: np.ndarray,
    num_perm: int,
    bands: int,
    shingle_k: int,
    key_type: str = "u64",
) -> dict:
    """The MinHash-LSH band rows of already-tokenized docs, from their
    token-hash stream `th` (`counts[i]` hashes per doc,
    `functions/minhash.token_hashes`): token shingles -> MinHash signature
    -> `bands` keys per doc, file-major. Returns the columns block_key,
    file_id and sig_head (the signature's first value, the within-block
    order of `block_pairs`)."""
    from opentapioca_ray.functions.minhash import (
        band_keys_u64_batch,
        minhash_stream,
        shingle_stream,
    )

    sigs = minhash_stream(*shingle_stream(th, counts, shingle_k), num_perm)
    if key_type == "u64":
        key_arr = pa.array(
            band_keys_u64_batch(sigs, bands).reshape(-1), type=pa.int64()
        )
    else:
        key_arr = pa.array(
            [k for i in range(len(ids)) for k in band_keys(sigs[i], bands)],
            type=pa.string(),
        )
    return {
        "block_key": key_arr,
        "file_id": pa.array(
            np.repeat(np.asarray(ids, dtype=np.int64), bands), type=pa.int64()
        ),
        "sig_head": pa.array(np.repeat(sigs[:, 0], bands), type=pa.uint64()),
    }


def blocking_batch(
    batch: pa.Table,
    id_column: str = "file_id",
    text_column: str = "content",
    repo_column: str | None = "repo",
    num_perm: int = 128,
    bands: int = 16,
    shingle_k: int = 3,
    include_tokens: bool = True,
    key_type: str = "str",
) -> pa.Table:
    """files batch -> (block_key, file_id[, repo], sig_head[, tokens]) rows.

    The first `CONTENT_CAP` characters of each file are tokenized once
    (`tokenize_codes`) and their token hashes feed `band_columns`. The
    `repo` column is emitted only when `repo_column` is set ("" for a batch
    without that column). `include_tokens=False` is the slim/scale path:
    the block shuffle then moves only (key, id, sig) per row — O(bytes) per
    band instead of O(TOKENS_CAP); token payloads are attached to the (far
    fewer) surviving candidate pairs afterwards (pipelines/linkage.py)."""
    from opentapioca_ray.functions.minhash import token_hashes
    from opentapioca_ray.functions.text import tokenize_codes

    ids = batch.column(id_column).to_pylist()
    texts = batch.column(text_column).to_pylist()
    codes, vocab, counts = tokenize_codes([(text or "")[:CONTENT_CAP] for text in texts])
    n = len(ids)
    out = pa.table(
        band_columns(
            ids, token_hashes(codes, vocab), counts, num_perm, bands, shingle_k, key_type
        )
    )
    if repo_column:
        repos = (
            batch.column(repo_column).to_pylist()
            if repo_column in batch.column_names
            else [""] * n
        )
        out = out.add_column(
            2, "repo", pa.array(np.repeat(np.asarray(repos, dtype=object), bands))
        )
    if include_tokens:
        # per-doc token prefix as ONE Arrow list array (no per-band Python
        # sublists), band-replicated with a C-level take
        per_doc = token_prefix_lists(vocab[codes], counts, TOKENS_CAP)
        out = out.append_column(
            "tokens", per_doc.take(pa.array(np.repeat(np.arange(n), bands)))
        )
    return out


# Arrow-native value_counts handles tens of millions of keys in seconds on
# the driver; beyond this the distributed groupby-count path takes over.
DRIVER_COMBINE_LIMIT = 50_000_000


def prefilter_singleton_blocks(
    blocks_ds,
    min_size: int = 2,
    max_size: int | None = None,
):
    """Drop blocks that cannot produce pairs BEFORE the wide group-by.

    `groupby(block_key).map_groups` pays per-group Python overhead; with LSH
    banding the overwhelming majority of block keys are singletons, so this
    count + broadcast-set semi-join typically removes >90% of rows from the
    expensive shuffle. Scale-adaptive counting:

    - driver (up to `DRIVER_COMBINE_LIMIT` rows): the key column alone (a
      few bytes/row) is collected and counted with one vectorized
      `np.unique` — no shuffle at all. Bounded by the block-row count, NOT
      content size.
    - shuffle (above it): combiner-first per-batch Arrow counts merged
      by ONE coarse exchange, then a distributed `coarse_semi_join` of the
      block rows against the surviving keys — nothing proportional to the
      key space ever touches the driver, and no Ray sort-based groupby
      runs over the raw band rows (the round-3 version's
      `groupby(block_key).count()` + driver key-set collect measured 507 s
      at 82M band rows where this shape runs in coarse-exchange time)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.relational import broadcast_semi_join, coarse_semi_join

    blocks_ds = blocks_ds.materialize()  # consumed twice: count + filter
    if blocks_ds.count() <= DRIVER_COMBINE_LIMIT:
        survivors, _ = surviving_keys(
            arrow_blocks(blocks_ds.select_columns(["block_key"])), min_size, max_size
        )
        if survivors is None:
            return blocks_ds
        return broadcast_semi_join(blocks_ds, survivors, "block_key")

    counts = partial_sum_count(
        blocks_ds.select_columns(["block_key"]),
        "block_key",
        [],
        alias={"count": "n"},
    )

    def good_keys(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "block_key" not in batch.column_names:
            return pa.schema([("block_key", pa.int64())]).empty_table()
        mask = pc.greater_equal(batch.column("n"), min_size)
        if max_size is not None:
            mask = pc.and_(mask, pc.less_equal(batch.column("n"), max_size))
        return batch.filter(mask).select(["block_key"])

    sch = blocks_ds.schema()
    arrow_schema = getattr(sch, "base_schema", None)
    if not isinstance(arrow_schema, pa.Schema):
        arrow_schema = pa.schema(list(zip(sch.names, sch.types)))
    return coarse_semi_join(
        blocks_ds,
        "block_key",
        counts.map_batches(good_keys, batch_format="pyarrow"),
        schema=arrow_schema,
    )


def surviving_keys(tables, min_size: int = 2, max_size: int | None = None):
    """Counting kernel of the singleton prefilter, on the driver: tables
    carrying a `block_key` column -> (the keys occurring between
    `min_size` and `max_size` times, the number of rows that carry them),
    or (None, 0) when no table has rows. Only the key column is kept, so
    memory is bounded by the row count, NOT content size."""
    chunks = []
    for t in tables:
        if t.num_rows == 0 or "block_key" not in t.column_names:
            continue
        chunks.extend(t.column("block_key").chunks)
    if not chunks:
        return None, 0
    key_arr = pa.chunked_array(chunks).combine_chunks()
    if pa.types.is_string(key_arr.type) or pa.types.is_large_string(key_arr.type):
        # string keys: dictionary-encode once, count int codes
        enc = key_arr.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        counts = np.bincount(codes, minlength=len(enc.dictionary))
        sel = counts >= min_size
        if max_size is not None:
            sel &= counts <= max_size
        survivors = enc.dictionary.filter(pa.array(sel))
    else:
        # fixed-width keys: avoid a full 64-bit sort. Two-pass exact
        # count: (1) bincount over 2^26 folded buckets eliminates the
        # overwhelmingly-singleton majority (false positives from bucket
        # collisions survive to pass 2, never false negatives); (2)
        # exact np.unique over the small surviving subset.
        vals = key_arr.to_numpy(zero_copy_only=False)
        if len(vals) > 4_000_000:
            nbuck = 1 << 26
            buckets = (vals & (nbuck - 1)).astype(np.int64)
            bc = np.bincount(buckets, minlength=nbuck)
            maybe = vals[bc[buckets] >= min_size]
            del bc, buckets
        else:
            maybe = vals
        uniq, counts = np.unique(maybe, return_counts=True)
        sel = counts >= min_size
        if max_size is not None:
            sel &= counts <= max_size
        survivors = pa.array(uniq[sel], type=key_arr.type)
    return survivors, int(counts[sel].sum())


def block_pairs(keys, order, ids, max_block_size: int | None, window: int):
    """The repo's one within-block pair enumerator, over MANY blocks at once.

    `keys` (int or string; encoded here) names each row's block, `order` is
    the within-block order (a stable sort: ties keep input order) and `ids`
    the int64 row ids. A repeated id in a block keeps its first row in
    `order`. A block of n distinct ids yields all n(n-1)/2 pairs when
    `max_block_size` is None or n <= `max_block_size`; a larger block is the
    skew guard: each row pairs with the next `window` rows in `order`
    (sorted neighbourhood), so a hot block costs O(n * window), not O(n^2).

    Returns `(i, j, capped)`: row indices into the caller's arrays, i before
    j in block order, and per pair its block's dropped-pair count
    n(n-1)/2 - emitted. Callers gather their own payloads by index.
    Size-2 blocks (the overwhelming majority under LSH banding) are paired
    fully vectorized; larger blocks loop."""
    keys = np.asarray(keys)
    if keys.dtype.kind in "OUS":
        _, keys = np.unique(keys, return_inverse=True)
    ids = np.asarray(ids, dtype=np.int64)
    perm = np.lexsort((order, keys))
    keys, sids = keys[perm], ids[perm]
    starts = segment_starts(keys)
    ends = np.append(starts[1:], len(keys))
    sizes = ends - starts
    lefts, rights, caps = [], [], []
    s2 = starts[sizes == 2]
    # a 2-row block yields its one pair unless it is windowed with window 0
    if len(s2) and (max_block_size is None or max_block_size >= 2 or window >= 1):
        s2 = s2[sids[s2] != sids[s2 + 1]]
        lefts.append(perm[s2])
        rights.append(perm[s2 + 1])
        caps.append(np.zeros(len(s2), dtype=np.int64))
    for s, e in zip(starts[sizes > 2], ends[sizes > 2]):
        _, first_pos = np.unique(sids[s:e], return_index=True)
        rows = perm[s + np.sort(first_pos)]
        n = len(rows)
        if n < 2:
            continue
        if max_block_size is None or n <= max_block_size:
            iu, ju = np.triu_indices(n, k=1)
            capped = 0
        else:
            iu = np.repeat(np.arange(n), window)
            ju = iu + np.tile(np.arange(1, window + 1), n)
            keep = ju < n
            iu, ju = iu[keep], ju[keep]
            capped = n * (n - 1) // 2 - len(iu)
        lefts.append(rows[iu])
        rights.append(rows[ju])
        caps.append(np.full(len(iu), capped, dtype=np.int64))
    if not lefts:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    return np.concatenate(lefts), np.concatenate(rights), np.concatenate(caps)


# ---------------------------------------------------------------------------
# Pairwise features + scoring
# ---------------------------------------------------------------------------

FEATURE_NAMES = [
    "tfidf_cosine",
    "token_jaccard",
    "ngram_jaccard",
    "edit_similarity",
    "popularity_prior",
]


def edit_similarity_batch(
    codes_a: np.ndarray,
    lens_a: np.ndarray,
    codes_b: np.ndarray,
    lens_b: np.ndarray,
    cap: int = 48,
) -> np.ndarray:
    """Token-level Levenshtein similarity of n pairs of int-code sequences
    (pair i: the next `lens_a[i]` codes of `codes_a` against the next
    `lens_b[i]` of `codes_b`), each cut to its first `cap` tokens and
    normalized to [0, 1] (1 = identical, two empty sides included).

    ONE DP over all pairs: row i of every pair's table is computed at once
    over an (n, max_lb + 1) matrix, the substitution/insertion terms
    elementwise and the left-to-right deletion dependency by the prefix-min
    identity cur[j] = min_k<=j (m[k] + (j - k)) (`minimum.accumulate`).
    A table cell depends only on cells above and to its left, so each
    pair reads its distance at its own (la, lb) whatever the other pairs'
    lengths: max_la numpy row steps for the batch instead of la per pair."""
    lens_a = np.asarray(lens_a, dtype=np.int64)
    lens_b = np.asarray(lens_b, dtype=np.int64)
    n = len(lens_a)
    la, lb = np.minimum(lens_a, cap), np.minimum(lens_b, cap)

    def padded(codes, lens, cut):
        # first `cut[i]` codes of each pair's segment, -1 beyond
        out = np.full((n, int(cut.max(initial=0))), -1, dtype=np.int64)
        starts = np.cumsum(lens) - lens
        src = gather_index(starts, cut)
        out[np.repeat(np.arange(n), cut), src - np.repeat(starts, cut)] = np.asarray(codes)[src]
        return out

    A, B = padded(codes_a, lens_a, la), padded(codes_b, lens_b, lb)
    idx = np.arange(B.shape[1] + 1, dtype=np.int64)
    prev = np.broadcast_to(idx, (n, len(idx))).copy()
    dist = lb.copy()  # la == 0: the distance is lb
    m = np.empty_like(prev)
    for i in range(1, int(la.max(initial=0)) + 1):
        cost = (B != A[:, i - 1 : i]).astype(np.int64)
        m[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=m[:, 1:])
        prev = np.minimum.accumulate(m - idx, axis=1) + idx
        done = np.flatnonzero(la == i)
        dist[done] = prev[done, lb[done]]
    longest = np.maximum(la, lb)
    return np.where(longest > 0, 1.0 - dist / np.maximum(longest, 1), 1.0)


def bounded_edit_distance(a: list[str], b: list[str], cap: int = 48) -> float:
    """One pair of token lists through `edit_similarity_batch` (encoding
    preserves equality, which is all Levenshtein sees)."""
    codes: dict[str, int] = {}
    an = np.array([codes.setdefault(t, len(codes)) for t in a[:cap]], dtype=np.int64)
    bn = np.array([codes.setdefault(t, len(codes)) for t in b[:cap]], dtype=np.int64)
    return float(edit_similarity_batch(an, [len(an)], bn, [len(bn)], cap)[0])


class PairFeaturizer:
    """Computes the pairwise feature vector given broadcast corpus stats."""

    def __init__(self, idf: dict[str, float], repo_prior: dict[str, float]):
        self.idf = idf
        self.repo_prior = repo_prior
        self.default_idf = max(idf.values()) if idf else 1.0

    def tfidf_cosine(self, tokens_a: list[str], tokens_b: list[str]) -> float:
        if not tokens_a or not tokens_b:
            return 0.0
        va: dict[str, float] = {}
        vb: dict[str, float] = {}
        for t in tokens_a:
            va[t] = va.get(t, 0.0) + 1.0
        for t in tokens_b:
            vb[t] = vb.get(t, 0.0) + 1.0
        for v in (va, vb):
            for t in v:
                v[t] *= self.idf.get(t, self.default_idf)
        dot = sum(w * vb.get(t, 0.0) for t, w in va.items())
        na = np.sqrt(sum(w * w for w in va.values()))
        nb = np.sqrt(sum(w * w for w in vb.values()))
        return float(dot / (na * nb)) if na and nb else 0.0

    # ------------------------------------------------------------------
    # batch-vectorized featurization (the hot path: PairScorerStage)
    # ------------------------------------------------------------------

    @staticmethod
    def _distinct(pid: np.ndarray, code: np.ndarray):
        """(pair_id, code) rows -> per-pair distinct (pid, code, count)."""
        o = np.lexsort((code, pid))
        p, c = pid[o], code[o]
        if len(p) == 0:
            return p, c, np.zeros(0, dtype=np.int64)
        new = np.concatenate(([True], (p[1:] != p[:-1]) | (c[1:] != c[:-1])))
        cnt = np.diff(np.append(np.flatnonzero(new), len(p)))
        return p[new], c[new], cnt.astype(np.int64)

    @staticmethod
    def _jaccard_and_dot(pA, cA, wA, pB, cB, wB, n):
        """Set Jaccard + weighted dot product per pair over distinct
        (pid, code) rows of both sides, via one concat + lexsort pass:
        duplicate (pid, code) runs are exactly the per-pair intersections
        (each side is distinct within a pair)."""
        sizeA = np.bincount(pA, minlength=n).astype(np.float64)
        sizeB = np.bincount(pB, minlength=n).astype(np.float64)
        pp = np.concatenate([pA, pB])
        cc = np.concatenate([cA, cB])
        ww = np.concatenate([wA, wB])
        o = np.lexsort((cc, pp))
        p2, c2, w2 = pp[o], cc[o], ww[o]
        if len(p2) > 1:
            dup = (p2[1:] == p2[:-1]) & (c2[1:] == c2[:-1])
            inter = np.bincount(p2[1:][dup], minlength=n).astype(np.float64)
            dot = np.bincount(
                p2[1:][dup], weights=w2[1:][dup] * w2[:-1][dup], minlength=n
            )
        else:
            inter = np.zeros(n)
            dot = np.zeros(n)
        union = sizeA + sizeB - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1.0), 1.0)
        return jac, dot, sizeA, sizeB

    @staticmethod
    def _bigram_rows(pid: np.ndarray, code: np.ndarray, n: int, vocab_size: int):
        """Distinct bigram codes per pair from the flat token-code stream."""
        lens = np.bincount(pid, minlength=n)
        if len(code) == 0:
            return pid[:0], code[:0]
        ends = np.cumsum(lens)[lens > 0] - 1  # last token of each row
        keep = np.ones(len(code), dtype=bool)
        keep[ends] = False
        j = np.flatnonzero(keep)
        return pid[j], code[j] * np.int64(vocab_size) + code[j + 1]

    def features_batch(
        self, left_lists, right_lists, left_repos, right_repos
    ) -> np.ndarray:
        """Feature matrix (n, 5) for a batch of pairs. Tokens are
        dictionary-encoded ONCE per batch; Jaccard/TF-IDF-cosine/bigram run
        as segment-vectorized numpy over the int codes, and the edit DP as
        one `edit_similarity_batch` over all pairs."""
        import pyarrow.compute as pc

        n = len(left_repos)
        if n == 0:
            return np.zeros((0, len(FEATURE_NAMES)))

        def parts(col):
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
            flat = pc.list_flatten(col)
            if isinstance(flat, pa.ChunkedArray):
                flat = flat.combine_chunks()
            return np.nan_to_num(lens.astype(np.float64)).astype(np.int64), flat

        lenA, flatA = parts(left_lists)
        lenB, flatB = parts(right_lists)
        enc = pa.concat_arrays([flatA, flatB]).dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary.to_pylist()
        nA = int(lenA.sum())
        codesA, codesB = codes[:nA], codes[nA:]
        pidA = np.repeat(np.arange(n, dtype=np.int64), lenA)
        pidB = np.repeat(np.arange(n, dtype=np.int64), lenB)
        # "" tokens are split artifacts of empty packed strings — drop them
        # (the tokenizer never emits empties)
        try:
            empty_code = vocab.index("")
        except ValueError:
            empty_code = -1
        if empty_code >= 0:
            mA = codesA != empty_code
            mB = codesB != empty_code
            codesA, pidA = codesA[mA], pidA[mA]
            codesB, pidB = codesB[mB], pidB[mB]

        idf_get = self.idf.get
        default = self.default_idf
        idf_arr = np.fromiter(
            (idf_get(w, default) for w in vocab), dtype=np.float64, count=len(vocab)
        )

        pA, cA, ctA = self._distinct(pidA, codesA)
        pB, cB, ctB = self._distinct(pidB, codesB)
        wA = ctA * idf_arr[cA]
        wB = ctB * idf_arr[cB]
        tok_jac, dot, _, _ = self._jaccard_and_dot(pA, cA, wA, pB, cB, wB, n)
        naq = np.bincount(pA, weights=wA * wA, minlength=n)
        nbq = np.bincount(pB, weights=wB * wB, minlength=n)
        denom = np.sqrt(naq) * np.sqrt(nbq)
        cos = np.where(denom > 0, dot / np.maximum(denom, 1e-300), 0.0)

        V = len(vocab) + 1
        bpA, bcA = self._bigram_rows(pidA, codesA, n, V)
        bpB, bcB = self._bigram_rows(pidB, codesB, n, V)
        dpA, dcA, _ = self._distinct(bpA, bcA)
        dpB, dcB, _ = self._distinct(bpB, bcB)
        big_jac, _, _, _ = self._jaccard_and_dot(
            dpA, dcA, np.zeros(len(dcA)), dpB, dcB, np.zeros(len(dcB)), n
        )

        # pidA/pidB are non-decreasing, so the code streams are pair-major
        edit = edit_similarity_batch(
            codesA, np.bincount(pidA, minlength=n), codesB, np.bincount(pidB, minlength=n)
        )

        def prior_arr(repos):
            codes_r, uniq = pd.factorize(np.asarray(repos, dtype=object))
            vals = np.fromiter(
                (self.repo_prior.get(u, 0.0) for u in uniq),
                dtype=np.float64,
                count=len(uniq),
            )
            return vals[codes_r] if len(uniq) else np.zeros(len(repos))

        prior = 0.5 * (prior_arr(left_repos) + prior_arr(right_repos))
        return np.stack([cos, tok_jac, big_jac, edit, prior], axis=1)

    def features(self, row) -> list[float]:
        ta = list(row["left_tokens"])
        tb = list(row["right_tokens"])
        sa, sb = set(ta), set(tb)
        union = len(sa | sb)
        token_jac = len(sa & sb) / union if union else 1.0
        # bigram jaccard
        bg_a = {(ta[i], ta[i + 1]) for i in range(len(ta) - 1)}
        bg_b = {(tb[i], tb[i + 1]) for i in range(len(tb) - 1)}
        bg_union = len(bg_a | bg_b)
        ngram_jac = len(bg_a & bg_b) / bg_union if bg_union else 1.0
        edit_sim = bounded_edit_distance(ta, tb)
        prior = 0.5 * (
            self.repo_prior.get(row["left_repo"], 0.0)
            + self.repo_prior.get(row["right_repo"], 0.0)
        )
        return [
            self.tfidf_cosine(ta, tb),
            token_jac,
            ngram_jac,
            edit_sim,
            prior,
        ]


# Per-worker-process cache for resolved broadcast state: plasma hands dict
# payloads back by DESERIALIZING on every ray.get (unlike Arrow/numpy, which
# are zero-copy), so the warm-tasks scorer mode would otherwise re-unpickle
# the idf/prior dicts once per batch. Worker processes are reused across
# tasks, so caching by object id amortizes it to once per worker.
_RESOLVE_CACHE: dict = {}


def _resolve_cached(x):
    import ray

    if not isinstance(x, ray.ObjectRef):
        return x
    key = x.hex()
    if key not in _RESOLVE_CACHE:
        if len(_RESOLVE_CACHE) > 8:
            _RESOLVE_CACHE.clear()
        _RESOLVE_CACHE[key] = ray.get(x)
    return _RESOLVE_CACHE[key]


class PairScorerStage:
    """`map_batches` callable: broadcast state resolved in `__init__` (once
    per worker process through `_resolve_cached`); per batch computes
    features + linear score (SURVEY.md ST6). `score_pairs` builds one per
    task on the warm worker pool."""

    def __init__(self, idf_ref=None, repo_prior_ref=None, model_dict: dict | None = None):
        resolve = _resolve_cached

        self.featurizer = PairFeaturizer(
            resolve(idf_ref) or {}, resolve(repo_prior_ref) or {}
        )
        if model_dict is not None:
            from opentapioca_ray.state.linear import LinearModel

            self.model = LinearModel.from_dict(model_dict)
        else:
            self.model = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = batch.num_rows
        if n == 0 or "left_id" not in batch.column_names:
            return pa.schema(
                [("left_id", pa.int64()), ("right_id", pa.int64())]
                + [(f, pa.float64()) for f in FEATURE_NAMES]
                + [("score", pa.float64())]
            ).empty_table()
        if "left_packed" in batch.column_names:
            # slim pipeline: tokens arrive \x1f-packed from the attach join;
            # split vectorized (empty-string artifacts are dropped inside
            # features_batch)
            left_lists = pc.split_pattern(
                pc.fill_null(batch.column("left_packed"), ""), "\x1f"
            )
            right_lists = pc.split_pattern(
                pc.fill_null(batch.column("right_packed"), ""), "\x1f"
            )
        else:
            left_lists = batch.column("left_tokens")
            right_lists = batch.column("right_tokens")
        feats = self.featurizer.features_batch(
            left_lists,
            right_lists,
            batch.column("left_repo").to_pylist(),
            batch.column("right_repo").to_pylist(),
        )
        if self.model is not None:
            scores = self.model.decision_function(feats)
        else:
            # untrained fallback: average of the similarity features
            scores = feats[:, :4].mean(axis=1) * 2 - 1
        out = {
            "left_id": batch.column("left_id").cast(pa.int64()),
            "right_id": batch.column("right_id").cast(pa.int64()),
        }
        for k, name in enumerate(FEATURE_NAMES):
            out[name] = pa.array(feats[:, k], type=pa.float64())
        out["score"] = pa.array(scores, type=pa.float64())
        return pa.table(out)
