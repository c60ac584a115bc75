"""Blocked fuzzy string matching with exact character Levenshtein.

The within-block edit-distance join every ER pipeline needs (the reference
scores candidate pairs with similarity features — similarities.py — but has
no standalone fuzzy-match operator; this is part of the beyond-reference ER
surface). Blocks bound the candidate space; the distance itself is the
classic unit-cost Levenshtein, so DuckDB's `levenshtein()` pins the answer
value-for-value.

Scale shape: ONE coarse exchange on the block key ships slim
(id, name, block) rows; the partition kernel handles ALL its blocks in one
pass. Inside a block, `stages/pairs.block_pairs` (the repo's one skew
guard) enumerates the candidates: all-pairs under `max_block_size`, else a
sorted-neighborhood window in (name, id) order — capped blocks lose
cross-window pairs BY DESIGN and the cap is sized so oracle-scale inputs
never hit it. The DP is vectorized
ACROSS pairs (one (n_pairs,) vector op per DP cell), names are encoded to
int32 code matrices once per partition, and a length-difference prefilter
drops pairs that cannot be within `max_dist` before any DP runs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from opentapioca_ray.stages.pairs import block_pairs

_PAIR_SCHEMA = pa.schema(
    [("u", pa.int64()), ("v", pa.int64()), ("lev", pa.int64())]
)


def _code_matrix(names: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Object array of strings -> (codes, lengths): int32 code-point matrix
    padded with -1 (never a real code point) + per-string lengths. One
    utf-32 decode over the whole partition, no per-char Python loop."""
    lens = np.array([len(s) for s in names], dtype=np.int64)
    max_len = int(lens.max()) if len(lens) else 0
    if max_len == 0:
        return np.full((len(names), 1), -1, dtype=np.int32), lens
    joined = "".join(s.ljust(max_len, "\0") for s in names)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    codes = codes.reshape(len(names), max_len).astype(np.int32)
    codes[np.arange(max_len)[None, :] >= lens[:, None]] = -1
    return codes, lens


def levenshtein_pairs(
    codes: np.ndarray,
    lens: np.ndarray,
    ai: np.ndarray,
    bi: np.ndarray,
) -> np.ndarray:
    """Exact Levenshtein for each (ai[p], bi[p]) row pair of the code
    matrix. DP rows iterate in Python (bounded by name length); every cell
    update is one vectorized op across ALL pairs."""
    npairs = len(ai)
    if npairs == 0:
        return np.zeros(0, dtype=np.int64)
    a_codes, b_codes = codes[ai], codes[bi]
    la, lb = lens[ai], lens[bi]
    max_a = int(la.max()) if npairs else 0
    max_b = int(lb.max()) if npairs else 0
    out = np.where(la == 0, lb, 0).astype(np.int64)
    dp = np.broadcast_to(
        np.arange(max_b + 1, dtype=np.int64), (npairs, max_b + 1)
    ).copy()
    for i in range(1, max_a + 1):
        ndp = np.empty_like(dp)
        ndp[:, 0] = i
        sub = dp[:, :-1] + (a_codes[:, i - 1 : i] != b_codes[:, :max_b])
        dele = dp[:, 1:] + 1
        np.minimum(sub, dele, out=sub)
        # insertion column has a left-to-right dependency
        for j in range(1, max_b + 1):
            ndp[:, j] = np.minimum(sub[:, j - 1], ndp[:, j - 1] + 1)
        dp = ndp
        done = la == i
        if done.any():
            out[done] = dp[done, lb[done]]
    return out


def jaro_winkler_pairs(
    codes: np.ndarray,
    lens: np.ndarray,
    ai: np.ndarray,
    bi: np.ndarray,
    prefix_weight: float = 0.1,
    boost_threshold: float = 0.7,
) -> np.ndarray:
    """Jaro-Winkler similarity for each (ai[p], bi[p]) row pair of the code
    matrix, vectorized ACROSS pairs like `levenshtein_pairs` (the outer
    loops are bounded by name length; every inner op spans all pairs).
    Semantics pinned to DuckDB's `jaro_winkler_similarity` (fuzz-tested):
    empty-vs-anything -> 0.0, window floor(max/2)-1, half-transposition
    count, prefix bonus (<= 4 chars, weight 0.1) only when jaro exceeds the
    0.7 boost threshold."""
    npairs = len(ai)
    if npairs == 0:
        return np.zeros(0, dtype=np.float64)
    A, B = codes[ai], codes[bi]
    la, lb = lens[ai], lens[bi]
    max_a = int(la.max()) if npairs else 0
    max_b = int(lb.max()) if npairs else 0
    d = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    d_max = int(d.max()) if npairs else 0
    a_matched = np.zeros((npairs, max(max_a, 1)), dtype=bool)
    b_matched = np.zeros((npairs, max(max_b, 1)), dtype=bool)
    for i in range(max_a):
        in_a = i < la
        found = np.zeros(npairs, dtype=bool)
        jlo, jhi = np.maximum(0, i - d), np.minimum(lb - 1, i + d)
        for j in range(max(0, i - d_max), min(max_b, i + d_max + 1)):
            hit = (
                in_a
                & ~found
                & (j >= jlo)
                & (j <= jhi)
                & ~b_matched[:, j]
                & (B[:, j] == A[:, i])
            )
            b_matched[:, j] |= hit
            found |= hit
        a_matched[:, i] = found
    m = a_matched.sum(axis=1)
    # transpositions: k-th matched char of A vs k-th matched char of B —
    # np.nonzero is row-major, so both listings are grouped by pair with
    # positions ascending and align element-wise (equal counts per pair)
    pa_idx, ai_pos = np.nonzero(a_matched)
    pb_idx, bj_pos = np.nonzero(b_matched)
    diff = (A[pa_idx, ai_pos] != B[pb_idx, bj_pos]).astype(np.int64)
    t2 = np.zeros(npairs, dtype=np.int64)
    np.add.at(t2, pa_idx, diff)
    t = t2 // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (m / la + m / lb + (m - t) / np.maximum(m, 1)) / 3.0
    jaro = np.where(m == 0, 0.0, jaro)
    lcap = min(4, max_a, max_b)
    if lcap > 0:
        pos = np.arange(lcap)[None, :]
        pref = (
            (A[:, :lcap] == B[:, :lcap])
            & (pos < la[:, None])
            & (pos < lb[:, None])
        )
        ell = pref.cumprod(axis=1).sum(axis=1)
    else:
        ell = np.zeros(npairs, dtype=np.int64)
    return np.where(
        jaro > boost_threshold,
        jaro + ell * prefix_weight * (1.0 - jaro),
        jaro,
    )


def damerau_levenshtein_pairs(
    codes: np.ndarray,
    lens: np.ndarray,
    ai: np.ndarray,
    bi: np.ndarray,
    chunk: int = 8_192,
) -> np.ndarray:
    """TRUE Damerau-Levenshtein (Lowrance-Wagner: adjacent transposition
    with arbitrary gap) for each (ai[p], bi[p]) row pair — the variant
    DuckDB's `damerau_levenshtein()` computes (DL('CA','ABC') = 2 where
    the restricted OSA DP gives 3; fuzz-pinned in tests). The full DP
    cube is retained for the transposition lookback, so pairs stream in
    `chunk`-sized slices (cube = chunk x (La+2) x (Lb+2) int64); inside a
    chunk the row/col loops are bounded by name length and every cell
    update is one vectorized op across pairs. The last-occurrence state:
    DA[p, j] = last row i' with a[i'] == b[j+1] (updated after each row),
    J1[p, j] = last column j' < j with b[j'] == a[i] (an exclusive
    running max recomputed per row)."""
    total = len(ai)
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.empty(total, dtype=np.int64)
    for c0 in range(0, total, chunk):
        sl = slice(c0, min(c0 + chunk, total))
        out[sl] = _dl_chunk(codes, lens, ai[sl], bi[sl])
    return out


def _dl_chunk(codes, lens, ai, bi) -> np.ndarray:
    npairs = len(ai)
    A, B = codes[ai], codes[bi]
    la, lb = lens[ai].astype(np.int64), lens[bi].astype(np.int64)
    La = int(la.max())
    Lb = int(lb.max())
    INF = La + Lb + 1
    # offset coords: D[:, i+1, j+1] = d(i, j); the 0-row/0-column is the
    # INF border the i1=0 / j1=0 lookbacks land on
    D = np.full((npairs, La + 2, Lb + 2), INF, dtype=np.int64)
    D[:, 1, 1:] = np.arange(Lb + 1, dtype=np.int64)[None, :]
    D[:, 1:, 1] = np.arange(La + 1, dtype=np.int64)[None, :]
    DA = np.zeros((npairs, max(Lb, 1)), dtype=np.int64)
    ar = np.arange(npairs)
    cols = np.arange(1, Lb + 1, dtype=np.int64)
    for i in range(1, La + 1):
        arow = A[:, i - 1]
        match = B[:, :Lb] == arow[:, None]
        # exclusive running max of 1-based match positions -> j1 per col
        pos = np.where(match, cols[None, :], 0)
        np.maximum.accumulate(pos, axis=1, out=pos)
        J1 = np.zeros((npairs, Lb + 1), dtype=np.int64)
        J1[:, 2:] = pos[:, :-1]  # J1[:, j] = last match at column < j
        sub = D[:, i, 1 : Lb + 1] + (~match).astype(np.int64)
        dele = D[:, i, 2 : Lb + 2] + 1
        base = np.minimum(sub, dele)
        cur = D[:, i + 1, :]
        for j in range(1, Lb + 1):
            i1 = DA[:, j - 1]
            j1 = J1[:, j]
            trans = D[ar, i1, j1] + (i - i1) + (j - j1) - 1
            cell = np.minimum(base[:, j - 1], cur[:, j] + 1)
            np.minimum(cell, trans, out=cell)
            cur[:, j + 1] = cell
        DA[match] = i
    return D[ar, la + 1, lb + 1]


def _block_candidates(
    df: pd.DataFrame,
    id_column: str,
    name_column: str,
    block_column: str,
    max_block_size: int,
    window: int,
):
    """The blocking prologue of the within-block matchers: one partition's
    (id, name, block) rows -> (ids, code matrix, lengths, ai, bi), the
    candidate pairs as row-index arrays from `block_pairs` in (name, id)
    order. The metrics scored over them are symmetric, so a pair's
    orientation never changes its value."""
    ids = df[id_column].to_numpy(dtype=np.int64)
    names = df[name_column].to_numpy()
    name_codes = np.unique(names, return_inverse=True)[1]
    rank = np.empty(len(ids), dtype=np.int64)
    rank[np.lexsort((ids, name_codes))] = np.arange(len(ids))
    ai, bi, _ = block_pairs(
        df[block_column].to_numpy(), rank, ids, max_block_size, window
    )
    codes, lens = _code_matrix(names)
    return ids, codes, lens, ai, bi


def fuzzy_block_pairs(
    ds,
    id_column: str,
    name_column: str,
    block_column: str,
    max_dist: int = 2,
    max_block_size: int = 512,
    window: int = 16,
    n_parts: int | None = None,
    metric: str = "lev",
):
    """Within-block fuzzy pairs (u, v, <metric>): u < v by id, exact
    character edit distance <= `max_dist`, candidates bounded per block by
    the skew guard. Length-difference > max_dist pairs never reach the DP.
    `metric` picks the DP: "lev" (unit-cost Levenshtein) or "dl" (true
    Damerau-Levenshtein with transpositions); the score column is named
    after it."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    assert metric in ("lev", "dl")
    dp_fn = levenshtein_pairs if metric == "lev" else damerau_levenshtein_pairs

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                metric: pd.Series(dtype=np.int64),
            }
        )
        if df.empty:
            return empty
        ids, codes, lens, ai, bi = _block_candidates(
            df, id_column, name_column, block_column, max_block_size, window
        )
        # length prefilter: |la - lb| > max_dist can never pass
        ok = np.abs(lens[ai] - lens[bi]) <= max_dist
        ai, bi = ai[ok], bi[ok]
        lev = dp_fn(codes, lens, ai, bi)
        hit = lev <= max_dist
        if not hit.any():
            return empty
        ua, vb = ids[ai[hit]], ids[bi[hit]]
        return pd.DataFrame(
            {
                "u": np.minimum(ua, vb),
                "v": np.maximum(ua, vb),
                metric: lev[hit],
            }
        )

    slim = ds.select_columns([id_column, name_column, block_column])
    out_schema = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), (metric, pa.int64())]
    )

    def enforce(batch: pa.Table) -> pa.Table:
        # all-empty partition outputs arrive schema-less (Ray 2.49); pin
        # the schema so a 0-pair corpus still yields typed columns
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return out_schema.empty_table()
        return batch.select(["u", "v", metric]).cast(out_schema)

    return coarse_group_apply(
        slim, block_column, pair_partition, n_parts=n_parts
    ).map_batches(enforce, batch_format="pyarrow")


def jw_block_pairs(
    ds,
    id_column: str,
    name_column: str,
    block_column: str,
    min_sim: float = 0.9,
    max_block_size: int = 512,
    window: int = 16,
    n_parts: int | None = None,
):
    """Within-block Jaro-Winkler pairs (u, v, jw): u < v by id,
    jw >= `min_sim`, same coarse-exchange + skew-guard shape as
    `fuzzy_block_pairs`. DuckDB's `jaro_winkler_similarity` pins the values
    bit-for-bit (see `jaro_winkler_pairs`)."""
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "v": pd.Series(dtype=np.int64),
                "jw": pd.Series(dtype=np.float64),
            }
        )
        if df.empty:
            return empty
        ids, codes, lens, ai, bi = _block_candidates(
            df, id_column, name_column, block_column, max_block_size, window
        )
        jw = jaro_winkler_pairs(codes, lens, ai, bi)
        hit = jw >= min_sim
        if not hit.any():
            return empty
        ua, vb = ids[ai[hit]], ids[bi[hit]]
        return pd.DataFrame(
            {
                "u": np.minimum(ua, vb),
                "v": np.maximum(ua, vb),
                "jw": jw[hit],
            }
        )

    slim = ds.select_columns([id_column, name_column, block_column])
    return coarse_group_apply(slim, block_column, pair_partition, n_parts=n_parts)


def monge_elkan_scores(
    pairs_ds,
    left_column: str = "nm_u",
    right_column: str = "nm_v",
    quantum: int = 1_000_000,
):
    """Monge-Elkan hybrid similarity (Monge & Elkan 1996) over candidate
    pairs, with Jaro-Winkler as the inner metric and SET-of-tokens
    semantics: ME(A->B) = mean over DISTINCT tokens a of A of
    max_{b in B} jw(a, b). The classic ER field comparator for multi-word
    names where token order and coverage differ (reference analogue: the
    word-level leg of the tokenizer in opentapioca's tagger.py:30-45,
    which compares mention token sets against label token sets).

    Exactness: each per-token max is quantized floor(jw * quantum + 0.5)
    BEFORE summation; the mean is integer floor division; the symmetric
    score is the floor-mean of the two directions — every step replays
    bit-for-bit in DuckDB (jw itself is pinned to
    `jaro_winkler_similarity`, see `jaro_winkler_pairs`).

    Vectorization: unique names -> unique tokens -> ONE `_code_matrix`;
    all (pair, i, j) token combos flatten into a single
    `jaro_winkler_pairs` call; per-(pair, token) maxima and per-pair sums
    are `np.maximum/add.reduceat` segment kernels. Streams per batch over
    an already-blocked pair table (no shuffle of its own)."""
    schema = pa.schema(
        [
            ("u", pa.int64()),
            ("v", pa.int64()),
            ("me_uv_u", pa.int64()),
            ("me_vu_u", pa.int64()),
            ("me_u", pa.int64()),
        ]
    )

    def me_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_column not in batch.column_names:
            return schema.empty_table()
        P = batch.num_rows
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        na = batch.column(left_column).to_numpy(zero_copy_only=False)
        nb = batch.column(right_column).to_numpy(zero_copy_only=False)
        uniq_names, inv = np.unique(
            np.concatenate((na, nb)), return_inverse=True
        )
        pu, pv = inv[:P], inv[P:]
        tok_lists = [
            sorted({t for t in s.split(" ") if t}) for s in uniq_names
        ]
        cnt = np.array([len(t) for t in tok_lists], dtype=np.int64)
        flat = [t for lst in tok_lists for t in lst]
        if not flat:
            zeros = np.zeros(P, dtype=np.int64)
            return pa.table(
                {"u": u, "v": v, "me_uv_u": zeros, "me_vu_u": zeros,
                 "me_u": zeros}
            ).cast(schema)
        uniq_toks, tok_inv = np.unique(
            np.array(flat, dtype=object), return_inverse=True
        )
        name_start = np.concatenate(([0], np.cumsum(cnt)))
        codes, lens = _code_matrix(uniq_toks)

        nu, nv = cnt[pu], cnt[pv]
        ncomb = nu * nv
        total = int(ncomb.sum())
        me_uv = np.zeros(P, dtype=np.int64)
        me_vu = np.zeros(P, dtype=np.int64)
        if total:
            pair_rep = np.repeat(np.arange(P), ncomb)
            c = np.arange(total) - np.repeat(np.cumsum(ncomb) - ncomb, ncomb)
            nv_rep = nv[pair_rep]
            i = c // nv_rep
            j = c - i * nv_rep
            a_idx = tok_inv[name_start[pu][pair_rep] + i]
            b_idx = tok_inv[name_start[pv][pair_rep] + j]
            jw = jaro_winkler_pairs(codes, lens, a_idx, b_idx)
            # u->v: combos are (pair, i)-major with j fastest
            ui_starts = np.flatnonzero(j == 0)
            q_u = np.floor(
                np.maximum.reduceat(jw, ui_starts) * quantum + 0.5
            ).astype(np.int64)
            p_of_ui = pair_rep[ui_starts]
            p_starts = np.flatnonzero(
                np.concatenate(([True], p_of_ui[1:] != p_of_ui[:-1]))
            )
            pids = p_of_ui[p_starts]
            me_uv[pids] = np.add.reduceat(q_u, p_starts) // nu[pids]
            # v->u: reorder combos to (pair, j)-major
            order = np.lexsort((i, j, pair_rep))
            j2, p2 = j[order], pair_rep[order]
            vj_starts = np.flatnonzero(
                np.concatenate(
                    ([True], (p2[1:] != p2[:-1]) | (j2[1:] != j2[:-1]))
                )
            )
            q_v = np.floor(
                np.maximum.reduceat(jw[order], vj_starts) * quantum + 0.5
            ).astype(np.int64)
            p_of_vj = p2[vj_starts]
            p2_starts = np.flatnonzero(
                np.concatenate(([True], p_of_vj[1:] != p_of_vj[:-1]))
            )
            pids2 = p_of_vj[p2_starts]
            me_vu[pids2] = np.add.reduceat(q_v, p2_starts) // nv[pids2]
        return pa.table(
            {
                "u": u,
                "v": v,
                "me_uv_u": me_uv,
                "me_vu_u": me_vu,
                "me_u": (me_uv + me_vu) // 2,
            }
        ).cast(schema)

    return pairs_ds.map_batches(me_batch, batch_format="pyarrow")


def soft_tfidf_scores(
    pairs_ds,
    idf_ref,
    left_column: str = "nm_u",
    right_column: str = "nm_v",
    theta_q: int = 900_000,
):
    """SoftTFIDF (Cohen, Ravikumar & Fienberg 2003) over candidate pairs:
    the tf-idf cosine where a left token matches its BEST Jaro-Winkler
    right token when jw exceeds theta — the classic hybrid ER comparator
    that survives typos (via jw) without losing rare-token weighting
    (via idf). Token-SET semantics, direction u->v (the standard
    asymmetric form).

    Exactness: per-token jw maxima quantize to 1e-6 (`jq`); the argmax
    right token ties break to the LEXICOGRAPHICALLY SMALLEST (right-side
    token lists are sorted, so the first max wins); idf weights are
    floor(ln(N/df) * 1e3 + 0.5) integers from the broadcast df table
    (`idf_ref` -> {token: weight}); the numerator sum(w_a * w_b* * jq)
    and both norm-squares are exact int64 sums; the final score is ONE
    fixed float expression floor(num / (sqrt(na2) * sqrt(nb2)) + 0.5),
    already in e6 units because jq is. All replayed verbatim in SQL.

    Vectorization: the monge_elkan combo layout (unique names -> unique
    tokens -> one `jaro_winkler_pairs` call); the per-(pair, token)
    argmax packs (jq, right-position) into one int64 composite so a
    single `np.maximum.reduceat` recovers both the max and its first
    witness. The idf table is a small broadcast (name-token vocabulary,
    not corpus vocabulary); pairs stream per batch with no shuffle of
    their own."""
    import ray

    schema = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("soft_uv_e6", pa.int64())]
    )
    _POS_BITS = 12  # right-side token position fits 12 bits (<= 4096 tokens)

    def soft_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_column not in batch.column_names:
            return schema.empty_table()
        idf = ray.get(idf_ref)
        P = batch.num_rows
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        na = batch.column(left_column).to_numpy(zero_copy_only=False)
        nb = batch.column(right_column).to_numpy(zero_copy_only=False)
        uniq_names, inv = np.unique(
            np.concatenate((na, nb)), return_inverse=True
        )
        pu, pv = inv[:P], inv[P:]
        tok_lists = [
            sorted({t for t in s.split(" ") if t}) for s in uniq_names
        ]
        cnt = np.array([len(t) for t in tok_lists], dtype=np.int64)
        flat = [t for lst in tok_lists for t in lst]
        soft = np.zeros(P, dtype=np.int64)
        if flat:
            uniq_toks, tok_inv = np.unique(
                np.array(flat, dtype=object), return_inverse=True
            )
            if cnt.max() >= (1 << _POS_BITS):
                raise ValueError(
                    f"soft_tfidf_scores: a name has >= {1 << _POS_BITS} "
                    "tokens; raise _POS_BITS"
                )
            name_start = np.concatenate(([0], np.cumsum(cnt)))
            codes, lens = _code_matrix(uniq_toks)
            w_tok = np.array(
                [idf.get(t, 0) for t in uniq_toks], dtype=np.int64
            )
            # per unique name: exact norm-square of its idf vector
            norm2 = np.array(
                [
                    int((w_tok[tok_inv[name_start[i]:name_start[i + 1]]] ** 2).sum())
                    for i in range(len(uniq_names))
                ],
                dtype=np.int64,
            )
            nu, nv = cnt[pu], cnt[pv]
            ncomb = nu * nv
            total = int(ncomb.sum())
            if total:
                pair_rep = np.repeat(np.arange(P), ncomb)
                c = np.arange(total) - np.repeat(
                    np.cumsum(ncomb) - ncomb, ncomb
                )
                nv_rep = nv[pair_rep]
                i = c // nv_rep
                j = c - i * nv_rep
                a_idx = tok_inv[name_start[pu][pair_rep] + i]
                b_idx = tok_inv[name_start[pv][pair_rep] + j]
                jq = np.floor(
                    jaro_winkler_pairs(codes, lens, a_idx, b_idx) * 1e6 + 0.5
                ).astype(np.int64)
                # composite: max jq, ties -> smallest j (sorted tokens ->
                # lexicographically smallest witness)
                comp = (jq << _POS_BITS) | ((1 << _POS_BITS) - 1 - j)
                ui_starts = np.flatnonzero(j == 0)
                best = np.maximum.reduceat(comp, ui_starts)
                qm = best >> _POS_BITS
                jstar = (1 << _POS_BITS) - 1 - (best & ((1 << _POS_BITS) - 1))
                p_of_ui = pair_rep[ui_starts]
                a_of_ui = a_idx[ui_starts]
                bstar = tok_inv[name_start[pv][p_of_ui] + jstar]
                keep = qm > theta_q
                contrib = np.zeros(len(ui_starts), dtype=np.int64)
                contrib[keep] = (
                    w_tok[a_of_ui[keep]] * w_tok[bstar[keep]] * qm[keep]
                )
                num = np.zeros(P, dtype=np.int64)
                np.add.at(num, p_of_ui, contrib)
                na2 = norm2[pu].astype(np.float64)
                nb2 = norm2[pv].astype(np.float64)
                ok = (na2 > 0) & (nb2 > 0)
                soft[ok] = np.floor(
                    num[ok] / (np.sqrt(na2[ok]) * np.sqrt(nb2[ok])) + 0.5
                ).astype(np.int64)
        return pa.table(
            {"u": u, "v": v, "soft_uv_e6": soft}
        ).cast(schema)

    return pairs_ds.map_batches(soft_batch, batch_format="pyarrow")


def bloom_dice_scores(
    pairs_ds,
    left_column: str = "nm_u",
    right_column: str = "nm_v",
    m: int = 256,
):
    """Privacy-preserving record linkage comparator (Schnell, Bachteler &
    Reiher 2009): each name encodes as a Bloom filter of its character
    BIGRAMS (two md5-derived positions per bigram, `m` bits) and pairs
    compare by the Dice coefficient of the bit SETS —
    dice_e6 = (2 * |A&B| * 1e6) // (|A| + |B|), exact integer arithmetic.
    The standard PPRL encoding: linkage quality degrades gracefully with
    typos while the encodings reveal no raw identifiers.

    Determinism/SQL parity: positions are the big-endian first and second
    8 md5 digest bytes of each bigram mod `m` (the repo's md5_u64 /
    second-half conventions), so DuckDB replays the exact bit sets.

    Vectorization: positions are computed once per DISTINCT name (bigram
    md5 is the cost center); per-pair intersections count adjacent
    duplicates after ONE lexsort over tagged (pair, position) rows.
    Streams per batch over an already-blocked pair table."""
    import hashlib

    schema = pa.schema(
        [("u", pa.int64()), ("v", pa.int64()), ("dice_e6", pa.int64())]
    )

    def positions(name: str) -> np.ndarray:
        grams = {name[i : i + 2] for i in range(len(name) - 1)}
        ps = set()
        for g in grams:
            d = hashlib.md5(g.encode("utf-8")).digest()
            ps.add(int.from_bytes(d[:8], "big") % m)
            ps.add(int.from_bytes(d[8:16], "big") % m)
        return np.array(sorted(ps), dtype=np.int64)

    def dice_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or left_column not in batch.column_names:
            return schema.empty_table()
        P = batch.num_rows
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        na = batch.column(left_column).to_numpy(zero_copy_only=False)
        nb = batch.column(right_column).to_numpy(zero_copy_only=False)
        uniq_names, inv = np.unique(
            np.concatenate((na, nb)), return_inverse=True
        )
        pu, pv = inv[:P], inv[P:]
        pos_sets = [positions(s) for s in uniq_names]
        sz = np.array([len(p) for p in pos_sets], dtype=np.int64)
        # tagged (pair, position) rows from both sides, one lexsort
        cu, cv = sz[pu], sz[pv]
        pair_u = np.repeat(np.arange(P), cu)
        pair_v = np.repeat(np.arange(P), cv)
        if len(pair_u) + len(pair_v):
            pos_u = (
                np.concatenate([pos_sets[i] for i in pu])
                if cu.sum()
                else np.zeros(0, dtype=np.int64)
            )
            pos_v = (
                np.concatenate([pos_sets[i] for i in pv])
                if cv.sum()
                else np.zeros(0, dtype=np.int64)
            )
            pp = np.concatenate((pair_u, pair_v))
            qq = np.concatenate((pos_u, pos_v))
            o = np.lexsort((qq, pp))
            pp, qq = pp[o], qq[o]
            dup = (pp[1:] == pp[:-1]) & (qq[1:] == qq[:-1])
            inter = np.zeros(P, dtype=np.int64)
            np.add.at(inter, pp[1:][dup], 1)
        else:
            inter = np.zeros(P, dtype=np.int64)
        tot = cu + cv
        dice = np.zeros(P, dtype=np.int64)
        nz = tot > 0
        dice[nz] = (2 * inter[nz] * 1_000_000) // tot[nz]
        return pa.table({"u": u, "v": v, "dice_e6": dice}).cast(schema)

    return pairs_ds.map_batches(dice_batch, batch_format="pyarrow")


def cross_source_pairs(
    ds_a,
    ds_b,
    id_a: str,
    name_a: str,
    block_a: str,
    id_b: str,
    name_b: str,
    block_b: str,
    max_dist: int = 2,
    max_block_pairs: int = 1 << 20,
    window: int = 16,
    n_parts: int | None = None,
):
    """Two-database record linkage (the classic Fellegi-Sunter setting:
    link file A to file B, never A to itself): within each shared blocking
    key, every CROSS-side pair with exact Levenshtein <= `max_dist`.
    Output (a_id, b_id, lev). Same vectorized DP and length prefilter as
    `fuzzy_block_pairs`; blocks whose |A| x |B| cross product exceeds
    `max_block_pairs` fall back to a sorted-neighborhood window over the
    merged name order (cross-side pairs only) — the documented skew
    guard, sized so it never fires at oracle scale."""
    from opentapioca_ray.stages.exchange import coarse_group_apply, segment_starts

    union_schema = pa.schema(
        [
            ("block", pa.string()),
            ("rid", pa.int64()),
            ("name", pa.string()),
            ("side", pa.int64()),
        ]
    )

    def side_rows(idc, namec, blockc, side):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or idc not in batch.column_names:
                return union_schema.empty_table()
            import pyarrow.compute as pc

            return pa.table(
                {
                    "block": pc.cast(batch.column(blockc), pa.string()),
                    "rid": batch.column(idc).cast(pa.int64()),
                    "name": pc.cast(batch.column(namec), pa.string()),
                    "side": pa.array(
                        np.full(batch.num_rows, side, dtype=np.int64)
                    ),
                }
            )

        return fn

    unioned = ds_a.map_batches(
        side_rows(id_a, name_a, block_a, 0), batch_format="pyarrow"
    ).union(
        ds_b.map_batches(side_rows(id_b, name_b, block_b, 1), batch_format="pyarrow")
    )
    out_cols = ("a_id", "b_id", "lev")

    def pair_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({c: pd.Series(dtype=np.int64) for c in out_cols})
        if df.empty or "block" not in df.columns:
            return empty
        blocks = df["block"].to_numpy()
        ids = df["rid"].to_numpy(dtype=np.int64)
        names = df["name"].to_numpy()
        sides = df["side"].to_numpy(dtype=np.int64)
        _, bcodes = np.unique(blocks, return_inverse=True)
        order = np.lexsort((ids, sides, bcodes))
        bcodes, ids, names, sides = (
            bcodes[order], ids[order], names[order], sides[order],
        )
        codes, lens = _code_matrix(names)
        starts = segment_starts(bcodes)
        ends = np.concatenate((starts[1:], [len(bcodes)]))
        ai_all, bi_all = [], []
        for s, e in zip(starts, ends):
            seg_sides = sides[s:e]
            na = int((seg_sides == 0).sum())
            nb = (e - s) - na
            if na == 0 or nb == 0:
                continue
            if na * nb <= max_block_pairs:
                iu = np.repeat(np.arange(na), nb)
                ju = na + np.tile(np.arange(nb), na)
            else:  # skew guard: windowed merged-name order, cross-side only
                sub = np.lexsort(
                    (ids[s:e], np.unique(names[s:e], return_inverse=True)[1])
                )
                offs = np.arange(1, window + 1)
                iu = np.repeat(np.arange(e - s), window)
                ju = iu + np.tile(offs, e - s)
                keep = ju < (e - s)
                iu, ju = sub[iu[keep]], sub[ju[keep]]
                cross = seg_sides[iu] != seg_sides[ju]
                iu, ju = iu[cross], ju[cross]
                swap = seg_sides[iu] == 1
                iu2 = np.where(swap, ju, iu)
                ju2 = np.where(swap, iu, ju)
                iu, ju = iu2, ju2
            ai_all.append(iu + s)
            bi_all.append(ju + s)
        if not ai_all:
            return empty
        ai = np.concatenate(ai_all)
        bi = np.concatenate(bi_all)
        ok = np.abs(lens[ai] - lens[bi]) <= max_dist
        ai, bi = ai[ok], bi[ok]
        lev = levenshtein_pairs(codes, lens, ai, bi)
        hit = lev <= max_dist
        if not hit.any():
            return empty
        return pd.DataFrame(
            {
                "a_id": ids[ai[hit]],
                "b_id": ids[bi[hit]],
                "lev": lev[hit],
            }
        )

    out_schema = pa.schema([(c, pa.int64()) for c in out_cols])

    def enforce(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "a_id" not in batch.column_names:
            return out_schema.empty_table()
        return batch.select(list(out_cols)).cast(out_schema)

    return coarse_group_apply(
        unioned, "block", pair_partition, n_parts=n_parts
    ).map_batches(enforce, batch_format="pyarrow")
