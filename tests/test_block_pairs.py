"""Within-block pair enumeration: the all-pairs / sorted-neighbourhood
skew guard that every blocked self-join applies, checked against a
brute-force model of the rule.

The model, per block: keep each id's first row in the block's order;
a block of n <= max_block_size distinct ids yields all n(n-1)/2 pairs,
a larger one pairs each row with the next `window` rows.
"""

import numpy as np
import pandas as pd
import pyarrow as pa


def _reference(keys, order, ids, max_block_size, window):
    """Brute force over row indices: sorted [(i, j, capped)] with i before
    j in block order."""
    blocks = {}
    for r, k in enumerate(keys):
        blocks.setdefault(k, []).append(r)
    out = []
    for rows in blocks.values():
        ranked = sorted(rows, key=lambda r: (order[r], r))
        seen, kept = set(), []
        for r in ranked:
            if ids[r] not in seen:
                seen.add(ids[r])
                kept.append(r)
        n = len(kept)
        if max_block_size is None or n <= max_block_size:
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        else:
            pairs = [(a, b) for a in range(n) for b in range(a + 1, min(n, a + 1 + window))]
        capped = n * (n - 1) // 2 - len(pairs)
        out += [(kept[a], kept[b], capped) for a, b in pairs]
    return sorted(out)


def _model_pairs(keys, order, ids, max_block_size, window):
    """Canonical {(min id, max id)} over every block."""
    ref = _reference(keys, order, ids, max_block_size, window)
    return {(min(ids[i], ids[j]), max(ids[i], ids[j])) for i, j, _ in ref}


def _kernel(keys, order, ids, max_block_size, window):
    from opentapioca_ray.stages.pairs import block_pairs

    i, j, capped = block_pairs(keys, order, ids, max_block_size, window)
    assert i.dtype == j.dtype == capped.dtype == np.int64
    return sorted(zip(i.tolist(), j.tolist(), capped.tolist()))


def _seeded_blocks(rng, max_block_size):
    """Rows of blocks whose distinct-id sizes include 1, 2,
    `max_block_size`, `max_block_size` + 1 and a random size; ids repeat
    within a block and order values tie."""
    cap = max_block_size or 6
    sizes = [1, 2, cap, cap + 1, int(rng.randint(1, 14))]
    keys, order, ids = [], [], []
    for b, size in enumerate(sizes):
        block_ids = rng.permutation(100)[:size]
        extra = rng.choice(block_ids, rng.randint(0, 3))  # repeated ids
        for fid in np.concatenate([block_ids, extra]):
            keys.append(b)
            ids.append(int(fid))
            order.append(int(rng.randint(0, 4)))  # ties
    perm = rng.permutation(len(keys))
    return (
        np.asarray(keys)[perm],
        np.asarray(order, dtype=np.uint64)[perm],
        np.asarray(ids, dtype=np.int64)[perm],
    )


def test_block_pairs_matches_bruteforce():
    rng = np.random.RandomState(42)
    for trial in range(120):
        max_block_size = [None, 1, 2, 3, 5][trial % 5]
        window = [0, 1, 2, 3, 20][(trial // 5) % 5]  # 20 >= every block size
        keys, order, ids = _seeded_blocks(rng, max_block_size)
        if trial % 2:
            keys = np.array([f"key-{k}" for k in keys], dtype=object)
        assert _kernel(keys, order, ids, max_block_size, window) == _reference(
            keys, order, ids, max_block_size, window
        ), (trial, max_block_size, window)


def test_block_pairs_rules_by_hand():
    # one block of 5 distinct ids over max_block_size=3, window=2: each row
    # pairs with the next 2 in order; capped = 10 - 7 on every pair
    ids = np.array([10, 11, 12, 13, 14])
    order = np.array([4, 3, 2, 1, 0])
    got = _kernel(np.zeros(5, dtype=np.int64), order, ids, 3, 2)
    pairs = {(ids[i], ids[j]) for i, j, _ in got}
    assert pairs == {(14, 13), (14, 12), (13, 12), (13, 11), (12, 11), (12, 10), (11, 10)}
    assert {c for _, _, c in got} == {3}
    # a window as wide as the block emits every pair and drops none
    assert {c for _, _, c in _kernel(np.zeros(5, dtype=np.int64), order, ids, 3, 4)} == {0}
    # a size-2 block of one repeated id, and a singleton: nothing
    assert _kernel(np.array(["a", "a", "b"], dtype=object), np.zeros(3), np.array([7, 7, 8]), 64, 8) == []
    # ties in order keep input order; the repeated id keeps its first row
    got = _kernel(np.zeros(4, dtype=np.int64), np.zeros(4), np.array([3, 1, 3, 2]), None, 0)
    assert got == [(0, 1, 0), (0, 3, 0), (1, 3, 0)]
    empty = _kernel(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64), 2, 1)
    assert empty == []


def _lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _name_table(seed: int):
    """Names over a 3-letter alphabet (many within edit distance 2, and
    repeated names so the (name, id) tie-break matters): block "a" holds
    11 ids, block "b" 3, block "c" 1; one id is repeated in block "a"."""
    rng = np.random.RandomState(seed)
    ids = rng.permutation(40)[:15].astype(np.int64)
    names = ["".join(rng.choice(list("abc"), rng.randint(2, 5))) for _ in ids]
    names[3] = names[4]
    blk = ["a"] * 11 + ["b"] * 3 + ["c"]
    rows = list(zip(ids.tolist(), names, blk))
    rows.append(rows[2])  # repeated (id, name) in block "a"
    return pa.table(
        {
            "id": [r[0] for r in rows],
            "name": [r[1] for r in rows],
            "blk": [r[2] for r in rows],
        }
    )


def test_block_key_pairs_windowed_branch(ray_session):
    import ray.data

    from opentapioca_ray.stages.snm import block_key_pairs

    rng = np.random.RandomState(3)
    ids = rng.permutation(60)[:25].astype(np.int64)
    keys = np.array(["a"] * 12 + ["b"] * 4 + ["c"] * 2 + ["d"] + ["e"] * 6)
    ids = np.append(ids, ids[5])  # repeated id in block "a"
    keys = np.append(keys, "a")
    t = pa.table({"id": ids, "k": keys})
    out = block_key_pairs(
        ray.data.from_arrow(t).repartition(3), "k", "id", max_block_size=4, window=2
    ).to_pandas()
    got = list(zip(out["u"].tolist(), out["v"].tolist()))
    assert len(got) == len(set(got))
    assert set(got) == _model_pairs(keys, ids, ids, 4, 2)
    assert all(u < v for u, v in got)


def test_fuzzy_block_pairs_windowed_branch(ray_session):
    import ray.data

    from opentapioca_ray.stages.fuzzy import fuzzy_block_pairs

    for seed in (0, 1):
        t = _name_table(seed)
        ids, names, blk = (t.column(c).to_pylist() for c in ("id", "name", "blk"))
        out = fuzzy_block_pairs(
            ray.data.from_arrow(t).repartition(3), "id", "name", "blk",
            max_dist=2, max_block_size=4, window=3,
        ).to_pandas()
        got = {(r.u, r.v): r.lev for r in out.itertuples()}
        name_of = dict(zip(ids, names))
        cand = _model_pairs(blk, list(zip(names, ids)), ids, 4, 3)
        expect = {
            (u, v): _lev(name_of[u], name_of[v])
            for u, v in cand
            if _lev(name_of[u], name_of[v]) <= 2
        }
        assert len(out) == len(got)
        assert got == expect


def test_jw_block_pairs_windowed_branch(ray_session):
    import duckdb
    import ray.data

    from opentapioca_ray.stages.fuzzy import jw_block_pairs

    for seed in (0, 1):
        t = _name_table(seed)
        ids, names, blk = (t.column(c).to_pylist() for c in ("id", "name", "blk"))
        out = jw_block_pairs(
            ray.data.from_arrow(t).repartition(3), "id", "name", "blk",
            min_sim=0.5, max_block_size=4, window=3,
        ).to_pandas()
        got = {(r.u, r.v): r.jw for r in out.itertuples()}
        name_of = dict(zip(ids, names))
        cand = sorted(_model_pairs(blk, list(zip(names, ids)), ids, 4, 3))
        df = pd.DataFrame(
            {"a": [name_of[u] for u, _ in cand], "b": [name_of[v] for _, v in cand]}
        )
        jw = (
            duckdb.connect()
            .execute("SELECT jaro_winkler_similarity(a, b) AS jw FROM df")
            .fetchnumpy()["jw"]
        )
        expect = {p: float(s) for p, s in zip(cand, jw) if s >= 0.5}
        assert len(out) == len(got)
        assert got.keys() == expect.keys()
        assert all(abs(got[p] - expect[p]) < 1e-12 for p in expect)


def test_minhash_verify_windowed_branch():
    from opentapioca_ray.stages.dedup import _shingle_set, _verify_partition_fn

    rng = np.random.RandomState(11)
    vocab = ["w0", "w1", "w2", "w3", "w4"]
    rows = []
    for key, size in (("k1", 9), ("k2", 3), ("k3", 1)):
        for fid in rng.permutation(30)[:size]:
            # sig_head drawn from 4 values: ties keep input order
            rows.append((key, int(fid), int(rng.randint(0, 4))))
    rows.append(("k1", rows[1][1], 99))  # repeated id, later in sig order
    tokens = {fid: list(rng.choice(vocab, rng.randint(1, 6))) for _, fid, _ in rows}
    df = pd.DataFrame(
        {
            "block_key": [r[0] for r in rows],
            "file_id": np.array([r[1] for r in rows], dtype=np.int64),
            "sig_head": np.array([r[2] for r in rows], dtype=np.uint64),
            "tokens": [tokens[r[1]] for r in rows],
        }
    )
    out = _verify_partition_fn(0.0, 1, max_block_size=3, window=2)(df)
    got = {(r.u, r.v): r.jaccard for r in out.itertuples()}
    cand = _model_pairs(
        [r[0] for r in rows], [r[2] for r in rows], [r[1] for r in rows], 3, 2
    )

    def jac(u, v):
        a, b = _shingle_set(tokens[u], 1), _shingle_set(tokens[v], 1)
        return len(a & b) / len(a | b)

    assert len(out) == len(got)
    assert got == {(u, v): jac(u, v) for u, v in cand}


def test_string_metrics_are_symmetric():
    """The fuzzy matchers score a candidate pair in block order, which is
    (name, id) order rather than id order; every metric must give the same
    value either way round. Exhaustive over short strings of a 3-letter
    alphabet, then seeded longer strings."""
    import itertools

    from opentapioca_ray.stages.fuzzy import (
        _code_matrix,
        damerau_levenshtein_pairs,
        jaro_winkler_pairs,
        levenshtein_pairs,
    )

    short = ["".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)]
    rng = np.random.RandomState(9)
    longer = ["".join(rng.choice(list("abcd"), rng.randint(0, 13))) for _ in range(400)]
    for names in (short, longer):
        codes, lens = _code_matrix(np.array(names, dtype=object))
        ai, bi = np.triu_indices(len(names), k=1)
        if len(ai) > 20_000:
            pick = rng.choice(len(ai), 20_000, replace=False)
            ai, bi = ai[pick], bi[pick]
        for fn in (jaro_winkler_pairs, levenshtein_pairs, damerau_levenshtein_pairs):
            assert np.array_equal(fn(codes, lens, ai, bi), fn(codes, lens, bi, ai)), fn
