"""Prefix-filtered set-similarity join (stages/setjoin.py) vs a local
brute-force over the same tokenizer — losslessness of the prefix filter
and exactness of the integer-threshold verify."""

import numpy as np
import pytest


def _brute_pairs(docs, num, den, k=1):
    """All-pairs exact token-set Jaccard >= num/den, (u, v, jacc_e6)."""
    from opentapioca_ray.functions.text import tokenize_flat

    sets = {}
    for d in docs:
        flat, _ = tokenize_flat([d["text"]])
        toks = list(flat)
        if k >= 2:
            if len(toks) == 0:
                continue
            if len(toks) < k:
                grams = {" ".join(toks)}
            else:
                grams = {
                    " ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)
                }
            sets[d["doc_id"]] = grams
        else:
            sets[d["doc_id"]] = set(toks)
    out = {}
    ids = sorted(sets)
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            inter = len(sets[u] & sets[v])
            uni = len(sets[u] | sets[v])
            if uni and den * inter >= num * uni:
                out[(u, v)] = inter * 1_000_000 // uni
    return out


def _corpus():
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(60)]
    docs = []
    for i in range(40):
        words = list(rng.choice(vocab, size=12, replace=False))
        docs.append({"doc_id": i, "text": " ".join(words)})
        if i % 4 == 0:  # planted near-dup: drop one word, append one
            mut = words[1:] + [f"extra{i}"]
            docs.append({"doc_id": 1000 + i, "text": " ".join(mut)})
    docs.append({"doc_id": 9000, "text": ""})
    docs.append({"doc_id": 9001, "text": "solo"})
    return docs


@pytest.mark.parametrize("num,den", [(1, 2), (4, 5)])
def test_prefix_pairs_match_brute_force(ray_session, num, den):
    import ray.data

    from opentapioca_ray.stages.setjoin import prefix_filter_pairs

    docs = _corpus()
    got = {
        (r["u"], r["v"]): r["jacc_e6"]
        for r in prefix_filter_pairs(
            ray.data.from_items(docs), num=num, den=den, n_parts=4
        ).take_all()
    }
    assert got == _brute_pairs(docs, num, den)


def test_prefix_pairs_full_verify_regime(ray_session, monkeypatch):
    """`_PAIR_BROADCAST_LIMIT` = 0: the full shuffle verify, with no
    candidate-pair broadcast, gives the same exact pairs."""
    import ray.data

    from opentapioca_ray.stages import setjoin

    monkeypatch.setattr(setjoin, "_PAIR_BROADCAST_LIMIT", 0)
    docs = _corpus()
    got = {
        (r["u"], r["v"]): r["jacc_e6"]
        for r in setjoin.prefix_filter_pairs(
            ray.data.from_items(docs), num=1, den=2, n_parts=4
        ).take_all()
    }
    assert got == _brute_pairs(docs, 1, 2)


def test_prefix_pairs_kgram_universe(ray_session):
    import ray.data

    from opentapioca_ray.stages.setjoin import prefix_filter_pairs

    docs = _corpus()
    got = {
        (r["u"], r["v"]): r["jacc_e6"]
        for r in prefix_filter_pairs(
            ray.data.from_items(docs), num=1, den=2, k=3, n_parts=4
        ).take_all()
    }
    assert got == _brute_pairs(docs, 1, 2, k=3)


def test_prefix_pairs_bounded_df_table(ray_session):
    """A tiny df table (tail tokens all rank 0) must not change the result —
    the ordering is a performance heuristic, never a correctness input."""
    import ray.data

    from opentapioca_ray.stages.setjoin import prefix_filter_pairs

    docs = _corpus()
    got = {
        (r["u"], r["v"]): r["jacc_e6"]
        for r in prefix_filter_pairs(
            ray.data.from_items(docs), num=1, den=2, df_table_size=5, n_parts=4
        ).take_all()
    }
    assert got == _brute_pairs(docs, 1, 2)


def test_skew_cap_drops_are_logged(ray_session, caplog):
    """max_block_size=1 forces the cap path; the drop count is surfaced."""
    import logging

    import ray.data

    from opentapioca_ray.stages.setjoin import prefix_filter_pairs

    docs = _corpus()
    with caplog.at_level(logging.WARNING, logger="opentapioca_ray.stages.setjoin"):
        out = prefix_filter_pairs(
            ray.data.from_items(docs), num=1, den=2, max_block_size=1, n_parts=4
        ).take_all()
    full = _brute_pairs(docs, 1, 2)
    got = {(r["u"], r["v"]): r["jacc_e6"] for r in out}
    # capped run returns a subset with exact scores
    assert set(got) <= set(full)
    assert all(full[p] == s for p, s in got.items())
    assert any("max_block_size" in r.message for r in caplog.records)


def test_transitivity_audit_consistency(ray_session):
    """Audit invariants: the three categories partition the wedge mass
    exactly and every count is non-negative. (The planted near-dup
    clusters at sf0.001 happen to be perfectly transitive — 0 violations
    is the honest answer there, so the test pins the accounting, not a
    particular violation rate.)"""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    out = entry.queries()["transitivity_audit"]("/root/testdata/sf0.001")
    r = out.iloc[0]
    assert r["n_wedges"] >= r["n_wedge_pairs"] > 0
    assert (
        r["n_closed"] + r["n_violations"] + r["n_uncompared"] == r["n_wedges"]
    )
    assert r["n_violations"] >= 0 and r["n_uncompared"] >= 0
