"""HITS hubs & authorities (stages/hits.py)."""

import numpy as np


def _edges(rows):
    import ray.data

    return ray.data.from_items([{"src": s, "dst": d} for s, d in rows])


def test_hits_star_semantics(ray_session):
    """Hubs all point at one authority: the center maxes the authority
    scale (1e9), every pointing hub maxes the hub scale."""
    from opentapioca_ray.stages.hits import hits_scores

    rows = [(i, 100) for i in range(5)] + [(1, 200)]
    hubs, auths = hits_scores(_edges(rows), rounds=3)
    h = {r["node"]: r["score"] for r in hubs.take_all()}
    a = {r["node"]: r["score"] for r in auths.take_all()}
    assert a[100] == 1_000_000_000  # the shared target dominates
    assert a[200] < a[100]
    assert h[1] == 1_000_000_000  # node 1 points at both targets
    assert all(h[i] < h[1] for i in (0, 2, 3, 4))


def test_hits_broadcast_equals_shuffle(ray_session, monkeypatch):
    """The two execution regimes are the same function."""
    from opentapioca_ray.stages import hits
    from opentapioca_ray.stages.hits import hits_scores

    rng = np.random.default_rng(6)
    rows = list(
        {(int(s), 1000 + int(d)) for s, d in zip(rng.integers(0, 40, 300), rng.integers(0, 15, 300))}
    )
    h1, a1 = hits_scores(_edges(rows), rounds=3, n_parts=4)
    monkeypatch.setattr(hits, "_SCORE_BROADCAST_LIMIT", 0)
    h2, a2 = hits_scores(_edges(rows), rounds=3, n_parts=4)
    assert {(r["node"], r["score"]) for r in h1.take_all()} == {
        (r["node"], r["score"]) for r in h2.take_all()
    }
    assert {(r["node"], r["score"]) for r in a1.take_all()} == {
        (r["node"], r["score"]) for r in a2.take_all()
    }


def test_hits_parallel_edges_collapse(ray_session):
    from opentapioca_ray.stages.hits import hits_scores

    h1, a1 = hits_scores(_edges([(1, 10), (1, 10), (2, 10)]), rounds=2)
    h2, a2 = hits_scores(_edges([(1, 10), (2, 10)]), rounds=2)
    assert sorted((r["node"], r["score"]) for r in h1.take_all()) == sorted(
        (r["node"], r["score"]) for r in h2.take_all()
    )
