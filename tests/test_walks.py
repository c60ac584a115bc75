"""Deterministic random walks (stages/walks.py)."""

import hashlib

import numpy as np


def _replay(edges, steps):
    """Driver-side replay of the indexed walk rule: from node n, walker w
    moves to sorted(neighbors)[md5_u64(f"{w}:{t}") % deg(n)]."""
    from collections import defaultdict

    adj = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def key(w, t):
        return int.from_bytes(
            hashlib.md5(f"{w}:{t}".encode()).digest()[:8], "big"
        )

    rows = set()
    for w in adj:
        node = w
        rows.add((w, 0, node))
        for t in range(steps):
            nb = sorted(adj[node])
            node = nb[key(w, t) % len(nb)]
            rows.add((w, t + 1, node))
    return rows


def test_walks_match_replay(ray_session):
    import ray.data

    from opentapioca_ray.stages.walks import random_walks

    rng = np.random.default_rng(21)
    edges = list(
        {
            (int(u), 100 + int(v))
            for u, v in zip(rng.integers(0, 25, 120), rng.integers(0, 10, 120))
        }
    )
    ds = ray.data.from_items([{"u": u, "v": v} for u, v in edges])
    got = {
        (r["walker"], r["step"], r["node"])
        for r in random_walks(ds, steps=3, n_parts=4).take_all()
    }
    assert got == _replay(edges, 3)


def test_walks_are_reproducible(ray_session):
    import ray.data

    from opentapioca_ray.stages.walks import random_walks

    edges = [{"u": 1, "v": 10}, {"u": 1, "v": 11}, {"u": 10, "v": 11}]
    r1 = sorted(
        (r["walker"], r["step"], r["node"])
        for r in random_walks(
            ray.data.from_items(edges), steps=5, n_parts=2
        ).take_all()
    )
    r2 = sorted(
        (r["walker"], r["step"], r["node"])
        for r in random_walks(
            ray.data.from_items(edges).repartition(3), steps=5, n_parts=7
        ).take_all()
    )
    assert r1 == r2  # independent of partitioning and block layout

def test_walks_broadcast_equals_shuffle(ray_session, monkeypatch):
    import ray.data

    from opentapioca_ray.stages.walks import random_walks

    rng = np.random.default_rng(7)
    edges = list(
        {
            (int(u), 200 + int(v))
            for u, v in zip(rng.integers(0, 30, 150), rng.integers(0, 12, 150))
        }
    )
    ds = ray.data.from_items([{"u": u, "v": v} for u, v in edges])
    from opentapioca_ray.stages import walks

    bc = sorted(
        (r["walker"], r["step"], r["node"])
        for r in random_walks(ds, steps=3, n_parts=4).take_all()
    )
    monkeypatch.setattr(walks, "_WALK_BROADCAST_LIMIT", 0)
    sh = sorted(
        (r["walker"], r["step"], r["node"])
        for r in random_walks(ds, steps=3, n_parts=4).take_all()
    )
    assert bc == sh
    assert set(bc) == _replay(edges, 3)
