"""Synchronous label propagation (stages/lpa.py)."""

import numpy as np


def _lpa_replay(edges, rounds):
    """Driver-side replay of the exact LPA semantics (self-vote, ties ->
    smallest label)."""
    from collections import Counter, defaultdict

    adj = defaultdict(list)
    nodes = set()
    for u, v in set(edges):
        adj[u].append(v)
        adj[v].append(u)
        nodes.update((u, v))
    labels = {n: n for n in nodes}
    for _ in range(rounds):
        nxt = {}
        for n in nodes:
            votes = Counter(labels[m] for m in adj[n])
            votes[labels[n]] += 1
            best = min(votes.items(), key=lambda kv: (-kv[1], kv[0]))
            nxt[n] = best[0]
        labels = nxt
    return labels


def _clique_edges(members):
    return [
        (a, b) for i, a in enumerate(members) for b in members[i + 1 :]
    ]


def test_lpa_matches_replay_and_splits_cliques(ray_session):
    import ray.data

    from opentapioca_ray.stages.lpa import label_propagation

    left = list(range(10))
    right = list(range(100, 110))
    edges = _clique_edges(left) + _clique_edges(right) + [(9, 100)]  # bridge
    ds = ray.data.from_items([{"u": u, "v": v} for u, v in edges])
    got = {
        r["node"]: r["label"]
        for r in label_propagation(ds, rounds=4, n_parts=4).take_all()
    }
    exp = _lpa_replay(edges, 4)
    assert got == exp
    # the two cliques resolve to different single labels
    left_labels = {got[n] for n in left}
    right_labels = {got[n] for n in right}
    assert len(left_labels) == 1 and len(right_labels) == 1
    assert left_labels != right_labels


def test_lpa_parallel_edges_do_not_double_vote(ray_session):
    import ray.data

    from opentapioca_ray.stages.lpa import label_propagation

    edges = [(1, 2), (1, 2), (2, 1), (2, 3)]
    ds = ray.data.from_items([{"u": u, "v": v} for u, v in edges])
    got = {
        r["node"]: r["label"]
        for r in label_propagation(ds, rounds=3, n_parts=4).take_all()
    }
    exp = _lpa_replay([(1, 2), (2, 3)], 3)
    assert got == exp


def test_lpa_broadcast_equals_shuffle(ray_session, monkeypatch):
    import numpy as np
    import ray.data

    from opentapioca_ray.stages import lpa
    from opentapioca_ray.stages.lpa import label_propagation

    rng = np.random.default_rng(3)
    edges = list(
        {
            (int(u), 500 + int(v))
            for u, v in zip(rng.integers(0, 40, 200), rng.integers(0, 15, 200))
        }
    )
    ds = ray.data.from_items([{"u": u, "v": v} for u, v in edges])
    bc = sorted(
        (r["node"], r["label"])
        for r in label_propagation(ds, rounds=4, n_parts=4).take_all()
    )
    monkeypatch.setattr(lpa, "_LABEL_BROADCAST_LIMIT", 0)
    sh = sorted(
        (r["node"], r["label"])
        for r in label_propagation(ds, rounds=4, n_parts=4).take_all()
    )
    assert bc == sh
