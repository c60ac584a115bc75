"""Delta-peel k-truss must match a full-recompute reference exactly.

Round 0 pays one full wedge pass; every later peel recomputes support only
for edges sharing a triangle with a dropped edge (frontier-restricted
wedge enumeration + per-triangle decrements). These tests pin the delta
path against a pure-Python full-recompute reference on random graphs,
including the unconverged (round-budget-exhausted) regime."""

import itertools

import numpy as np
import pandas as pd
import pytest


def _ref_ktruss(pairs, k, rounds):
    """Pure-Python reference: full support recompute per peel round,
    mirroring the SQL twin's unrolled semantics."""
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}

    def support(es):
        adj = {}
        for u, v in es:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return {(u, v): len(adj[u] & adj[v]) for u, v in es}

    thresh = k - 2
    for _ in range(rounds):
        if not edges:
            break
        sup = support(edges)
        kept = {e for e in edges if sup[e] >= thresh}
        if kept == edges:
            return {e: sup[e] for e in kept}
        edges = kept
    return support(edges)


def _run_ktruss(pairs, k, rounds, driver_limit=0):
    """`_KTRUSS_DRIVER_LIMIT` set to `driver_limit`: 0 forces the
    delta-distributed path; a large limit exercises the bounded driver
    numpy fast path."""
    import ray.data

    from opentapioca_ray.stages import triangles

    df = pd.DataFrame(pairs, columns=["u", "v"])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(triangles, "_KTRUSS_DRIVER_LIMIT", driver_limit)
        out = triangles.ktruss_edges(
            ray.data.from_pandas(df), k=k, rounds=rounds
        ).to_pandas()
    return {
        (int(r.u), int(r.v)): int(r.sup) for r in out.itertuples(index=False)
    }


@pytest.mark.parametrize("seed,k,rounds", [(1, 4, 6), (2, 5, 6), (3, 4, 2)])
def test_delta_peel_matches_reference_random(ray_session, seed, k, rounds):
    rng = np.random.default_rng(seed)
    n_nodes = 60
    m = 520
    pairs = list(
        zip(
            rng.integers(0, n_nodes, size=m).tolist(),
            rng.integers(0, n_nodes, size=m).tolist(),
        )
    )
    # the operator contract is a DISTINCT (u < v) edge set (what
    # cooccurrence_edges emits) — canonicalize the random multigraph
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    ref = _ref_ktruss(pairs, k, rounds)
    # delta-distributed path AND bounded driver fast path must both match
    assert _run_ktruss(pairs, k, rounds, driver_limit=0) == ref
    assert _run_ktruss(pairs, k, rounds, driver_limit=10**6) == ref


def test_delta_peel_multi_round_cascade(ray_session):
    """A chain of triangles sharing edges peels over several cascading
    rounds — exercises repeated delta updates, not just round one."""
    # ladder: triangles (i, i+1, i+2) for i in 0..8 plus a K4 core
    pairs = [(i, i + 1) for i in range(10)] + [(i, i + 2) for i in range(9)]
    pairs += list(itertools.combinations([20, 21, 22, 23], 2))
    pairs += [(9, 20)]
    pairs = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    for k in (3, 4, 5):
        ref = _ref_ktruss(pairs, k, 6)
        assert _run_ktruss(pairs, k, 6, driver_limit=0) == ref
        assert _run_ktruss(pairs, k, 6, driver_limit=10**6) == ref


def test_edge_support_shuffle_matches_broadcast(ray_session):
    """The exchange-only support pass (apex-carrying wedge emission +
    co-partitioned closure; no O(|E|) broadcast) must equal the broadcast
    closure bit-for-bit."""
    import ray.data

    from opentapioca_ray.stages.triangles import _edge_support

    rng = np.random.default_rng(21)
    pairs = sorted(
        {
            (min(u, v), max(u, v))
            for u, v in zip(
                rng.integers(0, 50, 400).tolist(),
                rng.integers(0, 50, 400).tolist(),
            )
            if u != v
        }
    )
    ds = ray.data.from_pandas(pd.DataFrame(pairs, columns=["u", "v"]))

    def run(mode):
        out = _edge_support(ds, mode=mode).to_pandas()
        return {
            (int(r.u), int(r.v)): int(r.sup)
            for r in out.itertuples(index=False)
        }

    b = run("broadcast")
    s = run("shuffle")
    assert len(b) == len(pairs) > 0
    assert b == s


def test_ktruss_full_exchange_regime_matches_reference(ray_session, monkeypatch):
    """`_SUPPORT_BROADCAST_LIMIT` = 0 forces the per-round exchange-only
    peel; it must match the full-recompute reference exactly."""
    import ray.data

    from opentapioca_ray.stages import triangles

    rng = np.random.default_rng(9)
    pairs = sorted(
        {
            (min(u, v), max(u, v))
            for u, v in zip(
                rng.integers(0, 40, 350).tolist(),
                rng.integers(0, 40, 350).tolist(),
            )
            if u != v
        }
    )
    ref = _ref_ktruss(pairs, 4, 6)
    df = pd.DataFrame(pairs, columns=["u", "v"])
    monkeypatch.setattr(triangles, "_KTRUSS_DRIVER_LIMIT", 0)
    monkeypatch.setattr(triangles, "_SUPPORT_BROADCAST_LIMIT", 0)
    out = triangles.ktruss_edges(ray.data.from_pandas(df), k=4, rounds=6).to_pandas()
    got = {(int(r.u), int(r.v)): int(r.sup) for r in out.itertuples(index=False)}
    assert got == ref
