"""Fixed-round Bellman-Ford: kernel semantics + distributed/local parity."""

import numpy as np


def _ref_sssp(edges, seeds, rounds):
    dist = {s: 0 for s in seeds}
    for _ in range(rounds):
        nxt = dict(dist)
        for u, v, w in edges:
            if u in dist:
                nxt[v] = min(nxt.get(v, 1 << 60), dist[u] + w)
            if v in dist:
                nxt[u] = min(nxt.get(u, 1 << 60), dist[v] + w)
        if nxt == dist:
            break
        dist = nxt
    return dist


def _sssp_kernel(u, v, w, seeds, rounds):
    """The shared hop kernel with one landmark."""
    from opentapioca_ray.stages.graphops import _hops_kernel

    _, nodes, dist = _hops_kernel(
        u, v, w, np.zeros(len(seeds), np.int64), seeds, rounds
    )
    return nodes, dist


def test_sssp_kernel_matches_reference():
    rng = np.random.default_rng(11)
    u = rng.integers(0, 200, 250).astype(np.int64)
    v = (rng.integers(0, 200, 250) + 500).astype(np.int64)
    w = rng.integers(1, 9, 250).astype(np.int64)
    seeds = np.unique(rng.integers(0, 200, 5)).astype(np.int64)
    nodes, dist = _sssp_kernel(u, v, w, seeds, rounds=4)
    got = dict(zip(nodes.tolist(), dist.tolist()))
    want = _ref_sssp(
        list(zip(u.tolist(), v.tolist(), w.tolist())), seeds.tolist(), 4
    )
    assert got == want


def test_sssp_prefers_cheap_multi_hop_over_heavy_direct():
    # 0 -10-> 3 direct, but 0 -1-> 1 -1-> 2 -1-> 3 is cheaper
    u = np.array([0, 0, 1, 2], dtype=np.int64)
    v = np.array([3, 1, 2, 3], dtype=np.int64)
    w = np.array([10, 1, 1, 1], dtype=np.int64)
    nodes, dist = _sssp_kernel(u, v, w, np.array([0], dtype=np.int64), 4)
    got = dict(zip(nodes.tolist(), dist.tolist()))
    assert got == {0: 0, 1: 1, 2: 2, 3: 3}


def test_sssp_isolated_seed_kept():
    nodes, dist = _sssp_kernel(
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.int64),
        np.array([5], dtype=np.int64),
        np.array([99], dtype=np.int64),
        rounds=3,
    )
    assert dict(zip(nodes.tolist(), dist.tolist())) == {99: 0}


def test_distributed_matches_local(ray_session, monkeypatch):
    import ray.data

    from opentapioca_ray.stages import cc
    from opentapioca_ray.stages.graphops import weighted_hops

    rng = np.random.default_rng(5)
    seen = set()
    rows = []
    for _ in range(300):
        a, b = int(rng.integers(0, 80)), int(rng.integers(80, 160))
        if (a, b) not in seen:
            seen.add((a, b))
            rows.append({"u": a, "v": b, "w": int(rng.integers(1, 7))})
    seed_rows = [{"node": int(n)} for n in range(0, 80, 17)] + [{"node": 9999}]

    def run():
        ds = ray.data.from_items(rows).repartition(4)
        sd = ray.data.from_items(seed_rows).repartition(2)
        out = weighted_hops(ds, sd, rounds=5).to_pandas()
        return dict(zip(out["node"], out["dist"]))

    got_local = run()
    monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", 0)  # the exchange rounds
    got_dist = run()
    assert got_local == got_dist
    assert got_local[9999] == 0  # isolated seed survives both paths
