"""Fixed-round BFS: kernel semantics + distributed/local parity, and
the three hop operators against a plain-Python reference in both
regimes."""

import numpy as np
import pyarrow as pa
import pytest


def _ref_bfs(edges, seeds, rounds):
    """Synchronous relaxation; an edge (u, v, w) costs w, an edge (u, v)
    costs 1."""
    dist = {s: 0 for s in seeds}
    for _ in range(rounds):
        nxt = dict(dist)
        for u, v, *w in edges:
            w = w[0] if w else 1
            if u in dist:
                nxt[v] = min(nxt.get(v, 1 << 60), dist[u] + w)
            if v in dist:
                nxt[u] = min(nxt.get(u, 1 << 60), dist[v] + w)
        if nxt == dist:
            break
        dist = nxt
    return dist


def _bfs_kernel(u, v, seeds, rounds):
    """The shared hop kernel with unit weights and one landmark."""
    from opentapioca_ray.stages.graphops import _hops_kernel

    _, nodes, dist = _hops_kernel(
        u, v, np.ones(len(u), np.int64), np.zeros(len(seeds), np.int64), seeds, rounds
    )
    return nodes, dist


def test_bfs_kernel_matches_reference():
    rng = np.random.default_rng(7)
    u = rng.integers(0, 200, 250).astype(np.int64)
    v = (rng.integers(0, 200, 250) + 500).astype(np.int64)
    seeds = np.unique(rng.integers(0, 200, 5)).astype(np.int64)
    nodes, dist = _bfs_kernel(u, v, seeds, rounds=4)
    got = dict(zip(nodes.tolist(), dist.tolist()))
    want = _ref_bfs(list(zip(u.tolist(), v.tolist())), seeds.tolist(), 4)
    assert got == want


def test_bfs_isolated_seed_kept():
    nodes, dist = _bfs_kernel(
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.int64),
        np.array([99], dtype=np.int64),
        rounds=3,
    )
    assert dict(zip(nodes.tolist(), dist.tolist())) == {99: 0}


def test_distributed_matches_local(ray_session, monkeypatch):
    import ray.data

    from opentapioca_ray.stages import cc
    from opentapioca_ray.stages.graphops import bfs_hops

    rng = np.random.default_rng(3)
    seen = set()
    rows = []
    for _ in range(300):
        a, b = int(rng.integers(0, 80)), int(rng.integers(80, 160))
        if (a, b) not in seen:
            seen.add((a, b))
            rows.append({"u": a, "v": b})
    seed_rows = [{"node": int(n)} for n in range(0, 80, 17)] + [{"node": 9999}]

    def run():
        ds = ray.data.from_items(rows).repartition(4)
        sd = ray.data.from_items(seed_rows).repartition(2)
        out = bfs_hops(ds, sd, rounds=5).to_pandas()
        return dict(zip(out["node"], out["dist"]))

    got_local = run()
    monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", 0)  # the exchange rounds
    got_dist = run()
    assert got_local == got_dist
    assert got_local[9999] == 0  # isolated seed survives both paths


_W = [(1, 2, 1), (2, 3, 2)]  # the weighted path 1-2-3


def _random_graph():
    rng = np.random.default_rng(13)
    pairs = sorted({(int(a), int(b)) for a, b in rng.integers(0, 40, (70, 2)) if a != b})
    return [(a, b, int(rng.integers(0, 6))) for a, b in pairs]


@pytest.mark.parametrize(
    "edges,seeds,rounds",
    [
        (_random_graph(), [3, 17, 17, 999], 3),
        ([], [4, 9], 2),
        (_W, [1, 1], 2),
        (_W, [1, 1], 0),
    ],
    ids=["random-offgraph-dup", "no-edges", "dup-seeds", "dup-seeds-rounds0"],
)
@pytest.mark.parametrize("limit", [None, -1], ids=["driver", "exchange"])
def test_hop_operators_match_reference(ray_session, monkeypatch, limit, edges, seeds, rounds):
    """bfs_hops, weighted_hops and multi_source_hops against `_ref_bfs`,
    on the driver kernel and (edge limit below 0, so even an empty graph
    takes them) the exchange rounds."""
    import ray.data

    from opentapioca_ray.stages import cc
    from opentapioca_ray.stages.graphops import bfs_hops, multi_source_hops, weighted_hops

    if limit is not None:
        monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", limit)
    cols = list(zip(*edges)) or [[], [], []]
    ds = ray.data.from_arrow(
        pa.table({k: pa.array(c, pa.int64()) for k, c in zip("uvw", cols)})
    ).repartition(3)
    sd = ray.data.from_arrow(pa.table({"node": pa.array(seeds, pa.int64())}))
    unweighted = [(u, v) for u, v, _ in edges]

    def rows(out, names):
        return sorted(map(tuple, out.to_pandas()[names].itertuples(index=False)))

    got = rows(bfs_hops(ds.select_columns(["u", "v"]), sd, rounds, n_parts=4), ["node", "dist"])
    assert got == sorted(_ref_bfs(unweighted, seeds, rounds).items())
    got = rows(weighted_hops(ds, sd, rounds, n_parts=4), ["node", "dist"])
    assert got == sorted(_ref_bfs(edges, seeds, rounds).items())
    got = rows(
        multi_source_hops(ds.select_columns(["u", "v"]), sd, rounds, n_parts=4),
        ["lm", "node", "dist"],
    )
    want = sorted(
        (s, n, d) for s in set(seeds) for n, d in _ref_bfs(unweighted, [s], rounds).items()
    )
    assert got == want
