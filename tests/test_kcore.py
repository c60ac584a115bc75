"""Fixed-round k-core peel: kernel semantics + distributed/local parity."""

import numpy as np
import pyarrow as pa


def _ref_peel(edges, k, rounds):
    edges = set(edges)
    for _ in range(rounds):
        deg = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        nxt = {(u, v) for u, v in edges if deg[u] >= k and deg[v] >= k}
        if nxt == edges:
            break
        edges = nxt
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def test_peel_kernel_matches_reference():
    from opentapioca_ray.stages.graphops import _peel_kernel

    rng = np.random.default_rng(9)
    u = rng.integers(0, 60, 300).astype(np.int64)
    v = (rng.integers(0, 60, 300) + 100).astype(np.int64)
    # dedup edges
    packed = set(zip(u.tolist(), v.tolist()))
    u = np.array([a for a, _ in packed], dtype=np.int64)
    v = np.array([b for _, b in packed], dtype=np.int64)
    ku, kv = _peel_kernel(u.copy(), v.copy(), k=3, rounds=20)
    want = _ref_peel(list(zip(u.tolist(), v.tolist())), 3, 20)
    got = {}
    for a, b in zip(ku.tolist(), kv.tolist()):
        got[a] = got.get(a, 0) + 1
        got[b] = got.get(b, 0) + 1
    assert got == want


def test_distributed_matches_local(ray_session, monkeypatch):
    import ray.data

    from opentapioca_ray.stages import cc
    from opentapioca_ray.stages.graphops import kcore_degrees

    rng = np.random.default_rng(2)
    seen = set()
    rows = []
    for _ in range(400):
        a, b = int(rng.integers(0, 50)), int(rng.integers(50, 90))
        if (a, b) not in seen:
            seen.add((a, b))
            rows.append({"u": a, "v": b})

    def run():
        ds = ray.data.from_items(rows).repartition(4)
        out = kcore_degrees(ds, k=3, rounds=6).to_pandas()
        return dict(zip(out["node"], out["degree"]))

    got_local = run()
    monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", 0)  # the exchange rounds
    assert got_local == run()
    assert got_local  # the 3-core is not empty
