import numpy as np
import pytest

from opentapioca_ray.stages.cc import (
    connected_components,
    connected_components_local,
)


def test_local_union_find():
    comp = connected_components_local([(1, 2), (2, 3), (10, 11), (5, 5)])
    assert comp[1] == comp[2] == comp[3] == 1
    assert comp[10] == comp[11] == 10
    assert comp[5] == 5


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 2), (2, 3), (4, 5)],
        [(i, i + 1) for i in range(0, 30)],  # long chain
        [(0, 1), (2, 3), (1, 2), (10, 20), (20, 30), (30, 10)],
        [(7, 7)],
    ],
)
def test_distributed_matches_local(ray_session, monkeypatch, edges):
    import ray.data

    from opentapioca_ray.stages import cc

    ds = ray.data.from_items([{"u": u, "v": v} for u, v in edges])
    want = connected_components_local(edges)
    # scale-adaptive local path
    got_local = {
        r["node"]: r["component"] for r in connected_components(ds).take_all()
    }
    assert got_local == want
    # a zero edge limit forces the large-star/small-star shuffle path
    monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", 0)
    got = {
        r["node"]: r["component"] for r in connected_components(ds).take_all()
    }
    assert got == want


def _random_graph(seed: int) -> list[tuple[int, int]]:
    """Sparse random edges plus self-loops, duplicate edges, both
    orientations of some edges and a long chain."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(10_000, size=300, replace=False)
    u = rng.choice(ids, size=120)
    v = rng.choice(ids, size=120)
    edges = list(zip(u.tolist(), v.tolist()))
    edges += [(int(x), int(x)) for x in rng.choice(ids, size=10)]  # self-loops
    edges += edges[:15]  # duplicates
    edges += [(b, a) for a, b in edges[15:30]]  # reversed orientation
    chain = np.arange(20_000, 20_200) * 3 + seed
    edges += list(zip(chain[1:].tolist(), chain[:-1].tolist()))
    order = rng.permutation(len(edges))
    return [edges[i] for i in order]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_regime_one_block_matches_union_find(ray_session, seed):
    import pyarrow as pa
    import ray
    import ray.data

    from opentapioca_ray.stages.exchange import as_arrow_block, block_refs

    edges = _random_graph(seed)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "u": pa.array([e[0] for e in edges], pa.int64()),
                "v": pa.array([e[1] for e in edges], pa.int64()),
            }
        )
    ).repartition(4)
    out = connected_components(ds)
    refs = block_refs(out)
    assert len(refs) == 1
    table = as_arrow_block(ray.get(refs[0]))
    nodes = table.column("node").to_pylist()
    assert nodes == sorted(nodes)
    want = connected_components_local(edges)
    assert dict(zip(nodes, table.column("component").to_pylist())) == want


def test_local_regime_empty_edges(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.exchange import arrow_blocks

    schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    tables = list(arrow_blocks(connected_components(ray.data.from_arrow(schema.empty_table()))))
    assert [t.num_rows for t in tables] == [0]
    assert tables[0].schema == pa.schema(
        [("node", pa.int64()), ("component", pa.int64())]
    )
