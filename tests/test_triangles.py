"""Triangle counting + reduce-side shuffle_join."""
import numpy as np
import pandas as pd
import pytest
import ray.data

from opentapioca_ray.stages.relational import shuffle_join
from opentapioca_ray.stages.triangles import (
    _segment_pairs,
    cooccurrence_edges,
    count_triangles,
)


def test_segment_pairs_kernel():
    keys = np.array([1, 1, 1, 2, 3, 3])
    li, ri = _segment_pairs(keys)
    got = sorted(zip(li.tolist(), ri.tolist()))
    assert got == [(0, 1), (0, 2), (1, 2), (4, 5)]
    li, ri = _segment_pairs(np.zeros(0, dtype=np.int64))
    assert len(li) == 0 and len(ri) == 0


def test_cooccurrence_edges_distinct(ray_session):
    rows = [
        {"g": 1, "item": 3},
        {"g": 1, "item": 1},
        {"g": 1, "item": 2},
        {"g": 2, "item": 1},
        {"g": 2, "item": 2},  # (1,2) again via group 2 -> still one edge
        {"g": 2, "item": 2},  # duplicate item in group -> no self pair
    ]
    got = cooccurrence_edges(ray.data.from_items(rows), "g", "item").to_pandas()
    edges = sorted(map(tuple, got[["u", "v"]].to_numpy().tolist()))
    assert edges == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_count_triangles_known_graph(ray_session, monkeypatch, mode):
    # square 1-2-3-4 with one diagonal (1,3): exactly 2 triangles
    edges = [
        {"u": 1, "v": 2},
        {"u": 2, "v": 3},
        {"u": 3, "v": 4},
        {"u": 1, "v": 4},
        {"u": 1, "v": 3},
    ]
    if mode == "shuffle":
        from opentapioca_ray.stages import triangles

        monkeypatch.setattr(triangles, "_DEG_BROADCAST_LIMIT", 0)
    got = count_triangles(ray.data.from_items(edges)).take_all()
    assert got[0]["n_triangles"] == 2


def test_count_triangles_triangle_free(ray_session):
    # path graph: no triangles
    edges = [{"u": i, "v": i + 1} for i in range(1, 6)]
    got = count_triangles(ray.data.from_items(edges)).take_all()
    assert got[0]["n_triangles"] == 0


def test_shuffle_join_matches_pandas(ray_session):
    left = [{"k": i % 7, "x": i} for i in range(50)]
    right = [{"rk": k, "name": f"n{k}", "w": k * 1.5} for k in range(5)]  # keys 5,6 unmatched
    got = (
        shuffle_join(
            ray.data.from_items(left),
            ray.data.from_items(right),
            "k",
            "rk",
            ["name", "w"],
        )
        .to_pandas()
        .sort_values(["k", "x"])
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame(left)
        .merge(pd.DataFrame(right).rename(columns={"rk": "k"}), on="k")
        .sort_values(["k", "x"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "x", "name", "w"]], want[["k", "x", "name", "w"]])


def test_shuffle_join_mn_fanout(ray_session):
    left = [{"k": 1, "x": 1}, {"k": 1, "x": 2}]
    right = [{"k": 1, "y": 10}, {"k": 1, "y": 20}, {"k": 2, "y": 99}]
    got = shuffle_join(
        ray.data.from_items(left), ray.data.from_items(right), "k", "k", ["y"]
    ).to_pandas()
    assert len(got) == 4  # 2x2 fanout, key 2 dropped (inner)
