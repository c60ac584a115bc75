"""Two-hop candidate expansion and degree-capped sparsification."""

import pyarrow as pa


def test_two_hop_pairs(ray_session):
    import ray.data

    from opentapioca_ray.stages.graphops import two_hop_pairs

    # path 1-2-3 plus edge 3-4: two-hop candidates are (1,3) via 2,
    # (2,4) via 3; (1,2) etc. are edges and must not appear
    t = pa.table({"u": [1, 2, 3], "v": [2, 3, 4]})
    out = two_hop_pairs(ray.data.from_arrow(t).repartition(2)).to_pandas()
    got = {(r["u"], r["v"]): r["n_mids"] for _, r in out.iterrows()}
    assert got == {(1, 3): 1, (2, 4): 1}


def test_two_hop_excludes_existing_edge(ray_session):
    import ray.data

    from opentapioca_ray.stages.graphops import two_hop_pairs

    # triangle 1-2-3: every 2-hop pair is already an edge -> empty
    t = pa.table({"u": [1, 1, 2], "v": [2, 3, 3]})
    out = two_hop_pairs(ray.data.from_arrow(t).repartition(2)).to_pandas()
    assert len(out) == 0


def test_sparsify_edges_keeps_mutual_knn(ray_session):
    import ray.data

    from opentapioca_ray.stages.graphops import sparsify_edges

    # star: node 1 connects to 2,3,4,5 with weights 1,2,3,4 (k=2 keeps
    # edges to 2 and 3 from node 1's side); leaves nominate their only
    # edge, so ALL edges survive via the leaf side
    t = pa.table(
        {
            "u": [1, 1, 1, 1],
            "v": [2, 3, 4, 5],
            "w": [1, 2, 3, 4],
        }
    )
    out = sparsify_edges(
        ray.data.from_arrow(t).repartition(2), "w", k=2
    ).to_pandas()
    assert len(out) == 4

    # two stars sharing hubs: only hub-side nominations can keep an edge
    # between two high-degree nodes
    t2 = pa.table(
        {
            "u": [1, 1, 1, 2, 2, 2],
            "v": [3, 4, 5, 3, 4, 5],
            "w": [1, 2, 3, 1, 2, 3],
        }
    )
    out2 = sparsify_edges(
        ray.data.from_arrow(t2).repartition(3), "w", k=1
    ).to_pandas()
    got = set(zip(out2["u"], out2["v"]))
    # hubs 1,2 nominate their w=1 edge (to 3); nodes 3,4,5 nominate their
    # lowest-w incident edge (to 1, by partner tie-break w equal? no -
    # 3: edges (1,3,w1),(2,3,w1) tie on w -> partner id 1 wins;
    # 4: (1,4,w2),(2,4,w2) -> 1; 5: (1,5,w3),(2,5,w3) -> 1)
    assert got == {(1, 3), (2, 3), (1, 4), (1, 5)}


def test_multi_source_hops_path_graph(ray_session, monkeypatch):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages import cc
    from opentapioca_ray.stages.graphops import multi_source_hops

    # path 1-2-3-4-5, landmarks 1 and 5, 3 rounds
    edges = ray.data.from_arrow(
        pa.table({"u": [1, 2, 3, 4], "v": [2, 3, 4, 5]})
    )
    seeds = ray.data.from_arrow(pa.table({"node": [1, 5]}))
    for limit in (cc._LOCAL_EDGE_LIMIT, 0):  # local kernel AND exchange rounds
        monkeypatch.setattr(cc, "_LOCAL_EDGE_LIMIT", limit)
        out = (
            multi_source_hops(edges, seeds, rounds=3)
            .to_pandas()
            .set_index(["lm", "node"])["dist"]
            .to_dict()
        )
        expect = {
            (1, 1): 0, (1, 2): 1, (1, 3): 2, (1, 4): 3,
            (5, 5): 0, (5, 4): 1, (5, 3): 2, (5, 2): 3,
        }
        assert out == expect


def test_landmark_closeness_query(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    out = entry.queries()["landmark_closeness"]("/root/testdata/sf0.001").to_pandas()
    assert sorted(out.columns) == ["closeness_u", "entity", "key", "n_lm"]
    assert len(out) > 0
    # sf0.001 has exactly one landmark (p_partkey 0): every reached node
    # has n_lm == 1 and closeness is one exact reciprocal term
    assert (out["n_lm"] == 1).all()
    assert out["closeness_u"].isin([1_000_000, 500_000, 333_333, 250_000]).all()


def test_stress_centrality_path_graph(ray_session):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.graphops import stress_centrality

    # path 1-2-3-4-5, seed 1, radius 4: sigma=1 everywhere,
    # paths(v) = nodes downstream + 1 -> stress(v) = #paths through v
    edges = ray.data.from_arrow(
        pa.table({"u": [1, 2, 3, 4], "v": [2, 3, 4, 5]})
    )
    seeds = ray.data.from_arrow(pa.table({"node": [1]}))
    out = (
        stress_centrality(edges, seeds, rounds=4)
        .to_pandas()
        .set_index("node")["stress"]
        .to_dict()
    )
    # paths: 5->1, 4->2, 3->3, 2->4, 1->5; stress = sigma*(paths-1)
    assert out == {1: 4, 2: 3, 3: 2, 4: 1, 5: 0}

    # diamond 1-2-4, 1-3-4: sigma(4)=2; through-2 paths: 2 itself + (2,4)
    edges2 = ray.data.from_arrow(
        pa.table({"u": [1, 1, 2, 3], "v": [2, 3, 4, 4]})
    )
    out2 = (
        stress_centrality(edges2, ray.data.from_arrow(pa.table({"node": [1]})), rounds=4)
        .to_pandas()
        .set_index("node")["stress"]
        .to_dict()
    )
    # paths(4)=1, paths(2)=paths(3)=2, paths(1)=5
    # stress: 1: 1*(5-1)=4; 2: 1*(2-1)=1; 3: 1; 4: 2*(1-1)=0
    assert out2 == {1: 4, 2: 1, 3: 1, 4: 0}


def test_stress_centrality_isolated_seed(ray_session):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.graphops import stress_centrality

    edges = ray.data.from_arrow(pa.table({"u": [1], "v": [2]}))
    seeds = ray.data.from_arrow(pa.table({"node": [99]}))
    out = stress_centrality(edges, seeds, rounds=2).to_pandas()
    assert out["node"].tolist() == [99]
    assert out["stress"].tolist() == [0]


def test_link_prediction_path_and_triangle(ray_session):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.graphops import link_prediction

    # path 1-2-3: the only non-adjacent pair is (1,3) with Jaccard 1/1
    edges = ray.data.from_arrow(pa.table({"u": [1, 2], "v": [2, 3]}))
    out = link_prediction(edges).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.u, r.v, r.cn, r.du, r.dv, r.jaccard_e6) == (1, 3, 1, 1, 1, 1_000_000)

    # triangle 1-2-3 plus pendant 3-4: (1,4) and (2,4) via middle 3,
    # Jaccard 1/(2+1-1) = 0.5; adjacent pairs never appear
    edges = ray.data.from_arrow(
        pa.table({"u": [1, 2, 1, 3], "v": [2, 3, 3, 4]})
    )
    out = (
        link_prediction(edges)
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, out[["u", "v", "cn", "du", "dv", "jaccard_e6"]].values)) == [
        (1, 4, 1, 2, 1, 500_000),
        (2, 4, 1, 2, 1, 500_000),
    ]


def test_ktruss_peels_pendant_triangle(ray_session):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.triangles import ktruss_edges

    # K4 on {1,2,3,4} (every edge support 2) + pendant triangle {4,5,6}
    # (support 1, peeled in round one) + isolated edge (7,8)
    edges = ray.data.from_arrow(
        pa.table(
            {
                "u": [1, 1, 1, 2, 2, 3, 4, 4, 5, 7],
                "v": [2, 3, 4, 3, 4, 4, 5, 6, 6, 8],
            }
        )
    )
    out = (
        ktruss_edges(edges, k=4, rounds=6)
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, out[["u", "v", "sup"]].values)) == [
        (1, 2, 2),
        (1, 3, 2),
        (1, 4, 2),
        (2, 3, 2),
        (2, 4, 2),
        (3, 4, 2),
    ]


def test_ktruss_empty_when_no_truss(ray_session):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.triangles import ktruss_edges

    # single triangle: support 1 < 2 -> everything peeled
    edges = ray.data.from_arrow(pa.table({"u": [1, 1, 2], "v": [2, 3, 3]}))
    out = ktruss_edges(edges, k=4, rounds=4).to_pandas()
    assert len(out) == 0


def test_butterfly_count_hand_case(ray_session):
    import pandas as pd
    import ray.data

    from opentapioca_ray.stages.triangles import butterfly_count

    # K2,2 on lefts {1,2} x rights {10,20} = exactly one butterfly;
    # left 3 attaches to right 10 only (adds wedges, no butterfly);
    # a duplicate edge row must not inflate anything
    df = pd.DataFrame(
        {
            "l": [1, 1, 2, 2, 3, 3],
            "r": [10, 20, 10, 20, 10, 10],
        }
    )
    out = butterfly_count(ray.data.from_pandas(df), "l", "r").to_pandas()
    row = out.iloc[0]
    # distinct edges: (1,10),(1,20),(2,10),(2,20),(3,10) = 5
    assert row.n_edges == 5
    # co-neighbor pairs: (1,2) cn=2; (1,3) cn=1; (2,3) cn=1
    assert row.n_left_pairs == 3
    assert row.n_wedges == 4
    assert row.n_butterflies == 1


def test_rich_club_star_plus_clique(ray_session):
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.graphops import rich_club

    # triangle {1,2,3} (degrees 3,2,2 via pendant) + pendant 1-4
    edges = ray.data.from_arrow(
        pa.table({"u": [1, 1, 2, 1], "v": [2, 3, 3, 4]})
    )
    out = (
        rich_club(edges, ks=[1, 2])
        .to_pandas()
        .set_index("k")
    )
    # k=1: nodes with degree>1 = {1,2,3}; induced edges = triangle (3)
    assert out.loc[1, "n_nodes"] == 3
    assert out.loc[1, "n_edges"] == 3
    assert out.loc[1, "phi_e6"] == 1_000_000
    # k=2: only node 1 (degree 3) -> no pairs
    assert out.loc[2, "n_nodes"] == 1
    assert out.loc[2, "phi_e6"] == 0
