"""Forced distributed/shuffle regimes must match the driver small-regime
results — the correctness contract behind the scale-adaptive switches."""

import numpy as np
import pandas as pd
import pytest


def _files(ray_session):
    import ray.data

    from opentapioca_ray.sources.files import read_files

    return read_files("/root/testdata/sf0.001").materialize()


def test_build_id_pairs_modes_agree(ray_session):
    from opentapioca_ray.pipelines.linkage import build_id_pairs

    files = _files(ray_session)
    cols = ["left_id", "right_id", "capped", "nb_bands"]
    a = (
        build_id_pairs(files, mode="driver")
        .to_pandas()[cols]
        .astype("int64")
        .sort_values(cols)
        .reset_index(drop=True)
    )
    b = (
        build_id_pairs(files, mode="shuffle")
        .to_pandas()[cols]
        .astype("int64")
        .sort_values(cols)
        .reset_index(drop=True)
    )
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_count_edges_modes_agree(ray_session):
    import ray.data

    from opentapioca_ray.pipelines.pagerank import count_edges

    li = ray.data.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    cols = ["src", "dst", "count"]
    a = (
        count_edges(li, "l_partkey", "l_suppkey", mode="driver")
        .to_pandas()[cols]
        .astype("int64")
        .sort_values(cols)
        .reset_index(drop=True)
    )
    li2 = ray.data.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    b = (
        count_edges(li2, "l_partkey", "l_suppkey", mode="shuffle")
        .to_pandas()[cols]
        .astype("int64")
        .sort_values(cols)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_linkage_distributed_matches_adaptive(ray_session):
    from opentapioca_ray.pipelines.linkage import DRIVER_COLLECTS, linkage_clusters
    from opentapioca_ray.sources.files import read_files

    files = read_files("/root/testdata/sf0.001")
    adaptive, _ = linkage_clusters(files, model=None, threshold=0.2)
    before = DRIVER_COLLECTS["pairs_proportional"]
    dist, _ = linkage_clusters(
        read_files("/root/testdata/sf0.001"), model=None, threshold=0.2, distributed=True
    )
    a = {r["node"]: r["component"] for r in adaptive.take_all()}
    b = {r["node"]: r["component"] for r in dist.take_all()}
    assert a == b and len(a) > 0
    # the scaling contract: the forced-distributed path moves NOTHING
    # proportional to #pairs/#candidates through the driver
    assert DRIVER_COLLECTS["pairs_proportional"] == before


def test_attach_pair_tokens_modes_agree(ray_session):
    from opentapioca_ray.pipelines.linkage import (
        DRIVER_COLLECTS,
        attach_pair_tokens,
        build_id_pairs,
    )

    files = _files(ray_session)
    pairs = build_id_pairs(files, mode="driver").materialize()
    cols = [
        "left_id", "right_id", "capped", "nb_bands",
        "left_repo", "left_packed", "right_repo", "right_packed",
    ]
    a = attach_pair_tokens(pairs, files, mode="driver").to_pandas()[cols]
    before = DRIVER_COLLECTS["pairs_proportional"]
    b = attach_pair_tokens(pairs, files, mode="shuffle").to_pandas()[cols]
    assert DRIVER_COLLECTS["pairs_proportional"] == before
    a = a.sort_values(cols).reset_index(drop=True)
    b = b.sort_values(cols).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_sorted_edge_arrays_modes_agree(ray_session):
    import ray.data

    from opentapioca_ray.pipelines.pagerank import (
        count_edges,
        normalize_edges,
        sorted_edge_arrays,
    )

    li = ray.data.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    edges = normalize_edges(count_edges(li, "l_partkey", "l_suppkey")).materialize()
    s1, d1, w1 = sorted_edge_arrays(edges, mode="driver")
    s2, d2, w2 = sorted_edge_arrays(edges, mode="shuffle")
    assert np.array_equal(s1, s2)
    assert np.array_equal(d1, d2)
    assert np.allclose(w1, w2)


def test_ngram_jaccard_modes_agree(ray_session):
    from opentapioca_ray.stages.dedup import ngram_jaccard_pairs

    import ray.data

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    cols = ["u", "v", "jaccard"]

    def run(mode):
        df = ngram_jaccard_pairs(
            ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet"),
            id_column="doc_id",
            text_column="text",
            k=3,
            threshold=0.5,
            mode=mode,
        ).to_pandas()[cols]
        df["jaccard"] = df["jaccard"].round(9)
        return df.sort_values(cols).reset_index(drop=True)

    a = run("driver")
    b = run("shuffle")
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_corpus_stats_modes_agree(ray_session):
    from opentapioca_ray.pipelines.linkage import corpus_stats

    files = _files(ray_session)
    idf_a, prior_a = corpus_stats(files, mode="driver")
    idf_b, prior_b = corpus_stats(files, mode="shuffle")
    assert len(idf_a) > 0 and len(prior_a) > 0
    assert set(idf_a) == set(idf_b) and set(prior_a) == set(prior_b)
    assert all(abs(idf_a[k] - idf_b[k]) < 1e-12 for k in idf_a)
    assert all(abs(prior_a[k] - prior_b[k]) < 1e-12 for k in prior_a)


def test_prefilter_modes_agree(ray_session):
    """The distributed prefilter (combiner counts + coarse_semi_join; no
    driver key-set collect) must keep exactly the rows the driver-count
    path keeps — int and string keys, with and without max_size."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.pairs import prefilter_singleton_blocks

    rng = np.random.default_rng(5)
    n = 5000
    ikeys = rng.integers(0, 2000, size=n)
    blocks_int = ray.data.from_arrow(
        pa.table(
            {
                "block_key": pa.array(ikeys, pa.int64()),
                "file_id": pa.array(np.arange(n), pa.int64()),
            }
        )
    ).repartition(6)
    blocks_str = ray.data.from_arrow(
        pa.table(
            {
                "block_key": pa.array([f"k{v}" for v in ikeys]),
                "file_id": pa.array(np.arange(n), pa.int64()),
            }
        )
    ).repartition(6)
    for ds in (blocks_int, blocks_str):
        for max_size in (None, 4):
            out = {}
            for mode in ("driver", "shuffle"):
                df = (
                    prefilter_singleton_blocks(
                        ds, min_size=2, max_size=max_size, mode=mode
                    )
                    .to_pandas()
                    .sort_values(["block_key", "file_id"])
                    .reset_index(drop=True)
                )
                out[mode] = df
            assert len(out["driver"]) > 0
            pd.testing.assert_frame_equal(out["driver"], out["shuffle"])
