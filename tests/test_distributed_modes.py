"""Distributed/shuffle regimes must match the driver small-regime results —
the correctness contract behind the scale-adaptive switches. Each test
reaches the other regime by monkeypatching the module constant that
decides it."""

import numpy as np
import pandas as pd
import pytest


def _files(ray_session):
    import ray.data

    from opentapioca_ray.sources.files import read_files

    return read_files("/root/testdata/sf0.001").materialize()


def test_build_id_pairs_modes_agree(ray_session, monkeypatch):
    from opentapioca_ray.pipelines.linkage import build_id_pairs
    from opentapioca_ray.stages import pairs

    files = _files(ray_session)
    cols = ["left_id", "right_id", "capped", "nb_bands"]

    def run():
        return (
            build_id_pairs(files)
            .to_pandas()[cols]
            .astype("int64")
            .sort_values(cols)
            .reset_index(drop=True)
        )

    a = run()
    monkeypatch.setattr(pairs, "DRIVER_COMBINE_LIMIT", 0)
    b = run()
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def _sum_regimes(monkeypatch, run):
    """`run()` in `sum_partials`' driver regime, then with its driver limit
    at 0 (the coarse exchange): the two results."""
    from opentapioca_ray.stages import exchange

    driver = run()
    with monkeypatch.context() as m:
        m.setattr(exchange, "_SUM_DRIVER_LIMIT", 0)
        shuffled = run()
    return driver, shuffled


def _lineitem_edges():
    import ray.data

    return ray.data.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )


def test_count_edges_modes_agree(ray_session, monkeypatch):
    from opentapioca_ray.pipelines.pagerank import count_edges

    cols = ["src", "dst", "count"]

    def run():
        return (
            count_edges(_lineitem_edges(), "l_partkey", "l_suppkey")
            .to_pandas()[cols]
            .astype("int64")
            .sort_values(cols)
            .reset_index(drop=True)
        )

    a, b = _sum_regimes(monkeypatch, run)
    assert len(a) > 0 and (a["count"] > 1).any()
    pd.testing.assert_frame_equal(a, b)


def test_normalize_edges_modes_agree(ray_session, monkeypatch):
    """The per-src totals of `normalize_edges` from the driver group-by and
    from the exchange give bit-identical weights (extract-style edges with
    repeated sources, plus one empty block)."""
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.pipelines.pagerank import normalize_edges

    rng = np.random.default_rng(3)
    src = rng.integers(0, 40, size=600)
    edges = pa.table(
        {
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(np.arange(600), pa.int64()),
            "count": pa.array(rng.integers(1, 9, size=600), pa.int64()),
        }
    )
    blocks = [edges.slice(0, 250), edges.slice(250, 0), edges.slice(250)]
    cols = ["src", "dst", "weight"]

    def run():
        out = normalize_edges(ray.data.from_arrow(blocks)).to_pandas()[cols]
        return out.sort_values(cols).reset_index(drop=True)

    a, b = _sum_regimes(monkeypatch, run)
    assert len(a) == 600
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    totals = edges.to_pandas().groupby("src")["count"].transform("sum")
    want = (edges.column("count").to_numpy() / totals.to_numpy()).tolist()
    got = dict(zip(a["dst"], a["weight"]))
    assert [got[d] for d in range(600)] == want


def test_train_bow_modes_agree(ray_session, monkeypatch):
    """`train_bow`'s kept counts and total from the driver group-by and from
    the exchange agree, and match a serial per-document count."""
    from collections import Counter

    import ray.data

    from opentapioca_ray.functions.text import tokenize
    from opentapioca_ray.state.bow import train_bow

    texts = [
        f"w{i % 11} w{i % 5} w{i % 3} shared" + (" rare" if i == 7 else "")
        for i in range(60)
    ] + ["", "shared"]

    def run():
        ds = ray.data.from_items([{"text": t} for t in texts]).repartition(5)
        kept, total = train_bow(ds, "text", threshold=2)
        df = kept.to_pandas()[["word", "count"]].astype({"count": "int64"})
        return df.sort_values("word").reset_index(drop=True), total

    (a, total_a), (b, total_b) = _sum_regimes(monkeypatch, run)
    pd.testing.assert_frame_equal(a, b)
    serial = Counter(w for t in texts for w in set(tokenize(t)))
    assert total_a == total_b == sum(serial.values())
    assert dict(zip(a["word"], a["count"])) == {w: c for w, c in serial.items() if c >= 2}


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


def test_attach_pair_tokens_modes_agree(ray_session, monkeypatch):
    from opentapioca_ray.pipelines import linkage
    from opentapioca_ray.pipelines.linkage import (
        DRIVER_COLLECTS,
        attach_pair_tokens,
        build_id_pairs,
    )

    files = _files(ray_session)
    pairs = build_id_pairs(files).materialize()
    cols = [
        "left_id", "right_id", "capped", "nb_bands",
        "left_repo", "left_packed", "right_repo", "right_packed",
    ]
    a = attach_pair_tokens(pairs, files).to_pandas()[cols]
    before = DRIVER_COLLECTS["pairs_proportional"]
    monkeypatch.setattr(linkage, "_DRIVER_ATTACH_LIMIT", 0)
    b = attach_pair_tokens(pairs, files).to_pandas()[cols]
    assert DRIVER_COLLECTS["pairs_proportional"] == before
    a = a.sort_values(cols).reset_index(drop=True)
    b = b.sort_values(cols).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_sorted_edge_arrays_modes_agree(ray_session):
    """The driver sort returns the collected edges in (src, dst) order,
    the rows of one `np.lexsort` over them."""
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.exchange import arrow_blocks

    from opentapioca_ray.pipelines.pagerank import (
        count_edges,
        normalize_edges,
        sorted_edge_arrays,
    )

    li = ray.data.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    edges = normalize_edges(count_edges(li, "l_partkey", "l_suppkey")).materialize()
    s1, d1, w1 = sorted_edge_arrays(edges)
    t = pa.concat_tables([b for b in arrow_blocks(edges) if b.num_rows])
    s2, d2, w2 = (t.column(c).to_numpy() for c in ("src", "dst", "weight"))
    o = np.lexsort((d2, s2))
    assert len(s1) > 0 and np.all(np.diff(s1) >= 0)
    assert np.array_equal(s1, s2[o])
    assert np.array_equal(d1, d2[o])
    assert np.array_equal(w1, w2[o])


def test_ngram_jaccard_modes_agree(ray_session, monkeypatch):
    from opentapioca_ray.stages import dedup
    from opentapioca_ray.stages.dedup import ngram_jaccard_pairs

    import ray.data

    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    cols = ["u", "v", "jaccard"]

    def run():
        df = ngram_jaccard_pairs(
            ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet"),
            id_column="doc_id",
            text_column="text",
            k=3,
            threshold=0.5,
        ).to_pandas()[cols]
        df["jaccard"] = df["jaccard"].round(9)
        return df.sort_values(cols).reset_index(drop=True)

    a = run()
    monkeypatch.setattr(dedup, "_NGRAM_DRIVER_LIMIT", 0)
    b = run()
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


def test_corpus_stats_modes_agree(ray_session, monkeypatch):
    from opentapioca_ray.pipelines.linkage import corpus_stats

    files = _files(ray_session)
    (idf_a, prior_a), (idf_b, prior_b) = _sum_regimes(
        monkeypatch, lambda: corpus_stats(files)
    )
    assert len(idf_a) > 0 and len(prior_a) > 0
    assert idf_a == idf_b and prior_a == prior_b


def test_prefilter_modes_agree(ray_session, monkeypatch):
    """The distributed prefilter (combiner counts + coarse_semi_join; no
    driver key-set collect) must keep exactly the rows the driver-count
    path keeps — int and string keys, with and without max_size."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages import pairs
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
    driver_limit = pairs.DRIVER_COMBINE_LIMIT
    for ds in (blocks_int, blocks_str):
        for max_size in (None, 4):
            out = {}
            for mode, limit in (("driver", driver_limit), ("shuffle", 0)):
                monkeypatch.setattr(pairs, "DRIVER_COMBINE_LIMIT", limit)
                out[mode] = (
                    prefilter_singleton_blocks(ds, min_size=2, max_size=max_size)
                    .to_pandas()
                    .sort_values(["block_key", "file_id"])
                    .reset_index(drop=True)
                )
            assert len(out["driver"]) > 0
            pd.testing.assert_frame_equal(out["driver"], out["shuffle"])
