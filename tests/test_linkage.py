"""Flagship-pipeline conformance: pairwise F1 >= 0.99 on the labeled
synthetic corpus at the same blocking keys (BASELINE.json north_rule),
plus sha256 invariant end-to-end."""

import numpy as np
import pandas as pd
import pytest

from opentapioca_ray.pipelines.linkage import (
    corpus_stats,
    linkage_clusters,
    train_linkage_model,
)
from opentapioca_ray.sources.files import verify_sha256
from opentapioca_ray.sources.synthetic import pairwise_f1, synthesize_files


@pytest.fixture(scope="module")
def corpus():
    files_df, truth = synthesize_files(
        n_clusters=25, cluster_size=3, n_singletons=25, seed=7
    )
    return files_df, truth


def test_linkage_f1_gate(ray_session, corpus):
    import ray.data

    files_df, truth = corpus
    files_ds = ray.data.from_pandas(files_df)
    idf, prior = corpus_stats(files_ds)
    model = train_linkage_model(files_df, truth, idf, prior)
    clusters, scored = linkage_clusters(
        files_ds, model=model, idf=idf, prior=prior, threshold=0.0
    )
    assignments = {r["node"]: r["component"] for r in clusters.take_all()}
    metrics = pairwise_f1(assignments, truth)
    assert metrics["f1"] >= 0.99, metrics


def test_linkage_untrained_still_clusters(ray_session, corpus):
    import ray.data

    files_df, truth = corpus
    files_ds = ray.data.from_pandas(files_df)
    clusters, _ = linkage_clusters(files_ds, model=None, threshold=0.2)
    assignments = {r["node"]: r["component"] for r in clusters.take_all()}
    metrics = pairwise_f1(assignments, truth)
    assert metrics["f1"] >= 0.95, metrics


def test_sha256_invariant(ray_session, corpus):
    import ray.data

    files_df, _ = corpus
    files_ds = ray.data.from_pandas(files_df)
    assert verify_sha256(files_ds) == 0


def test_idf_and_prior(ray_session, corpus):
    import ray.data

    files_df, _ = corpus
    files_ds = ray.data.from_pandas(files_df)
    idf, prior = corpus_stats(files_ds)
    assert len(idf) > 0
    assert all(np.isfinite(v) for v in idf.values())
    assert prior and max(prior.values()) == 1.0


def test_repo_prior_max_repos_cap(ray_session, corpus, monkeypatch):
    """The broadcast-state guard keeps only the top-N repos by file count;
    the surviving entries keep the same normalized values."""
    import ray.data

    from opentapioca_ray.pipelines import linkage

    files_df, _ = corpus
    files_ds = ray.data.from_pandas(files_df)
    _, full = corpus_stats(files_ds)
    n_keep = max(1, len(full) // 2)
    monkeypatch.setattr(linkage, "_MAX_REPOS", n_keep)
    _, capped = corpus_stats(files_ds)
    assert len(capped) == n_keep
    # kept repos are the highest-count ones and retain their values
    kept_min = min(capped.values())
    dropped = {k: v for k, v in full.items() if k not in capped}
    assert all(v <= kept_min for v in dropped.values())
    assert all(full[k] == v for k, v in capped.items())


def test_corpus_stats_matches_separate_passes(ray_session, corpus):
    """corpus_stats against an independent pandas computation of both
    statistics: idf = log(N / (1 + df)) over per-file distinct tokens, and
    prior = log1p(files per repo) / its max."""
    import ray.data

    from opentapioca_ray.functions.text import tokenize

    files_df, _ = corpus
    idf, prior = corpus_stats(ray.data.from_pandas(files_df))
    words = files_df["content"].map(lambda t: sorted(set(tokenize(t or ""))))
    doc_freq = words.explode().dropna().value_counts()
    expect_idf = np.log(len(files_df) / (1.0 + doc_freq))
    logs = np.log1p(files_df["repo"].value_counts())
    expect_prior = logs / logs.max()
    assert idf.keys() == set(expect_idf.index)
    assert all(abs(idf[k] - v) < 1e-12 for k, v in expect_idf.items())
    assert prior == pytest.approx(expect_prior.to_dict())


def test_linkage_checkpointed_stages_and_resume(ray_session, tmp_path):
    from opentapioca_ray.pipelines.linkage import linkage_checkpointed

    out = str(tmp_path / "run")
    clusters, ckpt = linkage_checkpointed(
        "/root/testdata/sf0.001", out, threshold=0.2
    )
    n1 = clusters.count()
    m = ckpt.metrics()
    assert set(m) == {"files", "pairs", "scored", "clusters"}
    assert m["files"]["rows"] == 500
    assert n1 > 0
    # re-run: every stage manifest matches -> no stage rebuilds (same rows)
    clusters2, ckpt2 = linkage_checkpointed(
        "/root/testdata/sf0.001", out, threshold=0.2
    )
    assert clusters2.count() == n1
    # changing a downstream param invalidates only downstream stages
    clusters3, ckpt3 = linkage_checkpointed(
        "/root/testdata/sf0.001", out, threshold=0.9
    )
    m3 = ckpt3.metrics()
    assert m3["files"]["fingerprint"] == m["files"]["fingerprint"]
    assert m3["clusters"]["fingerprint"] != m["clusters"]["fingerprint"]


def test_linkage_execution_count(ray_session, corpus, ray_execs):
    """`linkage_clusters` plus a collect of the clusters runs each stage's
    plan once. On this 100-file corpus every adaptive stage takes its
    driver regime, and the executions are:
      1. corpus_stats: the per-block partial counts (materialize)
      2. build_id_pairs: the band rows (materialize); the singleton-key
         count and the driver pairing read those blocks, no execution
      3. attach_pair_tokens: the token rows of the paired files (collect)
      4. linkage_clusters: the scored pairs (materialize)
      5. connected_components: the match edges (materialize); the local
         regime returns its labels as one `from_arrow` block
      6. the caller's collect of the clusters
    A collect that also fetches the dataset schema (`to_arrow_refs`)
    re-runs a lazy plan and adds an execution to 3."""
    import ray.data

    from opentapioca_ray.stages.exchange import arrow_blocks

    files_df, _ = corpus
    files_ds = ray.data.from_pandas(files_df)
    start = ray_execs()
    clusters, _ = linkage_clusters(files_ds, model=None, threshold=0.2)
    nodes = sum(t.num_rows for t in arrow_blocks(clusters))
    assert ray_execs() - start == 6
    assert nodes > 0


def test_build_id_pairs_driver_regime_matches_shuffle(ray_session, monkeypatch):
    """The driver regime (one execution: band rows materialized, keys
    counted and pairs built from those blocks) emits the same
    (left_id, right_id, capped, nb_bands) as the forced shuffle path, on a
    corpus whose two sets of 8 identical files form blocks over `max_block_size`; and
    so does the distributed fallback above `_DRIVER_PAIRS_LIMIT`."""
    import ray.data

    from opentapioca_ray.pipelines import linkage
    from opentapioca_ray.pipelines.linkage import DRIVER_COLLECTS, build_id_pairs

    files_df, _ = synthesize_files(
        n_clusters=4, cluster_size=3, n_singletons=20, seed=11
    )
    twins, _ = synthesize_files(
        n_clusters=2, cluster_size=8, n_singletons=0, edits=0, seed=12
    )
    twins["file_id"] += len(files_df)
    files = ray.data.from_pandas(pd.concat([files_df, twins])).materialize()
    cols = ["left_id", "right_id", "capped", "nb_bands"]

    def pairs(mode):
        out = build_id_pairs(files, max_block_size=4, window=2, mode=mode)
        return (
            out.to_pandas()[cols]
            .astype("int64")
            .sort_values(cols)
            .reset_index(drop=True)
        )

    before = DRIVER_COLLECTS["pairs_proportional"]
    driver = pairs("auto")
    assert DRIVER_COLLECTS["pairs_proportional"] == before + 1
    shuffle = pairs("shuffle")
    assert (driver["capped"] > 0).any()
    pd.testing.assert_frame_equal(driver, shuffle)

    monkeypatch.setattr(linkage, "_DRIVER_PAIRS_LIMIT", 0)
    fallback = pairs("auto")
    assert DRIVER_COLLECTS["pairs_proportional"] == before + 1
    pd.testing.assert_frame_equal(fallback, shuffle)
