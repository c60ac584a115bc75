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


def test_stats_caps_break_ties_by_key(ray_session, monkeypatch):
    """Entries tied at the `max_vocab` and `_MAX_REPOS` cuts are kept by
    key, whatever order the partial blocks arrive in."""
    import pyarrow as pa

    from opentapioca_ray.pipelines import linkage
    from opentapioca_ray.pipelines.linkage import _STATS_SCHEMA, _merge_stats

    def rows(word, repo):
        return pa.table(
            {"kind": pa.array([0, 1], pa.int8()), "key": [word, repo], "count": [1, 1]},
            schema=_STATS_SCHEMA,
        )

    t1, t2 = rows("beta", "r2"), rows("alpha", "r1")
    monkeypatch.setattr(linkage, "_MAX_REPOS", 1)
    for tables in ([t1, t2], [t2, t1]):
        idf, prior = _merge_stats(tables, 2, 1)
        assert list(idf) == ["alpha"] and list(prior) == ["r1"]


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
      1. the linkage front (`_front_pass`): stats partials and band rows
         from one tokenizing map (materialize); the stats merge, the
         singleton-key count and the driver pairing read those blocks
      2. attach_pair_tokens: the token rows of the paired files (collect)
      3. linkage_clusters: the scored pairs (materialize); the match edges
         are filtered on the driver off those blocks, and the local
         connected-components regime returns its labels as one
         `driver_dataset` block (already executed), so the caller's
         collect of the clusters runs no execution
    A collect that also fetches the dataset schema (`to_arrow_refs`)
    re-runs a lazy plan and adds an execution to 2."""
    import ray.data

    from opentapioca_ray.stages.exchange import arrow_blocks

    files_df, _ = corpus
    files_ds = ray.data.from_pandas(files_df)
    start = ray_execs()
    clusters, _ = linkage_clusters(files_ds, model=None, threshold=0.2)
    nodes = sum(t.num_rows for t in arrow_blocks(clusters))
    assert ray_execs() - start == 3
    assert nodes > 0


def test_linkage_builds_no_from_arrow_dataset(ray_session, corpus, from_arrow_calls):
    """Every driver-built result of the small-regime linkage (the driver
    pairs, the attached tokens, the match edges and the component labels)
    becomes a Dataset through `driver_dataset`, which runs no remote
    metadata task: `linkage_clusters` plus a collect of its clusters builds
    no `from_arrow_refs` Dataset."""
    import ray.data

    from opentapioca_ray.stages.exchange import arrow_blocks

    files_df, _ = corpus
    clusters, scored = linkage_clusters(
        ray.data.from_pandas(files_df), model=None, threshold=0.2
    )
    assert sum(t.num_rows for t in arrow_blocks(clusters)) > 0
    assert scored.count() > 0
    assert from_arrow_calls() == 0


def _front_corpus():
    """Synthetic files plus the edge cases of the front: near-duplicate
    files longer than CONTENT_CAP whose cut falls mid-token, a None and an
    empty content, and non-ASCII tokens (some fold to nothing)."""
    from opentapioca_ray.stages.pairs import CONTENT_CAP

    files_df, _ = synthesize_files(
        n_clusters=4, cluster_size=3, n_singletons=10, seed=5
    )
    body = " ".join(f"w{i % 997}x" for i in range(CONTENT_CAP // 4))
    long_a = body[: CONTENT_CAP - 2] + "longtail more words here"
    long_b = body[: CONTENT_CAP - 2] + "lo other tail"
    cut = body[: CONTENT_CAP - 3] + " abcdefgh"  # a token spans the cut
    extra = [
        long_a, long_b, cut, cut + " extra", None, "",
        "naïve café déjà vu smörgåsbord 日本語 テスト naïve café déjà",
        "naïve café déjà vu smörgåsbord 日本語 テスト naïve café",
    ]
    n0 = len(files_df)
    rows = pd.DataFrame(
        {
            "file_id": np.arange(n0, n0 + len(extra), dtype=np.int64),
            "repo": [f"repo-extra-{i % 3}" for i in range(len(extra))],
            "content": extra,
        }
    )
    return pd.concat([files_df[["file_id", "repo", "content"]], rows], ignore_index=True)


def _sorted_pairs(ds):
    cols = ["left_id", "right_id", "capped", "nb_bands"]
    return ds.to_pandas()[cols].astype("int64").sort_values(cols).reset_index(drop=True)


def test_front_pass_matches_separate_passes(ray_session, monkeypatch):
    """The one-pass front yields the same idf, prior and driver pairs as
    `corpus_stats` + `build_id_pairs` (driver regime), over several blocks
    (one of them empty); also through the stats merge's exchange and
    `build_id_pairs`' shuffle fallback, and with `idf`/`prior` passed in
    (then no stats rows are emitted)."""
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.pipelines import linkage
    from opentapioca_ray.pipelines.linkage import _front_pass, build_id_pairs
    from opentapioca_ray.stages import exchange

    df = _front_corpus()
    table = pa.Table.from_pandas(df, preserve_index=False)
    blocks = [table.slice(0, 9), table.slice(9, 0), table.slice(9)]
    files = ray.data.from_arrow(blocks).materialize()
    args = (128, 32, 3, 4, 2)

    idf, prior = corpus_stats(files)
    expect = _sorted_pairs(build_id_pairs(files, *args))
    assert len(expect) > 0
    front_idf, front_prior, pairs = _front_pass(files, None, None, *args)
    assert front_idf == idf and list(front_idf) == list(idf)
    assert front_prior == prior and list(front_prior) == list(prior)
    pd.testing.assert_frame_equal(_sorted_pairs(pairs), expect)

    given_idf, given_prior = {"w1x": 1.0}, {"r": 0.5}
    got_idf, got_prior, pairs = _front_pass(files, given_idf, given_prior, *args)
    assert got_idf is given_idf and got_prior is given_prior
    pd.testing.assert_frame_equal(_sorted_pairs(pairs), expect)

    monkeypatch.setattr(exchange, "_SUM_DRIVER_LIMIT", 0)
    monkeypatch.setattr(linkage, "_DRIVER_PAIRS_LIMIT", 0)
    shuffled_idf, shuffled_prior, pairs = _front_pass(files, None, None, *args)
    assert shuffled_idf == idf and shuffled_prior == prior
    pd.testing.assert_frame_equal(_sorted_pairs(pairs), expect)


def test_null_repo_stats_agree(ray_session, monkeypatch):
    """A file with a null repo counts toward the idf but toward no repo's
    prior, and the driver merge, the exchange merge and the linkage front
    give the same idf and prior."""
    import ray.data

    from opentapioca_ray.pipelines.linkage import _front_pass
    from opentapioca_ray.stages import exchange

    df = _front_corpus()
    df.loc[3, "repo"] = None
    files = ray.data.from_pandas(df).materialize()
    idf, prior = corpus_stats(files)
    assert (idf, prior) == _front_pass(files, None, None, 128, 32, 3, 4, 2)[:2]
    with monkeypatch.context() as m:
        m.setattr(exchange, "_SUM_DRIVER_LIMIT", 0)
        assert (idf, prior) == corpus_stats(files)
        assert (idf, prior) == _front_pass(files, None, None, 128, 32, 3, 4, 2)[:2]
    logs = np.log1p(df["repo"].value_counts())
    assert prior == pytest.approx((logs / logs.max()).to_dict())
    named = ray.data.from_pandas(df.fillna({"repo": "named"}))
    assert idf == corpus_stats(named)[0]


def test_front_batch_kernel_matches_separate_kernels():
    """`front_batch` over one batch equals the separate kernels: its kind-2
    rows are `blocking_batch`'s slim u64 rows (same order), its kind-0/1
    rows the word df and repo-count partials; every batch, the empty one
    included, carries the one front schema."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.pipelines.linkage import _FRONT_SCHEMA, front_batch
    from opentapioca_ray.stages.pairs import blocking_batch
    from opentapioca_ray.state.bow import partial_word_counts

    table = pa.Table.from_pandas(_front_corpus(), preserve_index=False)
    for batch in (table, table.slice(0, 0), table.slice(len(table) - 8)):
        out = front_batch(batch, 128, 32, 3, True)
        assert out.schema == _FRONT_SCHEMA
        band = out.filter(pc.equal(out.column("kind"), 2))
        slim = blocking_batch(
            batch, repo_column=None, bands=32, include_tokens=False, key_type="u64"
        )
        assert band.select(["block_key", "file_id", "sig_head"]).equals(slim)
        words = partial_word_counts(batch, "content")
        repos = pd.Series(batch.column("repo").to_pylist()).value_counts(sort=False)
        stats = out.filter(pc.less(out.column("kind"), 2)).to_pydict()
        assert stats["kind"] == [0] * words.num_rows + [1] * len(repos)
        assert stats["key"] == words.column("word").to_pylist() + list(repos.index)
        assert stats["count"] == words.column("count").to_pylist() + repos.tolist()
        assert front_batch(batch, 128, 32, 3, False).equals(band)


def test_driver_match_edges_equal_lazy(ray_session, corpus):
    """The driver-side match edges equal the lazy `match_edges` map, row
    for row, at two thresholds."""
    import ray.data

    from opentapioca_ray.pipelines.linkage import _driver_match_edges, match_edges

    files_df, _ = corpus
    _, scored = linkage_clusters(ray.data.from_pandas(files_df), model=None)
    for threshold in (0.0, 0.2):
        driver = _driver_match_edges(scored, threshold).to_pandas()
        lazy = match_edges(scored, threshold).to_pandas()
        assert len(lazy) > 0
        pd.testing.assert_frame_equal(driver, lazy)


def test_linkage_checkpointed_rebuilds_rewritten_input(ray_session, tmp_path):
    """A documents.parquet rewritten at the same path with other rows
    rebuilds the `files` stage instead of resuming from its checkpoint."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentapioca_ray.pipelines.linkage import linkage_checkpointed

    files_df, _ = synthesize_files(
        n_clusters=5, cluster_size=3, n_singletons=20, seed=9
    )
    n = len(files_df)
    docs = pa.table(
        {
            "doc_id": pa.array(files_df["file_id"], pa.int64()),
            "text": pa.array(files_df["content"], pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(["web"] * n, pa.string()),
        }
    )
    src = tmp_path / "sf"
    src.mkdir()
    pq.write_table(docs, src / "documents.parquet")
    out = str(tmp_path / "run")
    _, ckpt = linkage_checkpointed(str(src), out, threshold=0.2)
    assert ckpt.metrics()["files"]["rows"] == n
    pq.write_table(docs.slice(0, 10), src / "documents.parquet")
    _, ckpt = linkage_checkpointed(str(src), out, threshold=0.2)
    assert ckpt.metrics()["files"]["rows"] == 10


def test_build_id_pairs_driver_regime_matches_shuffle(ray_session, monkeypatch):
    """The driver regime (one execution: band rows materialized, keys
    counted and pairs built from those blocks) emits the same
    (left_id, right_id, capped, nb_bands) as the shuffle path (reached with
    `DRIVER_COMBINE_LIMIT` at 0), on a
    corpus whose two sets of 8 identical files form blocks over `max_block_size`; and
    so does the distributed fallback above `_DRIVER_PAIRS_LIMIT`."""
    import ray.data

    from opentapioca_ray.pipelines import linkage
    from opentapioca_ray.pipelines.linkage import DRIVER_COLLECTS, build_id_pairs
    from opentapioca_ray.stages import pairs as pairs_stage

    files_df, _ = synthesize_files(
        n_clusters=4, cluster_size=3, n_singletons=20, seed=11
    )
    twins, _ = synthesize_files(
        n_clusters=2, cluster_size=8, n_singletons=0, edits=0, seed=12
    )
    twins["file_id"] += len(files_df)
    files = ray.data.from_pandas(pd.concat([files_df, twins])).materialize()
    cols = ["left_id", "right_id", "capped", "nb_bands"]

    def pairs():
        out = build_id_pairs(files, max_block_size=4, window=2)
        return (
            out.to_pandas()[cols]
            .astype("int64")
            .sort_values(cols)
            .reset_index(drop=True)
        )

    before = DRIVER_COLLECTS["pairs_proportional"]
    driver = pairs()
    assert DRIVER_COLLECTS["pairs_proportional"] == before + 1
    with monkeypatch.context() as m:
        m.setattr(pairs_stage, "DRIVER_COMBINE_LIMIT", 0)
        shuffle = pairs()
    assert (driver["capped"] > 0).any()
    pd.testing.assert_frame_equal(driver, shuffle)

    monkeypatch.setattr(linkage, "_DRIVER_PAIRS_LIMIT", 0)
    fallback = pairs()
    assert DRIVER_COLLECTS["pairs_proportional"] == before + 1
    pd.testing.assert_frame_equal(fallback, shuffle)
