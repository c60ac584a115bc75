"""Driver contract for the graft builder (Ray Data target).

entry(): flagship record-linkage pipeline on sf0.001.
queries(): one entry per implemented operator/pipeline (SURVEY.md §2).
oracle_sql(): DuckDB equivalents for the SQL-expressible ones.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any
from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

# The reference tokenizer's separator regex (languagemodel.py:9), reused in
# the DuckDB oracles so both sides tokenize identically (ASCII corpus).
_SEP = r"[,\-_/:;!?)]? [,\-_/:;!?(]?"

_EN_STOP = "'the','of','and','to','in','is','that','it','for','was'"


def _docs(sf_dir: str):
    import ray
    import ray.data

    # split the single-file read so document maps parallelize past the
    # default ~8 blocks (many-file inputs at real scale don't need this)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        override_num_blocks=max(16, min(256, cpus * 2)),
    )


def _rel(path: str, columns=None):
    """Sized single-file read for relational/event/embedding tables whose
    per-row compute is trivial: fewer, fuller blocks so downstream
    exchanges don't pay per-block task overhead (see files.read_sized)."""
    from opentapioca_ray.sources.files import read_sized

    return read_sized(path, columns=columns)


_MEMO: dict[tuple, Any] = {}


def _memo(*files: str):
    """Decorator for a `fn(sf_dir)` whose result several queries share:
    it is built once per input state and Ray session. The key holds the
    size and `mtime_ns` of each of `files` under `sf_dir` and the Ray
    session (the driver's node id), so a parquet rewritten at the same path
    or a new session rebuilds instead of returning stale data or dead block
    refs; a rebuild replaces the older entry of the same function and
    path."""

    def wrap(fn: Callable[[str], Any]) -> Callable[[str], Any]:
        def memoized(sf_dir: str):
            import os

            import ray

            stamp = tuple(
                (f, st.st_size, st.st_mtime_ns)
                for f in files
                for st in [os.stat(os.path.join(sf_dir, f))]
            )
            session = ray.get_runtime_context().get_node_id() if ray.is_initialized() else None
            key = (fn.__name__, str(sf_dir), stamp, session)
            if key not in _MEMO:
                for old in [k for k in _MEMO if k[:2] == key[:2]]:
                    del _MEMO[old]
                _MEMO[key] = fn(sf_dir)
            return _MEMO[key]

        return memoized

    return wrap


@_memo("documents.parquet")
def _ngram_cc(sf_dir: str):
    """The exact n-gram Jaccard pair graph + its connected components over
    the documents table, shared by dup_components / component_sizes /
    cluster_survivorship (all three compose the SAME deterministic graph;
    rebuilding it per query tripled the most expensive bench stage).
    Materialized once per input state (`_memo`); both datasets are tiny
    relative to the corpus (pairs only)."""
    from opentapioca_ray.stages.cc import connected_components
    from opentapioca_ray.stages.dedup import ngram_jaccard_pairs
    from opentapioca_ray.stages.exchange import right_size

    # shuffle outputs arrive as one near-empty block per partition (e.g.
    # 477 rows across 200 blocks); re-block both before their consumers'
    # exchanges so those don't pay a 200-task launch
    pairs = right_size(
        ngram_jaccard_pairs(
            _docs(sf_dir), id_column="doc_id", text_column="text", k=3, threshold=0.5
        ).materialize()
    )
    comp = right_size(
        connected_components(pairs.select_columns(["u", "v"])).materialize()
    )
    return pairs, comp


@_memo("lineitem.parquet")
def _partsupp_directed(sf_dir: str):
    """The DISTINCT both-direction part--supplier (src, dst) edge table
    (supplier ids offset by 1e7), shared by random_walks /
    label_propagation — both run on the same graph and were each paying
    the identical read + dedup exchange. Materialized once per input
    state (`_memo`), like _ngram_cc."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    dir_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def both_dirs(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return dir_schema.empty_table()
        u = batch.column("l_partkey").cast(pa.int64()).combine_chunks()
        v = pc.add(
            batch.column("l_suppkey").cast(pa.int64()), 10_000_000
        ).combine_chunks()
        return pa.table(
            {"src": pa.concat_arrays([u, v]), "dst": pa.concat_arrays([v, u])}
        )

    directed = right_size(
        coarse_groupby_agg(
            li.map_batches(both_dirs, batch_format="pyarrow"),
            ["src", "dst"],
            {"__n": ("src", "size")},
        )
        .drop_columns(["__n"])
        .materialize()
    )
    return directed



def _encode_copurchase(t) -> dict:
    """The co-purchase graph's node encoding of lineitem-shaped rows:
    u = 2*l_partkey, v = 2*l_suppkey+1, so one int64 id space holds both
    bipartite sides (`_node_labeller` decodes it)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    two = pa.scalar(2, pa.int64())
    return {
        "u": pc.multiply(t.column("l_partkey").cast(pa.int64()), two),
        "v": pc.add(
            pc.multiply(t.column("l_suppkey").cast(pa.int64()), two),
            pa.scalar(1, pa.int64()),
        ),
    }


def _node_labeller(*values: str):
    """A pyarrow batch map that decodes `_encode_copurchase` node ids
    into (entity, key) and keeps the int64 columns `values`."""
    import numpy as np
    import pyarrow as pa

    schema = pa.schema(
        [("entity", pa.string()), ("key", pa.int64())]
        + [(c, pa.int64()) for c in values]
    )

    def label(batch):
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return schema.empty_table()
        node = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.table(
            [
                pa.array(np.where(node % 2 == 0, "part", "supplier"), pa.string()),
                pa.array(node // 2, pa.int64()),
                *(batch.column(c).cast(pa.int64()) for c in values),
            ],
            schema=schema,
        )

    return label


@_memo("lineitem.parquet")
def _copurchase_edges(sf_dir: str):
    """The DISTINCT quantity-1 part--supplier (u, v) edges in the
    `_encode_copurchase` encoding, shared by bfs_hops /
    landmark_closeness / stress_centrality / hyperanf_balls /
    degree_assortativity (all five run on the same graph). Materialized
    once per input state (`_memo`), like _partsupp_directed."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size

    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    )
    schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])

    def mk_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return schema.empty_table()
        t = batch.filter(pc.equal(batch.column("l_quantity").cast(pa.int64()), 1))
        return pa.table(_encode_copurchase(t))

    return right_size(
        coarse_groupby_agg(
            li.map_batches(mk_edges, batch_format="pyarrow"),
            ["u", "v"],
            {"n": ("u", "size")},
        )
        .map_batches(
            lambda b: (
                b.select(["u", "v"])
                if b.num_rows and "u" in b.column_names
                else schema.empty_table()
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )


def _part_seeds(sf_dir: str, modulus: int):
    """The seed nodes 2*p_partkey of the parts with p_partkey % modulus
    == 0: the sampled landmarks of the co-purchase graph queries."""
    import numpy as np
    import pyarrow as pa

    schema = pa.schema([("node", pa.int64())])

    def mk_seeds(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "p_partkey" not in batch.column_names:
            return schema.empty_table()
        k = batch.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"node": pa.array(2 * k[k % modulus == 0])}).cast(schema)

    return _rel(f"{sf_dir}/part.parquet", columns=["p_partkey"]).map_batches(
        mk_seeds, batch_format="pyarrow"
    )

_ORACLE_AUX = "/tmp/otr_oracle_aux"


def _dump_for_oracle(ds_or_table, name: str) -> None:
    """Write a (small, deterministic) intermediate to a fixed scratch path so
    the DuckDB oracle can replay the downstream operator over EXACTLY the
    same input (the dup_components recipe, extended to pipelines whose edge
    provenance isn't SQL-expressible: MinHash-scored pairs, fitted k-means
    centroids). The dump is an intermediate, not the answer — the oracle
    still recomputes the operator under test (min-label closure / nearest-
    centroid assignment) independently in SQL."""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(_ORACLE_AUX, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    if isinstance(ds_or_table, pa.Table):
        pq.write_table(ds_or_table, os.path.join(path, "part-0.parquet"))
        return
    ds = ds_or_table.materialize()
    if ds.count() == 0:
        # write_parquet of an empty dataset emits no files; the oracle's
        # read_parquet glob must still resolve
        pq.write_table(
            ds.schema().base_schema.empty_table(),
            os.path.join(path, "part-0.parquet"),
        )
        return
    ds.write_parquet(path)


def entry() -> Any:
    """Flagship: files (input_hint shape, derived from documents) ->
    blocking -> pairwise scoring -> connected components -> clusters."""
    from opentapioca_ray.pipelines.linkage import linkage_clusters
    from opentapioca_ray.sources.files import read_files

    files = read_files("/root/testdata/sf0.001")
    clusters, _scored = linkage_clusters(files, model=None, threshold=0.2)
    return clusters


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _q_bow_word_counts(sf_dir: str):
    """A1: BOW training — distinct-per-doc word counts, threshold >= 2."""
    from opentapioca_ray.state.bow import train_bow

    kept, _total = train_bow(_docs(sf_dir), "text", threshold=2)
    return kept


def _q_exact_dedup(sf_dir: str):
    from opentapioca_ray.stages.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir), id_column="doc_id", text_column="text")


def _q_token_stats(sf_dir: str):
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import add_token_counts

    def fn(batch: pa.Table) -> pa.Table:
        out = add_token_counts(batch, "text")
        return out.select(["doc_id", "ws_tokens", "bpe_tokens"])

    return _docs(sf_dir).map_batches(fn, batch_format="pyarrow")


def _q_quality(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.functions.textstats import quality_stats

    def fn(batch: pa.Table) -> pa.Table:
        out = quality_stats(batch, "text")
        return pa.table(
            {
                "doc_id": out.column("doc_id"),
                "n_tokens": out.column("n_tokens"),
                "stopword_ratio": pc.round(out.column("stopword_ratio"), 6),
                "punct_ratio": pc.round(out.column("punct_ratio"), 6),
            }
        )

    return _docs(sf_dir).map_batches(fn, batch_format="pyarrow")


def _q_lang_id(sf_dir: str):
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import add_language_column

    def fn(batch: pa.Table) -> pa.Table:
        return add_language_column(batch, "text").select(["doc_id", "lang_id"])

    return _docs(sf_dir).map_batches(fn, batch_format="pyarrow")


def _q_fingerprints(sf_dir: str):
    """Rolling-hash doc fingerprints -> duplicate-group sizes. The
    fingerprint value itself is not SQL-expressible, but the GROUPS are:
    the rolling hash is injective on this corpus's distinct texts, so the
    (keep_id, dup_count) projection hash-matches a GROUP BY text oracle —
    any collision between distinct texts would break the match."""
    from ray.data.aggregate import Count, Min

    import pyarrow as pa

    from opentapioca_ray.functions.textstats import add_fingerprint

    def fn(batch: pa.Table) -> pa.Table:
        return add_fingerprint(batch, "text").select(["doc_id", "fingerprint"])

    fps = _docs(sf_dir).map_batches(fn, batch_format="pyarrow")
    groups = fps.groupby("fingerprint").aggregate(
        Min("doc_id", alias_name="keep_id"), Count(alias_name="dup_count")
    )
    return groups.select_columns(["keep_id", "dup_count"])


def _q_tag_mention_counts(sf_dir: str):
    """Tagger core over a deterministic dictionary: top-20 document tokens by
    document frequency become entities; mentions counted per (doc, entity).
    Single-token surface forms + case-sensitive match + prune rule make this
    SQL-expressible (offsets and multi-token matching are pytest-covered)."""
    import numpy as np
    import pyarrow as pa
    from ray.data.aggregate import Count

    from opentapioca_ray.pipelines.annotate import tag_documents
    from opentapioca_ray.functions.text import prune_phrase

    dictionary = _top_tokens(sf_dir, 20)
    ents = pa.Table.from_pylist(
        [
            {
                "id": f"Q{i+1}",
                "label": w,
                "aliases": [],
                "extra_aliases": [],
                "edges": [],
                "nb_statements": 0,
                "nb_sitelinks": 0,
            }
            for i, w in enumerate(dictionary)
            if not prune_phrase(w)
        ],
        schema=pa.schema(
            [
                ("id", pa.string()),
                ("label", pa.string()),
                ("aliases", pa.list_(pa.string())),
                ("extra_aliases", pa.list_(pa.string())),
                ("edges", pa.list_(pa.int64())),
                ("nb_statements", pa.int32()),
                ("nb_sitelinks", pa.int32()),
            ]
        ),
    )
    bow = {"word_count": {}, "total_count": 0}
    pr = np.ones(1) / 1.0
    tags = tag_documents(
        _docs(sf_dir), ents, bow, pr, doc_id_column="doc_id", text_column="text"
    )
    # combiner: per-batch Arrow group-by collapses tags ~10x before the
    # (small) global groupby-sum merge
    def local_counts(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.int64()), ("qid", pa.string()),
                 ("n_mentions", pa.int64())]
            ).empty_table()
        g = (
            b.select(["doc_id", "qid"])
            .group_by(["doc_id", "qid"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "doc_id": g.column("doc_id").cast("int64"),
                "qid": g.column("qid"),
                "n_mentions": g.column("count_all"),
            }
        )

    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size

    # the combined partials are a sliver of the tagged corpus but inherit
    # its 64-way block split — collapse before the exchange
    partials = right_size(
        tags.map_batches(local_counts, batch_format="pyarrow").materialize()
    )
    # n_parts=8: the combined partials are <= docs x |dictionary| rows, so
    # the default ~4xCPU reduce partitions would be near-empty scheduling
    # overhead; 8 partitions of ~10k rows keep the exchange task-bound.
    # (Scales: at 100x corpus each partition holds ~1M rows — still one
    # cheap vectorized pandas groupby per partition.)
    return coarse_groupby_agg(
        partials,
        ["doc_id", "qid"],
        {"n_mentions": ("n_mentions", "sum")},
        n_parts=8,
    )


def _classifier_fixture(sf_dir: str):
    """Deterministic classifier-family fixture (round-5 verdict item 6):
    the top-20 document-frequency tokens become surface forms with TWO
    candidate entities each (primary Q(i+1), alt Q(101+i), i = 0-based
    position in the unpruned top-20 list), a formula pagerank vector
    (pr[j] = ((j % 7) + 1) / 1000), formula nb_statements/nb_sitelinks
    ((3*id) % 11 / id % 5), an empty BOW model (log-likelihood exactly 0)
    and a FIXED linear model with identity scaler — so every feature,
    score and argmax winner is reproducible in closed form by the DuckDB
    oracle. Gold: per doc, every occurrence of its most frequent kept
    dictionary word (ties -> lexicographically smallest) labeled with
    that word's PRIMARY entity."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.text import prune_phrase
    from opentapioca_ray.state.linear import LinearModel

    dictionary = _top_tokens(sf_dir, 20)
    rows = []
    word_info = {}
    for i, w in enumerate(dictionary):
        if prune_phrase(w):
            continue
        for eid in (i + 1, 101 + i):
            rows.append(
                {
                    "id": f"Q{eid}",
                    "label": w,
                    "aliases": [],
                    "extra_aliases": [],
                    "edges": [],
                    "nb_statements": (3 * eid) % 11,
                    "nb_sitelinks": eid % 5,
                }
            )
        word_info[w] = f"Q{i + 1}"
    ents = pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("id", pa.string()),
                ("label", pa.string()),
                ("aliases", pa.list_(pa.string())),
                ("extra_aliases", pa.list_(pa.string())),
                ("edges", pa.list_(pa.int64())),
                ("nb_statements", pa.int32()),
                ("nb_sitelinks", pa.int32()),
            ]
        ),
    )
    pr = ((np.arange(1000) % 7) + 1) / 1000.0
    bow = {"word_count": {}, "total_count": 0}
    model = LinearModel.from_dict(
        {
            "C": 0.001,
            "max_iter": 1,
            "lr": 0.05,
            "w": [0.0, 1.0, 0.3, -0.7, 0.2],
            "b": -20.0,
            "mean": [0.0] * 5,
            "scale": [1.0] * 5,
        }
    )
    return ents, pr, bow, model, word_info


def _classifier_gold(sf_dir: str, word_info: dict):
    """Distributed gold build: per doc pick the gold word (max occurrence
    count among kept dictionary words, ties -> smallest word) and emit one
    (doc_id, begin, end, gold_qid) row per occurrence, with offsets from
    the SAME tokenizer the tagger uses. Output is slim (ints + one qid)
    and bounded by the gold-word occurrence count — the labeled-corpus
    regime this harness models."""
    import pyarrow as pa

    from opentapioca_ray.functions.text import _WORD_RE, analyze_term

    gold_schema = pa.schema(
        [
            ("doc_id", pa.string()),
            ("begin", pa.int32()),
            ("end", pa.int32()),
            ("gold_qid", pa.string()),
        ]
    )

    def gold_rows(batch: pa.Table) -> pa.Table:
        cols = {name: [] for name in gold_schema.names}
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            if not text:
                continue
            text = text[:10000]
            spans: dict[str, list] = {}
            for m in _WORD_RE.finditer(text):
                tok = analyze_term(m[0])
                if tok in word_info:
                    spans.setdefault(tok, []).append((m.start(), m.end()))
            if not spans:
                continue
            gold_word = min(spans, key=lambda w: (-len(spans[w]), w))
            qid = word_info[gold_word]
            for b, e in spans[gold_word]:
                cols["doc_id"].append(str(doc_id))
                cols["begin"].append(b)
                cols["end"].append(e)
                cols["gold_qid"].append(qid)
        return pa.table(
            {
                n: pa.array(cols[n], type=gold_schema.field(n).type)
                for n in gold_schema.names
            },
            schema=gold_schema,
        )

    return _docs(sf_dir).map_batches(gold_rows, batch_format="pyarrow")


def _q_design_matrix_stats(sf_dir: str):
    """ST4/J3/A6 design-matrix core under the driver's gate: tag with the
    deterministic two-candidate dictionary, join gold on (begin, end),
    build the training rows via `design_rows_vectorized` (the nb_steps=0
    fast path of `doc_design_matrix`, fuzz-pinned equivalent to the
    per-doc build) and roll them up per doc: row count, positive-label
    count, and quantized sums of the rank / nb_statements / nb_sitelinks
    feature columns."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray

    from opentapioca_ray.pipelines.annotate import tag_documents
    from opentapioca_ray.stages.classify import ClassifierParams, per_document_apply

    ents, pr, bow, _model, word_info = _classifier_fixture(sf_dir)
    gold = _classifier_gold(sf_dir, word_info).materialize()
    gold_df = (
        pa.concat_tables([t for t in arrow_blocks(gold) if t.num_rows])
        .to_pandas()
        if gold.count()
        else pd.DataFrame({"doc_id": [], "begin": [], "end": [], "gold_qid": []})
    )
    gold_ref = ray.put(gold_df)
    params = ClassifierParams(nb_steps=0)
    tags = tag_documents(_docs(sf_dir), ents, bow, pr)
    stat_columns = ("doc_id", "n_rows", "n_pos", "sum_rank_e6", "sum_nbst", "sum_nbsi")
    schema = pa.schema([(c, pa.int64()) for c in stat_columns])

    def doc_stats(df: pd.DataFrame) -> pd.DataFrame:
        """Per-doc roll-up of the vectorized design rows (equivalence to
        the per-doc `doc_design_matrix` path is fuzz-pinned in
        tests/test_classify_vectorized.py)."""
        from opentapioca_ray.stages.classify import design_rows_vectorized

        if df.empty or "doc_id" not in df.columns:
            return schema.empty_table().to_pandas()
        docs, X, y = design_rows_vectorized(df, ray.get(gold_ref), params)
        if not len(docs):
            return schema.empty_table().to_pandas()
        frame = pd.DataFrame(
            {
                "doc_id": docs.astype(np.int64),
                "n_rows": np.ones(len(docs), dtype=np.int64),
                "n_pos": y,
                "sum_rank_e6": np.floor(1e6 * X[:, 1] + 0.5).astype(np.int64),
                "sum_nbst": X[:, 2].astype(np.int64),
                "sum_nbsi": X[:, 3].astype(np.int64),
            }
        )
        return frame.groupby("doc_id", sort=False, as_index=False).sum()

    return per_document_apply(tags, doc_stats, schema)


def _q_nif_micro_f1(sf_dir: str):
    """A5/K4 micro-P/R/F1 under the driver's gate: the REAL annotate path
    (tagger -> per-doc classify with the fixed linear model, strict
    argmax > 0 accept) scored against the deterministic gold, with the
    match/prediction counting distributed (gold broadcast, per-batch merge)
    and only scalar counters reaching the driver."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from opentapioca_ray.pipelines.annotate import tag_documents
    from opentapioca_ray.stages.classify import ClassifierParams, classify_dataset

    ents, pr, bow, model, word_info = _classifier_fixture(sf_dir)
    gold = _classifier_gold(sf_dir, word_info).materialize()
    n_gold = gold.count()
    gold_df = pa.concat_tables(
        [t for t in arrow_blocks(gold) if t.num_rows]
    ).to_pandas() if n_gold else pd.DataFrame(
        {"doc_id": [], "begin": [], "end": [], "gold_qid": []}
    )
    gold_ref = ray.put(gold_df)
    params = ClassifierParams(nb_steps=0)
    tags = tag_documents(_docs(sf_dir), ents, bow, pr)
    result = classify_dataset(tags, model, params)

    def count_batch(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("n_pred", pa.int64()), ("n_match", pa.int64())])
        if batch.num_rows == 0 or "is_best" not in batch.column_names:
            return schema.empty_table()
        import pyarrow.compute as pc

        best = batch.filter(pc.equal(batch.column("is_best"), pa.scalar(True)))
        if best.num_rows == 0:
            return schema.empty_table()
        gdf = ray.get(gold_ref)
        pdf = best.select(["doc_id", "start", "end", "best_qid"]).to_pandas()
        merged = pdf.merge(
            gdf,
            left_on=["doc_id", "start", "end"],
            right_on=["doc_id", "begin", "end"],
            how="left",
        )
        n_match = int((merged["best_qid"] == merged["gold_qid"]).sum())
        return pa.table(
            {
                "n_pred": pa.array([best.num_rows], pa.int64()),
                "n_match": pa.array([n_match], pa.int64()),
            }
        )

    parts = result.map_batches(count_batch, batch_format="pyarrow").take_all()
    n_pred = sum(r["n_pred"] for r in parts)
    n_match = sum(r["n_match"] for r in parts)
    precision = n_match / n_pred if n_pred else 1.0
    recall = n_match / n_gold if n_gold else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    q = lambda x: int(np.floor(1e6 * x + 0.5))
    return pa.table(
        {
            "n_pred": pa.array([n_pred], pa.int64()),
            "n_gold": pa.array([n_gold], pa.int64()),
            "n_match": pa.array([n_match], pa.int64()),
            "precision_e6": pa.array([q(precision)], pa.int64()),
            "recall_e6": pa.array([q(recall)], pa.int64()),
            "f1_e6": pa.array([q(f1)], pa.int64()),
        }
    )


def _top_tokens(sf_dir: str, k: int) -> list[str]:
    """Deterministic dictionary: top-k tokens by document frequency
    (ties broken by token) computed once, driver-side, via DuckDB for
    determinism between queries() and oracle_sql()."""
    import duckdb

    con = duckdb.connect()
    rows = con.execute(
        f"""
        SELECT word FROM (
          SELECT trim(t.w) AS word, count(DISTINCT doc_id) AS df
          FROM read_parquet('{sf_dir}/documents.parquet'),
               unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
          WHERE trim(t.w) != ''
          GROUP BY 1
        ) ORDER BY df DESC, word LIMIT {k}
        """
    ).fetchall()
    con.close()
    return [r[0] for r in rows]


def _q_graph_edges(sf_dir: str):
    """A2/A3: weighted edge extraction + row normalization, over the
    lineitem part->supplier graph."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from opentapioca_ray.pipelines.pagerank import count_edges, normalize_edges

    li = _rel(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    out = normalize_edges(count_edges(li, "l_partkey", "l_suppkey"))
    return out.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("src"),
                "dst": b.column("dst"),
                "weight": pc.round(b.column("weight"), 6),
            }
        ),
        batch_format="pyarrow",
    )


def _q_pagerank(sf_dir: str):
    """A4: 16-iteration loss-compensated pagerank over the part->supplier
    graph (numeric semantics pytest-golden; rows-only check here)."""
    import pandas as pd
    import ray.data

    from opentapioca_ray.pipelines.pagerank import (
        compute_pagerank_local,
        count_edges,
        normalize_edges,
    )

    li = _rel(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    graph = compute_pagerank_local(normalize_edges(count_edges(li, "l_partkey", "l_suppkey")))
    pr = graph.pagerank
    # + 0.0 turns the -0.0 that round() gives a -2e-18 rank into +0.0
    return pd.DataFrame(
        {"node": range(len(pr)), "rank": pr.round(9) + 0.0}
    )


def _q_minhash_dedup(sf_dir: str):
    """MinHash-LSH near-dedup, emitted as the VERIFIED pair set (u, v,
    exact prefix-shingle jaccard) so a DuckDB all-pairs oracle can check it
    value-for-value — banding only filters candidates, and its recall on
    this corpus's qualifying pairs is 1 (any miss would fail the hash
    match). The transitive-cluster variant (`minhash_dedup`) is
    pytest-golden (tests/test_dedup.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.dedup import minhash_pairs

    out = minhash_pairs(
        _docs(sf_dir), id_column="doc_id", text_column="text", threshold=0.8
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "u": b.column("u"),
                "v": b.column("v"),
                "jaccard": pc.round(b.column("jaccard"), 6),
            }
        ),
        batch_format="pyarrow",
    )


def _q_ngram_jaccard_pairs(sf_dir: str):
    """Exact n-gram Jaccard near-dup pairs (candidates share >=1 3-gram)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.dedup import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(
        _docs(sf_dir), id_column="doc_id", text_column="text", k=3, threshold=0.5
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "u": b.column("u"),
                "v": b.column("v"),
                "jaccard": pc.round(b.column("jaccard"), 6),
            }
        ),
        batch_format="pyarrow",
    )


def _q_set_sim_join(sf_dir: str):
    """Prefix-filtered exact set-similarity self-join (AllPairs/PPJoin):
    same 3-gram Jaccard >= 1/2 task as ngram_jaccard_pairs, but candidate
    generation ships only each doc's provably-sufficient df-ordered PREFIX
    grams instead of all of them — lossless, so the oracle is the plain
    all-pairs SQL with the exact integer threshold (jacc_e6 fixed-point)."""
    from opentapioca_ray.stages.setjoin import prefix_filter_pairs

    return prefix_filter_pairs(
        _docs(sf_dir),
        id_column="doc_id",
        text_column="text",
        num=1,
        den=2,
        k=3,
    )


def _q_phonetic_blocks(sf_dir: str):
    """Soundex phonetic blocking keys over the corpus vocabulary: distinct
    ASCII-alpha tokens -> NARA soundex codes -> per-code block statistics
    (size + lexicographic word range). The classic complementary blocking
    pass to the exact-token candidates (reference tagger.py:61-69): one
    word-hash exchange dedupes the vocabulary, the soundex kernel is a
    single flat-codepoint numpy pass, and the per-code merge is tiny."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
    )

    word_schema = pa.schema([("word", pa.string())])

    def batch_words(batch: pa.Table) -> pa.Table:
        from opentapioca_ray.functions.text import tokenize_flat

        if batch.num_rows == 0 or "text" not in batch.column_names:
            return word_schema.empty_table()
        import numpy as np

        flat, _ = tokenize_flat(
            [t or "" for t in batch.column("text").to_pylist()]
        )
        if not len(flat):
            return word_schema.empty_table()
        uniq = pa.array(np.unique(flat).astype(object), type=pa.string())
        keep = pc.match_substring_regex(uniq, "^[A-Za-z]+$")
        return pa.table({"word": uniq.filter(keep)})

    words = _docs(sf_dir).map_batches(batch_words, batch_format="pyarrow")

    def code_partition(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        if df.empty or "word" not in df.columns:
            return pd.DataFrame(
                {
                    "sdx": pd.Series(dtype=object),
                    "n_words": pd.Series(dtype=np.int64),
                    "min_word": pd.Series(dtype=object),
                    "max_word": pd.Series(dtype=object),
                }
            )
        from opentapioca_ray.functions.phonetic import soundex

        w = np.unique(df["word"].to_numpy())  # word-hash partition: global dedupe
        out = pd.DataFrame({"sdx": soundex(w.astype(object)), "word": w})
        agg = out.groupby("sdx", sort=False).agg(
            n_words=("word", "size"),
            min_word=("word", "min"),
            max_word=("word", "max"),
        )
        return agg.reset_index()

    partials = coarse_group_apply(words, "word", code_partition)
    return coarse_groupby_agg(
        partials,
        ["sdx"],
        {
            "n_words": ("n_words", "sum"),
            "min_word": ("min_word", "min"),
            "max_word": ("max_word", "max"),
        },
    )


def _q_rendezvous_placement(sf_dir: str):
    """Rendezvous (highest-random-weight) hashing placement audit
    (Thaler & Ravishankar, 1998 — the consistent-placement primitive
    behind shard routing): every order key goes to the node with the
    maximal md5(node:key) weight among 8 nodes; then node n3 is removed
    and keys re-placed among the 7 survivors. HRW's minimal-disruption
    guarantee — ONLY keys on the removed node move — falls out of the
    argmax and is visible in the output: per node (n_before, n_after,
    n_gained), where n_gained counts keys that moved IN after the
    removal. One combiner pass; partial state is <= 8x8 cells."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.sketches import _md5_u64

    orders = _rel(f"{sf_dir}/orders.parquet", columns=["o_orderkey"])
    n_nodes, removed = 8, 3

    schema = pa.schema(
        [("node_before", pa.int64()), ("node_after", pa.int64()), ("n", pa.int64())]
    )

    def place(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "o_orderkey" not in batch.column_names:
            return schema.empty_table()
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        w = np.stack(
            [
                _md5_u64(np.char.add(f"n{j}:", keys.astype(str)))
                for j in range(n_nodes)
            ]
        )  # (nodes, batch) uint64 weights
        before = w.argmax(axis=0).astype(np.int64)
        w2 = w.copy()
        w2[removed] = 0  # removed node never wins (weights are md5 > 0)
        after = w2.argmax(axis=0).astype(np.int64)
        combo = before * n_nodes + after
        cnt = np.bincount(combo, minlength=n_nodes * n_nodes)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "node_before": pa.array(nz // n_nodes),
                "node_after": pa.array(nz % n_nodes),
                "n": pa.array(cnt[nz].astype(np.int64)),
            }
        )

    cells = coarse_groupby_agg(
        orders.map_batches(place, batch_format="pyarrow"),
        ["node_before", "node_after"],
        {"n": ("n", "sum")},
    ).to_pandas()  # <= 64 rows
    nodes = np.arange(n_nodes, dtype=np.int64)
    n_before = np.zeros(n_nodes, dtype=np.int64)
    n_after = np.zeros(n_nodes, dtype=np.int64)
    n_gained = np.zeros(n_nodes, dtype=np.int64)
    for _, r in cells.iterrows():  # <= 64 driver-side cells
        b, a, n = int(r["node_before"]), int(r["node_after"]), int(r["n"])
        n_before[b] += n
        n_after[a] += n
        if a != b:
            n_gained[a] += n
    return pd.DataFrame(
        {
            "node": nodes,
            "n_before": n_before,
            "n_after": n_after,
            "n_gained": n_gained,
        }
    )


_BSL_PREDS = ["blk_eq", "ty_eq", "sz_eq", "name1_eq", "price_bucket_eq"]


def _q_blocking_scheme_learn(sf_dir: str):
    """Greedy blocking-scheme learning (Michelson & Knoblock, AAAI'06
    family): from 5 candidate blocking predicates over the FS linkage
    fixture (brand / type / size / first-name-token / price-bucket
    equality), pick 3 greedily by (new true matches covered desc,
    candidate-pair volume asc, name) — the disjunction-of-predicates
    scheme every ER deployment hand-tunes. Match coverage reduces to a
    2^5 flag-pattern histogram (side B is a pure function of side A, so
    flags need ZERO exchanges); predicate candidate volumes are one
    composite-key exchange of (pred, value) block sizes. Greedy runs
    driver-side over 32 bins + 5 costs."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    part = _rel(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_name", "p_type", "p_size", "p_retailprice"],
    )
    n_p = len(_BSL_PREDS)

    def _fields(batch: pa.Table):
        k = batch.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        blk = batch.column("p_brand").to_numpy(zero_copy_only=False).astype(object)
        nm = batch.column("p_name").to_numpy(zero_copy_only=False).astype(object)
        ty = batch.column("p_type").to_numpy(zero_copy_only=False).astype(object)
        sz = batch.column("p_size").to_numpy(zero_copy_only=False).astype(np.int64)
        price = np.rint(
            batch.column("p_retailprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        a = {
            "blk_eq": blk,
            "ty_eq": ty,
            "sz_eq": sz,
            "name1_eq": np.array([s.split(" ")[0] for s in nm], object),
            "price_bucket_eq": price // 500,
        }
        # side B: this query's own dirty replica — every field perturbed on
        # a different key period so no predicate trivially covers all
        # matches (brand k%11, type k%7, size k%5, name PREPEND k%3 so the
        # first token changes, price +5.00 k%2 so the bucket flips only on
        # a boundary crossing)
        nm_b = np.where(k % 3 == 0, np.array(["x " + s for s in nm], object), nm)
        b = {
            "blk_eq": np.where(k % 11 == 0, "ALTBRAND", blk),
            "ty_eq": np.where(k % 7 == 0, "ALTERED", ty),
            "sz_eq": np.where(k % 5 == 0, sz + 1, sz),
            "name1_eq": np.array([s.split(" ")[0] for s in nm_b], object),
            "price_bucket_eq": np.where(k % 2 == 0, price + 500, price) // 500,
        }
        return k, a, b

    def flag_hist(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("pattern", pa.int64()), ("n", pa.int64())]
        )
        if batch.num_rows == 0 or "p_partkey" not in batch.column_names:
            return schema.empty_table()
        _, a, b = _fields(batch)
        pattern = np.zeros(batch.num_rows, dtype=np.int64)
        for i, p in enumerate(_BSL_PREDS):
            pattern |= (a[p] == b[p]).astype(np.int64) << (n_p - 1 - i)
        cnt = np.bincount(pattern, minlength=1 << n_p)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"pattern": pa.array(nz.astype(np.int64)), "n": pa.array(cnt[nz])}
        )

    hist = (
        coarse_groupby_agg(
            part.map_batches(flag_hist, batch_format="pyarrow"),
            ["pattern"],
            {"n": ("n", "sum")},
        )
        .to_pandas()
    )

    def side_counts(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("pred", pa.string()),
                ("val", pa.string()),
                ("na", pa.int64()),
                ("nb", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "p_partkey" not in batch.column_names:
            return schema.empty_table()
        _, a, b = _fields(batch)
        preds, vals, nas, nbs = [], [], [], []
        for p in _BSL_PREDS:
            for side, arr in (("a", a[p]), ("b", b[p])):
                sv = arr.astype(str)
                u, c = np.unique(sv, return_counts=True)
                preds.append(np.full(len(u), p, object))
                vals.append(u.astype(object))
                nas.append(c if side == "a" else np.zeros(len(u), np.int64))
                nbs.append(c if side == "b" else np.zeros(len(u), np.int64))
        return pa.table(
            {
                "pred": pa.array(np.concatenate(preds), pa.string()),
                "val": pa.array(np.concatenate(vals), pa.string()),
                "na": pa.array(np.concatenate(nas).astype(np.int64)),
                "nb": pa.array(np.concatenate(nbs).astype(np.int64)),
            }
        )

    blocks = coarse_groupby_agg(
        part.map_batches(side_counts, batch_format="pyarrow"),
        ["pred", "val"],
        {"na": ("na", "sum"), "nb": ("nb", "sum")},
    ).to_pandas()  # bounded by distinct (pred, value) pairs
    blocks["pairs"] = blocks["na"] * blocks["nb"]
    cand = blocks.groupby("pred")["pairs"].sum().to_dict()

    pat = hist["pattern"].to_numpy(dtype=np.int64)
    n = hist["n"].to_numpy(dtype=np.int64)
    chosen: list = []
    covered_mask = np.zeros(len(pat), dtype=bool)
    rows = []
    for rnd in range(3):
        best = None
        for i, p in enumerate(_BSL_PREDS):
            if p in chosen:
                continue
            bit = (pat >> (n_p - 1 - i)) & 1
            new = int(n[(bit == 1) & ~covered_mask].sum())
            key = (-new, int(cand[p]), p)
            if best is None or key < best[0]:
                best = (key, p, new, i)
        _, p, new, i = best
        if new <= 0:
            break
        chosen.append(p)
        covered_mask |= ((pat >> (n_p - 1 - i)) & 1) == 1
        rows.append(
            {
                "round": rnd,
                "predicate": p,
                "new_covered": new,
                "total_covered": int(n[covered_mask].sum()),
                "cand_pairs": int(cand[p]),
            }
        )
    out = pd.DataFrame(
        rows,
        columns=["round", "predicate", "new_covered", "total_covered", "cand_pairs"],
    )
    for c in ("round", "new_covered", "total_covered", "cand_pairs"):
        out[c] = out[c].astype(np.int64)
    return out


def _bsl_oracle_sql(rounds: int = 3) -> str:
    """Unrolled greedy blocking-scheme learning: per-key agreement flags,
    a 2^5 flag histogram, per-predicate candidate volumes, then `rounds`
    argmax CTEs over (new coverage desc, cand volume asc, name)."""

    def bitval(alias: str, h: str = "h") -> str:
        return (
            f"(CASE {alias}.pred WHEN 'blk_eq' THEN {h}.f1"
            f" WHEN 'ty_eq' THEN {h}.f2 WHEN 'sz_eq' THEN {h}.f3"
            f" WHEN 'name1_eq' THEN {h}.f4 ELSE {h}.f5 END)"
        )

    sql = """
        WITH f AS MATERIALIZED (
          SELECT p_partkey AS k, p_brand AS blk, p_name AS nm,
                 p_type AS ty, CAST(p_size AS BIGINT) AS sz,
                 CAST(round(p_retailprice * 100, 0) AS BIGINT) AS pc
          FROM part
        ),
        ab AS MATERIALIZED (
          SELECT k, blk, ty, sz, split_part(nm, ' ', 1) AS n1,
                 pc // 500 AS pb,
                 CASE WHEN k % 11 = 0 THEN 'ALTBRAND' ELSE blk END AS blk_b,
                 CASE WHEN k % 7 = 0 THEN 'ALTERED' ELSE ty END AS ty_b,
                 CASE WHEN k % 5 = 0 THEN sz + 1 ELSE sz END AS sz_b,
                 split_part(CASE WHEN k % 3 = 0 THEN 'x ' || nm ELSE nm END,
                            ' ', 1) AS n1_b,
                 (CASE WHEN k % 2 = 0 THEN pc + 500 ELSE pc END)
                   // 500 AS pb_b
          FROM f
        ),
        hist AS MATERIALIZED (
          SELECT CASE WHEN blk = blk_b THEN 1 ELSE 0 END AS f1,
                 CASE WHEN ty = ty_b THEN 1 ELSE 0 END AS f2,
                 CASE WHEN sz = sz_b THEN 1 ELSE 0 END AS f3,
                 CASE WHEN n1 = n1_b THEN 1 ELSE 0 END AS f4,
                 CASE WHEN pb = pb_b THEN 1 ELSE 0 END AS f5,
                 CAST(count(*) AS BIGINT) AS n
          FROM ab GROUP BY 1, 2, 3, 4, 5
        ),
        cand AS MATERIALIZED (
          SELECT 'blk_eq' AS pred, (
            SELECT CAST(sum(a.na * b.nb) AS BIGINT) FROM
              (SELECT blk AS v, count(*) AS na FROM ab GROUP BY 1) a
              JOIN (SELECT blk_b AS v, count(*) AS nb FROM ab GROUP BY 1) b
              USING (v)) AS cp
          UNION ALL SELECT 'ty_eq', (
            SELECT CAST(sum(a.na * b.nb) AS BIGINT) FROM
              (SELECT ty AS v, count(*) AS na FROM ab GROUP BY 1) a
              JOIN (SELECT ty_b AS v, count(*) AS nb FROM ab GROUP BY 1) b
              USING (v))
          UNION ALL SELECT 'sz_eq', (
            SELECT CAST(sum(a.na * b.nb) AS BIGINT) FROM
              (SELECT sz AS v, count(*) AS na FROM ab GROUP BY 1) a
              JOIN (SELECT sz_b AS v, count(*) AS nb FROM ab GROUP BY 1) b
              USING (v))
          UNION ALL SELECT 'name1_eq', (
            SELECT CAST(sum(a.na * b.nb) AS BIGINT) FROM
              (SELECT n1 AS v, count(*) AS na FROM ab GROUP BY 1) a
              JOIN (SELECT n1_b AS v, count(*) AS nb FROM ab GROUP BY 1) b
              USING (v))
          UNION ALL SELECT 'price_bucket_eq', (
            SELECT CAST(sum(a.na * b.nb) AS BIGINT) FROM
              (SELECT pb AS v, count(*) AS na FROM ab GROUP BY 1) a
              JOIN (SELECT pb_b AS v, count(*) AS nb FROM ab GROUP BY 1) b
              USING (v))
        ),
        ch0 AS (SELECT NULL::VARCHAR AS pred WHERE false)"""
    for t in range(rounds):
        sql += f""",
        sc{t} AS MATERIALIZED (
          SELECT pr.pred, pr.cp,
            CAST(coalesce(sum(CASE WHEN {bitval("pr")} = 1
              AND NOT EXISTS (SELECT 1 FROM ch{t} c
                              WHERE {bitval("c")} = 1)
              THEN h.n END), 0) AS BIGINT) AS new
          FROM cand pr CROSS JOIN hist h
          WHERE pr.pred NOT IN (SELECT pred FROM ch{t})
          GROUP BY pr.pred, pr.cp
        ),
        b{t} AS MATERIALIZED (
          SELECT pred, new, cp FROM sc{t} WHERE new > 0
          ORDER BY new DESC, cp ASC, pred LIMIT 1
        ),
        ch{t + 1} AS (
          SELECT pred FROM ch{t} UNION ALL SELECT pred FROM b{t}
        ),
        tot{t} AS (
          SELECT CAST(coalesce(sum(h.n), 0) AS BIGINT) AS tc
          FROM hist h
          WHERE EXISTS (SELECT 1 FROM ch{t + 1} c WHERE {bitval("c")} = 1)
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS round, pred AS predicate,"
        f" new AS new_covered, (SELECT tc FROM tot{t}) AS total_covered,"
        f" cp AS cand_pairs FROM b{t}"
        for t in range(rounds)
    )
    return sql


def _q_ams_f2(sf_dir: str):
    """AMS second-moment sketch (Alon-Matias-Szegedy, STOC'96): estimate
    the self-join size sum(cnt^2) of l_partkey from SIX signed counters —
    S_j = sum over events of the md5-derived +-1 sign of the key; each
    S_j^2 is an unbiased F2 estimate and the median-of-6 tames variance.
    O(1) state, ZERO exchanges for the sketch (pure combiner map); the
    exact moment rides the same per-key count pass join_sample_estimate
    uses, so the audit row shows sketch vs sampling vs truth on one
    statistic."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.sketches import _md5_u64

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_partkey"])
    n_rows = 6

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [(f"s{j}", pa.int64()) for j in range(n_rows)]
        )
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return schema.empty_table()
        k = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        # one md5 per key; row j's +-1 sign is digest bit j (independent
        # bits of one strong hash — 6x fewer digests than 6 seeded hashes)
        hv = _md5_u64(k)
        out = {}
        for j in range(n_rows):
            sign = ((hv >> np.uint64(j)) % np.uint64(2)).astype(np.int64) * 2 - 1
            out[f"s{j}"] = pa.array([int(sign.sum())])
        return pa.table(out)

    sums = li.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    ests = sorted(int(sums[f"s{j}"]) ** 2 for j in range(n_rows))
    median_est = (ests[2] + ests[3]) // 2

    counts = coarse_groupby_agg(
        li, ["l_partkey"], {"cnt": ("l_partkey", "size")}
    )

    def sq(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "cnt" not in batch.column_names:
            return pa.schema([("sq", pa.int64())]).empty_table()
        c = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"sq": pa.array([int((c * c).sum())])})

    exact = int(
        counts.map_batches(sq, batch_format="pyarrow").to_pandas()["sq"].sum()
    )
    return pd.DataFrame(
        {
            "median_est_pairs": [median_est],
            "min_est": [ests[0]],
            "max_est": [ests[-1]],
            "exact_pairs": [exact],
        }
    ).astype(np.int64)


def _q_join_sample_estimate(sf_dir: str):
    """Correlated (key-synchronized) sampling for join-size estimation —
    the AQP classic: sampling 20% of PART KEYS by md5 on both sides of
    the lineitem-x-lineitem self-join keeps the join's key structure
    intact, so est = sampled join size x 5 is unbiased where independent
    row sampling would be quadratically biased. One combiner pass builds
    per-key counts; the join size is sum(cnt^2) per key, never
    materialized. Output: one audit row (keys sampled, sampled pairs,
    estimate, exact)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.sketches import _md5_u64

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_partkey"])
    counts = coarse_groupby_agg(
        li, ["l_partkey"], {"cnt": ("l_partkey", "size")}
    )

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("n_keys_sampled", pa.int64()),
                ("sampled_pairs", pa.int64()),
                ("exact_pairs", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return schema.empty_table()
        k = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        c = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        sampled = (_md5_u64(k) % np.uint64(100)) < 20
        sq = c * c
        return pa.table(
            {
                "n_keys_sampled": pa.array([int(sampled.sum())]),
                "sampled_pairs": pa.array([int(sq[sampled].sum())]),
                "exact_pairs": pa.array([int(sq.sum())]),
            }
        )

    parts = counts.map_batches(partial, batch_format="pyarrow").to_pandas()
    n_s = int(parts["n_keys_sampled"].sum())
    sp = int(parts["sampled_pairs"].sum())
    ex = int(parts["exact_pairs"].sum())
    return pd.DataFrame(
        {
            "n_keys_sampled": [n_s],
            "sampled_pairs": [sp],
            "est_pairs": [sp * 100 // 20],
            "exact_pairs": [ex],
        }
    ).astype(np.int64)


def _q_coreset_cover(sf_dir: str):
    """Greedy set-cover coreset selection (the classic (1-1/e) greedy):
    10 rounds picking the document covering the most NOT-yet-covered
    3-grams (ties -> smallest doc_id). The zero-shuffle `gram_table` map
    packs each doc's distinct grams into a single list row (a row cannot
    split across blocks, so per-block argmax over whole docs is exact);
    each round is then a single broadcast-filtered map pass whose
    per-block winner row carries its OWN new-gram list — no per-round
    shuffle and no corpus re-scan to fetch the chosen doc's grams. The
    covered-gram state is bounded by (rounds x grams/doc) and broadcast;
    the driver sees only #blocks candidate rows per round. Output per
    round: the chosen doc, its marginal gain, and the cumulative
    covered-gram count."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from opentapioca_ray.stages.dedup import gram_table

    doc_grams = (
        _docs(sf_dir)
        .map_batches(
            lambda b: gram_table(b, "doc_id", "text", 3),
            batch_format="pyarrow",
        )
        .materialize()
    )

    chosen = []
    covered: set = set()
    for rnd in range(10):
        cov_ref = ray.put(np.array(sorted(covered), dtype=object))

        def block_best(batch: pa.Table) -> pa.Table:
            schema = pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("gain", pa.int64()),
                    ("new_grams", pa.list_(pa.string())),
                ]
            )
            if batch.num_rows == 0 or "grams" not in batch.column_names:
                return schema.empty_table()
            cov = ray.get(cov_ref)
            lists = batch.column("grams").combine_chunks()
            flat = lists.flatten().to_numpy(zero_copy_only=False)
            lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
            new = ~np.isin(flat, cov) if len(cov) else np.ones(len(flat), bool)
            doc_idx = np.repeat(np.arange(len(lens)), lens)
            gains = np.bincount(
                doc_idx, weights=new, minlength=len(lens)
            ).astype(np.int64)
            if not len(gains) or gains.max() <= 0:
                return schema.empty_table()
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            best_i = np.lexsort((ids, -gains))[0]
            winner_new = flat[(doc_idx == best_i) & new]
            return pa.table(
                {
                    "doc_id": pa.array([int(ids[best_i])], type=pa.int64()),
                    "gain": pa.array([int(gains[best_i])], type=pa.int64()),
                    "new_grams": pa.array(
                        [list(winner_new)], type=pa.list_(pa.string())
                    ),
                }
            )

        cands = doc_grams.map_batches(
            block_best, batch_format="pyarrow"
        ).take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: (-r["gain"], r["doc_id"]))
        covered |= set(best["new_grams"])
        chosen.append(
            {
                "round": rnd,
                "doc_id": int(best["doc_id"]),
                "gain": int(best["gain"]),
                "covered_total": len(covered),
            }
        )
    return pd.DataFrame(
        chosen, columns=["round", "doc_id", "gain", "covered_total"]
    ).astype(np.int64)


def _coreset_oracle_sql(rounds: int = 10) -> str:
    """Unrolled greedy set cover: per round the uncovered-gram counts, an
    argmax, and the covered-set union."""
    sql = f"""
        WITH toks AS (
          SELECT doc_id,
            list_filter(
              list_transform(
                regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                w -> trim(w)),
              w -> w != '') AS arr
          FROM documents
        ),
        grams AS MATERIALIZED (
          SELECT doc_id, unnest(
            CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                 ELSE list_distinct(list_transform(
                        range(1, len(arr) - 1),
                        i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
            END) AS g
          FROM toks WHERE len(arr) > 0
        ),
        cov0 AS (SELECT NULL::VARCHAR AS g WHERE false)"""
    for t in range(rounds):
        sql += f""",
        best{t} AS MATERIALIZED (
          SELECT doc_id, CAST(count(*) AS BIGINT) AS gain
          FROM grams WHERE g NOT IN (SELECT g FROM cov{t})
          GROUP BY doc_id
          ORDER BY gain DESC, doc_id LIMIT 1
        ),
        cov{t + 1} AS MATERIALIZED (
          SELECT g FROM cov{t}
          UNION
          SELECT gr.g FROM grams gr JOIN best{t} b ON gr.doc_id = b.doc_id
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS round, doc_id, gain,"
        f" (SELECT CAST(count(*) AS BIGINT) FROM cov{t + 1})"
        f" AS covered_total FROM best{t}"
        for t in range(rounds)
    )
    return sql


def _q_canopy_blocks(sf_dir: str):
    """Canopy clustering (McCallum/Nigam/Ungar KDD'00) as overlapping soft
    blocking for ER: 8 greedy rounds, each picking the smallest alive
    doc_id as center, pulling every alive doc sharing >= 4 distinct word
    bigrams into the canopy and retiring docs sharing >= 10 (plus the
    center). Cheap metric = exact shared-distinct-2-gram count (integer,
    so the SQL twin needs no quantization). Membership stays distributed:
    per-round block-min candidate rows carry their own gram lists, and
    member rows are lazily tagged unions — the driver holds one center
    row per round."""
    from opentapioca_ray.stages.canopy import canopy_clusters
    from opentapioca_ray.stages.dedup import gram_table

    doc_grams = _docs(sf_dir).map_batches(
        lambda b: gram_table(b, "doc_id", "text", 2), batch_format="pyarrow"
    )
    return canopy_clusters(doc_grams, t1=4, t2=10, rounds=8)


def _canopy_oracle_sql(t1: int = 4, t2: int = 10, rounds: int = 8) -> str:
    """Unrolled greedy canopies: per round the min-id center over the
    alive pool, shared-bigram overlaps vs that center, the >= t1 member
    rows, and the < t2 (minus center) survivor pool."""
    sql = f"""
        WITH toks AS (
          SELECT doc_id,
            list_filter(
              list_transform(
                regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                w -> trim(w)),
              w -> w != '') AS arr
          FROM documents
        ),
        grams AS MATERIALIZED (
          SELECT doc_id, unnest(
            CASE WHEN len(arr) < 2 THEN [array_to_string(arr, ' ')]
                 ELSE list_distinct(list_transform(
                        range(1, len(arr)),
                        i -> arr[i] || ' ' || arr[i+1]))
            END) AS g
          FROM toks WHERE len(arr) > 0
        ),
        alive0 AS MATERIALIZED (SELECT DISTINCT doc_id FROM grams)"""
    for t in range(rounds):
        sql += f""",
        c{t} AS MATERIALIZED (SELECT min(doc_id) AS cid FROM alive{t}),
        ov{t} AS MATERIALIZED (
          SELECT a.doc_id, CAST(count(*) AS BIGINT) AS overlap
          FROM grams a
          JOIN grams cg ON a.g = cg.g
          JOIN c{t} ON cg.doc_id = c{t}.cid
          WHERE a.doc_id IN (SELECT doc_id FROM alive{t})
          GROUP BY a.doc_id
        ),
        alive{t + 1} AS MATERIALIZED (
          SELECT doc_id FROM alive{t}
          WHERE doc_id NOT IN
              (SELECT doc_id FROM ov{t} WHERE overlap >= {t2})
            AND doc_id != (SELECT cid FROM c{t})
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS canopy_round,"
        f" (SELECT cid FROM c{t}) AS center_id, doc_id, overlap"
        f" FROM ov{t} WHERE overlap >= {t1}"
        for t in range(rounds)
    )
    return sql


def _q_random_walks(sf_dir: str):
    """Deterministic 4-step random walks (one walker per node) over the
    part--supplier bipartite graph: next hop = neighbor minimizing
    md5(walker:step:neighbor) — DeepWalk-style sampling made reproducible
    and SQL-replayable. Output: the (walker, step, node) walk corpus."""
    from opentapioca_ray.stages.walks import random_walks

    return random_walks(
        _partsupp_directed(sf_dir), steps=4, edges_distinct_directed=True
    )


def _walks_oracle_sql(steps: int = 4) -> str:
    """Unrolled deterministic walks: the adjacency is ranked once
    (row_number over dst per src + degree); per step each walker joins to
    the single row whose 0-based rank equals md5_u64(walker:t) % degree —
    one md5 per walker per step, matching stages/walks.py."""
    sql = """
        WITH ed0 AS MATERIALIZED (
          SELECT u AS src, v AS dst FROM (
            SELECT DISTINCT l_partkey AS u, l_suppkey + 10000000 AS v
            FROM lineitem
          )
          UNION ALL
          SELECT v AS src, u AS dst FROM (
            SELECT DISTINCT l_partkey AS u, l_suppkey + 10000000 AS v
            FROM lineitem
          )
        ),
        ed AS MATERIALIZED (
          SELECT src, dst,
                 row_number() OVER (PARTITION BY src ORDER BY dst) - 1
                   AS rnk,
                 count(*) OVER (PARTITION BY src) AS deg
          FROM ed0
        ),
        p0 AS MATERIALIZED (
          SELECT src AS walker, src AS node FROM ed GROUP BY src
        )"""
    for t in range(steps):
        sql += f""",
        p{t + 1} AS MATERIALIZED (
          SELECT p.walker, e.dst AS node
          FROM p{t} p JOIN ed e ON e.src = p.node
          AND e.rnk = CAST(
            ('0x' || substr(md5(CAST(p.walker AS VARCHAR) || ':{t}'), 1, 16)
            )::UBIGINT % CAST(e.deg AS UBIGINT) AS BIGINT)
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT walker, CAST({i} AS BIGINT) AS step, node FROM p{i}"
        for i in range(steps + 1)
    )
    return sql


def _q_time_to_exceed(sf_dir: str):
    """Per event: microseconds until the same user's next event with a
    strictly greater value (-1 if never) — the monotone-stack problem,
    solved for all rows at once by a vectorized sparse-table binary
    descent with +inf walls between user segments (windows.py:
    next_greater_event). Values compare in exact e4 units."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.windows import next_greater_event

    ev = _events(sf_dir)

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("us", pa.int64()),
                ("value_e4", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        return pa.table(
            {
                "event_id": batch.column("event_id").cast(pa.int64()),
                "user_id": batch.column("user_id").cast(pa.int64()),
                "us": batch.column("ts").cast(pa.int64()),
                "value_e4": pa.array(
                    np.rint(
                        batch.column("value").to_numpy(zero_copy_only=False)
                        * 10_000.0
                    ).astype(np.int64)
                ),
            }
        )

    return next_greater_event(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_column="user_id",
        order_columns=("us", "event_id"),
        value_column="value_e4",
    )


def _q_covered_time(sf_dir: str):
    """Per-user total covered time of value-scaled event intervals
    [ts, ts + value seconds] — the gaps-and-islands union-length
    operator over variable, overlapping intervals (distinct from
    sessionization: intervals carry their own durations and merge only
    while they actually overlap)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.windows import interval_union_per_key

    ev = _events(sf_dir)

    def iv(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("user_id", pa.int64()), ("s", pa.int64()), ("e", pa.int64())]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dur = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 10_000.0
        ).astype(np.int64) * 100  # value seconds, exact via e4 cents
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "s": pa.array(us),
                "e": pa.array(us + dur),
            }
        )

    return interval_union_per_key(
        ev.map_batches(iv, batch_format="pyarrow"), "user_id", "s", "e"
    )


def _q_hits_scores(sf_dir: str):
    """HITS hubs & authorities (3 quantized rounds) on the part->supplier
    bipartite purchase graph: hubs = parts spread across suppliers,
    authorities = suppliers concentrating hub parts. Scores renormalize
    to e9 integers by HUGEINT-exact floor division each half-round, so
    the whole trajectory unrolls into SQL. Output: (node, side, score)
    with side 0 = hub (part), 1 = authority (supplier + 1e7)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.hits import hits_scores

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def edge_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return pa.schema(
                [("src", pa.int64()), ("dst", pa.int64())]
            ).empty_table()
        return pa.table(
            {
                "src": batch.column("l_partkey").cast(pa.int64()),
                "dst": pc.add(
                    batch.column("l_suppkey").cast(pa.int64()), 10_000_000
                ),
            }
        )

    hubs, auths = hits_scores(
        li.map_batches(edge_rows, batch_format="pyarrow"), rounds=3
    )

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or "node" not in batch.column_names:
                return pa.schema(
                    [
                        ("node", pa.int64()),
                        ("side", pa.int64()),
                        ("score", pa.int64()),
                    ]
                ).empty_table()
            return pa.table(
                {
                    "node": batch.column("node"),
                    "side": pa.array(
                        np.full(batch.num_rows, side, dtype=np.int64)
                    ),
                    "score": batch.column("score"),
                }
            )

        return fn

    return hubs.map_batches(tag(0), batch_format="pyarrow").union(
        auths.map_batches(tag(1), batch_format="pyarrow")
    )


def _hits_oracle_sql(rounds: int = 3) -> str:
    """Unrolled quantized HITS: per half-round an edge-join sum, a max,
    and a HUGEINT floor renormalization."""
    sql = """
        WITH ed AS MATERIALIZED (
          SELECT DISTINCT l_partkey AS src,
                 l_suppkey + 10000000 AS dst
          FROM lineitem
        ),
        h0 AS MATERIALIZED (
          SELECT src AS node, CAST(1000000000 AS BIGINT) AS score
          FROM ed GROUP BY src
        )"""
    for t in range(rounds):
        sql += f""",
        sa{t} AS MATERIALIZED (
          SELECT e.dst AS node, CAST(sum(h.score) AS BIGINT) AS s
          FROM ed e JOIN h{t} h ON h.node = e.src
          GROUP BY e.dst
        ),
        a{t + 1} AS MATERIALIZED (
          SELECT node,
            CAST(CAST(s AS HUGEINT) * 1000000000
                 // (SELECT CAST(max(s) AS HUGEINT) FROM sa{t})
                 AS BIGINT) AS score
          FROM sa{t}
        ),
        sh{t} AS MATERIALIZED (
          SELECT e.src AS node, CAST(sum(a.score) AS BIGINT) AS s
          FROM ed e JOIN a{t + 1} a ON a.node = e.dst
          GROUP BY e.src
        ),
        h{t + 1} AS MATERIALIZED (
          SELECT node,
            CAST(CAST(s AS HUGEINT) * 1000000000
                 // (SELECT CAST(max(s) AS HUGEINT) FROM sh{t})
                 AS BIGINT) AS score
          FROM sh{t}
        )"""
    sql += f"""
        SELECT node, CAST(0 AS BIGINT) AS side, score FROM h{rounds}
        UNION ALL
        SELECT node, CAST(1 AS BIGINT) AS side, score FROM a{rounds}
    """
    return sql


def _q_peak_concurrency(sf_dir: str):
    """Per-day peak number of concurrently-open user sessions (30-min-gap
    sessionization, inclusive endpoints): the sweep-line max as a
    two-phase segmented scan — each day partition reduces to (net delta,
    max within-day prefix), the O(#days) carry recursion finishes on the
    driver. Span-only days (no session boundary) report the carry."""
    from opentapioca_ray.stages.windows import peak_concurrency, sessionize

    sessions = sessionize(_events(sf_dir), gap_us=1_800_000_000)
    return peak_concurrency(sessions, "start_us", "end_us")


def _q_grid_neighbors(sf_dir: str):
    """Fixed-radius near-pair self-join over the embedding projection's
    first two dimensions (e6 fixed-point): all pairs within L-inf 0.05 via
    the epsilon-grid bounded-replication exchange (probe side duplicated
    at most 9x — lossless, any qualifying pair shares or neighbors a
    cell). The oracle is the plain quadratic join; grid cells are a
    Ray-side performance detail that never touches the result."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.spatial import grid_neighbor_join

    emb = _rel(f"{sf_dir}/embeddings.parquet")

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("vec_id", pa.int64()), ("x", pa.int64()), ("y", pa.int64())]
        )
        if batch.num_rows == 0 or "embedding" not in batch.column_names:
            return schema.empty_table()
        from opentapioca_ray.functions.vectors import list_to_matrix

        mat = list_to_matrix(batch.column("embedding"))
        # half-UP quantization (floor(x*1e6 + 0.5)), not np.rint: float32
        # coords * 1e6 land on exact .5 boundaries where rint's
        # half-to-even disagrees with SQL round()'s half-away
        return pa.table(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "x": pa.array(np.floor(mat[:, 0] * 1e6 + 0.5).astype(np.int64)),
                "y": pa.array(np.floor(mat[:, 1] * 1e6 + 0.5).astype(np.int64)),
            }
        )

    return grid_neighbor_join(
        emb.map_batches(prep, batch_format="pyarrow"),
        id_column="vec_id",
        x_column="x",
        y_column="y",
        eps_e6=50_000,
    )


def _q_decayed_engagement(sf_dir: str):
    """Half-life-decayed engagement score per user at the corpus's max
    timestamp: each event contributes value >> floor(age / 7 days) — the
    exponential-decay aggregate made EXACT by using base-2 half-lives as
    integer shifts (libm exp() differs across engines at the ulp level;
    bit shifts don't). One combiner pass after a broadcast of the global
    max timestamp; shifts >= 63 contribute zero."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    ev = _events(sf_dir)
    hl_us = 7 * 86_400_000_000  # 7-day half-life

    # global max ts: an O(blocks) combiner reduce
    def block_max(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return pa.schema([("m", pa.int64())]).empty_table()
        return pa.table(
            {"m": pa.array([pc.max(batch.column("ts").cast(pa.int64())).as_py()])}
        )

    t_max = max(
        r["m"] for r in ev.map_batches(block_max, batch_format="pyarrow").take_all()
    )

    def partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("user_id", pa.int64()), ("score_e4", pa.int64())])
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 10_000.0
        ).astype(np.int64)
        k = np.minimum((t_max - us) // hl_us, 62).astype(np.int64)
        contrib = v >> k
        u = batch.column("user_id").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uu, inv = np.unique(u, return_inverse=True)
        sums = np.bincount(inv, weights=contrib.astype(np.float64)).astype(np.int64)
        return pa.table({"user_id": pa.array(uu), "score_e4": pa.array(sums)})

    return coarse_groupby_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        {"score_e4": ("score_e4", "sum")},
    )


def _q_corpus_prep(sf_dir: str):
    """Flagship composed LLM corpus-prep pipeline — the stages every
    training-data build chains, run as ONE streaming dataflow:

      1. exact dedup   — keep the min-doc_id representative per distinct
                         text (slim (hash, id) groupby; the corpus then
                         rides ONE reduce-side semi-join exchange,
                         nothing id-proportional on the driver);
      2. decontaminate — drop the benchmark partition (doc_id % 97 == 0)
                         and every doc sharing >= 8 distinct 3-grams
                         with it (benchmark grams are the SMALL side:
                         broadcast once, per-doc hit counts close inside
                         each batch, zero shuffles);
      3. quality budget— rank survivors by stopword density (q_e6) and
                         keep the best prefix within 25% of the
                         SURVIVORS' token budget (distributed prefix
                         scan; driver holds one scalar per block).

    Output: (doc_id, q_e6, bpe_tokens) of the final selection. The SQL
    twin chains the same three stages as CTEs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from opentapioca_ray.functions.textstats import (
        _EN_STOPWORDS,
        count_tokens,
        whitespace_token_lists,
    )
    from opentapioca_ray.stages.dedup import exact_dedup, gram_doc_rows
    from opentapioca_ray.stages.exchange import right_size
    from opentapioca_ray.stages.relational import coarse_semi_join
    from opentapioca_ray.stages.selection import prefix_scan_select

    docs = _docs(sf_dir).materialize()
    doc_schema = pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string())]
    )
    slim = docs.select_columns(["doc_id", "text"])

    # 1. exact dedup -> representative ids, semi-joined back
    keep = exact_dedup(docs, "doc_id").select_columns(["keep_id"])
    deduped = right_size(
        coarse_semi_join(
            slim, "doc_id", keep, doc_schema, keys_column="keep_id"
        ).materialize()
    )

    # 2. decontamination: benchmark grams broadcast once
    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        rows = gram_doc_rows(
            batch.filter(pa.array(ids % 97 == 0)), "doc_id", "text", 3
        )
        return pa.table({"gram": rows.column("gram")})

    bench = (
        docs.map_batches(bench_grams, batch_format="pyarrow")
        .groupby("gram")
        .count()
        .select_columns(["gram"])
    )
    bench_set = pa.concat_tables(
        [t for t in arrow_blocks(bench) if t.num_rows > 0]
    ).column("gram")
    bench_ref = ray.put(bench_set.combine_chunks())

    stop = frozenset(_EN_STOPWORDS)

    def decont_facts(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("q_e6", pa.int64()),
                ("bpe_tokens", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return schema.empty_table()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % 97 != 0))
        if batch.num_rows == 0:
            return schema.empty_table()
        grams = gram_doc_rows(batch, "doc_id", "text", 3)
        hit = pc.is_in(grams.column("gram"), value_set=ray.get(bench_ref))
        gid = grams.column("doc_id").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hits = np.zeros(batch.num_rows, dtype=np.int64)
        if grams.num_rows:
            order = np.argsort(ids)  # ids unique per batch post-dedup
            pos = order[np.searchsorted(ids[order], gid)]
            np.add.at(hits, pos, hit.to_numpy(zero_copy_only=False))
        keep_mask = hits < 8
        batch = batch.filter(pa.array(keep_mask))
        if batch.num_rows == 0:
            return schema.empty_table()
        toks = whitespace_token_lists(batch, "text")
        q = np.zeros(batch.num_rows, dtype=np.int64)
        for i, lst in enumerate(toks.to_pylist()):
            if lst:
                n_stop = sum(1 for w in lst if w.lower() in stop)
                q[i] = n_stop * 1_000_000 // len(lst)
        bpe = np.array(
            [count_tokens(t or "") for t in batch.column("text").to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "q_e6": pa.array(q),
                "bpe_tokens": pa.array(bpe),
            }
        )

    facts = deduped.map_batches(
        decont_facts, batch_format="pyarrow"
    ).materialize()

    # 3. budgeted selection over the SURVIVORS' token total
    total = facts.sum("bpe_tokens") or 0
    return prefix_scan_select(
        facts,
        order_columns=["q_e6", "doc_id"],
        descending=[True, False],
        value_column="bpe_tokens",
        budget=int(total) // 4,
    )


def _q_rbo_rankings(sf_dir: str):
    """Rank-biased overlap (p=0.9, depth 50) between the corpus ranked by
    stopword-quality score and by BPE-ish token count — per-depth overlap
    and the exact integer prefix-summed RBO in nano-units (each depth's
    term quantized once)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import (
        _EN_STOPWORDS,
        count_tokens,
        whitespace_token_lists,
    )
    from opentapioca_ray.stages.evaluation import rbo_depth_table

    stop = frozenset(_EN_STOPWORDS)

    def facts(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("doc_id", pa.int64()), ("q_e6", pa.int64()),
             ("bpe_tokens", pa.int64())]
        )
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return schema.empty_table()
        toks = whitespace_token_lists(batch, "text")
        q = np.zeros(batch.num_rows, dtype=np.int64)
        for i, lst in enumerate(toks.to_pylist()):
            if lst:
                n_stop = sum(1 for w in lst if w.lower() in stop)
                q[i] = n_stop * 1_000_000 // len(lst)
        bpe = np.array(
            [count_tokens(t or "") for t in batch.column("text").to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "q_e6": pa.array(q),
                "bpe_tokens": pa.array(bpe),
            }
        )

    ds = _docs(sf_dir).map_batches(facts, batch_format="pyarrow")
    return rbo_depth_table(
        ds, "q_e6", "bpe_tokens", "doc_id", depth=50, p=0.9
    )


def _q_ndcg_rankings(sf_dir: str):
    """NDCG@10 of the token-count ranking against stopword-quality
    relevance grades (q_e6 // 250000): quantized-discount exact-integer
    DCG/IDCG — does picking the longest docs also pick the high-quality
    ones?"""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import (
        _EN_STOPWORDS,
        count_tokens,
        whitespace_token_lists,
    )
    from opentapioca_ray.stages.evaluation import ndcg_at_k

    stop = frozenset(_EN_STOPWORDS)

    def facts(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("doc_id", pa.int64()), ("rel", pa.int64()),
             ("bpe_tokens", pa.int64())]
        )
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return schema.empty_table()
        toks = whitespace_token_lists(batch, "text")
        q = np.zeros(batch.num_rows, dtype=np.int64)
        for i, lst in enumerate(toks.to_pylist()):
            if lst:
                n_stop = sum(1 for w in lst if w.lower() in stop)
                q[i] = n_stop * 1_000_000 // len(lst)
        bpe = np.array(
            [count_tokens(t or "") for t in batch.column("text").to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "rel": pa.array(q // 250_000),
                "bpe_tokens": pa.array(bpe),
            }
        )

    ds = _docs(sf_dir).map_batches(facts, batch_format="pyarrow")
    return ndcg_at_k(ds, "bpe_tokens", "rel", "doc_id", k=10)


def _q_transitivity_audit(sf_dir: str):
    """ER match-graph transitivity audit: similarity is not transitive,
    and every wedge a~b~c whose closing pair (a, c) scores BELOW the
    match threshold is a future cluster-purity incident (transitive
    closure will merge a and c anyway). Edges = 3-gram Jaccard >= 1/2
    pairs from the prefix join (the sparse shingle universe; word-level
    similarity is quadratically dense on templated corpora and would
    blow up at scale); for every open wedge the closing pair is
    classified by its exact score: closed (>= t), violation (shares
    grams but scores < t), or uncompared (no shared gram at all). Wedge enumeration rides one exchange on the pivot doc; closing
    pairs classify against the all-sharing-pairs table in a keyed merge.
    Output: one audit row of exact counts."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply
    from opentapioca_ray.stages.setjoin import prefix_filter_pairs

    # all gram-sharing pairs with exact scores (threshold 0 degenerates
    # the prefix filter to full blocking — still the same machinery; the
    # 3-gram candidate graph is sparse where word-sharing is quadratic)
    all_pairs = prefix_filter_pairs(
        _docs(sf_dir), num=0, den=1, k=3
    ).materialize()
    edges = all_pairs.filter(expr="jacc_e6 >= 500000").materialize()

    # wedges: for each pivot doc, all neighbor pairs (u < w)
    def both_dirs(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("pivot", pa.int64()), ("nbr", pa.int64())])
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return schema.empty_table()
        u = batch.column("u").cast(pa.int64()).combine_chunks()
        v = batch.column("v").cast(pa.int64()).combine_chunks()
        return pa.table(
            {
                "pivot": pa.concat_arrays([u, v]),
                "nbr": pa.concat_arrays([v, u]),
            }
        )

    def wedge_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "u": pd.Series(dtype=np.int64),
                "w": pd.Series(dtype=np.int64),
                "n_wedges": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "pivot" not in df.columns:
            return empty
        from opentapioca_ray.stages.triangles import _segment_pairs

        piv = df["pivot"].to_numpy(np.int64)
        nbr = df["nbr"].to_numpy(np.int64)
        o = np.lexsort((nbr, piv))
        codes = pd.factorize(piv[o])[0]
        nbr = nbr[o]
        li, ri = _segment_pairs(codes)
        if len(li) == 0:
            return empty
        out = pd.DataFrame({"u": nbr[li], "w": nbr[ri]})
        return (
            out.groupby(["u", "w"], sort=False)
            .size()
            .reset_index(name="n_wedges")
        )

    # wedge PARTIALS only (per pivot-partition, combined inside
    # wedge_pairs); the global (u, w) merge rides the SAME u-keyed
    # exchange the classifier needs anyway - one exchange, not two
    wedges = coarse_group_apply(
        edges.map_batches(both_dirs, batch_format="pyarrow"),
        "pivot",
        wedge_pairs,
    )

    # classify closing pairs against the all-pairs score table: one keyed
    # merge (tag wedge rows and score rows into the same (u, w) exchange)
    tag_schema = pa.schema(
        [
            ("u", pa.int64()),
            ("w", pa.int64()),
            ("n_wedges", pa.int64()),
            ("jacc_e6", pa.int64()),
            ("__is_wedge", pa.int64()),
        ]
    )

    def tag_wedges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return tag_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "u": batch.column("u"),
                "w": batch.column("w"),
                "n_wedges": batch.column("n_wedges"),
                "jacc_e6": pa.array(np.full(n, -1, dtype=np.int64)),
                "__is_wedge": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    def tag_scores(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return tag_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "u": batch.column("u").cast(pa.int64()),
                "w": batch.column("v").cast(pa.int64()),
                "n_wedges": pa.array(np.zeros(n, dtype=np.int64)),
                "jacc_e6": batch.column("jacc_e6").cast(pa.int64()),
                "__is_wedge": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    union = wedges.map_batches(tag_wedges, batch_format="pyarrow").union(
        all_pairs.map_batches(tag_scores, batch_format="pyarrow")
    )

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                c: pd.Series(dtype=np.int64)
                for c in (
                    "n_wedge_pairs",
                    "n_wedges",
                    "n_closed",
                    "n_violations",
                    "n_uncompared",
                )
            }
        )
        if df.empty or "__is_wedge" not in df.columns:
            return empty
        wdg = df[df["__is_wedge"] == 1]
        sc = df[df["__is_wedge"] == 0]
        if wdg.empty:
            return empty
        # merge the wedge partials here (same-u rows are all local): one
        # vectorized unique+bincount replaces the former dedicated
        # (u, w) aggregation exchange
        key_raw = (
            wdg["u"].to_numpy(np.int64) * np.int64(1 << 32)
            + wdg["w"].to_numpy(np.int64)
        )
        key_w, inv = np.unique(key_raw, return_inverse=True)
        nw = np.bincount(
            inv, weights=wdg["n_wedges"].to_numpy(np.int64)
        ).astype(np.int64)
        key_s = (
            sc["u"].to_numpy(np.int64) * np.int64(1 << 32)
            + sc["w"].to_numpy(np.int64)
        )
        lut = pd.Series(sc["jacc_e6"].to_numpy(np.int64), index=key_s)
        j = lut.reindex(key_w).to_numpy()
        closed = j >= 500_000
        viol = (j >= 0) & (j < 500_000)
        unc = np.isnan(j)
        return pd.DataFrame(
            {
                "n_wedge_pairs": [len(key_w)],
                "n_wedges": [int(nw.sum())],
                "n_closed": [int(nw[closed].sum())],
                "n_violations": [int(nw[viol].sum())],
                "n_uncompared": [int(nw[unc].sum())],
            }
        )

    parts = coarse_group_apply(union, "u", classify).to_pandas()
    return pd.DataFrame(
        {
            c: [int(parts[c].sum())]
            for c in (
                "n_wedge_pairs",
                "n_wedges",
                "n_closed",
                "n_violations",
                "n_uncompared",
            )
        }
    ).astype(np.int64)


def _q_rolling_median(sf_dir: str):
    """Exact trailing-5 sliding MEDIAN of event value per user (robust
    rolling statistic; emitted only for rows with a full window so the
    count is odd and the median is an exact e4 integer). One exchange on
    the user; the kernel stacks five segment-aware shifted columns and
    takes the middle of a vectorized row-sort — no per-row loop."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply

    ev = _events(sf_dir)

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("us", pa.int64()),
                ("v", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        return pa.table(
            {
                "event_id": batch.column("event_id").cast(pa.int64()),
                "user_id": batch.column("user_id").cast(pa.int64()),
                "us": batch.column("ts").cast(pa.int64()),
                "v": pa.array(
                    np.rint(
                        batch.column("value").to_numpy(zero_copy_only=False)
                        * 10_000.0
                    ).astype(np.int64)
                ),
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series(dtype=np.int64),
                "med5_e4": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "user_id" not in df.columns:
            return empty
        u = df["user_id"].to_numpy(np.int64)
        us = df["us"].to_numpy(np.int64)
        eid = df["event_id"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        order = np.lexsort((eid, us, u))
        u, us, eid, v = u[order], us[order], eid[order], v[order]
        first = np.concatenate(([True], u[1:] != u[:-1]))
        seg = np.cumsum(first) - 1
        rank = np.arange(len(u)) - np.flatnonzero(first)[seg]
        full = rank >= 4  # user rows are contiguous, so i-4 stays in-user
        if not full.any():
            return empty
        idx = np.flatnonzero(full)
        win = np.stack([v[idx - j] for j in range(5)], axis=1)
        med = np.sort(win, axis=1)[:, 2]
        return pd.DataFrame({"event_id": eid[idx], "med5_e4": med})

    return coarse_group_apply(
        ev.map_batches(prep, batch_format="pyarrow"), "user_id", kernel
    )


def _q_kmedoids(sf_dir: str):
    """PAM-style k-medoids (k=8, 2 rounds, L1 over the first 4 quantized
    dims) — clustering that is hash-verifiable end-to-end because every
    step is exact integer arithmetic: md5-priority init, nearest-medoid
    assignment (ties -> smallest medoid id) via a broadcast medoid table,
    and per-cluster medoid re-election (min total L1, ties -> smallest
    id) inside one exchange keyed by cluster. Output: final (vec_id,
    medoid) assignment."""
    from opentapioca_ray.stages.cluster import kmedoids_fit_assign

    return kmedoids_fit_assign(
        _rel(f"{sf_dir}/embeddings.parquet"), k=8, rounds=2, dims=4
    )


def _kmedoids_oracle_sql(
    k: int = 8, rounds: int = 2, dims: int = 4, source: str = "embeddings"
) -> str:
    """Unrolled k-medoids: md5-priority init, then per round an argmin
    assignment CTE and a per-cluster self-join re-election CTE. `source`
    names the input relation (a CTE for composed oracles like semdedup)."""
    dcols = ", ".join(
        f"CAST(floor((embedding::DOUBLE[])[{i + 1}] * 1000000 + 0.5)"
        f" AS BIGINT) AS d{i}"
        for i in range(dims)
    )

    def l1(a: str, b: str) -> str:
        return " + ".join(f"abs({a}.d{i} - {b}.d{i})" for i in range(dims))

    dlist = ", ".join(f"d{i}" for i in range(dims))
    sql = f"""
        WITH q AS MATERIALIZED (
          SELECT vec_id, {dcols} FROM {source}
        ),
        m0 AS MATERIALIZED (
          SELECT vec_id AS mid, {dlist} FROM q
          ORDER BY ('0x' || substr(md5(CAST(vec_id AS VARCHAR)), 1, 16))::UBIGINT,
                   vec_id
          LIMIT {k}
        )"""
    for r in range(rounds):
        sql += f""",
        a{r} AS MATERIALIZED (
          SELECT vec_id, mid, {dlist} FROM (
            SELECT q.vec_id, m.mid, {", ".join(f"q.d{i}" for i in range(dims))},
              row_number() OVER (PARTITION BY q.vec_id
                ORDER BY {l1("q", "m")}, m.mid) AS rn
            FROM q CROSS JOIN m{r} m
          ) WHERE rn = 1
        ),
        m{r + 1} AS MATERIALIZED (
          SELECT vec_id AS mid, {dlist} FROM (
            SELECT x.mid AS cluster, x.vec_id,
              {", ".join(f"x.d{i}" for i in range(dims))},
              row_number() OVER (PARTITION BY x.mid
                ORDER BY sum({l1("x", "y")}) ,
                         x.vec_id) AS rn
            FROM a{r} x JOIN a{r} y ON y.mid = x.mid
            GROUP BY x.mid, x.vec_id, {", ".join(f"x.d{i}" for i in range(dims))}
          ) WHERE rn = 1
        )"""
    sql += f"""
        SELECT vec_id, CAST(mid AS BIGINT) AS medoid FROM (
          SELECT q.vec_id, m.mid,
            row_number() OVER (PARTITION BY q.vec_id
              ORDER BY {l1("q", "m")}, m.mid) AS rn
          FROM q CROSS JOIN m{rounds} m
        ) WHERE rn = 1
    """
    return sql


def _q_spanning_forest(sf_dir: str):
    """Minimum spanning forest (Borůvka rounds) over the eps=0.02 L-inf
    neighbor graph of the embedding projection — the single-link
    clustering backbone. Weights are L-inf distances made distinct by the
    (w, u, v) packed tie-break, so the forest is UNIQUE and the oracle
    verifies it by the cut property: an edge is in the MST iff its
    endpoints are not connected using strictly lighter edges alone."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.mst import minimum_spanning_forest
    from opentapioca_ray.stages.spatial import grid_neighbor_join

    emb = _rel(f"{sf_dir}/embeddings.parquet")

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("vec_id", pa.int64()), ("x", pa.int64()), ("y", pa.int64())]
        )
        if batch.num_rows == 0 or "embedding" not in batch.column_names:
            return schema.empty_table()
        from opentapioca_ray.functions.vectors import list_to_matrix

        mat = list_to_matrix(batch.column("embedding"))
        return pa.table(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "x": pa.array(np.floor(mat[:, 0] * 1e6 + 0.5).astype(np.int64)),
                "y": pa.array(np.floor(mat[:, 1] * 1e6 + 0.5).astype(np.int64)),
            }
        )

    pairs = grid_neighbor_join(
        emb.map_batches(prep, batch_format="pyarrow"),
        id_column="vec_id",
        x_column="x",
        y_column="y",
        eps_e6=20_000,
    )
    return minimum_spanning_forest(
        pairs, u_column="u", v_column="v", w_column="linf_e6"
    )


def _q_dbscan_clusters(sf_dir: str):
    """DBSCAN over the embedding projection's first two dims (L-inf
    eps=0.05, core = >= 4 OTHER points in reach), built from the repo's
    own primitives: the epsilon-grid neighbor join supplies the exact
    pair graph, a degree count classifies cores, large/small-star CC
    labels the core skeleton (cluster = min core id), and border points
    adopt the smallest core neighbor's cluster — a deterministic variant
    of DBSCAN's arbitrary border assignment. Output: (vec_id, cluster,
    role) with role 0=core 1=border 2=noise, cluster -1 for noise."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.cc import connected_components
    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.spatial import grid_neighbor_join

    emb = _rel(f"{sf_dir}/embeddings.parquet")

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("vec_id", pa.int64()), ("x", pa.int64()), ("y", pa.int64())]
        )
        if batch.num_rows == 0 or "embedding" not in batch.column_names:
            return schema.empty_table()
        from opentapioca_ray.functions.vectors import list_to_matrix

        mat = list_to_matrix(batch.column("embedding"))
        return pa.table(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "x": pa.array(np.floor(mat[:, 0] * 1e6 + 0.5).astype(np.int64)),
                "y": pa.array(np.floor(mat[:, 1] * 1e6 + 0.5).astype(np.int64)),
            }
        )

    pts = emb.map_batches(prep, batch_format="pyarrow").materialize()
    pairs = grid_neighbor_join(
        pts, id_column="vec_id", x_column="x", y_column="y", eps_e6=50_000
    ).materialize()

    # degrees over both directions -> core flags (a small node table)
    def both(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("u").cast(pa.int64()).combine_chunks(),
                        batch.column("v").cast(pa.int64()).combine_chunks(),
                    ]
                )
            }
        )

    deg = coarse_groupby_agg(
        pairs.map_batches(both, batch_format="pyarrow"),
        ["node"],
        {"deg": ("node", "size")},
    ).to_pandas()  # nodes with >= 1 neighbor; bounded by point count
    core_ids = set(deg[deg["deg"] >= 4]["node"].tolist())
    import ray

    core_ref = ray.put(np.array(sorted(core_ids), dtype=np.int64))

    def core_edges(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return schema.empty_table()
        cores = ray.get(core_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(u, cores) & np.isin(v, cores)
        return pa.table({"u": pa.array(u[keep]), "v": pa.array(v[keep])})

    cc_in = pairs.map_batches(core_edges, batch_format="pyarrow")
    comp = connected_components(cc_in.select_columns(["u", "v"])).to_pandas()
    # singleton cores (no core neighbor) form their own cluster
    label = dict(zip(comp["node"].astype(int), comp["component"].astype(int)))
    for c in core_ids:
        label.setdefault(c, c)

    label_ref = ray.put(label)

    def border_partial(batch: pa.Table) -> pa.Table:
        """pair rows -> candidate (border_node, cluster) from the CORE
        endpoint's label; merged by min downstream."""
        schema = pa.schema([("node", pa.int64()), ("cluster", pa.int64())])
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return schema.empty_table()
        lab = ray.get(label_ref)
        cores = ray.get(core_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        uc = np.isin(u, cores)
        vc = np.isin(v, cores)
        nodes, cls = [], []
        m = (~uc) & vc  # u border-candidate, v core
        if m.any():
            nodes.append(u[m])
            cls.append(np.array([lab[int(x)] for x in v[m]], dtype=np.int64))
        m = uc & (~vc)
        if m.any():
            nodes.append(v[m])
            cls.append(np.array([lab[int(x)] for x in u[m]], dtype=np.int64))
        if not nodes:
            return schema.empty_table()
        return pa.table(
            {
                "node": pa.array(np.concatenate(nodes)),
                "cluster": pa.array(np.concatenate(cls)),
            }
        )

    border = coarse_groupby_agg(
        pairs.map_batches(border_partial, batch_format="pyarrow"),
        ["node"],
        {"cluster": ("cluster", "min")},
    ).to_pandas()
    border_lab = dict(zip(border["node"].astype(int), border["cluster"].astype(int)))

    # vectorized final assembly over the slim point-id table (= the
    # output's own size; nothing bigger than the result reaches here)
    ids = (
        pts.select_columns(["vec_id"]).to_pandas()["vec_id"].to_numpy(np.int64)
    )
    core_arr = np.array(sorted(core_ids), dtype=np.int64)
    is_core = np.isin(ids, core_arr)
    lab_s = pd.Series(label, dtype="float64")
    bor_s = pd.Series(border_lab, dtype="float64")
    core_cl = lab_s.reindex(ids).to_numpy()
    bor_cl = bor_s.reindex(ids).to_numpy()
    is_border = ~is_core & ~np.isnan(bor_cl)
    cluster = np.where(
        is_core,
        np.nan_to_num(core_cl, nan=-1),
        np.where(is_border, np.nan_to_num(bor_cl, nan=-1), -1),
    ).astype(np.int64)
    role = np.where(is_core, 0, np.where(is_border, 1, 2)).astype(np.int64)
    return pd.DataFrame({"vec_id": ids, "cluster": cluster, "role": role})


def _q_cms_counts(sf_dir: str):
    """Count-min sketch audit: a 4x64 CMS built over the event stream's
    user_id column in one combiner pass (each batch bincounts into the
    grid locally, the merge touches <= 256 keyed rows), then point-query
    estimates for the top-10 users by exact count — reporting exact,
    estimate and the collision overcount (always >= 0). Row hashes are
    the md5 convention, so the entire sketch is SQL-reproducible."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.sketches import cms_estimate, count_min_sketch

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id"])
    counters = count_min_sketch(ev, "user_id", depth=4, width=64).to_pandas()

    exact = coarse_groupby_agg(
        ev, ["user_id"], {"exact_n": ("user_id", "size")}
    )

    def block_top(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.schema(
                [("user_id", pa.int64()), ("exact_n", pa.int64())]
            ).empty_table()
        df = batch.to_pandas().sort_values(
            ["exact_n", "user_id"], ascending=[False, True], kind="mergesort"
        ).head(10)
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            pa.schema([("user_id", pa.int64()), ("exact_n", pa.int64())])
        )

    cands = exact.map_batches(block_top, batch_format="pyarrow").take_all()
    cands.sort(key=lambda r: (-r["exact_n"], r["user_id"]))
    top = cands[:10]
    users = np.array([r["user_id"] for r in top], dtype=np.int64)
    est = cms_estimate(counters, users, depth=4, width=64)
    exact_n = np.array([r["exact_n"] for r in top], dtype=np.int64)
    return pd.DataFrame(
        {
            "user_id": users,
            "exact_n": exact_n,
            "cms_n": est,
            "overcount": est - exact_n,
        }
    )


def _q_label_propagation(sf_dir: str):
    """Synchronous label-propagation communities (4 rounds, self-vote
    damping, ties -> smallest label) over the bipartite part--supplier
    co-purchase graph (supplier nodes offset by 1e7). Communities, not
    components: LPA splits the connected graph into locally-dense label
    basins; fixed rounds + deterministic argmax make the trajectory
    SQL-replayable round by round."""
    from opentapioca_ray.stages.lpa import label_propagation

    return label_propagation(
        _partsupp_directed(sf_dir), rounds=4, edges_distinct_directed=True
    )


def _lpa_oracle_sql(rounds: int = 4) -> str:
    """Unrolled synchronous LPA: per round, neighbor votes + the self
    vote, then the (count desc, label asc) argmax per node."""
    sql = """
        WITH ed AS MATERIALIZED (
          SELECT u AS src, v AS dst FROM (
            SELECT DISTINCT l_partkey AS u,
                   l_suppkey + 10000000 AS v
            FROM lineitem
          )
          UNION ALL
          SELECT v AS src, u AS dst FROM (
            SELECT DISTINCT l_partkey AS u,
                   l_suppkey + 10000000 AS v
            FROM lineitem
          )
        ),
        l0 AS MATERIALIZED (
          SELECT src AS node, CAST(src AS BIGINT) AS label
          FROM ed GROUP BY src
        )"""
    for t in range(rounds):
        sql += f""",
        v{t} AS (
          SELECT e.dst AS node, l.label, 1 AS w
          FROM ed e JOIN l{t} l ON l.node = e.src
          UNION ALL
          SELECT node, label, 1 AS w FROM l{t}
        ),
        l{t + 1} AS MATERIALIZED (
          SELECT node, label FROM (
            SELECT node, label, sum(w) AS sw
            FROM v{t} GROUP BY node, label
          )
          QUALIFY row_number() OVER (
            PARTITION BY node ORDER BY sw DESC, label ASC) = 1
        )"""
    sql += f"""
        SELECT CAST(node AS BIGINT) AS node, CAST(label AS BIGINT) AS label
        FROM l{rounds}
    """
    return sql


@_memo("documents.parquet")
def _bpe(sf_dir: str):
    """(merge table, final vocab state) — trained once per input state
    (`_memo`) and shared by the train- and encode-side queries."""
    from opentapioca_ray.stages.bpe import bpe_train

    return bpe_train(_docs(sf_dir), text_column="text", n_merges=10, return_state=True)


def _q_bpe_merges(sf_dir: str):
    """BPE tokenizer training over the corpus's alpha tokens: 10 rounds of
    most-frequent adjacent-symbol-pair merges (ties -> lexicographically
    smallest pair). The corpus collapses once into a word-count vocabulary;
    every round is one combiner pair-count exchange over the VOCAB plus a
    broadcast literal-replace merge — nothing per-round touches the corpus.
    Output: the learned merge table; the oracle replays all 10 rounds as
    nested-replace CTEs (replace semantics verified identical across
    Python/Arrow/DuckDB in tests/test_bpe.py)."""
    return _bpe(sf_dir)[0]


def _q_bpe_encode(sf_dir: str):
    """The APPLY side of BPE: tokenize every document with the learned
    10-merge vocabulary and report per-doc compression — (n_words,
    n_chars, n_bpe_tokens). Encoding is vocabulary-level (the final word
    state already IS the token table; the word is its repr with spaces
    stripped), so the corpus pass is one lookup-join exchange of doc-word
    occurrences against the per-word token counts."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import (
        coarse_group_apply,
        coarse_groupby_agg,
    )

    _, state = _bpe(sf_dir)

    tag_schema = pa.schema(
        [
            ("word", pa.string()),
            ("doc_id", pa.int64()),
            ("n_sym", pa.int64()),
            ("__is_tok", pa.int64()),
        ]
    )

    def word_tokens(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "repr" not in batch.column_names:
            return tag_schema.empty_table()
        reprs = pc.utf8_trim_whitespace(batch.column("repr").combine_chunks())
        parts = pc.split_pattern(reprs, pattern=" ")
        offs = parts.offsets.to_numpy()
        n_sym = (offs[1:] - offs[:-1]).astype(np.int64)
        words = pc.replace_substring(reprs, pattern=" ", replacement="")
        n = batch.num_rows
        return pa.table(
            {
                "word": words,
                "doc_id": pa.array(np.zeros(n, dtype=np.int64)),
                "n_sym": pa.array(n_sym),
                "__is_tok": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    def doc_words(batch: pa.Table) -> pa.Table:
        from opentapioca_ray.functions.text import tokenize_flat

        if batch.num_rows == 0 or "text" not in batch.column_names:
            return tag_schema.empty_table()
        texts = [t or "" for t in batch.column("text").to_pylist()]
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        flat, counts = tokenize_flat(texts)
        if not len(flat):
            return tag_schema.empty_table()
        doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
        arr = pa.array(flat.astype(object), type=pa.string())
        keep = pc.match_substring_regex(arr, "^[A-Za-z]+$")
        keep_np = keep.to_numpy(zero_copy_only=False)
        n = int(keep_np.sum())
        return pa.table(
            {
                "word": arr.filter(keep),
                "doc_id": pa.array(ids[doc_idx[keep_np]]),
                "n_sym": pa.array(np.zeros(n, dtype=np.int64)),
                "__is_tok": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    union = state.map_batches(word_tokens, batch_format="pyarrow").union(
        _docs(sf_dir).map_batches(doc_words, batch_format="pyarrow")
    )

    def join_partition(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series(dtype=np.int64),
                "n_words": pd.Series(dtype=np.int64),
                "n_chars": pd.Series(dtype=np.int64),
                "n_bpe_tokens": pd.Series(dtype=np.int64),
            }
        )
        if df.empty or "__is_tok" not in df.columns:
            return empty
        toks = df[df["__is_tok"] == 1]
        occ = df[df["__is_tok"] == 0]
        if toks.empty or occ.empty:
            return empty
        lut = pd.Series(
            toks["n_sym"].to_numpy(dtype=np.int64),
            index=toks["word"].to_numpy(),
        )
        words = occ["word"].to_numpy()
        nsym = lut.reindex(words).to_numpy(dtype=np.int64)
        out = pd.DataFrame(
            {
                "doc_id": occ["doc_id"].to_numpy(dtype=np.int64),
                "n_words": np.ones(len(occ), dtype=np.int64),
                "n_chars": np.array([len(w) for w in words], dtype=np.int64),
                "n_bpe_tokens": nsym,
            }
        )
        return (
            out.groupby("doc_id", sort=False)
            .agg(
                n_words=("n_words", "sum"),
                n_chars=("n_chars", "sum"),
                n_bpe_tokens=("n_bpe_tokens", "sum"),
            )
            .reset_index()
        )

    partials = coarse_group_apply(union, "word", join_partition)
    return coarse_groupby_agg(
        partials,
        ["doc_id"],
        {
            "n_words": ("n_words", "sum"),
            "n_chars": ("n_chars", "sum"),
            "n_bpe_tokens": ("n_bpe_tokens", "sum"),
        },
    )


def _bpe_ctes(n_merges: int = 10) -> str:
    """Shared unrolled-BPE CTE chain: vocab -> v0 reprs -> per round a
    pair explode + argmax (b{t}) and a 6x nested replace() application
    (v{t+1}; carries v{t} unchanged if b{t} is empty, matching the Ray
    side's early-termination break)."""

    def rep6(expr: str) -> str:
        for _ in range(6):
            expr = (
                f"replace({expr}, ' ' || bb.a || ' ' || bb.b || ' ', "
                f"' ' || bb.a || bb.b || ' ')"
            )
        return expr

    sql = f"""
        WITH words AS (
          SELECT word, CAST(count(*) AS BIGINT) AS cnt
          FROM (
            SELECT trim(t.w) AS word
            FROM documents,
                 unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
            WHERE trim(t.w) != ''
              AND regexp_full_match(trim(t.w), '[A-Za-z]+')
          ) GROUP BY word
        ),
        v0 AS MATERIALIZED (
          SELECT ' ' || array_to_string(regexp_split_to_array(word, ''), ' ')
                 || ' ' AS repr, cnt
          FROM words
        )"""
    for t in range(n_merges):
        sql += f""",
        p{t} AS (
          SELECT arr[i] AS a, arr[i + 1] AS b, cnt
          FROM (SELECT regexp_split_to_array(trim(repr), ' ') AS arr, cnt
                FROM v{t}),
               unnest(range(1, len(arr))) AS u(i)
        ),
        b{t} AS MATERIALIZED (
          SELECT a, b, CAST(sum(cnt) AS BIGINT) AS cnt
          FROM p{t} GROUP BY a, b
          ORDER BY cnt DESC, a, b LIMIT 1
        ),
        v{t + 1} AS MATERIALIZED (
          SELECT {rep6("v.repr")} AS repr, v.cnt
          FROM v{t} v CROSS JOIN b{t} bb
          UNION ALL
          SELECT repr, cnt FROM v{t}
          WHERE NOT EXISTS (SELECT 1 FROM b{t})
        )"""
    return sql


def _bpe_oracle_sql(n_merges: int = 10) -> str:
    """Unrolled BPE oracle: the shared CTE chain, then the merge table."""
    sql = _bpe_ctes(n_merges)
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS round, a AS left_sym, b AS right_sym,"
        f" a || b AS merged, cnt AS pair_count FROM b{t}"
        for t in range(n_merges)
    )
    return sql


def _bpe_encode_oracle_sql(n_merges: int = 10) -> str:
    """BPE APPLY oracle: the same chain to the final vocab state, then a
    per-word token-count table (word recovered by stripping repr spaces)
    joined back to every document's alpha-token occurrences."""
    sql = _bpe_ctes(n_merges)
    sql += f""",
        wtok AS MATERIALIZED (
          SELECT replace(trim(repr), ' ', '') AS word,
                 CAST(len(regexp_split_to_array(trim(repr), ' '))
                      AS BIGINT) AS n_sym
          FROM v{n_merges}
        ),
        dw AS (
          SELECT doc_id, trim(t.w) AS word
          FROM documents,
               unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
          WHERE trim(t.w) != ''
            AND regexp_full_match(trim(t.w), '[A-Za-z]+')
        )
        SELECT dw.doc_id,
               CAST(count(*) AS BIGINT) AS n_words,
               CAST(sum(len(dw.word)) AS BIGINT) AS n_chars,
               CAST(sum(w.n_sym) AS BIGINT) AS n_bpe_tokens
        FROM dw JOIN wtok w ON w.word = dw.word
        GROUP BY dw.doc_id
    """
    return sql


_FS_FIELDS = {"eq_columns": ["nm", "ty"], "tol_columns": [("sz", 0), ("price_c", 100)]}


def _fs_inputs(sf_dir: str):
    """The FS linkage fixture: part (side A) + a deterministically
    perturbed replica (side B), slim-projected and materialized (once per
    input state, through `_fs_fit`'s memo; shared by fellegi_sunter and
    fs_clusters)."""
    import numpy as np
    import pyarrow as pa

    part = _rel(
        f"{sf_dir}/part.parquet",
        columns=[
            "p_partkey",
            "p_brand",
            "p_name",
            "p_type",
            "p_size",
            "p_retailprice",
        ],
    )

    def a_rows(batch: pa.Table) -> pa.Table:
        price = np.rint(
            batch.column("p_retailprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "k": batch.column("p_partkey").cast(pa.int64()),
                "blk": batch.column("p_brand").cast(pa.string()),
                "nm": batch.column("p_name").cast(pa.string()),
                "ty": batch.column("p_type").cast(pa.string()),
                "sz": batch.column("p_size").cast(pa.int64()),
                "price_c": pa.array(price),
            }
        )

    def b_rows(batch: pa.Table) -> pa.Table:
        t = a_rows(batch)
        k = t.column("k").to_numpy(zero_copy_only=False)
        nm = t.column("nm").to_numpy(zero_copy_only=False).astype(object)
        ty = t.column("ty").to_numpy(zero_copy_only=False).astype(object)
        sz = t.column("sz").to_numpy(zero_copy_only=False)
        price = t.column("price_c").to_numpy(zero_copy_only=False)
        # synthetic dirty replica (bounded fixture map, not a hot path):
        # k%3 -> name suffix, k%7 -> type overwrite, k%5 -> size drift,
        # k%2 -> +5.00 price
        nm = np.where(k % 3 == 0, np.array([s + " x" for s in nm], object), nm)
        ty = np.where(k % 7 == 0, "ALTERED", ty)
        sz = np.where(k % 5 == 0, sz + 1, sz)
        price = np.where(k % 2 == 0, price + 500, price)
        return pa.table(
            {
                "k": t.column("k"),
                "blk": t.column("blk"),
                "nm": pa.array(nm.astype(object), pa.string()),
                "ty": pa.array(ty.astype(object), pa.string()),
                "sz": pa.array(sz.astype(np.int64)),
                "price_c": pa.array(price.astype(np.int64)),
            }
        )

    a = part.map_batches(a_rows, batch_format="pyarrow").materialize()
    b = part.map_batches(b_rows, batch_format="pyarrow").materialize()
    return a, b


@_memo("part.parquet")
def _fs_fit(sf_dir: str):
    """(a, b, hist DataFrame, fs_em fit) — computed once per input state
    (`_memo`); the histogram is the only distributed work and both FS
    queries share it."""
    from opentapioca_ray.stages.probabilistic import fs_em, fs_pattern_histogram

    a, b = _fs_inputs(sf_dir)
    hist = fs_pattern_histogram(
        a, b, key_column="k", block_column="blk", **_FS_FIELDS
    ).to_pandas()
    fit = fs_em(hist.to_dict("records"), n_fields=4, iters=5)
    return a, b, hist, fit


def _q_fellegi_sunter(sf_dir: str):
    """Unsupervised Fellegi-Sunter record-linkage fit (Splink-style): a
    deterministically perturbed replica of part is linked back against the
    original, blocked on brand; the distributed work reduces the blocked
    A x B pair space to a 16-row gamma-pattern histogram in ONE exchange,
    and 5 rounds of exact-integer quantized EM run driver-side (O(2^K)
    state). Output: per observed pattern the pair count, the ground-truth
    same-key count, and the final-model match posterior (e9 fixed-point)
    — the oracle unrolls the same EM as a CTE chain."""
    import numpy as np

    _, _, hist, fit = _fs_fit(sf_dir)
    hist = hist.copy()
    gcols = [f"g{i}" for i in range(1, 5)]
    key = hist[gcols].to_numpy(dtype=np.int64)
    pat = np.zeros(len(hist), dtype=np.int64)
    for i in range(4):
        pat |= key[:, i] << (3 - i)
    hist["posterior_e9"] = np.array(
        [fit["posterior_e9"].get(int(p), 0) for p in pat], dtype=np.int64
    )
    return hist.sort_values(gcols).reset_index(drop=True)


def _q_fs_clusters(sf_dir: str):
    """End-to-end unsupervised entity resolution: the FS fit's accepted
    gamma patterns (final posterior >= 0.5) classify the blocked pairs in
    a second one-exchange pass (fs_match_edges — the pair set is filtered
    in place, never collected), and large/small-star connected components
    turn the match edges into entity clusters (label = min key). The
    north-star tag-score-cluster flow with zero labels."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.cc import connected_components
    from opentapioca_ray.stages.probabilistic import fs_match_edges

    a, b, hist, fit = _fs_fit(sf_dir)
    accepted = {
        p for p, post in fit["posterior_e9"].items() if post >= 500_000_000
    }
    edges = fs_match_edges(
        a,
        b,
        key_column="k",
        block_column="blk",
        accepted_patterns=accepted,
        **_FS_FIELDS,
    )
    comp = connected_components(edges.select_columns(["u", "v"]))
    return comp.map_batches(
        lambda t: pa.table(
            {
                "k": t.column("node").cast(pa.int64()),
                "cluster": t.column("component").cast(pa.int64()),
            }
        )
        if t.num_rows and "node" in t.column_names
        else pa.schema([("k", pa.int64()), ("cluster", pa.int64())]).empty_table(),
        batch_format="pyarrow",
    )


def _q_dup_components(sf_dir: str):
    """Duplicate clusters: connected components over the exact n-gram
    Jaccard pair graph (component label = min doc_id). The oracle replays
    the pair SQL and propagates min labels with a recursive CTE, so the
    iterative CC operator itself is hash-checked end-to-end."""
    import pyarrow as pa

    _, comp = _ngram_cc(sf_dir)
    return comp.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("node").cast(pa.int64()),
                "component": b.column("component").cast(pa.int64()),
            }
        )
        if b.num_rows and "node" in b.column_names
        else pa.schema(
            [("doc_id", pa.int64()), ("component", pa.int64())]
        ).empty_table(),
        batch_format="pyarrow",
    )


def _q_pivot_editing_cost(sf_dir: str):
    """Correlation-clustering objective of the CC-Pivot clustering over
    the same n-gram match graph: edge flips (missing intra + present
    cross) separating the clustering from disjoint cliques — the exact
    quantity CC-Pivot 3-approximates, now measured."""
    import pyarrow as pa

    from opentapioca_ray.stages.blocking_eval import clustering_disagreement

    pairs, _ = _ngram_cc(sf_dir)
    piv = _q_pivot_clusters(sf_dir)
    if isinstance(piv, pa.Table):
        piv = driver_dataset(piv)
    clusters = piv.select_columns(["doc_id", "cluster"])
    return clustering_disagreement(pairs, clusters, "doc_id", "cluster")


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: count each corpus doc's distinct 3-grams
    that also appear in the 'benchmark' partition (doc_id % 97 == 0).

    Scale shape: the benchmark gram set is the SMALL side (eval sets are
    tiny next to a training corpus) — distinct benchmark grams are
    collected once, broadcast via `ray.put`, and every corpus batch is
    flagged in ONE `is_in` pass that never shuffles; per-doc counts close
    inside the batch because `gram_doc_rows` keeps a doc's rows together.
    At extreme benchmark sizes swap the exact set for the Bloom filter
    stage (`stages/bloom.py`) — same dataflow, documented false-positive
    trade-off."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from opentapioca_ray.stages.dedup import gram_doc_rows

    docs = _docs(sf_dir)

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        rows = gram_doc_rows(batch.filter(pa.array(ids % 97 == 0)), "doc_id", "text", 3)
        return pa.table({"gram": rows.column("gram")})

    chunks = []
    for t in arrow_blocks(docs.map_batches(bench_grams, batch_format="pyarrow")):
        if t.num_rows and "gram" in t.column_names:
            col = t.column("gram")
            chunks.extend(col.chunks if isinstance(col, pa.ChunkedArray) else [col])
    bench = (
        pa.chunked_array(chunks).combine_chunks().unique()
        if chunks
        else pa.array([], type=pa.string())
    )
    bench_ref = ray.put(bench)

    empty = pa.schema([("doc_id", pa.int64()), ("n_shared", pa.int64())]).empty_table()

    def flag(batch: pa.Table) -> pa.Table:
        bids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        rows = gram_doc_rows(batch.filter(pa.array(bids % 97 != 0)), "doc_id", "text", 3)
        if rows.num_rows == 0:
            return empty
        hit = pc.is_in(rows.column("gram"), value_set=ray.get(bench_ref))
        ids = rows.column("doc_id").to_numpy(zero_copy_only=False)[
            hit.to_numpy(zero_copy_only=False)
        ]
        if len(ids) == 0:
            return empty
        uids, counts = np.unique(ids, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uids, type=pa.int64()),
                "n_shared": pa.array(counts.astype(np.int64)),
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow")


def _q_simhash_dedup(sf_dir: str):
    """SimHash near-dedup, emitted as the VERIFIED pair set (u, v, exact
    Hamming distance) with the md5-derived gram hash so a DuckDB all-pairs
    oracle checks it value-for-value: 4 x 16-bit pigeonhole bands make the
    banded recall on hamming<=3 pairs exactly 1, so the banded output EQUALS
    the oracle's all-pairs answer (no empirical luck involved). The
    transitive-cluster variant (`simhash_dedup`) is pytest-golden
    (tests/test_dedup.py)."""
    from opentapioca_ray.stages.dedup import simhash_md5_pairs

    return simhash_md5_pairs(
        _docs(sf_dir), id_column="doc_id", text_column="text", max_hamming=3
    )


def _q_embedding_dedup(sf_dir: str):
    """Embedding-cosine near-dedup over the embeddings table augmented with
    deterministic planted duplicates (every 10th vector re-emitted at 2x
    scale under vec_id + 1e6: same direction, cosine exactly 1), emitted as
    the VERIFIED pair set (u, v, cosine) so a DuckDB all-pairs oracle checks
    it value-for-value — banded hyperplane LSH catches exact-direction
    duplicates in every band, so recall on them is deterministic. The
    cluster variant (`embedding_dedup`) is pytest-golden."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from opentapioca_ray.stages.dedup import embedding_pairs

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        sel = ids % 10 == 0
        dup_ids = ids[sel] + 1_000_000
        dup_vecs = vecs[sel] * 2.0
        return pa.table(
            {
                "vec_id": pa.array(
                    np.concatenate([ids, dup_ids]), type=pa.int64()
                ),
                "embedding": pa.array(
                    list(vecs) + list(dup_vecs), type=pa.list_(pa.float64())
                ),
            }
        )

    emb = _rel(f"{sf_dir}/embeddings.parquet").map_batches(
        augment, batch_format="pyarrow"
    )
    out = embedding_pairs(emb, threshold=0.95)
    return out.map_batches(
        lambda b: pa.table(
            {
                "u": b.column("u"),
                "v": b.column("v"),
                "cosine": pc.round(b.column("cosine"), 6),
            }
        )
        if b.num_rows and "u" in b.column_names
        else pa.schema(
            [("u", pa.int64()), ("v", pa.int64()), ("cosine", pa.float64())]
        ).empty_table(),
        batch_format="pyarrow",
    )


def _q_silhouette_kmedoids(sf_dir: str):
    """Simplified silhouette over the exact k-medoids clustering: per
    vector, L1-to-own-medoid vs min L1-to-other-medoids on the quantized
    dims — everything int64, the cluster-quality diagnostic fully
    hash-verifiable."""
    from opentapioca_ray.stages.cluster import silhouette_kmedoids

    return silhouette_kmedoids(
        _rel(f"{sf_dir}/embeddings.parquet"), k=8, rounds=2, dims=4
    )


def _q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-medoids partition of the embedding
    space, then keep-one-per-group over within-cluster round-6 cosine >=
    0.99 links. Input is the embeddings table with the standard planted
    duplicates (every 10th vector at 2x scale under vec_id + 1e6; same
    direction, cosine exactly 1) so recall is observable; cross-cluster
    dup pairs are missed by construction — the paper's trade."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.cluster import semdedup

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        sel = ids % 10 == 0
        return pa.table(
            {
                "vec_id": pa.array(
                    np.concatenate([ids, ids[sel] + 1_000_000]), type=pa.int64()
                ),
                "embedding": pa.array(
                    list(vecs) + list(vecs[sel] * 2.0),
                    type=pa.list_(pa.float64()),
                ),
            }
        )

    emb = _rel(f"{sf_dir}/embeddings.parquet").map_batches(
        augment, batch_format="pyarrow"
    )
    return semdedup(emb, tau=0.99, k=8, rounds=2, dims=4)


def _q_embedding_outliers(sf_dir: str):
    """Label-conditioned outlier scores: exact integer n^2-scaled squared
    distance of each vector to its label centroid (dims quantized once to
    1e-4 units; no float mean anywhere)."""
    from opentapioca_ray.stages.ann import embedding_outliers

    return embedding_outliers(_rel(f"{sf_dir}/embeddings.parquet"))


def _q_bitext_pairs(sf_dir: str):
    """Bitext-mining alignment: pairs of vectors that are EACH OTHER's
    single best cross-label cosine neighbor (the mutual-best criterion
    of margin-based parallel-corpus mining)."""
    from opentapioca_ray.stages.ann import mutual_best_cross_label

    return mutual_best_cross_label(_rel(f"{sf_dir}/embeddings.parquet"))


def _q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: per vector, the 5 most
    cosine-similar vectors with a DIFFERENT label (exact all-pairs
    baseline, broadcast corpus matrix; the LSH-bucketed variant is the
    documented scale path)."""
    from opentapioca_ray.stages.ann import hard_negatives

    return hard_negatives(_rel(f"{sf_dir}/embeddings.parquet"), k=5)


def _q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for the first 5 corpus vectors."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from opentapioca_ray.stages.ann import brute_force_topk

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    queries = np.array(head.column("embedding").to_pylist(), dtype=np.float64)
    qids = head.column("vec_id").to_pylist()
    ds = _rel(f"{sf_dir}/embeddings.parquet")
    out = brute_force_topk(ds, queries, qids, k=10)
    return out.map_batches(
        lambda b: pa.table(
            {
                "query_id": b.column("query_id"),
                "vec_id": b.column("vec_id"),
                "cosine": __import__("pyarrow.compute", fromlist=["round"]).round(
                    b.column("cosine"), 6
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_ann_ivf(sf_dir: str):
    """IVF ANN with DETERMINISTIC centroids — the 16 corpus vectors of
    smallest md5-priority (selected distributed via the top-k combiner, not
    trained) — so bucket assignment, probe sets and the final top-10 are
    all reproducible in SQL and the approximate index itself is
    value-hash-checked, not rows-only. IVF recall vs brute force stays a
    pytest property (tests/test_ann.py); this query pins the exact
    semantics of the scale path."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from opentapioca_ray.stages.ann import ivf_topk
    from opentapioca_ray.stages.selection import priority_sample

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    queries = np.array(head.column("embedding").to_pylist(), dtype=np.float64)
    qids = head.column("vec_id").to_pylist()
    ds = _rel(f"{sf_dir}/embeddings.parquet")

    cent_rows = priority_sample(ds, "vec_id", 16, ["vec_id", "embedding"]).take_all()

    def prio(i):
        return int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "big")

    cent_rows.sort(key=lambda r: (prio(r["vec_id"]), r["vec_id"]))
    centroids = np.array([list(r["embedding"]) for r in cent_rows], dtype=np.float64)
    out = ivf_topk(ds, queries, qids, centroids, k=10, nprobe=4)
    return out.map_batches(
        lambda b: pa.table(
            {
                "query_id": b.column("query_id"),
                "vec_id": b.column("vec_id"),
                "cosine": pc.round(b.column("cosine"), 6),
            }
        ),
        batch_format="pyarrow",
    )


def _q_ann_pq(sf_dir: str):
    """Product-quantization ANN with exact e6-integer codebooks/ADC: the
    16 md5-priority corpus vectors (the IVF recipe) provide each of the 4
    subspace codebooks, encoding is nearest-codeword per 16-dim subvector
    (ties -> smallest codeword id), and the 5 head queries scan via the
    per-(query, subspace, codeword) integer lookup table. The whole
    compressed index is value-hash-checked; recall is a pytest property."""
    import hashlib

    import numpy as np
    import pyarrow.parquet as pq

    from opentapioca_ray.stages.ann import pq_topk
    from opentapioca_ray.stages.selection import priority_sample

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 5)
    queries = np.array(head.column("embedding").to_pylist(), dtype=np.float64)
    qids = head.column("vec_id").to_pylist()
    ds = _rel(f"{sf_dir}/embeddings.parquet")

    cent_rows = priority_sample(ds, "vec_id", 16, ["vec_id", "embedding"]).take_all()

    def prio(i):
        return int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "big")

    cent_rows.sort(key=lambda r: (prio(r["vec_id"]), r["vec_id"]))
    base = np.rint(
        np.array([list(r["embedding"]) for r in cent_rows], dtype=np.float64)
        * 1e6
    ).astype(np.int64)  # (16, 64)
    m, dsub = 4, 16
    codebook = np.stack(
        [base[:, i * dsub : (i + 1) * dsub] for i in range(m)]
    )  # (M, C, dsub)
    return pq_topk(ds, queries, qids, codebook, k=10)


def _q_embedding_clusters(sf_dir: str):
    """Distributed k-means (Lloyd's, combiner partials per pass) over the
    embeddings table, reported as per-cluster size + mean assignment cosine.
    The fitted centroids are deterministic (seeded init, fixed pass count;
    pytest-golden in tests/test_cluster.py), so the query dumps them to
    scratch parquet and the DuckDB oracle independently recomputes the
    nearest-centroid assignment + per-cluster aggregate in SQL — the
    assignment/aggregation stages are hash-verified."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.cluster import kmeans_assign, kmeans_fit

    ds = _rel(f"{sf_dir}/embeddings.parquet")
    cents = kmeans_fit(ds, k=8, iters=5)
    _dump_for_oracle(
        pa.table(
            {
                "cluster": pa.array(np.arange(len(cents)), type=pa.int64()),
                "centroid": pa.array(list(cents), type=pa.list_(pa.float64())),
            }
        ),
        "kmeans_centroids",
    )
    labeled = kmeans_assign(ds, cents)
    agg = partial_sum_count(
        labeled, "cluster", ["cosine"], alias={"cosine": "sum_cosine", "count": "n_vectors"}
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "cluster": b.column("cluster"),
                "n_vectors": b.column("n_vectors"),
                "mean_cosine": pc.round(
                    pc.divide(b.column("sum_cosine"), pc.cast(b.column("n_vectors"), pa.float64())), 6
                ),
            }
        )
        if "cluster" in b.column_names
        else b,
        batch_format="pyarrow",
    )


def _media_docs(sf_dir: str):
    """Docs feed for the media stages: the per-row work is byte-level (no
    tokenization), so a sized read with fuller blocks beats the 64-way text
    split (2.9s -> 0.7s at sf0.01/32 CPUs)."""
    from opentapioca_ray.sources.files import read_sized

    return read_sized(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        rows_per_block=2048,
    )


def _q_multimodal_meta(sf_dir: str):
    """Multimodal plumbing: documents -> synthetic binary media table ->
    image-decode stage on tasks (deterministic fake decode; geometry is a pure
    function of payload length) -> typed metadata."""
    from opentapioca_ray.stages.multimodal import decode_images, synthesize_media

    media = synthesize_media(_media_docs(sf_dir))
    return decode_images(media).select_columns(
        ["media_id", "kind", "n_bytes", "width", "height", "payload_sha256"]
    )


def _q_audio_energy(sf_dir: str):
    """Audio-feature stage over the synthetic media table, flattened
    to (media_id, window, rms) rows. The payload is the utf-8 bytes of the
    (pure-ASCII) document text, so DuckDB recomputes every per-window RMS
    from `ord()` arithmetic over the same characters — an exact value
    oracle for the binary-column stage."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.multimodal import audio_features, synthesize_media

    out = audio_features(synthesize_media(_media_docs(sf_dir)), n_windows=16)

    def flatten(b: pa.Table) -> pa.Table:
        n = b.num_rows
        vals = pc.list_flatten(b.column("energy"))
        ids = np.repeat(b.column("media_id").to_numpy(zero_copy_only=False), 16)
        win = np.tile(np.arange(16, dtype=np.int64), n)
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "window": pa.array(win, type=pa.int64()),
                "rms": pc.round(vals, 6),
            }
        )

    return out.map_batches(flatten, batch_format="pyarrow")


def _q_frame_samples(sf_dir: str):
    """Video frame-sampling stage: payload -> every-2nd 1KiB frame.
    The payload is utf-8 of pure-ASCII text, so `sha256(substr(text, ...))`
    in DuckDB reproduces each frame's sha256 exactly."""
    from opentapioca_ray.stages.multimodal import sample_frames, synthesize_media

    out = sample_frames(synthesize_media(_media_docs(sf_dir)), frame_bytes=1024, stride=2)
    return out.select_columns(["media_id", "frame_index", "frame_sha256"])


def _q_compact_latest(sf_dir: str):
    """D5 upsert semantics: last-write-wins per key (customer, version =
    max order key)."""
    import ray.data

    from opentapioca_ray.stages.dedup import compact_by_key

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    return compact_by_key(orders, key="o_custkey", version="o_orderkey")


def _q_jw_part_pairs(sf_dir: str):
    """Blocked Jaro-Winkler similarity join (the other classic ER string
    metric next to Levenshtein): within-brand part pairs with jw >= 0.9.
    The vectorized-across-pairs kernel (stages/fuzzy.jaro_winkler_pairs) is
    pinned bit-for-bit to DuckDB's jaro_winkler_similarity (fuzz-tested);
    values reported in round-6 units. max_block_size=1024 keeps sf0.1's
    ~800-row brand blocks on the exact all-pairs path (the skew-guard
    window only engages beyond that)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.fuzzy import jw_block_pairs

    part = _rel(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_brand"]
    )
    pairs = jw_block_pairs(
        part,
        id_column="p_partkey",
        name_column="p_name",
        block_column="p_brand",
        min_sim=0.9,
        max_block_size=1024,
    )
    return pairs.map_batches(
        lambda b: pa.table(
            {
                "u": b.column("u"),
                "v": b.column("v"),
                "jw": pc.round(b.column("jw"), 6),
            }
        )
        if b.num_rows and "u" in b.column_names
        else pa.schema(
            [("u", pa.int64()), ("v", pa.int64()), ("jw", pa.float64())]
        ).empty_table(),
        batch_format="pyarrow",
    )


def _q_monge_elkan(sf_dir: str):
    """Monge-Elkan hybrid token similarity (Monge & Elkan 1996) over
    window-blocked part pairs: names are `p_name || ' ' || p_type` token
    SETS, inner metric Jaro-Winkler (DuckDB-pinned), both directions plus
    the symmetric floor-mean, all in 1e-6 integer units (each per-token
    max quantized before the sum — see stages/fuzzy.monge_elkan_scores).
    Blocking = same-brand numeric-key window <= 50 (key_window_pairs),
    so candidate volume stays linear in table size."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.fuzzy import monge_elkan_scores
    from opentapioca_ray.stages.matching import key_window_pairs

    part = _rel(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_type", "p_brand"],
    )

    def add_nm(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "nm",
            pc.binary_join_element_wise(
                batch.column("p_name"), batch.column("p_type"), " "
            ),
        )

    pairs = key_window_pairs(
        part.map_batches(add_nm, batch_format="pyarrow"),
        id_column="p_partkey",
        block_column="p_brand",
        window=50,
        carry_columns=["nm"],
    )
    return monge_elkan_scores(pairs)


def _q_soft_tfidf(sf_dir: str):
    """SoftTFIDF hybrid pair similarity (Cohen, Ravikumar & Fienberg
    2003) over the same window-blocked part pairs as `monge_elkan`:
    tf-idf cosine where a left token aligns to its best Jaro-Winkler
    right token when jw > 0.9 — rare-token weighting that survives
    typos, the standard strongest-single-measure baseline of the
    secondstring ER benchmark. idf = floor(ln(N/df)*1e3+0.5) over the
    part corpus (broadcast name-token vocabulary); everything else exact
    int64 until one final quantized division
    (stages/fuzzy.soft_tfidf_scores)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.fuzzy import soft_tfidf_scores
    from opentapioca_ray.stages.matching import key_window_pairs

    part = _rel(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_type", "p_brand"],
    ).materialize()  # consumed by the df pass AND the pair pass
    n_parts_rows = part.count()

    def tok_rows(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("id", pa.int64()), ("tok", pa.string())])
        if batch.num_rows == 0 or "p_name" not in batch.column_names:
            return schema.empty_table()
        ids = batch.column("p_partkey").to_numpy(zero_copy_only=False)
        nm = pc.binary_join_element_wise(
            batch.column("p_name"), batch.column("p_type"), " "
        ).to_numpy(zero_copy_only=False)
        out_i, out_t = [], []
        for i, s in zip(ids, nm):
            for t in sorted({w for w in s.split(" ") if w}):
                out_i.append(i)
                out_t.append(t)
        return pa.table(
            {
                "id": pa.array(np.array(out_i, dtype=np.int64)),
                "tok": pa.array(out_t, pa.string()),
            }
        ).cast(schema)

    df_tbl = coarse_groupby_agg(
        part.map_batches(tok_rows, batch_format="pyarrow"),
        ["tok"],
        {"df": ("id", "size")},
    ).to_pandas()  # name-token vocabulary: small by construction
    w = np.floor(
        np.log(float(n_parts_rows) / df_tbl["df"].to_numpy(dtype=np.float64))
        * 1000.0
        + 0.5
    ).astype(np.int64)
    idf_ref = ray.put(dict(zip(df_tbl["tok"], (int(x) for x in w))))

    def add_nm(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "nm",
            pc.binary_join_element_wise(
                batch.column("p_name"), batch.column("p_type"), " "
            ),
        )

    pairs = key_window_pairs(
        part.map_batches(add_nm, batch_format="pyarrow"),
        id_column="p_partkey",
        block_column="p_brand",
        window=50,
        carry_columns=["nm"],
    )
    return soft_tfidf_scores(pairs, idf_ref)


def _q_pprl_dice(sf_dir: str):
    """Privacy-preserving record linkage scoring (Schnell et al. 2009):
    Bloom-filter encodings of `p_name || ' ' || p_type` character bigrams
    (two md5-derived positions per bigram, 256 bits) compared by exact
    integer Dice over the same window-blocked part pairs as
    `monge_elkan`/`soft_tfidf` — the PPRL comparator that links records
    without exposing raw identifiers (stages/fuzzy.bloom_dice_scores)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.fuzzy import bloom_dice_scores
    from opentapioca_ray.stages.matching import key_window_pairs

    part = _rel(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_type", "p_brand"],
    )

    def add_nm(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "nm",
            pc.binary_join_element_wise(
                batch.column("p_name"), batch.column("p_type"), " "
            ),
        )

    pairs = key_window_pairs(
        part.map_batches(add_nm, batch_format="pyarrow"),
        id_column="p_partkey",
        block_column="p_brand",
        window=50,
        carry_columns=["nm"],
    )
    return bloom_dice_scores(pairs)


def _q_fs_part_weights(sf_dir: str):
    """Fellegi-Sunter m/u agreement weights (Fellegi & Sunter 1969) over a
    deterministic labeled pair sample: within-brand part pairs with key
    distance <= 25 (numeric-key window blocking), label = Jaro-Winkler of
    p_name >= 0.9 (the DuckDB-pinned kernel), agreement fields = p_type
    equality, p_size equality, retail price within 10. Per field the oracle
    replays m = P(agree|match), u = P(agree|non-match) and the log2
    agreement/disagreement weights from the same exact counts."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.fuzzy import _code_matrix, jaro_winkler_pairs
    from opentapioca_ray.stages.matching import fs_weights, key_window_pairs

    part = _rel(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_name", "p_type", "p_size", "p_retailprice"],
    )
    pairs = key_window_pairs(
        part,
        id_column="p_partkey",
        block_column="p_brand",
        window=25,
        carry_columns=["p_name", "p_type", "p_size", "p_retailprice"],
    )

    def label_and_agree(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("is_match", pa.bool_()),
                ("ag_type", pa.bool_()),
                ("ag_size", pa.bool_()),
                ("ag_price", pa.bool_()),
            ]
        )
        if batch.num_rows == 0 or "p_name_u" not in batch.column_names:
            return schema.empty_table()
        nu = batch.column("p_name_u").to_numpy(zero_copy_only=False)
        nv = batch.column("p_name_v").to_numpy(zero_copy_only=False)
        names = np.concatenate((nu, nv))
        codes, lens = _code_matrix(names)
        n = batch.num_rows
        jw = jaro_winkler_pairs(codes, lens, np.arange(n), np.arange(n, 2 * n))
        tu = batch.column("p_type_u").to_numpy(zero_copy_only=False)
        tv = batch.column("p_type_v").to_numpy(zero_copy_only=False)
        su = batch.column("p_size_u").to_numpy(zero_copy_only=False).astype(np.int64)
        sv = batch.column("p_size_v").to_numpy(zero_copy_only=False).astype(np.int64)
        pu = batch.column("p_retailprice_u").to_numpy(zero_copy_only=False)
        pv = batch.column("p_retailprice_v").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "is_match": pa.array(jw >= 0.9),
                "ag_type": pa.array(tu == tv),
                "ag_size": pa.array(su == sv),
                "ag_price": pa.array(np.abs(pu - pv) < 10.0),
            }
        )

    labeled = pairs.map_batches(label_and_agree, batch_format="pyarrow")
    return fs_weights(labeled, "is_match", ["ag_type", "ag_size", "ag_price"])


def _q_compact_tombstones(sf_dir: str):
    """S6 exclusion-delete semantics (reference taggerfactory.py:103-124,
    delete_excluded): rows carrying a delete marker participate in
    last-write-wins; a key whose LATEST row is a tombstone drops out of the
    compacted index entirely. Marker synthesized deterministically
    (o_orderkey % 7 == 0) so the SQL twin replays it exactly."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.dedup import compact_by_key

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )

    def mark(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "o_orderkey" not in batch.column_names:
            return batch
        dead = pc.equal(
            pc.subtract(
                batch.column("o_orderkey"),
                pc.multiply(
                    pc.divide(batch.column("o_orderkey"), 7),
                    pa.scalar(7, pa.int64()),
                ),
            ),
            pa.scalar(0, pa.int64()),
        )
        return batch.append_column("_deleted", dead)

    compacted = compact_by_key(
        orders.map_batches(mark, batch_format="pyarrow"),
        key="o_custkey",
        version="o_orderkey",
        tombstone="_deleted",
    )
    return compacted.map_batches(
        lambda b: b.select(["o_custkey", "o_orderkey", "o_totalprice"])
        if b.num_rows and "o_custkey" in b.column_names
        else pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_orderkey", pa.int64()),
                ("o_totalprice", pa.float64()),
            ]
        ).empty_table(),
        batch_format="pyarrow",
    )


def _q_top_customers(sf_dir: str):
    """Relational coverage: groupby + global top-k (K-ops). The top-10 is a
    per-block combiner + tiny final reduce (stages/selection.py:global_top_k)
    — no all-to-all sort of the aggregate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count, Sum

    from opentapioca_ray.stages.selection import global_top_k

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    agg = orders.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="revenue"), Count(alias_name="nb_orders")
    )
    rounded = agg.map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "revenue": pc.round(b.column("revenue"), 4),
                "nb_orders": b.column("nb_orders"),
            }
        )
        if "o_custkey" in b.column_names
        else b,
        batch_format="pyarrow",
    )
    return global_top_k(rounded, "revenue", 10, "o_custkey")


def _q_revenue_by_nation(sf_dir: str):
    """Three-table pipeline: orders x customer x nation via chained
    broadcast map-side joins (no fact-table shuffle), then one small
    groupby."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Count, Sum

    from opentapioca_ray.stages.relational import broadcast_join

    customer = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    joined = broadcast_join(orders, customer, "o_custkey", "c_custkey", ["c_nationkey"])
    joined = broadcast_join(joined, nation, "c_nationkey", "n_nationkey", ["n_name"])
    agg = joined.groupby("n_name").aggregate(
        Sum("o_totalprice", alias_name="revenue"), Count(alias_name="nb_orders")
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "n_name": b.column("n_name"),
                "revenue_e4": pc.cast(
                    pc.round(pc.multiply(b.column("revenue"), 10000.0), 0), pa.int64()
                ),
                "nb_orders": b.column("nb_orders"),
            }
        ),
        batch_format="pyarrow",
    )


def _q_distinct_users_by_type(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type via the combiner-dedup
    operator — exchange volume bounded by distinct (type, user) pairs."""
    import ray.data

    from opentapioca_ray.stages.aggregates import distinct_count

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return distinct_count(ev, "event_type", "user_id", alias="n_users")


def _q_price_quantiles_by_priority(sf_dir: str):
    """Exact per-group quantiles of a CONTINUOUS column (no histogram
    shortcut): one coarse exchange + vectorized segment quantiles. The
    selected values are exact input elements, so the float hash against
    DuckDB's quantile_disc is bit-exact."""
    import ray.data

    from opentapioca_ray.stages.aggregates import grouped_quantiles

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return grouped_quantiles(
        orders, "o_orderpriority", "o_totalprice", [0.25, 0.5, 0.9, 0.99]
    )


def _q_rolling_user_value(sf_dir: str):
    """SQL window-frame aggregates (running SUM + 3-row rolling AVG per
    user ordered by ts) without per-user groups: coarse exchange +
    segment-aware cumsum in exact integer micro-units."""
    import ray.data

    from opentapioca_ray.stages.windows import windowed_frame

    ev = _rel(f"{sf_dir}/events.parquet")
    return windowed_frame(ev, preceding=2)


def _q_value_stats_by_type(sf_dir: str):
    """Per-group mean/stddev + Pearson corr(value, user_id) from one
    combiner pass over sufficient statistics (n, Σx, Σx², Σy, Σy², Σxy)."""
    import ray.data

    from opentapioca_ray.stages.aggregates import group_moments

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "value", "user_id"]
    )
    return group_moments(ev, "event_type", "value", y_column="user_id")


def _q_rollup_revenue(sf_dir: str):
    """GROUP BY ROLLUP(priority, status): finest grain aggregated once from
    the facts; every coarser level re-aggregates the previous level's tiny
    output (no second scan)."""
    import ray.data

    from opentapioca_ray.stages.aggregates import rollup_sum

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )
    return rollup_sum(orders, ["o_orderpriority", "o_orderstatus"], "o_totalprice")


def _q_events_above_p99(sf_dir: str):
    """Composition: grouped exact p99 (coarse-exchange segment quantiles)
    broadcast back as a per-type threshold filter — count + exact sum of
    the tail per type. The quantile is an exact input element, so both
    sides cut the tail at the identical value."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    from opentapioca_ray.stages.aggregates import grouped_quantiles, partial_sum_count

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    q = grouped_quantiles(ev, "event_type", "value", [0.99]).to_pandas()
    types = q["event_type"].to_numpy()
    o = np.argsort(types)
    thr_ref = ray.put((types[o], q["value"].to_numpy()[o]))

    def tail_filter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "event_type" not in batch.column_names:
            return batch
        t_sorted, thr = ray.get(thr_ref)
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        vals = batch.column("value").to_numpy(zero_copy_only=False)
        cut = thr[np.searchsorted(t_sorted, et)]
        keep = vals > cut
        out = batch.filter(pa.array(keep))
        v_u = np.round(
            out.column("value").to_numpy(zero_copy_only=False) * 1_000_000
        ).astype(np.int64)
        return pa.table(
            {"event_type": out.column("event_type"),
             "v_u": pa.array(v_u, type=pa.int64())}
        )

    tail = ev.map_batches(tail_filter, batch_format="pyarrow")
    agg = partial_sum_count(tail, "event_type", ["v_u"])

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "sum_v_u" not in batch.column_names:
            return batch
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "tail_sum_u": pc.cast(batch.column("sum_v_u"), pa.int64()),
                "n_tail": batch.column("count"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_user_event_sequences(sf_dir: str):
    """Ordered per-user event-type sequence (SQL string_agg ... ORDER BY)
    without a global sort: one coarse exchange + a segment binary_join
    kernel per partition."""
    import ray.data

    from opentapioca_ray.stages.windows import grouped_sequence

    ev = _rel(f"{sf_dir}/events.parquet")
    return grouped_sequence(ev, "user_id", "ts", "event_type")


def _q_tfidf_top_terms(sf_dir: str):
    """Top-3 TF-IDF terms per document: batch-local term frequencies, a
    combiner-first df aggregate, broadcast IDF lookup, quantized-score
    ranking (nothing float reaches the hash)."""
    import ray.data

    from opentapioca_ray.stages.tfidf import tfidf_top_terms

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_top_terms(docs, "doc_id", "text", top_n=3)


def _q_bm25_scores(sf_dir: str):
    """Okapi BM25 document scores for a fixed 3-term query (the retrieval
    score family behind the reference's Solr candidate ranking; Lucene idf
    shape, k1=1.2 b=0.75). Integer micro-unit scores so nothing float
    reaches the hash."""
    import ray.data

    from opentapioca_ray.stages.tfidf import bm25_scores

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return bm25_scores(docs, "doc_id", "text", ["spark", "window", "merge"])


def _q_approx_distinct_users(sf_dir: str):
    """KMV (K-minimum-values) distinct sketch per event type: exchange
    volume bounded at K rows per (group, block) instead of all distinct
    pairs. Deterministic md5 hashing makes the DuckDB twin EXACT."""
    import ray.data

    from opentapioca_ray.stages.sketches import approx_distinct

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return approx_distinct(ev, "event_type", "user_id", k=256, alias="n_approx")


def _q_lineitem_orders_join(sf_dir: str):
    """Big-big reduce-side equi-join (neither side broadcast): lineitem x
    orders co-partitioned on hash(orderkey), vectorized merge per
    partition, then a combiner-first aggregate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.relational import shuffle_join

    from opentapioca_ray.sources.files import read_sized

    li = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders = read_sized(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )

    def revenue(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l_extendedprice" not in batch.column_names:
            return batch
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {"o_orderpriority": batch.column("o_orderpriority"), "rev": rev}
        )

    joined = shuffle_join(
        li, orders, "l_orderkey", "o_orderkey", ["o_orderpriority"]
    ).map_batches(revenue, batch_format="pyarrow")
    agg = partial_sum_count(joined, "o_orderpriority", ["rev"])

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "sum_rev" not in batch.column_names:
            return batch
        return pa.table(
            {
                "o_orderpriority": batch.column("o_orderpriority"),
                "revenue_e4": pc.cast(
                    pc.round(pc.multiply(batch.column("sum_rev"), 10000.0), 0),
                    pa.int64(),
                ),
                "n_items": batch.column("count"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_triangle_count(sf_dir: str):
    """Distributed triangle count of the part co-occurrence graph
    (parts sharing an order): degree-oriented wedge generation + closure
    join, every stage a coarse exchange + vectorized kernel."""
    import ray.data

    from opentapioca_ray.stages.triangles import cooccurrence_edges, count_triangles

    from opentapioca_ray.sources.files import read_sized

    li = read_sized(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey")
    return count_triangles(edges)


def _q_butterfly_count(sf_dir: str):
    """Bipartite butterfly (4-cycle) census of the part-supplier graph:
    edges, wedges, co-neighbor pairs and butterflies as one exact-integer
    summary row."""
    from opentapioca_ray.stages.triangles import butterfly_count

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    return butterfly_count(li, "l_partkey", "l_suppkey")


def _q_ktruss_edges(sf_dir: str):
    """4-truss of the high-quantity part co-occurrence graph: iterative
    support-threshold peeling (support >= 2); output edges carry their
    final-graph support. Three exact regimes inside `ktruss_edges`:
    bounded numpy driver peel, delta-broadcast peel (frontier-restricted
    support updates), full-exchange peel — this sf selects the driver
    regime."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.sources.files import read_sized
    from opentapioca_ray.stages.triangles import cooccurrence_edges, ktruss_edges

    li = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_quantity"],
    ).map_batches(
        lambda b: b.filter(
            pc.greater_equal(b.column("l_quantity"), pa.scalar(25.0))
        ).select(["l_orderkey", "l_partkey"]),
        batch_format="pyarrow",
    )
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey")
    return ktruss_edges(edges, k=4, rounds=6)


def _q_props_k_stats(sf_dir: str):
    """Semi-structured field extraction: pull the integer `k` out of the
    JSON props column with ONE vectorized Arrow extract_regex kernel (no
    per-row json.loads), then a combiner-first per-type aggregate — the
    metadata-parsing stage every training pipeline runs over raw crawl
    records."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_sum_count

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        s = pc.extract_regex(batch.column("props"), r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(s, "k"), pa.int64())
        t = pa.table({"event_type": batch.column("event_type"), "k": k})
        return t.filter(pc.is_valid(k))

    return partial_sum_count(
        ev.map_batches(extract, batch_format="pyarrow"),
        "event_type",
        ["k"],
        alias={"k": "sum_k", "count": "n"},
    )


def _q_zscore_by_type(sf_dir: str):
    """Grouped feature normalization: per-event z-score of `value` within
    its event_type. Sufficient stats (n, Σu, Σu²) accumulate in EXACT int64
    centi-units via the map-side combiner, the tiny per-type table is
    broadcast, and the z pass replays the SQL twin's IEEE op order
    term-for-term — so the rounded output is hash-stable, not
    approximately-equal."""
    import numpy as np
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def to_units(batch: pa.Table) -> pa.Table:
        u = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "u": pa.array(u),
                "uu": pa.array(u * u),
            }
        )

    units = ev.map_batches(to_units, batch_format="pyarrow").materialize()
    stats = partial_sum_count(units, "event_type", ["u", "uu"])
    lut = {}
    for t in arrow_blocks(stats):
        if t.num_rows == 0 or "event_type" not in t.column_names:
            continue
        for et, su, suu, n in zip(
            t.column("event_type").to_pylist(),
            t.column("sum_u").to_pylist(),
            t.column("sum_uu").to_pylist(),
            t.column("count").to_pylist(),
        ):
            lut[et] = (float(su), float(suu), float(n))
    lut_ref = ray.put(lut)

    def zpass(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "event_id" not in batch.column_names:
            return pa.schema(
                [("event_id", pa.int64()), ("z", pa.float64())]
            ).empty_table()
        table = ray.get(lut_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.float64)
        types = batch.column("event_type").to_numpy(zero_copy_only=False)
        z = np.empty(len(u), dtype=np.float64)
        for et, (su, suu, n) in table.items():
            mask = types == et  # one vectorized compare per (few) types
            if not mask.any():
                continue
            mean = su / n
            z[mask] = (u[mask] - mean) / np.sqrt(suu / n - mean * mean)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "z": pa.array(np.round(z, 6)),
            }
        )

    return units.map_batches(zpass, batch_format="pyarrow")


def _q_dataset_split(sf_dir: str):
    """Deterministic train/val/test split (80/10/10) by md5-hash bucket of
    doc_id — one stateless map, no shuffle, identical assignment on any
    cluster shape (the reproducible-split operator every training pipeline
    needs)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.sketches import _md5_u64

    docs = _rel(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def split(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = (_md5_u64(ids) % np.uint64(100)).astype(np.int64)
        lab = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "split": pa.array([str(s) for s in lab], type=pa.string()),
            }
        )

    return docs.map_batches(split, batch_format="pyarrow")


def _q_event_type_pivot(sf_dir: str):
    """Wide pivot: per user, one count column per event type. Map-side
    partial pivot (lexsort + bincount) -> one coarse key exchange of
    O(users x 5) partial rows."""
    from opentapioca_ray.stages.aggregates import pivot_counts

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    return pivot_counts(
        ev, "user_id", "event_type", ["click", "error", "purchase", "signup", "view"]
    )


def _q_priority_sample(sf_dir: str):
    """Deterministic uniform 200-doc sample by md5-hash priority — the
    reproducible-sampling operator (same k rows on any cluster shape, no
    RNG state). Runs as the global top-k combiner, so only k rows per
    block ever move."""
    from opentapioca_ray.stages.selection import priority_sample

    docs = _rel(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return priority_sample(docs, "doc_id", 200, ["doc_id", "lang"])


def _q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample without replacement (Efraimidis-
    Spirakis exponential keys over md5-derived uniforms): 100 documents
    with inclusion probability proportional to text length — the
    quality/size-weighted corpus subsampler. No RNG state; identical
    selection on any cluster shape."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.selection import weighted_priority_sample

    docs = _docs(sf_dir)

    def add_weight(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "text" not in batch.column_names:
            return pa.schema(
                [("doc_id", pa.int64()), ("lang", pa.string()), ("w", pa.float64())]
            ).empty_table()
        texts = batch.column("text").to_numpy(zero_copy_only=False)
        w = np.array([len(t or "") + 1 for t in texts], dtype=np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "w": pa.array(w),
            }
        )

    return weighted_priority_sample(
        docs.map_batches(add_weight, batch_format="pyarrow"),
        "doc_id",
        "w",
        100,
        ["doc_id", "lang"],
    )


def _q_customer_big_order_counts(sf_dir: str):
    """LEFT OUTER reduce-side join: every customer, with their count of
    orders above 300k (zero when none match — the outer rows survive)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.relational import shuffle_join

    cust = _rel(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = _rel(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch.column("o_totalprice"), 300_000.0))
        return pa.table({"o_custkey": t.column("o_custkey"), "hit": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    joined = shuffle_join(
        cust,
        orders.map_batches(big, batch_format="pyarrow"),
        "c_custkey",
        "o_custkey",
        payload_columns=["hit"],
        how="left",
    )

    def indicator(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "c_custkey" not in batch.column_names:
            return pa.schema(
                [("c_custkey", pa.int64()), ("hit", pa.int64())]
            ).empty_table()
        hit = pc.fill_null(batch.column("hit"), 0).cast(pa.int64())
        return pa.table(
            {"c_custkey": batch.column("c_custkey").cast(pa.int64()), "hit": hit}
        )

    counts = coarse_groupby_agg(
        joined.map_batches(indicator, batch_format="pyarrow"),
        ["c_custkey"],
        {"n_big": ("hit", "sum")},
    )
    return counts


def _q_customers_no_big_orders(sf_dir: str):
    """Broadcast anti-join: customers with no order above 450k, aggregated
    per nation with the map-side combiner. The build side (distinct big-
    order custkeys) is deduped distributed-first and broadcast once via
    ray.put; the probe side streams through one vectorized searchsorted
    filter — no shuffle of either table."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.relational import semi_join

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    big = orders.filter(expr="o_totalprice > 450000.0")
    customers = _rel(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )
    no_big = semi_join(customers, big, "c_custkey", "o_custkey", anti=True)
    agg = partial_sum_count(
        no_big,
        "c_nationkey",
        ["c_acctbal"],
        alias={"c_acctbal": "total_acctbal", "count": "n_customers"},
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "c_nationkey": b.column("c_nationkey"),
                "total_acctbal": pc.round(b.column("total_acctbal"), 4),
                "n_customers": b.column("n_customers"),
            }
        )
        if "c_nationkey" in b.column_names
        else b,
        batch_format="pyarrow",
    )


def _q_redact_props(sf_dir: str):
    """PII-style redaction over the events props column (emails then digit
    runs), value-checked against DuckDB regexp_replace — both sides are
    RE2, so the rewrite is byte-identical."""
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.functions.redact import redact

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_id", "props"])
    out = redact(ev, "props")
    return out.map_batches(
        lambda b: pa.table(
            {
                "event_id": b.column("event_id"),
                "redacted": b.column("redacted"),
                "n_redactions": b.column("n_redactions"),
            }
        ),
        batch_format="pyarrow",
    )


def _q_doc_length_quantiles(sf_dir: str):
    """Exact type-1 deciles of document length via the distributed
    (value -> count) histogram — only the aggregated histogram is ever
    collected; DuckDB's quantile_disc implements the same type-1
    definition."""
    import ray.data

    from opentapioca_ray.stages.aggregates import histogram_quantiles

    docs = _rel(f"{sf_dir}/documents.parquet", columns=["n_chars"])
    return histogram_quantiles(
        docs, "n_chars", [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    )


def _q_events_by_type(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count, Sum

    events = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    agg = events.groupby("event_type").aggregate(
        Count(alias_name="n"), Sum("value", alias_name="total_value")
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "event_type": b.column("event_type"),
                "n": b.column("n"),
                "total_value": pc.round(b.column("total_value"), 4),
            }
        ),
        batch_format="pyarrow",
    )


def _events(sf_dir: str):
    import ray.data

    return _rel(f"{sf_dir}/events.parquet")


def _q_window_agg(sf_dir: str):
    """Tumbling 1-hour window aggregate over the event stream."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.windows import tumbling_window_agg

    out = tumbling_window_agg(_events(sf_dir), window_us=3_600_000_000)
    return out.map_batches(
        lambda b: pa.table(
            {
                "window_start_us": b.column("window_start_us"),
                "event_type": b.column("event_type"),
                "n": b.column("n"),
                # integer e4 total: immune to last-ulp float summation
                # differences between Ray and the SQL oracle
                "total_value_e4": pc.cast(
                    pc.round(pc.multiply(b.column("total_value"), 10000.0), 0),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_sessions(sf_dir: str):
    """Gap-based (30 min) sessionization per user."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.windows import sessionize

    out = sessionize(_events(sf_dir), gap_us=1_800_000_000)
    return out.map_batches(
        lambda b: pa.table(
            {
                "user_id": b.column("user_id"),
                "session_index": b.column("session_index").cast(pa.int64()),
                "start_us": b.column("start_us"),
                "end_us": b.column("end_us"),
                "n_events": b.column("n_events"),
                "total_value_e4": pc.cast(
                    pc.round(pc.multiply(b.column("total_value"), 10000.0), 0),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def _q_asof_clicks(sf_dir: str):
    """As-of join: each error event matched to the user's most recent
    click at-or-before it (DuckDB ASOF JOIN semantics)."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.windows import asof_join_events

    def only(kind):
        def fn(b):
            return b.filter(pc.equal(b.column("event_type"), kind))

        return fn

    errors = _events(sf_dir).map_batches(only("error"), batch_format="pyarrow")
    clicks = _events(sf_dir).map_batches(only("click"), batch_format="pyarrow")
    return asof_join_events(errors, clicks)


def _q_session_errors(sf_dir: str):
    """Range join (interval containment): every error event joined to each
    session window of its user — sessionize -> interval_join_events, one
    coarse exchange, searchsorted kernel."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.windows import interval_join_events, sessionize

    sessions = sessionize(_events(sf_dir), gap_us=1_800_000_000)
    errors = _events(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b.column("event_type"), "error")),
        batch_format="pyarrow",
    )
    out = interval_join_events(sessions, errors)
    return out.map_batches(
        lambda b: b.rename_columns(
            ["user_id", "start_us", "end_us", "event_id", "ts_us"]
        ),
        batch_format="pyarrow",
    )


def _q_linkage_clusters(sf_dir: str):
    """Flagship linkage over the files table — HASH-verified end-to-end:
    the scored match edges are deterministic, so the query dumps its own
    match-edge set to scratch parquet and the DuckDB oracle replays
    threshold + min-label transitive closure with a recursive CTE over
    exactly those edges (the dup_components recipe). Pairwise-F1
    conformance of the scores themselves is pytest-gated
    (tests/test_linkage.py)."""
    from opentapioca_ray.pipelines.linkage import linkage_clusters, match_edges
    from opentapioca_ray.sources.files import read_files

    files = read_files(sf_dir)
    clusters, scored = linkage_clusters(files, model=None, threshold=0.2)
    _dump_for_oracle(match_edges(scored, 0.2), "linkage_edges")
    return clusters


def _q_stream_ingest(sf_dir: str):
    """S2/S4 plumbing: a deterministic event feed derived from the documents
    table (title Q{doc_id}; interleaved wrong-wiki noise events are filtered
    out), micro-batched 50 ids at a time through the retry/backoff fetcher
    into (id, item_json) rows — the same table shape the indexing pipeline
    consumes. The stream head is driver-side by design (a live feed is a
    latency-bound single consumer); payload construction is deterministic so
    the result is SQL-oracle-checkable."""
    import json

    import pyarrow.parquet as pq

    from opentapioca_ray.sources.stream import (
        EventStreamReader,
        RetryingFetcher,
        micro_batches_to_dataset,
    )

    doc_ids = (
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_pylist()
    )
    events = []
    for d in doc_ids:
        events.append({"wiki": "wikidatawiki", "namespace": 0, "title": f"Q{d}"})
        if d % 7 == 0:  # noise the filter must drop
            events.append({"wiki": "enwiki", "namespace": 0, "title": f"Q{d}"})

    def fetch(ids):
        return [{"id": qid} for qid in ids]

    reader = EventStreamReader(events, RetryingFetcher(fetch), batch_size=50)
    return micro_batches_to_dataset(reader)


def _q_files_sha256(sf_dir: str):
    """Input-hint derivation + per-row sha256 invariant (M19)."""
    from opentapioca_ray.sources.files import read_files

    return read_files(sf_dir).select_columns(["file_id", "repo", "lang", "sha256"])


def _q_vendored_files(sf_dir: str):
    """Cross-repo vendored-code detection over the input-hint files
    table: file contents that appear in >= 2 distinct repos, with the
    repo spread, total copies, and the earliest file id (the canonical
    source a dedup pass keeps). The synthetic corpus has no natural
    cross-repo copies, so every 25th file is re-emitted verbatim under a
    neighboring repo (file_id + 5e6 — the standard planted-duplicate
    convention, mirrored in the oracle) to make recall observable. One
    digest map + one hash-keyed roll-up; contents never shuffle, only
    their md5s."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.sources.files import read_files
    from opentapioca_ray.stages.exchange import coarse_group_apply

    def digest_rows(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("content_md5", pa.string()),
                ("repo", pa.string()),
                ("file_id", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "content" not in batch.column_names:
            return schema.empty_table()
        contents = batch.column("content").to_pylist()
        md5s = [hashlib.md5((c or "").encode()).hexdigest() for c in contents]
        ids = batch.column("file_id").to_numpy(zero_copy_only=False).astype(np.int64)
        repos = batch.column("repo").to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(ids % 25 == 0)  # planted cross-repo copies
        dup_repo = np.array(
            [f"org{(i + 1) % 20}/" + r.split("/", 1)[1] for i, r in
             zip(ids[sel], repos[sel])],
            dtype=object,
        )
        return pa.table(
            {
                "content_md5": pa.array(
                    md5s + [md5s[i] for i in sel], pa.string()
                ),
                "repo": pa.array(
                    np.concatenate([repos, dup_repo]), pa.string()
                ),
                "file_id": pa.array(
                    np.concatenate([ids, ids[sel] + 5_000_000])
                ),
            }
        )

    rows = read_files(sf_dir).map_batches(digest_rows, batch_format="pyarrow")
    import pandas as pd

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "content_md5" not in df.columns:
            return pd.DataFrame(
                {
                    "content_md5": pd.Series(dtype=object),
                    "n_repos": pd.Series(dtype=np.int64),
                    "n_files": pd.Series(dtype=np.int64),
                    "first_file": pd.Series(dtype=np.int64),
                }
            )
        g = df.groupby("content_md5", sort=False)
        out = pd.DataFrame(
            {
                "n_repos": g["repo"].nunique(),
                "n_files": g["file_id"].size(),
                "first_file": g["file_id"].min(),
            }
        ).reset_index()
        out = out[out["n_repos"] >= 2]
        return out.astype(
            {"n_repos": np.int64, "n_files": np.int64, "first_file": np.int64}
        )

    out_schema = pa.schema(
        [
            ("content_md5", pa.string()),
            ("n_repos", pa.int64()),
            ("n_files", pa.int64()),
            ("first_file", pa.int64()),
        ]
    )

    def enforce(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "content_md5" not in batch.column_names:
            return out_schema.empty_table()
        return batch.select([f.name for f in out_schema]).cast(out_schema)

    return coarse_group_apply(rows, "content_md5", combine).map_batches(
        enforce, batch_format="pyarrow"
    )


def _q_sample_lang_quota(sf_dir: str):
    """Deterministic per-language sampling quotas (training-data corpus
    selection): md5-threshold keep, bit-reproducible in SQL."""
    import ray.data

    from opentapioca_ray.stages.selection import stratified_sample

    docs = _rel(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return stratified_sample(
        docs,
        "doc_id",
        "lang",
        {"en": 0.5, "fr": 0.25, "de": 0.1},
        default_rate=0.05,
    )


def _q_top_docs_per_lang(sf_dir: str):
    """Per-group top-k (keep best N per key): one coarse-partition exchange
    + vectorized lexsort ranking, not per-group map_groups."""
    import ray.data

    from opentapioca_ray.stages.selection import group_top_k

    docs = _rel(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return group_top_k(docs, "lang", "n_chars", 5, "doc_id")


def _q_doc_chunks(sf_dir: str):
    """Fixed-size overlapping character chunks per document (training-data
    prep): stateless vectorized map_batches fan-out — no exchange; one Arrow
    slice kernel per chunk ordinal."""
    import ray.data

    from opentapioca_ray.stages.chunking import chunk_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(docs, "doc_id", "text", size=200, stride=150)


def _q_lm_scores(sf_dir: str):
    """CCNet-style unigram LM document scores: one distributed counting
    pass trains the model (combiner + coarse exchange), the quantized
    integer log-prob table broadcasts once, scoring is a stateless
    fan-out with exact int64 sums."""
    import ray.data

    from opentapioca_ray.stages.lm import unigram_lm_scores

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).materialize()  # consumed twice: train + score
    return unigram_lm_scores(docs, "doc_id", "text")


def _q_ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020): per
    language, rank documents by exact per-token unigram LM score
    (trunc-div of the integer sum — DuckDB's `//` truncates toward zero,
    replayed exactly) and split into head/middle/tail rank terciles
    (bucket = ((rank-1)*3)//n, the NTILE formula); report each bucket's
    doc count and token mass — the standard quality-stratified corpus
    partition fed to LLM pretraining mixes. Exact global per-lang ranks
    come from the sampled-boundary `global_rank` over a composite
    lang#inverted-score key (the snm_pairs machinery)."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.lm import unigram_lm_scores
    from opentapioca_ray.stages.relational import shuffle_join
    from opentapioca_ray.stages.snm import global_rank

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).materialize()
    # doc-count-sized exchanges: default P pays 128 task launches per
    # stage on a row-per-doc table (the LPA/BPE auto-size lesson)
    np_docs = max(4, docs.count() // 65_536 + 1)
    # lang rides through the scoring map (carry_columns) — no doc-keyed
    # join to re-attach it afterwards
    with_lang = unigram_lm_scores(
        docs.select_columns(["doc_id", "text", "lang"]),
        "doc_id",
        "text",
        carry_columns=["lang"],
    ).materialize()  # consumed by the key pass, the lang counts AND the final join

    def key_rows(b: pa.Table) -> pa.Table:
        schema = pa.schema([("doc_id", pa.int64()), ("k", pa.string())])
        if b.num_rows == 0 or "sum_lp_e6" not in b.column_names:
            return schema.empty_table()
        s = b.column("sum_lp_e6").to_numpy(zero_copy_only=False).astype(np.int64)
        n = b.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
        # DuckDB `//` truncates toward zero; numpy floors — match trunc
        q = np.where(s >= 0, s // n, -((-s) // n))
        inv = 10_000_000_000_000 - q  # ascending key = per-token score DESC
        lang = b.column("lang").to_numpy(zero_copy_only=False)
        keys = [f"{lg}#{iv:014d}" for lg, iv in zip(lang, inv)]
        return pa.table(
            {
                "doc_id": b.column("doc_id").cast(pa.int64()),
                "k": pa.array(keys, pa.string()),
            }
        ).cast(schema)

    ranked = global_rank(
        with_lang.map_batches(key_rows, batch_format="pyarrow"), "k", "doc_id"
    )
    # per-lang offsets/sizes: lang cardinality is tiny by construction
    lc = coarse_groupby_agg(
        with_lang.select_columns(["lang"]), ["lang"], {"n": ("lang", "size")},
        n_parts=np_docs,
    ).to_pandas().sort_values("lang").reset_index(drop=True)
    sizes = dict(zip(lc["lang"], lc["n"].astype(np.int64)))
    offs = dict(
        zip(lc["lang"], np.concatenate(([0], np.cumsum(lc["n"].to_numpy())[:-1])))
    )
    state = ray.put((offs, sizes))

    joined = shuffle_join(
        with_lang, ranked, "doc_id", "doc_id", ["rn"], n_parts=np_docs
    )

    def bucketize(b: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("lang", pa.string()),
                ("bucket", pa.int64()),
                ("n_tokens", pa.int64()),
            ]
        )
        if b.num_rows == 0 or "rn" not in b.column_names:
            return schema.empty_table()
        o, sz = ray.get(state)
        lang = b.column("lang").to_numpy(zero_copy_only=False)
        rn = b.column("rn").to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.array([o[lg] for lg in lang], dtype=np.int64)
        n = np.array([sz[lg] for lg in lang], dtype=np.int64)
        rank = rn - off
        bucket = ((rank - 1) * 3) // n
        return pa.table(
            {
                "lang": b.column("lang"),
                "bucket": pa.array(bucket),
                "n_tokens": b.column("n_tokens").cast(pa.int64()),
            }
        ).cast(schema)

    out = coarse_groupby_agg(
        joined.map_batches(bucketize, batch_format="pyarrow"),
        ["lang", "bucket"],
        {"n_docs": ("n_tokens", "size"), "tokens": ("n_tokens", "sum")},
        n_parts=np_docs,
    )
    return out.map_batches(
        lambda b: (
            pa.table(
                {
                    "lang": b.column("lang"),
                    "bucket": b.column("bucket").cast(pa.int64()),
                    "n_docs": b.column("n_docs").cast(pa.int64()),
                    "tokens": b.column("tokens").cast(pa.int64()),
                }
            )
            if b.num_rows and "lang" in b.column_names
            else pa.schema(
                [
                    ("lang", pa.string()),
                    ("bucket", pa.int64()),
                    ("n_docs", pa.int64()),
                    ("tokens", pa.int64()),
                ]
            ).empty_table()
        ),
        batch_format="pyarrow",
    )


def _q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals per doc (top-bigram count, duplicate
    trigram tokens) as exact integers; stateless vectorized kernel."""
    import ray.data

    from opentapioca_ray.functions.textstats import repetition_stats

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(repetition_stats, batch_format="pyarrow")


def _q_funnel(sf_dir: str):
    """Ordered view->click->purchase funnel: filter at the scan, ONE coarse
    exchange on user, per-partition vectorized step resolution; only
    P x steps partial counts leave the workers."""
    import ray.data

    from opentapioca_ray.stages.funnel import funnel_counts

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel_counts(ev, ["view", "click", "purchase"])


def _q_customers_no_urgent(sf_dir: str):
    """Bloom-prefiltered ANTI join (exact): customers who never placed a
    1-URGENT order. The bitmap is O(bits) broadcast state regardless of
    build cardinality; probe rows failing the filter are definite
    non-members and skip the verify exchange entirely."""
    import ray.data

    from opentapioca_ray.stages.relational import bloom_semi_join

    cust = _rel(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).materialize()  # anti composition consumes the probe twice
    urgent = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    ).filter(expr="o_orderpriority == '1-URGENT'").select_columns(["o_custkey"])
    return bloom_semi_join(
        cust, urgent, "c_custkey", "o_custkey", anti=True, n_bits=1 << 18
    )


def _q_value_regression(sf_dir: str):
    """Per-event-type OLS fit value ~ user_id from one combiner pass of
    integer sufficient statistics; exact bigint closed form (truncating
    e6 quantization matches DuckDB HUGEINT `//`)."""
    import ray.data

    from opentapioca_ray.stages.aggregates import group_regression

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )
    return group_regression(
        ev, "event_type", "user_id", "value", x_scale=1, y_scale=10_000
    )


def _q_hopping_window(sf_dir: str):
    """Hopping-window aggregate (1h window / 15min hop): 4-fold window
    replication inside the per-batch combiner, exchange moves only
    windows x keys partials."""
    import ray.data

    from opentapioca_ray.stages.windows import hopping_window_agg

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    return hopping_window_agg(
        ev,
        window_us=3_600_000_000,
        hop_us=900_000_000,
    )


def _q_packed_sequences(sf_dir: str):
    """Greedy sequence packing into 64-token training sequences per
    deterministic 128-id partition: one coarse exchange on the range key,
    a single sequential pass per partition (packing is inherently
    order-dependent), partitions pack in parallel."""
    import ray.data

    from opentapioca_ray.stages.chunking import pack_sequences

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return pack_sequences(docs, "doc_id", "text", budget=64, part_size=128)


def _q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shape multi-aggregate over the fact table with a COMPOSITE
    key: derived measures (disc price, charge) computed per batch in Arrow,
    then the multi-key combiner — the exchange carries one partial row per
    (returnflag, linestatus) per block, never the facts."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count

    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def derive(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": batch.column("l_quantity"),
                "base": batch.column("l_extendedprice"),
                "disc_price": disc,
            }
        )

    agg = partial_multi_sum_count(
        li.map_batches(derive, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        ["qty", "base", "disc_price"],
        alias={"count": "n_items"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "sum_qty" not in batch.column_names:
            return batch
        def e2(col):
            return pc.cast(pc.round(pc.multiply(col, 100.0), 0), pa.int64())
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": pc.cast(pc.round(batch.column("sum_qty"), 0), pa.int64()),
                "sum_base_e2": e2(batch.column("sum_base")),
                "sum_disc_e2": e2(batch.column("sum_disc_price")),
                "n_items": batch.column("n_items"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_supplier_region_revenue(sf_dir: str):
    """Star join: the lineitem facts pick up supplier -> nation -> region
    through chained broadcast map-side joins (dimensions ride ray.put; the
    fact table never shuffles), then the single-key combiner aggregate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.relational import broadcast_join

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
    )

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table({"l_suppkey": batch.column("l_suppkey"), "rev": rev})

    facts = li.map_batches(revenue, batch_format="pyarrow")
    facts = broadcast_join(facts, supplier, "l_suppkey", "s_suppkey", ["s_nationkey"])
    facts = broadcast_join(facts, nation, "s_nationkey", "n_nationkey", ["n_regionkey"])
    facts = broadcast_join(facts, region, "n_regionkey", "r_regionkey", ["r_name"])
    agg = partial_sum_count(facts, "r_name", ["rev"], alias={"count": "n_items"})

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "sum_rev" not in batch.column_names:
            return batch
        return pa.table(
            {
                "r_name": batch.column("r_name"),
                "revenue_e2": pc.cast(
                    pc.round(pc.multiply(batch.column("sum_rev"), 100.0), 0),
                    pa.int64(),
                ),
                "n_items": batch.column("n_items"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_cheapest_supplier_per_part(sf_dir: str):
    """Distributed ARGMIN: per part, the (price, suppkey)-lexicographic
    cheapest line — combiner keeps one candidate per part per block, one
    coarse exchange finishes. The deterministic tie-break is what makes the
    answer hashable at any parallelism."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import group_arg_extreme

    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )
    best = group_arg_extreme(
        li,
        key_cols=["l_partkey"],
        order_cols=["l_extendedprice", "l_suppkey"],
        keep_cols=[],
        ascending=True,
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l_extendedprice" not in batch.column_names:
            return batch
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "price_e2": pc.cast(
                    pc.round(pc.multiply(batch.column("l_extendedprice"), 100.0), 0),
                    pa.int64(),
                ),
            }
        )

    return best.map_batches(finish, batch_format="pyarrow")


def _doc_budget_facts(sf_dir: str):
    """Per-doc (q_e6 stopword-density rank, bpe_tokens cost) in EXACT
    integer arithmetic — both the order key and the cost are integers so
    the greedy cutoff is bit-deterministic on both engines."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import (
        _EN_STOPWORDS,
        count_tokens,
        whitespace_token_lists,
    )

    stop = frozenset(_EN_STOPWORDS)

    def facts(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        texts = batch.column("text").to_pylist()
        q = np.zeros(batch.num_rows, dtype=np.int64)
        for i, lst in enumerate(toks.to_pylist()):
            if lst:
                n_stop = sum(1 for w in lst if w.lower() in stop)
                q[i] = n_stop * 1_000_000 // len(lst)
        bpe = np.array([count_tokens(t or "") for t in texts], dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "q_e6": pa.array(q),
                "bpe_tokens": pa.array(bpe),
            }
        )

    return _docs(sf_dir).map_batches(facts, batch_format="pyarrow")


def _q_token_budget_selection(sf_dir: str):
    """Budgeted corpus selection: rank docs by stopword density (a cheap
    fluency proxy), keep the best until 25% of the corpus token budget is
    spent — a distributed ORDER BY + prefix-scan cutoff where the driver
    only ever holds one scalar per block."""
    from opentapioca_ray.stages.selection import prefix_scan_select

    facts = _doc_budget_facts(sf_dir).materialize()
    total = facts.sum("bpe_tokens") or 0
    return prefix_scan_select(
        facts,
        order_columns=["q_e6", "doc_id"],
        descending=[True, False],
        value_column="bpe_tokens",
        budget=int(total) // 4,
    )


def _q_temperature_mix(sf_dir: str):
    """Temperature-scaled corpus mixing (the multilingual-sampling
    formula of XLM-R / the Pile: sample weight ∝ mass^alpha, alpha=0.3
    — upweights small sources without drowning large ones; contrast with
    `token_apportionment`'s purely proportional Hamilton quotas). Per
    source: exact token mass, the quantized temperature weight
    t_u = floor(n^0.3 * 1e6 + 0.5), and the sampling probability in ppm
    by integer division against the exact weight total — only the pow()
    is float, quantized per SOURCE before the sum (the repo's float-sum
    rule)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.exchange import coarse_groupby_agg

    docs = _docs(sf_dir).select_columns(["source", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("source", pa.string()), ("n", pa.int64())])
        if batch.num_rows == 0 or "text" not in batch.column_names:
            return schema.empty_table()
        toks = whitespace_token_lists(batch, "text")
        offs = toks.offsets.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": batch.column("source"),
                "n": pa.array((offs[1:] - offs[:-1]).astype(np.int64)),
            }
        ).cast(schema)

    per_source = coarse_groupby_agg(
        docs.map_batches(counts, batch_format="pyarrow"),
        ["source"],
        {"n_tokens": ("n", "sum")},
    ).to_pandas()  # one row per source: tiny by construction
    per_source = per_source.sort_values("source").reset_index(drop=True)
    n = per_source["n_tokens"].to_numpy(dtype=np.float64)
    t_u = np.floor(np.power(n, 0.3) * 1e6 + 0.5).astype(np.int64)
    total = int(t_u.sum())
    p_ppm = (t_u * 1_000_000) // total if total else np.zeros_like(t_u)
    return pa.table(
        {
            "source": pa.array(per_source["source"], pa.string()),
            "n_tokens": pa.array(
                per_source["n_tokens"].to_numpy(dtype=np.int64)
            ),
            "t_u": pa.array(t_u),
            "p_ppm": pa.array(p_ppm.astype(np.int64)),
        }
    )


def _q_source_quality_filter(sf_dir: str):
    """Two-pass source-level filter (the C4/RefinedWeb 'drop weak domains'
    shape): per-source token totals via the combiner aggregate, the global
    mean comparison done in exact integer cross-multiplication, kept
    sources broadcast back as a semi-join — the corpus never shuffles."""
    import pyarrow as pa
    import ray

    from opentapioca_ray.functions.textstats import count_tokens
    from opentapioca_ray.stages.aggregates import partial_sum_count

    import numpy as np

    def facts(batch: pa.Table) -> pa.Table:
        bpe = np.array(
            [count_tokens(t or "") for t in batch.column("text").to_pylist()],
            dtype=np.int64,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "bpe": pa.array(bpe),
            }
        )

    docs = _docs(sf_dir).map_batches(facts, batch_format="pyarrow").materialize()
    tbl = pa.concat_tables(
        [
            t
            for t in arrow_blocks(partial_sum_count(docs, "source", ["bpe"]))
            if t.num_rows
        ]
    )
    sb = tbl.column("sum_bpe").to_numpy(zero_copy_only=False).astype(np.int64)
    nd = tbl.column("count").to_numpy(zero_copy_only=False).astype(np.int64)
    total_b, total_d = int(sb.sum()), int(nd.sum())
    kept = tbl.column("source").to_numpy(zero_copy_only=False)[
        sb * total_d >= total_b * nd
    ]

    from opentapioca_ray.stages.relational import broadcast_semi_join

    return broadcast_semi_join(
        docs.select_columns(["doc_id", "source"]), np.sort(kept), "source"
    )


def _q_retention_cohorts(sf_dir: str):
    """Cohort retention: users cohorted by first active day; counts per
    (cohort, day-offset). One coarse exchange on user + combiner merges."""
    from opentapioca_ray.stages.funnel import retention_cohorts

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return retention_cohorts(ev, "user_id", "ts")


def _q_similarity_join(sf_dir: str):
    """Threshold cosine similarity join: the 32 query vectors broadcast
    once, the corpus streams through one matmul per batch, only surviving
    pairs are emitted."""
    import numpy as np

    from opentapioca_ray.functions.vectors import list_to_matrix
    from opentapioca_ray.stages.ann import cosine_threshold_join

    emb = _rel(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qdf = emb.filter(expr="vec_id < 32").to_pandas().sort_values("vec_id")
    qmat = np.array(qdf["embedding"].tolist(), dtype=np.float64)
    corpus = emb.filter(expr="vec_id >= 32")
    return cosine_threshold_join(
        corpus, qmat, qdf["vec_id"].tolist(), threshold=0.3
    )


def _q_dup_gram_fraction(sf_dir: str):
    """Per-doc duplicated-3-gram fraction (corpus-boilerplate share)."""
    from opentapioca_ray.stages.dedup import duplicated_gram_stats

    return duplicated_gram_stats(_docs(sf_dir), "doc_id", "text", k=3)


def _q_gram_novelty(sf_dir: str):
    """Order-aware per-doc 3-gram novelty: share of each document's
    distinct grams never seen in any EARLIER doc (streaming-corpus
    staleness signal; complement of dup_gram_fraction's order-free dup
    share)."""
    from opentapioca_ray.stages.dedup import gram_novelty_stats

    return gram_novelty_stats(_docs(sf_dir), "doc_id", "text", k=3)


def _q_customers_all_priorities(sf_dir: str):
    """Relational DIVISION: customers who placed orders in EVERY order
    priority — combiner-first distinct counts vs the divisor cardinality."""
    from opentapioca_ray.stages.relational import relational_division

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    return relational_division(orders, "o_custkey", "o_orderpriority")


def _q_top_prop_per_type(sf_dir: str):
    """Grouped MODE: the most frequent props-k value per event type —
    counted pairs (combiner) + the distributed argmax with a deterministic
    smallest-value tie-break."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import (
        group_arg_extreme,
        partial_multi_sum_count,
    )

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        s = pc.extract_regex(batch.column("props"), r'"k": (?P<k>[0-9]+)')
        k = pc.cast(pc.struct_field(s, "k"), pa.int64())
        t = pa.table({"event_type": batch.column("event_type"), "k": k})
        return t.filter(pc.is_valid(k))

    counts = partial_multi_sum_count(
        ev.map_batches(extract, batch_format="pyarrow"),
        ["event_type", "k"],
        [],
        alias={"count": "n"},
    )

    def neg(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n" not in batch.column_names:
            return batch
        return batch.append_column(
            "neg_n", pc.negate(batch.column("n").cast(pa.int64()))
        )

    best = group_arg_extreme(
        counts.map_batches(neg, batch_format="pyarrow"),
        key_cols=["event_type"],
        order_cols=["neg_n", "k"],
        keep_cols=["n"],
    )
    return best.map_batches(
        lambda b: b.select(["event_type", "k", "n"])
        if "n" in b.column_names
        else b,
        batch_format="pyarrow",
    )


def _q_inverted_index(sf_dir: str):
    """Search-style inverted index: per word, document frequency + sorted
    posting list capped at 64 docs (df keeps counting past the cap)."""
    from opentapioca_ray.stages.tfidf import inverted_index

    return inverted_index(_docs(sf_dir), "doc_id", "text", max_postings=64)


def _q_ann_recall(sf_dir: str):
    """Index-quality evaluation: recall@10 of the IVF index against brute
    force, per query — the two ANN pipelines run as-is, one tiny exchange
    on query_id intersects their result sets."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply

    def tag(ds, side: int):
        return ds.map_batches(
            lambda b: pa.table(
                {
                    "query_id": b.column("query_id").cast(pa.int64()),
                    "vec_id": b.column("vec_id").cast(pa.int64()),
                    "side": pa.array(
                        np.full(b.num_rows, side, dtype=np.int8)
                    ),
                }
            )
            if "query_id" in b.column_names
            else b,
            batch_format="pyarrow",
        )

    both = tag(_q_ann_topk(sf_dir), 0).union(tag(_q_ann_ivf(sf_dir), 1))

    def recall_partition(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "side" not in df.columns:
            return pd.DataFrame(
                {
                    "query_id": pd.Series(dtype=np.int64),
                    "n_hit": pd.Series(dtype=np.int64),
                    "recall_e6": pd.Series(dtype=np.int64),
                }
            )
        bf = df[df["side"] == 0][["query_id", "vec_id"]]
        iv = df[df["side"] == 1][["query_id", "vec_id"]]
        hit = bf.merge(iv, on=["query_id", "vec_id"]).groupby("query_id").size()
        n_hit = (
            bf.groupby("query_id").size() * 0 + hit
        ).fillna(0).astype(np.int64)
        return pd.DataFrame(
            {
                "query_id": n_hit.index.to_numpy(dtype=np.int64),
                "n_hit": n_hit.to_numpy(),
                "recall_e6": n_hit.to_numpy() * 1_000_000 // 10,
            }
        )

    return coarse_group_apply(both, "query_id", recall_partition)


def _q_degree_distribution(sf_dir: str):
    """Graph degree histogram of the part co-occurrence graph: two chained
    combiner aggregates (node degree, then nodes per degree)."""
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.triangles import cooccurrence_edges

    from opentapioca_ray.sources.files import read_sized

    li = read_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey")

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([pa.field("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("u").combine_chunks().cast(pa.int64()),
                        batch.column("v").combine_chunks().cast(pa.int64()),
                    ]
                )
            }
        )

    deg = partial_sum_count(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        [],
        alias={"count": "degree"},
    )
    return partial_sum_count(
        deg.select_columns(["degree"]), "degree", [], alias={"count": "n_nodes"}
    )


def _q_event_ntile(sf_dir: str):
    """Per-group quartile bucketing (SQL ntile(4) OVER (PARTITION BY type
    ORDER BY value, event_id)): one coarse exchange on the group key, a
    vectorized segment rank kernel — no per-group pandas groups."""
    import pyarrow as pa

    from opentapioca_ray.stages.windows import group_ntile

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    out = group_ntile(ev, "event_type", "value", "event_id", n_buckets=4)
    return out.map_batches(
        lambda b: b.rename_columns(["event_id", "event_type", "quartile"])
        if "bucket" in b.column_names
        else b,
        batch_format="pyarrow",
    )


def _q_word_cooccurrence(sf_dir: str):
    """Within-doc word co-occurrence counts (PMI statistic), pairs in >= 2
    docs; fan-out capped per doc, counted combiner-first."""
    from opentapioca_ray.stages.tfidf import word_cooccurrence

    return word_cooccurrence(
        _docs(sf_dir), "doc_id", "text", max_words_per_doc=256, min_count=2
    )


def _q_lang_confusion(sf_dir: str):
    """Label-vs-prediction confusion matrix: the declared `lang` column
    against the n-gram language detector, counted combiner-first — the
    standard classifier-evaluation aggregate."""
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import add_language_column
    from opentapioca_ray.stages.aggregates import partial_multi_sum_count

    def detect(batch: pa.Table) -> pa.Table:
        out = add_language_column(batch, "text")
        return out.select(["lang", "lang_id"])

    labeled = _docs(sf_dir).map_batches(detect, batch_format="pyarrow")
    return partial_multi_sum_count(
        labeled, ["lang", "lang_id"], [], alias={"count": "n_docs"}
    )


def _q_monthly_revenue_ma(sf_dir: str):
    """Time-series downsample + centered moving window: monthly order
    revenue with a 3-month rolling sum/count (integer micro-units; the
    month table is tiny, so the rolling pass is one block after the
    combiner aggregate)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_sum_count

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def to_month(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").cast(pa.int64())
        # month id = year*12 + (month-1), computed from epoch days
        days = pc.divide(ts, 86_400_000_000)
        d = days.to_numpy(zero_copy_only=False).astype("datetime64[D]")
        month = d.astype("datetime64[M]").astype(np.int64)  # months since 1970
        rev_e2 = np.round(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"month": pa.array(month), "rev_e2": pa.array(rev_e2)})

    monthly = partial_sum_count(
        orders.map_batches(to_month, batch_format="pyarrow"),
        "month",
        ["rev_e2"],
        alias={"count": "n_orders"},
    )

    def rolling(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "month" not in batch.column_names:
            return pa.schema(
                [
                    pa.field("month", pa.int64()),
                    pa.field("rev_e2", pa.int64()),
                    pa.field("n_orders", pa.int64()),
                    pa.field("ma3_sum_e2", pa.int64()),
                    pa.field("ma3_n", pa.int64()),
                ]
            ).empty_table()
        m = batch.column("month").to_numpy(zero_copy_only=False)
        rev = batch.column("sum_rev_e2").to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.column("n_orders").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(m)
        m, rev, n = m[o], rev[o], n[o]
        # centered 3-row window over consecutive ROWS (SQL ROWS BETWEEN
        # 1 PRECEDING AND 1 FOLLOWING) — months here are contiguous
        pad = np.concatenate(([0], np.cumsum(rev)))
        lo = np.maximum(np.arange(len(m)) - 1, 0)
        hi = np.minimum(np.arange(len(m)) + 1, len(m) - 1)
        ma_sum = pad[hi + 1] - pad[lo]
        ma_n = hi - lo + 1
        return pa.table(
            {
                "month": pa.array(m.astype(np.int64)),
                "rev_e2": pa.array(rev),
                "n_orders": pa.array(n),
                "ma3_sum_e2": pa.array(ma_sum.astype(np.int64)),
                "ma3_n": pa.array(ma_n.astype(np.int64)),
            }
        )

    # the monthly table is tiny (one row per month): collapse to one block
    # for the order-sensitive rolling pass
    return monthly.repartition(1).map_batches(
        rolling, batch_format="pyarrow", batch_size=None
    )


def _q_event_value_delta(sf_dir: str):
    """Per-user LAG delta: value minus the previous event's value (micro
    units), first-in-group rows dropped."""
    from opentapioca_ray.stages.windows import group_lag_delta

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return group_lag_delta(ev, "user_id", "ts", "value", "event_id")


def _q_event_value_share(sf_dir: str):
    """Ratio-to-report: each event's share of its type's total value,
    exact integer division — broadcast totals, no fact shuffle."""
    from opentapioca_ray.stages.windows import ratio_to_report

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    return ratio_to_report(ev, "event_type", "value", "event_id")


def _q_unpivot_token_stats(sf_dir: str):
    """UNPIVOT: the wide per-doc token-count columns melted into
    (doc_id, metric, value) rows — one stateless Arrow map, no exchange."""
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import add_token_counts

    def melt(batch: pa.Table) -> pa.Table:
        out = add_token_counts(batch, "text")
        n = out.num_rows
        ids = out.column("doc_id")
        parts = []
        for metric in ("ws_tokens", "bpe_tokens"):
            parts.append(
                pa.table(
                    {
                        "doc_id": ids,
                        "metric": pa.array([metric] * n, type=pa.string()),
                        "value": out.column(metric).cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    return _docs(sf_dir).map_batches(melt, batch_format="pyarrow")


def _q_event_transitions(sf_dir: str):
    """Markov transition matrix: counts of consecutive (prev_type ->
    next_type) pairs within each user's time-ordered event sequence,
    summed globally. Coarse exchange by user + bincount shift kernel."""
    from opentapioca_ray.stages.windows import group_transition_counts

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return group_transition_counts(ev, "user_id", "ts", "event_type", "event_id")


def _q_interarrival_stats(sf_dir: str):
    """Per-user inter-arrival gaps (count / total / max, exact int64
    microseconds); single-event users dropped."""
    from opentapioca_ray.stages.windows import interarrival_stats

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    return interarrival_stats(ev, "user_id", "ts", "event_id")


def _q_gini_by_nation(sf_dir: str):
    """Per-nation Gini concentration of customer account balances as
    exact integer numerator/denominator terms (cents units)."""
    from opentapioca_ray.stages.aggregates import group_gini

    cust = _rel(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_acctbal"]
    )
    return group_gini(cust, "c_nationkey", "c_acctbal", scale=100)


def _q_orders_above_avg(sf_dir: str):
    """Correlated-subquery filter: orders strictly pricier than their
    customer's average order (exact integer compare, one exchange)."""
    from opentapioca_ray.stages.aggregates import above_group_mean

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    return above_group_mean(orders, "o_custkey", "o_totalprice", "o_orderkey", scale=100)


def _q_type_overlap(sf_dir: str):
    """Audience overlap: distinct-user intersection counts for every
    event-type pair (diagonal = the type's distinct-user count)."""
    from opentapioca_ray.stages.aggregates import group_set_overlap

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return group_set_overlap(ev, "event_type", "user_id")


def _q_user_streaks(sf_dir: str):
    """Gaps-and-islands: per-user active-day count, streak count, and
    longest consecutive-day streak."""
    from opentapioca_ray.stages.windows import activity_streaks

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return activity_streaks(ev, "user_id", "ts")


def _q_bigram_counts(sf_dir: str):
    """Global ordered token-bigram counts (collocations), min_count=2 —
    combiner partials per batch, one pair-key merge, no corpus exchange."""
    from opentapioca_ray.stages.tfidf import bigram_counts

    return bigram_counts(_docs(sf_dir), "text", min_count=2)


def _q_lexical_diversity(sf_dir: str):
    """Per-doc lexical concentration: token count, distinct tokens, and
    the exact Simpson collision numerator sum(c*(c-1))."""
    from opentapioca_ray.functions.textstats import lexical_diversity

    return _docs(sf_dir).map_batches(
        lambda b: lexical_diversity(b, "text"), batch_format="pyarrow"
    )


def _q_event_rank(sf_dir: str):
    """RANK() with ties: events ranked by value (desc, exact micro-units)
    within their type."""
    from opentapioca_ray.stages.windows import group_rank

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    return group_rank(ev, "event_type", "value", "event_id")


def _q_blocking_metrics(sf_dir: str):
    """ER blocking-quality masses: candidate pairs (same first token),
    true duplicate pairs (same md5), and their intersection — reduction
    ratio and pair completeness are one division away. No pair is ever
    materialized; only per-key counts move."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.blocking_eval import blocking_quality

    def keys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        texts = batch.column("text").to_pylist()
        tkey = [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
        return pa.table(
            {
                "bkey": pa.array(first, pa.string()),
                "tkey": pa.array(tkey, pa.string()),
            }
        )

    ds = _docs(sf_dir).map_batches(keys, batch_format="pyarrow")
    return blocking_quality(ds, ["bkey"], ["tkey"])


def _q_block_split_plan(sf_dir: str):
    """Dedoop BlockSplit load-balancing plan over the first-token blocks:
    oversized blocks split into balanced chunk sub-tasks with exact
    comparison counts, round-robin-assigned to 8 reducers in decreasing
    comparison order (exact global rank)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.blocking_eval import block_split_plan

    def keys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        return pa.table({"bkey": pa.array(first, pa.string())})

    ds = _docs(sf_dir).map_batches(keys, batch_format="pyarrow")
    return block_split_plan(ds, "bkey", m=8)


def _q_weighted_median_price(sf_dir: str):
    """Quantity-weighted lower-median extended price per return flag
    (exact cents units, integral weights)."""
    from opentapioca_ray.stages.aggregates import weighted_median

    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )
    return weighted_median(li, "l_returnflag", "l_extendedprice", "l_quantity", scale=100)


def _q_curriculum_order(sf_dir: str):
    """Global curriculum ordering: dataset-wide row_number by
    (value, event_id) without a global sort — histogram offsets broadcast
    once, ties ranked per value partition."""
    from opentapioca_ray.stages.windows import global_order_index

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_id", "value"])
    return global_order_index(ev, "value", "event_id")


def _q_progressive_pairs(sf_dir: str):
    """Progressive SNM: the first 2000 candidate pairs in pay-as-you-go
    order (all gap-1 neighbors, then gap-2, ...) with each pair's exact
    position, computed in closed form from the global rank — the
    budget-limited ER schedule."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.snm import progressive_pairs

    def key(batch):
        txt = pc.fill_null(batch.column("text"), "")
        return batch.set_column(
            batch.schema.get_field_index("text"),
            "snm_key",
            pc.utf8_slice_codeunits(txt, 0, 40),
        )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        key, batch_format="pyarrow"
    )
    return progressive_pairs(
        docs, "snm_key", "doc_id", window=5, budget=2000
    )


def _q_snm_pairs(sf_dir: str):
    """Corpus-wide sorted-neighborhood candidate pairs: global order by the
    40-char text prefix (near-dups sort adjacently), window 5. Fully
    distributed rank: sampled range boundaries + a P-row count table are the
    only broadcast state."""
    import pyarrow.compute as pc

    from opentapioca_ray.stages.snm import sorted_neighborhood_pairs

    def key(batch):
        txt = pc.fill_null(batch.column("text"), "")
        return batch.set_column(
            batch.schema.get_field_index("text"),
            "snm_key",
            pc.utf8_slice_codeunits(txt, 0, 40),
        )

    docs = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        key, batch_format="pyarrow"
    )
    return sorted_neighborhood_pairs(docs, "snm_key", "doc_id", window=5)


def _q_fuzzy_customer_pairs(sf_dir: str):
    """Within-nation fuzzy customer-name matching: exact character
    Levenshtein <= 2 (DuckDB `levenshtein` parity), pairs bounded per
    nation block."""
    from opentapioca_ray.stages.fuzzy import fuzzy_block_pairs

    cust = _rel(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    )
    return fuzzy_block_pairs(
        cust, "c_custkey", "c_name", "c_nationkey", max_dist=2
    )


def _q_dl_supplier_pairs(sf_dir: str):
    """Within-nation supplier-name matching under TRUE Damerau-Levenshtein
    (transpositions count 1 — 'Supplier#...001' vs '...010' is DL 1 where
    Levenshtein says 2, exactly the digit-swap typo class ER blocklists
    care about). Same coarse-exchange + skew-guard machinery as the
    Levenshtein join; the Lowrance-Wagner DP is vectorized across pairs
    with a streaming chunk cap on the lookback cube. DuckDB
    `damerau_levenshtein` pins every value (fuzz-pinned in tests)."""
    import numpy as np
    import pandas as pd

    from opentapioca_ray.stages.fuzzy import fuzzy_block_pairs

    supp = _rel(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    out = fuzzy_block_pairs(
        supp, "s_suppkey", "s_name", "s_nationkey", max_dist=2, metric="dl"
    ).materialize()
    if out.count() == 0:
        # Ray 2.49 drops all-empty blocks, losing the schema; pin it
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("u", "v", "dl")}
        )
    return out


def _q_wl_refinement(sf_dir: str):
    """Weisfeiler-Lehman color refinement (3 rounds) over the
    part--supplier bipartite graph: node label -> md5 of (own label,
    sorted neighbor-label multiset), starting from degrees. Final colors
    are structural fingerprints — equal color = isomorphic 3-hop
    neighborhood — the cheap signature for structure-aware dedup/blocking
    of graph-shaped records (WL graph-kernel feature map). One co-locating
    exchange; per round one broadcast-label pass + an O(nodes) driver
    merge; signature strings built vectorized, md5 per DISTINCT
    signature."""
    from opentapioca_ray.stages.wl import wl_labels

    return wl_labels(_partsupp_directed(sf_dir), rounds=3)


def _wl_oracle_sql(rounds: int = 3) -> str:
    """Unrolled WL rounds: degree seed, then per round the md5 of
    lab || ':' || string_agg(neighbor labs ORDER BY lab)."""
    sql = """
        WITH e AS MATERIALIZED (
          SELECT DISTINCT l_partkey AS src, l_suppkey + 10000000 AS dst
          FROM lineitem
          UNION
          SELECT DISTINCT l_suppkey + 10000000 AS src, l_partkey AS dst
          FROM lineitem
        ),
        lab0 AS MATERIALIZED (
          SELECT src AS node, CAST(count(*) AS UBIGINT) AS wl
          FROM e GROUP BY src
        )"""
    for t in range(rounds):
        sql += f""",
        lab{t + 1} AS MATERIALIZED (
          SELECT e.src AS node,
                 ('0x' || substr(md5(
                     min(l.wl)::VARCHAR || ':' ||
                     string_agg(n.wl::VARCHAR, ',' ORDER BY n.wl)
                 ), 1, 16))::UBIGINT AS wl
          FROM e
          JOIN lab{t} l ON e.src = l.node
          JOIN lab{t} n ON e.dst = n.node
          GROUP BY e.src
        )"""
    sql += f"""
        SELECT node, wl FROM lab{rounds}"""
    return sql


def _q_ppr_seeds(sf_dir: str):
    """Personalized PageRank seed expansion: 8 integer-exact random-walk-
    with-restart rounds from seed parts {0..4} over the both-direction
    part--supplier graph — e12 mass units, per-edge floor division,
    (x*85)//100 damping, ALL lost mass teleporting to the seeds. Ranks the
    seeds' graph neighborhood for match-candidate harvesting; locality
    keeps untouched nodes at exactly 0 (absent). Pure integer trajectory
    -> the SQL twin replays it with zero float-order risk."""
    from opentapioca_ray.stages.ppr import ppr_scores

    return ppr_scores(
        _partsupp_directed(sf_dir), seeds=[0, 1, 2, 3, 4], iterations=8
    )


def _ppr_oracle_sql(iterations: int = 8) -> str:
    """Unrolled integer PPR: degree-attached edges, per-round floor-div
    contributions, 85% integer damping, lost-mass teleport to seeds."""
    sql = """
        WITH e AS MATERIALIZED (
          SELECT DISTINCT l_partkey AS src, l_suppkey + 10000000 AS dst
          FROM lineitem
          UNION
          SELECT DISTINCT l_suppkey + 10000000 AS src, l_partkey AS dst
          FROM lineitem
        ),
        ec AS MATERIALIZED (
          SELECT src, dst,
                 CAST(count(*) OVER (PARTITION BY src) AS BIGINT) AS deg
          FROM e
        ),
        seeds AS (SELECT unnest([0, 1, 2, 3, 4]) AS node),
        pr0 AS MATERIALIZED (
          SELECT node, CAST(1000000000000 // 5 AS BIGINT) AS rank
          FROM seeds
        )"""
    for i in range(1, iterations + 1):
        sql += f""",
        d{i} AS MATERIALIZED (
          SELECT node, (c * 85) // 100 AS d FROM (
            SELECT ec.dst AS node,
                   CAST(sum(p.rank // ec.deg) AS BIGINT) AS c
            FROM ec JOIN pr{i - 1} p ON p.node = ec.src
            GROUP BY ec.dst
          )
        ),
        pr{i} AS MATERIALIZED (
          SELECT node, CAST(sum(v) AS BIGINT) AS rank FROM (
            SELECT node, d AS v FROM d{i}
            UNION ALL
            SELECT s.node,
                   (SELECT (1000000000000
                            - COALESCE((SELECT sum(d) FROM d{i}), 0)) // 5)
                     AS v
            FROM seeds s
          ) GROUP BY node
          HAVING sum(v) > 0
        )"""
    sql += f"""
        SELECT node, rank AS ppr FROM pr{iterations}"""
    return sql


def _q_mmr_selection(sf_dir: str):
    """Maximal-marginal-relevance diverse selection (Carbonell & Goldstein
    SIGIR'98): 10 greedy rounds picking argmax of
    cos(v, probe) - 0.5 * max cos(v, already-selected) — the standard
    relevance-vs-redundancy tradeoff for few-shot / eval-set / dedup-aware
    corpus selection over an embedding column. Probe = vector 0 (itself
    excluded). Each round is ONE streaming pass (broadcast probe +
    <=10 selected unit vectors; per-block argmax rows carry their own
    embeddings, coreset-style, so the driver never re-scans) + a tiny
    driver argmax. Cosine parity with DuckDB's list_cosine_similarity
    follows the ann-family convention (float64 unit vectors, same op
    order). Output: (pick_round, vec_id, mmr round-6)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from opentapioca_ray.stages.ann import list_to_matrix

    probe = np.asarray(
        pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .filter(pa.compute.equal(pa.compute.field("vec_id"), 0))
        .column("embedding")
        .to_pylist()[0],
        dtype=np.float64,
    )
    probe = probe / np.linalg.norm(probe)
    ds = _rel(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()

    picks = []
    sel_vecs = np.zeros((0, len(probe)), dtype=np.float64)
    sel_ids: list[int] = []
    for rnd in range(10):
        state_ref = ray.put((probe, sel_vecs, np.array(sel_ids, np.int64)))

        def block_best(batch: pa.Table, _ref=state_ref) -> pa.Table:
            schema = pa.schema(
                [
                    ("vec_id", pa.int64()),
                    ("mmr", pa.float64()),
                    ("embedding", pa.list_(pa.float64())),
                ]
            )
            if batch.num_rows == 0 or "vec_id" not in batch.column_names:
                return schema.empty_table()
            pr, sv, sids = ray.get(_ref)
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            raw = list_to_matrix(batch.column("embedding")).astype(np.float64)
            norms = np.linalg.norm(raw, axis=1)
            norms[norms == 0] = 1.0
            unit = raw / norms[:, None]
            rel = unit @ pr
            maxsim = (
                (unit @ sv.T).max(axis=1)
                if len(sv)
                else np.zeros(len(ids), dtype=np.float64)
            )
            mmr = rel - 0.5 * maxsim
            mask = (ids != 0) & ~np.isin(ids, sids)
            if not mask.any():
                return schema.empty_table()
            idx = np.flatnonzero(mask)
            best = idx[np.lexsort((ids[idx], -mmr[idx]))[0]]
            return pa.table(
                {
                    "vec_id": pa.array([int(ids[best])], type=pa.int64()),
                    "mmr": pa.array([float(mmr[best])], type=pa.float64()),
                    "embedding": pa.array(
                        [list(raw[best])], type=pa.list_(pa.float64())
                    ),
                }
            )

        cands = ds.map_batches(block_best, batch_format="pyarrow").take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: (-r["mmr"], r["vec_id"]))
        v = np.asarray(best["embedding"], dtype=np.float64)
        sel_vecs = np.vstack([sel_vecs, v / np.linalg.norm(v)])
        sel_ids.append(int(best["vec_id"]))
        picks.append(
            {
                "pick_round": rnd,
                "vec_id": int(best["vec_id"]),
                "mmr": round(float(best["mmr"]), 6),
            }
        )
    out = pd.DataFrame(picks, columns=["pick_round", "vec_id", "mmr"])
    return out.astype({"pick_round": np.int64, "vec_id": np.int64})


def _mmr_oracle_sql(rounds: int = 10) -> str:
    """Unrolled greedy MMR: per round the rel - 0.5*max-sim-to-selected
    argmax (ties -> smallest vec_id) and the growing selected set."""
    sql = """
        WITH emb AS MATERIALIZED (
          SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings
        ),
        rel AS MATERIALIZED (
          SELECT e.vec_id,
                 list_cosine_similarity(
                   e.v, (SELECT v FROM emb WHERE vec_id = 0)) AS r,
                 e.v
          FROM emb e WHERE e.vec_id != 0
        ),
        sel0 AS (SELECT CAST(NULL AS BIGINT) AS vec_id WHERE false)"""
    for t in range(rounds):
        sql += f""",
        pick{t} AS MATERIALIZED (
          SELECT r.vec_id,
                 r.r - 0.5 * COALESCE(m.ms, 0) AS mmr
          FROM rel r
          LEFT JOIN (
            SELECT r2.vec_id, max(list_cosine_similarity(r2.v, s.v)) AS ms
            FROM rel r2
            JOIN sel{t} sl ON true
            JOIN emb s ON s.vec_id = sl.vec_id
            GROUP BY r2.vec_id
          ) m ON r.vec_id = m.vec_id
          WHERE r.vec_id NOT IN (SELECT vec_id FROM sel{t})
          ORDER BY mmr DESC, r.vec_id LIMIT 1
        ),
        sel{t + 1} AS MATERIALIZED (
          SELECT vec_id FROM sel{t}
          UNION ALL SELECT vec_id FROM pick{t}
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS pick_round, vec_id,"
        f" round(mmr, 6) AS mmr FROM pick{t}"
        for t in range(rounds)
    )
    return sql


def _q_pivot_clusters(sf_dir: str):
    """Correlation clustering of the exact n-gram Jaccard match graph via
    parallel CC-Pivot (Ailon et al. 2008 / Chierichetti et al. KDD 2014):
    the ER cluster-repair contrast to `dup_components` — connected
    components merges everything reachable, pivot clustering respects
    non-edges, splitting over-merged near-duplicate groups. Same memoized
    pair graph (`_ngram_cc`); md5 priorities, 4 unrolled rounds, fixed on
    both sides (see stages/pivot.py)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.pivot import pivot_clusters

    pairs, _ = _ngram_cc(sf_dir)

    def both_dir(b: pa.Table) -> pa.Table:
        schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
        if b.num_rows == 0 or "u" not in b.column_names:
            return schema.empty_table()
        u = b.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = b.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "src": np.concatenate((u, v)),
                "dst": np.concatenate((v, u)),
            }
        ).cast(schema)

    edges = pairs.select_columns(["u", "v"]).map_batches(
        both_dir, batch_format="pyarrow"
    )
    return pivot_clusters(edges, rounds=4).rename_columns(
        ["doc_id", "cluster", "pivot_round"]
    )


def _pivot_oracle_sql(rounds: int = 4) -> str:
    """Unrolled parallel-pivot rounds over the dup_components ngram pair
    graph: per round the Luby pivots (strict local md5 minima), then each
    active non-pivot node joins its (priority, id)-minimum pivot
    neighbor; survivors become singletons with pivot_round = rounds."""
    sql = f"""
        WITH toks AS MATERIALIZED (
          SELECT doc_id,
            list_filter(
              list_transform(
                regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                w -> trim(w)),
              w -> w != '') AS arr
          FROM documents
        ),
        grams AS MATERIALIZED (
          SELECT doc_id,
            CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                 ELSE list_distinct(list_transform(
                        range(1, len(arr) - 1),
                        i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
            END AS gs
          FROM toks WHERE len(arr) > 0
        ),
        ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
        cand AS (
          SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
          FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
        ),
        pairs AS MATERIALIZED (
          SELECT u, v
          FROM cand
          JOIN grams ga ON ga.doc_id = cand.u
          JOIN grams gb ON gb.doc_id = cand.v
          WHERE len(list_intersect(ga.gs, gb.gs))::double
                / (len(ga.gs) + len(gb.gs)
                   - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
        ),
        e AS MATERIALIZED (
          SELECT u AS src, v AS dst FROM pairs
          UNION ALL
          SELECT v AS src, u AS dst FROM pairs
        ),
        pri AS MATERIALIZED (
          SELECT node,
                 ('0x' || substr(md5(node::VARCHAR), 1, 16))::UBIGINT AS h
          FROM (SELECT DISTINCT src AS node FROM e)
        ),
        alive0 AS MATERIALIZED (SELECT node FROM pri)"""
    for t in range(rounds):
        sql += f""",
        mn{t} AS MATERIALIZED (
          SELECT e.src AS node, min(p.h) AS mh
          FROM e
          JOIN alive{t} a ON e.src = a.node
          JOIN alive{t} b ON e.dst = b.node
          JOIN pri p ON p.node = e.dst
          GROUP BY e.src
        ),
        piv{t} AS MATERIALIZED (
          SELECT a.node
          FROM alive{t} a
          JOIN pri p ON p.node = a.node
          LEFT JOIN mn{t} m ON m.node = a.node
          WHERE m.mh IS NULL OR p.h < m.mh
        ),
        cand{t} AS MATERIALIZED (
          SELECT e.src AS node, p.h AS h, e.dst AS piv
          FROM e
          JOIN alive{t} a ON e.src = a.node
          JOIN piv{t} pv ON e.dst = pv.node
          JOIN pri p ON p.node = e.dst
          WHERE e.src NOT IN (SELECT node FROM piv{t})
        ),
        mh{t} AS (SELECT node, min(h) AS mh FROM cand{t} GROUP BY node),
        asg{t} AS MATERIALIZED (
          SELECT c.node, min(c.piv) AS piv
          FROM cand{t} c JOIN mh{t} m ON c.node = m.node AND c.h = m.mh
          GROUP BY c.node
        ),
        alive{t + 1} AS MATERIALIZED (
          SELECT node FROM alive{t}
          WHERE node NOT IN (SELECT node FROM piv{t})
            AND node NOT IN (SELECT node FROM asg{t})
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"""SELECT node AS doc_id, node AS cluster,
                   CAST({t} AS BIGINT) AS pivot_round FROM piv{t}
        UNION ALL SELECT node AS doc_id, piv AS cluster,
                   CAST({t} AS BIGINT) AS pivot_round FROM asg{t}"""
        for t in range(rounds)
    )
    sql += f"""
        UNION ALL SELECT node AS doc_id, node AS cluster,
                   CAST({rounds} AS BIGINT) AS pivot_round
        FROM alive{rounds}"""
    return sql


def _q_luby_mis(sf_dir: str):
    """Luby maximal independent set over the part--supplier graph:
    md5-priority symmetry breaking, 6 rounds — the parallel classic that
    schedules conflict-free merge waves (no two adjacent merges in one
    wave) and picks canonical representatives in dense match graphs.
    Two streaming passes per round against broadcast node state; O(nodes)
    driver merges. Output: (node, mis_round)."""
    from opentapioca_ray.stages.mis import luby_mis

    return luby_mis(_partsupp_directed(sf_dir), rounds=6)


def _mis_oracle_sql(rounds: int = 6) -> str:
    """Unrolled Luby rounds: per round the min alive-neighbor md5
    priority, the strict-winner MIS, and the survivor pool."""
    sql = """
        WITH e AS MATERIALIZED (
          SELECT DISTINCT l_partkey AS src, l_suppkey + 10000000 AS dst
          FROM lineitem
          UNION
          SELECT DISTINCT l_suppkey + 10000000 AS src, l_partkey AS dst
          FROM lineitem
        ),
        pri AS MATERIALIZED (
          SELECT node,
                 ('0x' || substr(md5(node::VARCHAR), 1, 16))::UBIGINT AS h
          FROM (SELECT DISTINCT src AS node FROM e)
        ),
        alive0 AS MATERIALIZED (SELECT node FROM pri)"""
    for t in range(rounds):
        sql += f""",
        mn{t} AS MATERIALIZED (
          SELECT e.src AS node, min(p.h) AS mh
          FROM e
          JOIN alive{t} a ON e.src = a.node
          JOIN alive{t} b ON e.dst = b.node
          JOIN pri p ON p.node = e.dst
          GROUP BY e.src
        ),
        mis{t} AS MATERIALIZED (
          SELECT a.node
          FROM alive{t} a
          JOIN pri p ON p.node = a.node
          LEFT JOIN mn{t} m ON m.node = a.node
          WHERE m.mh IS NULL OR p.h < m.mh
        ),
        alive{t + 1} AS MATERIALIZED (
          SELECT node FROM alive{t}
          WHERE node NOT IN (SELECT node FROM mis{t})
            AND node NOT IN
              (SELECT e.src FROM e JOIN mis{t} m ON e.dst = m.node)
        )"""
    sql += "\n        "
    sql += "\n        UNION ALL ".join(
        f"SELECT node, CAST({t} AS BIGINT) AS mis_round FROM mis{t}"
        for t in range(rounds)
    )
    return sql


def _q_stable_assignment(sf_dir: str):
    """Gale-Shapley stable one-to-one assignment: parts (proposers, 20x
    the suppliers — contention is the point) claim suppliers by ascending
    best-observed lineitem price, suppliers hold their cheapest suitor,
    8 deferred-acceptance rounds. The stable-marriage upgrade of
    `mutual_best_fuzzy`: non-reciprocal proposers keep walking their
    preference lists instead of being dropped. One exchange ranks the
    preference lists; per round one broadcast-filtered pass + an
    O(#parts) driver merge (node-bounded state, k-means convention)."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.matching import stable_match

    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def edges(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("proposer", pa.int64()),
                ("acceptor", pa.int64()),
                ("score", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return schema.empty_table()
        cents = np.rint(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "proposer": batch.column("l_partkey").cast(pa.int64()),
                "acceptor": batch.column("l_suppkey").cast(pa.int64()),
                "score": pa.array(cents),
            }
        )

    return stable_match(
        li.map_batches(edges, batch_format="pyarrow"), rounds=8
    )


def _stable_assignment_oracle_sql(rounds: int = 8) -> str:
    """Unrolled deferred acceptance: pref lists ranked by (min cents,
    suppkey) per part; per round free parts' rank==ptr offers, pointer
    advance for proposers, per-supplier (score, part)-min hold."""
    sql = """
        WITH pref AS MATERIALIZED (
          SELECT proposer, acceptor, score,
                 row_number() OVER (
                   PARTITION BY proposer ORDER BY score, acceptor
                 ) - 1 AS rnk
          FROM (
            SELECT l_partkey AS proposer, l_suppkey AS acceptor,
                   min(CAST(round(l_extendedprice * 100, 0) AS BIGINT))
                     AS score
            FROM lineitem GROUP BY 1, 2
          )
        ),
        held0 AS (SELECT CAST(NULL AS BIGINT) AS proposer,
                         CAST(NULL AS BIGINT) AS acceptor,
                         CAST(NULL AS BIGINT) AS score WHERE false),
        ptr0 AS MATERIALIZED (
          SELECT DISTINCT proposer, CAST(0 AS BIGINT) AS ptr FROM pref)"""
    for t in range(rounds):
        sql += f""",
        prop{t} AS MATERIALIZED (
          SELECT pr.proposer, pr.acceptor, pr.score
          FROM pref pr JOIN ptr{t} p
            ON pr.proposer = p.proposer AND pr.rnk = p.ptr
          WHERE pr.proposer NOT IN
              (SELECT proposer FROM held{t} WHERE proposer IS NOT NULL)
        ),
        ptr{t + 1} AS MATERIALIZED (
          SELECT p.proposer,
                 p.ptr + (CASE WHEN pp.proposer IS NULL THEN 0 ELSE 1 END)
                   AS ptr
          FROM ptr{t} p LEFT JOIN prop{t} pp ON p.proposer = pp.proposer
        ),
        held{t + 1} AS MATERIALIZED (
          SELECT proposer, acceptor, score FROM (
            SELECT proposer, acceptor, score, row_number() OVER (
                     PARTITION BY acceptor ORDER BY score, proposer
                   ) AS rn
            FROM (SELECT * FROM held{t} UNION ALL SELECT * FROM prop{t})
          ) WHERE rn = 1
        )"""
    sql += f"""
        SELECT proposer, acceptor, score FROM held{rounds}"""
    return sql


def _q_snapshot_diff(sf_dir: str):
    """Delta detection between two deterministic snapshots of orders:
    old = keys not divisible by 7, new = keys not divisible by 5 with
    every 3rd key's price doubled — added/removed/changed rows only."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.diff import snapshot_diff

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )

    def units(batch: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(batch.column("o_totalprice"), 100.0)),
            pa.int64(),
        )
        return pa.table(
            {"o_orderkey": batch.column("o_orderkey"), "cents": cents}
        )

    def perturb(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_orderkey")
        tripled = pc.equal(
            pc.subtract(keys, pc.multiply(pc.divide(keys, 3), 3)), 0
        )
        return pa.table(
            {
                "o_orderkey": keys,
                "cents": pc.if_else(
                    tripled,
                    pc.multiply(batch.column("cents"), 2),
                    batch.column("cents"),
                ),
            }
        )

    def mod_filter(m: int):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch.column("o_orderkey")
            rem = pc.subtract(keys, pc.multiply(pc.divide(keys, m), m))
            return batch.filter(pc.not_equal(rem, 0))

        return fn

    base = orders.map_batches(units, batch_format="pyarrow")
    old = base.map_batches(mod_filter(7), batch_format="pyarrow")
    new = base.map_batches(mod_filter(5), batch_format="pyarrow").map_batches(
        perturb, batch_format="pyarrow"
    )
    return snapshot_diff(old, new, "o_orderkey", "cents")


def _q_heavy_tokens(sf_dir: str):
    """Exact phi-heavy-hitter tokens (count > 1% of all token occurrences)
    via Misra-Gries bounded candidates + an exact verify pass."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.text import tokenize_flat
    from opentapioca_ray.stages.sketches import heavy_hitters

    def tokens(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        flat, _counts = tokenize_flat([t or "" for t in texts])
        return pa.table({"word": pa.array(flat.astype(object), type=pa.string())})

    tok = _docs(sf_dir).select_columns(["text"]).map_batches(
        tokens, batch_format="pyarrow"
    )
    return heavy_hitters(tok, "word", phi=0.01)


def _q_mutual_best_fuzzy(sf_dir: str):
    """Reciprocal-best one-to-one assignment over the within-nation fuzzy
    customer pairs: keep (u, v) iff each is the other's minimum-Levenshtein
    partner (ties by partner id)."""
    from opentapioca_ray.stages.matching import mutual_best_match

    pairs = _q_fuzzy_customer_pairs(sf_dir)
    return mutual_best_match(pairs, "u", "v", "lev", ascending=True)


def _q_user_state_intervals(sf_dir: str):
    """SCD2-style interval compaction: per user, consecutive runs of the
    same event_type collapse to (state, start_us, end_us, n_rows)."""
    from opentapioca_ray.stages.windows import state_intervals

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "event_id"],
    )
    return state_intervals(ev, "user_id", "ts", "event_type", "event_id")


def _q_fd_violations(sf_dir: str):
    """Functional-dependency audit: sources whose docs span >= 2 languages
    (the 'same key, conflicting attribute' smell before any ER merge)."""
    from opentapioca_ray.stages.quality import fd_violations

    docs = _docs(sf_dir).select_columns(["source", "lang"])
    return fd_violations(docs, "source", "lang")


def _q_iqr_outliers(sf_dir: str):
    """Per-type Tukey-fence outliers over event values in exact integer
    units (quantiles are input elements; fences compare as pure int64)."""
    from opentapioca_ray.stages.quality import iqr_outliers

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    return iqr_outliers(ev, "event_type", "value", "event_id")


def _q_profile_orders(sf_dir: str):
    """Per-column ingest profile of orders: nulls, distinct cardinality,
    string min/max — one combiner exchange over distinct values."""
    from opentapioca_ray.stages.quality import profile_columns

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"]
    orders = _rel(f"{sf_dir}/orders.parquet", columns=cols)
    return profile_columns(orders, cols)


def _q_shared_spans(sf_dir: str):
    """ExactSubstr-style sub-document dedup: every maximal cross-document
    shared token span of >= 8 tokens, recovered as diagonal runs of
    matching positional 8-grams (two coarse exchanges: gram hash, then
    pair hash). Hot grams (> 64 occurrences) excluded on both sides."""
    from opentapioca_ray.stages.spans import shared_spans

    return shared_spans(
        _docs(sf_dir),
        id_column="doc_id",
        text_column="text",
        k=8,
        min_tokens=8,
        df_cap=64,
    )


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): per-doc bigram
    log-likelihood ratio of the English-subset target distribution vs the
    whole corpus, as exact integer millionths (the one float op — each
    feature's log ratio — is quantized once; doc weights are int64 sums)."""
    from opentapioca_ray.stages.dsir import dsir_weights

    return dsir_weights(
        _docs(sf_dir), target_column="lang", target_value="en"
    )


def _q_span_coverage(sf_dir: str):
    """Per-document duplicated-token fraction: interval union of every
    shared span (>= 8 tokens) touching the doc, over its token count, in
    exact integer millionths — the ExactSubstr removal budget per doc."""
    from opentapioca_ray.stages.spans import shared_spans, span_coverage

    docs = _docs(sf_dir)
    spans = shared_spans(
        docs, id_column="doc_id", text_column="text", k=8, min_tokens=8, df_cap=64
    )
    return span_coverage(spans, docs, id_column="doc_id", text_column="text")


def _q_span_removal(sf_dir: str):
    """ExactSubstr removal accounting: per doc, tokens dropped by the
    union of >= 8-token shared spans plus the md5 of the cleaned
    single-space-joined token stream (the hash stands in for the cleaned
    text so the row stays slim; a production sink writes the text)."""
    from opentapioca_ray.stages.spans import shared_spans, span_removal

    docs = _docs(sf_dir)
    spans = shared_spans(
        docs, id_column="doc_id", text_column="text", k=8, min_tokens=8, df_cap=64
    )
    return span_removal(spans, docs, id_column="doc_id", text_column="text")


def _q_ngram_containment(sf_dir: str):
    """Near-subset duplication: overlap coefficient >= 0.8 over distinct
    word-3-gram sets (catches boilerplate inclusion Jaccard misses)."""
    from opentapioca_ray.stages.dedup import ngram_containment_pairs

    return ngram_containment_pairs(
        _docs(sf_dir), id_column="doc_id", text_column="text", k=3, threshold=0.8
    )


def _q_bcubed_stats(sf_dir: str):
    """B-cubed ER evaluation statistics: per (predicted block, true
    cluster) combo — record count + both cluster sizes; B^3 precision and
    recall are one weighted sum away. Predicted = first-token block,
    truth = md5(text) (same keys as blocking_metrics)."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.blocking_eval import bcubed_combo_stats

    def keys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        texts = batch.column("text").to_pylist()
        tkey = [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
        return pa.table(
            {
                "bkey": pa.array(first, pa.string()),
                "tkey": pa.array(tkey, pa.string()),
            }
        )

    ds = _docs(sf_dir).map_batches(keys, batch_format="pyarrow")
    return bcubed_combo_stats(ds, "bkey", "tkey")


def _q_component_sizes(sf_dir: str):
    """Dedup health report: histogram of near-dup component sizes over the
    exact n-gram Jaccard pair graph."""
    from opentapioca_ray.stages.cc import component_size_histogram

    _, comp = _ngram_cc(sf_dir)
    return component_size_histogram(comp)


def _q_k_anonymity(sf_dir: str):
    """Privacy release audit: customer quasi-identifier combos
    (nation, market segment) held by fewer than 10 rows."""
    from opentapioca_ray.stages.quality import k_anonymity_violations

    cust = _rel(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_mktsegment"]
    )
    return k_anonymity_violations(cust, ["c_nationkey", "c_mktsegment"], k=10)


def _q_t_closeness(sf_dir: str):
    """t-closeness, completing the privacy trio: per (nation, segment)
    group, the EMD between its ordered account-balance band distribution
    and the global one — exact cross-multiplied cumulative gaps, one
    quantized ratio per group."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.quality import t_closeness

    cust = _rel(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment", "c_acctbal"],
    )

    def band(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_nationkey": batch.column("c_nationkey"),
                "c_mktsegment": batch.column("c_mktsegment"),
                "band": pa.array(np.floor(bal / 1000.0).astype(np.int64)),
            }
        )

    out = t_closeness(
        cust.map_batches(band, batch_format="pyarrow"),
        ["c_nationkey", "c_mktsegment"],
        "band",
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "c_nationkey": b.column("c_nationkey").cast(pa.int64()),
                "c_mktsegment": b.column("c_mktsegment").cast(pa.string()),
                "n": b.column("n").cast(pa.int64()),
                "t_e6": b.column("t_e6").cast(pa.int64()),
            }
        )
        if b.num_rows and "n" in b.column_names
        else pa.schema(
            [
                ("c_nationkey", pa.int64()),
                ("c_mktsegment", pa.string()),
                ("n", pa.int64()),
                ("t_e6", pa.int64()),
            ]
        ).empty_table(),
        batch_format="pyarrow",
    )


def _q_fd_discovery(sf_dir: str):
    """Single-column FD discovery over orders: for every ordered column
    pair (A, B), does A functionally determine B? Distinct-combo counting
    per the TANE level-1 lattice; violations = gap between distinct (A,B)
    and distinct A."""
    from opentapioca_ray.stages.quality import fd_profile

    ords = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"],
    )
    return fd_profile(
        ords, ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"]
    )


def _q_rich_club(sf_dir: str):
    """Rich-club coefficients of the high-quantity part co-occurrence
    graph: subgraph density among nodes with degree > k, exact integer
    millionths — the hub-interconnection diagnostic for match graphs."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.sources.files import read_sized
    from opentapioca_ray.stages.graphops import rich_club
    from opentapioca_ray.stages.triangles import cooccurrence_edges

    li = read_sized(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_quantity"],
    ).map_batches(
        lambda b: b.filter(
            pc.greater_equal(b.column("l_quantity"), pa.scalar(25.0))
        ).select(["l_orderkey", "l_partkey"]),
        batch_format="pyarrow",
    )
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey")
    return rich_club(edges, ks=[1, 2, 4, 8, 16])


def _q_l_diversity(sf_dir: str):
    """Privacy audit one step past k-anonymity: (nation, segment) combos
    whose account-balance band takes fewer than 5 distinct values — a
    homogeneous group leaks the attribute even when large."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.quality import l_diversity_violations

    cust = _rel(
        f"{sf_dir}/customer.parquet",
        columns=["c_nationkey", "c_mktsegment", "c_acctbal"],
    )

    def band(batch: pa.Table) -> pa.Table:
        bal = batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_nationkey": batch.column("c_nationkey"),
                "c_mktsegment": batch.column("c_mktsegment"),
                "sens": pa.array(np.floor(bal / 1000.0).astype(np.int64)),
            }
        )

    return l_diversity_violations(
        cust.map_batches(band, batch_format="pyarrow"),
        ["c_nationkey", "c_mktsegment"],
        "sens",
        l=5,
    )


def _q_vocab_richness(sf_dir: str):
    """Good-Turing missing mass, adjusted singleton count and Chao1
    vocabulary-richness estimate from the corpus unigram counts — one
    exact-integer summary row (each estimator a single quantized float
    expression)."""
    from opentapioca_ray.stages.lm import vocab_richness

    return vocab_richness(_docs(sf_dir), text_column="text")


def _q_nb_lang_confusion(sf_dir: str):
    """Train-classify-evaluate, all exact: multinomial Naive Bayes
    language ID over word unigrams (add-one smoothing, per-(lang, word)
    log-probs quantized once to micro-nats), applied back to the corpus;
    output is the confusion matrix (true_lang, pred_lang, n)."""
    from opentapioca_ray.stages.lm import nb_lang_confusion

    return nb_lang_confusion(_docs(sf_dir), text_column="text", label_column="lang")


def _q_zipf_slope(sf_dir: str):
    """Zipf's-law fit per language: least-squares slope of ln(freq) on
    ln(rank) over each language's token vocabulary, in exact integer
    millionths (per-type logs quantized once to milli-nats; the four
    regression sums are exact int64)."""
    from opentapioca_ray.stages.tfidf import zipf_slope

    return zipf_slope(_docs(sf_dir), text_column="text", group_column="lang")


def _q_pareto_users(sf_dir: str):
    """Concentration audit: per event type, how many users contribute 80%
    of total value (exact integer cross-multiplied reach test)."""
    from opentapioca_ray.stages.quality import pareto_count

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "value"]
    )
    return pareto_count(ev, "event_type", "user_id", "value", scale=100)


def _q_price_deciles(sf_dir: str):
    """Global decile summary of extended prices: exact type-1 edges from
    the distributed histogram, per-bucket count + exact cent sums."""
    from opentapioca_ray.stages.aggregates import decile_summary

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])
    return decile_summary(li, "l_extendedprice", scale=100)


def _q_orders_checksum(sf_dir: str):
    """Order-independent content checksum of (key, status): the O(1)-state
    snapshot-integrity primitive behind `snapshot_diff`."""
    from opentapioca_ray.stages.quality import table_checksum

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    return table_checksum(orders, ["o_orderkey", "o_orderstatus"])


def _q_bucket_checksums(sf_dir: str):
    """Range-bucketed content checksums of (o_orderkey, o_orderstatus) —
    the Merkle level below orders_checksum: anti-entropy reconciliation
    localizes WHICH 1024-key range diverged instead of re-reading the
    table. Same md5-first-8-bytes digest convention; one tiny
    combiner-first exchange on the bucket id."""
    from opentapioca_ray.stages.quality import bucketed_checksums

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderstatus"]
    )
    return bucketed_checksums(
        orders, "o_orderkey", ["o_orderkey", "o_orderstatus"], 1024
    )


def _q_three_way_merge(sf_dir: str):
    """Three-way snapshot reconciliation over deterministically derived
    replicas of orders (ours: delete key%97, restatus key%77->'Z' else
    key%7->'X', add synthetic keys for key%101; theirs: +100c price on
    key%5, restatus key%77->'Z'): per merge_status the key count and key
    range — the multi-writer merge audit (conflict / clean-convergence /
    one-sided / add / remove)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.diff import three_way_merge

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )

    def base_rows(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("k", pa.int64()), ("st", pa.string()), ("pc_", pa.string())]
        )
        if batch.num_rows == 0 or "o_orderkey" not in batch.column_names:
            return schema.empty_table()
        c = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "k": batch.column("o_orderkey").cast(pa.int64()),
                "st": batch.column("o_orderstatus").cast(pa.string()),
                "pc_": pa.array([str(x) for x in c], pa.string()),
            }
        )

    base = orders.map_batches(base_rows, batch_format="pyarrow")

    def ours_rows(batch: pa.Table) -> pa.Table:
        t = base_rows(batch)
        if t.num_rows == 0:
            return t
        k = t.column("k").to_numpy(zero_copy_only=False)
        st = t.column("st").to_numpy(zero_copy_only=False).astype(object)
        st = np.where(k % 77 == 0, "Z", np.where(k % 7 == 0, "X", st))
        keep = k % 97 != 0
        out = pa.table(
            {
                "k": pa.array(k[keep]),
                "st": pa.array(st[keep].astype(object), pa.string()),
                "pc_": t.column("pc_").filter(pa.array(keep)),
            }
        )
        add = k[k % 101 == 0]
        if len(add):
            out = pa.concat_tables(
                [
                    out,
                    pa.table(
                        {
                            "k": pa.array(add + 10_000_000),
                            "st": pa.array(["N"] * len(add), pa.string()),
                            "pc_": pa.array(["0"] * len(add), pa.string()),
                        }
                    ),
                ]
            )
        return out

    def theirs_rows(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("k", pa.int64()), ("st", pa.string()), ("pc_", pa.string())]
        )
        if batch.num_rows == 0 or "o_orderkey" not in batch.column_names:
            return schema.empty_table()
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        c = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        c = np.where(k % 5 == 0, c + 100, c)
        st = (
            batch.column("o_orderstatus")
            .to_numpy(zero_copy_only=False)
            .astype(object)
        )
        st = np.where(k % 77 == 0, "Z", st)
        return pa.table(
            {
                "k": pa.array(k),
                "st": pa.array(st.astype(object), pa.string()),
                "pc_": pa.array([str(x) for x in c], pa.string()),
            }
        )

    ours = orders.map_batches(ours_rows, batch_format="pyarrow")
    theirs = orders.map_batches(theirs_rows, batch_format="pyarrow")
    return three_way_merge(base, ours, theirs, "k", ["st", "pc_"])


def _q_basket_rules(sf_dir: str):
    """Market-basket association rules over order baskets: part pairs
    co-purchased in >= 2 orders with exact-integer support, floor-divided
    e6 confidences both ways, and lift — the size-2 frequent-itemset
    kernel; basket pair fan-out is bounded by the max_basket skew
    guard."""
    from opentapioca_ray.stages.relational import basket_rules

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    return basket_rules(li, "l_orderkey", "l_partkey", min_support=2)


def _q_path_tree_rollup(sf_dir: str):
    """Data-lake namespace summary over the files table: file count and
    total content size for every repo/path prefix up to 3 segments —
    quota accounting / shard planning without double-listing leaves."""
    from opentapioca_ray.sources.files import read_files
    from opentapioca_ray.stages.selection import path_tree_rollup

    return path_tree_rollup(read_files(sf_dir), max_depth=3)


def _q_embedding_dim_profile(sf_dir: str):
    """Feature-store profiling: per embedding dimension, exact int64
    (n, sum, sum-of-squares, min, max) in e4 units — the dead-dim /
    scale-drift health check run before any training job."""
    from opentapioca_ray.stages.cluster import embedding_dim_profile

    return embedding_dim_profile(
        _rel(f"{sf_dir}/embeddings.parquet", columns=["embedding"]),
        "embedding",
        scale=10_000,
    )


def _q_time_weighted_value(sf_dir: str):
    """Metering integral: per user, the step-function integral of event
    value over time (centi-units x held seconds, exact int64) plus span
    and event count — the time-weighted-average numerator that plain
    averages get wrong when sampling is irregular."""
    from opentapioca_ray.stages.windows import time_weighted_value

    return time_weighted_value(
        _rel(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        )
    )


def _q_exact_median_narrowing(sf_dir: str):
    """Exact global median of lineitem extended price (centi-units) by
    iterative histogram narrowing — distributed selection without a
    global sort: each round is one combiner scan, O(buckets) driver
    state, NO exchange; the 2^63 worst case needs 6 rounds."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import exact_kth_narrowing

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"])

    def units(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("c", pa.int64())])
        if batch.num_rows == 0 or "l_extendedprice" not in batch.column_names:
            return schema.empty_table()
        c = np.rint(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        return pa.table({"c": pa.array(c)})

    return exact_kth_narrowing(
        li.map_batches(units, batch_format="pyarrow"), "c"
    )


def _q_embedding_coherence(sf_dir: str):
    """Cluster-coherence audit: per ground-truth label, members farther
    than 1.01 (e4 units) from the label's own centroid, via the
    n-scaled identity ||n·x − S||² = n²·dist² — exact int64 end-to-end,
    no float means."""
    from opentapioca_ray.stages.cluster import embedding_coherence

    return embedding_coherence(
        _rel(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]),
        "label",
        "embedding",
        scale=10_000,
        outlier_dist_units=10_100,
    )


def _q_rrf_fusion(sf_dir: str):
    """Reciprocal-rank fusion of two order rankings — by price (desc) and
    by recency (desc): exact sampled-boundary global ranks (no global
    sort, no bounded-cardinality histogram), each 1/(60+r) term quantized
    to 1e-9 units before the integer sum. Numeric sort keys ride
    global_rank's string path as order-preserving fixed-width
    complements."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.evaluation import rrf_fuse
    from opentapioca_ray.stages.snm import global_rank

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )

    def price_key(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("o_orderkey", pa.int64()), ("key", pa.string())])
        if batch.num_rows == 0 or "o_totalprice" not in batch.column_names:
            return schema.empty_table()
        c = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        s = 10**12 - c  # descending price == ascending complement
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "key": pa.array([f"{x:013d}" for x in s], pa.string()),
            }
        )

    def recency_key(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("o_orderkey", pa.int64()), ("key", pa.string())])
        if batch.num_rows == 0 or "o_orderdate" not in batch.column_names:
            return schema.empty_table()
        us = pc.cast(
            pc.cast(
                batch.column("o_orderdate").combine_chunks(), pa.timestamp("us")
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        s = 10**16 - us
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "key": pa.array([f"{x:017d}" for x in s], pa.string()),
            }
        )

    ra = global_rank(
        orders.map_batches(price_key, batch_format="pyarrow"),
        "key",
        "o_orderkey",
    )
    rb = global_rank(
        orders.map_batches(recency_key, batch_format="pyarrow"),
        "key",
        "o_orderkey",
    )
    out = rrf_fuse(ra, rb, "o_orderkey", k=60)
    return out.map_batches(
        lambda b: (
            b.rename_columns(["o_orderkey", "rank_price", "rank_recency", "rrf_e9"])
            if b.num_rows and "rank_a" in b.column_names
            else pa.schema(
                [
                    ("o_orderkey", pa.int64()),
                    ("rank_price", pa.int64()),
                    ("rank_recency", pa.int64()),
                    ("rrf_e9", pa.int64()),
                ]
            ).empty_table()
        ),
        batch_format="pyarrow",
    )


def _q_zorder_stats(sf_dir: str):
    """Z-order (Morton) layout manifests over orders: interleave the low
    16 bits of (custkey, epoch-day) into a space-filling-curve key,
    bucket by its bits above 16, and emit per-block n/min/max of BOTH dims —
    the pruning statistics a z-clustered layout gives a 2-D predicate
    (the OPTIMIZE ZORDER primitive)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.selection import zorder_block_stats

    orders = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("x", pa.int64()), ("y", pa.int64())])
        if batch.num_rows == 0 or "o_custkey" not in batch.column_names:
            return schema.empty_table()
        us = pc.cast(
            pc.cast(
                batch.column("o_orderdate").combine_chunks(),
                pa.timestamp("us"),
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "x": batch.column("o_custkey").cast(pa.int64()),
                "y": pa.array(us // 86_400_000_000),
            }
        )

    return zorder_block_stats(
        orders.map_batches(prep, batch_format="pyarrow"),
        "x",
        "y",
        bits=16,
        block_shift=16,
    )


def _q_token_kl_drift(sf_dir: str):
    """Corpus drift: KL(even-doc half || odd-doc half) over token
    distributions, add-1 smoothed; per-token contributions quantized to
    int64 micro-nats BEFORE the sum so the total is exact (the
    entropy/PMI fixed-point discipline)."""
    from opentapioca_ray.stages.quality import token_kl_drift

    return token_kl_drift(_docs(sf_dir), "doc_id", "text")


def _q_bloom_semijoin(sf_dir: str):
    """Bloom-prefiltered semi-join: orders probed against a 4096-bit
    Bloom filter (k=2, md5 halves) of nation-5 customers; survivors —
    true matches PLUS the filter's false positives — ride one exact
    verify exchange that annotates is_match, so the FP set is measured
    output, not silent. The classic broadcast-filter join optimization:
    m bits regardless of build cardinality, the exchange carries only
    candidates."""
    from opentapioca_ray.stages.relational import bloom_semijoin

    probe = _rel(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    build = _rel(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).filter(expr="c_nationkey == 5")
    return bloom_semijoin(
        probe, build, "o_custkey", "c_custkey", ["o_orderkey"], m_bits=4096
    )


def _q_multipass_pairs(sf_dir: str):
    """Multi-pass blocking union with provenance: first-token blocks
    (bit 1) UNION sorted-neighborhood prefix window (bit 2); `schemes` is
    the bit-OR of the passes proposing each pair."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.snm import block_key_pairs, multi_pass_pairs

    def bkeys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "bkey": pa.array(first, pa.string()),
            }
        )

    docs = _docs(sf_dir)
    blocked = docs.select_columns(["doc_id", "text"]).map_batches(
        bkeys, batch_format="pyarrow"
    )
    bp = block_key_pairs(blocked, "bkey", "doc_id", max_block_size=4096)
    sp = _q_snm_pairs(sf_dir).select_columns(["u", "v"])
    return multi_pass_pairs([(bp, 1), (sp, 2)])


def _split_docs(sf_dir: str):
    """Deterministic delta split of documents: doc_id % 10 == 0 is the NEW
    delta, the rest is the existing corpus."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def side_filter(new_side: bool):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch.column("doc_id")
            rem = pc.subtract(keys, pc.multiply(pc.divide(keys, 10), 10))
            mask = pc.equal(rem, 0) if new_side else pc.not_equal(rem, 0)
            return batch.filter(mask)

        return fn

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    return (
        docs.map_batches(side_filter(True), batch_format="pyarrow"),
        docs.map_batches(side_filter(False), batch_format="pyarrow"),
    )


def _q_incremental_dedup(sf_dir: str):
    """Streaming dedup: exact n-gram Jaccard pairs of the NEW delta
    (doc_id % 10 == 0) against the EXISTING corpus only — never
    corpus x corpus."""
    from opentapioca_ray.stages.dedup import incremental_jaccard_pairs

    new_docs, old_docs = _split_docs(sf_dir)
    return incremental_jaccard_pairs(
        new_docs, old_docs, "doc_id", "text", k=3, threshold=0.3
    )


def _q_cluster_survivorship(sf_dir: str):
    """Canonical-record merge: per near-dup cluster and attribute
    (lang, source), the majority value with a deterministic tie-break."""
    from opentapioca_ray.stages.matching import survivorship

    _, comp = _ngram_cc(sf_dir)
    attrs = _docs(sf_dir).select_columns(["doc_id", "lang", "source"])
    return survivorship(comp, attrs, "doc_id", ["lang", "source"])


def _q_ab_conversion(sf_dir: str):
    """Experimentation lift readout: users split A/B by md5 bucket
    (identical assignment on any cluster shape); per arm, distinct users
    and distinct converters (>= 1 purchase). Combiner-first: per-user any
    flag -> bucket counts; the event table never re-shuffles."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.sketches import _md5_u64

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def flags(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.schema(
                [("user_id", pa.int64()), ("p", pa.int64())]
            ).empty_table()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "p": pa.array((et == "purchase").astype(np.int64)),
            }
        )

    per_user = coarse_groupby_agg(
        ev.map_batches(flags, batch_format="pyarrow"),
        ["user_id"],
        {"p": ("p", "max")},
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return pa.schema(
                [("arm", pa.int64()), ("p", pa.int64())]
            ).empty_table()
        ids = batch.column("user_id").to_numpy(zero_copy_only=False)
        arm = (_md5_u64(ids) % np.uint64(2)).astype(np.int64)
        return pa.table({"arm": pa.array(arm), "p": batch.column("p")})

    armed = per_user.map_batches(bucketize, batch_format="pyarrow")
    return partial_sum_count(
        armed, "arm", ["p"], alias={"p": "n_converted", "count": "n_users"}
    )


def _q_first_event_per_day(sf_dir: str):
    """Windowed compaction: per (user, UTC day) the FIRST event by
    (ts, event_id) — the keep-first dedup every sessionized ingest runs."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import group_arg_extreme

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def add_day(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return pa.schema(
                [
                    ("user_id", pa.int64()),
                    ("day", pa.int64()),
                    ("tus", pa.int64()),
                    ("event_id", pa.int64()),
                    ("event_type", pa.string()),
                ]
            ).empty_table()
        tus = batch.column("ts").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "day": pa.array(tus // 86_400_000_000),
                "tus": pa.array(tus),
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
            }
        )

    days = ev.map_batches(add_day, batch_format="pyarrow")
    out = group_arg_extreme(
        days,
        ["user_id", "day"],
        ["tus", "event_id"],
        ["event_type"],
        ascending=True,
    )
    return out.map_batches(
        lambda b: b.select(["user_id", "day", "event_id", "event_type"])
        if b.num_rows and "user_id" in b.column_names
        else pa.schema(
            [
                ("user_id", pa.int64()),
                ("day", pa.int64()),
                ("event_id", pa.int64()),
                ("event_type", pa.string()),
            ]
        ).empty_table(),
        batch_format="pyarrow",
    )


def _q_hot_keys(sf_dir: str):
    """Skew diagnostic: the 10 hottest first-token blocking keys with
    row counts — the hot-key detector a shuffle planner consults before
    salting. Combiner counts + per-block top-k, no global sort."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.selection import global_top_k

    def bkeys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        return pa.table({"bkey": pa.array(first, pa.string())})

    keys = _docs(sf_dir).select_columns(["text"]).map_batches(
        bkeys, batch_format="pyarrow"
    )
    counts = partial_sum_count(keys, "bkey", [], alias={"count": "n"})
    return global_top_k(counts, "n", 10, "bkey", descending=True)


def _q_two_hop_candidates(sf_dir: str):
    """Candidate expansion over the fuzzy match graph: node pairs joined
    through a common neighbor but not yet edges, with the common-neighbor
    count (the transitive candidates a second matching round scores)."""
    from opentapioca_ray.stages.graphops import two_hop_pairs

    return two_hop_pairs(_q_fuzzy_customer_pairs(sf_dir))


def _q_cross_source_pairs(sf_dir: str):
    """Two-database record linkage (file A = customers, file B =
    suppliers, blocked by nation): every cross-side pair with full-name
    Levenshtein <= 7 — the classic Fellegi-Sunter A-to-B setting, never
    comparing a file to itself."""
    from opentapioca_ray.stages.fuzzy import cross_source_pairs

    cust = _rel(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    )
    supp = _rel(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    )
    return cross_source_pairs(
        cust, supp,
        "c_custkey", "c_name", "c_nationkey",
        "s_suppkey", "s_name", "s_nationkey",
        max_dist=7,
    )


def _q_cross_source_links(sf_dir: str):
    """End-to-end two-database ER: the blocked cross-source candidate
    pairs reduced to reciprocal-best ONE-TO-ONE links (each customer and
    each supplier appears at most once; ties by partner id) — the linkage
    table a fusion step consumes. Supplier ids ride offset by 1e7 through
    the shared-id-space mutual-best kernel and are mapped back."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.matching import mutual_best_match

    pairs = _q_cross_source_pairs(sf_dir)

    def offset(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("u", pa.int64()), ("v", pa.int64()), ("lev", pa.int64())]
        )
        if batch.num_rows == 0 or "a_id" not in batch.column_names:
            return schema.empty_table()
        b = batch.column("b_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "u": batch.column("a_id").cast(pa.int64()),
                "v": pa.array(b + 10_000_000),
                "lev": batch.column("lev").cast(pa.int64()),
            }
        )

    best = mutual_best_match(
        pairs.map_batches(offset, batch_format="pyarrow"),
        u_column="u",
        v_column="v",
        score_column="lev",
        ascending=True,
    )

    def unoffset(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("a_id", pa.int64()), ("b_id", pa.int64()), ("lev", pa.int64())]
        )
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return schema.empty_table()
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "a_id": batch.column("u").cast(pa.int64()),
                "b_id": pa.array(v - 10_000_000),
                "lev": batch.column("lev").cast(pa.int64()),
            }
        )

    return best.map_batches(unoffset, batch_format="pyarrow")


def _q_link_prediction(sf_dir: str):
    """Link-prediction scores over the fuzzy match graph: every
    non-adjacent pair with a common neighbor gets its common-neighbor
    count, endpoint degrees, and neighborhood Jaccard in exact integer
    millionths (Liben-Nowell & Kleinberg predictors; all-int64)."""
    from opentapioca_ray.stages.graphops import link_prediction

    return link_prediction(_q_fuzzy_customer_pairs(sf_dir))


def _q_sparsify_fuzzy(sf_dir: str):
    """Degree-capped sparsification of the fuzzy match graph: each node
    nominates its 2 lowest-distance edges; an edge survives if either
    endpoint nominated it (mutual-kNN guard against hub-glued clusters)."""
    from opentapioca_ray.stages.graphops import sparsify_edges

    return sparsify_edges(
        _q_fuzzy_customer_pairs(sf_dir), "lev", k=2, ascending=True
    )


def _q_event_user_entropy(sf_dir: str):
    """Shannon entropy of each event type's user-occurrence distribution
    from EXACT integer counts — a skew/diversity diagnostic for choosing
    blocking keys (a low-entropy key is a hot-partition risk). Two
    combiner-first reductions, no row-level double shuffle."""
    from opentapioca_ray.stages.aggregates import group_entropy

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return group_entropy(ev, "event_type", "user_id")


def _q_hll_distinct_users(sf_dir: str):
    """HyperLogLog distinct-user sketch per event type (p=8, 256
    registers) over the same deterministic md5-u64 hash as the KMV
    sketch; exchange volume is <= 256 rows per (group, block). The SQL
    twin reproduces every register and the estimate bit-for-bit (the
    harmonic sum is carried as an exact integer)."""
    from opentapioca_ray.stages.sketches import hll_distinct

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return hll_distinct(ev, "event_type", "user_id")


def _q_winnow_pairs(sf_dir: str):
    """Doc pairs sharing >= 2 winnowing fingerprints (Schleimer et al.,
    SIGMOD 2003 — the MOSS selection: min word-3-gram md5 hash per sliding
    window of 4, rightmost on ties). Selection is per-doc/per-batch with
    zero shuffles and moves only ~2/(w+1) of the grams into the blocking
    exchange; hot fingerprints are purged at doc-frequency 32 (exactly
    replicated by the SQL twin). The oracle recomputes every fingerprint
    bit-for-bit from the shared md5-u64 convention."""
    from opentapioca_ray.stages.winnow import winnow_pairs

    return winnow_pairs(
        _docs(sf_dir), k=3, w=4, max_doc_freq=32, min_shared=2
    )


def _q_metablocking_wnp(sf_dir: str):
    """Meta-blocking (Papadakis et al., TKDE 2014): purge 3-gram blocks
    bigger than 24 docs, weight candidate pairs by CBS (shared-block
    count), and keep edges clearing BOTH endpoints' mean incident weight
    (reciprocal weighted node pruning). The WNP comparison is exact
    integer math (w * degree >= weight_sum) so the SQL twin matches
    bit-for-bit; thresholds attach via two reduce-side lookup exchanges,
    never a driver collect."""
    from opentapioca_ray.stages.metablocking import metablocking_wnp_pairs

    return metablocking_wnp_pairs(_docs(sf_dir), k=3, max_block_size=24)


def _q_metablocking_arcs(sf_dir: str):
    """Meta-blocking with the ARCS weighting (Aggregate Reciprocal
    Comparisons Scheme, Papadakis et al., TKDE 2014): each shared block
    votes with 1e6 // C(block_size, 2) — rare blocks count for more —
    instead of CBS's flat shared-block count, then the same reciprocal
    weighted node pruning. All weights are fixed-point e6 integers, so
    the WNP comparison (w * degree >= weight_sum) and the SQL twin are
    exact. Same exchange plan as `metablocking_wnp`; only the per-block
    pair weight changes inside the partition kernel."""
    from opentapioca_ray.stages.metablocking import metablocking_wnp_pairs

    return metablocking_wnp_pairs(
        _docs(sf_dir), k=3, max_block_size=24, scheme="arcs"
    )


def _q_order_skyline(sf_dir: str):
    """Pareto frontier of orders (maximize o_totalprice, minimize
    o_orderdate) — the Skyline operator (Börzsönyi et al., ICDE 2001) in
    its distribute-then-merge form: every block prefilters to its local
    skyline (zero communication), only the ~O(log n)-per-block survivors
    reach the single tiny merge partition. Exact-tie duplicates of a
    frontier point are all kept, matching the SQL twin's group-min
    formulation."""
    from opentapioca_ray.stages.skyline import skyline2d

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )
    return skyline2d(orders, "o_totalprice", "o_orderdate")


def _q_clustering_ari(sf_dir: str):
    """Adjusted Rand Index (Hubert & Arabie 1985) between two blocking
    assignments of the documents — 80-char-prefix hash groups vs
    first-token blocks — the label-free way to quantify how much two
    dedup/blocking methods agree. All pair-count sums are exact integers
    reduced combiner-first; only the final ARI is one fixed float
    expression quantized to micro-units."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.blocking_eval import adjusted_rand_stats

    def keys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        texts = batch.column("text").to_pylist()
        la = [hashlib.md5((t or "")[:80].encode()).hexdigest() for t in texts]
        return pa.table(
            {
                "la": pa.array(la, pa.string()),
                "lb": pa.array(first, pa.string()),
            }
        )

    labeled = _docs(sf_dir).map_batches(keys, batch_format="pyarrow")
    return adjusted_rand_stats(labeled, "la", "lb")


def _q_clustering_nmi(sf_dir: str):
    """Normalized mutual information (sqrt normalization, Strehl & Ghosh
    2002) between the SAME two blocking assignments `clustering_ari`
    compares (80-char-prefix md5 groups vs first-token blocks) — the
    information-theoretic agreement measure next to ARI's pair counting.
    Every x*ln(x) term is quantized to 1e-6 nat-units before summation;
    only the final NMI is one fixed float expression over the three exact
    sums (stages/blocking_eval.nmi_stats)."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.blocking_eval import nmi_stats

    def keys(batch: pa.Table) -> pa.Table:
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        texts = batch.column("text").to_pylist()
        la = [hashlib.md5((t or "")[:80].encode()).hexdigest() for t in texts]
        return pa.table(
            {
                "la": pa.array(la, pa.string()),
                "lb": pa.array(first, pa.string()),
            }
        )

    labeled = _docs(sf_dir).map_batches(keys, batch_format="pyarrow")
    return nmi_stats(labeled, "la", "lb")


def _q_kcore_nodes(sf_dir: str):
    """Fixed-round k-core peel (k=2, 12 rounds — the bounded-iteration
    contract the repo's 16-iteration PageRank uses) over the part-supplier
    co-purchase graph thresholded at lineitem multiplicity >= 3. Node ids
    disambiguate the bipartite sides as 2*partkey / 2*suppkey+1; output is
    (entity, key, degree) of the surviving core. All-integer, so the
    unrolled 12-round SQL twin matches exactly whether or not the peel
    converged."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.graphops import kcore_degrees

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    mult = partial_multi_sum_count(
        li, ["l_partkey", "l_suppkey"], [], alias={"count": "n"}
    )

    def mk_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "n" not in batch.column_names:
            return pa.schema([("u", pa.int64()), ("v", pa.int64())]).empty_table()
        return pa.table(
            _encode_copurchase(batch.filter(pc.greater_equal(batch.column("n"), 3)))
        )

    deg = kcore_degrees(
        mult.map_batches(mk_edges, batch_format="pyarrow"), k=2, rounds=12
    )
    return deg.map_batches(_node_labeller("degree"), batch_format="pyarrow")


def _q_landmark_closeness(sf_dir: str):
    """Landmark-based harmonic closeness centrality (Potamias et al. CIKM
    2009): per-landmark fixed-round BFS (4 rounds) from the sampled part
    nodes (p_partkey % 397 == 0) over the quantity-1 co-purchase graph,
    then per node the exact-integer harmonic sum over landmarks,
    closeness_u = sum(1000000 // dist) for dist >= 1, plus the reached-
    landmark count. Distances keyed (lm, node) ride the same bounded-
    iteration relaxation as bfs_hops (stages/graphops.
    multi_source_hops); the whole closeness roll-up is one slim
    groupby."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.graphops import multi_source_hops

    dists = multi_source_hops(
        _copurchase_edges(sf_dir), _part_seeds(sf_dir, 397), rounds=4
    )

    def terms(b: pa.Table) -> pa.Table:
        schema = pa.schema([("node", pa.int64()), ("recip_u", pa.int64())])
        if b.num_rows == 0 or "node" not in b.column_names:
            return schema.empty_table()
        t = b.filter(pc.greater_equal(b.column("dist"), pa.scalar(1, pa.int64())))
        return pa.table(
            {
                "node": t.column("node").cast(pa.int64()),
                "recip_u": pc.divide(
                    pa.scalar(1_000_000, pa.int64()),
                    t.column("dist").cast(pa.int64()),
                ),
            }
        ).cast(schema)

    rolled = coarse_groupby_agg(
        dists.map_batches(terms, batch_format="pyarrow"),
        ["node"],
        {"closeness_u": ("recip_u", "sum"), "n_lm": ("recip_u", "size")},
    )
    return rolled.map_batches(
        _node_labeller("closeness_u", "n_lm"), batch_format="pyarrow"
    )


def _landmark_closeness_sql(rounds: int = 4) -> str:
    """Unrolled per-landmark BFS (state keyed (lm, node)) + exact-integer
    harmonic roll-up, mirroring `_bfs_sql`'s graph."""
    ctes = [
        """sym AS MATERIALIZED (
          SELECT u, v FROM (
            SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
            FROM lineitem WHERE l_quantity = 1)
          UNION ALL
          SELECT v, u FROM (
            SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
            FROM lineitem WHERE l_quantity = 1)
        )""",
        """d0 AS MATERIALIZED (
          SELECT 2 * p_partkey AS lm, 2 * p_partkey AS node, 0 AS dist
          FROM part WHERE p_partkey % 397 = 0
        )""",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""d{r} AS MATERIALIZED (
              SELECT lm, node, min(dist) AS dist FROM (
                SELECT lm, node, dist FROM d{r - 1}
                UNION ALL
                SELECT d.lm, e.v AS node, d.dist + 1 AS dist
                FROM sym e JOIN d{r - 1} d ON d.node = e.u)
              GROUP BY lm, node
            )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS entity,
               CAST(node // 2 AS BIGINT) AS key,
               CAST(sum(1000000 // dist) AS BIGINT) AS closeness_u,
               CAST(count(*) AS BIGINT) AS n_lm
        FROM d{rounds} WHERE dist >= 1
        GROUP BY node
    """
    )


def _q_stress_centrality(sf_dir: str):
    """Bounded-radius stress centrality (Shimbel 1953) from the
    `landmark_closeness` seed set (p_partkey % 397 == 0) over the same
    quantity-1 co-purchase graph: per node, the exact-integer count of
    shortest seed->t paths (t within 4 hops) passing through it —
    sigma * (DAG-suffix count - 1) summed over seeds, the
    betweenness-family measure that stays in int64 (no fractional
    Brandes deltas), so the unrolled sigma/paths SQL chains replay it
    bit-for-bit (stages/graphops.stress_centrality)."""
    from opentapioca_ray.stages.graphops import stress_centrality

    out = stress_centrality(
        _copurchase_edges(sf_dir), _part_seeds(sf_dir, 397), rounds=4
    )
    return _node_labeller("stress")(out)


def _stress_sql(rounds: int = 4) -> str:
    """Unrolled per-landmark BFS levels + forward sigma + backward
    DAG-suffix counts, all exact integers over `_landmark_closeness_sql`'s
    graph and seeds."""
    ctes = [
        """sym AS MATERIALIZED (
          SELECT u, v FROM (
            SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
            FROM lineitem WHERE l_quantity = 1)
          UNION ALL
          SELECT v, u FROM (
            SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
            FROM lineitem WHERE l_quantity = 1)
        )""",
        """d0 AS MATERIALIZED (
          SELECT 2 * p_partkey AS lm, 2 * p_partkey AS node, 0 AS dist
          FROM part WHERE p_partkey % 397 = 0
        )""",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""d{r} AS MATERIALIZED (
              SELECT lm, node, min(dist) AS dist FROM (
                SELECT lm, node, dist FROM d{r - 1}
                UNION ALL
                SELECT d.lm, e.v AS node, d.dist + 1 AS dist
                FROM sym e JOIN d{r - 1} d ON d.node = e.u)
              GROUP BY lm, node
            )"""
        )
    ctes.append(f"dfin AS MATERIALIZED (SELECT * FROM d{rounds})")
    ctes.append(
        "s0 AS MATERIALIZED (SELECT lm, node, CAST(1 AS BIGINT) AS sg FROM d0)"
    )
    for r in range(1, rounds + 1):
        ctes.append(
            f"""s{r} AS MATERIALIZED (
              SELECT s.lm, e.v AS node, SUM(s.sg) AS sg
              FROM sym e
              JOIN s{r - 1} s ON s.node = e.u
              JOIN dfin dv ON dv.lm = s.lm AND dv.node = e.v
                          AND dv.dist = {r}
              GROUP BY s.lm, e.v
            )"""
        )
    ctes.append(
        "sig AS MATERIALIZED ("
        + " UNION ALL ".join(f"SELECT * FROM s{r}" for r in range(rounds + 1))
        + ")"
    )
    ctes.append(
        f"""p{rounds} AS MATERIALIZED (
          SELECT lm, node, CAST(1 AS BIGINT) AS pt
          FROM dfin WHERE dist = {rounds}
        )"""
    )
    for r in range(rounds - 1, -1, -1):
        ctes.append(
            f"""p{r} AS MATERIALIZED (
              SELECT d.lm, d.node,
                     CAST(1 + COALESCE(SUM(pw.pt), 0) AS BIGINT) AS pt
              FROM dfin d
              LEFT JOIN sym e ON e.u = d.node
              LEFT JOIN p{r + 1} pw ON pw.lm = d.lm AND pw.node = e.v
              WHERE d.dist = {r}
              GROUP BY d.lm, d.node
            )"""
        )
    ctes.append(
        "pths AS MATERIALIZED ("
        + " UNION ALL ".join(f"SELECT * FROM p{r}" for r in range(rounds + 1))
        + ")"
    )
    return (
        "WITH "
        + ",\n".join(ctes)
        + """
        SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS entity,
               CAST(node // 2 AS BIGINT) AS key,
               CAST(SUM(s.sg * (p.pt - 1)) AS BIGINT) AS stress
        FROM sig s JOIN pths p USING (lm, node)
        GROUP BY node
    """
    )


def _q_bfs_hops(sf_dir: str):
    """Fixed-round BFS hop distances (6 rounds — the bounded-iteration
    contract of the 16-round PageRank / 12-round k-core) from the sampled
    part nodes (p_partkey % 97 == 0) over the sparse quantity-1 co-purchase
    graph. Node ids disambiguate the bipartite sides as 2*partkey /
    2*suppkey+1; isolated seeds are reachable at dist 0. All-integer, so
    the unrolled 6-round SQL twin matches exactly whether or not the
    relaxation converged."""
    from opentapioca_ray.stages.graphops import bfs_hops

    dist = bfs_hops(_copurchase_edges(sf_dir), _part_seeds(sf_dir, 97), rounds=6)
    return dist.map_batches(_node_labeller("dist"), batch_format="pyarrow")


def _q_weighted_paths(sf_dir: str):
    """Fixed-round weighted shortest paths (Bellman-Ford, min-plus): the
    cheapest-cost analogue of `bfs_hops` over the part/supplier
    co-purchase graph, edge weight = the MIN quantity ever shipped for
    that (part, supplier) pair, seeded at p_partkey % 101 == 0, 6
    relaxation rounds. All-integer min-plus algebra, so the unrolled
    6-round SQL twin matches exactly whether or not the relaxation
    converged."""
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_groupby_agg
    from opentapioca_ray.stages.graphops import weighted_hops

    li = _rel(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
    )

    def mk_edges(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "l_partkey" not in batch.column_names:
            return pa.schema(
                [("u", pa.int64()), ("v", pa.int64()), ("w", pa.int64())]
            ).empty_table()
        return pa.table(
            {**_encode_copurchase(batch), "w": batch.column("l_quantity").cast(pa.int64())}
        )

    # distinct weighted edges: min quantity per (part, supplier) pair
    edges = coarse_groupby_agg(
        li.map_batches(mk_edges, batch_format="pyarrow"),
        ["u", "v"],
        {"w": ("w", "min")},
    )
    dist = weighted_hops(edges, _part_seeds(sf_dir, 101), rounds=6)
    return dist.map_batches(_node_labeller("dist"), batch_format="pyarrow")


def _q_cusum_alarms(sf_dir: str):
    """Streaming change-point detection: per-user one-sided CUSUM over
    event values (drift allowance k=60.00, alarm threshold h=200.00, exact
    centi-units). The sequential recursion S_i = max(0, S_{i-1} + x_i - k)
    is computed without recursion via S_i = C_i - min(0, running-min C_j),
    which is also what lets the SQL twin be a plain nested-window query.
    One coarse exchange on user_id."""
    from opentapioca_ray.stages.windows import cusum_stats

    return cusum_stats(
        _rel(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        ),
        drift_c=6000,
        alarm_c=20000,
    )


def _q_ewma_user_value(sf_dir: str):
    """Exponentially-weighted trailing average of event values per user
    (alpha = 1/2, truncated at 16 lags) — EXACT integer arithmetic: the
    truncated weights share denominator 2^16, so each event's EWMA
    numerator sum(c_j << (16 - lag)) is pure int64 and the SQL twin (a
    bounded rn-band self-join with bit-shift weights) matches bit for
    bit. One coarse exchange on user_id; the kernel is 17 segment-masked
    shifted adds, not a per-row loop."""
    from opentapioca_ray.stages.windows import ewma_trailing

    return ewma_trailing(
        _rel(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"],
        ),
        taps=16,
    )


def _q_attribution(sf_dir: str):
    """Last-touch attribution: each purchase credits its value to the
    user's most recent strictly-preceding click/view within 7 days (or
    'none'). One exchange on user_id + a 3-row partial merge; the SQL
    twin is LAST_VALUE IGNORE NULLS over a 1-PRECEDING frame."""
    from opentapioca_ray.stages.funnel import last_touch_attribution

    return last_touch_attribution(
        _rel(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type", "value"],
        )
    )


def _q_seasonality_profile(sf_dir: str):
    """Temporal feature extraction: per (event_type, hour-of-day) count
    and mean value — epoch-hour arithmetic (no timezone), exact int64
    centi-unit sums, one quantized mean."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.windows import _ts_us

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("event_type", pa.string()),
                ("hour", pa.int64()),
                ("c", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        us = _ts_us(batch.column("ts").combine_chunks()).to_numpy(
            zero_copy_only=False
        )
        c = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type").cast(pa.string()),
                "hour": pa.array(((us // 3_600_000_000) % 24).astype(np.int64)),
                "c": pa.array(c),
            }
        )

    stats = partial_multi_sum_count(
        ev.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hour"],
        ["c"],
        alias={"c": "sum_c", "count": "n"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("event_type", pa.string()),
                ("hour", pa.int64()),
                ("n", pa.int64()),
                ("sum_c", pa.int64()),
                ("mean_c_e4", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "hour" not in batch.column_names:
            return schema.empty_table()
        s = batch.column("sum_c").to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type").cast(pa.string()),
                "hour": batch.column("hour").cast(pa.int64()),
                "n": pa.array(n),
                "sum_c": pa.array(s),
                "mean_c_e4": pa.array(
                    np.floor(10000.0 * s / n + 0.5).astype(np.int64)
                ),
            }
        )

    return stats.map_batches(finish, batch_format="pyarrow")


def _q_orphan_rate(sf_dir: str):
    """Referential-integrity audit: fraction of child rows whose foreign
    key has no parent — lineitem->orders and orders->customer — via the
    coarse semi-join (nothing broadcast, orphans = total minus matched).
    Counts exact; the rate is one quantized expression."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.relational import coarse_semi_join

    def count_ds(ds) -> int:
        return ds.count()

    li = _rel(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]).map_batches(
        lambda b: (
            pa.table({"k": b.column("l_orderkey").cast(pa.int64())})
            if b.num_rows and "l_orderkey" in b.column_names
            else pa.schema([("k", pa.int64())]).empty_table()
        ),
        batch_format="pyarrow",
    )
    orders_keys = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    ).map_batches(
        lambda b: (
            pa.table({"k": b.column("o_orderkey").cast(pa.int64())})
            if b.num_rows and "o_orderkey" in b.column_names
            else pa.schema([("k", pa.int64())]).empty_table()
        ),
        batch_format="pyarrow",
    )
    ord_cust = _rel(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    ).map_batches(
        lambda b: (
            pa.table({"k": b.column("o_custkey").cast(pa.int64())})
            if b.num_rows and "o_custkey" in b.column_names
            else pa.schema([("k", pa.int64())]).empty_table()
        ),
        batch_format="pyarrow",
    )
    cust_keys = _rel(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).map_batches(
        lambda b: (
            pa.table({"k": b.column("c_custkey").cast(pa.int64())})
            if b.num_rows and "c_custkey" in b.column_names
            else pa.schema([("k", pa.int64())]).empty_table()
        ),
        batch_format="pyarrow",
    )
    schema = pa.schema([("k", pa.int64())])
    rows = []
    for name, child, parent in (
        ("lineitem_orders", li, orders_keys),
        ("orders_customer", ord_cust, cust_keys),
    ):
        child = child.materialize()
        total = child.count()
        matched = coarse_semi_join(child, "k", parent, schema).count()
        orphans = total - matched
        rate = int(np.floor(1e6 * orphans / total + 0.5)) if total else 0
        rows.append((name, total, orphans, rate))
    return driver_dataset(
        pa.table(
            {
                "relation": pa.array([r[0] for r in rows], pa.string()),
                "n_rows": pa.array([r[1] for r in rows], pa.int64()),
                "n_orphans": pa.array([r[2] for r in rows], pa.int64()),
                "orphan_rate_e6": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )


def _q_clustering_coefficients(sf_dir: str):
    """Per-node local clustering coefficient of the part co-occurrence
    graph (nodes in >= 1 triangle): 2*triangles / (deg*(deg-1)). The
    per-node triangle counts come from the degree-oriented wedge scheme
    with all three corners credited; the degree rides a reduce-side
    lookup; coeff_e6 is one quantized expression."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.sources.files import read_sized
    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.exchange import right_size
    from opentapioca_ray.stages.metablocking import _attach_node_stats
    from opentapioca_ray.stages.triangles import cooccurrence_edges, per_node_triangles

    li = read_sized(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey").materialize()
    tri = per_node_triangles(edges)

    def endpoints(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("u").combine_chunks().cast(pa.int64()),
                        batch.column("v").combine_chunks().cast(pa.int64()),
                    ]
                )
            }
        )

    deg = right_size(
        partial_sum_count(
            edges.map_batches(endpoints, batch_format="pyarrow"),
            "node",
            [],
            alias={"count": "deg"},
        )
        .map_batches(
            lambda b: (
                pa.table(
                    {
                        "node": b.column("node").cast(pa.int64()),
                        "s": b.column("deg").cast(pa.int64()),
                        "d": b.column("deg").cast(pa.int64()),
                    }
                )
                if b.num_rows and "node" in b.column_names
                else pa.schema(
                    [("node", pa.int64()), ("s", pa.int64()), ("d", pa.int64())]
                ).empty_table()
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    attached = _attach_node_stats(
        tri, deg, "node", ["node", "n_triangles"], "degree", "_d2", None
    )

    def finish(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("node", pa.int64()),
                ("n_triangles", pa.int64()),
                ("degree", pa.int64()),
                ("coeff_e6", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return schema.empty_table()
        t = batch.column("n_triangles").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        dg = batch.column("degree").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        coeff = np.floor(
            1e6 * 2.0 * t / (dg.astype(np.float64) * (dg - 1)) + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "node": batch.column("node").cast(pa.int64()),
                "n_triangles": pa.array(t),
                "degree": pa.array(dg),
                "coeff_e6": pa.array(coeff),
            }
        )

    return attached.map_batches(finish, batch_format="pyarrow")


def _q_benford_digits(sf_dir: str):
    """Benford's-law audit of order totals: observed first-digit counts
    vs the log10(1+1/d) expectation with per-digit chi-square
    contributions — the classic fabricated-data screen. Counts reduce
    combiner-first (first digit is a stateless string map); each float is
    one fixed quantized expression, no accumulation."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_sum_count

    orders = _rel(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])

    def digit(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("digit", pa.int64())])
        if batch.num_rows == 0 or "o_totalprice" not in batch.column_names:
            return schema.empty_table()
        # first significant digit via the decimal string of the cent
        # value (exact; no float log tricks)
        c = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        c = np.abs(c)
        d = np.array(
            [int(s[0]) for s in c.astype(str)], dtype=np.int64
        )
        keep = d > 0
        return pa.table({"digit": pa.array(d[keep])})

    counts = partial_sum_count(
        orders.map_batches(digit, batch_format="pyarrow"),
        "digit",
        [],
        alias={"count": "observed"},
    )
    rows = []
    for t in arrow_blocks(counts):
        if t.num_rows and "digit" in t.column_names:
            rows.append(t)
    schema = pa.schema(
        [
            ("digit", pa.int64()),
            ("observed", pa.int64()),
            ("expected_e6", pa.int64()),
            ("cell_chi2_e6", pa.int64()),
        ]
    )
    if not rows:
        return driver_dataset(schema.empty_table())
    t = pa.concat_tables([r.cast(rows[0].schema) for r in rows])
    dig = t.column("digit").to_numpy(zero_copy_only=False).astype(np.int64)
    obs = t.column("observed").to_numpy(zero_copy_only=False).astype(np.int64)
    n = int(obs.sum())
    # identical IEEE op order to the SQL twin
    exp = n * np.log10(1.0 + 1.0 / dig)
    d_o = obs - exp
    cell = 1e6 * d_o * d_o / exp
    return driver_dataset(
        pa.table(
            {
                "digit": pa.array(dig),
                "observed": pa.array(obs),
                "expected_e6": pa.array(
                    np.floor(
                        1e6 * n * np.log10(1.0 + 1.0 / dig) + 0.5
                    ).astype(np.int64)
                ),
                "cell_chi2_e6": pa.array(
                    np.floor(cell + 0.5).astype(np.int64)
                ),
            }
        )
    )


def _q_hyperanf_balls(sf_dir: str):
    """HyperANF neighborhood sketches (Boldi-Rosa-Vigna): per node, a
    256-register HLL of its 3-hop ball over the sparse quantity-1
    co-purchase graph — register-wise max propagation, the
    effective-diameter primitive. Registers are exact integers end to
    end; the 3 rounds unroll in the SQL twin; only the final estimate is
    the one fixed quantized HLL expression."""
    from opentapioca_ray.stages.graphops import hll_ball_sketches

    return hll_ball_sketches(_copurchase_edges(sf_dir), rounds=3)


def _q_window_distinct_users(sf_dir: str):
    """Exact distinct users per tumbling hour — the windowed COUNT
    DISTINCT (window x dedup cross-family cell): window assignment is a
    stateless map; the unique-pair combiner bounds the exchange by
    distinct (window, user) pairs, never raw events."""
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import distinct_count
    from opentapioca_ray.stages.windows import _ts_us

    ev = _rel(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    WINDOW_US = 3_600_000_000

    def win(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        schema = pa.schema(
            [("window_start_us", pa.int64()), ("user_id", pa.int64())]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        us = _ts_us(batch.column("ts").combine_chunks())
        w = pc.multiply(
            pc.divide(us, pa.scalar(WINDOW_US, pa.int64())),
            pa.scalar(WINDOW_US, pa.int64()),
        )
        return pa.table(
            {
                "window_start_us": w,
                "user_id": batch.column("user_id").cast(pa.int64()),
            }
        )

    return distinct_count(
        ev.map_batches(win, batch_format="pyarrow"),
        "window_start_us",
        "user_id",
        alias="n_users",
    )


def _q_kendall_tau(sf_dir: str):
    """Exact Kendall tau-b between lineitem quantity (bounded 1..50 bins)
    and extended price, WITHOUT enumerating the ~10^9 pairs: 2-D
    dominance counts via a y-range exchange, per-partition one-hot
    cumulative sums anchored at y-tie blocks, and an O(n_parts x bins)
    carry-in — the vector generalization of the watermark carry. The
    oracle pays the quadratic inequality-join honestly; this pipeline
    never does."""
    from opentapioca_ray.stages.evaluation import kendall_tau_binned

    import numpy as np
    import pyarrow as pa

    li = _rel(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_extendedprice"]
    )

    def units(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("x", pa.int64()), ("y", pa.int64())])
        if batch.num_rows == 0 or "l_quantity" not in batch.column_names:
            return schema.empty_table()
        y = np.rint(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "x": batch.column("l_quantity").cast(pa.int64()),
                "y": pa.array(y),
            }
        )

    return kendall_tau_binned(
        li.map_batches(units, batch_format="pyarrow"), "x", "y"
    )


def _q_hourly_locf(sf_dir: str):
    """Time-series resampling with gap filling: each user's event value
    resampled onto an hourly grid by last-observation-carried-forward
    (ties at one timestamp resolved by max event_id, pinned on both
    sides). One exchange on the user; each partition sorts its users'
    events once and answers every grid point with one searchsorted —
    values stay exact int64 centi-units."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    HOUR_US = 3_600_000_000

    def to_units(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        schema = pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("t", pa.int64()),
                ("c", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        t = pc.cast(
            pc.cast(batch.column("ts").combine_chunks(), pa.timestamp("us")),
            pa.int64(),
        )
        c = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id").cast(pa.int64()),
                "user_id": batch.column("user_id").cast(pa.int64()),
                "t": t,
                "c": pa.array(c),
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "user_id" not in df.columns:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "h": pd.Series(dtype="datetime64[us]"),
                    "locf_c": pd.Series(dtype=np.int64),
                }
            )
        u = df["user_id"].to_numpy(dtype=np.int64)
        t = df["t"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        rid = df["event_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((rid, t, u))
        u, t, c = u[order], t[order], c[order]
        new = np.concatenate(([True], u[1:] != u[:-1]))
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [len(u)]))
        out_u, out_h, out_c = [], [], []
        for s, e in zip(starts, ends):  # per USER (vector ops inside)
            seg_t, seg_c = t[s:e], c[s:e]
            first_h = (seg_t[0] // HOUR_US) * HOUR_US + HOUR_US
            if first_h > seg_t[-1]:
                continue
            grid = np.arange(first_h, seg_t[-1] + 1, HOUR_US, dtype=np.int64)
            idx = np.searchsorted(seg_t, grid, side="right") - 1
            out_u.append(np.full(len(grid), u[s], dtype=np.int64))
            out_h.append(grid)
            out_c.append(seg_c[idx])
        if not out_u:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "h": pd.Series(dtype="datetime64[us]"),
                    "locf_c": pd.Series(dtype=np.int64),
                }
            )
        return pd.DataFrame(
            {
                "user_id": np.concatenate(out_u),
                "h": np.concatenate(out_h).astype("datetime64[us]"),
                "locf_c": np.concatenate(out_c),
            }
        )

    return coarse_group_apply(
        ev.map_batches(to_units, batch_format="pyarrow"), "user_id", kernel
    )


def _q_token_apportionment(sf_dir: str):
    """Data-mixing quota assignment: apportion a 1M-token training budget
    across sources proportional to their token mass with Hamilton's
    largest-remainder method — floor quotas plus one extra token-block to
    the largest remainders (ties by source name). Every step is integer
    division/modulo on combiner-reduced counts, so the SQL twin matches
    bit-for-bit and the allocations sum to the budget exactly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.aggregates import partial_sum_count

    BUDGET = 1_000_000
    docs = _docs(sf_dir).select_columns(["source", "text"])

    def counts(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("source", pa.string()), ("n", pa.int64())])
        if batch.num_rows == 0 or "text" not in batch.column_names:
            return schema.empty_table()
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source": batch.column("source").cast(pa.string()),
                "n": pa.array((offsets[1:] - offsets[:-1]).astype(np.int64)),
            }
        )

    per_source = partial_sum_count(
        docs.map_batches(counts, batch_format="pyarrow"),
        "source",
        ["n"],
        alias={"n": "n_tokens", "count": "n_docs"},
    )
    rows = []
    for t in arrow_blocks(per_source):
        if t.num_rows and "source" in t.column_names:
            rows.append(t.to_pandas())
    schema = pa.schema(
        [
            ("source", pa.string()),
            ("n_docs", pa.int64()),
            ("n_tokens", pa.int64()),
            ("alloc", pa.int64()),
        ]
    )
    if not rows:
        return driver_dataset(schema.empty_table())
    df = (
        pd.concat(rows)
        .groupby("source", sort=True)
        .agg(n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"))
        .reset_index()
    )
    n = df["n_tokens"].to_numpy(dtype=np.int64)
    total = int(n.sum())
    base = BUDGET * n // total
    rem = BUDGET * n % total
    leftover = BUDGET - int(base.sum())
    order = np.lexsort((df["source"].to_numpy(), -rem))
    bonus = np.zeros(len(df), dtype=np.int64)
    bonus[order[:leftover]] = 1
    return driver_dataset(
        pa.table(
            {
                "source": pa.array(df["source"].to_numpy(), pa.string()),
                "n_docs": pa.array(df["n_docs"].to_numpy(dtype=np.int64)),
                "n_tokens": pa.array(n),
                "alloc": pa.array(base + bonus),
            }
        )
    )


def _q_trailing_window_sum(sf_dir: str):
    """RANGE-frame windowed aggregate (value-based window, not row
    count): per user and event, the sum of that user's event values
    within the trailing hour INCLUDING all timestamp peers — SQL's
    `RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW`. One
    exchange on the user; each partition handles all its users with a
    sorted-segment cumsum + two searchsorted bound lookups, in exact
    int64 centi-units."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply

    ev = _rel(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def to_units(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        schema = pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("t", pa.int64()),
                ("c", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "ts" not in batch.column_names:
            return schema.empty_table()
        t = pc.cast(
            pc.cast(batch.column("ts").combine_chunks(), pa.timestamp("us")),
            pa.int64(),
        )
        c = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id").cast(pa.int64()),
                "user_id": batch.column("user_id").cast(pa.int64()),
                "t": t,
                "c": pa.array(c),
            }
        )

    HOUR_US = 3_600_000_000

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "user_id" not in df.columns:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype=np.int64),
                    "trailing_sum_c": pd.Series(dtype=np.int64),
                }
            )
        u = df["user_id"].to_numpy(dtype=np.int64)
        t = df["t"].to_numpy(dtype=np.int64)
        c = df["c"].to_numpy(dtype=np.int64)
        rid = df["event_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((rid, t, u))
        u, t, c, rid = u[order], t[order], c[order], rid[order]
        new = np.concatenate(([True], u[1:] != u[:-1]))
        starts = np.flatnonzero(new)
        ends = np.concatenate((starts[1:], [len(u)]))
        out = np.empty(len(u), dtype=np.int64)
        for s, e in zip(starts, ends):  # per USER segment (vector ops inside)
            seg_t, seg_c = t[s:e], c[s:e]
            cum = np.concatenate(([0], np.cumsum(seg_c)))
            lo = np.searchsorted(seg_t, seg_t - HOUR_US, side="left")
            hi = np.searchsorted(seg_t, seg_t, side="right")
            out[s:e] = cum[hi] - cum[lo]
        return pd.DataFrame({"event_id": rid, "trailing_sum_c": out})

    return coarse_group_apply(
        ev.map_batches(to_units, batch_format="pyarrow"), "user_id", kernel
    )


def _q_quantile_transform(sf_dir: str):
    """Per-group quantile (percentile-rank) normalization: each event's
    RANK within its type (value ties share the min rank, compared in
    exact micro-units) over the group size — the rank-uniformizing
    feature transform. One exchange; rank and size come from the same
    sorted-segment kernel; prank_e6 is one quantized expression."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "event_type" not in df.columns:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype=np.int64),
                    "prank_e6": pd.Series(dtype=np.int64),
                }
            )
        g = df["event_type"].to_numpy()
        v = np.round(df["value"].to_numpy() * 1e6).astype(np.int64)
        rid = df["event_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((rid, v, g))
        g, v, rid = g[order], v[order], rid[order]
        new_g = np.concatenate(([True], g[1:] != g[:-1]))
        new_v = new_g | np.concatenate(([True], v[1:] != v[:-1]))
        pos = np.arange(len(g), dtype=np.int64)
        gstart = np.maximum.accumulate(np.where(new_g, pos, 0))
        vstart = np.maximum.accumulate(np.where(new_v, pos, 0))
        rnk = vstart - gstart + 1
        starts = np.flatnonzero(new_g)
        seg = np.cumsum(new_g) - 1
        n = np.bincount(seg)[seg]
        prank = np.floor(1e6 * rnk / n + 0.5).astype(np.int64)
        return pd.DataFrame({"event_id": rid, "prank_e6": prank})

    return coarse_group_apply(ev, "event_type", kernel)


def _q_incremental_components(sf_dir: str):
    """Warm-start incremental connected components: instead of
    re-clustering the whole corpus when a delta arrives, close over
    (old label edges ∪ delta-vs-corpus pairs ∪ delta-vs-delta pairs) —
    one (node, old_component) edge per already-clustered node replaces
    the ENTIRE old pair graph, because the label edges have the same
    transitive closure. The output provably equals a full recompute, and
    the oracle IS the full-recompute SQL (dup_components' recursive
    min-label CTE over all pairs)."""
    import pyarrow as pa

    from opentapioca_ray.stages.cc import connected_components
    from opentapioca_ray.stages.dedup import (
        incremental_jaccard_pairs,
        ngram_jaccard_pairs,
    )

    new_docs, old_docs = _split_docs(sf_dir)
    # The OLD corpus state (per-node component labels) is what a previous
    # run hands an incremental pipeline for free — synthesize it by
    # restricting the MEMOIZED full-corpus labels to old nodes (no
    # re-closing of old-old structure; round-3 verdict item 5). The
    # substitution is exact: a label edge (old node → its full-graph
    # representative) never over-merges (both endpoints share a full
    # component) and never under-merges (two directly-paired old nodes
    # share a full component, hence a representative), so
    # closure(label ∪ cross ∪ new-new) = closure(full pair graph) — and
    # the oracle IS the full-recompute SQL. Only the delta work below is
    # the measured incremental compute.
    _full_pairs, full_comp = _ngram_cc(sf_dir)

    def old_label_edges(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return schema.empty_table()
        import pyarrow.compute as pc

        n = batch.column("node").cast(pa.int64())
        keep = pc.not_equal(
            pc.subtract(n, pc.multiply(pc.divide(n, 10), 10)), 0
        )
        return pa.table(
            {
                "u": n,
                "v": batch.column("component").cast(pa.int64()),
            }
        ).filter(keep)

    edge_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])

    def as_edges(cols: tuple):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0 or cols[0] not in batch.column_names:
                return edge_schema.empty_table()
            return pa.table(
                {
                    "u": batch.column(cols[0]).cast(pa.int64()),
                    "v": batch.column(cols[1]).cast(pa.int64()),
                }
            )

        return fn

    label_edges = full_comp.map_batches(
        old_label_edges, batch_format="pyarrow"
    )
    cross = incremental_jaccard_pairs(
        new_docs, old_docs, "doc_id", "text", k=3, threshold=0.5
    ).map_batches(as_edges(("u", "v")), batch_format="pyarrow")
    new_new = ngram_jaccard_pairs(
        new_docs, id_column="doc_id", text_column="text", k=3, threshold=0.5
    ).map_batches(as_edges(("u", "v")), batch_format="pyarrow")

    comp = connected_components(label_edges.union(cross).union(new_new))
    return comp.map_batches(
        lambda b: (
            pa.table(
                {
                    "doc_id": b.column("node").cast(pa.int64()),
                    "component": b.column("component").cast(pa.int64()),
                }
            )
            if b.num_rows and "node" in b.column_names
            else pa.schema(
                [("doc_id", pa.int64()), ("component", pa.int64())]
            ).empty_table()
        ),
        batch_format="pyarrow",
    )


def _q_blocking_modularity(sf_dir: str):
    """Newman modularity of the FIRST-TOKEN blocking assignment measured
    against the near-dup pair graph — does the cheap blocking key
    actually concentrate the true match edges? (Within-cluster edges of
    the CC clustering itself are trivially all edges; the blocking
    assignment is the non-trivial clustering worth scoring.)
    Q = SI/m - SD2/(4m²) needs only THREE integers (m edges, SI
    within-block edges, SD2 = Σ per-block degree-sum²), each reduced
    combiner-first over the memoized graph; q_e6 is one quantized float
    expression."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.functions.textstats import whitespace_token_lists
    from opentapioca_ray.stages.exchange import coarse_groupby_agg, right_size
    from opentapioca_ray.stages.metablocking import _attach_node_stats
    from opentapioca_ray.stages.sketches import _md5_u64

    pairs, _ = _ngram_cc(sf_dir)
    edges = pairs.select_columns(["u", "v"])

    # blocking label per doc: md5(first whitespace token) >> 1 (int64)
    def label_rows(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("node", pa.int64()), ("s", pa.int64()), ("d", pa.int64())]
        )
        if batch.num_rows == 0 or "text" not in batch.column_names:
            return schema.empty_table()
        toks = whitespace_token_lists(batch, "text")
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        nonempty = offsets[1:] > offsets[:-1]
        first = np.full(batch.num_rows, "", dtype=object)
        if nonempty.any():
            first[nonempty] = (
                toks.values.take(pa.array(offsets[:-1][nonempty]))
                .to_numpy(zero_copy_only=False)
            )
        lab = (_md5_u64(first) >> np.uint64(1)).astype(np.int64)
        return pa.table(
            {
                "node": batch.column("doc_id").cast(pa.int64()),
                "s": pa.array(lab),
                "d": pa.array(lab),
            }
        )

    stats = right_size(
        _docs(sf_dir)
        .select_columns(["doc_id", "text"])
        .map_batches(label_rows, batch_format="pyarrow")
        .materialize()
    )
    with_u = _attach_node_stats(edges, stats, "u", ["u", "v"], "cu", "_cu2", None)
    both = _attach_node_stats(
        with_u, stats, "v", ["u", "v", "cu", "_cu2"], "cv", "_cv2", None
    )

    def edge_partial(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("m", pa.int64()), ("si", pa.int64())])
        if batch.num_rows == 0 or "cu" not in batch.column_names:
            return schema.empty_table()
        cu = batch.column("cu").to_numpy(zero_copy_only=False)
        cv = batch.column("cv").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "m": pa.array([len(cu)], pa.int64()),
                "si": pa.array([int((cu == cv).sum())], pa.int64()),
            }
        )

    m = si = 0
    for t in arrow_blocks(both.map_batches(
        edge_partial, batch_format="pyarrow"
    )):
        if t.num_rows and "m" in t.column_names:
            m += int(t.column("m").to_numpy().sum())
            si += int(t.column("si").to_numpy().sum())

    # per-node degree over the symmetrized graph -> per-component degree
    # sums -> SD2 = sum of squares (combiner + O(components) partials)
    def explode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return pa.schema([("node", pa.int64())]).empty_table()
        u = batch.column("u").cast(pa.int64()).combine_chunks()
        v = batch.column("v").cast(pa.int64()).combine_chunks()
        return pa.table({"node": pa.concat_arrays([u, v])})

    deg = coarse_groupby_agg(
        edges.map_batches(explode, batch_format="pyarrow"),
        ["node"],
        {"deg": ("node", "size")},
    ).map_batches(
        lambda b: (
            pa.table(
                {
                    "u": b.column("node").cast(pa.int64()),
                    "v": b.column("deg").cast(pa.int64()),
                }
            )
            if b.num_rows and "node" in b.column_names
            else pa.schema([("u", pa.int64()), ("v", pa.int64())]).empty_table()
        ),
        batch_format="pyarrow",
    )
    # reuse the int-keyed attach: deg rows (u=node, v=deg) gain the
    # component of their node
    deg_c = _attach_node_stats(deg, stats, "u", ["u", "v"], "c", "_c2", None)
    dsum = coarse_groupby_agg(
        deg_c.map_batches(
            lambda b: (
                pa.table(
                    {
                        "c": b.column("c").cast(pa.int64()),
                        "d": b.column("v").cast(pa.int64()),
                    }
                )
                if b.num_rows and "c" in b.column_names
                else pa.schema([("c", pa.int64()), ("d", pa.int64())]).empty_table()
            ),
            batch_format="pyarrow",
        ),
        ["c"],
        {"dsum": ("d", "sum")},
    )
    sd2 = 0
    for t in arrow_blocks(dsum.map_batches(
        lambda b: pa.table(
            {
                "x": pa.array(
                    [
                        int(
                            (
                                b.column("dsum")
                                .to_numpy(zero_copy_only=False)
                                .astype(np.int64)
                                ** 2
                            ).sum()
                        )
                    ]
                    if b.num_rows and "dsum" in b.column_names
                    else [],
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    )):
        if t.num_rows:
            sd2 += int(t.column("x").to_numpy().sum())

    q_e6 = (
        int(
            np.floor(
                1e6 * (float(si) / m - float(sd2) / (4.0 * m * m)) + 0.5
            )
        )
        if m
        else 0
    )
    return driver_dataset(
        pa.table(
            {
                "m": pa.array([m], pa.int64()),
                "within_edges": pa.array([si], pa.int64()),
                "sum_deg_sq": pa.array([sd2], pa.int64()),
                "q_e6": pa.array([q_e6], pa.int64()),
            }
        )
    )


def _q_late_events(sf_dir: str):
    """Streaming watermark accounting: per event type, how many events
    arrive with an event time more than 30 minutes behind the running max
    event time of all prior arrivals — the late-data discard rule of a
    windowed streaming engine, decomposed into a range exchange +
    per-partition prefix max + O(n_parts) carry-in combine. The synthetic
    events table is time-ordered, so arrival order is simulated as a
    deterministic md5 permutation (unique: the id folds into the low 20
    bits), the standard out-of-order-network model."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.sketches import _md5_u64
    from opentapioca_ray.stages.windows import late_event_counts

    ev = _rel(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"]
    )

    def arrival(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("arrival", pa.int64()),
                ("ts", pa.timestamp("us")),
                ("event_type", pa.string()),
            ]
        )
        if batch.num_rows == 0 or "event_id" not in batch.column_names:
            return schema.empty_table()
        ids = (
            batch.column("event_id")
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.uint64)
        )
        o = ((_md5_u64(ids.astype(np.int64)) >> np.uint64(1)) & np.uint64(
            ~np.uint64(0xFFFFF)
        )) | (ids & np.uint64(0xFFFFF))
        return pa.table(
            {
                "arrival": pa.array(o.astype(np.int64)),
                "ts": batch.column("ts").cast(pa.timestamp("us")),
                "event_type": batch.column("event_type").cast(pa.string()),
            }
        )

    out = late_event_counts(
        ev.map_batches(arrival, batch_format="pyarrow"),
        order_column="arrival",
    )
    return out.map_batches(
        lambda b: (
            pa.table(
                {
                    "event_type": b.column("g").cast(pa.string()),
                    "n_late": b.column("n_late").cast(pa.int64()),
                    "n_events": b.column("n_events").cast(pa.int64()),
                }
            )
            if b.num_rows and "g" in b.column_names
            else pa.schema(
                [
                    ("event_type", pa.string()),
                    ("n_late", pa.int64()),
                    ("n_events", pa.int64()),
                ]
            ).empty_table()
        ),
        batch_format="pyarrow",
    )


def _q_cluster_conflicts(sf_dir: str):
    """ER consistency audit: near-dup clusters (the memoized ngram CC)
    whose members disagree on a strong attribute (source) — the
    contradiction that flags a bad merge before survivorship hides it.
    One reduce-side attach exchange (component labels ride the doc-id
    shuffle) + one component roll-up counting members and distinct
    sources vectorized."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from opentapioca_ray.stages.exchange import coarse_group_apply

    _, comp = _ngram_cc(sf_dir)
    docs = _docs(sf_dir).select_columns(["doc_id", "source"])

    union_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("component", pa.int64()),
            ("source", pa.string()),
            ("__is_comp", pa.bool_()),
        ]
    )

    def comp_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "node" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch.column("node").cast(pa.int64()),
                "component": batch.column("component").cast(pa.int64()),
                "source": pa.nulls(n, pa.string()),
                "__is_comp": pa.array(np.ones(n, dtype=bool)),
            }
        ).cast(union_schema)

    def doc_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "doc_id" not in batch.column_names:
            return union_schema.empty_table()
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "component": pa.nulls(n, pa.int64()),
                "source": batch.column("source").cast(pa.string()),
                "__is_comp": pa.array(np.zeros(n, dtype=bool)),
            }
        ).cast(union_schema)

    unioned = comp.map_batches(comp_rows, batch_format="pyarrow").union(
        docs.map_batches(doc_rows, batch_format="pyarrow")
    )

    def attach(t: pa.Table) -> pa.Table:
        schema = pa.schema([("component", pa.int64()), ("source", pa.string())])
        if t.num_rows == 0 or "__is_comp" not in t.column_names:
            return schema.empty_table()
        isc = t.column("__is_comp").to_numpy(zero_copy_only=False).astype(bool)
        comps = t.filter(pa.array(isc))
        if comps.num_rows == 0:
            return schema.empty_table()
        data = t.filter(pa.array(~isc))
        kd = comps.column("doc_id").to_numpy(zero_copy_only=False)
        kc = comps.column("component").to_numpy(zero_copy_only=False)
        o = np.argsort(kd)
        kd, kc = kd[o], kc[o]
        dd = data.column("doc_id").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(kd, dd)
        idx_c = np.clip(idx, 0, len(kd) - 1)
        hit = kd[idx_c] == dd  # only clustered docs carry a component
        keep = data.filter(pa.array(hit))
        return pa.table(
            {
                "component": pa.array(kc[idx_c[hit]].astype(np.int64)),
                "source": keep.column("source").cast(pa.string()),
            }
        )

    attached = coarse_group_apply(
        unioned, "doc_id", attach, batch_format="pyarrow"
    )

    def roll_up(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "component" not in df.columns:
            return pd.DataFrame(
                {
                    "component": pd.Series(dtype=np.int64),
                    "n_docs": pd.Series(dtype=np.int64),
                    "n_sources": pd.Series(dtype=np.int64),
                }
            )
        g = df.groupby("component", sort=False)["source"].agg(["size", "nunique"])
        g = g[g["nunique"] > 1]
        return pd.DataFrame(
            {
                "component": g.index.to_numpy(dtype=np.int64),
                "n_docs": g["size"].to_numpy(dtype=np.int64),
                "n_sources": g["nunique"].to_numpy(dtype=np.int64),
            }
        )

    return coarse_group_apply(attached, "component", roll_up)


def _q_lsh_candidate_quality(sf_dir: str):
    """LSH filter-quality eval: the RAW MinHash band candidates (verify
    threshold 0.0 — every banded pair survives with its exact Jaccard
    attached) bucketed by Jaccard decile. Shows where the band-collision
    false-positive mass sits below the dedup threshold. The candidate set
    depends on the minhash permutations, so it is dumped to scratch
    parquet (the linkage_clusters recipe) and the oracle independently
    recomputes each pair's exact Jaccard + bucket in SQL."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_sum_count
    from opentapioca_ray.stages.dedup import minhash_pairs

    cands = minhash_pairs(_docs(sf_dir), threshold=0.0).materialize()
    _dump_for_oracle(cands.select_columns(["u", "v"]), "lsh_candidates")

    def bucketize(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("bucket", pa.int64())])
        if batch.num_rows == 0 or "jaccard" not in batch.column_names:
            return schema.empty_table()
        j = batch.column("jaccard").to_numpy(zero_copy_only=False)
        b = np.minimum(9, np.floor(j * 10.0)).astype(np.int64)
        return pa.table({"bucket": pa.array(b)})

    return partial_sum_count(
        cands.map_batches(bucketize, batch_format="pyarrow"),
        "bucket",
        [],
        alias={"count": "n_pairs"},
    )


def _q_rank_disagreement(sf_dir: str):
    """Spearman-footrule disagreement between two orderings of the orders
    table (price rank vs recency rank, ties broken by key): exact global
    row_number ranks via sampled-boundary range exchanges; the rank join
    is one groupby-sum (+rn vs -rn), so the whole statistic is pure
    integer arithmetic."""
    from opentapioca_ray.stages.evaluation import footrule_stats

    orders = _rel(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )
    return footrule_stats(orders, "o_orderkey", "o_totalprice", "o_orderdate")


def _q_mad_by_type(sf_dir: str):
    """Robust per-type scale estimate: median absolute deviation around
    the exact type-1 group median, all in int64 centi-units — every
    output column integer, zero float arithmetic anywhere."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import grouped_mad

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def units(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("event_type", pa.string()), ("c", pa.int64())])
        if batch.num_rows == 0 or "value" not in batch.column_names:
            return schema.empty_table()
        c = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {"event_type": batch.column("event_type"), "c": pa.array(c)}
        )

    return grouped_mad(
        ev.map_batches(units, batch_format="pyarrow"), "event_type", "c"
    )


def _q_pmi_bigrams(sf_dir: str):
    """PMI collocations over the documents corpus (bigrams with n >= 5):
    counts and marginals are exact integers via combiner partials and
    string-keyed lookup exchanges; pmi_e6 is one fixed quantized float
    expression."""
    from opentapioca_ray.stages.tfidf import pmi_bigrams

    return pmi_bigrams(_docs(sf_dir), "text", min_count=5)


def _q_winsorized_means(sf_dir: str):
    """Robust per-type value means: clip to the exact type-1 [p05, p95]
    group quantiles in int64 centi-units, then average — clipping and
    summing never leave integers; only the mean is one quantized float
    expression."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import winsorized_group_means

    ev = _rel(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def units(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("event_type", pa.string()), ("c", pa.int64())])
        if batch.num_rows == 0 or "value" not in batch.column_names:
            return schema.empty_table()
        c = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {"event_type": batch.column("event_type"), "c": pa.array(c)}
        )

    return winsorized_group_means(
        ev.map_batches(units, batch_format="pyarrow"), "event_type", "c"
    )


def _q_degree_assortativity(sf_dir: str):
    """Degree assortativity of the quantity-1 co-purchase graph — does a
    high-degree part connect to high-degree suppliers? Sufficient
    statistics are exact int64 sums over the symmetrized edge list; r is
    one quantized float expression."""
    from opentapioca_ray.stages.graphops import degree_assortativity

    return degree_assortativity(_copurchase_edges(sf_dir))


def _q_chi2_cells(sf_dir: str):
    """Chi-square independence audit (event_type x md5 A/B arm): the full
    contingency table with per-cell expected counts and chi-square
    contributions. Counts reduce combiner-first; only the O(types x arms)
    table reaches the driver; each float is ONE fixed quantized
    expression (no float accumulation anywhere), so the SQL twin matches
    bit-for-bit."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count
    from opentapioca_ray.stages.sketches import _md5_u64

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def arm(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("event_type", pa.string()), ("arm", pa.int64())])
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return schema.empty_table()
        ids = batch.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "arm": pa.array((_md5_u64(ids) % np.uint64(2)).astype(np.int64)),
            }
        )

    counts = partial_multi_sum_count(
        ev.map_batches(arm, batch_format="pyarrow"),
        ["event_type", "arm"],
        [],
        alias={"count": "observed"},
    )
    # O(types x arms) rows — the only driver-side table
    parts = list(arrow_blocks(counts))
    parts = [t for t in parts if t.num_rows and "event_type" in t.column_names]
    schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("arm", pa.int64()),
            ("observed", pa.int64()),
            ("e_e6", pa.int64()),
            ("cell_chi2_e6", pa.int64()),
        ]
    )
    if not parts:
        return driver_dataset(schema.empty_table())
    t = pa.concat_tables([p.cast(parts[0].schema) for p in parts])
    et = t.column("event_type").to_numpy(zero_copy_only=False)
    am = t.column("arm").to_numpy(zero_copy_only=False).astype(np.int64)
    o = t.column("observed").to_numpy(zero_copy_only=False).astype(np.int64)
    _, ei = np.unique(et, return_inverse=True)
    _, ai = np.unique(am, return_inverse=True)
    rt = np.bincount(ei, weights=o)[ei].astype(np.int64)
    ct = np.bincount(ai, weights=o)[ai].astype(np.int64)
    n = int(o.sum())
    # identical IEEE op order to the SQL twin (left-assoc mult chains)
    e = 1e6 * rt * ct / n
    d = o - rt.astype(np.float64) * ct / n
    cell = 1e6 * d * d / (rt.astype(np.float64) * ct / n)
    return driver_dataset(
        pa.table(
            {
                "event_type": pa.array(et, pa.string()),
                "arm": pa.array(am),
                "observed": pa.array(o),
                "e_e6": pa.array(np.floor(e + 0.5).astype(np.int64)),
                "cell_chi2_e6": pa.array(np.floor(cell + 0.5).astype(np.int64)),
            }
        )
    )


def _q_score_calibration(sf_dir: str):
    """Calibration readout: equal-width 10-bin histogram of event value
    with per-bin purchase rate (the reliability-diagram table). Global
    min/max are one tiny aggregate; bin assignment and the per-bin rate
    are single fixed quantized float expressions."""
    import numpy as np
    import pyarrow as pa
    import ray

    from opentapioca_ray.stages.aggregates import partial_sum_count

    ev = _rel(f"{sf_dir}/events.parquet", columns=["value", "event_type"])

    mm = ev.map_batches(
        lambda b: pa.table(
            {
                "k": pa.array([0] * (1 if b.num_rows else 0), pa.int64()),
                "mn": pa.array(
                    [float(np.min(b.column("value").to_numpy(zero_copy_only=False)))]
                    if b.num_rows
                    else [],
                    pa.float64(),
                ),
                "mx": pa.array(
                    [float(np.max(b.column("value").to_numpy(zero_copy_only=False)))]
                    if b.num_rows
                    else [],
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    lo, hi = None, None
    for t in arrow_blocks(mm):
        if t.num_rows == 0 or "mn" not in t.column_names:
            continue
        bmn = float(np.min(t.column("mn").to_numpy(zero_copy_only=False)))
        bmx = float(np.max(t.column("mx").to_numpy(zero_copy_only=False)))
        lo = bmn if lo is None else min(lo, bmn)
        hi = bmx if hi is None else max(hi, bmx)

    def binize(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("bin", pa.int64()), ("p", pa.int64())])
        if batch.num_rows == 0 or "value" not in batch.column_names:
            return schema.empty_table()
        v = batch.column("value").to_numpy(zero_copy_only=False)
        # same expression as the SQL twin: LEAST(9, FLOOR((v-lo)*10.0/(hi-lo)))
        b = np.minimum(9, np.floor((v - lo) * 10.0 / (hi - lo))).astype(np.int64)
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bin": pa.array(b),
                "p": pa.array((et == "purchase").astype(np.int64)),
            }
        )

    stats = partial_sum_count(
        ev.map_batches(binize, batch_format="pyarrow"),
        "bin",
        ["p"],
        alias={"p": "n_pos", "count": "n"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("bin", pa.int64()),
                ("n", pa.int64()),
                ("n_pos", pa.int64()),
                ("pos_rate_e6", pa.int64()),
            ]
        )
        if batch.num_rows == 0 or "bin" not in batch.column_names:
            return schema.empty_table()
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        p = batch.column("n_pos").to_numpy(zero_copy_only=False).astype(np.int64)
        rate = np.floor(1e6 * p / n + 0.5).astype(np.int64)
        return pa.table(
            {
                "bin": batch.column("bin").cast(pa.int64()),
                "n": pa.array(n),
                "n_pos": pa.array(p),
                "pos_rate_e6": pa.array(rate),
            }
        )

    return stats.map_batches(finish, batch_format="pyarrow")


def _q_stratified_split(sf_dir: str):
    """Exact-quota stratified train/val/test split (80/10/10 within each
    language): rows ranked by (md5(id), id) inside their stratum, quota
    boundaries at floor(n*frac) — per-stratum proportions exact, not just
    in expectation like the global md5-mod split. One exchange total."""
    from opentapioca_ray.stages.selection import stratified_split_labels

    docs = _rel(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    return stratified_split_labels(docs, "doc_id", "lang")


def _q_ab_value_ttest(sf_dir: str):
    """A/B significance readout: Welch's two-sample t statistic of event
    value (exact int64 centi-units) between the md5-bucket arms. The six
    sufficient statistics are exact integers reduced combiner-first; only
    t_e6 is one fixed quantized float expression, replayed term-for-term
    by the SQL twin."""
    import numpy as np
    import pyarrow as pa

    from opentapioca_ray.stages.evaluation import welch_t_stats
    from opentapioca_ray.stages.sketches import _md5_u64

    ev = _rel(f"{sf_dir}/events.parquet", columns=["user_id", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        schema = pa.schema([("arm", pa.int64()), ("u", pa.int64())])
        if batch.num_rows == 0 or "user_id" not in batch.column_names:
            return schema.empty_table()
        ids = batch.column("user_id").to_numpy(zero_copy_only=False)
        arm = (_md5_u64(ids) % np.uint64(2)).astype(np.int64)
        u = np.rint(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"arm": pa.array(arm), "u": pa.array(u)})

    return welch_t_stats(
        ev.map_batches(prep, batch_format="pyarrow"), "arm", "u"
    )


def _q_split_leakage(sf_dir: str):
    """Train/eval contamination check: near-dup pairs (exact 3-gram
    Jaccard >= 0.5, the memoized pair graph) whose endpoints fall in
    DIFFERENT md5-bucket splits — the leakage a training pipeline must
    catch before eval numbers mean anything. The split label is a
    stateless function of the id, so this adds ZERO shuffles on top of
    the pair pipeline."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from opentapioca_ray.stages.sketches import _md5_u64

    pairs, _ = _ngram_cc(sf_dir)

    def _split_of(ids: np.ndarray) -> np.ndarray:
        b = (_md5_u64(ids) % np.uint64(100)).astype(np.int64)
        return np.where(b < 80, "train", np.where(b < 90, "val", "test"))

    def label(batch: pa.Table) -> pa.Table:
        schema = pa.schema(
            [
                ("u", pa.int64()),
                ("v", pa.int64()),
                ("jaccard", pa.float64()),
                ("split_u", pa.string()),
                ("split_v", pa.string()),
            ]
        )
        if batch.num_rows == 0 or "u" not in batch.column_names:
            return schema.empty_table()
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        su, sv = _split_of(u), _split_of(v)
        keep = su != sv
        t = batch.filter(pa.array(keep))
        return pa.table(
            {
                "u": t.column("u").cast(pa.int64()),
                "v": t.column("v").cast(pa.int64()),
                "jaccard": pc.round(
                    t.column("jaccard").cast(pa.float64()), 6
                ),
                "split_u": pa.array(su[keep], pa.string()),
                "split_v": pa.array(sv[keep], pa.string()),
            }
        )

    return pairs.map_batches(label, batch_format="pyarrow")


def _q_score_auc(sf_dir: str):
    """Threshold-free ranking metric: exact Mann-Whitney ROC AUC (ties at
    half credit) of the event value ranking purchase events. u2 = 2*U is
    exact integer pair arithmetic; only auc_e6 is one fixed quantized
    float expression, identical in the SQL twin."""
    from opentapioca_ray.stages.evaluation import roc_auc

    ev = _rel(f"{sf_dir}/events.parquet", columns=["value", "event_type"])
    return roc_auc(ev, "value", "event_type", "purchase")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "bow_word_counts": _q_bow_word_counts,
        "exact_dedup": _q_exact_dedup,
        "token_stats": _q_token_stats,
        "quality_scores": _q_quality,
        "lang_id": _q_lang_id,
        "fingerprint_dups": _q_fingerprints,
        "tag_mention_counts": _q_tag_mention_counts,
        "design_matrix_stats": _q_design_matrix_stats,
        "nif_micro_f1": _q_nif_micro_f1,
        "graph_edges": _q_graph_edges,
        "pagerank": _q_pagerank,
        "minhash_dedup": _q_minhash_dedup,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "shared_spans": _q_shared_spans,
        "span_coverage": _q_span_coverage,
        "span_removal": _q_span_removal,
        "dsir_weights": _q_dsir_weights,
        "set_sim_join": _q_set_sim_join,
        "fellegi_sunter": _q_fellegi_sunter,
        "fs_clusters": _q_fs_clusters,
        "phonetic_blocks": _q_phonetic_blocks,
        "ann_pq": _q_ann_pq,
        "bpe_merges": _q_bpe_merges,
        "bpe_encode": _q_bpe_encode,
        "label_propagation": _q_label_propagation,
        "cms_counts": _q_cms_counts,
        "grid_neighbors": _q_grid_neighbors,
        "dbscan_clusters": _q_dbscan_clusters,
        "spanning_forest": _q_spanning_forest,
        "kmedoids": _q_kmedoids,
        "rolling_median": _q_rolling_median,
        "transitivity_audit": _q_transitivity_audit,
        "rbo_rankings": _q_rbo_rankings,
        "ndcg_rankings": _q_ndcg_rankings,
        "decayed_engagement": _q_decayed_engagement,
        "corpus_prep": _q_corpus_prep,
        "peak_concurrency": _q_peak_concurrency,
        "hits_scores": _q_hits_scores,
        "covered_time": _q_covered_time,
        "time_to_exceed": _q_time_to_exceed,
        "random_walks": _q_random_walks,
        "coreset_cover": _q_coreset_cover,
        "canopy_blocks": _q_canopy_blocks,
        "join_sample_estimate": _q_join_sample_estimate,
        "ams_f2": _q_ams_f2,
        "blocking_scheme_learn": _q_blocking_scheme_learn,
        "rendezvous_placement": _q_rendezvous_placement,
        "dup_components": _q_dup_components,
        "decontaminate": _q_decontaminate,
        "simhash_dedup": _q_simhash_dedup,
        "embedding_dedup": _q_embedding_dedup,
        "ann_topk": _q_ann_topk,
        "hard_negatives": _q_hard_negatives,
        "bitext_pairs": _q_bitext_pairs,
        "embedding_outliers": _q_embedding_outliers,
        "semdedup": _q_semdedup,
        "silhouette_kmedoids": _q_silhouette_kmedoids,
        "ann_ivf": _q_ann_ivf,
        "embedding_clusters": _q_embedding_clusters,
        "multimodal_meta": _q_multimodal_meta,
        "audio_energy": _q_audio_energy,
        "frame_samples": _q_frame_samples,
        "compact_latest": _q_compact_latest,
        "compact_tombstones": _q_compact_tombstones,
        "jw_part_pairs": _q_jw_part_pairs,
        "monge_elkan": _q_monge_elkan,
        "soft_tfidf": _q_soft_tfidf,
        "pprl_dice": _q_pprl_dice,
        "fs_part_weights": _q_fs_part_weights,
        "top_customers": _q_top_customers,
        "events_by_type": _q_events_by_type,
        "customers_no_big_orders": _q_customers_no_big_orders,
        "props_k_stats": _q_props_k_stats,
        "zscore_by_type": _q_zscore_by_type,
        "dataset_split": _q_dataset_split,
        "event_type_pivot": _q_event_type_pivot,
        "priority_sample": _q_priority_sample,
        "weighted_sample": _q_weighted_sample,
        "customer_big_order_counts": _q_customer_big_order_counts,
        "distinct_users_by_type": _q_distinct_users_by_type,
        "price_quantiles_by_priority": _q_price_quantiles_by_priority,
        "rolling_user_value": _q_rolling_user_value,
        "value_stats_by_type": _q_value_stats_by_type,
        "rollup_revenue": _q_rollup_revenue,
        "approx_distinct_users": _q_approx_distinct_users,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "bm25_scores": _q_bm25_scores,
        "user_event_sequences": _q_user_event_sequences,
        "events_above_p99": _q_events_above_p99,
        "lineitem_orders_join": _q_lineitem_orders_join,
        "triangle_count": _q_triangle_count,
        "ktruss_edges": _q_ktruss_edges,
        "butterfly_count": _q_butterfly_count,
        "redact_props": _q_redact_props,
        "doc_length_quantiles": _q_doc_length_quantiles,
        "revenue_by_nation": _q_revenue_by_nation,
        "window_agg": _q_window_agg,
        "sessions": _q_sessions,
        "asof_clicks": _q_asof_clicks,
        "session_errors": _q_session_errors,
        "linkage_clusters": _q_linkage_clusters,
        "stream_ingest": _q_stream_ingest,
        "files_sha256": _q_files_sha256,
        "vendored_files": _q_vendored_files,
        "sample_lang_quota": _q_sample_lang_quota,
        "top_docs_per_lang": _q_top_docs_per_lang,
        "doc_chunks": _q_doc_chunks,
        "lm_scores": _q_lm_scores,
        "ccnet_buckets": _q_ccnet_buckets,
        "repetition_stats": _q_repetition_stats,
        "funnel": _q_funnel,
        "customers_no_urgent": _q_customers_no_urgent,
        "value_regression": _q_value_regression,
        "hopping_window": _q_hopping_window,
        "packed_sequences": _q_packed_sequences,
        "pricing_summary": _q_pricing_summary,
        "supplier_region_revenue": _q_supplier_region_revenue,
        "cheapest_supplier_per_part": _q_cheapest_supplier_per_part,
        "token_budget_selection": _q_token_budget_selection,
        "source_quality_filter": _q_source_quality_filter,
        "retention_cohorts": _q_retention_cohorts,
        "similarity_join": _q_similarity_join,
        "dup_gram_fraction": _q_dup_gram_fraction,
        "gram_novelty": _q_gram_novelty,
        "customers_all_priorities": _q_customers_all_priorities,
        "top_prop_per_type": _q_top_prop_per_type,
        "inverted_index": _q_inverted_index,
        "ann_recall": _q_ann_recall,
        "degree_distribution": _q_degree_distribution,
        "event_ntile": _q_event_ntile,
        "word_cooccurrence": _q_word_cooccurrence,
        "lang_confusion": _q_lang_confusion,
        "monthly_revenue_ma": _q_monthly_revenue_ma,
        "event_value_delta": _q_event_value_delta,
        "event_value_share": _q_event_value_share,
        "unpivot_token_stats": _q_unpivot_token_stats,
        "event_transitions": _q_event_transitions,
        "interarrival_stats": _q_interarrival_stats,
        "gini_by_nation": _q_gini_by_nation,
        "orders_above_avg": _q_orders_above_avg,
        "type_overlap": _q_type_overlap,
        "user_streaks": _q_user_streaks,
        "bigram_counts": _q_bigram_counts,
        "lexical_diversity": _q_lexical_diversity,
        "event_rank": _q_event_rank,
        "blocking_metrics": _q_blocking_metrics,
        "block_split_plan": _q_block_split_plan,
        "weighted_median_price": _q_weighted_median_price,
        "curriculum_order": _q_curriculum_order,
        "snm_pairs": _q_snm_pairs,
        "progressive_pairs": _q_progressive_pairs,
        "fuzzy_customer_pairs": _q_fuzzy_customer_pairs,
        "dl_supplier_pairs": _q_dl_supplier_pairs,
        "stable_assignment": _q_stable_assignment,
        "wl_refinement": _q_wl_refinement,
        "luby_mis": _q_luby_mis,
        "pivot_clusters": _q_pivot_clusters,
        "pivot_editing_cost": _q_pivot_editing_cost,
        "mmr_selection": _q_mmr_selection,
        "ppr_seeds": _q_ppr_seeds,
        "snapshot_diff": _q_snapshot_diff,
        "heavy_tokens": _q_heavy_tokens,
        "mutual_best_fuzzy": _q_mutual_best_fuzzy,
        "user_state_intervals": _q_user_state_intervals,
        "fd_violations": _q_fd_violations,
        "iqr_outliers": _q_iqr_outliers,
        "profile_orders": _q_profile_orders,
        "ngram_containment": _q_ngram_containment,
        "bcubed_stats": _q_bcubed_stats,
        "component_sizes": _q_component_sizes,
        "k_anonymity": _q_k_anonymity,
        "l_diversity": _q_l_diversity,
        "t_closeness": _q_t_closeness,
        "zipf_slope": _q_zipf_slope,
        "nb_lang_confusion": _q_nb_lang_confusion,
        "vocab_richness": _q_vocab_richness,
        "fd_discovery": _q_fd_discovery,
        "rich_club": _q_rich_club,
        "pareto_users": _q_pareto_users,
        "price_deciles": _q_price_deciles,
        "orders_checksum": _q_orders_checksum,
        "bucket_checksums": _q_bucket_checksums,
        "bloom_semijoin": _q_bloom_semijoin,
        "token_kl_drift": _q_token_kl_drift,
        "zorder_stats": _q_zorder_stats,
        "rrf_fusion": _q_rrf_fusion,
        "embedding_coherence": _q_embedding_coherence,
        "exact_median_narrowing": _q_exact_median_narrowing,
        "time_weighted_value": _q_time_weighted_value,
        "embedding_dim_profile": _q_embedding_dim_profile,
        "path_tree_rollup": _q_path_tree_rollup,
        "basket_rules": _q_basket_rules,
        "three_way_merge": _q_three_way_merge,
        "multipass_pairs": _q_multipass_pairs,
        "incremental_dedup": _q_incremental_dedup,
        "cluster_survivorship": _q_cluster_survivorship,
        "ab_conversion": _q_ab_conversion,
        "first_event_per_day": _q_first_event_per_day,
        "hot_keys": _q_hot_keys,
        "two_hop_candidates": _q_two_hop_candidates,
        "link_prediction": _q_link_prediction,
        "cross_source_pairs": _q_cross_source_pairs,
        "cross_source_links": _q_cross_source_links,
        "sparsify_fuzzy": _q_sparsify_fuzzy,
        "event_user_entropy": _q_event_user_entropy,
        "hll_distinct_users": _q_hll_distinct_users,
        "winnow_pairs": _q_winnow_pairs,
        "metablocking_wnp": _q_metablocking_wnp,
        "metablocking_arcs": _q_metablocking_arcs,
        "order_skyline": _q_order_skyline,
        "clustering_ari": _q_clustering_ari,
        "clustering_nmi": _q_clustering_nmi,
        "kcore_nodes": _q_kcore_nodes,
        "bfs_hops": _q_bfs_hops,
        "landmark_closeness": _q_landmark_closeness,
        "stress_centrality": _q_stress_centrality,
        "weighted_paths": _q_weighted_paths,
        "cusum_alarms": _q_cusum_alarms,
        "ewma_user_value": _q_ewma_user_value,
        "attribution": _q_attribution,
        "score_auc": _q_score_auc,
        "split_leakage": _q_split_leakage,
        "ab_value_ttest": _q_ab_value_ttest,
        "stratified_split": _q_stratified_split,
        "chi2_cells": _q_chi2_cells,
        "score_calibration": _q_score_calibration,
        "winsorized_means": _q_winsorized_means,
        "degree_assortativity": _q_degree_assortativity,
        "mad_by_type": _q_mad_by_type,
        "pmi_bigrams": _q_pmi_bigrams,
        "rank_disagreement": _q_rank_disagreement,
        "lsh_candidate_quality": _q_lsh_candidate_quality,
        "cluster_conflicts": _q_cluster_conflicts,
        "late_events": _q_late_events,
        "blocking_modularity": _q_blocking_modularity,
        "incremental_components": _q_incremental_components,
        "quantile_transform": _q_quantile_transform,
        "trailing_window_sum": _q_trailing_window_sum,
        "token_apportionment": _q_token_apportionment,
        "temperature_mix": _q_temperature_mix,
        "hourly_locf": _q_hourly_locf,
        "kendall_tau": _q_kendall_tau,
        "window_distinct_users": _q_window_distinct_users,
        "hyperanf_balls": _q_hyperanf_balls,
        "benford_digits": _q_benford_digits,
        "clustering_coefficients": _q_clustering_coefficients,
        "seasonality_profile": _q_seasonality_profile,
        "orphan_rate": _q_orphan_rate,
    }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _kcore_sql(k: int = 2, rounds: int = 12, mult: int = 3) -> str:
    """Fixed-round k-core peel unrolled as chained CTEs (same bounded-
    iteration verification recipe as `_pagerank_sql`), over the
    multiplicity-thresholded part-supplier bipartite graph."""
    # MATERIALIZED: each e_r is referenced twice per round, so inlined
    # CTEs would expand the base scan 2^rounds times (the round-1 pagerank
    # fd-limit lesson)
    ctes = [
        f"""e0 AS MATERIALIZED (
          SELECT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
          FROM lineitem GROUP BY 1, 2 HAVING count(*) >= {mult}
        )"""
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""d{r} AS MATERIALIZED (
              SELECT node, count(*) AS c FROM (
                SELECT u AS node FROM e{r - 1}
                UNION ALL SELECT v FROM e{r - 1})
              GROUP BY node
            )"""
        )
        ctes.append(
            f"""e{r} AS MATERIALIZED (
              SELECT e.u, e.v FROM e{r - 1} e
              JOIN d{r} du ON du.node = e.u
              JOIN d{r} dv ON dv.node = e.v
              WHERE du.c >= {k} AND dv.c >= {k}
            )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS entity,
               CAST(node // 2 AS BIGINT) AS key,
               CAST(count(*) AS BIGINT) AS degree
        FROM (SELECT u AS node FROM e{rounds}
              UNION ALL SELECT v FROM e{rounds})
        GROUP BY 1, 2
    """
    )


def _ktruss_sql(k: int = 4, rounds: int = 6, qmin: int = 25) -> str:
    """Fixed-round k-truss peel unrolled as chained MATERIALIZED CTEs
    (the `_kcore_sql` recipe), over the high-quantity part co-occurrence
    graph; ends with one extra support pass so surviving edges carry
    their FINAL-graph support (0 when the round budget ran out before a
    triangle-free edge was peeled)."""
    ctes = [
        f"""e0 AS MATERIALIZED (
          SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,
                 GREATEST(a.l_partkey, b.l_partkey) AS v
          FROM lineitem a JOIN lineitem b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
          WHERE a.l_quantity >= {qmin} AND b.l_quantity >= {qmin}
        )"""
    ]
    for r in range(1, rounds + 2):
        ctes.append(
            f"""t{r} AS MATERIALIZED (
              SELECT e1.u AS a, e1.v AS b, e2.v AS c
              FROM e{r - 1} e1
              JOIN e{r - 1} e2 ON e2.u = e1.u AND e2.v > e1.v
              JOIN e{r - 1} e3 ON e3.u = e1.v AND e3.v = e2.v
            )"""
        )
        ctes.append(
            f"""s{r} AS MATERIALIZED (
              SELECT u, v, count(*) AS sup FROM (
                SELECT a AS u, b AS v FROM t{r}
                UNION ALL SELECT a, c FROM t{r}
                UNION ALL SELECT b, c FROM t{r})
              GROUP BY u, v
            )"""
        )
        if r <= rounds:
            ctes.append(
                f"""e{r} AS MATERIALIZED (
                  SELECT u, v FROM s{r} WHERE sup >= {k - 2}
                )"""
            )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT e.u, e.v, CAST(coalesce(s.sup, 0) AS BIGINT) AS sup
        FROM e{rounds} e
        LEFT JOIN s{rounds + 1} s ON s.u = e.u AND s.v = e.v
    """
    )


def _bfs_sql(rounds: int = 6) -> str:
    """Fixed-round BFS relaxation unrolled as chained CTEs (the same
    bounded-iteration recipe as `_pagerank_sql` / `_kcore_sql`) over the
    quantity-1 co-purchase graph, seeded at p_partkey % 97 == 0."""
    ctes = [
        """sym AS MATERIALIZED (
          SELECT u, v FROM (
            SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
            FROM lineitem WHERE l_quantity = 1)
          UNION ALL
          SELECT v, u FROM (
            SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
            FROM lineitem WHERE l_quantity = 1)
        )""",
        """d0 AS MATERIALIZED (
          SELECT 2 * p_partkey AS node, 0 AS dist
          FROM part WHERE p_partkey % 97 = 0
        )""",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""d{r} AS MATERIALIZED (
              SELECT node, min(dist) AS dist FROM (
                SELECT node, dist FROM d{r - 1}
                UNION ALL
                SELECT e.v AS node, d.dist + 1 AS dist
                FROM sym e JOIN d{r - 1} d ON d.node = e.u)
              GROUP BY node
            )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS entity,
               CAST(node // 2 AS BIGINT) AS key,
               CAST(dist AS BIGINT) AS dist
        FROM d{rounds}
    """
    )


def _sssp_sql(rounds: int = 6) -> str:
    """Fixed-round Bellman-Ford unrolled as chained CTEs (min-plus
    analogue of `_bfs_sql`) over the co-purchase graph with edge weight
    = MIN quantity per (part, supplier) pair, seeded at
    p_partkey % 101 == 0."""
    ctes = [
        """e0 AS MATERIALIZED (
          SELECT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v,
                 MIN(CAST(l_quantity AS BIGINT)) AS w
          FROM lineitem GROUP BY 1, 2
        )""",
        """sym AS MATERIALIZED (
          SELECT u, v, w FROM e0 UNION ALL SELECT v, u, w FROM e0
        )""",
        """d0 AS MATERIALIZED (
          SELECT 2 * p_partkey AS node, 0 AS dist
          FROM part WHERE p_partkey % 101 = 0
        )""",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""d{r} AS MATERIALIZED (
              SELECT node, min(dist) AS dist FROM (
                SELECT node, dist FROM d{r - 1}
                UNION ALL
                SELECT e.v AS node, d.dist + e.w AS dist
                FROM sym e JOIN d{r - 1} d ON d.node = e.u)
              GROUP BY node
            )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT CASE WHEN node % 2 = 0 THEN 'part' ELSE 'supplier' END AS entity,
               CAST(node // 2 AS BIGINT) AS key,
               CAST(dist AS BIGINT) AS dist
        FROM d{rounds}
    """
    )


def _hyperanf_sql(rounds: int = 3) -> str:
    """HyperANF unrolled as chained CTEs: per round, each node's sparse
    HLL registers become the (node, reg) max over self ∪ neighbors —
    identical register conventions to the `hll_distinct_users` twin."""
    ctes = [
        """e0 AS MATERIALIZED (
          SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
          FROM lineitem WHERE l_quantity = 1
        )""",
        """sym AS MATERIALIZED (
          SELECT u, v FROM e0 UNION ALL SELECT v, u FROM e0
        )""",
        """nodes AS MATERIALIZED (
          SELECT DISTINCT u AS node FROM sym
        )""",
        """h AS MATERIALIZED (
          SELECT node,
                 ('0x' || substr(md5(node::VARCHAR), 1, 16))::UBIGINT AS hv
          FROM nodes
        )""",
        """s0 AS MATERIALIZED (
          SELECT node, CAST(hv >> 56 AS BIGINT) AS reg,
                 CASE WHEN (hv & 72057594037927935) = 0 THEN 57
                      ELSE 57 - length(bin(hv & 72057594037927935))
                 END AS rho
          FROM h
        )""",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""s{r} AS MATERIALIZED (
              SELECT node, reg, max(rho) AS rho FROM (
                SELECT e.v AS node, s.reg, s.rho
                FROM sym e JOIN s{r - 1} s ON s.node = e.u
                UNION ALL SELECT node, reg, rho FROM s{r - 1})
              GROUP BY node, reg
            )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f""",
        st AS (
          SELECT node,
                 256 - count(*) AS v,
                 sum(rho) AS sum_rho,
                 sum(1::HUGEINT << (57 - rho))
                   + (256 - count(*)) * (1::HUGEINT << 57) AS t
          FROM s{rounds} GROUP BY node
        ),
        est AS (
          SELECT node, v, sum_rho,
                 CAST(0.7213 AS DOUBLE)
                   / (CAST(1.0 AS DOUBLE)
                      + CAST(1.079 AS DOUBLE) / CAST(256.0 AS DOUBLE))
                   * 65536.0 * 144115188075855872.0
                   / CAST(t AS DOUBLE) AS e
          FROM st
        )
        SELECT CAST(node AS BIGINT) AS node,
               CAST(v AS BIGINT) AS n_registers_zero,
               CAST(sum_rho AS BIGINT) AS sum_rho,
               CAST(floor(CASE WHEN e <= 640.0 AND v > 0
                               THEN 256.0 * ln(256.0 / v)
                               ELSE e END * 100.0 + 0.5)
                    AS BIGINT) AS ball_e2
        FROM est
    """
    )


def _pagerank_sql(iterations: int = 16) -> str:
    """Loss-compensated power iteration unrolled as chained CTEs — the
    iterative A4 semantics (16 iterations, L1 compensation, dangling nodes
    padded into the id space) expressed in pure SQL so DuckDB can verify the
    Ray kernel value-for-value.

    Every CTE is MATERIALIZED: each pr{i} is referenced twice (by c{i+1} and
    pr{i+1}), so DuckDB's default inlining re-expands the chain exponentially
    — re-opening lineitem.parquet per leaf until the fd limit ("Too many open
    files", CORRECTNESS_r01) — while materialization evaluates each level
    exactly once."""
    parts = [
        """WITH edges AS MATERIALIZED (
          SELECT src, dst, cnt / sum_cnt AS weight FROM (
            SELECT l_partkey AS src, l_suppkey::bigint AS dst,
                   count(*)::double AS cnt,
                   sum(count(*)) OVER (PARTITION BY l_partkey) AS sum_cnt
            FROM lineitem GROUP BY 1, 2
          )
        ),
        nn AS MATERIALIZED (
          SELECT greatest(max(src), max(dst)) + 1 AS n FROM edges
        ),
        nodes AS MATERIALIZED (
          SELECT unnest(generate_series(0, (SELECT n - 1 FROM nn))) AS node
        ),
        pr0 AS MATERIALIZED (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes)"""
    ]
    for i in range(1, iterations + 1):
        parts.append(
            f""",
        c{i} AS MATERIALIZED (
          SELECT e.dst AS node, sum(e.weight * p.rank) AS contrib
          FROM edges e JOIN pr{i-1} p ON p.node = e.src GROUP BY e.dst
        ),
        pr{i} AS MATERIALIZED (
          SELECT nd.node,
                 COALESCE(c.contrib, 0)
                 + (1.0 - (SELECT COALESCE(sum(contrib), 0) FROM c{i}))
                   / (SELECT n FROM nn) AS rank
          FROM nodes nd LEFT JOIN c{i} c ON nd.node = c.node
        )"""
        )
    parts.append(
        f"""
        SELECT node, round(rank, 9) AS rank FROM pr{iterations}"""
    )
    return "".join(parts)


def _fs_resp(p: str) -> tuple:
    """(pm, pu) double expressions from params CTE alias `p` + g1..g4 —
    the SQL twin of probabilistic._resp_e9's left-associative product."""
    pm = f"({p}.lam / 1e9)"
    pu = f"((1000000000 - {p}.lam) / 1e9)"
    for i in range(1, 5):
        pm = (
            f"({pm} * ((CASE WHEN g{i} = 1 THEN {p}.m{i} "
            f"ELSE 1000000000 - {p}.m{i} END) / 1e9))"
        )
        pu = (
            f"({pu} * ((CASE WHEN g{i} = 1 THEN {p}.u{i} "
            f"ELSE 1000000000 - {p}.u{i} END) / 1e9))"
        )
    return pm, pu


def _fs_em_ctes(iters: int) -> str:
    """The p0 init + `iters` unrolled EM update CTEs over a `hist` CTE
    with columns (g1..g4, n_pairs) — shared by every FS oracle."""
    sql = """,
        p0 AS (
          SELECT 500000000::BIGINT AS lam,
                 900000000::BIGINT AS m1, 900000000::BIGINT AS m2,
                 900000000::BIGINT AS m3, 900000000::BIGINT AS m4,
                 100000000::BIGINT AS u1, 100000000::BIGINT AS u2,
                 100000000::BIGINT AS u3, 100000000::BIGINT AS u4
        )"""
    for t in range(iters):
        pm, pu = _fs_resp(f"p{t}")
        sql += f""",
        it{t} AS MATERIALIZED (
          SELECT g1, g2, g3, g4, n_pairs,
            CASE WHEN {pm} + {pu} = 0 THEN CAST(0 AS BIGINT)
                 ELSE CAST(floor(({pm} / ({pm} + {pu})) * 1e9) AS BIGINT)
            END AS r
          FROM hist CROSS JOIN p{t}
        ),
        p{t + 1} AS MATERIALIZED (
          SELECT
            CAST(sum(n_pairs * r) // sum(n_pairs) AS BIGINT) AS lam"""
        for i in range(1, 5):
            sql += f""",
            CAST(CAST(sum(CASE WHEN g{i} = 1 THEN n_pairs * r ELSE 0 END)
                      AS HUGEINT) * 1000000000
                 // CAST(sum(n_pairs * r) AS HUGEINT) AS BIGINT) AS m{i},
            CAST(CAST(sum(CASE WHEN g{i} = 1
                          THEN n_pairs * (1000000000 - r) ELSE 0 END)
                      AS HUGEINT) * 1000000000
                 // CAST(sum(n_pairs * (1000000000 - r)) AS HUGEINT)
                 AS BIGINT) AS u{i}"""
        sql += f"""
          FROM it{t}
        )"""
    return sql


_FS_AB_SQL = """
        a AS (
          SELECT p_partkey AS k, p_brand AS blk, p_name AS nm,
                 p_type AS ty, CAST(p_size AS BIGINT) AS sz,
                 CAST(round(p_retailprice * 100, 0) AS BIGINT) AS price_c
          FROM part
        ),
        b AS (
          SELECT k, blk,
            CASE WHEN k % 3 = 0 THEN nm || ' x' ELSE nm END AS nm,
            CASE WHEN k % 7 = 0 THEN 'ALTERED' ELSE ty END AS ty,
            CASE WHEN k % 5 = 0 THEN sz + 1 ELSE sz END AS sz,
            CASE WHEN k % 2 = 0 THEN price_c + 500 ELSE price_c END AS price_c
          FROM a
        )"""

_FS_GAMMA_SQL = """
          CASE WHEN a.nm = b.nm THEN 1 ELSE 0 END AS g1,
          CASE WHEN a.ty = b.ty THEN 1 ELSE 0 END AS g2,
          CASE WHEN abs(a.sz - b.sz) <= 0 THEN 1 ELSE 0 END AS g3,
          CASE WHEN abs(a.price_c - b.price_c) <= 100 THEN 1 ELSE 0 END AS g4"""


def _fs_oracle_sql(iters: int = 5) -> str:
    """Unrolled Fellegi-Sunter EM oracle: the 16-row gamma histogram via a
    blocked SQL join, then `iters` parameter-update CTEs that replay
    stages/probabilistic.fs_em exactly — e9-quantized params (HUGEINT floor
    division), responsibilities as the same left-associative double product
    + floor. Mirrors the repo's fixed-round iterative-oracle recipe."""
    sql = f"""
        WITH {_FS_AB_SQL},
        hist AS MATERIALIZED (
          SELECT {_FS_GAMMA_SQL},
                 CAST(count(*) AS BIGINT) AS n_pairs,
                 CAST(sum(CASE WHEN a.k = b.k THEN 1 ELSE 0 END)
                      AS BIGINT) AS n_same_key
          FROM a JOIN b ON a.blk = b.blk
          GROUP BY 1, 2, 3, 4
        )"""
    sql += _fs_em_ctes(iters)
    pm, pu = _fs_resp(f"p{iters}")
    sql += f"""
        SELECT CAST(g1 AS BIGINT) AS g1, CAST(g2 AS BIGINT) AS g2,
               CAST(g3 AS BIGINT) AS g3, CAST(g4 AS BIGINT) AS g4,
               n_pairs, n_same_key,
               CASE WHEN {pm} + {pu} = 0 THEN CAST(0 AS BIGINT)
                    ELSE CAST(floor(({pm} / ({pm} + {pu})) * 1e9) AS BIGINT)
               END AS posterior_e9
        FROM hist CROSS JOIN p{iters}
    """
    return sql


def _fs_clusters_oracle_sql(iters: int = 5) -> str:
    """End-to-end unsupervised-linkage oracle: per-pair gammas, the same
    unrolled EM as fellegi_sunter, a pattern acceptance set (final
    posterior >= 0.5), accepted non-self pairs as edges, then the
    dup_components recursive min-label closure."""
    pm, pu = _fs_resp(f"p{iters}")
    return f"""
        WITH RECURSIVE {_FS_AB_SQL},
        pairs AS MATERIALIZED (
          SELECT a.k AS ak, b.k AS bk, {_FS_GAMMA_SQL}
          FROM a JOIN b ON a.blk = b.blk
        ),
        hist AS MATERIALIZED (
          SELECT g1, g2, g3, g4, CAST(count(*) AS BIGINT) AS n_pairs
          FROM pairs GROUP BY 1, 2, 3, 4
        ){_fs_em_ctes(iters)},
        acc AS (
          SELECT g1, g2, g3, g4
          FROM hist CROSS JOIN p{iters}
          WHERE CASE WHEN {pm} + {pu} = 0 THEN CAST(0 AS BIGINT)
                     ELSE CAST(floor(({pm} / ({pm} + {pu})) * 1e9) AS BIGINT)
                END >= 500000000
        ),
        e0 AS (
          SELECT DISTINCT least(ak, bk) AS u, greatest(ak, bk) AS v
          FROM pairs JOIN acc USING (g1, g2, g3, g4)
          WHERE ak != bk
        ),
        edges AS (
          SELECT u AS a, v AS b FROM e0
          UNION ALL
          SELECT v AS a, u AS b FROM e0
        ),
        lab(v, l) AS (
          SELECT a, a FROM edges
          UNION
          SELECT e.a, lab.l FROM edges e JOIN lab ON lab.v = e.b
        )
        SELECT CAST(v AS BIGINT) AS k, CAST(min(l) AS BIGINT) AS cluster
        FROM lab GROUP BY v
    """


def oracle_sql() -> dict[str, str]:
    tok_cte = f"""
        tokens AS (
          SELECT doc_id, trim(t.w) AS word
          FROM documents,
               unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
          WHERE trim(t.w) != ''
        )
    """
    lang_scores = f"""
        scores AS (
          SELECT doc_id,
            len(list_intersect(list_distinct(regexp_split_to_array(lower(text), '\\s+')),
                ['the','of','and','to','in','is','that','it','for','was'])) AS s_en,
            len(list_intersect(list_distinct(regexp_split_to_array(lower(text), '\\s+')),
                ['le','la','les','de','des','et','est','une','dans','que'])) AS s_fr,
            len(list_intersect(list_distinct(regexp_split_to_array(lower(text), '\\s+')),
                ['der','die','das','und','ist','nicht','ein','mit','für','von'])) AS s_de,
            len(list_intersect(list_distinct(regexp_split_to_array(lower(text), '\\s+')),
                ['el','los','las','de','y','es','una','en','que','por'])) AS s_es,
            (length(text) - length(replace(replace(replace(replace(replace(replace(replace(replace(replace(replace(text,'的',''),'是',''),'了',''),'在',''),'我',''),'有',''),'和',''),'不',''),'人',''),'这',''))) AS s_zh
          FROM documents
        )
    """
    out = {
        "bow_word_counts": f"""
            WITH {tok_cte}
            SELECT word, count(*) AS count
            FROM (SELECT DISTINCT doc_id, word FROM tokens)
            GROUP BY word HAVING count(*) >= 2
        """,
        "exact_dedup": """
            SELECT md5(text) AS text_hash, min(doc_id) AS keep_id,
                   count(*) AS dup_count
            FROM documents GROUP BY md5(text)
        """,
        "token_stats": r"""
            SELECT doc_id,
              CASE WHEN trim(text) = '' THEN 0
                   ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS ws_tokens,
              len(regexp_extract_all(text, '\w+|[^\w\s]')) AS bpe_tokens
            FROM documents
        """,
        "quality_scores": r"""
            WITH toks AS (
              SELECT doc_id, text,
                CASE WHEN trim(text) = '' THEN []::varchar[]
                     ELSE regexp_split_to_array(trim(text), '\s+') END AS ws
              FROM documents
            )
            SELECT doc_id,
              len(ws) AS n_tokens,
              round(CASE WHEN len(ws) = 0 THEN 0.0 ELSE
                len(list_filter(ws, w -> lower(w) IN (""" + _EN_STOP + r""")))
                  / len(ws)::double END, 6) AS stopword_ratio,
              round(CASE WHEN length(text) = 0 THEN 0.0 ELSE
                len(regexp_extract_all(text, '[^\w\s]')) / length(text)::double END,
                6) AS punct_ratio
            FROM toks
        """,
        "lang_id": f"""
            WITH {lang_scores}
            SELECT doc_id,
              CASE WHEN greatest(s_en, s_fr, s_de, s_es, s_zh) = 0 THEN 'und'
                   WHEN s_en >= greatest(s_fr, s_de, s_es, s_zh) THEN 'en'
                   WHEN s_fr >= greatest(s_de, s_es, s_zh) THEN 'fr'
                   WHEN s_de >= greatest(s_es, s_zh) THEN 'de'
                   WHEN s_es >= s_zh THEN 'es'
                   ELSE 'zh' END AS lang_id
            FROM scores
        """,
        "tag_mention_counts": f"""
            WITH df AS (
              SELECT trim(t.w) AS word, count(DISTINCT doc_id) AS df
              FROM documents,
                   unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
              WHERE trim(t.w) != ''
              GROUP BY 1
            ),
            dict AS (
              SELECT word, 'Q' || row_number() OVER (ORDER BY df DESC, word) AS qid
              FROM (SELECT * FROM df ORDER BY df DESC, word LIMIT 20)
              -- prune rule: short all-lowercase / digit tokens are dropped
              -- (reference tagger.py:79-89)
            ),
            kept_dict AS (
              SELECT word, qid FROM dict
              WHERE NOT (regexp_full_match(word, '(\\w\\w?|[\\d ]{{0,4}})')
                         AND word = lower(word))
            ),
            toks AS (
              SELECT doc_id, t.w AS word
              FROM documents,
                   unnest(string_split(text, ' ')) AS t(w)
            )
            SELECT toks.doc_id AS doc_id, kept_dict.qid AS qid,
                   count(*) AS n_mentions
            FROM toks JOIN kept_dict ON toks.word = kept_dict.word
            GROUP BY 1, 2
        """,
        "design_matrix_stats": f"""
            -- classifier design matrix (nb_steps=0) in closed form: two
            -- candidates per dictionary word (primary id=rn, alt id=100+rn),
            -- rank = 23 + ln(((id %% 7)+1)/1000), nbst = (3*id) %% 11,
            -- nbsi = id %% 5; gold word per doc = max count, tie -> min word
            WITH df AS (
              SELECT trim(t.w) AS word, count(DISTINCT doc_id) AS df
              FROM documents,
                   unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
              WHERE trim(t.w) != ''
              GROUP BY 1
            ),
            dict AS (
              SELECT word, row_number() OVER (ORDER BY df DESC, word) AS i
              FROM (SELECT * FROM df ORDER BY df DESC, word LIMIT 20)
            ),
            kept_dict AS (
              SELECT word, i FROM dict
              WHERE NOT (regexp_full_match(word, '(\\w\\w?|[\\d ]{{0,4}})')
                         AND word = lower(word))
            ),
            toks AS (
              SELECT doc_id, t.w AS word
              FROM documents,
                   unnest(string_split(text, ' ')) AS t(w)
            ),
            counts AS (
              SELECT toks.doc_id AS doc_id, kept_dict.word AS word,
                     kept_dict.i AS i, count(*) AS cnt
              FROM toks JOIN kept_dict ON toks.word = kept_dict.word
              GROUP BY 1, 2, 3
            ),
            gold AS (
              SELECT doc_id, cnt FROM (
                SELECT doc_id, cnt,
                       row_number() OVER (
                         PARTITION BY doc_id ORDER BY cnt DESC, word
                       ) AS rn
                FROM counts
              ) WHERE rn = 1
            ),
            per_word AS (
              SELECT doc_id, cnt,
                floor(1e6 * (23.0 + ln(((i % 7) + 1) / 1000.0)) + 0.5)::BIGINT
                  + floor(1e6 * (23.0 + ln((((100 + i) % 7) + 1) / 1000.0))
                          + 0.5)::BIGINT AS r2_e6,
                (3 * i) % 11 + (3 * (100 + i)) % 11 AS nbst2,
                (i % 5) + ((100 + i) % 5) AS nbsi2
              FROM counts
            ),
            agg AS (
              SELECT doc_id,
                     (2 * sum(cnt))::BIGINT AS n_rows,
                     sum(cnt * r2_e6)::BIGINT AS sum_rank_e6,
                     sum(cnt * nbst2)::BIGINT AS sum_nbst,
                     sum(cnt * nbsi2)::BIGINT AS sum_nbsi
              FROM per_word GROUP BY 1
            )
            SELECT a.doc_id AS doc_id, a.n_rows, g.cnt::BIGINT AS n_pos,
                   a.sum_rank_e6, a.sum_nbst, a.sum_nbsi
            FROM agg a JOIN gold g USING (doc_id)
        """,
        "nif_micro_f1": f"""
            -- the annotate path in closed form: per-word argmax winner of
            -- score = rank + 0.3*nbst - 0.7*nbsi + 0.2 - 20 over the two
            -- candidates, strict > 0 accept; micro P/R/F1 vs the per-doc
            -- gold word (all its occurrences, primary entity)
            WITH df AS (
              SELECT trim(t.w) AS word, count(DISTINCT doc_id) AS df
              FROM documents,
                   unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
              WHERE trim(t.w) != ''
              GROUP BY 1
            ),
            dict AS (
              SELECT word, row_number() OVER (ORDER BY df DESC, word) AS i
              FROM (SELECT * FROM df ORDER BY df DESC, word LIMIT 20)
            ),
            kept_dict AS (
              SELECT word, i FROM dict
              WHERE NOT (regexp_full_match(word, '(\\w\\w?|[\\d ]{{0,4}})')
                         AND word = lower(word))
            ),
            cand AS (
              SELECT word, i, v.id,
                (23.0 + ln(((v.id % 7) + 1) / 1000.0))
                  + 0.3 * ((3 * v.id) % 11) - 0.7 * (v.id % 5) + 0.2 - 20.0
                  AS score
              FROM kept_dict, LATERAL (VALUES (i), (100 + i)) AS v(id)
            ),
            winner AS (
              SELECT word, i, id, score FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY word ORDER BY score DESC
                ) AS rn FROM cand
              ) WHERE rn = 1
            ),
            toks AS (
              SELECT doc_id, t.w AS word
              FROM documents,
                   unnest(string_split(text, ' ')) AS t(w)
            ),
            counts AS (
              SELECT toks.doc_id AS doc_id, kept_dict.word AS word,
                     kept_dict.i AS i, count(*) AS cnt
              FROM toks JOIN kept_dict ON toks.word = kept_dict.word
              GROUP BY 1, 2, 3
            ),
            gold AS (
              SELECT doc_id, word, i, cnt FROM (
                SELECT *, row_number() OVER (
                  PARTITION BY doc_id ORDER BY cnt DESC, word
                ) AS rn FROM counts
              ) WHERE rn = 1
            ),
            sums AS (
              SELECT
                (SELECT coalesce(sum(c.cnt), 0) FROM counts c
                 JOIN winner w ON c.word = w.word
                 WHERE w.score > 0)::BIGINT AS n_pred,
                (SELECT coalesce(sum(cnt), 0) FROM gold)::BIGINT AS n_gold,
                (SELECT coalesce(sum(g.cnt), 0) FROM gold g
                 JOIN winner w ON g.word = w.word
                 WHERE w.score > 0 AND w.id = g.i)::BIGINT AS n_match
            ),
            pr AS (
              SELECT n_pred, n_gold, n_match,
                CASE WHEN n_pred > 0 THEN n_match::DOUBLE / n_pred
                     ELSE 1.0 END AS p,
                CASE WHEN n_gold > 0 THEN n_match::DOUBLE / n_gold
                     ELSE 1.0 END AS r
              FROM sums
            )
            SELECT n_pred, n_gold, n_match,
                   floor(1e6 * p + 0.5)::BIGINT AS precision_e6,
                   floor(1e6 * r + 0.5)::BIGINT AS recall_e6,
                   floor(1e6 * (CASE WHEN p + r > 0
                                     THEN 2 * p * r / (p + r)
                                     ELSE 0.0 END) + 0.5)::BIGINT AS f1_e6
            FROM pr
        """,
        "ngram_jaccard_pairs": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            j AS (
              SELECT u, v,
                len(list_intersect(ga.gs, gb.gs))::double
                  / (len(ga.gs) + len(gb.gs)
                     - len(list_intersect(ga.gs, gb.gs)))::double AS jac
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
            )
            SELECT u, v, round(jac, 6) AS jaccard FROM j WHERE jac >= 0.5
        """,
        "shared_spans": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            pg AS (
              SELECT doc_id, unnest(range(1, len(arr) - 6)) AS p, arr
              FROM toks WHERE len(arr) >= 8
            ),
            g AS (
              SELECT doc_id, CAST(p AS BIGINT) AS p,
                     array_to_string(arr[p : p + 7], ' ') AS gram
              FROM pg
            ),
            kept AS (
              SELECT gram FROM g GROUP BY gram HAVING count(*) <= 64
            ),
            m AS (
              SELECT a.doc_id AS u, b.doc_id AS v, a.p AS pa, b.p AS pb
              FROM g a
              JOIN kept kk ON kk.gram = a.gram
              JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
            ),
            isl AS (
              SELECT u, v, pa, pb, pa - pb AS diag,
                pa - row_number() OVER (
                  PARTITION BY u, v, pa - pb ORDER BY pa) AS grp
              FROM m
            )
            SELECT u, v,
                   CAST(min(pa) - 1 AS BIGINT) AS u_start,
                   CAST(min(pb) - 1 AS BIGINT) AS v_start,
                   CAST(count(*) + 7 AS BIGINT) AS n_tokens
            FROM isl GROUP BY u, v, diag, grp
        """,
        "span_removal": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            pg AS (
              SELECT doc_id, unnest(range(1, len(arr) - 6)) AS p, arr
              FROM toks WHERE len(arr) >= 8
            ),
            g AS (
              SELECT doc_id, CAST(p AS BIGINT) AS p,
                     array_to_string(arr[p : p + 7], ' ') AS gram
              FROM pg
            ),
            kept AS (
              SELECT gram FROM g GROUP BY gram HAVING count(*) <= 64
            ),
            m AS (
              SELECT a.doc_id AS u, b.doc_id AS v, a.p AS pa, b.p AS pb
              FROM g a
              JOIN kept kk ON kk.gram = a.gram
              JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
            ),
            isl AS (
              SELECT u, v, pa, pb, pa - pb AS diag,
                pa - row_number() OVER (
                  PARTITION BY u, v, pa - pb ORDER BY pa) AS grp
              FROM m
            ),
            spans AS (
              SELECT u, v,
                     min(pa) - 1 AS u_start, min(pb) - 1 AS v_start,
                     count(*) + 7 AS n_tokens
              FROM isl GROUP BY u, v, diag, grp
            ),
            iv AS (
              SELECT u AS doc_id, u_start AS s, u_start + n_tokens AS e
              FROM spans
              UNION ALL
              SELECT v, v_start, v_start + n_tokens FROM spans
            ),
            covered AS (
              SELECT DISTINCT doc_id, CAST(t.p AS BIGINT) AS p
              FROM iv, unnest(range(iv.s, iv.e)) AS t(p)
            ),
            tokpos AS (
              SELECT doc_id, CAST(t.p AS BIGINT) AS p, arr
              FROM toks, unnest(range(0, len(arr))) AS t(p)
            ),
            agg AS (
              SELECT tp.doc_id,
                     count(*) FILTER (WHERE c.p IS NOT NULL) AS n_removed,
                     coalesce(string_agg(tp.arr[tp.p + 1], ' '
                       ORDER BY tp.p) FILTER (WHERE c.p IS NULL), '')
                       AS clean_txt
              FROM tokpos tp
              LEFT JOIN covered c
                ON c.doc_id = tp.doc_id AND c.p = tp.p
              GROUP BY tp.doc_id
            )
            SELECT t.doc_id,
                   CAST(len(t.arr) AS BIGINT) AS n_tokens,
                   CAST(coalesce(a.n_removed, 0) AS BIGINT) AS n_removed,
                   md5(coalesce(a.clean_txt,
                       array_to_string(t.arr, ' '))) AS clean_md5
            FROM toks t LEFT JOIN agg a USING (doc_id)
        """,
        "dsir_weights": f"""
            WITH toks AS (
              SELECT doc_id, lang,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            bg AS (
              SELECT doc_id, lang,
                unnest(list_transform(
                  range(1, len(arr)),
                  i -> arr[i] || ' ' || arr[i+1])) AS f
              FROM toks WHERE len(arr) >= 2
            ),
            dfc AS (
              SELECT doc_id, f, count(*) AS c,
                     max(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS is_t
              FROM bg GROUP BY doc_id, f
            ),
            fs AS (
              SELECT f, sum(c) AS s_f,
                     sum(CASE WHEN is_t = 1 THEN c ELSE 0 END) AS t_f
              FROM dfc GROUP BY f
            ),
            tot AS (
              SELECT CAST(sum(s_f) AS DOUBLE) AS s_tot,
                     CAST(sum(t_f) AS DOUBLE) AS t_tot
              FROM fs
            ),
            r AS (
              SELECT f,
                CAST(floor((ln(CAST(t_f AS DOUBLE) / t_tot)
                            - ln(CAST(s_f AS DOUBLE) / s_tot))
                           * 1000000.0 + 0.5) AS BIGINT) AS r_e6
              FROM fs, tot WHERE t_f > 0
            )
            SELECT d.doc_id,
                   CAST(sum(d.c) AS BIGINT) AS n_feats,
                   CAST(sum(d.c * coalesce(r.r_e6, 0)) AS BIGINT) AS weight_e6
            FROM dfc d LEFT JOIN r ON r.f = d.f
            GROUP BY d.doc_id
        """,
        "span_coverage": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            pg AS (
              SELECT doc_id, unnest(range(1, len(arr) - 6)) AS p, arr
              FROM toks WHERE len(arr) >= 8
            ),
            g AS (
              SELECT doc_id, CAST(p AS BIGINT) AS p,
                     array_to_string(arr[p : p + 7], ' ') AS gram
              FROM pg
            ),
            kept AS (
              SELECT gram FROM g GROUP BY gram HAVING count(*) <= 64
            ),
            m AS (
              SELECT a.doc_id AS u, b.doc_id AS v, a.p AS pa, b.p AS pb
              FROM g a
              JOIN kept kk ON kk.gram = a.gram
              JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
            ),
            isl AS (
              SELECT u, v, pa, pb, pa - pb AS diag,
                pa - row_number() OVER (
                  PARTITION BY u, v, pa - pb ORDER BY pa) AS grp
              FROM m
            ),
            spans AS (
              SELECT u, v,
                     min(pa) - 1 AS u_start, min(pb) - 1 AS v_start,
                     count(*) + 7 AS n_tokens
              FROM isl GROUP BY u, v, diag, grp
            ),
            iv AS (
              -- DISTINCT: duplicate (s, e) intervals (one doc sharing the
              -- same span with several partners) make ORDER BY s, e a
              -- NON-total order, and DuckDB's parallel ROWS-frame window
              -- then nondeterministically double-counts tied islands;
              -- interval union is idempotent, so dedup is semantics-free
              SELECT DISTINCT u AS doc_id, u_start AS s,
                              u_start + n_tokens AS e
              FROM spans
              UNION
              SELECT DISTINCT v, v_start, v_start + n_tokens FROM spans
            ),
            w AS (
              SELECT doc_id, s, e,
                CASE WHEN s > coalesce(max(e) OVER (
                    PARTITION BY doc_id ORDER BY s, e
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1)
                THEN 1 ELSE 0 END AS brk
              FROM iv
            ),
            isl2 AS (
              SELECT doc_id, s, e,
                     sum(brk) OVER (
                       PARTITION BY doc_id ORDER BY s, e
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS grp
              FROM w
            ),
            cov AS (
              SELECT doc_id, sum(mx - mn) AS covered FROM (
                SELECT doc_id, grp, max(e) AS mx, min(s) AS mn
                FROM isl2 GROUP BY doc_id, grp
              ) GROUP BY doc_id
            )
            SELECT c.doc_id,
                   CAST(len(t.arr) AS BIGINT) AS n_tokens,
                   CAST(c.covered AS BIGINT) AS covered_tokens,
                   CAST(c.covered * 1000000
                        // greatest(len(t.arr), 1) AS BIGINT)
                     AS dup_fraction_e6
            FROM cov c JOIN toks t USING (doc_id)
        """,
        "set_sim_join": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            j AS (
              SELECT u, v,
                len(list_intersect(ga.gs, gb.gs)) AS inter,
                len(ga.gs) + len(gb.gs)
                  - len(list_intersect(ga.gs, gb.gs)) AS uni
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
            )
            SELECT u, v, CAST(inter * 1000000 // uni AS BIGINT) AS jacc_e6
            FROM j WHERE 2 * inter >= uni
        """,
        "fellegi_sunter": _fs_oracle_sql(),
        "fs_clusters": _fs_clusters_oracle_sql(),
        "bpe_merges": _bpe_oracle_sql(),
        "bpe_encode": _bpe_encode_oracle_sql(),
        "label_propagation": _lpa_oracle_sql(),
        "rendezvous_placement": """
            WITH nodes AS (SELECT unnest(range(0, 8)) AS j),
            w AS (
              SELECT o_orderkey AS k, j,
                ('0x' || substr(md5('n' || CAST(j AS VARCHAR) || ':'
                    || CAST(o_orderkey AS VARCHAR)), 1, 16))::UBIGINT AS wt
              FROM orders CROSS JOIN nodes
            ),
            place AS (
              SELECT k,
                CAST(arg_max(j, wt) AS BIGINT) AS node_before,
                CAST(arg_max(CASE WHEN j = 3 THEN NULL ELSE j END,
                             CASE WHEN j = 3 THEN NULL ELSE wt END)
                     AS BIGINT) AS node_after
              FROM w GROUP BY k
            )
            SELECT n.j AS node,
              CAST(coalesce(b.nb, 0) AS BIGINT) AS n_before,
              CAST(coalesce(a.na, 0) AS BIGINT) AS n_after,
              CAST(coalesce(g.ng, 0) AS BIGINT) AS n_gained
            FROM (SELECT CAST(j AS BIGINT) AS j FROM nodes) n
            LEFT JOIN (SELECT node_before AS j, count(*) AS nb
                       FROM place GROUP BY 1) b ON b.j = n.j
            LEFT JOIN (SELECT node_after AS j, count(*) AS na
                       FROM place GROUP BY 1) a ON a.j = n.j
            LEFT JOIN (SELECT node_after AS j, count(*) AS ng
                       FROM place WHERE node_after != node_before
                       GROUP BY 1) g ON g.j = n.j
        """,
        "hits_scores": _hits_oracle_sql(),
        "random_walks": _walks_oracle_sql(),
        "coreset_cover": _coreset_oracle_sql(),
        "canopy_blocks": _canopy_oracle_sql(),
        "stable_assignment": _stable_assignment_oracle_sql(),
        "wl_refinement": _wl_oracle_sql(),
        "luby_mis": _mis_oracle_sql(),
        "pivot_clusters": _pivot_oracle_sql(),
        "pivot_editing_cost": f"""
            WITH cl AS MATERIALIZED (
              SELECT doc_id, cluster FROM ({_pivot_oracle_sql()})
            ),
            toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            pairs AS (
              SELECT u, v
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
              WHERE len(list_intersect(ga.gs, gb.gs))::double
                    / (len(ga.gs) + len(gb.gs)
                       - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
            ),
            sz AS (SELECT cluster, count(*) AS s FROM cl GROUP BY cluster),
            a1 AS (
              SELECT sum(s) AS n_nodes, count(*) AS n_clusters,
                     sum(s * (s - 1) // 2) AS intra_pairs
              FROM sz
            ),
            e AS (
              SELECT cu.cluster AS cu, cv.cluster AS cv
              FROM pairs p
              JOIN cl cu ON cu.doc_id = p.u
              JOIN cl cv ON cv.doc_id = p.v
            ),
            a2 AS (
              SELECT count(*) FILTER (WHERE cu = cv) AS intra_edges,
                     count(*) FILTER (WHERE cu != cv) AS cross_edges
              FROM e
            )
            SELECT CAST(a1.n_nodes AS BIGINT) AS n_nodes,
                   CAST(a1.n_clusters AS BIGINT) AS n_clusters,
                   CAST(a1.intra_pairs AS BIGINT) AS intra_pairs,
                   CAST(a2.intra_edges AS BIGINT) AS intra_edges,
                   CAST(a1.intra_pairs - a2.intra_edges AS BIGINT)
                     AS missing_intra,
                   CAST(a2.cross_edges AS BIGINT) AS cross_edges,
                   CAST(a1.intra_pairs - a2.intra_edges + a2.cross_edges
                        AS BIGINT) AS editing_cost
            FROM a1, a2
        """,
        "mmr_selection": _mmr_oracle_sql(),
        "ppr_seeds": _ppr_oracle_sql(),
        "blocking_scheme_learn": _bsl_oracle_sql(),
        "ams_f2": """
            WITH signs AS (
              SELECT j,
                CAST(sum(CASE WHEN (('0x' || substr(md5(
                    CAST(l_partkey AS VARCHAR)), 1, 16))::UBIGINT >> j)
                    % 2 = 1
                  THEN 1 ELSE -1 END) AS BIGINT) AS s
              FROM lineitem
              CROSS JOIN (SELECT unnest(range(0, 6)) AS j)
              GROUP BY j
            ),
            ests AS (
              SELECT s * s AS est,
                row_number() OVER (ORDER BY s * s) AS rk
              FROM signs
            ),
            med AS (
              SELECT CAST(((SELECT est FROM ests WHERE rk = 3)
                         + (SELECT est FROM ests WHERE rk = 4)) // 2
                     AS BIGINT) AS median_est,
                     (SELECT CAST(min(est) AS BIGINT) FROM ests) AS mn,
                     (SELECT CAST(max(est) AS BIGINT) FROM ests) AS mx
            ),
            ex AS (
              SELECT CAST(sum(cnt * cnt) AS BIGINT) AS exact_pairs FROM (
                SELECT CAST(count(*) AS BIGINT) AS cnt
                FROM lineitem GROUP BY l_partkey
              )
            )
            SELECT median_est AS median_est_pairs, mn AS min_est,
                   mx AS max_est, exact_pairs
            FROM med CROSS JOIN ex
        """,
        "join_sample_estimate": """
            WITH c AS (
              SELECT l_partkey AS k, CAST(count(*) AS BIGINT) AS cnt,
                CASE WHEN ('0x' || substr(md5(CAST(l_partkey AS VARCHAR)),
                      1, 16))::UBIGINT % 100 < 20 THEN 1 ELSE 0 END AS s
              FROM lineitem GROUP BY l_partkey
            )
            SELECT CAST(sum(s) AS BIGINT) AS n_keys_sampled,
                   CAST(sum(CASE WHEN s = 1 THEN cnt * cnt ELSE 0 END)
                        AS BIGINT) AS sampled_pairs,
                   CAST(sum(CASE WHEN s = 1 THEN cnt * cnt ELSE 0 END)
                        * 100 // 20 AS BIGINT) AS est_pairs,
                   CAST(sum(cnt * cnt) AS BIGINT) AS exact_pairs
            FROM c
        """,
        "time_to_exceed": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS us,
                     CAST(round(value * 10000, 0) AS BIGINT) AS v
              FROM events
            ),
            j AS (
              SELECT a.event_id, a.us AS aus, b.us AS bus,
                row_number() OVER (PARTITION BY a.event_id
                  ORDER BY b.us, b.event_id) AS rn
              FROM e a JOIN e b ON b.user_id = a.user_id
                AND (b.us > a.us
                     OR (b.us = a.us AND b.event_id > a.event_id))
                AND b.v > a.v
            )
            SELECT e.event_id,
                   CAST(coalesce(j.bus - j.aus, -1) AS BIGINT) AS wait_us
            FROM e
            LEFT JOIN (SELECT event_id, aus, bus FROM j WHERE rn = 1) j
              USING (event_id)
        """,
        "covered_time": """
            WITH iv AS (
              -- DISTINCT: keeps ORDER BY s, e total under duplicate
              -- intervals (same hazard as span_coverage's oracle; union
              -- coverage is idempotent so dedup is semantics-free)
              SELECT DISTINCT user_id, epoch_us(ts) AS s,
                     epoch_us(ts)
                       + CAST(round(value * 10000, 0) AS BIGINT) * 100 AS e
              FROM events
            ),
            w AS (
              SELECT user_id, s, e,
                max(e) OVER (PARTITION BY user_id ORDER BY s, e
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                  AS prev_max
              FROM iv
            ),
            isl AS (
              SELECT user_id, s, e,
                sum(CASE WHEN prev_max IS NULL OR s > prev_max
                         THEN 1 ELSE 0 END)
                  OVER (PARTITION BY user_id ORDER BY s, e
                        ROWS UNBOUNDED PRECEDING) AS iid
              FROM w
            ),
            g AS (
              SELECT user_id, iid, min(s) AS st, max(e) AS en
              FROM isl GROUP BY 1, 2
            )
            SELECT user_id, CAST(sum(en - st) AS BIGINT) AS covered,
                   CAST(count(*) AS BIGINT) AS n_islands
            FROM g GROUP BY user_id
        """,
        "peak_concurrency": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS us,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w
                               > 1800000000 THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            s AS (
              SELECT user_id, us,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM e
            ),
            sess AS (
              SELECT min(us) AS start_us, max(us) AS end_us
              FROM s GROUP BY user_id, sid
            ),
            deltas AS (
              SELECT us, CAST(sum(d) AS BIGINT) AS delta FROM (
                SELECT start_us AS us, 1 AS d FROM sess
                UNION ALL
                SELECT end_us + 1 AS us, -1 AS d FROM sess
              ) GROUP BY us
            ),
            runs AS (
              SELECT us, us // 86400000000 AS day,
                     sum(delta) OVER (ORDER BY us
                       ROWS UNBOUNDED PRECEDING) AS run
              FROM deltas
            ),
            day_stats AS (
              SELECT day, CAST(max(run) AS BIGINT) AS maxrun
              FROM runs GROUP BY day
            ),
            days AS (
              SELECT unnest(generate_series(
                (SELECT min(day) FROM runs),
                (SELECT max(day) FROM runs))) AS day
            )
            SELECT CAST(d.day AS BIGINT) AS day,
                   CAST(greatest(
                     coalesce((SELECT r.run FROM runs r
                               WHERE r.us < d.day * 86400000000
                               ORDER BY r.us DESC LIMIT 1), 0),
                     coalesce(ds.maxrun,
                       coalesce((SELECT r.run FROM runs r
                                 WHERE r.us < d.day * 86400000000
                                 ORDER BY r.us DESC LIMIT 1), 0))
                   ) AS BIGINT) AS peak
            FROM days d LEFT JOIN day_stats ds ON ds.day = d.day
        """,
        "kmedoids": _kmedoids_oracle_sql(),
        "corpus_prep": f"""
            WITH keep1 AS (
              SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
            ),
            d1 AS (
              SELECT d.doc_id, d.text
              FROM documents d JOIN keep1 USING (doc_id)
            ),
            toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            bench AS (
              SELECT DISTINCT unnest(gs) AS g FROM grams WHERE doc_id % 97 = 0
            ),
            ex AS (
              SELECT g1.doc_id, unnest(g1.gs) AS g
              FROM grams g1 JOIN keep1 ON keep1.doc_id = g1.doc_id
              WHERE g1.doc_id % 97 <> 0
            ),
            hits AS (
              SELECT doc_id, count(*) AS h
              FROM ex JOIN bench USING (g) GROUP BY doc_id
            ),
            d2 AS (
              SELECT d1.doc_id, d1.text
              FROM d1 LEFT JOIN hits USING (doc_id)
              WHERE d1.doc_id % 97 <> 0 AND coalesce(hits.h, 0) < 8
            ),
            f AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN CAST(0 AS BIGINT)
                     ELSE (len(list_filter(
                             regexp_split_to_array(trim(text), '\\s+'),
                             w -> lower(w) IN ({_EN_STOP})))::BIGINT
                           * 1000000)
                          // len(regexp_split_to_array(trim(text), '\\s+'))
                END AS q_e6,
                len(regexp_extract_all(text, '\\w+|[^\\w\\s]'))::BIGINT
                  AS bpe_tokens
              FROM d2
            )
            SELECT doc_id, q_e6, bpe_tokens
            FROM (
              SELECT *, sum(bpe_tokens)
                          OVER (ORDER BY q_e6 DESC, doc_id
                                ROWS UNBOUNDED PRECEDING) AS run
              FROM f
            )
            WHERE run <= (SELECT sum(bpe_tokens) FROM f) // 4
        """,
        "decayed_engagement": """
            WITH mx AS (SELECT max(epoch_us(ts)) AS t_max FROM events)
            SELECT user_id,
                   CAST(sum(
                     CAST(round(value * 10000, 0) AS BIGINT)
                     >> LEAST((mx.t_max - epoch_us(ts)) // 604800000000, 62)
                   ) AS BIGINT) AS score_e4
            FROM events, mx
            GROUP BY user_id
        """,
        "transitivity_audit": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            ap AS MATERIALIZED (
              SELECT u, v,
                CAST(len(list_intersect(ga.gs, gb.gs)) * 1000000
                  // (len(ga.gs) + len(gb.gs)
                      - len(list_intersect(ga.gs, gb.gs)))
                  AS BIGINT) AS jacc
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
            ),
            ed AS MATERIALIZED (SELECT u, v FROM ap WHERE jacc >= 500000),
            eb AS (
              SELECT u AS p, v AS n FROM ed
              UNION ALL SELECT v AS p, u AS n FROM ed
            ),
            wg AS MATERIALIZED (
              SELECT a.n AS u, b.n AS w, CAST(count(*) AS BIGINT) AS n_wedges
              FROM eb a JOIN eb b ON a.p = b.p AND a.n < b.n
              GROUP BY 1, 2
            )
            SELECT CAST(count(*) AS BIGINT) AS n_wedge_pairs,
                   CAST(coalesce(sum(n_wedges), 0) AS BIGINT) AS n_wedges,
                   CAST(coalesce(sum(CASE WHEN ap.jacc >= 500000
                        THEN n_wedges END), 0) AS BIGINT) AS n_closed,
                   CAST(coalesce(sum(CASE WHEN ap.jacc IS NOT NULL
                        AND ap.jacc < 500000 THEN n_wedges END), 0)
                        AS BIGINT) AS n_violations,
                   CAST(coalesce(sum(CASE WHEN ap.jacc IS NULL
                        THEN n_wedges END), 0) AS BIGINT) AS n_uncompared
            FROM wg LEFT JOIN ap ON ap.u = wg.u AND ap.v = wg.w
        """,
        "rolling_median": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) AS us,
                     CAST(round(value * 10000, 0) AS BIGINT) AS v,
                     row_number() OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS rn
              FROM events
            )
            SELECT event_id,
              CAST(median(v) OVER (PARTITION BY user_id
                ORDER BY us, event_id
                ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT)
                AS med5_e4
            FROM e
            QUALIFY rn >= 5
        """,
        "spanning_forest": """
            WITH RECURSIVE pts AS (
              SELECT vec_id,
                CAST(floor((embedding::DOUBLE[])[1] * 1000000 + 0.5)
                     AS BIGINT) AS x,
                CAST(floor((embedding::DOUBLE[])[2] * 1000000 + 0.5)
                     AS BIGINT) AS y
              FROM embeddings
            ),
            e0 AS MATERIALIZED (
              SELECT a.vec_id AS u, b.vec_id AS v,
                     greatest(abs(a.x - b.x), abs(a.y - b.y)) AS w
              FROM pts a JOIN pts b ON a.vec_id < b.vec_id
               AND abs(a.x - b.x) <= 20000 AND abs(a.y - b.y) <= 20000
            ),
            reach(eu, ev, ew, node) AS (
              SELECT u, v, w, u FROM e0
              UNION
              SELECT r.eu, r.ev, r.ew,
                CASE WHEN f.u = r.node THEN f.v ELSE f.u END
              FROM reach r JOIN e0 f
                ON (f.u = r.node OR f.v = r.node)
               AND (f.w < r.ew
                    OR (f.w = r.ew AND (f.u < r.eu
                        OR (f.u = r.eu AND f.v < r.ev))))
            )
            SELECT e.u, e.v, e.w FROM e0 e
            WHERE NOT EXISTS (
              SELECT 1 FROM reach r
              WHERE r.eu = e.u AND r.ev = e.v AND r.ew = e.w
                AND r.node = e.v)
        """,
        "dbscan_clusters": """
            WITH RECURSIVE pts AS (
              SELECT vec_id,
                CAST(floor((embedding::DOUBLE[])[1] * 1000000 + 0.5)
                     AS BIGINT) AS x,
                CAST(floor((embedding::DOUBLE[])[2] * 1000000 + 0.5)
                     AS BIGINT) AS y
              FROM embeddings
            ),
            nb AS MATERIALIZED (
              SELECT a.vec_id AS u, b.vec_id AS v
              FROM pts a JOIN pts b ON a.vec_id != b.vec_id
               AND abs(a.x - b.x) <= 50000 AND abs(a.y - b.y) <= 50000
            ),
            deg AS (SELECT u AS node, count(*) AS deg FROM nb GROUP BY u),
            cores AS (SELECT node FROM deg WHERE deg >= 4),
            ce AS (
              SELECT u, v FROM nb
              WHERE u IN (SELECT node FROM cores)
                AND v IN (SELECT node FROM cores)
            ),
            lab(v, l) AS (
              SELECT node, node FROM cores
              UNION
              SELECT e.u, lab.l FROM ce e JOIN lab ON lab.v = e.v
            ),
            core_lab AS (
              SELECT v AS node, CAST(min(l) AS BIGINT) AS cluster
              FROM lab GROUP BY v
            ),
            border AS (
              SELECT nb.u AS node, CAST(min(cl.cluster) AS BIGINT) AS cluster
              FROM nb JOIN core_lab cl ON cl.node = nb.v
              WHERE nb.u NOT IN (SELECT node FROM cores)
              GROUP BY nb.u
            )
            SELECT p.vec_id,
              CAST(coalesce(cl.cluster, b.cluster, -1) AS BIGINT) AS cluster,
              CAST(CASE WHEN cl.node IS NOT NULL THEN 0
                        WHEN b.node IS NOT NULL THEN 1
                        ELSE 2 END AS BIGINT) AS role
            FROM pts p
            LEFT JOIN core_lab cl ON cl.node = p.vec_id
            LEFT JOIN border b ON b.node = p.vec_id
        """,
        "grid_neighbors": """
            WITH pts AS (
              SELECT vec_id,
                CAST(floor((embedding::DOUBLE[])[1] * 1000000 + 0.5)
                     AS BIGINT) AS x,
                CAST(floor((embedding::DOUBLE[])[2] * 1000000 + 0.5)
                     AS BIGINT) AS y
              FROM embeddings
            )
            SELECT a.vec_id AS u, b.vec_id AS v,
                   greatest(abs(a.x - b.x), abs(a.y - b.y)) AS linf_e6
            FROM pts a JOIN pts b
              ON a.vec_id < b.vec_id
             AND abs(a.x - b.x) <= 50000
             AND abs(a.y - b.y) <= 50000
        """,
        "cms_counts": """
            WITH ex AS (
              SELECT user_id, CAST(count(*) AS BIGINT) AS exact_n
              FROM events GROUP BY user_id
            ),
            top AS (
              SELECT user_id, exact_n FROM ex
              ORDER BY exact_n DESC, user_id LIMIT 10
            ),
            js AS (SELECT unnest(range(0, 4)) AS j),
            counters AS (
              SELECT j,
                CAST(('0x' || substr(md5(CAST(j AS VARCHAR) || ':'
                        || CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT
                     % 64 AS BIGINT) AS bucket,
                CAST(count(*) AS BIGINT) AS n
              FROM events CROSS JOIN js
              GROUP BY 1, 2
            ),
            est AS (
              SELECT t.user_id, t.exact_n, min(c.n) AS cms_n
              FROM top t
              CROSS JOIN js
              JOIN counters c ON c.j = js.j
                AND c.bucket = CAST(('0x' || substr(md5(CAST(js.j AS VARCHAR)
                      || ':' || CAST(t.user_id AS VARCHAR)), 1, 16))::UBIGINT
                    % 64 AS BIGINT)
              GROUP BY 1, 2
            )
            SELECT user_id, exact_n, cms_n,
                   cms_n - exact_n AS overcount
            FROM est
        """,
        "phonetic_blocks": f"""
            WITH toks AS (
              SELECT DISTINCT trim(t.w) AS word
              FROM documents,
                   unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}')) AS t(w)
              WHERE trim(t.w) != ''
                AND regexp_full_match(trim(t.w), '[A-Za-z]+')
            ),
            s AS (
              SELECT word,
                regexp_split_to_array(
                  translate(upper(word), 'AEIOUYBFPVCGJKQSXZDTLMNR',
                            '000000111122222222334556'), '') AS cl
              FROM toks
            ),
            k AS (
              SELECT word,
                list_filter(cl, (x, i) -> i = 1 OR (x != 'H' AND x != 'W'))
                  AS kept
              FROM s
            ),
            c AS (
              SELECT word,
                list_filter(kept, (x, i) -> i = 1 OR x != kept[i - 1]) AS coll
              FROM k
            ),
            d AS (
              SELECT word,
                substr(upper(word), 1, 1) || rpad(coalesce(array_to_string(
                  list_filter(coll[2:], x -> x != '0')[:3], ''), ''), 3, '0')
                  AS sdx
              FROM c
            )
            SELECT sdx, CAST(count(*) AS BIGINT) AS n_words,
                   min(word) AS min_word, max(word) AS max_word
            FROM d GROUP BY sdx
        """,
        "dup_components": f"""
            WITH RECURSIVE toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            pairs AS (
              SELECT u, v
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
              WHERE len(list_intersect(ga.gs, gb.gs))::double
                    / (len(ga.gs) + len(gb.gs)
                       - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
            ),
            edges AS (
              SELECT u AS a, v AS b FROM pairs
              UNION ALL
              SELECT v AS a, u AS b FROM pairs
            ),
            lab(v, l) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.a, lab.l FROM edges e JOIN lab ON lab.v = e.b
            )
            SELECT CAST(v AS BIGINT) AS doc_id,
                   CAST(min(l) AS BIGINT) AS component
            FROM lab GROUP BY v
        """,
        "decontaminate": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            bench AS (
              SELECT DISTINCT unnest(gs) AS g FROM grams WHERE doc_id % 97 = 0
            ),
            ex AS (
              SELECT doc_id, unnest(gs) AS g FROM grams WHERE doc_id % 97 <> 0
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shared
            FROM ex JOIN bench USING (g)
            GROUP BY doc_id
        """,
        "fingerprint_dups": """
            SELECT min(doc_id) AS keep_id, count(*) AS dup_count
            FROM documents GROUP BY text
        """,
        "minhash_dedup": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(
                      ' ' || substr(text, 1, 10000) || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            pref AS (SELECT doc_id, arr[1:128] AS arr FROM toks),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM pref
            ),
            j AS (
              SELECT a.doc_id AS u, b.doc_id AS v,
                len(list_intersect(a.gs, b.gs))::double
                  / (len(a.gs) + len(b.gs)
                     - len(list_intersect(a.gs, b.gs)))::double AS jac
              FROM grams a JOIN grams b ON a.doc_id < b.doc_id
            )
            SELECT u, v, round(jac, 6) AS jaccard FROM j WHERE jac >= 0.8
        """,
        "simhash_dedup": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(
                      ' ' || substr(text, 1, 10000) || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) = 0 THEN []
                     WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks
            ),
            h AS (
              -- the md5-derived 64-bit gram hash the Ray kernel uses
              -- (big-endian first 8 bytes of md5), bit-for-bit
              SELECT doc_id, ('0x' || substr(md5(g), 1, 16))::UBIGINT AS hv
              FROM (SELECT doc_id, unnest(gs) AS g FROM grams)
            ),
            bits AS (
              SELECT doc_id, i,
                     sum(CASE WHEN (hv >> i) & 1 = 1 THEN 1 ELSE -1 END) AS vote
              FROM h CROSS JOIN (SELECT unnest(range(0, 64)) AS i) s
              GROUP BY doc_id, i
            ),
            sh AS (
              SELECT doc_id,
                     sum(CASE WHEN vote > 0
                         THEN (1::UBIGINT << i) ELSE 0::UBIGINT END)::UBIGINT AS sim
              FROM bits GROUP BY doc_id
            )
            SELECT a.doc_id AS u, b.doc_id AS v,
                   bit_count(xor(a.sim, b.sim))::BIGINT AS hamming
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.sim, b.sim)) <= 3
        """,
        "embedding_dedup": """
            WITH aug AS (
              SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings
              UNION ALL
              SELECT vec_id + 1000000,
                     list_transform(embedding::DOUBLE[], x -> x * 2.0)
              FROM embeddings WHERE vec_id % 10 = 0
            ),
            p AS (
              SELECT a.vec_id AS u, b.vec_id AS v,
                     list_cosine_similarity(a.v, b.v) AS c
              FROM aug a JOIN aug b ON a.vec_id < b.vec_id
            )
            SELECT u, v, round(c, 6) AS cosine FROM p WHERE c >= 0.95
        """,
        "graph_edges": """
            SELECT src, dst, round(cnt / sum_cnt, 6) AS weight FROM (
              SELECT l_partkey AS src, l_suppkey::bigint AS dst,
                     count(*)::double AS cnt,
                     sum(count(*)) OVER (PARTITION BY l_partkey) AS sum_cnt
              FROM lineitem GROUP BY 1, 2
            )
        """,
        "pagerank": _pagerank_sql(16),
        "silhouette_kmedoids": f"""
            WITH assign AS MATERIALIZED (
              SELECT * FROM ({_kmedoids_oracle_sql()})
            ),
            q AS (
              SELECT vec_id,
                {", ".join(
                    f"CAST(floor((embedding::DOUBLE[])[{i + 1}] * 1000000"
                    f" + 0.5) AS BIGINT) AS d{i}"
                    for i in range(4)
                )}
              FROM embeddings
            ),
            med AS (
              SELECT DISTINCT a.medoid AS mid,
                     {", ".join(f"q.d{i}" for i in range(4))}
              FROM assign a JOIN q ON q.vec_id = a.medoid
            ),
            dists AS (
              SELECT q.vec_id, m.mid,
                {" + ".join(f"abs(q.d{i} - m.d{i})" for i in range(4))}
                  AS l1
              FROM q CROSS JOIN med m
            ),
            ab AS (
              SELECT d.vec_id, a.medoid,
                     max(CASE WHEN d.mid = a.medoid THEN d.l1 END) AS a_l1,
                     min(CASE WHEN d.mid != a.medoid THEN d.l1 END) AS b_l1
              FROM dists d JOIN assign a ON a.vec_id = d.vec_id
              GROUP BY d.vec_id, a.medoid
            )
            SELECT vec_id, medoid,
                   CAST(a_l1 AS BIGINT) AS a_l1,
                   CAST(b_l1 AS BIGINT) AS b_l1,
                   CAST(CASE WHEN greatest(a_l1, b_l1) > 0
                        THEN floor((b_l1 - a_l1) * 1000000.0
                                   / greatest(greatest(a_l1, b_l1), 1)
                                   + 0.5)
                        ELSE 0 END AS BIGINT) AS s_e6
            FROM ab
        """,
        "semdedup": f"""
            WITH RECURSIVE aug AS MATERIALIZED (
              SELECT vec_id, embedding FROM embeddings
              UNION ALL
              SELECT vec_id + 1000000,
                     list_transform(embedding, x -> x * 2)
              FROM embeddings WHERE vec_id % 10 = 0
            ),
            assign AS MATERIALIZED (
              SELECT * FROM ({_kmedoids_oracle_sql(source="aug")})
            ),
            ev AS (
              SELECT vec_id, embedding::DOUBLE[] AS v FROM aug
            ),
            p AS (
              SELECT a1.vec_id AS u, a2.vec_id AS w
              FROM assign a1
              JOIN assign a2
                ON a1.medoid = a2.medoid AND a1.vec_id < a2.vec_id
              JOIN ev x ON x.vec_id = a1.vec_id
              JOIN ev y ON y.vec_id = a2.vec_id
              WHERE round(list_cosine_similarity(x.v, y.v), 6) >= 0.99
            ),
            edges AS (
              SELECT u AS a, w AS b FROM p
              UNION ALL SELECT w, u FROM p
            ),
            lab(v, l) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e2.a, lab.l FROM edges e2 JOIN lab ON lab.v = e2.b
            ),
            comp AS (
              SELECT v AS vec_id, min(l) AS rep FROM lab GROUP BY v
            )
            SELECT q0.vec_id,
                   CAST(coalesce(c.rep, q0.vec_id) AS BIGINT) AS rep,
                   CAST(CASE WHEN coalesce(c.rep, q0.vec_id) = q0.vec_id
                        THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM aug q0 LEFT JOIN comp c USING (vec_id)
        """,
        "embedding_outliers": """
            WITH q AS (
              SELECT vec_id, CAST(label AS BIGINT) AS label,
                     list_transform(
                       embedding::DOUBLE[],
                       x -> CAST(floor(x * 10000 + 0.5) AS BIGINT)) AS xq
              FROM embeddings
            ),
            ex AS (
              SELECT vec_id, label,
                     unnest(xq) AS v,
                     unnest(range(1, len(xq) + 1)) AS i
              FROM q
            ),
            s AS (
              SELECT label, i, sum(v) AS sv FROM ex GROUP BY label, i
            ),
            cnt AS (
              SELECT label, count(*) AS n FROM q GROUP BY label
            )
            SELECT e.vec_id, e.label,
                   CAST(c.n AS BIGINT) AS n,
                   CAST(sum((c.n * e.v - s.sv) * (c.n * e.v - s.sv))
                        AS BIGINT) AS dist2_scaled
            FROM ex e
            JOIN s ON s.label = e.label AND s.i = e.i
            JOIN cnt c ON c.label = e.label
            GROUP BY e.vec_id, e.label, c.n
        """,
        "bitext_pairs": """
            WITH e AS (
              SELECT vec_id, label, embedding::DOUBLE[] AS v
              FROM embeddings
            ),
            sims AS (
              SELECT a.vec_id AS anchor_id, b.vec_id AS neg_id,
                     list_cosine_similarity(a.v, b.v) AS cosine
              FROM e a JOIN e b ON a.label != b.label
            ),
            best AS (
              SELECT anchor_id, neg_id, round(cosine, 6) AS cosine
              FROM (
                SELECT anchor_id, neg_id, cosine,
                       row_number() OVER (
                         PARTITION BY anchor_id
                         ORDER BY cosine DESC, neg_id ASC) AS rk
                FROM sims
              ) WHERE rk = 1
            )
            SELECT least(anchor_id, neg_id) AS u,
                   greatest(anchor_id, neg_id) AS v,
                   max(cosine) AS cosine
            FROM best
            GROUP BY 1, 2 HAVING count(*) = 2
        """,
        "hard_negatives": """
            WITH e AS (
              SELECT vec_id, label, embedding::DOUBLE[] AS v
              FROM embeddings
            ),
            sims AS (
              SELECT a.vec_id AS anchor_id, b.vec_id AS neg_id,
                     list_cosine_similarity(a.v, b.v) AS cosine
              FROM e a JOIN e b ON a.label != b.label
            ),
            ranked AS (
              SELECT anchor_id, neg_id, cosine,
                     row_number() OVER (
                       PARTITION BY anchor_id
                       ORDER BY cosine DESC, neg_id ASC) AS rk
              FROM sims
            )
            SELECT anchor_id, neg_id, round(cosine, 6) AS cosine,
                   CAST(rk AS BIGINT) AS rank
            FROM ranked WHERE rk <= 5
        """,
        "ann_topk": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding::DOUBLE[] AS qvec
              FROM embeddings WHERE vec_id < 5
            ),
            sims AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qvec, e.embedding::DOUBLE[]) AS cosine
              FROM q CROSS JOIN embeddings e
            ),
            ranked AS (
              SELECT query_id, vec_id, cosine,
                     row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY cosine DESC, vec_id ASC) AS rn
              FROM sims
            )
            SELECT query_id, vec_id, round(cosine, 6) AS cosine
            FROM ranked WHERE rn <= 10
        """,
        "ann_ivf": """
            WITH cents AS (
              SELECT vec_id AS cid, embedding::DOUBLE[] AS cvec,
                     row_number() OVER (
                       ORDER BY ('0x' || substr(md5(vec_id::VARCHAR), 1, 16))::UBIGINT,
                                vec_id) AS rk
              FROM embeddings
              QUALIFY rk <= 16
            ),
            q AS (
              SELECT vec_id AS query_id, embedding::DOUBLE[] AS qvec
              FROM embeddings WHERE vec_id < 5
            ),
            assign AS (
              SELECT e.vec_id, e.embedding::DOUBLE[] AS vec, c.rk AS bucket
              FROM embeddings e CROSS JOIN cents c
              QUALIFY row_number() OVER (
                PARTITION BY e.vec_id
                ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], c.cvec) DESC,
                         c.rk ASC) = 1
            ),
            probes AS (
              SELECT q.query_id, c.rk AS bucket
              FROM q CROSS JOIN cents c
              QUALIFY row_number() OVER (
                PARTITION BY q.query_id
                ORDER BY list_cosine_similarity(q.qvec, c.cvec) DESC,
                         c.rk ASC) <= 4
            ),
            sims AS (
              SELECT q.query_id, a.vec_id,
                     list_cosine_similarity(q.qvec, a.vec) AS cosine
              FROM q
              JOIN probes p ON p.query_id = q.query_id
              JOIN assign a ON a.bucket = p.bucket
            )
            SELECT query_id, vec_id, round(cosine, 6) AS cosine
            FROM sims
            QUALIFY row_number() OVER (
              PARTITION BY query_id
              ORDER BY cosine DESC, vec_id ASC) <= 10
        """,
        "ann_pq": """
            WITH qz AS (
              SELECT vec_id,
                list_transform(embedding::DOUBLE[],
                  x -> CAST(round(x * 1000000, 0) AS BIGINT)) AS v
              FROM embeddings
            ),
            cb AS (
              SELECT row_number() OVER (
                       ORDER BY ('0x' || substr(md5(vec_id::VARCHAR), 1, 16))::UBIGINT,
                                vec_id) - 1 AS cid, v
              FROM qz
              QUALIFY row_number() OVER (
                ORDER BY ('0x' || substr(md5(vec_id::VARCHAR), 1, 16))::UBIGINT,
                         vec_id) <= 16
            ),
            subs AS (SELECT unnest(range(0, 4)) AS m),
            codes AS (
              SELECT vec_id, m, cid
              FROM (
                SELECT e.vec_id, s.m, c.cid,
                  list_sum(list_transform(range(1, 17),
                    i -> (e.v[s.m * 16 + i] - c.v[s.m * 16 + i])
                         * (e.v[s.m * 16 + i] - c.v[s.m * 16 + i]))) AS d
                FROM qz e CROSS JOIN subs s CROSS JOIN cb c
              )
              QUALIFY row_number() OVER (
                PARTITION BY vec_id, m ORDER BY d, cid) = 1
            ),
            q AS (SELECT vec_id AS query_id, v AS qv FROM qz WHERE vec_id < 5),
            adc AS (
              SELECT q.query_id, c.vec_id,
                CAST(sum(list_sum(list_transform(range(1, 17),
                  i -> (q.qv[c.m * 16 + i] - cb.v[c.m * 16 + i])
                       * (q.qv[c.m * 16 + i] - cb.v[c.m * 16 + i]))))
                  AS BIGINT) AS adc_e12
              FROM codes c JOIN cb ON cb.cid = c.cid CROSS JOIN q
              GROUP BY 1, 2
            )
            SELECT query_id, vec_id, adc_e12
            FROM adc
            QUALIFY row_number() OVER (
              PARTITION BY query_id ORDER BY adc_e12, vec_id) <= 10
        """,
        "revenue_by_nation": """
            SELECT n.n_name,
                   CAST(round(sum(o.o_totalprice) * 10000) AS BIGINT) AS revenue_e4,
                   count(*) AS nb_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "window_agg": """
            SELECT (epoch_us(ts) // 3600000000) * 3600000000 AS window_start_us,
                   event_type,
                   count(*) AS n,
                   CAST(round(sum(value) * 10000) AS BIGINT) AS total_value_e4
            FROM events GROUP BY 1, 2
        """,
        "sessions": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS us, value,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w
                               > 1800000000 THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            s AS (
              SELECT user_id, us, value,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM e
            )
            SELECT user_id, CAST(sid AS BIGINT) AS session_index,
                   min(us) AS start_us, max(us) AS end_us,
                   count(*) AS n_events,
                   CAST(round(sum(value) * 10000) AS BIGINT) AS total_value_e4
            FROM s GROUP BY user_id, sid
        """,
        "session_errors": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS us,
                     CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER w
                               > 1800000000 THEN 1 ELSE 0 END AS new_s
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            s AS (
              SELECT user_id, us,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY us
                       ROWS UNBOUNDED PRECEDING) AS sid
              FROM e
            ),
            sess AS (
              SELECT user_id, min(us) AS start_us, max(us) AS end_us
              FROM s GROUP BY user_id, sid
            )
            SELECT sess.user_id, sess.start_us, sess.end_us,
                   ev.event_id, epoch_us(ev.ts) AS ts_us
            FROM sess JOIN events ev ON ev.user_id = sess.user_id
              AND epoch_us(ev.ts) BETWEEN sess.start_us AND sess.end_us
            WHERE ev.event_type = 'error'
        """,
        "asof_clicks": """
            SELECT e.event_id,
                   epoch_us(e.ts) AS ts_us,
                   epoch_us(c.ts) AS match_ts_us,
                   epoch_us(e.ts) - epoch_us(c.ts) AS lag_us
            FROM (SELECT * FROM events WHERE event_type = 'error') e
            ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
              ON e.user_id = c.user_id AND e.ts >= c.ts
        """,
        "multimodal_meta": """
            SELECT doc_id AS media_id,
                   'image' AS kind,
                   octet_length(encode(text)) AS n_bytes,
                   octet_length(encode(text)) % 640 + 1 AS width,
                   (octet_length(encode(text)) // 640) % 480 + 1 AS height,
                   sha256(text) AS payload_sha256
            FROM documents WHERE doc_id % 3 = 0
        """,
        "compact_latest": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     row_number() OVER (
                       PARTITION BY o_custkey ORDER BY o_orderkey DESC) AS rn
              FROM orders
            ) WHERE rn = 1
        """,
        "fs_part_weights": """
            WITH pairs AS (
              SELECT (jaro_winkler_similarity(a.p_name, b.p_name) >= 0.9) AS is_match,
                     (a.p_type = b.p_type) AS ag_type,
                     (a.p_size = b.p_size) AS ag_size,
                     (abs(a.p_retailprice - b.p_retailprice) < 10.0) AS ag_price
              FROM part a JOIN part b
                ON a.p_brand = b.p_brand
               AND b.p_partkey > a.p_partkey
               AND b.p_partkey <= a.p_partkey + 25
            ),
            melt AS (
              SELECT 'ag_type' AS field, is_match, ag_type AS agree FROM pairs
              UNION ALL
              SELECT 'ag_size', is_match, ag_size FROM pairs
              UNION ALL
              SELECT 'ag_price', is_match, ag_price FROM pairs
            ),
            stats AS (
              SELECT field,
                     CAST(sum(CASE WHEN is_match AND agree THEN 1 ELSE 0 END) AS DOUBLE)
                       / NULLIF(sum(CASE WHEN is_match THEN 1 ELSE 0 END), 0) AS m,
                     CAST(sum(CASE WHEN NOT is_match AND agree THEN 1 ELSE 0 END) AS DOUBLE)
                       / NULLIF(sum(CASE WHEN NOT is_match THEN 1 ELSE 0 END), 0) AS u
              FROM melt GROUP BY field
            )
            SELECT field, round(m, 6) AS m, round(u, 6) AS u,
                   CASE WHEN m > 0 AND u > 0
                        THEN round(log2(m / u), 6) END AS w_agree,
                   CASE WHEN m < 1 AND u < 1
                        THEN round(log2((1 - m) / (1 - u)), 6) END AS w_disagree
            FROM stats
        """,
        "monge_elkan": """
            WITH pairs AS (
              SELECT a.p_partkey AS u, b.p_partkey AS v,
                     a.p_name || ' ' || a.p_type AS na,
                     b.p_name || ' ' || b.p_type AS nb
              FROM part a JOIN part b
                ON a.p_brand = b.p_brand
               AND b.p_partkey > a.p_partkey
               AND b.p_partkey <= a.p_partkey + 50
            ),
            tu AS (
              SELECT DISTINCT u, v, tok FROM (
                SELECT u, v, unnest(string_split(na, ' ')) AS tok FROM pairs
              ) WHERE tok != ''
            ),
            tv AS (
              SELECT DISTINCT u, v, tok FROM (
                SELECT u, v, unnest(string_split(nb, ' ')) AS tok FROM pairs
              ) WHERE tok != ''
            ),
            mu AS (
              SELECT tu.u, tu.v,
                     CAST(floor(max(jaro_winkler_similarity(tu.tok, tv.tok))
                                * 1000000 + 0.5) AS BIGINT) AS mx
              FROM tu JOIN tv ON tu.u = tv.u AND tu.v = tv.v
              GROUP BY tu.u, tu.v, tu.tok
            ),
            mv AS (
              SELECT tv.u, tv.v,
                     CAST(floor(max(jaro_winkler_similarity(tv.tok, tu.tok))
                                * 1000000 + 0.5) AS BIGINT) AS mx
              FROM tv JOIN tu ON tu.u = tv.u AND tu.v = tv.v
              GROUP BY tv.u, tv.v, tv.tok
            ),
            su AS (SELECT u, v, SUM(mx) AS s, COUNT(*) AS n
                   FROM mu GROUP BY u, v),
            sv AS (SELECT u, v, SUM(mx) AS s, COUNT(*) AS n
                   FROM mv GROUP BY u, v)
            SELECT su.u, su.v,
                   CAST(su.s // su.n AS BIGINT) AS me_uv_u,
                   CAST(sv.s // sv.n AS BIGINT) AS me_vu_u,
                   CAST((su.s // su.n + sv.s // sv.n) // 2 AS BIGINT) AS me_u
            FROM su JOIN sv ON su.u = sv.u AND su.v = sv.v
        """,
        "soft_tfidf": """
            WITH nm AS (
              SELECT p_partkey AS id, p_name || ' ' || p_type AS nm, p_brand
              FROM part
            ),
            tok AS MATERIALIZED (
              SELECT DISTINCT id, tok FROM (
                SELECT id, unnest(string_split(nm, ' ')) AS tok FROM nm
              ) WHERE tok != ''
            ),
            idf AS MATERIALIZED (
              SELECT tok,
                     CAST(floor(ln(CAST((SELECT count(*) FROM part) AS DOUBLE)
                                   / CAST(count(*) AS DOUBLE)) * 1000.0 + 0.5)
                          AS BIGINT) AS w
              FROM tok GROUP BY tok
            ),
            norm2 AS MATERIALIZED (
              SELECT id, SUM(w * w) AS n2
              FROM tok JOIN idf USING (tok) GROUP BY id
            ),
            pairs AS MATERIALIZED (
              SELECT a.id AS u, b.id AS v
              FROM nm a JOIN nm b
                ON a.p_brand = b.p_brand
               AND b.id > a.id AND b.id <= a.id + 50
            ),
            jq AS MATERIALIZED (
              SELECT p.u, p.v, ta.tok AS ta, tb.tok AS tb,
                     CAST(floor(jaro_winkler_similarity(ta.tok, tb.tok)
                                * 1000000 + 0.5) AS BIGINT) AS q
              FROM pairs p
              JOIN tok ta ON ta.id = p.u
              JOIN tok tb ON tb.id = p.v
            ),
            best AS (
              SELECT u, v, ta, max(q) AS qm FROM jq GROUP BY u, v, ta
            ),
            star AS (
              SELECT b.u, b.v, b.ta, b.qm, min(j.tb) AS tb
              FROM best b
              JOIN jq j ON j.u = b.u AND j.v = b.v AND j.ta = b.ta
                        AND j.q = b.qm
              GROUP BY b.u, b.v, b.ta, b.qm
            ),
            contrib AS (
              SELECT s.u, s.v, SUM(ia.w * ib.w * s.qm) AS num
              FROM star s
              JOIN idf ia ON ia.tok = s.ta
              JOIN idf ib ON ib.tok = s.tb
              WHERE s.qm > 900000
              GROUP BY s.u, s.v
            )
            SELECT p.u, p.v,
                   CASE WHEN c.num IS NULL OR nu.n2 <= 0 OR nv.n2 <= 0 THEN 0
                        ELSE CAST(floor(CAST(c.num AS DOUBLE)
                               / (sqrt(CAST(nu.n2 AS DOUBLE))
                                  * sqrt(CAST(nv.n2 AS DOUBLE))) + 0.5)
                             AS BIGINT)
                   END AS soft_uv_e6
            FROM pairs p
            JOIN norm2 nu ON nu.id = p.u
            JOIN norm2 nv ON nv.id = p.v
            LEFT JOIN contrib c ON c.u = p.u AND c.v = p.v
        """,
        "pprl_dice": """
            WITH nm AS (
              SELECT p_partkey AS id, p_name || ' ' || p_type AS nm, p_brand
              FROM part
            ),
            bg AS (
              SELECT DISTINCT id, g FROM (
                SELECT id, substr(nm, CAST(t.i AS INTEGER), 2) AS g
                FROM nm, unnest(range(1, length(nm))) AS t(i)
              )
            ),
            pos AS MATERIALIZED (
              SELECT DISTINCT id, p FROM (
                SELECT id,
                       CAST(('0x' || substr(md5(g), 1, 16))::UBIGINT % 256
                            AS BIGINT) AS p
                FROM bg
                UNION ALL
                SELECT id,
                       CAST(('0x' || substr(md5(g), 17, 16))::UBIGINT % 256
                            AS BIGINT) AS p
                FROM bg
              )
            ),
            sz AS (SELECT id, count(*) AS s FROM pos GROUP BY id),
            pairs AS MATERIALIZED (
              SELECT a.id AS u, b.id AS v
              FROM nm a JOIN nm b
                ON a.p_brand = b.p_brand
               AND b.id > a.id AND b.id <= a.id + 50
            ),
            inter AS (
              SELECT p.u, p.v, count(*) AS i
              FROM pairs p
              JOIN pos a ON a.id = p.u
              JOIN pos b ON b.id = p.v AND b.p = a.p
              GROUP BY p.u, p.v
            )
            SELECT p.u, p.v,
                   CASE WHEN su.s + sv.s = 0 THEN 0
                        ELSE CAST((2 * COALESCE(i.i, 0) * 1000000)
                                  // (su.s + sv.s) AS BIGINT)
                   END AS dice_e6
            FROM pairs p
            JOIN sz su ON su.id = p.u
            JOIN sz sv ON sv.id = p.v
            LEFT JOIN inter i ON i.u = p.u AND i.v = p.v
        """,
        "jw_part_pairs": """
            SELECT a.p_partkey AS u, b.p_partkey AS v,
                   round(jaro_winkler_similarity(a.p_name, b.p_name), 6) AS jw
            FROM part a JOIN part b
              ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
            WHERE jaro_winkler_similarity(a.p_name, b.p_name) >= 0.9
        """,
        "compact_tombstones": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM (
              SELECT o_custkey, o_orderkey, o_totalprice,
                     (o_orderkey % 7 = 0) AS dead,
                     row_number() OVER (
                       PARTITION BY o_custkey ORDER BY o_orderkey DESC) AS rn
              FROM orders
            ) WHERE rn = 1 AND NOT dead
        """,
        "top_customers": """
            SELECT o_custkey, round(sum(o_totalprice), 4) AS revenue,
                   count(*) AS nb_orders
            FROM orders GROUP BY o_custkey
            ORDER BY revenue DESC, o_custkey LIMIT 10
        """,
        "distinct_users_by_type": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type
        """,
        "price_quantiles_by_priority": """
            WITH q AS (
              SELECT o_orderpriority,
                     quantile_disc(o_totalprice, [0.25, 0.5, 0.9, 0.99]) AS vs
              FROM orders GROUP BY o_orderpriority
            )
            SELECT o_orderpriority,
                   unnest([2500, 5000, 9000, 9900]::BIGINT[]) AS p_e4,
                   unnest(vs) AS value
            FROM q
        """,
        "rolling_user_value": """
            SELECT event_id,
                   CAST(SUM(v_u) OVER w_run AS BIGINT) AS running_sum_u,
                   CAST(SUM(v_u) OVER w_frame AS DOUBLE)
                       / COUNT(*) OVER w_frame AS rolling_avg_u
            FROM (SELECT event_id, user_id, ts,
                         CAST(round(value * 1000000) AS BIGINT) AS v_u
                  FROM events)
            WINDOW
              w_run AS (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
              w_frame AS (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "value_stats_by_type": """
            SELECT event_type, count(*) AS n,
                   round(avg(value), 4) AS mean_x,
                   round(stddev_samp(value), 4) AS stddev_x,
                   round(corr(value, user_id), 4) AS corr_xy
            FROM events GROUP BY event_type
        """,
        "rollup_revenue": """
            SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
                   CAST(round(sum(o_totalprice) * 10000, 0) AS BIGINT) AS total_e4,
                   count(*) AS n
            FROM orders GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
        """,
        "user_event_sequences": """
            SELECT user_id,
                   string_agg(event_type, ',' ORDER BY ts, event_id) AS seq,
                   count(*) AS n_events
            FROM events GROUP BY user_id
        """,
        "events_above_p99": """
            WITH thr AS (
              SELECT event_type, quantile_disc(value, 0.99) AS cut
              FROM events GROUP BY event_type
            )
            SELECT e.event_type,
                   CAST(sum(CAST(round(e.value * 1000000) AS BIGINT))
                        AS BIGINT) AS tail_sum_u,
                   count(*) AS n_tail
            FROM events e JOIN thr USING (event_type)
            WHERE e.value > thr.cut
            GROUP BY e.event_type
        """,
        "bm25_scores": f"""
            WITH {tok_cte},
            dl AS (SELECT doc_id, count(*) AS dl FROM tokens GROUP BY doc_id),
            stats AS (SELECT count(*) AS n_docs, sum(dl) AS sum_dl FROM dl),
            tf AS (
              SELECT doc_id, word, count(*) AS tf FROM tokens
              WHERE word IN ('spark', 'window', 'merge') GROUP BY 1, 2
            ),
            df AS (SELECT word, count(*) AS df FROM tf GROUP BY word),
            s AS (
              SELECT t.doc_id,
                     sum(
                       ln((stats.n_docs - d.df + 0.5) / (d.df + 0.5) + 1.0)
                       * (t.tf * (1.2 + 1.0))
                       / (t.tf + 1.2 * (1.0 - 0.75
                            + 0.75 * CAST(dl.dl * stats.n_docs AS DOUBLE)
                              / stats.sum_dl))
                     ) AS score
              FROM tf t
              JOIN df d USING (word)
              JOIN dl USING (doc_id)
              CROSS JOIN stats
              GROUP BY t.doc_id
            )
            SELECT doc_id,
                   CAST(floor(score * 1000000 + 0.5) AS BIGINT) AS bm25_e6
            FROM s
        """,
        "tfidf_top_terms": f"""
            WITH {tok_cte},
            tf AS (
              SELECT doc_id, word, count(*) AS tf FROM tokens GROUP BY 1, 2
            ),
            df AS (SELECT word, count(*) AS df FROM tf GROUP BY word),
            n AS (SELECT count(*) AS n_docs FROM documents),
            s AS (
              SELECT t.doc_id, t.word,
                     CAST(floor(t.tf * ln((SELECT n_docs FROM n) / d.df)
                                * 1000000 + 0.5) AS BIGINT) AS score_e6
              FROM tf t JOIN df d USING (word)
            ),
            r AS (
              SELECT doc_id, word,
                     row_number() OVER (
                       PARTITION BY doc_id ORDER BY score_e6 DESC, word
                     ) AS rk
              FROM s
            )
            SELECT doc_id, word, rk FROM r WHERE rk <= 3
        """,
        "approx_distinct_users": """
            WITH h AS (
              SELECT DISTINCT event_type,
                     ('0x' || substr(md5(user_id::VARCHAR), 1, 16))::UBIGINT AS hv
              FROM events
            ),
            r AS (
              SELECT event_type, hv,
                     row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rk
              FROM h
            ),
            k AS (
              SELECT event_type,
                     max(hv) FILTER (WHERE rk <= 256) AS kth,
                     count(*) AS m
              FROM r GROUP BY event_type
            )
            SELECT event_type,
                   CAST(CASE WHEN m < 256 THEN m
                        ELSE floor(255 * 18446744073709551616.0 / kth + 0.5)
                        END AS BIGINT) AS n_approx
            FROM k
        """,
        "lineitem_orders_join": """
            SELECT o_orderpriority,
                   CAST(round(sum(l_extendedprice * (1 - l_discount)) * 10000, 0)
                        AS BIGINT) AS revenue_e4,
                   count(*) AS n_items
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        "triangle_count": """
            WITH e AS (
              SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,
                              GREATEST(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            )
            SELECT count(*) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
            JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
        """,
        "props_k_stats": """
            SELECT event_type,
                   CAST(sum(CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,
                   CAST(count(*) AS BIGINT) AS n
            FROM events
            WHERE regexp_extract(props, '"k": ([0-9]+)', 1) != ''
            GROUP BY event_type
        """,
        "zscore_by_type": """
            WITH u AS (
              SELECT event_id, event_type,
                     CAST(round(value * 100, 0) AS BIGINT) AS u
              FROM events
            ),
            s AS (
              SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(u) AS BIGINT) AS su,
                     CAST(sum(u * u) AS BIGINT) AS suu
              FROM u GROUP BY event_type
            )
            SELECT event_id,
                   round((u - su / n) / sqrt(suu / n - (su / n) * (su / n)), 6) AS z
            FROM u JOIN s USING (event_type)
        """,
        "dataset_split": """
            SELECT doc_id,
                   CASE WHEN h < 80 THEN 'train'
                        WHEN h < 90 THEN 'val'
                        ELSE 'test' END AS split
            FROM (
              SELECT doc_id,
                     ('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT % 100 AS h
              FROM documents
            )
        """,
        "event_type_pivot": """
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY user_id
        """,
        "priority_sample": """
            SELECT doc_id, lang FROM documents
            ORDER BY ('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT, doc_id
            LIMIT 200
        """,
        "weighted_sample": """
            SELECT doc_id, lang, round(es_key, 6) AS es_key FROM (
              SELECT doc_id, lang,
                     -ln((CAST(('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT
                               AS DOUBLE) + 0.5) / 18446744073709551616.0)
                       / (length(text) + 1) AS es_key
              FROM documents
            ) ORDER BY es_key, doc_id LIMIT 100
        """,
        "customer_big_order_counts": """
            SELECT c_custkey, CAST(count(o.o_custkey) AS BIGINT) AS n_big
            FROM customer
            LEFT JOIN (
              SELECT o_custkey FROM orders WHERE o_totalprice > 300000
            ) o ON o.o_custkey = c_custkey
            GROUP BY c_custkey
        """,
        "customers_no_big_orders": """
            SELECT c_nationkey,
                   round(sum(c_acctbal), 4) AS total_acctbal,
                   count(*) AS n_customers
            FROM customer
            WHERE c_custkey NOT IN (
              SELECT o_custkey FROM orders WHERE o_totalprice > 450000.0
            )
            GROUP BY c_nationkey
        """,
        "redact_props": """
            WITH r1 AS (
              SELECT event_id, props,
                     len(regexp_extract_all(
                       props,
                       '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}'
                     ))::BIGINT AS n1,
                     regexp_replace(
                       props,
                       '[A-Za-z0-9._%+\\-]+@[A-Za-z0-9.\\-]+\\.[A-Za-z]{2,}',
                       '[EMAIL]', 'g') AS s1
              FROM events
            )
            SELECT event_id,
                   regexp_replace(s1, '[0-9]+', '[NUM]', 'g') AS redacted,
                   n1 + len(regexp_extract_all(s1, '[0-9]+'))::BIGINT
                     AS n_redactions
            FROM r1
        """,
        "doc_length_quantiles": """
            WITH q AS (
              SELECT quantile_disc(
                       n_chars, [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]) AS qs
              FROM documents
            )
            SELECT unnest([1000, 2500, 5000, 7500, 9000, 9900])::BIGINT AS p_e4,
                   unnest(qs)::BIGINT AS value
            FROM q
        """,
        "events_by_type": """
            SELECT event_type, count(*) AS n,
                   round(sum(value), 4) AS total_value
            FROM events GROUP BY event_type
        """,
        "stream_ingest": """
            SELECT 'Q' || doc_id AS id,
                   '{"id": "Q' || doc_id || '"}' AS item_json
            FROM documents WHERE doc_id >= 1
        """,
        "files_sha256": """
            SELECT doc_id AS file_id,
                   'org' || (doc_id % 20) || '/' || source AS repo,
                   lang,
                   sha256(text) AS sha256
            FROM documents
        """,
        "vendored_files": """
            WITH base AS (
              SELECT doc_id AS file_id,
                     'org' || (doc_id % 20) || '/' || source AS repo,
                     md5(text) AS content_md5
              FROM documents
            ),
            planted AS (
              SELECT doc_id + 5000000 AS file_id,
                     'org' || ((doc_id + 1) % 20) || '/' || source AS repo,
                     md5(text) AS content_md5
              FROM documents WHERE doc_id % 25 = 0
            ),
            f AS (
              SELECT * FROM base UNION ALL SELECT * FROM planted
            )
            SELECT content_md5,
                   CAST(count(DISTINCT repo) AS BIGINT) AS n_repos,
                   CAST(count(*) AS BIGINT) AS n_files,
                   CAST(min(file_id) AS BIGINT) AS first_file
            FROM f GROUP BY content_md5
            HAVING count(DISTINCT repo) >= 2
        """,
        "sample_lang_quota": """
            SELECT doc_id, lang FROM documents
            WHERE substr(md5(doc_id::VARCHAR), 1, 8) <
                  CASE lang
                       WHEN 'en' THEN '80000000'
                       WHEN 'fr' THEN '40000000'
                       WHEN 'de' THEN '19999999'
                       ELSE '0ccccccc'
                  END
        """,
        "top_docs_per_lang": """
            SELECT doc_id, lang, n_chars FROM (
                SELECT doc_id, lang, n_chars,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY n_chars DESC, doc_id
                       ) AS rn
                FROM documents
            ) WHERE rn <= 5
        """,
        "audio_energy": """
            WITH aud AS (
              SELECT doc_id AS media_id, coalesce(text, '') AS t
              FROM documents WHERE doc_id % 3 = 1
            ),
            dims AS (
              -- W = padded-window length = ceil(len/16); zero pad rides as
              -- missing rows (coalesce(ss, 0)) in the final join
              SELECT media_id, t, length(t) AS n,
                     (length(t) + 15) // 16 AS w
              FROM aud
            ),
            chars AS (
              SELECT media_id, unnest(range(1, n + 1)) AS i, t, w
              FROM dims WHERE n > 0
            ),
            sq AS (
              SELECT media_id, (i - 1) // w AS win,
                     ord(substr(t, i::INTEGER, 1))::DOUBLE AS c
              FROM chars
            ),
            agg AS (
              SELECT media_id, win, sum(c * c) AS ss
              FROM sq GROUP BY media_id, win
            ),
            wins AS (
              SELECT media_id, unnest(range(0, 16)) AS win, w FROM dims
            )
            SELECT wins.media_id, wins.win AS window,
                   round(CASE WHEN wins.w = 0 THEN 0.0
                         ELSE sqrt(coalesce(agg.ss, 0) / wins.w) END, 6) AS rms
            FROM wins LEFT JOIN agg
              ON agg.media_id = wins.media_id AND agg.win = wins.win
        """,
        "frame_samples": """
            WITH vid AS (
              SELECT doc_id AS media_id, coalesce(text, '') AS t
              FROM documents WHERE doc_id % 3 = 2
            ),
            f AS (
              SELECT media_id, t,
                     unnest(list_filter(
                       range(0, greatest(1, (length(t) + 1023) // 1024)),
                       i -> i % 2 = 0)) AS frame_index
              FROM vid
            )
            SELECT media_id, frame_index,
                   sha256(substr(t, (frame_index * 1024 + 1)::INTEGER, 1024))
                     AS frame_sha256
            FROM f
        """,
        "doc_chunks": """
            WITH c AS (
              SELECT doc_id,
                     unnest(generate_series(
                       0, CAST(floor((length(text) - 1)::DOUBLE / 150)
                               AS BIGINT))) AS chunk_idx,
                     text
              FROM documents
            )
            SELECT doc_id, chunk_idx,
                   substring(text, CAST(chunk_idx * 150 + 1 AS INTEGER), 200)
                     AS chunk_text
            FROM c
        """,
        "lm_scores": r"""
            WITH ws AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                     ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
              FROM documents
            ),
            tok AS (SELECT doc_id, unnest(arr) AS w FROM ws),
            cnt AS (SELECT w, count(*) AS c FROM tok GROUP BY 1),
            tot AS (SELECT sum(c)::DOUBLE AS t FROM cnt),
            lp AS (
              SELECT w, CAST(round(ln(c::DOUBLE / t) * 1000000) AS BIGINT)
                       AS lp_e6
              FROM cnt, tot
            )
            SELECT doc_id, count(*) AS n_tokens,
                   CAST(sum(lp_e6) AS BIGINT) AS sum_lp_e6
            FROM tok JOIN lp USING (w) GROUP BY doc_id
        """,
        "ccnet_buckets": r"""
            WITH ws AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                     ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
              FROM documents
            ),
            tok AS (SELECT doc_id, unnest(arr) AS w FROM ws),
            cnt AS (SELECT w, count(*) AS c FROM tok GROUP BY 1),
            tot AS (SELECT sum(c)::DOUBLE AS t FROM cnt),
            lp AS (
              SELECT w, CAST(round(ln(c::DOUBLE / t) * 1000000) AS BIGINT)
                       AS lp_e6
              FROM cnt, tot
            ),
            sc AS (
              SELECT doc_id, count(*) AS n_tokens,
                     CAST(sum(lp_e6) AS BIGINT) AS s
              FROM tok JOIN lp USING (w) GROUP BY doc_id
            ),
            j AS (
              SELECT sc.doc_id, sc.n_tokens, sc.s // sc.n_tokens AS q, d.lang
              FROM sc JOIN documents d USING (doc_id)
            ),
            r AS (
              SELECT lang, n_tokens,
                     row_number() OVER (
                       PARTITION BY lang ORDER BY q DESC, doc_id) AS rk,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM j
            )
            SELECT lang, CAST(((rk - 1) * 3) // n AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS tokens
            FROM r GROUP BY lang, bucket
        """,
        "repetition_stats": r"""
            WITH ws AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                     ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
              FROM documents
            ),
            b AS (
              SELECT doc_id,
                     unnest(list_transform(range(1, len(arr)),
                                           i -> arr[i] || ' ' || arr[i+1])) AS g
              FROM ws WHERE len(arr) >= 2
            ),
            bc AS (SELECT doc_id, g, count(*) AS c FROM b GROUP BY 1, 2),
            btop AS (SELECT doc_id, max(c) AS top_c FROM bc GROUP BY 1),
            t AS (
              SELECT doc_id,
                     unnest(list_transform(range(1, len(arr) - 1),
                       i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2])) AS g
              FROM ws WHERE len(arr) >= 3
            ),
            tc AS (SELECT doc_id, g, count(*) AS c FROM t GROUP BY 1, 2),
            tdup AS (
              SELECT doc_id,
                     CAST(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS BIGINT)
                       AS dup_t
              FROM tc GROUP BY 1
            )
            SELECT ws.doc_id AS doc_id,
                   CAST(greatest(len(arr) - 1, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(btop.top_c, 0) AS BIGINT) AS top_bigram_count,
                   COALESCE(tdup.dup_t, 0) AS dup_trigram_tokens
            FROM ws LEFT JOIN btop USING (doc_id) LEFT JOIN tdup USING (doc_id)
        """,
        "funnel": """
            WITH s0 AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY 1
            ),
            s1 AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN s0 ON e.user_id = s0.user_id
              WHERE e.event_type = 'click' AND e.ts >= s0.t GROUP BY 1
            ),
            s2 AS (
              SELECT e.user_id, min(e.ts) AS t
              FROM events e JOIN s1 ON e.user_id = s1.user_id
              WHERE e.event_type = 'purchase' AND e.ts >= s1.t GROUP BY 1
            )
            SELECT CAST(0 AS BIGINT) AS step_idx, 'view' AS step,
                   count(*) AS n_users FROM s0
            UNION ALL SELECT 1, 'click', count(*) FROM s1
            UNION ALL SELECT 2, 'purchase', count(*) FROM s2
        """,
        "customers_no_urgent": """
            SELECT c_custkey, c_nationkey FROM customer
            WHERE c_custkey NOT IN (
              SELECT o_custkey FROM orders
              WHERE o_orderpriority = '1-URGENT')
        """,
        "value_regression": """
            WITH m AS (
              SELECT event_type,
                     count(*)::HUGEINT AS n,
                     sum(user_id::HUGEINT) AS sx,
                     sum(CAST(round(value * 10000) AS HUGEINT)) AS sy,
                     sum(user_id::HUGEINT
                         * CAST(round(value * 10000) AS HUGEINT)) AS sxy,
                     sum(user_id::HUGEINT * user_id::HUGEINT) AS sxx
              FROM events GROUP BY 1
            )
            SELECT event_type,
                   CAST(n AS BIGINT) AS n,
                   CAST((1000000::HUGEINT * (n*sxy - sx*sy))
                        // ((n*sxx - sx*sx) * 10000::HUGEINT) AS BIGINT)
                     AS slope_e6,
                   CAST((1000000::HUGEINT
                         * (sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx))
                        // ((n*sxx - sx*sx) * n * 10000::HUGEINT) AS BIGINT)
                     AS intercept_e6
            FROM m WHERE (n*sxx - sx*sx) != 0
        """,
        "hopping_window": """
            WITH e AS (
              SELECT epoch_us(ts) AS us, event_type,
                     CAST(round(value * 10000) AS BIGINT) AS v_u
              FROM events
            ),
            r AS (
              SELECT (us // 900000000
                      - unnest(generate_series(0, 3))) * 900000000
                       AS window_start_us,
                     event_type, v_u
              FROM e
            )
            SELECT window_start_us, event_type, count(*) AS n,
                   CAST(sum(v_u) AS BIGINT) AS total_e4
            FROM r GROUP BY 1, 2
        """,
        "packed_sequences": r"""
            WITH RECURSIVE toks AS (
              SELECT doc_id // 128 AS part, doc_id,
                CAST(CASE WHEN trim(text) = '' THEN 0
                     ELSE len(regexp_split_to_array(trim(text), '\s+'))
                END AS BIGINT) AS n_tok,
                row_number() OVER (PARTITION BY doc_id // 128
                                   ORDER BY doc_id) AS rn
              FROM documents
            ),
            walk AS (
              SELECT part, doc_id, n_tok, rn,
                     CAST(0 AS BIGINT) AS seq, n_tok AS acc
              FROM toks WHERE rn = 1
              UNION ALL
              SELECT t.part, t.doc_id, t.n_tok, t.rn,
                CASE WHEN w.acc + t.n_tok > 64 THEN w.seq + 1 ELSE w.seq END,
                CASE WHEN w.acc + t.n_tok > 64 THEN t.n_tok
                     ELSE w.acc + t.n_tok END
              FROM toks t JOIN walk w
                ON t.part = w.part AND t.rn = w.rn + 1
            )
            SELECT part, seq, doc_id, n_tok FROM walk
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
                   CAST(round(sum(l_extendedprice) * 100) AS BIGINT)
                     AS sum_base_e2,
                   CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100)
                        AS BIGINT) AS sum_disc_e2,
                   count(*) AS n_items
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "supplier_region_revenue": """
            SELECT r.r_name,
                   CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100)
                        AS BIGINT) AS revenue_e2,
                   count(*) AS n_items
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
        """,
        "cheapest_supplier_per_part": """
            SELECT l_partkey, l_suppkey,
                   CAST(round(l_extendedprice * 100) AS BIGINT) AS price_e2
            FROM (
              SELECT l_partkey, l_suppkey, l_extendedprice,
                     row_number() OVER (
                       PARTITION BY l_partkey
                       ORDER BY l_extendedprice, l_suppkey
                     ) AS rn
              FROM lineitem
            ) WHERE rn = 1
        """,
        "token_budget_selection": r"""
            WITH f AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN CAST(0 AS BIGINT)
                     ELSE (len(list_filter(
                             regexp_split_to_array(trim(text), '\s+'),
                             w -> lower(w) IN (""" + _EN_STOP + r""")))::BIGINT
                           * 1000000)
                          // len(regexp_split_to_array(trim(text), '\s+'))
                END AS q_e6,
                len(regexp_extract_all(text, '\w+|[^\w\s]'))::BIGINT
                  AS bpe_tokens
              FROM documents
            )
            SELECT doc_id, q_e6, bpe_tokens
            FROM (
              SELECT *, sum(bpe_tokens)
                          OVER (ORDER BY q_e6 DESC, doc_id
                                ROWS UNBOUNDED PRECEDING) AS run
              FROM f
            )
            WHERE run <= (SELECT sum(bpe_tokens) FROM f) // 4
        """,
        "source_quality_filter": r"""
            WITH f AS (
              SELECT doc_id, source,
                len(regexp_extract_all(text, '\w+|[^\w\s]'))::BIGINT AS bpe
              FROM documents
            ),
            s AS (SELECT source, sum(bpe) AS sb, count(*) AS nd
                  FROM f GROUP BY source),
            g AS (SELECT sum(bpe) AS tb, count(*) AS td FROM f)
            SELECT f.doc_id, f.source
            FROM f JOIN s USING (source), g
            WHERE s.sb * g.td >= g.tb * s.nd
        """,
        "retention_cohorts": """
            WITH p AS (
              SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day
              FROM events
            ),
            c AS (SELECT user_id, min(day) AS cohort FROM p GROUP BY user_id)
            SELECT c.cohort AS cohort_day,
                   p.day - c.cohort AS offset_days,
                   count(*) AS n_users
            FROM p JOIN c USING (user_id)
            GROUP BY 1, 2
        """,
        "similarity_join": """
            WITH e AS (
              SELECT vec_id, list_transform(embedding, x -> x::DOUBLE) AS v
              FROM embeddings
            ),
            q AS (SELECT * FROM e WHERE vec_id < 32),
            c AS (SELECT * FROM e WHERE vec_id >= 32)
            SELECT q.vec_id AS query_id, c.vec_id AS vec_id,
                   CAST(round(list_cosine_similarity(q.v, c.v) * 1000000)
                        AS BIGINT) AS cos_e6
            FROM q, c
            WHERE list_cosine_similarity(q.v, c.v) >= 0.3
        """,
        "dup_gram_fraction": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            df AS (SELECT g, count(*) AS df FROM ex GROUP BY g),
            d AS (
              SELECT ex.doc_id,
                     count(*) AS n_grams,
                     count(*) FILTER (df.df >= 2) AS n_dup
              FROM ex JOIN df USING (g) GROUP BY ex.doc_id
            )
            SELECT doc_id, n_grams, n_dup,
                   (n_dup * 1000000) // n_grams AS dup_frac_e6
            FROM d
        """,
        "gram_novelty": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            mn AS (SELECT g, min(doc_id) AS m FROM ex GROUP BY g),
            d AS (
              SELECT ex.doc_id,
                     count(*) AS n_grams,
                     count(*) FILTER (mn.m < ex.doc_id) AS n_seen_before
              FROM ex JOIN mn USING (g) GROUP BY ex.doc_id
            )
            SELECT doc_id, n_grams, n_seen_before,
                   ((n_grams - n_seen_before) * 1000000) // n_grams
                     AS novelty_e6
            FROM d
        """,
        "customers_all_priorities": """
            SELECT o_custkey, count(DISTINCT o_orderpriority) AS n_attrs
            FROM orders
            GROUP BY o_custkey
            HAVING count(DISTINCT o_orderpriority)
                   = (SELECT count(DISTINCT o_orderpriority) FROM orders)
        """,
        "top_prop_per_type": """
            WITH k AS (
              SELECT event_type,
                     CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT)
                       AS k
              FROM events
              WHERE regexp_extract(props, '"k": ([0-9]+)', 1) != ''
            ),
            c AS (SELECT event_type, k, count(*) AS n FROM k GROUP BY 1, 2)
            SELECT event_type, k, n
            FROM c
            QUALIFY row_number() OVER (
              PARTITION BY event_type ORDER BY n DESC, k ASC) = 1
        """,
        "inverted_index": f"""
            WITH {tok_cte},
            t AS (SELECT DISTINCT word, doc_id FROM tokens),
            r AS (
              SELECT word, doc_id,
                     row_number() OVER (PARTITION BY word ORDER BY doc_id)
                       AS rn,
                     count(*) OVER (PARTITION BY word) AS df
              FROM t
            )
            SELECT word, any_value(df) AS df,
                   string_agg(doc_id, ',' ORDER BY doc_id) AS postings
            FROM r WHERE rn <= 64 GROUP BY word
        """,
        "degree_distribution": """
            WITH e AS (
              SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,
                              GREATEST(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            ),
            deg AS (
              SELECT node, count(*) AS degree FROM (
                SELECT u AS node FROM e UNION ALL SELECT v FROM e
              ) GROUP BY node
            )
            SELECT degree, count(*) AS n_nodes FROM deg GROUP BY degree
        """,
        "event_ntile": """
            SELECT event_id, event_type,
                   ntile(4) OVER (
                     PARTITION BY event_type ORDER BY value, event_id
                   ) AS quartile
            FROM events
        """,
        "word_cooccurrence": f"""
            WITH {tok_cte},
            t AS (SELECT DISTINCT doc_id, word FROM tokens),
            r AS (
              SELECT doc_id, word,
                     row_number() OVER (PARTITION BY doc_id ORDER BY word)
                       AS rn
              FROM t
            ),
            capped AS (SELECT doc_id, word FROM r WHERE rn <= 256)
            SELECT a.word AS u, b.word AS v, count(*) AS n_docs
            FROM capped a JOIN capped b
              ON a.doc_id = b.doc_id AND a.word < b.word
            GROUP BY a.word, b.word
            HAVING count(*) >= 2
        """,
        "lang_confusion": f"""
            WITH {lang_scores}
            SELECT d.lang,
              CASE WHEN greatest(s_en, s_fr, s_de, s_es, s_zh) = 0 THEN 'und'
                   WHEN s_en >= greatest(s_fr, s_de, s_es, s_zh) THEN 'en'
                   WHEN s_fr >= greatest(s_de, s_es, s_zh) THEN 'fr'
                   WHEN s_de >= greatest(s_es, s_zh) THEN 'de'
                   WHEN s_es >= s_zh THEN 'es'
                   ELSE 'zh' END AS lang_id,
              count(*) AS n_docs
            FROM documents d JOIN scores USING (doc_id)
            GROUP BY 1, 2
        """,
        "monthly_revenue_ma": """
            WITH m AS (
              SELECT (year(o_orderdate) - 1970) * 12 + month(o_orderdate) - 1
                       AS month,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS rev_e2,
                     count(*) AS n_orders
              FROM orders GROUP BY 1
            )
            SELECT month, rev_e2, n_orders,
                   CAST(sum(rev_e2) OVER w AS BIGINT) AS ma3_sum_e2,
                   CAST(count(*) OVER w AS BIGINT) AS ma3_n
            FROM m
            WINDOW w AS (ORDER BY month ROWS BETWEEN 1 PRECEDING
                         AND 1 FOLLOWING)
        """,
        "weighted_median_price": """
            WITH u AS (
              SELECT l_returnflag,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS v,
                     CAST(round(l_quantity) AS BIGINT) AS w
              FROM lineitem
            ), c AS (
              SELECT l_returnflag, v, w,
                     sum(w) OVER (PARTITION BY l_returnflag
                                  ORDER BY v) AS cw,
                     sum(w) OVER (PARTITION BY l_returnflag) AS tw
              FROM u
            )
            SELECT l_returnflag,
                   CAST(min(CASE WHEN 2 * cw >= tw THEN v END) AS BIGINT)
                     AS median_units,
                   CAST(max(tw) AS BIGINT) AS total_weight
            FROM c GROUP BY l_returnflag
        """,
        "curriculum_order": """
            WITH u AS (
              SELECT event_id,
                     CAST(round(value * 10000) AS BIGINT) AS v_units
              FROM events
            )
            SELECT event_id, v_units,
                   CAST(row_number() OVER (ORDER BY v_units, event_id)
                        AS BIGINT) AS row_idx
            FROM u
        """,
        "two_hop_candidates": """
            WITH p AS (
              SELECT a.c_custkey AS u, b.c_custkey AS v
              FROM customer a JOIN customer b
                ON a.c_nationkey = b.c_nationkey
               AND a.c_custkey < b.c_custkey
              WHERE levenshtein(a.c_name, b.c_name) <= 2
            ), sym AS (
              SELECT u AS a, v AS b FROM p
              UNION ALL
              SELECT v AS a, u AS b FROM p
            ), cand AS (
              SELECT s1.b AS u, s2.b AS v, count(*) AS n_mids
              FROM sym s1 JOIN sym s2
                ON s1.a = s2.a AND s1.b < s2.b
              GROUP BY s1.b, s2.b
            )
            SELECT c.u, c.v, CAST(c.n_mids AS BIGINT) AS n_mids
            FROM cand c LEFT JOIN p ON p.u = c.u AND p.v = c.v
            WHERE p.u IS NULL
        """,
        "link_prediction": """
            WITH p AS (
              SELECT a.c_custkey AS u, b.c_custkey AS v
              FROM customer a JOIN customer b
                ON a.c_nationkey = b.c_nationkey
               AND a.c_custkey < b.c_custkey
              WHERE levenshtein(a.c_name, b.c_name) <= 2
            ), sym AS (
              SELECT u AS a, v AS b FROM p
              UNION ALL
              SELECT v AS a, u AS b FROM p
            ), deg AS (
              SELECT a AS node, count(*) AS d FROM sym GROUP BY a
            ), cand AS (
              SELECT s1.b AS u, s2.b AS v, count(*) AS cn
              FROM sym s1 JOIN sym s2
                ON s1.a = s2.a AND s1.b < s2.b
              GROUP BY s1.b, s2.b
            ), nonadj AS (
              SELECT c.u, c.v, c.cn
              FROM cand c LEFT JOIN p ON p.u = c.u AND p.v = c.v
              WHERE p.u IS NULL
            )
            SELECT n.u, n.v, CAST(n.cn AS BIGINT) AS cn,
                   CAST(da.d AS BIGINT) AS du, CAST(db.d AS BIGINT) AS dv,
                   CAST((n.cn * 1000000) // (da.d + db.d - n.cn) AS BIGINT)
                     AS jaccard_e6
            FROM nonadj n
            JOIN deg da ON da.node = n.u
            JOIN deg db ON db.node = n.v
        """,
        "sparsify_fuzzy": """
            WITH p AS (
              SELECT a.c_custkey AS u, b.c_custkey AS v,
                     levenshtein(a.c_name, b.c_name) AS w
              FROM customer a JOIN customer b
                ON a.c_nationkey = b.c_nationkey
               AND a.c_custkey < b.c_custkey
              WHERE levenshtein(a.c_name, b.c_name) <= 2
            ), sym AS (
              SELECT u AS a, v AS b, w FROM p
              UNION ALL
              SELECT v AS a, u AS b, w FROM p
            ), r AS (
              SELECT a, b, w,
                     row_number() OVER (PARTITION BY a ORDER BY w, b) AS rk
              FROM sym
            )
            SELECT least(a, b) AS u, greatest(a, b) AS v,
                   CAST(max(w) AS BIGINT) AS lev
            FROM r WHERE rk <= 2
            GROUP BY least(a, b), greatest(a, b)
        """,
        "ab_conversion": """
            WITH pu AS (
              SELECT user_id,
                     max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                       AS p
              FROM events GROUP BY user_id
            )
            SELECT CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16)
                        )::UBIGINT % 2 AS BIGINT) AS arm,
                   CAST(sum(p) AS BIGINT) AS n_converted,
                   count(*) AS n_users
            FROM pu GROUP BY arm
        """,
        "first_event_per_day": """
            WITH d AS (
              SELECT user_id, epoch_us(ts) // 86400000000 AS day,
                     event_id, event_type,
                     row_number() OVER (
                       PARTITION BY user_id, epoch_us(ts) // 86400000000
                       ORDER BY ts, event_id
                     ) AS rk
              FROM events
            )
            SELECT user_id, CAST(day AS BIGINT) AS day, event_id, event_type
            FROM d WHERE rk = 1
        """,
        "hot_keys": """
            WITH k AS (
              SELECT CASE WHEN trim(text) = '' THEN ''
                     ELSE regexp_split_to_array(trim(text), '\\s+')[1]
                     END AS bkey
              FROM documents
            )
            SELECT bkey, count(*) AS n
            FROM k GROUP BY bkey
            ORDER BY n DESC, bkey
            LIMIT 10
        """,
        "incremental_dedup": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b
                ON a.g = b.g
               AND a.doc_id % 10 = 0 AND b.doc_id % 10 != 0
            )
            SELECT u, v,
                   len(list_intersect(ga.gs, gb.gs))::double
                     / (len(ga.gs) + len(gb.gs)
                        - len(list_intersect(ga.gs, gb.gs)))::double
                     AS jaccard
            FROM cand
            JOIN grams ga ON ga.doc_id = cand.u
            JOIN grams gb ON gb.doc_id = cand.v
            WHERE len(list_intersect(ga.gs, gb.gs))::double
                  / (len(ga.gs) + len(gb.gs)
                     - len(list_intersect(ga.gs, gb.gs)))::double >= 0.3
        """,
        "cluster_survivorship": f"""
            WITH RECURSIVE toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            pairs AS (
              SELECT u, v
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
              WHERE len(list_intersect(ga.gs, gb.gs))::double
                    / (len(ga.gs) + len(gb.gs)
                       - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
            ),
            edges AS (
              SELECT u AS a, v AS b FROM pairs
              UNION ALL
              SELECT v AS a, u AS b FROM pairs
            ),
            lab(v, l) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.a, lab.l FROM edges e JOIN lab ON lab.v = e.b
            ),
            comp AS (SELECT v AS doc_id, min(l) AS component FROM lab GROUP BY v),
            melted AS (
              SELECT c.component, 'lang' AS attr, d.lang AS value
              FROM comp c JOIN documents d USING (doc_id)
              UNION ALL
              SELECT c.component, 'source' AS attr, d.source AS value
              FROM comp c JOIN documents d USING (doc_id)
            ),
            votes AS (
              SELECT component, attr, value, count(*) AS n_votes
              FROM melted GROUP BY component, attr, value
            ),
            ranked AS (
              SELECT component, attr, value, n_votes,
                     row_number() OVER (
                       PARTITION BY component, attr
                       ORDER BY n_votes DESC, value
                     ) AS rk
              FROM votes
            )
            SELECT CAST(component AS BIGINT) AS component, attr, value,
                   CAST(n_votes AS BIGINT) AS n_votes
            FROM ranked WHERE rk = 1
        """,
        "orders_checksum": """
            WITH h AS (
              SELECT ('0x' || substr(md5(
                       CAST(o_orderkey AS VARCHAR) || '|' || o_orderstatus
                     ), 1, 16))::UBIGINT AS hv
              FROM orders
            ), s AS (
              SELECT sum(CAST(hv AS HUGEINT)) AS t FROM h
            )
            SELECT CAST((t % 18446744073709551616) // 4294967296 AS BIGINT)
                     AS hi,
                   CAST((t % 18446744073709551616) % 4294967296 AS BIGINT)
                     AS lo
            FROM s
        """,
        "bucket_checksums": """
            WITH h AS (
              SELECT o_orderkey // 1024 AS bucket,
                     ('0x' || substr(md5(
                       CAST(o_orderkey AS VARCHAR) || '|' || o_orderstatus
                     ), 1, 16))::UBIGINT AS hv
              FROM orders
            ), s AS (
              SELECT bucket, sum(CAST(hv AS HUGEINT)) AS t
              FROM h GROUP BY bucket
            )
            SELECT bucket,
                   CAST((t % 18446744073709551616) // 4294967296 AS BIGINT)
                     AS hi,
                   CAST((t % 18446744073709551616) % 4294967296 AS BIGINT)
                     AS lo
            FROM s
        """,
        "bloom_semijoin": """
            WITH build AS (
              SELECT DISTINCT c_custkey AS k FROM customer
              WHERE c_nationkey = 5
            ),
            bits AS (
              SELECT DISTINCT p FROM (
                SELECT ('0x' || substr(md5(CAST(k AS VARCHAR)), 1, 16))::UBIGINT
                       % 4096 AS p FROM build
                UNION ALL
                SELECT ('0x' || substr(md5(CAST(k AS VARCHAR)), 17, 16))::UBIGINT
                       % 4096 AS p FROM build)
            ),
            cand AS (
              SELECT o_orderkey, o_custkey FROM orders
              WHERE (('0x' || substr(md5(CAST(o_custkey AS VARCHAR)), 1, 16))::UBIGINT
                     % 4096) IN (SELECT p FROM bits)
                AND (('0x' || substr(md5(CAST(o_custkey AS VARCHAR)), 17, 16))::UBIGINT
                     % 4096) IN (SELECT p FROM bits)
            )
            SELECT o_orderkey,
                   CAST(o_custkey IN (SELECT k FROM build) AS BIGINT)
                     AS is_match
            FROM cand
        """,
        "token_kl_drift": f"""
            WITH tok AS (
              SELECT doc_id % 2 AS half, trim(t.w) AS w
              FROM documents,
                   unnest(regexp_split_to_array(' ' || text || ' ', '{_SEP}'))
                     AS t(w)
              WHERE trim(t.w) != ''
            ),
            c AS (
              SELECT w,
                     count(*) FILTER (half = 0) AS c0,
                     count(*) FILTER (half = 1) AS c1
              FROM tok GROUP BY w
            ),
            tot AS (
              SELECT sum(c0) AS t0, sum(c1) AS t1, count(*) AS v FROM c
            ),
            contrib AS (
              SELECT CAST(floor(
                       1000000.0
                       * ((c0 + 1.0) / (t0 + v))
                       * ln(((c0 + 1.0) / (t0 + v))
                            / ((c1 + 1.0) / (t1 + v)))
                       + 0.5) AS BIGINT) AS e
              FROM c, tot
            )
            SELECT (SELECT CAST(v AS BIGINT) FROM tot) AS v,
                   (SELECT CAST(t0 AS BIGINT) FROM tot) AS t0,
                   (SELECT CAST(t1 AS BIGINT) FROM tot) AS t1,
                   CAST(SUM(e) AS BIGINT) AS kl_e6
            FROM contrib
        """,
        "zorder_stats": """
            WITH b AS (
              SELECT o_custkey AS x,
                     CAST(epoch(o_orderdate) AS BIGINT) // 86400 AS y
              FROM orders
            ),
            z AS (
              SELECT x, y,
                     list_sum(list_transform(range(0, 16), i ->
                       ((x >> i) & 1) * (CAST(1 AS BIGINT) << (2 * i))
                       + ((y >> i) & 1) * (CAST(1 AS BIGINT) << (2 * i + 1))
                     )) AS zval
              FROM b
            )
            SELECT CAST(zval >> 16 AS BIGINT) AS zblock,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(min(x) AS BIGINT) AS min_x,
                   CAST(max(x) AS BIGINT) AS max_x,
                   CAST(min(y) AS BIGINT) AS min_y,
                   CAST(max(y) AS BIGINT) AS max_y
            FROM z GROUP BY 1
        """,
        "rrf_fusion": """
            WITH ra AS (
              SELECT o_orderkey,
                     ROW_NUMBER() OVER (
                       ORDER BY CAST(round(o_totalprice * 100, 0) AS BIGINT)
                         DESC, o_orderkey) AS r
              FROM orders
            ),
            rb AS (
              SELECT o_orderkey,
                     ROW_NUMBER() OVER (
                       ORDER BY o_orderdate DESC, o_orderkey) AS r
              FROM orders
            )
            SELECT ra.o_orderkey,
                   CAST(ra.r AS BIGINT) AS rank_price,
                   CAST(rb.r AS BIGINT) AS rank_recency,
                   CAST(floor(1000000000.0 / (60 + ra.r) + 0.5) AS BIGINT)
                   + CAST(floor(1000000000.0 / (60 + rb.r) + 0.5) AS BIGINT)
                     AS rrf_e9
            FROM ra JOIN rb USING (o_orderkey)
        """,
        "embedding_coherence": """
            WITH q AS (
              SELECT label, vec_id,
                     list_transform(CAST(embedding AS DOUBLE[]),
                       x -> CAST(round(x * 10000, 0) AS BIGINT)) AS v
              FROM embeddings
            ),
            n AS (SELECT label, count(*) AS n FROM q GROUP BY label),
            u AS (
              SELECT label, vec_id, i, v[i] AS x
              FROM q, range(1, 65) t(i)
            ),
            s AS (SELECT label, i, SUM(x) AS sm FROM u GROUP BY 1, 2),
            d AS (
              SELECT u.label, u.vec_id,
                     SUM((n.n * u.x - s.sm) * (n.n * u.x - s.sm)) AS d2
              FROM u
              JOIN s ON u.label = s.label AND u.i = s.i
              JOIN n ON n.label = u.label
              GROUP BY 1, 2
            )
            SELECT d.label,
                   CAST(n.n AS BIGINT) AS n,
                   CAST(COUNT(*) FILTER (
                     d.d2 > 10100 * 10100 * n.n * n.n) AS BIGINT)
                     AS n_outliers,
                   CAST(MAX(d.d2) AS BIGINT) AS max_d2
            FROM d JOIN n ON n.label = d.label
            GROUP BY d.label, n.n
        """,
        "exact_median_narrowing": """
            WITH v AS (
              SELECT CAST(round(l_extendedprice * 100, 0) AS BIGINT) AS c
              FROM lineitem
            ),
            r AS (
              SELECT c,
                     row_number() OVER (ORDER BY c) AS rn,
                     count(*) OVER () AS n
              FROM v
            )
            SELECT CAST(n AS BIGINT) AS n,
                   CAST((n + 1) // 2 AS BIGINT) AS k,
                   CAST(c AS BIGINT) AS kth
            FROM r WHERE rn = (n + 1) // 2
        """,
        "time_weighted_value": """
            WITH e AS (
              SELECT user_id,
                     epoch_us(ts) // 1000000 AS s,
                     CAST(round(value * 100, 0) AS BIGINT) AS c,
                     LEAD(epoch_us(ts) // 1000000) OVER w AS next_s
              FROM events WINDOW w AS (
                PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT user_id,
                   CAST(SUM(c * COALESCE(next_s - s, 0)) AS BIGINT)
                     AS weighted_sum_cs,
                   CAST(MAX(s) - MIN(s) AS BIGINT) AS span_s,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM e GROUP BY user_id
        """,
        "embedding_dim_profile": """
            WITH q AS (
              SELECT list_transform(CAST(embedding AS DOUBLE[]),
                       x -> CAST(round(x * 10000, 0) AS BIGINT)) AS v
              FROM embeddings
            ),
            u AS (SELECT i - 1 AS dim, v[i] AS x FROM q, range(1, 65) t(i))
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sum_u,
                   CAST(sum(x * x) AS BIGINT) AS sumsq_u,
                   CAST(min(x) AS BIGINT) AS min_u,
                   CAST(max(x) AS BIGINT) AS max_u
            FROM u GROUP BY dim
        """,
        "path_tree_rollup": """
            WITH f AS (
              SELECT 'org' || (doc_id % 20) || '/' || source || '/' ||
                     'src/pkg' || (doc_id % 7) || '/mod_' || doc_id || '.' ||
                     CASE lang WHEN 'en' THEN 'py' WHEN 'fr' THEN 'js'
                               WHEN 'de' THEN 'java' WHEN 'es' THEN 'md'
                               WHEN 'zh' THEN 'rs' ELSE 'txt' END AS fullp,
                     length(text) AS sz
              FROM documents
            ),
            ex AS (
              SELECT d AS depth,
                     array_to_string(
                       list_slice(string_split(fullp, '/'), 1, d), '/')
                       AS prefix,
                     sz
              FROM f, range(1, 4) t(d)
              WHERE d <= len(string_split(fullp, '/'))
            )
            SELECT CAST(depth AS BIGINT) AS depth, prefix,
                   CAST(count(*) AS BIGINT) AS n_files,
                   CAST(sum(sz) AS BIGINT) AS total_chars
            FROM ex GROUP BY 1, 2
        """,
        "basket_rules": """
            WITH p AS (
              SELECT DISTINCT l_orderkey AS o, l_partkey AS i FROM lineitem
            ),
            t AS (SELECT count(DISTINCT o) AS t_orders FROM p),
            pc AS (
              SELECT a.i AS x, b.i AS y, count(*) AS n_xy
              FROM p a JOIN p b ON a.o = b.o AND a.i < b.i
              GROUP BY 1, 2 HAVING count(*) >= 2
            ),
            m AS (SELECT i, count(*) AS n FROM p GROUP BY i)
            SELECT pc.x, pc.y,
                   CAST(pc.n_xy AS BIGINT) AS n_xy,
                   CAST(mx.n AS BIGINT) AS n_x,
                   CAST(my.n AS BIGINT) AS n_y,
                   CAST(pc.n_xy * 1000000 // mx.n AS BIGINT) AS conf_xy_e6,
                   CAST(pc.n_xy * 1000000 // my.n AS BIGINT) AS conf_yx_e6,
                   CAST(pc.n_xy * t.t_orders * 1000000 // (mx.n * my.n)
                        AS BIGINT) AS lift_e6
            FROM pc
            JOIN m mx ON mx.i = pc.x
            JOIN m my ON my.i = pc.y
            CROSS JOIN t
        """,
        "three_way_merge": """
            WITH base AS (
              SELECT o_orderkey AS k,
                     o_orderstatus || '|' ||
                       CAST(CAST(round(o_totalprice * 100, 0) AS BIGINT)
                            AS VARCHAR) AS v
              FROM orders
            ),
            ours AS (
              SELECT k,
                     (CASE WHEN k % 77 = 0 THEN 'Z'
                           WHEN k % 7 = 0 THEN 'X'
                           ELSE o_orderstatus END) || '|' ||
                       CAST(CAST(round(o_totalprice * 100, 0) AS BIGINT)
                            AS VARCHAR) AS v
              FROM (SELECT o_orderkey AS k, o_orderstatus, o_totalprice
                    FROM orders WHERE o_orderkey % 97 != 0)
              UNION ALL
              SELECT o_orderkey + 10000000 AS k, 'N|0' AS v
              FROM orders WHERE o_orderkey % 101 = 0
            ),
            theirs AS (
              SELECT o_orderkey AS k,
                     (CASE WHEN o_orderkey % 77 = 0 THEN 'Z'
                           ELSE o_orderstatus END) || '|' ||
                       CAST(CAST(round(o_totalprice * 100, 0) AS BIGINT)
                            + CASE WHEN o_orderkey % 5 = 0 THEN 100
                                   ELSE 0 END AS VARCHAR) AS v
              FROM orders
            ),
            keys AS (
              SELECT k FROM base UNION SELECT k FROM ours
              UNION SELECT k FROM theirs
            ),
            j AS (
              SELECT keys.k, b.v AS bv, o.v AS ov, t.v AS tv
              FROM keys
              LEFT JOIN base b ON b.k = keys.k
              LEFT JOIN ours o ON o.k = keys.k
              LEFT JOIN theirs t ON t.k = keys.k
            ),
            cls AS (
              SELECT k,
                CASE
                  WHEN bv IS NULL THEN 'added'
                  WHEN ov IS NULL OR tv IS NULL THEN 'removed'
                  WHEN ov != bv AND tv != bv AND ov != tv THEN 'conflict'
                  WHEN ov != bv AND tv != bv THEN 'both_same'
                  WHEN ov != bv THEN 'ours_only'
                  WHEN tv != bv THEN 'theirs_only'
                  ELSE 'unchanged'
                END AS merge_status
              FROM j
            )
            SELECT merge_status,
                   CAST(count(*) AS BIGINT) AS n_keys,
                   CAST(min(k) AS BIGINT) AS min_key,
                   CAST(max(k) AS BIGINT) AS max_key
            FROM cls GROUP BY merge_status
        """,
        "multipass_pairs": """
            WITH k AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN ''
                     ELSE regexp_split_to_array(trim(text), '\\s+')[1]
                     END AS bkey
              FROM documents
            ), bp AS (
              SELECT a.doc_id AS u, b.doc_id AS v, 1 AS s
              FROM k a JOIN k b
                ON a.bkey = b.bkey AND a.doc_id < b.doc_id
            ), r AS (
              SELECT doc_id,
                     row_number() OVER (
                       ORDER BY substr(COALESCE(text, ''), 1, 40), doc_id
                     ) AS rn
              FROM documents
            ), sp AS (
              SELECT least(a.doc_id, b.doc_id) AS u,
                     greatest(a.doc_id, b.doc_id) AS v, 2 AS s
              FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 5
            ), un AS (
              SELECT * FROM bp UNION ALL SELECT * FROM sp
            )
            SELECT u, v, CAST(sum(s) AS BIGINT) AS schemes
            FROM un GROUP BY u, v
        """,
        "k_anonymity": """
            SELECT c_nationkey, c_mktsegment, count(*) AS n
            FROM customer
            GROUP BY c_nationkey, c_mktsegment
            HAVING count(*) < 10
        """,
        "vocab_richness": r"""
            WITH ws AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN []::VARCHAR[]
                     ELSE regexp_split_to_array(trim(text), '\s+') END AS arr
              FROM documents
            ),
            tok AS (SELECT doc_id, unnest(arr) AS w FROM ws),
            cnt AS (SELECT w, count(*) AS c FROM tok GROUP BY 1),
            s AS (
              SELECT count(*) AS v, sum(c) AS n,
                     count(*) FILTER (WHERE c = 1) AS n1,
                     count(*) FILTER (WHERE c = 2) AS n2,
                     count(*) FILTER (WHERE c = 3) AS n3
              FROM cnt
            )
            SELECT CAST(v AS BIGINT) AS v_types,
                   CAST(n AS BIGINT) AS n_tokens,
                   CAST(n1 AS BIGINT) AS n1,
                   CAST(n2 AS BIGINT) AS n2,
                   CAST(n3 AS BIGINT) AS n3,
                   CAST(CASE WHEN n > 0
                        THEN floor(n1 * 1000000.0 / n + 0.5)
                        ELSE 0 END AS BIGINT) AS p0_e6,
                   CAST(CASE WHEN n1 > 0
                        THEN floor(2.0 * n2 / n1 * 1000000.0 + 0.5)
                        ELSE 0 END AS BIGINT) AS r1_star_e6,
                   CAST(CASE WHEN n2 > 0
                        THEN floor((v + n1 * n1 / (2.0 * n2))
                                   * 1000000.0 + 0.5)
                        ELSE v * 1000000 END AS BIGINT) AS chao1_e6
            FROM s
        """,
        "nb_lang_confusion": f"""
            WITH toks AS (
              SELECT doc_id, lang,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            wcr AS (
              SELECT doc_id, lang, w AS word, count(*) AS c
              FROM (SELECT doc_id, lang, unnest(arr) AS w FROM toks)
              GROUP BY doc_id, lang, w
            ),
            lt AS (SELECT lang, sum(c) AS t FROM wcr GROUP BY lang),
            vd AS (SELECT count(DISTINCT word) AS v FROM wcr),
            langs AS (SELECT DISTINCT lang FROM wcr),
            cw AS (
              SELECT word, lang, sum(c) AS clw FROM wcr GROUP BY word, lang
            ),
            grid AS (
              SELECT dw.word, lg.lang
              FROM (SELECT DISTINCT word FROM wcr) dw CROSS JOIN langs lg
            ),
            lp AS (
              SELECT g.word, g.lang,
                CAST(floor(ln(CAST(coalesce(cw.clw, 0) + 1 AS DOUBLE)
                              / CAST(lt.t + vd.v AS DOUBLE))
                           * 1000000.0 + 0.5) AS BIGINT) AS lp_e6
              FROM grid g
              LEFT JOIN cw ON cw.word = g.word AND cw.lang = g.lang
              JOIN lt ON lt.lang = g.lang, vd
            ),
            sc AS (
              SELECT wcr.doc_id, lp.lang, wcr.lang AS true_lang,
                     sum(wcr.c * lp.lp_e6) AS score
              FROM wcr JOIN lp ON lp.word = wcr.word
              GROUP BY 1, 2, 3
            ),
            pred AS (
              SELECT doc_id, true_lang, lang AS pred_lang,
                row_number() OVER (
                  PARTITION BY doc_id ORDER BY score DESC, lang) AS rn
              FROM sc
            )
            SELECT true_lang, pred_lang, CAST(count(*) AS BIGINT) AS n
            FROM pred WHERE rn = 1 GROUP BY 1, 2
        """,
        "fd_discovery": """
            WITH cols(lhs) AS (
              VALUES ('o_orderkey'), ('o_custkey'),
                     ('o_orderstatus'), ('o_orderpriority')
            ),
            pairs AS (
              SELECT a.lhs, b.lhs AS rhs FROM cols a JOIN cols b
              ON a.lhs != b.lhs
            ),
            d AS (
              SELECT 'o_orderkey' AS c, count(DISTINCT o_orderkey) AS n
                FROM orders
              UNION ALL SELECT 'o_custkey', count(DISTINCT o_custkey)
                FROM orders
              UNION ALL SELECT 'o_orderstatus', count(DISTINCT o_orderstatus)
                FROM orders
              UNION ALL SELECT 'o_orderpriority',
                count(DISTINCT o_orderpriority) FROM orders
            ),
            pd AS (
              SELECT p.lhs, p.rhs,
                CASE p.lhs || '|' || p.rhs
                  WHEN 'o_orderkey|o_custkey' THEN
                    (SELECT count(DISTINCT (o_orderkey, o_custkey)) FROM orders)
                  WHEN 'o_custkey|o_orderkey' THEN
                    (SELECT count(DISTINCT (o_orderkey, o_custkey)) FROM orders)
                  WHEN 'o_orderkey|o_orderstatus' THEN
                    (SELECT count(DISTINCT (o_orderkey, o_orderstatus)) FROM orders)
                  WHEN 'o_orderstatus|o_orderkey' THEN
                    (SELECT count(DISTINCT (o_orderkey, o_orderstatus)) FROM orders)
                  WHEN 'o_orderkey|o_orderpriority' THEN
                    (SELECT count(DISTINCT (o_orderkey, o_orderpriority)) FROM orders)
                  WHEN 'o_orderpriority|o_orderkey' THEN
                    (SELECT count(DISTINCT (o_orderkey, o_orderpriority)) FROM orders)
                  WHEN 'o_custkey|o_orderstatus' THEN
                    (SELECT count(DISTINCT (o_custkey, o_orderstatus)) FROM orders)
                  WHEN 'o_orderstatus|o_custkey' THEN
                    (SELECT count(DISTINCT (o_custkey, o_orderstatus)) FROM orders)
                  WHEN 'o_custkey|o_orderpriority' THEN
                    (SELECT count(DISTINCT (o_custkey, o_orderpriority)) FROM orders)
                  WHEN 'o_orderpriority|o_custkey' THEN
                    (SELECT count(DISTINCT (o_custkey, o_orderpriority)) FROM orders)
                  WHEN 'o_orderstatus|o_orderpriority' THEN
                    (SELECT count(DISTINCT (o_orderstatus, o_orderpriority)) FROM orders)
                  WHEN 'o_orderpriority|o_orderstatus' THEN
                    (SELECT count(DISTINCT (o_orderstatus, o_orderpriority)) FROM orders)
                END AS n_pairs
              FROM pairs p
            )
            SELECT pd.lhs, pd.rhs,
                   CAST(d.n AS BIGINT) AS n_lhs,
                   CAST(pd.n_pairs AS BIGINT) AS n_pairs,
                   CAST(pd.n_pairs - d.n AS BIGINT) AS violations,
                   CAST(CASE WHEN pd.n_pairs = d.n THEN 1 ELSE 0 END
                        AS BIGINT) AS holds
            FROM pd JOIN d ON d.c = pd.lhs
        """,
        "rbo_rankings": f"""
            WITH f AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN CAST(0 AS BIGINT)
                     ELSE (len(list_filter(
                             regexp_split_to_array(trim(text), '\\s+'),
                             w -> lower(w) IN ({_EN_STOP})))::BIGINT
                           * 1000000)
                          // len(regexp_split_to_array(trim(text), '\\s+'))
                END AS q_e6,
                len(regexp_extract_all(text, '\\w+|[^\\w\\s]'))::BIGINT
                  AS bpe_tokens
              FROM documents
            ),
            ra AS (
              SELECT doc_id, row_number() OVER (
                ORDER BY q_e6 DESC, doc_id) AS rk FROM f
            ),
            rb AS (
              SELECT doc_id, row_number() OVER (
                ORDER BY bpe_tokens DESC, doc_id) AS rk FROM f
            ),
            ov AS (
              SELECT dd.d, count(*) AS overlap
              FROM (SELECT unnest(range(1, 51)) AS d) dd
              JOIN ra ON ra.rk <= dd.d
              JOIN rb ON rb.doc_id = ra.doc_id AND rb.rk <= dd.d
              GROUP BY dd.d
            ),
            t AS (
              SELECT CAST(dd.d AS BIGINT) AS d,
                     CAST(coalesce(ov.overlap, 0) AS BIGINT) AS overlap,
                     CAST(floor(
                       0.09999999999999998 * power(0.9, dd.d - 1)
                       * coalesce(ov.overlap, 0) / dd.d
                       * 1000000000.0 + 0.5) AS BIGINT) AS term_e9
              FROM (SELECT unnest(range(1, 51)) AS d) dd
              LEFT JOIN ov ON ov.d = dd.d
            )
            SELECT d, overlap, term_e9,
                   CAST(sum(term_e9) OVER (
                     ORDER BY d ROWS UNBOUNDED PRECEDING) AS BIGINT)
                     AS rbo_e9
            FROM t
        """,
        "ndcg_rankings": f"""
            WITH f AS (
              SELECT doc_id,
                CASE WHEN trim(text) = '' THEN CAST(0 AS BIGINT)
                     ELSE (len(list_filter(
                             regexp_split_to_array(trim(text), '\\s+'),
                             w -> lower(w) IN ({_EN_STOP})))::BIGINT
                           * 1000000)
                          // len(regexp_split_to_array(trim(text), '\\s+'))
                END // 250000 AS rel,
                len(regexp_extract_all(text, '\\w+|[^\\w\\s]'))::BIGINT
                  AS bpe_tokens
              FROM documents
            ),
            head AS (
              SELECT rel, row_number() OVER (
                ORDER BY bpe_tokens DESC, doc_id) AS rk
              FROM f QUALIFY rk <= 10
            ),
            ideal AS (
              SELECT rel, row_number() OVER (ORDER BY rel DESC) AS rk
              FROM f QUALIFY rk <= 10
            ),
            disc AS (
              SELECT CAST(t.r AS BIGINT) AS rk,
                     CAST(floor(1000000.0 / log2(t.r + 1) + 0.5) AS BIGINT)
                       AS d
              FROM (SELECT unnest(range(1, 11)) AS r) t
            ),
            dcg AS (
              SELECT sum(h.rel * disc.d) AS v
              FROM head h JOIN disc ON disc.rk = h.rk
            ),
            idcg AS (
              SELECT sum(i.rel * disc.d) AS v
              FROM ideal i JOIN disc ON disc.rk = i.rk
            )
            SELECT CAST(10 AS BIGINT) AS k,
                   CAST(dcg.v AS BIGINT) AS dcg_e6,
                   CAST(idcg.v AS BIGINT) AS idcg_e6,
                   CAST(CASE WHEN idcg.v > 0
                        THEN dcg.v * 1000000 // idcg.v
                        ELSE 0 END AS BIGINT) AS ndcg_e6
            FROM dcg, idcg
        """,
        "rich_club": """
            WITH e AS (
              SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,
                     GREATEST(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
              WHERE a.l_quantity >= 25 AND b.l_quantity >= 25
            ),
            deg AS (
              SELECT node, count(*) AS d FROM (
                SELECT u AS node FROM e UNION ALL SELECT v FROM e)
              GROUP BY node
            ),
            ks(k) AS (VALUES (1), (2), (4), (8), (16)),
            nk AS (
              SELECT k, count(*) AS n_nodes
              FROM ks JOIN deg ON deg.d > ks.k GROUP BY k
            ),
            ek AS (
              SELECT k, count(*) AS n_edges
              FROM ks
              JOIN e ON TRUE
              JOIN deg du ON du.node = e.u
              JOIN deg dv ON dv.node = e.v
              WHERE du.d > ks.k AND dv.d > ks.k
              GROUP BY k
            )
            SELECT CAST(ks.k AS BIGINT) AS k,
                   CAST(coalesce(nk.n_nodes, 0) AS BIGINT) AS n_nodes,
                   CAST(coalesce(ek.n_edges, 0) AS BIGINT) AS n_edges,
                   CAST(CASE WHEN coalesce(nk.n_nodes, 0) >= 2
                        THEN 2 * coalesce(ek.n_edges, 0) * 1000000
                             // (nk.n_nodes * (nk.n_nodes - 1))
                        ELSE 0 END AS BIGINT) AS phi_e6
            FROM ks LEFT JOIN nk USING (k) LEFT JOIN ek USING (k)
        """,
        "l_diversity": """
            WITH p AS (
              SELECT c_nationkey, c_mktsegment,
                     CAST(floor(c_acctbal / 1000.0) AS BIGINT) AS sens,
                     count(*) AS n
              FROM customer GROUP BY 1, 2, 3
            )
            SELECT c_nationkey, c_mktsegment,
                   CAST(sum(n) AS BIGINT) AS k,
                   CAST(count(*) AS BIGINT) AS l
            FROM p GROUP BY 1, 2 HAVING count(*) < 5
        """,
        "t_closeness": """
            WITH r AS (
              SELECT c_nationkey, c_mktsegment,
                     CAST(floor(c_acctbal / 1000.0) AS BIGINT) AS band
              FROM customer
            ),
            gb AS (SELECT band, count(*) AS gc FROM r GROUP BY band),
            tot AS (SELECT sum(gc) AS n, count(*) AS nb FROM gb),
            gcum AS (
              SELECT band, sum(gc) OVER (
                ORDER BY band ROWS UNBOUNDED PRECEDING) AS cum_all
              FROM gb
            ),
            grp AS (
              SELECT c_nationkey, c_mktsegment, band, count(*) AS c
              FROM r GROUP BY 1, 2, 3
            ),
            gn AS (
              SELECT c_nationkey, c_mktsegment, sum(c) AS ng
              FROM grp GROUP BY 1, 2
            ),
            grid AS (
              SELECT g.c_nationkey, g.c_mktsegment, g.ng, b.band
              FROM gn g CROSS JOIN gb b
            ),
            cells AS (
              SELECT grid.c_nationkey, grid.c_mktsegment, grid.ng,
                     grid.band, coalesce(grp.c, 0) AS c
              FROM grid
              LEFT JOIN grp
                ON grp.c_nationkey = grid.c_nationkey
               AND grp.c_mktsegment = grid.c_mktsegment
               AND grp.band = grid.band
            ),
            cums AS (
              SELECT c_nationkey, c_mktsegment, ng, band,
                     sum(c) OVER (
                       PARTITION BY c_nationkey, c_mktsegment
                       ORDER BY band ROWS UNBOUNDED PRECEDING) AS cumg
              FROM cells
            ),
            s AS (
              SELECT c.c_nationkey, c.c_mktsegment, c.ng,
                     sum(abs(c.cumg * tot.n - gcum.cum_all * c.ng)) AS sgap
              FROM cums c JOIN gcum USING (band), tot
              GROUP BY 1, 2, 3
            )
            SELECT s.c_nationkey, s.c_mktsegment,
                   CAST(s.ng AS BIGINT) AS n,
                   CAST(CASE WHEN tot.nb > 1
                        THEN floor(s.sgap * 1000000.0
                             / (CAST(s.ng AS DOUBLE) * CAST(tot.n AS DOUBLE)
                                * CAST(tot.nb - 1 AS DOUBLE)) + 0.5)
                        ELSE 0 END AS BIGINT) AS t_e6
            FROM s, tot
        """,
        "zipf_slope": f"""
            WITH toks AS (
              SELECT lang,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            tc AS (
              SELECT lang AS grp, unnest(arr) AS token FROM toks
            ),
            cnt AS (
              SELECT grp, token, count(*) AS c FROM tc GROUP BY grp, token
            ),
            r AS (
              SELECT grp, c,
                     row_number() OVER (
                       PARTITION BY grp ORDER BY c DESC, token) AS rk
              FROM cnt
            ),
            q AS (
              SELECT grp,
                CAST(floor(ln(CAST(rk AS DOUBLE)) * 1000.0 + 0.5) AS BIGINT)
                  AS x,
                CAST(floor(ln(CAST(c AS DOUBLE)) * 1000.0 + 0.5) AS BIGINT)
                  AS y
              FROM r
            ),
            s AS (
              SELECT grp, count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                     sum(x*y) AS sxy, sum(x*x) AS sxx
              FROM q GROUP BY grp
            )
            SELECT grp, CAST(n AS BIGINT) AS n_types,
                   CAST(floor(
                     (CAST(n*sxy - sx*sy AS DOUBLE) * 1000000.0)
                       / CAST(n*sxx - sx*sx AS DOUBLE) + 0.5) AS BIGINT)
                     AS slope_e6
            FROM s WHERE n*sxx - sx*sx != 0
        """,
        "pareto_users": """
            WITH m AS (
              SELECT event_type, user_id,
                     CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS mv
              FROM events GROUP BY event_type, user_id
            ), r AS (
              SELECT event_type, mv,
                     sum(mv) OVER (PARTITION BY event_type
                                   ORDER BY mv DESC, user_id) AS cum,
                     sum(mv) OVER (PARTITION BY event_type) AS total,
                     count(*) OVER (PARTITION BY event_type) AS n_members,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY mv DESC, user_id) AS rn
              FROM m
            )
            SELECT event_type,
                   CAST(min(CASE WHEN 5 * cum >= 4 * total THEN rn END)
                        AS BIGINT) AS n_top,
                   CAST(max(n_members) AS BIGINT) AS n_members,
                   CAST(max(total) AS BIGINT) AS total_units
            FROM r GROUP BY event_type
        """,
        "price_deciles": """
            WITH u AS (
              SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS v_u
              FROM lineitem
            ), q AS (
              SELECT unnest(quantile_disc(v_u,
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])) AS e
              FROM u
            ), b AS (
              SELECT v_u,
                     1 + (SELECT count(*) FROM q WHERE q.e < u.v_u) AS decile
              FROM u
            )
            SELECT CAST(decile AS BIGINT) AS decile,
                   CAST(sum(v_u) AS BIGINT) AS sum_units,
                   count(*) AS n
            FROM b GROUP BY decile
        """,
        "ngram_containment": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            )
            SELECT u, v,
                   len(list_intersect(ga.gs, gb.gs))::double
                     / least(len(ga.gs), len(gb.gs))::double AS containment
            FROM cand
            JOIN grams ga ON ga.doc_id = cand.u
            JOIN grams gb ON gb.doc_id = cand.v
            WHERE len(list_intersect(ga.gs, gb.gs))::double
                  / least(len(ga.gs), len(gb.gs))::double >= 0.8
        """,
        "bcubed_stats": """
            WITH k AS (
              SELECT CASE WHEN trim(text) = '' THEN ''
                     ELSE regexp_split_to_array(trim(text), '\\s+')[1]
                     END AS bkey,
                     md5(text) AS tkey
              FROM documents
            ), c AS (
              SELECT bkey, tkey, count(*) AS n FROM k GROUP BY bkey, tkey
            )
            SELECT bkey, tkey, CAST(n AS BIGINT) AS n,
                   CAST(sum(n) OVER (PARTITION BY bkey) AS BIGINT) AS csize,
                   CAST(sum(n) OVER (PARTITION BY tkey) AS BIGINT) AS tsize
            FROM c
        """,
        "component_sizes": f"""
            WITH RECURSIVE toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            pairs AS (
              SELECT u, v
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
              WHERE len(list_intersect(ga.gs, gb.gs))::double
                    / (len(ga.gs) + len(gb.gs)
                       - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
            ),
            edges AS (
              SELECT u AS a, v AS b FROM pairs
              UNION ALL
              SELECT v AS a, u AS b FROM pairs
            ),
            lab(v, l) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.a, lab.l FROM edges e JOIN lab ON lab.v = e.b
            ),
            comp AS (SELECT v, min(l) AS l FROM lab GROUP BY v),
            s AS (SELECT l, count(*) AS size FROM comp GROUP BY l)
            SELECT CAST(size AS BIGINT) AS size,
                   CAST(count(*) AS BIGINT) AS n_components
            FROM s GROUP BY size
        """,
        "fd_violations": """
            SELECT source, count(DISTINCT lang) AS n_rhs,
                   count(*) AS n_rows
            FROM documents
            GROUP BY source
            HAVING count(DISTINCT lang) >= 2
        """,
        "iqr_outliers": """
            WITH u AS (
              SELECT event_id, event_type,
                     CAST(round(value * 1000000) AS BIGINT) AS v_u
              FROM events
            ), q AS (
              SELECT event_type,
                     quantile_disc(v_u, 0.25) AS q1,
                     quantile_disc(v_u, 0.75) AS q3
              FROM u GROUP BY event_type
            )
            SELECT u.event_id, u.event_type, u.v_u
            FROM u JOIN q USING (event_type)
            WHERE 2 * u.v_u < 2 * q.q1 - 3 * (q.q3 - q.q1)
               OR 2 * u.v_u > 2 * q.q3 + 3 * (q.q3 - q.q1)
        """,
        "profile_orders": """
            SELECT 'o_orderkey' AS "column",
                   count(*) - count(o_orderkey) AS n_null,
                   count(DISTINCT o_orderkey) AS n_distinct,
                   min(CAST(o_orderkey AS VARCHAR)) AS min_v,
                   max(CAST(o_orderkey AS VARCHAR)) AS max_v
            FROM orders
            UNION ALL
            SELECT 'o_custkey', count(*) - count(o_custkey),
                   count(DISTINCT o_custkey),
                   min(CAST(o_custkey AS VARCHAR)),
                   max(CAST(o_custkey AS VARCHAR))
            FROM orders
            UNION ALL
            SELECT 'o_orderstatus', count(*) - count(o_orderstatus),
                   count(DISTINCT o_orderstatus),
                   min(o_orderstatus), max(o_orderstatus)
            FROM orders
            UNION ALL
            SELECT 'o_orderpriority', count(*) - count(o_orderpriority),
                   count(DISTINCT o_orderpriority),
                   min(o_orderpriority), max(o_orderpriority)
            FROM orders
        """,
        "heavy_tokens": f"""
            WITH {tok_cte}
            SELECT word AS item, count(*) AS count
            FROM tokens
            GROUP BY word
            HAVING count(*) > 0.01 * (SELECT count(*) FROM tokens)
        """,
        "mutual_best_fuzzy": """
            WITH p AS (
              SELECT a.c_custkey AS u, b.c_custkey AS v,
                     levenshtein(a.c_name, b.c_name) AS s
              FROM customer a JOIN customer b
                ON a.c_nationkey = b.c_nationkey
               AND a.c_custkey < b.c_custkey
              WHERE levenshtein(a.c_name, b.c_name) <= 2
            ), sym AS (
              SELECT u AS a, v AS b, s FROM p
              UNION ALL
              SELECT v AS a, u AS b, s FROM p
            ), best AS (
              SELECT a, b, s,
                     row_number() OVER (PARTITION BY a ORDER BY s, b) AS rk
              FROM sym
            )
            SELECT x.a AS u, x.b AS v, CAST(x.s AS BIGINT) AS lev
            FROM best x JOIN best y ON x.b = y.a AND y.b = x.a
            WHERE x.rk = 1 AND y.rk = 1 AND x.a < x.b
        """,
        "user_state_intervals": """
            WITH s AS (
              SELECT user_id, epoch_us(ts) AS tus, event_id, event_type,
                     CASE WHEN LAG(event_type) OVER w
                               IS DISTINCT FROM event_type
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), i AS (
              SELECT user_id, tus, event_type,
                     sum(brk) OVER (PARTITION BY user_id
                                    ORDER BY tus, event_id) AS island
              FROM s
            )
            SELECT user_id, event_type AS state,
                   min(tus) AS start_us, max(tus) AS end_us,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM i GROUP BY user_id, island, event_type
        """,
        "progressive_pairs": """
            WITH r AS (
              SELECT doc_id,
                     row_number() OVER (
                       ORDER BY substr(COALESCE(text, ''), 1, 40), doc_id
                     ) AS rn,
                     count(*) OVER () AS n
              FROM documents
            )
            SELECT * FROM (
              SELECT a.doc_id AS u, b.doc_id AS v,
                     CAST(b.rn - a.rn AS BIGINT) AS gap,
                     CAST((b.rn - a.rn - 1) * a.n
                          - (b.rn - a.rn) * (b.rn - a.rn - 1) // 2
                          + a.rn AS BIGINT) AS ord
              FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 5
            ) WHERE ord <= 2000
        """,
        "snm_pairs": """
            WITH r AS (
              SELECT doc_id,
                     row_number() OVER (
                       ORDER BY substr(COALESCE(text, ''), 1, 40), doc_id
                     ) AS rn
              FROM documents
            )
            SELECT a.doc_id AS u, b.doc_id AS v,
                   CAST(b.rn - a.rn AS BIGINT) AS gap
            FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 5
        """,
        "cross_source_pairs": """
            SELECT a.c_custkey AS a_id, b.s_suppkey AS b_id,
                   CAST(levenshtein(a.c_name, b.s_name) AS BIGINT) AS lev
            FROM customer a JOIN supplier b
              ON a.c_nationkey = b.s_nationkey
            WHERE levenshtein(a.c_name, b.s_name) <= 7
        """,
        "cross_source_links": """
            WITH p AS (
              SELECT a.c_custkey AS a_id, b.s_suppkey AS b_id,
                     levenshtein(a.c_name, b.s_name) AS lev
              FROM customer a JOIN supplier b
                ON a.c_nationkey = b.s_nationkey
              WHERE levenshtein(a.c_name, b.s_name) <= 7
            ),
            ra AS (
              SELECT a_id, b_id, lev, row_number() OVER (
                PARTITION BY a_id ORDER BY lev, b_id) AS rn
              FROM p
            ),
            rb AS (
              SELECT a_id, b_id, row_number() OVER (
                PARTITION BY b_id ORDER BY lev, a_id) AS rn
              FROM p
            )
            SELECT ra.a_id, ra.b_id, CAST(ra.lev AS BIGINT) AS lev
            FROM ra JOIN rb ON rb.a_id = ra.a_id AND rb.b_id = ra.b_id
            WHERE ra.rn = 1 AND rb.rn = 1
        """,
        "fuzzy_customer_pairs": """
            SELECT a.c_custkey AS u, b.c_custkey AS v,
                   CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS lev
            FROM customer a JOIN customer b
              ON a.c_nationkey = b.c_nationkey
             AND a.c_custkey < b.c_custkey
            WHERE levenshtein(a.c_name, b.c_name) <= 2
        """,
        "dl_supplier_pairs": """
            SELECT a.s_suppkey AS u, b.s_suppkey AS v,
                   CAST(damerau_levenshtein(a.s_name, b.s_name) AS BIGINT)
                     AS dl
            FROM supplier a JOIN supplier b
              ON a.s_nationkey = b.s_nationkey
             AND a.s_suppkey < b.s_suppkey
            WHERE damerau_levenshtein(a.s_name, b.s_name) <= 2
        """,
        "snapshot_diff": """
            WITH o AS (
              SELECT o_orderkey AS k,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS p
              FROM orders WHERE o_orderkey % 7 != 0
            ), n AS (
              SELECT o_orderkey AS k,
                     CAST(round(o_totalprice * 100) AS BIGINT)
                       * (CASE WHEN o_orderkey % 3 = 0 THEN 2 ELSE 1 END) AS p
              FROM orders WHERE o_orderkey % 5 != 0
            )
            SELECT COALESCE(o.k, n.k) AS key,
                   CASE WHEN o.k IS NULL THEN 'added'
                        WHEN n.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status,
                   COALESCE(o.p, -1) AS old_units,
                   COALESCE(n.p, -1) AS new_units
            FROM o FULL OUTER JOIN n ON o.k = n.k
            WHERE o.k IS NULL OR n.k IS NULL OR o.p != n.p
        """,
        "blocking_metrics": """
            WITH k AS (
              SELECT CASE WHEN trim(text) = '' THEN ''
                     ELSE regexp_split_to_array(trim(text), '\\s+')[1]
                     END AS bkey,
                     md5(text) AS tkey
              FROM documents
            ), c1 AS (SELECT bkey, count(*) AS c FROM k GROUP BY bkey),
               c2 AS (SELECT tkey, count(*) AS c FROM k GROUP BY tkey),
               c3 AS (SELECT bkey, tkey, count(*) AS c
                      FROM k GROUP BY bkey, tkey)
            SELECT
              CAST((SELECT sum(c*(c-1)//2) FROM c1) AS BIGINT)
                AS n_candidate_pairs,
              CAST((SELECT sum(c*(c-1)//2) FROM c2) AS BIGINT)
                AS n_true_pairs,
              CAST((SELECT sum(c*(c-1)//2) FROM c3) AS BIGINT)
                AS n_covered_pairs
        """,
        "block_split_plan": """
            WITH k AS (
              SELECT CASE WHEN trim(text) = '' THEN ''
                     ELSE regexp_split_to_array(trim(text), '\\s+')[1]
                     END AS bkey
              FROM documents
            ),
            b AS (
              SELECT bkey, count(*) AS s FROM k
              GROUP BY bkey HAVING count(*) >= 2
            ),
            c AS (SELECT bkey, s, s*(s-1)//2 AS cb FROM b),
            tot AS (SELECT (sum(cb) + 7) // 8 AS av FROM c),
            par AS (
              SELECT bkey, s, cb,
                CASE WHEN cb <= av THEN 1
                     ELSE least(s, CAST(ceil(
                       (sqrt(8*((cb + av - 1)//av) + 1) - 1) / 2)
                       AS BIGINT))
                END AS nk
              FROM c, tot
            ),
            sub AS (
              SELECT bkey, s, nk, a.i AS ci, bb.j AS cj
              FROM par,
                   unnest(range(0, nk)) AS a(i),
                   unnest(range(0, nk)) AS bb(j)
              WHERE a.i <= bb.j
            ),
            w AS (
              SELECT bkey, ci, cj,
                s // nk + CASE WHEN ci < s % nk THEN 1 ELSE 0 END AS n_i,
                s // nk + CASE WHEN cj < s % nk THEN 1 ELSE 0 END AS n_j
              FROM sub
            ),
            x AS (
              SELECT bkey, ci, cj, n_i, n_j,
                CASE WHEN ci = cj THEN n_i*(n_i-1)//2
                     ELSE n_i*n_j END AS n_comp
              FROM w
            )
            SELECT bkey AS block_key,
                   CAST(ci AS BIGINT) AS chunk_i,
                   CAST(cj AS BIGINT) AS chunk_j,
                   CAST(n_i AS BIGINT) AS n_i,
                   CAST(n_j AS BIGINT) AS n_j,
                   CAST(n_comp AS BIGINT) AS n_comparisons,
                   CAST((row_number() OVER (
                     ORDER BY n_comp DESC, ci, cj, bkey) - 1) % 8
                     AS BIGINT) AS reducer
            FROM x WHERE n_comp > 0
        """,
        "bigram_counts": """
            WITH arr AS (
              SELECT regexp_split_to_array(trim(text), '\\s+') AS a
              FROM documents
            ), z AS (
              SELECT unnest(list_zip(a[1:len(a)-1], a[2:])) AS pr
              FROM arr WHERE len(a) >= 2 AND a[1] != ''
            )
            SELECT pr[1] AS w1, pr[2] AS w2, CAST(count(*) AS BIGINT) AS n
            FROM z GROUP BY w1, w2 HAVING count(*) >= 2
        """,
        "lexical_diversity": """
            WITH arr AS (
              SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS a
              FROM documents
            ), t AS (
              SELECT doc_id, unnest(a) AS w
              FROM arr WHERE len(a) >= 1 AND a[1] != ''
            ), c AS (
              SELECT doc_id, w, count(*) AS c FROM t GROUP BY doc_id, w
            )
            SELECT doc_id,
                   CAST(sum(c) AS BIGINT) AS n_tokens,
                   CAST(count(*) AS BIGINT) AS n_unique,
                   CAST(sum(c * (c - 1)) AS BIGINT) AS simpson_num
            FROM c GROUP BY doc_id
        """,
        "event_rank": """
            WITH u AS (
              SELECT event_id, event_type,
                     CAST(round(value * 10000) AS BIGINT) AS v
              FROM events
            )
            SELECT event_id, event_type, v AS value_units,
                   CAST(rank() OVER (
                     PARTITION BY event_type ORDER BY v DESC
                   ) AS BIGINT) AS rnk
            FROM u
        """,
        "orders_above_avg": """
            WITH u AS (
              SELECT o_orderkey, o_custkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS v
              FROM orders
            )
            SELECT o_orderkey, o_custkey, v AS value_units
            FROM u
            QUALIFY v * count(*) OVER (PARTITION BY o_custkey)
                    > sum(v) OVER (PARTITION BY o_custkey)
        """,
        "type_overlap": """
            WITH d AS (SELECT DISTINCT event_type, user_id FROM events)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(count(*) AS BIGINT) AS n_common
            FROM d a JOIN d b
              ON a.user_id = b.user_id AND a.event_type <= b.event_type
            GROUP BY type_a, type_b
        """,
        "user_streaks": """
            WITH d AS (
              SELECT DISTINCT user_id,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
              FROM events
            ), i AS (
              SELECT user_id, day,
                     day - row_number() OVER (
                       PARTITION BY user_id ORDER BY day
                     ) AS grp
              FROM d
            ), s AS (
              SELECT user_id, grp, count(*) AS len
              FROM i GROUP BY user_id, grp
            )
            SELECT user_id,
                   CAST(sum(len) AS BIGINT) AS n_active_days,
                   CAST(count(*) AS BIGINT) AS n_streaks,
                   CAST(max(len) AS BIGINT) AS longest_streak
            FROM s GROUP BY user_id
        """,
        "event_transitions": """
            WITH s AS (
              SELECT event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS prev_type
              FROM events
            )
            SELECT prev_type, event_type AS next_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM s WHERE prev_type IS NOT NULL
            GROUP BY prev_type, next_type
        """,
        "interarrival_stats": """
            WITH s AS (
              SELECT user_id,
                     epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS gap_us
              FROM events
            )
            SELECT user_id,
                   CAST(count(gap_us) AS BIGINT) AS n_gaps,
                   CAST(sum(gap_us) AS BIGINT) AS sum_gap_us,
                   CAST(max(gap_us) AS BIGINT) AS max_gap_us
            FROM s WHERE gap_us IS NOT NULL
            GROUP BY user_id
        """,
        "gini_by_nation": """
            WITH r AS (
              SELECT c_nationkey,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS x,
                     CAST(row_number() OVER (
                       PARTITION BY c_nationkey ORDER BY c_acctbal
                     ) AS BIGINT) AS i
              FROM customer
            )
            SELECT c_nationkey,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sum_units,
                   CAST(2 * sum(i * x) - (count(*) + 1) * sum(x)
                        AS BIGINT) AS gini_num,
                   CAST(count(*) * sum(x) AS BIGINT) AS gini_den
            FROM r GROUP BY c_nationkey
        """,
        "event_value_delta": """
            WITH u AS (
              SELECT event_id, user_id, ts,
                     CAST(round(value * 10000) AS BIGINT) AS v_e4
              FROM events
            )
            SELECT event_id, user_id,
                   v_e4 - lag(v_e4) OVER w AS delta_e4
            FROM u
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            QUALIFY lag(v_e4) OVER w IS NOT NULL
        """,
        "event_value_share": """
            WITH u AS (
              SELECT event_id, event_type,
                     CAST(round(value * 10000) AS BIGINT) AS value_e4
              FROM events
            )
            SELECT event_id, event_type, value_e4,
                   CAST(sum(value_e4) OVER (PARTITION BY event_type)
                        AS BIGINT) AS group_total_e4,
                   CAST((value_e4 * 1000000)
                        // sum(value_e4) OVER (PARTITION BY event_type)
                        AS BIGINT) AS share_ppm
            FROM u
        """,
        "unpivot_token_stats": r"""
            WITH t AS (
              SELECT doc_id,
                CAST(CASE WHEN trim(text) = '' THEN 0
                     ELSE len(regexp_split_to_array(trim(text), '\s+'))
                END AS BIGINT) AS ws_tokens,
                len(regexp_extract_all(text, '\w+|[^\w\s]'))::BIGINT
                  AS bpe_tokens
              FROM documents
            )
            SELECT doc_id, 'ws_tokens' AS metric, ws_tokens AS value FROM t
            UNION ALL
            SELECT doc_id, 'bpe_tokens', bpe_tokens FROM t
        """,
        # linkage_clusters / embedding_clusters: edge provenance (MinHash-
        # scored pairs / fitted centroids) isn't SQL-expressible, so each
        # query dumps that deterministic intermediate to scratch parquet
        # (_dump_for_oracle) and the oracle recomputes the downstream
        # operator — min-label closure / nearest-centroid assignment —
        # independently in SQL over exactly the same input.
        "linkage_clusters": f"""
            WITH RECURSIVE pairs AS (
              SELECT u, v
              FROM read_parquet('{_ORACLE_AUX}/linkage_edges/*.parquet')
            ),
            edges AS (
              SELECT u AS a, v AS b FROM pairs
              UNION ALL
              SELECT v AS a, u AS b FROM pairs
            ),
            lab(v, l) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.a, lab.l FROM edges e JOIN lab ON lab.v = e.b
            )
            SELECT CAST(v AS BIGINT) AS node,
                   CAST(min(l) AS BIGINT) AS component
            FROM lab GROUP BY v
        """,
        "embedding_clusters": f"""
            WITH c AS (
              SELECT cluster, centroid
              FROM read_parquet('{_ORACLE_AUX}/kmeans_centroids/*.parquet')
            ),
            e AS (
              SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
            ),
            n AS (
              SELECT vec_id, v, sqrt(list_dot_product(v, v)) AS nrm FROM e
            ),
            sims AS (
              SELECT n.vec_id, c.cluster,
                     list_dot_product(n.v, c.centroid)
                       / (CASE WHEN n.nrm = 0 THEN 1.0 ELSE n.nrm END) AS cos
              FROM n CROSS JOIN c
            ),
            best AS (
              SELECT vec_id, cluster, cos,
                     row_number() OVER (
                       PARTITION BY vec_id
                       ORDER BY cos DESC, cluster ASC) AS rn
              FROM sims
            )
            SELECT cluster,
                   CAST(count(*) AS BIGINT) AS n_vectors,
                   round(sum(cos) / count(*), 6) AS mean_cosine
            FROM best WHERE rn = 1
            GROUP BY cluster
        """,
        "event_user_entropy": """
            WITH c AS (
              SELECT event_type, user_id,
                     CAST(count(*) AS DOUBLE) AS c
              FROM events GROUP BY event_type, user_id
            ),
            r AS (
              SELECT event_type,
                     CAST(sum(CAST(c AS BIGINT)) AS BIGINT) AS n_rows,
                     sum(c * ln(c)) AS sclnc
              FROM c GROUP BY event_type
            )
            SELECT event_type,
                   CAST(floor((ln(CAST(n_rows AS DOUBLE))
                               - sclnc / CAST(n_rows AS DOUBLE))
                              * 1000000.0 + 0.5) AS BIGINT) AS entropy_e6,
                   n_rows
            FROM r
        """,
        "hll_distinct_users": """
            WITH h AS (
              SELECT DISTINCT event_type,
                     ('0x' || substr(md5(user_id::VARCHAR), 1, 16))::UBIGINT AS hv
              FROM events
            ),
            rho AS (
              SELECT event_type, CAST(hv >> 56 AS BIGINT) AS reg,
                     CASE WHEN (hv & 72057594037927935) = 0 THEN 57
                          ELSE 57 - length(bin(hv & 72057594037927935))
                     END AS rho
              FROM h
            ),
            regs AS (
              SELECT event_type, reg, max(rho) AS max_rho
              FROM rho GROUP BY event_type, reg
            ),
            st AS (
              -- absent registers are rho 0: they add 2^57 to the exact
              -- harmonic sum T = sum(2^(57-rho)) and count as zeros
              SELECT event_type,
                     256 - count(*) AS v,
                     sum(max_rho) AS sum_rho,
                     sum(1::HUGEINT << (57 - max_rho))
                       + (256 - count(*)) * (1::HUGEINT << 57) AS t
              FROM regs GROUP BY event_type
            ),
            est AS (
              SELECT event_type, v, sum_rho,
                     CAST(0.7213 AS DOUBLE)
                       / (CAST(1.0 AS DOUBLE)
                          + CAST(1.079 AS DOUBLE) / CAST(256.0 AS DOUBLE))
                       * 65536.0 * 144115188075855872.0
                       / CAST(t AS DOUBLE) AS e
              FROM st
            )
            SELECT event_type,
                   CAST(v AS BIGINT) AS n_registers_zero,
                   CAST(sum_rho AS BIGINT) AS sum_rho,
                   CAST(floor(CASE WHEN e <= 640.0 AND v > 0
                                   THEN 256.0 * ln(256.0 / v)
                                   ELSE e END * 100.0 + 0.5)
                        AS BIGINT) AS hll_estimate_e2
            FROM est
        """,
        "winnow_pairs": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    x -> trim(x)),
                  x -> x != '') AS arr
              FROM documents
            ),
            gl AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_transform(range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2])
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            h AS (
              SELECT doc_id, unnest(gs) AS gram,
                     unnest(range(1, len(gs) + 1)) AS pos, len(gs) AS m
              FROM gl
            ),
            hh AS (
              SELECT doc_id, pos, m,
                     ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS hv
              FROM h
            ),
            -- windows of w=4 gram hashes; a doc with m < 4 grams has one
            -- degenerate window ending at its last gram
            wins AS (SELECT doc_id, pos AS e FROM hh WHERE pos >= least(4, m)),
            pick AS (
              SELECT w.doc_id, w.e, hh.pos,
                     row_number() OVER (PARTITION BY w.doc_id, w.e
                                        ORDER BY hh.hv ASC, hh.pos DESC) AS rk
              FROM wins w JOIN hh ON hh.doc_id = w.doc_id
                                  AND hh.pos BETWEEN w.e - 3 AND w.e
            ),
            selpos AS (SELECT DISTINCT doc_id, pos FROM pick WHERE rk = 1),
            fps AS (
              SELECT DISTINCT hh.doc_id, hh.hv
              FROM selpos JOIN hh ON hh.doc_id = selpos.doc_id
                                  AND hh.pos = selpos.pos
            ),
            keepfp AS (
              SELECT hv FROM fps GROUP BY hv HAVING count(*) <= 32
            )
            SELECT CAST(a.doc_id AS BIGINT) AS u,
                   CAST(b.doc_id AS BIGINT) AS v,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM fps a
            JOIN keepfp kf ON kf.hv = a.hv
            JOIN fps b ON b.hv = a.hv AND a.doc_id < b.doc_id
            GROUP BY 1, 2 HAVING count(*) >= 2
        """,
        "metablocking_wnp": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    x -> trim(x)),
                  x -> x != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            blocks AS (
              SELECT g FROM ex GROUP BY g HAVING count(*) <= 24
            ),
            kept AS (SELECT ex.doc_id, ex.g FROM ex JOIN blocks USING (g)),
            edges AS (
              SELECT a.doc_id AS u, b.doc_id AS v, count(*) AS w
              FROM kept a JOIN kept b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ),
            nodes AS (
              SELECT node, sum(w) AS s, count(*) AS d
              FROM (SELECT u AS node, w FROM edges
                    UNION ALL SELECT v AS node, w FROM edges)
              GROUP BY node
            )
            SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v,
                   CAST(w AS BIGINT) AS cbs
            FROM edges
            JOIN nodes nu ON nu.node = edges.u
            JOIN nodes nv ON nv.node = edges.v
            WHERE w * nu.d >= nu.s AND w * nv.d >= nv.s
        """,
        "metablocking_arcs": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    x -> trim(x)),
                  x -> x != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            blocks AS (
              SELECT g, count(*) AS nb FROM ex GROUP BY g
              HAVING count(*) <= 24
            ),
            kept AS (
              SELECT ex.doc_id, ex.g, blocks.nb
              FROM ex JOIN blocks USING (g)
            ),
            edges AS (
              SELECT a.doc_id AS u, b.doc_id AS v,
                     CAST(sum(1000000 // (a.nb * (a.nb - 1) // 2))
                       AS BIGINT) AS w
              FROM kept a JOIN kept b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ),
            nodes AS (
              SELECT node, sum(w) AS s, count(*) AS d
              FROM (SELECT u AS node, w FROM edges
                    UNION ALL SELECT v AS node, w FROM edges)
              GROUP BY node
            )
            SELECT CAST(u AS BIGINT) AS u, CAST(v AS BIGINT) AS v,
                   CAST(w AS BIGINT) AS arcs
            FROM edges
            JOIN nodes nu ON nu.node = edges.u
            JOIN nodes nv ON nv.node = edges.v
            WHERE w * nu.d >= nu.s AND w * nv.d >= nv.s
        """,
        "order_skyline": """
            WITH g AS (
              SELECT o_totalprice AS p, min(o_orderdate) AS dmin
              FROM orders GROUP BY 1
            ),
            r AS (
              SELECT p, dmin,
                     min(dmin) OVER (
                       ORDER BY p DESC
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ) AS prevmin
              FROM g
            )
            SELECT o.o_orderkey, o.o_totalprice, o.o_orderdate
            FROM orders o JOIN r ON o.o_totalprice = r.p
            WHERE o.o_orderdate = r.dmin
              AND (r.prevmin IS NULL OR o.o_orderdate < r.prevmin)
        """,
        "clustering_ari": r"""
            WITH lab AS (
              SELECT md5(substr(text, 1, 80)) AS la,
                     CASE WHEN trim(text) = '' THEN ''
                          ELSE regexp_split_to_array(trim(text), '\s+')[1]
                     END AS lb
              FROM documents
            ),
            cells AS (
              SELECT la, lb, count(*) AS n FROM lab GROUP BY la, lb
            ),
            ma AS (SELECT la, sum(n) AS sz FROM cells GROUP BY la),
            mb AS (SELECT lb, sum(n) AS sz FROM cells GROUP BY lb),
            s AS (
              SELECT
                (SELECT sum(n) FROM cells) AS n,
                (SELECT sum(n * (n - 1) // 2) FROM cells) AS si,
                (SELECT sum(sz * (sz - 1) // 2) FROM ma) AS sa,
                (SELECT sum(sz * (sz - 1) // 2) FROM mb) AS sb
            )
            SELECT CAST(n AS BIGINT) AS n_items,
                   CAST(si AS BIGINT) AS sum_comb_cells,
                   CAST(sa AS BIGINT) AS sum_comb_a,
                   CAST(sb AS BIGINT) AS sum_comb_b,
                   CAST(floor(
                     CASE
                       WHEN n * (n - 1) // 2 = 0 THEN 1.0
                       WHEN 0.5 * (CAST(sa AS DOUBLE) + CAST(sb AS DOUBLE))
                            - CAST(sa AS DOUBLE) * CAST(sb AS DOUBLE)
                              / CAST(n * (n - 1) // 2 AS DOUBLE) = 0.0
                         THEN 1.0
                       ELSE (CAST(si AS DOUBLE)
                             - CAST(sa AS DOUBLE) * CAST(sb AS DOUBLE)
                               / CAST(n * (n - 1) // 2 AS DOUBLE))
                            / (0.5 * (CAST(sa AS DOUBLE) + CAST(sb AS DOUBLE))
                               - CAST(sa AS DOUBLE) * CAST(sb AS DOUBLE)
                                 / CAST(n * (n - 1) // 2 AS DOUBLE))
                     END * 1000000.0 + 0.5) AS BIGINT) AS ari_e6
            FROM s
        """,
        "clustering_nmi": r"""
            WITH lab AS (
              SELECT md5(substr(text, 1, 80)) AS la,
                     CASE WHEN trim(text) = '' THEN ''
                          ELSE regexp_split_to_array(trim(text), '\s+')[1]
                     END AS lb
              FROM documents
            ),
            cells AS (
              SELECT la, lb, count(*) AS n FROM lab GROUP BY la, lb
            ),
            ma AS (SELECT la, sum(n) AS sz FROM cells GROUP BY la),
            mb AS (SELECT lb, sum(n) AS sz FROM cells GROUP BY lb),
            s AS (
              SELECT
                (SELECT sum(n) FROM cells) AS n,
                (SELECT CAST(sum(CAST(floor(CAST(n AS DOUBLE)
                     * ln(CAST(n AS DOUBLE)) * 1000000.0 + 0.5) AS BIGINT))
                   AS BIGINT) FROM cells) AS snn,
                (SELECT CAST(sum(CAST(floor(CAST(sz AS DOUBLE)
                     * ln(CAST(sz AS DOUBLE)) * 1000000.0 + 0.5) AS BIGINT))
                   AS BIGINT) FROM ma) AS saa,
                (SELECT CAST(sum(CAST(floor(CAST(sz AS DOUBLE)
                     * ln(CAST(sz AS DOUBLE)) * 1000000.0 + 0.5) AS BIGINT))
                   AS BIGINT) FROM mb) AS sbb
            ),
            f AS (
              SELECT n, snn, saa, sbb,
                     ln(CAST(n AS DOUBLE))
                       + CAST(snn - saa - sbb AS DOUBLE) / 1000000.0
                         / CAST(n AS DOUBLE) AS mi,
                     ln(CAST(n AS DOUBLE))
                       - CAST(saa AS DOUBLE) / 1000000.0
                         / CAST(n AS DOUBLE) AS ha,
                     ln(CAST(n AS DOUBLE))
                       - CAST(sbb AS DOUBLE) / 1000000.0
                         / CAST(n AS DOUBLE) AS hb
              FROM s
            )
            SELECT CAST(n AS BIGINT) AS n_items,
                   snn AS snn_u, saa AS saa_u, sbb AS sbb_u,
                   CAST(floor(
                     CASE WHEN ha <= 0.000001 OR hb <= 0.000001 THEN 0.0
                          ELSE mi / sqrt(ha * hb)
                     END * 1000000.0 + 0.5) AS BIGINT) AS nmi_e6
            FROM f
        """,
        "kcore_nodes": _kcore_sql(k=2, rounds=12, mult=3),
        "ktruss_edges": _ktruss_sql(k=4, rounds=6, qmin=25),
        "butterfly_count": """
            WITH e AS (
              SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem
            ),
            w AS (
              SELECT a.p AS p1, b.p AS p2, count(*) AS cn
              FROM e a JOIN e b ON a.s = b.s AND a.p < b.p
              GROUP BY 1, 2
            )
            SELECT CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
                   CAST(coalesce(sum(cn), 0) AS BIGINT) AS n_wedges,
                   CAST(count(*) AS BIGINT) AS n_left_pairs,
                   CAST(coalesce(sum(cn * (cn - 1) // 2), 0) AS BIGINT)
                     AS n_butterflies
            FROM w
        """,
        "bfs_hops": _bfs_sql(rounds=6),
        "landmark_closeness": _landmark_closeness_sql(rounds=4),
        "stress_centrality": _stress_sql(rounds=4),
        "weighted_paths": _sssp_sql(rounds=6),
        "cusum_alarms": """
            WITH e AS (
              SELECT user_id, ts, event_id,
                     CAST(round(value * 100, 0) AS BIGINT) - 6000 AS y
              FROM events
            ),
            c AS (
              SELECT user_id, ts, event_id, SUM(y) OVER w AS cum
              FROM e WINDOW w AS (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING)
            ),
            s AS (
              SELECT user_id, cum - LEAST(0, MIN(cum) OVER w) AS stat
              FROM c WINDOW w AS (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING)
            )
            SELECT user_id,
                   CAST(COUNT(CASE WHEN stat >= 20000 THEN 1 END) AS BIGINT)
                     AS n_alarms,
                   CAST(MAX(stat) AS BIGINT) AS max_stat_c,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM s GROUP BY user_id
        """,
        "ewma_user_value": """
            WITH e AS (
              SELECT event_id, user_id,
                     CAST(round(value * 100, 0) AS BIGINT) AS c,
                     ROW_NUMBER() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS rn
              FROM events
            )
            SELECT a.event_id,
                   CAST(SUM(b.c * (CAST(1 AS BIGINT) << (16 - (a.rn - b.rn))))
                        AS BIGINT) AS ewma_num
            FROM e a JOIN e b
              ON a.user_id = b.user_id AND b.rn BETWEEN a.rn - 16 AND a.rn
            GROUP BY a.event_id
        """,
        "attribution": """
            WITH e AS (
              SELECT user_id, ts, event_id, event_type,
                     CAST(round(value * 100, 0) AS BIGINT) AS c,
                     CASE WHEN event_type IN ('click', 'view')
                          THEN event_type END AS touch,
                     CASE WHEN event_type IN ('click', 'view')
                          THEN ts END AS touch_ts
              FROM events
              WHERE event_type IN ('purchase', 'click', 'view')
            ),
            w AS (
              SELECT user_id, ts, event_type, c,
                     LAST_VALUE(touch IGNORE NULLS) OVER w AS last_touch,
                     LAST_VALUE(touch_ts IGNORE NULLS) OVER w AS last_touch_ts
              FROM e WINDOW w AS (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
            )
            SELECT COALESCE(
                     CASE WHEN ts - last_touch_ts <= INTERVAL 7 DAY
                          THEN last_touch END, 'none') AS touch_type,
                   CAST(COUNT(*) AS BIGINT) AS n_conversions,
                   CAST(SUM(c) AS BIGINT) AS attributed_value_c
            FROM w WHERE event_type = 'purchase'
            GROUP BY 1
        """,
        "hyperanf_balls": _hyperanf_sql(rounds=3),
        "seasonality_profile": """
            WITH u AS (
              SELECT event_type,
                     (epoch_us(ts) // 3600000000) % 24 AS hour,
                     CAST(round(value * 100, 0) AS BIGINT) AS c
              FROM events
            )
            SELECT event_type, CAST(hour AS BIGINT) AS hour,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(c) AS BIGINT) AS sum_c,
                   CAST(FLOOR(10000.0 * sum(c) / count(*) + 0.5) AS BIGINT)
                     AS mean_c_e4
            FROM u GROUP BY 1, 2
        """,
        "orphan_rate": """
            WITH l AS (
              SELECT CAST(count(*) AS BIGINT) AS n_rows,
                     CAST(count(*) FILTER (WHERE o.o_orderkey IS NULL)
                          AS BIGINT) AS n_orphans
              FROM lineitem li LEFT JOIN orders o
                ON o.o_orderkey = li.l_orderkey
            ), c AS (
              SELECT CAST(count(*) AS BIGINT) AS n_rows,
                     CAST(count(*) FILTER (WHERE cu.c_custkey IS NULL)
                          AS BIGINT) AS n_orphans
              FROM orders o LEFT JOIN customer cu
                ON cu.c_custkey = o.o_custkey
            )
            SELECT 'lineitem_orders' AS relation, n_rows, n_orphans,
                   CAST(FLOOR(1000000.0 * n_orphans / n_rows + 0.5) AS BIGINT)
                     AS orphan_rate_e6
            FROM l
            UNION ALL
            SELECT 'orders_customer', n_rows, n_orphans,
                   CAST(FLOOR(1000000.0 * n_orphans / n_rows + 0.5) AS BIGINT)
            FROM c
        """,
        "clustering_coefficients": """
            WITH e AS (
              SELECT DISTINCT LEAST(a.l_partkey, b.l_partkey) AS u,
                              GREATEST(a.l_partkey, b.l_partkey) AS v
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            ), t3 AS (
              SELECT e1.u AS a, e1.v AS b, e2.v AS c
              FROM e e1
              JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
              JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
            ), tri AS (
              SELECT node, CAST(count(*) AS BIGINT) AS n_triangles
              FROM (SELECT a AS node FROM t3
                    UNION ALL SELECT b FROM t3
                    UNION ALL SELECT c FROM t3)
              GROUP BY node
            ), deg AS (
              SELECT node, CAST(count(*) AS BIGINT) AS degree
              FROM (SELECT u AS node FROM e UNION ALL SELECT v FROM e)
              GROUP BY node
            )
            SELECT tri.node, n_triangles, degree,
                   CAST(FLOOR(
                     1000000.0 * 2.0 * n_triangles
                     / (CAST(degree AS DOUBLE) * (degree - 1)) + 0.5
                   ) AS BIGINT) AS coeff_e6
            FROM tri JOIN deg USING (node)
        """,
        "benford_digits": """
            WITH d AS (
              SELECT CAST(substr(CAST(abs(CAST(round(o_totalprice * 100, 0)
                     AS BIGINT)) AS VARCHAR), 1, 1) AS BIGINT) AS digit
              FROM orders
            ), c AS (
              SELECT digit, CAST(count(*) AS BIGINT) AS observed
              FROM d WHERE digit > 0 GROUP BY digit
            ), t AS (
              SELECT c.*, (SELECT sum(observed) FROM c) AS n FROM c
            )
            SELECT digit, observed,
                   CAST(FLOOR(1000000.0 * n * log10(1.0 + 1.0 / digit) + 0.5)
                        AS BIGINT) AS expected_e6,
                   CAST(FLOOR(
                     1000000.0
                     * (observed - CAST(n AS DOUBLE) * log10(1.0 + 1.0 / digit))
                     * (observed - CAST(n AS DOUBLE) * log10(1.0 + 1.0 / digit))
                     / (CAST(n AS DOUBLE) * log10(1.0 + 1.0 / digit))
                     + 0.5) AS BIGINT) AS cell_chi2_e6
            FROM t
        """,
        "window_distinct_users": """
            SELECT (epoch_us(ts) // 3600000000) * 3600000000
                     AS window_start_us,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1
        """,
        "kendall_tau": """
            WITH t AS (
              SELECT CAST(l_quantity AS BIGINT) AS x,
                     CAST(round(l_extendedprice * 100, 0) AS BIGINT) AS y
              FROM lineitem
            ), nn AS (
              SELECT CAST(count(*) AS BIGINT) AS n FROM t
            ), tx AS (
              SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) AS n1
              FROM (SELECT count(*) AS c FROM t GROUP BY x)
            ), ty AS (
              SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) AS n2
              FROM (SELECT count(*) AS c FROM t GROUP BY y)
            ), cc AS (
              SELECT CAST(count(*) AS BIGINT) AS c
              FROM t a JOIN t b ON a.y < b.y AND a.x < b.x
            ), dd AS (
              SELECT CAST(count(*) AS BIGINT) AS d
              FROM t a JOIN t b ON a.y < b.y AND a.x > b.x
            )
            SELECT n, c, d, n1, n2,
                   CAST(FLOOR(
                     1000000.0 * (c - d) / sqrt(
                       CAST(n * (n - 1) // 2 - n1 AS DOUBLE)
                       * CAST(n * (n - 1) // 2 - n2 AS DOUBLE))
                     + 0.5) AS BIGINT) AS taub_e6
            FROM nn, cc, dd, tx, ty
        """,
        "hourly_locf": """
            WITH b AS (
              SELECT user_id,
                     date_trunc('hour', min(ts)) + INTERVAL 1 HOUR AS start_h,
                     max(ts) AS mx
              FROM events GROUP BY user_id
            ), g AS (
              SELECT user_id,
                     unnest(generate_series(start_h, mx, INTERVAL 1 HOUR)) AS h
              FROM b WHERE start_h <= mx
            )
            SELECT g.user_id, g.h,
                   CAST(arg_max(e.c, e.rn) AS BIGINT) AS locf_c
            FROM g JOIN (
              SELECT user_id, ts,
                     CAST(round(value * 100, 0) AS BIGINT) AS c,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS rn
              FROM events
            ) e ON e.user_id = g.user_id AND e.ts <= g.h
            GROUP BY g.user_id, g.h
        """,
        "temperature_mix": """
            WITH c AS (
              SELECT source,
                     CAST(sum(CASE WHEN trim(text) = '' THEN 0
                              ELSE len(regexp_split_to_array(trim(text), '\\s+'))
                              END) AS BIGINT) AS n_tokens
              FROM documents GROUP BY source
            ), t AS (
              SELECT source, n_tokens,
                     CAST(floor(pow(CAST(n_tokens AS DOUBLE), 0.3)
                                * 1000000.0 + 0.5) AS BIGINT) AS t_u
              FROM c
            )
            SELECT source, n_tokens, t_u,
                   CAST(t_u * 1000000 // (SELECT sum(t_u) FROM t)
                        AS BIGINT) AS p_ppm
            FROM t
        """,
        "token_apportionment": """
            WITH c AS (
              SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                     CAST(sum(CASE WHEN trim(text) = '' THEN 0
                              ELSE len(regexp_split_to_array(trim(text), '\\s+'))
                              END) AS BIGINT) AS n_tokens
              FROM documents GROUP BY source
            ), t AS (
              SELECT c.*, (SELECT sum(n_tokens) FROM c) AS total FROM c
            ), q AS (
              SELECT source, n_docs, n_tokens,
                     1000000 * n_tokens // total AS base,
                     1000000 * n_tokens % total AS rem
              FROM t
            ), r AS (
              SELECT q.*,
                     row_number() OVER (ORDER BY rem DESC, source) AS rk,
                     (SELECT 1000000 - sum(base) FROM q) AS leftover
              FROM q
            )
            SELECT source, n_docs, n_tokens,
                   CAST(base + CASE WHEN rk <= leftover THEN 1 ELSE 0 END
                        AS BIGINT) AS alloc
            FROM r
        """,
        "trailing_window_sum": """
            SELECT event_id,
                   CAST(SUM(CAST(round(value * 100, 0) AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS trailing_sum_c
            FROM events
        """,
        "quantile_transform": """
            SELECT event_id,
                   CAST(FLOOR(
                     1000000.0 * RANK() OVER (
                       PARTITION BY event_type
                       ORDER BY CAST(round(value * 1000000) AS BIGINT))
                     / (COUNT(*) OVER (PARTITION BY event_type)) + 0.5
                   ) AS BIGINT) AS prank_e6
            FROM events
        """,
        "blocking_modularity": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            pairs AS (
              SELECT u, v
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
              WHERE len(list_intersect(ga.gs, gb.gs))::double
                    / (len(ga.gs) + len(gb.gs)
                       - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
            ),
            lab AS (
              SELECT doc_id,
                     CAST((('0x' || substr(md5(
                       CASE WHEN trim(text) = '' THEN ''
                            ELSE regexp_split_to_array(trim(text), '\\s+')[1]
                       END), 1, 16))::UBIGINT >> 1) AS BIGINT) AS c
              FROM documents
            ),
            sym AS (
              SELECT u AS node FROM pairs
              UNION ALL SELECT v FROM pairs
            ),
            deg AS (SELECT node, count(*) AS d FROM sym GROUP BY node),
            dc AS (
              SELECT c, CAST(sum(d) AS BIGINT) AS dsum
              FROM deg JOIN lab ON lab.doc_id = deg.node GROUP BY c
            ),
            s AS (
              SELECT
                (SELECT CAST(count(*) AS BIGINT) FROM pairs) AS m,
                (SELECT CAST(count(*) AS BIGINT)
                 FROM pairs p
                 JOIN lab lu ON lu.doc_id = p.u
                 JOIN lab lv ON lv.doc_id = p.v
                 WHERE lu.c = lv.c) AS within_edges,
                (SELECT CAST(sum(dsum * dsum) AS BIGINT) FROM dc)
                  AS sum_deg_sq
            )
            SELECT m, within_edges, sum_deg_sq,
                   CAST(FLOOR(1000000.0 * (
                     CAST(within_edges AS DOUBLE) / m
                     - CAST(sum_deg_sq AS DOUBLE) / (4.0 * m * m)
                   ) + 0.5) AS BIGINT) AS q_e6
            FROM s
        """,
        "late_events": """
            WITH a AS (
              SELECT event_type, ts,
                     CAST(
                       (((('0x' || substr(md5(event_id::VARCHAR), 1, 16))::UBIGINT >> 1)
                         & 18446744073709550592::UBIGINT)
                        | (CAST(event_id AS UBIGINT) & 1048575::UBIGINT))
                       AS BIGINT) AS arrival
              FROM events
            ), w AS (
              SELECT event_type, ts,
                     MAX(ts) OVER (ORDER BY arrival
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm
              FROM a
            )
            SELECT event_type,
                   CAST(count(*) FILTER (
                     WHERE pm IS NOT NULL
                       AND ts < pm - INTERVAL 30 MINUTE) AS BIGINT) AS n_late,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM w GROUP BY event_type
        """,
        "cluster_conflicts": f"""
            WITH RECURSIVE toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            pairs AS (
              SELECT u, v
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
              WHERE len(list_intersect(ga.gs, gb.gs))::double
                    / (len(ga.gs) + len(gb.gs)
                       - len(list_intersect(ga.gs, gb.gs)))::double >= 0.5
            ),
            edges AS (
              SELECT u AS a, v AS b FROM pairs
              UNION ALL
              SELECT v AS a, u AS b FROM pairs
            ),
            lab(v, l) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.a, lab.l FROM edges e JOIN lab ON lab.v = e.b
            ),
            comp AS (
              SELECT CAST(v AS BIGINT) AS doc_id,
                     CAST(min(l) AS BIGINT) AS component
              FROM lab GROUP BY v
            )
            SELECT component, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT source) AS BIGINT) AS n_sources
            FROM comp JOIN documents USING (doc_id)
            GROUP BY component
            HAVING count(DISTINCT source) > 1
        """,
        "lsh_candidate_quality": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(
                      ' ' || substr(text, 1, 10000) || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            pref AS (SELECT doc_id, arr[1:128] AS arr FROM toks),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM pref
            ),
            cand AS (
              SELECT u, v
              FROM read_parquet('{_ORACLE_AUX}/lsh_candidates/*.parquet')
            ),
            j AS (
              SELECT len(list_intersect(ga.gs, gb.gs))::double
                       / (len(ga.gs) + len(gb.gs)
                          - len(list_intersect(ga.gs, gb.gs)))::double AS jac
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
            )
            SELECT LEAST(9, CAST(FLOOR(jac * 10.0) AS BIGINT)) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_pairs
            FROM j GROUP BY 1
        """,
        "rank_disagreement": """
            WITH ra AS (
              SELECT o_orderkey AS id,
                     row_number() OVER (ORDER BY o_totalprice, o_orderkey) AS rn
              FROM orders
            ), rb AS (
              SELECT o_orderkey AS id,
                     row_number() OVER (ORDER BY o_orderdate, o_orderkey) AS rn
              FROM orders
            )
            SELECT CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(abs(ra.rn - rb.rn)) AS BIGINT) AS footrule
            FROM ra JOIN rb USING (id)
        """,
        "mad_by_type": """
            WITH u AS (
              SELECT event_type, CAST(round(value * 100, 0) AS BIGINT) AS c
              FROM events
            ), m AS (
              SELECT event_type, quantile_disc(c, 0.5) AS med
              FROM u GROUP BY 1
            ), d AS (
              SELECT u.event_type, med, abs(c - med) AS dev
              FROM u JOIN m USING (event_type)
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(min(med) AS BIGINT) AS med_c,
                   CAST(quantile_disc(dev, 0.5) AS BIGINT) AS mad_c
            FROM d GROUP BY event_type
        """,
        "pmi_bigrams": """
            WITH arr AS (
              SELECT regexp_split_to_array(trim(text), '\\s+') AS a
              FROM documents
            ), toks AS (
              SELECT unnest(a) AS w FROM arr WHERE len(a) >= 1 AND a[1] != ''
            ), uni AS (
              SELECT w, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY w
            ), tot AS (
              SELECT CAST(sum(n) AS BIGINT) AS t FROM uni
            ), z AS (
              SELECT unnest(list_zip(a[1:len(a)-1], a[2:])) AS pr
              FROM arr WHERE len(a) >= 2 AND a[1] != ''
            ), big AS (
              SELECT pr[1] AS w1, pr[2] AS w2, CAST(count(*) AS BIGINT) AS n
              FROM z GROUP BY 1, 2
            ), btot AS (
              SELECT CAST(sum(n) AS BIGINT) AS b FROM big
            ), f AS (
              SELECT w1, w2, big.n, u1.n AS c1, u2.n AS c2
              FROM big
              JOIN uni u1 ON u1.w = big.w1
              JOIN uni u2 ON u2.w = big.w2
              WHERE big.n >= 5
            )
            SELECT w1, w2, n, c1, c2,
                   CAST(FLOOR(1000000.0 * ln(
                     (CAST(n AS DOUBLE) * t * t)
                     / (CAST(b AS DOUBLE) * c1 * c2)
                   ) + 0.5) AS BIGINT) AS pmi_e6
            FROM f, tot, btot
        """,
        "winsorized_means": """
            WITH u AS (
              SELECT event_type, CAST(round(value * 100, 0) AS BIGINT) AS c
              FROM events
            ), q AS (
              SELECT event_type,
                     quantile_disc(c, 0.05) AS lo,
                     quantile_disc(c, 0.95) AS hi
              FROM u GROUP BY 1
            ), w AS (
              SELECT u.event_type, LEAST(GREATEST(c, lo), hi) AS cc
              FROM u JOIN q USING (event_type)
            )
            SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(cc) AS BIGINT) AS sum_c,
                   CAST(FLOOR(10000.0 * sum(cc) / count(*) + 0.5) AS BIGINT)
                     AS wmean_c_e4
            FROM w GROUP BY event_type
        """,
        "degree_assortativity": """
            WITH e AS (
              SELECT DISTINCT 2 * l_partkey AS u, 2 * l_suppkey + 1 AS v
              FROM lineitem WHERE l_quantity = 1
            ), sym AS (
              SELECT u, v FROM e UNION ALL SELECT v, u FROM e
            ), deg AS (
              SELECT u AS node, CAST(count(*) AS BIGINT) AS d
              FROM sym GROUP BY u
            ), j AS (
              SELECT du.d AS du, dv.d AS dv
              FROM sym
              JOIN deg du ON du.node = sym.u
              JOIN deg dv ON dv.node = sym.v
            ), s AS (
              SELECT CAST(count(*) AS BIGINT) AS m2,
                     CAST(sum(du) AS BIGINT) AS sx,
                     CAST(sum(du * dv) AS BIGINT) AS sxy,
                     CAST(sum(du * du) AS BIGINT) AS sxx
              FROM j
            )
            SELECT m2, sx, sxy, sxx,
                   CAST(FLOOR(
                     1000000.0
                     * (CAST(sxy AS DOUBLE) / m2
                        - (CAST(sx AS DOUBLE) / m2) * (CAST(sx AS DOUBLE) / m2))
                     / (CAST(sxx AS DOUBLE) / m2
                        - (CAST(sx AS DOUBLE) / m2) * (CAST(sx AS DOUBLE) / m2))
                     + 0.5) AS BIGINT) AS r_e6
            FROM s
        """,
        "chi2_cells": """
            WITH c AS (
              SELECT event_type,
                     CAST(('0x' || substr(md5(user_id::VARCHAR), 1, 16))::UBIGINT % 2
                          AS BIGINT) AS arm,
                     CAST(count(*) AS BIGINT) AS observed
              FROM events GROUP BY 1, 2
            ), t AS (
              SELECT c.*,
                     sum(observed) OVER (PARTITION BY event_type) AS rt,
                     sum(observed) OVER (PARTITION BY arm) AS ct,
                     sum(observed) OVER () AS n
              FROM c
            )
            SELECT event_type, arm, observed,
                   CAST(FLOOR(1000000.0 * rt * ct / n + 0.5) AS BIGINT) AS e_e6,
                   CAST(FLOOR(
                     1000000.0 * (observed - CAST(rt AS DOUBLE) * ct / n)
                               * (observed - CAST(rt AS DOUBLE) * ct / n)
                               / (CAST(rt AS DOUBLE) * ct / n)
                     + 0.5) AS BIGINT) AS cell_chi2_e6
            FROM t
        """,
        "score_calibration": """
            WITH mm AS (
              SELECT min(value) AS lo, max(value) AS hi FROM events
            ), b AS (
              SELECT LEAST(9, CAST(FLOOR((value - lo) * 10.0 / (hi - lo)) AS BIGINT))
                       AS bin,
                     CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS p
              FROM events, mm
            )
            SELECT bin, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(p) AS BIGINT) AS n_pos,
                   CAST(FLOOR(1000000.0 * sum(p) / count(*) + 0.5) AS BIGINT)
                     AS pos_rate_e6
            FROM b GROUP BY bin
        """,
        "stratified_split": """
            WITH h AS (
              SELECT doc_id, lang,
                     ('0x' || substr(md5(doc_id::VARCHAR), 1, 16))::UBIGINT AS hv
              FROM documents
            ), r AS (
              SELECT doc_id, lang,
                     row_number() OVER (PARTITION BY lang ORDER BY hv, doc_id) AS rn,
                     count(*) OVER (PARTITION BY lang) AS n
              FROM h
            )
            SELECT doc_id, lang,
                   CASE WHEN rn <= FLOOR(n * 0.8) THEN 'train'
                        WHEN rn <= FLOOR(n * 0.9) THEN 'val'
                        ELSE 'test' END AS split
            FROM r
        """,
        "ab_value_ttest": """
            WITH u AS (
              SELECT ('0x' || substr(md5(user_id::VARCHAR), 1, 16))::UBIGINT % 2 AS arm,
                     CAST(round(value * 100, 0) AS BIGINT) AS u
              FROM events
            ), s AS (
              SELECT
                CAST(count(*) FILTER (WHERE arm = 0) AS BIGINT) AS n_a,
                CAST(count(*) FILTER (WHERE arm = 1) AS BIGINT) AS n_b,
                CAST(COALESCE(sum(u) FILTER (WHERE arm = 0), 0) AS BIGINT) AS sum_a,
                CAST(COALESCE(sum(u) FILTER (WHERE arm = 1), 0) AS BIGINT) AS sum_b,
                CAST(COALESCE(sum(u * u) FILTER (WHERE arm = 0), 0) AS BIGINT) AS ssq_a,
                CAST(COALESCE(sum(u * u) FILTER (WHERE arm = 1), 0) AS BIGINT) AS ssq_b
              FROM u
            )
            SELECT n_a, n_b, sum_a, sum_b, ssq_a, ssq_b,
                   CAST(FLOOR(
                     1000000.0 * ((sum_a / n_a) - (sum_b / n_b)) /
                     sqrt(
                       ((ssq_a - CAST(sum_a AS DOUBLE) * CAST(sum_a AS DOUBLE) / n_a)
                          / (n_a - 1)) / n_a
                       + ((ssq_b - CAST(sum_b AS DOUBLE) * CAST(sum_b AS DOUBLE) / n_b)
                          / (n_b - 1)) / n_b
                     ) + 0.5) AS BIGINT) AS t_e6
            FROM s
        """,
        "split_leakage": f"""
            WITH toks AS (
              SELECT doc_id,
                list_filter(
                  list_transform(
                    regexp_split_to_array(' ' || text || ' ', '{_SEP}'),
                    w -> trim(w)),
                  w -> w != '') AS arr
              FROM documents
            ),
            grams AS (
              SELECT doc_id,
                CASE WHEN len(arr) < 3 THEN [array_to_string(arr, ' ')]
                     ELSE list_distinct(list_transform(
                            range(1, len(arr) - 1),
                            i -> arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2]))
                END AS gs
              FROM toks WHERE len(arr) > 0
            ),
            ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
            cand AS (
              SELECT DISTINCT a.doc_id AS u, b.doc_id AS v
              FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
            ),
            j AS (
              SELECT u, v,
                len(list_intersect(ga.gs, gb.gs))::double
                  / (len(ga.gs) + len(gb.gs)
                     - len(list_intersect(ga.gs, gb.gs)))::double AS jac
              FROM cand
              JOIN grams ga ON ga.doc_id = cand.u
              JOIN grams gb ON gb.doc_id = cand.v
            ),
            lab AS (
              SELECT u, v, round(jac, 6) AS jaccard,
                CASE WHEN ('0x' || substr(md5(u::VARCHAR), 1, 16))::UBIGINT % 100 < 80 THEN 'train'
                     WHEN ('0x' || substr(md5(u::VARCHAR), 1, 16))::UBIGINT % 100 < 90 THEN 'val'
                     ELSE 'test' END AS split_u,
                CASE WHEN ('0x' || substr(md5(v::VARCHAR), 1, 16))::UBIGINT % 100 < 80 THEN 'train'
                     WHEN ('0x' || substr(md5(v::VARCHAR), 1, 16))::UBIGINT % 100 < 90 THEN 'val'
                     ELSE 'test' END AS split_v
              FROM j WHERE jac >= 0.5
            )
            SELECT u, v, jaccard, split_u, split_v
            FROM lab WHERE split_u <> split_v
        """,
        "score_auc": """
            WITH s AS (
              SELECT value AS score,
                     count(*) FILTER (WHERE event_type = 'purchase') AS pos,
                     count(*) FILTER (WHERE event_type <> 'purchase') AS neg
              FROM events GROUP BY value
            ), c AS (
              SELECT pos, neg,
                     COALESCE(SUM(neg) OVER (ORDER BY score
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                       AS negbelow
              FROM s
            ), t AS (
              SELECT CAST(SUM(pos) AS BIGINT) AS n_pos,
                     CAST(SUM(neg) AS BIGINT) AS n_neg,
                     CAST(SUM(2 * pos * negbelow + pos * neg) AS BIGINT) AS u2
              FROM c
            )
            SELECT n_pos, n_neg, u2,
                   CAST(FLOOR(1000000.0 * u2 / (2.0 * n_pos * n_neg) + 0.5)
                        AS BIGINT) AS auc_e6
            FROM t
        """,
    }
    # incremental warm-start CC provably equals a full recompute, so its
    # oracle IS dup_components' full-recompute recursive min-label SQL
    out["incremental_components"] = out["dup_components"]
    # ann_recall composes the two existing ANN twins so the evaluation
    # harness itself is value-checked (recall@10 of the IVF index against
    # brute force, exact integer micro-units)
    out["ann_recall"] = f"""
        WITH bf AS ({out['ann_topk']}),
             iv AS ({out['ann_ivf']})
        SELECT bf.query_id,
               count(iv.vec_id) AS n_hit,
               (count(iv.vec_id) * 1000000) // 10 AS recall_e6
        FROM bf LEFT JOIN iv
          ON bf.query_id = iv.query_id AND bf.vec_id = iv.vec_id
        GROUP BY bf.query_id
    """
    return out
