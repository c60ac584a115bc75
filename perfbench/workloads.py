"""The four workloads: seeded inputs, one end-to-end run, its output check,
and a traced run that calls each layer's public function in turn.

A workload object lives for one benchmark invocation. `generate(seed)`
builds its inputs (pure function of the seed), `run()` is one timed
end-to-end run through the program, `check(out)` validates that run's
output and returns `(ok, quality)`, and `traced(tracer, root)` records
one run split at the public function boundaries under a root span and
returns its ratio metrics and in-process kernel times.
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa

import gen

LINKAGE_THRESHOLD = 0.2  # score cut of the repository's headline linkage run
MIN_PAIRWISE_F1 = 0.99  # north rule
DOCS_PER_BLOCK = 2000
NB_STEPS = 2  # the reference classifier's default


def _dataset(table: pa.Table):
    """Arrow table -> Ray Dataset split the way a parquet read would be."""
    import ray.data

    n = max(1, -(-table.num_rows // DOCS_PER_BLOCK))
    step = -(-table.num_rows // n)
    return ray.data.from_arrow(
        [table.slice(i * step, step) for i in range(n)]
    )


def _collect(ds) -> pa.Table | None:
    from opentapioca_ray.stages.exchange import arrow_blocks

    tables = [t for t in arrow_blocks(ds) if t.num_rows]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="permissive")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def pairwise_f1(truth: np.ndarray, labels: np.ndarray) -> float:
    """Pairwise F1 of a predicted partition against the planted one; both
    are per-row cluster labels. Counts pairs through the contingency table,
    so it is linear in the row count."""

    def n_pairs(counts):
        return int((counts * (counts - 1) // 2).sum())

    both = np.unique(np.stack([labels, truth], axis=1), axis=0, return_counts=True)[1]
    tp = n_pairs(both)
    pred_pairs = n_pairs(np.unique(labels, return_counts=True)[1])
    true_pairs = n_pairs(np.unique(truth, return_counts=True)[1])
    precision = tp / pred_pairs if pred_pairs else 1.0
    recall = tp / true_pairs if true_pairs else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def partition_labels(n_rows: int, nodes: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Canonical per-row label: the smallest member id of the row's
    component (a row with no match edge is its own component)."""
    labels = np.arange(n_rows, dtype=np.int64)
    labels[nodes] = comps
    # components are named by an arbitrary member; rename by the minimum
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_labels)) + 1]
    mins = np.minimum.reduceat(order, starts)
    sizes = np.diff(np.r_[starts, len(order)])
    out = np.empty(n_rows, dtype=np.int64)
    out[order] = np.repeat(mins, sizes)
    return out


class Linkage:
    """files -> blocking -> pair scoring -> connected components."""

    kind = "linkage"
    item = "files"

    def __init__(self, name: str, n_files: int, dup_fraction: float, cluster_size: int):
        self.name = name
        self.n_items = n_files
        self.dup_fraction = dup_fraction
        self.cluster_size = cluster_size
        self.reference = None  # partition of the first run that passed

    def generate(self, seed: int) -> None:
        self.docs, self.truth = gen.linkage_corpus(
            seed, self.n_items, self.dup_fraction, self.cluster_size
        )

    def run(self) -> dict:
        from opentapioca_ray.pipelines.linkage import linkage_clusters
        from opentapioca_ray.sources.files import files_from_documents

        files = files_from_documents(_dataset(self.docs)).materialize()
        clusters, _ = linkage_clusters(files, model=None, threshold=LINKAGE_THRESHOLD)
        table = _collect(clusters)
        if table is None:
            nodes = comps = np.zeros(0, dtype=np.int64)
        else:
            nodes = table.column("node").to_numpy()
            comps = table.column("component").to_numpy()
        return {"files": files, "nodes": nodes, "comps": comps}

    def check(self, out: dict) -> tuple[bool, float]:
        """sha256 carried intact, pairwise F1 >= 0.99 against the planted
        truth, and the same partition as the first run that passed."""
        from opentapioca_ray.sources.files import verify_sha256

        return self.check_partition(verify_sha256(out["files"]), out["nodes"], out["comps"])

    def check_partition(self, mismatches: int, nodes, comps) -> tuple[bool, float]:
        labels = partition_labels(self.n_items, nodes, comps)
        f1 = pairwise_f1(self.truth, labels)
        ok = mismatches == 0 and f1 >= MIN_PAIRWISE_F1
        if ok and self.reference is None:
            self.reference = labels
        ok = ok and np.array_equal(labels, self.reference)
        return ok, f1

    def traced(self, tracer, root: str) -> tuple[dict, dict]:
        from opentapioca_ray.pipelines.linkage import (
            attach_pair_tokens,
            build_id_pairs,
            corpus_stats,
            match_edges,
            score_pairs,
        )
        from opentapioca_ray.sources.files import files_from_documents
        from opentapioca_ray.stages.cc import (
            connected_components,
            connected_components_local,
        )
        from opentapioca_ray.stages.pairs import PairScorerStage, blocking_batch
        from opentapioca_ray.state.bow import partial_word_counts

        m: dict = {}
        kernels: dict = {}
        with tracer.span(root, workload=self.name):
            with tracer.span("files", rows_in=self.docs.num_rows) as a:
                files = files_from_documents(_dataset(self.docs)).materialize()
                a["rows_out"] = files.count()
            files_table = _collect(files)
            with tracer.span("corpus_stats", rows_in=files_table.num_rows) as a:
                idf, prior = corpus_stats(files)
                a["rows_out"] = len(idf) + len(prior)
            kernels["corpus_stats"] = _timed(
                lambda: partial_word_counts(files_table, "content")
            )[1]
            with tracer.span("build_id_pairs", rows_in=files_table.num_rows) as a:
                pairs = build_id_pairs(files).materialize()
                a["rows_out"] = n_pairs = pairs.count()
            # same arguments as build_id_pairs' defaults
            kernels["build_id_pairs"] = _timed(
                lambda: blocking_batch(
                    files_table,
                    id_column="file_id",
                    text_column="content",
                    repo_column=None,
                    num_perm=128,
                    bands=32,
                    shingle_k=3,
                    include_tokens=False,
                    key_type="u64",
                )
            )[1]
            with tracer.span("attach_pair_tokens", rows_in=n_pairs) as a:
                enriched = attach_pair_tokens(pairs, files)
                if enriched is None:  # no candidate pairs at all
                    raise RuntimeError("the workload planted no candidate pairs")
                enriched = enriched.materialize()
                a["rows_out"] = enriched.count()
            enriched_table = _collect(enriched)
            with tracer.span("score_pairs", rows_in=enriched_table.num_rows) as a:
                scored = score_pairs(enriched, idf, prior, None).materialize()
                a["rows_out"] = n_scored = scored.count()
            kernels["score_pairs"] = _timed(
                lambda: PairScorerStage(idf_ref=idf, repo_prior_ref=prior)(enriched_table)
            )[1]
            with tracer.span("cc", rows_in=n_scored) as a:
                edges = match_edges(scored, LINKAGE_THRESHOLD).materialize()
                n_edges = edges.count()
                clusters = connected_components(edges).materialize()
                a["rows_out"] = clusters.count()
            edge_table = _collect(edges)
            edge_list = (
                list(zip(edge_table.column("u").to_pylist(), edge_table.column("v").to_pylist()))
                if edge_table is not None
                else []
            )
            kernels["cc"] = _timed(lambda: connected_components_local(edge_list))[1]
        m["build_id_pairs.pairs_per_file"] = n_pairs / max(1, files_table.num_rows)
        m["cc.match_ratio"] = n_edges / max(1, n_scored)
        return m, kernels


def _winners(table: pa.Table | None) -> pd.DataFrame:
    """Classifier output -> one row per mention (doc_id, start, end,
    best_qid), sorted."""
    cols = ["doc_id", "start", "end", "best_qid"]
    if table is None:
        return pd.DataFrame(columns=cols)
    df = table.select(cols).to_pandas().drop_duplicates(["doc_id", "start", "end"])
    df["doc_id"] = df["doc_id"].astype(str)
    df["start"] = df["start"].astype(np.int64)
    df["end"] = df["end"].astype(np.int64)
    return df.sort_values(["doc_id", "start", "end"]).reset_index(drop=True)


def classify_in_process(tags: pd.DataFrame, model, params) -> pd.DataFrame:
    """The per-document classify path through the public `stages.classify`
    functions, without Ray: mentions_from_rows -> compute_similarities ->
    classify_mentions. Returns the winners frame of `_winners`."""
    from opentapioca_ray.stages.classify import (
        classify_mentions,
        compute_similarities,
        mentions_from_rows,
    )

    rows = []
    for _, doc_df in tags.groupby("doc_id", sort=True):
        mentions = mentions_from_rows(doc_df)
        compute_similarities(mentions, params)
        classify_mentions(mentions, model, params)
        rows.extend((m.doc_id, m.start, m.end, m.best_qid) for m in mentions)
    table = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.string()),
            "start": pa.array([r[1] for r in rows], pa.int64()),
            "end": pa.array([r[2] for r in rows], pa.int64()),
            "best_qid": pa.array([r[3] for r in rows], pa.string()),
        }
    )
    return _winners(table)


class _Tagged:
    """Shared by both annotate workloads: seeded sf0.1-shaped documents,
    the two-candidate fixture dictionary and its deterministic gold."""

    item = "docs"
    GRID = {"C": [0.001, 0.1]}
    FOLDS = 5
    MAX_ITER = 200

    def __init__(self, name: str, n_docs: int):
        self.name = name
        self.n_items = n_docs
        self.reference = None

    def generate(self, seed: int) -> None:
        from opentapioca_ray.state.linear import LinearModel

        self.seed = seed
        self.docs = gen.documents(seed, self.n_items)
        (self.entities, self.pagerank, self.bow, model_dict, self.word_info) = (
            gen.annotation_fixture()
        )
        self.model = LinearModel.from_dict(model_dict)
        self.gold = gen.annotation_gold(self.docs, self.word_info)

    def grid(self):
        return {**self.GRID, "nb_steps": [NB_STEPS]}

    def params(self, **kw):
        from opentapioca_ray.stages.classify import ClassifierParams

        return ClassifierParams(nb_steps=NB_STEPS, **kw)

    def tag(self, docs: pa.Table | None = None):
        from opentapioca_ray.pipelines.annotate import tag_documents

        docs = self.docs if docs is None else docs
        return tag_documents(_dataset(docs), self.entities, self.bow, self.pagerank)

    def tag_in_process(self, docs: pa.Table) -> pa.Table:
        from opentapioca_ray.stages.tagger import TaggerStage

        return TaggerStage(
            entities_ref=self.entities, bow_ref=self.bow, pagerank_ref=self.pagerank
        )(docs)

    def _trace_tagger(self, tracer, kernels: dict):
        with tracer.span("tagger", rows_in=self.docs.num_rows) as a:
            tags = self.tag().materialize()
            a["rows_out"] = n_tags = tags.count()
        kernels["tagger"] = _timed(lambda: self.tag_in_process(self.docs))[1]
        return tags, n_tags

    def _trace_grid_search(self, tracer, tags, n_tags: int, docs: pa.Table) -> dict:
        from opentapioca_ray.pipelines.annotate import grid_search

        with tracer.span("grid_search", rows_in=n_tags) as a:
            grid_search(
                tags,
                docs.to_pandas(),
                self.gold,
                self.grid(),
                k=self.FOLDS,
                max_iter=self.MAX_ITER,
            )
            a["rows_out"] = combos = int(np.prod([len(v) for v in self.grid().values()]))
        # every setting fits once per fold, plus the final refit of the winner
        return {"grid_search.fits": combos * self.FOLDS + 1}

    def _trace_training(
        self, tracer, root: str, tags, n_tags: int, docs: pa.Table, with_grid: bool
    ) -> dict:
        """The training layers on the tags of `docs`, under their own root
        span so they stay out of the end-to-end path's shares."""
        from opentapioca_ray.pipelines.annotate import build_design_matrix
        from opentapioca_ray.state.linear import LinearModel

        params = self.params(C=self.GRID["C"][0])
        extra: dict = {}
        with tracer.span(f"{root}/train", workload=self.name):
            with tracer.span("design_matrix", rows_in=n_tags) as a:
                X, y, _ = build_design_matrix(tags, self.gold, params)
                a["rows_out"] = len(X)
            with tracer.span("linear_fit", rows_in=len(X)) as a:
                LinearModel(C=params.C, max_iter=self.MAX_ITER).fit(X, y)
                a["rows_out"] = 1
            if with_grid:
                extra = self._trace_grid_search(tracer, tags, n_tags, docs)
        return extra


class Annotate(_Tagged):
    """tag -> classify at nb_steps=2 with the fixed linear model."""

    kind = "annotate"
    CHECK_DOCS = 8  # seeded subsample recomputed in-process
    TRAIN_DOCS = 6  # doc prefix the traced training layers run on
    _expected = None  # winners of the subsample, once computed

    def run(self) -> dict:
        from opentapioca_ray.stages.classify import classify_dataset

        result = classify_dataset(self.tag(), self.model, self.params())
        return {"winners": _winners(_collect(result))}

    def expected_subsample(self) -> pd.DataFrame:
        """Winners of a seeded doc subsample, computed in-process (memoized
        per invocation; outside every timed region)."""
        if self._expected is None:
            rng = np.random.default_rng(self.seed + 1)
            pick = np.sort(
                rng.choice(self.n_items, size=min(self.CHECK_DOCS, self.n_items), replace=False)
            )
            self._check_ids = {str(i) for i in pick}
            sub = self.docs.take(pa.array(pick))
            tags = self.tag_in_process(sub).to_pandas()
            self._expected = classify_in_process(tags, self.model, self.params())
        return self._expected

    def check(self, out: dict) -> tuple[bool, float]:
        """Winners of the seeded subsample equal the in-process computation;
        micro F1 equals the first passing run's."""
        from opentapioca_ray.stages.classify import evaluate_predictions

        def rows(df):
            return list(df.astype(object).where(df.notna(), None).itertuples(index=False, name=None))

        winners = out["winners"]
        expected = self.expected_subsample()
        ok = rows(winners[winners["doc_id"].isin(self._check_ids)]) == rows(expected)
        f1 = evaluate_predictions(winners, self.gold)["f1"]
        if ok and self.reference is None:
            self.reference = f1
        return ok and f1 == self.reference, f1

    def traced(self, tracer, root: str) -> tuple[dict, dict]:
        from opentapioca_ray.stages.classify import classify_dataset

        kernels: dict = {}
        with tracer.span(root, workload=self.name):
            tags, n_tags = self._trace_tagger(tracer, kernels)
            tags_df = _collect(tags).to_pandas()
            with tracer.span("classify", rows_in=n_tags) as a:
                result = classify_dataset(tags, self.model, self.params()).materialize()
                a["rows_out"] = result.count()
            winners = _winners(_collect(result))
            kernels["classify"] = _timed(
                lambda: classify_in_process(tags_df, self.model, self.params())
            )[1]
        # training runs on a doc prefix: its per-doc cost is over 10x classify's
        train_docs = self.docs.slice(0, self.TRAIN_DOCS)
        train_tags = self.tag(train_docs).materialize()
        m = self._trace_training(
            tracer, root, train_tags, train_tags.count(), train_docs, with_grid=True
        )
        m["tagger.tags_per_doc"] = n_tags / max(1, self.n_items)
        m["classify.accept_ratio"] = float(winners["best_qid"].notna().mean()) if len(winners) else 0.0
        return m, kernels


class AnnotateTrain(_Tagged):
    """tag -> grid_search (k-fold CV over a small C grid at nb_steps=2)."""

    kind = "annotate-train"

    def run(self) -> dict:
        from opentapioca_ray.pipelines.annotate import grid_search

        params, cv_f1, _model = grid_search(
            self.tag(),
            self.docs.to_pandas(),
            self.gold,
            self.grid(),
            k=self.FOLDS,
            max_iter=self.MAX_ITER,
        )
        return {"params": params, "f1": cv_f1}

    def check(self, out: dict) -> tuple[bool, float]:
        """Chosen params and CV F1 equal the first completed run's."""
        got = (repr(out["params"]), out["f1"])
        if self.reference is None:
            self.reference = got
        return got == self.reference, out["f1"]

    def traced(self, tracer, root: str) -> tuple[dict, dict]:
        kernels: dict = {}
        with tracer.span(root, workload=self.name):
            tags, n_tags = self._trace_tagger(tracer, kernels)
            m = self._trace_grid_search(tracer, tags, n_tags, self.docs)
        m.update(self._trace_training(tracer, root, tags, n_tags, self.docs, with_grid=False))
        m["tagger.tags_per_doc"] = n_tags / max(1, self.n_items)
        return m, kernels


# Layers are named after the public function the traced run calls.
LAYERS = [
    "files", "corpus_stats", "build_id_pairs", "attach_pair_tokens", "score_pairs", "cc",
    "tagger", "classify", "design_matrix", "linear_fit", "grid_search",
]
KERNEL_LAYERS = ["corpus_stats", "build_id_pairs", "score_pairs", "cc", "tagger", "classify"]
RATIOS = {  # name -> unit
    "build_id_pairs.pairs_per_file": "pairs/file",
    "cc.match_ratio": "ratio",
    "classify.accept_ratio": "ratio",
    "tagger.tags_per_doc": "tags/doc",
    "grid_search.fits": "count",
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out += [
            (f"{layer}.wall_s", "s"),
            (f"{layer}.rows_in", "count"),
            (f"{layer}.rows_out", "count"),
            (f"{layer}.ray_execs", "count"),
        ]
        if layer in KERNEL_LAYERS:
            out += [(f"{layer}.kernel_s", "s"), (f"{layer}.overhead_s", "s")]
    out += list(RATIOS.items())
    out.append(("trace.overhead_s", "s"))
    return out


def trace_layers(wl, companion, tracer) -> dict:
    """Per-layer metrics of a traced run of `wl` (root span "run"),
    followed by one of `companion`, a small instance of the other path
    (root "companion"): every layer is then a live measurement on every
    workload rather than a constant 0. `_total_s` is the summed wall time
    of the layer calls under "run", i.e. the traced end-to-end path without
    the benchmark's own collects and kernel timings."""
    extra, kernels = wl.traced(tracer, "run")
    companion_extra, companion_kernels = companion.traced(tracer, "companion")
    extra = {**companion_extra, **extra}
    kernels = {**companion_kernels, **kernels}
    roots = {rec["id"]: rec["name"] for rec in tracer.spans if rec["parent"] is None}
    out = {name: 0.0 for name, _ in per_layer_names()}  # layers neither path calls
    total = 0.0
    for rec in tracer.spans:
        if rec["parent"] not in roots:
            continue
        layer = rec["name"]
        wall = tracer.duration(rec)
        out.setdefault("_root", {})[layer] = roots[rec["parent"]]
        if roots[rec["parent"]] == "run":
            total += wall
        out[f"{layer}.wall_s"] = wall
        out[f"{layer}.rows_in"] = rec["attrs"].get("rows_in", 0)
        out[f"{layer}.rows_out"] = rec["attrs"].get("rows_out", 0)
        out[f"{layer}.ray_execs"] = rec["attrs"]["ray_execs"]
        if layer in kernels:
            out[f"{layer}.kernel_s"] = kernels[layer]
            out[f"{layer}.overhead_s"] = wall - kernels[layer]
    out.update(extra)
    out["_total_s"] = total
    return out
