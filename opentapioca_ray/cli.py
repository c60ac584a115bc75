"""Command-line entry points.

Ray-native re-expression of the reference's 11-subcommand CLI
(reference opentapioca/cli.py:19-220). Each subcommand builds and runs a
`ray.data` pipeline; state artifacts (BOW model, graph, pagerank, linear
model) persist as JSON / .npy / .npz single files, datasets as partitioned
Parquet with stage manifests. Designed to run under `ray job submit`:
`python -m opentapioca_ray.cli <command> …` — Ray is initialised lazily and
only if no session exists (the job driver may own one already).

Mapping (reference -> here):
  train-bow         -> train-bow           (docs parquet -> bow.json)
  bow-shell         -> bow-shell           (--phrase, or stdin loop)
  preprocess        -> preprocess          (JSON dump -> edges parquet)
  compile           -> compile             (edges parquet -> graph .npz)
  compute-pagerank  -> compute-pagerank    (graph .npz -> .npy)
  pagerank-shell    -> pagerank-shell      (--node, or stdin loop)
  index-dump        -> index-dump          (dump+profile -> entities parquet)
  index-sparql      -> index-seed          (seed id list -> entities subset)
  index-stream      -> index-delta         (delta upsert + compaction, D5)
  delete-collection -> delete-output       (remove a stage directory)
  train-classifier  -> train-linkage       (labeled pairs -> model.json)
plus the graft pipelines: linkage, dedup.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def _read_parquet(path: str, **kw):
    import ray.data

    return ray.data.read_parquet(path, **kw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train_bow(args) -> int:
    _ensure_ray()
    from opentapioca_ray.state.bow import bow_from_dataset

    ds = _read_parquet(args.input, columns=[args.text_column])
    bow = bow_from_dataset(ds, text_column=args.text_column, threshold=args.threshold)
    bow.save(args.output)
    print(f"trained bow: {len(bow.word_count)} words, total={bow.total_count}")
    return 0


def cmd_bow_shell(args) -> int:
    from opentapioca_ray.state.bow import BOWLanguageModel

    bow = BOWLanguageModel()
    bow.load(args.bow)
    phrases = args.phrase or [line.strip() for line in sys.stdin if line.strip()]
    for p in phrases:
        print(f"{bow.log_likelihood(p):.6f}\t{p}")
    return 0


def cmd_preprocess(args) -> int:
    _ensure_ray()
    from opentapioca_ray.pipelines.pagerank import extract_edges
    from opentapioca_ray.sources.dumpreader import read_wikidata_dump

    items = read_wikidata_dump(args.dump)
    edges = extract_edges(items)
    os.makedirs(args.output, exist_ok=True)
    edges.write_parquet(args.output)
    print(f"edges written to {args.output}")
    return 0


def cmd_compile(args) -> int:
    _ensure_ray()
    from opentapioca_ray.pipelines.pagerank import normalize_edges, sorted_edge_arrays
    from opentapioca_ray.state.graph import LinkGraph

    edges = _read_parquet(args.input)
    src, dst, weight = sorted_edge_arrays(normalize_edges(edges))
    graph = LinkGraph.from_sorted_edges(src, dst, weight, args.shape)
    np.savez(
        args.output,
        indptr=graph.indptr,
        indices=graph.indices,
        data=graph.data,
        shape=np.int64(graph.shape),
    )
    print(f"graph compiled: shape={graph.shape}, nnz={len(graph.indices)}")
    return 0


def _load_graph(path: str):
    from opentapioca_ray.state.graph import LinkGraph

    z = np.load(path)
    return LinkGraph(z["indptr"], z["indices"], z["data"], int(z["shape"]))


def cmd_compute_pagerank(args) -> int:
    graph = _load_graph(args.input)
    graph.compute_pagerank(args.iterations)
    graph.save_pagerank(args.output)
    print(f"pagerank saved: N={graph.shape}, iterations={args.iterations}")
    return 0


def cmd_pagerank_shell(args) -> int:
    from opentapioca_ray.state.graph import pagerank_from_vector

    g = pagerank_from_vector(np.load(args.pagerank))
    nodes = args.node or [line.strip() for line in sys.stdin if line.strip()]
    for n in nodes:
        nid = int(n[1:]) if str(n).startswith("Q") else int(n)
        print(f"{n}\t{g.get_pagerank(nid):.9g}")
    return 0


def cmd_index_dump(args) -> int:
    _ensure_ray()
    import pyarrow as pa

    from opentapioca_ray.sources.dumpreader import read_wikidata_dump
    from opentapioca_ray.sources.items import IndexingProfile, TypeMatcher

    profile = IndexingProfile.load(args.profile)
    matcher = TypeMatcher(
        json.load(open(args.type_closures)) if args.type_closures else None
    )

    delete_excluded = bool(getattr(args, "delete_excluded", False))
    # explicit schema: type inference on a batch of all-empty lists would
    # yield list<null>, which breaks downstream pandas exchanges
    fields = [
        ("id", pa.string()),
        ("revid", pa.int64()),
        ("label", pa.string()),
        ("desc", pa.string()),
        ("edges", pa.list_(pa.int64())),
        ("types", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("extra_aliases", pa.list_(pa.string())),
        ("nb_statements", pa.int64()),
        ("nb_sitelinks", pa.int64()),
    ]
    if delete_excluded:
        fields.append(("_deleted", pa.bool_()))
    doc_schema = pa.schema(fields)

    def project(batch: pa.Table) -> pa.Table:
        rows = []
        for item_json in batch.column("item_json").to_pylist():
            item = json.loads(item_json)
            doc = profile.entity_to_document(item, matcher)
            if doc is not None:
                doc["types"] = json.dumps(doc.get("types", {}), sort_keys=True)
                if delete_excluded:
                    doc["_deleted"] = False
                rows.append(doc)
            elif delete_excluded:
                # the reference pushes a None doc as a deletion when
                # delete_excluded=True (taggerfactory.py:55-124): emit a
                # tombstone row; delta compaction anti-joins it away
                rows.append(
                    {
                        "id": item.get("id"),
                        "revid": item.get("lastrevid") or 1,
                        "label": "",
                        "desc": "",
                        "edges": [],
                        "types": "{}",
                        "aliases": [],
                        "extra_aliases": [],
                        "nb_statements": 0,
                        "nb_sitelinks": 0,
                        "_deleted": True,
                    }
                )
        return pa.Table.from_pylist(rows, schema=doc_schema)

    items = read_wikidata_dump(args.dump)
    os.makedirs(args.output, exist_ok=True)
    items.map_batches(project, batch_format="pyarrow").write_parquet(args.output)
    print(f"entities indexed to {args.output}")
    return 0


def cmd_index_seed(args) -> int:
    _ensure_ray()
    import pyarrow as pa
    import pyarrow.compute as pc

    seeds = set(
        json.load(open(args.seeds))
        if args.seeds.endswith(".json")
        else [line.strip() for line in open(args.seeds) if line.strip()]
    )

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("id"), value_set=pa.array(sorted(seeds)))
        return batch.filter(mask)

    ents = _read_parquet(args.entities).map_batches(keep, batch_format="pyarrow")
    os.makedirs(args.output, exist_ok=True)
    ents.write_parquet(args.output)
    print(f"seed subset written to {args.output}")
    return 0


def cmd_index_delta(args) -> int:
    """Delta upsert: union(existing, delta) -> last-write-wins per id by
    revid (the Solr-versioning analog — reference taggerfactory.py:103-120).
    With --tombstone-column, delta rows marked deleted (the
    delete_excluded re-index path, taggerfactory.py:103-124) remove their
    key from the compacted index."""
    _ensure_ray()
    import pyarrow as pa

    from opentapioca_ray.stages.dedup import compact_by_key

    base = _read_parquet(args.entities)
    delta = _read_parquet(args.delta)
    ts = getattr(args, "tombstone_column", None)
    if ts:
        def ensure_ts(batch: pa.Table) -> pa.Table:
            if batch.num_rows and ts not in batch.column_names:
                batch = batch.append_column(
                    ts, pa.array([False] * batch.num_rows, type=pa.bool_())
                )
            return batch

        base = base.map_batches(ensure_ts, batch_format="pyarrow")
        delta = delta.map_batches(ensure_ts, batch_format="pyarrow")
    merged = compact_by_key(
        base.union(delta), key="id", version=args.version_column, tombstone=ts or None
    )
    os.makedirs(args.output, exist_ok=True)
    merged.write_parquet(args.output)
    print(f"compacted index written to {args.output}")
    return 0


def cmd_delete_output(args) -> int:
    if not args.yes:
        print("refusing to delete without --yes", file=sys.stderr)
        return 1
    if os.path.isdir(args.path):
        shutil.rmtree(args.path)
        print(f"deleted {args.path}")
        return 0
    print(f"no such directory: {args.path}", file=sys.stderr)
    return 1


def cmd_train_linkage(args) -> int:
    _ensure_ray()
    import pyarrow.parquet as pq

    from opentapioca_ray.pipelines.linkage import corpus_stats, train_linkage_model_ds
    from opentapioca_ray.sources.files import read_files

    files_ds = read_files(args.sf_dir)
    idf, prior = corpus_stats(files_ds)
    # the labeled-pairs table is small by construction; the corpus is not —
    # train_linkage_model_ds semi-joins the corpus down to the referenced
    # file ids distributedly instead of a full-corpus to_pandas here
    labeled = pq.read_table(args.labeled).to_pandas()
    model = train_linkage_model_ds(files_ds, labeled, idf, prior, C=args.C)
    with open(args.output, "w") as f:
        json.dump(model.to_dict(), f)
    print(f"model saved to {args.output}")
    return 0


def cmd_linkage(args) -> int:
    _ensure_ray()
    from opentapioca_ray.pipelines.linkage import linkage_checkpointed
    from opentapioca_ray.state.linear import LinearModel

    model = None
    if args.model:
        model = LinearModel.from_dict(json.load(open(args.model)))
    clusters, ckpt = linkage_checkpointed(
        args.sf_dir, args.output, model=model, threshold=args.threshold
    )
    n = clusters.count()
    print(f"clusters written: {n} clustered files -> {args.output}/clusters")
    print(json.dumps(ckpt.metrics(), indent=2, sort_keys=True))
    return 0


def cmd_dedup(args) -> int:
    _ensure_ray()
    from opentapioca_ray.stages import dedup as D

    ds = _read_parquet(args.input)
    if args.method == "exact":
        out = D.exact_dedup(ds, id_column=args.id_column, text_column=args.text_column)
    elif args.method == "minhash":
        out = D.minhash_dedup(
            ds, id_column=args.id_column, text_column=args.text_column,
            threshold=args.threshold,
        )
    elif args.method == "simhash":
        out = D.simhash_dedup(ds, id_column=args.id_column, text_column=args.text_column)
    elif args.method == "ngram":
        out = D.ngram_jaccard_dedup(
            ds, id_column=args.id_column, text_column=args.text_column,
            threshold=args.threshold,
        )
    else:
        raise SystemExit(f"unknown method {args.method}")
    os.makedirs(args.output, exist_ok=True)
    out.write_parquet(args.output)
    print(f"{args.method} dedup written to {args.output}")
    return 0


def cmd_index_stream(args) -> int:
    """S2: consume a JSONL event feed (the file-tailing stand-in for the
    reference's SSE endpoint, streamreader.py:10-70) from the last committed
    byte offset, micro-batch the filtered ids, fetch payloads from a
    source-of-truth parquet through the retry/backoff wrapper (S4), and
    upsert them into the item store last-write-wins. Re-running resumes at
    the stored offset — an idle feed is a no-op."""
    _ensure_ray()
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from opentapioca_ray.sources.stream import (
        EventStreamReader,
        RetryingFetcher,
        tail_jsonl_events,
    )
    from opentapioca_ray.stages.dedup import compact_by_key
    from opentapioca_ray.stages.exchange import driver_dataset

    offset_file = args.offset_file or (args.events + ".offset")
    offset = (
        int(open(offset_file).read().strip()) if os.path.exists(offset_file) else 0
    )
    events, new_offset = tail_jsonl_events(args.events, offset)

    src = pq.read_table(args.source, columns=["id", "item_json"])
    by_id = dict(zip(src.column("id").to_pylist(), src.column("item_json").to_pylist()))

    def fetch(ids):
        return [
            _json.loads(by_id[i]) if i in by_id else {"id": i, "missing": ""}
            for i in ids
        ]

    reader = EventStreamReader(
        events, RetryingFetcher(fetch), batch_size=args.batch_size, wiki=args.wiki
    )
    ids, payloads, seqs = [], [], []
    seq = 0
    for batch in reader:
        for item in batch:
            ids.append(str(item.get("id", "")))
            payloads.append(_json.dumps(item, sort_keys=True))
            seqs.append(seq)
            seq += 1
    delta = pa.table(
        {
            "id": pa.array(ids, type=pa.string()),
            "item_json": pa.array(payloads, type=pa.string()),
            "seq": pa.array(seqs, type=pa.int64()),
        }
    )

    if args.entities and os.path.exists(args.entities):
        base = _read_parquet(args.entities).map_batches(
            lambda b: b.select(["id", "item_json"]).append_column(
                "seq", pa.array([-1] * b.num_rows, type=pa.int64())
            ),
            batch_format="pyarrow",
        )
        merged = compact_by_key(
            base.union(driver_dataset(delta)), key="id", version="seq"
        )
    else:
        merged = compact_by_key(driver_dataset(delta), key="id", version="seq")
    os.makedirs(args.output, exist_ok=True)
    merged.write_parquet(args.output)
    with open(offset_file, "w") as f:
        f.write(str(new_offset))
    print(
        f"ingested {len(ids)} items from {len(events)} events; "
        f"offset {offset} -> {new_offset}; index written to {args.output}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="opentapioca-ray")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("train-bow", help="train the BOW language model")
    s.add_argument("input")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--text-column", default="text")
    s.add_argument("--threshold", type=int, default=2)
    s.set_defaults(fn=cmd_train_bow)

    s = sub.add_parser("bow-shell", help="query phrase log-likelihoods")
    s.add_argument("-b", "--bow", required=True)
    s.add_argument("--phrase", action="append")
    s.set_defaults(fn=cmd_bow_shell)

    s = sub.add_parser("preprocess", help="JSON dump -> edge parquet")
    s.add_argument("dump")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=cmd_preprocess)

    s = sub.add_parser("compile", help="edge parquet -> graph .npz")
    s.add_argument("-i", "--input", required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--shape", type=int, default=None)
    s.set_defaults(fn=cmd_compile)

    s = sub.add_parser("compute-pagerank", help="graph .npz -> pagerank .npy")
    s.add_argument("-i", "--input", required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--iterations", type=int, default=16)
    s.set_defaults(fn=cmd_compute_pagerank)

    s = sub.add_parser("pagerank-shell", help="look up pagerank values")
    s.add_argument("-p", "--pagerank", required=True)
    s.add_argument("--node", action="append")
    s.set_defaults(fn=cmd_pagerank_shell)

    s = sub.add_parser("index-dump", help="dump + profile -> entities parquet")
    s.add_argument("dump")
    s.add_argument("-p", "--profile", required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--type-closures", default=None)
    s.add_argument(
        "--delete-excluded",
        action="store_true",
        help="emit tombstone rows for profile-excluded entities "
        "(reference delete_excluded)",
    )
    s.set_defaults(fn=cmd_index_dump)

    s = sub.add_parser("index-seed", help="subset entities by seed id list")
    s.add_argument("--entities", required=True)
    s.add_argument("--seeds", required=True)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=cmd_index_seed)

    s = sub.add_parser("index-delta", help="upsert a delta into the entity index")
    s.add_argument("--entities", required=True)
    s.add_argument("--delta", required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--version-column", default="revid")
    s.add_argument(
        "--tombstone-column",
        default=None,
        help="boolean delete-marker column; keys whose latest row is a "
        "tombstone are dropped from the compacted index",
    )
    s.set_defaults(fn=cmd_index_delta)

    s = sub.add_parser(
        "index-stream", help="ingest a JSONL event feed into the item store"
    )
    s.add_argument("--events", required=True, help="JSONL event feed file")
    s.add_argument("--source", required=True, help="source-of-truth parquet (id, item_json)")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--entities", default=None, help="existing index to upsert into")
    s.add_argument("--offset-file", default=None)
    s.add_argument("--batch-size", type=int, default=50)
    s.add_argument("--wiki", default="wikidatawiki")
    s.set_defaults(fn=cmd_index_stream)

    s = sub.add_parser("delete-output", help="remove a stage output directory")
    s.add_argument("path")
    s.add_argument("--yes", action="store_true")
    s.set_defaults(fn=cmd_delete_output)

    s = sub.add_parser("train-linkage", help="train the pairwise linkage model")
    s.add_argument("sf_dir")
    s.add_argument("--labeled", required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("-C", type=float, default=1.0)
    s.set_defaults(fn=cmd_train_linkage)

    s = sub.add_parser("linkage", help="flagship: files -> near-dup clusters")
    s.add_argument("sf_dir")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--threshold", type=float, default=0.2)
    s.add_argument("--model", default=None)
    s.set_defaults(fn=cmd_linkage)

    s = sub.add_parser("dedup", help="document deduplication")
    s.add_argument("input")
    s.add_argument("--method", default="minhash",
                   choices=["exact", "minhash", "simhash", "ngram"])
    s.add_argument("--id-column", default="doc_id")
    s.add_argument("--text-column", default="text")
    s.add_argument("--threshold", type=float, default=0.7)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=cmd_dedup)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
