"""Thin HTTP annotation API (reference opentapioca/app.py:68-103).

Endpoints:
- POST/GET /api/annotate?text=...   -> mention/tag JSON
- POST/GET /api/nif?text=...&only_matching=true -> NIF Turtle

Online serving is single-document and latency-bound, so the handler calls
the tagging/classification kernels directly in-process (the same functions
the Ray batch pipeline runs per batch / per coarse partition); module
state mirrors the reference's module-level singletons (app.py:20-32). The
batch path for corpora is `pipelines.annotate.annotate`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pandas as pd

from opentapioca_ray.functions.nif import mention_json_rows, to_nif_turtle
from opentapioca_ray.stages.classify import ClassifierParams, classify_partition_vectorized
from opentapioca_ray.stages.tagger import EntityCatalog, TAGS_SCHEMA, tag_document
from opentapioca_ray.state.linear import LinearModel


class AnnotationService:
    """Holds the state the reference keeps in module singletons: entity
    catalog (trie), BOW model, pagerank, classifier."""

    def __init__(self, entities, bow, graph, model_dict: dict | None = None,
                 params: ClassifierParams | None = None):
        self.catalog = EntityCatalog(entities)
        self.bow = bow
        self.graph = graph
        self.params = params or ClassifierParams()
        self.model_dict = model_dict
        self.model = LinearModel.from_dict(model_dict) if model_dict else None

    def annotate(self, text: str, doc_id: str = "request") -> dict:
        rows = tag_document(doc_id, text, self.catalog, self.bow, self.graph)
        if not rows:
            return {"text": text, "annotations": []}
        tags_df = pd.DataFrame(rows, columns=[f.name for f in TAGS_SCHEMA])
        if self.model is not None:
            result = classify_partition_vectorized(tags_df, self.model, self.params)
        else:
            # untagged fallback: every candidate kept, top-rank wins.
            # Exactly ONE winner per (start, end): rank ties break on qid so
            # is_best/best_qid are deterministic and the merge never fans out.
            result = tags_df.copy()
            result["score"] = result["rank"]
            ordered = result.sort_values(
                ["start", "end", "rank", "qid"],
                ascending=[True, True, False, True],
                kind="mergesort",
            )
            best = ordered.drop_duplicates(["start", "end"])[
                ["start", "end", "qid"]
            ].rename(columns={"qid": "best_qid"})
            result = result.merge(best, on=["start", "end"], how="left")
            result["is_best"] = result["qid"] == result["best_qid"]
        docs = mention_json_rows(result)
        return {"text": text, "annotations": docs[0]["mentions"] if docs else []}

    def nif(self, text: str, doc_uri: str = "http://localhost/doc", only_matching: bool = True) -> str:
        out = self.annotate(text)
        return to_nif_turtle(doc_uri, text, out["annotations"], only_matching)


def make_handler(service: AnnotationService):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):  # quiet
            pass

        def _respond(self, code: int, body: bytes, ctype: str):
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _handle(self, query: dict):
            path = urlparse(self.path).path
            text = (query.get("text") or [""])[0]
            if path == "/api/annotate":
                body = json.dumps(service.annotate(text)).encode()
                self._respond(200, body, "application/json")
            elif path == "/api/nif":
                only = (query.get("only_matching") or ["true"])[0].lower() != "false"
                body = service.nif(text, only_matching=only).encode()
                self._respond(200, body, "text/turtle")
            else:
                self._respond(404, b'{"error": "unknown endpoint"}', "application/json")

        def do_GET(self):
            self._handle(parse_qs(urlparse(self.path).query))

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length).decode() if length else ""
            ctype = self.headers.get("Content-Type", "")
            if "json" in ctype:
                data = json.loads(raw or "{}")
                query = {k: [str(v)] for k, v in data.items()}
            else:
                query = parse_qs(raw)
            self._handle(query)

    return Handler


def serve(service: AnnotationService, host: str = "127.0.0.1", port: int = 0):
    """Start the HTTP server; returns (server, thread). port=0 picks a free
    port (server.server_address[1])."""
    server = ThreadingHTTPServer((host, port), make_handler(service))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
