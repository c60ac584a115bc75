"""Tagger stage: candidate generation over documents.

Ray-Data re-expression of the reference's Solr-backed tagger
(opentapioca/tagger.py:35-119): a stateful actor-pool `map_batches` stage.
Each actor builds, ONCE in `__init__`, from broadcast (`ray.put`) objects:

- a `SurfaceFormTrie` over every entity surface form (label + aliases +
  extra_aliases) — the FST dictionary analog;
- the BOW language model (surface log-likelihood);
- the pagerank vector (rank = 23 + log(pagerank), OOV 0.01/N).

Per batch it emits one row per (mention, candidate tag), already:
- truncated to 10,000 chars per doc (reference tagger.py:33,41),
- capped at 500 matches/doc (tagger.py:45) and top-10 tags/mention by rank
  (tagger.py:118),
- pruned of short lowercase/digit mentions (tagger.py:71-77),
- log_likelihood = NEGATIVE BOW log-likelihood (tagger.py:105,117).
"""

from __future__ import annotations

import pyarrow as pa

from opentapioca_ray.state.bow import BOWLanguageModel
from opentapioca_ray.state.graph import pagerank_from_vector
from opentapioca_ray.state.trie import SurfaceFormTrie
from opentapioca_ray.functions.text import prune_phrase

TAGS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("phrase", pa.string()),
        ("log_likelihood", pa.float64()),
        ("qid", pa.string()),
        ("label", pa.string()),
        ("rank", pa.float64()),
        ("nb_statements", pa.int32()),
        ("nb_sitelinks", pa.int32()),
        ("edges", pa.list_(pa.int64())),
    ]
)


class EntityCatalog:
    """In-actor entity side state: trie + per-entity records."""

    def __init__(self, entities: pa.Table):
        self.docs: dict[str, dict] = {}
        self.trie = SurfaceFormTrie()
        cols = entities.to_pydict()
        n = len(cols["id"])
        has = lambda name: name in cols
        for i in range(n):
            eid = cols["id"][i]
            label = cols["label"][i]
            rec = {
                "id": eid,
                "label": label,
                "aliases": cols["aliases"][i] if has("aliases") else [],
                "extra_aliases": cols["extra_aliases"][i] if has("extra_aliases") else [],
                "edges": cols["edges"][i] if has("edges") else [],
                "nb_statements": cols["nb_statements"][i] if has("nb_statements") else 0,
                "nb_sitelinks": cols["nb_sitelinks"][i] if has("nb_sitelinks") else 0,
            }
            self.docs[eid] = rec
            for form in [label, *(rec["aliases"] or []), *(rec["extra_aliases"] or [])]:
                if form:
                    self.trie.add(form, eid)


def tag_document(
    doc_id: str,
    text: str,
    catalog: EntityCatalog,
    bow: BOWLanguageModel,
    graph,
    max_length: int = 10000,
    tags_limit: int = 500,
    top_k: int = 10,
    prune: bool = True,
) -> list[dict]:
    """Reference `tag_and_rank` semantics over the in-actor trie."""
    text = text[:max_length]
    rows: list[dict] = []
    for start, end, ids in catalog.trie.match(text, tags_limit=tags_limit):
        surface = text[start:end]
        if prune and prune_phrase(surface):
            continue
        neg_ll = -bow.log_likelihood(surface)
        tags = []
        for eid in ids:
            rec = catalog.docs[eid]
            numeric = int(eid[1:]) if eid[:1] in ("Q", "R") and eid[1:].isdigit() else -1
            tags.append((rec, graph.rank_feature(numeric)))
        tags.sort(key=lambda t: -t[1])
        for rec, rank in tags[:top_k]:
            rows.append(
                {
                    "doc_id": doc_id,
                    "start": start,
                    "end": end,
                    "phrase": surface,
                    "log_likelihood": neg_ll,
                    "qid": rec["id"],
                    "label": rec["label"],
                    "rank": rank,
                    "nb_statements": int(rec["nb_statements"] or 0),
                    "nb_sitelinks": int(rec["nb_sitelinks"] or 0),
                    "edges": [int(e) for e in (rec["edges"] or [])],
                }
            )
    return rows


class TaggerSharedState:
    """Immutable, build-ONCE tagger state: the entity catalog, the compiled
    int-code automaton, the BOW/pagerank models and the flattened per-state
    tag tables. Built in a single Ray task by `build_tagger_state` and
    shared by every actor of the pool through the object store — at full
    dictionary scale (millions of surface forms) the trie + automaton
    compile is minutes of CPU, paid once instead of once per actor.
    Everything here is read-only after construction; per-actor MUTABLE memo
    caches stay on `TaggerStage`."""

    __slots__ = (
        "catalog",
        "matcher",
        "bow",
        "graph",
        "top_k",
        "node_off",
        "node_ntags",
        "tag_qid",
        "tag_label",
        "tag_rank",
        "tag_nbst",
        "tag_nbsi",
        "tag_edges",
    )


def build_tagger_state(
    entities: pa.Table, bow=None, pagerank=None, top_k: int = 10
) -> TaggerSharedState:
    """Build the shared tagger state (see `TaggerSharedState`)."""
    import numpy as np

    st = TaggerSharedState()
    st.catalog = EntityCatalog(entities)
    if bow is None:
        bow = BOWLanguageModel.from_counts({}, 0)
    elif isinstance(bow, dict):
        bow = BOWLanguageModel.from_counts(bow["word_count"], bow["total_count"])
    st.bow = bow
    if pagerank is None:
        pagerank = np.array([1.0])
    st.graph = pagerank_from_vector(pagerank)
    st.top_k = top_k
    st.matcher = st.catalog.trie.compiled()

    def tags_of(ids):
        tags = []
        for eid in ids:
            rec = st.catalog.docs[eid]
            numeric = (
                int(eid[1:])
                if eid[:1] in ("Q", "R") and eid[1:].isdigit()
                else -1
            )
            tags.append((rec, st.graph.rank_feature(numeric)))
        tags.sort(key=lambda t: -t[1])
        return tags[:top_k]

    mat = st.matcher
    n_tags = np.zeros(mat.n_states, dtype=np.int64)
    qid_f: list = []
    label_f: list = []
    rank_f: list = []
    nbst_f: list = []
    nbsi_f: list = []
    edges_f: list = []
    for t in range(mat.n_states):
        ids = mat.out_ids[t]
        if not ids:
            continue
        tags = tags_of(ids)
        n_tags[t] = len(tags)
        for rec, rank in tags:
            qid_f.append(rec["id"])
            label_f.append(rec["label"])
            rank_f.append(rank)
            nbst_f.append(int(rec["nb_statements"] or 0))
            nbsi_f.append(int(rec["nb_sitelinks"] or 0))
            edges_f.append([int(e) for e in (rec["edges"] or [])])
    st.node_off = np.concatenate(([0], np.cumsum(n_tags))).astype(np.int64)
    st.node_ntags = n_tags
    st.tag_qid = np.array(qid_f, dtype=object)
    st.tag_label = np.array(label_f, dtype=object)
    st.tag_rank = np.array(rank_f, dtype=np.float64)
    st.tag_nbst = np.array(nbst_f, dtype=np.int32)
    st.tag_nbsi = np.array(nbsi_f, dtype=np.int32)
    edges_obj = np.empty(len(edges_f), dtype=object)
    for i, e in enumerate(edges_f):
        edges_obj[i] = e
    st.tag_edges = edges_obj
    return st


class TaggerStage:
    """Callable class for `ds.map_batches(TaggerStage, concurrency=N, ...)`.

    Constructor args are `ray.ObjectRef`s so the (large) entity table, BOW
    dict and pagerank vector ship through the object store once per actor,
    not once per batch. Pass `state_ref` (a ref to a PREBUILT
    `TaggerSharedState` from `build_tagger_state`) to skip the per-actor
    catalog/automaton build entirely — the actors-mode path in
    `pipelines/annotate.tag_documents` does this, so the dictionary
    compile runs once per JOB, not once per actor.
    """

    def __init__(
        self,
        entities_ref=None,
        bow_ref=None,
        pagerank_ref=None,
        doc_id_column: str = "doc_id",
        text_column: str = "text",
        max_length: int = 10000,
        tags_limit: int = 500,
        top_k: int = 10,
        prune: bool = True,
        state_ref=None,
    ):
        import ray

        def resolve(x):
            return ray.get(x) if isinstance(x, ray.ObjectRef) else x

        if state_ref is not None:
            state = resolve(state_ref)
            if state.top_k != top_k:
                raise ValueError(
                    f"top_k={top_k} disagrees with the prebuilt state's "
                    f"top_k={state.top_k}; build the state with the top_k you want"
                )
        else:
            state = build_tagger_state(
                resolve(entities_ref),
                resolve(bow_ref),
                resolve(pagerank_ref),
                top_k=top_k,
            )
        self.catalog = state.catalog
        self.bow = state.bow
        self.graph = state.graph
        self.doc_id_column = doc_id_column
        self.text_column = text_column
        self.max_length = max_length
        self.tags_limit = tags_limit
        self.top_k = state.top_k
        self.prune = prune
        # per-actor memo caches (round-3 verdict item 4): BOW likelihood /
        # prune verdict are pure functions of the surface string, and the
        # rank-sorted candidate list is pure per trie node — surfaces and
        # nodes repeat constantly across a corpus, so caching them removes
        # the per-match re-tokenization that dominated the profile. These
        # are MUTABLE and therefore per-stage, never on the shared state.
        self._surface_cache: dict = {}
        # round-5 verdict item 3: int-code Aho-Corasick matcher. Tokens are
        # dict-encoded once per doc (raw-token -> code memo: -2 normalizes
        # to empty / -1 out-of-vocab / >=0 vocab code), the walk is
        # amortized O(tokens), and NO_SUB + cap + tag fan-out run as numpy
        # over the whole batch's matches. Per-state tag tables (rank-sorted,
        # top-k applied) are flattened once per JOB so emission is pure
        # fancy indexing, not per-row Python appends.
        self._matcher = state.matcher
        self._token_code_cache: dict = {}
        self._node_off = state.node_off
        self._node_ntags = state.node_ntags
        self._tag_qid = state.tag_qid
        self._tag_label = state.tag_label
        self._tag_rank = state.tag_rank
        self._tag_nbst = state.tag_nbst
        self._tag_nbsi = state.tag_nbsi
        self._tag_edges = state.tag_edges

    def _surface_info(self, surface: str):
        hit = self._surface_cache.get(surface)
        if hit is None:
            if self.prune and prune_phrase(surface):
                hit = (True, 0.0)
            else:
                hit = (False, -self.bow.log_likelihood(surface))
            self._surface_cache[surface] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from opentapioca_ray.functions.text import _WORD_RE, analyze_term

        mat = self._matcher
        vocab_get = mat.vocab.get
        code_cache = self._token_code_cache
        cache_get = code_cache.get
        finditer = _WORD_RE.finditer
        root_next = mat.root_next  # non-None iff max key length == 1

        doc_ids = batch.column(self.doc_id_column).to_pylist()
        texts = batch.column(self.text_column).to_pylist()
        max_length = self.max_length

        # --- per-doc: tokenize + dict-encode once, then one automaton pass;
        # raw matches accumulate batch-wide with a doc ordinal ---
        m_doc: list = []
        m_start: list = []
        m_end: list = []
        m_node: list = []
        doc_texts: list = []
        doc_names: list = []
        for doc_id, text in zip(doc_ids, texts):
            if not text:
                continue
            text = text[:max_length]
            codes: list = []
            t_starts: list = []
            t_ends: list = []
            c_app = codes.append
            s_app = t_starts.append
            e_app = t_ends.append
            for m in finditer(text):
                raw = m[0]
                c = cache_get(raw)
                if c is None:
                    norm = analyze_term(raw)
                    c = -2 if not norm else vocab_get(norm, -1)
                    code_cache[raw] = c
                if c == -2:  # normalizes to empty: occupies no position
                    continue
                c_app(c)
                s_app(m.start())
                e_app(m.end())
            if not codes:
                continue
            if root_next is not None:
                # single-token dictionary: every in-vocab token IS a match
                carr = np.asarray(codes, dtype=np.int64)
                hit = np.nonzero(carr >= 0)[0]
                if len(hit) == 0:
                    continue
                sarr = np.asarray(t_starts, dtype=np.int64)[hit]
                earr = np.asarray(t_ends, dtype=np.int64)[hit]
                narr = root_next[carr[hit]]
            else:
                rs, re_, rn = mat.find_raw(codes)
                if not rs:
                    continue
                sarr = np.asarray(t_starts, dtype=np.int64)[
                    np.asarray(rs, dtype=np.int64)
                ]
                earr = np.asarray(t_ends, dtype=np.int64)[
                    np.asarray(re_, dtype=np.int64)
                ]
                narr = np.asarray(rn, dtype=np.int64)
            d = len(doc_texts)
            doc_texts.append(text)
            doc_names.append(str(doc_id))
            m_doc.append(np.full(len(sarr), d, dtype=np.int64))
            m_start.append(sarr)
            m_end.append(earr)
            m_node.append(narr)

        if not m_doc:
            return TAGS_SCHEMA.empty_table()
        dix = np.concatenate(m_doc)
        start = np.concatenate(m_start)
        end = np.concatenate(m_end)
        node = np.concatenate(m_node)

        # --- NO_SUB + tags_limit, vectorized across docs: offset char
        # positions by doc ordinal so one lexsort + running-max covers the
        # whole batch (max_length bounds every char offset) ---
        M = max_length + 2
        start_g = dix * M + start
        end_g = dix * M + end
        order = np.lexsort((-end_g, start_g))
        dix, start, end, node = (
            dix[order],
            start[order],
            end[order],
            node[order],
        )
        end_sorted = end_g[order]
        run_max = np.maximum.accumulate(end_sorted)
        prev_max = np.concatenate(([-1], run_max[:-1]))
        keep = end_sorted > prev_max
        dix, start, end, node = dix[keep], start[keep], end[keep], node[keep]
        if self.tags_limit is not None and len(dix):
            first = np.concatenate(([True], dix[1:] != dix[:-1]))
            seg0 = np.maximum.accumulate(
                np.where(first, np.arange(len(dix)), 0)
            )
            ordinal = np.arange(len(dix)) - seg0
            inlimit = ordinal < self.tags_limit
            dix, start, end, node = (
                dix[inlimit],
                start[inlimit],
                end[inlimit],
                node[inlimit],
            )
        if len(dix) == 0:
            return TAGS_SCHEMA.empty_table()

        # --- surface prune + BOW likelihood (memoized per surface text) ---
        surface_info = self._surface_info
        phrases = np.empty(len(dix), dtype=object)
        neg_ll = np.empty(len(dix), dtype=np.float64)
        pruned = np.zeros(len(dix), dtype=bool)
        for i in range(len(dix)):
            surf = doc_texts[dix[i]][start[i] : end[i]]
            p, ll = surface_info(surf)
            phrases[i] = surf
            neg_ll[i] = ll
            pruned[i] = p
        if pruned.any():
            ok = ~pruned
            dix, start, end, node = dix[ok], start[ok], end[ok], node[ok]
            phrases, neg_ll = phrases[ok], neg_ll[ok]
        if len(dix) == 0:
            return TAGS_SCHEMA.empty_table()

        # --- tag fan-out: pure fancy indexing into the per-state tables ---
        cnt = self._node_ntags[node]
        total = int(cnt.sum())
        if total == 0:
            return TAGS_SCHEMA.empty_table()
        run0 = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        within = np.arange(total, dtype=np.int64) - np.repeat(run0, cnt)
        tag_idx = np.repeat(self._node_off[node], cnt) + within
        names_obj = np.array(doc_names, dtype=object)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(names_obj[dix], cnt), type=pa.string()
                ),
                "start": pa.array(
                    np.repeat(start, cnt).astype(np.int32), type=pa.int32()
                ),
                "end": pa.array(
                    np.repeat(end, cnt).astype(np.int32), type=pa.int32()
                ),
                "phrase": pa.array(np.repeat(phrases, cnt), type=pa.string()),
                "log_likelihood": pa.array(
                    np.repeat(neg_ll, cnt), type=pa.float64()
                ),
                "qid": pa.array(self._tag_qid[tag_idx], type=pa.string()),
                "label": pa.array(self._tag_label[tag_idx], type=pa.string()),
                "rank": pa.array(self._tag_rank[tag_idx], type=pa.float64()),
                "nb_statements": pa.array(
                    self._tag_nbst[tag_idx], type=pa.int32()
                ),
                "nb_sitelinks": pa.array(
                    self._tag_nbsi[tag_idx], type=pa.int32()
                ),
                "edges": pa.array(
                    list(self._tag_edges[tag_idx]),
                    type=pa.list_(pa.int64()),
                ),
            },
            schema=TAGS_SCHEMA,
        )
