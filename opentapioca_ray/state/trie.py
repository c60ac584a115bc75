"""Token-trie dictionary matcher with Solr `overlaps=NO_SUB` semantics.

Replaces the reference's Solr FST `/tag` handler (reference
opentapioca/tagger.py:35-77 + configsets/tapioca/conf/solrconfig.xml): the
dictionary is every normalized surface form (label + aliases +
extra_aliases) of every entity; a query emits every dictionary match whose
span is not strictly contained in another match's span (NO_SUB), capped at
`tags_limit` matches per document (reference tagger.py:45).

Tokens are normalized with the SAME analyzer chain on the index and query
side (functions/text.py: analyze_phrase / tokenize_with_offsets) — the
blocking-key parity requirement.

Built once per job (`stages/tagger.build_tagger_state`) from the entities table;
matching is a per-token-position trie walk, O(text_tokens × max_key_len).
"""

from __future__ import annotations

from opentapioca_ray.functions.text import analyze_phrase, tokenize_with_offsets


class CompiledMatcher:
    """Aho-Corasick automaton over INT TOKEN CODES compiled from a
    `SurfaceFormTrie` (round-5: replaces the per-position restart walk).

    The vocabulary is the set of normalized tokens appearing in any
    dictionary key; a document's tokens are dict-encoded ONCE (out-of-vocab
    -> -1) and the walk consumes the code array left to right with failure
    links, so matching is amortized O(tokens) instead of
    O(tokens × max_key_len) nested dict walks. Raw matches (all dictionary
    hits, before NO_SUB filtering) are enumerated via precomputed output
    chains; NO_SUB + tags_limit are applied by the caller (vectorized in
    `stages/tagger.py`).

    Layout (flat, cheap to ship through the object store):
      vocab:      dict normalized-token -> code in [0, V)
      goto:       dict (state * V + code) -> next state (sparse transitions)
      fail:       list[int] per state
      out_chain:  tuple per state of (match_token_length, state) for itself
                  (if it is a key end) and every proper-suffix key end
      out_ids:    list per state; entity-id list for key-end states (the
                  SAME list objects the trie holds, so per-state identity
                  caching in the tagger stays valid)
      root_next:  for max_depth == 1 dictionaries, np-indexable code ->
                  root-child state (the fully vectorized fast path)
    """

    __slots__ = (
        "vocab",
        "goto",
        "fail",
        "depth",
        "out_chain",
        "out_ids",
        "n_states",
        "n_codes",
        "max_depth",
        "root_next",
    )

    def __init__(self, root: dict, max_key_len: int):
        # --- vocabulary: every edge token, deterministic order ---
        vocab: dict = {}
        stack = [root]
        while stack:
            node = stack.pop()
            for tok, child in node.items():
                if tok not in vocab:
                    vocab[tok] = 0  # placeholder; renumbered below
                stack.append(child["c"])
        for i, tok in enumerate(sorted(vocab)):
            vocab[tok] = i
        V = max(1, len(vocab))

        # --- BFS flatten: state 0 is the root ---
        goto: dict = {}
        fail = [0]
        depth = [0]
        out_ids: list = [None]
        frontier = [(0, root)]
        while frontier:
            nxt_frontier = []
            for s, node in frontier:
                for tok, child in node.items():
                    t = len(fail)
                    goto[s * V + vocab[tok]] = t
                    fail.append(0)
                    depth.append(depth[s] + 1)
                    out_ids.append(child["$"])
                    nxt_frontier.append((t, child["c"]))
                    # failure link: deepest proper suffix with a transition
                    if depth[s] > 0:
                        f = fail[s]
                        c = vocab[tok]
                        while f and (f * V + c) not in goto:
                            f = fail[f]
                        cand = goto.get(f * V + c, 0)
                        fail[t] = cand if cand != t else 0
            frontier = nxt_frontier

        # --- output chains (BFS order guarantees fail[t] precedes t) ---
        out_chain: list = [()]
        for t in range(1, len(fail)):
            own = ((depth[t], t),) if out_ids[t] else ()
            out_chain.append(own + out_chain[fail[t]])

        self.vocab = vocab
        self.goto = goto
        self.fail = fail
        self.depth = depth
        self.out_chain = out_chain
        self.out_ids = out_ids
        self.n_states = len(fail)
        self.n_codes = V
        self.max_depth = max_key_len
        self.root_next = None
        if max_key_len == 1:
            import numpy as np

            rn = np.zeros(V, dtype=np.int64)
            for c in range(V):
                rn[c] = goto.get(c, 0)
            self.root_next = rn

    def find_raw(self, codes) -> tuple[list, list, list]:
        """All dictionary hits over one doc's code sequence: parallel lists
        `(start_token_idx, end_token_idx, state)`. Out-of-vocab codes (< 0)
        reset the automaton to the root — a key cannot span them."""
        goto = self.goto
        fail = self.fail
        out_chain = self.out_chain
        V = self.n_codes
        get = goto.get
        starts: list = []
        ends: list = []
        nodes: list = []
        state = 0
        for i, c in enumerate(codes):
            if c < 0:
                state = 0
                continue
            while True:
                nxt = get(state * V + c)
                if nxt is not None:
                    state = nxt
                    break
                if state == 0:
                    break
                state = fail[state]
            if state:
                for d, t in out_chain[state]:
                    starts.append(i - d + 1)
                    ends.append(i)
                    nodes.append(t)
        return starts, ends, nodes


class SurfaceFormTrie:
    """Token-level trie: tuple-of-normalized-tokens -> list of entity ids."""

    __slots__ = ("_root", "max_key_len", "_compiled")

    def __init__(self):
        self._root: dict = {}
        self.max_key_len = 0
        self._compiled: CompiledMatcher | None = None

    def compiled(self) -> CompiledMatcher:
        """Compile (once) to the int-code Aho-Corasick matcher; invalidated
        by `add`."""
        if self._compiled is None:
            self._compiled = CompiledMatcher(self._root, self.max_key_len)
        return self._compiled

    def add(self, phrase: str, entity_id) -> None:
        key = analyze_phrase(phrase)
        if not key:
            return
        self._compiled = None
        node = self._root
        for tok in key:
            nxt = node.get(tok)
            if nxt is None:
                nxt = {"$": None, "c": {}}
                node[tok] = nxt
            node = nxt["c"]
            last = nxt
        if last["$"] is None:
            last["$"] = []
        if entity_id not in last["$"]:
            last["$"].append(entity_id)
        self.max_key_len = max(self.max_key_len, len(key))

    @classmethod
    def from_entities(cls, ids, surface_form_lists) -> "SurfaceFormTrie":
        """Build from parallel sequences of entity id -> list of surface forms."""
        trie = cls()
        for eid, forms in zip(ids, surface_form_lists):
            for form in forms:
                if form:
                    trie.add(form, eid)
        return trie

    def match(self, text: str, tags_limit: int = 500) -> list[tuple[int, int, list]]:
        """All NO_SUB matches as `(start_char, end_char, entity_ids)`.

        1. tokenize with offsets; 2. at every token position walk the trie
        collecting every dictionary hit; 3. drop hits strictly contained in
        another hit; 4. cap at `tags_limit` (document order).
        """
        tokens = tokenize_with_offsets(text)
        n = len(tokens)
        raw: list[tuple[int, int, list]] = []
        for i in range(n):
            node = self._root
            for j in range(i, min(n, i + self.max_key_len)):
                nxt = node.get(tokens[j][0])
                if nxt is None:
                    break
                if nxt["$"]:
                    raw.append((tokens[i][1], tokens[j][2], nxt["$"]))
                node = nxt["c"]
        if not raw:
            return []
        # NO_SUB: drop spans strictly contained in another span. Sorted by
        # (start asc, end desc), span (s,e) is contained in some earlier span
        # iff the running max end over earlier spans is >= e (earlier spans
        # all have start <= s; equal (s,e) spans cannot repeat).
        raw.sort(key=lambda m: (m[0], -m[1]))
        kept: list[tuple[int, int, list]] = []
        running_max_end = -1
        for start, end, ids in raw:
            if end <= running_max_end:
                continue
            running_max_end = end
            kept.append((start, end, ids))
            if len(kept) >= tags_limit:
                break
        return kept
