"""Seeded input generators for the benchmark workloads.

Every table here is a pure function of the seed and the size arguments, so
the same seed always gives the same inputs. Documents follow the shape of
the repository's `documents` test table (sf0.1): each text is a bag of
words drawn uniformly from a fixed 30-word vocabulary, 10 to 99 words long,
with the same language and source columns. Generation runs in the
benchmark process, outside every timed region; the program only receives
the finished Arrow tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# The 30 words of the sf0.1 `documents.text` column; each occurs with
# (near) equal frequency there.
VOCAB = np.array(
    "a agg batch big column customer data fast filter group hash join key line"
    " merge order part query row scan slow small sort spark stream table the"
    " value vector window".split()
)
_LANGS = np.array(["en", "zh", "es", "fr", "de"])
_LANG_P = np.array([0.41, 0.15, 0.15, 0.15, 0.14])
MIN_WORDS, MAX_WORDS = 10, 99

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("source", pa.string()),
    ]
)


def _lengths(rng: np.random.Generator, n: int, lo: int = MIN_WORDS) -> np.ndarray:
    """`n` text lengths spread evenly over [lo, MAX_WORDS] in seeded order:
    the uniform length distribution of sf0.1 without its sampling noise, so
    the amount of work does not depend on the seed."""
    grid = lo + ((np.arange(n) + 0.5) * (MAX_WORDS - lo + 1) / n).astype(np.int64)
    return rng.permutation(grid)


def _words(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.integers(0, len(VOCAB), size=int(length))


def _variant(rng: np.random.Generator, base: np.ndarray, edits: int) -> np.ndarray:
    """Near-duplicate of `base`: `edits` random substitutions, insertions
    or deletions of single words."""
    out = list(base)
    for _ in range(edits):
        op = int(rng.integers(3))
        pos = int(rng.integers(len(out)))
        word = int(rng.integers(len(VOCAB)))
        if op == 0:
            out[pos] = word
        elif op == 1 and len(out) > MIN_WORDS:
            del out[pos]
        else:
            out.insert(pos, word)
    return np.asarray(out)


def _docs_table(word_lists: list[np.ndarray], rng: np.random.Generator) -> pa.Table:
    n = len(word_lists)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array([" ".join(VOCAB[w]) for w in word_lists]),
            "lang": pa.array(_LANGS[rng.choice(len(_LANGS), size=n, p=_LANG_P)]),
            "source": pa.array([f"src{i % 20}" for i in range(n)]),
        },
        schema=DOCS_SCHEMA,
    )


def linkage_corpus(
    seed: int, n_files: int, dup_fraction: float, cluster_size: int
) -> tuple[pa.Table, np.ndarray]:
    """Documents with planted near-duplicate clusters -> (docs, truth).

    About `dup_fraction` of the rows belong to clusters of `cluster_size`
    variants of one base text (one to three word edits each, scaled with
    the text length); the rest are unique texts. Lengths follow `_lengths`. `truth[i]` is the planted
    cluster of row i (unique rows are their own cluster). Rows are shuffled
    so that cluster members are spread over the input blocks. Linear in
    `n_files`."""
    rng = np.random.default_rng(seed)
    n_clusters = int(round(n_files * dup_fraction / cluster_size))
    # planted bases are at least 30 words, so a few edits leave enough
    # shared shingles for MinHash blocking to find every variant
    base_lengths = _lengths(rng, n_clusters, lo=30)
    unique_lengths = _lengths(rng, n_files - n_clusters * cluster_size)
    words: list[np.ndarray] = []
    truth: list[int] = []
    for c in range(n_clusters):
        base = _words(rng, base_lengths[c])
        words.append(base)
        truth.append(c)
        for _ in range(cluster_size - 1):
            words.append(_variant(rng, base, 1 + len(base) // 40))
            truth.append(c)
    for u, length in enumerate(unique_lengths):
        words.append(_words(rng, length))
        truth.append(n_clusters + u)
    order = rng.permutation(len(words))
    words = [words[i] for i in order]
    return _docs_table(words, rng), np.asarray(truth, dtype=np.int64)[order]


def documents(seed: int, n_docs: int) -> pa.Table:
    """`n_docs` independent documents shaped like the sf0.1 table."""
    rng = np.random.default_rng(seed)
    return _docs_table([_words(rng, n) for n in _lengths(rng, n_docs)], rng)


# ---------------------------------------------------------------------------
# Annotation fixture: the two-candidate dictionary of the classifier-family
# queries, with a fixed linear model for `nb_steps=2` features.
# ---------------------------------------------------------------------------

ENTITY_SCHEMA = pa.schema(
    [
        ("id", pa.string()),
        ("label", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("extra_aliases", pa.list_(pa.string())),
        ("edges", pa.list_(pa.int64())),
        ("nb_statements", pa.int32()),
        ("nb_sitelinks", pa.int32()),
    ]
)

# 15 weights: the 5 base features [-ll, rank, nb_statements, nb_sitelinks,
# 1] and their one- and two-step propagations.
_MODEL_W = [0.0, 1.0, 0.3, -0.7, 0.2] + [0.0, 0.5, 0.15, -0.35, 0.1] * 2
_MODEL_B = -32.0


# The top-20 document-frequency words of the sf0.1 `documents` table, in
# that order (ties broken by the word): the dictionary the classifier-family
# queries derive from that table.
DICTIONARY = (
    "stream value spark data big small vector group slow table key column"
    " order scan window hash merge row customer join".split()
)


def annotation_fixture():
    """-> (entities, pagerank, bow, model_dict, word_info).

    Each dictionary word (index i) becomes a surface form with two
    candidates: primary Q(i+1) and alternative Q(101+i). Pagerank,
    statement and sitelink counts follow fixed formulas and the BOW model
    is empty, so every feature is a function of the inputs alone.
    `word_info` maps each kept word to its primary entity (the gold
    label)."""
    from opentapioca_ray.functions.text import prune_phrase

    rows, word_info = [], {}
    for i, w in enumerate(DICTIONARY):
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
    entities = pa.Table.from_pylist(rows, schema=ENTITY_SCHEMA)
    pagerank = ((np.arange(1000) % 7) + 1) / 1000.0
    bow = {"word_count": {}, "total_count": 0}
    model = {
        "C": 0.001,
        "max_iter": 1,
        "lr": 0.05,
        "w": list(_MODEL_W),
        "b": _MODEL_B,
        "mean": [0.0] * len(_MODEL_W),
        "scale": [1.0] * len(_MODEL_W),
    }
    return entities, pagerank, bow, model, word_info


def annotation_gold(docs: pa.Table, word_info: dict):
    """Per doc, every occurrence of its most frequent dictionary word (ties
    -> smallest word), labeled with that word's primary entity; offsets
    come from the tokenizer the tagger uses. -> pandas (doc_id, begin, end,
    gold_qid)."""
    import pandas as pd

    from opentapioca_ray.functions.text import _WORD_RE, analyze_term

    out = []
    for doc_id, text in zip(
        docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()
    ):
        spans: dict[str, list] = {}
        for m in _WORD_RE.finditer(text[:10000]):
            tok = analyze_term(m[0])
            if tok in word_info:
                spans.setdefault(tok, []).append((m.start(), m.end()))
        if not spans:
            continue
        gold_word = min(spans, key=lambda w: (-len(spans[w]), w))
        for b, e in spans[gold_word]:
            out.append((str(doc_id), b, e, word_info[gold_word]))
    return pd.DataFrame(out, columns=["doc_id", "begin", "end", "gold_qid"])
