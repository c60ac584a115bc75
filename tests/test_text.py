"""Goldens from the reference's text-kernel tests
(test_languagemodel.py:6-7, test_tagger.py:57-62, utils.py doctests,
FIXTURES.md §6 normalizer-parity cases)."""

from opentapioca_ray.functions.text import (
    analyze_phrase,
    analyze_term,
    ascii_fold,
    prune_phrase,
    sha256_hex,
    to_p,
    to_q,
    tokenize,
    tokenize_with_offsets,
)


def test_tokenize_golden():
    assert tokenize("invited speakers") == ["invited", "speakers"]


def test_tokenize_separators():
    assert tokenize("a, b - c") == ["a", "b", "c"]
    assert tokenize(" padded ") == ["padded"]
    assert tokenize("") == []


def test_ascii_fold():
    assert ascii_fold("Universität") == "Universitat"
    assert ascii_fold("déjà vu") == "deja vu"
    assert ascii_fold("plain ascii") == "plain ascii"
    assert ascii_fold("Straße") == "Strasse"


def test_analyze_term_possessive():
    assert analyze_term("Vanuatu's") == "Vanuatu"
    assert analyze_term("Vanuatu’s") == "Vanuatu"
    assert analyze_term("IRIF_Paris") == "IRIF_Paris"


def test_analyze_phrase_parity():
    # index side == query side on the same surface form
    text = "I live in Vanuatu's capital"
    toks = tokenize_with_offsets(text)
    assert [t for t, _, _ in toks] == ["I", "live", "in", "Vanuatu", "capital"]
    # offsets cover the raw token incl. possessive
    vanuatu = toks[3]
    assert (vanuatu[1], vanuatu[2]) == (10, 19)
    assert analyze_phrase("Vanuatu") == ("Vanuatu",)


def test_offsets_golden_vanuatu():
    toks = tokenize_with_offsets("I live in Vanuatu")
    assert toks[-1] == ("Vanuatu", 10, 17)


def test_prune_phrase_truth_table():
    # pruned (reference test_tagger.py:57-62)
    assert prune_phrase("of")
    assert prune_phrase("1 1")
    # kept
    assert not prune_phrase("orcid")
    assert not prune_phrase("75005")
    assert not prune_phrase("UK")


def test_to_q_to_p():
    assert to_q("Q1234") == "Q1234"
    assert to_q("<http://www.wikidata.org/entity/Q801> ") == "Q801"
    assert to_q(42) is None
    assert to_p("P1234") == "P1234"
    assert to_p("<http://www.wikidata.org/entity/P801> ") == "P801"


def test_sha256():
    assert sha256_hex("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_tokenize_flat_identical_to_per_doc():
    """The Arrow-kernel batch tokenizer must match per-doc `tokenize`
    byte-for-byte (BOW oracle + every blocking key depend on it)."""
    import random

    import numpy as np

    from opentapioca_ray.functions.text import tokenize, tokenize_flat

    rng = random.Random(99)
    alphabet = "ab cé,;-_/:!?()ß大 \t\n\xa0 'ü."
    docs = ["", " ", ",", "a", "invited speakers", "é " * 5, "ß ß"]
    docs += [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        for _ in range(300)
    ]
    flat, counts = tokenize_flat(docs)
    per = [tokenize(d) for d in docs]
    assert list(counts) == [len(p) for p in per]
    assert list(flat) == [w for p in per for w in p]
    # empty batch
    f0, c0 = tokenize_flat([])
    assert len(f0) == 0 and len(c0) == 0


def test_tokenize_codes_matches_per_doc_tokenize():
    """`vocab[codes]` and `counts` of the coded batch tokenizer equal
    per-doc `tokenize` on seeded texts: separators at token edges,
    None/"" documents, and non-ASCII tokens that fold into an existing
    ASCII token ("é" -> "e") or to "" ("大"). `vocab` holds each token
    once, in first-appearance order."""
    import random

    import numpy as np

    from opentapioca_ray.functions.text import tokenize_codes

    rng = random.Random(13)
    words = ["e", "é", "ß", "ss", "大", "大é", "ab", "ü", "u", "Ü", "x"]
    seps = [" ", ", ", " -", "; ", " (", "? ", "  ", "\t", ")"]
    docs = [None, "", " ", ", ", "é e", "大 大", "e é ss ß"]
    for _ in range(400):
        parts = [rng.choice(words) for _ in range(rng.randrange(0, 12))]
        text = "".join(rng.choice(seps) + p for p in parts) + rng.choice(seps + [""])
        docs.append(text if rng.random() > 0.05 else None)
    codes, vocab, counts = tokenize_codes(docs)
    per = [tokenize(d or "") for d in docs]
    flat = [w for p in per for w in p]
    assert list(counts) == [len(p) for p in per]
    assert list(vocab[codes]) == flat
    assert list(vocab) == list(dict.fromkeys(flat))
    assert codes.dtype.kind == "i" and counts.dtype == np.int64
    c0, v0, n0 = tokenize_codes([])
    assert len(c0) == len(v0) == len(n0) == 0
    c1, v1, n1 = tokenize_codes(["大", None])
    assert len(c1) == len(v1) == 0 and list(n1) == [0, 0]
