"""Scalar text kernels.

Re-expressions of the reference's text normalizers (behavior parity, not a
port): tokenizer (reference: opentapioca/languagemodel.py:9-19), analyzer
chain for blocking keys (reference Solr managed-schema:63-75 —
ClassicTokenizer -> EnglishPossessiveFilter -> ASCIIFoldingFilter), mention
pruning (reference: opentapioca/tagger.py:32,79-89), id normalization
(reference: opentapioca/utils.py:6-34).

All functions here are pure, deterministic and vectorization-friendly; hot
paths use them through `map_batches` wrappers in stages/.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata

# --- ASCII folding (replacement for `unidecode` on the subset of text the
# reference's analyzers care about: latin letters with diacritics).
# NFKD-decompose, drop combining marks, then drop any remaining non-ASCII.
_COMBINING = 0x300


def ascii_fold(text: str) -> str:
    """Fold accented latin text to ASCII: 'Universität' -> 'Universitat'."""
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    out = []
    for ch in decomposed:
        if unicodedata.combining(ch):
            continue
        if ch.isascii():
            out.append(ch)
        elif ch == "ß":
            out.append("ss")
        elif ch in ("œ", "Œ"):
            out.append("oe" if ch == "œ" else "OE")
        elif ch in ("æ", "Æ"):
            out.append("ae" if ch == "æ" else "AE")
        elif ch in ("ø", "Ø"):
            out.append("o" if ch == "ø" else "O")
        elif ch in ("đ", "Đ", "ð", "Ð"):
            out.append("d" if ch in ("đ", "ð") else "D")
        elif ch in ("þ", "Þ"):
            out.append("th" if ch == "þ" else "TH")
        elif ch in ("ł", "Ł"):
            out.append("l" if ch == "ł" else "L")
        # anything else non-ASCII is dropped (unidecode would transliterate
        # more scripts; the corpora here are latin-script)
    return "".join(out)


# --- BOW tokenizer (reference: languagemodel.py:9-19).
# Split on `sep? SPACE sep?` where sep is punctuation; the reference pads the
# phrase with spaces first so leading/trailing separators are consumed.
_SEPARATOR_RE = re.compile(r"[,\-_/:;!?)]? [,\-_/:;!?(]?")


def tokenize(phrase: str) -> list[str]:
    """Split text into words: golden `tokenize('invited speakers') ==
    ['invited', 'speakers']` (reference test_languagemodel.py:6-7)."""
    words = (ascii_fold(w.strip()) for w in _SEPARATOR_RE.split(" " + phrase + " "))
    return [w for w in words if w]


def tokenize_codes(texts: list[str]) -> tuple:
    """`tokenize` over a whole batch as one dictionary-coded token stream:
    returns `(codes: np.ndarray[int], vocab: np.ndarray[object], counts:
    np.ndarray[int64])` where `vocab[codes]` is the batch's tokens in order,
    `counts[i]` of them doc i's, and `vocab` holds each distinct token once,
    in first-appearance order.

    The split/trim/filter and the dictionary encode run as Arrow kernels;
    `ascii_fold` touches only the non-ASCII vocabulary entries, after which
    the folded vocabulary is re-factorized (a token may fold into another
    one) and tokens that fold to "" are dropped. Callers that only hash or
    count tokens work on the codes and never build a Python string per
    token."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    n = len(texts)
    if n == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.empty(0, dtype=object),
            np.zeros(0, dtype=np.int64),
        )
    arr = pa.array([" " + (t or "") + " " for t in texts], type=pa.string())
    parts = pc.split_pattern_regex(arr, pattern=_SEPARATOR_RE.pattern)
    flat = pc.utf8_trim_whitespace(parts.values)
    keep = pc.not_equal(flat, "")
    offs = parts.offsets.to_numpy()
    keep_np = keep.to_numpy(zero_copy_only=False)
    cum = np.zeros(len(keep_np) + 1, dtype=np.int64)
    np.cumsum(keep_np, out=cum[1:])
    counts = cum[offs[1:]] - cum[offs[:-1]]
    enc = pc.dictionary_encode(flat.filter(keep))
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary.to_numpy(zero_copy_only=False)
    ascii_mask = pc.string_is_ascii(enc.dictionary).to_numpy(zero_copy_only=False)
    if not ascii_mask.all():
        vocab = vocab.copy()
        idx = np.flatnonzero(~ascii_mask)
        vocab[idx] = [ascii_fold(t) for t in vocab[idx]]
        remap, vocab = pd.factorize(vocab)
        vocab = np.asarray(vocab, dtype=object)
        codes = remap[codes]
        empty = np.flatnonzero(vocab == "")
        if len(empty):
            e = int(empty[0])
            kept = codes != e
            doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
            counts = np.bincount(doc_of[kept], minlength=n).astype(np.int64)
            codes = codes[kept]
            codes -= codes > e
            vocab = np.delete(vocab, e)
    return codes, vocab, counts


def tokenize_flat(texts: list[str]) -> tuple:
    """`tokenize` over a whole batch, flat form: returns
    `(tokens: np.ndarray[object], counts: np.ndarray[int64])` where
    `tokens[counts[:i].sum() : counts[:i+1].sum()]` are doc i's tokens.

    Byte-identical to per-doc `tokenize` (pinned by tests — the BOW oracle
    and every blocking key depend on it): `tokenize_codes`' stream with
    each code replaced by its vocabulary entry, so equal tokens share one
    Python string."""
    codes, vocab, counts = tokenize_codes(texts)
    return vocab[codes], counts


# --- Analyzer chain for the tagging index / blocking keys
# (reference managed-schema:63-75). ClassicTokenizer splits on punctuation
# and whitespace but keeps internal periods in acronyms and digits together;
# we approximate with a word-char tokenizer that also yields offsets, then
# apply EnglishPossessiveFilter ('s strip) and ASCII folding. NO lowercasing
# — the reference chain has none, matching is case-sensitive.
_WORD_RE = re.compile(r"[A-Za-z0-9_@#'À-ɏḀ-ỿ]+")
_POSSESSIVE_RE = re.compile(r"['’]s$")


def analyze_term(token: str) -> str:
    """Normalize one token exactly the same on index and query side:
    possessive strip then ASCII fold ("Vanuatu's" -> "Vanuatu"). The
    endswith check is byte-identical to `_POSSESSIVE_RE.sub("", ...)` and
    skips the regex machinery on the ~100% of tokens with no possessive."""
    if token.endswith("'s") or token.endswith("’s"):
        token = token[:-2]
    return ascii_fold(token)


def tokenize_with_offsets(text: str) -> list[tuple[str, int, int]]:
    """Tokenize returning `(normalized_token, start_char, end_char)`.

    Offsets cover the raw token (before possessive strip) so that mention
    spans reproduce the reference's Solr offsets (e.g. Vanuatu at [10,17] in
    "I live in Vanuatu" — reference test_taggerfactory.py:70-71).
    """
    out = []
    for m in _WORD_RE.finditer(text):
        tok = analyze_term(m.group(0))
        if tok:
            out.append((tok, m.start(), m.end()))
    return out


def analyze_phrase(phrase: str) -> tuple[str, ...]:
    """Normalize a dictionary entry (entity label/alias) into its token key.

    Must be byte-identical with the query-side normalization in
    `tokenize_with_offsets` — the blocking-key correctness linchpin.
    """
    return tuple(t for t, _, _ in tokenize_with_offsets(phrase))


# --- Mention pruning (reference: tagger.py:32,79-89).
_PRUNE_RE = re.compile(r"^(\w\w?|[\d ]{,4})$")


def prune_phrase(phrase: str) -> bool:
    """True if the mention should be dropped: <3 word chars or all-digit
    (with spaces), AND appears fully lowercase. Keeps 'UK', '75005', 'orcid';
    drops 'of', '1 1' (reference test_tagger.py:57-62)."""
    return _PRUNE_RE.match(phrase) is not None and phrase.lower() == phrase


# --- Entity id normalization (reference: utils.py:6-34).
_Q_RE = re.compile(r"(<?https?://www.wikidata.org/(entity|wiki)/)?(Q[0-9]+)>?")
_P_RE = re.compile(r"(<?https?://www.wikidata.org/(entity/|wiki/Property:))?(P[0-9]+)>?")


def to_q(url) -> str | None:
    """'Q1234' -> 'Q1234'; '<http://www.wikidata.org/entity/Q801> ' -> 'Q801'."""
    if not isinstance(url, str):
        return None
    m = _Q_RE.match(url.strip())
    return m.group(3) if m else None


def to_p(url) -> str | None:
    """'P1234' -> 'P1234'; '<http://www.wikidata.org/entity/P801> ' -> 'P801'."""
    if not isinstance(url, str):
        return None
    m = _P_RE.match(url.strip())
    return m.group(3) if m else None


# --- Content digest (BASELINE.json input_hint: per-row sha256 invariant).
def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
