"""Deterministic hashing kernels: shingles, MinHash, LSH bands, SimHash.

The approximate blocking structure the graft adds on top of the reference's
exact-dictionary tagger (BASELINE.json north_star): per-row signatures are
`map_batches` work, banding emits blocking keys — no shuffle until the
band-key groupby. Everything here is deterministic across processes
(no PYTHONHASHSEED dependence): token hashes are SipHash with a fixed key
(`pd.util.hash_array`), the reference-style `hash64` is blake2b-64, and
permutations come from a fixed-seed RNG at import time.

The batch kernels work on one flat stream per batch, not per document:
`token_hashes` hashes each distinct token of a `tokenize_codes` stream
once, `shingle_stream` folds the k-gram windows over the whole token-hash
stream, and `minhash_stream` takes one step per permutation over the
whole shingle stream. The per-document `shingle_hashes_fast` and
`minhash_signature_fast` are their value-identical twins (pinned by
tests); `shingle_hashes_from_flat`/`shingle_hashes_batch` and
`minhash_signature_batch` are list-form adapters over the stream kernels.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE = (1 << 61) - 1
_RNG = np.random.RandomState(371)
_MAX_PERM = 256
_A = _RNG.randint(1, _MERSENNE, size=_MAX_PERM, dtype=np.uint64)
_B = _RNG.randint(0, _MERSENNE, size=_MAX_PERM, dtype=np.uint64)


def hash64(value: str) -> int:
    """Deterministic 64-bit hash of a string."""
    return int.from_bytes(
        hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest(), "little"
    )


def shingles(tokens: list[str], k: int = 3) -> list[str]:
    """Contiguous k-token shingles; short docs yield the whole doc as one."""
    if len(tokens) < k:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]


def shingle_hashes(tokens: list[str], k: int = 3) -> np.ndarray:
    return np.array([hash64(s) for s in shingles(tokens, k)], dtype=np.uint64)


_HASH_KEY = "opentapioca_ray0"  # 16 bytes, fixed: deterministic across procs


def shingle_hashes_fast(tokens: list[str], k: int = 3) -> np.ndarray:
    """Vectorized shingle hashing: one C-level SipHash pass over the tokens
    (pandas.util.hash_array, fixed key), then k-1 numpy combine passes for
    the k-gram windows — replaces a per-shingle blake2b Python loop (~100x
    on long documents). Different hash family than `shingle_hashes`, same
    MinHash semantics (behavioral tests only, no value goldens)."""
    import pandas as pd

    n = len(tokens)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    th = pd.util.hash_array(np.asarray(tokens, dtype=object), hash_key=_HASH_KEY)
    if n < k:
        acc = th[0:1].copy()
        with np.errstate(over="ignore"):
            for j in range(1, n):
                acc = (acc * np.uint64(0x100000001B3)) ^ th[j : j + 1]
        return acc
    m = n - k + 1
    acc = th[:m].copy()
    with np.errstate(over="ignore"):
        for j in range(1, k):
            acc = (acc * np.uint64(0x100000001B3)) ^ th[j : j + m]
    return acc


def token_hashes(codes: np.ndarray, vocab: np.ndarray) -> np.ndarray:
    """Per-token 64-bit hashes of a dictionary-coded token stream
    (`functions/text.tokenize_codes`): each distinct token is hashed once
    and the hashes are gathered by code. The hash is element-wise, so the
    values are those of hashing the token stream itself."""
    import pandas as pd

    if len(vocab) == 0:
        return np.zeros(len(codes), dtype=np.uint64)
    return pd.util.hash_array(vocab, hash_key=_HASH_KEY, categorize=False)[codes]


def shingle_stream(
    th: np.ndarray, counts: np.ndarray, k: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """`shingle_hashes_fast` over a whole batch's token-hash stream `th`
    (`counts[i]` hashes per doc) -> `(shingle hashes, shingles per doc)`.

    The FNV k-gram fold runs k-1 passes over the whole stream, with no
    per-document loop; windows that cross a document boundary are computed
    and not read. A document with fewer than k tokens takes its
    whole-document fold (read at its first position after len-1 passes),
    an empty one no shingle."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    short = (counts > 0) & (counts < k)
    n_sh = np.where(counts >= k, counts - k + 1, short.astype(np.int64))
    acc = th.astype(np.uint64)
    short_vals = acc[starts[short]]
    fnv = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for j in range(1, k):
            m = len(acc) - j
            acc[:m] = (acc[:m] * fnv) ^ th[j:]
            done = counts[short] == j + 1
            short_vals[done] = acc[starts[short][done]]
    out_starts = np.cumsum(n_sh) - n_sh
    # each document's windows start at its own first token
    out = acc[np.repeat(starts - out_starts, n_sh) + np.arange(n_sh.sum())]
    out[out_starts[short]] = short_vals
    return out, n_sh


def minhash_signature_fast(hashes: np.ndarray, num_perm: int = 128) -> np.ndarray:
    """MinHash signature with wrapping 64-bit arithmetic as the
    'permutation' family (h -> a*h + b mod 2^64). Not the textbook mod-p
    family but an equally valid universal-ish hash for MinHash purposes,
    and ~50x faster than exact mod-p arithmetic on Python ints."""
    if len(hashes) == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    a = _A[:num_perm, None]
    b = _B[:num_perm, None]
    with np.errstate(over="ignore"):
        vals = a * hashes[None, :].astype(np.uint64) + b
    return vals.min(axis=1)


def minhash_stream(sh: np.ndarray, sh_counts: np.ndarray, num_perm: int = 128) -> np.ndarray:
    """`minhash_signature_fast` of every document of a shingle stream
    (`sh_counts[i]` hashes per doc) -> (n_docs, num_perm).

    One step per permutation over the whole stream (`np.multiply`, `+=`,
    then `np.minimum.reduceat` at the document starts) instead of one
    (num_perm x n_shingles) product per document, whose per-call dispatch
    dominated at typical document sizes: 92 -> 45 ms over 4,000 files on
    one CPU. Value-identical per document (wrapping uint64 arithmetic
    either way); empty documents get the all-max sentinel signature."""
    sh_counts = np.asarray(sh_counts, dtype=np.int64)
    n = len(sh_counts)
    out = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    nonempty = sh_counts > 0
    if not nonempty.any():
        return out
    starts = (np.cumsum(sh_counts) - sh_counts)[nonempty]
    sig = np.empty((num_perm, len(starts)), dtype=np.uint64)
    buf = np.empty(len(sh), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            np.multiply(sh, _A[p], out=buf)
            buf += _B[p]
            np.minimum.reduceat(buf, starts, out=sig[p])
    out[nonempty] = sig.T
    return out


def shingle_hashes_batch(token_lists: list[list[str]], k: int = 3) -> list[np.ndarray]:
    """`shingle_hashes_fast` per document of a batch of token lists: list
    form of `shingle_stream` over their concatenation."""
    counts = np.fromiter((len(t) for t in token_lists), dtype=np.int64, count=len(token_lists))
    flat = np.empty(int(counts.sum()), dtype=object)
    pos = 0
    for toks in token_lists:
        flat[pos : pos + len(toks)] = toks
        pos += len(toks)
    return shingle_hashes_from_flat(flat, counts, k)


def shingle_hashes_from_flat(
    flat_tokens: np.ndarray, counts: np.ndarray, k: int = 3
) -> list[np.ndarray]:
    """`shingle_hashes_fast` per document of a flat token array (the layout
    `tokenize_flat` produces): list form of `shingle_stream`."""
    import pandas as pd

    th = (
        pd.util.hash_array(flat_tokens, hash_key=_HASH_KEY)
        if len(flat_tokens)
        else np.zeros(0, dtype=np.uint64)
    )
    sh, sh_counts = shingle_stream(th, counts, k)
    return np.split(sh, np.cumsum(sh_counts)[:-1]) if len(counts) else []


def minhash_signature_batch(hash_lists: list[np.ndarray], num_perm: int = 128) -> np.ndarray:
    """`minhash_signature_fast` per document -> (n_docs, num_perm): list
    form of `minhash_stream` over the concatenated shingle hashes."""
    counts = np.fromiter((len(h) for h in hash_lists), dtype=np.int64, count=len(hash_lists))
    sh = np.concatenate(hash_lists) if len(hash_lists) else np.zeros(0, dtype=np.uint64)
    return minhash_stream(sh.astype(np.uint64), counts, num_perm)


def band_keys(signature: np.ndarray, bands: int = 32) -> list[str]:
    """Split the signature into `bands` equal bands; key = band index +
    blake2b of the band bytes. Docs sharing any band key become candidates."""
    rows = len(signature) // bands
    keys = []
    for i in range(bands):
        chunk = signature[i * rows : (i + 1) * rows]
        digest = hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
        keys.append(f"b{i:02d}:{digest}")
    return keys


def band_keys_u64(signature: np.ndarray, bands: int = 32) -> np.ndarray:
    """uint64 variant of `band_keys` for the slim/scale blocking path: the
    whole signature hashes band-wise in one vectorized pass and each key is
    8 bytes, so the band shuffle and the singleton-count prefilter work on
    fixed-width ints instead of strings."""
    rows = len(signature) // bands
    chunks = signature[: bands * rows].reshape(bands, rows)
    with np.errstate(over="ignore"):
        acc = np.full(bands, 0xCBF29CE484222325, dtype=np.uint64)  # FNV offset
        for r in range(rows):
            acc = (acc ^ chunks[:, r]) * np.uint64(0x100000001B3)  # FNV prime
        # mix in the band index so identical band contents in different
        # bands never collide
        acc = acc ^ (np.arange(bands, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    # reinterpret as int64: Ray's sort-shuffle boundary sampling round-trips
    # key values through Python ints and overflows on uint64 > 2^63
    return acc.view(np.int64)


def band_keys_u64_batch(sigs: np.ndarray, bands: int = 32) -> np.ndarray:
    """`band_keys_u64` over a (n_docs, num_perm) signature matrix ->
    (n_docs, bands) int64 keys, value-identical, fully vectorized."""
    n, num_perm = sigs.shape
    rows = num_perm // bands
    chunks = sigs[:, : bands * rows].reshape(n, bands, rows)
    with np.errstate(over="ignore"):
        acc = np.full((n, bands), 0xCBF29CE484222325, dtype=np.uint64)
        for r in range(rows):
            acc = (acc ^ chunks[:, :, r]) * np.uint64(0x100000001B3)
        acc = acc ^ (
            np.arange(bands, dtype=np.uint64)[None, :]
            * np.uint64(0x9E3779B97F4A7C15)
        )
    return acc.view(np.int64)


def simhash(hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash over feature hashes (optionally weighted)."""
    if len(hashes) == 0:
        return 0
    bits = ((hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.float64
    )
    w = weights if weights is not None else np.ones(len(hashes))
    acc = (bits * 2.0 - 1.0).T @ w
    out = 0
    for bit_idx in np.nonzero(acc > 0)[0]:
        out |= 1 << int(bit_idx)
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def ngram_jaccard(tokens_a: list[str], tokens_b: list[str], n: int = 2) -> float:
    return jaccard(set(shingles(tokens_a, n)), set(shingles(tokens_b, n)))
