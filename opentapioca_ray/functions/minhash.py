"""Deterministic hashing kernels: shingles, MinHash, LSH bands, SimHash.

The approximate blocking structure the graft adds on top of the reference's
exact-dictionary tagger (BASELINE.json north_star): per-row signatures are
`map_batches` work, banding emits blocking keys — no shuffle until the
band-key groupby. Everything here is deterministic across processes
(no PYTHONHASHSEED dependence): base hashes are blake2b-64, permutations
come from a fixed-seed RNG at import time.
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


def shingle_hashes_batch(token_lists: list[list[str]], k: int = 3) -> list[np.ndarray]:
    """`shingle_hashes_fast` over a whole batch with ONE hash pass.

    `pd.util.hash_array` pays ~0.3 ms of factorize/categorical setup per
    call; calling it per document makes it the dominant cost of the blocking
    stage (profiled: ~55% of `blocking_batch`). Hashing the concatenated
    token array of the batch once and slicing per document is value-identical
    (the hash is element-wise) and amortizes the setup across the batch."""
    counts = np.fromiter((len(t) for t in token_lists), dtype=np.int64, count=len(token_lists))
    total = int(counts.sum())
    flat = np.empty(total, dtype=object)
    pos = 0
    for toks in token_lists:
        flat[pos : pos + len(toks)] = toks
        pos += len(toks)
    return shingle_hashes_from_flat(flat, counts, k)


def shingle_hashes_from_flat(
    flat_tokens: np.ndarray, counts: np.ndarray, k: int = 3
) -> list[np.ndarray]:
    """Batched shingle hashing over pre-flattened tokens (the layout
    `tokenize_flat` produces): one `pd.util.hash_array` pass, then the FNV
    k-gram fold per document slice. Value-identical to `shingle_hashes_fast`
    per document."""
    import pandas as pd

    if int(counts.sum()) == 0:
        return [np.zeros(0, dtype=np.uint64) for _ in range(len(counts))]
    th = pd.util.hash_array(flat_tokens, hash_key=_HASH_KEY)
    out: list[np.ndarray] = []
    start = 0
    fnv = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for n in counts:
            n = int(n)
            if n == 0:
                out.append(np.zeros(0, dtype=np.uint64))
                continue
            s = start
            start += n
            if n < k:
                acc = th[s : s + 1].copy()
                for j in range(1, n):
                    acc = (acc * fnv) ^ th[s + j : s + j + 1]
                out.append(acc)
                continue
            m = n - k + 1
            acc = th[s : s + m].copy()
            for j in range(1, k):
                acc = (acc * fnv) ^ th[s + j : s + j + m]
            out.append(acc)
    return out


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


def minhash_signature_batch(hash_lists: list[np.ndarray], num_perm: int = 128) -> np.ndarray:
    """`minhash_signature_fast` over a whole batch -> (n_docs, num_perm).

    A per-doc (num_perm x n_shingles) multiply stays in cache and beats a
    fully-vectorized segmented `np.minimum.reduceat` by ~3x here (reduceat's
    per-segment dispatch dominates at typical doc sizes); sharing one
    errstate across the batch removes the remaining per-call overhead.
    Value-identical per document; empty documents get the all-max sentinel
    signature."""
    n = len(hash_lists)
    out = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if n == 0:
        return out
    A = _A[:num_perm, None]
    B = _B[:num_perm, None]
    with np.errstate(over="ignore"):
        for i, h in enumerate(hash_lists):
            if len(h):
                out[i] = (A * h[None, :] + B).min(axis=1)
    return out


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
