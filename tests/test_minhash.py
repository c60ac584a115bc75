import numpy as np

from opentapioca_ray.functions.minhash import (
    band_keys,
    hamming64,
    hash64,
    jaccard,
    minhash_signature_fast,
    ngram_jaccard,
    shingle_hashes,
    shingles,
    simhash,
)


def test_hash64_deterministic():
    assert hash64("abc") == hash64("abc")
    assert hash64("abc") != hash64("abd")


def test_shingles():
    assert shingles(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]
    assert shingles(["a"], 3) == ["a"]
    assert shingles([], 3) == []


def test_minhash_similarity_tracks_jaccard():
    toks_a = [f"t{i}" for i in range(100)]
    toks_b = toks_a[:90] + [f"x{i}" for i in range(10)]  # ~high overlap
    sa = minhash_signature_fast(shingle_hashes(toks_a, 3), 128)
    sb = minhash_signature_fast(shingle_hashes(toks_b, 3), 128)
    est = (sa == sb).mean()
    true = jaccard(set(shingles(toks_a, 3)), set(shingles(toks_b, 3)))
    assert abs(est - true) < 0.15
    # identical docs -> identical signatures
    assert (sa == minhash_signature_fast(shingle_hashes(list(toks_a), 3), 128)).all()


def test_band_keys_match_for_identical():
    sig = minhash_signature_fast(shingle_hashes(["a", "b", "c", "d", "e"], 3), 128)
    assert band_keys(sig, 16) == band_keys(sig.copy(), 16)
    assert len(band_keys(sig, 16)) == 16


def test_simhash_near_for_near_docs():
    toks_a = [f"t{i}" for i in range(200)]
    toks_b = toks_a[:195] + [f"z{i}" for i in range(5)]
    ha = simhash(shingle_hashes(toks_a, 3))
    hb = simhash(shingle_hashes(toks_b, 3))
    hc = simhash(shingle_hashes([f"q{i}" for i in range(200)], 3))
    assert hamming64(ha, hb) < hamming64(ha, hc)


def test_ngram_jaccard():
    assert ngram_jaccard(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert ngram_jaccard(["a", "b", "c"], ["x", "y", "z"]) == 0.0


def test_batch_kernels_value_identical_to_per_doc():
    """The batched blocking kernels must reproduce the per-doc kernels
    bit-for-bit (the LSH candidate sets — and every dedup oracle built on
    them — depend on exact hash values)."""
    import random

    from opentapioca_ray.functions.minhash import (
        band_keys_u64,
        band_keys_u64_batch,
        minhash_signature_batch,
        minhash_signature_fast,
        shingle_hashes_batch,
        shingle_hashes_fast,
    )

    rng = random.Random(7)
    vocab = [f"tok{i}" for i in range(200)]
    # exercise empty docs, docs shorter than k, and normal docs
    docs = [
        [rng.choice(vocab) for _ in range(n)]
        for n in [0, 1, 2, 3, 4, 17, 60, 0, 2, 120]
    ]
    per = [shingle_hashes_fast(d, 3) for d in docs]
    bat = shingle_hashes_batch(docs, 3)
    assert all(np.array_equal(a, b) for a, b in zip(per, bat))

    sig_per = np.stack([minhash_signature_fast(h, 64) for h in per])
    sig_bat = minhash_signature_batch(bat, 64)
    assert np.array_equal(sig_per, sig_bat)

    bk_per = np.stack([band_keys_u64(sig_per[i], 16) for i in range(len(docs))])
    bk_bat = band_keys_u64_batch(sig_bat, 16)
    assert np.array_equal(bk_per, bk_bat)


def test_batch_kernels_empty_batch():
    from opentapioca_ray.functions.minhash import (
        band_keys_u64_batch,
        minhash_signature_batch,
        shingle_hashes_batch,
    )

    assert shingle_hashes_batch([], 3) == []
    sigs = minhash_signature_batch([], 64)
    assert sigs.shape == (0, 64)
    assert band_keys_u64_batch(sigs, 16).shape == (0, 16)


def test_stream_kernels_match_per_doc_twins():
    """Token hashes of the coded stream + `shingle_stream` + `minhash_stream`
    equal per-document `shingle_hashes_fast` + `minhash_signature_fast` for
    seeded documents of 0, 1, k-1, k and more than k tokens."""
    import random

    from opentapioca_ray.functions.minhash import (
        minhash_stream,
        shingle_hashes_fast,
        shingle_stream,
        token_hashes,
    )
    from opentapioca_ray.functions.text import tokenize, tokenize_codes

    rng = random.Random(21)
    vocab = [f"w{i}" for i in range(40)] + ["é", "e", "大"]
    for k in (1, 2, 3, 5):
        lengths = [0, 1, max(k - 1, 0), k, k + 1, 3 * k + 7, 0, 1, k, 90]
        lengths += [rng.randrange(0, 2 * k + 3) for _ in range(40)]
        docs = [" ".join(rng.choice(vocab) for _ in range(n)) for n in lengths]
        codes, voc, counts = tokenize_codes(docs)
        sh, sh_counts = shingle_stream(token_hashes(codes, voc), counts, k)
        per = [shingle_hashes_fast(tokenize(d), k) for d in docs]
        assert list(sh_counts) == [len(h) for h in per]
        assert sh.dtype == np.uint64
        assert np.array_equal(sh, np.concatenate(per))
        sigs = minhash_stream(sh, sh_counts, 64)
        assert np.array_equal(sigs, np.stack([minhash_signature_fast(h, 64) for h in per]))
    sh0, c0 = shingle_stream(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64), 3)
    assert len(sh0) == len(c0) == 0
    assert minhash_stream(sh0, c0, 16).shape == (0, 16)
