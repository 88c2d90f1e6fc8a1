"""Tfidf, embedding training, pooling, sequence encoding, persistence."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from codeset_bench.errors import DatasetError, FormatError
from codeset_bench.features import (
    CBOW_BLOCK,
    CBOW_CHUNK,
    TFIDF_CONFIGS,
    TFIDF_FILTERED,
    TFIDF_LARGE,
    EmbeddingMatrix,
    TfidfConfig,
    align_embeddings,
    average_embedding,
    build_tfidf_table,
    build_vocabulary,
    compute_idf,
    encode_corpus_sequences,
    load_dense,
    load_sequences,
    load_sparse,
    load_word2vec_text,
    save_dense,
    save_sequences,
    save_sparse,
    save_word2vec_text,
    tfidf_vectorize,
    train_word2vec_cbow,
    _cbow_block_update,
    _context_average,
    _sparse_product,
)
from codeset_bench.textproc import PAD_INDEX, encode_documents

FIVE_DOCS = encode_documents([
    ["alpha", "beta", "gamma"],
    ["alpha", "beta"],
    ["alpha", "delta"],
    ["alpha", "epsilon", "delta"],
    ["alpha", "beta", "beta", "zeta"],
])


# -------------------------------------------------------------------- idf

def test_idf_of_everywhere_token_is_one():
    table = compute_idf(build_vocabulary(FIVE_DOCS))
    # alpha in all 5 docs: ln(5/5) + 1 = 1
    assert table.idf[table.vocabulary.token_to_index["alpha"]] == pytest.approx(1.0, abs=1e-12)


def test_idf_uses_natural_log_plus_one():
    table = compute_idf(build_vocabulary(FIVE_DOCS))
    idx = table.vocabulary.token_to_index["beta"]
    assert table.idf[idx] == pytest.approx(math.log(5 / 3) + 1.0, abs=1e-12)
    idx = table.vocabulary.token_to_index["gamma"]
    assert table.idf[idx] == pytest.approx(math.log(5.0) + 1.0, abs=1e-12)


def test_idf_pad_slot_is_zero():
    table = compute_idf(build_vocabulary(FIVE_DOCS))
    assert table.idf[PAD_INDEX] == 0.0


# ------------------------------------------------------------------ tfidf

def test_tfidf_is_raw_count_times_idf_without_normalization():
    table = compute_idf(build_vocabulary(FIVE_DOCS))
    m = tfidf_vectorize(FIVE_DOCS, table).toarray()
    beta_col = table.vocabulary.token_to_index["beta"] - 1
    beta_idf = math.log(5 / 3) + 1.0
    assert m[1, beta_col] == pytest.approx(beta_idf, abs=1e-12)      # count 1
    assert m[4, beta_col] == pytest.approx(2 * beta_idf, abs=1e-12)  # count 2


def test_tfidf_column_layout_skips_pad():
    vocab = build_vocabulary(FIVE_DOCS)
    table = compute_idf(vocab)
    m = tfidf_vectorize(FIVE_DOCS, table)
    assert m.shape == (5, len(vocab.index_to_token) - 1)


def test_tfidf_ignores_out_of_vocabulary_tokens():
    table = compute_idf(build_vocabulary(FIVE_DOCS))
    m = tfidf_vectorize(encode_documents([["alpha", "unseen"]]), table).toarray()
    assert m[0].sum() == pytest.approx(1.0)  # only alpha contributes


def test_full_rank_cut_keeps_highest_total_mass():
    # summed tfidf mass: beta 4*(ln(5/3)+1)=6.043, alpha 5*1=5,
    # delta 2*(ln(5/2)+1)=3.833, gamma=eps=zeta=ln5+1=2.609
    cfg = TfidfConfig(name="t", strategy="full_rank", max_features=3)
    table = build_tfidf_table(FIVE_DOCS, cfg)
    assert sorted(table.vocabulary.token_to_index) == ["alpha", "beta", "delta"]


def test_df_band_applies_both_bounds():
    # min 2 drops df-1 tokens; max_doc_frac 0.8 drops alpha (df 5/5)
    cfg = TfidfConfig(name="t", strategy="df_band", min_doc_freq=2, max_doc_frac=0.8)
    table = build_tfidf_table(FIVE_DOCS, cfg)
    assert sorted(table.vocabulary.token_to_index) == ["beta", "delta"]


def test_named_configs_resolve():
    from codeset_bench.harness import TRACK_KINDS

    assert TFIDF_CONFIGS == {"tfidf40k": TFIDF_LARGE, "tfidf20k": TFIDF_FILTERED}
    # the feature stage looks every sparse track up in this table
    assert {t for t, kind in TRACK_KINDS.items() if kind == "sparse"} == set(TFIDF_CONFIGS)


def test_filtered_config_on_tiny_corpus_selects_nothing():
    # df floor of 10 exceeds every df in a 5-doc corpus
    with pytest.raises(DatasetError):
        build_tfidf_table(FIVE_DOCS, TFIDF_FILTERED)


# ------------------------------------------------------------------- cbow

def two_topic_docs(n_per_topic=30, length=12, seed=0):
    rng = np.random.default_rng(seed)
    a = [f"art{i}" for i in range(8)]
    b = [f"bio{i}" for i in range(8)]
    docs = []
    for _ in range(n_per_topic):
        docs.append(list(rng.choice(a, size=length)))
        docs.append(list(rng.choice(b, size=length)))
    return encode_documents(docs)


def test_cbow_shapes_and_pad_row():
    docs = two_topic_docs(10)
    res = train_word2vec_cbow(docs, dim=8, epochs=1, seed=0)
    n_tokens = len(res.vocabulary.index_to_token)
    assert res.vectors.shape == (n_tokens, 8)
    assert not res.vectors[PAD_INDEX].any()
    assert res.losses.ndim == 1 and len(res.losses) > 0


def test_cbow_is_seed_deterministic():
    docs = two_topic_docs(6)
    a = train_word2vec_cbow(docs, dim=8, epochs=2, seed=3)
    b = train_word2vec_cbow(docs, dim=8, epochs=2, seed=3)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.losses, b.losses)


def test_cbow_loss_declines_on_learnable_corpus():
    docs = two_topic_docs(30)
    res = train_word2vec_cbow(docs, dim=16, epochs=5, seed=0)
    per_epoch = res.losses.reshape(5, -1).mean(axis=1)
    assert per_epoch[-1] < per_epoch[0]


def test_cbow_min_count_restricts_vocabulary():
    docs = encode_documents([["common", "common", "rare"], ["common", "other"], ["common", "other"]])
    res = train_word2vec_cbow(docs, dim=4, epochs=1, min_count=2, seed=0)
    assert "rare" not in res.vocabulary.token_to_index


def test_cbow_block_update_matches_scalar_reference():
    # every center reads both tables as they were on entry and every update
    # is added in, so a loop over centers and targets agrees to rounding
    rng = np.random.default_rng(11)
    w_in = rng.standard_normal((8, 5))
    w_in[PAD_INDEX] = 0.0
    w_out = 0.5 * rng.standard_normal((8, 5))
    w_out[PAD_INDEX] = 0.0
    contexts = [[1, 2, 2, 3], [4], [5, 5, 5], [1, 6, 2, 7], [3, 7]]
    targets = np.array([
        [1, 4, 6],  # plain
        [2, 2, 2],  # both negatives equal to the center
        [3, 6, 6],  # duplicate negatives
        [6, 1, 6],  # a negative equal to the center
        [7, 1, 2],
    ])
    lr = np.array([0.9, 0.5, 0.3, 0.7, 0.1])
    indptr = np.cumsum([0] + [len(c) for c in contexts])
    weights = np.concatenate([np.full(len(c), 1.0 / len(c)) for c in contexts])
    context = (np.concatenate(contexts), weights, indptr)

    got_in, got_out = w_in.copy(), w_out.copy()
    got_losses = _cbow_block_update(got_in, got_out, context, targets, lr)

    ref_in, ref_out = w_in.copy(), w_out.copy()
    for i, ctx in enumerate(contexts):
        h = w_in[ctx].mean(axis=0)
        grad_h = np.zeros(5)
        loss = 0.0
        for k, tgt in enumerate(targets[i]):
            y = 1.0 if k == 0 else 0.0
            p = 1.0 / (1.0 + math.exp(-float(w_out[tgt] @ h)))
            loss -= math.log(max(p if y else 1.0 - p, 1e-10))
            grad_h += (p - y) * w_out[tgt]
            ref_out[tgt] -= lr[i] * (p - y) * h
        for c in ctx:
            ref_in[c] -= lr[i] * grad_h / len(ctx)
        assert got_losses[i] == pytest.approx(loss, rel=1e-12)
    np.testing.assert_allclose(got_in, ref_in, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(got_out, ref_out, rtol=1e-12, atol=1e-15)
    assert not got_in[PAD_INDEX].any() and not got_out[PAD_INDEX].any()


def test_cbow_context_stays_inside_its_document_and_skips_the_center():
    offsets = np.array([0, 2, 7, 30, 32])  # documents of 2, 5, 23 and 2 tokens
    n = int(offsets[-1])
    corpus = np.arange(1, n + 1)  # token = position + 1, so columns name positions
    centers = np.arange(n)
    widths = np.random.default_rng(2).integers(1, 7, size=n)
    indices, weights, indptr = _context_average(corpus, offsets, centers, widths, 6)
    assert indptr.shape == (n + 1,) and indices.max() < n + 1  # n rows over n + 1 slots
    for t in centers:
        d = np.searchsorted(offsets, t, side="right") - 1
        expected = [
            p for p in range(offsets[d], offsets[d + 1]) if p != t and abs(p - t) <= widths[t]
        ]
        row = slice(indptr[t], indptr[t + 1])
        assert sorted(indices[row] - 1) == expected
        np.testing.assert_allclose(weights[row], 1.0 / len(expected), rtol=1e-15)


@pytest.mark.parametrize("negatives, window", [(0, 5), (5, 1), (0, 1)])
def test_cbow_trains_without_negatives_or_with_unit_window(negatives, window):
    docs = two_topic_docs(5)
    res = train_word2vec_cbow(docs, dim=6, window=window, negatives=negatives, epochs=2, seed=4)
    assert not res.vectors[PAD_INDEX].any()
    assert np.all(np.isfinite(res.vectors))
    assert res.losses.shape == (2 * docs.ids.size,)
    assert np.all(np.isfinite(res.losses)) and np.all(res.losses >= 0.0)


@pytest.mark.parametrize("n_docs", [1, CBOW_BLOCK // 2 + 3])
def test_cbow_records_one_loss_per_token_step_across_blocks(n_docs):
    # 6-token documents: one doc is shorter than a block, the other corpus
    # fills three blocks and part of a fourth; a 1-token doc does not train
    docs = [[f"w{(i + j) % 9}" for j in range(6)] for i in range(n_docs)] + [["w0"]]
    n_tokens = 6 * n_docs
    assert (n_tokens < CBOW_BLOCK) == (n_docs == 1)
    res = train_word2vec_cbow(encode_documents(docs), dim=4, epochs=3, seed=1)
    assert res.losses.shape == (3 * n_tokens,)
    assert not res.vectors[PAD_INDEX].any()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("fmt", ["csr", "csc"])
@pytest.mark.parametrize("lines, minor", [
    ([[0, 2, 2, 5], [], [3], [], [1, 1, 4]], 6),  # empty lines and repeated indices
    ([[2, 0, 2]], 3),  # one compressed line: a one-row CSR
    ([[0], [0, 0], []], 1),  # every index 0: a one-row CSC
])
@pytest.mark.parametrize("dim", [1, 5])
def test_sparse_product_matches_scipy_byte_for_byte(lines, minor, fmt, dtype, dim):
    # the helper calls a private scipy kernel; a scipy that moves or changes
    # it must fail here rather than let CBOW's bytes drift
    rng = np.random.default_rng(len(lines) + dim)
    indptr = np.cumsum([0] + [len(line) for line in lines]).astype(dtype)
    indices = np.array([i for line in lines for i in line], dtype=dtype)
    data = rng.standard_normal(indices.size)
    shape = (len(lines), minor) if fmt == "csr" else (minor, len(lines))
    x = rng.standard_normal((shape[1], dim))
    want = getattr(sp, fmt + "_matrix")((data, indices, indptr), shape=shape) @ x
    got = _sparse_product(fmt, shape[0], (indices, data, indptr), x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def chunk_corpus():
    # 17,833 training tokens in 61 documents of a Zipf vocabulary, plus one
    # 1-token document that does not train
    rng = np.random.default_rng(31)
    words = [f"t{i}" for i in range(400)]
    p = 1.0 / np.arange(1, 401)
    lengths = [2, 1] + rng.integers(2, 600, size=60).tolist()
    return [[words[j] for j in rng.choice(400, size=m, p=p / p.sum())] for m in lengths]


# sha256 over (vectors, losses) at dims 8 and 100, taken from a checkout of
# ba52242, before any code changed: there CBOW built one block at a time
CHUNK_BOUNDARY_DIGEST = "e3d380e6466a2876fec4079ac8c2300323e3ecddddca582d26edf6380ad59fd8"


def test_cbow_bytes_hold_across_chunk_and_block_boundaries():
    docs = chunk_corpus()
    lengths = np.array([len(d) for d in docs])
    offsets = np.concatenate([[0], np.cumsum(lengths[lengths >= 2])])
    chunk = CBOW_CHUNK * CBOW_BLOCK
    assert offsets[-1] > 2 * chunk and offsets[-1] % CBOW_BLOCK  # ends in a partial block
    for cut in (chunk, 2 * chunk):  # a document runs across each chunk boundary
        assert ((offsets[:-1] < cut) & (offsets[1:] > cut)).any()
    h = hashlib.sha256()
    for dim in (8, 100):
        res = train_word2vec_cbow(encode_documents(docs), dim=dim, epochs=2, seed=5)
        h.update(res.vectors.tobytes())
        h.update(res.losses.tobytes())
    assert h.hexdigest() == CHUNK_BOUNDARY_DIGEST


def uniform_corpus(n_tokens):
    # documents of 2-399 tokens over 300 words, until n_tokens are placed
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(300)]
    lengths = rng.integers(2, 400, size=n_tokens // 100 + 10)
    lengths = lengths[: np.searchsorted(np.cumsum(lengths), n_tokens) + 1]
    ids = iter(rng.integers(0, 300, size=int(lengths.sum())).tolist())
    return encode_documents([[words[next(ids)] for _ in range(m)] for m in lengths])


def test_cbow_working_memory_does_not_grow_with_the_corpus():
    # the peak beyond the result's own arrays (vectors, losses, the int64
    # corpus) is one chunk's working set, about 4 MiB at dim 32 whatever the
    # corpus; building a whole epoch at once adds about 340 bytes per token
    train_word2vec_cbow(uniform_corpus(300), dim=4, epochs=1)  # scipy imports outside the trace
    assert 32_768 >= 4 * CBOW_CHUNK * CBOW_BLOCK  # the smaller corpus spans four chunks or more
    extra = []
    for n_tokens in (32_768, 131_072):
        docs = uniform_corpus(n_tokens)
        tracemalloc.start()
        try:
            res = train_word2vec_cbow(docs, dim=32, epochs=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.losses.size >= n_tokens
        # at one epoch the losses and the int64 corpus hold 8 bytes per token each
        extra.append(peak - res.vectors.nbytes - 2 * res.losses.nbytes)
    assert extra[1] - extra[0] < 2**20  # 4x the corpus, under 1 MiB more


# ------------------------------------------------------------- embeddings

def test_align_embeddings_copies_known_and_zeros_unknown():
    vocab = build_vocabulary(encode_documents([["a", "b", "c"]]))
    vecs = np.array([[1.0, 2.0], [3.0, 4.0]])
    emb = align_embeddings(vocab, ["b", "a"], vecs)
    assert emb.matrix.shape == (4, 2)
    assert emb.matrix[vocab.token_to_index["a"]].tolist() == [3.0, 4.0]
    assert emb.matrix[vocab.token_to_index["b"]].tolist() == [1.0, 2.0]
    assert not emb.matrix[vocab.token_to_index["c"]].any()
    assert not emb.matrix[PAD_INDEX].any()


def test_average_embedding_drops_pads():
    vocab = build_vocabulary(encode_documents([["a", "b"]]))
    matrix = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 0.0]])
    emb = EmbeddingMatrix(vocabulary=vocab, matrix=matrix)
    out = average_embedding([PAD_INDEX, 1, 2], emb)
    assert out.tolist() == [4.0, 2.0]


def test_average_embedding_all_pad_gives_zeros():
    vocab = build_vocabulary(encode_documents([["a"]]))
    emb = EmbeddingMatrix(vocabulary=vocab, matrix=np.ones((2, 3)))
    assert not average_embedding([PAD_INDEX, PAD_INDEX], emb).any()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_average_embedding_is_bitwise_permutation_invariant(indices, rnd):
    vocab = build_vocabulary(encode_documents([["a", "b", "c", "d", "e"]]))
    rng = np.random.default_rng(0)
    emb = EmbeddingMatrix(vocabulary=vocab, matrix=rng.standard_normal((6, 4)))
    base = average_embedding(indices, emb)
    shuffled = list(indices)
    rnd.shuffle(shuffled)
    # bitwise equal, not approx: summation order must not depend on input order
    assert np.array_equal(base, average_embedding(shuffled, emb))


# -------------------------------------------------------------- sequences

def test_encode_word_sequence_front_pads():
    vocab = build_vocabulary(encode_documents([["a", "b", "c"]]))
    (seq,) = encode_corpus_sequences(encode_documents([["a", "b"]]), vocab, max_len=5)
    ia, ib = vocab.token_to_index["a"], vocab.token_to_index["b"]
    assert seq.tolist() == [PAD_INDEX, PAD_INDEX, PAD_INDEX, ia, ib]


def test_encode_word_sequence_drops_oov_before_truncating():
    vocab = build_vocabulary(encode_documents([["a", "b", "c"]]))
    toks = ["a", "unseen", "b", "unseen", "c"]
    (seq,) = encode_corpus_sequences(encode_documents([toks]), vocab, max_len=2)
    # oov removal happens first, then the LAST max_len tokens are kept
    assert seq.tolist() == [vocab.token_to_index["b"], vocab.token_to_index["c"]]


def test_encode_corpus_sequences_shape_and_dtype():
    vocab = build_vocabulary(encode_documents([["a", "b"]]))
    out = encode_corpus_sequences(encode_documents([["a"], ["a", "b"], []]), vocab, max_len=3)
    assert out.shape == (3, 3)
    assert np.issubdtype(out.dtype, np.integer)
    assert out[2].tolist() == [PAD_INDEX] * 3


def _string_tfidf_reference(docs, table):
    # the token-string vectorizer the id path replaced, kept as its reference
    lookup = table.vocabulary.token_to_index
    ids = [[lookup[t] for t in doc if t in lookup] for doc in docs]
    rows = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    cols = np.array([i for doc in ids for i in doc], dtype=np.int64)
    m = sp.csr_matrix((np.ones(len(cols)), (rows, cols - 1)), shape=(len(docs), len(lookup)))
    m.data *= table.idf[m.indices + 1]
    return m


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=9), min_size=1, max_size=7),
       st.lists(st.lists(st.sampled_from("efghij"), max_size=9), max_size=4),
       st.integers(min_value=1, max_value=4),
       st.lists(st.booleans(), min_size=10, max_size=10))
def test_id_featurizers_match_their_string_references(train, test, max_len, mask):
    # test documents share the token table and bring tokens unseen in train
    table = {}
    enc_train, enc_test = encode_documents(train, table), encode_documents(test, table)
    df = {}
    for doc in train:
        for t in set(doc):
            df[t] = df.get(t, 0) + 1
    if not df:
        return
    vocab = build_vocabulary(enc_train)
    assert vocab.index_to_token[1:] == sorted(df, key=lambda t: (-df[t], t))
    assert vocab.doc_freq == df
    # a keep mask over table ids: the kept tokens of train, by (-df, token)
    keep = np.array(mask[:len(table)])
    kept_df = {t: n for t, n in df.items() if keep[table[t]]}
    if kept_df:
        kept = build_vocabulary(enc_train, keep=keep)
        assert kept.index_to_token[1:] == sorted(kept_df, key=lambda t: (-kept_df[t], t))
        assert kept.doc_freq == kept_df and kept.n_docs == len(train)
    else:
        with pytest.raises(DatasetError):
            build_vocabulary(enc_train, keep=keep)
    idf = compute_idf(vocab)
    for docs, enc in ((train, enc_train), (test, enc_test)):
        got, want = tfidf_vectorize(enc, idf), _string_tfidf_reference(docs, idf)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        seqs = encode_corpus_sequences(enc, vocab, max_len)
        for doc, row in zip(docs, seqs):
            known = [vocab.token_to_index[t] for t in doc if t in vocab.token_to_index]
            tail = known[-max_len:]
            assert row.tolist() == [PAD_INDEX] * (max_len - len(tail)) + tail


# ------------------------------------------------------------ persistence

def test_sparse_round_trip_is_exact(tmp_path):
    table = compute_idf(build_vocabulary(FIVE_DOCS))
    m = tfidf_vectorize(FIVE_DOCS, table)
    path = tmp_path / "m.sparse"
    save_sparse(m, path)
    loaded = load_sparse(path)
    assert loaded.shape == m.shape
    assert np.array_equal(loaded.toarray(), m.toarray())


def test_dense_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((7, 5))
    path = tmp_path / "m.dense"
    save_dense(m, path)
    assert np.array_equal(load_dense(path), m)


def test_sequences_round_trip(tmp_path):
    # stored narrow (uint8, uint16, uint32 here), always read back as int64
    for largest in (3, 300, 70000):
        seqs = np.array([[0, 0, 3], [1, 2, largest]], dtype=np.int64)
        path = tmp_path / "x.seq"
        save_sequences(seqs, path)
        loaded = load_sequences(path)
        assert loaded.dtype == np.int64
        assert np.array_equal(loaded, seqs)


def _write_npy(path, arr):
    with open(path, "wb") as fh:
        np.save(fh, arr)


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])


@pytest.mark.parametrize(
    "loader, write",
    [
        # the earlier text layouts: header line, then values
        (load_sparse, lambda p: p.write_text("2 2 1\n0 1 1.5\n")),
        (load_dense, lambda p: p.write_text("1 2\n0.5 1.5\n")),
        (load_sequences, lambda p: p.write_text("1 2\n0 3\n")),
        (load_sparse, lambda p: (save_sparse(sp.eye(30, format="csr"), p), _truncate(p))),
        (load_dense, lambda p: (save_dense(np.ones((20, 20)), p), _truncate(p))),
        (load_sequences, lambda p: (save_sequences(np.ones((20, 20), np.int64) * 999, p),
                                    _truncate(p))),
        (load_dense, lambda p: _write_npy(p, np.ones(4))),
        (load_dense, lambda p: _write_npy(p, np.ones((2, 2, 2)))),
        (load_dense, lambda p: _write_npy(p, np.ones((2, 2), dtype=np.float32))),
        (load_sequences, lambda p: _write_npy(p, np.ones((2, 2)))),
    ],
)
def test_loaders_reject_malformed_files_naming_the_path(tmp_path, loader, write):
    path = tmp_path / "artifact"
    write(path)
    with pytest.raises(FormatError, match="artifact"):
        loader(path)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_load_sequences_refuses_negative_indices_naming_the_path(tmp_path, dtype):
    # an Embedding would silently read its last row for an index of -1
    path = tmp_path / "train.seq"
    _write_npy(path, np.array([[0, 3], [-1, 2]], dtype=dtype))
    with pytest.raises(FormatError, match=r"train\.seq: negative index -1"):
        load_sequences(path)


def test_malformed_word2vec_text_is_format_error_naming_path_and_line(tmp_path):
    # the file comes from outside the program, so no ValueError may escape
    path = tmp_path / "vectors.txt"
    # a header naming no vector or vectors of width 0 holds no embedding
    cases = {"two 3\n": 1, "-1 3\n": 1, "1 3\na 1 x 3\n": 2, "2 0\n": 1, "0 3\n": 1}
    for text, line in cases.items():
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{line}: "):
            load_word2vec_text(path)


def test_word2vec_text_rejects_non_finite_values_and_lines_past_its_count(tmp_path):
    path = tmp_path / "vectors.txt"
    cases = {"2 2\na nan inf\nb 1 2\nc 3 4\n": (2, "non-finite"),
             "2 2\na 1 2\nb 1 2\nc 3 4\n": (4, "past the header")}
    for text, (line, what) in cases.items():
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{line}: .*{what}"):
            load_word2vec_text(path)


def test_word2vec_text_round_trip_omits_pad(tmp_path):
    docs = two_topic_docs(4)
    res = train_word2vec_cbow(docs, dim=6, epochs=1, seed=1)
    path = tmp_path / "emb.txt"
    save_word2vec_text(res, path)
    tokens, vectors = load_word2vec_text(path)
    assert "" not in tokens
    assert len(tokens) == len(res.vocabulary.index_to_token) - 1
    for tok, vec in zip(tokens, vectors):
        src = res.vectors[res.vocabulary.token_to_index[tok]]
        assert np.array_equal(vec, src)
