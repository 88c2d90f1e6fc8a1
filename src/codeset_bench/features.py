"""Document feature extraction: tf-idf vectors, word embeddings trained
with CBOW negative sampling, averaged document embeddings, and padded
word-index sequences, plus persistence.

Every numeric artifact is NumPy ``.npy``/``.npz``. A ``FeatureSet`` (the
three featurized splits of one track, its vocabulary and its embedding)
is written and read as one directory by ``save_feature_set`` and
``load_feature_set``. The standard word2vec text format is only the
import and export format for embeddings made elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import textproc
from .errors import ConfigError, FormatError, NumericError, read_numpy
from .neuralcore import sigmoid
from .textproc import PAD_INDEX, EncodedDocs, Vocabulary, build_vocabulary

if TYPE_CHECKING:  # scipy.sparse loads in the functions that build or read a sparse matrix
    import scipy.sparse as sp


# ---------------------------------------------------------------------------
# tf-idf
# ---------------------------------------------------------------------------


@dataclass
class IdfTable:
    """Per-token idf aligned with vocabulary indices (slot 0 is the pad
    and carries 0)."""

    vocabulary: Vocabulary
    idf: np.ndarray



def compute_idf(vocab: Vocabulary) -> IdfTable:
    """idf(w) = ln(n_docs / df(w)) + 1, natural log, no smoothing terms.

    Tokens present in every document get exactly 1.
    """
    if vocab.n_docs < 1:
        raise ConfigError("vocabulary was built over zero documents")
    idf = np.zeros(len(vocab.index_to_token), dtype=np.float64)
    for token, i in vocab.token_to_index.items():
        idf[i] = math.log(vocab.n_docs / vocab.doc_freq[token]) + 1.0
    return IdfTable(vocabulary=vocab, idf=idf)


def tfidf_vectorize(docs: EncodedDocs, table: IdfTable) -> sp.csr_matrix:
    """Sparse doc-term matrix of raw term count times idf.

    No length normalization of any kind; a doc with a token twice scores
    exactly twice the single-occurrence doc on that column. Columns are
    vocabulary indices shifted down by one (the pad slot is dropped), so
    the matrix has exactly vocabulary-size columns.

    Each in-vocabulary token enters its document's row as a one, in
    document order; scipy's ``sum_duplicates`` then sorts every row's
    columns and sums the ones into counts, in place, and the counts are
    scaled by idf.
    """
    import scipy.sparse as sp

    cols, indptr = table.vocabulary.project(docs)
    cols -= 1
    m = sp.csr_matrix((np.ones(cols.size), cols, indptr), shape=(len(docs), len(table.vocabulary)))
    m.sum_duplicates()
    m.data *= table.idf[m.indices + 1]
    return m


@dataclass(frozen=True)
class TfidfConfig:
    """Named vocabulary-selection recipe for tf-idf features.

    ``full_rank`` keeps the ``max_features`` tokens with the largest
    summed tf-idf mass over the training documents; ``df_band`` instead
    trims by document-frequency bounds and keeps everything that
    survives.
    """

    name: str
    strategy: str  # "full_rank" | "df_band"
    max_features: int | None = None
    min_doc_freq: int = 1
    max_doc_frac: float = 1.0


TFIDF_LARGE = TfidfConfig(name="tfidf40k", strategy="full_rank", max_features=40000)
TFIDF_FILTERED = TfidfConfig(
    name="tfidf20k", strategy="df_band", min_doc_freq=10, max_doc_frac=0.8
)

TFIDF_CONFIGS = {c.name: c for c in (TFIDF_LARGE, TFIDF_FILTERED)}


def build_tfidf_table(train_docs: EncodedDocs, config: TfidfConfig) -> IdfTable:
    """Fit a vocabulary + idf table on training documents only."""
    if config.strategy == "df_band":
        vocab = build_vocabulary(
            train_docs,
            min_doc_freq=config.min_doc_freq,
            max_doc_frac=config.max_doc_frac,
            max_size=config.max_features,
        )
        return compute_idf(vocab)
    if config.strategy != "full_rank":
        raise ConfigError(f"unknown tfidf strategy {config.strategy!r}")

    vocab = build_vocabulary(train_docs)
    table = compute_idf(vocab)
    if config.max_features is None or len(vocab.token_to_index) <= config.max_features:
        return table
    # summed over the documents in order, as the column sums of the
    # train tf-idf matrix (whose column j is vocabulary index j + 1)
    m = tfidf_vectorize(train_docs, table)
    mass = np.bincount(m.indices, weights=m.data, minlength=len(vocab)).tolist()
    # rank by (-summed mass, token) for a deterministic cut
    tokens = vocab.index_to_token[1:]
    order = sorted(range(len(tokens)), key=lambda j: (-mass[j], tokens[j]))
    keep = np.zeros(len(train_docs.table), dtype=bool)
    keep[[train_docs.table[tokens[j]] for j in order[: config.max_features]]] = True
    return compute_idf(build_vocabulary(train_docs, keep=keep))


# ---------------------------------------------------------------------------
# CBOW word2vec with negative sampling
# ---------------------------------------------------------------------------

# Centers trained together as one block of array operations. Every center of
# a block reads the weights as they were at the block's start, so larger
# blocks run faster but train on staler weights; one block per epoch stalls.
CBOW_BLOCK = 128
# Blocks prepared by one array pass, whose size bounds its memory; each trains as above.
CBOW_CHUNK = 64
# the learning rate decays linearly from the first to the second
CBOW_LR = 0.025
CBOW_MIN_LR = 1e-4


@dataclass
class Word2VecResult:
    vocabulary: Vocabulary
    vectors: np.ndarray  # rows align with vocabulary indices; row 0 is zeros
    losses: np.ndarray  # one entry per SGD step


def embedding_vocabulary(docs: EncodedDocs, min_count: int) -> Vocabulary:
    """The vocabulary an embedding is indexed by: the tokens of ``docs``
    seen at least ``min_count`` times in all, word2vec's rule."""
    keep = np.bincount(docs.ids, minlength=len(docs.table)) >= min_count
    if min_count > 1 and docs.ids.size and not keep.any():  # an empty corpus fails below
        raise ConfigError("min_count removed every token")
    return build_vocabulary(docs, keep=keep)


def train_word2vec_cbow(
    docs: EncodedDocs,
    dim: int = 50,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    min_count: int = 1,
    seed: int = 0,
) -> Word2VecResult:
    """Continuous bag-of-words embeddings trained by negative sampling.

    Seeded SGD with one step per token of the corpus: the context vectors
    inside a per-position window (width drawn uniformly from 1..window,
    never crossing the center's document) are averaged, scored against
    the true center and ``negatives`` noise words drawn from the unigram
    distribution raised to 3/4, and both embedding tables are updated from
    the logistic loss. The learning rate decays linearly from ``CBOW_LR``
    over all scheduled steps, never below ``CBOW_MIN_LR``.

    Steps run in blocks of ``CBOW_BLOCK`` consecutive corpus positions; every
    center of a block reads both tables as they were at its start, and the
    block's updates are summed in at its end. ``CBOW_CHUNK`` blocks draw their
    widths and noise in block order, then get contexts, targets and rates in
    one array pass; each block then runs three sparse products on its slice.
    """
    if dim < 1 or window < 1 or negatives < 0 or epochs < 1:
        raise ConfigError("invalid word2vec hyperparameters")
    vocab = embedding_vocabulary(docs, min_count)

    # the corpus as one flat index array of the documents that keep two or
    # more in-vocabulary tokens; document d is corpus[offsets[d]:offsets[d + 1]]
    corpus, starts = vocab.project(docs)
    lengths = np.diff(starts)
    corpus = corpus[np.repeat(lengths >= 2, lengths)].astype(np.int64)
    lengths = lengths[lengths >= 2]
    if not lengths.size:
        raise ConfigError("no document retains two in-vocabulary tokens")
    offsets = np.concatenate([[0], np.cumsum(lengths)])

    n_slots = len(vocab.index_to_token)
    rng = np.random.default_rng(seed)
    w_in = (rng.random((n_slots, dim)) - 0.5) / dim
    w_out = np.zeros((n_slots, dim), dtype=np.float64)
    w_in[PAD_INDEX] = 0.0

    # noise distribution: unigram counts over the corpus, ^0.75, as a CDF
    noise_cdf = np.cumsum(np.bincount(corpus, minlength=n_slots) ** 0.75)
    noise_cdf /= noise_cdf[-1]

    n = corpus.size
    total_steps = epochs * n
    losses = np.empty(total_steps, dtype=np.float64)
    for epoch in range(epochs):
        for chunk in range(0, n, CBOW_CHUNK * CBOW_BLOCK):
            centers = np.arange(chunk, min(chunk + CBOW_CHUNK * CBOW_BLOCK, n))
            blocks = [slice(a, a + CBOW_BLOCK) for a in range(0, centers.size, CBOW_BLOCK)]
            draws = [(rng.integers(1, window + 1, m), rng.random((m, negatives)))
                     for m in (centers[b].size for b in blocks)]
            widths, noise = (np.concatenate(d) for d in zip(*draws))
            indices, weights, indptr = _context_average(corpus, offsets, centers, widths, window)
            targets = np.column_stack([corpus[centers], noise_cdf.searchsorted(noise, "right")])
            steps = epoch * n + centers
            lr = np.maximum(CBOW_MIN_LR, CBOW_LR * (1.0 - steps / total_steps))
            for b in blocks:
                ptr = indptr[b.start : b.stop + 1]
                context = (indices[ptr[0] : ptr[-1]], weights[ptr[0] : ptr[-1]], ptr - ptr[0])
                losses[steps[b]] = _cbow_block_update(w_in, w_out, context, targets[b], lr[b])
    if not np.all(np.isfinite(w_in)):
        raise NumericError("non-finite values in trained embeddings")
    return Word2VecResult(vocabulary=vocab, vectors=w_in, losses=losses)


def _context_average(
    corpus: np.ndarray, offsets: np.ndarray, centers: np.ndarray, widths: np.ndarray, reach: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR rows ``(indices, weights, indptr)``: row i averages every position
    at most ``widths[i] <= reach`` from ``centers[i]`` in its document, the
    center excluded, in ascending order; a word twice in a window has two entries."""
    doc = offsets.searchsorted(centers, side="right") - 1
    shifts = np.concatenate([np.arange(-reach, 0), np.arange(1, reach + 1)])
    positions = centers[:, None] + shifts
    first, end = offsets[doc, None], offsets[doc + 1, None]
    inside = (np.abs(shifts) <= widths[:, None]) & (positions >= first) & (positions < end)
    counts = inside.sum(axis=1)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return corpus[positions[inside]], np.repeat(1.0 / counts, counts), indptr


def _cbow_block_update(
    w_in: np.ndarray, w_out: np.ndarray, context: tuple, targets: np.ndarray, lr: np.ndarray
) -> np.ndarray:
    """One SGD step for each of a block of B centers, in place; returns the B losses.

    ``context`` is B rows ``(indices, weights, indptr)`` of ``_context_average``,
    ``targets`` is [B, 1 + negatives] with the true center first, and ``lr``
    holds each center's learning rate. Every center scores and takes
    gradients against both tables as they are on entry; all updates are
    then added in, so repeated context words and duplicate targets add up.
    """
    b, k = targets.shape
    h = _sparse_product("csr", b, context, w_in)  # [B, dim] context averages
    out = w_out[targets]  # [B, K, dim]
    p = sigmoid(np.einsum("bkd,bd->bk", out, h))
    fit = 1.0 - p  # probability given to each target's label
    fit[:, 0] = p[:, 0]
    loss = -np.log(np.maximum(fit, 1e-10)).sum(axis=1)
    g = p
    g[:, 0] -= 1.0  # p - label
    grad_h = np.einsum("bk,bkd->bd", g, out)
    _add_rows(w_out, (targets.ravel(), (lr[:, None] * g).ravel(), np.arange(0, b * k + 1, k)), -h)
    _add_rows(w_in, context, -lr[:, None] * grad_h)
    return loss


def _add_rows(table: np.ndarray, terms: tuple, values: np.ndarray) -> None:
    """``table[rows[j]] += weights[j] * values[i]`` for every i and every j
    in ``indptr[i]:indptr[i + 1]`` of ``terms = (rows, weights, indptr)``, a
    repeated row getting every term. One sparse product over the distinct
    rows sums the terms, so the cost does not grow with the table."""
    rows, weights, indptr = terms
    distinct, slot = np.unique(rows, return_inverse=True)
    table[distinct] += _sparse_product("csc", distinct.size, (slot, weights, indptr), values)


def _sparse_product(fmt: str, n_rows: int, matrix: tuple, dense: np.ndarray) -> np.ndarray:
    """``sp.<fmt>_matrix((data, indices, indptr), (n_rows, len(dense))) @ dense``
    for "csr" or "csc" and ``matrix = (indices, data, indptr)``: the kernel that
    product runs, with no matrix built or checked. float64 values; ``indices``
    and ``indptr`` share one integer dtype."""
    from scipy.sparse import _sparsetools

    indices, data, indptr = matrix
    out = np.zeros((n_rows, dense.shape[1]))
    kernel = getattr(_sparsetools, fmt + "_matvecs")
    kernel(n_rows, *dense.shape, indptr, indices, data, dense.ravel(), out.ravel())
    return out


# ---------------------------------------------------------------------------
# Embedding matrices and document encodings
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingMatrix:
    """Vocabulary-aligned embedding rows; row 0 (the pad) is all zeros."""

    vocabulary: Vocabulary
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __post_init__(self):
        if self.matrix.shape[0] != len(self.vocabulary.index_to_token):
            raise ConfigError("embedding rows do not match vocabulary slots")


def align_embeddings(vocab: Vocabulary, tokens: Sequence[str], vectors: np.ndarray) -> EmbeddingMatrix:
    """Build a vocabulary-aligned matrix from (token, vector) pairs.
    Tokens absent from the source, and the pad, get zero rows."""
    lookup = {t: i for i, t in enumerate(tokens)}
    out = np.zeros((len(vocab.index_to_token), vectors.shape[1]), dtype=np.float64)
    for token, i in vocab.token_to_index.items():
        j = lookup.get(token)
        if j is not None:
            out[i] = vectors[j]
    return EmbeddingMatrix(vocabulary=vocab, matrix=out)


def average_embedding(indices: Sequence[int], emb: EmbeddingMatrix) -> np.ndarray:
    """Mean of the embedding rows for the given token indices.

    Pad indices are ignored. The sum runs over sorted unique indices
    weighted by multiplicity, so any permutation of the same multiset of
    tokens yields the bitwise-identical vector. All-pad or empty input
    gives the zero vector.
    """
    idx = np.asarray(indices, dtype=np.int64)
    idx = idx[idx != PAD_INDEX]
    if idx.size == 0:
        return np.zeros(emb.dim, dtype=np.float64)
    uniq, counts = np.unique(idx, return_counts=True)
    total = (emb.matrix[uniq] * counts[:, None]).sum(axis=0)
    return total / idx.size


def average_embeddings(docs: EncodedDocs, emb: EmbeddingMatrix) -> np.ndarray:
    """[n_docs, dim] rows, each the ``average_embedding`` of one
    document's in-vocabulary tokens."""
    indices, starts = emb.vocabulary.project(docs)
    rows = [average_embedding(indices[a:b], emb) for a, b in pairwise(starts.tolist())]
    return np.array(rows) if rows else np.zeros((0, emb.dim))


def encode_corpus_sequences(docs: EncodedDocs, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """[n_docs, max_len] int64 rows: each document's last ``max_len``
    in-vocabulary indices, front-padded with the pad index.

    Out-of-vocabulary tokens are dropped before the tail is taken, so a
    long document always contributes ``max_len`` real indices when it has
    that many known tokens.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    indices, starts = vocab.project(docs)
    out = np.full((len(docs), max_len), PAD_INDEX, dtype=np.int64)
    for row, (start, end) in zip(out, pairwise(starts.tolist())):
        tail = indices[max(start, end - max_len):end]
        row[max_len - tail.size:] = tail
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_sparse(matrix: sp.csr_matrix, path: str | Path) -> None:
    """Uncompressed ``scipy.sparse`` .npz; written through an open file so
    that the path keeps its name."""
    import scipy.sparse as sp

    with open(path, "wb") as fh:
        sp.save_npz(fh, matrix, compressed=False)


def load_sparse(path: str | Path) -> sp.csr_matrix:
    import scipy.sparse as sp

    return read_numpy(path, sp.load_npz)


def save_dense(matrix: np.ndarray, path: str | Path) -> None:
    """2-D float64 .npy (round-trip exact)."""
    with open(path, "wb") as fh:
        np.save(fh, np.atleast_2d(np.asarray(matrix, dtype=np.float64)))


def _load_array(path: str | Path) -> np.ndarray:
    arr = read_numpy(path, lambda fh: np.load(fh, allow_pickle=False))
    if arr.ndim != 2:
        raise FormatError(f"{path}: expected a 2-D array, got shape {arr.shape}")
    return arr


def load_dense(path: str | Path) -> np.ndarray:
    arr = _load_array(path)
    if arr.dtype != np.float64:
        raise FormatError(f"{path}: expected float64, got {arr.dtype}")
    return arr


def save_sequences(seqs: np.ndarray, path: str | Path) -> None:
    """2-D .npy of vocabulary indices (never negative) in the narrowest
    unsigned dtype that holds the largest one."""
    seqs = np.asarray(seqs)
    with open(path, "wb") as fh:
        np.save(fh, seqs.astype(np.min_scalar_type(seqs.max(initial=0))))


def load_sequences(path: str | Path) -> np.ndarray:
    arr = _load_array(path)
    if arr.dtype.kind not in "ui":
        raise FormatError(f"{path}: expected integer indices, got {arr.dtype}")
    if arr.size and arr.min() < 0:
        raise FormatError(f"{path}: negative index {arr.min()}")
    return arr.astype(np.int64)


def save_word2vec_text(result: Word2VecResult | EmbeddingMatrix, path: str | Path) -> None:
    """Standard text embedding format: "count dim" header, then one
    "token v1 .. vd" line per real vocabulary entry (pad row omitted)."""
    matrix = result.vectors if isinstance(result, Word2VecResult) else result.matrix
    tokens = result.vocabulary.index_to_token[1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {matrix.shape[1]}\n")
        for i, tok in enumerate(tokens, start=1):
            fh.write(tok + " " + " ".join(repr(v) for v in matrix[i].tolist()) + "\n")


def load_word2vec_text(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read the text embedding format back as (tokens, vectors)."""
    line = 1
    with open(path, encoding="utf-8") as fh:
        try:  # a header of two non-negative counts, then one token + dim values per line
            count, dim = (int(v) for v in fh.readline().split())
            vectors = np.empty((count, dim), dtype=np.float64)
            tokens: list[str] = []
            for line in range(2, count + 2):
                parts = fh.readline().rstrip("\n").split(" ")
                if len(parts) != dim + 1:
                    raise FormatError(f"{path}:{line}: {len(parts) - 1} values, want {dim}")
                tokens.append(parts[0])
                vectors[line - 2] = [float(p) for p in parts[1:]]
                if not np.isfinite(vectors[line - 2]).all():
                    raise FormatError(f"{path}:{line}: non-finite value")
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: {exc}") from None
        if fh.readline():
            raise FormatError(f"{path}:{count + 2}: a line past the header's {count} vectors")
    return tokens, vectors


# ---------------------------------------------------------------------------
# Feature sets
# ---------------------------------------------------------------------------

SPLIT_NAMES = ("train", "val", "test")


@dataclass
class FeatureSet:
    """Featurized splits plus whatever the model stage needs alongside."""

    kind: str  # sparse | dense | sequence
    train: object
    val: object
    test: object
    vocab: Vocabulary
    embedding: EmbeddingMatrix | None = None


def _split_codec(kind: str):
    """(file suffix, writer, reader) for the splits of one feature kind.

    Resolved on every call, never held in a table built at import, so that
    a module function replaced from outside (a tracer) is the one called.
    """
    if kind == "sparse":
        return ".sparse", save_sparse, load_sparse
    if kind == "dense":
        return ".dense", save_dense, load_dense
    if kind == "sequence":
        return ".seq", save_sequences, load_sequences
    raise ConfigError(f"unknown feature kind {kind!r}")


def save_feature_set(fs: FeatureSet, d: str | Path) -> None:
    """Write ``fs`` into directory ``d``: ``vocab.tsv``, ``embedding.npy``
    when there is an embedding, and one file per split in the format of
    ``fs.kind``."""
    d = Path(d)
    suffix, write, _ = _split_codec(fs.kind)
    textproc.save_vocabulary(fs.vocab, d / "vocab.tsv")
    if fs.embedding is not None:
        save_dense(fs.embedding.matrix, d / "embedding.npy")
    for name in SPLIT_NAMES:
        write(getattr(fs, name), d / f"{name}{suffix}")


def load_feature_set(d: str | Path, kind: str) -> FeatureSet:
    """Read back what ``save_feature_set`` wrote into ``d``."""
    d = Path(d)
    suffix, _, read = _split_codec(kind)
    vocab = textproc.load_vocabulary(d / "vocab.tsv")
    embedding = None
    path = d / "embedding.npy"
    if path.exists():
        try:
            embedding = EmbeddingMatrix(vocab, load_dense(path))
        except ConfigError as exc:
            raise FormatError(f"{path}: {exc}") from None
    splits = [read(d / f"{name}{suffix}") for name in SPLIT_NAMES]
    return FeatureSet(kind, *splits, vocab=vocab, embedding=embedding)
