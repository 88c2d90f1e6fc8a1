"""Tokenization, stopword handling, and vocabulary construction.

All feature tracks share the same tokenizer so that tfidf vectors,
averaged embeddings, and index sequences are built over one token space.
The dataset stage tokenizes each note once into int32 ids against one
token table (``encode_documents``); stopwords are dropped from the ids
(``remove_stopwords``), and vocabularies are fitted on them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetError, FormatError

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

# Digit runs longer than this look like identifiers/codes, not lab values.
MAX_DIGIT_TOKEN_LEN = 4


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty tokens and
    pure-digit tokens longer than MAX_DIGIT_TOKEN_LEN characters."""
    return [tok for tok in _TOKEN_SPLIT.split(text.lower())
            if tok and not (len(tok) > MAX_DIGIT_TOKEN_LEN and tok.isdigit())]


def load_default_stopwords() -> frozenset[str]:
    """The packaged ~150-word English list."""
    text = (
        resources.files("codeset_bench")
        .joinpath("data/stopwords_en.txt")
        .read_text(encoding="utf-8")
    )
    return frozenset(text.split())


PAD_INDEX = 0


@dataclass(frozen=True)
class EncodedDocs:
    """Tokenized documents as int32 ids against one token table.

    Document d is ``ids[offsets[d]:offsets[d + 1]]``. ``table`` maps each
    token to its id, and ids count up from 0 in first-seen order, so the
    i-th key of ``table`` is the token of id i. Documents encoded into one
    table share its ids.
    """

    ids: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more than there are documents
    table: dict[str, int]

    def __len__(self) -> int:
        return self.offsets.size - 1


def encode_documents(
    docs: Iterable[Sequence[str]], table: dict[str, int] | None = None
) -> EncodedDocs:
    """Encode tokenized documents as int32 ids, giving each token not yet
    in ``table`` the next id (a new table when none is given).

    One document's tokens are held as strings at a time, so ``docs`` may
    be a generator that tokenizes each document as it is asked for.
    """
    table = {} if table is None else table
    parts, offsets = [np.zeros(0, dtype=np.int32)], [0]
    for doc in docs:
        parts.append(np.array([table.setdefault(t, len(table)) for t in doc], dtype=np.int32))
        offsets.append(offsets[-1] + len(doc))
    return EncodedDocs(np.concatenate(parts), np.array(offsets, dtype=np.int64), table)


def _kept_starts(offsets: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Where each document starts among the ``kept`` positions of the ids
    that ``offsets`` divide, with one more entry than there are documents."""
    before = np.zeros(kept.size + 1, dtype=np.int64)  # kept positions before each position
    np.cumsum(kept, out=before[1:])
    return before[offsets]


def remove_stopwords(docs: EncodedDocs, stopwords: frozenset[str]) -> EncodedDocs:
    """``docs`` with every stopword id dropped, over the same table; order
    otherwise preserved."""
    kept = ~np.array([t in stopwords for t in docs.table], dtype=bool)[docs.ids]
    return EncodedDocs(docs.ids[kept], _kept_starts(docs.offsets, kept), docs.table)


@dataclass
class Vocabulary:
    """Token <-> index map with per-token document frequencies.

    Index 0 is reserved for padding and never assigned to a real token;
    real tokens occupy indices 1..len(vocab).
    """

    token_to_index: dict[str, int] = field(default_factory=dict)
    index_to_token: list[str] = field(default_factory=lambda: [""])
    doc_freq: dict[str, int] = field(default_factory=dict)
    n_docs: int = 0

    def __len__(self) -> int:
        return len(self.token_to_index)

    def project(self, docs: EncodedDocs) -> tuple[np.ndarray, np.ndarray]:
        """The vocabulary indices of the in-vocabulary tokens of ``docs``,
        as one flat int32 array, and where each document starts in it
        (int64, one more entry than there are documents, the last its
        length): one remap array (table id to index, ``PAD_INDEX`` outside
        the vocabulary) taken at every id, the pads then dropped."""
        lookup = self.token_to_index
        remap = np.array([lookup.get(t, PAD_INDEX) for t in docs.table], dtype=np.int32)
        indices = remap[docs.ids]
        known = indices != PAD_INDEX
        starts = _kept_starts(docs.offsets, known)  # its temporary goes before the gather peaks
        return indices[known], starts


def build_vocabulary(
    docs: EncodedDocs,
    min_doc_freq: int = 1,
    max_doc_frac: float = 1.0,
    max_size: int | None = None,
    keep: np.ndarray | None = None,
) -> Vocabulary:
    """Build a Vocabulary from encoded documents.

    Keeps tokens with min_doc_freq <= doc_freq <= max_doc_frac * n_docs,
    and, when ``keep`` (a bool mask over ``docs.table`` ids) is given,
    only the tokens it marks. If max_size is set, the highest-doc-freq
    tokens are kept (ties broken by lexicographic token order). Indices
    start at 1 in descending doc-freq order so the vocabulary is invariant
    under document order.
    """
    n_docs = len(docs)
    if n_docs == 0:
        raise DatasetError("no documents supplied to build_vocabulary")
    df = np.zeros(len(docs.table), dtype=np.int64)
    for a, b in pairwise(docs.offsets.tolist()):
        df[docs.ids[a:b]] += 1  # an id repeated within the document is added once

    # small epsilon keeps the upper bound inclusive at float boundaries
    ceiling = max_doc_frac * n_docs + 1e-9
    inside = (df >= max(min_doc_freq, 1)) & (df <= ceiling)
    kept = np.flatnonzero(inside if keep is None else inside & keep).tolist()
    if not kept:
        raise DatasetError(
            f"vocabulary empty after filtering ({np.count_nonzero(df)} tokens, "
            f"min_doc_freq={min_doc_freq}, max_doc_frac={max_doc_frac})"
        )
    tokens, df = list(docs.table), df.tolist()
    kept.sort(key=lambda i: (-df[i], tokens[i]))

    vocab = Vocabulary(n_docs=n_docs)
    for i in kept[:max_size]:
        vocab.token_to_index[tokens[i]] = len(vocab.index_to_token)
        vocab.index_to_token.append(tokens[i])
        vocab.doc_freq[tokens[i]] = df[i]
    return vocab


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """A ``#n_docs=N`` header line holding the number of documents the
    vocabulary was built over, then one line per token:
    index<TAB>token<TAB>doc_freq, ordered by index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#n_docs={vocab.n_docs}\n")
        for idx in range(1, len(vocab.index_to_token)):
            tok = vocab.index_to_token[idx]
            fh.write(f"{idx}\t{tok}\t{vocab.doc_freq[tok]}\n")


def load_vocabulary(path: str | Path) -> Vocabulary:
    vocab = Vocabulary()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#n_docs="):
                    vocab.n_docs = int(line[len("#n_docs="):])
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
                idx, tok, freq = int(parts[0]), parts[1], int(parts[2])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: expected an integer") from None
            if idx != len(vocab.index_to_token):
                raise FormatError(f"{path}:{lineno}: indices must be contiguous from 1")
            if tok in vocab.token_to_index:
                raise FormatError(f"{path}:{lineno}: token {tok!r} listed twice")
            if freq < 1:
                raise FormatError(f"{path}:{lineno}: doc_freq {freq} below 1")
            vocab.token_to_index[tok] = idx
            vocab.index_to_token.append(tok)
            vocab.doc_freq[tok] = freq
    return vocab
