"""Tokenization, stopword handling, and vocabulary construction.

All feature tracks share the same tokenizer so that tfidf vectors,
averaged embeddings, and index sequences are built over one token space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DatasetError, FormatError

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

# Digit runs longer than this look like identifiers/codes, not lab values.
MAX_DIGIT_TOKEN_LEN = 4


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty tokens and
    pure-digit tokens longer than MAX_DIGIT_TOKEN_LEN characters."""
    return [tok for tok in _TOKEN_SPLIT.split(text.lower())
            if tok and not (len(tok) > MAX_DIGIT_TOKEN_LEN and tok.isdigit())]


@dataclass(frozen=True)
class StopwordList:
    """A set of lowercase stopword tokens."""

    tokens: frozenset[str]

    def __post_init__(self):
        for t in self.tokens:
            if t != t.lower() or any(c.isspace() for c in t):
                raise FormatError(f"bad stopword entry: {t!r}")

    def __contains__(self, token: str) -> bool:
        return token.lower() in self.tokens


def remove_stopwords(tokens: Sequence[str], stopwords: StopwordList) -> list[str]:
    """Tokens with stopwords dropped; order otherwise preserved."""
    return [t for t in tokens if t not in stopwords]


def load_default_stopwords() -> StopwordList:
    """The packaged ~150-word English list."""
    text = (
        resources.files("codeset_bench")
        .joinpath("data/stopwords_en.txt")
        .read_text(encoding="utf-8")
    )
    return StopwordList(frozenset(w for w in text.split() if w))


PAD_INDEX = 0


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


def build_vocabulary(
    docs: Iterable[Sequence[str]],
    min_doc_freq: int = 1,
    max_doc_frac: float = 1.0,
    max_size: int | None = None,
) -> Vocabulary:
    """Build a Vocabulary from tokenized documents.

    Keeps tokens with min_doc_freq <= doc_freq <= max_doc_frac * n_docs.
    If max_size is set, the highest-doc-freq tokens are kept (ties broken
    by lexicographic token order). Indices start at 1 in descending
    doc-freq order so the vocabulary is invariant under document order.
    """
    df: dict[str, int] = {}
    n_docs = 0
    for doc in docs:
        n_docs += 1
        for tok in set(doc):
            df[tok] = df.get(tok, 0) + 1
    if n_docs == 0:
        raise DatasetError("no documents supplied to build_vocabulary")

    # small epsilon keeps the upper bound inclusive at float boundaries
    ceiling = max_doc_frac * n_docs + 1e-9
    kept = [(t, c) for t, c in df.items() if c >= min_doc_freq and c <= ceiling]
    if not kept:
        raise DatasetError(
            f"vocabulary empty after filtering ({len(df)} tokens, "
            f"min_doc_freq={min_doc_freq}, max_doc_frac={max_doc_frac})"
        )
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_size is not None:
        kept = kept[:max_size]

    vocab = Vocabulary(n_docs=n_docs)
    for tok, count in kept:
        vocab.token_to_index[tok] = len(vocab.index_to_token)
        vocab.index_to_token.append(tok)
        vocab.doc_freq[tok] = count
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
            vocab.token_to_index[tok] = idx
            vocab.index_to_token.append(tok)
            vocab.doc_freq[tok] = freq
    return vocab
