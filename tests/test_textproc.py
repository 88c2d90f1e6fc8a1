"""Tokenizer, stopword, and vocabulary behavior."""

import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeset_bench.errors import DatasetError, FormatError
from codeset_bench.textproc import (
    PAD_INDEX,
    build_vocabulary,
    encode_documents,
    load_default_stopwords,
    load_vocabulary,
    remove_stopwords,
    save_vocabulary,
    tokenize,
)


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Chest X-Ray: CLEAR.") == ["chest", "x", "ray", "clear"]


def test_tokenize_drops_long_pure_digit_runs():
    # de-identification artifacts are digit runs longer than 4 chars
    assert tokenize("id 123456 code 4019 yr 2014") == ["id", "code", "4019", "yr", "2014"]
    assert tokenize("12345") == []
    assert tokenize("1234") == ["1234"]


def test_tokenize_keeps_alphanumeric_mixes():
    # only *pure* digit runs are length-limited
    assert tokenize("x123456y") == ["x123456y"]


def test_tokenize_empty_and_symbol_only():
    assert tokenize("") == []
    assert tokenize("--- *** !!!") == []


def reference_tokenize(text):
    """The tokenizer as a regex split of the lowered text whose pieces a
    comprehension filters one at a time, digit runs kept up to 4."""
    return [tok for tok in re.split(r"[^0-9a-z]+", text.lower())
            if tok and not (len(tok) > 4 and tok.isdigit())]


# ASCII letters and digits, characters that lower to ASCII (U+0130 to
# "i" and a combining dot, U+212A KELVIN SIGN to "k") or stay non-ASCII,
# non-ASCII digits, a lone surrogate, whitespace and punctuation
TOKENIZER_ALPHABET = (string.ascii_letters + string.digits + "\u0130\u212a\u00df\ufb01\u0663\uff13"
                      + "\ud800" + string.whitespace + "\u00a0.,;:-_/()[]*'\"")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TOKENIZER_ALPHABET),
                          st.text("0123456789", min_size=4, max_size=7)), max_size=40)
       .map("".join))
def test_tokenize_equals_the_regex_and_comprehension_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("text, tokens", [
    ("\u212aCl 4\u212a \u212a12345", ["kcl", "4k", "k12345"]),  # KELVIN SIGN lowers to k
    ("\u0130NR 2.5 \u0130", ["i", "nr", "2", "5", "i"]),  # U+0130 lowers to i + U+0307
    ("ab\ud800cd 12345\udfff x\ud8001234567", ["ab", "cd", "x"]),  # lone surrogates split
], ids=["kelvin", "dotted-capital-i", "lone-surrogate"])
def test_tokenize_non_ascii_cases(text, tokens):
    assert tokenize(text) == reference_tokenize(text) == tokens


def test_default_stopwords_contain_function_words():
    sw = load_default_stopwords()
    for w in ("the", "and", "of", "was", "with"):
        assert w in sw
    assert "hypertension" not in sw


def test_every_packaged_stopword_is_a_token_the_tokenizer_emits():
    # an entry no token can equal would never be dropped
    sw = load_default_stopwords()
    assert isinstance(sw, frozenset)
    for w in sw:
        assert tokenize(w) == [w]


def test_remove_stopwords_preserves_order():
    sw = frozenset({"the", "of"})
    docs = encode_documents([["the", "king", "of", "pain"], ["of", "the"], [], ["pain", "the"]])
    kept = remove_stopwords(docs, sw)
    tokens = list(docs.table)
    assert kept.table is docs.table
    assert [tokens[i] for i in kept.ids] == ["king", "pain", "pain"]
    assert kept.ids.dtype == docs.ids.dtype
    assert kept.offsets.tolist() == [0, 2, 2, 2, 3]


def test_encode_documents_continues_a_prefilled_table_in_place():
    table = {"b": 0, "a": 1}
    docs = encode_documents(iter([["c", "a", "d", "c"], [], ["b", "e"]]), table)
    assert docs.table is table and type(table) is dict
    assert list(table.items()) == [("b", 0), ("a", 1), ("c", 2), ("d", 3), ("e", 4)]
    assert docs.ids.dtype == np.int32 and docs.ids.tolist() == [2, 1, 3, 2, 0, 4]
    assert docs.offsets.dtype == np.int64 and docs.offsets.tolist() == [0, 4, 4, 6]
    assert docs.ids[docs.offsets[1]:docs.offsets[2]].size == 0
    more = encode_documents([["f", "a"]], table)
    assert more.ids.tolist() == [5, 1] and list(table) == ["b", "a", "c", "d", "e", "f"]
    empty = encode_documents([], table)
    assert empty.ids.size == 0 and empty.offsets.tolist() == [0] and len(table) == 6


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=5),
       st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=6), max_size=6))
def test_encode_documents_matches_a_setdefault_loop(prefilled, docs):
    expected = {t: i for i, t in enumerate(prefilled)}
    ids = [expected.setdefault(t, len(expected)) for doc in docs for t in doc]
    table = {t: i for i, t in enumerate(prefilled)}
    encoded = encode_documents(docs, table)
    assert list(table.items()) == list(expected.items())
    assert encoded.ids.tolist() == ids
    assert encoded.offsets.tolist() == np.cumsum([0] + [len(d) for d in docs]).tolist()


def test_vocabulary_orders_by_doc_freq_then_token():
    docs = [["b", "a"], ["b", "c"], ["b", "a", "z"]]
    vocab = build_vocabulary(encode_documents(docs))
    # df: b=3, a=2, c=1, z=1; ties alphabetical
    assert vocab.index_to_token[1:] == ["b", "a", "c", "z"]
    assert vocab.token_to_index["b"] == 1
    assert vocab.doc_freq["a"] == 2
    assert vocab.n_docs == 3


def test_vocabulary_reserves_pad_slot():
    vocab = build_vocabulary(encode_documents([["x"]]))
    assert PAD_INDEX == 0
    assert vocab.index_to_token[PAD_INDEX] == ""
    assert "" not in vocab.token_to_index


def test_vocabulary_counts_documents_not_occurrences():
    docs = [["a", "a", "a"], ["b"]]
    vocab = build_vocabulary(encode_documents(docs))
    assert vocab.doc_freq["a"] == 1


def test_vocabulary_min_doc_freq_bound():
    docs = [["a", "b"], ["a", "c"], ["a", "b"]]
    vocab = build_vocabulary(encode_documents(docs), min_doc_freq=2)
    assert sorted(vocab.token_to_index) == ["a", "b"]


def test_vocabulary_max_doc_frac_boundary_is_inclusive():
    # df = 4 of 5 docs is exactly 0.8: must be kept at max_doc_frac=0.8
    docs = [["a", "b"], ["a"], ["a"], ["a"], ["c"]]
    vocab = build_vocabulary(encode_documents(docs), max_doc_frac=0.8)
    assert "a" in vocab.token_to_index
    vocab = build_vocabulary(encode_documents(docs + [["a"]]), max_doc_frac=0.8)  # df 5 of 6 > 0.8
    assert "a" not in vocab.token_to_index


def test_vocabulary_max_size_cuts_lowest_df():
    docs = [["a", "b"], ["a", "c"], ["a", "b"]]
    vocab = build_vocabulary(encode_documents(docs), max_size=2)
    assert vocab.index_to_token[1:] == ["a", "b"]


def test_vocabulary_empty_inputs_rejected():
    with pytest.raises(DatasetError):
        build_vocabulary(encode_documents([]))
    with pytest.raises(DatasetError):
        build_vocabulary(encode_documents([["a"]]), min_doc_freq=2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_vocabulary_is_document_order_invariant(docs, rnd):
    before = build_vocabulary(encode_documents(docs))
    shuffled = list(docs)
    rnd.shuffle(shuffled)
    after = build_vocabulary(encode_documents(shuffled))
    assert before.index_to_token == after.index_to_token


def test_vocabulary_round_trip(tmp_path):
    docs = [["beta", "alpha"], ["beta", "gamma"]]
    vocab = build_vocabulary(encode_documents(docs))
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.token_to_index == vocab.token_to_index
    assert loaded.index_to_token == vocab.index_to_token
    assert loaded.doc_freq == vocab.doc_freq
    assert loaded.n_docs == vocab.n_docs


@pytest.mark.parametrize("text, line", [("#n_docs=many\n1\ta\t1\n", 1),
                                        ("#n_docs=2\n1\ta\tone\n", 2)])
def test_vocabulary_non_integer_field_is_format_error(tmp_path, text, line):
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=rf"vocab\.tsv:{line}: "):
        load_vocabulary(path)


@pytest.mark.parametrize("text, line, what", [
    ("#n_docs=3\n1\tfoo\t1\n2\tbar\t1\n3\tfoo\t1\n", 4, "listed twice"),
    ("#n_docs=3\n1\tfoo\t2\n2\tbar\t-2\n", 3, "below 1"),
    ("#n_docs=3\n1\tfoo\t0\n", 2, "below 1"),
], ids=["duplicate-token", "negative-doc-freq", "zero-doc-freq"])
def test_vocabulary_duplicate_token_or_doc_freq_below_one_is_format_error(tmp_path, text, line, what):
    # a token must own exactly one index, and a kept token is in some document
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=rf"vocab\.tsv:{line}: .*{what}"):
        load_vocabulary(path)
