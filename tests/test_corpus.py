"""CSV ingest, label selection, sanitization, splitting, synthetic generation."""

import csv

import numpy as np
import pytest

from codeset_bench import corpus
from codeset_bench.corpus import (
    DiagnosisRecord,
    LabelCatalog,
    Note,
    NoteSanitizer,
    SplitSpec,
    SyntheticSpec,
    build_dataset,
    code_to_category,
    dotted_code,
    filter_discharge_summaries,
    generate_synthetic_corpus,
    load_catalog,
    load_diagnoses,
    load_noteevents,
    load_split,
    save_catalog,
    save_split,
    scan_order_sensitive_labels,
    select_top_labels,
    split_dataset,
    synthetic_code,
    synthetic_keywords,
)
from codeset_bench.errors import ConfigError, DatasetError, FormatError, SchemaError


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


NOTE_HEADER = ["ROW_ID", "SUBJECT_ID", "HADM_ID", "CHARTDATE", "CATEGORY", "DESCRIPTION", "TEXT"]
DIAG_HEADER = ["ROW_ID", "SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"]


# ---------------------------------------------------------------- ingest

def test_noteevents_round_trip_with_embedded_newlines(tmp_path):
    text = 'Line one.\nLine "two", quoted.\nLine three.'
    path = tmp_path / "notes.csv"
    write_csv(path, NOTE_HEADER, [[1, 7, 100, "2100-01-01", "Discharge summary", "Report", text]])
    notes, stats = load_noteevents(path)
    assert len(notes) == 1
    assert notes[0].text == text
    assert notes[0].hadm_id == 100
    assert stats.rows == 1
    assert stats.skipped_no_hadm == 0


def test_noteevents_skips_and_counts_empty_hadm(tmp_path):
    path = tmp_path / "notes.csv"
    write_csv(path, NOTE_HEADER, [
        [1, 7, "", "2100-01-01", "Discharge summary", "Report", "no admission"],
        [2, 7, 100, "2100-01-01", "Discharge summary", "Report", "kept"],
    ])
    notes, stats = load_noteevents(path)
    assert [n.row_id for n in notes] == [2]
    assert stats.skipped_no_hadm == 1


def test_noteevents_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "notes.csv"
    write_csv(path, ["ROW_ID", "SUBJECT_ID", "HADM_ID"], [[1, 7, 100]])
    with pytest.raises(SchemaError):
        load_noteevents(path)


def test_noteevents_ignores_extra_columns(tmp_path):
    path = tmp_path / "notes.csv"
    write_csv(path, NOTE_HEADER + ["STORETIME"],
              [[1, 7, 100, "2100-01-01", "Discharge summary", "Report", "txt", "x"]])
    notes, _ = load_noteevents(path)
    assert notes[0].text == "txt"


def test_diagnoses_loader_skips_empty_code_or_hadm(tmp_path):
    path = tmp_path / "diag.csv"
    write_csv(path, DIAG_HEADER, [
        [1, 7, 100, 1, "4019"],
        [2, 7, "", 1, "4019"],
        [3, 7, 100, 2, ""],
    ])
    records, stats = load_diagnoses(path)
    assert [(r.hadm_id, r.icd9_code) for r in records] == [(100, "4019")]
    assert stats.skipped_no_hadm == 1
    assert stats.skipped_no_code == 1


GOOD_FIELDS = {"ROW_ID": "1", "SUBJECT_ID": "7", "HADM_ID": "100", "CHARTDATE": "2100-01-01",
               "CATEGORY": "Discharge summary", "DESCRIPTION": "Report", "TEXT": "txt",
               "SEQ_NUM": "1", "ICD9_CODE": "4019"}
MALFORMED_ROWS = {
    # the last field opens a quote that never closes and outgrows the csv field limit
    "unterminated_quote": lambda header: ",".join(GOOD_FIELDS[c] for c in header[:-1])
    + ',"' + "x" * (129 * 1024),
    "too_few_fields": lambda header: ",".join(GOOD_FIELDS[c] for c in header[:2]),
    "non_integer_id": lambda header: ",".join(
        "1O0" if c == "HADM_ID" else GOOD_FIELDS[c] for c in header),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
@pytest.mark.parametrize("loader, header", [(load_noteevents, NOTE_HEADER),
                                            (load_diagnoses, DIAG_HEADER)],
                         ids=["noteevents", "diagnoses"])
def test_malformed_row_is_format_error_naming_path_and_row(tmp_path, loader, header, case):
    path = tmp_path / "in.csv"
    good = ",".join(GOOD_FIELDS[c] for c in header)
    path.write_text(",".join(header) + "\n" + good + "\n" + MALFORMED_ROWS[case](header) + "\n",
                    encoding="utf-8")
    with pytest.raises(FormatError, match=rf"in\.csv: row 3: "):
        loader(path)


# ------------------------------------------------- discharge summary filter

def make_note(row_id, hadm_id, category, text="t"):
    return Note(row_id=row_id, subject_id=1, hadm_id=hadm_id, category=category, text=text)


def test_filter_keeps_only_discharge_summaries_case_insensitive():
    notes = [
        make_note(1, 100, "Discharge summary"),
        make_note(2, 101, "DISCHARGE SUMMARY"),
        make_note(3, 102, "Radiology"),
    ]
    kept = filter_discharge_summaries(notes)
    assert sorted(n.hadm_id for n in kept) == [100, 101]


def test_filter_keeps_highest_row_id_per_admission():
    # later addendum (higher ROW_ID) supersedes the original summary
    notes = [
        make_note(5, 100, "Discharge summary", "original"),
        make_note(9, 100, "Discharge summary", "addendum"),
        make_note(7, 100, "Discharge summary", "middle"),
    ]
    kept = filter_discharge_summaries(notes)
    assert len(kept) == 1
    assert kept[0].row_id == 9
    assert kept[0].text == "addendum"


def test_filter_output_sorted_by_admission():
    notes = [make_note(1, 300, "Discharge summary"), make_note(2, 100, "Discharge summary")]
    assert [n.hadm_id for n in filter_discharge_summaries(notes)] == [100, 300]


# ------------------------------------------------------------- categories

def test_code_to_category_prefixes():
    assert code_to_category("4019") == "401"
    assert code_to_category("401") == "401"
    assert code_to_category("53081") == "530"
    assert code_to_category("V3000") == "V30"
    assert code_to_category("E8782") == "E878"


def test_code_to_category_rejects_garbage():
    with pytest.raises(ValueError):
        code_to_category("XYZ")


def test_dotted_code_forms():
    assert dotted_code("4019") == "401.9"
    assert dotted_code("401") is None  # nothing after the category prefix
    assert dotted_code("53081") == "530.81"
    assert dotted_code("E8782") == "E878.2"
    assert dotted_code("V300") == "V30.0"


# ---------------------------------------------------------- label selection

def diag(hadm, code):
    return DiagnosisRecord(subject_id=0, hadm_id=hadm, seq_num=1, icd9_code=code)


def test_select_top_labels_counts_distinct_admissions():
    # code 111 appears twice for hadm 1: counts once
    records = [diag(1, "1110"), diag(1, "1110"), diag(2, "1110"), diag(1, "2220")]
    catalog = select_top_labels(records, k=2, mode="code")
    assert catalog.labels == (("1110", 2), ("2220", 1))


def test_select_top_labels_breaks_count_ties_lexicographically():
    records = [diag(1, "300"), diag(2, "300"), diag(1, "200"), diag(2, "200")]
    catalog = select_top_labels(records, k=2, mode="code")
    assert [name for name, _ in catalog.labels] == ["200", "300"]


def test_select_top_labels_category_mode_pools_codes():
    records = [diag(1, "4019"), diag(2, "40190"), diag(3, "2500")]
    catalog = select_top_labels(records, k=1, mode="category")
    assert catalog.labels == (("401", 2),)


def test_select_top_labels_insufficient_distinct_labels():
    with pytest.raises(DatasetError):
        select_top_labels([diag(1, "4019")], k=2, mode="code")


# ------------------------------------------------------------ sanitization

def catalog_of(*names):
    return LabelCatalog(mode="code", labels=tuple((n, 1) for n in names))


def test_sanitize_removes_standalone_code_tokens():
    cat = catalog_of("4019")
    out = NoteSanitizer(cat)("dx 4019 and 401.9 noted")
    assert "4019" not in out
    assert "401.9" not in out
    assert "dx" in out and "noted" in out


def test_sanitize_leaves_embedded_digits_alone():
    cat = catalog_of("4019")
    assert NoteSanitizer(cat)("a14019b stays, 24019 stays") == "a14019b stays, 24019 stays"


def test_sanitize_is_boundary_aware_not_whitespace_tokenized():
    cat = catalog_of("4019")
    assert "4019" not in NoteSanitizer(cat)("(4019)")


# ------------------------------------------------------------ join + split

def test_build_dataset_multi_hot_and_coverage():
    notes = [make_note(i, 100 + i, "Discharge summary", f"note {i}") for i in range(4)]
    cat = catalog_of("1110", "2220")
    records = [diag(100, "1110"), diag(101, "1110"), diag(101, "2220"), diag(102, "9990")]
    ds = build_dataset(notes, records, cat)
    # hadm 102 has only an uncovered code; hadm 103 has no diagnoses: both dropped
    assert [ex.hadm_id for ex in ds.examples] == [100, 101]
    assert ds.examples[0].label_vector.tolist() == [1, 0]
    assert ds.examples[1].label_vector.tolist() == [1, 1]
    assert ds.coverage == pytest.approx(2 / 4)


def test_build_dataset_requires_some_coverage():
    notes = [make_note(1, 100, "Discharge summary")]
    with pytest.raises(DatasetError):
        build_dataset(notes, [diag(100, "9990")], catalog_of("1110"))


def test_split_sizes_floor_rule():
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(101)]
    records = [diag(1000 + i, "1110") for i in range(101)]
    ds = build_dataset(notes, records, catalog_of("1110"))
    train, val, test = split_dataset(ds, SplitSpec(seed=3))
    # floor(101*0.25) = 25 for val and test; remainder 51 to train
    assert (len(train.examples), len(val.examples), len(test.examples)) == (51, 25, 25)


def test_split_is_disjoint_and_exhaustive():
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(40)]
    records = [diag(1000 + i, "1110") for i in range(40)]
    ds = build_dataset(notes, records, catalog_of("1110"))
    train, val, test = split_dataset(ds, SplitSpec(seed=1))
    ids = [ex.hadm_id for part in (train, val, test) for ex in part.examples]
    assert sorted(ids) == sorted(ex.hadm_id for ex in ds.examples)
    assert len(set(ids)) == len(ids)


def test_split_seed_determinism():
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(30)]
    records = [diag(1000 + i, "1110") for i in range(30)]
    ds = build_dataset(notes, records, catalog_of("1110"))
    a = split_dataset(ds, SplitSpec(seed=7))
    b = split_dataset(ds, SplitSpec(seed=7))
    c = split_dataset(ds, SplitSpec(seed=8))
    assert [e.hadm_id for e in a[0].examples] == [e.hadm_id for e in b[0].examples]
    assert [e.hadm_id for e in a[0].examples] != [e.hadm_id for e in c[0].examples]


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ConfigError):
        SplitSpec(train_frac=0.5, val_frac=0.3, test_frac=0.3)


# ------------------------------------------------------------- synthetic

def test_synthetic_codes_and_keywords_shapes():
    spec = SyntheticSpec(n_labels=3, keywords_per_label=2)
    assert synthetic_code(0) == "1000"
    assert synthetic_code(2) == "1020"
    kws = synthetic_keywords(spec)
    assert len(kws) == 3
    assert all(len(k) == 2 for k in kws)
    flat = [w for group in kws for w in group]
    assert len(set(flat)) == len(flat)


def test_synthetic_corpus_round_trips_through_pipeline(tmp_path):
    spec = SyntheticSpec(n_labels=4, n_notes=30, seed=5)
    notes_path, diags_path = generate_synthetic_corpus(spec, tmp_path)
    notes, _ = load_noteevents(notes_path)
    records, _ = load_diagnoses(diags_path)
    summaries = filter_discharge_summaries(notes)
    assert len(summaries) == 30
    catalog = select_top_labels(records, k=4, mode="code")
    assert set(catalog.names) == {synthetic_code(j) for j in range(4)}
    ds = build_dataset(summaries, records, catalog)
    # notes with no in-catalog diagnosis (zero labels drawn, or noise codes
    # only) are dropped; coverage records the kept fraction
    assert len(ds.examples) == round(30 * ds.coverage)
    assert 0 < len(ds.examples) <= 30
    assert all(ex.label_vector.any() for ex in ds.examples)


def test_synthetic_labels_recoverable_from_keywords(tmp_path):
    spec = SyntheticSpec(n_labels=4, n_notes=40, seed=9)
    notes_path, diags_path = generate_synthetic_corpus(spec, tmp_path)
    notes, _ = load_noteevents(notes_path)
    records, _ = load_diagnoses(diags_path)
    summaries = filter_discharge_summaries(notes)
    catalog = select_top_labels(records, k=4, mode="code")
    ds = build_dataset(summaries, records, catalog)
    kws = synthetic_keywords(spec)
    order = [catalog.label_index()[synthetic_code(j)] for j in range(4)]
    for ex in ds.examples:
        for j in range(4):
            has_kw = any(w in ex.text for w in kws[j])
            assert bool(ex.label_vector[order[j]]) == has_kw


def test_synthetic_duplicate_summaries_resolved_by_filter(tmp_path):
    spec = SyntheticSpec(n_labels=3, n_notes=60, extra_note_rate=0.5, seed=2)
    notes_path, _ = generate_synthetic_corpus(spec, tmp_path)
    notes, _ = load_noteevents(notes_path)
    assert len(notes) > 60  # duplicates and off-category notes present
    summaries = filter_discharge_summaries(notes)
    assert len(summaries) == 60
    assert len({n.hadm_id for n in summaries}) == 60


def test_synthetic_generation_is_deterministic(tmp_path):
    spec = SyntheticSpec(n_labels=3, n_notes=25, seed=11)
    p1, d1 = generate_synthetic_corpus(spec, tmp_path / "a")
    p2, d2 = generate_synthetic_corpus(spec, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()


def test_order_sensitive_scan_keyword_first_means_on():
    kws = [["signaa"], ["signba"]]
    active = scan_order_sensitive_labels("signaa no filler no signba", kws, "no")
    assert active == [0]  # signba is negated, signaa is not


def test_order_sensitive_scan_uses_first_occurrence():
    kws = [["signaa"]]
    assert scan_order_sensitive_labels("no signaa signaa", kws, "no") == []
    assert scan_order_sensitive_labels("signaa no signaa", kws, "no") == [0]


def test_order_sensitive_corpus_agrees_with_scanner(tmp_path):
    spec = SyntheticSpec(n_labels=4, n_notes=40, order_sensitive=True, seed=3,
                         noise_code_rate=0.0, extra_note_rate=0.0)
    notes_path, diags_path = generate_synthetic_corpus(spec, tmp_path)
    notes, _ = load_noteevents(notes_path)
    records, _ = load_diagnoses(diags_path)
    summaries = filter_discharge_summaries(notes)
    catalog = select_top_labels(records, k=4, mode="code")
    ds = build_dataset(summaries, records, catalog)
    kws = synthetic_keywords(spec)
    order = [catalog.label_index()[synthetic_code(j)] for j in range(4)]
    both_orders_seen = False
    for ex in ds.examples:
        active = scan_order_sensitive_labels(ex.text, kws, spec.negator)
        got = sorted(j for j in range(4) if ex.label_vector[order[j]])
        assert got == active
        if 0 < len(active) < 4:
            both_orders_seen = True
    assert both_orders_seen  # task is not degenerate


# ------------------------------------------------------------ persistence

def test_split_round_trip_preserves_newline_texts(tmp_path):
    cat = catalog_of("1110")
    notes = [make_note(1, 100, "Discharge summary", "line one\nline\ttwo\\three\rfour")]
    ds = build_dataset(notes, [diag(100, "1110")], cat)
    path = tmp_path / "train.tsv"
    save_split(ds, path)
    loaded = load_split(path, cat)
    assert loaded.coverage == ds.coverage
    assert loaded.examples[0].text == ds.examples[0].text
    assert loaded.examples[0].hadm_id == 100
    assert loaded.examples[0].label_vector.tolist() == [1]


def _unescape_reference(text):
    """The character loop the regex form replaced: scan left to right,
    turning each escape pair into its character and copying the rest."""
    table = {"\\\\": "\\", "\\n": "\n", "\\r": "\r", "\\t": "\t"}
    out, i = [], 0
    while i < len(text):
        if text[i : i + 2] in table:
            out.append(table[text[i : i + 2]])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


@pytest.mark.parametrize("text", [
    "", "plain", "a\\nb", "a\\\\nb", "\\\\\\n", "\\x\\q", "ends with \\",
    "\\", "\\\\\\", "tab\\tcr\\rnl\\n", "\\\\t",
])
def test_unescape_matches_character_loop(text):
    assert corpus._unescape_text(text) == _unescape_reference(text)


def test_unescape_matches_character_loop_and_inverts_escape_on_random_text():
    gen = np.random.default_rng(0)
    alphabet = list("ab\\nrtx\n\r\t ")
    for _ in range(3000):
        text = "".join(gen.choice(alphabet, size=gen.integers(0, 12)))
        assert corpus._unescape_text(text) == _unescape_reference(text)
        assert corpus._unescape_text(corpus._escape_text(text)) == text


def test_catalog_round_trip(tmp_path):
    cat = LabelCatalog(mode="category", labels=(("401", 20), ("250", 7)))
    path = tmp_path / "catalog.tsv"
    save_catalog(cat, path)
    loaded = load_catalog(path)
    assert loaded.mode == "category"
    assert loaded.labels == cat.labels
    assert loaded.label_index() == {"401": 0, "250": 1}


@pytest.mark.parametrize("name, text, bad_line", [
    ("train.tsv", "#coverage=0.5\n7\t2a\tnote\n", 2),
    ("train.tsv", "#coverage=0.5\n7\t011\tnote\n", 2),
    ("train.tsv", "#coverage=abc\n7\t01\tnote\n", 1),
    ("train.tsv", "#coverage=0.5\nx7\t01\tnote\n", 2),
    ("train.tsv", "#coverage=0.5\n7\t01\n", 2),
    ("catalog.tsv", "#mode=code\n4019\t3\n2500 2\n", 3),
    ("catalog.tsv", "#mode=code\n4019\tmany\n", 2),
    ("catalog.tsv", "#mode=bogus\n4019\t3\n", 1),
])
def test_dataset_readers_reject_corrupt_lines_naming_them(tmp_path, name, text, bad_line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=rf"{name}:{bad_line}: "):
        if name == "catalog.tsv":
            load_catalog(path)
        else:
            load_split(path, catalog_of("1110", "2220"))


def test_label_matrix_layout():
    cat = catalog_of("1110", "2220")
    notes = [make_note(1, 100, "Discharge summary"), make_note(2, 101, "Discharge summary")]
    ds = build_dataset(notes, [diag(100, "1110"), diag(101, "2220")], cat)
    m = ds.label_matrix()
    assert m.shape == (2, 2)
    assert m.dtype == np.uint8
    assert m.tolist() == [[1, 0], [0, 1]]
