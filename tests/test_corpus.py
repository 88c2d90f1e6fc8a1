"""CSV ingest, label selection, sanitization, splitting, synthetic generation."""

import csv
import re
import tracemalloc

import numpy as np
import pytest

from codeset_bench import corpus, harness
from codeset_bench.corpus import (
    LabelCatalog,
    Note,
    NoteSanitizer,
    SyntheticSpec,
    build_dataset,
    code_to_category,
    dotted_code,
    filter_discharge_summaries,
    generate_synthetic_corpus,
    load_catalog,
    load_diagnoses,
    load_noteevents,
    save_catalog,
    scan_order_sensitive_labels,
    select_top_labels,
    split_dataset,
    synthetic_code,
    synthetic_keywords,
)
from codeset_bench.errors import DatasetError, FormatError, SchemaError


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
        [4, 7, 100, 3, "4019"],  # a duplicate code: one set member
        [5, 7, 101, 1, "2500"],
    ])
    codes, stats = load_diagnoses(path)
    assert codes == {100: {"4019"}, 101: {"2500"}}
    assert stats.rows == 5
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


@pytest.mark.parametrize("loader, header, column", [
    (load_noteevents, NOTE_HEADER, "ROW_ID"),
    (load_noteevents, NOTE_HEADER, "SUBJECT_ID"),
    (load_diagnoses, DIAG_HEADER, "SUBJECT_ID"),
    (load_diagnoses, DIAG_HEADER, "SEQ_NUM"),
])
def test_non_integer_id_in_any_id_column_is_format_error(tmp_path, loader, header, column):
    path = tmp_path / "in.csv"
    bad = ",".join("x1" if c == column else GOOD_FIELDS[c] for c in header)
    path.write_text(",".join(header) + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=r"in\.csv: row 2: .*'x1'"):
        loader(path)


def _write_admissions(root, n_admissions, other_notes):
    """NOTEEVENTS/DIAGNOSES_ICD CSVs: one discharge summary and
    ``other_notes`` longer nursing notes per admission, 1-3 of 12 codes
    each."""
    gen = np.random.default_rng(0)
    words = [f"w{i}" for i in range(200)]
    nursing = " ".join(words * 2)
    notes, diags = [], []
    for i in range(n_admissions):
        hadm = 100000 + i
        texts = [("Discharge summary", " ".join(gen.choice(words, size=150)))]
        for category, text in texts + [("Nursing", nursing)] * other_notes:
            notes.append([len(notes) + 1, 7, hadm, "2100-01-01", category, "Report", text])
        for seq, j in enumerate(gen.choice(12, size=gen.integers(1, 4), replace=False), 1):
            diags.append([len(diags) + 1, 7, hadm, seq, f"{400 + j}0"])
    root.mkdir()
    write_csv(root / "NOTEEVENTS.csv", NOTE_HEADER, notes)
    write_csv(root / "DIAGNOSES_ICD.csv", DIAG_HEADER, diags)
    return root / "NOTEEVENTS.csv", root / "DIAGNOSES_ICD.csv"


def _dataset_stage_peak(root, other_notes):
    notes, diags = _write_admissions(root, 300, other_notes)
    cfg = harness.ExperimentConfig({"dataset.source": "csv", "dataset.notes": str(notes),
                                    "dataset.diagnoses": str(diags), "model.preset": "logreg"})
    tracemalloc.start()
    try:
        harness.stage_dataset(cfg, harness.Workspace(root / "ws"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_stage_memory_does_not_grow_with_notes_it_drops(tmp_path):
    _dataset_stage_peak(tmp_path / "warm", 0)  # one-time allocations: imports, regex caches
    base = _dataset_stage_peak(tmp_path / "base", 0)
    assert _dataset_stage_peak(tmp_path / "more", 40) <= 1.5 * base


# ------------------------------------------------- discharge summary filter

def make_note(row_id, hadm_id, category, text="t"):
    return Note(row_id=row_id, hadm_id=hadm_id, category=category, text=text)


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

def codes_of(*pairs):
    """``{hadm_id: set of codes}`` from (hadm_id, code) pairs, as
    ``load_diagnoses`` returns it."""
    codes = {}
    for hadm, code in pairs:
        codes.setdefault(hadm, set()).add(code)
    return codes


def test_select_top_labels_counts_distinct_admissions():
    codes = codes_of((1, "1110"), (2, "1110"), (1, "2220"))
    catalog = select_top_labels(codes, k=2, mode="code")
    assert catalog.labels == (("1110", 2), ("2220", 1))


def test_select_top_labels_breaks_count_ties_lexicographically():
    codes = codes_of((1, "300"), (2, "300"), (1, "200"), (2, "200"))
    catalog = select_top_labels(codes, k=2, mode="code")
    assert [name for name, _ in catalog.labels] == ["200", "300"]


def test_select_top_labels_category_mode_pools_codes():
    # hadm 1 carries two codes of category 401: it counts once
    codes = codes_of((1, "4019"), (1, "4011"), (2, "40190"), (3, "2500"))
    catalog = select_top_labels(codes, k=1, mode="category")
    assert catalog.labels == (("401", 2),)


def test_select_top_labels_insufficient_distinct_labels():
    with pytest.raises(DatasetError):
        select_top_labels(codes_of((1, "4019")), k=2, mode="code")


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
    codes = codes_of((100, "1110"), (101, "1110"), (101, "2220"), (102, "9990"))
    ds = build_dataset(notes, codes, cat)
    # hadm 102 has only an uncovered code; hadm 103 has no diagnoses: both dropped
    assert ds.hadm_ids.tolist() == [100, 101]
    assert ds.labels.tolist() == [[1, 0], [1, 1]]
    assert ds.coverage == pytest.approx(2 / 4)


def test_build_dataset_requires_some_coverage():
    notes = [make_note(1, 100, "Discharge summary")]
    with pytest.raises(DatasetError):
        build_dataset(notes, codes_of((100, "9990")), catalog_of("1110"))


def test_split_sizes_floor_rule():
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(101)]
    codes = codes_of(*((1000 + i, "1110") for i in range(101)))
    ds = build_dataset(notes, codes, catalog_of("1110"))
    train, val, test = split_dataset(ds, 3)
    # floor(101*0.25) = 25 for val and test; remainder 51 to train
    assert (len(train), len(val), len(test)) == (51, 25, 25)


def test_split_is_disjoint_and_exhaustive():
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(40)]
    codes = codes_of(*((1000 + i, "1110") for i in range(40)))
    ds = build_dataset(notes, codes, catalog_of("1110"))
    train, val, test = split_dataset(ds, 1)
    ids = [h for part in (train, val, test) for h in part.hadm_ids.tolist()]
    assert sorted(ids) == sorted(ds.hadm_ids.tolist())
    assert len(set(ids)) == len(ids)


def test_split_seed_determinism():
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(30)]
    codes = codes_of(*((1000 + i, "1110") for i in range(30)))
    ds = build_dataset(notes, codes, catalog_of("1110"))
    a = split_dataset(ds, 7)
    b = split_dataset(ds, 7)
    c = split_dataset(ds, 8)
    assert a[0].hadm_ids.tolist() == b[0].hadm_ids.tolist()
    assert a[0].hadm_ids.tolist() != c[0].hadm_ids.tolist()


def test_split_that_would_come_out_empty_is_dataset_error():
    # floor(3 * 0.25) = 0 for val and test; 4 examples are the fewest that split
    notes = [make_note(i, 1000 + i, "Discharge summary", f"n{i}") for i in range(4)]
    codes = codes_of(*((1000 + i, "1110") for i in range(4)))
    ds = build_dataset(notes, codes, catalog_of("1110"))
    with pytest.raises(DatasetError, match="train 3, val 0, test 0"):
        split_dataset(ds.take(np.arange(3)), 0)
    assert [len(part) for part in split_dataset(ds, 0)] == [2, 1, 1]


# ------------------------------------------------------------- synthetic

def note_tokens(ds):
    """Each admission's note as its tokens, read back through the table."""
    tokens, offsets = list(ds.docs.table), ds.docs.offsets.tolist()
    return [[tokens[i] for i in ds.docs.ids[a:b]] for a, b in zip(offsets, offsets[1:])]


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
    summaries, _ = load_noteevents(notes_path)
    codes, _ = load_diagnoses(diags_path)
    assert len(summaries) == 30
    catalog = select_top_labels(codes, k=4, mode="code")
    assert set(catalog.names) == {synthetic_code(j) for j in range(4)}
    ds = build_dataset(summaries, codes, catalog)
    # notes with no in-catalog diagnosis (zero labels drawn, or noise codes
    # only) are dropped; coverage records the kept fraction
    assert len(ds) == round(30 * ds.coverage)
    assert 0 < len(ds) <= 30
    assert ds.labels.any(axis=1).all()


def test_synthetic_labels_recoverable_from_keywords(tmp_path):
    spec = SyntheticSpec(n_labels=4, n_notes=40, seed=9)
    notes_path, diags_path = generate_synthetic_corpus(spec, tmp_path)
    summaries, _ = load_noteevents(notes_path)
    codes, _ = load_diagnoses(diags_path)
    catalog = select_top_labels(codes, k=4, mode="code")
    ds = build_dataset(summaries, codes, catalog)
    kws = synthetic_keywords(spec)
    order = [catalog.label_index()[synthetic_code(j)] for j in range(4)]
    for tokens, row in zip(note_tokens(ds), ds.labels):
        for j in range(4):
            has_kw = any(w in tokens for w in kws[j])
            assert bool(row[order[j]]) == has_kw


def test_synthetic_duplicate_summaries_resolved_by_filter(tmp_path):
    spec = SyntheticSpec(n_labels=3, n_notes=60, extra_note_rate=0.5, seed=2)
    notes_path, _ = generate_synthetic_corpus(spec, tmp_path)
    summaries, stats = load_noteevents(notes_path)
    assert stats.rows > 60  # duplicates and off-category notes present
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
    active = scan_order_sensitive_labels("signaa no filler no signba", kws)
    assert active == [0]  # signba is negated, signaa is not


def test_order_sensitive_scan_uses_first_occurrence():
    kws = [["signaa"]]
    assert scan_order_sensitive_labels("no signaa signaa", kws) == []
    assert scan_order_sensitive_labels("signaa no signaa", kws) == [0]


def test_order_sensitive_corpus_agrees_with_scanner(tmp_path):
    spec = SyntheticSpec(n_labels=4, n_notes=40, order_sensitive=True, seed=3,
                         noise_code_rate=0.0, extra_note_rate=0.0)
    notes_path, diags_path = generate_synthetic_corpus(spec, tmp_path)
    summaries, _ = load_noteevents(notes_path)
    codes, _ = load_diagnoses(diags_path)
    catalog = select_top_labels(codes, k=4, mode="code")
    ds = build_dataset(summaries, codes, catalog)
    kws = synthetic_keywords(spec)
    order = [catalog.label_index()[synthetic_code(j)] for j in range(4)]
    both_orders_seen = False
    for tokens, row in zip(note_tokens(ds), ds.labels):
        active = scan_order_sensitive_labels(" ".join(tokens), kws)
        got = sorted(j for j in range(4) if row[order[j]])
        assert got == active
        if 0 < len(active) < 4:
            both_orders_seen = True
    assert both_orders_seen  # task is not degenerate


# ------------------------------------------------------------ persistence

def _saved_dataset(d):
    """Three splits of eight one-note admissions over one token table,
    saved into directory ``d``."""
    notes = [make_note(i, 100 + i, "Discharge summary", f"w{i % 3} shared\nw{i}") for i in range(8)]
    codes = codes_of(*((100 + i, "1110") for i in range(8)), (101, "2220"))
    ds = build_dataset(notes, codes, catalog_of("1110", "2220"))
    splits = split_dataset(ds, 2)
    d.mkdir()
    corpus.save_dataset(d, *splits)
    return splits


def test_dataset_round_trip_keeps_ids_labels_and_one_table(tmp_path):
    cold = _saved_dataset(tmp_path / "d")
    *warm, catalog = corpus.load_dataset(tmp_path / "d")
    assert catalog == cold[0].catalog
    assert warm[0].docs.table == cold[0].docs.table
    assert warm[0].docs.table is warm[1].docs.table is warm[2].docs.table
    for w, c in zip(warm, cold):
        for a, b in ((w.docs.ids, c.docs.ids), (w.docs.offsets, c.docs.offsets),
                     (w.labels, c.labels), (w.hadm_ids, c.hadm_ids)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert w.coverage == c.coverage
    with np.load(tmp_path / "d" / "train.npz") as stored:
        assert stored["ids"].dtype == np.uint8  # the narrowest that holds the largest id


# each damage, done to train.npz's arrays or to the table's lines, must be refused
SPLIT_DAMAGE = {
    "negative id": lambda a, t: a.update(ids=np.r_[-1, a["ids"][1:].astype(np.int32)]),
    "id past the table": lambda a, t: a.update(ids=np.r_[len(t), a["ids"][1:]].astype(np.uint16)),
    "offsets from 1": lambda a, t: a.update(offsets=np.r_[1, a["offsets"][1:]]),
    "offsets going down": lambda a, t: a.update(offsets=a["offsets"][[0, 2, 1, 3, 4]]),
    "offsets short of the ids": lambda a, t: a.update(offsets=np.r_[a["offsets"][:-1],
                                                                    a["offsets"][-1] - 1]),
    "int64 labels": lambda a, t: a.update(labels=a["labels"].astype(np.int64)),
    "k + 1 label columns": lambda a, t: a.update(labels=np.c_[a["labels"], a["labels"][:, :1]]),
    "a label of 2": lambda a, t: a.update(labels=a["labels"] * 2),
    "n - 1 hadm ids": lambda a, t: a.update(hadm_ids=a["hadm_ids"][1:]),
    "no labels array": lambda a, t: a.pop("labels"),
    "text coverage": lambda a, t: a.update(coverage=np.array("0.5")),
    "a token listed twice": lambda a, t: t.__setitem__(1, t[0]),
}


@pytest.mark.parametrize("damage", SPLIT_DAMAGE)
def test_load_split_refuses_malformed_arrays_naming_the_file(tmp_path, damage):
    d = tmp_path / "d"
    _saved_dataset(d)
    with np.load(d / "train.npz") as stored:
        arrays = dict(stored)
    tokens = (d / "tokens.txt").read_text(encoding="utf-8").splitlines()
    SPLIT_DAMAGE[damage](arrays, tokens)
    with open(d / "train.npz", "wb") as fh:
        np.savez(fh, **arrays)
    (d / "tokens.txt").write_text("".join(t + "\n" for t in tokens), encoding="utf-8")
    bad = "tokens.txt:2: " if damage == "a token listed twice" else "train.npz: "
    with pytest.raises(FormatError, match=re.escape(str(d / bad))):
        corpus.load_dataset(d)


def test_catalog_round_trip(tmp_path):
    cat = LabelCatalog(mode="category", labels=(("401", 20), ("250", 7)))
    path = tmp_path / "catalog.tsv"
    save_catalog(cat, path)
    loaded = load_catalog(path)
    assert loaded.mode == "category"
    assert loaded.labels == cat.labels
    assert loaded.label_index() == {"401": 0, "250": 1}


@pytest.mark.parametrize("name, text, bad_line", [
    ("catalog.tsv", "#mode=code\n4019\t3\n2500 2\n", 3),
    ("catalog.tsv", "#mode=code\n4019\tmany\n", 2),
    ("catalog.tsv", "#mode=bogus\n4019\t3\n", 1),
])
def test_dataset_readers_reject_corrupt_lines_naming_them(tmp_path, name, text, bad_line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=rf"{name}:{bad_line}: "):
        load_catalog(path)


def test_label_matrix_layout():
    cat = catalog_of("1110", "2220")
    notes = [make_note(1, 100, "Discharge summary"), make_note(2, 101, "Discharge summary")]
    ds = build_dataset(notes, codes_of((100, "1110"), (101, "2220")), cat)
    m = ds.labels
    assert m.shape == (2, 2)
    assert m.dtype == np.uint8
    assert m.tolist() == [[1, 0], [0, 1]]
