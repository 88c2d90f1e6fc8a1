"""Corpus ingestion, label catalogs, dataset assembly, and splits.

Reads NOTEEVENTS/DIAGNOSES_ICD-shaped CSV exports (or synthetic
equivalents with the same schema), filters discharge summaries, builds
top-k label catalogs over codes or their hierarchical categories, joins
notes with diagnoses into multi-hot labeled datasets, and splits them
deterministically. A seeded synthetic generator stands in for the real
access-restricted data at desk scale.

Each kept note is tokenized once, stopwords kept, into ids against one
token table that every split shares. A split dataset is written and read
as one directory by ``save_dataset`` and ``load_dataset``: ``catalog.tsv``
(a ``#mode=`` header, then one label and its admission count per line),
``tokens.txt`` (the token of id i on line i + 1) and ``train.npz``,
``val.npz``, ``test.npz`` (each split's ids, offsets, labels, hadm ids
and coverage); no note text is kept.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import textproc
from .errors import ConfigError, DatasetError, FormatError, SchemaError, read_numpy

ICD9_CODE_RE = re.compile(r"^(?:[0-9]{3,5}|V[0-9]{2,4}|E[0-9]{3,4})$")

DISCHARGE_CATEGORY = "discharge summary"


@dataclass(frozen=True)
class Note:
    row_id: int
    hadm_id: int
    category: str
    text: str


@dataclass(frozen=True)
class LabelCatalog:
    """Ordered top-k label set (codes or categories) with admission counts."""

    mode: str  # "code" | "category"
    labels: tuple[tuple[str, int], ...]

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.labels]

    def label_index(self) -> dict[str, int]:
        return {name: i for i, (name, _) in enumerate(self.labels)}


@dataclass
class LabeledDataset:
    """Admission i is ``hadm_ids[i]``, its multi-hot labels row i of
    ``labels`` and its note document i of ``docs``."""

    hadm_ids: np.ndarray  # int64
    labels: np.ndarray  # uint8 [n, k]
    docs: textproc.EncodedDocs
    catalog: LabelCatalog
    coverage: float  # kept admissions / total discharge admissions

    def __len__(self) -> int:
        return self.hadm_ids.size

    def take(self, rows: np.ndarray) -> LabeledDataset:
        """The admissions at ``rows``, in that order, over the same table."""
        lengths = np.diff(self.docs.offsets)[rows]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        shift = self.docs.offsets[rows] - offsets[:-1]  # from a note's new start to its old one
        positions = np.arange(offsets[-1]) + np.repeat(shift, lengths)
        docs = textproc.EncodedDocs(self.docs.ids[positions], offsets, self.docs.table)
        return LabeledDataset(self.hadm_ids[rows], self.labels[rows], docs, self.catalog,
                              self.coverage)


# shares of the validation and test splits; train takes the remainder
VAL_FRAC = TEST_FRAC = 0.25


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

NOTE_COLUMNS = ("ROW_ID", "SUBJECT_ID", "HADM_ID", "CATEGORY", "TEXT")
DIAGNOSIS_COLUMNS = ("SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE")


class IngestStats:
    """Counters filled during streaming ingestion."""

    def __init__(self):
        self.rows = 0
        self.skipped_no_hadm = 0
        self.skipped_no_code = 0


def _header_positions(header: list[str], required: Sequence[str], path) -> dict[str, int]:
    pos = {name.strip().upper(): i for i, name in enumerate(header)}
    missing = [c for c in required if c not in pos]
    if missing:
        raise SchemaError(f"{path}: missing required columns {missing}")
    return pos


def _iter_csv(path, required: Sequence[str], stats: IngestStats, parse) -> Iterator:
    """Stream the records parsed from a CSV (RFC 4180) whose header row
    names the ``required`` columns (HADM_ID among them); extra columns
    are ignored.

    A row with an empty HADM_ID is skipped and counted in
    ``stats.skipped_no_hadm``. ``parse(row, pos)`` turns any other
    non-blank data row into a record, or into None for a row to skip,
    counted in ``stats.skipped_no_code``. Malformed quoting, a row too
    short for a required column and a non-integer id each raise
    FormatError with the offending row number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        pos = None
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise FormatError(f"{path}: row {reader.line_num}: {exc}") from None
            if pos is None:
                pos = _header_positions(row, required, path)
                continue
            if not row:
                continue
            stats.rows += 1
            try:
                if not row[pos["HADM_ID"]].strip():
                    stats.skipped_no_hadm += 1
                    continue
                record = parse(row, pos)
            except IndexError:
                raise FormatError(f"{path}: row {reader.line_num}: only {len(row)} fields") from None
            except ValueError as exc:
                raise FormatError(f"{path}: row {reader.line_num}: {exc}") from None
            if record is None:
                stats.skipped_no_code += 1
            else:
                yield record
    if pos is None:
        raise SchemaError(f"{path}: empty file, no header row")


def _parse_note(row: list[str], pos: dict[str, int]) -> Note:
    int(row[pos["SUBJECT_ID"]])  # checked, not kept
    return Note(
        row_id=int(row[pos["ROW_ID"]]),
        hadm_id=int(row[pos["HADM_ID"]]),
        category=row[pos["CATEGORY"]],
        text=row[pos["TEXT"]],
    )


def load_noteevents(path: str | Path) -> tuple[list[Note], IngestStats]:
    """Discharge summaries of a NOTEEVENTS-style CSV, one per admission
    as ``filter_discharge_summaries`` keeps them, read in one streaming
    pass that holds no other note. ``stats`` counts every data row; rows
    with an empty HADM_ID are skipped and counted."""
    stats = IngestStats()
    return filter_discharge_summaries(_iter_csv(path, NOTE_COLUMNS, stats, _parse_note)), stats


def _parse_diagnosis(row: list[str], pos: dict[str, int]) -> tuple[int, str] | None:
    seq_raw = row[pos["SEQ_NUM"]].strip()
    code = row[pos["ICD9_CODE"]].strip().strip('"')
    if not seq_raw or not code:
        return None
    int(row[pos["SUBJECT_ID"]]), int(seq_raw)  # checked, not kept
    return int(row[pos["HADM_ID"]]), code


def load_diagnoses(path: str | Path) -> tuple[dict[int, set[str]], IngestStats]:
    """The ICD-9 codes of each admission in a DIAGNOSES_ICD-style CSV, as
    ``{hadm_id: set of codes}``; rows with an empty HADM_ID
    (``skipped_no_hadm``) or an empty SEQ_NUM or ICD9_CODE
    (``skipped_no_code``) are skipped and counted."""
    stats = IngestStats()
    codes: dict[int, set[str]] = {}
    for hadm_id, code in _iter_csv(path, DIAGNOSIS_COLUMNS, stats, _parse_diagnosis):
        codes.setdefault(hadm_id, set()).add(code)
    return codes, stats


# ---------------------------------------------------------------------------
# Filtering and label handling
# ---------------------------------------------------------------------------


def filter_discharge_summaries(notes: Iterable[Note]) -> list[Note]:
    """Keep discharge summaries only, one note per admission.

    Category matching is case-insensitive and trimmed. When an admission
    has several discharge summaries the one with the largest row_id (the
    latest) wins.
    """
    latest: dict[int, Note] = {}
    for note in notes:
        if note.category.strip().lower() != DISCHARGE_CATEGORY:
            continue
        cur = latest.get(note.hadm_id)
        if cur is None or note.row_id > cur.row_id:
            latest[note.hadm_id] = note
    return [latest[h] for h in sorted(latest)]


def code_to_category(icd9_code: str) -> str:
    """Group a code into its hierarchical category: numeric and V-codes
    keep the first 3 characters, E-codes the first 4."""
    if not ICD9_CODE_RE.match(icd9_code):
        raise ValueError(f"invalid ICD-9 code: {icd9_code!r}")
    return icd9_code[:4] if icd9_code.startswith("E") else icd9_code[:3]


def _admission_labels(codes: dict[int, set[str]], mode: str) -> dict[int, set[str]]:
    """Each admission's labels: its codes in code mode, their categories
    in category mode. DatasetError names a code that has no category."""
    if mode == "code":
        return codes
    try:
        return {hadm: {code_to_category(c) for c in cs} for hadm, cs in codes.items()}
    except ValueError as exc:
        raise DatasetError(f"category mode: {exc}") from None


def select_top_labels(codes: dict[int, set[str]], k: int, mode: str = "code") -> LabelCatalog:
    """Top-k labels of ``{hadm_id: set of codes}`` by distinct-admission
    count: each (hadm_id, label) pair counts once, however many codes
    carry it. Ties are broken lexicographically on the label string."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    if mode not in ("code", "category"):
        raise ConfigError(f"unknown label mode: {mode!r}")
    counts = Counter(label for ls in _admission_labels(codes, mode).values() for label in ls)
    if len(counts) < k:
        raise DatasetError(f"only {len(counts)} distinct labels, need k={k}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return LabelCatalog(mode=mode, labels=tuple(ranked[:k]))


def dotted_code(code: str) -> str | None:
    """Dotted display form of an undotted code: a dot goes after the 3rd
    digit, after V+2 digits, or after E+3 digits. Codes already at
    category length have no dotted form."""
    head = 4 if code.startswith("E") else 3
    if len(code) <= head:
        return None
    return code[:head] + "." + code[head:]


def _compile_label_pattern(catalog: LabelCatalog) -> re.Pattern | None:
    forms = {form for name in catalog.names for form in (name, dotted_code(name)) if form}
    if not forms:
        return None
    # longest-first so the alternation consumes whole dotted forms before their
    # undotted prefixes; the lookahead rejects cheaply where no form can start
    ordered = sorted(forms, key=lambda f: (-len(f), f))
    body = "|".join(re.escape(f) for f in ordered)
    firsts = re.escape("".join(sorted({f[0] for f in forms})))
    return re.compile(rf"(?=[{firsts}])(?<![0-9A-Za-z])(?:{body})(?![0-9A-Za-z])")


class NoteSanitizer:
    """Removes every standalone occurrence of one catalog's label strings
    from a note, in both undotted ("4019") and dotted ("401.9") forms; the
    surrounding prose is untouched. The pattern, compiled once per catalog,
    is tried only where a lookahead finds a form's first character."""

    def __init__(self, catalog: LabelCatalog):
        self._pattern = _compile_label_pattern(catalog)

    def __call__(self, text: str) -> str:
        if self._pattern is None:
            return text
        return self._pattern.sub("", text)


# ---------------------------------------------------------------------------
# Dataset assembly and splitting
# ---------------------------------------------------------------------------


def build_dataset(
    notes: Sequence[Note], codes: dict[int, set[str]], catalog: LabelCatalog
) -> LabeledDataset:
    """Join notes with ``{hadm_id: set of codes}`` on hadm_id into
    multi-hot label rows, and tokenize each kept note once into one table.

    Notes are expected to be filtered (one per admission) and sanitized.
    Admissions whose codes all fall outside the catalog are dropped; the
    coverage ratio kept/total is recorded on the dataset.
    """
    index = catalog.label_index()
    labels = _admission_labels(codes, catalog.mode)
    kept, active = [], []
    for note in notes:
        columns = [index[label] for label in labels.get(note.hadm_id, ()) if label in index]
        if columns:
            kept.append(note)
            active.append(columns)
    if not kept:
        raise DatasetError("no admissions carry any catalog label")
    matrix = np.zeros((len(kept), catalog.k), dtype=np.uint8)
    for row, columns in zip(matrix, active):
        row[columns] = 1
    docs = textproc.encode_documents(textproc.tokenize(note.text) for note in kept)
    hadm_ids = np.array([note.hadm_id for note in kept], dtype=np.int64)
    return LabeledDataset(hadm_ids, matrix, docs, catalog, len(kept) / len(notes))


def split_dataset(
    dataset: LabeledDataset, seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Shuffle by ``seed``, then floor(n * VAL_FRAC) and floor(n * TEST_FRAC)
    examples for val and test, the remainder for train. Same seed, same
    split; a split that would come out empty is a DatasetError."""
    n = len(dataset)
    n_val = int(math.floor(n * VAL_FRAC + 1e-9))
    n_test = int(math.floor(n * TEST_FRAC + 1e-9))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise DatasetError(f"{n} examples leave an empty split: "
                           f"train {n_train}, val {n_val}, test {n_test}")
    order = np.random.default_rng(seed).permutation(n)
    return tuple(dataset.take(rows) for rows in np.split(order, [n_train, n_train + n_val]))


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

# the order-sensitive negation token; every keyword starts with "sign",
# so it never collides with one
NEGATOR = "no"


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration for the seeded synthetic corpus generator.

    Each label owns a small keyword lexicon. In the default mode a label
    is active for an admission iff one of its keywords appears in the
    note. In order-sensitive mode every note carries, for every label, a
    (negator, keyword) token pair, and only the order decides the label:
    negator immediately before the keyword means OFF, keyword before the
    negator means ON. The emitted CSVs mirror the real export schema so
    the downstream pipeline is identical either way.
    """

    n_labels: int = 10
    n_notes: int = 200
    keywords_per_label: int = 2
    filler_vocab: int = 80
    note_length: int = 50
    jitter: int = 15
    label_rate: float = 0.35
    noise_code_rate: float = 0.15
    extra_note_rate: float = 0.05
    order_sensitive: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_labels < 1 or self.n_notes < 1:
            raise ConfigError("n_labels and n_notes must be positive")
        if self.keywords_per_label < 1:
            raise ConfigError("each label needs a non-empty keyword lexicon")
        if not (0.0 < self.label_rate <= 1.0):
            raise ConfigError("label_rate must be in (0, 1]")
        if self.filler_vocab < 1:
            raise ConfigError("filler vocabulary must be non-empty")


def synthetic_code(j: int) -> str:
    """ICD-9-shaped 4-digit code for synthetic label j."""
    return f"{100 + j:03d}0"


def synthetic_keywords(spec: SyntheticSpec) -> list[list[str]]:
    """Per-label keyword lexicons; deterministic, letters only."""
    lex = []
    for j in range(spec.n_labels):
        lex.append(
            [f"sign{_alpha(j)}{chr(ord('a') + i)}" for i in range(spec.keywords_per_label)]
        )
    return lex


def _alpha(i: int) -> str:
    # small-int to letters, stable across runs
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = letters[i % 26]
    while i >= 26:
        i //= 26
        out = letters[i % 26] + out
    return out


def _filler_words(n: int) -> list[str]:
    return [f"fill{_alpha(i)}" for i in range(n)]


def _draw_active_labels(rng: np.random.Generator, spec: SyntheticSpec) -> list[int]:
    return [j for j in range(spec.n_labels) if rng.random() < spec.label_rate]


def generate_synthetic_corpus(
    spec: SyntheticSpec, out_dir: str | Path
) -> tuple[Path, Path]:
    """Write NOTEEVENTS.csv / DIAGNOSES_ICD.csv for a reproducible
    synthetic corpus and return their paths.

    Ground truth is recoverable from the note text by construction; the
    generator re-scans every note and raises if an emitted label
    disagrees with the stated rule.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    keywords = synthetic_keywords(spec)
    filler = _filler_words(spec.filler_vocab)

    notes_path = out_dir / "NOTEEVENTS.csv"
    diag_path = out_dir / "DIAGNOSES_ICD.csv"
    note_ids, diag_ids = itertools.count(1), itertools.count(1)

    with open(notes_path, "w", newline="", encoding="utf-8") as nf, open(
        diag_path, "w", newline="", encoding="utf-8"
    ) as df:
        notes_writer = csv.writer(nf, lineterminator="\n")
        diag_writer = csv.writer(df, lineterminator="\n")
        notes_writer.writerow(
            ["ROW_ID", "SUBJECT_ID", "HADM_ID", "CHARTDATE", "CATEGORY", "DESCRIPTION", "TEXT"]
        )
        diag_writer.writerow(["ROW_ID", "SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"])

        for i in range(spec.n_notes):
            hadm_id = 100000 + i
            subject_id = 1000 + i
            chartdate = f"2100-{1 + i % 12:02d}-{1 + i % 28:02d}"

            if spec.order_sensitive:
                active, text = _compose_order_sensitive(rng, spec, keywords, filler)
            else:
                active = _draw_active_labels(rng, spec)
                text = _compose_order_free(rng, spec, keywords, filler, active)
                _check_order_free(text, keywords, active)

            notes = [("Discharge summary", "Report", text)]
            # occasional duplicate summary: same content plus an addendum,
            # higher row_id, exercising the keep-latest rule downstream
            if rng.random() < spec.extra_note_rate:
                addendum = "\naddendum " + filler[int(rng.integers(len(filler)))]
                notes.append(("Discharge summary", "Addendum", text + addendum))
            # occasional non-discharge note, filtered out downstream
            if rng.random() < spec.extra_note_rate:
                words = rng.integers(len(filler), size=10)
                notes.append(("Radiology", "Report", " ".join(filler[int(t)] for t in words)))
            for note in notes:
                notes_writer.writerow([next(note_ids), subject_id, hadm_id, chartdate, *note])

            codes = [synthetic_code(j) for j in active]
            if rng.random() < spec.noise_code_rate:
                codes.append(f"{900 + int(rng.integers(90)):03d}0")
            for seq, code in enumerate(codes, 1):
                diag_writer.writerow([next(diag_ids), subject_id, hadm_id, seq, code])

    return notes_path, diag_path


def _compose_order_free(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    keywords: list[list[str]],
    filler: list[str],
    active: list[int],
) -> str:
    length = spec.note_length
    if spec.jitter > 0:
        length += int(rng.integers(-spec.jitter, spec.jitter + 1))
    length = max(length, 2 * len(active) + 4)
    tokens = [filler[int(t)] for t in rng.integers(len(filler), size=length)]
    for j in active:
        kw = keywords[j][int(rng.integers(len(keywords[j])))]
        pos = int(rng.integers(len(tokens) + 1))
        tokens.insert(pos, kw)
    return _format_note(rng, tokens)


def _compose_order_sensitive(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    keywords: list[list[str]],
    filler: list[str],
) -> tuple[list[int], str]:
    """Every label's (negator, keyword) pair appears once; order decides
    the label, so the bag of signal tokens is identical for every note."""
    segments: list[list[str]] = []
    active = []
    for j in rng.permutation(spec.n_labels):
        j = int(j)
        kw = keywords[j][0]
        if rng.random() < 0.5:
            segments.append([kw, NEGATOR])  # keyword first: label ON
            active.append(j)
        else:
            segments.append([NEGATOR, kw])  # negated: label OFF
    tokens: list[str] = []
    for seg in segments:
        tokens.extend(seg)
        n_fill = int(rng.integers(1, 3))
        tokens.extend(filler[int(t)] for t in rng.integers(len(filler), size=n_fill))
    active = sorted(active)
    text = _format_note(rng, tokens)
    scanned = scan_order_sensitive_labels(text, keywords)
    if scanned != active:
        raise RuntimeError(f"order-sensitive self-check failed: {scanned} != {active}")
    return active, text


def _format_note(rng: np.random.Generator, tokens: list[str]) -> str:
    """Join tokens into prose with occasional sentence breaks and an
    embedded newline so CSV quoting is exercised."""
    parts = []
    for i, tok in enumerate(tokens):
        parts.append(tok)
        if i and i % 12 == 0:
            parts[-1] += "."
        if i and i % 25 == 0:
            parts[-1] += "\n"
    return " ".join(parts)


def _check_order_free(text: str, keywords: list[list[str]], active: list[int]) -> None:
    toks = set(textproc.tokenize(text))
    present = sorted(j for j, lex in enumerate(keywords) if any(w in toks for w in lex))
    if present != active:
        raise RuntimeError(f"keyword self-check failed: {present} != {active}")


def scan_order_sensitive_labels(text: str, keywords: list[list[str]]) -> list[int]:
    """Recover order-sensitive ground truth from a note: label j is ON
    iff its keyword occurs and the token immediately before it is not
    ``NEGATOR``, in the tokens ``textproc.tokenize`` gives the pipeline."""
    toks = textproc.tokenize(text)
    active = []
    for j, lex in enumerate(keywords):
        for pos, tok in enumerate(toks):
            if tok in lex:
                if pos == 0 or toks[pos - 1] != NEGATOR:
                    active.append(j)
                break
    return sorted(active)


# ---------------------------------------------------------------------------
# Dataset artifacts
# ---------------------------------------------------------------------------


def save_split(dataset: LabeledDataset, path: str | Path) -> None:
    """One uncompressed .npz: the token ids in the narrowest unsigned dtype
    that holds the largest, the document offsets, labels, hadm ids and
    coverage."""
    ids = dataset.docs.ids
    with open(path, "wb") as fh:
        np.savez(fh, ids=ids.astype(np.min_scalar_type(ids.max(initial=0))),
                 offsets=dataset.docs.offsets, labels=dataset.labels, hadm_ids=dataset.hadm_ids,
                 coverage=dataset.coverage)


def _split_arrays(fh) -> list[np.ndarray]:
    with np.load(fh, allow_pickle=False) as arrays:
        return [arrays[name] for name in ("ids", "offsets", "labels", "hadm_ids", "coverage")]


def load_split(path: str | Path, catalog: LabelCatalog, table: dict[str, int]) -> LabeledDataset:
    """Read what ``save_split`` wrote, its ids against ``table``; FormatError
    naming ``path`` for ids outside the table, offsets that do not run from
    0 up to the ids' end, labels that are not a [n, k] uint8 matrix of 0/1,
    other than n hadm ids, or a coverage other than one float64."""
    ids, offsets, labels, hadm_ids, coverage = read_numpy(path, _split_arrays)
    if ids.ndim != 1 or ids.dtype.kind not in "ui" or (
            ids.size and not 0 <= ids.min() <= ids.max() < len(table)):
        raise FormatError(f"{path}: token ids must be integers in [0, {len(table)})")
    if (offsets.ndim != 1 or offsets.dtype.kind not in "ui" or offsets[:1].tolist() != [0]
            or (np.diff(offsets) < 0).any() or offsets[-1] != ids.size):
        raise FormatError(f"{path}: offsets must rise from 0 to {ids.size}, the ids' count")
    n = offsets.size - 1
    if labels.dtype != np.uint8 or labels.shape != (n, catalog.k) or (labels > 1).any():
        raise FormatError(f"{path}: labels must be a [{n}, {catalog.k}] uint8 matrix of 0/1")
    if hadm_ids.shape != (n,) or hadm_ids.dtype.kind not in "ui":
        raise FormatError(f"{path}: want {n} integer hadm ids, got shape {hadm_ids.shape}")
    if coverage.shape != () or coverage.dtype != np.float64:
        raise FormatError(f"{path}: coverage must be a float64 scalar")
    docs = textproc.EncodedDocs(ids.astype(np.int32), offsets.astype(np.int64), table)
    return LabeledDataset(hadm_ids.astype(np.int64), labels, docs, catalog, float(coverage))


def save_catalog(catalog: LabelCatalog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#mode={catalog.mode}\n")
        for name, count in catalog.labels:
            fh.write(f"{name}\t{count}\n")


def load_catalog(path: str | Path) -> LabelCatalog:
    """Read what ``save_catalog`` wrote; FormatError naming ``path:line``
    for a mode other than code or category, or a malformed label line."""
    mode = "code"
    labels = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("#mode="):
            mode = line.split("=", 1)[1].strip()
            if mode not in ("code", "category"):
                raise FormatError(f"{path}:{lineno}: mode must be code or category, got {mode!r}")
            continue
        if not line.strip():
            continue
        try:
            name, count = line.split("\t")
            labels.append((name, int(count)))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: expected label<TAB>admissions") from None
    return LabelCatalog(mode=mode, labels=tuple(labels))


SPLIT_NAMES = ("train", "val", "test")


def save_dataset(
    d: str | Path, train: LabeledDataset, val: LabeledDataset, test: LabeledDataset
) -> None:
    """Write the three splits of one dataset, which share one token table,
    into directory ``d``: ``catalog.tsv``, ``tokens.txt`` and
    ``train.npz``, ``val.npz``, ``test.npz``."""
    d = Path(d)
    save_catalog(train.catalog, d / "catalog.tsv")
    (d / "tokens.txt").write_text("".join(t + "\n" for t in train.docs.table), encoding="utf-8")
    for name, split in zip(SPLIT_NAMES, (train, val, test)):
        save_split(split, d / f"{name}.npz")


def load_dataset(
    d: str | Path,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset, LabelCatalog]:
    """Read back what ``save_dataset`` wrote into ``d`` as
    ``(train, val, test, catalog)``; FormatError naming ``tokens.txt`` and
    the line of a token listed twice."""
    d = Path(d)
    catalog = load_catalog(d / "catalog.tsv")
    path = d / "tokens.txt"
    table: dict[str, int] = {}
    for line, token in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if table.setdefault(token, line - 1) != line - 1:
            raise FormatError(f"{path}:{line}: token {token!r} listed twice")
    train, val, test = (load_split(d / f"{name}.npz", catalog, table) for name in SPLIT_NAMES)
    return train, val, test, catalog
