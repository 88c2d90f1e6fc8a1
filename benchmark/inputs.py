"""Seeded input generation for the benchmark.

The program under test only ever sees the files written here: MIMIC-style
NOTEEVENTS/DIAGNOSES_ICD CSVs for the pipeline workloads, and a stored run
directory for the evaluation workload. The same seed writes the same bytes.

The CSVs are written with the standard library alone, so the inputs do not
change when the package's own synthetic generator changes. The stored run
directory is written through the package's public writers, because its
layout is the format `harness.rewrite_reports` reads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Label j is present in an admission with probability
# LABEL_RATE * LABEL_DECAY**j, so the top-k selection is stable. A present
# label puts one of its keywords in the note with probability
# KEYWORD_RECALL; an absent one leaks a keyword with probability
# KEYWORD_LEAK, so no model reaches a perfect score.
LABEL_RATE = 0.35
LABEL_DECAY = 0.97
KEYWORD_RECALL = 0.85
KEYWORD_LEAK = 0.03
NOISE_CODES = 200  # distinct codes outside the label set


def _word(prefix: str, i: int) -> str:
    """Letters-only token, so the tokenizer keeps it whole."""
    out = LETTERS[i % 26]
    while i >= 26:
        i //= 26
        out = LETTERS[i % 26] + out
    return prefix + out


def label_code(j: int) -> str:
    """Distinct ICD-9-shaped 4-digit code for label j."""
    return f"{401 + j:03d}{j % 10}"


@dataclass(frozen=True)
class CorpusShape:
    """Size and make-up of a generated note corpus."""

    n_admissions: int
    note_tokens: int
    n_labels: int
    filler_vocab: int
    extra_note_rate: float = 0.05


def write_corpus(shape: CorpusShape, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write NOTEEVENTS.csv and DIAGNOSES_ICD.csv; return their paths.

    Besides one discharge summary per admission the notes file holds, at
    ``extra_note_rate`` each, a later discharge addendum for the same
    admission (the keep-latest rule must pick it), a nursing note (filtered
    out) and a row with no HADM_ID (skipped at ingest).
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    filler = np.array([_word("w", i) for i in range(shape.filler_vocab)])
    zipf = 1.0 / np.arange(1, shape.filler_vocab + 1)
    zipf /= zipf.sum()
    keywords = [[_word("kw", j) + c for c in "xyz"] for j in range(shape.n_labels)]
    rates = LABEL_RATE * LABEL_DECAY ** np.arange(shape.n_labels)

    notes_path = out_dir / "NOTEEVENTS.csv"
    diags_path = out_dir / "DIAGNOSES_ICD.csv"
    row_id = 0
    diag_row = 0
    with open(notes_path, "w", newline="", encoding="utf-8") as nf, open(
        diags_path, "w", newline="", encoding="utf-8"
    ) as df:
        notes = csv.writer(nf, lineterminator="\n")
        diags = csv.writer(df, lineterminator="\n")
        notes.writerow(
            ["ROW_ID", "SUBJECT_ID", "HADM_ID", "CHARTDATE", "CATEGORY", "DESCRIPTION", "TEXT"]
        )
        diags.writerow(["ROW_ID", "SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"])
        for i in range(shape.n_admissions):
            subject, hadm = 10000 + i, 200000 + i
            date = f"2150-{1 + i % 12:02d}-{1 + i % 28:02d}"
            active = np.nonzero(rng.random(shape.n_labels) < rates)[0]
            if active.size == 0:
                active = np.array([int(rng.integers(shape.n_labels))])
            length = max(20, int(rng.normal(shape.note_tokens, 0.2 * shape.note_tokens)))
            tokens = list(filler[rng.choice(shape.filler_vocab, size=length, p=zipf)])
            is_active = np.zeros(shape.n_labels, dtype=bool)
            is_active[active] = True
            emit = np.where(is_active, KEYWORD_RECALL, KEYWORD_LEAK)
            for j in np.nonzero(rng.random(shape.n_labels) < emit)[0]:
                kw = keywords[j][int(rng.integers(3))]
                tokens.insert(int(rng.integers(len(tokens) + 1)), kw)
            text = _format_note(tokens, date)

            row_id += 1
            notes.writerow([row_id, subject, hadm, date, "Discharge summary", "Report", text])
            if rng.random() < shape.extra_note_rate:
                row_id += 1
                extra = " ".join(filler[rng.choice(shape.filler_vocab, size=20, p=zipf)])
                notes.writerow([row_id, subject, hadm, date, "Discharge summary", "Addendum",
                                text + "\n\nAddendum: " + extra + "."])
            if rng.random() < shape.extra_note_rate:
                row_id += 1
                body = " ".join(filler[rng.choice(shape.filler_vocab, size=60, p=zipf)])
                notes.writerow([row_id, subject, hadm, date, "Nursing/other", "Report", body])
            if rng.random() < shape.extra_note_rate:
                row_id += 1
                notes.writerow([row_id, subject, "", date, "Discharge summary", "Report", "n/a"])

            seq = 0
            for j in active:
                seq += 1
                diag_row += 1
                diags.writerow([diag_row, subject, hadm, seq, label_code(int(j))])
            if rng.random() < 0.3:
                seq += 1
                diag_row += 1
                diags.writerow([diag_row, subject, hadm, seq,
                                f"V{int(rng.integers(NOISE_CODES)):03d}"])
    return notes_path, diags_path


def _format_note(tokens: list[str], date: str) -> str:
    """Prose with sentence breaks and line breaks, as discharge summaries
    have, so CSV quoting and split-file escaping are both exercised."""
    lines = [f"Admission Date: [**{date}**]"]
    for lo in range(0, len(tokens), 36):
        chunk = tokens[lo : lo + 36]
        lines.append(". ".join(" ".join(chunk[s : s + 12]) for s in range(0, len(chunk), 12)) + ".")
    return "\n".join(lines)


def write_stored_run(run_dir: Path, seed: int, n_train: int, n_test: int, q: int) -> None:
    """A run directory as `harness.run_pipeline` leaves it, holding
    model-like scores for a train and a test split of q labels."""
    from codeset_bench import corpus, features, harness

    rng = np.random.default_rng(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = harness.ExperimentConfig(
        {"dataset.k": str(q), "model.preset": "logreg", "feature.track": "tfidf40k"}
    )
    (run_dir / "config.txt").write_text(cfg.canonical_text(), encoding="utf-8")
    rates = LABEL_RATE * LABEL_DECAY ** np.arange(q)
    splits = {}
    for tag, n in (("train", n_train), ("test", n_test)):
        truth = (rng.random((n, q)) < rates).astype(np.float64)
        empty = np.nonzero(truth.sum(axis=1) == 0)[0]
        truth[empty, rng.integers(q, size=empty.size)] = 1.0
        logits = rng.normal(-1.5 + 2.5 * truth, 1.2)
        splits[tag] = (1.0 / (1.0 + np.exp(-logits)), truth)
    counts = splits["train"][1].sum(axis=0).astype(int)
    catalog = corpus.LabelCatalog(
        mode="code", labels=tuple((label_code(j), int(counts[j])) for j in range(q))
    )
    corpus.save_catalog(catalog, run_dir / "catalog.tsv")
    for tag, (probs, truth) in splits.items():
        features.save_dense(probs, run_dir / f"probs_{tag}.dense")
        features.save_dense(truth, run_dir / f"truth_{tag}.dense")
