"""The four workloads: their inputs, their two timed operations and the
checks on each operation's output.

Every workload times two operations per cycle, in order, one at a time
from a single caller (a closed loop with one client). A cycle starts from
an empty workspace, so the first pipeline run is cold and the second one
finds the features it needs in the stage cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from codeset_bench import features, harness, oracles

import inputs

ORACLE_TOL = 1e-12


def quiet(*_args, **_kwargs) -> None:
    pass


@dataclass
class Op:
    """One timed call and the check on its result (problems, empty when
    the output is right); ``quality`` reads (test F1, test macro AUC)
    from results that have a test split."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    quality: Callable[[object], tuple[float, float]] | None = None


@dataclass
class Workload:
    name: str
    why: str
    op_names: tuple[str, str]  # what the first and second operation are called in the report
    # setup(seed, input_dir) writes the inputs and returns ops(workspace),
    # which gives one cycle's operations and the directory they fill
    setup: Callable[[int, Path], Callable[[Path], tuple[list[Op], Path]]] = field(repr=False)


# ---------------------------------------------------------------------------
# Output checks, all run outside the timed region
# ---------------------------------------------------------------------------


def oracle_problems(run_dir: Path) -> list[str]:
    """Recompute the stored test metrics from probs_test/truth_test with
    the naive oracles and list every disagreement beyond ORACLE_TOL."""
    cfg = harness.parse_config_text((run_dir / "config.txt").read_text(encoding="utf-8"))
    threshold = float(cfg.get("train.threshold", harness.DEFAULTS["train.threshold"]))
    probs = features.load_dense(run_dir / "probs_test.dense")
    truth = features.load_dense(run_dir / "truth_test.dense").astype(np.uint8)
    stored = json.loads((run_dir / "metrics_test.json").read_text(encoding="utf-8"))
    predicted = (probs >= threshold).astype(np.uint8)
    precision, recall, f1, accuracy, _ = oracles.oracle_example_metrics(predicted, truth)
    expected = {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": accuracy,
        "hamming_loss": oracles.oracle_hamming(predicted, truth),
        "macro_auc": oracles.oracle_macro_auc(probs, truth)[0],
        "precision_at_5": oracles.oracle_precision_at_k(probs, truth, k=min(5, probs.shape[1])),
    }
    problems = [
        f"{run_dir.name}: {key} {stored[key]!r} != oracle {value!r}"
        for key, value in expected.items()
        if abs(stored[key] - value) > ORACLE_TOL
    ]
    for j, ap in enumerate(stored["ap_per_label"]):
        oracle_ap = oracles.oracle_average_precision(probs[:, j], truth[:, j])
        if (ap is None) != (oracle_ap is None) or (ap is not None and abs(ap - oracle_ap) > ORACLE_TOL):
            problems.append(f"{run_dir.name}: AP of label {j} {ap!r} != oracle {oracle_ap!r}")
    return problems


def record_problems(record: harness.RunRecord, warm: bool) -> list[str]:
    problems = oracle_problems(Path(record.artifacts["run_dir"]))
    if warm and not any(hit.startswith("features:") for hit in record.cache_hits):
        problems.append("warm run missed the features cache")
    if record.history and not record.history[-1][0] < record.history[0][0]:
        problems.append(
            f"training loss did not fall: first epoch {record.history[0][0]!r}, "
            f"last {record.history[-1][0]!r}"
        )
    return problems


def record_quality(record: harness.RunRecord) -> tuple[float, float]:
    return record.metrics_test["f1"], record.metrics_test["macro_auc"]


# ---------------------------------------------------------------------------
# Pipeline workloads
# ---------------------------------------------------------------------------


def pipeline_setup(shape: inputs.CorpusShape, base: dict, first: dict, second: dict):
    """Setup for a workload of two `run_pipeline` calls that share their
    dataset and feature stages: it writes the CSVs and returns the
    per-cycle operations."""

    def setup(seed: int, root: Path):
        notes, diags = inputs.write_corpus(shape, seed, root)
        shared = {
            "dataset.source": "csv",
            "dataset.notes": str(notes),
            "dataset.diagnoses": str(diags),
            "dataset.k": str(shape.n_labels),
            **base,
        }
        configs = [harness.ExperimentConfig({**shared, **extra}) for extra in (first, second)]

        def ops(workspace: Path) -> tuple[list[Op], Path]:
            return [
                Op(
                    name,
                    lambda cfg=cfg, name=name: harness.run_pipeline(cfg, workspace, name, log=quiet),
                    lambda rec, warm=(i == 1): record_problems(rec, warm),
                    record_quality,
                )
                for i, (name, cfg) in enumerate(zip(("cold", "warm"), configs))
            ], workspace

        return ops

    return setup


# ---------------------------------------------------------------------------
# Evaluation and verification
# ---------------------------------------------------------------------------

EVAL_N_TRAIN = 12000
EVAL_N_TEST = 300
EVAL_Q = 50


def eval_verify_setup(seed: int, root: Path):
    space = root / "workspace"
    run_dir = space / "runs" / "stored"
    inputs.write_stored_run(run_dir, seed, EVAL_N_TRAIN, EVAL_N_TEST, EVAL_Q)

    def report_problems(reports) -> list[str]:
        stored = json.loads((run_dir / "metrics_test.json").read_text(encoding="utf-8"))
        problems = oracle_problems(run_dir)
        if stored["macro_auc"] != reports["test"].macro_auc:
            problems.append("metrics_test.json does not hold the returned report")
        return problems

    def suite_problems(worst) -> list[str]:
        return [f"oracle suite: {k} off by {v!r}" for k, v in worst.items() if v > ORACLE_TOL]

    def ops(_workspace: Path) -> tuple[list[Op], Path]:
        return [
            Op("report", lambda: harness.rewrite_reports(run_dir), report_problems,
               lambda reps: (reps["test"].f1, reps["test"].macro_auc)),
            Op("oracle", lambda: oracles.run_oracle_suite(n_pairs=1000), suite_problems),
        ], space

    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tfidf-ovr",
            "classical baseline on tf-idf: OvR logistic regression writes the caches cold, "
            "a random forest reads them warm",
            ("cold_run_s", "warm_run_s"),
            pipeline_setup(
                inputs.CorpusShape(n_admissions=500, note_tokens=300, n_labels=50,
                                   filler_vocab=2000, extra_note_rate=0.3),
                {"feature.track": "tfidf40k"},
                {"model.preset": "logreg"},
                {"model.preset": "rforest", "model.rf_trees": "2", "model.rf_depth": "6"},
            ),
        ),
        Workload(
            "wordseq-rnn",
            "word sequences with self-trained CBOW: CBOW dominates the cold GRU run, "
            "recurrent kernels the warm LSTM run",
            ("cold_run_s", "warm_run_s"),
            pipeline_setup(
                inputs.CorpusShape(n_admissions=120, note_tokens=100, n_labels=10,
                                   filler_vocab=500),
                {"feature.track": "wordseq", "feature.seq_len": "100", "feature.w2v_dim": "32",
                 "train.max_epochs": "10", "train.patience": "10",
                 "train.learning_rate": "5e-3"},
                {"model.preset": "gru-desk"},
                {"model.preset": "lstm-desk"},
            ),
        ),
        Workload(
            "wordseq-cnn",
            "MIMIC-length word sequences with a random embedding: conv and pooling do the "
            "work, CBOW none",
            ("cold_run_s", "warm_run_s"),
            pipeline_setup(
                inputs.CorpusShape(n_admissions=40, note_tokens=1500, n_labels=10,
                                   filler_vocab=2000),
                {"feature.track": "wordseq", "feature.seq_len": "1500",
                 "feature.embedding_source": "random", "model.preset": "cnn-desk",
                 "train.max_epochs": "3", "train.patience": "3"},
                {"train.seed": "0"},
                {"train.seed": "1"},
            ),
        ),
        Workload(
            "eval-verify",
            "metrics on large arrays in one report, and on 1000 tiny runs in the "
            "oracle suite",
            ("report_s", "oracle_s"),
            eval_verify_setup,
        ),
    )
}
