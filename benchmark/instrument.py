"""Which package functions the traced run wraps, and how their spans and
counts become the per-layer metrics.

Every span is named ``<module>.<function>`` or ``<module>.<Class>.<method>``
after the public attribute it wraps. The README's layer map says which
end-to-end metric each per-layer metric should move, on which workload.
"""

from __future__ import annotations

from codeset_bench import corpus, features, harness, metrics, models, oracles, textproc
from codeset_bench import neuralcore as nc

from spans import SpanIndex, Tracer

INGEST = (
    "corpus.load_noteevents", "corpus.load_diagnoses", "corpus.filter_discharge_summaries",
    "corpus.select_top_labels", "corpus.NoteSanitizer.__call__", "corpus.build_dataset",
    "corpus.split_dataset",
)
ARTIFACT_WRITES = (
    "features.save_sparse", "features.save_dense", "features.save_sequences",
    "features.save_word2vec_text", "textproc.save_vocabulary",
)
ARTIFACT_READS = (
    "features.load_sparse", "features.load_dense", "features.load_sequences",
    "features.load_word2vec_text", "textproc.load_vocabulary",
)
RUN_WRITES = (
    "features.save_dense", "corpus.save_catalog", "metrics.write_pr_curves",
    "neuralcore.save_checkpoint", "harness.models_save_forest",
)
METRIC_FUNCTIONS = (
    "metrics.example_based_metrics", "metrics.hamming_loss", "metrics.macro_auc",
    "metrics.average_precision", "metrics.precision_at_k",
)
ORACLE_FUNCTIONS = (
    "oracles.oracle_example_metrics", "oracles.oracle_hamming", "oracles.oracle_macro_auc",
    "oracles.oracle_average_precision", "oracles.oracle_precision_at_k",
)
# (metric prefix, class) for every layer whose forward/backward is timed
LAYERS = (
    ("conv1d", nc.Conv1d), ("maxpool1d", nc.MaxPool1d), ("gru", nc.GRU), ("lstm", nc.LSTM),
    ("embedding", nc.Embedding), ("dense", nc.Dense), ("sigmoid", nc.Sigmoid),
)
# the calls the benchmark itself makes; their self time is unattributed
ENTRY_POINTS = ("harness.run_pipeline", "harness.rewrite_reports", "oracles.run_oracle_suite")


def _count_notes(counts, args, result):
    counts["corpus.notes_read"] += result[1].rows


def _count_kept(counts, args, result):
    counts["corpus.summaries_kept"] += len(result)


def _count_tokens(counts, args, result):
    counts["textproc.tokens"] += len(result)


def _count_cbow(counts, args, result):
    counts["features.cbow_token_steps"] += len(result.losses)


def _count_cache(counts, args, result):
    counts["harness.cache_hits" if result else "harness.cache_misses"] += 1


def _count_training(counts, args, result):
    epochs = len(result.history)
    counts["models.epochs"] += epochs
    counts["models.examples"] += len(args[2]) * max(1, epochs)  # args: cfg, feats, y_train, y_val


def install(tracer: Tracer) -> None:
    """Wrap every traced function; `tracer.restore()` undoes it."""
    module_functions = {
        corpus: ("load_diagnoses", "select_top_labels", "build_dataset", "split_dataset",
                 "save_split", "load_split", "save_catalog"),
        textproc: ("save_vocabulary", "load_vocabulary"),
        features: ("build_tfidf_table", "tfidf_vectorize", "encode_corpus_sequences",
                   "save_sparse", "load_sparse", "save_dense", "load_dense", "save_sequences",
                   "load_sequences", "save_word2vec_text", "load_word2vec_text"),
        nc: ("bce_loss", "save_checkpoint"),
        models: ("fit", "train_logreg_ovr", "train_random_forest_ovr", "fit_network",
                 "predict_proba"),
        harness: ("run_pipeline", "stage_dataset", "stage_features", "models_save_forest",
                  "rewrite_reports"),
        metrics: ("report", "write_pr_curves") + tuple(n.split(".")[1] for n in METRIC_FUNCTIONS),
        oracles: ("run_oracle_suite",) + tuple(n.split(".")[1] for n in ORACLE_FUNCTIONS),
    }
    for module, names in module_functions.items():
        prefix = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.wrap(module, name, f"{prefix}.{name}")
    tracer.wrap(corpus, "load_noteevents", "corpus.load_noteevents", _count_notes)
    tracer.wrap(corpus, "filter_discharge_summaries", "corpus.filter_discharge_summaries",
                _count_kept)
    tracer.wrap(corpus.NoteSanitizer, "__call__", "corpus.NoteSanitizer.__call__")
    tracer.wrap(textproc, "tokenize", "textproc.tokenize", _count_tokens)
    tracer.wrap(features, "train_word2vec_cbow", "features.train_word2vec_cbow", _count_cbow)
    tracer.wrap(harness, "stage_train", "harness.stage_train", _count_training)
    tracer.wrap(harness.Workspace, "stage_cached", "harness.Workspace.stage_cached",
                _count_cache)
    for _, cls in LAYERS:
        for method in ("forward", "backward"):
            tracer.wrap(cls, method, f"neuralcore.{cls.__name__}.{method}")
    for cls in (nc.RMSprop, nc.SGD):
        tracer.wrap(cls, "step", f"neuralcore.{cls.__name__}.step")


def layer_metrics(index: SpanIndex, counts, sizes: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced cycle, as name -> (value, unit).

    ``sizes`` holds the bytes left under the workspace's feature cache,
    whole cache and run directories. A layer the workload never calls
    reads 0.
    """
    t = index.total
    fit_s = t(["models.fit"])
    cbow_s = t(["features.train_word2vec_cbow"])
    steps = counts["features.cbow_token_steps"]
    out = {
        "corpus.ingest_s": (t(INGEST), "s"),
        "corpus.summaries_kept_ratio": (
            counts["corpus.summaries_kept"] / counts["corpus.notes_read"]
            if counts["corpus.notes_read"] else 0.0, "ratio"),
        "corpus.split_write_s": (t(["corpus.save_split"]), "s"),
        "corpus.split_read_s": (t(["corpus.load_split"]), "s"),
        "textproc.tokenize_s": (t(["textproc.tokenize"]), "s"),
        "textproc.tokens": (counts["textproc.tokens"], "count"),
        "features.tfidf_fit_s": (t(["features.build_tfidf_table"]), "s"),
        "features.tfidf_vectorize_s": (t(["features.tfidf_vectorize"]), "s"),
        "features.cbow_s": (cbow_s, "s"),
        "features.cbow_token_steps": (steps, "count"),
        "features.cbow_us_per_token_step": (cbow_s * 1e6 / steps if steps else 0.0, "us"),
        "features.artifact_write_s": (t(ARTIFACT_WRITES, ancestor="harness.stage_features"), "s"),
        "features.artifact_read_s": (t(ARTIFACT_READS, ancestor="harness.stage_features"), "s"),
        "features.artifact_bytes": (sizes["features"], "bytes"),
    }
    for prefix, cls in LAYERS:
        out[f"neuralcore.{prefix}.fwd_s"] = (t([f"neuralcore.{cls.__name__}.forward"]), "s")
        out[f"neuralcore.{prefix}.bwd_s"] = (t([f"neuralcore.{cls.__name__}.backward"]), "s")
    out.update({
        "neuralcore.optim_step_s": (t(["neuralcore.RMSprop.step", "neuralcore.SGD.step"]), "s"),
        "neuralcore.bce_s": (t(["neuralcore.bce_loss"]), "s"),
        "models.logreg_fit_s": (t(["models.train_logreg_ovr"]), "s"),
        "models.forest_fit_s": (t(["models.train_random_forest_ovr"]), "s"),
        "models.fit_s": (fit_s, "s"),
        "models.epochs": (counts["models.epochs"], "count"),
        "models.train_examples_per_s": (counts["models.examples"] / fit_s if fit_s else 0.0, "1/s"),
        "models.predict_s": (t(["models.predict_proba"]), "s"),
        "metrics.report_s": (t(["metrics.report"]), "s"),
        "metrics.pr_write_s": (t(["metrics.write_pr_curves"]), "s"),
        "oracles.naive_s": (t(ORACLE_FUNCTIONS), "s"),
        "metrics.suite_calls_s": (t(METRIC_FUNCTIONS, parent_names={"oracles.run_oracle_suite"}), "s"),
        "harness.dataset_stage_s": (t(["harness.stage_dataset"]), "s"),
        "harness.features_stage_s": (t(["harness.stage_features"]), "s"),
        "harness.train_stage_s": (t(["harness.stage_train"]), "s"),
        "harness.write_run_s": (t(RUN_WRITES, parent_names={"harness.run_pipeline"}), "s"),
        "harness.model_save_s": (
            t(["neuralcore.save_checkpoint", "harness.models_save_forest"],
              ancestor="harness.run_pipeline"), "s"),
        "harness.cache_hits": (counts["harness.cache_hits"], "count"),
        "harness.cache_misses": (counts["harness.cache_misses"], "count"),
        "harness.cache_bytes": (sizes["cache"], "bytes"),
        "harness.run_dir_bytes": (sizes["runs"], "bytes"),
    })
    return out
