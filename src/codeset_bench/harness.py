"""Config-driven experiment pipeline: prepare -> featurize -> train ->
evaluate -> report, with content-addressed caching of each stage.

Configs are flat ``key = value`` text with dotted section prefixes
(``dataset.k = 10``). Every key has a default; unknown keys are
rejected. Stage outputs are cached under SHA-256 hashes of the
canonicalized config subset that influences them, so re-running a model
sweep over shared features reuses the feature stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from . import corpus, features, metrics, models, textproc
from . import neuralcore as nc
from .errors import ConfigError, PipelineError

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, str] = {
    "dataset.source": "synthetic",  # synthetic | csv
    "dataset.notes": "",
    "dataset.diagnoses": "",
    "dataset.mode": "code",  # code | category
    "dataset.k": "10",
    "dataset.train_frac": "0.5",
    "dataset.val_frac": "0.25",
    "dataset.test_frac": "0.25",
    "dataset.split_seed": "0",
    "dataset.sanitize": "true",
    "dataset.synthetic.n_labels": "10",
    "dataset.synthetic.n_notes": "400",
    "dataset.synthetic.keywords_per_label": "2",
    "dataset.synthetic.filler_vocab": "80",
    "dataset.synthetic.note_length": "50",
    "dataset.synthetic.jitter": "15",
    "dataset.synthetic.label_rate": "0.35",
    "dataset.synthetic.noise_code_rate": "0.15",
    "dataset.synthetic.extra_note_rate": "0.05",
    "dataset.synthetic.order_sensitive": "false",
    "dataset.synthetic.seed": "0",
    "feature.track": "tfidf40k",  # tfidf40k | tfidf20k | w2v-avg | wordseq
    "feature.remove_stopwords": "false",
    "feature.w2v_dim": "100",
    "feature.window": "5",
    "feature.epochs": "5",
    "feature.negatives": "5",
    "feature.min_count": "1",
    "feature.seq_len": "1500",
    "feature.embedding_source": "self",  # self | pretrained | random
    "feature.pretrained_path": "",
    "feature.embedding_trainable": "true",
    "feature.seed": "0",
    "model.preset": "",
    "model.family": "",
    "model.hidden": "",
    "model.conv_blocks": "",
    "model.fc": "0",
    "model.dropout": "0.0",
    "model.bidirectional": "false",
    "model.logreg_iters": "100",
    "model.logreg_lr": "0.5",
    "model.rf_trees": "64",
    "model.rf_depth": "10",
    "train.max_epochs": "200",
    "train.patience": "5",
    "train.batch_size": "32",
    "train.optimizer": "rmsprop",
    "train.learning_rate": "",
    "train.threshold": "0.5",
    "train.seed": "0",
}

# Version of what the cached stages compute and of their on-disk layout.
# It is part of every stage hash, so a workspace written by code that
# computed or stored a stage differently is rebuilt rather than read. Bump
# it with any change to a stage's output (npy-5: the dataset stage is
# catalog.tsv plus three split TSVs with a #coverage= header, no manifest).
ARTIFACT_FORMAT = "npy-5"

TRACK_KINDS = {
    "tfidf40k": "sparse",
    "tfidf20k": "sparse",
    "w2v-avg": "dense",
    "wordseq": "sequence",
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat key = value lines; blank lines and #-comment lines ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


class ExperimentConfig:
    """Validated, default-filled view over a flat config dict."""

    def __init__(self, raw: dict[str, str]):
        unknown = sorted(set(raw) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.values = dict(DEFAULTS)
        self.values.update(raw)
        self._validate()

    # typed accessors ------------------------------------------------------
    def get(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {self.values[key]!r}") from None

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {self.values[key]!r}") from None

    def get_bool(self, key: str) -> bool:
        return _parse_bool(self.values[key], key)

    def _ints(self, key: str, parts: list[str]) -> tuple[int, ...]:
        try:
            return tuple(int(v) for v in parts if v.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected integers, got {self.values[key]!r}") from None

    # validation -----------------------------------------------------------
    def _validate(self) -> None:
        """Parse every key, so that a malformed value raises ConfigError
        naming its key before any stage runs."""
        if self.get("dataset.source") not in ("synthetic", "csv"):
            raise ConfigError("dataset.source must be synthetic or csv")
        if self.get("dataset.source") == "csv" and not (
            self.get("dataset.notes") and self.get("dataset.diagnoses")
        ):
            raise ConfigError("csv source needs dataset.notes and dataset.diagnoses")
        if self.get("dataset.mode") not in ("code", "category"):
            raise ConfigError("dataset.mode must be code or category")
        k = self.get_int("dataset.k")
        if k < 1:
            raise ConfigError("dataset.k must be >= 1")
        if k not in (10, 50):
            warnings.warn(f"dataset.k = {k} departs from the reference settings (10/50)")
        track = self.get("feature.track")
        if track not in TRACK_KINDS:
            raise ConfigError(f"unknown feature.track {track!r}")
        if self.get("feature.embedding_source") not in ("self", "pretrained", "random"):
            raise ConfigError("feature.embedding_source must be self, pretrained, or random")
        spec = self.model_spec()
        if TRACK_KINDS[track] not in models.FAMILY_INPUT_KINDS[spec.family]:
            raise ConfigError(
                f"feature track {track!r} ({TRACK_KINDS[track]}) is incompatible "
                f"with model family {spec.family!r}"
            )
        self.train_config()  # raises on bad training block
        self.split_spec()
        self.synthetic_spec()
        for key in ("dataset.sanitize", "feature.remove_stopwords", "feature.embedding_trainable"):
            self.get_bool(key)
        for key in (
            "feature.w2v_dim", "feature.window", "feature.epochs", "feature.negatives",
            "feature.min_count", "feature.seq_len", "feature.seed",
            "model.logreg_iters", "model.rf_trees", "model.rf_depth",
        ):
            self.get_int(key)
        self.get_float("model.logreg_lr")

    # resolved objects -----------------------------------------------------
    def model_spec(self) -> models.ModelSpec:
        # every model key is parsed, including those a preset ignores
        hidden = self._ints("model.hidden", self.get("model.hidden").split(","))
        blocks = []
        for chunk in self.get("model.conv_blocks").split(","):
            if chunk.strip():
                blocks.append(self._ints("model.conv_blocks", chunk.split(":")))
                if len(blocks[-1]) != 3:
                    raise ConfigError("model.conv_blocks entries are filters:width:pool")
        fc = self.get_int("model.fc") or None
        dropout = self.get_float("model.dropout")
        bidirectional = self.get_bool("model.bidirectional")
        name = self.get("model.preset")
        if name:
            spec = models.preset(name)
            if bidirectional and not spec.bidirectional:
                spec = replace(spec, bidirectional=True, name=spec.name + "-bidi")
            return spec
        family = self.get("model.family")
        if not family:
            raise ConfigError("set model.preset or model.family")
        return models.ModelSpec(
            family=family,
            input_kind=TRACK_KINDS[self.get("feature.track")],
            hidden=hidden,
            conv_blocks=tuple(blocks),
            fc=fc,
            dropout=dropout,
            bidirectional=bidirectional,
            name=family,
        )

    def train_config(self) -> models.TrainConfig:
        lr = self.get("train.learning_rate")
        return models.TrainConfig(
            max_epochs=self.get_int("train.max_epochs"),
            patience=self.get_int("train.patience"),
            batch_size=self.get_int("train.batch_size"),
            optimizer=self.get("train.optimizer"),
            learning_rate=self.get_float("train.learning_rate") if lr else None,
            threshold=self.get_float("train.threshold"),
            seed=self.get_int("train.seed"),
        )

    def synthetic_spec(self) -> corpus.SyntheticSpec:
        return corpus.SyntheticSpec(
            n_labels=self.get_int("dataset.synthetic.n_labels"),
            n_notes=self.get_int("dataset.synthetic.n_notes"),
            keywords_per_label=self.get_int("dataset.synthetic.keywords_per_label"),
            filler_vocab_size=self.get_int("dataset.synthetic.filler_vocab"),
            note_length_mean=self.get_int("dataset.synthetic.note_length"),
            note_length_jitter=self.get_int("dataset.synthetic.jitter"),
            label_rate=self.get_float("dataset.synthetic.label_rate"),
            noise_code_rate=self.get_float("dataset.synthetic.noise_code_rate"),
            extra_note_rate=self.get_float("dataset.synthetic.extra_note_rate"),
            order_sensitive=self.get_bool("dataset.synthetic.order_sensitive"),
            seed=self.get_int("dataset.synthetic.seed"),
        )

    def split_spec(self) -> corpus.SplitSpec:
        return corpus.SplitSpec(
            train_frac=self.get_float("dataset.train_frac"),
            val_frac=self.get_float("dataset.val_frac"),
            test_frac=self.get_float("dataset.test_frac"),
            seed=self.get_int("dataset.split_seed"),
        )

    # canonicalization and hashing ------------------------------------------
    def canonical_text(self, prefixes: tuple[str, ...] = ()) -> str:
        lines = []
        for key in sorted(self.values):
            if prefixes and not key.startswith(prefixes):
                continue
            lines.append(f"{key} = {self.values[key]}")
        return "\n".join(lines) + "\n"

    def stage_hash(self, stage: str) -> str:
        prefixes = {
            "corpus": ("dataset.source", "dataset.notes", "dataset.diagnoses", "dataset.synthetic."),
            "dataset": ("dataset.",),
            "features": ("dataset.", "feature."),
            "run": ("dataset.", "feature.", "model.", "train."),
        }[stage]
        text = f"artifact_format = {ARTIFACT_FORMAT}\n" + self.canonical_text(prefixes)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Staged artifacts
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    config_hash: str
    dataset_hash: str
    feature_hash: str
    split_sizes: dict[str, int]
    coverage: float
    history: list[tuple[float, float]]
    stopped_epoch: int
    best_epoch: int
    metrics_train: dict
    metrics_test: dict
    cache_hits: list[str] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    timestamp: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


class Workspace:
    """Output directory layout: cache/<stage>/<hash-prefix>/ and runs/."""

    def __init__(self, out_dir: str | Path, log=print):
        self.root = Path(out_dir)
        self.log = log
        self.cache_hits: list[str] = []

    def stage_dir(self, stage: str, full_hash: str) -> Path:
        return self.root / "cache" / stage / full_hash[:12]

    def stage_cached(self, stage: str, full_hash: str) -> bool:
        d = self.stage_dir(stage, full_hash)
        if not (d / ".complete").exists():
            return False
        # the marker stores the full hash; a prefix collision must never
        # serve a foreign artifact
        stored = (d / ".complete").read_text(encoding="utf-8").strip()
        if stored != full_hash:
            raise PipelineError(
                f"cache collision in {d}: stored hash {stored[:12]} != request"
            )
        self.cache_hits.append(f"{stage}:{full_hash[:12]}")
        self.log(f"cache hit: {stage} {full_hash[:12]}")
        return True

    @contextmanager
    def new_stage(self, stage: str, full_hash: str) -> Iterator[Path]:
        """Yield a private directory to write one stage into, then publish
        it as ``stage_dir(stage, full_hash)`` with one rename.

        The marker goes in before the rename, so a stage directory is
        either absent or complete. When a concurrent run published the
        same stage first, the private copy is dropped: both runs built
        the same content. On an exception the private copy is deleted and
        nothing is published. A killed run may leave a ``*.tmp-*``
        sibling behind, which nothing reads.
        """
        final = self.stage_dir(stage, full_hash)
        final.parent.mkdir(parents=True, exist_ok=True)
        private = final.with_name(f"{final.name}.tmp-{os.getpid()}-{os.urandom(4).hex()}")
        private.mkdir()
        try:
            yield private
            (private / ".complete").write_text(full_hash + "\n", encoding="utf-8")
            try:
                os.rename(private, final)
            except OSError:
                if not (final / ".complete").exists():
                    raise
        finally:
            shutil.rmtree(private, ignore_errors=True)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def stage_corpus(cfg: ExperimentConfig, ws: Workspace) -> tuple[Path, Path]:
    """Materialize NOTEEVENTS/DIAGNOSES CSVs (generating when synthetic)."""
    if cfg.get("dataset.source") == "csv":
        notes = Path(cfg.get("dataset.notes"))
        diags = Path(cfg.get("dataset.diagnoses"))
        for p in (notes, diags):
            if not p.exists():
                raise PipelineError(f"stage corpus: missing input {p}")
        return notes, diags
    h = cfg.stage_hash("corpus")
    if not ws.stage_cached("corpus", h):
        with ws.new_stage("corpus", h) as d:
            corpus.generate_synthetic_corpus(cfg.synthetic_spec(), d)
    d = ws.stage_dir("corpus", h)
    return d / "NOTEEVENTS.csv", d / "DIAGNOSES_ICD.csv"


def stage_dataset(
    cfg: ExperimentConfig, ws: Workspace, notes_path: Path, diags_path: Path
) -> tuple[corpus.LabeledDataset, corpus.LabeledDataset, corpus.LabeledDataset, corpus.LabelCatalog]:
    h = cfg.stage_hash("dataset")
    if ws.stage_cached("dataset", h):
        return corpus.load_dataset(ws.stage_dir("dataset", h))
    notes, _ = corpus.load_noteevents(notes_path)
    diagnoses, _ = corpus.load_diagnoses(diags_path)
    summaries = corpus.filter_discharge_summaries(notes)
    catalog = corpus.select_top_labels(
        diagnoses, k=cfg.get_int("dataset.k"), mode=cfg.get("dataset.mode")
    )
    if cfg.get_bool("dataset.sanitize"):
        sanitizer = corpus.NoteSanitizer(catalog)
        summaries = [
            corpus.Note(n.row_id, n.subject_id, n.hadm_id, n.category, sanitizer(n.text))
            for n in summaries
        ]
    dataset = corpus.build_dataset(summaries, diagnoses, catalog)
    train, val, test = corpus.split_dataset(dataset, cfg.split_spec())
    with ws.new_stage("dataset", h) as d:
        corpus.save_dataset(d, train, val, test)
    return train, val, test, catalog


def _tokenized_splits(cfg: ExperimentConfig, splits) -> list[list[list[str]]]:
    stop = textproc.load_default_stopwords() if cfg.get_bool("feature.remove_stopwords") else None
    out = []
    for split in splits:
        docs = []
        for text in split.texts():
            toks = textproc.tokenize(text)
            if stop is not None:
                toks = textproc.remove_stopwords(toks, stop)
            docs.append(toks)
        out.append(docs)
    return out


def _resolve_embedding(
    cfg: ExperimentConfig, train_docs
) -> tuple[textproc.Vocabulary, features.EmbeddingMatrix | None]:
    source = cfg.get("feature.embedding_source")
    if source == "self":
        result = features.train_word2vec_cbow(
            train_docs,
            dim=cfg.get_int("feature.w2v_dim"),
            window=cfg.get_int("feature.window"),
            negatives=cfg.get_int("feature.negatives"),
            epochs=cfg.get_int("feature.epochs"),
            min_count=cfg.get_int("feature.min_count"),
            seed=cfg.get_int("feature.seed"),
        )
        return result.vocabulary, features.EmbeddingMatrix(result.vocabulary, result.vectors)
    vocab = textproc.build_vocabulary(train_docs, min_doc_freq=cfg.get_int("feature.min_count"))
    if source == "pretrained":
        path = cfg.get("feature.pretrained_path")
        if not path:
            raise ConfigError("pretrained embedding source needs feature.pretrained_path")
        tokens, vectors = features.load_word2vec_text(path)
        return vocab, features.align_embeddings(vocab, tokens, vectors)
    return vocab, None  # random: model stage draws its own matrix


def stage_features(cfg: ExperimentConfig, ws: Workspace, splits) -> features.FeatureSet:
    track = cfg.get("feature.track")
    h = cfg.stage_hash("features")
    if ws.stage_cached("features", h):
        return features.load_feature_set(ws.stage_dir("features", h), TRACK_KINDS[track])
    fs = _build_features(cfg, track, _tokenized_splits(cfg, splits))
    with ws.new_stage("features", h) as d:
        features.save_feature_set(fs, d)
    return fs


def _build_features(cfg: ExperimentConfig, track: str, docs) -> features.FeatureSet:
    """Featurize the tokenized train/val/test documents for one track;
    the vocabulary and any embedding are fitted on the training split."""
    train_docs = docs[0]
    if TRACK_KINDS[track] == "sparse":
        table = features.build_tfidf_table(train_docs, features.select_tfidf_config(track))
        mats = [features.tfidf_vectorize(split, table) for split in docs]
        return features.FeatureSet("sparse", *mats, vocab=table.vocabulary)

    vocab, emb = _resolve_embedding(cfg, train_docs)
    if track == "w2v-avg":
        if emb is None:
            raise ConfigError("w2v-avg track needs a real embedding (self or pretrained)")
        mats = []
        for split in docs:
            rows = []
            for toks in split:
                idx = [vocab.token_to_index[t] for t in toks if t in vocab.token_to_index]
                rows.append(features.average_embedding(idx, emb))
            mats.append(np.array(rows) if rows else np.zeros((0, emb.dim)))
        return features.FeatureSet("dense", *mats, vocab=vocab, embedding=emb)

    seq_len = cfg.get_int("feature.seq_len")
    seqs = [features.encode_corpus_sequences(split, vocab, seq_len) for split in docs]
    return features.FeatureSet("sequence", *seqs, vocab=vocab, embedding=emb)


def stage_train(
    cfg: ExperimentConfig, feats: features.FeatureSet, y_train, y_val
) -> models.TrainedModel:
    spec = cfg.model_spec()
    tc = cfg.train_config()
    return models.fit(
        spec,
        (feats.train, y_train),
        (feats.val, y_val),
        tc,
        embedding=feats.embedding,
        vocab_size=len(feats.vocab),
        embed_dim=cfg.get_int("feature.w2v_dim"),
        logreg_iters=cfg.get_int("model.logreg_iters"),
        logreg_lr=cfg.get_float("model.logreg_lr"),
        rf_trees=cfg.get_int("model.rf_trees"),
        rf_depth=cfg.get_int("model.rf_depth"),
        train_embedding=cfg.get_bool("feature.embedding_trainable"),
    )


def report_from_probs(
    probs: np.ndarray, truth: np.ndarray, threshold: float, label_names: list[str]
) -> tuple[metrics.MetricsReport, list[metrics.PRCurve]]:
    predicted = (np.asarray(probs) >= threshold).astype(np.uint8)
    run = metrics.PredictionRun(
        probs=probs, predicted=predicted, truth=np.asarray(truth), label_names=label_names
    )
    return metrics.report(run)


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def run_pipeline(
    cfg: ExperimentConfig, out_dir: str | Path, run_name: str | None = None, log=print
) -> RunRecord:
    ws = Workspace(out_dir, log=log)
    t0 = time.time()

    def staged(stage, fn, *args):
        try:
            return fn(cfg, ws, *args)
        except PipelineError as exc:
            raise PipelineError(f"stage {stage}: {exc}") from exc

    notes_path, diags_path = staged("corpus", stage_corpus)
    train, val, test, catalog = staged("dataset", stage_dataset, notes_path, diags_path)
    feats = staged("features", stage_features, (train, val, test))

    y_train = train.label_matrix()
    y_val = val.label_matrix()
    y_test = test.label_matrix()
    try:
        model = stage_train(cfg, feats, y_train, y_val)
    except PipelineError as exc:
        raise PipelineError(f"stage train: {exc}") from exc

    run_hash = cfg.stage_hash("run")
    run_dir = ws.root / "runs" / (run_name or run_hash[:12])
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(cfg.canonical_text(), encoding="utf-8")
    corpus.save_catalog(catalog, run_dir / "catalog.tsv")
    outputs = {
        "train": (models.predict_proba(model, feats.train), y_train),
        "test": (models.predict_proba(model, feats.test), y_test),
    }
    for tag, (probs, truth) in outputs.items():
        features.save_dense(probs, run_dir / f"probs_{tag}.dense")
        features.save_dense(truth.astype(np.float64), run_dir / f"truth_{tag}.dense")
    reports = _write_reports(run_dir, cfg, outputs, model.threshold, catalog.names)
    _save_model(model, run_dir / "checkpoint", cfg)

    record = RunRecord(
        config_hash=run_hash,
        dataset_hash=cfg.stage_hash("dataset"),
        feature_hash=cfg.stage_hash("features"),
        split_sizes={"train": len(train), "val": len(val), "test": len(test)},
        coverage=train.coverage,
        history=model.history,
        stopped_epoch=model.stopped_epoch,
        best_epoch=model.best_epoch,
        metrics_train=reports["train"].to_dict(),
        metrics_test=reports["test"].to_dict(),
        cache_hits=list(ws.cache_hits),
        artifacts={
            "run_dir": str(run_dir),
            "metrics_train": str(run_dir / "metrics_train.json"),
            "metrics_test": str(run_dir / "metrics_test.json"),
        },
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t0)),
    )
    (run_dir / "record.json").write_text(record.to_json(), encoding="utf-8")
    log(f"run complete: {run_dir} (test f1 {reports['test'].f1:.4f})")
    return record


def _save_model(model: models.TrainedModel, ckpt_dir: Path, cfg: ExperimentConfig) -> None:
    manifest = {
        "preset": cfg.get("model.preset") or cfg.get("model.family"),
        "family": model.spec.family,
        "seed": cfg.get("train.seed"),
        "stopped_epoch": model.stopped_epoch,
        "best_epoch": model.best_epoch,
    }
    if model.spec.family == "rforest":
        models_save_forest(model, ckpt_dir, manifest)
    elif model.network is not None:
        nc.save_checkpoint(ckpt_dir, nc.model_tensors(model.network), manifest)
    else:
        nc.save_checkpoint(ckpt_dir, model.submodels, manifest)


def models_save_forest(model: models.TrainedModel, ckpt_dir: Path, manifest: dict) -> None:
    # a function of its own so that a traced run can time forest saves by name
    nc.save_checkpoint(ckpt_dir, model.submodels, manifest)


def _write_reports(
    run_dir: Path,
    cfg: ExperimentConfig,
    outputs: dict[str, tuple[np.ndarray, np.ndarray]],
    threshold: float,
    label_names: list[str],
    with_curves: bool = True,
) -> dict[str, metrics.MetricsReport]:
    """Write ``metrics_<tag>.json`` for each ``tag -> (probs, truth)``
    and, ``with_curves``, its ``pr_<tag>.npz`` and the train/test
    ``summary.txt``."""
    reports = {}
    for tag, (probs, truth) in outputs.items():
        rep, curves = report_from_probs(probs, truth, threshold, label_names)
        (run_dir / f"metrics_{tag}.json").write_text(rep.to_json(), encoding="utf-8")
        if with_curves:
            metrics.write_pr_curves(curves, run_dir / f"pr_{tag}.npz")
        reports[tag] = rep
    if with_curves:
        name = cfg.get("model.preset") or cfg.get("model.family")
        with open(run_dir / "summary.txt", "w", encoding="utf-8") as fh:
            fh.write(f"model: {name}   track: {cfg.get('feature.track')}\n\n")
            fh.write(f"{'split':<8}" + "".join(f"{c:>16}" for c in COMPARE_COLUMNS) + "\n")
            for split in ("train", "test"):
                fh.write(
                    f"{split:<8}"
                    + "".join(f"{getattr(reports[split], c):>16.4f}" for c in COMPARE_COLUMNS)
                    + "\n"
                )
    return reports


def rewrite_reports(run_dir: str | Path, with_curves: bool = True) -> dict[str, metrics.MetricsReport]:
    """Recompute metrics JSONs (and optionally PR curves + summary) from a
    run directory's stored probability and truth matrices."""
    run_dir = Path(run_dir)
    if not (run_dir / "config.txt").exists():
        raise PipelineError(f"{run_dir}: not a run directory (no config.txt)")
    cfg = ExperimentConfig(
        parse_config_text((run_dir / "config.txt").read_text(encoding="utf-8"))
    )
    catalog = corpus.load_catalog(run_dir / "catalog.tsv")
    outputs = {
        tag: (
            features.load_dense(run_dir / f"probs_{tag}.dense"),
            features.load_dense(run_dir / f"truth_{tag}.dense").astype(np.uint8),
        )
        for tag in ("train", "test")
    }
    return _write_reports(
        run_dir, cfg, outputs, cfg.get_float("train.threshold"), catalog.names, with_curves
    )


# ---------------------------------------------------------------------------
# Run comparison
# ---------------------------------------------------------------------------

COMPARE_COLUMNS = (
    "precision", "recall", "accuracy", "f1", "hamming_loss", "macro_auc", "precision_at_5",
)


def compare_runs(run_dirs: list[str | Path]) -> tuple[str, str]:
    """(csv_text, aligned_text) over runs sharing one dataset hash,
    sorted by test F1 descending."""
    rows = []
    dataset_hashes = {}
    for run_dir in run_dirs:
        record_path = Path(run_dir) / "record.json"
        if not record_path.exists():
            raise PipelineError(f"{run_dir}: no record.json")
        rec = json.loads(record_path.read_text(encoding="utf-8"))
        dataset_hashes[str(run_dir)] = rec["dataset_hash"]
        cfg_text = (Path(run_dir) / "config.txt").read_text(encoding="utf-8")
        cfg = parse_config_text(cfg_text)
        name = cfg.get("model.preset") or cfg.get("model.family") or Path(run_dir).name
        rows.append((name, rec["metrics_test"]))
    distinct = sorted(set(dataset_hashes.values()))
    if len(distinct) > 1:
        raise PipelineError(
            "runs span different datasets: " + ", ".join(h[:12] for h in distinct)
        )
    rows.sort(key=lambda r: -r[1]["f1"])

    csv_lines = ["model," + ",".join(COMPARE_COLUMNS)]
    for name, m in rows:
        csv_lines.append(name + "," + ",".join(repr(m[c]) for c in COMPARE_COLUMNS))
    csv_text = "\n".join(csv_lines) + "\n"

    width = max([len("model")] + [len(name) for name, _ in rows]) + 2
    text_lines = [f"{'model':<{width}}" + "".join(f"{c:>16}" for c in COMPARE_COLUMNS)]
    for name, m in rows:
        text_lines.append(
            f"{name:<{width}}" + "".join(f"{m[c]:>16.4f}" for c in COMPARE_COLUMNS)
        )
    return csv_text, "\n".join(text_lines) + "\n"
