"""Config-driven experiment pipeline: prepare -> featurize -> train ->
evaluate -> report, with content-addressed caching of each stage.

Configs are flat ``key = value`` text with dotted section prefixes
(``dataset.k = 10``). Every key has a default in ``DEFAULTS``; unknown
keys are rejected. A key listed in ``CHOICES`` takes one of its values;
every other key has the type its default reads as (boolean, integer,
number, else text). ``ExperimentConfig`` parses every key once, then
checks the values that conflict across keys, so a bad value raises
``ConfigError`` naming its key before any stage runs.

The dataset and feature stages are cached, each in a directory named by
the SHA-256 key of what its ``STAGES`` row says it reads: the upstream
key, its config text, input files and own sources. A model sweep over
shared features reuses the feature stage; a rewritten input or an edited
module rebuilds its stage and every stage after it. A synthetic corpus is
generated afresh on a dataset miss and never cached.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
import warnings
from contextlib import contextmanager, nullcontext
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import corpus, features, metrics, models, textproc
from . import neuralcore as nc
from .errors import ConfigError, PipelineError

# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, str] = {
    "dataset.source": "synthetic",
    "dataset.notes": "",
    "dataset.diagnoses": "",
    "dataset.mode": "code",
    "dataset.k": "10",
    "dataset.split_seed": "0",
    "dataset.sanitize": "true",
    "dataset.synthetic.n_labels": "10",
    "dataset.synthetic.n_notes": "400",
    "dataset.synthetic.order_sensitive": "false",
    "dataset.synthetic.seed": "0",
    "feature.track": "tfidf40k",
    "feature.remove_stopwords": "false",
    "feature.w2v_dim": "100",
    "feature.epochs": "5",
    "feature.min_count": "1",
    "feature.seq_len": "1500",
    "feature.embedding_source": "self",
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
    "model.logreg_iters": "50",
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

# Every cached stage: the stage it follows, the prefixes of the config keys
# it reads, the config keys naming files it reads, each with the test of the
# config under which it reads that file, and the files under PACKAGE it
# runs, beyond those of the stages before it.
Stage = namedtuple("Stage", "upstream prefixes inputs sources")
PACKAGE = Path(__file__).resolve().parent
CSV_SOURCE = lambda cfg: cfg["dataset.source"] == "csv"
# a sparse track reads no embedding, whatever its source
PRETRAINED_SOURCE = lambda cfg: (cfg["feature.embedding_source"] == "pretrained"
                                 and TRACK_KINDS[cfg["feature.track"]] != "sparse")
STAGES = {
    "dataset": Stage(None, ("dataset.",),
                     {"dataset.notes": CSV_SOURCE, "dataset.diagnoses": CSV_SOURCE},
                     ("corpus.py", "textproc.py", "harness.py")),
    "features": Stage("dataset", ("dataset.", "feature."),
                      {"feature.pretrained_path": PRETRAINED_SOURCE}, (
        "features.py", "neuralcore/core.py", "data/stopwords_en.txt")),
}

TRACK_KINDS = {
    "tfidf40k": "sparse",
    "tfidf20k": "sparse",
    "w2v-avg": "dense",
    "wordseq": "sequence",
}

# the allowed values of each key that takes one of a fixed set
CHOICES: dict[str, tuple[str, ...]] = {
    "dataset.source": ("synthetic", "csv"),
    "dataset.mode": ("code", "category"),
    "feature.track": tuple(TRACK_KINDS),
    "feature.embedding_source": ("self", "pretrained", "random"),
    "model.preset": ("", *models.PRESETS),
    "model.family": ("", *models.FAMILIES),
    "train.optimizer": models.OPTIMIZERS,
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


def _parse(key: str, text: str):
    """One value: a ``CHOICES`` key must hold one of its choices; every
    other key is read as the type its default reads as (boolean,
    integer, number, else text)."""
    if key in CHOICES:
        if text not in CHOICES[key]:
            raise ConfigError(
                f"{key}: expected one of {', '.join(map(repr, CHOICES[key]))}, got {text!r}"
            )
        return text
    default = DEFAULTS[key]
    if default in ("true", "false"):
        if text.lower() in ("true", "1", "yes", "false", "0", "no"):
            return text.lower() in ("true", "1", "yes")
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    for kind, expected in ((int, "an integer"), (float, "a number")):
        try:
            kind(default)
        except ValueError:
            continue
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None
    return text


class ExperimentConfig:
    """Validated, default-filled view over a flat config dict: ``values``
    holds each key's text, ``cfg[key]`` its parsed value."""

    def __init__(self, raw: dict[str, str]):
        unknown = sorted(set(raw) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.values = dict(DEFAULTS)
        self.values.update(raw)
        self._parsed = {key: _parse(key, text) for key, text in self.values.items()}
        self._validate()

    def __getitem__(self, key: str):
        return self._parsed[key]

    def section(self, prefix: str) -> dict:
        """The parsed values of the keys under ``prefix``, named by the
        rest of their key."""
        return {k[len(prefix):]: v for k, v in self._parsed.items() if k.startswith(prefix)}

    def _ints(self, key: str, parts: list[str]) -> tuple[int, ...]:
        try:
            ints = tuple(int(v) for v in parts if v.strip())
            if all(i >= 1 for i in ints):
                return ints
        except ValueError:
            pass
        raise ConfigError(f"{key}: expected integers >= 1, got {self[key]!r}")

    # validation -----------------------------------------------------------
    def _validate(self) -> None:
        """Range checks, and checks that involve more than one key or build
        a spec, so that a bad value raises ConfigError before any stage runs."""
        if self["dataset.source"] == "csv" and not (
            self["dataset.notes"] and self["dataset.diagnoses"]
        ):
            raise ConfigError("csv source needs dataset.notes and dataset.diagnoses")
        for key, least in (("dataset.k", 1), ("dataset.split_seed", 0),
                           ("dataset.synthetic.seed", 0), ("feature.seed", 0), ("train.seed", 0),
                           ("dataset.synthetic.n_labels", 1), ("dataset.synthetic.n_notes", 1),
                           ("feature.w2v_dim", 1), ("feature.seq_len", 1), ("feature.epochs", 1),
                           ("feature.min_count", 0), ("model.logreg_iters", 0), ("model.fc", 0),
                           ("model.rf_trees", 1), ("model.rf_depth", 0), ("train.max_epochs", 1),
                           ("train.patience", 1), ("train.batch_size", 1)):
            if self[key] < least:
                raise ConfigError(f"{key}: must be >= {least}, got {self[key]}")
        if not 0.0 <= self["model.dropout"] < 1.0:
            raise ConfigError(f"model.dropout: must lie in [0, 1), got {self['model.dropout']}")
        if not 0.0 < self["train.threshold"] < 1.0:
            raise ConfigError(f"train.threshold: must lie in (0, 1), got {self['train.threshold']}")
        k = self["dataset.k"]
        if k not in (10, 50):
            warnings.warn(f"dataset.k = {k} departs from the reference settings (10/50)")
        if self["model.preset"]:
            # a preset fixes the architecture; only model.bidirectional modifies it
            for key in ("model.family", "model.hidden", "model.conv_blocks", "model.fc",
                        "model.dropout"):
                if self[key]:
                    raise ConfigError(f"{key}: fixed by model.preset, leave it at its default")
        source = self["feature.embedding_source"]
        if source == "pretrained" and not self["feature.pretrained_path"]:
            raise ConfigError("feature.pretrained_path: needed by the pretrained embedding source")
        track = self["feature.track"]
        if track == "w2v-avg" and source == "random":
            raise ConfigError("feature.embedding_source: w2v-avg needs a real embedding, not random")
        spec = self.model_spec()
        if TRACK_KINDS[track] not in models.FAMILY_INPUT_KINDS[spec.family]:
            raise ConfigError(
                f"feature track {track!r} ({TRACK_KINDS[track]}) is incompatible "
                f"with model family {spec.family!r}"
            )
        self.train_config()
        self.synthetic_spec()

    # resolved objects -----------------------------------------------------
    def model_spec(self) -> models.ModelSpec:
        name = self["model.preset"]
        if name:
            spec = models.preset(name)
            if self["model.bidirectional"] and not spec.bidirectional:
                spec = replace(spec, bidirectional=True, name=spec.name + "-bidi")
            return spec
        family = self["model.family"]
        if not family:
            raise ConfigError("set model.preset or model.family")
        blocks = tuple(
            self._ints("model.conv_blocks", chunk.split(":"))
            for chunk in self["model.conv_blocks"].split(",") if chunk.strip()
        )
        if any(len(block) != 3 for block in blocks):
            raise ConfigError("model.conv_blocks entries are filters:width:pool")
        return models.ModelSpec(
            family=family,
            hidden=self._ints("model.hidden", self["model.hidden"].split(",")),
            conv_blocks=blocks,
            fc=self["model.fc"] or None,
            dropout=self["model.dropout"],
            bidirectional=self["model.bidirectional"],
            name=family,
        )

    def train_config(self) -> models.TrainConfig:
        # an empty learning rate leaves the optimizer's default
        lr = self["train.learning_rate"]
        try:
            lr = float(lr) if lr else None
        except ValueError:
            raise ConfigError(f"train.learning_rate: expected a number, got {lr!r}") from None
        if lr is not None and not 0 < lr < math.inf:
            raise ConfigError(f"train.learning_rate: must be finite and > 0, got {lr}")
        train = self.section("train.")
        del train["threshold"]  # reports score at it; training does not read it
        return models.TrainConfig(**{**train, "learning_rate": lr})

    def synthetic_spec(self) -> corpus.SyntheticSpec:
        return corpus.SyntheticSpec(**self.section("dataset.synthetic."))

    # canonicalization and hashing ------------------------------------------
    def canonical_text(self, prefixes: tuple[str, ...] = ()) -> str:
        lines = []
        for key in sorted(self.values):
            if prefixes and not key.startswith(prefixes):
                continue
            lines.append(f"{key} = {self.values[key]}")
        return "\n".join(lines) + "\n"


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
    """Output directory layout: cache/<stage>/<key>/ and runs/."""

    def __init__(self, out_dir: str | Path, log=print):
        self.root = Path(out_dir)
        self.log = log
        self.cache_hits: list[str] = []
        self.keys: dict[tuple[str, str], str] = {}  # (stage, config text) -> key

    def stage_key(self, cfg: ExperimentConfig, stage: str) -> str:
        """sha256 over the upstream key, the config text and each file read,
        size first; worked out once per Workspace, which serves one run."""
        upstream, prefixes, inputs, sources = STAGES[stage]
        text = cfg.canonical_text(prefixes)
        if (stage, text) not in self.keys:
            key = hashlib.sha256((self.stage_key(cfg, upstream) if upstream else "").encode())
            key.update(text.encode("utf-8"))
            read = [Path(cfg[k]) for k, reads in inputs.items() if reads(cfg)]
            for path in read + [PACKAGE / s for s in sources]:
                try:
                    with open(path, "rb") as fh:
                        key.update(b"%d\n" % os.fstat(fh.fileno()).st_size)
                        while chunk := fh.read(1 << 16):
                            key.update(chunk)
                except FileNotFoundError:
                    raise PipelineError(f"missing input {path}") from None
            self.keys[stage, text] = key.hexdigest()
        return self.keys[stage, text]

    def stage_dir(self, stage: str, full_hash: str) -> Path:
        return self.root / "cache" / stage / full_hash

    def stage_cached(self, stage: str, full_hash: str) -> bool:
        if not (self.stage_dir(stage, full_hash) / ".complete").exists():
            return False
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


def stage_dataset(
    cfg: ExperimentConfig, ws: Workspace
) -> tuple[corpus.LabeledDataset, corpus.LabeledDataset, corpus.LabeledDataset, corpus.LabelCatalog]:
    """The labeled splits and their catalog. A miss ingests the configured
    CSVs, or a synthetic corpus generated into a temporary directory."""
    synthetic = cfg["dataset.source"] == "synthetic"
    # checked before any stage writes
    n_labels = cfg["dataset.synthetic.n_labels"]
    if synthetic and cfg["dataset.k"] > n_labels:
        raise ConfigError(
            f"dataset.k: {cfg['dataset.k']} exceeds the {n_labels} labels of the synthetic "
            "corpus (dataset.synthetic.n_labels); the rest would be noise codes"
        )
    h = ws.stage_key(cfg, "dataset")
    if ws.stage_cached("dataset", h):
        return corpus.load_dataset(ws.stage_dir("dataset", h))
    with tempfile.TemporaryDirectory() if synthetic else nullcontext() as tmp:
        notes_path, diags_path = (
            corpus.generate_synthetic_corpus(cfg.synthetic_spec(), tmp) if synthetic
            else (cfg["dataset.notes"], cfg["dataset.diagnoses"]))
        summaries, _ = corpus.load_noteevents(notes_path)
        codes, _ = corpus.load_diagnoses(diags_path)
    catalog = corpus.select_top_labels(codes, k=cfg["dataset.k"], mode=cfg["dataset.mode"])
    if cfg["dataset.sanitize"]:
        sanitizer = corpus.NoteSanitizer(catalog)
        summaries = [replace(n, text=sanitizer(n.text)) for n in summaries]
    dataset = corpus.build_dataset(summaries, codes, catalog)
    train, val, test = corpus.split_dataset(dataset, cfg["dataset.split_seed"])
    with ws.new_stage("dataset", h) as d:
        corpus.save_dataset(d, train, val, test)
    return train, val, test, catalog


def _resolve_embedding(
    cfg: ExperimentConfig, train_docs
) -> tuple[textproc.Vocabulary, features.EmbeddingMatrix | None]:
    source = cfg["feature.embedding_source"]
    if source == "self":
        result = features.train_word2vec_cbow(
            train_docs,
            dim=cfg["feature.w2v_dim"],
            epochs=cfg["feature.epochs"],
            min_count=cfg["feature.min_count"],
            seed=cfg["feature.seed"],
        )
        return result.vocabulary, features.EmbeddingMatrix(result.vocabulary, result.vectors)
    vocab = features.embedding_vocabulary(train_docs, cfg["feature.min_count"])
    if source == "pretrained":
        tokens, vectors = features.load_word2vec_text(cfg["feature.pretrained_path"])
        return vocab, features.align_embeddings(vocab, tokens, vectors)
    return vocab, None  # random: model stage draws its own matrix


def stage_features(cfg: ExperimentConfig, ws: Workspace, splits) -> features.FeatureSet:
    track = cfg["feature.track"]
    h = ws.stage_key(cfg, "features")
    if ws.stage_cached("features", h):
        return features.load_feature_set(ws.stage_dir("features", h), TRACK_KINDS[track])
    docs = [split.docs for split in splits]
    if cfg["feature.remove_stopwords"]:
        stop = textproc.load_default_stopwords()
        docs = [textproc.remove_stopwords(split, stop) for split in docs]
    fs = _build_features(cfg, track, docs)
    with ws.new_stage("features", h) as d:
        features.save_feature_set(fs, d)
    return fs


def _build_features(cfg: ExperimentConfig, track: str, docs) -> features.FeatureSet:
    """Featurize the encoded train/val/test documents for one track;
    the vocabulary and any embedding are fitted on the training split."""
    train_docs = docs[0]
    if TRACK_KINDS[track] == "sparse":
        table = features.build_tfidf_table(train_docs, features.TFIDF_CONFIGS[track])
        mats = [features.tfidf_vectorize(split, table) for split in docs]
        return features.FeatureSet("sparse", *mats, vocab=table.vocabulary)

    vocab, emb = _resolve_embedding(cfg, train_docs)
    if track == "w2v-avg":
        mats = [features.average_embeddings(split, emb) for split in docs]
        return features.FeatureSet("dense", *mats, vocab=vocab, embedding=emb)

    seq_len = cfg["feature.seq_len"]
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
        embed_dim=cfg["feature.w2v_dim"],
        logreg_iters=cfg["model.logreg_iters"],
        rf_trees=cfg["model.rf_trees"],
        rf_depth=cfg["model.rf_depth"],
        train_embedding=cfg["feature.embedding_trainable"],
    )


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

    train, val, test, catalog = staged("dataset", stage_dataset)
    feats = staged("features", stage_features, (train, val, test))

    y_train, y_val, y_test = train.labels, val.labels, test.labels
    try:
        model = stage_train(cfg, feats, y_train, y_val)
    except PipelineError as exc:
        raise PipelineError(f"stage train: {exc}") from exc

    run_hash = hashlib.sha256(cfg.canonical_text().encode("utf-8")).hexdigest()
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
    reports = _write_reports(run_dir, cfg, outputs, catalog.names)
    _save_model(model, run_dir / "checkpoint", cfg)

    record = RunRecord(
        config_hash=run_hash,
        dataset_hash=ws.stage_key(cfg, "dataset"),
        feature_hash=ws.stage_key(cfg, "features"),
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
        "preset": cfg["model.preset"] or cfg["model.family"],
        "family": model.spec.family,
        "seed": cfg.values["train.seed"],
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


# the config keys _write_reports reads
REPORT_KEYS = ("train.threshold", "model.preset", "model.family", "feature.track")


def _write_reports(
    run_dir: Path,
    cfg: ExperimentConfig | dict,
    outputs: dict[str, tuple[np.ndarray, np.ndarray]],
    label_names: list[str],
    with_curves: bool = True,
) -> dict[str, metrics.MetricsReport]:
    """Write ``metrics_<tag>.json`` for each ``tag -> (probs, truth)``,
    deciding at ``train.threshold`` (inclusive), and, ``with_curves``,
    its ``pr_<tag>.npz`` and the train/test ``summary.txt``."""
    reports = {}
    for tag, (probs, truth) in outputs.items():
        predicted = (probs >= cfg["train.threshold"]).astype(np.uint8)
        rep, curves = metrics.report(metrics.PredictionRun(
            probs=probs, predicted=predicted, truth=truth, label_names=label_names
        ))
        (run_dir / f"metrics_{tag}.json").write_text(rep.to_json(), encoding="utf-8")
        if with_curves:
            metrics.write_pr_curves(curves, run_dir / f"pr_{tag}.npz")
        reports[tag] = rep
    if with_curves:
        name = cfg["model.preset"] or cfg["model.family"]
        with open(run_dir / "summary.txt", "w", encoding="utf-8") as fh:
            fh.write(f"model: {name}   track: {cfg['feature.track']}\n\n")
            rows = [(split, reports[split].to_dict()) for split in ("train", "test")]
            fh.write(_results_table("split", rows, 8))
    return reports


def _require_files(run_dir: Path, names: list[str]) -> None:
    for name in names:
        if not (run_dir / name).is_file():
            raise PipelineError(f"{run_dir}: not a complete run (no {name})")


def rewrite_reports(run_dir: str | Path, with_curves: bool = True) -> dict[str, metrics.MetricsReport]:
    """Recompute metrics JSONs (and optionally PR curves + summary) from a
    run directory's stored probability and truth matrices."""
    run_dir = Path(run_dir)
    _require_files(run_dir, ["config.txt", "catalog.tsv"] + [
        f"{kind}_{tag}.dense" for tag in ("train", "test") for kind in ("probs", "truth")])
    # only the keys the reports read are parsed: a stored run may name a
    # retired key, or hold a value that later config checks refuse
    stored = parse_config_text((run_dir / "config.txt").read_text(encoding="utf-8"))
    cfg = {key: _parse(key, stored.get(key, DEFAULTS[key])) for key in REPORT_KEYS}
    catalog = corpus.load_catalog(run_dir / "catalog.tsv")
    outputs = {
        tag: (
            features.load_dense(run_dir / f"probs_{tag}.dense"),
            features.load_dense(run_dir / f"truth_{tag}.dense").astype(np.uint8),
        )
        for tag in ("train", "test")
    }
    return _write_reports(run_dir, cfg, outputs, catalog.names, with_curves)


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
    for run_dir in map(Path, run_dirs):
        _require_files(run_dir, ["record.json", "config.txt"])
        rec = json.loads((run_dir / "record.json").read_text(encoding="utf-8"))
        dataset_hashes[str(run_dir)] = rec["dataset_hash"]
        cfg_text = (run_dir / "config.txt").read_text(encoding="utf-8")
        cfg = parse_config_text(cfg_text)
        name = cfg.get("model.preset") or cfg.get("model.family") or run_dir.name
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
    return csv_text, _results_table("model", rows, width)


def _results_table(first: str, rows: list[tuple[str, dict]], width: int) -> str:
    """``COMPARE_COLUMNS`` aligned under a header whose first column is
    ``first``, one line per (name, metrics dict) row, the names padded to
    ``width``."""
    lines = [f"{first:<{width}}" + "".join(f"{c:>16}" for c in COMPARE_COLUMNS)]
    lines += [f"{name:<{width}}" + "".join(f"{m[c]:>16.4f}" for c in COMPARE_COLUMNS)
              for name, m in rows]
    return "\n".join(lines) + "\n"
