"""Config parsing, stage hashing/caching, the pipeline driver, the CLI."""

import csv
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from codeset_bench import cli, corpus, features, harness, metrics, models, textproc
from codeset_bench import neuralcore as nc
from codeset_bench.errors import (
    ConfigError, DatasetError, FormatError, NumericError, PipelineError, ShapeError,
)
pytestmark = pytest.mark.filterwarnings("ignore:dataset.k")

from codeset_bench.harness import (
    ExperimentConfig,
    Workspace,
    compare_runs,
    models_save_forest,
    parse_config_text,
    rewrite_reports,
    run_pipeline,
)

FAST_SYNTH = {
    "dataset.source": "synthetic",
    "dataset.k": "4",
    "dataset.synthetic.n_labels": "4",
    "dataset.synthetic.n_notes": "80",
    "dataset.synthetic.seed": "1",
    "model.preset": "logreg",
    "model.logreg_iters": "40",
    "feature.track": "tfidf40k",
}

SEQ_FEATURES = {"feature.track": "wordseq", "model.preset": "", "model.family": "gru",
                "model.hidden": "4", "train.max_epochs": "1", "feature.seq_len": "20",
                "feature.w2v_dim": "8", "feature.epochs": "1"}


# the keys retired as constants, each with the default it held
RETIRED = {
    "dataset.train_frac": "0.5", "dataset.val_frac": "0.25", "dataset.test_frac": "0.25",
    "dataset.synthetic.keywords_per_label": "2", "dataset.synthetic.filler_vocab": "80",
    "dataset.synthetic.note_length": "50", "dataset.synthetic.jitter": "15",
    "dataset.synthetic.label_rate": "0.35", "dataset.synthetic.noise_code_rate": "0.15",
    "dataset.synthetic.extra_note_rate": "0.05", "feature.window": "5",
    "feature.negatives": "5", "model.logreg_lr": "0.5",
}


def make_cfg(**overrides):
    raw = dict(FAST_SYNTH)
    raw.update({k: str(v) for k, v in overrides.items()})
    return ExperimentConfig(raw)


# ---------------------------------------------------------------- parsing

def test_parse_skips_blanks_and_comments():
    text = "# a comment\n\ndataset.k = 7\n  # indented comment\nmodel.preset = logreg\n"
    assert parse_config_text(text) == {"dataset.k": "7", "model.preset": "logreg"}


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("dataset.k = 1\ndataset.k = 2\n")


def test_parse_rejects_lines_without_equals():
    with pytest.raises(ConfigError):
        parse_config_text("dataset.k 7\n")


def test_unknown_keys_rejected_with_name():
    with pytest.raises(ConfigError, match="dataset.kk"):
        ExperimentConfig({"dataset.kk": "10"})
    # a retired key is unknown too; only a stored run's config.txt may name it
    with pytest.raises(ConfigError, match="unknown config keys: feature.window"):
        ExperimentConfig({"feature.window": "5"})


def test_defaults_fill_unspecified_keys():
    cfg = make_cfg()
    assert cfg["train.optimizer"] == "rmsprop"
    assert cfg["train.max_epochs"] == 200


def test_typed_accessor_errors_name_the_key():
    # the bad value is caught up front, during config validation
    with pytest.raises(ConfigError, match="train.batch_size"):
        make_cfg(**{"train.batch_size": "many"})


def _typed(value):
    try:
        float(value)
        return True
    except ValueError:
        return value in ("true", "false")


@pytest.mark.parametrize("key, value", [
    ("train.learning_rate", "abc"),
    ("model.hidden", "8,x"),
    ("model.conv_blocks", "8:a:2"),
    ("feature.seq_len", "15OO"),
    ("dataset.split_seed", "-1"),
    ("dataset.synthetic.seed", "-1"),
    ("feature.seed", "-1"),
    ("train.seed", "-1"),
    ("model.rf_trees", "0"),
    ("model.rf_depth", "-3"),
    ("feature.w2v_dim", "0"),
    ("feature.seq_len", "0"),
    ("feature.epochs", "0"),
    ("model.logreg_iters", "-1"),
    ("model.fc", "-1"),
    ("model.dropout", "-0.3"),
    ("model.dropout", "1"),
    ("model.dropout", "1.5"),
    ("model.hidden", "-3"),
    ("model.hidden", "0"),
    ("model.hidden", "8,0"),
    ("model.conv_blocks", "8:0:2"),
    ("model.conv_blocks", "8:3:2,0:3:2"),
    ("train.learning_rate", "-1"),
    ("train.learning_rate", "0"),
    ("train.learning_rate", "nan"),
    ("train.learning_rate", "inf"),
    ("train.learning_rate", "1e400"),
    ("train.max_epochs", "0"),
    ("train.patience", "0"),
    ("train.batch_size", "0"),
    ("train.threshold", "0"),
    ("train.threshold", "1"),
    ("train.threshold", "nan"),
    ("dataset.synthetic.n_notes", "0"),
    ("dataset.synthetic.n_labels", "0"),
    ("feature.min_count", "-1"),
] + [(key, "x") for key, default in harness.DEFAULTS.items() if _typed(default)]
  + [(key, "x") for key in harness.CHOICES]
  + [(key, "x") for key in RETIRED])
def test_malformed_value_is_config_error_naming_its_key(key, value):
    # every key is parsed and range-checked when the config is built, not
    # when its stage first reads it; no preset, so the architecture keys
    # reach their parser. A retired key is rejected by name as unknown
    with pytest.raises(ConfigError, match=re.escape(key)):
        make_cfg(**{"model.preset": "", "model.family": "gru", "feature.track": "wordseq",
                    key: value})


def test_range_checks_keep_the_boundary_values():
    # min_count 0 keeps every token, as 1 does; fc 0 means no fc layer
    cfg = make_cfg(**{"model.preset": "", "model.family": "cnn", "feature.track": "wordseq",
                      "model.conv_blocks": "1:1:1", "model.fc": "0", "model.dropout": "0",
                      "model.logreg_iters": "0", "feature.min_count": "0",
                      "train.learning_rate": "1e-9"})
    assert cfg.model_spec().conv_blocks == ((1, 1, 1),)
    assert cfg.train_config().learning_rate == 1e-9


@pytest.mark.parametrize("key, value", [
    ("model.family", "cnn"),
    ("model.hidden", "999"),
    ("model.conv_blocks", "8:3:2"),
    ("model.fc", "16"),
    ("model.dropout", "0.5"),
])
def test_preset_rejects_the_architecture_keys_it_would_ignore(key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        make_cfg(**{"model.preset": "gru-desk", "feature.track": "wordseq", key: value})


def test_preset_takes_bidirectional_and_default_architecture_values():
    cfg = make_cfg(**{"model.preset": "gru-desk", "feature.track": "wordseq",
                      "model.bidirectional": "true", "model.fc": "0", "model.dropout": "0"})
    assert cfg.model_spec().name == "gru-desk-bidi"


@pytest.mark.parametrize("overrides, key", [
    ({"feature.embedding_source": "pretrained"}, "feature.pretrained_path"),
    ({"feature.track": "w2v-avg", "feature.embedding_source": "random"},
     "feature.embedding_source"),
], ids=["pretrained-without-path", "w2v-avg-random"])
def test_embedding_conflicts_rejected_when_the_config_is_built(overrides, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        make_cfg(**overrides)


def test_csv_source_requires_paths():
    with pytest.raises(ConfigError):
        ExperimentConfig({"dataset.source": "csv"})


def test_incompatible_track_and_family_rejected_before_any_work():
    with pytest.raises(ConfigError, match="incompatible"):
        make_cfg(**{"feature.track": "tfidf40k", "model.preset": "lstm-desk"})
    with pytest.raises(ConfigError):
        make_cfg(**{"feature.track": "wordseq", "model.preset": "logreg"})
    with pytest.raises(ConfigError, match="incompatible"):
        make_cfg(**{"feature.track": "wordseq", "model.preset": "fnn-desk"})


def test_unusual_label_count_warns_but_runs():
    with pytest.warns(UserWarning):
        make_cfg(**{"dataset.k": "7", "dataset.synthetic.n_labels": "7"})


def test_model_spec_from_explicit_keys():
    cfg = make_cfg(**{
        "model.preset": "",
        "model.family": "gru",
        "model.hidden": "24,12",
        "model.dropout": "0.25",
        "feature.track": "wordseq",
    })
    spec = cfg.model_spec()
    assert spec.family == "gru"
    assert spec.hidden == (24, 12)
    assert spec.dropout == 0.25


def test_conv_blocks_parse_from_config():
    cfg = make_cfg(**{
        "model.preset": "",
        "model.family": "cnn",
        "model.conv_blocks": "8:3:2,8:3:4",
        "model.fc": "16",
        "feature.track": "wordseq",
    })
    spec = cfg.model_spec()
    assert spec.conv_blocks == ((8, 3, 2), (8, 3, 4))
    assert spec.fc == 16


# ---------------------------------------------------------------- hashing

def _keys(cfg):
    """Each cached stage's key, and the run's config hash; a synthetic
    config's keys read only package files."""
    ws = Workspace("unused")
    keys = {stage: ws.stage_key(cfg, stage) for stage in harness.STAGES}
    return {**keys, "run": hashlib.sha256(cfg.canonical_text().encode()).hexdigest()}


def test_stage_hashes_are_stable_across_key_order():
    a = make_cfg()
    raw = dict(reversed(list(dict(FAST_SYNTH).items())))
    b = ExperimentConfig(raw)
    assert _keys(a) == _keys(b)


def test_stage_hashes_match_pinned_digests():
    # the digest of each stage's config text, the part of its key that
    # names the config, and the run's config hash: the same canonical text
    # as before ARTIFACT_FORMAT went, less its "artifact_format = npy-5"
    # first line and the 13 lines of the keys retired since (the split
    # shares, seven synthetic shape constants, feature.window,
    # feature.negatives, model.logreg_lr). The run's text holds every
    # default, so its digest also moved when the model.logreg_iters default
    # went from 100 to 50. A change to canonical_text or
    # to a stage's prefixes would silently orphan every cached workspace;
    # the whole key moves with every edit of a stage's sources, by design,
    # so it is not pinned
    cfg = ExperimentConfig({
        "dataset.k": "4", "dataset.synthetic.n_labels": "4", "dataset.synthetic.n_notes": "80",
        "dataset.synthetic.seed": "1", "dataset.sanitize": "yes",
        "feature.track": "wordseq", "feature.seq_len": "20", "feature.w2v_dim": "8",
        "model.family": "gru", "model.hidden": "4",
        "train.max_epochs": "1", "train.learning_rate": "5e-3",
    })
    prefixes = {stage: row.prefixes for stage, row in harness.STAGES.items()}
    assert {stage: hashlib.sha256(cfg.canonical_text(p).encode()).hexdigest()
            for stage, p in {**prefixes, "run": ()}.items()} == {
        "dataset": "bfeac96a6de54a763c3aeb527d80dd487813a29df06db5c7d1daa71ee0321ad2",
        "features": "8c184380f9adec73bee33f9f84356ddd1fd9f0223e215353508fef326ca0f890",
        "run": "383264d3b25b9acad050bc8609d000bec5feeb36d3cdac2ce747b50531294d2b",
    }
    assert cfg.train_config() == models.TrainConfig(max_epochs=1, learning_rate=5e-3)


def test_model_keys_do_not_disturb_feature_hash():
    a = _keys(make_cfg())
    b = _keys(make_cfg(**{"model.logreg_iters": "99"}))
    assert a["features"] == b["features"]
    assert a["dataset"] == b["dataset"]
    assert a["run"] != b["run"]


def test_feature_keys_change_feature_hash_only():
    a = _keys(make_cfg())
    b = _keys(make_cfg(**{"feature.seq_len": "99"}))
    assert a["dataset"] == b["dataset"]
    assert a["features"] != b["features"]


def test_split_seed_changes_dataset_hash():
    a = _keys(make_cfg())
    b = _keys(make_cfg(**{"dataset.split_seed": "9"}))
    assert a["dataset"] != b["dataset"]
    assert a["features"] != b["features"]


def test_synthetic_seed_changes_dataset_and_feature_hashes():
    # the synthetic corpus is generated inside the dataset stage, so its
    # seed is part of that stage's key
    a = _keys(make_cfg())
    b = _keys(make_cfg(**{"dataset.synthetic.seed": "2"}))
    assert a["dataset"] != b["dataset"]
    assert a["features"] != b["features"]
    assert a["run"] != b["run"]


# ---------------------------------------------------------------- caching

def test_second_run_reuses_cached_stages(tmp_path, capsys):
    cfg = make_cfg()
    ws = tmp_path / "ws"
    rec1 = run_pipeline(cfg, ws, run_name="first", log=lambda *a: None)
    assert rec1.cache_hits == []
    rec2 = run_pipeline(cfg, ws, run_name="second", log=lambda *a: None)
    assert [hit.split(":")[0] for hit in rec2.cache_hits] == ["dataset", "features"]


def test_synthetic_run_caches_two_stages_and_no_csv(tmp_path):
    run_pipeline(make_cfg(), tmp_path / "ws", log=lambda *a: None)
    assert sorted(d.name for d in (tmp_path / "ws" / "cache").iterdir()) == ["dataset", "features"]
    for stage in ("dataset", "features"):
        assert [len(d.name) for d in (tmp_path / "ws" / "cache" / stage).iterdir()] == [64]
    assert list((tmp_path / "ws").rglob("*.csv")) == []


def test_failed_synthetic_ingest_leaves_no_csv(tmp_path, monkeypatch):
    # the generated corpus lives in a temporary directory that goes when
    # ingest ends, also when it raises
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()

    def fail(path):
        assert Path(path).is_file()
        raise DatasetError("diagnoses unreadable")

    monkeypatch.setattr(corpus, "load_diagnoses", fail)
    with pytest.raises(PipelineError, match="^stage dataset: diagnoses unreadable$"):
        run_pipeline(make_cfg(), tmp_path / "ws", log=lambda *a: None)
    assert list((tmp_path / "tmp").iterdir()) == []
    assert not any((tmp_path / "ws" / "cache").glob("*/*"))
    assert list(tmp_path.rglob("*.csv")) == []


def test_edited_feature_source_rebuilds_features_only(tmp_path, monkeypatch):
    cfg = make_cfg()
    first = run_pipeline(cfg, tmp_path / "ws", run_name="first", log=lambda *a: None)
    edited = bytearray((harness.PACKAGE / "features.py").read_bytes())
    edited[-1] ^= 1
    (tmp_path / "features.py").write_bytes(edited)
    row = harness.STAGES["features"]
    monkeypatch.setitem(harness.STAGES, "features", row._replace(sources=tuple(
        str(tmp_path / name) if name == "features.py" else name for name in row.sources)))
    second = run_pipeline(cfg, tmp_path / "ws", run_name="second", log=lambda *a: None)
    assert [hit.split(":")[0] for hit in second.cache_hits] == ["dataset"]
    assert second.dataset_hash == first.dataset_hash
    assert second.feature_hash != first.feature_hash


CODES = ("4019", "4280", "42731", "5849")


def _write_csvs(root: Path, n_admissions: int) -> tuple[Path, Path]:
    """NOTEEVENTS and DIAGNOSES_ICD of one discharge summary and two of
    four codes per admission, rewritten in place on every call."""
    notes, diags = root / "NOTEEVENTS.csv", root / "DIAGNOSES_ICD.csv"
    with open(notes, "w", newline="") as nf, open(diags, "w", newline="") as df:
        note_rows, diag_rows = csv.writer(nf), csv.writer(df)
        note_rows.writerow(["ROW_ID", "SUBJECT_ID", "HADM_ID", "CATEGORY", "TEXT"])
        diag_rows.writerow(["SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"])
        for i in range(n_admissions):
            codes = CODES[i % 4], CODES[(i + 1) % 4]
            note_rows.writerow([i, 7, 100 + i, "Discharge summary",
                                f"admission {i} seen for {codes[0]} and {codes[1]} care"])
            for seq, code in enumerate(codes, 1):
                diag_rows.writerow([7, 100 + i, seq, code])
    return notes, diags


def _csv_cfg(notes, diags):
    return make_cfg(**{"dataset.source": "csv", "dataset.notes": notes,
                       "dataset.diagnoses": diags})


def test_csv_rewritten_in_place_rebuilds_dataset_and_features(tmp_path):
    cfg = _csv_cfg(*_write_csvs(tmp_path, 60))
    first = run_pipeline(cfg, tmp_path / "ws", run_name="first", log=lambda *a: None)
    assert first.split_sizes == {"train": 30, "val": 15, "test": 15}
    _write_csvs(tmp_path, 200)
    second = run_pipeline(cfg, tmp_path / "ws", run_name="second", log=lambda *a: None)
    assert second.split_sizes == {"train": 100, "val": 50, "test": 50}
    assert second.cache_hits == []
    assert second.dataset_hash != first.dataset_hash


def test_untouched_csv_hits_dataset_and_features(tmp_path):
    cfg = _csv_cfg(*_write_csvs(tmp_path, 60))
    first = run_pipeline(cfg, tmp_path / "ws", run_name="first", log=lambda *a: None)
    second = run_pipeline(cfg, tmp_path / "ws", run_name="second", log=lambda *a: None)
    assert second.cache_hits == [f"dataset:{first.dataset_hash[:12]}",
                                 f"features:{first.feature_hash[:12]}"]
    assert (second.dataset_hash, second.feature_hash) == (first.dataset_hash, first.feature_hash)


@pytest.mark.parametrize("missing", ["csv", "pretrained"])
def test_missing_input_file_fails_its_stage(tmp_path, missing):
    absent = tmp_path / "absent.txt"
    if missing == "csv":
        stage, cfg = "dataset", _csv_cfg(absent, _write_csvs(tmp_path, 12)[1])
    else:
        stage, cfg = "features", make_cfg(**SEQ_FEATURES, **{
            "feature.embedding_source": "pretrained", "feature.pretrained_path": absent})
    message = f"^stage {stage}: missing input {re.escape(str(absent))}$"
    with pytest.raises(PipelineError, match=message):
        run_pipeline(cfg, tmp_path / "ws", log=lambda *a: None)


@pytest.mark.parametrize("unused", ["csv", "pretrained", "pretrained-sparse"])
def test_stage_keys_skip_input_files_the_config_does_not_read(tmp_path, unused):
    # a synthetic dataset reads no CSV, the self embedding and a tf-idf
    # track no pretrained file: naming a missing one runs, and rewriting it
    # keeps every key
    if unused == "csv":
        paths = [tmp_path / "N.csv", tmp_path / "D.csv"]
        cfg = make_cfg(**{"dataset.notes": paths[0], "dataset.diagnoses": paths[1]})
    elif unused == "pretrained":
        paths = [tmp_path / "v.txt"]
        cfg = make_cfg(**SEQ_FEATURES, **{"feature.pretrained_path": paths[0]})
    else:
        paths = [tmp_path / "v.txt"]
        cfg = make_cfg(**{"feature.embedding_source": "pretrained",
                          "feature.pretrained_path": paths[0]})
        assert harness.TRACK_KINDS[cfg["feature.track"]] == "sparse"
    run_pipeline(cfg, tmp_path / "ws", log=lambda *a: None)
    for path in paths:
        path.write_text("1 2\na 0.5 0.5\n")
    before = _keys(cfg)
    for path in paths:
        path.write_text("2 2\na 0.5 0.5\nb 0.25 0.25\n")
    assert _keys(cfg) == before


def _package_files_run(fn, *args):
    """fn(*args), and the package files holding each Python function it called."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    paths = {Path(name).resolve() for name in seen if name.endswith(".py")}
    return result, {p.relative_to(harness.PACKAGE).as_posix()
                    for p in paths if p.is_relative_to(harness.PACKAGE)}


@pytest.mark.parametrize("overrides", [
    {"feature.track": "tfidf40k"},
    {"feature.track": "tfidf20k", "feature.remove_stopwords": "true"},
    {**SEQ_FEATURES, "feature.track": "w2v-avg", "model.family": "logreg", "model.hidden": ""},
    {**SEQ_FEATURES, "feature.embedding_source": "self"},
    {**SEQ_FEATURES, "feature.embedding_source": "random"},
], ids=["tfidf40k", "tfidf20k-stopwords", "w2v-avg", "wordseq-self", "wordseq-random"])
def test_each_stage_runs_only_sources_its_key_covers(tmp_path, overrides):
    # a package file a stage runs but no row up its chain lists could
    # change what the stage writes and still leave its key as it was
    cfg = make_cfg(**overrides)
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    ran = {}
    splits, ran["dataset"] = _package_files_run(harness.stage_dataset, cfg, ws)
    _, ran["features"] = _package_files_run(harness.stage_features, cfg, ws, splits[:3])
    assert ws.cache_hits == []
    assert {"corpus.py", "features.py"} <= ran["dataset"] | ran["features"]
    for stage, files in ran.items():
        listed, row = set(), harness.STAGES[stage]
        while row:
            listed |= set(row.sources)
            row = harness.STAGES.get(row.upstream)
        assert files <= listed, (stage, sorted(files - listed))


def test_failed_stage_build_publishes_nothing(tmp_path):
    cfg = make_cfg()
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    h = ws.stage_key(cfg, "dataset")
    with pytest.raises(RuntimeError, match="mid-write"):
        with ws.new_stage("dataset", h) as d:
            (d / "train.tsv").write_text("hadm_id\n")
            raise RuntimeError("mid-write")
    assert list(ws.stage_dir("dataset", h).parent.iterdir()) == []
    assert not ws.stage_cached("dataset", h)
    record = run_pipeline(cfg, ws.root, run_name="after", log=lambda *a: None)
    assert record.cache_hits == []
    assert ws.stage_cached("dataset", h)


RACE_ROUNDS = 4


def _race_worker(root: Path, worker: int, barrier) -> None:
    # one pipeline run per round, each round on a new empty workspace that
    # the other worker fills at the same time
    for r in range(RACE_ROUNDS):
        barrier.wait(timeout=120)
        try:
            run_pipeline(make_cfg(), root / f"round{r}", run_name=f"w{worker}",
                         log=lambda *a: None)
        except Exception as exc:  # noqa: BLE001 - reported by the test
            (root / f"round{r}-w{worker}.err").write_text(repr(exc))


def test_concurrent_runs_share_one_workspace(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    workers = [ctx.Process(target=_race_worker, args=(tmp_path, i, barrier)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=600)
    assert [w.exitcode for w in workers] == [0, 0]
    errors = {p.name: p.read_text() for p in tmp_path.glob("*.err")}
    assert errors == {}
    for r in range(RACE_ROUNDS):
        runs = tmp_path / f"round{r}" / "runs"
        for name in ("metrics_test.json", "pr_test.npz"):
            assert (runs / "w0" / name).read_bytes() == (runs / "w1" / name).read_bytes()
    assert list(tmp_path.glob("**/*.tmp-*")) == []


# ---------------------------------------------------------- feature cache

@pytest.mark.parametrize("source", ["self", "random", "pretrained"])
def test_min_count_counts_tokens_for_every_embedding_source(tmp_path, source):
    # a and b occur twice each, b in two documents; c and d once
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("4 8\n" + "".join(f"{t}{' 0.5' * 8}\n" for t in "abcd"))
    cfg = make_cfg(**SEQ_FEATURES, **{"feature.min_count": "2", "feature.embedding_source": source,
                                      "feature.pretrained_path": vectors})
    docs = textproc.encode_documents([["a", "a", "b"], ["b", "c"], ["d"]])
    vocab, _ = harness._resolve_embedding(cfg, docs)
    assert sorted(vocab.token_to_index) == ["a", "b"]


def _splits(cfg, ws):
    return harness.stage_dataset(cfg, ws)[:3]


def test_warm_dataset_equals_cold(tmp_path):
    cfg = make_cfg()
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    *cold, cold_catalog = harness.stage_dataset(cfg, ws)
    *warm, warm_catalog = harness.stage_dataset(cfg, ws)
    assert ws.cache_hits[-1] == "dataset:" + ws.stage_key(cfg, "dataset")[:12]
    assert warm_catalog == cold_catalog
    assert list(warm[0].docs.table) == list(cold[0].docs.table)
    for w, c in zip(warm, cold):
        assert w.catalog == c.catalog
        assert w.coverage == c.coverage
        assert w.docs.table is warm[0].docs.table
        for name in ("ids", "offsets"):
            assert _same_array(getattr(w.docs, name), getattr(c.docs, name)), name
        assert _same_array(w.labels, c.labels)
        assert _same_array(w.hadm_ids, c.hadm_ids)


def test_feature_stage_over_a_cached_dataset_tokenizes_nothing(tmp_path, monkeypatch):
    # the dataset stage stores token ids; a feature-stage miss reads them
    ws = tmp_path / "ws"
    run_pipeline(make_cfg(), ws, "tfidf", log=lambda *a: None)
    tokenize, calls = textproc.tokenize, []
    monkeypatch.setattr(textproc, "tokenize", lambda text: calls.append(text) or tokenize(text))
    record = run_pipeline(make_cfg(**SEQ_FEATURES), ws, "wordseq", log=lambda *a: None)
    assert [hit.split(":")[0] for hit in record.cache_hits] == ["dataset"]
    assert calls == []


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_split(a, b):
    if sp.issparse(a):
        return (a.format == b.format == "csr" and a.shape == b.shape
                and all(_same_array(getattr(a, n), getattr(b, n))
                        for n in ("data", "indices", "indptr")))
    return _same_array(a, b)


def _pretrained_file(tmp_path):
    """A word2vec text file covering every other training token, so that
    the aligned matrix has both copied and zero rows."""
    ws = Workspace(tmp_path / "probe", log=lambda *a: None)
    vocab = textproc.build_vocabulary(_splits(make_cfg(**SEQ_FEATURES), ws)[0].docs)
    kept = vocab.index_to_token[1::2]
    matrix = np.random.default_rng(3).standard_normal((len(kept) + 1, 8))
    path = tmp_path / "pretrained.txt"
    features.save_word2vec_text(features.EmbeddingMatrix(
        textproc.Vocabulary({t: i for i, t in enumerate(kept, 1)}, [""] + kept,
                            {t: vocab.doc_freq[t] for t in kept}), matrix), path)
    return path


@pytest.mark.parametrize("overrides", [
    {"feature.track": "tfidf40k"},
    {**SEQ_FEATURES, "feature.track": "w2v-avg", "model.family": "logreg", "model.hidden": ""},
    {**SEQ_FEATURES, "feature.embedding_source": "self"},
    {**SEQ_FEATURES, "feature.embedding_source": "random"},
    {**SEQ_FEATURES, "feature.embedding_source": "pretrained"},
], ids=["tfidf40k", "w2v-avg", "wordseq-self", "wordseq-random", "wordseq-pretrained"])
def test_warm_feature_set_equals_cold(tmp_path, overrides):
    if overrides.get("feature.embedding_source") == "pretrained":
        overrides = {**overrides, "feature.pretrained_path": str(_pretrained_file(tmp_path))}
    cfg = make_cfg(**overrides)
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    splits = _splits(cfg, ws)
    cold = harness.stage_features(cfg, ws, splits)
    warm = harness.stage_features(cfg, ws, splits)
    assert ws.cache_hits[-1] == "features:" + ws.stage_key(cfg, "features")[:12]
    assert warm.kind == cold.kind == harness.TRACK_KINDS[cfg["feature.track"]]
    for name in ("train", "val", "test"):
        assert _same_split(getattr(warm, name), getattr(cold, name)), name
    assert warm.vocab.token_to_index == cold.vocab.token_to_index
    assert warm.vocab.index_to_token == cold.vocab.index_to_token
    assert warm.vocab.doc_freq == cold.vocab.doc_freq
    assert warm.vocab.n_docs == cold.vocab.n_docs == len(splits[0])
    if cold.embedding is None:
        assert warm.embedding is None
    else:
        assert _same_array(warm.embedding.matrix, cold.embedding.matrix)
        assert warm.embedding.vocabulary is warm.vocab


# Digest of the feature-stage files of four tracks, taken at commit edc4126,
# before tf-idf rows were assembled by scipy's COO to CSR conversion and
# the tokenizer's digit test became str.isdigit.
FEATURE_FILES_DIGEST = "e06e7e34f11ac5c1924c3579fa9d74f6c02000b3526fe5ddc6d2a802b16e69de"


def test_feature_stage_files_match_pinned_digest(tmp_path):
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    h = hashlib.sha256()
    for overrides in (
        {"feature.track": "tfidf40k"},
        {"feature.track": "tfidf20k", "feature.remove_stopwords": "true"},
        {**SEQ_FEATURES, "feature.track": "w2v-avg", "model.family": "logreg", "model.hidden": ""},
        SEQ_FEATURES,
    ):
        cfg = make_cfg(**overrides)
        harness.stage_features(cfg, ws, _splits(cfg, ws))
        d = ws.stage_dir("features", ws.stage_key(cfg, "features"))
        for path in sorted(d.iterdir()):
            if path.name != ".complete":  # holds the key, which covers the sources
                h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == FEATURE_FILES_DIGEST


DIGEST_LABELS = ("4019", "42731", "2500", "E8497", "V5861", "V173")
DIGEST_WORDS = ("Patient", "café", "NAÏVE", "Straße", "İnci", "\u212aelvin", "ﬁbrosis", "٣",
                "３mg", "x-ray", "q.d.", "BP", "120/80", "2014", "1234", "12345", "1234567",
                "007", "Dr.", "Öztürk", "été", " ", "—", "\t", "(", ")", ",")


def _write_digest_csvs(root: Path) -> tuple[Path, Path]:
    """NOTEEVENTS and DIAGNOSES_ICD whose notes mix non-ASCII words, digit
    runs of 4, 5 and 7 and every form of their labels (undotted, dotted,
    E- and V-codes; standalone, embedded and at either end), with one
    admission whose first discharge summary a later one supersedes and
    a nursing note that is never kept."""
    rng = np.random.default_rng(36)
    forms = [f for code in DIGEST_LABELS for f in (code, corpus.dotted_code(code)) if f]
    notes, diags = root / "NOTEEVENTS.csv", root / "DIAGNOSES_ICD.csv"
    with open(notes, "w", newline="", encoding="utf-8") as nf, \
            open(diags, "w", newline="", encoding="utf-8") as df:
        note_rows, diag_rows = csv.writer(nf), csv.writer(df)
        note_rows.writerow(["ROW_ID", "SUBJECT_ID", "HADM_ID", "CATEGORY", "TEXT"])
        diag_rows.writerow(["SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"])
        for i in range(40):
            codes = rng.choice(DIGEST_LABELS, size=int(rng.integers(1, 4)), replace=False)
            words = list(rng.choice(DIGEST_WORDS + tuple(forms), size=int(rng.integers(8, 30))))
            words += ["x" + forms[i % len(forms)], forms[(i + 1) % len(forms)] + "b"]
            rng.shuffle(words)
            text = f"{forms[i % len(forms)]} " + " ".join(words) + f" {forms[(i + 3) % len(forms)]}"
            note_rows.writerow([2 * i, 7, 100 + i, "Discharge summary", text])
            for seq, code in enumerate(codes, 1):
                diag_rows.writerow([7, 100 + i, seq, code])
        note_rows.writerow([200, 7, 103, "DISCHARGE SUMMARY", "Ersetzt: Straße 42731 café 123456"])
        note_rows.writerow([201, 7, 104, "Nursing", "nursing note 4019"])
    return notes, diags


# Digest of the dataset-stage files of `_write_digest_csvs` in code and
# category mode, sanitized and not, taken at commit 887577f, while the
# tokenizer filtered regex-split tokens in a comprehension, the encoder
# called `setdefault` per token and the sanitizer's pattern had no
# first-character anchor.
DATASET_FILES_DIGEST = "f279ffcdf0a67ace9b832bc0ba88f3372691b8f269244c877dfb21ab3ba59543"


def test_dataset_stage_files_match_pinned_digest(tmp_path):
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    notes, diags = _write_digest_csvs(tmp_path)
    h = hashlib.sha256()
    for overrides in ({"dataset.k": "6"}, {"dataset.k": "4", "dataset.mode": "category"},
                      {"dataset.k": "6", "dataset.sanitize": "false"}):
        cfg = make_cfg(**{"dataset.source": "csv", "dataset.notes": notes,
                          "dataset.diagnoses": diags, **overrides})
        harness.stage_dataset(cfg, ws)
        d = ws.stage_dir("dataset", ws.stage_key(cfg, "dataset"))
        for path in sorted(d.iterdir()):
            if path.name != ".complete":  # holds the key, which covers the sources
                h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == DATASET_FILES_DIGEST


def _hand_splits(train, val, test):
    """Train/val/test splits of the given note texts, each labelled with
    one code; the feature stage reads only the token ids."""
    catalog = corpus.LabelCatalog("code", (("4010", 1),))
    texts = [*train, *val, *test]
    notes = [corpus.Note(i, 100 + i, "discharge summary", t) for i, t in enumerate(texts)]
    ds = corpus.build_dataset(notes, {100 + i: {"4010"} for i in range(len(texts))}, catalog)
    cuts = np.cumsum([0, len(train), len(val), len(test)])
    return [ds.take(np.arange(a, b)) for a, b in zip(cuts, cuts[1:])]


def _edge_splits():
    """A corpus with an empty note, a stopword-only note, and a val and a
    test note whose every token is unseen in train."""
    rng = np.random.default_rng(5)
    words = ["the", "of", "and", "fever", "cough", "rash", "sepsis", "renal", "cardiac", "acute",
             "chronic", "failure", "pain", "left", "right"]
    normal = [" ".join(rng.choice(words, size=int(rng.integers(6, 14)))) + "." for _ in range(18)]
    train = normal[:14] + ["", "The and OF the."] + normal[14:16]
    val = ["Zebra quokka, 77777 xylo!", normal[16]]
    test = [normal[17], "quokka yak yak."]
    return _hand_splits(train, val, test)


# Digest of the feature-stage files of the four tracks on `_edge_splits`,
# taken at commit d67ac37, while every split was held as lists of token
# strings.
EDGE_FEATURE_FILES_DIGEST = "244291ecb4e12fde1016ed5c1255b6d5d210e6d3dfd1b65e8728c3f8d4801f19"


def test_edge_corpus_feature_files_match_pinned_digest(tmp_path):
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    h = hashlib.sha256()
    for overrides in (
        {"feature.track": "tfidf40k"},
        {"feature.track": "tfidf20k", "feature.remove_stopwords": "true"},
        {**SEQ_FEATURES, "feature.track": "w2v-avg", "model.family": "logreg", "model.hidden": ""},
        {**SEQ_FEATURES, "feature.embedding_source": "self"},
    ):
        cfg = make_cfg(**overrides)
        harness.stage_features(cfg, ws, _edge_splits())
        d = ws.stage_dir("features", ws.stage_key(cfg, "features"))
        for path in sorted(d.iterdir()):
            if path.name != ".complete":
                h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == EDGE_FEATURE_FILES_DIGEST


# Digest of the feature-stage files of `wordseq` (self-trained CBOW) and
# `w2v-avg` with stopwords removed, on `_edge_splits` and on the synthetic
# corpus of both modes (the order-sensitive one carries the stopword "no"
# in every note), taken at commit 998b352, while the feature stage
# tokenized the split texts itself. Dropping stopwords shifts CBOW's
# windows and every sequence's tail.
STOPWORD_FEATURE_FILES_DIGEST = "6da599c48e7cd3d36fdb76d745f5c59c51233badb392182275c40511bf7e3161"


def test_stopword_feature_files_match_pinned_digest(tmp_path):
    h = hashlib.sha256()
    for i, corpus_overrides in enumerate(
            ({}, {"dataset.synthetic.order_sensitive": "true"}, None)):
        ws = Workspace(tmp_path / f"ws{i}", log=lambda *a: None)  # the edge splits share a key
        for overrides in (
            {**SEQ_FEATURES, "feature.track": "w2v-avg", "model.family": "logreg",
             "model.hidden": ""},
            {**SEQ_FEATURES, "feature.embedding_source": "self"},
        ):
            cfg = make_cfg(**overrides, **(corpus_overrides or {}),
                           **{"feature.remove_stopwords": "true"})
            splits = _edge_splits() if corpus_overrides is None else _splits(cfg, ws)
            harness.stage_features(cfg, ws, splits)
            d = ws.stage_dir("features", ws.stage_key(cfg, "features"))
            for path in sorted(d.iterdir()):
                if path.name != ".complete":
                    h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == STOPWORD_FEATURE_FILES_DIGEST


def _zipf_docs(rng, n_docs, words, table):
    """``n_docs`` documents of 10..60 tokens drawn from ``words`` with
    Zipf weights 1/rank, encoded into ``table``."""
    p = 1.0 / np.arange(1, len(words) + 1)
    p /= p.sum()
    docs = [[words[i] for i in rng.choice(len(words), size=int(rng.integers(10, 61)), p=p)]
            for _ in range(n_docs)]
    return textproc.encode_documents(docs, table)


# Digest of vocabulary cuts (tf-idf's full_rank max_features and CBOW's
# min_count, with what each vocabulary projects), of the recurrent cells'
# initial parameters and of the synthetic CSVs of both modes, taken at
# commit 68b3c1d, before the vocabulary rule, the in-vocabulary projection,
# the cell constructors and the synthetic row writers were each written
# once.
CUTS_CELLS_CSVS_DIGEST = "704592a00156e43b0bbaf4c1f4c985fd14d8327da00d84a23616d4653fa105f2"


def test_vocabulary_cuts_initial_cells_and_synthetic_csvs_match_pinned_digest(tmp_path):
    h = hashlib.sha256()

    def update(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())

    def update_vocab(vocab):
        h.update("\t".join(vocab.index_to_token).encode())
        update(np.array([vocab.doc_freq[t] for t in vocab.index_to_token[1:]]), vocab.n_docs)

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(300)]
    table: dict[str, int] = {}
    train = _zipf_docs(rng, 80, words, table)
    test = _zipf_docs(rng, 12, words + [f"new{i}" for i in range(40)], table)
    assert len(textproc.build_vocabulary(train)) > 150  # so that every cut below cuts
    for max_features in (1, 7, 50, 150):
        idf = features.build_tfidf_table(
            train, features.TfidfConfig("cut", "full_rank", max_features=max_features))
        update_vocab(idf.vocabulary)
        update(idf.idf)
        for docs in (train, test):
            m = features.tfidf_vectorize(docs, idf)
            update(m.data, m.indices, m.indptr)
    for min_count in (2, 3, 10):
        update_vocab(features.embedding_vocabulary(train, min_count))
        w2v = features.train_word2vec_cbow(train, dim=8, window=3, negatives=3, epochs=2,
                                           min_count=min_count, seed=min_count)
        update_vocab(w2v.vocabulary)
        update(w2v.vectors, w2v.losses)
        emb = features.EmbeddingMatrix(w2v.vocabulary, w2v.vectors)
        for docs in (train, test):
            update(features.average_embeddings(docs, emb),
                   features.encode_corpus_sequences(docs, w2v.vocabulary, 20))

    for cell in (nc.SimpleRNN, nc.LSTM, nc.GRU):
        layer = cell(5, 3, np.random.default_rng(2))
        for p in layer.params():
            h.update(p.name.encode())
            update(p.value)

    for order_sensitive in (False, True):
        for seed in (0, 1):
            spec = corpus.SyntheticSpec(n_labels=6, n_notes=40, extra_note_rate=0.3,
                                        noise_code_rate=0.3, order_sensitive=order_sensitive,
                                        seed=seed)
            for path in corpus.generate_synthetic_corpus(spec, tmp_path / f"{order_sensitive}{seed}"):
                h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == CUTS_CELLS_CSVS_DIGEST


@pytest.mark.parametrize("overrides", [
    {"feature.track": "tfidf40k"},
    {**SEQ_FEATURES, "feature.embedding_source": "random", "feature.seq_len": "300"},
], ids=["tfidf40k", "wordseq"])
def test_feature_stage_peak_stays_within_four_times_its_outputs(tmp_path, overrides):
    # 120k tokens in 400 notes over a Zipf vocabulary of 2000 words; the
    # stage holds every token as an int32 id and one note's tokens as
    # strings, where lists of token strings peaked at 6-7x the outputs
    rng = np.random.default_rng(0)
    p = 1.0 / np.arange(1, 2001)
    words = np.array([f"w{i}" for i in range(2000)])
    texts = [" ".join(words[rng.choice(2000, size=300, p=p / p.sum())]) for _ in range(400)]
    splits = _hand_splits(texts[:200], texts[200:300], texts[300:])
    cfg = make_cfg(**overrides)
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fs = harness.stage_features(cfg, ws, splits)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fs.train.shape[0] == 200
    assert peak - base <= 4 * (held - base), (peak - base, held - base)


@pytest.mark.parametrize("damage", ["truncated", "row_count"])
def test_damaged_cached_embedding_is_format_error_naming_it(tmp_path, damage):
    cfg = make_cfg(**SEQ_FEATURES)
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    splits = _splits(cfg, ws)
    cold = harness.stage_features(cfg, ws, splits)
    path = ws.stage_dir("features", ws.stage_key(cfg, "features")) / "embedding.npy"
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-40])
    else:
        features.save_dense(cold.embedding.matrix[:-1], path)
    with pytest.raises(FormatError, match="embedding.npy"):
        harness.stage_features(cfg, ws, splits)


def test_frozen_embedding_leaves_the_feature_stage_matrix_untouched(tmp_path):
    # a non-trainable Embedding keeps the CBOW matrix bit for bit; a
    # trainable one, trained the same way, moves it
    for trainable in (False, True):
        cfg = make_cfg(**SEQ_FEATURES, **{"feature.embedding_trainable": str(trainable)})
        run_pipeline(cfg, tmp_path, run_name=str(trainable), log=lambda *a: None)
        ws = Workspace(tmp_path)
        stored = features.load_dense(
            ws.stage_dir("features", ws.stage_key(cfg, "features")) / "embedding.npy")
        arrays, _ = nc.load_checkpoint(tmp_path / "runs" / str(trainable) / "checkpoint")
        same = arrays["emb.M"].tobytes() == stored.astype(np.float32).tobytes()
        assert same == (not trainable)


# --------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    cfg = make_cfg()
    record = run_pipeline(cfg, root, run_name="base", log=lambda *a: None)
    return root, record


def test_run_writes_all_artifacts(finished_run):
    root, record = finished_run
    run_dir = root / "runs" / "base"
    for name in ("config.txt", "catalog.tsv", "probs_train.dense", "probs_test.dense",
                 "truth_train.dense", "truth_test.dense", "metrics_train.json",
                 "metrics_test.json", "pr_train.npz", "pr_test.npz", "summary.txt",
                 "record.json"):
        assert (run_dir / name).exists(), name
    assert sorted(p.name for p in (run_dir / "checkpoint").iterdir()) == [
        "manifest.txt", "tensors.npz"]


def test_record_fields_are_consistent(finished_run):
    root, record = finished_run
    data = json.loads((root / "runs" / "base" / "record.json").read_text())
    assert data["config_hash"] == record.config_hash
    assert data["dataset_hash"] == record.dataset_hash
    assert sum(data["split_sizes"].values()) <= 80
    assert data["split_sizes"]["train"] >= data["split_sizes"]["val"]
    assert 0.0 < data["coverage"] <= 1.0
    _assert_no_metric_values(data)
    run_dir = Path(record.artifacts["run_dir"])
    assert record.metrics_test == json.loads((run_dir / "metrics_test.json").read_text())
    assert set(record.metrics_test) >= {"precision", "recall", "f1", "hamming_loss"}


def _assert_no_metric_values(data):
    """No key anywhere in a parsed record.json names a metric."""
    names = set(metrics.MetricsReport.__dataclass_fields__)
    keys, todo = set(), [data]
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            keys.update(item)
            todo.extend(item.values())
        elif isinstance(item, list):
            todo.extend(item)
    assert not keys & names, keys & names


def test_config_echo_reparses_to_the_same_hash(finished_run):
    root, record = finished_run
    text = (root / "runs" / "base" / "config.txt").read_text()
    cfg = ExperimentConfig(parse_config_text(text))
    assert _keys(cfg)["run"] == record.config_hash


# every file `train` scores, which `report` rewrites
REPORT_FILES = ("metrics_train.json", "metrics_test.json", "pr_train.npz", "pr_test.npz",
                "summary.txt")


def test_rewrite_reports_reproduces_stored_metrics(finished_run, tmp_path):
    run_dir = _copy_of_run(finished_run, tmp_path)
    before = [(run_dir / name).read_bytes() for name in REPORT_FILES]
    for name in REPORT_FILES:
        (run_dir / name).unlink()
    rewrite_reports(run_dir)
    assert [(run_dir / name).read_bytes() for name in REPORT_FILES] == before


def _copy_of_run(finished_run, tmp_path):
    root, _ = finished_run
    run_dir = tmp_path / "run"
    shutil.copytree(root / "runs" / "base", run_dir)
    return run_dir


def test_rewrite_reports_reads_a_config_naming_retired_keys(finished_run, tmp_path):
    # a run written before the 13 constant keys were retired still re-reports
    run_dir = _copy_of_run(finished_run, tmp_path)
    before = [(run_dir / name).read_bytes() for name in REPORT_FILES]
    stored = parse_config_text((run_dir / "config.txt").read_text())
    assert not set(RETIRED) & set(stored)
    lines = sorted(f"{k} = {v}" for k, v in {**stored, **RETIRED}.items())
    (run_dir / "config.txt").write_text("\n".join(lines) + "\n")
    for name in REPORT_FILES:
        (run_dir / name).unlink()
    rewrite_reports(run_dir)
    assert [(run_dir / name).read_bytes() for name in REPORT_FILES] == before


def _set_stored_config(run_dir, changes):
    stored = parse_config_text((run_dir / "config.txt").read_text())
    lines = sorted(f"{k} = {v}" for k, v in {**stored, **changes}.items())
    (run_dir / "config.txt").write_text("\n".join(lines) + "\n")


def test_rewrite_reports_reads_only_the_keys_it_uses(finished_run, tmp_path):
    # values the config checks refuse, in keys the reports never read
    run_dir = _copy_of_run(finished_run, tmp_path)
    names = ("metrics_train.json", "metrics_test.json")
    before = [(run_dir / name).read_bytes() for name in names]
    _set_stored_config(run_dir, {"feature.epochs": "0", "model.dropout": "1.5"})
    with pytest.raises(ConfigError):
        ExperimentConfig(parse_config_text((run_dir / "config.txt").read_text()))
    for name in names:
        (run_dir / name).unlink()
    rewrite_reports(run_dir)
    assert [(run_dir / name).read_bytes() for name in names] == before


def test_rewrite_reports_rejects_a_bad_threshold(finished_run, tmp_path):
    run_dir = _copy_of_run(finished_run, tmp_path)
    _set_stored_config(run_dir, {"train.threshold": "abc"})
    with pytest.raises(ConfigError, match="train.threshold: expected a number, got 'abc'"):
        rewrite_reports(run_dir)


def _fresh_interpreter(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` by a new interpreter on this package."""
    src = str(Path(harness.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    return result.stdout


def test_report_and_oracle_never_load_scipy_sparse(finished_run, tmp_path):
    run_dir = _copy_of_run(finished_run, tmp_path)
    out = _fresh_interpreter(
        "import sys\n"
        "from codeset_bench import cli\n"
        "assert cli.main(['report', '--run', sys.argv[1]]) == 0\n"
        "assert cli.main(['oracle', '--pairs', '20']) == 0\n"
        "print('scipy.sparse' in sys.modules)\n",
        str(run_dir),
    )
    assert out.splitlines()[-1] == "False"


# a cold tf-idf logreg run, a forest on its cached tf-idf, and a GRU over
# self-trained CBOW embeddings: every site that builds or reads a sparse matrix
DEFERRED_SPARSE_RUNS = {
    "logreg": FAST_SYNTH,
    "forest": {**FAST_SYNTH, "model.preset": "rforest", "model.rf_trees": "2",
               "model.rf_depth": "6"},
    "gru": {**FAST_SYNTH, **SEQ_FEATURES},
}


def _run_files(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "record.json"}


def test_deferred_scipy_sparse_loading_changes_no_run_byte(tmp_path):
    _fresh_interpreter(
        "import json, sys\n"
        "from codeset_bench import harness\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "for name, raw in json.loads(sys.argv[2]).items():\n"
        "    harness.run_pipeline(harness.ExperimentConfig(raw), sys.argv[1], run_name=name,\n"
        "                         log=lambda *a: None)\n",
        str(tmp_path / "fresh"), json.dumps(DEFERRED_SPARSE_RUNS),
    )
    assert "scipy.sparse" in sys.modules
    for name, raw in DEFERRED_SPARSE_RUNS.items():
        run_pipeline(ExperimentConfig(raw), tmp_path / "here", run_name=name, log=lambda *a: None)
        fresh, here = (_run_files(tmp_path / ws / "runs" / name) for ws in ("fresh", "here"))
        assert fresh.keys() == here.keys() and "probs_test.dense" in fresh
        assert fresh == here, name


def test_rewrite_reports_rejects_a_nan_probability(finished_run, tmp_path):
    run_dir = _copy_of_run(finished_run, tmp_path)
    probs = features.load_dense(run_dir / "probs_test.dense")
    probs[1, 0] = np.nan
    features.save_dense(probs, run_dir / "probs_test.dense")
    with pytest.raises(NumericError, match="NaN or infinite"):
        rewrite_reports(run_dir)


@pytest.mark.parametrize("change", ["one_short", "one_extra"])
def test_rewrite_reports_rejects_a_catalog_of_the_wrong_length(finished_run, tmp_path, change):
    run_dir = _copy_of_run(finished_run, tmp_path)
    catalog = corpus.load_catalog(run_dir / "catalog.tsv")
    labels = catalog.labels[:-1] if change == "one_short" else catalog.labels + (("9999", 1),)
    corpus.save_catalog(replace(catalog, labels=labels), run_dir / "catalog.tsv")
    with pytest.raises(ShapeError, match="label names for 4 label columns"):
        rewrite_reports(run_dir)


def test_category_mode_names_a_code_that_has_no_category(tmp_path):
    notes, diags = tmp_path / "NOTEEVENTS.csv", tmp_path / "DIAGNOSES_ICD.csv"
    with open(notes, "w", newline="") as nf, open(diags, "w", newline="") as df:
        note_rows, diag_rows = csv.writer(nf), csv.writer(df)
        note_rows.writerow(["ROW_ID", "SUBJECT_ID", "HADM_ID", "CATEGORY", "TEXT"])
        diag_rows.writerow(["SUBJECT_ID", "HADM_ID", "SEQ_NUM", "ICD9_CODE"])
        for i in range(12):
            note_rows.writerow([i, 7, 100 + i, "Discharge summary", f"note {i}"])
            diag_rows.writerow([7, 100 + i, 1, "4019" if i else "XYZ"])
    cfg = make_cfg(**{"dataset.source": "csv", "dataset.notes": notes, "dataset.diagnoses": diags,
                      "dataset.mode": "category", "dataset.k": 1})
    with pytest.raises(PipelineError, match="stage dataset: .*'XYZ'") as info:
        run_pipeline(cfg, tmp_path / "ws", log=lambda *a: None)
    assert isinstance(info.value.__cause__, DatasetError)


def test_probs_dense_matrices_align_with_truth(finished_run):
    root, _ = finished_run
    from codeset_bench.features import load_dense
    run_dir = root / "runs" / "base"
    probs = load_dense(run_dir / "probs_test.dense")
    truth = load_dense(run_dir / "truth_test.dense")
    assert probs.shape == truth.shape
    assert np.all((probs >= 0) & (probs <= 1))
    assert set(np.unique(truth)) <= {0.0, 1.0}


def test_evaluation_never_reads_training_labels(finished_run):
    """Instrumented guard: testing-split evaluation must not touch y_train."""

    class Poisoned(np.ndarray):
        armed = False

        def __getitem__(self, item):
            if Poisoned.armed:
                raise AssertionError("training labels read during evaluation")
            return super().__getitem__(item)

    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 4))
    y = (x[:, :2] > 0).astype(np.uint8)
    y_train = y[:30].view(Poisoned)
    model = models.train_logreg_ovr(np.asarray(x[:30]), np.asarray(y_train), iters=20)
    Poisoned.armed = True
    try:
        probs = models.predict_proba(model, x[30:])
        predicted = (probs >= 0.5).astype(np.uint8)
        rep, _ = metrics.report(metrics.PredictionRun(probs, predicted, y[30:], ["a", "b"]))
    finally:
        Poisoned.armed = False
    assert 0.0 <= rep.f1 <= 1.0
    # the guard itself works:
    Poisoned.armed = True
    try:
        with pytest.raises(AssertionError):
            y_train[0]
    finally:
        Poisoned.armed = False


# ------------------------------------------------------------- comparison

def test_compare_orders_by_test_f1(tmp_path):
    cfg_good = make_cfg(**{"model.logreg_iters": "150"})
    cfg_bad = make_cfg(**{"model.logreg_iters": "1"})
    run_pipeline(cfg_good, tmp_path, run_name="good", log=lambda *a: None)
    run_pipeline(cfg_bad, tmp_path, run_name="bad", log=lambda *a: None)
    csv_text, table = compare_runs([tmp_path / "runs" / "good", tmp_path / "runs" / "bad"])
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("model,")
    f1_col = lines[0].split(",").index("f1")
    f1s = [float(line.split(",")[f1_col]) for line in lines[1:]]
    assert len(f1s) == 2
    assert f1s == sorted(f1s, reverse=True)
    assert table.splitlines()[0].split()[0] == "model"


def test_compare_reads_the_metrics_that_report_rewrote(tmp_path, monkeypatch, capsys):
    # a later fix to a metric stands in for the patched report: after
    # `report`, `compare` agrees with the run's metrics_test.json
    run_pipeline(make_cfg(), tmp_path, run_name="logreg", log=lambda *a: None)
    run_dir = tmp_path / "runs" / "logreg"
    real = metrics.report

    def fixed_f1(run):
        rep, curves = real(run)
        return replace(rep, f1=0.123), curves

    monkeypatch.setattr(metrics, "report", fixed_f1)
    rewrite_reports(run_dir)
    assert json.loads((run_dir / "metrics_test.json").read_text())["f1"] == 0.123
    _assert_no_metric_values(json.loads((run_dir / "record.json").read_text()))
    assert cli.main(["compare", "--runs", str(run_dir), "--out", str(tmp_path / "c.csv")]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert row.split()[header.split().index("f1")] == "0.1230"
    header, row = (tmp_path / "c.csv").read_text().splitlines()
    assert row.split(",")[header.split(",").index("f1")] == "0.123"


def test_compare_rejects_mismatched_datasets(tmp_path):
    cfg_a = make_cfg()
    cfg_b = make_cfg(**{"dataset.synthetic.seed": "77"})
    run_pipeline(cfg_a, tmp_path, run_name="a", log=lambda *a: None)
    run_pipeline(cfg_b, tmp_path, run_name="b", log=lambda *a: None)
    with pytest.raises(PipelineError) as exc:
        compare_runs([tmp_path / "runs" / "a", tmp_path / "runs" / "b"])
    assert "dataset" in str(exc.value)


# ------------------------------------------------------- forest round trip

def test_forest_checkpoint_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 3))
    y = (x[:, 0] > 0).astype(np.uint8).reshape(-1, 1)
    model = models.train_random_forest_ovr(x, y, n_trees=4, max_depth=3, seed=0)
    models_save_forest(model, tmp_path, {"family": "rforest"})
    arrays, manifest = nc.load_checkpoint(tmp_path)
    assert manifest == {"family": "rforest"}
    probs_before = models.predict_proba(model, x)
    model.submodels = arrays
    assert np.array_equal(models.predict_proba(model, x), probs_before)


def test_logreg_checkpoint_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 4))
    y = (x[:, :3] > 0).astype(np.uint8)
    model = models.train_logreg_ovr(x, y, iters=30)
    harness._save_model(model, tmp_path, make_cfg())
    arrays, manifest = nc.load_checkpoint(tmp_path)
    assert manifest["family"] == "logreg"
    assert sorted(arrays) == ["W", "b"]
    probs_before = models.predict_proba(model, x)
    model.submodels = arrays
    assert np.array_equal(models.predict_proba(model, x), probs_before)


# ------------------------------------------------------- traced benchmark

def test_traced_benchmark_wraps_only_existing_names(monkeypatch):
    # the traced benchmark run wraps package functions by attribute name;
    # install raises AttributeError when one of them is gone
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmark"))
    import instrument
    import spans

    original = harness.models_save_forest
    tracer = spans.Tracer()
    try:
        instrument.install(tracer)
        assert harness.models_save_forest is not original
    finally:
        tracer.restore()
        sys.modules.pop("instrument", None)
        sys.modules.pop("spans", None)
    assert harness.models_save_forest is original


def test_traced_feature_cache_io_sits_under_stage_features(tmp_path, monkeypatch):
    # features.artifact_{write,read}_s and corpus.split_{write,read}_s sum
    # these spans; a stage codec holding the functions it captured at
    # import would bypass the wrappers and leave the metrics at 0
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmark"))
    import instrument
    import spans

    cfg = make_cfg(**SEQ_FEATURES)
    io = {  # stage span -> (saves, loads) in that stage's codec
        "harness.stage_features": (
            ("features.save_dense", "features.save_sequences", "textproc.save_vocabulary"),
            ("features.load_dense", "features.load_sequences", "textproc.load_vocabulary")),
        "harness.stage_dataset": (
            ("corpus.save_split", "corpus.save_catalog"), ("corpus.load_split",)),
    }
    under = {}
    tracer = spans.Tracer()
    try:
        instrument.install(tracer)
        tracer.recording = True
        for run in ("cold", "warm"):
            tracer.reset()
            run_pipeline(cfg, tmp_path, run_name=run, log=lambda *a: None)
            index = spans.SpanIndex(tracer.spans)
            under[run] = {(stage, name): index.total([name], ancestor=stage)
                          for stage, names in io.items() for name in sum(names, ())}
    finally:
        tracer.restore()
        sys.modules.pop("instrument", None)
        sys.modules.pop("spans", None)
    for stage, (saves, loads) in io.items():
        for save in saves:
            assert under["cold"][stage, save] > 0 and under["warm"][stage, save] == 0, save
        for load in loads:
            assert under["warm"][stage, load] > 0 and under["cold"][stage, load] == 0, load


# -------------------------------------------------------------------- cli

def test_cli_without_arguments_is_a_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_subcommand_is_a_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_cli_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_cli_runtime_failure_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset.source = csv\n")  # csv without paths
    assert cli.main(["prepare", "--config", str(bad), "--out-dir", str(tmp_path / "ws")]) == 2
    assert capsys.readouterr().err.strip()


def test_cli_train_with_a_missing_pretrained_embedding_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    settings = {**FAST_SYNTH, **SEQ_FEATURES, "feature.embedding_source": "pretrained",
                "feature.pretrained_path": tmp_path / "absent.txt"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "ws")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: stage features: missing input .*absent\.txt\n", err)


def test_cli_prepare_rejects_more_labels_than_the_synthetic_corpus_has(tmp_path, capsys):
    # the 6 labels past the corpus's 4 would be noise codes
    cfg = tmp_path / "k.cfg"
    cfg.write_text("dataset.k = 10\ndataset.synthetic.n_labels = 4\n"
                   "dataset.synthetic.n_notes = 40\nmodel.preset = logreg\n")
    assert cli.main(["prepare", "--config", str(cfg), "--out-dir", str(tmp_path / "ws")]) == 2
    captured = capsys.readouterr()
    assert "dataset.k" in captured.err
    assert "label\tadmissions" not in captured.out
    # rejected before the dataset stage generates anything
    assert not any((tmp_path / "ws" / "cache").glob("*/*"))


def test_cli_synth_writes_the_corpus_the_dataset_stage_generates(tmp_path, capsys):
    cfg_path = tmp_path / "synth.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in FAST_SYNTH.items()))
    out = tmp_path / "csv"
    assert cli.main(["synth", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["DIAGNOSES_ICD.csv", "NOTEEVENTS.csv"]
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    dirs = []
    for cfg in (make_cfg(), _csv_cfg(out / "NOTEEVENTS.csv", out / "DIAGNOSES_ICD.csv")):
        harness.stage_dataset(cfg, ws)
        dirs.append(ws.stage_dir("dataset", ws.stage_key(cfg, "dataset")))
    assert dirs[0] != dirs[1]
    for name in ("catalog.tsv", "tokens.txt", "train.npz", "val.npz", "test.npz"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_pipeline_rejects_more_labels_than_the_synthetic_corpus_has_before_any_stage(tmp_path):
    with pytest.raises(PipelineError, match="dataset.k"):
        run_pipeline(make_cfg(**{"dataset.k": 10}), tmp_path, log=lambda *a: None)
    assert not any((tmp_path / "cache").glob("*/*"))


@pytest.mark.parametrize("command, missing", [
    *((command, name) for command in ("report", "evaluate") for name in harness.RUN_INPUTS),
    ("compare", "record.json"), ("compare", "config.txt"), ("compare", "metrics_test.json"),
])
def test_cli_names_a_missing_run_file(finished_run, tmp_path, capsys, command, missing):
    run_dir = _copy_of_run(finished_run, tmp_path)
    (run_dir / missing).unlink()
    flag = "--runs" if command == "compare" else "--run"
    assert cli.main([command, flag, str(run_dir)]) == 2
    assert capsys.readouterr().err == f"error: {run_dir}: not a complete run (no {missing})\n"


def test_cli_train_and_evaluate_flow(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in FAST_SYNTH.items()))
    ws = tmp_path / "ws"
    assert cli.main(["train", "--config", str(cfg), "--out-dir", str(ws),
                     "--run-name", "demo"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out
    assert cli.main(["evaluate", "--run", str(ws / "runs" / "demo")]) == 0
    assert cli.main(["report", "--run", str(ws / "runs" / "demo")]) == 0
    assert cli.main(["compare", "--runs", str(ws / "runs" / "demo")]) == 0


def test_cli_seed_flag_overrides_every_seed_key(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in FAST_SYNTH.items()))
    args = types.SimpleNamespace(config=str(cfg_path), seed=123)
    cfg = cli._load_cfg(args)
    seeds = {key: value for key, value in cfg.section("").items() if "seed" in key}
    assert set(seeds) >= {"dataset.split_seed", "dataset.synthetic.seed", "feature.seed",
                          "train.seed"}
    assert set(seeds.values()) == {123}


def test_cli_oracle_subcommand(capsys):
    assert cli.main(["oracle", "--pairs", "20"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out.lower()
    assert re.search(r"^oracle suite took \d+\.\d{2} s \(\d+ runs/s\)$", out, re.M)


@pytest.mark.parametrize("pairs", ["0", "-3", "2.5", "x"])
def test_cli_oracle_pairs_must_be_a_positive_int(pairs, capsys):
    assert cli.main(["oracle", "--pairs", pairs]) == 1
    captured = capsys.readouterr()
    assert "not a positive integer" in captured.err
    assert "agree" not in captured.out


@pytest.mark.parametrize("seed", ["-1", "1.5"])
@pytest.mark.parametrize("command", ["synth", "prepare", "featurize", "train", "gradcheck",
                                     "oracle"])
def test_cli_seed_must_be_a_nonnegative_int(command, seed, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in FAST_SYNTH.items()))
    argv = [command, "--seed", seed]
    if command not in ("gradcheck", "oracle"):
        argv += ["--config", str(cfg), "--out-dir", str(tmp_path / "ws")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"{seed!r} is not a non-negative integer" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "ws").exists()
