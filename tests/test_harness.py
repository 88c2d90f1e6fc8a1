"""Config parsing, stage hashing/caching, the pipeline driver, the CLI."""

import json
import multiprocessing
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from codeset_bench import cli, features, harness, models, textproc
from codeset_bench import neuralcore as nc
from codeset_bench.errors import ConfigError, FormatError, PipelineError
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


def test_defaults_fill_unspecified_keys():
    cfg = make_cfg()
    assert cfg.get("train.optimizer") == "rmsprop"
    assert cfg.get_int("train.max_epochs") == 200


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
] + [(key, "x") for key, default in harness.DEFAULTS.items() if _typed(default)])
def test_malformed_value_is_config_error_naming_its_key(key, value):
    # every numeric or boolean key is parsed when the config is built, not
    # when its stage first reads it
    with pytest.raises(ConfigError, match=re.escape(key)):
        make_cfg(**{key: value})


def test_csv_source_requires_paths():
    with pytest.raises(ConfigError):
        ExperimentConfig({"dataset.source": "csv"})


def test_incompatible_track_and_family_rejected_before_any_work():
    with pytest.raises(ConfigError, match="incompatible"):
        make_cfg(**{"feature.track": "tfidf40k", "model.preset": "lstm-desk"})
    with pytest.raises(ConfigError):
        make_cfg(**{"feature.track": "wordseq", "model.preset": "logreg"})


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

def test_stage_hashes_are_stable_across_key_order():
    a = make_cfg()
    raw = dict(reversed(list(dict(FAST_SYNTH).items())))
    b = ExperimentConfig(raw)
    for stage in ("corpus", "dataset", "features", "run"):
        assert a.stage_hash(stage) == b.stage_hash(stage)


def test_model_keys_do_not_disturb_feature_hash():
    a = make_cfg()
    b = make_cfg(**{"model.logreg_iters": "99"})
    assert a.stage_hash("features") == b.stage_hash("features")
    assert a.stage_hash("dataset") == b.stage_hash("dataset")
    assert a.stage_hash("run") != b.stage_hash("run")


def test_feature_keys_change_feature_hash_only():
    a = make_cfg()
    b = make_cfg(**{"feature.seq_len": "99"})
    assert a.stage_hash("dataset") == b.stage_hash("dataset")
    assert a.stage_hash("features") != b.stage_hash("features")


def test_split_seed_changes_dataset_hash():
    a = make_cfg()
    b = make_cfg(**{"dataset.split_seed": "9"})
    assert a.stage_hash("dataset") != b.stage_hash("dataset")


# ---------------------------------------------------------------- caching

def test_second_run_reuses_cached_stages(tmp_path, capsys):
    cfg = make_cfg()
    ws = tmp_path / "ws"
    rec1 = run_pipeline(cfg, ws, run_name="first", log=lambda *a: None)
    assert rec1.cache_hits == []
    rec2 = run_pipeline(cfg, ws, run_name="second", log=lambda *a: None)
    assert len(rec2.cache_hits) >= 2  # corpus/dataset/features all cached


def test_cache_collision_detected(tmp_path):
    cfg = make_cfg()
    ws = Workspace(tmp_path / "ws")
    d = ws.stage_dir("corpus", cfg.stage_hash("corpus"))
    d.mkdir(parents=True)
    (d / ".complete").write_text("sha256:" + "0" * 64 + "\n")
    with pytest.raises(PipelineError, match="collision"):
        ws.stage_cached("corpus", cfg.stage_hash("corpus"))


def test_artifact_format_change_rebuilds_cached_features(tmp_path, monkeypatch):
    cfg = make_cfg()
    ws = tmp_path / "ws"
    run_pipeline(cfg, ws, run_name="first", log=lambda *a: None)
    assert Workspace(ws).stage_cached("features", cfg.stage_hash("features"))
    monkeypatch.setattr(harness, "ARTIFACT_FORMAT", "older-layout")
    assert not Workspace(ws).stage_cached("features", cfg.stage_hash("features"))
    record = run_pipeline(cfg, ws, run_name="second", log=lambda *a: None)
    assert not any(hit.startswith("features:") for hit in record.cache_hits)


def test_failed_stage_build_publishes_nothing(tmp_path):
    cfg = make_cfg()
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    h = cfg.stage_hash("corpus")
    with pytest.raises(RuntimeError, match="mid-write"):
        with ws.new_stage("corpus", h) as d:
            (d / "NOTEEVENTS.csv").write_text("ROW_ID\n")
            raise RuntimeError("mid-write")
    assert list(ws.stage_dir("corpus", h).parent.iterdir()) == []
    assert not ws.stage_cached("corpus", h)
    record = run_pipeline(cfg, ws.root, run_name="after", log=lambda *a: None)
    assert record.cache_hits == []
    assert ws.stage_cached("corpus", h)


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

SEQ_FEATURES = {"feature.track": "wordseq", "model.preset": "", "model.family": "gru",
                "model.hidden": "4", "train.max_epochs": "1", "feature.seq_len": "20",
                "feature.w2v_dim": "8", "feature.epochs": "1"}


def _splits(cfg, ws):
    notes, diags = harness.stage_corpus(cfg, ws)
    return harness.stage_dataset(cfg, ws, notes, diags)[:3]


def test_warm_dataset_equals_cold(tmp_path):
    cfg = make_cfg()
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    notes, diags = harness.stage_corpus(cfg, ws)
    *cold, cold_catalog = harness.stage_dataset(cfg, ws, notes, diags)
    *warm, warm_catalog = harness.stage_dataset(cfg, ws, notes, diags)
    assert ws.cache_hits[-1] == "dataset:" + cfg.stage_hash("dataset")[:12]
    assert warm_catalog == cold_catalog
    for w, c in zip(warm, cold):
        assert w.catalog == c.catalog
        assert w.coverage == c.coverage
        assert [ex.hadm_id for ex in w.examples] == [ex.hadm_id for ex in c.examples]
        assert w.texts() == c.texts()
        assert all(_same_array(a.label_vector, b.label_vector)
                   for a, b in zip(w.examples, c.examples))


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
    docs = [textproc.tokenize(t) for t in _splits(make_cfg(**SEQ_FEATURES), ws)[0].texts()]
    vocab = textproc.build_vocabulary(docs)
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
    assert ws.cache_hits[-1] == "features:" + cfg.stage_hash("features")[:12]
    assert warm.kind == cold.kind == harness.TRACK_KINDS[cfg.get("feature.track")]
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


@pytest.mark.parametrize("damage", ["truncated", "row_count"])
def test_damaged_cached_embedding_is_format_error_naming_it(tmp_path, damage):
    cfg = make_cfg(**SEQ_FEATURES)
    ws = Workspace(tmp_path / "ws", log=lambda *a: None)
    splits = _splits(cfg, ws)
    cold = harness.stage_features(cfg, ws, splits)
    path = ws.stage_dir("features", cfg.stage_hash("features")) / "embedding.npy"
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-40])
    else:
        features.save_dense(cold.embedding.matrix[:-1], path)
    with pytest.raises(FormatError, match="embedding.npy"):
        harness.stage_features(cfg, ws, splits)


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
    assert set(data["metrics_test"]) >= {"precision", "recall", "f1", "hamming_loss"}


def test_config_echo_reparses_to_the_same_hash(finished_run):
    root, record = finished_run
    text = (root / "runs" / "base" / "config.txt").read_text()
    cfg = ExperimentConfig(parse_config_text(text))
    assert cfg.stage_hash("run") == record.config_hash


def test_rewrite_reports_reproduces_stored_metrics(finished_run):
    root, _ = finished_run
    run_dir = root / "runs" / "base"
    names = ("metrics_test.json", "pr_test.npz")
    before = [(run_dir / name).read_bytes() for name in names]
    rewrite_reports(run_dir)
    assert [(run_dir / name).read_bytes() for name in names] == before


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
        rep, _ = harness.report_from_probs(probs, y[30:], model.threshold, ["a", "b"])
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
    assert cfg.get_int("train.seed") == 123
    assert cfg.get_int("feature.seed") == 123
    assert cfg.get_int("dataset.split_seed") == 123
    assert cfg.get_int("dataset.synthetic.seed") == 123


def test_cli_oracle_subcommand(capsys):
    assert cli.main(["oracle", "--pairs", "20"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out.lower()
    assert re.search(r"^oracle suite took \d+\.\d{2} s \(\d+ runs/s\)$", out, re.M)
