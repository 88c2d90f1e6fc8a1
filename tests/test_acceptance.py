"""Top-level acceptance checks: one test per shipping guarantee.

Each test here states a user-facing promise about the toolkit (metric
correctness, gradient correctness, learnability, determinism, real-data
parity) and verifies it end to end. Unit-level edge cases live in the
per-module test files; this file is the contract.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from codeset_bench import (
    cli,
    corpus,
    features,
    harness,
    metrics,
    models,
    oracles,
    textproc,
)
from codeset_bench.errors import DatasetError
from codeset_bench.neuralcore import losses as nc_losses

pytestmark = pytest.mark.filterwarnings("ignore:dataset.k")


# ------------------------------------------------------------ shared helpers


def _generate_corpus(tmp_dir, spec):
    notes_path, diags_path = corpus.generate_synthetic_corpus(spec, tmp_dir)
    summaries, _ = corpus.load_noteevents(notes_path)
    codes, _ = corpus.load_diagnoses(diags_path)
    catalog = corpus.select_top_labels(codes, k=spec.n_labels, mode="code")
    return corpus.build_dataset(summaries, codes, catalog)


def _fit_sequence(preset_name, splits, seq_len, epochs, lr, seed, embed_dim=16):
    (tr_docs, ytr), (va_docs, yva), (te_docs, yte) = splits
    vocab = textproc.build_vocabulary(tr_docs)
    xtr = features.encode_corpus_sequences(tr_docs, vocab, max_len=seq_len)
    xva = features.encode_corpus_sequences(va_docs, vocab, max_len=seq_len)
    xte = features.encode_corpus_sequences(te_docs, vocab, max_len=seq_len)
    cfg = models.TrainConfig(
        max_epochs=epochs, patience=epochs, batch_size=32,
        optimizer="rmsprop", learning_rate=lr, seed=seed,
    )
    model = models.fit(
        models.preset(preset_name), (xtr, ytr), (xva, yva), cfg,
        vocab_size=len(vocab.index_to_token), embed_dim=embed_dim,
    )
    predicted = (models.predict_proba(model, xte) >= 0.5).astype(np.uint8)
    return metrics.example_based_metrics(predicted, yte).f1


def _cosine(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


# ----------------------------------------------------- 1. metric correctness


def test_metrics_match_bruteforce_oracles_on_1000_random_runs():
    """Every reported metric agrees with an independent set/pairwise
    reimplementation to 1e-12 over 1000 seeded random (64, 10) runs,
    inside a 10 second budget."""
    t0 = time.time()
    worst = oracles.run_oracle_suite(n_pairs=1000, n=64, q=10, seed=0, tol=1e-12)
    elapsed = time.time() - t0
    assert set(worst) == {
        "precision", "recall", "f1", "accuracy", "hamming", "auc", "ap", "p_at_5",
    }
    for name, dev in worst.items():
        assert dev <= 1e-12, f"{name} deviates from oracle by {dev}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------- 2. gradient correctness


def test_gradient_checks_pass_for_every_layer_family():
    """Analytic gradients match central finite differences for dense,
    conv1d, max pooling, the sigmoid+BCE head, a conv stack, and
    full BPTT through simple RNN / LSTM / GRU on length-6 sequences:
    relative error < 1e-5 feedforward, < 1e-4 recurrent, under 2 minutes."""
    t0 = time.time()
    results = cli.gradcheck_suite(seed=0)
    elapsed = time.time() - t0

    names = {name for name, _, _ in results}
    for required in ("dense", "conv1d", "max_pool1d",
                     "dense+sigmoid+bce", "rnn_simple(bptt-6)", "lstm(bptt-6)",
                     "gru(bptt-6)"):
        assert required in names, f"missing gradient check for {required}"

    for name, err, _ in results:
        recurrent = any(tag in name for tag in ("rnn", "lstm", "gru"))
        bound = 1e-4 if recurrent else 1e-5
        assert err < bound, f"{name}: max relative error {err:.3e} >= {bound:.0e}"
    assert elapsed < 120.0, f"gradient checks took {elapsed:.1f}s"


# --------------------------------------------------------- 3. tf-idf fixture


def test_tfidf_hand_fixture_values_and_config_selection():
    """On a five-document fixture, idf (natural log, +1 shift) and raw
    count x idf entries match hand arithmetic to 1e-9, and the two named
    vocabulary recipes select exactly the expected token sets."""
    docs = textproc.encode_documents([
        ["alpha", "beta", "gamma"],
        ["alpha", "beta"],
        ["alpha", "delta"],
        ["alpha", "epsilon", "delta"],
        ["alpha", "beta", "beta", "zeta"],
    ])
    vocab = textproc.build_vocabulary(docs)
    table = features.compute_idf(vocab)

    def idf_of(token):
        return table.idf[vocab.token_to_index[token]]

    assert abs(idf_of("alpha") - 1.0) < 1e-9  # in all 5 docs: ln(5/5)+1
    assert abs(idf_of("beta") - (math.log(5 / 3) + 1)) < 1e-9
    assert abs(idf_of("delta") - (math.log(5 / 2) + 1)) < 1e-9
    for rare in ("gamma", "epsilon", "zeta"):
        assert abs(idf_of(rare) - (math.log(5.0) + 1)) < 1e-9

    mat = features.tfidf_vectorize(docs, table).toarray()
    col = {tok: i - 1 for tok, i in vocab.token_to_index.items()}
    assert abs(mat[0, col["alpha"]] - 1.0) < 1e-9
    assert abs(mat[4, col["beta"]] - 2 * (math.log(5 / 3) + 1)) < 1e-9  # count 2
    assert abs(mat[3, col["delta"]] - (math.log(5 / 2) + 1)) < 1e-9
    assert mat[1, col["gamma"]] == 0.0

    # Large recipe: a 40k cap never binds on six tokens; all survive.
    big = features.build_tfidf_table(docs, features.TFIDF_LARGE)
    assert set(big.vocabulary.token_to_index) == {
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    }
    # Filtered recipe: its df floor of 10 exceeds every df here, so the
    # expected selection on this fixture is the empty set, reported as
    # a dataset error rather than a silently empty vocabulary.
    with pytest.raises(DatasetError):
        features.build_tfidf_table(docs, features.TFIDF_FILTERED)


# ------------------------------------------------------ 4. hand spot values


def test_hand_computed_spot_values():
    """BCE([0.5,0.5],[1,0]) = ln 2 to 1e-12; AP([.9,.8,.7],[1,0,1]) = 5/6
    to 1e-12; an all-zero predictor's hamming loss equals the truth bit
    density exactly."""
    loss, _ = nc_losses.bce_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert abs(loss - math.log(2.0)) < 1e-12

    (ap,) = metrics.average_precision(
        np.array([[0.9], [0.8], [0.7]]), np.array([[1], [0], [1]])
    )
    assert abs(ap - 5.0 / 6.0) < 1e-12

    rng = np.random.default_rng(7)
    truth = (rng.random((40, 10)) < 0.3).astype(np.uint8)
    truth[0, 0] = 1  # keep density nonzero
    zeros = np.zeros_like(truth)
    assert metrics.hamming_loss(zeros, truth) == truth.mean()


# ----------------------------------------------------------- 5. memorization


@pytest.mark.slow
def test_each_network_memorizes_separable_synthetic_corpus(tmp_path):
    """FNN, CNN, LSTM and GRU all reach training F1 >= 0.95 on a
    200-example, 10-label keyword-separable corpus within their epoch
    budgets, each inside 10 minutes."""
    spec = corpus.SyntheticSpec(
        n_labels=10, n_notes=210, seed=0, noise_code_rate=0.0, extra_note_rate=0.0
    )
    ds = _generate_corpus(tmp_path / "memo", spec).take(np.arange(200))
    assert len(ds) == 200
    docs, y = ds.docs, ds.labels

    # (preset, epochs, learning rate); None takes the optimizer default.
    budgets = [
        ("fnn-desk", 30, None),
        ("cnn-desk", 90, None),
        ("gru-desk", 120, 3e-3),
        ("lstm-desk", 140, 5e-3),
    ]
    vocab = textproc.build_vocabulary(docs)
    x_seq = features.encode_corpus_sequences(docs, vocab, max_len=80)
    table = features.build_tfidf_table(
        docs, features.TfidfConfig(name="fit", strategy="full_rank")
    )
    x_sparse = features.tfidf_vectorize(docs, table)

    for preset_name, epochs, lr in budgets:
        spec_m = models.preset(preset_name)
        x = x_sparse if spec_m.family == "fnn" else x_seq
        cfg = models.TrainConfig(
            max_epochs=epochs, patience=epochs, batch_size=32,
            optimizer="rmsprop", learning_rate=lr, seed=0,
        )
        t0 = time.time()
        kwargs = {}
        if spec_m.family != "fnn":
            kwargs = {"vocab_size": len(vocab.index_to_token), "embed_dim": 32}
        model = models.fit(spec_m, (x, y), (x, y), cfg, **kwargs)
        elapsed = time.time() - t0
        predicted = (models.predict_proba(model, x) >= 0.5).astype(np.uint8)
        f1 = metrics.example_based_metrics(predicted, y).f1
        assert f1 >= 0.95, f"{preset_name}: training F1 {f1:.4f} < 0.95"
        assert elapsed < 600.0, f"{preset_name}: took {elapsed:.0f}s"


# ------------------------------------------------------ 6. order sensitivity


@pytest.mark.slow
def test_gated_recurrence_beats_order_blind_baseline(tmp_path):
    """On the order-sensitive synthetic task (~2000 train examples) the
    token bag is identical whichever way a keyword/negator pair is
    ordered, so logistic regression over averaged word vectors has no
    signal; GRU and LSTM test F1 must beat it by >= 0.10, and a simple
    RNN fed length-1500 padded sequences must trail GRU by >= 0.15.
    Soft criterion: up to two retries on fresh seeds."""
    attempts = []
    for seed in (0, 1, 2):
        spec = corpus.SyntheticSpec(
            n_labels=10, n_notes=4000, order_sensitive=True, seed=seed,
            noise_code_rate=0.0, extra_note_rate=0.0,
        )
        ds = _generate_corpus(tmp_path / f"order{seed}", spec)
        parts = corpus.split_dataset(ds, seed)
        splits = [(part.docs, part.labels) for part in parts]
        (tr_docs, ytr), _, (te_docs, yte) = splits

        w2v = features.train_word2vec_cbow(tr_docs, dim=16, window=5, epochs=3, seed=seed)
        emb = features.EmbeddingMatrix(vocabulary=w2v.vocabulary, matrix=w2v.vectors)

        x_tr, x_te = (features.average_embeddings(docs, emb) for docs in (tr_docs, te_docs))
        lr_model = models.train_logreg_ovr(x_tr, ytr, iters=300)
        f1_lr = metrics.example_based_metrics(
            (models.predict_proba(lr_model, x_te) >= 0.5).astype(np.uint8), yte
        ).f1
        f1_gru = _fit_sequence("gru-desk", splits, 40, 40, 3e-3, seed)
        f1_lstm = _fit_sequence("lstm-desk", splits, 40, 50, 5e-3, seed)
        f1_rnn = _fit_sequence("rnn-desk", splits, 1500, 12, 3e-3, seed)

        attempts.append(
            f"seed {seed}: lr={f1_lr:.4f} gru={f1_gru:.4f} "
            f"lstm={f1_lstm:.4f} rnn@1500={f1_rnn:.4f}"
        )
        if (
            f1_gru - f1_lr >= 0.10
            and f1_lstm - f1_lr >= 0.10
            and f1_gru - f1_rnn >= 0.15
        ):
            return
    pytest.fail("order-sensitivity margins unmet on 3 seeds: " + "; ".join(attempts))


# -------------------------------------------------------- 7. early stopping


def test_early_stopping_epoch_and_weight_restoration():
    """Under both stock regimes (500 epochs / patience 10 and 200 / 5) a
    scripted validation-loss sequence stops exactly `patience` epochs
    after the best one, and the best epoch's weights come back."""
    assert (models.CNN_REGIME.max_epochs, models.CNN_REGIME.patience) == (500, 10)
    assert (models.RNN_REGIME.max_epochs, models.RNN_REGIME.patience) == (200, 5)

    # (regime, best epoch): losses fall until `best`, then plateau above it.
    for regime, best in ((models.CNN_REGIME, 2), (models.RNN_REGIME, 3)):
        state = {"weights": 0, "saved": None, "train_calls": 0}

        def train_epoch(epoch):
            state["train_calls"] += 1
            state["weights"] = epoch  # stand-in for drifting parameters
            return 1.0

        def val_epoch(epoch):
            return 1.0 - 0.1 * epoch if epoch <= best else 1.0

        def snapshot():
            state["saved"] = state["weights"]

        def restore():
            state["weights"] = state["saved"]

        history, stopped, best_epoch = models.run_training_loop(
            train_epoch, val_epoch, snapshot, restore,
            max_epochs=regime.max_epochs, patience=regime.patience,
        )
        assert stopped == best + regime.patience
        assert best_epoch == best
        assert state["train_calls"] == stopped  # no work past the stop
        assert state["weights"] == best  # best-epoch weights restored
        assert len(history) == stopped


# ------------------------------------------------------------- 8. CBOW sanity


def test_cbow_separates_topics_and_loss_declines():
    """After 5 epochs on a two-topic corpus, mean intra-topic cosine
    similarity exceeds inter-topic, and epoch-averaged loss never rises
    more than 5% over the previous epoch."""
    rng = np.random.default_rng(0)
    art = [f"art{i}" for i in range(8)]
    bio = [f"bio{i}" for i in range(8)]
    docs = []
    for _ in range(30):
        docs.append(list(rng.choice(art, size=12)))
        docs.append(list(rng.choice(bio, size=12)))

    res = features.train_word2vec_cbow(
        textproc.encode_documents(docs), dim=16, window=5, epochs=5, seed=0)
    lookup = res.vocabulary.token_to_index
    assert all(t in lookup for t in art + bio)
    a_vecs = [res.vectors[lookup[t]] for t in art]
    b_vecs = [res.vectors[lookup[t]] for t in bio]

    intra = [
        _cosine(vs[i], vs[j])
        for vs in (a_vecs, b_vecs)
        for i in range(8)
        for j in range(i + 1, 8)
    ]
    inter = [_cosine(u, v) for u in a_vecs for v in b_vecs]
    assert np.mean(intra) > np.mean(inter)

    per_epoch = res.losses.reshape(5, -1).mean(axis=1)
    for i in range(4):
        assert per_epoch[i + 1] <= 1.05 * per_epoch[i], (
            f"epoch {i + 2} loss {per_epoch[i + 1]:.5f} rose past "
            f"1.05 x {per_epoch[i]:.5f}"
        )


# -------------------------------------------------------- 9. determinism


def test_pipeline_rerun_yields_byte_identical_metrics(tmp_path):
    """Two independent full pipeline runs with one config and seed
    produce byte-identical train and test metrics JSON files."""
    raw = {
        "dataset.source": "synthetic",
        "dataset.k": "6",
        "dataset.synthetic.n_labels": "6",
        "dataset.synthetic.n_notes": "120",
        "dataset.synthetic.seed": "3",
        "feature.track": "wordseq",
        "feature.seq_len": "60",
        "feature.w2v_dim": "16",
        "feature.embedding_source": "random",
        "model.preset": "gru-desk",
        "train.max_epochs": "6",
        "train.patience": "6",
    }
    payloads = []
    for name in ("first", "second"):
        cfg = harness.ExperimentConfig(dict(raw))
        record = harness.run_pipeline(cfg, tmp_path / name, run_name="det", log=lambda *_: None)
        run_dir = Path(record.artifacts["metrics_test"]).parent
        payloads.append(
            (run_dir / "metrics_train.json").read_bytes()
            + (run_dir / "metrics_test.json").read_bytes()
        )
    assert payloads[0] == payloads[1]


# ------------------------------------------------- 10. real-data parity


REAL_DATA_DIR = os.environ.get("CODESET_BENCH_MIMIC_DIR", "")

TOP10_CODES = [
    ("4019", 20046), ("4280", 12842), ("42731", 12589), ("41401", 12178),
    ("5849", 8906), ("25000", 8783), ("2724", 8503), ("51881", 7249),
    ("5990", 6442), ("53081", 6154),
]


@pytest.mark.skipif(
    not REAL_DATA_DIR,
    reason="set CODESET_BENCH_MIMIC_DIR to a directory containing "
    "NOTEEVENTS.csv and DIAGNOSES_ICD.csv",
)
def test_real_csv_preparation_matches_published_statistics():
    """Against the real clinical CSVs: the ten most frequent diagnosis
    codes and their admission counts match the published corpus
    statistics exactly, and top-10/top-50 code coverage of discharge
    admissions lands within 0.1 percentage points."""
    root = Path(REAL_DATA_DIR)
    summaries, _ = corpus.load_noteevents(root / "NOTEEVENTS.csv")
    codes, _ = corpus.load_diagnoses(root / "DIAGNOSES_ICD.csv")

    catalog10 = corpus.select_top_labels(codes, k=10, mode="code")
    assert list(catalog10.labels) == TOP10_CODES

    cov10 = corpus.build_dataset(summaries, codes, catalog10).coverage
    assert abs(cov10 * 100 - 76.93) <= 0.1, f"top-10 coverage {cov10:.2%}"

    catalog50 = corpus.select_top_labels(codes, k=50, mode="code")
    cov50 = corpus.build_dataset(summaries, codes, catalog50).coverage
    assert abs(cov50 * 100 - 93.60) <= 0.1, f"top-50 coverage {cov50:.2%}"
