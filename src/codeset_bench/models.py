"""Model families and training: one-vs-rest logistic regression and
random forests, and the neural families (FNN, CNN, simple RNN, LSTM,
GRU) assembled from the numerical core, with named presets, mini-batch
training, and patience-based early stopping.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from . import neuralcore as nc
from .errors import ConfigError, DatasetError, NumericError, ShapeError
from .features import EmbeddingMatrix

FAMILIES = ("logreg", "rforest", "fnn", "cnn", "rnn_simple", "lstm", "gru")
NEURAL_FAMILIES = ("fnn", "cnn", "rnn_simple", "lstm", "gru")
RECURRENT_FAMILIES = ("rnn_simple", "lstm", "gru")

# feature kind each family can consume
FAMILY_INPUT_KINDS = {
    "logreg": ("sparse", "dense"),
    "rforest": ("dense", "sparse"),
    "fnn": ("sparse", "dense"),
    "cnn": ("sequence",),
    "rnn_simple": ("sequence",),
    "lstm": ("sequence",),
    "gru": ("sequence",),
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plan for one model.

    hidden: dense widths (fnn) or recurrent unit counts (rnn/lstm/gru).
    conv_blocks: (filters, width, pool) triples applied in order (cnn).
    fc: trailing fully-connected width after the conv stack (cnn).
    """

    family: str
    input_kind: str
    hidden: tuple[int, ...] = ()
    conv_blocks: tuple[tuple[int, int, int], ...] = ()
    fc: int | None = None
    dropout: float = 0.0
    bidirectional: bool = False
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.input_kind not in FAMILY_INPUT_KINDS[self.family]:
            raise ConfigError(
                f"family {self.family!r} cannot consume {self.input_kind!r} features"
            )
        if self.bidirectional and self.family not in RECURRENT_FAMILIES:
            raise ConfigError("bidirectional applies to recurrent families only")


_PRESETS: dict[str, ModelSpec] = {
    # reference architectures at published scale
    "fnn-best": ModelSpec("fnn", "sparse", hidden=(5000, 500, 100), name="fnn-best"),
    "cnn-best": ModelSpec(
        "cnn",
        "sequence",
        conv_blocks=((128, 5, 5), (128, 5, 5), (128, 5, 35)),
        fc=128,
        name="cnn-best",
    ),
    "lstm-best": ModelSpec(
        "lstm", "sequence", hidden=(256, 64), dropout=0.5, name="lstm-best"
    ),
    "gru-best": ModelSpec(
        "gru", "sequence", hidden=(256, 64), dropout=0.5, name="gru-best"
    ),
    "rnn-best": ModelSpec(
        "rnn_simple", "sequence", hidden=(256, 64), dropout=0.5, name="rnn-best"
    ),
    # shrunk desk-scale counterparts (same shapes, small widths)
    "fnn-desk": ModelSpec("fnn", "sparse", hidden=(512, 128, 64), name="fnn-desk"),
    "cnn-desk": ModelSpec(
        "cnn",
        "sequence",
        conv_blocks=((32, 5, 5), (32, 5, 5)),
        fc=32,
        name="cnn-desk",
    ),
    "lstm-desk": ModelSpec("lstm", "sequence", hidden=(32, 16), name="lstm-desk"),
    "gru-desk": ModelSpec("gru", "sequence", hidden=(32, 16), name="gru-desk"),
    "rnn-desk": ModelSpec("rnn_simple", "sequence", hidden=(32, 16), name="rnn-desk"),
    "logreg": ModelSpec("logreg", "sparse", name="logreg"),
    "rforest": ModelSpec("rforest", "dense", name="rforest"),
}


def preset(name: str) -> ModelSpec:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None


def preset_names() -> list[str]:
    return sorted(_PRESETS)


@dataclass
class TrainConfig:
    max_epochs: int = 200
    patience: int = 5
    batch_size: int = 32
    optimizer: str = "rmsprop"
    learning_rate: float | None = None  # None = optimizer default
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs, patience, batch_size must be >= 1")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError("threshold must lie strictly between 0 and 1")
        if self.optimizer not in ("sgd", "rmsprop"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


# training regimes reported for the published runs
CNN_REGIME = TrainConfig(max_epochs=500, patience=10)
RNN_REGIME = TrainConfig(max_epochs=200, patience=5)


@dataclass
class TrainedModel:
    spec: ModelSpec
    threshold: float
    network: nc.Sequential | None = None
    submodels: list | None = None
    history: list[tuple[float, float]] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    degenerate_labels: list[int] = field(default_factory=list)

    @property
    def k(self) -> int:
        if self.submodels is not None:
            return len(self.submodels)
        return self.network.layers[-2].b.shape[0]


def _n_workers() -> int:
    raw = os.environ.get("CODESET_BENCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _ovr_map(fn, jobs: list):
    workers = _n_workers()
    if workers == 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# Logistic regression (one-vs-rest)
# ---------------------------------------------------------------------------


@dataclass
class LogisticSubmodel:
    w: np.ndarray
    b: float
    degenerate: bool


def _train_logistic_column(x, y, iters: int, lr: float) -> LogisticSubmodel:
    """Full-batch gradient descent from zero weights on clipped BCE.

    The gradient is exact for the clipped loss: examples whose prediction
    sits in the clipped region contribute nothing, which also bounds
    weight growth on separable data.
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    y = y.astype(np.float64)
    eps = nc.BCE_EPS
    for _ in range(iters):
        z = x @ w + b
        p = expit(z)
        g = np.where((p >= eps) & (p <= 1.0 - eps), p - y, 0.0) / n
        gw = x.T @ g
        if sp.issparse(gw):  # sparse x makes x.T @ g a matrix
            gw = np.asarray(gw).ravel()
        w -= lr * gw
        b -= lr * float(g.sum())
    if not np.all(np.isfinite(w)) or not math.isfinite(b):
        raise NumericError("logistic regression diverged")
    return LogisticSubmodel(w=w, b=b, degenerate=bool(y.min() == y.max()))


def train_logreg_ovr(
    features, labels: np.ndarray, iters: int = 100, lr: float = 0.5, k: int | None = None
) -> TrainedModel:
    """k independent binary logistic regressions, one per label column.

    Deterministic: zero initialization and full-batch descent leave no
    randomness. Degenerate (single-class) columns still train but are
    flagged.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError("labels must be [n, k]")
    if k is None:
        k = labels.shape[1]
    if k != labels.shape[1]:
        raise ShapeError(f"k={k} but labels have {labels.shape[1]} columns")
    if iters < 0:
        raise ConfigError("iters must be >= 0")
    x = features if sp.issparse(features) else np.asarray(features, dtype=np.float64)

    subs = _ovr_map(
        lambda j: _train_logistic_column(x, labels[:, j], iters, lr), list(range(k))
    )
    spec = ModelSpec("logreg", "sparse" if sp.issparse(x) else "dense", name="logreg")
    return TrainedModel(
        spec=spec,
        threshold=0.5,
        submodels=subs,
        stopped_epoch=iters,
        degenerate_labels=[j for j, s in enumerate(subs) if s.degenerate],
    )


# ---------------------------------------------------------------------------
# Random forest (one-vs-rest)
# ---------------------------------------------------------------------------


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    leaf_mean: float = -1.0  # >= 0 marks a leaf

    def depth(self) -> int:
        if self.leaf_mean >= 0:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


def _best_split(x, y, feats) -> tuple[float, int, float] | None:
    """Lowest weighted Gini over candidate features; thresholds are
    midpoints between consecutive distinct values. First feature / lowest
    threshold wins ties."""
    m = len(y)
    total_pos = float(y.sum())
    best = None
    for f in feats:
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order].astype(np.float64)
        cut = np.nonzero(sv[:-1] < sv[1:])[0]
        if cut.size == 0:
            continue
        n_l = (cut + 1).astype(np.float64)
        n_r = m - n_l
        pos_l = np.cumsum(sy)[cut]
        pos_r = total_pos - pos_l
        p_l = pos_l / n_l
        p_r = pos_r / n_r
        gini = (n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)) / m
        i = int(np.argmin(gini))
        if best is None or gini[i] < best[0] - 1e-15:
            thr = float((sv[cut[i]] + sv[cut[i] + 1]) / 2.0)
            best = (float(gini[i]), int(f), thr)
    return best


def _grow_tree(x, y, rng, max_depth: int, n_try: int, depth: int = 0) -> _TreeNode:
    if depth >= max_depth or len(y) < 2 or y.min() == y.max():
        return _TreeNode(leaf_mean=float(y.mean()))
    feats = rng.choice(x.shape[1], size=n_try, replace=False)
    best = _best_split(x, y, feats)
    if best is None:
        return _TreeNode(leaf_mean=float(y.mean()))
    _, f, thr = best
    mask = x[:, f] <= thr
    return _TreeNode(
        feature=f,
        threshold=thr,
        left=_grow_tree(x[mask], y[mask], rng, max_depth, n_try, depth + 1),
        right=_grow_tree(x[~mask], y[~mask], rng, max_depth, n_try, depth + 1),
    )


def _tree_votes(node: _TreeNode, x: np.ndarray) -> np.ndarray:
    """Hard 0/1 vote per row (leaf mean >= 0.5 votes positive)."""
    out = np.empty(x.shape[0], dtype=np.float64)
    idx = np.arange(x.shape[0])

    def descend(node, rows):
        if node.leaf_mean >= 0:
            out[rows] = 1.0 if node.leaf_mean >= 0.5 else 0.0
            return
        mask = x[rows, node.feature] <= node.threshold
        if mask.any():
            descend(node.left, rows[mask])
        if (~mask).any():
            descend(node.right, rows[~mask])

    descend(node, idx)
    return out


@dataclass
class ForestSubmodel:
    trees: list[_TreeNode]
    degenerate: bool


def train_random_forest_ovr(
    features,
    labels: np.ndarray,
    n_trees: int = 64,
    max_depth: int = 10,
    seed: int = 0,
    k: int | None = None,
    allow_dense_blowup: bool = False,
) -> TrainedModel:
    """Per label: n_trees CART trees on bootstrap resamples, Gini
    impurity, sqrt(d) random feature candidates per split; the forest
    predicts the fraction of positive tree votes.

    Every label column uses the identical seed stream, so permuting the
    label columns permutes the fitted sub-models correspondingly.
    """
    labels = np.asarray(labels)
    if k is None:
        k = labels.shape[1]
    if sp.issparse(features):
        if features.shape[1] > 4096 and not allow_dense_blowup:
            raise ConfigError(
                f"densifying {features.shape[1]}-dim sparse features needs "
                "allow_dense_blowup=True"
            )
        features = np.asarray(features.todense(), dtype=np.float64)
    x = np.asarray(features, dtype=np.float64)
    if x.size == 0:
        raise DatasetError("empty feature matrix")
    n, d = x.shape
    n_try = max(1, int(round(math.sqrt(d))))

    def fit_label(j: int) -> ForestSubmodel:
        y = labels[:, j].astype(np.int64)
        rng = np.random.default_rng(seed)  # same stream for every label
        trees = []
        for _ in range(n_trees):
            boot = rng.integers(0, n, size=n)
            trees.append(_grow_tree(x[boot], y[boot], rng, max_depth, n_try))
        return ForestSubmodel(trees=trees, degenerate=bool(y.min() == y.max()))

    subs = _ovr_map(fit_label, list(range(k)))
    spec = ModelSpec("rforest", "dense", name="rforest")
    return TrainedModel(
        spec=spec,
        threshold=0.5,
        submodels=subs,
        stopped_epoch=n_trees,
        degenerate_labels=[j for j, s in enumerate(subs) if s.degenerate],
    )


# ---------------------------------------------------------------------------
# Neural network assembly
# ---------------------------------------------------------------------------


def build_network(
    spec: ModelSpec,
    k: int,
    input_dim: int | None = None,
    embedding: EmbeddingMatrix | np.ndarray | None = None,
    vocab_size: int | None = None,
    embed_dim: int = 32,
    seq_len: int | None = None,
    seed: int = 0,
    train_embedding: bool = True,
) -> nc.Sequential:
    """Instantiate a Sequential for a neural ModelSpec.

    fnn needs input_dim. Sequence families need an embedding matrix (or
    vocab_size + embed_dim for a seeded random one); cnn additionally
    needs seq_len to size its flatten->fc transition.
    """
    if spec.family not in NEURAL_FAMILIES:
        raise ConfigError(f"{spec.family!r} is not a neural family")
    rng = np.random.default_rng(seed)

    if spec.family == "fnn":
        if input_dim is None:
            raise ConfigError("fnn needs input_dim")
        layers: list[nc.Layer] = []
        prev = input_dim
        for i, width in enumerate(spec.hidden):
            layers.append(nc.Dense(prev, width, rng, name=f"fc{i}"))
            layers.append(nc.ReLU())
            if spec.dropout > 0:
                layers.append(nc.Dropout(spec.dropout, rng))
            prev = width
        layers.append(nc.Dense(prev, k, rng, name="out"))
        layers.append(nc.Sigmoid())
        return nc.Sequential(layers)

    # sequence families share the embedding front end
    if embedding is not None:
        matrix = embedding.matrix if isinstance(embedding, EmbeddingMatrix) else embedding
    else:
        if vocab_size is None:
            raise ConfigError("sequence models need an embedding or vocab_size")
        matrix = nc.glorot_uniform(rng, (vocab_size + 1, embed_dim), vocab_size, embed_dim)
        matrix[0] = 0.0
    emb_dim = matrix.shape[1]
    layers = [nc.Embedding(matrix, trainable=train_embedding)]

    if spec.family == "cnn":
        if not spec.conv_blocks:
            raise ConfigError("cnn spec has no conv blocks")
        if seq_len is None:
            raise ConfigError("cnn needs seq_len to size its dense head")
        length = seq_len
        prev_ch = emb_dim
        for i, (filters, width, pool) in enumerate(spec.conv_blocks):
            if length < width:
                raise ConfigError(
                    f"sequence collapses to {length} < filter width {width} "
                    f"at conv block {i}"
                )
            layers.append(nc.Conv1d(prev_ch, filters, width, rng, name=f"conv{i}"))
            layers.append(nc.ReLU())
            layers.append(nc.MaxPool1d(pool))
            length = math.ceil((length - width + 1) / pool)
            prev_ch = filters
        layers.append(nc.Flatten())
        flat = length * prev_ch
        if spec.fc:
            layers.append(nc.Dense(flat, spec.fc, rng, name="fc"))
            layers.append(nc.ReLU())
            flat = spec.fc
        layers.append(nc.Dense(flat, k, rng, name="out"))
        layers.append(nc.Sigmoid())
        return nc.Sequential(layers)

    # recurrent families
    if not spec.hidden:
        raise ConfigError("recurrent spec needs at least one hidden size")
    cell = {"rnn_simple": nc.SimpleRNN, "lstm": nc.LSTM, "gru": nc.GRU}[spec.family]
    prev = emb_dim
    for i, units in enumerate(spec.hidden):
        last = i == len(spec.hidden) - 1
        def make(tag):
            return cell(prev, units, rng, return_sequences=not last, name=f"{spec.family}{i}{tag}")
        if spec.bidirectional:
            layers.append(nc.Bidirectional(make("f"), make("b")))
            prev = 2 * units
        else:
            layers.append(make(""))
            prev = units
        if spec.dropout > 0:
            layers.append(nc.Dropout(spec.dropout, rng))
    layers.append(nc.Dense(prev, k, rng, name="out"))
    layers.append(nc.Sigmoid())
    return nc.Sequential(layers)


# ---------------------------------------------------------------------------
# Training loop with early stopping
# ---------------------------------------------------------------------------


def run_training_loop(
    train_epoch,
    val_epoch,
    snapshot,
    restore,
    max_epochs: int,
    patience: int,
) -> tuple[list[tuple[float, float]], int, int]:
    """Generic patience loop over caller-supplied closures.

    Epochs are 1-based. An epoch improves only when its validation loss
    is strictly below the best seen; `patience` consecutive
    non-improvements stop training. The best epoch's snapshot is restored
    before returning (history, stopped_epoch, best_epoch).
    """
    best = math.inf
    best_epoch = 0
    fails = 0
    history: list[tuple[float, float]] = []
    stopped = max_epochs
    for epoch in range(1, max_epochs + 1):
        train_loss = float(train_epoch(epoch))
        val_loss = float(val_epoch(epoch))
        history.append((train_loss, val_loss))
        if val_loss < best:
            best = val_loss
            best_epoch = epoch
            fails = 0
            snapshot()
        else:
            fails += 1
            if fails >= patience:
                stopped = epoch
                break
    restore()
    return history, stopped, best_epoch


def _batch_rows(x, idx):
    rows = x[idx]
    if sp.issparse(rows):
        rows = np.asarray(rows.todense(), dtype=np.float64)
    return rows


def _forward_loss(net, x, y, batch_size: int = 256) -> float:
    """Eval-mode BCE over a dataset, streamed in chunks."""
    total = 0.0
    n = x.shape[0]
    for lo in range(0, n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, n))
        out = net.forward(_batch_rows(x, idx), train=False)
        loss, _ = nc.bce_loss(out, y[idx])
        total += loss * len(idx)
    return total / n


def fit_network(
    net: nc.Sequential,
    x_train,
    y_train: np.ndarray,
    x_val,
    y_val: np.ndarray,
    cfg: TrainConfig,
) -> tuple[list[tuple[float, float]], int, int]:
    """Mini-batch training with seeded shuffling and early stopping."""
    y_train = np.asarray(y_train, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)
    n = x_train.shape[0]
    opt = nc.make_optimizer(cfg.optimizer, net.params(), lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng(cfg.seed)
    saved: dict[str, np.ndarray] = {}

    def train_epoch(_epoch: int) -> float:
        order = shuffle_rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            out = net.forward(_batch_rows(x_train, idx), train=True)
            loss, grad = nc.bce_loss(out, y_train[idx])
            opt.zero_grad()
            net.backward(grad)
            opt.step()
            total += loss * len(idx)
        return total / n

    def val_epoch(_epoch: int) -> float:
        return _forward_loss(net, x_val, y_val)

    def snapshot():
        for p in net.params():
            saved[p.name] = p.value.copy()

    def restore():
        for p in net.params():
            if p.name in saved:
                p.value[...] = saved[p.name]

    return run_training_loop(
        train_epoch, val_epoch, snapshot, restore, cfg.max_epochs, cfg.patience
    )


def fit(
    spec: ModelSpec,
    train: tuple,
    val: tuple,
    cfg: TrainConfig,
    embedding: EmbeddingMatrix | np.ndarray | None = None,
    vocab_size: int | None = None,
    embed_dim: int = 32,
    logreg_iters: int = 100,
    logreg_lr: float = 0.5,
    rf_trees: int = 64,
    rf_depth: int = 10,
    train_embedding: bool = True,
) -> TrainedModel:
    """Train any family against (features, labels) train/val pairs."""
    x_train, y_train = train
    x_val, y_val = val
    y_train = np.asarray(y_train)
    k = y_train.shape[1]

    if spec.family == "logreg":
        model = train_logreg_ovr(x_train, y_train, iters=logreg_iters, lr=logreg_lr)
        return replace_spec(model, spec, cfg.threshold)
    if spec.family == "rforest":
        model = train_random_forest_ovr(
            x_train, y_train, n_trees=rf_trees, max_depth=rf_depth, seed=cfg.seed
        )
        return replace_spec(model, spec, cfg.threshold)

    seq_len = x_train.shape[1] if spec.input_kind == "sequence" else None
    input_dim = x_train.shape[1] if spec.family == "fnn" else None
    net = build_network(
        spec,
        k=k,
        input_dim=input_dim,
        embedding=embedding,
        vocab_size=vocab_size,
        embed_dim=embed_dim,
        seq_len=seq_len,
        seed=cfg.seed,
        train_embedding=train_embedding,
    )
    history, stopped, best = fit_network(net, x_train, y_train, x_val, y_val, cfg)
    return TrainedModel(
        spec=spec,
        threshold=cfg.threshold,
        network=net,
        history=history,
        stopped_epoch=stopped,
        best_epoch=best,
    )


def replace_spec(model: TrainedModel, spec: ModelSpec, threshold: float) -> TrainedModel:
    model.spec = replace(spec, input_kind=model.spec.input_kind)
    model.threshold = threshold
    return model


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_proba(model: TrainedModel, features, batch_size: int = 256) -> np.ndarray:
    """Per-label probabilities, [n, k]."""
    if model.submodels is not None:
        if model.spec.family == "logreg":
            cols = []
            for sub in model.submodels:
                z = features @ sub.w + sub.b
                if sp.issparse(z):
                    z = np.asarray(z).ravel()
                cols.append(expit(np.asarray(z, dtype=np.float64)))
            return np.column_stack(cols)
        # random forest: mean of hard tree votes
        x = features
        if sp.issparse(x):
            x = np.asarray(x.todense(), dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        cols = []
        for sub in model.submodels:
            votes = np.zeros(x.shape[0])
            for tree in sub.trees:
                votes += _tree_votes(tree, x)
            cols.append(votes / len(sub.trees))
        return np.column_stack(cols)

    net = model.network
    n = features.shape[0]
    out = []
    for lo in range(0, n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, n))
        out.append(net.forward(_batch_rows(features, idx), train=False))
    return np.vstack(out)


def predict(model: TrainedModel, features, threshold: float | None = None) -> np.ndarray:
    """Multi-hot decisions: bit set iff probability >= threshold."""
    thr = model.threshold if threshold is None else threshold
    if not (0.0 < thr < 1.0):
        raise ConfigError("threshold must lie strictly between 0 and 1")
    return (predict_proba(model, features) >= thr).astype(np.uint8)


def count_parameters(net: nc.Sequential) -> int:
    return net.param_count()
