"""Model families and training: one-vs-rest logistic regression and
random forests, and the neural families (FNN, CNN, simple RNN, LSTM,
GRU) assembled from the numerical core, with named presets, mini-batch
training, and patience-based early stopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

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
    """A fitted model: a network (neural families) or named arrays
    (``W``/``b`` for logistic regression, flat node arrays for forests)."""

    spec: ModelSpec
    threshold: float
    network: nc.Sequential | None = None
    submodels: dict[str, np.ndarray] | None = None
    history: list[tuple[float, float]] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    degenerate_labels: list[int] = field(default_factory=list)


def _degenerate_columns(labels: np.ndarray) -> list[int]:
    return [int(j) for j in np.nonzero(labels.min(axis=0) == labels.max(axis=0))[0]]


# ---------------------------------------------------------------------------
# Logistic regression (one-vs-rest)
# ---------------------------------------------------------------------------


def train_logreg_ovr(features, labels: np.ndarray, iters: int = 100, lr: float = 0.5) -> TrainedModel:
    """k independent binary logistic regressions, one per label column,
    trained together as one [d, k] weight matrix.

    Full-batch gradient descent from zero weights on clipped BCE. The
    gradient is exact for the clipped loss: examples whose prediction
    sits in the clipped region contribute nothing, which also bounds
    weight growth on separable data. Columns never mix, so each is the
    binary problem for its label. Deterministic: zero initialization and
    full-batch descent leave no randomness. Degenerate (single-class)
    columns still train but are flagged.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError("labels must be [n, k]")
    if iters < 0:
        raise ConfigError("iters must be >= 0")
    x = features if sp.issparse(features) else np.asarray(features, dtype=np.float64)

    n, d = x.shape
    k = labels.shape[1]
    w = np.zeros((d, k))
    b = np.zeros(k)
    y = labels.astype(np.float64)
    eps = nc.BCE_EPS
    for _ in range(iters):
        p = nc.sigmoid(x @ w + b)
        g = np.where((p >= eps) & (p <= 1.0 - eps), p - y, 0.0) / n
        w -= lr * (x.T @ g)
        b -= lr * g.sum(axis=0)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise NumericError("logistic regression diverged")
    spec = ModelSpec("logreg", "sparse" if sp.issparse(x) else "dense", name="logreg")
    return TrainedModel(
        spec=spec,
        threshold=0.5,
        submodels={"W": w, "b": b},
        stopped_epoch=iters,
        degenerate_labels=_degenerate_columns(labels),
    )


# ---------------------------------------------------------------------------
# Random forest (one-vs-rest)
# ---------------------------------------------------------------------------


def _best_split(x, y, feats) -> tuple[float, int, float] | None:
    """Lowest weighted Gini over the candidate columns ``feats``, given as
    the node's ``[m, len(feats)]`` block ``x`` with labels ``y``.

    One pass over the block: a stable sort per column, a cumulative count
    of positives and the Gini of every cut, with cuts between equal values
    masked to +inf. Thresholds are midpoints between consecutive distinct
    values. Ties follow the sequential rule: the lowest threshold wins in a
    column, and a later candidate replaces the best only if its Gini is
    lower by more than 1e-15. None when every candidate is constant."""
    m = len(y)
    total_pos = float(y.sum())
    order = np.argsort(x, axis=0, kind="stable")
    sv = np.take_along_axis(x, order, axis=0)
    pos_l = np.cumsum(y[order].astype(np.float64), axis=0)[:-1]
    n_l = np.arange(1.0, m)[:, None]
    n_r = m - n_l
    pos_r = total_pos - pos_l
    p_l = pos_l / n_l
    p_r = pos_r / n_r
    gini = (n_l * 2.0 * p_l * (1.0 - p_l) + n_r * 2.0 * p_r * (1.0 - p_r)) / m
    valid = sv[:-1] < sv[1:]
    gini[~valid] = np.inf
    cols = np.flatnonzero(valid.any(axis=0))
    cuts = gini[:, cols].argmin(axis=0)
    best = None
    for c, i, g in zip(cols.tolist(), cuts.tolist(), gini[cuts, cols].tolist()):
        if best is None or g < best[0] - 1e-15:
            thr = float((sv[i, c] + sv[i + 1, c]) / 2.0)
            best = (g, int(feats[c]), thr)
    return best


def _grow_tree(x, y, rows, rng, max_depth: int, n_try: int, nodes: list, depth: int = 0) -> int:
    """Append the tree grown on ``rows`` of the dense ``x`` and labels
    ``y`` to ``nodes`` in preorder as [feature, threshold, left, right,
    value] rows and return its root's index. Leaves have feature -1 and
    hold the mean label of their rows as value.

    A node holds only its row indices, in draw order: the bootstrap draw
    at the root, then the rows going each way. It gathers just its
    ``[len(rows), n_try]`` block of candidate columns; ``x`` itself is
    never copied. The RNG is called once per non-leaf node, in preorder,
    to draw ``n_try`` candidates without replacement.
    """
    node = len(nodes)
    yr = y[rows]
    nodes.append([-1, 0.0, -1, -1, float(yr.mean())])
    if depth >= max_depth or len(yr) < 2 or yr.min() == yr.max():
        return node
    feats = rng.choice(x.shape[1], size=n_try, replace=False)
    best = _best_split(x[np.ix_(rows, feats)], yr, feats)
    if best is None:
        return node
    _, f, thr = best
    mask = x[rows, f] <= thr
    left = _grow_tree(x, y, rows[mask], rng, max_depth, n_try, nodes, depth + 1)
    right = _grow_tree(x, y, rows[~mask], rng, max_depth, n_try, nodes, depth + 1)
    nodes[node] = [f, thr, left, right, -1.0]
    return node


DENSE_LIMIT_BYTES = 1 << 30  # largest dense float64 copy the forest makes of sparse features


def _dense_float64(features) -> np.ndarray:
    """features as a dense float64 array; sparse input is refused when that
    copy would take more than DENSE_LIMIT_BYTES."""
    if sp.issparse(features):
        n, d = features.shape
        if n * d * 8 > DENSE_LIMIT_BYTES:
            raise ConfigError(
                f"densifying {n}x{d} sparse features takes {n * d * 8 / 2**30:.2f} GiB, "
                f"over the forest's {DENSE_LIMIT_BYTES / 2**30:g} GiB limit"
            )
        features = features.toarray()
    return np.asarray(features, dtype=np.float64)


def train_random_forest_ovr(
    features,
    labels: np.ndarray,
    n_trees: int = 64,
    max_depth: int = 10,
    seed: int = 0,
) -> TrainedModel:
    """Per label: n_trees CART trees on bootstrap resamples, Gini
    impurity, sqrt(d) random feature candidates per split; the forest
    predicts the fraction of positive tree votes.

    Every label column uses the identical seed stream, so permuting the
    label columns permutes the fitted sub-models correspondingly. All
    trees share one set of flat node arrays; ``roots[j, t]`` is the root
    of tree t for label j.
    """
    labels = np.asarray(labels)
    x = _dense_float64(features)
    if x.size == 0:
        raise DatasetError("empty feature matrix")
    n, d = x.shape
    k = labels.shape[1]
    n_try = max(1, int(round(math.sqrt(d))))

    nodes: list = []
    roots = np.empty((k, n_trees), dtype=np.int64)
    for j in range(k):
        y = labels[:, j].astype(np.int64)
        rng = np.random.default_rng(seed)  # same stream for every label
        for t in range(n_trees):
            boot = rng.integers(0, n, size=n)
            roots[j, t] = _grow_tree(x, y, boot, rng, max_depth, n_try, nodes)
    feature, threshold, left, right, value = zip(*nodes) if nodes else ((),) * 5
    arrays = {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value, dtype=np.float64),
        "roots": roots,
    }
    spec = ModelSpec("rforest", "dense", name="rforest")
    return TrainedModel(
        spec=spec,
        threshold=0.5,
        submodels=arrays,
        stopped_epoch=n_trees,
        degenerate_labels=_degenerate_columns(labels),
    )


def _forest_proba(arrays: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Fraction of trees voting positive (leaf value >= 0.5) per label;
    every row descends every tree of one label at once."""
    feature, threshold = arrays["feature"], arrays["threshold"]
    left, right, value = arrays["left"], arrays["right"], arrays["value"]
    roots = arrays["roots"]
    rows = np.arange(x.shape[0])[:, None]
    out = np.empty((x.shape[0], roots.shape[0]))
    for j, label_roots in enumerate(roots):
        node = np.broadcast_to(label_roots, (x.shape[0], label_roots.size))
        while True:
            f = feature[node]
            inner = f >= 0
            if not inner.any():
                break
            go_left = x[rows, np.maximum(f, 0)] <= threshold[node]
            node = np.where(inner, np.where(go_left, left[node], right[node]), node)
        out[:, j] = (value[node] >= 0.5).sum(axis=1) / label_roots.size
    return out


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
    """Instantiate a Sequential for a neural ModelSpec, its parameters
    cast to float32.

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
        return _float32(nc.Sequential(layers))

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
        return _float32(nc.Sequential(layers))

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
    return _float32(nc.Sequential(layers))


def _float32(net: nc.Sequential) -> nc.Sequential:
    for p in net.params():
        p.value = p.value.astype(np.float32)
        p.grad = np.zeros_like(p.value)
    return net


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


# rows per eval-mode forward in validation and prediction
EVAL_BATCH = 256


def _batch_rows(x, idx):
    rows = x[idx]
    if sp.issparse(rows):
        # densify in the networks' float32, never as a float64 batch
        rows = rows.astype(np.float32).toarray()
    return rows


def _forward_loss(net, x, y) -> float:
    """Eval-mode BCE over a dataset, streamed in chunks."""
    total = 0.0
    n = x.shape[0]
    for lo in range(0, n, EVAL_BATCH):
        idx = np.arange(lo, min(lo + EVAL_BATCH, n))
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

    if spec.family in ("logreg", "rforest"):
        if spec.family == "logreg":
            model = train_logreg_ovr(x_train, y_train, iters=logreg_iters, lr=logreg_lr)
        else:
            model = train_random_forest_ovr(
                x_train, y_train, n_trees=rf_trees, max_depth=rf_depth, seed=cfg.seed
            )
        model.spec = replace(spec, input_kind=model.spec.input_kind)
        model.threshold = cfg.threshold
        return model

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


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_proba(model: TrainedModel, features) -> np.ndarray:
    """Per-label probabilities, [n, k], in float64."""
    if model.spec.family == "logreg":
        arrays = model.submodels
        return nc.sigmoid(features @ arrays["W"] + arrays["b"])
    if model.spec.family == "rforest":
        return _forest_proba(model.submodels, _dense_float64(features))

    net = model.network
    n = features.shape[0]
    out = []
    for lo in range(0, n, EVAL_BATCH):
        idx = np.arange(lo, min(lo + EVAL_BATCH, n))
        out.append(net.forward(_batch_rows(features, idx), train=False))
    return np.vstack(out, dtype=np.float64)


def predict(model: TrainedModel, features, threshold: float | None = None) -> np.ndarray:
    """Multi-hot decisions: bit set iff probability >= threshold."""
    thr = model.threshold if threshold is None else threshold
    if not (0.0 < thr < 1.0):
        raise ConfigError("threshold must lie strictly between 0 and 1")
    return (predict_proba(model, features) >= thr).astype(np.uint8)
