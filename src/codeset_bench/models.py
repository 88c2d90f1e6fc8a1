"""Model families and training: one-vs-rest logistic regression and
random forests, and the neural families (FNN, CNN, simple RNN, LSTM,
GRU) assembled from the numerical core, with named presets, mini-batch
training, and patience-based early stopping.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import neuralcore as nc
from .errors import ConfigError, DatasetError, NumericError, ShapeError
from .features import EmbeddingMatrix

FAMILIES = ("logreg", "rforest", "fnn", "cnn", "rnn_simple", "lstm", "gru")
NEURAL_FAMILIES = ("fnn", "cnn", "rnn_simple", "lstm", "gru")
RECURRENT_FAMILIES = ("rnn_simple", "lstm", "gru")
OPTIMIZERS = ("sgd", "rmsprop")

# feature kinds each family can consume; the feature track decides the kind
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
    """Architecture plan for one model. The feature track, not the spec,
    decides the kind of features it reads (``FAMILY_INPUT_KINDS``).

    hidden: dense widths (fnn) or recurrent unit counts (rnn/lstm/gru).
    conv_blocks: (filters, width, pool) triples applied in order (cnn).
    fc: trailing fully-connected width after the conv stack (cnn).
    """

    family: str
    hidden: tuple[int, ...] = ()
    conv_blocks: tuple[tuple[int, int, int], ...] = ()
    fc: int | None = None
    dropout: float = 0.0
    bidirectional: bool = False
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.bidirectional and self.family not in RECURRENT_FAMILIES:
            raise ConfigError("bidirectional applies to recurrent families only")


PRESETS: dict[str, ModelSpec] = {
    # reference architectures at published scale
    "fnn-best": ModelSpec("fnn", hidden=(5000, 500, 100), name="fnn-best"),
    "cnn-best": ModelSpec(
        "cnn", conv_blocks=((128, 5, 5), (128, 5, 5), (128, 5, 35)), fc=128, name="cnn-best"
    ),
    "lstm-best": ModelSpec("lstm", hidden=(256, 64), dropout=0.5, name="lstm-best"),
    "gru-best": ModelSpec("gru", hidden=(256, 64), dropout=0.5, name="gru-best"),
    "rnn-best": ModelSpec("rnn_simple", hidden=(256, 64), dropout=0.5, name="rnn-best"),
    # shrunk desk-scale counterparts (same shapes, small widths)
    "fnn-desk": ModelSpec("fnn", hidden=(512, 128, 64), name="fnn-desk"),
    "cnn-desk": ModelSpec("cnn", conv_blocks=((32, 5, 5), (32, 5, 5)), fc=32, name="cnn-desk"),
    "lstm-desk": ModelSpec("lstm", hidden=(32, 16), name="lstm-desk"),
    "gru-desk": ModelSpec("gru", hidden=(32, 16), name="gru-desk"),
    "rnn-desk": ModelSpec("rnn_simple", hidden=(32, 16), name="rnn-desk"),
    "logreg": ModelSpec("logreg", name="logreg"),
    "rforest": ModelSpec("rforest", name="rforest"),
}


def preset(name: str) -> ModelSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


@dataclass
class TrainConfig:
    max_epochs: int = 200
    patience: int = 5
    batch_size: int = 32
    optimizer: str = "rmsprop"
    learning_rate: float | None = None  # None = optimizer default
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs, patience, batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")


# training regimes reported for the published runs
CNN_REGIME = TrainConfig(max_epochs=500, patience=10)
RNN_REGIME = TrainConfig(max_epochs=200, patience=5)


@dataclass
class TrainedModel:
    """A fitted model: a network (neural families) or named arrays
    (``W``/``b`` for logistic regression, flat node arrays for forests).
    It holds no decision threshold: ``train.threshold`` in the config is
    the one the pipeline scores with."""

    spec: ModelSpec
    network: nc.Sequential | None = None
    submodels: dict[str, np.ndarray] | None = None
    history: list[tuple[float, float]] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


# ---------------------------------------------------------------------------
# Logistic regression (one-vs-rest)
# ---------------------------------------------------------------------------


def train_logreg_ovr(features, labels: np.ndarray, iters: int = 50) -> TrainedModel:
    """k independent binary logistic regressions, one per label column,
    trained together as one [d, k] weight matrix: Nesterov-accelerated
    full-batch descent (FISTA momentum (t-1)/(t+2)) from zero weights on
    the mean logistic loss, at step 1/L for L = λ_max([X 1]ᵀ[X 1]) / (4n).
    30 power iterations estimate λ_max from below; it is at least n, the
    bias column's share. Columns never mix. Deterministic. Takes sparse or
    dense features, never densified, and refuses non-finite ones; the spec
    is always ``PRESETS["logreg"]``.
    """
    if iters < 0:
        raise ConfigError("iters must be >= 0")
    x = features.tocsr() if _is_sparse(features) else np.asarray(features, dtype=np.float64)
    labels = _label_matrix(labels, x)
    n, d = x.shape
    if n == 0:
        raise DatasetError("logistic regression needs at least one row")
    if not np.all(np.isfinite(x.data if _is_sparse(x) else x)):
        raise NumericError("logistic regression features hold NaN or inf")

    u, s = np.ones(d), 1.0
    for _ in range(30):  # power iteration on [X 1]ᵀ[X 1]
        z = x @ u + s
        u, s = x.T @ z, z.sum()
        lam = math.sqrt(u @ u + s * s)
        u, s = u / lam, s / lam
    step = 4.0 * n / max(lam, n)
    y = labels.astype(np.float64)
    w, b = np.zeros((d, y.shape[1])), np.zeros(y.shape[1])  # the iterate
    v, c = w.copy(), b.copy()  # the look-ahead point the gradient is taken at
    for t in range(iters):
        w_next, gb = _logistic_gradient(x, y, v, c)
        w_next *= -step
        w_next += v
        b_next = c - step * gb
        np.subtract(w_next, w, out=v)
        v *= t / (t + 3)
        v += w_next
        c = b_next + t / (t + 3) * (b_next - b)
        w, b = w_next, b_next
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise NumericError("logistic regression diverged")
    return TrainedModel(spec=PRESETS["logreg"], submodels={"W": w, "b": b}, stopped_epoch=iters)


def _logistic_gradient(x, y: np.ndarray, w: np.ndarray, b: np.ndarray):
    """The mean logistic loss's gradient in (w, b), every label column at once."""
    r = (nc.sigmoid(x @ w + b) - y) / x.shape[0]
    return x.T @ r, r.sum(axis=0)


def _label_matrix(labels, features) -> np.ndarray:
    """labels as an array, refused unless it is [n, k] for features' n rows."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[0] != features.shape[0]:
        raise ShapeError(f"labels {labels.shape} vs features {features.shape}: need [n, k] labels")
    return labels


# ---------------------------------------------------------------------------
# Random forest (one-vs-rest)
# ---------------------------------------------------------------------------


def _best_split(block, y, pos: int, feats) -> tuple[float, int, float] | None:
    """Lowest weighted Gini over the candidate features ``feats``, given as
    the node's ``[len(feats), m]`` block, one contiguous row per candidate,
    with labels ``y`` holding ``pos`` positives.

    One pass over the block: a sort along each row and an integer running
    count of positives. Only valid cuts, between distinct values, get a
    float64 Gini, so runs of ties (bootstrap duplicates, tf-idf zeros) cost
    nothing past the sort and the count; one segmented minimum over each
    candidate's cuts gives its best. The order within a run of ties never
    reaches a valid cut, so the sort need not be stable. Thresholds are
    midpoints between consecutive distinct values. Ties follow the
    sequential rule: the lowest threshold wins in a row, and a later
    candidate replaces the best only if its Gini is lower by more than
    1e-15. None when every candidate is constant."""
    n_try, m = block.shape
    order = np.argsort(block, axis=1)
    sv = block.take(order + np.arange(0, n_try * m, m)[:, None])
    cut = np.flatnonzero(sv[:, :-1] < sv[:, 1:])  # valid cuts, flat over [n_try, m - 1]
    if cut.size == 0:
        return None
    pos_l = np.cumsum(y.take(order)[:, :-1], axis=1).take(cut).astype(np.float64)
    row, i = np.divmod(cut, m - 1)
    n_l = i + 1.0
    n_r = m - n_l
    p_l = pos_l / n_l
    p_r = np.subtract(pos, pos_l, out=pos_l)
    p_r /= n_r
    gini = (n_l * 2.0) * p_l
    gini *= np.subtract(1.0, p_l, out=p_l)
    right = (n_r * 2.0) * p_r
    right *= np.subtract(1.0, p_r, out=p_r)
    gini += right
    gini /= m
    starts = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()]  # each candidate's cuts
    best = None
    for s, e, g in zip(starts, starts[1:] + [cut.size], np.minimum.reduceat(gini, starts).tolist()):
        if best is None or g < best[0] - 1e-15:
            j = s + int(gini[s:e].argmin())  # the lowest threshold of the row's minimum
            c, at = int(row[j]), int(i[j])
            best = (g, int(feats[c]), float((sv[c, at] + sv[c, at + 1]) / 2.0))
    return best


def _grow_tree(xt, y, rows, rng, max_depth: int, n_try: int, nodes: list, depth: int = 0) -> int:
    """Append the tree grown on ``rows`` of the transposed dense features
    ``xt`` ([d, n], one contiguous row per feature) and the 0/1 labels
    ``y`` to ``nodes`` in preorder as [feature, threshold, left, right,
    value] rows and return its root's index. Leaves have feature -1 and
    hold the fraction of positive rows as value.

    A node holds only its row indices, in draw order: the bootstrap draw
    at the root, then the rows going each way. It gathers its
    ``[n_try, m]`` candidate block with one flat ``take`` at
    ``feats * n + rows`` and its split mask with one ``take`` of the
    chosen row, so it costs n_try·m, never n_try·n; ``xt`` is never
    copied. The RNG is called once per non-leaf node, in preorder, to draw
    ``n_try`` candidates without replacement.
    """
    node = len(nodes)
    yr = y[rows]
    m, pos = len(yr), int(yr.sum())
    nodes.append([-1, 0.0, -1, -1, pos / m])
    if depth >= max_depth or m < 2 or pos in (0, m):
        return node
    feats = rng.choice(xt.shape[0], size=n_try, replace=False)
    best = _best_split(xt.ravel().take(feats[:, None] * xt.shape[1] + rows), yr, pos, feats)
    if best is None:
        return node
    _, f, thr = best
    mask = xt[f].take(rows) <= thr
    left = _grow_tree(xt, y, rows[mask], rng, max_depth, n_try, nodes, depth + 1)
    right = _grow_tree(xt, y, rows[~mask], rng, max_depth, n_try, nodes, depth + 1)
    nodes[node] = [f, thr, left, right, -1.0]
    return node


def _is_sparse(x) -> bool:
    """scipy's ``issparse``, asked only once scipy.sparse is loaded: no
    sparse matrix exists before then."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(x)


DENSE_LIMIT_BYTES = 1 << 30  # largest dense float64 copy the forest makes of sparse features


def _dense_float64(features) -> np.ndarray:
    """features as one C-contiguous float64 array; sparse input is
    densified through its CSR form, and refused when that copy would take
    more than DENSE_LIMIT_BYTES."""
    if _is_sparse(features):
        n, d = features.shape
        if n * d * 8 > DENSE_LIMIT_BYTES:
            raise ConfigError(
                f"densifying {n}x{d} sparse features takes {n * d * 8 / 2**30:.2f} GiB, "
                f"over the forest's {DENSE_LIMIT_BYTES / 2**30:g} GiB limit"
            )
        features = features.tocsr().toarray()
    return np.ascontiguousarray(features, dtype=np.float64)


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
    of tree t for label j. Trees grow on the one dense copy of the
    transposed features, so each node reads its candidates as rows.
    """
    if n_trees < 1:
        raise ConfigError(f"a forest needs at least one tree, got n_trees = {n_trees}")
    labels = _label_matrix(labels, features)
    xt = _dense_float64(features.T)
    if xt.size == 0:
        raise DatasetError("empty feature matrix")
    d, n = xt.shape
    k = labels.shape[1]
    n_try = max(1, int(round(math.sqrt(d))))

    nodes: list = []
    roots = np.empty((k, n_trees), dtype=np.int64)
    for j in range(k):
        y = labels[:, j].astype(np.int64)
        rng = np.random.default_rng(seed)  # same stream for every label
        for t in range(n_trees):
            boot = rng.integers(0, n, size=n)
            roots[j, t] = _grow_tree(xt, y, boot, rng, max_depth, n_try, nodes)
    feature, threshold, left, right, value = zip(*nodes) if nodes else ((),) * 5
    arrays = {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "value": np.array(value, dtype=np.float64),
        "roots": roots,
    }
    return TrainedModel(spec=PRESETS["rforest"], submodels=arrays, stopped_epoch=n_trees)


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
    width: int,
    embedding: EmbeddingMatrix | np.ndarray | None = None,
    vocab_size: int | None = None,
    embed_dim: int = 32,
    seed: int = 0,
    train_embedding: bool = True,
) -> nc.Sequential:
    """Instantiate a Sequential for a neural ModelSpec, its parameters
    cast to float32.

    ``width`` is the width of one input row: fnn's feature count, and the
    sequence length by which cnn sizes its flatten->fc transition. Sequence
    families need an embedding matrix (or vocab_size + embed_dim for a
    seeded random one). A cnn block pools before its ReLU, which then
    touches 1/pool of the values: ReLU is monotone and returns its input or
    0, so relu(max(a)) == max(relu(a)) bit for bit for NaN-free a, and only
    a window with max <= 0 sends its (zero) gradient to another position.
    """
    if spec.family not in NEURAL_FAMILIES:
        raise ConfigError(f"{spec.family!r} is not a neural family")
    rng = np.random.default_rng(seed)

    if spec.family == "fnn":
        layers: list[nc.Layer] = []
        prev = width
        for i, hidden in enumerate(spec.hidden):
            layers.append(nc.Dense(prev, hidden, rng, name=f"fc{i}"))
            layers.append(nc.ReLU())
            if spec.dropout > 0:
                layers.append(nc.Dropout(spec.dropout, rng))
            prev = hidden
        return _with_head(layers, prev, k, rng)

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
        length = width
        prev_ch = emb_dim
        for i, (filters, kernel, pool) in enumerate(spec.conv_blocks):
            if length < kernel:
                raise ConfigError(
                    f"sequence collapses to {length} < filter width {kernel} "
                    f"at conv block {i}"
                )
            layers += [nc.Conv1d(prev_ch, filters, kernel, rng, name=f"conv{i}"),
                       nc.MaxPool1d(pool), nc.ReLU()]
            length = math.ceil((length - kernel + 1) / pool)
            prev_ch = filters
        layers.append(nc.Flatten())
        flat = length * prev_ch
        if spec.fc:
            layers.append(nc.Dense(flat, spec.fc, rng, name="fc"))
            layers.append(nc.ReLU())
            flat = spec.fc
        return _with_head(layers, flat, k, rng)

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
    return _with_head(layers, prev, k, rng)


def _with_head(layers: list, width: int, k: int, rng) -> nc.Sequential:
    """``layers`` followed by the ``out`` Dense to k labels and a Sigmoid,
    as a Sequential with every parameter cast to float32. ``out`` is the
    last draw from ``rng``."""
    net = nc.Sequential([*layers, nc.Dense(width, k, rng, name="out"), nc.Sigmoid()])
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
    if _is_sparse(rows):
        # densify in the networks' float32, never as a float64 batch
        rows = rows.astype(np.float32).toarray()
    return rows


def _eval_forward(net, x):
    """Eval-mode outputs over a dataset in chunks of EVAL_BATCH rows:
    yields (row indices, outputs) in row order."""
    n = x.shape[0]
    for lo in range(0, n, EVAL_BATCH):
        idx = np.arange(lo, min(lo + EVAL_BATCH, n))
        yield idx, net.forward(_batch_rows(x, idx), train=False)


def _forward_loss(net, x, y) -> float:
    """Eval-mode BCE over a dataset, summed chunk by chunk."""
    total = 0.0
    for idx, out in _eval_forward(net, x):
        loss, _ = nc.bce_loss(out, y[idx])
        total += loss * len(idx)
    return total / x.shape[0]


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
    logreg_iters: int = 50,
    rf_trees: int = 64,
    rf_depth: int = 10,
    train_embedding: bool = True,
) -> TrainedModel:
    """Train any family against (features, labels) train/val pairs."""
    x_train, y_train = train
    x_val, y_val = val
    y_train = np.asarray(y_train)
    if spec.family == "logreg":
        return train_logreg_ovr(x_train, y_train, iters=logreg_iters)
    if spec.family == "rforest":
        return train_random_forest_ovr(
            x_train, y_train, n_trees=rf_trees, max_depth=rf_depth, seed=cfg.seed
        )

    net = build_network(
        spec,
        k=y_train.shape[1],
        width=x_train.shape[1],
        embedding=embedding,
        vocab_size=vocab_size,
        embed_dim=embed_dim,
        seed=cfg.seed,
        train_embedding=train_embedding,
    )
    history, stopped, best = fit_network(net, x_train, y_train, x_val, y_val, cfg)
    return TrainedModel(
        spec=spec, network=net, history=history, stopped_epoch=stopped, best_epoch=best
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

    return np.vstack([out for _, out in _eval_forward(model.network, features)], dtype=np.float64)

