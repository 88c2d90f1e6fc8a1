"""Minimal dense-tensor numerical core: layers with exact analytic
gradients, BCE loss, SGD/RMSprop, finite-difference gradient checking,
and checkpoint I/O. Parameters are float64 unless cast, and each layer
computes in its parameters' dtype; ``models.build_network`` trains in
float32, gradient checks run in float64."""

from .checkpoint import (
    load_checkpoint,
    model_tensors,
    restore_model,
    save_checkpoint,
)
from .core import (
    Layer,
    Parameter,
    Sequential,
    glorot_uniform,
    guard_finite,
    orthogonal,
    sigmoid,
)
from .gradcheck import gradient_check
from .layers import (
    Conv1d,
    Dense,
    Dropout,
    Embedding,
    Flatten,
    MaxPool1d,
    ReLU,
    Sigmoid,
)
from .losses import BCE_EPS, bce_loss
from .optim import RMSprop, SGD, make_optimizer
from .recurrent import GRU, LSTM, Bidirectional, SimpleRNN

__all__ = [
    "BCE_EPS",
    "Bidirectional",
    "Conv1d",
    "Dense",
    "Dropout",
    "Embedding",
    "Flatten",
    "GRU",
    "LSTM",
    "Layer",
    "MaxPool1d",
    "Parameter",
    "ReLU",
    "RMSprop",
    "SGD",
    "Sequential",
    "Sigmoid",
    "SimpleRNN",
    "bce_loss",
    "glorot_uniform",
    "gradient_check",
    "guard_finite",
    "load_checkpoint",
    "make_optimizer",
    "model_tensors",
    "orthogonal",
    "restore_model",
    "save_checkpoint",
    "sigmoid",
]
