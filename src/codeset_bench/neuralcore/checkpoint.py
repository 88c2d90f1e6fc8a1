"""Checkpoint format: one uncompressed ``.npz`` file holding every named
array in its own dtype. It holds tensors only; the run directory's
``config.txt`` and ``record.json`` say what trained them."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import FormatError, read_numpy


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write the named tensors to the file ``path``, under that exact name."""
    with open(path, "wb") as fh:
        np.savez(fh, **tensors)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """The named tensors of the checkpoint file ``path``."""
    if not Path(path).is_file():
        raise FormatError(f"{path}: no checkpoint file")
    return read_numpy(path, lambda fh: dict(np.lib.npyio.NpzFile(fh, allow_pickle=False)))


def model_tensors(model) -> dict[str, np.ndarray]:
    """Name -> value mapping for every parameter in a model."""
    out = {}
    for p in model.params():
        if p.name in out:
            raise FormatError(f"duplicate parameter name {p.name!r}")
        out[p.name] = p.value
    return out


def restore_model(model, tensors: dict[str, np.ndarray]) -> None:
    """Copy checkpoint tensors into a model whose parameters match them in
    name, shape and dtype."""
    for p in model.params():
        if p.name not in tensors:
            raise FormatError(f"checkpoint missing tensor {p.name!r}")
        src = tensors[p.name]
        if src.shape != p.value.shape:
            raise FormatError(
                f"tensor {p.name!r}: checkpoint shape {src.shape} != model {p.value.shape}"
            )
        if src.dtype != p.value.dtype:
            raise FormatError(
                f"tensor {p.name!r}: checkpoint dtype {src.dtype} != model {p.value.dtype}"
            )
        p.value[...] = src
