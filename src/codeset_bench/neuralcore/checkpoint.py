"""Checkpoint layout: a ``key = value`` text manifest and one uncompressed
``tensors.npz`` holding every named array in its own dtype."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import FormatError, read_numpy

MANIFEST_NAME = "manifest.txt"
TENSORS_NAME = "tensors.npz"


def save_checkpoint(
    out_dir: str | Path, tensors: dict[str, np.ndarray], manifest: dict[str, object]
) -> Path:
    """Write the manifest and the named tensors under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        for key in sorted(manifest):
            fh.write(f"{key} = {manifest[key]}\n")
    np.savez(out_dir / TENSORS_NAME, **tensors)
    return out_dir


def load_checkpoint(ckpt_dir: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    ckpt_dir = Path(ckpt_dir)
    manifest: dict[str, str] = {}
    manifest_path = ckpt_dir / MANIFEST_NAME
    if manifest_path.exists():
        for line in manifest_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition("=")
            manifest[key.strip()] = value.strip()
    tensors_path = ckpt_dir / TENSORS_NAME
    if not tensors_path.exists():
        raise FormatError(f"{ckpt_dir}: missing {TENSORS_NAME}")
    tensors = read_numpy(tensors_path, lambda fh: dict(np.lib.npyio.NpzFile(fh, allow_pickle=False)))
    return tensors, manifest


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
