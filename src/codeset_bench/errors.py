"""Exception types shared across the pipeline, and ``read_numpy``, the one
place a malformed NumPy file becomes a FormatError."""

import zipfile


class PipelineError(Exception):
    """Base class for all pipeline-raised errors."""


class SchemaError(PipelineError):
    """An input file is missing required columns or headers."""


class FormatError(PipelineError):
    """A file's contents violate its declared format (CSV quoting,
    embedding headers, artifact layouts)."""


class ConfigError(PipelineError):
    """Invalid configuration: unknown preset, incompatible track/model
    pairing, degenerate generator spec, bad key or value."""


class DatasetError(PipelineError):
    """Data-level failure: empty dataset, fewer labels than requested,
    split too small."""


class NumericError(PipelineError):
    """A numeric guard tripped (NaN/Inf in a tensor or a loss)."""


class ShapeError(PipelineError):
    """Tensor shapes incompatible with the requested operation."""


def read_numpy(path, reader):
    """Run ``reader`` on ``path`` opened for binary reading, turning a
    malformed or truncated NumPy file into a FormatError that names the
    path."""
    with open(path, "rb") as fh:
        try:
            return reader(fh)
        except (ValueError, EOFError, KeyError, zipfile.BadZipFile) as exc:
            raise FormatError(f"{path}: {exc}") from None
