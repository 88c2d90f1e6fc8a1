"""Checks over the source tree itself, not over what it computes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "codeset_bench"
# the package names that no module of the package reads, each with the
# reason it stays
UNREAD_IN_PACKAGE = {
    "features.py: save_word2vec_text":
        "benchmark/instrument.py wraps it, and tests write pretrained vectors with it",
    "metrics.py: average_precision":
        "benchmark/instrument.py wraps it, until the bench reads spans the pipeline records",
    "neuralcore/checkpoint.py: load_checkpoint":
        "reads checkpoint.npz back; the planned `predict --run` command is its caller",
    "neuralcore/checkpoint.py: restore_model":
        "loads those tensors into a network; the planned `predict --run` command is its caller",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def, a class or an
    assignment target."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    """The identifiers a statement reads: names and attributes.
    ``__all__`` lists count as no read."""
    if "__all__" in _defined(stmt):
        return set()
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_top_level_name_in_the_package_is_read_somewhere():
    # read by another statement of the package itself: a name that only
    # tests or the bench read is code no run needs, unless listed above
    definitions = []  # (name, file, statement index)
    reads = []  # (file, statement index, names read)
    for path in sorted(PACKAGE.rglob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        for i, stmt in enumerate(body):
            reads.append((path, i, _read(stmt)))
            definitions += [(name, path, i) for name in _defined(stmt)
                            if not (name.startswith("__") and name.endswith("__"))]
    assert len(definitions) > 100
    unread = [f"{path.relative_to(PACKAGE).as_posix()}: {name}" for name, path, i in definitions
              if not any(name in names for p, j, names in reads if (p, j) != (path, i))]
    assert sorted(unread) == sorted(UNREAD_IN_PACKAGE)


def test_every_config_key_is_named_in_the_readme():
    from codeset_bench import harness

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [key for key in harness.DEFAULTS if f"`{key}`" not in readme] == []
