"""Checks over the source tree itself, not over what it computes."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "codeset_bench"
READERS = ("src", "tests", "benchmark")


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
    """The identifiers a statement reads: names, attributes, and string
    constants that are a (dotted) name, since the traced bench wraps
    functions named in strings. ``__all__`` lists count as no read."""
    if "__all__" in _defined(stmt):
        return set()
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                out.update(node.value.split("."))
    return out


def test_every_top_level_name_in_the_package_is_read_somewhere():
    definitions = []  # (name, file, statement index)
    reads = []  # (file, statement index, names read)
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            body = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
            for i, stmt in enumerate(body):
                reads.append((path, i, _read(stmt)))
                if path.is_relative_to(PACKAGE):
                    definitions += [(name, path, i) for name in _defined(stmt)
                                    if not (name.startswith("__") and name.endswith("__"))]
    assert len(definitions) > 100
    unread = [f"{path.relative_to(ROOT)}: {name}" for name, path, i in definitions
              if not any(name in names for p, j, names in reads if (p, j) != (path, i))]
    assert unread == []


def test_every_config_key_is_named_in_the_readme():
    from codeset_bench import harness

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [key for key in harness.DEFAULTS if f"`{key}`" not in readme] == []
