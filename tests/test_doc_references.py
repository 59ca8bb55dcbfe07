"""Every ``path.py::name`` reference in the prose resolves.

DESIGN.md, README.md and EXPERIMENTS.md point at code as
``path.py::name`` (``name`` may be dotted, ``Class.method``).  A path is
taken from the repository root, or else from ``src/repro/``; the name
must be defined in that file: a function, a class or an assigned name
at module level, or a member of the class before the dot.  A rename
that leaves the prose behind fails here.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
REFERENCE = re.compile(r"([\w./-]+\.py)::([A-Za-z_][\w.]*\w)")


def _references() -> list[tuple[str, str, str]]:
    found = []
    for doc in DOCS:
        for path, name in REFERENCE.findall((ROOT / doc).read_text(encoding="utf-8")):
            found.append((doc, path, name))
    return found


def _defined(body) -> dict[str, ast.AST]:
    """Names a module or class body defines, to their nodes."""
    names: dict[str, ast.AST] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
    return names


def _resolves(path: str, name: str) -> bool:
    for base in (ROOT, ROOT / "src" / "repro"):
        source = base / path
        if source.is_file():
            break
    else:
        return False
    node = ast.parse(source.read_text(encoding="utf-8"))
    for part in name.split("."):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            return False
        node = _defined(node.body).get(part)
        if node is None:
            return False
    return True


def test_the_prose_has_references():
    assert len(_references()) >= 7


@pytest.mark.parametrize(
    "doc, path, name", _references(), ids=lambda value: str(value)
)
def test_reference_resolves(doc, path, name):
    assert _resolves(path, name), f"{doc}: {path}::{name} names nothing"
