"""The public namespace: every exported name exists, once, in order, and
has a use outside the tests."""

import ast
import re
from pathlib import Path

import homsim as hs

_ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_unique_and_sorted():
    names = hs.__all__
    missing = [n for n in names if not hasattr(hs, n)]
    assert missing == []
    assert len(names) == len(set(names))
    assert names == sorted(names)


def _names_used(path):
    """The names and attributes a module reads, each outside the function or
    class that defines the same name; docstrings and comments do not count."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_exported_name_has_a_caller_or_is_documented():
    modules = [p for p in (_ROOT / "src" / "homsim").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(_names_used(p) for p in modules + list((_ROOT / "scripts").glob("*.py"))))
    readme = set(re.findall(r"\w+", (_ROOT / "README.md").read_text()))
    assert [n for n in hs.__all__ if n not in used | readme] == []
