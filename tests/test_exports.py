"""The public namespace: every exported name exists, once, in order, and
every exported or public name of the package has a use outside the tests."""

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


def _public_names(path):
    """A module's public top-level functions and classes, and the public
    methods and properties of those classes."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    m.name for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return names


_MODULES = sorted((_ROOT / "src" / "homsim").glob("*.py"))


def _used_or_documented():
    """The names read in src/homsim outside __init__ or in scripts/, and the
    words of the README."""
    sources = [p for p in _MODULES if p.name != "__init__.py"]
    used = set().union(*(_names_used(p) for p in sources + list((_ROOT / "scripts").glob("*.py"))))
    return used | set(re.findall(r"\w+", (_ROOT / "README.md").read_text()))


def test_every_exported_name_has_a_caller_or_is_documented():
    known = _used_or_documented()
    assert [n for n in hs.__all__ if n not in known] == []


def test_every_public_function_class_and_method_has_a_caller_or_is_documented():
    known = _used_or_documented()
    names = [(p.stem, n) for p in _MODULES for n in _public_names(p)]
    assert len(names) > 50
    assert [f"{module}.{n}" for module, n in names if n not in known] == []
