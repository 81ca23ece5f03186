"""Public API hygiene: every export resolves and nothing public is dead.

A module-level function or class that no other code in ``src/`` uses and
that the package does not export is API nothing runs; this test keeps such
code from accumulating unnoticed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import nmrfetch

SRC = Path(nmrfetch.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_definitions(tree):
    """Names of the module-level public functions and classes."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def used_names(tree):
    """Every identifier the code reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_every_exported_name_resolves(module):
    mod = nmrfetch if module == "__init__" else importlib.import_module(f"nmrfetch.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"nmrfetch.{module}.__all__ names undefined {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__), f"nmrfetch.{module}.__all__ repeats a name"


def test_every_public_definition_is_used_or_exported():
    trees = {name: parsed(SRC / f"{name}.py") for name in MODULES}
    used = set().union(*(used_names(tree) for tree in trees.values()))
    exported = set(nmrfetch.__all__)
    dead = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if name not in used and name not in exported
    )
    assert not dead, f"public definitions nothing in src/ uses or exports: {dead}"
