"""Rules for the package, checked on its source.

Imports: stdlib only, no private names across modules.  Text: only the
line-rule owner splits lines or turns a file's bytes into text.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "odlgraph"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imports(tree: ast.Module):
    """(package module or None for an outside one, top-level name, names taken from it) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield (alias.name if top == PACKAGE.name else None), top, []
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level or (node.module or "").split(".")[0] == PACKAGE.name:
                yield (node.module or PACKAGE.name), PACKAGE.name, names
            else:
                yield None, node.module.split(".")[0], names


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to sibling modules by ``from . import x [as y]``."""
    siblings = {path.stem for path in MODULES}
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and not node.module
        for alias in node.names
        if alias.name in siblings
    }


def test_package_modules_are_found():
    assert {"cli", "notes", "dot_export", "paths"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_from_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"{module}.{name}"
        for module, _, names in _imports(tree)
        if module is not None
        for name in names
        if _private(name)
    ]
    aliases = _module_aliases(tree)
    found += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and _private(node.attr)
    ]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = {top for module, top, _ in _imports(tree) if module is None} - sys.stdlib_module_names
    assert outside == set()


LINE_RULE_OWNER = "text.py"


def _own_text_handling(tree: ast.Module) -> list[str]:
    """Each place that splits lines or reads a file as text by itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("splitlines", "StringIO", "read_text", "read_bytes"):
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "StringIO":
            found.append(node.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("split", "rsplit") and node.args
              and isinstance(node.args[0], ast.Constant) and node.args[0].value in ("\n", "\r", "\r\n")):
            found.append(f"{node.func.attr}({node.args[0].value!r})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_line_rule_owner_splits_lines_or_decodes_files(path):
    found = _own_text_handling(ast.parse(path.read_text(encoding="utf-8")))
    if path.name == LINE_RULE_OWNER:
        assert found  # the rule lives here, so the check has something to find
    else:
        assert found == []
