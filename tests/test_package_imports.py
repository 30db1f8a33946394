"""Rules for the package, checked on its source and in fresh interpreters.

Imports: stdlib only, no private names across modules, and a command loads
only the modules it runs.  Text: only the line-rule owner splits lines or
turns a file's bytes into text.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import odlgraph

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


# --- names load on first use -------------------------------------------------------

COURSE = "NODE LA1|Intro|read|ch1||\nNODE LA2|More|read|ch2||\nEDGE LA1|LA2|sequence|\n"
LOG = "u1,0,LA1\nu1,60,LA2\n"
# Runs the arguments as a command, then prints its exit code and the package modules it loaded.
RUN_AND_LIST = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); import odlgraph.cli; code = odlgraph.cli.main(sys.argv[1:]); "
    "print(code, *sorted(name for name in sys.modules if name.startswith('odlgraph.')))"
)


def _loaded(tmp_path: Path, argv: list[str]) -> tuple[int, set[str]]:
    (tmp_path / "course.odlg").write_text(COURSE, encoding="utf-8")
    (tmp_path / "log.csv").write_text(LOG, encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", RUN_AND_LIST, str(PACKAGE.parent), *argv],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), {name.removeprefix("odlgraph.") for name in modules}


@pytest.mark.parametrize("argv, absent", [
    (["validate", "course.odlg"], {"notes", "dot_export", "clusters"}),
    (["sessions", "--log", "log.csv", "--course", "course.odlg"], {"notes", "dot_export", "clusters"}),
    (["notes", "list", "--store", "notes.jsonl", "--course", "course.odlg", "--node", "LA1", "--requester", "u1"],
     {"dot_export", "clusters", "paths"}),
], ids=["validate", "sessions", "notes-list"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    code, loaded = _loaded(tmp_path, argv)
    assert code == 0
    assert "course_format" in loaded  # every command reads a course
    assert loaded & absent == set()


def test_importing_the_package_runs_none_of_its_modules():
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import odlgraph; "
         "print(*sorted(name for name in sys.modules if name.startswith('odlgraph.')))", str(PACKAGE.parent)],
        capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_every_public_name_is_its_modules_object():
    for name in odlgraph.__all__:
        module = importlib.import_module(f"odlgraph.{odlgraph._MODULE_OF[name]}")
        assert getattr(odlgraph, name) is getattr(module, name), name


def test_shared_choices_are_the_same_objects_in_every_module_that_offers_them():
    from odlgraph import clusters, dot_export, notes, options, sessions

    assert dot_export.Overlay is odlgraph.Overlay is options.Overlay
    assert notes.NoteAccess is odlgraph.NoteAccess is options.NoteAccess
    assert clusters.DEFAULT_MIN_COOCCURRENCE == options.DEFAULT_MIN_COOCCURRENCE
    assert sessions.DEFAULT_SESSION_TIMEOUT == odlgraph.DEFAULT_SESSION_TIMEOUT == options.DEFAULT_SESSION_TIMEOUT


def test_dir_lists_every_public_name():
    assert set(odlgraph.__all__) <= set(dir(odlgraph))
    assert "__version__" in dir(odlgraph)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        odlgraph.no_such_name
