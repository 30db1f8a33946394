"""Rules for the package, checked on its source and in fresh interpreters.

Imports: stdlib only, no private names across modules, no ``dataclasses``, no
name imported and never used, and a command loads only the modules it runs.
Names: every private name a module's top level defines is read somewhere in
the package.
Text: only the line-rule owner splits lines or turns a file's bytes into text.
Output: only the CLI's data writer writes to stdout, and only the file writer
writes, syncs or replaces a file.
"""

from __future__ import annotations

import ast
import importlib
import re
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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # Importing dataclasses (and the inspect it pulls in) would cost every command about 10 ms at start.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "dataclasses" not in {top for _, top, _ in _imports(tree)}


# Names a module imports only for others to take from it, as ``options.py``'s docstring lists them.
RE_EXPORTS = set(re.findall(r"``(\w+)\.(\w+)``", ast.get_docstring(ast.parse((PACKAGE / "options.py").read_text(
    encoding="utf-8")))))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Each name an import binds that the module never reads; a name in an annotation, quoted or not, is read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for root in [tree, *_quoted_annotations(tree)] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def _quoted_annotations(tree: ast.Module) -> list[ast.Expression]:
    """The parsed text of each string in an annotation."""
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    return [ast.parse(sub.value, mode="eval") for annotation in filter(None, annotations)
            for sub in ast.walk(annotation) if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # No linter runs here; every command pays to import and compile a dead import.
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in unused if (path.stem, name) not in RE_EXPORTS] == []


def test_the_unused_import_check_finds_one():
    tree = ast.parse("from itertools import chain, product\nfrom typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
                     "    from .model import Course\nimport os.path\nx: 'Course' = chain()\n")
    assert _unused_imports(tree) == ["product", "os"]
    assert RE_EXPORTS >= {("clusters", "DEFAULT_MIN_COOCCURRENCE"), ("notes", "NoteAccess")}


def _private_top_level_names(tree: ast.Module) -> list[str]:
    """Each private name a module's top level defines, by ``def``, ``class`` or assignment."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return [name for name in defined if _private(name)]


def _names_read(tree: ast.Module) -> set[str]:
    """Each name a module reads, as a variable, an attribute or inside a quoted annotation."""
    nodes = [node for root in [tree, *_quoted_annotations(tree)] for node in ast.walk(root)]
    return ({node.id for node in nodes if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_defines_a_private_name_no_code_reads(path):
    # A helper or constant left behind by a change costs every command that imports it a compile.
    read = set().union(*(_names_read(ast.parse(module.read_text(encoding="utf-8"))) for module in MODULES))
    assert [name for name in _private_top_level_names(ast.parse(path.read_text(encoding="utf-8")))
            if name not in read] == []


def test_the_unread_private_name_check_finds_one():
    tree = ast.parse("_USED = 1\n_LEFT, public = 2, 3\ndef _helper(): return _USED\nclass _Kept: pass\n"
                     "def f(x: '_Kept') -> None: pass\n_STORED = 4\n_STORED = 5\n")
    assert [name for name in _private_top_level_names(tree) if name not in _names_read(tree)] == [
        "_LEFT", "_helper", "_STORED", "_STORED"]


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
CLUSTERS = "clique\t1\tLA1,LA2\n"
STORE = ('{"access":"all","attachments":[],"body":"","kind":"note","learner_id":"u1","node_id":"LA1",'
         '"note_id":"n1","timestamp":0}\n')
# Runs the arguments as a command, then prints its exit code and every module loaded by then.
RUN_AND_LIST = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); import odlgraph.cli; code = odlgraph.cli.main(sys.argv[1:]); "
    "print(code, *sorted(sys.modules))"
)


def _loaded(tmp_path: Path, argv: list[str]) -> tuple[int, set[str]]:
    """The command's exit code and every module its fresh interpreter loaded."""
    (tmp_path / "course.odlg").write_text(COURSE, encoding="utf-8")
    (tmp_path / "log.csv").write_text(LOG, encoding="utf-8")
    (tmp_path / "clusters.tsv").write_text(CLUSTERS, encoding="utf-8")
    (tmp_path / "notes.jsonl").write_text(STORE, encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", RUN_AND_LIST, str(PACKAGE.parent), *argv],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def _package_modules(modules: set[str]) -> set[str]:
    return {name.removeprefix("odlgraph.") for name in modules if name.startswith("odlgraph.")}


@pytest.mark.parametrize("argv, absent", [
    (["validate", "course.odlg"], {"notes", "dot_export", "clusters"}),
    (["sessions", "--log", "log.csv", "--course", "course.odlg"], {"notes", "dot_export", "clusters"}),
    (["notes", "list", "--store", "notes.jsonl", "--course", "course.odlg", "--node", "LA1", "--requester", "u1"],
     {"dot_export", "clusters", "paths"}),
], ids=["validate", "sessions", "notes-list"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, absent):
    code, loaded = _loaded(tmp_path, argv)
    loaded = _package_modules(loaded)
    assert code == 0
    assert "course_format" in loaded  # every command reads a course
    assert loaded & absent == set()


LOG_ARGS = ["--log", "log.csv", "--course", "course.odlg"]
STORE_ARGS = ["--store", "notes.jsonl", "--course", "course.odlg"]


@pytest.mark.parametrize("argv", [
    ["validate", "course.odlg"],
    ["parse", "course.odlg", "--to", "dot"],
    ["sessions", *LOG_ARGS],
    ["cycles", *LOG_ARGS],
    ["mine", *LOG_ARGS, "--cliques", "--on-strategy-paths", "--min-count", "1"],
    ["export", "--course", "course.odlg", "--overlay", "clusters", "--clusters", "clusters.tsv"],
    ["notes", "add", *STORE_ARGS, "--node", "LA2", "--learner", "u2"],
    ["notes", "send", *STORE_ARGS, "--sender", "u2", "--to", "u1", "--refs", "n1"],
    ["notes", "list", *STORE_ARGS, "--node", "LA1", "--requester", "u1"],
    ["notes", "inbox", *STORE_ARGS, "--user", "u1"],
], ids=["validate", "parse-dot", "sessions", "cycles", "mine-cliques", "export-clusters",
        "notes-add", "notes-send", "notes-list", "notes-inbox"])
def test_no_command_loads_dataclasses_or_inspect(tmp_path, argv):
    bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, check=True).stdout.split()
    code, loaded = _loaded(tmp_path, argv)
    assert code == 0
    assert {"dataclasses", "inspect"} & (loaded - set(bare)) == set()


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


# --- one writer of data ------------------------------------------------------------

DATA_WRITER = "_emit"


def _stdout_writes(tree: ast.Module) -> list[str]:
    """Each place in the CLI, outside its data writer, that writes to stdout."""
    writer = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
              and function.name == DATA_WRITER for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in writer:
            continue
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
            found.append(f"line {node.lineno}: sys.stdout")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            to = [ast.unparse(keyword.value) for keyword in node.keywords if keyword.arg == "file"]
            if to != ["sys.stderr"]:
                found.append(f"line {node.lineno}: print")
    return found


def test_only_the_data_writer_writes_to_stdout():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert DATA_WRITER in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert _stdout_writes(tree) == []


# --- one writer of files -----------------------------------------------------------

FILE_WRITER = ("text.py", "write_text")


def _file_writes(tree: ast.Module, writer: str | None = None) -> list[str]:
    """Each call outside the function ``writer`` that opens a file for writing, or syncs or replaces one."""
    inside = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
              and function.name == writer for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name in ("os.fsync", "os.replace") or name.endswith((".write_text", ".write_bytes")):  # Path methods
            found.append(f"line {node.lineno}: {name}")
        elif name == "open" or name.endswith(".open"):  # open(path, mode) or path.open(mode)
            first = 1 if name == "open" else 0
            modes = node.args[first:first + 1] + [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
            if any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wxa+") for mode in modes):
                found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_file_writer_writes_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == FILE_WRITER[0]:
        assert _file_writes(tree)  # the writer lives here, so the check has something to find
        assert _file_writes(tree, FILE_WRITER[1]) == []
    else:
        assert _file_writes(tree) == []


def test_the_cli_walks_activity_ids_only():
    # Every log command passes each learner's ids in visit order; none builds a learning experience.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & {"build_experience", "LearningExperience"} == set()


ROOT = PACKAGE.parent.parent
TEST_AND_BENCH_FILES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")])


def _outside_imports(path: Path) -> set[str]:
    """The top-level names of the modules a test or bench file imports, ``pytest.importorskip`` included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.importorskip"
              and isinstance(node.args[0], ast.Constant)):
            found.add(node.args[0].value.split(".")[0])
    local = {PACKAGE.name, *(file.stem for file in TEST_AND_BENCH_FILES)}
    return found - local - set(sys.stdlib_module_names)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_outside_import_of_the_tests_and_bench_is_in_the_test_extra():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = {re.match(r"[\w.-]+", requirement)[0].lower().replace("-", "_")
             for requirement in project["optional-dependencies"]["test"]}
    imported = {name: path.relative_to(ROOT).as_posix() for path in TEST_AND_BENCH_FILES
                for name in _outside_imports(path)}
    assert {"pytest", "hypothesis", "networkx"} <= imported.keys()  # the check finds what the files import
    assert {name: path for name, path in imported.items() if name.lower() not in extra} == {}
