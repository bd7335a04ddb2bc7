"""File boundary: outside `errors.py`, no module of the package opens, reads
or writes a file itself, but for the few places named in ALLOWED. Every
other file goes through `errors.read_bytes`, `read_text`, `read_json` and
`write_text`, so one rule maps a bad path to its exit code.

The check parses each module with `ast`: a call of the builtin `open`, or
of a method named like a `Path` file method, is a file access; calling the
`errors.py` functions by their imported names is not.

The same parse pins the layers in LAYERS: the tree's shot nodes are the
only shot type, so `tree.py` takes shots as frame ranges and imports nothing
from `ingest`; the build groups captions by shot, so `captioning.py` fuses
each group without the tree.

It also keeps `errors.py` to the classes the exit-code contract needs: the
CLI reports an error by its message and `exit_code` alone, so a subclass of
VideoQAError must either set its own `exit_code` or be named in some
`except` clause of the package. Any other class is a name nothing tells
apart from its parent.

`write_text` itself replaces its target in one step: a write that fails
part-way leaves the previous file as it was.
"""

from __future__ import annotations

import ast
import errno
from pathlib import Path

import pytest

import videoqa
from videoqa.errors import InputError, write_text

PACKAGE_DIR = Path(videoqa.__file__).parent
FILE_METHODS = {"read_bytes", "read_text", "write_text", "write_bytes"}
# (module, enclosing class or function) -> why it may touch files itself.
ALLOWED = {
    ("backends.py", "CachingBackend"): "cache entries: a bad one is a miss",
    ("captioning.py", "load_template"): "the package's own templates",
    ("ingest.py", "write_embeddings"): "the writer of generated inputs",
}
# (module, package module it must not import)
LAYERS = [("tree.py", "videoqa.ingest"), ("captioning.py", "videoqa.tree")]


def _file_accesses(tree: ast.AST) -> list[tuple[str, int]]:
    """(qualified name of the enclosing scope, line) of each file access."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Name) and func.id == "open")
                    or (isinstance(func, ast.Attribute)
                        and func.attr in FILE_METHODS)):
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_file_io_goes_through_errors_py() -> None:
    offenders, used = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for scope, line in _file_accesses(tree):
            allowed = [key for key in ALLOWED if key[0] == path.name and (
                scope == key[1] or scope.startswith(key[1] + "."))]
            if allowed:
                used.update(allowed)
            else:
                offenders.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert not offenders, ("file access outside errors.py; use its readers "
                           "and writers: " + ", ".join(offenders))
    assert used == set(ALLOWED), f"stale allowlist entries: {set(ALLOWED) - used}"


def _imported(tree: ast.AST) -> set[str]:
    """Dotted names a module imports, relative ones resolved in the package;
    `from a import b` names both `a` and `a.b`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(part for part in (
                "videoqa" if node.level else "", node.module or "") if part)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module,forbidden", LAYERS)
def test_module_does_not_import(module, forbidden) -> None:
    source = (PACKAGE_DIR / module).read_text(encoding="utf-8")
    imported = _imported(ast.parse(source))
    assert not any(name == forbidden or name.startswith(forbidden + ".")
                   for name in imported), f"{module} imports {forbidden}"


def test_every_error_class_sets_an_exit_code_or_is_caught() -> None:
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    caught = {node.id for tree in modules.values() for handler in ast.walk(tree)
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
    classes = {node.name: node for node in modules["errors.py"].body
               if isinstance(node, ast.ClassDef)}

    def is_error(name: str) -> bool:
        return name == "VideoQAError" or name in classes and any(
            isinstance(base, ast.Name) and is_error(base.id)
            for base in classes[name].bases)

    def sets_exit_code(node: ast.ClassDef) -> bool:
        return any(isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "exit_code"
            for target in stmt.targets) for stmt in node.body)

    errors = [name for name in classes if is_error(name)]
    assert errors, "no VideoQAError subclass found in errors.py"
    untold = [name for name in errors
              if not sets_exit_code(classes[name]) and name not in caught]
    assert not untold, ("error classes that neither set an exit_code nor are "
                        "caught by name; raise their parent: "
                        + ", ".join(untold))


def test_write_text_replaces_its_target(tmp_path) -> None:
    target = tmp_path / "report.json"
    target.write_text("old\n", encoding="utf-8")
    write_text(target, "new\n", "report file")
    assert target.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_text_cut_short_leaves_the_previous_file(tmp_path,
                                                       monkeypatch) -> None:
    """A write that fails half-way raises the usual InputError, leaves the
    previous file byte-identical and leaves no temp file behind."""
    target = tmp_path / "records.jsonl"
    target.write_bytes(b'{"question_id":"a_q1"}\n')
    real_write_text = Path.write_text

    def half_then_full_disk(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", half_then_full_disk)
    with pytest.raises(InputError) as raised:
        write_text(target, '{"question_id":"b_q1"}\n' * 4, "records file")
    assert str(raised.value) == (f"records file {target} cannot be written: "
                                 "No space left on device")
    assert target.read_bytes() == b'{"question_id":"a_q1"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_write_text_onto_a_directory_leaves_no_temp_file(tmp_path) -> None:
    (tmp_path / "out").mkdir()
    with pytest.raises(InputError, match="out cannot be written: Is a directory"):
        write_text(tmp_path / "out", "text", "report file")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
