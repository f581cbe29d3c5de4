import ast
import importlib
import pkgutil
from pathlib import Path

import singwald


def test_every_export_resolves():
    # A deletion that leaves its name in an __all__ fails here, not at the
    # first `from singwald import *`.
    names = ["singwald"] + [
        f"singwald.{info.name}" for info in pkgutil.iter_modules(singwald.__path__)
    ]
    stale = [
        f"{name}.{attr}"
        for name in names
        for module in [importlib.import_module(name)]
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert len(names) > 1 and not stale


class _FileOpens(ast.NodeVisitor):
    """The scope (``module.function``) of each call of ``open`` or of a
    path's ``open``, ``read_text`` or ``read_bytes`` in one module."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "read_bytes")
        ):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_reader_opens_every_input_file():
    # The input text format (UTF-8, byte-order mark, comments, blank lines)
    # lives in errors.read_input and errors.content_lines; a parser that
    # opens its own file would be another copy of it.  The other open is
    # the --out file.
    opens = []
    for path in sorted(Path(singwald.__file__).parent.glob("*.py")):
        visitor = _FileOpens(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        opens += visitor.found
    assert sorted(opens) == ["cli._open_out", "errors.read_input"]
