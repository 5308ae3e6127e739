"""Source hygiene of the library: every imported name is used, and every
module-level private name is referenced in its module. Only `ast` reads the
sources, so the check needs nothing beyond the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "memotrs"


def unused_names(source: str, reexports: bool = False) -> list[str]:
    """The imported names source never uses, unless it re-exports them,
    and the module-level private functions, classes and variables it
    never references."""
    tree = ast.parse(source)
    loaded = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    faults = []
    if not reexports:
        for node in ast.walk(tree):
            imports = isinstance(node, (ast.Import, ast.ImportFrom))
            if imports and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        faults.append(f"line {node.lineno}: {name} is imported but not used")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            private = name.startswith("_") and not name.startswith("__")
            if private and name not in loaded:
                faults.append(f"line {node.lineno}: {name} is defined but never referenced")
    return faults


def test_modules_import_only_what_they_use_and_reference_their_privates():
    faults = [
        f"{path.name} {fault}"
        for path in sorted(SRC.glob("*.py"))
        for fault in unused_names(path.read_text(), reexports=path.name == "__init__.py")
    ]
    assert faults == []


def test_the_check_finds_each_kind_of_fault():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Iterable, Optional\n"
        "_LIMIT = 3\n"
        "_USED: Optional[int] = None\n"
        "def _helper(): return _USED\n"
        "class _Box: pass\n"
        "def public(x: Iterable) -> int: return os.sep and _helper()\n"
    )
    assert unused_names(source) == [
        "line 2: osp is imported but not used",
        "line 4: _LIMIT is defined but never referenced",
        "line 7: _Box is defined but never referenced",
    ]
