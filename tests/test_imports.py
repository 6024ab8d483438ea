"""Every module in src/ and tests/ uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """``(line, name)`` of each name ``path`` imports and never reads.

    A name counts as used where it appears as an identifier, or where the
    module lists it in ``__all__``; ``from __future__`` imports are exempt.
    ``import a.b`` binds ``a``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(paths) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in paths for line, name in _unused_imports(path)]
    assert unused == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import pi, tau\n"
        "from sys import argv\n"
        "__all__ = ['argv']\n"
        "print(os.path.sep, pi)\n",
        encoding="utf-8",
    )
    assert _unused_imports(module) == [(3, "j"), (4, "tau")]
