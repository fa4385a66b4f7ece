"""Every exported name resolves, and no import is left unused, so no
deletion leaves a stale export or a stale import behind."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import it2fuzz

MODULES = ["it2fuzz"] + [f"it2fuzz.{m.name}" for m in pkgutil.iter_modules(it2fuzz.__path__)]
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def stale_imports(path: Path) -> list[str]:
    """``path:line name`` for each name the file imports, never references
    and does not list in its ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_stale_imports():
    assert SOURCES
    assert [s for path in SOURCES for s in stale_imports(path)] == []


def test_importing_the_cli_leaves_statistics_unloaded():
    # Only ``bench`` uses statistics, so only ``run_bench`` imports it.
    src = str(Path(it2fuzz.__file__).resolve().parent.parent)
    code = "import sys, it2fuzz.cli; print('statistics' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
