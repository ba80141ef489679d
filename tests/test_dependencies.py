"""The package imports with only its declared dependencies installed."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"


def _setup_argument(name: str):
    """The literal value of keyword ``name`` in the ``setup()`` call of ``setup.py``."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"setup.py passes no {name}")


def _distribution_names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in requirements}


def _third_party_imports() -> dict[str, list[str]]:
    """Top-level modules imported by ``src/repro`` outside stdlib and the package."""
    found: dict[str, list[str]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def test_imports_without_networkx():
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro, repro.network, repro.circuits, repro.desim, repro.api\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


def test_every_third_party_import_is_declared():
    required = _distribution_names(_setup_argument("install_requires"))
    imported = _third_party_imports()
    assert "numpy" in imported and "numpy" in required
    undeclared = {name: files for name, files in imported.items() if name not in required}
    assert undeclared == {}


def test_every_data_file_is_declared_as_package_data():
    """``pip install .`` ships only ``.py`` files unless the rest is declared."""
    declared = {
        SOURCE.parent.joinpath(*package.split("."), pattern)
        for package, patterns in _setup_argument("package_data").items()
        for pattern in patterns
    }
    data_files = {
        path
        for path in SOURCE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    }
    assert data_files - declared == set()
