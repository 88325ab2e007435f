"""Every package module uses each name it imports (``__init__`` re-exports)."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growrbm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n"
              "print(os.path.sep)\n")
    assert unused_imports(source) == ["field"]
