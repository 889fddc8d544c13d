"""Only ``matrices.py`` knows the per-stalk raw-grid format of a matrix.

Every other module of ``src/cleanmat`` builds and checks matrices with the
public operations, so none of them may import a private (``_``-prefixed)
name from ``.matrices``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cleanmat"


def _private_matrix_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "matrices":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_but_matrices_imports_its_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    offenders = {
        p.name: names
        for p in modules
        if p.name != "matrices.py" and (names := _private_matrix_imports(p))
    }
    assert offenders == {}


def test_the_guard_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from .matrices import SquareMatrix, _raw_matmul\n", encoding="utf-8")
    assert _private_matrix_imports(bad) == ["_raw_matmul"]
