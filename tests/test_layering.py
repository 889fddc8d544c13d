"""Layering guards over the modules of ``src/cleanmat``.

Only ``matrices.py`` knows the per-stalk raw-grid format of a matrix, and
only ``polys.py`` the raw kernels of a polynomial: every other module builds
and checks matrices and polynomials with the public operations, so none of
them may import a private (``_``-prefixed) name from ``.matrices`` or
``.polys``.

Only ``stalks.py`` knows how a stalk stores its operations: no other module
may read a stalk's private ``_add``, ``_mul``, ``_neg`` or ``_inv``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cleanmat"


def _private_imports(path: Path, module: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def _private_import_offenders(module: str) -> dict:
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    return {
        p.name: names
        for p in modules
        if p.name != f"{module}.py" and (names := _private_imports(p, module))
    }


def test_no_module_but_matrices_imports_its_private_names():
    assert _private_import_offenders("matrices") == {}


def test_no_module_but_polys_imports_its_private_names():
    assert _private_import_offenders("polys") == {}


def test_the_guard_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .matrices import SquareMatrix, _raw_matmul\nfrom .polys import Poly, _poly\n",
        encoding="utf-8",
    )
    assert _private_imports(bad, "matrices") == ["_raw_matmul"]
    assert _private_imports(bad, "polys") == ["_poly"]


STALK_PRIVATES = {"_add", "_mul", "_neg", "_inv"}


def _stalk_private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in STALK_PRIVATES
    )


def test_no_module_but_stalks_reads_stalk_tables():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    offenders = {
        p.name: names
        for p in modules
        if p.name != "stalks.py" and (names := _stalk_private_reads(p))
    }
    assert offenders == {}


def test_the_guard_sees_a_stalk_table_read(tmp_path):
    # a table-index parse that reads each stalk's private table
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(R, idx):\n    return tuple(s._mul[s.one][idx] for s in R.stalks)\n",
        encoding="utf-8",
    )
    assert _stalk_private_reads(bad) == ["_mul"]
