"""Layering guards over the modules of ``src/cleanmat``.

Only ``matrices.py`` knows the per-stalk raw-grid format of a matrix, and
only ``polys.py`` the raw kernels of a polynomial: every other module builds
and checks matrices and polynomials with the public operations, so none of
them may import a private (``_``-prefixed) name from ``.matrices`` or
``.polys``.

Only ``stalks.py`` knows how a stalk stores its operations: no other module
may read a stalk's private ``_add``, ``_mul``, ``_neg`` or ``_inv``.

A multi-term stalk step reduces once per result: ``matrices.py`` and
``polys.py`` call the fused ``submul(x, c, y) = x - c*y`` (or ``dot``, and
for a whole matrix product the stalk's ``matmul``), so neither may nest a
``mul`` call inside an ``add`` or ``sub`` call.

A Pierce block is its support: ``factor.py`` builds each block idempotent
as the indicator of its support and ``verify.py`` checks it on raw stalk
values, so neither may use the Element-level idempotent bookkeeping
(``primitive_idempotents``, ``idempotent_support``,
``is_complete_orthogonal``).

A certificate polynomial is built stalk by stalk on raw values, by
``polys.certificate_parts``: ``decide.py`` builds none with boxed
arithmetic, so it neither calls ``monic_divide`` nor makes a
``Poly.constant``.

No decider consults an exhaustive oracle: in ``decide.py`` only the two
audits, ``theorem_main_audit`` and ``pi_regular_audit``, import ``.brute``.

A CLI command is a fresh process, so the modules every command imports stay
small: at import time ``__init__.py``, ``cli.py`` and ``serialize.py``
import only the standard library and ``errors``, ``stalks``, ``rings`` and
``serialize``; everything else is imported inside the function that runs it.

The benchmark harness under ``perfbench/`` is frozen: it calls the package
by name, so the names, parameters and methods it uses must keep existing.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
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
        "from .matrices import SquareMatrix, _raw_power\nfrom .polys import Poly, _poly\n",
        encoding="utf-8",
    )
    assert _private_imports(bad, "matrices") == ["_raw_power"]
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


def _call_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _unfused_submuls(path: Path) -> list[str]:
    """The ``add``/``sub`` calls with a ``mul`` call among their arguments."""
    return sorted(
        ast.unparse(node)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and _call_name(node.func) in ("add", "sub")
        and any(
            isinstance(arg, ast.Call) and _call_name(arg.func) == "mul" for arg in node.args
        )
    )


def test_kernels_reduce_once_per_elimination_step():
    offenders = {
        name: calls
        for name in ("matrices.py", "polys.py")
        if (calls := _unfused_submuls(SRC / name))
    }
    assert offenders == {}


def test_the_guard_sees_an_unfused_submul(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(s, x, c, y, k):\n"
        "    sub, mul = s.sub, s.mul\n"
        "    a = [sub(v, mul(c, w)) for v, w in zip(x, y)]\n"
        "    b = s.add(s.mul(c, k), x)\n"
        "    return a, b, s.submul(x, c, k), mul(sub(x, k), c), s.sub(x, s.dot(y, y))\n",
        encoding="utf-8",
    )
    assert _unfused_submuls(bad) == ["s.add(s.mul(c, k), x)", "sub(v, mul(c, w))"]


BOXED_IDEMPOTENT_NAMES = {"primitive_idempotents", "idempotent_support", "is_complete_orthogonal"}


def _boxed_idempotent_uses(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names]
    return sorted(name for name in found if name in BOXED_IDEMPOTENT_NAMES)


def test_blocks_are_built_and_verified_on_supports():
    offenders = {
        name: uses
        for name in ("factor.py", "verify.py")
        if (uses := _boxed_idempotent_uses(SRC / name))
    }
    assert offenders == {}


def test_the_guard_sees_boxed_idempotent_bookkeeping(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .rings import is_complete_orthogonal\n"
        "def f(R, e):\n"
        "    return R.primitive_idempotents(), R.idempotent_support(e)\n",
        encoding="utf-8",
    )
    assert _boxed_idempotent_uses(bad) == [
        "idempotent_support", "is_complete_orthogonal", "primitive_idempotents"
    ]


BOXED_CERTIFICATE_NAMES = {"monic_divide", "constant"}


def _boxed_certificate_uses(path: Path) -> list[str]:
    """Uses of ``monic_divide`` (called or imported) and of ``Poly.constant``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and node.id == "monic_divide":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in BOXED_CERTIFICATE_NAMES:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name == "monic_divide"]
    return sorted(found)


def test_decide_builds_no_certificate_polynomial_boxed():
    assert _boxed_certificate_uses(SRC / "decide.py") == []


def test_the_guard_sees_boxed_certificate_arithmetic(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .polys import Poly, monic_divide\n"
        "from . import polys\n"
        "def f(f0, h, c):\n"
        "    a0 = Poly.constant(c) * f0\n"
        "    return monic_divide(a0, h)[1], polys.monic_divide(f0, h), f0.coeff(0)\n",
        encoding="utf-8",
    )
    assert _boxed_certificate_uses(bad) == [
        "Poly.constant", "monic_divide", "monic_divide", "polys.monic_divide"
    ]


ORACLE_AUDITS = ["pi_regular_audit", "theorem_main_audit"]


def _brute_importers(path: Path) -> list[str]:
    """The functions (``<module>`` for the top level) that import ``.brute``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and (
                (child.module or "").split(".")[-1] == "brute"
                or (child.module is None and any(a.name == "brute" for a in child.names))
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sorted(found)


def test_only_the_audits_import_the_oracles():
    assert _brute_importers(SRC / "decide.py") == ORACLE_AUDITS


def test_the_guard_sees_an_oracle_on_a_decision_path(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .brute import strongly_clean_bruteforce\n"
        "def decide_pi_regular(A):\n"
        "    if A:\n"
        "        from .brute import pi_regular_oracle\n"
        "def pi_regular_audit(R):\n"
        "    from . import brute\n"
        "def theorem_main_audit(R):\n"
        "    from .factor import gsrc_search\n",
        encoding="utf-8",
    )
    assert _brute_importers(bad) == ["<module>", "decide_pi_regular", "pi_regular_audit"]


COLD_START_MODULES = ("__init__.py", "cli.py", "serialize.py")
COLD_START_LAYER = {".errors", ".stalks", ".rings", ".serialize"}


def _import_time_imports(path: Path) -> list[str]:
    """Modules imported when ``path`` is imported (``.name`` for package modules).

    Function bodies run later and ``if TYPE_CHECKING:`` blocks never run, so
    neither is searched; class bodies and other top-level blocks are.
    """
    found = []

    def visit(stmts):
        for node in stmts:
            if isinstance(node, ast.Import):
                found.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.level and node.module is None:
                    found.extend(f".{alias.name}" for alias in node.names)
                else:
                    found.append("." * node.level + (node.module or ""))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
                visit(node.orelse)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []))

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return found


def _outside_cold_start_layer(path: Path) -> list[str]:
    return sorted(
        name
        for name in _import_time_imports(path)
        if name not in COLD_START_LAYER
        and (name.startswith(".") or name.split(".")[0] not in sys.stdlib_module_names)
    )


def test_cli_entry_modules_import_only_the_ring_layer():
    offenders = {
        name: names
        for name in COLD_START_MODULES
        if (names := _outside_cold_start_layer(SRC / name))
    }
    assert offenders == {}


def test_the_guard_sees_an_import_time_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import json\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "from .rings import Ring\n"
        "from .decide import Decision\n"
        "from . import quadz5\n"
        "if TYPE_CHECKING:\n"
        "    from .polys import Poly\n"
        "try:\n"
        "    from .factor import Block\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    from .brute import pi_regular_oracle\n",
        encoding="utf-8",
    )
    assert _outside_cold_start_layer(bad) == [".decide", ".factor", ".quadz5", "numpy"]


# module -> the names ``perfbench/`` calls in it
BENCHMARK_ENTRY_POINTS = {
    "factor": ["src_search", "sp_search", "gsrc_search", "gsp_search"],
    "verify": [
        "verify_src",
        "verify_sp",
        "verify_gsrc",
        "verify_gsp",
        "verify_strong_clean",
        "verify_pi_regular",
    ],
    "decide": [
        "decide_strongly_clean",
        "decide_pi_regular",
        "theorem_main_audit",
        "pi_regular_audit",
        "triangular_sweep",
    ],
    "serialize": [
        "ring_from_json",
        "matrix_from_json",
        "poly_from_json",
        "certificate_from_json",
        "dumps_canonical",
    ],
    "matrices": ["companion", "char_poly"],
    "polys": ["Poly"],
    "rings": ["build_ring"],
    "cli": ["main"],
}


def _params(module: str, name: str) -> list[str]:
    fn = getattr(importlib.import_module(f"cleanmat.{module}"), name)
    return list(inspect.signature(fn).parameters)


def test_the_benchmark_entry_points_exist():
    missing = [
        f"{module}.{name}"
        for module, names in BENCHMARK_ENTRY_POINTS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cleanmat.{module}"), name, None))
    ]
    assert missing == []
    assert "cross_check" in _params("decide", "decide_pi_regular")
    assert {"samples", "seed"} <= set(_params("decide", "theorem_main_audit"))
    # the tracer counts a scan's candidates from its positional start and stop
    assert _params("_kernels", "scan_strongly_clean")[10:12] == ["start", "stop"]
    assert isinstance(importlib.import_module("cleanmat._kernels").HAVE_NUMBA, bool)
    from cleanmat.matrices import SquareMatrix
    from cleanmat.rings import Ring

    assert callable(Ring.classify) and callable(SquareMatrix.__matmul__)
