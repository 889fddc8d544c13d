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

A Bezout pair is solved on raw stalk values by ``polys.raw_bezout``, the
one elimination of the package: ``matrices.py`` defines no Sylvester solve
(no name containing ``sylvester``, and no ``_raw_unit_solve``), and
``factor.py``, which solves through the kernel, imports nothing from
``.matrices``.

A certificate polynomial is built stalk by stalk on raw values, by
``polys.certificate_parts``: ``decide.py`` builds none with boxed
arithmetic, so it neither calls ``monic_divide`` nor makes a
``Poly.constant``.

A stalk is searched on its raw coefficients: no function of ``factor.py``
restricts a polynomial to a stalk, calls a boxed ``Poly`` operation
(``monic_divide``, ``translate``, a unit test, a constructor from parts or
ints) or applies an operator to a ``Poly``.

A polynomial certificate is verified stalk by stalk on raw parts:
``verify.py`` calls no ``on_block``, uses the name ``Poly`` only in
annotations (so it makes no ``Poly.one``) and applies no operator to a
certificate's polynomial or to h.

The verifier reads nothing the search wrote: ``verify.py`` names none of
``factor``'s memo (``_memo_search``, ``_MEMO_NOTES``), its block assembly
(``_assemble_global``) or ``decide``'s certificate polynomials
(``certificate_polys`` and their cache ``_memo_polys``), so a certificate
it accepts is checked against h and the ring alone.

The search builds no certificate polynomials: ``factor.py`` names neither
the kernel ``certificate_parts`` nor ``decide``'s construction
(``certificate_polys``, ``_memo_polys``), so a construction reads its
split off the certificate and never reaches into the search memo.

No decider consults an exhaustive oracle: in ``decide.py`` only the two
audits, ``theorem_main_audit`` and ``pi_regular_audit``, import ``.brute``.

The oracles cache per interned stalk: ``brute.py`` binds no module-level
dict, so each table or exponent it keeps is an ``lru_cache`` of a function
of the stalk.

A CLI command is a fresh process, so the modules every command imports stay
small: at import time ``__init__.py``, ``cli.py`` and ``serialize.py``
import only the standard library and ``errors``, ``stalks``, ``rings`` and
``serialize``; everything else is imported inside the function that runs it.

The package has no third-party runtime dependency: no module imports
numpy, at any level, and ``pyproject.toml`` lists no dependency.

The benchmark harness under ``perfbench/`` is frozen: it calls the package
by name, so the names, parameters and methods it uses must keep existing.

Code that only tests reach belongs with the tests: every module-level public
function of ``src/cleanmat`` is called or imported somewhere in the package
or exported by ``cleanmat.__all__``, except the few listed with a reason.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

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


def _matrices_imports(path: Path) -> list[str]:
    """The names imported from ``.matrices``, and ``matrices`` imported whole."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "matrices":
                found += [alias.name for alias in node.names]
            else:
                found += [a.name for a in node.names if a.name == "matrices"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[-1] == "matrices"]
    return sorted(found)


def _sylvester_solve_names(path: Path) -> list[str]:
    """Functions and assigned names that contain ``sylvester`` or are ``_raw_unit_solve``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.append(node.id)
    return sorted(n for n in names if "sylvester" in n or n == "_raw_unit_solve")


def test_the_bezout_solve_is_one_raw_kernel_in_polys():
    assert _matrices_imports(SRC / "factor.py") == []
    assert _sylvester_solve_names(SRC / "matrices.py") == []


def test_the_guard_sees_a_sylvester_solve_outside_polys(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import cleanmat.matrices\n"
        "from . import matrices, polys\n"
        "from .matrices import sylvester_solve\n"
        "def sylvester(f0, f1):\n"
        "    _raw_unit_solve = None\n"
        "def _raw_sylvester(s, a, b):\n"
        "    return a\n",
        encoding="utf-8",
    )
    assert _matrices_imports(bad) == ["cleanmat.matrices", "matrices", "sylvester_solve"]
    assert _sylvester_solve_names(bad) == ["_raw_sylvester", "_raw_unit_solve", "sylvester"]


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


# the polynomial fields of SR(C) and SP certificates
POLY_FIELDS = {"f0", "f1", "h0", "p0", "bezout_u", "bezout_v"}


def _boxed_poly_uses(path: Path) -> list[str]:
    """``on_block`` calls, uses of the name ``Poly`` outside annotations, and
    Poly arithmetic: a binary operator, unary ``-``, ``==`` or ``!=`` with an
    operand that is a certificate's polynomial field, a name assigned from
    one, or a parameter annotated ``Poly``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    annotated = set()
    polys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotated.update(map(id, ast.walk(node.annotation)))
            if "Poly" in ast.unparse(node.annotation):
                polys.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotated.update(map(id, ast.walk(node.returns)))
        elif isinstance(node, ast.AnnAssign):
            annotated.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                polys.update(
                    t.id
                    for t, v in pairs
                    if isinstance(t, ast.Name)
                    and isinstance(v, ast.Attribute)
                    and v.attr in POLY_FIELDS
                )

    def is_poly(e) -> bool:
        return (isinstance(e, ast.Attribute) and e.attr in POLY_FIELDS) or (
            isinstance(e, ast.Name) and e.id in polys
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "on_block":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == "Poly" and id(node) not in annotated:
            found.append("Poly")
        elif isinstance(node, ast.BinOp) and (is_poly(node.left) or is_poly(node.right)):
            found.append(ast.unparse(node))
        elif (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and is_poly(node.operand)
        ):
            found.append(ast.unparse(node))
        elif (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(map(is_poly, [node.left, *node.comparators]))
        ):
            found.append(ast.unparse(node))
    return sorted(found)


def test_verify_checks_polynomial_certificates_on_raw_parts():
    assert _boxed_poly_uses(SRC / "verify.py") == []


def test_the_guard_sees_boxed_polynomial_verification(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .polys import Poly\n"
        "def verify_src(h: Poly, cert) -> list[str]:\n"
        "    u, f0 = cert.bezout_u, cert.f0\n"
        "    if cert.f0 * cert.f1 != h or cert.bezout_u is None:\n"
        "        return [h.degree + 1]\n"
        "    one: Poly = Poly.one(h.ring)\n"
        "    return [u * f0 + cert.bezout_v * cert.f1 == one, -f0, not u, h.on_block((0,))]\n",
        encoding="utf-8",
    )
    assert _boxed_poly_uses(bad) == [
        "-f0",
        "Poly",
        "cert.bezout_v * cert.f1",
        "cert.f0 * cert.f1",
        "cert.f0 * cert.f1 != h",
        "h.on_block",
        "u * f0",
    ]


# the boxed Poly operations a stalk search used to run on one-stalk polynomials
BOXED_SEARCH_NAMES = {
    "monic_divide", "translate", "unit_at_zero", "unit_at_one", "from_parts", "from_ints",
    "t_power", "coeff", "coeffs",
}


def _boxed_search_uses(path: Path) -> list[str]:
    """``.restrict(`` calls, the boxed ``Poly`` operations of ``BOXED_SEARCH_NAMES``
    (``monic_divide`` also imported), and, per function, an operator,
    ``==``/``!=`` or a call applied to a Poly: a parameter annotated ``Poly``,
    a certificate's polynomial field, or a name assigned from one, from a
    Poly's method, from a ``Poly`` constructor or from ``trimmed_poly``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "restrict":
                found.append(ast.unparse(node.func))
        if isinstance(node, ast.Attribute) and node.attr in BOXED_SEARCH_NAMES:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id == "monic_divide":
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name == "monic_divide"]

    def makes_poly(v, polys) -> bool:
        if isinstance(v, ast.Call):
            f = ast.unparse(v.func)
            method_of_poly = isinstance(v.func, ast.Attribute) and is_poly(v.func.value, polys)
            return f.startswith("Poly") or f == "trimmed_poly" or method_of_poly
        return is_poly(v, polys)

    def is_poly(e, polys) -> bool:
        return (isinstance(e, ast.Attribute) and e.attr in POLY_FIELDS) or (
            isinstance(e, ast.Name) and e.id in polys
        )

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        polys = {
            a.arg
            for a in fn.args.args + fn.args.kwonlyargs
            if a.annotation is not None and "Poly" in ast.unparse(a.annotation)
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and makes_poly(node.value, polys):
                polys.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and (
                is_poly(node.left, polys) or is_poly(node.right, polys)
            ):
                found.append(ast.unparse(node))
            elif isinstance(node, ast.UnaryOp) and is_poly(node.operand, polys):
                found.append(ast.unparse(node))
            elif (
                isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(is_poly(e, polys) for e in [node.left, *node.comparators])
            ):
                found.append(ast.unparse(node))
            elif isinstance(node, ast.Call) and is_poly(node.func, polys):
                found.append(ast.unparse(node))
    return sorted(found)


def test_the_stalk_searches_run_on_raw_values():
    assert _boxed_search_uses(SRC / "factor.py") == []


def test_the_guard_sees_a_boxed_stalk_search(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .polys import Poly, monic_divide, trimmed_poly\n"
        "def _stalk_step(h: Poly, i, R):\n"
        "    hi = h.restrict(i)\n"
        "    g = trimmed_poly(R, [hi.parts[0]])\n"
        "    q, r, exact = monic_divide(hi, g)\n"
        "    if g.unit_at_one and hi(R.one) and -g and hi == g:\n"
        "        return g * hi, Poly.from_ints(R, [1, 1]).translate(R.one)\n"
        "def raw(s, h, f0):\n"
        "    return h + f0, -h, h == f0, s.one * 2\n",
        encoding="utf-8",
    )
    assert _boxed_search_uses(bad) == [
        "-g",
        "Poly.from_ints",
        "Poly.from_ints(R, [1, 1]).translate",
        "g * hi",
        "g.unit_at_one",
        "h.restrict",
        "hi == g",
        "hi(R.one)",
        "monic_divide",
        "monic_divide",
    ]


SEARCH_STATE_NAMES = {
    "_memo_search", "_MEMO_NOTES", "_assemble_global", "certificate_polys", "_memo_polys"
}
CONSTRUCTION_NAMES = {"certificate_parts", "certificate_polys", "_memo_polys"}


def _names_used(path: Path, names: set) -> list[str]:
    """Names, attributes, imports and string constants of ``path`` that are in ``names``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append(node.value)
    return sorted(name for name in found if name in names)


def test_verify_reads_nothing_the_search_computed():
    assert _names_used(SRC / "verify.py", SEARCH_STATE_NAMES) == []


def test_the_guard_sees_the_search_state_in_verify(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .factor import _memo_search\n"
        "from .decide import certificate_polys\n"
        "from . import decide, factor\n"
        "def f(R, g):\n"
        "    factor._MEMO_NOTES.clear()\n"
        "    return decide._memo_polys, getattr(factor, '_assemble_global')\n",
        encoding="utf-8",
    )
    assert _names_used(bad, SEARCH_STATE_NAMES) == [
        "_MEMO_NOTES", "_assemble_global", "_memo_polys", "_memo_search", "certificate_polys"
    ]


def test_the_search_builds_no_certificate_polynomials():
    assert _names_used(SRC / "factor.py", CONSTRUCTION_NAMES) == []


def test_the_guard_sees_a_construction_in_factor(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .polys import certificate_parts\n"
        "from . import decide\n"
        "def f(R, s, split):\n"
        "    decide._memo_polys(s, split, 'SRC')\n"
        "    return certificate_parts(s, *split), getattr(decide, 'certificate_polys')\n",
        encoding="utf-8",
    )
    assert _names_used(bad, CONSTRUCTION_NAMES) == [
        "_memo_polys", "certificate_parts", "certificate_parts", "certificate_polys"
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


DICT_FACTORIES = {"dict", "defaultdict", "OrderedDict", "Counter"}


def _module_level_dicts(path: Path) -> list[str]:
    """Names bound at module level to a dict: a display, a comprehension, a
    call of a dict type, or any value under a ``dict`` annotation."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            targets, annotation = node.targets, None
        elif isinstance(node, ast.AnnAssign):
            targets, annotation = [node.target], node.annotation
        else:
            continue
        value = node.value
        if (
            isinstance(value, (ast.Dict, ast.DictComp))
            or (isinstance(value, ast.Call) and _call_name(value.func) in DICT_FACTORIES)
            or (annotation is not None and "dict" in ast.unparse(annotation).lower())
        ):
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_the_oracles_keep_no_module_level_dict_cache():
    assert _module_level_dicts(SRC / "brute.py") == []


def test_the_guard_sees_a_module_level_dict_cache(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from collections import defaultdict\n"
        "from functools import lru_cache\n"
        "ENCODE_CAP = 1024\n"
        "_TABLE_CACHE: dict[str, object] = {}\n"
        "_GL_EXPONENTS = dict()\n"
        "_INDEX = {n: [] for n in range(3)}\n"
        "_BY_STALK = defaultdict(list)\n"
        "_NAMES: Dict = None\n"
        "@lru_cache(maxsize=None)\n"
        "def _tables(s):\n"
        "    local = {}\n"
        "    return local\n",
        encoding="utf-8",
    )
    assert _module_level_dicts(bad) == [
        "_BY_STALK", "_GL_EXPONENTS", "_INDEX", "_NAMES", "_TABLE_CACHE"
    ]


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


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in ``path``, at any level."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_numpy():
    offenders = [p.name for p in sorted(SRC.glob("*.py")) if "numpy" in _imported_roots(p)]
    assert offenders == []


def test_the_guard_sees_numpy_in_a_function_body(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy.typing\n"
        "def f():\n"
        "    from numpy import array\n",
        encoding="utf-8",
    )
    assert _imported_roots(bad) == {"typing", "numpy"}


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project.get("dependencies", []) == []


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


# public functions that nothing in the package uses and ``__all__`` does not
# export, each with the reason it stays
UNREFERENCED_PUBLIC = {
    "decide.strong_clean_triangular": "the public construction for one matrix",
}


def _references(tree) -> set[str]:
    """Names read, as attributes or imported in ``tree``; a name read where a
    function binds it (a parameter or an assignment) is that function's own."""
    found = set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            stores = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
            local = local | {a.arg for a in params}
            local |= {n.id for n in stores if isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return found


def _unreferenced_public_functions(src: Path, exported) -> list[str]:
    """``module.name`` of each module-level public function in ``src`` that no
    module there references and ``exported`` does not list."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in used
        and node.name not in exported
    )


def test_every_public_function_is_used_or_exported():
    import cleanmat

    assert _unreferenced_public_functions(SRC, cleanmat.__all__) == sorted(UNREFERENCED_PUBLIC)


def test_the_guard_sees_a_function_only_tests_use(tmp_path):
    (tmp_path / "polys.py").write_text(
        "def raw_divide(s, f, g):\n"
        "    return f\n"
        "def monic_divide(f, g):\n"
        "    return raw_divide(f.stalk, f, g)\n"
        "def monic(ring, coeffs):\n"
        "    return _checked(coeffs)\n"
        "def _checked(coeffs):\n"
        "    return coeffs\n"
        "def gsrc_search(h, R):\n"
        "    return h\n"
        "class Poly:\n"
        "    def translate(self, c):\n"
        "        return self\n",
        encoding="utf-8",
    )
    (tmp_path / "verify.py").write_text(
        "from .polys import raw_divide\n"
        "def check(f, g):\n"
        "    monic = f.monic_divide\n"
        "    return lambda monic: monic(raw_divide(None, f, g))\n",
        encoding="utf-8",
    )
    # a local or a parameter named ``monic`` is no use of the function; an
    # attribute ``monic_divide`` is
    assert _unreferenced_public_functions(tmp_path, ["gsrc_search"]) == [
        "polys.monic", "verify.check"
    ]
