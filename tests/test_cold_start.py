"""Cold start: each CLI command loads only the modules it runs.

Every command runs in a fresh interpreter, as ``python -m cleanmat.cli``
does, and reports the ``cleanmat`` modules and whether numpy ended up in
``sys.modules``.  The package itself re-exports its ``__all__`` lazily, so
``import cleanmat`` alone loads no submodule.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import CERT_RINGS

import cleanmat

SRC = str(Path(cleanmat.__file__).resolve().parents[1])

PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from cleanmat.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(sys.argv[1:])
    print(json.dumps({
        "rc": rc,
        "modules": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cleanmat.")),
        "numpy": "numpy" in sys.modules,
    }))
    """
)

Z4 = '{"type":"zmod","n":4}'
Z6 = '{"type":"zmod","n":6}'
Z12 = '{"type":"zmod","n":12}'
ZLOC2 = '{"type":"zloc","p":2}'
PROD = '{"type":"product","factors":[{"type":"zloc","p":2},{"type":"zloc","p":2}]}'
PAPER_POLY = "[[2,3],[3,1],[1,1]]"
F4 = json.dumps(CERT_RINGS["F4"])

# one command of each kind the CLI benchmark cycles through
COMMANDS = {
    "ring": ["ring", "--ring", Z12],
    "factor": ["factor", "--ring", PROD, "--poly", PAPER_POLY, "--mode", "sr"],
    "decide": ["decide", "--ring", PROD, "--poly", PAPER_POLY, "--companion"],
    "decide --degree": ["decide", "--ring", ZLOC2, "--degree", "2"],
    "pi-regular": ["pi-regular", "--ring", Z6, "--poly", "[2,3,1]", "--companion"],
    "audit": ["audit", "--ring", Z6, "--degree", "2"],
    "audit --pi": ["audit", "--ring", Z4, "--degree", "2", "--pi"],
    "triangular": ["triangular", "--ring", Z4, "--degree", "2"],
    "jclean": ["jclean", "--ring", ZLOC2],
    "z5-example": ["z5-example"],
    "ring (table)": ["ring", "--ring", F4],
}


def _python(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def _loaded(argv):
    res = _python("-c", PROBE, *argv)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.fixture(scope="module")
def loaded():
    """Each command's exit code, cleanmat modules and numpy flag, one interpreter each."""
    return {name: _loaded(argv) for name, argv in COMMANDS.items()}


def test_every_probed_command_succeeds(loaded):
    assert {name: rec["rc"] for name, rec in loaded.items()} == dict.fromkeys(COMMANDS, 0)


def test_ring_loads_only_the_ring_layer(loaded):
    for name in ("ring", "ring (table)"):
        assert set(loaded[name]["modules"]) == {"cli", "errors", "rings", "serialize", "stalks"}


def test_factor_loads_no_decider(loaded):
    assert {"factor", "polys"} <= set(loaded["factor"]["modules"])
    assert not {"decide", "verify", "matrices", "brute", "_kernels", "quadz5"} & set(
        loaded["factor"]["modules"]
    )


def test_deciding_one_matrix_loads_no_oracle(loaded):
    for name in ("decide", "decide --degree", "pi-regular"):
        assert "decide" in loaded[name]["modules"]
        assert not {"brute", "_kernels", "quadz5"} & set(loaded[name]["modules"])


def test_only_z5_example_loads_quadz5(loaded):
    assert [name for name, rec in loaded.items() if "quadz5" in rec["modules"]] == ["z5-example"]
    assert set(loaded["z5-example"]["modules"]) == {
        "cli", "errors", "quadz5", "rings", "serialize", "stalks"
    }


def test_numpy_loads_only_for_the_scan(loaded):
    """No command loads numpy; the scan kernel loads only for the audit's scan."""
    assert [name for name, rec in loaded.items() if rec["numpy"]] == []
    assert [name for name, rec in loaded.items() if "_kernels" in rec["modules"]] == ["audit"]


def test_building_table_rings_loads_no_numpy():
    # every table ring of the test pool, Z/64 at the size limit, and one
    # table that fails an axiom
    code = textwrap.dedent(
        """
        import json, sys
        from cleanmat.errors import NonRing
        from cleanmat.rings import build_ring
        for d in json.loads(sys.argv[1]):
            build_ring(d)
        n = 64
        build_ring({"type": "table", "add": [[(i + j) % n for j in range(n)] for i in range(n)],
                    "mul": [[i * j % n for j in range(n)] for i in range(n)]})
        try:
            build_ring({"type": "table", "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]]})
        except NonRing:
            print("numpy" in sys.modules)
        """
    )
    tables = [d for d in CERT_RINGS.values() if d["type"] == "table"]
    res = _python("-c", code, json.dumps(tables))
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_the_verify_round_trip_loads_no_oracle(tmp_path):
    doc = tmp_path / "doc.json"
    res = _python("-m", "cleanmat.cli", *COMMANDS["decide"])
    assert res.returncode == 0, res.stderr
    doc.write_text(res.stdout, encoding="utf-8")
    rec = _loaded(["decide", "--ring", PROD, "--verify", f"@{doc}"])
    assert rec["rc"] == 0
    assert "verify" in rec["modules"]
    assert not {"brute", "_kernels", "quadz5"} & set(rec["modules"]) and not rec["numpy"]


def test_importing_the_package_loads_no_submodule():
    code = "import sys, cleanmat; print(sorted(m for m in sys.modules if m.startswith('cleanmat')))"
    res = _python("-c", code)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['cleanmat']\n"


def test_every_exported_name_is_its_submodule_object():
    for name in cleanmat.__all__:
        obj = getattr(cleanmat, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("cleanmat.")
        assert getattr(home, name) is obj, name
    assert set(cleanmat.__all__) <= set(dir(cleanmat))
    with pytest.raises(AttributeError):
        cleanmat.no_such_name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from cleanmat import *", namespace)
    assert {name: namespace[name] for name in cleanmat.__all__} == {
        name: getattr(cleanmat, name) for name in cleanmat.__all__
    }


def test_the_default_budget_is_one_object():
    from cleanmat import brute, cli, decide, errors

    assert brute.DEFAULT_BUDGET is errors.DEFAULT_BUDGET is decide.DEFAULT_BUDGET
    args = cli.build_parser().parse_args(["triangular", "--ring", Z4, "--degree", "2"])
    assert args.budget == errors.DEFAULT_BUDGET
