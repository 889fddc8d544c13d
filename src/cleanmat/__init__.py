"""Strong cleanness and strong pi-regularity of matrices over commutative clean rings.

Exact, certificate-producing deciders built on explicit Pierce-style
idempotent block decompositions: rings are finite products of computable
local stalks (Z/p^k, Z_(p), small operation tables), characteristic
polynomials are computed division-free, and every positive answer carries a
machine-checkable witness.

The names of ``__all__`` are loaded on first use (PEP 562): ``import
cleanmat`` imports no submodule, and ``cleanmat.X`` or ``from cleanmat
import X`` imports only the submodule that defines X.  A CLI command is a
fresh process, so this keeps its start-up to the modules it runs.
"""

import importlib

# exported name -> the submodule that defines it
_SOURCES = {
    "Decision": "decide",
    "Element": "rings",
    "Poly": "polys",
    "Ring": "rings",
    "SquareMatrix": "matrices",
    "build_ring": "rings",
    "char_poly": "matrices",
    "companion": "matrices",
    "decide_pi_regular": "decide",
    "decide_ring_strongly_clean": "decide",
    "decide_strongly_clean": "decide",
    "gsp_search": "factor",
    "gsrc_search": "factor",
    "jclean_quadratic_criterion": "decide",
    "sp_search": "factor",
    "src_search": "factor",
    "sqrt_one_plus_radical": "decide",
    "theorem_main_audit": "decide",
    "triangular_sweep": "decide",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
