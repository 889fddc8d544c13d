"""Strong cleanness and strong pi-regularity of matrices over commutative clean rings.

Exact, certificate-producing deciders built on explicit Pierce-style
idempotent block decompositions: rings are finite products of computable
local stalks (Z/p^k, Z_(p), small operation tables), characteristic
polynomials are computed division-free, and every positive answer carries a
machine-checkable witness.
"""

from .decide import (
    Decision,
    decide_pi_regular,
    decide_ring_strongly_clean,
    decide_strongly_clean,
    jclean_quadratic_criterion,
    sqrt_one_plus_radical,
    theorem_main_audit,
    triangular_sweep,
)
from .factor import gsp_search, gsrc_search, sp_search, src_search
from .matrices import SquareMatrix, char_poly, companion
from .polys import Poly
from .rings import Element, Ring, build_ring, pierce_glue

__all__ = [
    "Decision",
    "Element",
    "Poly",
    "Ring",
    "SquareMatrix",
    "build_ring",
    "char_poly",
    "companion",
    "decide_pi_regular",
    "decide_ring_strongly_clean",
    "decide_strongly_clean",
    "gsp_search",
    "gsrc_search",
    "jclean_quadratic_criterion",
    "pierce_glue",
    "sp_search",
    "src_search",
    "sqrt_one_plus_radical",
    "theorem_main_audit",
    "triangular_sweep",
]
