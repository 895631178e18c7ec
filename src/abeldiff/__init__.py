"""Exact construction of Abelian differentials of the first and third kind
on smooth plane algebraic curves over Q, and evaluation of the fundamental
function at a point via duality.

All arithmetic is exact: rationals, polynomials over the rationals, and
algebraic values carried in a flat multi-extension ring with certified
numeric embedding for root selection and decimal output.
"""

from .curves import Curve, Point, SmoothnessReport, smoothness_report
from .differentials import (HauptResult, LinearSystem, ParametricDifferential,
                            eval_u, first_kind_basis, haupt_solve, residue_at,
                            residue_certificates, residue_oracle, third_kind,
                            third_kind_system_naive, unit_circle_pullback,
                            vandermonde_equivalence)
from .linsolve import SolveResult, ff_solve
from .parser import format_bpoly, parse_poly
from .polys import (BPoly, UPoly, is_squarefree, poly_gcd, power_sums,
                    resultant, resultant_y)
from .roots import isolate_roots, separation_bound
from .towers import Quotient, TowerContext, TowerElement, adjoin, eval_bpoly

__version__ = "0.1.0"

__all__ = [
    "BPoly", "Curve", "HauptResult", "LinearSystem", "ParametricDifferential",
    "Point", "Quotient", "SmoothnessReport", "SolveResult", "TowerContext",
    "TowerElement", "UPoly", "adjoin", "eval_bpoly", "eval_u",
    "ff_solve", "first_kind_basis", "format_bpoly", "haupt_solve",
    "is_squarefree", "isolate_roots", "parse_poly", "poly_gcd", "power_sums",
    "residue_at", "residue_certificates", "residue_oracle", "resultant",
    "resultant_y", "separation_bound", "smoothness_report", "third_kind",
    "third_kind_system_naive", "unit_circle_pullback",
    "vandermonde_equivalence",
]
