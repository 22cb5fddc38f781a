"""Exact multigraded polynomials, parsing, monomial bases, and sparse exact linear
algebra: rank by singleton peeling, then fraction-free Bareiss on the core."""

from .linalg import (
    ExactMatrix,
    bareiss_det,
    bareiss_rank,
    section_matrix,
)
from .parse import parse_poly
from .poly import (
    Ambient,
    MultiDegree,
    RationalPolynomial,
    intersection_product,
    mdeg_add,
    mdeg_sub,
    monomial_basis,
)

__all__ = [
    "Ambient",
    "ExactMatrix",
    "MultiDegree",
    "RationalPolynomial",
    "bareiss_det",
    "bareiss_rank",
    "intersection_product",
    "mdeg_add",
    "mdeg_sub",
    "monomial_basis",
    "parse_poly",
    "section_matrix",
]
