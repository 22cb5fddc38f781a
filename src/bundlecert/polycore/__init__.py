"""Exact multigraded polynomials with integer coefficients, parsing, monomial
bases (packed into one int each for section matrices), and sparse integer
linear algebra: rank by Bareiss elimination on the sparse rows, singletons
first, then a shortest row; every division is exact (Sylvester's identity),
and a row the pivot column misses owes the common factor pivot / previous
pivot, applied when a step next reads it.  Every coefficient and every matrix
cell is a Python int; ranks and kernels are still those over Q."""

from .linalg import (
    ExactMatrix,
    bareiss_rank,
    section_matrix,
)
from .parse import parse_poly, parse_rows
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
    "bareiss_rank",
    "intersection_product",
    "mdeg_add",
    "mdeg_sub",
    "monomial_basis",
    "parse_poly",
    "parse_rows",
    "section_matrix",
]
