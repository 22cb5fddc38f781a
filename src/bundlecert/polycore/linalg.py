"""Exact linear algebra: dense rational matrices with fraction-free elimination.

Rank is computed by Bareiss elimination over the integers after clearing row
denominators; no floating point enters any dimension count.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ..errors import HomogeneityError
from .poly import mdeg_add, mdeg_sub, monomial_basis


@dataclass
class ExactMatrix:
    rows: int
    cols: int
    entries: list  # list of rows, each a list of Fraction

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        data = [[Fraction(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return ExactMatrix(len(data), ncols, data)

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        m = ExactMatrix.zero(n, n)
        for i in range(n):
            m.entries[i][i] = Fraction(1)
        return m

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = ExactMatrix.zero(self.rows, other.cols)
        for i in range(self.rows):
            row = self.entries[i]
            for k in range(self.cols):
                a = row[k]
                if not a:
                    continue
                orow = other.entries[k]
                trow = out.entries[i]
                for j in range(other.cols):
                    trow[j] += a * orow[j]
        return out

    def _integer_rows(self):
        out = []
        for row in self.entries:
            denom = 1
            for x in row:
                denom = lcm(denom, x.denominator)
            out.append([int(x * denom) for x in row])
        return out

    def rank(self) -> int:
        return bareiss_rank(self._integer_rows())

    def kernel_dim(self) -> int:
        return self.cols - self.rank()


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    All divisions are exact (Sylvester's identity); column skips for
    rank-deficient steps keep that property.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            t = m[i][c]
            mi, mr = m[i], m[r]
            for j in range(c + 1, ncols):
                mi[j] = (pv * mi[j] - t * mr[j]) // prev
            mi[c] = 0
        prev = pv
        r += 1
        if r == nrows:
            break
    return r


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if any(len(r) != n for r in m):
        raise ValueError("not square")
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pv = m[c][c]
        for i in range(c + 1, n):
            t = m[i][c]
            for j in range(c + 1, n):
                m[i][j] = (pv * m[i][j] - t * m[c][j]) // prev
            m[i][c] = 0
        prev = pv
    return sign * m[n - 1][n - 1]


def kernel_dim(matrix: ExactMatrix) -> int:
    """Exact nullity over the rationals."""
    return matrix.kernel_dim()


def section_matrix(map_entries, source_twists, target_twists, L) -> ExactMatrix:
    """Matrix of H^0(source twisted by L) -> H^0(target twisted by L) in monomial bases.

    map_entries is a rows-by-cols nested list of RationalPolynomial, rows
    indexed by target summands and columns by source summands; entry (i,j)
    must be homogeneous of multidegree target_i - source_j (or zero).
    Columns are ordered by source summand then basis order, rows likewise.
    """
    if not map_entries:
        raise ValueError("empty map")
    ambient = None
    for row in map_entries:
        for p in row:
            ambient = p.ambient
            break
        if ambient:
            break
    if ambient is None:
        raise ValueError("map has no entries")
    if len(map_entries) != len(target_twists):
        raise ValueError("row count differs from target rank")

    src = [ambient.normalize_degree(t) for t in source_twists]
    tgt = [ambient.normalize_degree(t) for t in target_twists]
    L = ambient.normalize_degree(L)

    for i, row in enumerate(map_entries):
        if len(row) != len(src):
            raise ValueError("column count differs from source rank")
        for j, p in enumerate(row):
            if p.ambient != ambient:
                raise HomogeneityError(i, j, "entry on a different ambient")
            if not p.is_homogeneous_of(mdeg_sub(tgt[i], src[j])):
                raise HomogeneityError(i, j, f"expected degree {mdeg_sub(tgt[i], src[j])}")

    src_bases = [monomial_basis(ambient, mdeg_add(t, L)) for t in src]
    tgt_bases = [monomial_basis(ambient, mdeg_add(t, L)) for t in tgt]

    col_offsets = []
    ncols = 0
    for b in src_bases:
        col_offsets.append(ncols)
        ncols += len(b)
    row_pos = []
    nrows = 0
    for b in tgt_bases:
        row_pos.append({e: nrows + k for k, e in enumerate(b)})
        nrows += len(b)

    M = ExactMatrix.zero(nrows, ncols)
    for i, row in enumerate(map_entries):
        pos = row_pos[i]
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            base_col = col_offsets[j]
            for k, mono in enumerate(src_bases[j]):
                col = base_col + k
                for e, c in p.terms.items():
                    target_exp = tuple(a + b for a, b in zip(e, mono))
                    M.entries[pos[target_exp]][col] += c
    return M
