"""Exact linear algebra on sparse integer rows: one dict per row, column ->
nonzero int (section matrices have a few nonzeros among many cells).  The
polynomials the cells come from have integer coefficients, so a rank over Q
is a rank of an integer matrix.

Rank peels singleton pivots first (structured Gaussian elimination,
LaMacchia-Odlyzko): if column c has its only nonzero in row i, or row i its
only nonzero in column c, operations with that pivot clear the rest of its
row or column, so rank M = 1 + rank(M without row i and column c).  The rule
reads only the sparsity pattern and is exact over any field.  The core that
no singleton reaches goes as it is to Bareiss elimination over the integers
(Bareiss, Math. Comp. 22, 1968); no floating point or prime enters a rank.
"""
from __future__ import annotations

from dataclasses import dataclass

from .poly import mdeg_add, monomial_basis


@dataclass
class ExactMatrix:
    rows: int
    cols: int
    entries: list  # one dict per row: column -> nonzero int

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [{} for _ in range(rows)])

    def add(self, i: int, j: int, value) -> None:
        """entries[i][j] += value, dropping the cell when the sum is zero."""
        row = self.entries[i]
        total = row.get(j, 0) + value
        if total:
            row[j] = total
        else:
            row.pop(j, None)

    def rank(self) -> int:
        rows = {i: dict(row) for i, row in enumerate(self.entries) if row}
        cols = {}
        for i, row in rows.items():
            for j in row:
                cols.setdefault(j, set()).add(i)
        peeled, todo = 0, [(i, None) for i in rows] + [(None, j) for j in cols]
        while todo:  # peel singleton pivots (module docstring)
            i, j = todo.pop()
            if i is None and len(cols.get(j, ())) == 1:
                (i,) = cols[j]
            elif j is None and len(rows.get(i, ())) == 1:
                (j,) = rows[i]
            else:
                continue
            for jj in rows.pop(i):
                cols[jj].discard(i)
                todo.append((None, jj))
            for ii in cols.pop(j):
                del rows[ii][j]
                todo.append((ii, None))
            peeled += 1
        core = [[row.get(j, 0) for j, at in cols.items() if at] for row in rows.values() if row]
        return peeled + bareiss_rank(core)

    def kernel_dim(self) -> int:
        return self.cols - self.rank()


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    return _bareiss(rows)[0]


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == n else 0


def _bareiss(rows) -> tuple:
    """(rank, sign of the row swaps, last pivot) of Bareiss elimination.

    All divisions are exact (Sylvester's identity); column skips for
    rank-deficient steps keep that property.  On a square matrix of full rank
    no column is skipped, and the last pivot is the determinant up to the
    sign of the swaps; on the empty matrix it is 1.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    sign = 1
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
            sign = -sign
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
    return r, sign, prev


def section_matrix(ambient, map_entries, source_twists, target_twists, L) -> ExactMatrix:
    """Matrix of H^0(source twisted by L) -> H^0(target twisted by L) in monomial bases.

    map_entries is a rows-by-cols nested list of RationalPolynomial on
    `ambient`, rows indexed by target summands and columns by source
    summands.  Preconditions, not checked here: every twist and L is a tuple
    with one component per factor of the ambient, and entry (i,j) is
    homogeneous of multidegree target_i - source_j (or zero).  The caller
    establishes both once, where the map is built (a MonadComplex at
    construction, `k3lat.quartic_h0` per call), not once per twist.
    Columns are ordered by source summand then basis order, rows likewise.
    The result holds only the nonzero cells.
    """
    if len(map_entries) != len(target_twists):
        raise ValueError("row count differs from target rank")
    if any(len(row) != len(source_twists) for row in map_entries):
        raise ValueError("column count differs from source rank")
    src_bases = [monomial_basis(ambient, mdeg_add(t, L)) for t in source_twists]
    tgt_bases = [monomial_basis(ambient, mdeg_add(t, L)) for t in target_twists]

    col_offsets = [sum(map(len, src_bases[:j])) for j in range(len(src_bases))]
    ncols = sum(map(len, src_bases))
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
                for e, c in p.terms.items():
                    M.add(pos[tuple(a + b for a, b in zip(e, mono))], base_col + k, c)
    return M
