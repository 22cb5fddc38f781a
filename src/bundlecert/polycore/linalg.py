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

A section matrix is built from its live columns only: a source summand with
no sections at the twist costs nothing, each nonzero cell is written once,
and each monomial basis is built once per degree with its index.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .poly import indexed_basis


@dataclass
class ExactMatrix:
    rows: int
    cols: int
    entries: list  # one dict per row: column -> nonzero int

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


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    return _bareiss(rows)[0]


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == len(rows) else 0


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
    construction; `monad.forms_cover_degree` reads each source twist off its
    form), not once per twist.
    Columns are ordered by source summand then basis order, rows likewise.

    The cost follows the live columns and the nonzero cells, not the number
    of summands: a source summand with a negative twisted component has no
    sections, so it is skipped before its basis or its column of entries is
    read.  Each cell is written once: for a fixed target, source and basis
    monomial, distinct terms of the entry give distinct product monomials,
    hence distinct rows.  So no cell sums two terms, and the result holds
    only nonzero cells.  Each basis comes with its {exponent: position}
    index from one cache per (factor sizes, degree) (`indexed_basis`).
    """
    sizes = tuple(map(len, ambient.groups))
    row_starts = []  # per target summand: (first row, index of its basis)
    nrows = 0
    for t in target_twists:
        basis, index = indexed_basis(sizes, tuple(map(add, t, L)))
        row_starts.append((nrows, index))
        nrows += len(basis)

    cells = [{} for _ in range(nrows)]
    col = 0
    for j, s in enumerate(source_twists):
        d = tuple(map(add, s, L))
        if min(d) < 0:
            continue
        basis = indexed_basis(sizes, d)[0]
        for (start, index), row in zip(row_starts, map_entries):
            terms = row[j].terms.items()
            if not terms:
                continue
            for k, mono in enumerate(basis, col):
                for e, c in terms:
                    cells[start + index[tuple(map(add, e, mono))]][k] = c
        col += len(basis)
    return ExactMatrix(nrows, col, cells)
