"""Exact linear algebra on sparse integer matrices: a dict from row key to
{column: nonzero int}, holding the nonzero rows only (section matrices have a
few nonzeros among many cells).  The polynomials the cells come from have
integer coefficients, so a rank over Q is a rank of an integer matrix.

A matrix with no nonzero cell has rank 0, read off the empty dict.  Otherwise
`bareiss_rank` runs Bareiss elimination (Bareiss, Math. Comp. 22, 1968) on the
sparse rows; no floating point or prime enters a rank.  While a worklist holds
a singleton, a row or column with one nonzero, that is the pivot, and its
step only deletes its row and column and keeps prev: no arithmetic
(structured Gaussian elimination, LaMacchia-Odlyzko).  Otherwise the pivot pv
is in a shortest row, taken from a heap of row lengths built at the first
such step, in that row's column with the fewest entries, and each row with t
in the pivot column becomes (pv * a - t * p) / prev.  After pivots
on rows R and columns C the entry at (i, j) is the minor of M on R + i and
C + j, and prev the minor on R and C, for any pivot order and on any
submatrix (Sylvester's identity), so every division is exact.  A row with no
entry in the pivot column changes only by the common factor pv / prev, and is
left as it is: a row written when the last pivot was pivots[k] holds its true
entries times pivots[k] / pivots[-1].

A section matrix pays only for its live cells.  Its rows are counted, never
enumerated: their number is a sum of binomial counts (`basis_size`), and no
target basis is built.  A row is keyed by the target summand and the exponent
of the product monomial a cell lands on, so a row no cell hits costs nothing.
Columns come from the source bases, each built once per degree; a source
summand with no sections at the twist is skipped.
"""
from __future__ import annotations

from operator import add

from .poly import basis_exponents, basis_size


class ExactMatrix:
    __slots__ = (
        "rows",
        "cols",
        "entries",  # nonzero rows only: row key -> {column: nonzero int}
    )

    def __init__(self, rows: int, cols: int, entries: dict):
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def rank(self) -> int:
        return bareiss_rank(self.entries) if self.entries else 0


def bareiss_rank(entries) -> int:
    """Rank of a sparse integer matrix {row key: {column: nonzero int}} by
    Bareiss elimination in the pivot order of the module docstring."""
    rows = {i: dict(row) for i, row in entries.items()}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    pivots = [1]  # 1, then the pivot of each step that eliminates
    written = {}  # row -> index in pivots of the last pivot when written, 0 at first
    # the worklist holds singletons, and rows or columns that may have just
    # become one; each is checked when it is taken
    todo = [(i, None) for i, row in rows.items() if len(row) == 1]
    todo += [(None, j) for j, at in cols.items() if len(at) == 1]
    # (length, push count, row) for every live row, built at the first step
    # with no singleton and pushed again when a step rewrites the row; an
    # entry whose length is no longer its row's is stale and skipped
    heap = None
    rank = 0
    while rows:
        if todo:
            i, j = todo.pop()
            if i is None and len(cols.get(j, ())) == 1:
                (i,) = cols[j]
            elif j is None and len(rows.get(i, ())) == 1:
                (j,) = rows[i]
            else:
                continue
        else:
            if heap is None:
                # imported here: a matrix that peels to nothing, as every
                # certify and verify matrix does, does not load heapq
                from heapq import heapify, heappop, heappush
                heap = [(len(row), k, r) for k, (r, row) in enumerate(rows.items())]
                pushed = len(heap)
                heapify(heap)
            n, _, i = heappop(heap)
            while len(rows.get(i, ())) != n:
                n, _, i = heappop(heap)
            j = min(rows[i], key=lambda c: len(cols[c]))
        pivot_row = rows.pop(i)
        pv = pivot_row.pop(j)
        others = cols.pop(j)
        others.discard(i)
        for c in pivot_row:
            at = cols[c]
            at.discard(i)
            if len(at) < 2:  # a singleton now, or after the fill-in of one row
                todo.append((None, c))
        if pivot_row and others:  # a singleton's step does no arithmetic
            prev, scale = pivots[-1], pivots[written.get(i, 0)]
            pv = pv * prev // scale
            pivot_row = {c: p * prev // scale for c, p in pivot_row.items()}
            # (pv * a - t * p) / prev on a row's true entries, its stored ones
            # times prev / scale, is (pv * a - t * p) / scale on the stored ones
            for ii in others:
                row, scale = rows[ii], pivots[written.get(ii, 0)]
                t = row.pop(j)
                for c in row.keys() | pivot_row.keys():
                    a = (pv * row.get(c, 0) - t * pivot_row.get(c, 0)) // scale
                    if a:
                        row[c] = a
                        cols[c].add(ii)
                    else:
                        del row[c]
                        cols[c].discard(ii)
                        if len(cols[c]) == 1:
                            todo.append((None, c))
                written[ii] = len(pivots)
            pivots.append(pv)
        for ii in others:
            row = rows[ii]
            row.pop(j, None)  # eliminated already unless the pivot row is a singleton
            if not row:
                del rows[ii]
                continue
            if len(row) == 1:
                todo.append((ii, None))
            if heap is not None:
                heappush(heap, (len(row), pushed, ii))
                pushed += 1
        rank += 1
    return rank


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

    `rows` is the number of monomials of the twisted target summands, counted
    by `basis_size`, which refuses a summand over MAX_BASIS as building its
    basis would.  `entries` maps each row some cell lands on, keyed
    (target summand i, exponent of the product monomial), to its cells
    {column: nonzero int}; rows are keyed, not ordered.  Columns are ordered
    by source summand, then `monomial_basis` order.

    The cost follows the live columns and the nonzero cells, not the number
    of summands or rows: a source summand with a negative twisted component
    has no sections, so it is skipped before its basis or its column of
    entries is read.  Each cell is written once: for a fixed target, source
    and basis monomial, distinct terms of the entry give distinct product
    monomials, hence distinct rows.  So no cell sums two terms, and the
    result holds only nonzero cells.
    """
    sizes = tuple(map(len, ambient.groups))
    nrows = sum(basis_size(sizes, tuple(map(add, t, L))) for t in target_twists)
    cells = {}
    col = 0
    for j, s in enumerate(source_twists):
        d = tuple(map(add, s, L))
        if min(d) < 0:
            continue
        basis = basis_exponents(sizes, d)
        for i, row in enumerate(map_entries):
            terms = row[j].terms.items()
            if not terms:
                continue
            for k, mono in enumerate(basis, col):
                for e, c in terms:
                    cells.setdefault((i, tuple(map(add, e, mono))), {})[k] = c
        col += len(basis)
    return ExactMatrix(nrows, col, cells)
