"""Point counts of double covers of P1 x P1 branched over a (4,4) curve.

The count over F_q is N = sum over base points P of (1 + chi(f(P))): a base
point lifts twice when f(P) is a nonzero square, once when f(P) = 0, and not
at all otherwise (well defined because f scales by fourth powers under
rescaling homogeneous coordinates).

The sum runs fiber by fiber over the x-line.  Over x = [1:t] the form
specializes to the binary quartic sum_j c_j(t) y0^(4-j) y1^j with
c_j(t) = sum_k A[k][j] t^k, and over [0:1] to the row A[4].

Frobenius orbits.  A has entries in F_p, so c_j(t^p) = c_j(t)^p: the fiber
over t^p is the Frobenius image of the fiber over t.  Frobenius permutes
P1(F_q) and keeps chi (a^p = a * a^(p-1), and a^(p-1) is a square), so both
fibers have the same count.  With t = g^i the orbit of t is
{i p^k mod (q-1)}; one fiber per orbit is counted and weighted by the
orbit's size, which divides n.  t = 0 and [0:1] are fixed and counted once
each: about q/n + 2 fibers instead of q + 1.

Kernel.  The orbit representatives are specialized all at once, and each
fiber's sum over y = [1:u], u = g^s, is one Horner pass over all q - 1
values of s, in the discrete-log domain with zero encoded as 2(q-1)
(`_LogTables`), so every step is an add and one or two table lookups into
buffers allocated once per count.

Threads.  The pool partitions the (fiber, weight) rows; the total is a sum
of per-row integers, hence independent of the partition shape.

Each finished count writes one progress line to stderr.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from time import perf_counter

import numpy as np

from ..errors import CoefficientReductionError, EvenCharacteristicError, ValidationError
from ..polycore import RationalPolynomial
from .field import LOG_ZERO, FqField, make_field


def curve_coefficients(f: RationalPolynomial, p: int):
    """5x5 integer matrix A[i][j] = coefficient of x0^(4-i) x1^i y0^(4-j) y1^j mod p."""
    amb = f.ambient
    if amb.arity != 2 or amb.dims != (1, 1):
        raise ValidationError("branch curve must live on P1 x P1")
    if not f.is_homogeneous_of((4, 4)) or f.is_zero():
        raise ValidationError("branch curve must be a nonzero form of bidegree (4,4)")
    A = [[0] * 5 for _ in range(5)]
    for exps, c in f.terms.items():
        if c.denominator != 1:
            raise CoefficientReductionError(
                f"coefficient {c} is not an integer; cannot reduce mod {p}"
            )
        A[exps[1]][exps[3]] = (A[exps[1]][exps[3]] + c.numerator) % p
    return A


# --- Frobenius orbits and the vectorized kernel --------------------------------

def frobenius_orbits(p: int, n: int):
    """Representatives (least members) and sizes of the orbits of i -> p*i mod (q-1).

    i is the log of x = g^i, so these are the orbits of x -> x^p on F_q^*.
    """
    L = p ** n - 1
    i = np.arange(L, dtype=np.int64)
    rep, cur = i.copy(), i.copy()
    for _ in range(n - 1):
        np.multiply(cur, p, out=cur)
        np.remainder(cur, L, out=cur)
        np.minimum(rep, cur, out=rep)
    sizes = np.bincount(rep, minlength=L)
    reps = np.flatnonzero(sizes)
    return reps, sizes[reps]


class _LogTables:
    """Tables for acc * u + c on logs, with zero encoded as `zero` = 2L, L = q - 1.

    A nonzero log lies in [0, L).  For acc in [0, L) or 2L and a shift in
    [0, L), acc + shift lies in [0, 3L).  Each table repeats its [0, L) part
    on [L, 2L), which reduces the sum mod L, and holds the zero case from 2L
    on (acc was zero): `reduce` gives the log (2L for zero), `chi` the
    quadratic character of the element, and `zech[v]` log(1 + g^v) (2L when
    1 + g^v = 0), or 0 from 2L on, where acc * u + c = c.
    """

    def __init__(self, field: FqField):
        L = self.L = field.q - 1
        self.zero = 2 * L
        self.log = np.where(field.log == LOG_ZERO, self.zero, field.log)
        logs = np.arange(L, dtype=np.int64)
        self.reduce = np.concatenate([logs, logs, np.full(L, self.zero)])
        chi = 1 - 2 * (logs % 2)
        self.chi = np.concatenate([chi, chi, np.zeros(L, dtype=np.int64)])
        zech = np.where(field.zech == LOG_ZERO, self.zero, field.zech)
        self.zech = np.concatenate([zech, zech, np.zeros(L, dtype=np.int64)])

    def offset(self, c: int) -> int:
        """k with (log u + k) mod L = log(u / c), or log u when c is zero."""
        return 0 if c == self.zero else self.L - c

    def u_over(self, c: int) -> np.ndarray:
        """log(u / c) for u = g^0, ..., g^(L-1), as a view (log u when c is zero)."""
        k = self.offset(c)
        return self.reduce[k : k + self.L]


def _horner(t: _LogTables, c, shifts, acc, tmp, final) -> np.ndarray:
    """c[4] u^4 + ... + c[0] at every u, mapped through `final` (t.reduce or t.chi).

    c holds encoded logs; shifts[j] holds log(u / c[j]) per u (log u where
    c[j] is zero).  Each step writes into acc and tmp only; returns the
    buffer that holds the result.
    """
    acc.fill(c[4])
    for j in (3, 2, 1, 0):
        table = final if j == 0 else t.reduce
        np.add(acc, shifts[j], out=tmp)
        if c[j] == t.zero:
            np.take(table, tmp, out=acc, mode="clip")
        else:
            np.take(t.zech, tmp, out=acc, mode="clip")
            np.take(table[c[j]:], acc, out=tmp, mode="clip")
            acc, tmp = tmp, acc
    return acc


def _specialize(t: _LogTables, A, x_logs) -> np.ndarray:
    """Encoded c_j(x) = sum_k A[k][j] x^k for every x = g^i, i in x_logs: one row per x."""
    cols = []
    for j in range(5):
        c = [int(t.log[A[k][j]]) for k in range(5)]
        shifts = [t.reduce[x_logs + t.offset(ck)] for ck in c]
        cols.append(_horner(t, c, shifts, np.empty_like(x_logs), np.empty_like(x_logs), t.reduce))
    return np.column_stack(cols)


def _orbit_fibers(t: _LogTables, p: int, n: int, A):
    """Encoded (c_0, ..., c_4) of one fiber per Frobenius orbit, and the weights.

    The last two rows are x = 0, where c_j = A[0][j], and x = [0:1], where
    c_j = A[4][j]; each has weight 1.
    """
    reps, sizes = frobenius_orbits(p, n)
    ends = [[int(t.log[A[i][j]]) for j in range(5)] for i in (0, 4)]
    return np.vstack([_specialize(t, A, reps), ends]), np.concatenate([sizes, [1, 1]])


def _weighted_fiber_sum(t: _LogTables, rows, weights) -> int:
    """Sum of weight * (points over the fiber) over (row, weight) pairs.

    A fiber has y = [1:0] (value c_0), y = [0:1] (value c_4) and y = [1:u]
    for every u != 0.
    """
    acc = np.empty(t.L, dtype=np.int64)
    tmp = np.empty_like(acc)
    total = 0
    for row, w in zip(rows, weights.tolist()):
        c = row.tolist()
        sums = _horner(t, c, [t.u_over(cj) for cj in c], acc, tmp, t.chi)
        total += w * (t.L + 2 + int(t.chi[c[0]] + t.chi[c[4]] + sums.sum()))
    return total


@lru_cache(maxsize=8)
def _cached_field(p: int, n: int) -> FqField:
    return make_field(p, n)


def _worker(args) -> int:
    p, n, rows, weights = args
    return _weighted_fiber_sum(_LogTables(_cached_field(p, n)), rows, weights)


def count_points(f: RationalPolynomial, p: int, n: int, threads: int = 1) -> int:
    """Exact number of points of the branched double cover over F_{p^n}."""
    if p == 2:
        raise EvenCharacteristicError("double-cover counting needs odd characteristic")
    start = perf_counter()
    A = curve_coefficients(f, p)
    field = _cached_field(p, n)
    t = _LogTables(field)
    rows, weights = _orbit_fibers(t, p, n, A)
    if threads <= 1:
        total = _weighted_fiber_sum(t, rows, weights)
    else:
        import concurrent.futures as cf

        step = max(1, len(rows) // (threads * 4))
        chunks = [
            (p, n, rows[s : s + step], weights[s : s + step]) for s in range(0, len(rows), step)
        ]
        with cf.ProcessPoolExecutor(max_workers=threads) as ex:
            total = sum(ex.map(_worker, chunks))
    sys.stderr.write(f"n={n} q={field.q}: {len(rows)} orbit fibers, {perf_counter() - start:.1f} s\n")
    return total


def count_points_bruteforce(f: RationalPolynomial, p: int, n: int) -> int:
    """Independent slow oracle: direct evaluation at every base point using
    scalar polynomial-basis arithmetic only (no tables)."""
    if p == 2:
        raise EvenCharacteristicError("double-cover counting needs odd characteristic")
    A = curve_coefficients(f, p)
    field = make_field(p, n)

    def value(x0, x1, y0, y1):
        acc = 0
        for i in range(5):
            for j in range(5):
                if A[i][j] == 0:
                    continue
                m = field.from_int(A[i][j])
                for base, e in ((x0, 4 - i), (x1, i), (y0, 4 - j), (y1, j)):
                    me = 1
                    for _ in range(e):
                        me = _polybasis_mul(field, me, base)
                    m = _polybasis_mul(field, m, me)
                acc = field.add(acc, m)
        return acc

    def polybasis_pow(a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = _polybasis_mul(field, result, base)
            base = _polybasis_mul(field, base, base)
            e >>= 1
        return result

    pts = [(1, t) for t in range(field.q)] + [(0, 1)]
    total = 0
    for x in pts:
        for y in pts:
            v = value(x[0], x[1], y[0], y[1])
            if v == 0:
                total += 1
            else:
                total += 1 + (1 if polybasis_pow(v, (field.q - 1) // 2) == 1 else -1)
    return total


def _polybasis_mul(field: FqField, a: int, b: int) -> int:
    # bypass the log tables on purpose: oracle independence
    from .field import _pol_mulmod

    if a == 0 or b == 0:
        return 0
    prod = _pol_mulmod(field._unpack(a), field._unpack(b), list(field.modulus), field.p)
    return field._pack(prod)
