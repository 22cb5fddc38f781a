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

Kernel.  One blocked Horner pass (`_horner`) evaluates both the
specialization c_j(x) at the orbit representatives and each fiber's sum over
y = [1:u], u = g^s, s = 0..L-1 with L = q - 1.  It runs in the discrete-log
domain, with zero encoded as 3L, on a (rows, values) int32 block of about
BLOCK = 2^16 cells: for the fibers, max(1, BLOCK // L) rows of L values, in
buffers allocated once per count.  Each value is held as
acc_j = g^(K_j) g^(z_j) with K_j one integer per row (`_steps`), so c_j
never multiplies the block: a step is z_j = table[z_(j+1) + log u + off_j],
one broadcast add of log u, one of a per-row column and one lookup.  off_j
picks the zech part of `table` (acc u + c = c (acc u / c + 1), K_j = log c_j)
when c_j != 0 and its reduce part (acc u, K unchanged) when c_j = 0, so rows
with different zero patterns share a block.  The first step needs no add
(acc_4 = c_4 is constant per row), and the last looks up the int8 quadratic
character instead: chi(acc_0) = (-1)^(K_0) chi(g^(z_0)), so a fiber's sum is
a row sum times a sign.  The tables (`_Tables`) hold 10L int32 entries and
10L int8 ones, about 50L bytes.

Threads.  The pool partitions the (fiber, weight) rows; the total is a sum
of per-row integers, hence independent of the partition shape.  It has at
most min(threads, cores, chunks) workers.

Each finished count writes one progress line to stderr.
"""
from __future__ import annotations

import os
import sys
from functools import lru_cache
from time import perf_counter

import numpy as np

from ..errors import (
    EvenCharacteristicError,
    ThreadCountError,
    ValidationError,
)
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
        A[exps[1]][exps[3]] = (A[exps[1]][exps[3]] + c) % p
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


BLOCK = 1 << 16  # int32 cells per kernel call


class _Tables:
    """The folded tables of one field, with L = q - 1 and zero encoded as `zero` = 3L.

    A nonzero element is held as its log in [0, L).  `table` (10L int32) has a
    zech part on [0, 5L) and a reduce part on [5L, 10L).  Each part is
    L-periodic on its first 3L entries, zech[v] = log(1 + g^v) (3L when
    1 + g^v = 0) and reduce[v] = v mod L, and holds the image of zero on its
    last 2L: 0 in zech (0 * u + c = c * g^0) and 3L in reduce.  `chi` (10L
    int8) is the quadratic character of the element each entry of `table`
    encodes, 0 for 3L; chi[5L + v] is that of the encoded v itself.
    """

    def __init__(self, field: FqField):
        L = self.L = field.q - 1
        zero = self.zero = 3 * L
        self.log = field.log
        table = self.table = np.empty(10 * L, dtype=np.int32)
        zech, reduce = table[: 5 * L].reshape(5, L), table[5 * L :].reshape(5, L)
        zech[0] = field.zech
        zech[0][field.zech == LOG_ZERO] = zero
        zech[1:3] = zech[0]
        zech[3:] = 0
        reduce[0] = np.arange(L, dtype=np.int32)
        reduce[1:3] = reduce[0]
        reduce[3:] = zero
        chi = self.chi = np.empty(10 * L, dtype=np.int8)
        np.bitwise_and(table, 1, out=chi, casting="unsafe")
        np.multiply(chi, -2, out=chi)
        np.add(chi, 1, out=chi)
        chi[table == zero] = 0

    def encode(self, a: int) -> int:
        """The encoded log of the field element a."""
        v = int(self.log[a])
        return self.zero if v == LOG_ZERO else v


def _steps(t: _Tables, c):
    """Per-row constants of the Horner pass c_4 u^4 + ... + c_0, rows c of encoded logs.

    acc_4 = c_4 is K_4 = log c_4 and z_4 = 0 (K_4 = 0 and z_4 = 3L when
    c_4 = 0).  Step j has off_j = (K_(j+1) - log c_j) mod L and
    K_j = log c_j when c_j != 0, off_j = 5L and K_j = K_(j+1) when c_j = 0.
    Returns the int32 columns (z_4 + off_3, off_2, off_1, off_0), one row
    per row of c, and K_0.
    """
    L = t.L
    c = np.asarray(c, dtype=np.int64)
    zero = c == t.zero
    K = np.where(zero[:, 4], 0, c[:, 4])
    cols = np.empty((len(c), 4), dtype=np.int32)
    for j in (3, 2, 1, 0):
        cols[:, 3 - j] = np.where(zero[:, j], 5 * L, (K - c[:, j]) % L)
        K = np.where(zero[:, j], K, c[:, j])
    cols[:, 0] += np.where(zero[:, 4], t.zero, 0)
    return cols, K


def _horner(t: _Tables, cols, u, acc, final, out):
    """final[index of z_0] for a block of rows at every log in u, written into out.

    cols is a block of `_steps` columns and acc a (rows, len(u)) int32
    buffer; out is acc itself, or an int8 buffer when final is t.chi.
    """
    np.add(cols[:, :1], u, out=acc)
    for j in (1, 2, 3):
        np.take(t.table, acc, out=acc, mode="clip")
        np.add(acc, u, out=acc)
        np.add(acc, cols[:, j : j + 1], out=acc)
    np.take(final, acc, out=out, mode="clip")


def _specialize(t: _Tables, A, x_logs) -> np.ndarray:
    """Encoded c_j(x) = sum_k A[k][j] x^k for every x = g^i, i in x_logs: one row per x."""
    cols, K = _steps(t, [[t.encode(A[k][j]) for k in range(5)] for j in range(5)])
    # K_0 + z_0 through the reduce part is the encoded log of c_j(x)
    back = (K + 5 * t.L).astype(np.int32)[:, None]
    width = max(1, BLOCK // 5)
    buf = np.empty(5 * min(width, len(x_logs)), dtype=np.int32)
    out = np.empty((len(x_logs), 5), dtype=np.int32)
    for s in range(0, len(x_logs), width):
        x = x_logs[s : s + width].astype(np.int32)
        acc = buf[: 5 * len(x)].reshape(5, len(x))
        _horner(t, cols, x, acc, t.table, acc)
        np.add(acc, back, out=acc)
        np.take(t.table, acc, out=acc, mode="clip")
        out[s : s + len(x)] = acc.T
    return out


def _orbit_fibers(t: _Tables, p: int, n: int, A):
    """Encoded (c_0, ..., c_4) of one fiber per Frobenius orbit, and the weights.

    The last two rows are x = 0, where c_j = A[0][j], and x = [0:1], where
    c_j = A[4][j]; each has weight 1.
    """
    reps, sizes = frobenius_orbits(p, n)
    ends = [[t.encode(A[i][j]) for j in range(5)] for i in (0, 4)]
    return np.vstack([_specialize(t, A, reps), ends]), np.concatenate([sizes, [1, 1]])


def _fiber_counts(t: _Tables, rows) -> np.ndarray:
    """Points over each fiber, one per row of encoded (c_0, ..., c_4).

    A fiber has y = [1:0] (value c_0), y = [0:1] (value c_4) and y = [1:u]
    for every u = g^s != 0; the sum over u is a row sum of t.chi times
    (-1)^(K_0).  The rows go through the kernel about BLOCK cells at a time.
    """
    L = t.L
    cols, K = _steps(t, rows)
    u = np.arange(L, dtype=np.int32)
    height = max(1, min(BLOCK // L, len(rows)))
    acc = np.empty((height, L), dtype=np.int32)
    chi = np.empty((height, L), dtype=np.int8)
    sums = np.empty(len(rows), dtype=np.int64)
    for s in range(0, len(rows), height):
        b = min(height, len(rows) - s)
        _horner(t, cols[s : s + b], u, acc[:b], t.chi, chi[:b])
        chi[:b].sum(axis=1, dtype=np.int64, out=sums[s : s + b])
    ends = t.chi[5 * L + rows[:, 0]].astype(np.int64) + t.chi[5 * L + rows[:, 4]]
    return L + 2 + ends + (1 - 2 * (K & 1)) * sums


@lru_cache(maxsize=8)
def _cached_field(p: int, n: int) -> FqField:
    return make_field(p, n)


def _worker(args) -> int:
    p, n, rows, weights = args
    return int(_fiber_counts(_Tables(_cached_field(p, n)), rows) @ weights)


def count_points(f: RationalPolynomial, p: int, n: int, threads: int = 1) -> int:
    """Exact number of points of the branched double cover over F_{p^n}."""
    if threads < 1:
        raise ThreadCountError(f"threads must be at least 1, got {threads}")
    if p == 2:
        raise EvenCharacteristicError("double-cover counting needs odd characteristic")
    start = perf_counter()
    A = curve_coefficients(f, p)
    field = _cached_field(p, n)
    t = _Tables(field)
    rows, weights = _orbit_fibers(t, p, n, A)
    if threads == 1:
        total = int(_fiber_counts(t, rows) @ weights)
    else:
        import concurrent.futures as cf

        step = max(1, len(rows) // (threads * 4))
        chunks = [
            (p, n, rows[s : s + step], weights[s : s + step]) for s in range(0, len(rows), step)
        ]
        # a forking pool starts all its workers at the first submit
        workers = min(threads, os.cpu_count() or 1, len(chunks))
        with cf.ProcessPoolExecutor(max_workers=workers) as ex:
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
