"""Point counts of double covers of P1 x P1 branched over a (4,4) curve.

The count over F_q is N = sum over base points P of (1 + chi(f(P))): a base
point lifts twice when f(P) is a nonzero square, once when f(P) = 0, and not
at all otherwise (well defined because f scales by fourth powers under
rescaling homogeneous coordinates).

Evaluation iterates x-fibers [1:t] and [0:1], specializes f to a binary
quartic in y, and Horner-evaluates over all y simultaneously in the
discrete-log domain (Zech addition), so a fiber costs a handful of numpy
passes over a length-q array.  Fibers partition the work for the process
pool; the total is a sum of per-fiber integers, hence independent of the
partition shape.
"""
from __future__ import annotations

from functools import lru_cache

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


# --- vectorized field kernels ---------------------------------------------------

def _vec_mul_by_u(acc_log: np.ndarray, u_log: np.ndarray, qm1: int) -> np.ndarray:
    """acc * u where u = g^i elementwise (u never zero)."""
    out = acc_log + u_log
    out[out >= qm1] -= qm1
    out[acc_log == LOG_ZERO] = LOG_ZERO
    return out


def _vec_add_scalar(acc_log: np.ndarray, c_log: int, zech: np.ndarray, qm1: int) -> np.ndarray:
    """acc + c elementwise in log domain via the Zech table."""
    if c_log == LOG_ZERO:
        return acc_log
    zero_mask = acc_log == LOG_ZERO
    d = acc_log - c_log
    d[d < 0] += qm1
    d[zero_mask] = 0  # placeholder index
    z = zech[d]
    out = c_log + z
    out[out >= qm1] -= qm1
    out[z == LOG_ZERO] = LOG_ZERO
    out[zero_mask] = c_log
    return out


def _fiber_range_count(field: FqField, A, start: int, stop: int) -> int:
    """Count cover points over the fibers with index in [start, stop).

    Fiber index t in [0, q) is the x-point [1 : exp-order element t packed];
    index q is [0 : 1].
    """
    q = field.q
    qm1 = q - 1
    zech = field.zech
    u_log = np.arange(qm1, dtype=np.int64)

    total = 0
    for idx in range(start, stop):
        if idx == q:
            x0, x1 = 0, 1
        else:
            x0, x1 = 1, idx
        # specialize: c_j = sum_i A[i][j] * x0^(4-i) x1^i
        cs = []
        for j in range(5):
            acc = 0
            for i in range(5):
                if A[i][j]:
                    term = field.mul(
                        field.from_int(A[i][j]),
                        field.mul(field.pow(x0, 4 - i), field.pow(x1, i)),
                    )
                    acc = field.add(acc, term)
            cs.append(acc)
        c_logs = [int(field.log[c]) if c else LOG_ZERO for c in cs]

        # y = [1:0] -> value c0; y = [0:1] -> value c4
        fiber = (q + 1) + field.quad_char(cs[0]) + field.quad_char(cs[4])
        # y = [1:u], u = g^i over all i: Horner acc = (((c4 u + c3) u + c2) u + c1) u + c0
        acc = np.full(qm1, c_logs[4], dtype=np.int64)
        for j in (3, 2, 1, 0):
            acc = _vec_mul_by_u(acc, u_log, qm1)
            acc = _vec_add_scalar(acc, c_logs[j], zech, qm1)
        nonzero = acc != LOG_ZERO
        evens = int(np.count_nonzero(nonzero & (acc % 2 == 0)))
        odds = int(np.count_nonzero(nonzero & (acc % 2 == 1)))
        fiber += evens - odds
        total += fiber
    return total


@lru_cache(maxsize=8)
def _cached_field(p: int, n: int) -> FqField:
    return make_field(p, n)


def _worker(args) -> int:
    p, n, A, start, stop = args
    field = _cached_field(p, n)
    return _fiber_range_count(field, [list(r) for r in A], start, stop)


def count_points(f: RationalPolynomial, p: int, n: int, threads: int = 1) -> int:
    """Exact number of points of the branched double cover over F_{p^n}."""
    if p == 2:
        raise EvenCharacteristicError("double-cover counting needs odd characteristic")
    A = curve_coefficients(f, p)
    field = _cached_field(p, n)
    nfibers = field.q + 1
    if threads <= 1:
        return _fiber_range_count(field, A, 0, nfibers)
    import concurrent.futures as cf

    chunks = []
    step = max(1, nfibers // (threads * 4))
    a_tup = tuple(tuple(r) for r in A)
    s = 0
    while s < nfibers:
        chunks.append((p, n, a_tup, s, min(s + step, nfibers)))
        s += step
    with cf.ProcessPoolExecutor(max_workers=threads) as ex:
        return sum(ex.map(_worker, chunks))


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
