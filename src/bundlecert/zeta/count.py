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

Kernel.  Every value of a count is a code of the one field type
`field.Field`: the log to the generator g (the root of the field's
primitive modulus) of a nonzero element, 3L for zero (L = q - 1).
`Field.horner` evaluates sum_j c_j x^j at every pair of a row of
coefficients and a value x by acc <- add(mul(acc, x), c_j), from
acc = c_4, one numpy call per table lookup.  It serves the specialization
c_j(x) at the orbit representatives, and each fiber's values at y = [1:u],
u = g^s, s = 0..L-1, whose quadratic characters sum to the fiber's sum over
u; that costs O(q) per fiber.  It works in chunks of CELLS = 2^17
(rows x values) cells, in one int64 buffer allocated once per call.

Jacobians.  A fiber is the curve C: w^2 = F(u) with
F = a u^4 + b u^3 + c u^2 + d u + e (a = c_4, e = c_0), and its count is
#C = q + 1 + sum over u in P1 of chi(F(u)) (`_fiber_counts`).  The cubic
X^3 + c X^2 + (bd - 4ae) X + (b^2 e + a d^2 - 4ace) is Ferrari's resolvent:
for a = 1 its roots are -(r1 r2 + r3 r4), -(r1 r3 + r2 r4), -(r1 r4 + r2 r3),
and its discriminant equals that of F as binary quartics, an identity over
Z.  So a nonzero discriminant (`_jacobians`) means four distinct roots on P1
and C smooth of genus one, with Jacobian
E: Y^2 = X^3 + c X^2 + (bd - 4ae) X + (b^2 e + a d^2 - 4ace).  X -> X - c/3
and scalings by 9 and 27 turn E into the 27I/27J model (An, Kim, Marshall,
Marshall, McCallum and Perlis, J. Number Theory 90 (2001)); E itself divides
by nothing, so it serves every odd characteristic, p = 3 included, where
that model degenerates (the tests compare it with the kernel over F_(3^5)
to F_(3^8)).  By Lang's theorem C has an F_q-point, so C is isomorphic to E
over F_q and #C = #E(F_q).

The curves of one count are handled together, up to CURVES = 2^14 per
numpy call (`_Curves`), on the same codes: a product is an add of
logs, an inverse a negated log, -1 is g^(L/2), chi is the parity of a log
and a square root half an even log; sums go through a Zech table.  Points
are affine, with O as x = y = -1 and masks for O and P + (-P); an add
draws the tangent only at the columns where P = Q.  For a point P
(`_point`, the first x = g^k of a fixed range with a square right side,
each k tried only on the curves still without a point; no randomness),
`_bsgs` finds every t with |t| <= T = floor(2 sqrt q) and
[q + 1 - t]P = O: baby steps jP, j = 0..m, stride S = 2m + 1 and giant
steps R_i = (q + 1 - iS)P over |i| <= G with GS + m >= T, so the steps
cover the whole Hasse interval; each giant step compares one point per
curve with the (m + 1) x rows baby array and keeps the (curve, t) hits,
which are tallied once per pass.  #E lies in the interval (Hasse) and is
a multiple of the order of P, so when exactly one t is found,
#E = q + 1 - t is proved, at every q; otherwise the row stays open
(Cohen, A Course in Computational Algebraic Number Theory, 7.4).  Mestre's
theorem (as in Schoof, J. Theor. Nombres Bordeaux 7 (1995)) only says
when a point is sure to settle a row: on E or its twist, for q > 229.

Routing.  `count_points` decides it for the whole count.  A count whose
fiber rows fit in one kernel chunk (rows x L <= CELLS: every q <= 359,
which covers the q <= 229 that Mestre's theorem leaves out, and b44 over
F_(3^n) for n <= 6) goes wholly to the kernel, which costs less there than
the BSGS passes.  Otherwise `_row_counts` runs the Jacobian route first, and
the kernel counts, a chunk at a time, the rows it leaves: singular fibers
(discriminant 0, F = 0 included) and fibers still open after POINTS points.

Each finished count writes one progress line to stderr, with the number of
fibers counted through their Jacobians and through the kernel.
"""
from __future__ import annotations

import sys
from itertools import product as iter_product
from math import isqrt
from time import perf_counter

import numpy as np

from ..errors import BundleCertError
from ..polycore import RationalPolynomial
from .field import (
    Field,
    _pol_mulmod,
    _pol_powmod,
    _pol_trim,
    check_field,
    make_field,
    primitive_modulus,
)


def curve_coefficients(f: RationalPolynomial, p: int):
    """5x5 integer matrix A[i][j] = coefficient of x0^(4-i) x1^i y0^(4-j) y1^j mod p,
    of a form f on P1 x P1 (every caller parses it there)."""
    if not f.is_homogeneous_of((4, 4)) or f.is_zero():
        raise BundleCertError("branch curve must be a nonzero form of bidegree (4,4)")
    A = [[0] * 5 for _ in range(5)]
    for exps, c in f.terms.items():
        A[exps[1]][exps[3]] = (A[exps[1]][exps[3]] + c) % p
    if not any(map(any, A)):
        raise BundleCertError(f"branch curve vanishes mod {p}")
    return A


# --- Frobenius orbits, field codes and the kernel ------------------------------

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


CELLS = 1 << 17  # kernel chunk: rows x values cells; counts that fit one chunk skip the route


def _specialize(F: Field, A, x_logs) -> np.ndarray:
    """Codes of c_j(x) = sum_k A[k][j] x^k for every x = g^i, i in x_logs: one row per x."""
    coeffs = np.array([[F.encode(A[k][j]) for k in range(5)] for j in range(5)])
    width = max(1, CELLS // 5)
    acc = np.empty(5 * min(width, len(x_logs)), dtype=np.int64)
    out = np.empty((len(x_logs), 5), dtype=np.int64)
    for s in range(0, len(x_logs), width):
        x = x_logs[s : s + width]
        out[s : s + len(x)] = F.horner(coeffs, x, acc[: 5 * len(x)].reshape(5, len(x))).T
    return out


def _orbit_fibers(F: Field, n: int, A):
    """Codes (c_0, ..., c_4) of one fiber per Frobenius orbit, and the weights.

    The last two rows are x = 0, where c_j = A[0][j], and x = [0:1], where
    c_j = A[4][j]; each has weight 1.
    """
    reps, sizes = frobenius_orbits(F.p, n)
    ends = [[F.encode(A[i][j]) for j in range(5)] for i in (0, 4)]
    return np.vstack([_specialize(F, A, reps), ends]), np.concatenate([sizes, [1, 1]])


def _fiber_counts(F: Field, rows) -> np.ndarray:
    """Points over each fiber, one per row of codes (c_0, ..., c_4).

    A fiber has y = [1:0] (value c_0), y = [0:1] (value c_4) and y = [1:u]
    for every u = g^s != 0; the sum over u is a row sum of chi.  The rows go
    through the kernel max(1, CELLS // L) at a time.
    """
    L = F.L
    u = np.arange(L, dtype=np.int64)
    acc = np.empty((max(1, min(CELLS // L, len(rows))), L), dtype=np.int64)
    sums = np.empty(len(rows), dtype=np.int64)
    for s in range(0, len(rows), len(acc)):
        b = min(len(acc), len(rows) - s)
        values = F.horner(rows[s : s + b], u, acc[:b])
        F.chi.take(values, out=values, mode="clip")
        values.sum(axis=1, out=sums[s : s + b])
    ends = F.chi.take(rows[:, 0], mode="clip") + F.chi.take(rows[:, 4], mode="clip")
    return L + 2 + ends + sums


# --- Jacobians ---------------------------------------------------------------------

POINTS = 2  # points tried on a Jacobian before its fiber goes to the kernel
CANDIDATES = 8  # x = g^(8r), ..., g^(8r + 7): where the r-th point is looked for
CURVES = 1 << 14  # rows per Jacobian pass; m + 1 <= 46 baby steps up to q = 2^20


def _jacobians(F: Field, rows):
    """(a2, a4, a6) of E: Y^2 = X^3 + a2 X^2 + a4 X + a6 for each fiber row, and
    whether the cubic's discriminant is nonzero.

    With F = a u^4 + b u^3 + c u^2 + d u + e (a = c_4, e = c_0): a2 = c,
    a4 = bd - 4ae, a6 = b^2 e + a d^2 - 4ace.
    """
    e, d, c, b, a = np.asarray(rows, dtype=np.int64).T
    m4 = F.const(-4)
    a4 = F.add(F.mul(b, d), F.mul(m4 + a, e))
    a6 = F.add(F.add(F.mul(F.mul(b, b), e), F.mul(a, F.mul(d, d))), F.mul(m4 + a, F.mul(c, e)))
    c2, a42 = F.mul(c, c), F.mul(a4, a4)
    # c^2 a4^2 - 4 a4^3 - 4 c^3 a6 + 18 c a4 a6 - 27 a6^2
    disc = F.add(
        F.add(F.mul(c2, a42), F.mul(m4 + a42, a4)),
        F.add(F.mul(m4 + F.mul(c2, c), a6),
              F.add(F.mul(F.const(18) + F.mul(c, a4), a6), F.mul(F.const(-27) + a6, a6))),
    )
    return c, a4, a6, disc != F.zero


class _Curves:
    """The group law on Y^2 = X^3 + a2 X^2 + a4 X + a6, one curve per column;
    a point is a pair (x, y) of code arrays, with x = y = -1 at O."""

    def __init__(self, F: Field, a2, a4):
        self.F, self.a2, self.a4 = F, a2, a4
        self.k2, self.k3 = F.const(2), F.const(3)

    def neg(self, P):
        x, y = P
        return x, np.where(x < 0, -1, self.F.neg(y))

    def double(self, P, cols=slice(None)):
        """[2]P, where P holds the points of the curves at cols (every curve
        by default); O when P is O or has y = 0."""
        F, (x, y) = self.F, P
        a2 = self.a2[cols]
        slope = F.add(F.add(F.mul(self.k3 + x, x), F.mul(self.k2 + a2, x)), self.a4[cols])
        lam = F.div(slope, self.k2 + y)
        x3 = F.sub(F.mul(lam, lam), F.add(a2, F.mul(self.k2, x)))
        y3 = F.sub(F.mul(lam, F.sub(x, x3)), y)
        o = (x < 0) | (y == F.zero)
        x3[o], y3[o] = -1, -1
        return x3, y3

    def add(self, P, Q):
        """P + Q by the chord; the tangent is drawn only at the columns
        where P = Q (not O), through `double` on those columns alone."""
        F, (x1, y1), (x2, y2) = self.F, P, Q
        lam = F.div(F.sub(y2, y1), F.sub(x2, x1))
        x3 = F.sub(F.mul(lam, lam), F.add(F.add(self.a2, x1), x2))
        y3 = F.sub(F.mul(lam, F.sub(x1, x3)), y1)
        same = x1 == x2
        if np.count_nonzero(same):  # P = -Q or both O, unless P = Q
            x3[same], y3[same] = -1, -1
            dbl = np.flatnonzero(same & (y1 == y2) & (x1 >= 0))
            if len(dbl):
                x3[dbl], y3[dbl] = self.double((x1[dbl], y1[dbl]), dbl)
        for o, R in ((x1 < 0, Q), (x2 < 0, P)):
            if np.count_nonzero(o):
                x3[o], y3[o] = R[0][o], R[1][o]
        return x3, y3

    def mul(self, k: int, P):
        """[k]P for k >= 1, left to right."""
        R = P
        for bit in bin(k)[3:]:
            R = self.double(R)
            if bit == "1":
                R = self.add(R, P)
        return R


def _point(F: Field, a2, a4, a6, r: int):
    """A point (x, y) on each curve: x = g^k for the least k in
    [8r, 8r + 8) where the right side is a nonzero square, and
    y = g^(log(rhs) / 2); and whether each curve has one.  Each candidate k
    is tried only on the curves still without a point, and the search stops
    when every curve has one."""
    x = np.zeros(len(a2), dtype=np.int64)
    y = np.zeros(len(a2), dtype=np.int64)
    todo = np.arange(len(a2))
    for k in range(CANDIDATES * r, CANDIDATES * (r + 1)):
        rhs = F.add(F.add(3 * k % F.L, F.mul(a2[todo], 2 * k)),
                    F.add(F.mul(a4[todo], k), a6[todo]))
        new = F.chi.take(rhs, mode="clip") == 1
        x[todo[new]], y[todo[new]] = k, rhs[new] // 2
        todo = todo[~new]
        if not len(todo):
            break
    found = np.ones(len(a2), dtype=bool)
    found[todo] = False
    return (x, y), found


def _bsgs(E: _Curves, q: int, P):
    """#E(F_q) from the point P on each curve, and whether it is proved.

    Every t in the Hasse interval |t| <= T = floor(2 sqrt q) with
    [q + 1 - t]P = O is found: baby steps jP (j = 0..m), stride S = 2m + 1,
    giant steps R_i = (q + 1 - iS)P for |i| <= G with GS + m >= T, and
    R_i = +-jP exactly when t = iS +- j.  A giant step finds which baby
    steps match, and negates R_i, only at the columns where its x equals a
    baby step's, and the (column, t) hits of the whole pass are tallied
    once at the end.  #E is a multiple of the order of P in the interval,
    so a unique t proves #E = q + 1 - t; where t is not unique the count
    returned is q + 1, and proves nothing.
    """
    T = isqrt(4 * q)
    m = max(1, isqrt(T))
    S = 2 * m + 1
    G = -(-(T - m) // S)
    bx = np.full((m + 1, len(P[0])), -1, dtype=np.int32)
    by = bx.copy()
    jP = P
    for j in range(1, m + 1):
        bx[j], by[j] = jP
        jP = E.add(jP, P) if j > 1 else E.double(P)
    SP = E.add(E.double((bx[m], by[m])), P)
    # R_(-G) = (q + 1 + GS)P = [u](SP) + [v]P with |v| <= m
    u, v = divmod(q + 1 + G * S, S)
    if v > m:
        u, v = u + 1, v - S
    vP = (bx[abs(v)], by[abs(v)])
    R = E.add(E.mul(u, SP), vP if v >= 0 else E.neg(vP))
    minus_S = E.neg(SP)
    hit_cols, hit_t = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for i in range(-G, G + 1):
        match = bx == R[0].astype(np.int32)
        cols = np.flatnonzero(match.any(axis=0))
        if len(cols):
            js, k = np.nonzero(match[:, cols])
            cols = cols[k]
            # R_i = jP: t = iS + j; R_i = -jP (-R_i = jP): t = iS - j, j > 0
            Rc = (R[0][cols], R[1][cols])
            for sign, y in ((1, Rc[1]), (-1, E.neg(Rc)[1])):
                tt = i * S + sign * js
                ok = (by[js, cols] == y) & (np.abs(tt) <= T) & ((sign > 0) | (js > 0))
                hit_cols.append(cols[ok])
                hit_t.append(tt[ok])
        if i < G:
            R = E.add(R, minus_S)
    cols, t = np.concatenate(hit_cols), np.concatenate(hit_t)
    unique = np.bincount(cols, minlength=len(P[0])) == 1
    once = unique[cols]
    trace = np.zeros(len(P[0]), dtype=np.int64)
    trace[cols[once]] = t[once]
    return q + 1 - trace, unique


def _jacobian_counts(F: Field, rows):
    """#E(F_q) of each row's Jacobian, and which rows it is proved for:
    smooth rows, at most POINTS points each."""
    a2, a4, a6, smooth = _jacobians(F, rows)
    counts = np.zeros(len(rows), dtype=np.int64)
    proved = np.zeros(len(rows), dtype=bool)
    todo = np.flatnonzero(smooth)
    for r in range(POINTS):
        if not len(todo):
            break
        P, found = _point(F, a2[todo], a4[todo], a6[todo], r)
        N, unique = _bsgs(_Curves(F, a2[todo], a4[todo]), F.L + 1, P)
        done = todo[found & unique]
        counts[done], proved[done] = N[found & unique], True
        todo = todo[~(found & unique)]
    return counts, proved


def _row_counts(F: Field, rows):
    """Points over each fiber row, and how many rows were counted through
    their Jacobians; the kernel counts the rest.  The Jacobians go CURVES
    rows at a time, so the baby-step array stays below 46 x CURVES cells."""
    counts = np.zeros(len(rows), dtype=np.int64)
    proved = np.zeros(len(rows), dtype=bool)
    for s in range(0, len(rows), CURVES):
        counts[s : s + CURVES], proved[s : s + CURVES] = _jacobian_counts(F, rows[s : s + CURVES])
    if not proved.all():
        counts[~proved] = _fiber_counts(F, rows[~proved])
    return counts, int(proved.sum())


def count_points(f: RationalPolynomial, p: int, n: int, threads: int = 1) -> int:
    """Exact number of points of the branched double cover over F_{p^n}.

    Counts run in one process: any threads other than 1 is refused."""
    if threads != 1:
        raise BundleCertError(f"counts run in one process, got threads={threads}")
    start = perf_counter()
    A = curve_coefficients(f, p)
    F = make_field(p, n)
    rows, weights = _orbit_fibers(F, n, A)
    if len(rows) * F.L <= CELLS:
        counts, jacobian = _fiber_counts(F, rows), 0
    else:
        counts, jacobian = _row_counts(F, rows)
    sys.stderr.write(
        f"n={n} q={F.L + 1}: {len(rows)} orbit fibers ({jacobian} Jacobian, "
        f"{len(rows) - jacobian} kernel), {perf_counter() - start:.3f} s\n"
    )
    return int(counts @ weights)


def count_points_bruteforce(f: RationalPolynomial, p: int, n: int) -> int:
    """Independent slow oracle: direct evaluation at every base point, on
    digit lists multiplied modulo the field's primitive modulus (no tables)."""
    check_field(p, n)
    A = curve_coefficients(f, p)
    mod = list(primitive_modulus(p, n))
    half = (p ** n - 1) // 2

    def add(a, b):
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return _pol_trim([(x + y) % p for x, y in zip(a, b)])

    def monomials(u0, u1):
        """u0^(4-i) u1^i, i = 0..4."""
        powers = [[[1]], [[1]]]
        for _ in range(4):
            for pw, u in zip(powers, (u0, u1)):
                pw.append(_pol_mulmod(pw[-1], u, mod, p))
        return [_pol_mulmod(powers[0][4 - i], powers[1][i], mod, p) for i in range(5)]

    elements = [_pol_trim(list(d)) for d in iter_product(range(p), repeat=n)]
    points = [monomials([1], t) for t in elements] + [monomials([], [1])]
    total = 0
    for mx in points:
        for my in points:
            v = []
            for i in range(5):
                for j in range(5):
                    if A[i][j]:
                        m = _pol_mulmod(mx[i], my[j], mod, p)
                        v = add(v, [A[i][j] * c % p for c in m])
            total += 1 if not v else 2 if _pol_powmod(v, half, mod, p) == [1] else 0
    return total
