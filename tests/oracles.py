"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: rank by plain
fraction Gaussian elimination (vs fraction-free Bareiss), point counts by
direct evaluation over all base points (vs the vectorized fiber loop),
field tables by an order search with plain digit-list arithmetic (vs the
primitivity test and the vectorized Zech table), coverage of the twist
regions by a point-by-point walk over a window (vs the tail and core layout
certify builds).
"""
from __future__ import annotations

from fractions import Fraction


def gauss_rank(rows) -> int:
    """Row-echelon rank with exact fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def count_double_cover_f3(coeffs_mod3) -> int:
    """Brute-force count over F_3 with plain integer arithmetic mod 3.

    coeffs_mod3[i][j] multiplies x0^(4-i) x1^i y0^(4-j) y1^j.
    """
    pts = [(1, 0), (1, 1), (1, 2), (0, 1)]
    total = 0
    for x0, x1 in pts:
        for y0, y1 in pts:
            v = 0
            for i in range(5):
                for j in range(5):
                    c = coeffs_mod3[i][j]
                    if not c:
                        continue
                    v += (
                        c
                        * pow(x0, 4 - i, 3)
                        * pow(x1, i, 3)
                        * pow(y0, 4 - j, 3)
                        * pow(y1, j, 3)
                    )
            v %= 3
            if v == 0:
                total += 1
            elif v == 1:  # squares mod 3 are {1}
                total += 2
    return total


def field_tables(p: int, n: int, modulus) -> tuple:
    """exp, log and Zech lists of F_p[x]/(modulus), built one element at a time.

    `modulus` is monic, ascending.  Elements pack base p.  The generator is
    the smallest packed integer whose multiplicative order, found by
    repeated multiplication, is q - 1; zech[i] = log(1 + g^i), -1 for zero.
    """
    q = p**n

    def unpack(a):
        return [a // p**k % p for k in range(n)]

    def pack(digits):
        return sum(d * p**k for k, d in enumerate(digits))

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(unpack(a)):
            for j, y in enumerate(unpack(b)):
                prod[i + j] += x * y
        for top in range(2 * n - 2, n - 1, -1):
            c = prod[top] % p
            for k in range(n + 1):
                prod[top - n + k] -= c * modulus[k]
        return pack([d % p for d in prod[:n]])

    def order(a):
        cur, k = a, 1
        while cur != 1:
            cur, k = mul(cur, a), k + 1
        return k

    gen = next(a for a in range(1, q) if order(a) == q - 1)
    exp = [1]
    while len(exp) < q - 1:
        exp.append(mul(exp[-1], gen))
    log = [-1] * q
    for i, e in enumerate(exp):
        log[e] = i
    zech = [log[pack([(d + (k == 0)) % p for k, d in enumerate(unpack(e))])] for e in exp]
    return exp, log, zech


def audit_coverage(cert, window: int = 8) -> bool:
    """Every lattice point of each twist region of a StabilityCertificate
    inside a finite window is justified by a core check, a propagation from a
    checked point, or a tail rule."""
    for s, region in cert.regions.items():
        checks = {tuple(c.twist) for c in cert.core_checks if c.s == s and c.h0_hi == 0}
        props = [p for p in cert.propagations if p.s == s]
        tails = [(t.axis, t.bound) for t in cert.tail_rules if t.s == s]
        if region.kind == "halfline":
            pts = [(k,) for k in range(region.bound - window, region.bound + 1)]
        else:
            pts = [
                (k, l)
                for k in range(-window, window + 1)
                for l in range(-window, window + 1)
                if k + l <= region.bound
            ]
        for pt in pts:
            if tuple(pt) in checks:
                continue
            if any(pt[axis - 1] <= b for axis, b in tails):
                continue
            covered = False
            for p in props:
                if all(a <= b for a, b in zip(pt, p.source)) and tuple(p.source) in checks:
                    covered = True
                    break
            if not covered:
                return False
    return True
