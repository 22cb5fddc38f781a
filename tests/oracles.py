"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: rank by plain
fraction Gaussian elimination (vs fraction-free Bareiss), point counts by
direct evaluation over all base points (vs the vectorized fiber loop),
field tables by an order search with plain digit-list arithmetic (vs the
primitive modulus, whose root is the generator, and the vectorized Zech
table), the order of that root by repeated multiplication (vs the
power tests of `zeta.field.primitive_modulus`), the primitive modulus by
the power tests on every candidate in turn (vs the norm and root filter
that skips candidates first), coverage of the twist regions by a
point-by-point walk over a window (vs the tail and core layout certify
builds), and the all-roots-on-the-circle test with rational
division, a plain Sturm chain and a rational gcd, and the plus-sign
family's middle coefficients by rational remainders and a rational solve,
and the unit-root count by dividing by every cyclotomic (vs the integer
pseudo-remainder sequences, divisibility tests and residues mod a witness
prime of `zeta.charpoly`), and h^0 on a quartic surface by normal forms modulo f
in the coordinate ring (vs the lifted kernel monad of `k3lat.quartic_h0`),
and fiber counts and specialized coefficients one point at a time through
the exp and log lists of `field_tables` (vs the blocked Horner on the
codes of `zeta.field.Field`), and the kernel vector of an integer matrix by
a fraction reduced row echelon form (vs the signed maximal minors of
`k3lat._base_point`), and determinants by the Leibniz sum over
permutations (vs the fraction-free elimination of `polycore.bareiss_det`),
and sums of curve-class candidates by a recursive search over multisets
(vs the table of reachable sums per degree of `k3lat._decomposes`), and the
Chern data of a twisted sum of line bundles by the closed forms per ambient
(vs the one rule through the intersection form of `monad.chern_free`), and
section matrices as dense rows, one polynomial product per source basis
monomial, every target basis enumerated (vs the counted rows, rows keyed by
product monomial, skipped empty summands and cells written once of
`polycore.section_matrix`).

The last section holds helpers only tests use, moved out of `src/` with
their logic unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd, lcm, prod

from bundlecert.cohom import SECTION_KERNEL, _kernel_result
from bundlecert.errors import BundleCertError
from bundlecert.k3lat import QUARTIC_AMBIENT
from bundlecert.monad import KERNEL
from bundlecert.polycore import (
    ExactMatrix,
    RationalPolynomial,
    bareiss_det,
    monomial_basis,
    parse_poly,
)
from bundlecert.polycore.poly import _coeff
from bundlecert.zeta.charpoly import cyclotomic, cyclotomics_up_to, prime_divisors
from bundlecert.zeta.field import _pol_mulmod, _pol_powmod


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


def leibniz_det(rows) -> int:
    """Determinant as the signed sum over all permutations (Leibniz); the sign
    is the parity of the permutation's inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def rref_kernel_vector(rows) -> tuple:
    """The primitive integer vector spanning the kernel of a rational matrix,
    with its free coordinate positive, by a fraction reduced row echelon form;
    None unless the kernel is one-dimensional."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    j = free[0]
    vec = [Fraction(0)] * n
    vec[j] = Fraction(1)
    for row, c in zip(rows, pivots):
        vec[c] = -row[j]
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if ints[j] < 0:
        ints = [-x for x in ints]
    return tuple(ints)


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


@lru_cache(maxsize=None)
def field_tables(p: int, n: int, modulus) -> tuple:
    """exp, log and Zech lists of F_p[x]/(modulus), built one element at a time.

    `modulus` is monic, ascending.  Elements pack base p.  The generator is
    the smallest packed integer whose multiplicative order, found by
    repeated multiplication, is q - 1; zech[i] = log(1 + g^i), -1 for zero.
    On the primitive modulus of `zeta.field` that is its root x, so equal
    logs also check the generator.
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


def root_order(p: int, modulus) -> int:
    """The multiplicative order of x in F_p[x]/(modulus), by repeated
    multiplication by x (`modulus` monic, ascending); 0 when no x^k with
    1 <= k < p^n is 1."""
    n = len(modulus) - 1
    one = [1] + [0] * (n - 1)
    power = one
    for k in range(1, p**n):
        top = power[-1]
        power = [(low - top * c) % p for low, c in zip([0] + power[:-1], modulus)]
        if power == one:
            return k
    return 0


def search_primitive_unfiltered(p: int, n: int) -> tuple:
    """The first candidate in the order of `zeta.field.primitive_modulus`
    that passes its power tests on digit lists, trying every candidate in
    turn (no norm or root filter)."""
    q = p ** n
    odd = [(q - 1) // ell for ell in prime_divisors(q - 1) if ell != 2]
    for high_to_low in product(range(p), repeat=n):
        mod = [-high_to_low[-1] % p, *reversed(high_to_low[:-1]), 1]
        h = _pol_powmod([0, 1], (q - 1) // 2, mod, p)
        if h != [1] and _pol_mulmod(h, h, mod, p) == [1] and all(
            _pol_powmod([0, 1], e, mod, p) != [1] for e in odd
        ):
            return tuple(mod)
    raise RuntimeError("unreachable: primitive polynomials exist in every degree")


def packed_add(p: int, a: int, b: int) -> int:
    """a + b for packed elements, digit by digit in base p."""
    out, scale = 0, 1
    while a or b:
        out += (a + b) % p * scale
        a, b, scale = a // p, b // p, scale * p
    return out


def packed_mul(field, a: int, b: int) -> int:
    """a b for packed elements of the field's p, n and modulus, through the
    exp and log lists of `field_tables`."""
    exp, log, _ = field_tables(field.p, field.n, field.modulus)
    return 0 if a == 0 or b == 0 else exp[(log[a] + log[b]) % (field.q - 1)]


def field_value(field, coeffs, x) -> int:
    """sum_j coeffs[j] x^j in F_q for packed elements, by Horner with
    `packed_mul` and `packed_add`."""
    v = 0
    for c in reversed(coeffs):
        v = packed_add(field.p, packed_mul(field, v, x), c)
    return v


def fiber_count(field, coeffs) -> int:
    """Points over one fiber with coefficients (c_0, ..., c_4) (packed
    elements): 1 + chi(value) summed over y = [1:0] (c_0), y = [0:1] (c_4)
    and y = [1:u] for each u != 0 (the value sum_j c_j u^j), one point at a
    time; chi is +1 or -1 by the parity of the log in `field_tables`, 0 at
    zero."""
    exp, log, _ = field_tables(field.p, field.n, field.modulus)

    def points(v):
        return 1 if v == 0 else 2 - 2 * (log[v] % 2)

    total = points(coeffs[0]) + points(coeffs[4])
    for u in exp:
        total += points(field_value(field, coeffs, u))
    return total


def audit_coverage(cert, window: int = 8) -> bool:
    """Every lattice point of each twist region of a stability certificate
    document inside a finite window is justified by a core check, a
    propagation from a checked point, or a tail rule."""
    for key, region in cert["regions"].items():
        s, bound = int(key), region["bound"]
        checks = {tuple(c["twist"]) for c in cert["core_checks"] if c["s"] == s and c["h0"][1] == 0}
        props = [tuple(p["from"]) for p in cert["monotone_propagations"] if p["s"] == s]
        tails = [(t["axis"], t["bound"]) for t in cert["tail_rules"] if t["s"] == s]
        if region["kind"] == "halfline":
            pts = [(k,) for k in range(bound - window, bound + 1)]
        else:
            pts = [
                (k, l)
                for k in range(-window, window + 1)
                for l in range(-window, window + 1)
                if k + l <= bound
            ]
        for pt in pts:
            if tuple(pt) in checks:
                continue
            if any(pt[axis - 1] <= b for axis, b in tails):
                continue
            covered = False
            for source in props:
                if all(a <= b for a, b in zip(pt, source)) and source in checks:
                    covered = True
                    break
            if not covered:
                return False
    return True


# --- the circle test over Q -------------------------------------------------------

def poly_divmod(a, b):
    """(quotient, remainder) of a by b over Q, as Fraction lists."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(1, len(r) - len(b) + 1)
    while len(r) >= len(b) and any(r):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for i, x in enumerate(b):
            r[shift + i] -= c * x
        while len(r) > 1 and r[-1] == 0:
            r.pop()
    return q, r


def _evaluate(poly, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(poly):
        total = total * x + c
    return total


def _sturm_count(poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] for a squarefree rational poly."""
    chain = [[Fraction(c) for c in poly]]
    deriv = [Fraction(i * c) for i, c in enumerate(poly)][1:]
    if any(deriv):
        chain.append(deriv)
        while len(chain[-1]) > 1:
            r = [-c for c in poly_divmod(chain[-2], chain[-1])[1]]
            if not any(r):
                break
            chain.append(r)

    def sign_changes(x):
        signs = [v > 0 for v in (_evaluate(q, x) for q in chain) if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return sign_changes(a) - sign_changes(b)


def _squarefree_part(poly):
    """poly / gcd(poly, poly') over Q."""
    f = [Fraction(c) for c in poly]
    a, b = f, [Fraction(i * c) for i, c in enumerate(poly)][1:]
    while any(b) and len(b) > 1:
        a, b = b, poly_divmod(a, b)[1]
    gcd = a if not any(b) else b  # a nonzero constant b: squarefree already
    if len(gcd) == 1:
        return f
    q, r = poly_divmod(f, gcd)
    assert not any(r)
    return q


def all_roots_on_circle(coeffs, p: int, sign: int) -> bool:
    """Exact test that every root of the monic integer polynomial has |z| = p.

    Uses the built-in functional equation: R(S) = Q(pS)/p^d is self-inversive
    with the given sign; for sign -1 the forced roots S = ±1 are divided out.
    The remainder satisfies S^e R(1/S) = R(S), hence S^{-e/2} R(S) = G(u) with
    u = S + 1/S; all roots of R lie on |S| = 1 iff all roots of G are real in
    [-2, 2], decided by a Sturm count on the squarefree part.
    """
    d = len(coeffs) - 1
    r = [Fraction(coeffs[j], p ** (d - j)) for j in range(d + 1)]  # R ascending
    if sign == -1:
        # divide by (S-1)(S+1) = S^2 - 1
        r, remdr = poly_divmod(r, [-1, 0, 1])
        if any(remdr):
            return False
    if (len(r) - 1) % 2:
        # self-inversive of odd degree with sign +1 has S = -1 as a root
        r, remdr = poly_divmod(r, [1, 1])
        if any(remdr):
            return False
    e = len(r) - 1
    h = e // 2
    # verify self-inversivity of the remainder (sign +1)
    for j in range(e + 1):
        if r[j] != r[e - j]:
            return False
    # G(u) = r_h + sum_{m>=1} r_{h+m} * b_m(u), with b_0 = 2, b_1 = u and
    # b_m = u b_{m-1} - b_{m-2}
    G = [Fraction(0)] * (h + 1)
    G[0] = r[h]
    b_prev, b_cur = [Fraction(2)], [Fraction(0), Fraction(1)]
    for m in range(1, h + 1):
        for i, c in enumerate(b_cur):
            G[i] += r[h + m] * c
        b_next = [Fraction(0)] + b_cur
        for i, c in enumerate(b_prev):
            b_next[i] -= c
        b_prev, b_cur = b_cur, b_next
    while len(G) > 1 and G[-1] == 0:
        G.pop()
    if len(G) == 1:
        return not any(G) or h == 0
    # count roots in [-2, 2]: handle endpoints exactly, then Sturm on the rest
    sq = _squarefree_part(G)
    total_needed = len(sq) - 1
    found = 0
    for endpoint in (Fraction(-2), Fraction(2)):
        if _evaluate(sq, endpoint) == 0:
            sq, remdr = poly_divmod(sq, [-endpoint, 1])
            assert not any(remdr)
            found += 1
    found += _sturm_count(sq, Fraction(-2), Fraction(2))
    return found == total_needed


def family_completions(coeffs, p: int) -> list:
    """(e, coeffs) for every integer middle coefficient e that lets a
    cyclotomic Phi_k divide Q(pT), by solving r0 + e r1 = 0 over Q."""
    mid = (len(coeffs) - 1) // 2
    w0 = [c * p ** j for j, c in enumerate(coeffs)]
    t_mid = [0] * mid + [p ** mid]
    out = set()
    for cyc in map(cyclotomic, cyclotomics_up_to(len(coeffs) - 1)):
        width = len(cyc) - 1
        r0 = poly_divmod(w0, cyc)[1]
        r0 += [Fraction(0)] * (width - len(r0))
        r1 = poly_divmod(t_mid, cyc)[1]
        r1 += [Fraction(0)] * (width - len(r1))
        idx = next(i for i, c in enumerate(r1) if c)
        e = -r0[idx] / r1[idx]
        if all(a + e * b == 0 for a, b in zip(r0, r1)) and e.denominator == 1:
            out.add(int(e))
    return [(e, tuple(coeffs[:mid]) + (e,) + tuple(coeffs[mid + 1 :])) for e in sorted(out)]


def unit_root_count(coeffs, p: int) -> int:
    """Total multiplicity of roots p * zeta: Q(pT) divided over Q by every
    Phi_k with phi(k) <= deg Q, for as long as the remainder is zero."""
    w = [c * p ** j for j, c in enumerate(coeffs)]
    total = 0
    for cyc in map(cyclotomic, cyclotomics_up_to(len(coeffs) - 1)):
        quot, rem = poly_divmod(w, cyc)
        while not any(rem):
            total += len(cyc) - 1
            quot, rem = poly_divmod(quot, cyc)
    return total


# --- h^0 on a quartic surface by normal forms ---------------------------------------

@dataclass
class QuarticRing:
    """R/(f) for a quartic f in four variables, with monomial normal forms.

    The lex-leading monomial of f is the rewrite head; since the ideal is
    principal, monomials not divisible by it form a basis of each graded
    piece, of dimension C(d+3,3) - C(d-1,3).
    """

    f: RationalPolynomial
    lead: tuple = field(init=False)
    lead_coeff: int = field(init=False)

    def __post_init__(self):
        if self.f.ambient != QUARTIC_AMBIENT:
            raise ValueError("quartic must live on P3 with coordinates x,y,z,w")
        if self.f.is_zero() or not self.f.is_homogeneous_of(4):
            raise ValueError("f must be a nonzero homogeneous quartic")
        self.lead = max(self.f.terms)
        self.lead_coeff = self.f.terms[self.lead]

    def hilbert(self, d: int) -> int:
        if d < 0:
            return 0
        return comb(d + 3, 3) - (comb(d - 1, 3) if d >= 1 else 0)

    def basis(self, d: int) -> list:
        if d < 0:
            return []
        out = [
            e
            for e in monomial_basis(QUARTIC_AMBIENT, d)
            if not all(a >= b for a, b in zip(e, self.lead))
        ]
        assert len(out) == self.hilbert(d)
        return out

    def reduce(self, terms: dict) -> dict:
        """Normal form modulo f of a polynomial given as its terms (exponent
        vector -> coefficient): eliminate every monomial divisible by the head,
        in rational arithmetic on plain term dicts."""
        terms = {e: Fraction(c) for e, c in terms.items()}
        while True:
            divisible = [e for e in terms if all(a >= b for a, b in zip(e, self.lead))]
            if not divisible:
                return terms
            e = max(divisible)
            q = terms[e] / self.lead_coeff
            quot = tuple(a - b for a, b in zip(e, self.lead))
            for ef, cf in self.f.terms.items():
                ee = tuple(a + b for a, b in zip(quot, ef))
                s = terms.get(ee, 0) - q * cf
                if s:
                    terms[ee] = s
                else:
                    terms.pop(ee, None)


def quartic_h0(ring: QuarticRing, entries, source_twists, target_twists, k: int) -> int:
    """h^0 of the kernel of a section map between twisted sums on the quartic,
    from the matrix of the map on normal-form bases of R = S/(f)."""
    entries = [
        [parse_poly(p, QUARTIC_AMBIENT) if isinstance(p, str) else p for p in row]
        for row in entries
    ]
    src = [int(t) for t in source_twists]
    tgt = [int(t) for t in target_twists]
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            if not p.is_homogeneous_of(tgt[i] - src[j]):
                raise BundleCertError(
                    f"entry ({i},{j}) inhomogeneous: expected degree {tgt[i] - src[j]}"
                )
    src_bases = [ring.basis(t + k) for t in src]
    tgt_bases = [ring.basis(t + k) for t in tgt]
    ncols = sum(len(b) for b in src_bases)
    row_pos = []
    nrows = 0
    for b in tgt_bases:
        row_pos.append({e: nrows + i for i, e in enumerate(b)})
        nrows += len(b)
    M = zero_matrix(nrows, ncols)
    col = 0
    for j, sb in enumerate(src_bases):
        for mono in sb:
            mono_poly = monomial(QUARTIC_AMBIENT, mono)
            cells = [(row_pos[i][e], c) for i, row in enumerate(entries)
                     for e, c in ring.reduce((row[j] * mono_poly).terms).items()]
            scale = lcm(*(c.denominator for _, c in cells))  # a column scaling keeps the rank
            for r, c in cells:
                add_cell(M, r, col, int(c * scale))
            col += 1
    return M.cols - M.rank()


# --- sums of curve-class candidates by search ---------------------------------------

def decomposes_by_search(target, budget, candidates) -> bool:
    """Whether some multiset of candidate (coords, degree, sq) of total degree
    budget sums to target, by a depth-first search over candidates in
    decreasing degree; exponential in budget."""
    cands = sorted(candidates, key=lambda c: -c[1])

    def rec(remaining, budget, start):
        if budget == 0:
            return remaining == (0, 0)
        for i in range(start, len(cands)):
            (a, b), d, _ = cands[i]
            if d > budget:
                continue
            if rec((remaining[0] - a, remaining[1] - b), budget - d, i):
                return True
        return False

    return rec(tuple(target), budget, 0)


# --- Chern data of a twisted sum by closed forms --------------------------------------

def chern_free_p2(ks) -> dict:
    """O(k_1) ⊕ ... ⊕ O(k_r) on P2: c1 = Σ k_i, c2 = Σ_{i<j} k_i k_j."""
    c2 = sum(ks[i] * ks[j] for i in range(len(ks)) for j in range(i + 1, len(ks)))
    return {"rank": len(ks), "c1": [sum(ks)], "c2": c2}


def chern_free_p1p1(twists) -> dict:
    """O(k_1, m_1) ⊕ ... ⊕ O(k_r, m_r) on P1 x P1: c1 = (Σ k_i, Σ m_i),
    c2 = Σ_{i<j} (k_i m_j + k_j m_i)."""
    ks = [t[0] for t in twists]
    ms = [t[1] for t in twists]
    c2 = sum(
        ks[i] * ms[j] + ks[j] * ms[i] for i in range(len(ks)) for j in range(i + 1, len(ks))
    )
    return {"rank": len(ks), "c1": [sum(ks), sum(ms)], "c2": c2}


# --- helpers only tests use -----------------------------------------------------------

def monomial(ambient, exps, coeff=1) -> RationalPolynomial:
    c = _coeff(coeff)
    if not c:
        return RationalPolynomial.zero(ambient)
    exps = tuple(int(e) for e in exps)
    if len(exps) != ambient.nvars or any(e < 0 for e in exps):
        raise ValueError("bad exponent vector")
    return RationalPolynomial(ambient, {exps: c})


def from_rows(rows) -> ExactMatrix:
    """An ExactMatrix from a dense list of rows, row i keyed i."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    entries = {i: {j: _coeff(x) for j, x in enumerate(r) if x} for i, r in enumerate(rows) if any(r)}
    return ExactMatrix(len(rows), ncols, entries)


def zero_matrix(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, {})


def add_cell(M: ExactMatrix, i, j: int, value) -> None:
    """M[i][j] += value, dropping the cell when the sum is zero and the row
    when it has no cell left."""
    row = M.entries.setdefault(i, {})
    total = row.get(j, 0) + value
    if total:
        row[j] = total
    else:
        row.pop(j, None)
        if not row:
            del M.entries[i]


def identity_matrix(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, {i: {i: 1} for i in range(n)})


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a @ b, where the column j of a is the row keyed j of b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    out = zero_matrix(a.rows, b.cols)
    for i, row in a.entries.items():
        for k, x in row.items():
            for j, y in b.entries.get(k, {}).items():
                add_cell(out, i, j, x * y)
    return out


def dense(M: ExactMatrix, keys=None) -> list:
    """The full rows-by-cols grid of M, one row per key of `keys` in order
    (by default 0, 1, ..., rows - 1); every row M stores must be one of them."""
    keys = list(range(M.rows) if keys is None else keys)
    if len(keys) != M.rows or not set(M.entries) <= set(keys):
        raise ValueError("the keys do not place every row")
    return [[M.entries.get(k, {}).get(j, 0) for j in range(M.cols)] for k in keys]


def section_row_keys(ambient, target_twists, L) -> list:
    """The row keys of a section matrix in dense order: (target summand,
    exponent) per monomial of each twisted target, in `monomial_basis` order."""
    return [(i, e) for i, t in enumerate(target_twists)
            for e in monomial_basis(ambient, tuple(a + b for a, b in zip(t, L)))]


def mdeg_leq(a, b) -> bool:
    """Componentwise partial order."""
    return all(x <= y for x, y in zip(a, b))


def monomial_count(ambient, d) -> int:
    """|monomial_basis| in closed form: prod of C(n_i + d_i, n_i)."""
    d = ambient.normalize_degree(d)
    if any(c < 0 for c in d):
        return 0
    total = 1
    for n, deg in zip(ambient.dims, d):
        total *= comb(n + deg, n)
    return total


def homogeneous_multidegree(p: RationalPolynomial):
    """The common multidegree of all terms, or None if mixed.  Zero -> (0,..,0)."""
    deg = None
    for e in p.terms:
        d = p.ambient.exponent_multidegree(e)
        if deg is None:
            deg = d
        elif d != deg:
            return None
    return deg if deg is not None else p.ambient.zero_degree()


def h0_kernel(m, L):
    """h^0(ker(b) ⊗ O(L)), exact."""
    if m.kind != KERNEL:
        raise BundleCertError("h0_kernel needs a kernel monad")
    L = m.ambient.normalize_degree(L)
    return _kernel_result(m, m.map_b, m.middle, m.target, L, SECTION_KERNEL)


def dense_section_matrix(ambient, entries, source_twists, target_twists, L) -> list:
    """The section matrix as dense rows: one polynomial product per (target
    summand, source summand, source basis monomial), its coefficients read in
    `monomial_basis` order; no index, no skipped summand."""
    src_bases = [monomial_basis(ambient, tuple(a + b for a, b in zip(t, L)))
                 for t in source_twists]
    rows = []
    for i, t in enumerate(target_twists):
        for e in monomial_basis(ambient, tuple(a + b for a, b in zip(t, L))):
            row = []
            for j, basis in enumerate(src_bases):
                for mono in basis:
                    row.append((entries[i][j] * monomial(ambient, mono)).terms.get(e, 0))
            rows.append(row)
    return rows


def ideal_fills_degree(forms, ambient, d) -> bool:
    """Whether the forms span every form of multidegree d: one dense row per
    (form, monomial) product, ranked by `gauss_rank` (vs `section_matrix`)."""
    basis = monomial_basis(ambient, d)
    index = {e: k for k, e in enumerate(basis)}
    rows = []
    for f in forms:
        deg = ambient.exponent_multidegree(next(iter(f.terms)))
        for mono in monomial_basis(ambient, tuple(a - b for a, b in zip(d, deg))):
            row = [0] * len(basis)
            for e, c in (f * monomial(ambient, mono)).terms.items():
                row[index[e]] = c
            rows.append(row)
    return gauss_rank(rows) == len(basis)


def chern_dual(c: dict) -> dict:
    return {"rank": c["rank"], "c1": [-x for x in c["c1"]], "c2": c["c2"]}


def gram_det(lattice) -> int:
    return bareiss_det([list(r) for r in lattice.gram])


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
