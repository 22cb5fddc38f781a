"""From point counts to a geometric Picard-rank upper bound.

One shape: H^2 of the double cover of P1 x P1 has dimension H2_DIM = 22, and
the U(2) of the two pulled-back rulings is the only part known to be
algebraic (K_ALG = 2).  Taking p^i per class out of each trace
t_i = N_i - 1 - p^{2i} leaves the power sums of a Weil factor Q of degree
DEGREE = 20.  Nine counts (n = 1..HALF - 1) give e_1..e_9 by Newton's
identities, and the functional equation T^20 Q(p^2/T) = ±p^20 Q(T) gives
every other coefficient except e_HALF = e_10: the minus sign forces it to
zero, and the plus sign leaves a one-parameter family in that slot, which
the tenth count, over F_{p^10}, pins.

A candidate is its document entry, {"sign", "kind", "status", "reason",
"coeffs_ascending"}: kind "complete" or "family" (the free slot T^HALF holds
0), status "surviving" or "discarded", and the reason a person reads.

Other k_alg values are refused rather than supported: no other classes are
known to be algebraic, and the single free slot and the sign of its pinned
coefficient, (-1)^h e_h with h = HALF even, hold for degree 20 only.  With
k_alg = 0 or 4, h is odd; with an odd k_alg there is no single middle slot.

Every trace must pass the Weil bound |t_i| <= 22 p^i before a profile
exists.  Every completed candidate must pass an exact all-roots-on-|z| = p
test: u = S + 1/S reduces it to G(u) having every root real in [-2, 2].  Two
integer refusals come first, each a necessary condition: no sign change in
G(u + 2) and alternation in G(u - 2) (Budan-Fourier), and Newton's
inequalities for G, G(u + 2), G(u - 2) (Hardy, Littlewood and Polya,
Inequalities, 2.22).  One Sturm chain of G, roots at ±2 divided out, decides
the rest.  The whole layer runs in Z[T]: R(S) = Q(pS)/p^d is scaled by p^d,
every cyclotomic is monic, and the Sturm chain is a primitive
pseudo-remainder sequence, so no step needs a rational or a float.  The
rank bound adds to K_ALG the maximum number of roots of the form
p * (root of unity) over surviving candidates, counted by trial division of
Q(pT) by cyclotomic polynomials.  For the underdetermined plus-sign family,
a cyclotomic divisor pins the middle coefficient by a linear condition, so
the family contributes the maximum over its finitely many solvable
completions (zero when none exists); the bound therefore covers the true
polynomial whichever sign holds.

Most of those divisions would fail, so each Phi_k is first tried mod a
prime.  Its witness is the least prime ell > 2^16 with ell = 1 (mod k): there
Phi_k splits into distinct linear factors, and an element w of order exactly
k mod ell is a root of it.  If Phi_k divides W in Z[T], say W = Phi_k A, then
W(w) = Phi_k(w) A(w) = 0 (mod ell); so a nonzero residue W(w) mod ell proves
that Phi_k does not divide W, and `unit_root_count` divides only while the
residue is 0, testing again after each division that succeeds.  In a family,
Phi_k | W0 + e p^mid T^mid with e an integer gives W0(w) + e p^mid w^mid = 0
(mod ell) at each root w of Phi_k mod ell; eliminating e between two roots
w1, w2 gives W0(w1) w2^mid = W0(w2) w1^mid (mod ell), so when the two sides
differ no integer e makes Phi_k a divisor.  Neither argument needs p to be a
unit mod ell.  Every other case is a "maybe" and goes to the exact division
in Z[T], the only step that builds Phi_k itself: a residue of 0, which a
non-divisor can also give, and two roots that agree.  Those include every
Phi_k of degree 1 or 2 in a family (w2 is w1 or 1/w1, and the W0 of a
plus-sign family is palindromic, so the two sides agree) and, for a Weil
polynomial, every Phi_k whose witness ell divides p (each residue is then
Q(0) = 0 mod ell).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from ..errors import BundleCertError

H2_DIM = 22
K_ALG = 2  # the U(2) of the two pulled-back rulings
DEGREE = H2_DIM - K_ALG  # of the Weil factor Q
HALF = DEGREE // 2  # the free slot of the plus-sign family, and the pinning count
WEIL_TRACE_FACTOR = 22  # |t_i| <= 22 p^i
WITNESS_FLOOR = 2**16  # every witness prime of a cyclotomic lies above it


# --- polynomial helpers (dense lists, ascending coefficients) -------------------

def poly_divmod_exact(a, b):
    """Division in Z[T] by b with integer quotient; (None, None) if it fails."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * max(1, len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db]
        if c:
            c, frac = divmod(c, lead)
            if frac:
                return None, None
            quot[shift] = c
            a[shift : shift + db + 1] = [x - c * y for x, y in zip(a[shift : shift + db + 1], b)]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return quot, a


def primitive_remainder(a, b):
    """Remainder of |lc(b)|^(deg a - deg b + 1) * a by b, over its positive content.

    The scale is a positive integer that makes the division exact, and the
    content is taken positive, so the result is a positive multiple of the
    rational remainder of a by b: signs, and hence Sturm counts, are kept.
    """
    scale = abs(b[-1]) ** (len(a) - len(b) + 1)
    rem = poly_divmod_exact([c * scale for c in a], b)[1]
    content = gcd(*rem)
    return [c // content for c in rem] if content > 1 else rem


def _value(poly, x: int) -> int:
    total = 0
    for c in reversed(poly):
        total = total * x + c
    return total


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> tuple:
    """Phi_k as an ascending integer coefficient tuple."""
    num = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            num, rem = poly_divmod_exact(num, list(cyclotomic(d)))
            assert not any(rem)
    return tuple(num)


def prime_divisors(m: int) -> list:
    """The distinct primes dividing m, by trial division.  `field` imports it
    from here, so that this module, which needs no numpy, imports none."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def euler_phi(k: int) -> int:
    """Euler's totient: k times the product of 1 - 1/l over the primes l | k."""
    for ell in prime_divisors(k):
        k -= k // ell
    return k


@lru_cache(maxsize=None)
def cyclotomics_up_to(d: int) -> tuple:
    """Every order k with phi(k) <= d, in increasing k.

    phi(k) >= sqrt(k) for every k > 6 (only k = 2 and 6 break it), so no k
    above max(6, d^2) qualifies.
    """
    return tuple(k for k in range(1, max(6, d * d) + 1) if euler_phi(k) <= d)


@lru_cache(maxsize=None)
def cyclotomic_witness(k: int) -> tuple:
    """(ell, w1, w2): the least prime ell > WITNESS_FLOOR with ell = 1 (mod k),
    an element w1 of order exactly k mod ell, and w2 = w1^j for the least
    j >= 2 prime to k.  Both are roots of Phi_k mod ell; w2 differs from w1
    when phi(k) > 1 and from 1/w1 when phi(k) > 2."""
    ell = k * -(-WITNESS_FLOOR // k) + 1
    while prime_divisors(ell) != [ell]:
        ell += k
    powers = (pow(x, (ell - 1) // k, ell) for x in range(2, ell))
    w1 = next(w for w in powers if all(pow(w, k // q, ell) != 1 for q in prime_divisors(k)))
    j = next(j for j in range(2, k + 2) if gcd(j, k) == 1)  # k + 1 always qualifies
    return ell, w1, pow(w1, j, ell)


# --- symmetric-function plumbing -------------------------------------------------

def newton_elementary_from_power_sums(power_sums) -> list:
    """e_1..e_m from p_1..p_m; raises on a non-integral value."""
    e = [1]
    for k in range(1, len(power_sums) + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        if acc % k:
            g = gcd(acc, k)
            raise BundleCertError(
                f"Newton identities give non-integral coefficient {acc // g}/{k // g}"
            )
        e.append(acc // k)
    return e[1:]


# --- candidates ------------------------------------------------------------------

def complete_with_functional_equation(e_known, p: int, sign: int):
    """Coefficients of Q from e_1..e_{HALF-1} and e_{DEGREE-j} = sign * p^{DEGREE-2j} e_j.

    e_HALF is set to 0: sign -1 forces it (e_HALF = -e_HALF), and for sign +1
    it is the family's free slot.  Returns (coeffs ascending, kind).
    """
    e = [1, *e_known] + [0] * (HALF + 1)
    for j in range(HALF):
        e[DEGREE - j] = sign * p ** (DEGREE - 2 * j) * e[j]
    # ascending coefficients: coeff of T^{DEGREE-j} is (-1)^j e_j
    coeffs = tuple((-1) ** j * e[j] for j in range(DEGREE, -1, -1))
    return coeffs, "family" if sign == 1 else "complete"


# --- exact all-roots-on-the-circle test ------------------------------------------

def _refused(G) -> bool:
    """Whether G fails one of the necessary conditions of `all_roots_on_circle`."""
    n, lead = len(G) - 1, G[-1]
    plus, minus = list(G), list(G)  # Taylor shifts to G(u + 2), G(u - 2)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            plus[j] += 2 * plus[j + 1]
            minus[j] -= 2 * minus[j + 1]
    return (any(c * lead < 0 for c in plus)
            or any(c * lead * (-1) ** (n - k) < 0 for k, c in enumerate(minus))
            or any(a[k] * a[k] * k * (n - k) < a[k - 1] * a[k + 1] * (k + 1) * (n - k + 1)
                   for a in (G, plus, minus) for k in range(1, n)))


def _sturm_chain(poly) -> list:
    """poly, poly', then minus each primitive remainder until one vanishes."""
    chain = [poly, [i * c for i, c in enumerate(poly)][1:]]
    while len(chain[-1]) > 1:
        r = primitive_remainder(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def all_roots_on_circle(coeffs, p: int, sign: int) -> bool:
    """Exact test that every root of the monic integer polynomial has |z| = p.

    Uses the built-in functional equation: R(S) = Q(pS)/p^d is self-inversive
    with the given sign; for sign -1 the forced roots S = ±1 are divided out.
    The remainder satisfies S^e R(1/S) = R(S), hence S^{-e/2} R(S) = G(u) with
    u = S + 1/S; all roots of R lie on |S| = 1 iff all roots of G are real in
    [-2, 2].  Two necessary conditions refuse first: G(u + 2) has no sign
    change and G(u - 2) alternates weakly (Budan-Fourier: with every root real,
    the sign changes of G(u + a) count the roots above a), and G, G(u + 2) and
    G(u - 2), real-rooted, satisfy Newton's inequalities (Hardy, Littlewood and
    Polya, Inequalities, 2.22).  Then, with the roots at ±2 divided out, one
    Sturm chain G, G', -prem, ... ends in gcd(G, G'); Sturm's theorem holds for
    a non-squarefree G too, so every root is in (-2, 2) iff V(-2) - V(2) =
    deg G - deg gcd.  Everything is scaled by p^d, which moves no root.
    """
    r = [c * p ** j for j, c in enumerate(coeffs)]  # p^d R(S), ascending
    # the divisors are monic, so the quotients are integral
    if sign == -1:
        # divide by (S-1)(S+1) = S^2 - 1
        r, remdr = poly_divmod_exact(r, [-1, 0, 1])
        if any(remdr):
            return False
    if (len(r) - 1) % 2:
        # self-inversive of odd degree with sign +1 has S = -1 as a root
        r, remdr = poly_divmod_exact(r, [1, 1])
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
    G = [0] * (h + 1)
    G[0] = r[h]
    b_prev, b_cur = [2], [0, 1]
    for m in range(1, h + 1):
        for i, c in enumerate(b_cur):
            G[i] += r[h + m] * c
        b_next = [0] + b_cur
        for i, c in enumerate(b_prev):
            b_next[i] -= c
        b_prev, b_cur = b_cur, b_next
    while len(G) > 1 and G[-1] == 0:
        G.pop()
    if len(G) == 1:
        return not any(G) or h == 0
    if _refused(G):
        return False
    for root in (2, -2):
        while _value(G, root) == 0:
            G = poly_divmod_exact(G, [-root, 1])[0]
    if len(G) == 1:
        return True
    chain = _sturm_chain(G)
    signs = [[v > 0 for v in (_value(q, x) for q in chain) if v] for x in (-2, 2)]
    V = [sum(a != b for a, b in zip(s, s[1:])) for s in signs]
    return V[0] - V[1] == len(G) - len(chain[-1])


# --- cyclotomic root counting ------------------------------------------------------

def unit_root_count(coeffs, p: int) -> int:
    """Total multiplicity of roots of the form p * (root of unity).

    Q(pT) is divided by Phi_k only while it vanishes at the witness root of
    Phi_k mod ell; a nonzero residue proves that Phi_k does not divide it.
    """
    w = [c * p ** j for j, c in enumerate(coeffs)]  # Q(pT), ascending
    total = 0
    for k in cyclotomics_up_to(len(coeffs) - 1):
        ell, root, _ = cyclotomic_witness(k)
        cur = w
        while _value(cur, root) % ell == 0:
            cyc = cyclotomic(k)
            cur, rem = poly_divmod_exact(cur, cyc)
            if cur is None or any(rem):
                break
            total += len(cyc) - 1
    return total


# --- profile assembly ----------------------------------------------------------------

@dataclass
class ZetaProfile:
    """Traces, reduced power sums and e_1.. of counts that passed the Weil audit."""

    p: int
    counts: list
    traces: list
    reduced_power_sums: list
    elementary: list
    candidates: list = field(default_factory=list)

    def surviving(self) -> list:
        return [c for c in self.candidates if c["status"] == "surviving"]

    def to_document(self) -> dict:
        return {
            "schema": "picard-bound-profile/1",
            "p": self.p,
            "k_alg": K_ALG,
            "counts": list(self.counts),
            "traces": list(self.traces),
            "reduced_power_sums": list(self.reduced_power_sums),
            "elementary_symmetric": list(self.elementary),
            "weil_audit_ok": True,
            "candidates": list(self.candidates),
        }


def weil_trace(count: int, p: int, n: int) -> int:
    """The trace t_n = N - 1 - p^{2n} of the count N over F_{p^n}, audited
    against the Weil bound."""
    t = count - 1 - p ** (2 * n)
    if abs(t) > WEIL_TRACE_FACTOR * p ** n:
        raise BundleCertError(
            f"trace t_{n} = {t} violates the Weil bound {WEIL_TRACE_FACTOR}*{p}^{n}"
        )
    return t


def profile_from_counts(counts, p: int) -> ZetaProfile:
    """Traces, each audited against the Weil bound, reduced power sums and
    e_1..e_m by Newton's identities, from the counts over F_{p^n}, n = 1..m."""
    traces = [weil_trace(N, p, i) for i, N in enumerate(counts, start=1)]
    power_sums = [t - K_ALG * p ** i for i, t in enumerate(traces, start=1)]
    return ZetaProfile(p, counts, traces, power_sums, newton_elementary_from_power_sums(power_sums))


def assemble_charpoly(counts, p: int, k_alg: int = K_ALG) -> ZetaProfile:
    """Build candidate characteristic-polynomial factors from HALF - 1 = 9 point counts."""
    if k_alg != K_ALG:
        raise ValueError(f"k_alg must be {K_ALG}, the rank of the U(2) of the rulings")
    counts = list(counts)
    if len(counts) != HALF - 1:
        raise BundleCertError(f"expected {HALF - 1} counts, got {len(counts)}")
    profile = profile_from_counts(counts, p)
    for sign in (1, -1):
        coeffs, kind = complete_with_functional_equation(profile.elementary, p, sign)
        profile.candidates.append(_candidate(sign, kind, coeffs, p))
    return profile


def resolve_family_with_count(profile: ZetaProfile, extra_count: int) -> ZetaProfile:
    """Pin the plus-sign family's middle coefficient with the count over F_{p^HALF}.

    The tenth count goes through the same audit and Newton's identities as
    the first nine; its e_HALF fills the free slot, turning the family into a
    complete candidate (re-vetted by the circle test).
    """
    out = profile_from_counts(profile.counts + [extra_count], profile.p)
    middle = (-1) ** HALF * out.elementary[HALF - 1]
    for cand in profile.candidates:
        if cand["kind"] != "family":
            out.candidates.append(cand)
            continue
        coeffs = list(cand["coeffs_ascending"])
        coeffs[HALF] = middle
        out.candidates.append(_candidate(cand["sign"], "complete", coeffs, profile.p, pinned=True))
    return out


def _candidate(sign: int, kind: str, coeffs, p: int, pinned: bool = False) -> dict:
    """The document entry of a candidate.  A complete one is put to the circle
    test, with the pinned middle named in its reason when `pinned`; a family
    is vetted per completion inside the rank bound."""
    if kind == "family":
        status, reason = "surviving", "family: vetted per completion"
    elif all_roots_on_circle(coeffs, p, sign):
        status = "surviving"
        reason = "circle test passed (pinned middle)" if pinned else "circle test passed"
    else:
        status = "discarded"
        reason = (
            "pinned middle fails the circle test" if pinned else "roots leave the circle |z| = p"
        )
    return {
        "sign": sign, "kind": kind, "status": status, "reason": reason,
        "coeffs_ascending": list(coeffs),
    }


def family_completions(coeffs, p: int) -> list:
    """Integer middle coefficients that admit some cyclotomic divisor, each
    as (e, the coefficients with e in the free slot).

    Any completion whose polynomial has a root p*zeta must have the scaled
    cyclotomic as a divisor of Q(pT) = W0 + e * p^mid T^mid, a linear
    condition on e per cyclotomic; collect the finitely many integer
    solutions.  The free slot is T^(degree/2).  A cyclotomic whose two
    witness roots w1, w2 mod ell give W0(w1) w2^mid != W0(w2) w1^mid admits
    no e and is skipped without a division.  Phi_k(0) = ±1, so Phi_k never
    divides p^mid T^mid and its remainder r1 is never zero.
    """
    degree = len(coeffs) - 1
    mid = degree // 2
    w0 = [c * p ** j for j, c in enumerate(coeffs)]
    t_mid = [0] * mid + [p ** mid]
    out = set()
    for k in cyclotomics_up_to(degree):
        ell, w1, w2 = cyclotomic_witness(k)
        if (_value(w0, w1) * pow(w2, mid, ell) - _value(w0, w2) * pow(w1, mid, ell)) % ell:
            continue
        cyc = cyclotomic(k)
        width = len(cyc) - 1
        r0 = _pad(poly_divmod_exact(w0, cyc)[1], width)
        r1 = _pad(poly_divmod_exact(t_mid, cyc)[1], width)
        # r0 + e*r1 = 0 is solved over Q by e = num/den when every equation
        # agrees with it; keep e when den divides num
        idx = next(i for i, c in enumerate(r1) if c)
        num, den = -r0[idx], r1[idx]
        if all(a * den + num * b == 0 for a, b in zip(r0, r1)) and num % den == 0:
            out.add(num // den)
    completions = []
    for e in sorted(out):
        completed = list(coeffs)
        completed[mid] = e
        completions.append((e, tuple(completed)))
    return completions


def _pad(a, width):
    return list(a) + [0] * (width - len(a))


@dataclass
class RankBoundResult:
    bound: int
    per_candidate: list  # (sign, kind, contribution, detail)

    def to_document(self) -> dict:
        return {
            "rank_upper_bound": self.bound,
            "per_candidate": [
                {"sign": s, "kind": k, "contribution": c, "detail": d}
                for s, k, c, d in self.per_candidate
            ],
        }


def rank_upper_bound(profile: ZetaProfile) -> RankBoundResult:
    """K_ALG + max over surviving candidates of the unit-root multiplicity."""
    survivors = profile.surviving()
    if not survivors:
        raise BundleCertError("no surviving characteristic-polynomial candidate")
    per = []
    best = 0
    for cand in survivors:
        sign, kind, coeffs = cand["sign"], cand["kind"], cand["coeffs_ascending"]
        if kind == "complete":
            contrib = unit_root_count(coeffs, profile.p)
            per.append((sign, kind, contrib, "complete candidate"))
        else:
            contrib = 0
            details = []
            for e, completed in family_completions(coeffs, profile.p):
                if not all_roots_on_circle(completed, profile.p, sign):
                    details.append(f"middle={e}: fails circle test")
                    continue
                c = unit_root_count(completed, profile.p)
                details.append(f"middle={e}: unit-root count {c}")
                contrib = max(contrib, c)
            per.append(
                (
                    sign,
                    kind,
                    contrib,
                    "; ".join(details) if details else "no completion admits a unit root",
                )
            )
        best = max(best, contrib)
    return RankBoundResult(bound=K_ALG + best, per_candidate=per)
