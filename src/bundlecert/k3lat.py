"""The intersection lattice of the quartic surface and its stability run.

The lattice <H, C> of the quartic, with Gram [[4, 5], [5, 2]] and a class
written as its pair of integer coordinates, carries the effectivity
obstruction certificates of the run; `pullback_chern` doubles c2 under a
double cover; and sections on a quartic X = Z(f) in P3 are exact kernels.

Sections on X go through `cohom.h0_monad`, as on P2 and P1 x P1: a kernel
over the coordinate ring R = S/(f) lifts to a section of the kernel monad
[E | -f·I] on P3, and the lifts of zero, (f·u, E·u), are counted in closed
form (see `quartic_h0`).  The quartic run derives the base point of its
section map, the common zero of three linear forms, from the signed 3 x 3
minors of their coefficients, and returns its certificate as the JSON
document that `verify` compares with a re-run.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cohom import h0_monad, h_line_sum
from .errors import BundleCertError
from .monad import Document, kernel_monad
from .polycore import (
    Ambient,
    RationalPolynomial,
    bareiss_det,
    monomial_basis,
    parse_poly,
)

# --- lattices -----------------------------------------------------------------


@dataclass(frozen=True)
class GramLattice:
    names: tuple
    gram: tuple  # tuple of tuples, symmetric integer matrix

    def pair(self, u, v) -> int:
        """The intersection number u.v of two classes."""
        g = self.gram
        return sum(u[i] * g[i][j] * v[j] for i in range(len(g)) for j in range(len(g)))


def bracket(a: int, b: int, c: int, names=("A", "B")) -> GramLattice:
    """Rank-2 lattice with Gram [[a,b],[b,c]]."""
    return GramLattice(tuple(names), ((a, b), (b, c)))


QUARTIC_452 = bracket(4, 5, 2, names=("H", "C"))


# --- double covers ---------------------------------------------------------------


def pullback_chern(c: dict) -> dict:
    """Chern data of the pullback along a double cover: c1 formal, c2 doubles."""
    return {**c, "c2": 2 * c["c2"]}


# --- effectivity obstructions ---------------------------------------------------


def curve_class_candidates(lattice: GramLattice, H, max_degree: int) -> list:
    """All classes K with 1 <= K.H <= max_degree and K^2 >= -2, as triples
    (coordinates, K.H, K^2) sorted by degree, then coordinates.

    The lattice has rank 2 and signature (1,1), and H^2 > 0 (the quartic run
    passes QUARTIC_452 and H = (1, 0)).  By the Hodge index theorem a nonzero
    class orthogonal to H then has negative square, so the classes of fixed
    degree form a line on which the square is a concave quadratic, and the
    enumeration per degree is finite; these are the only classes an
    irreducible curve can occupy (adjunction forces C^2 >= -2, ampleness
    forces C.H >= 1).
    """
    w = (lattice.pair((1, 0), H), lattice.pair((0, 1), H))  # degree(a, b) = a*w0 + b*w1
    gw = gcd(w[0], w[1])
    out = []
    for delta in range(1, max_degree + 1):
        if delta % gw:
            continue
        base = _solve_linear(w, delta)
        direction = (-w[1] // gw, w[0] // gw)
        dd = lattice.pair(direction, direction)  # < 0 by Hodge index
        bd = lattice.pair(base, direction)
        bb = lattice.pair(base, base)
        # q(t) = bb + 2t*bd + t^2*dd is concave; integer solutions of q >= -2
        # form a contiguous range around the vertex -bd/dd
        q = lambda t: bb + 2 * t * bd + t * t * dd
        t0 = (-bd) // dd  # floor of the vertex
        t = t0
        while q(t) >= -2:
            out.append(((base[0] + t * direction[0], base[1] + t * direction[1]), delta, q(t)))
            t -= 1
        t = t0 + 1
        while q(t) >= -2:
            out.append(((base[0] + t * direction[0], base[1] + t * direction[1]), delta, q(t)))
            t += 1
    out.sort(key=lambda c: (c[1], c[0]))
    return out


def _solve_linear(w, delta):
    """Some integer (a, b) with a*w0 + b*w1 = delta (delta divisible by gcd)."""
    a, b = _ext_gcd(w[0], w[1])
    g = w[0] * a + w[1] * b
    f = delta // g
    return (a * f, b * f)


def _ext_gcd(a, b):
    if b == 0:
        return (1 if a >= 0 else -1, 0)
    x, y = _ext_gcd(b, a % b)
    return (y, x - (a // b) * y)


def not_effective_cert(lattice: GramLattice, D, H) -> dict | None:
    """A soundness certificate that D is not the class of an effective divisor,
    as {"rule", "degree", "candidates"}: the rule that applies, D.H, and the
    coordinates of the candidate curve classes the last rule rules out.

    Rules (each sound, none asserts effectivity):
      zero-class:         D = 0 is not a curve class;
      nonpositive-degree: effective nonzero classes have positive H-degree;
      no-decomposition:   no multiset of possible irreducible-curve classes
                          (square >= -2, degree in [1, D.H]) sums to D.
    Returns None (Unknown) when no rule applies.  The lattice and H are as
    `curve_class_candidates` needs them: signature (1,1) and H^2 > 0.
    """
    deg = lattice.pair(D, H)
    if not any(D):
        return {"rule": "zero-class", "degree": 0, "candidates": []}
    if deg <= 0:
        return {"rule": "nonpositive-degree", "degree": deg, "candidates": []}
    raw = curve_class_candidates(lattice, H, deg)
    if _decomposes(D, deg, raw):
        return None
    return {"rule": "no-decomposition", "degree": deg, "candidates": [list(c) for c, _, _ in raw]}


def _decomposes(target, budget, candidates) -> bool:
    """Whether some multiset of candidate (coords, degree, sq) of total degree
    budget sums to target.  reach[d] holds every such sum of total degree d,
    so each class is visited once per degree."""
    reach = [{(0, 0)}] + [set() for _ in range(budget)]
    for d in range(1, budget + 1):
        for (a, b), k, _ in candidates:
            if k <= d:
                reach[d].update((x + a, y + b) for x, y in reach[d - k])
    return tuple(target) in reach[budget]


# --- sections on the quartic ---------------------------------------------------

QUARTIC_AMBIENT = Ambient.projective(3, names=("x", "y", "z", "w"))


def _check_quartic(f: RationalPolynomial):
    """f, a polynomial on QUARTIC_AMBIENT, is a nonzero quartic form."""
    if f.is_zero() or not f.is_homogeneous_of(4):
        raise BundleCertError("f must be a nonzero homogeneous quartic")


def quartic_h0(f: RationalPolynomial, entries, source_twists, target_twists, k: int) -> int:
    """h^0(X, ker(E: ⊕_j O(s_j) -> ⊕_i O(t_i)) ⊗ O(k)) on the quartic X = Z(f).

    X is projectively normal, so H^0(O_X(d)) = R_d = S_d / f·S_{d-4} with S
    the coordinate ring of P3.  A kernel element over R lifts to a pair
    (G, h) in ⊕_j S_{k+s_j} ⊕ ⊕_i S_{k+t_i-4} with Σ_j e_ij G_j = h_i·f: a
    section of the kernel monad [E | -f·I] on P3 (middle twists s_j and
    t_i - 4, target twists t_i) twisted by k.  Since S is a domain, the pairs
    that lift 0 are exactly (f·u, E·u) for u in ⊕_j S_{k+s_j-4}, so

        h^0 = h^0(P3, ker [E | -f·I] ⊗ O(k)) - Σ_j h^0(O_P3(k + s_j - 4)),

    by `h0_monad` at s = 1, with no normal forms modulo f.  Entries are text
    or polynomials on P3; an entry e_ij that is not homogeneous of degree
    t_i - s_j raises BundleCertError naming map_b[i][j].
    """
    _check_quartic(f)
    zero = RationalPolynomial.zero(QUARTIC_AMBIENT)
    rows = [[*row, *(-f if r == i else zero for r in range(len(target_twists)))]
            for i, row in enumerate(entries)]
    middle = [*source_twists, *(t - 4 for t in target_twists)]
    m = kernel_monad(QUARTIC_AMBIENT, middle, target_twists, rows)
    return h0_monad(m, 1, (k,))["h0"][0] - h_line_sum(QUARTIC_AMBIENT, source_twists, k - 4, 0)


def _base_point(forms) -> tuple:
    """The one common zero on P3 of three linear forms, as a primitive integer
    vector with its last nonzero coordinate positive.

    With the coefficients as the rows of a 3 x 4 matrix, the signed maximal
    minors v_j = (-1)^j det(the rows without column j) are orthogonal to each
    row (Laplace expansion of a matrix with a repeated row), and v = 0
    exactly when the rank is below 3.  At rank 3 the kernel is a line, and v
    spans it.
    """
    rows = []
    for j, form in enumerate(forms):
        if not form.is_homogeneous_of(1):
            raise BundleCertError(
                f"entry (0,{j}) inhomogeneous: the section map needs linear forms"
            )
        rows.append([form.terms.get(e, 0) for e in monomial_basis(QUARTIC_AMBIENT, 1)])
    v = [(-1) ** j * bareiss_det([r[:j] + r[j + 1:] for r in rows]) for j in range(4)]
    if not any(v):
        raise BundleCertError(
            "the linear forms of the section map have rank below 3: they vanish on a "
            "line or plane, which meets X"
        )
    g = gcd(*v)
    if next(x for x in reversed(v) if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def quartic_region_run(f_text: str, map_entries=("x", "y", "w")) -> Document:
    """Stability verification for the rank-2 kernel bundle on the quartic.

    The bundle is ker(map: O(-1)^3 -> O) restricted to X = Z(f), where the map
    is three linear forms, (x, y, w) by default; it is locally free when their
    one common zero lies off X.  Its slope region {4k + 5l <= 6} is covered by
    one direct section-kernel check at (1,0) and by effectivity obstructions
    for every other integer point, stratified by the H-degree of the would-be
    effective class (k-1)H + lC, which is 4k + 5l - 4 <= 2 throughout the
    region.  Returns the certificate: the document `verify` compares with its
    re-run.
    """
    f = parse_poly(f_text, QUARTIC_AMBIENT)
    _check_quartic(f)
    forms = [parse_poly(e, QUARTIC_AMBIENT) for e in map_entries]
    # local freeness: the map must not vanish anywhere on X
    point = _base_point(forms)
    val = f.evaluate(point)
    if val == 0:
        where = ":".join(map(str, point))
        raise BundleCertError(
            f"f vanishes at [{where}]: the base point of the section map lies on X, "
            "and the map drops rank there"
        )
    lattice = QUARTIC_452
    H = (1, 0)

    h0_10 = quartic_h0(f, [forms], [-1, -1, -1], [0], 1)
    ok = h0_10 == 0

    # strata by degree d = deg((k-1)H + lC) = 4k + 5l - 4 <= 2
    strata = [
        {
            "degrees": "<= 0",
            "rule": "nonpositive-degree",
            "statement": "every nonzero class of nonpositive H-degree is non-effective",
        }
    ]
    for d in (1, 2):
        raw = curve_class_candidates(lattice, H, d)
        if raw:
            ok = False
            strata.append({"degrees": str(d), "rule": "unknown", "candidates": raw})
        else:
            strata.append(
                {
                    "degrees": str(d),
                    "rule": "no-decomposition",
                    "statement": (
                        f"no class of square >= -2 has H-degree in [1, {d}], so no "
                        f"effective divisor of H-degree {d} exists"
                    ),
                    "candidates": [],
                }
            )

    samples = []
    for k in range(-3, 3):
        for l in range(-3, 4):
            if 4 * k + 5 * l > 6:
                continue
            if (k, l) == (1, 0):
                rule = "section-kernel"
            else:
                cert = not_effective_cert(lattice, (k - 1, l), H)
                ok = ok and cert is not None
                rule = "unknown" if cert is None else cert["rule"]
            samples.append({"twist": [k, l], "rule": rule})

    return Document(
        schema="quartic-certificate/1",
        surface=f_text,
        basepoint_value=str(val),
        core_checks=[{"twist": [1, 0], "h0": h0_10}],
        strata=strata,
        sample_points=samples,
        verdict="Stable" if ok else "Inconclusive",
        lattice={"names": list(lattice.names), "gram": [list(r) for r in lattice.gram]},
    )
