"""The intersection lattice of the quartic surface and its stability run.

The lattice <H, C> of the quartic is the Gram matrix QUARTIC_GRAM =
[[4, 5], [5, 2]], a class written as its pair of integer coordinates.  The
classes an irreducible curve can occupy, square >= -2 and H-degree >= 1, are
found degree by degree in closed form (`curve_class_candidates`); the
quartic run derives one stratum per degree from them, and each sample point
of its slope region reads its rule off the stratum of its degree.
`pullback_chern` doubles c2 under a double cover.

Sections on X go through `cohom.h0_monad`, as on P2 and P1 x P1: a kernel
over the coordinate ring R = S/(f) lifts to a section of the kernel monad
[E | -f·I] on P3, and the lifts of zero, (f·u, E·u), are counted in closed
form (see `quartic_h0`).  The quartic run derives the base point of its
section map, the common zero of three linear forms, from the signed 3 x 3
minors of their coefficients, and returns its certificate as the JSON
document that `verify` compares with a re-run.
"""
from __future__ import annotations

from math import gcd, isqrt

from .cohom import h0_monad, h_line_sum
from .errors import BundleCertError
from .monad import Document, kernel_monad
from .polycore import (
    Ambient,
    RationalPolynomial,
    monomial_basis,
    parse_poly,
)

# --- lattices -----------------------------------------------------------------

QUARTIC_GRAM = ((4, 5), (5, 2))
QUARTIC_NAMES = ("H", "C")


def pair(gram, u, v) -> int:
    """The intersection number u.v of two classes under the Gram matrix."""
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(gram)) for j in range(len(gram)))


# --- double covers ---------------------------------------------------------------


def pullback_chern(c: dict) -> dict:
    """Chern data of the pullback along a double cover: c1 formal, c2 doubles."""
    return {**c, "c2": 2 * c["c2"]}


# --- curve classes ----------------------------------------------------------------


def curve_class_candidates(gram, H, max_degree: int) -> list:
    """All classes K with 1 <= K.H <= max_degree and K^2 >= -2, as triples
    (coordinates, K.H, K^2) sorted by degree, then coordinates.

    The rank-2 Gram matrix has det < 0 and H^2 > 0 (the quartic run passes
    QUARTIC_GRAM and H = (1, 0)); these are the only classes an irreducible
    curve can occupy (adjunction forces C^2 >= -2, ampleness C.H >= 1).  For
    K = (a, b), H = (h1, h2) and u = a·h2 - b·h1 the Gram identity reads
    H^2·K^2 = (K.H)^2 + det·u^2, so at degree δ = K.H the bound K^2 >= -2 is
    u^2 <= (δ^2 + 2H^2) / -det.  Given δ and u, K is the integer solution, if
    any, of a·w0 + b·w1 = δ and a·h2 - b·h1 = u, where w is the H-degree of
    the two basis classes; that system has determinant -H^2.
    """
    det = gram[0][0] * gram[1][1] - gram[0][1] ** 2
    hh = pair(gram, H, H)
    w = (pair(gram, (1, 0), H), pair(gram, (0, 1), H))
    out = []
    for delta in range(1, max_degree + 1):
        top = isqrt((delta * delta + 2 * hh) // -det)
        for u in range(-top, top + 1):
            a, ra = divmod(H[0] * delta + w[1] * u, hh)
            b, rb = divmod(H[1] * delta - w[0] * u, hh)
            if not (ra or rb):
                out.append(((a, b), delta, (delta * delta + det * u * u) // hh))
    out.sort(key=lambda c: (c[1], c[0]))
    return out


# --- sections on the quartic ---------------------------------------------------

QUARTIC_AMBIENT = Ambient.projective(3, names=("x", "y", "z", "w"))


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
    t_i - s_j raises BundleCertError naming map_b[i][j].  f is a nonzero
    quartic form: `quartic_region_run`, which reads it, checks that.
    """
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
    minors v_j = (-1)^j det(the rows without column j), cofactor sums, are
    orthogonal to each row (Laplace expansion of a matrix with a repeated
    row), and v = 0 exactly when the rank is below 3.  At rank 3 the kernel
    is a line, and v spans it.
    """
    rows = []
    for j, form in enumerate(forms):
        if not form.is_homogeneous_of(1):
            raise BundleCertError(
                f"entry (0,{j}) inhomogeneous: the section map needs linear forms"
            )
        rows.append([form.terms.get(e, 0) for e in monomial_basis(QUARTIC_AMBIENT, 1)])
    minors = ([r[:j] + r[j + 1:] for r in rows] for j in range(4))
    v = [(-1) ** j * sum(a[k] * (b[k - 2] * c[k - 1] - b[k - 1] * c[k - 2]) for k in range(3))
         for j, (a, b, c) in enumerate(minors)]
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
    one common zero lies off X.  On its slope region {4k + 5l <= 6} the twist
    (k, l) needs (k-1)H + lC, of H-degree d = 4k + 5l - 4 <= 2, non-effective.
    (1,0) is checked directly by h^0; every other point of the sample grid
    takes the rule of the stratum of its degree.  No nonzero class of degree
    <= 0 is effective, and an effective divisor of degree d >= 1 is a sum of
    irreducible curves of degree in [1, d] and square >= -2, so a degree with
    no such class (`curve_class_candidates`) has no effective divisor; a
    stratum with candidates is "unknown", and the verdict Inconclusive.  This
    is where f is checked to be a nonzero quartic form.  Returns the
    certificate: the document `verify` compares with its re-run.
    """
    f = parse_poly(f_text, QUARTIC_AMBIENT)
    if f.is_zero() or not f.is_homogeneous_of(4):
        raise BundleCertError("f must be a nonzero homogeneous quartic")
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
    H = (1, 0)
    top = 2  # the largest degree 4k + 5l - 4 on the region

    h0_10 = quartic_h0(f, [forms], [-1, -1, -1], [0], 1)
    ok = h0_10 == 0

    # strata[d] holds the rule for degree d, strata[0] for every d <= 0
    strata = [
        {
            "degrees": "<= 0",
            "rule": "nonpositive-degree",
            "statement": "every nonzero class of nonpositive H-degree is non-effective",
        }
    ]
    for d in range(1, top + 1):
        raw = curve_class_candidates(QUARTIC_GRAM, H, d)
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
            d = 4 * k + 5 * l - 4
            if d <= top:
                rule = "section-kernel" if (k, l) == (1, 0) else strata[max(d, 0)]["rule"]
                samples.append({"twist": [k, l], "rule": rule})

    return Document(
        schema="quartic-certificate/1",
        surface=f_text,
        basepoint_value=str(val),
        core_checks=[{"twist": [1, 0], "h0": h0_10}],
        strata=strata,
        sample_points=samples,
        verdict="Stable" if ok else "Inconclusive",
        lattice={"names": list(QUARTIC_NAMES), "gram": [list(r) for r in QUARTIC_GRAM]},
    )
