import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlecert.errors import BundleCertError
from bundlecert.monad import (
    HOMOLOGY,
    MonadComplex,
    chern_free,
    chern_monad,
    forms_cover_degree,
    homology_monad,
    kernel_monad,
    leading_monomials_cover,
    monad_from_document,
    monad_to_document,
    restrict_to_fiber,
    validate,
)
from bundlecert.polycore import Ambient, RationalPolynomial, monomial_basis, parse_poly
from bundlecert.stability import CertifyOptions
from oracles import (
    chern_dual,
    chern_free_p1p1,
    chern_free_p2,
    ideal_fills_degree,
    monomial,
    poly_divmod,
)

P2 = Ambient.projective(2, names=("x", "y", "z"))
PP = Ambient.product_projective(1, 1)


def euler():
    return kernel_monad(P2, [-1, -1, -1], [0], [["x", "y", "z"]], name="cotangent")


def k_rank3():
    return kernel_monad(PP, [(-1, -1)] * 4, [(0, 0)], [["x0*y0", "x0*y1", "x1*y0", "x1*y1"]])


def e_rank2():
    return homology_monad(
        PP,
        [(0, 0)],
        [(1, 0), (1, 0), (0, 1), (0, 1)],
        [(1, 1)],
        [["x0"], ["x1"], ["y0"], ["y1"]],
        [["y0", "y1", "-x0", "-x1"]],
    )


class TestValidate:
    def test_euler_cover(self):
        r = validate(euler())
        assert r["surjectivity_of_b"] == "ProvedByMonomialCover"
        assert r["injectivity_of_a"] == "Vacuous"

    def test_k_rank3_cover(self):
        r = validate(k_rank3())
        assert r["surjectivity_of_b"] == "ProvedByMonomialCover"

    def test_composite_nonzero_fails(self):
        # b∘a = x1*x0 != 0: refused when the monad is built
        with pytest.raises(BundleCertError, match="monad fails structural validation: b∘a != 0"):
            homology_monad(
                PP,
                [(-1, 0)],
                [(0, 0), (0, 0)],
                [(1, 0)],
                [["x0"], ["0"]],
                [["x1", "x0"]],
            )

    def test_common_zero_detected(self):
        # entries x0*y0, x0*y1 all vanish where x0 = 0
        m = kernel_monad(PP, [(-1, -1)] * 2, [(0, 0)], [["x0*y0", "x0*y1"]])
        r = validate(m)
        assert r["surjectivity_of_b"] == "Unknown"

    def test_constant_entry_is_surjective(self):
        m = kernel_monad(PP, [(0, 0), (-1, -1)], [(0, 0)], [["1", "x0*y0"]])
        assert validate(m)["surjectivity_of_b"] == "ProvedByMonomialCover"

    def test_sheared_euler_leading_monomials(self):
        # lex-leading monomials x, y, z: stage 1 proves the non-monomial row
        m = kernel_monad(P2, [-1, -1, -1], [0], [["x + y", "y + z", "z"]])
        assert leading_monomials_cover(m.map_b[0], P2)
        r = validate(m)
        assert r["surjectivity_of_b"] == "ProvedByMonomialCover"

    def test_sheared_e_rank2_leading_monomials(self):
        # a's column (x0 + x1, x1, y0, y1) leads with x0, x1, y0, y1
        m = homology_monad(
            PP,
            [(0, 0)],
            [(1, 0), (1, 0), (0, 1), (0, 1)],
            [(1, 1)],
            [["x0 + x1"], ["x1"], ["y0"], ["y1"]],
            [["y0", "y1", "-x0 - x1", "-x1"]],
        )
        assert leading_monomials_cover([row[0] for row in m.map_a], PP)
        r = validate(m)
        assert r["surjectivity_of_b"] == "ProvedByMonomialCover"
        assert r["injectivity_of_a"] == "ProvedByMonomialCover"

    def test_repeated_linear_form_shares_a_zero(self):
        # every entry vanishes at (1:-1:0)
        m = kernel_monad(P2, [-1, -1, -1], [0], [["x + y", "x + y", "z"]])
        assert not forms_cover_degree(m.map_b[0], P2)
        assert validate(m)["surjectivity_of_b"] == "Unknown"

    def test_cyclic_differences_share_a_zero(self):
        # x - y, y - z, z - x vanish at (1:1:1); one term per entry, x, y, z,
        # would share no zero, but the leading ones (x, y, x) do
        forms = [parse_poly(t, P2) for t in ("x - y", "y - z", "z - x")]
        assert not leading_monomials_cover(forms, P2)
        assert not forms_cover_degree(forms, P2)

    def test_quadrics_without_common_zero_reach_stage_two(self):
        # leading monomials x^2, xz, xy all vanish on x = 0; the forms do not
        m = kernel_monad(P2, [-2, -2, -2], [0], [["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"]])
        assert not leading_monomials_cover(m.map_b[0], P2)
        assert forms_cover_degree(m.map_b[0], P2)
        assert validate(m)["surjectivity_of_b"] == "ProvedByMonomialCover"

    def test_quadrics_with_an_irrational_common_zero(self):
        # the common zero lies over Q-bar only, so no rational point witnesses it
        m = kernel_monad(P2, [-2, -2, -2], [0], [["x^2 + y^2 + z^2", "x*y + z^2", "x*z + y^2"]])
        r = validate(m)
        assert r["surjectivity_of_b"] == "Unknown"

    def test_rank_two_target_is_unknown(self):
        m = kernel_monad(P2, [-1, -1, -1], [0, 0], [["x", "y", "z"], ["y", "z", "x"]])
        assert validate(m)["surjectivity_of_b"] == "Unknown"


def random_form(rng, amb, d, nterms):
    """A form of multidegree d with up to nterms random monomials; zero if d < 0."""
    basis = monomial_basis(amb, d)
    out = RationalPolynomial.zero(amb)
    for exps in rng.sample(basis, min(nterms, len(basis))):
        out = out + monomial(amb, exps, rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


def random_degree(rng, amb, top):
    return tuple(rng.randint(0, top) for _ in range(amb.arity))


def d_star(forms, amb):
    top = max(max(amb.exponent_multidegree(next(iter(p.terms)))) for p in forms)
    return ((amb.dim + 1) * top - max(amb.dims),) * amb.arity


P1 = Ambient.projective(1)
P2X = Ambient.projective(2)


class TestCommonZeroRule:
    """The two stages of `validate` against each other and independent inputs."""

    def test_stage_one_implies_stage_two(self):
        rng = random.Random(5)
        proved = 0
        for trial in range(120):
            amb = (P2X, PP)[trial % 2]
            forms = [random_form(rng, amb, random_degree(rng, amb, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 5))]
            forms = [p for p in forms if not p.is_zero()]
            if forms and leading_monomials_cover(forms, amb):
                proved += 1
                assert forms_cover_degree(forms, amb), forms
        assert proved >= 20

    def test_monomial_sets_agree_with_the_complete_rule(self):
        # for monomial entries stage 1 is the whole rule, so it agrees with
        # stage 2, which is complete on every ambient
        rng = random.Random(6)
        ambients = (P1, P2X, Ambient.projective(3), PP, Ambient.product_projective(1, 2))
        agree = {True: 0, False: 0}
        for trial in range(200):
            amb = ambients[trial % len(ambients)]
            top = 3 if amb.dim <= 2 else 2
            forms = [random_form(rng, amb, random_degree(rng, amb, top), 1)
                     for _ in range(rng.randint(1, 5))]
            free = forms_cover_degree(forms, amb)
            assert leading_monomials_cover(forms, amb) == free, forms
            agree[free] += 1
        assert min(agree.values()) >= 30

    @pytest.mark.parametrize("amb", [P1, P2X, PP, Ambient.projective(3),
                                     Ambient.product_projective(1, 2)],
                             ids=["P1", "P2", "P1xP1", "P3", "P1xP2"])
    def test_planted_rational_zero_is_unknown(self, amb):
        rng = random.Random(7)
        planted = 0
        for _ in range(25):
            point = []
            for lo, hi in amb.group_slices():
                coords = [0] * (hi - lo)
                while not any(coords):
                    coords = [rng.randint(-2, 2) for _ in coords]
                point += coords
            # linear forms x_i p_j - x_j p_i of one factor vanish at the point
            lines = []
            for g, (lo, hi) in enumerate(amb.group_slices()):
                deg = tuple(int(k == g) for k in range(amb.arity))
                for i in range(lo, hi):
                    for j in range(i + 1, hi):
                        ell = monomial(amb, _unit(amb, i), point[j]) - monomial(amb, _unit(amb, j), point[i])
                        if not ell.is_zero():
                            lines.append((ell, deg))
            top = 2 if amb.dim <= 2 else 1
            forms = []
            for _ in range(rng.randint(1, 4)):
                d = tuple(rng.randint(1, top) for _ in range(amb.arity))
                f = RationalPolynomial.zero(amb)
                for ell, deg in rng.sample(lines, min(3, len(lines))):
                    rest = tuple(a - b for a, b in zip(d, deg))
                    f = f + ell * random_form(rng, amb, rest, 3)
                if not f.is_zero():
                    assert f.evaluate(point) == 0
                    forms.append(f)
            if forms:
                planted += 1
                assert not leading_monomials_cover(forms, amb)
                assert not forms_cover_degree(forms, amb), forms
        assert planted >= 20

    def test_binary_forms_match_the_gcd(self):
        # on P1 the forms share a zero iff all vanish at (1:0) or gcd(f(t, 1)) is not constant
        rng = random.Random(8)
        outcomes = {True: 0, False: 0}
        for _ in range(150):
            forms = []
            common = random_form(rng, P1, (rng.randint(0, 1),), 2)
            for _ in range(rng.randint(1, 3)):
                f = random_form(rng, P1, (rng.randint(0, 2),), 2)
                f = f * common if rng.random() < 0.3 else f
                if not f.is_zero():
                    forms.append(f)
            if not forms:
                continue
            dense = []
            for f in forms:
                deg = P1.exponent_multidegree(next(iter(f.terms)))[0]
                dense.append([f.terms.get((deg - k, k), 0) for k in range(deg + 1)][::-1])
            at_infinity = all(c[-1] == 0 for c in dense)  # x0^deg coefficient at (1:0)
            g = _trim(dense[0])
            for c in dense[1:]:
                g = _gcd(g, _trim(c))
            shared = at_infinity or len(g) > 1
            assert forms_cover_degree(forms, P1) == (not shared), forms
            outcomes[shared] += 1
        assert min(outcomes.values()) >= 20

    def test_degree_past_d_star_agrees(self):
        # an ideal that fills S_{d*} fills every later degree; one that misses
        # S_{d*} has a common zero and misses every degree
        rng = random.Random(9)
        outcomes = {True: 0, False: 0}
        for trial in range(60):
            amb = (P2X, PP)[trial % 2]
            top = 2 if amb is P2X else 1
            forms = [random_form(rng, amb, random_degree(rng, amb, top), 3)
                     for _ in range(rng.randint(2, 4))]
            forms = [p for p in forms if not p.is_zero()]
            if not forms:
                continue
            later = tuple(c + 1 for c in d_star(forms, amb))
            proved = forms_cover_degree(forms, amb)
            assert proved == ideal_fills_degree(forms, amb, later), forms
            outcomes[proved] += 1
        assert min(outcomes.values()) >= 5


def _unit(amb, i):
    return tuple(int(k == i) for k in range(amb.nvars))


def _trim(c):
    c = list(c)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _gcd(a, b):
    """Monic-free gcd of coefficient lists (low degree first) over Q."""
    while any(b):
        _, r = poly_divmod(a, b)
        a, b = b, _trim(r)
    return a


class TestStructure:
    """The grading and b∘a = 0 are checked once, when a monad is built."""

    def test_homogeneity_error_identifies_entry(self):
        with pytest.raises(BundleCertError, match=r"map_b\[0\]\[1\] not homogeneous of \(1, 0\)"):
            kernel_monad(PP, [(-1, 0), (-1, 0)], [(0, 0)], [["x0", "x0*y0"]])

    def test_entry_on_another_ambient_is_refused(self):
        other = Ambient((("a0", "a1"), ("b0", "b1")))
        entries = [[parse_poly("x0*y0", PP), parse_poly("a0*b1", other)]]
        with pytest.raises(BundleCertError, match=r"map_b\[0\]\[1\] is not on the monad's ambient"):
            kernel_monad(PP, [(-1, -1)] * 2, [(0, 0)], entries)

    def test_hashed_once_and_consistent_with_equality(self, monkeypatch):
        # the caches keyed by a monad hash it per call; its map polynomials
        # are hashed once, when it is built
        m, twin = e_rank2(), e_rank2()
        assert m is not twin and m == twin and hash(m) == hash(twin)
        hashed = []
        monkeypatch.setattr(RationalPolynomial, "__hash__", lambda p: hashed.append(p) or 0)
        assert hash(m) == hash(twin) and not hashed
        restrict_to_fiber.cache_clear()
        assert restrict_to_fiber(m, 1, (0, 1)) is restrict_to_fiber(twin, 1, (0, 1))

    def test_equality_reads_every_field(self):
        m = k_rank3()
        named = kernel_monad(PP, [(-1, -1)] * 4, [(0, 0)],
                             [["x0*y0", "x0*y1", "x1*y0", "x1*y1"]], name="k")
        swapped = kernel_monad(PP, [(-1, -1)] * 4, [(0, 0)],
                               [["x0*y1", "x0*y0", "x1*y0", "x1*y1"]])
        assert m == k_rank3() and m != named and m != swapped and m != e_rank2()
        assert m != m.map_b and len({m, k_rank3(), named}) == 2


def chern(rank, c1, c2):
    return {"rank": rank, "c1": list(c1), "c2": c2}


TWIST = st.integers(-6, 6)


class TestChern:
    def test_chern_free_examples(self):
        assert chern_free(PP, [(-1, -1)] * 4) == chern(4, (-4, -4), 12)
        assert chern_free(P2, [(-1,)] * 3) == chern(3, (-3,), 3)
        assert chern_free(PP, [(-2, 0), (-2, 0), (0, -2), (0, -2)]) == chern(4, (-4, -4), 16)
        assert chern_free(PP, []) == chern(0, (0, 0), 0)

    @given(st.lists(TWIST, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_chern_free_matches_the_closed_form_on_p2(self, ks):
        assert chern_free(P2, [(k,) for k in ks]) == chern_free_p2(ks)

    @given(st.lists(st.tuples(TWIST, TWIST), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_chern_free_matches_the_closed_form_on_p1p1(self, twists):
        assert chern_free(PP, twists) == chern_free_p1p1(twists)

    def test_chern_monad_euler(self):
        assert chern_monad(euler()) == chern(2, (-3,), 3)

    def test_chern_monad_ks_dual(self):
        for s in (1, 2, 3):
            ks = kernel_monad(P2, [0, 0, 0], [s], [[f"x^{s}", f"y^{s}", f"z^{s}"]])
            c = chern_monad(ks)
            assert chern_dual(c) == chern(2, (s,), s * s)

    def test_chern_monad_homology(self):
        assert chern_monad(e_rank2()) == chern(2, (1, 1), 2)

    @pytest.mark.parametrize("ambient", [
        Ambient.projective(3), Ambient.product_projective(1, 2)
    ], ids=["P3", "P1xP2"])
    def test_other_ambients_are_refused(self, ambient):
        twists = [ambient.zero_degree()] * 2
        with pytest.raises(BundleCertError, match="intersection form only defined on P2 and P1xP1"):
            chern_free(ambient, twists)

    def test_whitney_consistency_random(self):
        rng = random.Random(3)
        for _ in range(200):
            t1 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            t2 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            a = chern_free(PP, t1)
            b = chern_free(PP, t2)
            ab = chern_free(PP, t1 + t2)
            # Whitney: c1 adds; c2(F⊕G) = c2F + c2G + c1F·c1G
            assert ab["c1"] == [a["c1"][0] + b["c1"][0], a["c1"][1] + b["c1"][1]]
            prod = a["c1"][0] * b["c1"][1] + a["c1"][1] * b["c1"][0]
            assert ab["c2"] == a["c2"] + b["c2"] + prod

    def test_permutation_invariance(self):
        m1 = k_rank3()
        m2 = kernel_monad(
            PP, [(-1, -1)] * 4, [(0, 0)], [["x1*y1", "x0*y1", "x1*y0", "x0*y0"]]
        )
        assert chern_monad(m1) == chern_monad(m2)

    def test_kernel_rank_identity(self):
        assert chern_monad(k_rank3())["rank"] == len(k_rank3().middle) - len(k_rank3().target)

    def test_invalid_monad_raises(self):
        # x0 has degree (1, 0), not (1, 1): no monad, so no Chern data, is made
        with pytest.raises(BundleCertError, match=r"map_b\[0\]\[0\] not homogeneous of \(1, 1\)"):
            kernel_monad(PP, [(-1, -1)], [(0, 0)], [["x0"]])


class TestFiberRestriction:
    def test_k_rank3_axis2(self):
        f = restrict_to_fiber(k_rank3(), 2, (0, 1))
        assert [p.render() for p in f.map_b[0]] == ["0", "x0", "0", "x1"]
        assert f.middle == ((-1,), (-1,), (-1,), (-1,))

    def test_n2_axis2(self):
        n2 = kernel_monad(
            PP, [(-2, 0), (-2, 0), (0, -2), (0, -2)], [(0, 0)],
            [["x0^2", "x1^2", "y0^2", "y1^2"]],
        )
        f = restrict_to_fiber(n2, 2, (0, 1))
        assert [p.render() for p in f.map_b[0]] == ["x0^2", "x1^2", "0", "1"]

    def test_invalid_point(self):
        # the (0:0) refusal lives in CertifyOptions, before any restriction
        with pytest.raises(BundleCertError, match=r"\(0:0\) is not a point of P1"):
            CertifyOptions(fiber_points=((0, 1), (0, 0)))

    def test_restriction_agrees_with_evaluation(self):
        # a binary form of degree d is fixed by its values at the d + 1
        # points (t:1), t < d, and (1:0)
        rng = random.Random(10)
        for _ in range(30):
            d = (rng.randint(0, 4), rng.randint(0, 4))
            forms = tuple(random_form(rng, PP, d, rng.randint(1, 6)) for _ in range(3))
            m = MonadComplex(PP, [(-d[0], -d[1])] * 3, [(0, 0)], (forms,))
            a, b = 0, 0
            while (a, b) == (0, 0):
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            for axis in (1, 2):
                f = restrict_to_fiber(m, axis, (a, b))
                deg = d[2 - axis]
                assert f.middle == ((-deg,),) * 3
                for u, v in [(t, 1) for t in range(deg)] + [(1, 0)]:
                    point = (a, b, u, v) if axis == 1 else (u, v, a, b)
                    assert [p.evaluate((u, v)) for p in f.map_b[0]] == \
                        [p.evaluate(point) for p in forms]

    def test_homology_restriction_keeps_kind(self):
        f = restrict_to_fiber(e_rank2(), 1, (0, 1))
        assert f.kind == HOMOLOGY
        assert [row[0].render() for row in f.map_a] == ["0", "1", "y0", "y1"]


class TestDocuments:
    def test_roundtrip(self):
        for m in (euler(), k_rank3(), e_rank2()):
            doc = monad_to_document(m)
            m2 = monad_from_document(doc)
            assert monad_to_document(m2) == doc
            assert m2.kind == m.kind

    def test_unknown_field_rejected(self):
        doc = monad_to_document(k_rank3())
        doc["extra"] = 1
        with pytest.raises(BundleCertError, match=r"unknown monad document fields: \['extra'\]"):
            monad_from_document(doc)
