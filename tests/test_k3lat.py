import random

import pytest

from bundlecert.errors import BundleCertError
from bundlecert.k3lat import (
    QUARTIC_452,
    QUARTIC_AMBIENT,
    _base_point,
    _decomposes,
    bracket,
    curve_class_candidates,
    not_effective_cert,
    pullback_chern,
    quartic_h0,
    quartic_region_run,
)
from bundlecert.polycore import RationalPolynomial, monomial_basis, parse_poly
from oracles import (
    QuarticRing,
    decomposes_by_search,
    gauss_rank,
    gram_det,
    rref_kernel_vector,
)
from oracles import quartic_h0 as normal_form_h0

FX = "-x*(x + z - w)*(x*w - y*z) + z*(x + z)*(x*y - z^2) + (x*y + w^2)*(y^2 - z*w)"
QUARTICS = [FX, "x^4 + y^4 + z^4 + w^4", "x^4 + y^3*z + z^4 + w^4 + x*y*z*w"]
# (entries, source twists, target twists) of maps with linear and quadratic entries
SECTION_MAPS = [
    ([["x", "y", "w"]], [-1, -1, -1], [0]),
    ([["x", "y", "z", "w"]], [-1, -1, -1, -1], [0]),
    ([["x^2", "y^2 + z*w", "x*y - w^2"]], [-2, -2, -2], [0]),
    ([["x + z", "y^2", "z^2 - x*w"]], [-1, -2, -2], [0]),
    ([["x", "y", "0"], ["0", "z", "w^2"]], [-1, -1, -2], [0, 0]),
]


def add(*classes) -> tuple:
    return tuple(map(sum, zip(*classes)))


class TestPairing:
    def test_u2(self):
        E1, E2 = (1, 0), (0, 1)
        U2 = bracket(0, 2, 0, names=("E1", "E2"))
        assert U2.pair(E1, E2) == 2
        assert U2.pair(E1, E1) == 0
        assert gram_det(U2) == -4

    def test_quartic_lattice(self):
        H, C = (1, 0), (0, 1)
        L = QUARTIC_452
        assert L.pair(C, C) == 2 and L.pair(C, H) == 5
        assert L.pair(H, H) == 4 and gram_det(L) == -17

    def test_bilinearity_random(self):
        rng = random.Random(11)
        for _ in range(50):
            lat = bracket(2 * rng.randint(-3, 3), rng.randint(-4, 4), 2 * rng.randint(-3, 3))
            a, b, c = ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
            assert lat.pair(a, b) == lat.pair(b, a)
            assert lat.pair(add(a, b), c) == lat.pair(a, c) + lat.pair(b, c)

    def test_catalogue_evenness(self):
        # the lattice of a K3 surface is even
        assert all(QUARTIC_452.gram[i][i] % 2 == 0 for i in range(2))


class TestEffectivity:
    L = QUARTIC_452
    H = (1, 0)
    C = (0, 1)

    def test_rule_nonpositive_degree(self):
        cert = not_effective_cert(self.L, (-1, 0), self.H)
        assert cert == {"rule": "nonpositive-degree", "degree": -4, "candidates": []}

    def test_rule_no_decomposition(self):
        cert = not_effective_cert(self.L, (-2, 2), self.H)  # -2H + 2C
        assert cert == {"rule": "no-decomposition", "degree": 2, "candidates": []}

    def test_zero_class(self):
        assert not_effective_cert(self.L, (0, 0), self.H)["rule"] == "zero-class"

    def test_real_curves_are_unknown(self):
        # H, C and the twisted cubic 2H - C are all effective: no certificate
        for D in (self.H, self.C, (2, -1)):
            assert not_effective_cert(self.L, D, self.H) is None

    def test_candidate_enumeration_finds_twisted_cubic(self):
        raw = curve_class_candidates(QUARTIC_452, self.H, 5)
        assert ((2, -1), 3, -2) in raw  # degree 3, square -2
        assert ((1, 0), 4, 4) in raw and ((0, 1), 5, 2) in raw
        assert all(d >= 1 and sq >= -2 for _, d, sq in raw)

    def test_never_certifies_decomposable_fuzz(self):
        rng = random.Random(5)
        tried = 0
        while tried < 40:
            a, b, c = 2 * rng.randint(0, 2), rng.randint(1, 4), 2 * rng.randint(-3, -1)
            lat = bracket(a, b, c)
            if gram_det(lat) >= 0:
                continue
            H = (1, 0)
            if lat.pair(H, H) <= 0:
                continue
            tried += 1
            raw = curve_class_candidates(lat, H, 6)
            if not raw:
                continue
            parts = rng.sample(raw, k=min(len(raw), rng.randint(1, 2)))
            D = add(*(c for c, _, _ in parts))
            if not any(D):
                continue
            cert = not_effective_cert(lat, D, H)
            # D is a sum of candidate classes, so rule iii must not certify
            assert cert is None or cert["rule"] != "no-decomposition"
            # the degree table and the search agree on D and on classes near it
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, -1), (-1, 2)):
                E = add(D, (dx, dy))
                deg = lat.pair(E, H)
                if 1 <= deg <= 12:
                    cands = curve_class_candidates(lat, H, deg)
                    assert _decomposes(E, deg, cands) == \
                        decomposes_by_search(E, deg, cands), (lat.gram, E)

    def test_degree_89_has_no_decomposition(self):
        # out of reach of decomposes_by_search, which is exponential in the degree
        cert = not_effective_cert(self.L, (-14, 29), self.H)
        assert cert["rule"] == "no-decomposition" and cert["degree"] == 89
        assert not_effective_cert(self.L, (1, 17), self.H) is None  # H + 17 C

    def test_decomposition_matches_the_search_on_quartic_452(self):
        raw = curve_class_candidates(QUARTIC_452, self.H, 30)
        for a in range(-8, 9):
            for b in range(-8, 9):
                deg = self.L.pair((a, b), self.H)
                if 1 <= deg <= 30:
                    cands = [c for c in raw if c[1] <= deg]
                    assert _decomposes((a, b), deg, cands) == \
                        decomposes_by_search((a, b), deg, cands), (a, b)


class TestNumerology:
    def test_pullback_chern(self):
        assert pullback_chern({"rank": 3, "c1": [-4, -4], "c2": 12}) == {
            "rank": 3, "c1": [-4, -4], "c2": 24
        }
        assert pullback_chern({"rank": 2, "c1": [-2], "c2": 4})["c2"] == 8  # K_2: 2 s^2
        assert pullback_chern({"rank": 2, "c1": [-3], "c2": 3})["c2"] == 6


class TestQuartic:
    def test_hilbert_function(self):
        ring = QuarticRing(parse_poly(FX, QUARTIC_AMBIENT))
        assert len(ring.basis(1)) == 4
        assert len(ring.basis(4)) == 34
        for d in range(13):
            assert len(ring.basis(d)) == ring.hilbert(d)

    def test_reduce_idempotent(self):
        ring = QuarticRing(parse_poly(FX, QUARTIC_AMBIENT))
        p = parse_poly("x^5*w + y^2*z^4", QUARTIC_AMBIENT)
        r = ring.reduce(p.terms)
        assert ring.reduce(r) == r
        # reduction preserves the residue class: difference divisible by f
        assert all(not all(a >= b for a, b in zip(e, ring.lead)) for e in r)

    def test_h0_at_10(self):
        f = parse_poly(FX, QUARTIC_AMBIENT)
        assert quartic_h0(f, [["x", "y", "w"]], [-1, -1, -1], [0], 1) == 0

    def test_h0_at_00(self):
        f = parse_poly(FX, QUARTIC_AMBIENT)
        assert quartic_h0(f, [["x", "y", "w"]], [-1, -1, -1], [0], 0) == 0

    @pytest.mark.parametrize("surface", QUARTICS)
    @pytest.mark.parametrize("entries,source,target", SECTION_MAPS,
                             ids=["linear", "four-linear", "quadratic", "mixed", "two-rows"])
    def test_h0_matches_the_normal_form_oracle(self, surface, entries, source, target):
        f = parse_poly(surface, QUARTIC_AMBIENT)
        ring = QuarticRing(f)
        values = [quartic_h0(f, entries, source, target, k) for k in range(7)]
        assert values == [normal_form_h0(ring, entries, source, target, k) for k in range(7)]
        assert values[-1] > 0  # a nonzero kernel at k = 6, where reductions mod f occur

    @pytest.mark.parametrize("entries,source,target,at", [
        ([["x", "y^2", "w"]], [-1, -1, -1], [0], (0, 1)),
        ([["x", "y", "0"], ["0", "z^2", "w^2"]], [-1, -1, -2], [0, 0], (1, 1)),
    ], ids=["quadratic-in-a-linear-slot", "second-row"])
    def test_h0_homogeneity_error_identifies_entry(self, entries, source, target, at):
        f = parse_poly(QUARTICS[1], QUARTIC_AMBIENT)
        with pytest.raises(BundleCertError, match=rf"map_b\[{at[0]}\]\[{at[1]}\] not homogeneous"):
            quartic_h0(f, entries, source, target, 1)

    def test_h0_refuses_a_non_quartic(self):
        with pytest.raises(BundleCertError, match="homogeneous quartic"):
            quartic_h0(parse_poly("x^3*w + y^3", QUARTIC_AMBIENT), [["x"]], [-1], [0], 1)

    def test_region_run_paper_surface(self):
        cert = quartic_region_run(FX)
        assert cert["verdict"] == "Stable"
        assert cert["basepoint_value"] != "0"
        rules = {tuple(s["twist"]): s["rule"] for s in cert["sample_points"]}
        assert rules[(1, 0)] == "section-kernel"
        assert rules[(0, 0)] == "nonpositive-degree"
        assert rules[(-1, 2)] == "no-decomposition"

    def test_region_run_fermat(self):
        cert = quartic_region_run("x^4 + y^4 + z^4 + w^4")
        assert cert["verdict"] == "Stable"
        assert cert["core_checks"] == [{"twist": [1, 0], "h0": 0}]

    def test_basepoint_is_derived_from_the_map(self):
        # (x, y, z) vanish together at [0:0:0:1], where this f vanishes too
        with pytest.raises(BundleCertError, match=r"\[0:0:0:1\]"):
            quartic_region_run("z^4 + x*w^3 + y*w^3 + x^4 + y^4", ("x", "y", "z"))
        cert = quartic_region_run("x^4 + y^4 + z^4 + w^4", ("x - w", "y", "z"))
        assert cert["basepoint_value"] == "2"  # f(1, 0, 0, 1)

    def test_base_point_matches_the_rref_oracle(self):
        # linear forms of rank 1, 2 and 3: the same vector where the common
        # zero is a point, a refusal where the oracle finds no kernel line
        rng = random.Random(12)
        basis = monomial_basis(QUARTIC_AMBIENT, 1)
        seen = {0: 0, 1: 0, 2: 0, 3: 0}
        for _ in range(600):
            r = rng.randint(1, 3)
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]
            right = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(r)]
            rows = [[sum(row[k] * right[k][c] for k in range(r)) for c in range(4)] for row in left]
            forms = [RationalPolynomial(QUARTIC_AMBIENT, {e: c for e, c in zip(basis, row) if c})
                     for row in rows]
            expected = rref_kernel_vector(rows)
            if expected is None:
                with pytest.raises(BundleCertError, match="rank below 3"):
                    _base_point(forms)
            else:
                assert _base_point(forms) == expected
            rank = gauss_rank(rows)
            assert (expected is not None) == (rank == 3)
            seen[rank] += 1
        assert min(seen[1], seen[2], seen[3]) >= 50, seen

    def test_map_of_rank_below_3(self):
        with pytest.raises(BundleCertError, match="rank below 3"):
            quartic_region_run("x^4 + y^4 + z^4 + w^4", ("x", "y", "x + y"))

    def test_nonlinear_map(self):
        with pytest.raises(BundleCertError, match=r"entry \(0,2\) inhomogeneous: .* linear forms"):
            quartic_region_run("x^4 + y^4 + z^4 + w^4", ("x", "y", "z^2"))

    def test_basepoint_failure(self):
        # z^4 missing and f(0,0,1,0) = 0
        with pytest.raises(BundleCertError, match=r"f vanishes at \[0:0:1:0\]"):
            quartic_region_run("x^4 + y^4 + z^3*w + w^4")
