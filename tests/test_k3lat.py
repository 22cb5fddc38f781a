import random

import pytest

from bundlecert.errors import BundleCertError
from bundlecert.k3lat import (
    QUARTIC_AMBIENT,
    QUARTIC_GRAM,
    _base_point,
    curve_class_candidates,
    pair,
    pullback_chern,
    quartic_h0,
    quartic_region_run,
)
from bundlecert.polycore import RationalPolynomial, monomial_basis, parse_poly
from oracles import QuarticRing, curve_classes_by_box, gauss_rank, leibniz_det, rref_kernel_vector
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


def random_lattices(rng, count):
    """(gram, H) pairs of even rank-2 lattices with det < 0 and H^2 > 0."""
    while count:
        a, b, c = 2 * rng.randint(-4, 4), rng.randint(-6, 6), 2 * rng.randint(-4, 4)
        gram = ((a, b), (b, c))
        H = (rng.randint(-3, 3), rng.randint(-3, 3))
        if a * c - b * b < 0 and pair(gram, H, H) > 0:
            count -= 1
            yield gram, H


def on_twisted_cubic(f: RationalPolynomial) -> dict:
    """f(s^3, s t^2, s^2 t, t^3), as {(deg_s, deg_t): coefficient} without zeros."""
    out = {}
    for (i, j, k, m), coeff in f.terms.items():
        key = (3 * i + j + 2 * k, 2 * j + k + 3 * m)
        out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


class TestPairing:
    def test_u2(self):
        E1, E2 = (1, 0), (0, 1)
        U2 = ((0, 2), (2, 0))
        assert pair(U2, E1, E2) == 2
        assert pair(U2, E1, E1) == 0
        assert leibniz_det(U2) == -4

    def test_quartic_lattice(self):
        H, C = (1, 0), (0, 1)
        L = QUARTIC_GRAM
        assert pair(L, C, C) == 2 and pair(L, C, H) == 5
        assert pair(L, H, H) == 4 and leibniz_det(L) == -17

    def test_bilinearity_random(self):
        rng = random.Random(11)
        for _ in range(50):
            b = rng.randint(-4, 4)
            lat = ((2 * rng.randint(-3, 3), b), (b, 2 * rng.randint(-3, 3)))
            a, b, c = ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
            assert pair(lat, a, b) == pair(lat, b, a)
            assert pair(lat, add(a, b), c) == pair(lat, a, c) + pair(lat, b, c)

    def test_catalogue_evenness(self):
        # the lattice of a K3 surface is even
        assert all(QUARTIC_GRAM[i][i] % 2 == 0 for i in range(2))

    def test_quartic_gram_comes_from_the_twisted_cubic(self):
        # T = (s^3 : s t^2 : s^2 t : t^3) lies on the shipped quartic and not on
        # the Fermat quartic; T is a smooth rational cubic, so H.T = 3 and, by
        # adjunction on a K3, T^2 = 2g - 2 = -2; C = 2H - T then has QUARTIC_GRAM
        f = parse_poly(FX, QUARTIC_AMBIENT)
        assert f.is_homogeneous_of(4) and on_twisted_cubic(f) == {}
        fermat = parse_poly("x^4 + y^4 + z^4 + w^4", QUARTIC_AMBIENT)
        assert on_twisted_cubic(fermat) == {(12, 0): 1, (4, 8): 1, (8, 4): 1, (0, 12): 1}
        gram_ht = ((4, 3), (3, -2))  # H^2 = deg f, H.T = deg T, T^2
        H, C = (1, 0), (2, -1)
        assert tuple(tuple(pair(gram_ht, u, v) for v in (H, C)) for u in (H, C)) == QUARTIC_GRAM


class TestEffectivity:
    H = (1, 0)
    C = (0, 1)

    def test_rule_nonpositive_degree(self):
        # the "<= 0" stratum rules out every grid twist of negative degree
        # 4k + 5l - 4; degree 0 on the grid is (1, 0) alone, checked by h^0
        cert = quartic_region_run(FX)
        assert cert["strata"][0] == {
            "degrees": "<= 0", "rule": "nonpositive-degree",
            "statement": "every nonzero class of nonpositive H-degree is non-effective"}
        ruled = {tuple(s["twist"]) for s in cert["sample_points"]
                 if s["rule"] == "nonpositive-degree"}
        assert ruled == {(k, l) for k in range(-3, 3) for l in range(-3, 4) if 4 * k + 5 * l < 4}
        assert len(ruled) == 28

    def test_rule_no_decomposition(self):
        # no class of square >= -2 has degree 1 or 2, so both strata rule their
        # degree out, and (0, 1) and (-1, 2) (degrees 1 and 2) read them
        cert = quartic_region_run(FX)
        assert [(s["degrees"], s["rule"], s["candidates"]) for s in cert["strata"][1:]] == [
            ("1", "no-decomposition", []), ("2", "no-decomposition", [])]
        rules = {tuple(s["twist"]): s["rule"] for s in cert["sample_points"]}
        assert rules[(0, 1)] == rules[(-1, 2)] == "no-decomposition"
        assert curve_class_candidates(QUARTIC_GRAM, self.H, 2) == []

    def test_candidate_enumeration_finds_twisted_cubic(self):
        raw = curve_class_candidates(QUARTIC_GRAM, self.H, 5)
        assert ((2, -1), 3, -2) in raw  # degree 3, square -2
        assert ((1, 0), 4, 4) in raw and ((0, 1), 5, 2) in raw
        assert all(d >= 1 and sq >= -2 for _, d, sq in raw)

    def test_candidates_match_the_box_scan(self):
        rng = random.Random(5)
        found = 0
        for gram, H in random_lattices(rng, 500):
            max_degree = rng.randint(1, 12)
            raw = curve_class_candidates(gram, H, max_degree)
            assert raw == curve_classes_by_box(gram, H, max_degree), (gram, H, max_degree)
            found += bool(raw)
        assert found >= 100, found

    def test_never_certifies_decomposable_fuzz(self):
        # a sum D of candidate classes is effective when they are curves: the
        # stratum of D's degree has candidates, so it never rules D out
        rng = random.Random(5)
        for gram, H in random_lattices(rng, 40):
            raw = curve_class_candidates(gram, H, 6)
            if not raw:
                continue
            parts = rng.sample(raw, k=min(len(raw), rng.randint(1, 2)))
            D = add(*(c for c, _, _ in parts))
            degree = pair(gram, D, H)
            assert degree == sum(d for _, d, _ in parts)
            assert set(parts) <= set(curve_class_candidates(gram, H, degree)), (gram, D)


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

    def test_region_run_paper_surface(self):
        cert = quartic_region_run(FX)
        assert cert["verdict"] == "Stable"
        assert cert["basepoint_value"] != "0"
        rules = {tuple(s["twist"]): s["rule"] for s in cert["sample_points"]}
        assert rules[(1, 0)] == "section-kernel"
        assert rules[(0, 0)] == "nonpositive-degree"
        assert rules[(-1, 2)] == "no-decomposition"
        # every other twist reads the stratum of its degree d = 4k + 5l - 4
        by_degrees = {s["degrees"]: s["rule"] for s in cert["strata"]}
        for s in cert["sample_points"]:
            k, l = s["twist"]
            d = 4 * k + 5 * l - 4
            if (k, l) != (1, 0):
                assert s["rule"] == by_degrees["<= 0" if d <= 0 else str(d)], s

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
