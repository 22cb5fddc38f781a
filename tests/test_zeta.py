import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bundlecert import zeta
from bundlecert.errors import TooLargeError
from bundlecert.polycore import Ambient, parse_poly
from bundlecert.zeta import (
    count_points,
    count_points_bruteforce,
    curve_coefficients,
    cyclotomic,
    euler_phi,
    make_field,
    unit_root_count,
)
from bundlecert.zeta.charpoly import all_roots_on_circle, poly_divmod, poly_mul
from bundlecert.zeta.count import (
    _LogTables,
    _orbit_fibers,
    _specialize,
    _weighted_fiber_sum,
    frobenius_orbits,
)

from oracles import count_double_cover_f3, field_tables

PP = Ambient.product_projective(1, 1)
INPUTS = Path(__file__).resolve().parent.parent / "inputs"

FORMS = {
    "b44": json.loads((INPUTS / "b44.poly").read_text())["polynomial"],
    "sparse": "x0^4*y1^4 + x1^4*y0^4 + x0*x1^3*y0^2*y1^2 + 2*x0^2*x1^2*y0^3*y1 + x0^3*x1*y0*y1^3",
    "signed": "x0^4*y0^4 - x1^4*y1^4 + x0^2*x1^2*y0^4 + 3*x0*x1^3*y0*y1^3"
    " - x0^4*y0^2*y1^2 + x1^4*y0^3*y1",
}


def form(name):
    return parse_poly(FORMS[name], PP)


class TestCounts:
    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
    def test_matches_bruteforce(self, name, p, n):
        f = form(name)
        assert count_points(f, p, n) == count_points_bruteforce(f, p, n)

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_f3_matches_integer_oracle(self, name):
        f = form(name)
        assert count_points(f, 3, 1) == count_double_cover_f3(curve_coefficients(f, 3))

    def test_b44_over_f3n(self):
        f = form("b44")
        counts = [count_points(f, 3, n) for n in range(1, 7)]
        assert counts == [14, 98, 848, 6566, 59219, 530948]

    def test_field_above_the_table_cap_is_refused(self):
        with pytest.raises(TooLargeError):
            make_field(1048583, 1)
        with pytest.raises(TooLargeError):
            count_points(form("b44"), 3, 13)


# counts made fiber by fiber, one fiber per x, before fibers were grouped into orbits
FIBER_BY_FIBER_COUNTS = {
    ("sparse", 3, 4): 7039, ("sparse", 3, 5): 59455, ("sparse", 3, 6): 535519,
    ("sparse", 3, 7): 4802410, ("sparse", 5, 1): 53, ("sparse", 5, 2): 795,
    ("sparse", 5, 3): 16229, ("sparse", 5, 4): 395487,
    ("signed", 3, 4): 6715, ("signed", 3, 5): 59293, ("signed", 3, 6): 529687,
    ("signed", 3, 7): 4785157, ("signed", 5, 1): 39, ("signed", 5, 2): 765,
    ("signed", 5, 3): 16038, ("signed", 5, 4): 394197,
    ("b44", 3, 7): 4796078, ("b44", 3, 8): 43037342,
}


class TestOrbits:
    @pytest.mark.parametrize("name,p,n", sorted(FIBER_BY_FIBER_COUNTS))
    def test_matches_the_fiber_by_fiber_count(self, name, p, n):
        assert count_points(form(name), p, n) == FIBER_BY_FIBER_COUNTS[name, p, n]

    def test_signed_matches_bruteforce_over_f49(self):
        f = form("signed")
        assert count_points(f, 7, 2) == count_points_bruteforce(f, 7, 2)

    @pytest.mark.parametrize("n", [4, 6])
    def test_orbit_weights_replace_every_fiber(self, n):
        p, q = 3, 3**n
        reps, sizes = frobenius_orbits(p, n)
        assert sizes.sum() == q - 1
        assert all(n % int(s) == 0 for s in sizes)
        f = form("b44")
        A = curve_coefficients(f, p)
        t = _LogTables(make_field(p, n))
        # every x = g^i on its own: fiber counts are constant on each orbit i -> p i
        rows = _specialize(t, A, np.arange(q - 1, dtype=np.int64))
        fiber = [_weighted_fiber_sum(t, rows[i : i + 1], np.ones(1, dtype=np.int64)) for i in range(q - 1)]
        for i in range(q - 1):
            assert fiber[i] == fiber[i * p % (q - 1)]
        rows, weights = _orbit_fibers(t, p, n, A)
        ends = _weighted_fiber_sum(t, rows[-2:], weights[-2:])
        assert _weighted_fiber_sum(t, rows, weights) == sum(fiber) + ends == count_points(f, p, n)

    def test_threads_give_the_same_count(self):
        f = form("b44")
        assert count_points(f, 3, 5, threads=2) == count_points(f, 3, 5, threads=1)


class TestFieldTables:
    @pytest.mark.parametrize(
        "p,n",
        [(3, n) for n in range(1, 8)] + [(5, n) for n in range(1, 5)]
        + [(7, n) for n in range(1, 4)] + [(1009, 1)],
    )
    def test_tables_match_the_order_search(self, p, n):
        F = make_field(p, n)
        exp, log, zech = field_tables(p, n, F.modulus)
        assert F.exp.tolist() == exp
        assert F.log.tolist() == log
        assert F.zech.tolist() == zech


class TestDivision:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(20261017)

        def rand_poly(deg):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
            coeffs[-1] = coeffs[-1] or Fraction(1)
            return coeffs

        def to_sympy(coeffs):
            return sympy.Poly(
                [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], T
            )

        def from_sympy(poly):
            return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]

        for _ in range(40):
            a = rand_poly(rng.randint(0, 12))
            b = rand_poly(rng.randint(0, 6))
            q, r = poly_divmod(a, b)
            sq, sr = sympy.div(to_sympy(a), to_sympy(b), domain="QQ")
            assert q == from_sympy(sq)
            assert r == from_sympy(sr)


class TestCyclotomics:
    def test_euler_phi_matches_cyclotomic_degree(self):
        for k in range(1, 200):
            assert euler_phi(k) == len(cyclotomic(k)) - 1

    @pytest.mark.parametrize("k", [44, 48, 50, 54, 60, 66])
    def test_unit_roots_of_every_order(self, k):
        """p^phi Phi_k(T/p) times a unit-root-free filler: exactly phi(k) unit roots."""
        p = 3
        Q = scaled_cyclotomic(k, p)
        while len(Q) - 1 < 20:
            Q = poly_mul(Q, quad(1, p))  # T^2 - T + 9: roots of modulus 3, not 3 * zeta
        assert all_roots_on_circle(Q, p, 1)
        assert unit_root_count(Q, p) == euler_phi(k)


# --- synthetic round trip: counts generated from a known Weil polynomial ------------

def quad(a, p):
    """T^2 - aT + p^2, ascending; its roots are p * zeta iff a in {0, ±p, ±2p}."""
    return [p * p, -a, 1]


def scaled_cyclotomic(k, p):
    c = cyclotomic(k)
    d = len(c) - 1
    return [x * p ** (d - j) for j, x in enumerate(c)]


def power_sums(coeffs, m):
    """p_1..p_m of the roots of a monic polynomial, by Newton's identities."""
    d = len(coeffs) - 1
    e = [(-1) ** j * coeffs[d - j] for j in range(d + 1)]
    out = []
    for k in range(1, m + 1):
        acc = (-1) ** (k - 1) * k * e[k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            acc += (-1) ** (i - 1) * e[i] * out[k - i - 1]
        out.append(acc)
    return out


def bound_from_weil_polynomial(monkeypatch, factors, p):
    Q = [1]
    for f in factors:
        Q = poly_mul(Q, f)
    assert len(Q) - 1 == 20  # 22 - k_alg, with k_alg = 2
    counts = [
        1 + p ** (2 * i) + 2 * p**i + s for i, s in enumerate(power_sums(Q, 10), start=1)
    ]
    monkeypatch.setattr(zeta, "count_points", lambda f, p, n, threads=1: counts[n - 1])
    doc = zeta.run_picard_bound(None, p)
    if "disambiguation" in doc:
        assert any(
            c["sign"] == 1 and c["coeffs_ascending"] == Q and c["status"] == "surviving"
            for c in doc["disambiguation"]["candidates"]
        )
    return doc["rank_upper_bound"]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "p,a,units",
        [
            (3, [1, 2, 4, 5, -1, -2, -4, -5, 1, 2], 0),
            (3, [0, 3, 1, -2, 4, 5, -1, 2, -4, -5], 4),
            (3, [6, -6, 0, 3, -3, 1, 2, 4, 5, -1], 10),
            (5, [0, 5, 1, -2, 4, 10, -1, 2, -4, -5], 8),
            (7, [0, 7, 1, -2, 4, 14, -1, 2, -4, -5], 6),
        ],
    )
    def test_quadratic_factors(self, monkeypatch, p, a, units):
        assert bound_from_weil_polynomial(monkeypatch, [quad(x, p) for x in a], p) == 2 + units

    @pytest.mark.parametrize("k", [44, 48, 50, 54, 60, 66])
    def test_cyclotomic_factor(self, monkeypatch, k):
        p = 3
        c = scaled_cyclotomic(k, p)
        filler = [quad(1, p)] * ((20 - (len(c) - 1)) // 2)
        assert bound_from_weil_polynomial(monkeypatch, [c] + filler, p) == 2 + euler_phi(k)
