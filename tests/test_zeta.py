import json
import math
import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bundlecert import zeta
from bundlecert.errors import BundleCertError
from bundlecert.polycore import Ambient, RationalPolynomial, parse_poly
from bundlecert.zeta import (
    count_points,
    count_points_bruteforce,
    curve_coefficients,
    cyclotomic,
    euler_phi,
    make_field,
    unit_root_count,
)
from bundlecert.zeta.charpoly import (
    WITNESS_FLOOR,
    _refused,
    _sturm_chain,
    _value,
    all_roots_on_circle,
    cyclotomic_witness,
    cyclotomics_up_to,
    family_completions,
    newton_elementary_from_power_sums,
    poly_divmod_exact,
    primitive_remainder,
)
from bundlecert.zeta import count
from bundlecert.zeta import field as field_module
from bundlecert.zeta.field import Field, is_prime, primitive_modulus
from bundlecert.zeta.count import (
    _fiber_counts,
    _orbit_fibers,
    _specialize,
    frobenius_orbits,
)

import oracles
from oracles import count_double_cover_f3, field_tables, poly_mul

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


def other_ruling(name):
    """The form with (x0, x1) and (y0, y1) swapped: the same surface, counted
    over the other ruling's fibers."""
    return parse_poly(FORMS[name].translate(str.maketrans("xy", "yx")), PP)


def seeded_form(seed, swap=False):
    """A (4,4) form with one coefficient drawn from {0, 1, 2} per monomial
    (random.Random(seed)); with swap, the same form with (x0, x1) and
    (y0, y1) exchanged."""
    rng = random.Random(seed)
    terms = {}
    for i in range(5):
        for j in range(5):
            c = rng.randrange(3)
            x, y = (4 - i, i), (4 - j, j)
            if c:
                terms[(*y, *x) if swap else (*x, *y)] = c
    return RationalPolynomial(PP, terms)


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

    @pytest.mark.parametrize("name,n", [("b44", n) for n in range(1, 11)] + [
        (name, n) for name in sorted(FORMS) for n in range(1, 7)
    ])
    def test_the_other_ruling_gives_the_same_count(self, name, n):
        # other fibers, orbits, routes and Jacobians, on the same field tables
        assert count_points(other_ruling(name), 3, n) == count_points(form(name), 3, n)

    @pytest.mark.parametrize("seed,n", [(seed, n) for seed in (1, 2, 3) for n in range(1, 9)])
    def test_seeded_forms_count_the_same_over_both_rulings(self, seed, n):
        swapped = count_points(seeded_form(seed, swap=True), 3, n)
        assert swapped == count_points(seeded_form(seed), 3, n)

    @pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
    def test_bruteforce_builds_no_field(self, monkeypatch, p, n):
        f = form("b44")
        expected = count_points(f, p, n)

        def no_field(*args):
            raise AssertionError("the oracle built a field")

        monkeypatch.setattr(field_module, "make_field", no_field)
        monkeypatch.setattr(count, "make_field", no_field)
        monkeypatch.setattr(field_module, "Field", no_field)
        assert count_points_bruteforce(f, p, n) == expected

    def test_field_above_the_table_cap_is_refused(self):
        with pytest.raises(BundleCertError, match="exceeds the log-table limit 2\\^20"):
            make_field(1048583, 1)
        with pytest.raises(BundleCertError, match="exceeds the log-table limit 2\\^20"):
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
        F = make_field(p, n)
        # every x = g^i on its own: fiber counts are constant on each orbit i -> p i
        fiber = _fiber_counts(F, _specialize(F, A, np.arange(q - 1))).tolist()
        for i in range(q - 1):
            assert fiber[i] == fiber[i * p % (q - 1)]
        rows, weights = _orbit_fibers(F, n, A)
        ends = int(_fiber_counts(F, rows[-2:]).sum())
        assert _fiber_counts(F, rows) @ weights == sum(fiber) + ends == count_points(f, p, n)


# counts made with one Horner pass per fiber, before fibers were evaluated in blocks
PRIME_FIELD_COUNTS = {
    ("b44", 101): 10313, ("b44", 1009): 1021323,
    ("signed", 101): 10361, ("signed", 1009): 1023089,
    ("sparse", 101): 10805, ("sparse", 1009): 1021857,
}


def random_fibers(F, seed):
    """Coefficients (c_0, ..., c_4) of 32 fibers, one per zero pattern, the
    other entries random nonzero elements; row 31 is the zero fiber."""
    rng = random.Random(seed)
    return [
        [0 if mask >> j & 1 else rng.randrange(1, F.q) for j in range(5)]
        for mask in range(32)
    ]


class TestBlockedKernel:
    @pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2), (101, 1)])
    def test_every_zero_pattern_in_one_block(self, p, n):
        F = make_field(p, n)
        coeffs = random_fibers(F, p * 10 + n)
        assert len(coeffs) * F.L <= count.CELLS  # one chunk
        counts = _fiber_counts(F, np.array([[F.encode(c) for c in row] for row in coeffs]))
        assert counts.tolist() == [oracles.fiber_count(F, row) for row in coeffs]
        assert counts[31] == F.L + 2

    @pytest.mark.parametrize("height", [2, 3, 8])
    def test_blocks_with_a_ragged_last_block(self, monkeypatch, height):
        F = make_field(5, 2)
        coeffs = random_fibers(F, height) + random_fibers(F, height + 1)[:3]
        rows = np.array([[F.encode(c) for c in row] for row in coeffs])
        monkeypatch.setattr(count, "CELLS", height * F.L + F.L - 1)  # height rows per chunk
        assert len(rows) >= 3 * height and len(rows) % height != 0
        assert _fiber_counts(F, rows).tolist() == [oracles.fiber_count(F, row) for row in coeffs]

    @pytest.mark.parametrize("cells", [5, 35, count.CELLS])
    def test_specialization_in_blocks(self, monkeypatch, cells):
        F = make_field(3, 4)
        A = curve_coefficients(form("b44"), 3)
        monkeypatch.setattr(count, "CELLS", cells)
        rows = _specialize(F, A, np.arange(F.L))
        exp = field_tables(3, 4, F.modulus)[0]
        expected = [
            [F.encode(oracles.field_value(F, [A[k][j] for k in range(5)], exp[i])) for j in range(5)]
            for i in range(F.L)
        ]
        assert rows.tolist() == expected


class TestPrimeFieldCounts:
    @pytest.mark.parametrize("name,p", sorted(PRIME_FIELD_COUNTS))
    def test_matches_the_per_fiber_count(self, name, p):
        assert count_points(form(name), p, 1) == PRIME_FIELD_COUNTS[name, p]


@pytest.mark.parametrize("threads", [0, 2])
def test_counts_run_in_one_process(threads):
    with pytest.raises(BundleCertError, match="counts run in one process"):
        count_points(form("b44"), 3, 1, threads=threads)


# a fiber over F_1009 whose Jacobian has 960 points, and a point on it of order 80:
# both 960 and 1040 lie in the Hasse interval [947, 1073]
ORDER_80_FIBER = [435, 228, 660, 461, 201]  # c_0, ..., c_4


def packed_neg(p, a):
    """-a for a packed element, digit by digit in base p."""
    out, scale = 0, 1
    while a:
        out += -a % p * scale
        a, scale = a // p, scale * p
    return out


def smooth_points(F, rows, r):
    """Jacobians of the smooth rows, the r-th point on each, and _bsgs from it."""
    a2, a4, a6, smooth = count._jacobians(F, rows)
    P, found = count._point(F, a2[smooth], a4[smooth], a6[smooth], r)
    N, proved = count._bsgs(count._Curves(F, a2[smooth], a4[smooth]), F.L + 1, P)
    return smooth, N, proved & found


class TestJacobians:
    @pytest.mark.parametrize("p,n", [(13, 1), (3, 3), (5, 2)])
    def test_field_arithmetic_matches_packed_elements(self, p, n):
        F = make_field(p, n)
        enc = np.array([F.encode(a) for a in range(F.q)])
        a, b = (v.ravel() for v in np.meshgrid(np.arange(F.q), np.arange(F.q)))
        pairs = list(zip(a.tolist(), b.tolist()))
        add, mul = oracles.packed_add, oracles.packed_mul
        assert F.add(enc[a], enc[b]).tolist() == [enc[add(p, x, y)] for x, y in pairs]
        assert F.sub(enc[a], enc[b]).tolist() == [
            enc[add(p, x, packed_neg(p, y))] for x, y in pairs
        ]
        assert F.mul(enc[a], enc[b]).tolist() == [enc[mul(F, x, y)] for x, y in pairs]
        assert F.neg(enc).tolist() == [enc[packed_neg(p, x)] for x in range(F.q)]
        squares = {mul(F, x, x) for x in range(1, F.q)}
        assert F.chi.take(enc, mode="clip").tolist() == [
            0 if x == 0 else 1 if x in squares else -1 for x in range(F.q)
        ]
        # a product of three factors, and a quotient by a product of two
        c = b * 7 % F.q
        abc = [mul(F, mul(F, x, y), z) for (x, y), z in zip(pairs, c)]
        assert F.mul(enc[a] + enc[b], enc[c]).tolist() == [enc[v] for v in abc]
        nz = (b > 0) & (c > 0)
        x, y, z = enc[a][nz], enc[b][nz], enc[c][nz]
        assert (F.div(x, y + z) == F.div(F.div(x, y), z)).all()
        assert (F.mul(F.div(x, y), y) == x).all()

    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_the_kernel_over_f3n(self, name, n):
        F = make_field(3, n)
        rows, _ = _orbit_fibers(F, n, curve_coefficients(form(name), 3))
        # count_points does not route n = 5, 6: their rows fit one kernel chunk
        counts, jacobian = count._row_counts(F, rows)
        assert counts.tolist() == _fiber_counts(F, rows).tolist()
        assert jacobian > len(rows) // 2

    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("p", [101, 1009])
    def test_bsgs_on_every_smooth_fiber(self, name, p):
        F = make_field(p, 1)
        rows, _ = _orbit_fibers(F, 1, curve_coefficients(form(name), p))
        kernel = _fiber_counts(F, rows)
        for r in range(2):
            smooth, N, proved = smooth_points(F, rows, r)
            assert N[proved].tolist() == kernel[smooth][proved].tolist()
            assert proved.sum() > smooth.sum() // 2

    def test_two_multiples_in_the_interval_leave_the_row_unresolved(self):
        # narrowing the interval to |t| <= 33 would find 1040 alone and accept it
        p = 1009
        F = make_field(p, 1)
        row = np.array([[F.encode(c) for c in ORDER_80_FIBER]])
        assert _fiber_counts(F, row).tolist() == [960]
        a2, a4, a6, smooth = count._jacobians(F, row)
        assert smooth.tolist() == [True]
        x = F.encode(6)
        rhs = F.add(F.add(F.mul(F.mul(x, x), x), F.mul(a2, F.mul(x, x))), F.add(F.mul(a4, x), a6))
        assert rhs[0] % 2 == 0 and rhs[0] != F.zero
        P = (np.array([x]), rhs // 2)
        E = count._Curves(F, a2, a4)
        assert E.mul(80, P)[0].tolist() == [-1] and E.mul(40, P)[0].tolist() != [-1]
        assert E.mul(16, P)[0].tolist() != [-1]
        _, proved = count._bsgs(E, p, P)
        assert proved.tolist() == [False]
        # the route's first point leaves it open too; its second proves 960
        _, proved = count._bsgs(E, p, count._point(F, a2, a4, a6, 0)[0])
        assert proved.tolist() == [False]
        Q, found = count._point(F, a2, a4, a6, 1)
        N, proved = count._bsgs(E, p, Q)
        assert found.tolist() == proved.tolist() == [True] and N.tolist() == [960]

    def test_singular_fibers_go_to_the_kernel(self, monkeypatch):
        p = 1009
        F = make_field(p, 1)

        def expand(*roots, lead=1):
            coeffs = [lead]
            for r in roots:  # times (u - r), ascending coefficients
                coeffs = [(lo - r * hi) % p for lo, hi in zip([0] + coeffs, coeffs + [0])]
            return coeffs + [0] * (5 - len(coeffs))

        cases = [
            (expand(1, 1, 2, 3), False),  # a double root
            ([0] * 5, False),  # F = 0
            (expand(0, 0, 1, 2), False),  # a double root at u = 0
            (expand(1, 2), False),  # degree 2: a double root at infinity
            (expand(1, 1, 2, 2, lead=2), False),  # 2 (u - 1)^2 (u - 2)^2
            (expand(1, 2, 3), True),  # degree 3: a simple root at infinity
            (expand(1, 2, 3, 4, lead=5), True),
        ]
        rows = np.array([[F.encode(c) for c in coeffs] for coeffs, _ in cases])
        assert count._jacobians(F, rows)[3].tolist() == [s for _, s in cases]
        seen = []
        kernel = count._fiber_counts

        def recording_kernel(F, rows):
            seen.extend(rows.tolist())
            return kernel(F, rows)

        monkeypatch.setattr(count, "_fiber_counts", recording_kernel)
        counts, jacobian = count._row_counts(F, rows)
        assert counts.tolist() == [oracles.fiber_count(F, coeffs) for coeffs, _ in cases]
        assert jacobian == 2
        assert seen == rows[:5].tolist()

    @pytest.mark.parametrize("p,n", [(5, 2), (3, 3)])
    def test_a_count_with_every_fiber_singular(self, monkeypatch, capsys, p, n):
        # f = g^2: every fiber is the square of a binary quadratic, so the route
        # proves nothing and the kernel counts every row, 3 rows per chunk
        g = parse_poly("x0^2*y0^2 + x0*x1*y0*y1 + 2*x1^2*y1^2 + x0^2*y1^2 - x1^2*y0*y1", PP)
        f = g * g
        monkeypatch.setattr(count, "CELLS", 3 * (p**n - 1))
        routed, chunks = [], []
        route, horner = count._jacobian_counts, Field.horner

        def recording_route(F, rows):
            counts, proved = route(F, rows)
            routed.append((len(rows), int(proved.sum())))
            return counts, proved

        def recording_horner(F, coeffs, x, acc):
            if len(x) == F.L:
                chunks.append(len(coeffs))
            return horner(F, coeffs, x, acc)

        monkeypatch.setattr(count, "_jacobian_counts", recording_route)
        monkeypatch.setattr(Field, "horner", recording_horner)
        assert count_points(f, p, n) == count_points_bruteforce(f, p, n)
        rows = len(frobenius_orbits(p, n)[0]) + 2
        assert routed == [(rows, 0)]
        assert chunks == [3] * (rows // 3) + [rows % 3] * (rows % 3 > 0)
        assert f"(0 Jacobian, {rows} kernel)" in capsys.readouterr().err

    @pytest.mark.parametrize("p,routed", [(359, False), (367, True)])
    def test_a_count_in_one_chunk_skips_the_route(self, capsys, p, routed):
        f = form("b44")
        F = make_field(p, 1)
        rows, weights = _orbit_fibers(F, 1, curve_coefficients(f, p))
        assert (len(rows) * F.L > count.CELLS) == routed  # 360 x 358 and 368 x 366 cells
        assert count_points(f, p, 1) == _fiber_counts(F, rows) @ weights
        jacobian = re.search(r"\((\d+) Jacobian", capsys.readouterr().err)[1]
        assert (int(jacobian) > 0) == routed

    def test_passes_of_a_few_rows_give_the_same_counts(self, monkeypatch):
        p = 1009
        F = make_field(p, 1)
        rows, _ = _orbit_fibers(F, 1, curve_coefficients(form("b44"), p))
        whole = count._row_counts(F, rows)
        monkeypatch.setattr(count, "CURVES", 7)  # 1,010 rows: 145 passes, the last of 2 rows
        counts, jacobian = count._row_counts(F, rows)
        assert counts.tolist() == whole[0].tolist() == _fiber_counts(F, rows).tolist()
        assert jacobian == whole[1]

    def test_unresolved_rows_go_to_the_kernel(self, monkeypatch):
        p = 1009
        F = make_field(p, 1)
        rows, _ = _orbit_fibers(F, 1, curve_coefficients(form("signed"), p))
        expected = _fiber_counts(F, rows).tolist()
        resolved = []
        for points in (0, 1, 2):
            monkeypatch.setattr(count, "POINTS", points)
            counts, jacobian = count._row_counts(F, rows)
            assert counts.tolist() == expected
            resolved.append(jacobian)
        assert resolved[0] == 0 < resolved[1] < resolved[2] < len(rows)


SMALL_FIELDS = [(p, n) for p in (3, 5, 7) for n in range(1, 5)] + [(1009, 1)]


class TestPrimitiveModulus:
    @pytest.mark.parametrize("p,n", SMALL_FIELDS)
    def test_first_candidate_whose_root_has_order_q_minus_1(self, p, n):
        f = primitive_modulus(p, n)
        # x^n + c_{n-1} x^{n-1} + ... + c_1 x - t, in lex order on (c_{n-1}, ..., c_1, t)
        candidates = [(-t % p, *reversed(c), 1) for *c, t in product(range(p), repeat=n)]
        first = candidates.index(f)
        assert oracles.root_order(p, f) == p**n - 1
        assert all(oracles.root_order(p, g) != p**n - 1 for g in candidates[:first])

    @pytest.mark.parametrize("p,n", SMALL_FIELDS)
    def test_x_is_the_generator(self, p, n):
        F = make_field(p, n)
        x = p if n > 1 else -F.modulus[0] % p  # packed
        assert F.log[x] == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 1009])
    def test_a_prime_field_is_built_on_its_least_primitive_root(self, p):
        root = next(r for r in range(1, p) if len({pow(r, k, p) for k in range(p - 1)}) == p - 1)
        assert primitive_modulus(p, 1) == (p - root, 1)

    def test_prime_fields_match_the_digit_list_search(self):
        # int powers at n = 1 against the candidate search they replace
        primes = [p for p in range(3, 3100) if is_prime(p)]
        assert len(primes) == 441
        assert [p for p in primes
                if primitive_modulus(p, 1) != field_module._search_primitive(p, 1)] == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_characteristic_2_is_refused(self, n):
        with pytest.raises(BundleCertError, match="needs odd characteristic"):
            make_field(2, n)
        for counter in (count_points, count_points_bruteforce):
            with pytest.raises(BundleCertError, match="needs odd characteristic"):
                counter(form("b44"), 2, n)


class TestFieldTables:
    @pytest.mark.parametrize(
        "p,n",
        [(3, n) for n in range(1, 8)] + [(5, n) for n in range(1, 5)]
        + [(7, n) for n in range(1, 4)] + [(1009, 1)],
    )
    def test_tables_match_the_order_search(self, p, n):
        F = make_field(p, n)
        _, log, zech = field_tables(p, n, F.modulus)
        assert F.log.tolist() == [F.zero if v < 0 else v for v in log]
        # 1 + g^i, through the Zech values of Field.add
        assert F.add(F.const(1), np.arange(F.L)).tolist() == [F.zero if v < 0 else v for v in zech]


def sympy_poly(coeffs, x):
    """A sympy Poly over ZZ from ascending integer coefficients."""
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(coeffs)), x, domain="ZZ")


def ascending(poly):
    return [int(c) for c in reversed(poly.all_coeffs())]


def ratio(a, b):
    """The rational c with a = c * b (ascending lists, trailing zeros trimmed),
    1 when both are zero, None when there is none."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    if not any(b) or len(a) != len(b):
        return 1 if not any(a) and not any(b) else None
    c = a[-1] / b[-1]
    return c if all(x == c * y for x, y in zip(a, b)) else None


class TestDivision:
    def test_matches_sympy(self):
        """poly_divmod_exact gives sympy's rational quotient and remainder when
        that quotient is integral, and (None, None) when it is not."""
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(20261017)
        for _ in range(200):
            a = [rng.randint(-30, 30) for _ in range(rng.randint(1, 13))]
            b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
            b[-1] = b[-1] or rng.choice([-1, 1])
            q, r = poly_divmod_exact(a, b)
            sq, sr = sympy.div(sympy_poly(a, T), sympy_poly(b, T), domain="QQ")
            if any(c.q != 1 for c in sq.all_coeffs()):
                assert (q, r) == (None, None)
                continue
            want_q = ascending(sq) + [0] * (max(1, len(a) - len(b) + 1) - len(sq.all_coeffs()))
            assert q == want_q
            assert r == ascending(sr)

    def test_primitive_remainder_matches_sympy_prem(self):
        """A positive multiple of sympy's pseudo-remainder times sign(lc(b))^(delta+1),
        i.e. of the rational remainder; its content is 1."""
        sympy = pytest.importorskip("sympy")
        T = sympy.Symbol("T")
        rng = random.Random(20261018)
        negative_scales = 0
        for _ in range(200):
            b = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
            b[-1] = b[-1] or rng.choice([-3, -1, 2])
            a = [rng.randint(-30, 30) for _ in range(len(b) + rng.randint(0, 6))]
            a[-1] = a[-1] or 1
            r = primitive_remainder(a, b)
            prem = ascending(sympy.prem(sympy_poly(a, T), sympy_poly(b, T)))
            delta = len(a) - len(b)
            sign = 1 if b[-1] > 0 or delta % 2 else -1
            negative_scales += sign < 0
            assert ratio(r, [sign * c for c in prem]) > 0
            assert math.gcd(*r) in (0, 1)
        assert negative_scales > 20  # lc(b)^(delta+1) < 0 is exercised


class TestCyclotomics:
    def test_euler_phi_matches_cyclotomic_degree(self):
        for k in range(1, 200):
            assert euler_phi(k) == len(cyclotomic(k)) - 1

    def test_euler_phi_matches_a_gcd_count(self):
        # cyclotomics_up_to(20) reads every k <= 20^2; the 2 * 20^2 scan that
        # test_the_scan_bound_drops_no_order compares it with reads up to 800
        for k in range(1, 801):
            assert euler_phi(k) == sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)

    def test_the_scan_bound_drops_no_order(self):
        """k <= max(6, d^2) finds every k that the bound phi(k) >= sqrt(k/2),
        which holds for every k, lets in: k <= 2 d^2."""
        for d in range(1, 21):
            wide = tuple(k for k in range(1, 2 * d * d + 1) if euler_phi(k) <= d)
            assert cyclotomics_up_to(d) == wide

    def test_every_witness_is_a_root_of_its_cyclotomic(self):
        for k in cyclotomics_up_to(20):
            cyc = cyclotomic(k)
            ell, w1, w2 = cyclotomic_witness(k)
            assert ell > WITNESS_FLOOR and (ell - 1) % k == 0 and is_prime(ell)
            assert not any(is_prime(m) for m in range(ell - k, WITNESS_FLOOR, -k))  # the least
            assert [d for d in range(1, k + 1) if pow(w1, d, ell) == 1][0] == k
            assert _value(cyc, w1) % ell == 0 and _value(cyc, w2) % ell == 0
            # two roots that give two conditions on the middle coefficient
            assert (w2 != w1) == (k > 2)
            assert (w2 * w1 % ell != 1) == (euler_phi(k) > 2)

    def test_is_prime_matches_a_sieve(self):
        sieve = [False, False] + [True] * 1998
        for d in range(2, 45):
            if sieve[d]:
                sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
        assert [is_prime(n) for n in range(-2, 2000)] == [False, False] + sieve

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
    monkeypatch.setattr(zeta, "count_points", lambda f, p, n: counts[n - 1])
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


# --- the integer circle test against the rational oracle and sympy -------------------

# (c, d) with c^2 < 4d: u^2 - cu + d has complex roots
COMPLEX_G_FACTORS = [(1, 3), (0, 1), (2, 2), (-1, 1), (3, 3)]


def complex_quartic(c, d, p):
    """T^4 - c p T^3 + (d + 2) p^2 T^2 - c p^3 T + p^4, ascending: its G-factor
    is u^2 - cu + d, with complex roots when c^2 < 4d."""
    return [p**4, -c * p**3, (d + 2) * p * p, -c * p, 1]


def weil_inputs():
    """(kind, p, sign, coeffs, on_circle, unit_roots) for seeded products of
    T^2 - aT + p^2, times T^2 - p^2 for sign -1 and T + p for odd degree.

    Kinds: generic a in (-2p, 2p); repeated (a from three values: roots of G
    of higher multiplicity); endpoint (a = 2p and a = -2p: roots of G at
    u = +-2); off (one |a| > 2p: real roots off the circle); complex (a
    generic product times `complex_quartic`: two complex roots of G, drawn
    after the other kinds so that their inputs stay as they were).
    """
    rng = random.Random(20261018)
    out = []
    kinds = [(p, kind) for p in (3, 5, 7) for kind in ("generic", "repeated", "endpoint", "off")]
    for p, kind in kinds + [(p, "complex") for p in (3, 5, 7)]:
        special = (0, p, -p, 2 * p, -2 * p)
        inner = range(-2 * p + 1, 2 * p)
        for sign, odd in product((1, -1), (False, True)):
            extra = [[-p * p, 0, 1]] * (sign < 0) + [[p, 1]] * odd
            if kind == "complex":
                extra.append(complex_quartic(*rng.choice(COMPLEX_G_FACTORS), p))
            n_quads = (20 - sum(len(f) - 1 for f in extra)) // 2
            pool = rng.sample(inner, 3) if kind == "repeated" else inner
            a = [rng.choice(pool) for _ in range(n_quads)]
            if kind == "endpoint":
                a[:2] = [2 * p, -2 * p]
            if kind == "off":
                a[0] = rng.choice([-1, 1]) * (2 * p + rng.randint(1, 3))
            Q = [1]
            for f in extra + [quad(x, p) for x in a]:
                Q = poly_mul(Q, f)
            units = 2 * (sign < 0) + odd + 2 * sum(x in special for x in a)
            out.append((kind, p, sign, Q, kind not in ("off", "complex"), units))
    return out


WEIL_INPUTS = weil_inputs()


def chebyshev_reduction(coeffs, p, sign):
    """G(u) with S^(-e/2) R(S) = G(S + 1/S), by sympy division and Chebyshev
    polynomials, for R(S) = Q(pS); None when R fails a division or is not
    self-inversive."""
    sympy = pytest.importorskip("sympy")
    S, u = sympy.symbols("S u")
    R = sympy_poly([c * p**j for j, c in enumerate(coeffs)], S)
    if sign < 0:
        R, rem = sympy.div(R, sympy.Poly(S**2 - 1, S))
        if not rem.is_zero:
            return None
    if R.degree() % 2:
        R, rem = sympy.div(R, sympy.Poly(S + 1, S))
        if not rem.is_zero:
            return None
    r = ascending(R)
    if r != r[::-1]:
        return None
    h = len(r) // 2
    G = r[h] + sum(r[h + m] * 2 * sympy.chebyshevt_poly(m, u / 2) for m in range(1, h + 1))
    return sympy.Poly(G, u, domain="ZZ")


def circle_by_sympy(coeffs, p, sign) -> bool:
    G = chebyshev_reduction(coeffs, p, sign)
    if G is None:
        return False
    sq = G.sqf_part()
    return sq.count_roots(-2, 2) == sq.degree()


def unit_roots_by_sympy(coeffs, p) -> int:
    """Total degree of the cyclotomic factors of Q(pT), from sympy's factorization."""
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("T")
    _, factors = sympy_poly([c * p**j for j, c in enumerate(coeffs)], T).factor_list()
    return sum(f.degree() * m for f, m in factors if f.is_cyclotomic)


class TestCircleOracle:
    @pytest.mark.parametrize("kind,p,sign,Q,on_circle,units", WEIL_INPUTS)
    def test_circle_test_matches_both_oracles(self, kind, p, sign, Q, on_circle, units):
        assert all_roots_on_circle(Q, p, sign) == on_circle
        assert oracles.all_roots_on_circle(Q, p, sign) == on_circle
        assert circle_by_sympy(Q, p, sign) == on_circle
        # the other sign fails the division by S^2 - 1 or its functional equation
        assert not all_roots_on_circle(Q, p, -sign)
        assert not oracles.all_roots_on_circle(Q, p, -sign)

    @pytest.mark.parametrize("kind,p,sign,Q,on_circle,units", WEIL_INPUTS)
    def test_squarefree_part_and_sturm_count_match_sympy(self, kind, p, sign, Q, on_circle, units):
        """On G with its roots at +-2 divided out, the one chain ends in
        gcd(G, G'), G / gcd is the squarefree part, and V(-2) - V(2) counts
        the distinct roots in (-2, 2)."""
        sympy = pytest.importorskip("sympy")
        G0 = chebyshev_reduction(Q, p, sign)
        u = G0.gen
        G = G0
        for root in (2, -2):
            while G.eval(root) == 0:
                G = G.exquo(sympy.Poly(u - root, u))
        g = ascending(G)
        chain = _sturm_chain(g)
        assert ratio(chain[-1], ascending(sympy.gcd(G, G.diff(u)))) is not None
        sq, rem = oracles.poly_divmod(g, chain[-1])
        assert not any(rem)
        assert ratio(sq, ascending(G.sqf_part())) is not None
        assert ratio(sq, oracles._squarefree_part(g)) is not None
        if kind == "repeated":
            assert len(chain[-1]) > 1

        def changes(x):
            signs = [v > 0 for v in (sympy_poly(q, u).eval(x) for q in chain) if v]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        at_ends = (G0.eval(-2) == 0) + (G0.eval(2) == 0)
        assert changes(-2) - changes(2) == G0.sqf_part().count_roots(-2, 2) - at_ends
        assert changes(-2) - changes(2) == oracles._sturm_count(sq, Fraction(-2), Fraction(2))

    def test_the_chain_decides_some_complex_cases(self):
        """Some G with two complex roots pass both refusals."""
        pytest.importorskip("sympy")
        refused = [_refused(ascending(chebyshev_reduction(Q, p, sign)))
                   for kind, p, sign, Q, _, _ in WEIL_INPUTS if kind == "complex"]
        assert refused and not all(refused)

    @pytest.mark.parametrize("kind,p,sign,Q,on_circle,units", WEIL_INPUTS)
    def test_unit_root_count_matches_sympy(self, kind, p, sign, Q, on_circle, units):
        assert unit_root_count(Q, p) == units
        assert oracles.unit_root_count(Q, p) == units
        assert unit_roots_by_sympy(Q, p) == units

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_family_completions_match_the_rational_solve(self, p):
        """Degree-20 plus-sign families: the middle coefficient of each Q made free."""
        mid = 10
        found_true_middle = 0
        for kind, q_p, sign, Q, on_circle, units in WEIL_INPUTS:
            if q_p != p or sign != 1 or len(Q) != 21:
                continue
            coeffs = list(Q)
            coeffs[mid] = 0
            got = family_completions(coeffs, p)
            assert got == oracles.family_completions(coeffs, p)
            for e, completed in got:
                assert unit_roots_by_sympy(completed, p) > 0
            if units:
                assert (Q[mid], tuple(Q)) in got
                found_true_middle += 1
        assert found_true_middle > 0

    def test_family_completions_refuse_a_non_integral_middle(self):
        """Without the functional equation, r0 + e r1 = 0 mostly has a rational,
        non-integral solution (for Phi_1, e = -W0(1) / p^mid)."""
        rng = random.Random(11)
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            coeffs = [rng.randint(-5, 5) for _ in range(20)] + [1]
            coeffs[10] = 0
            assert family_completions(coeffs, p) == oracles.family_completions(coeffs, p)


# --- the refusals: necessary conditions for every root of G in [-2, 2] -------------

def from_u(G):
    """r(S) = S^h G(S + 1/S), ascending, for G of degree h."""
    h = len(G) - 1
    r = [0] * (2 * h + 1)
    for m, c in enumerate(G):
        for i in range(m + 1):
            r[h + m - 2 * i] += c * math.comb(m, i)
    return r


def to_u(r):
    """G with S^h G(S + 1/S) = r(S), for a palindromic r of degree 2h: peel
    c (S + 1/S)^m off the top."""
    r, h = list(r), (len(r) - 1) // 2
    G = [0] * (h + 1)
    for m in range(h, -1, -1):
        G[m] = c = r[h + m]
        for i in range(m + 1):
            r[h + m - 2 * i] -= c * math.comb(m, i)
    assert not any(r)
    return G


def weil_from_u(G, p):
    """Q(T) = p^(2h) r(T/p): a monic Weil polynomial of sign +1 whose roots
    lie on |T| = p iff those of G are real in [-2, 2]."""
    r = from_u(G)
    return [c * p ** (len(r) - 1 - j) for j, c in enumerate(r)]


# psi_k, the minimal polynomial of 2 cos(2 pi / k), for phi(k) <= 8: u - 2,
# u + 2, u + 1, u, u - 1 (k = 1, 2, 3, 4, 6) and every 2 cos(2 pi j / k) beyond
IN_INTERVAL = [[-2, 1], [2, 1]] + [to_u(cyclotomic(k)) for k in range(3, 31) if euler_phi(k) <= 8]
# factors of G with a root off [-2, 2]: real outside it, or complex
OFF_INTERVAL = [[-3, 1], [3, 1], [-5, 0, 1], [1, -3, 1], [1, 0, 1], [3, -1, 1], [1, 1, 1]]
FACTORS = st.sampled_from(IN_INTERVAL)


class TestRefusals:
    def test_the_factors_reduce_the_cyclotomics(self):
        linear = sorted(f for f in IN_INTERVAL if len(f) == 2)
        assert linear == sorted([-a, 1] for a in range(-2, 3))
        for k in range(3, 31):
            if euler_phi(k) <= 8:
                assert from_u(to_u(cyclotomic(k))) == list(cyclotomic(k))

    @given(st.one_of(
        st.lists(FACTORS, min_size=1, max_size=6),
        st.tuples(FACTORS, st.integers(1, 10)).map(lambda fm: [fm[0]] * fm[1]),
    ), st.sampled_from([3, 5, 7]))
    @example([[-2, 1]] * 10, 3)
    @example([[0, 1]] * 3, 5)
    @example([[1, 1]] * 2, 7)
    @settings(max_examples=150, deadline=None)
    def test_never_refuse_a_g_with_every_root_in_the_interval(self, factors, p):
        """Products of (u - a), a in {-2, ..., 2}, and of psi_k, repeats allowed;
        pure powers (u - a)^m meet Newton's inequalities with equality."""
        G = reduce(poly_mul, factors, [1])
        assert not _refused(G)
        assert all_roots_on_circle(weil_from_u(G, p), p, 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle_on_seeded_mixtures(self, seed):
        """Both signs: sign -1 multiplies Q by T^2 - p^2."""
        rng = random.Random(seed)
        p = rng.choice([3, 5, 7])
        factors, degree = [], rng.randint(1, 9)
        while sum(len(f) - 1 for f in factors) < degree:
            factors.append(rng.choice(OFF_INTERVAL if rng.random() < 0.2 else IN_INTERVAL))
        Q = weil_from_u(reduce(poly_mul, factors, [1]), p)
        on_circle = not any(f in OFF_INTERVAL for f in factors)
        for sign, q in ((1, Q), (-1, poly_mul(Q, [-p * p, 0, 1]))):
            assert all_roots_on_circle(q, p, sign) == on_circle
            assert oracles.all_roots_on_circle(q, p, sign) == on_circle


# --- the witness filter: a residue mod ell rules a cyclotomic out --------------------

ORDERS = list(cyclotomics_up_to(20))


def with_cyclotomic_factors(p, orders, filler):
    """(Q, units): the product of p^phi Phi_k(T/p) over the orders that fit
    in degree 20, times the last coefficients of the filler, which bring the
    degree to 20; units is the total degree of the cyclotomic factors."""
    Q, units = [1], 0
    for k in orders:
        if units + euler_phi(k) <= 20:
            Q, units = poly_mul(Q, scaled_cyclotomic(k, p)), units + euler_phi(k)
    return poly_mul(Q, filler[units:]), units


def family_of(Q):
    """The plus-sign family of Q: its free slot T^10 holds 0."""
    coeffs = list(Q)
    coeffs[10] = 0
    return coeffs


class TestWitnessFilter:
    @given(
        st.sampled_from([3, 5, 7]),
        st.lists(st.sampled_from(ORDERS), max_size=4),
        st.lists(st.integers(-60, 60), min_size=21, max_size=21),
        st.sampled_from([-2, -1, 1, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle_on_degree_20_polynomials(self, p, orders, filler, lead):
        """Products of scaled cyclotomics (none when `orders` is empty) and a
        random integer filler; unit roots and family completions both match
        trial division by every cyclotomic."""
        Q, units = with_cyclotomic_factors(p, orders, filler[:-1] + [lead])
        assert len(Q) == 21
        got = unit_root_count(Q, p)
        assert got == oracles.unit_root_count(Q, p) >= units
        completions = family_completions(family_of(Q), p)
        assert completions == oracles.family_completions(family_of(Q), p)
        if got:
            assert (Q[10], tuple(Q)) in completions

    @pytest.mark.parametrize(
        "k,twice", [(k, False) for k in (3, 5, 7, 12, 15, 16, 11, 25)]
        + [(k, True) for k in (3, 5, 7, 12, 15, 11)],
    )
    def test_a_zero_residue_without_the_divisor(self, k, twice):
        """w = Phi_k^(1 + twice) A + ell Phi_k^twice C vanishes at the witness root,
        after one division when twice, yet Phi_k divides it only `twice` times."""
        rng = random.Random(k)
        ell, root, _ = cyclotomic_witness(k)
        cyc = list(cyclotomic(k))
        phi = euler_phi(k)
        base = poly_mul(cyc, cyc) if twice else cyc
        A = [rng.randint(-9, 9) for _ in range(20 - len(base) + 1)] + [1]
        C = [rng.randint(-9, 9) for _ in range(phi)]
        C[0] = C[0] or 1
        C = poly_mul(cyc, C) if twice else C
        w = [a + ell * c for a, c in zip(poly_mul(base, A), C + [0] * 21)]
        assert len(w) == 21 and _value(w, root) % ell == 0
        assert any(poly_divmod_exact(w, cyc)[1]) != twice
        for p in (3, 5, 7):
            Q = [c * p ** (20 - j) for j, c in enumerate(w)]  # Q(pT) = p^20 w
            assert unit_root_count(Q, p) == oracles.unit_root_count(Q, p) >= phi * twice

    @pytest.mark.parametrize("k", [5, 8, 12, 7, 9, 15, 16, 11])
    def test_agreeing_residues_without_an_integer_middle(self, k):
        """W0 = p^20 (Phi_k A - m T^10) + p^(phi - 1) (T^10 mod Phi_k) makes
        Phi_k | W0 + e p^10 T^10 for e = m p^10 - p^(phi - 11) alone: not an
        integer, though every pair of roots mod ell agrees on it."""
        rng = random.Random(k)
        cyc = list(cyclotomic(k))
        phi = euler_phi(k)
        r1 = poly_divmod_exact([0] * 10 + [1], cyc)[1]
        ell, w1, w2 = cyclotomic_witness(k)
        for p in (3, 5, 7):
            A = [rng.randint(-9, 9) for _ in range(20 - phi)] + [1]
            base = poly_mul(cyc, A)
            m = base[10]
            W0 = [p**20 * c for c in base]
            W0[10] = 0
            for j, c in enumerate(r1):
                W0[j] += p ** (phi - 1) * c
            Q0 = [c // p**j for j, c in enumerate(W0)]
            assert [c * p**j for j, c in enumerate(Q0)] == W0
            assert _value(W0, w1) * pow(w2, 10, ell) % ell == _value(W0, w2) * pow(w1, 10, ell) % ell
            got = family_completions(Q0, p)
            assert got == oracles.family_completions(Q0, p)
            for e, coeffs in got:
                assert any(poly_divmod_exact([c * p**j for j, c in enumerate(coeffs)], cyc)[1])

    def test_p_is_a_witness_prime(self):
        """p = 65537 is the witness prime of Phi_4, Phi_8, ..., Phi_64: there
        every residue of a Weil polynomial is Q(0) = p^20 = 0, and a random
        polynomial can still be ruled out."""
        p = 65537
        assert all(cyclotomic_witness(k)[0] == p for k in (1, 2, 4, 8, 16, 32, 64))
        rng = random.Random(65537)
        for a, orders in [
            ([0, 0, 2 * p, -p, 1, 5, 11, -4], [8]),
            ([0, p, 3, -2 * p, 6, 100], [16]),
            ([7, -9], [32]),
        ]:
            Q = [1]
            for f in [scaled_cyclotomic(k, p) for k in orders] + [quad(x, p) for x in a]:
                Q = poly_mul(Q, f)
            assert len(Q) == 21
            units = sum(map(euler_phi, orders)) + 2 * sum(x in (0, p, -p, 2 * p, -2 * p) for x in a)
            assert unit_root_count(Q, p) == oracles.unit_root_count(Q, p) == units
            completions = family_completions(family_of(Q), p)
            assert completions == oracles.family_completions(family_of(Q), p)
            assert (Q[10], tuple(Q)) in completions
        for _ in range(5):
            Q = [rng.randint(-9, 9) for _ in range(20)] + [1]
            assert unit_root_count(Q, p) == oracles.unit_root_count(Q, p)
            cand = family_of(Q)
            assert family_completions(cand, p) == oracles.family_completions(cand, p)


class TestNewton:
    def test_non_integral_value_is_refused(self):
        with pytest.raises(BundleCertError, match="1/2"):
            newton_elementary_from_power_sums([1, 0])


# --- the one shape: 9 counts, a tenth to pin, every trace audited -------------------

WITNESS_P = 3
WITNESS_A = [5, -3, -5, 2, -1, 2, -6, -2, 6, 4]


def witness_counts():
    """N_n = 1 + 3^(2n) + 2*3^n + p_n(Q), n = 1..10, for Q = prod (T^2 - aT + 9)."""
    Q = [1]
    for a in WITNESS_A:
        Q = poly_mul(Q, quad(a, WITNESS_P))
    p = WITNESS_P
    return [1 + p ** (2 * n) + 2 * p**n + s for n, s in enumerate(power_sums(Q, 10), start=1)]


class TestWeilAudit:
    def test_the_tenth_count_is_audited(self):
        # the shift is a multiple of 10, so Newton's identities stay integral and
        # only the audit can refuse it: |t_10| ~ 5.9e11 > 22 * 3^10 = 1,299,078
        counts = witness_counts()
        counts[9] += 10**7 * WITNESS_P**10
        profile = zeta.assemble_charpoly(counts[:9], WITNESS_P)
        assert zeta.rank_upper_bound(profile).bound == 8
        with pytest.raises(BundleCertError, match=r"t_10 = \d+ violates the Weil bound"):
            zeta.resolve_family_with_count(profile, counts[9])

    @pytest.mark.parametrize("bad", [1, 3, 8])
    def test_a_bad_trace_stops_the_counts(self, monkeypatch, bad):
        counts = witness_counts()
        counts[bad - 1] += 10**6 * WITNESS_P**bad  # |t_bad| > 22 * 3^bad
        made = []

        def count(f, p, n):
            made.append(n)
            return counts[n - 1]

        monkeypatch.setattr(zeta, "count_points", count)
        with pytest.raises(BundleCertError,
                           match=rf"t_{bad} = \d+ violates the Weil bound 22\*3\^{bad}"):
            zeta.run_picard_bound(None, WITNESS_P)
        assert made == list(range(1, bad + 1))

    def test_the_first_count_is_audited(self):
        counts = witness_counts()[:9]
        counts[0] += 22 * WITNESS_P + 1  # t_1 = 8 + 67 > 22 * 3
        with pytest.raises(BundleCertError, match=r"t_1 = 75 violates the Weil bound"):
            zeta.assemble_charpoly(counts, WITNESS_P)


class TestPinnedMiddle:
    def test_a_tenth_count_off_the_circle_discards_the_family(self):
        # a = 2 twice puts a double root of the reduced polynomial at u = 2/3;
        # ten more points lower e_10 by 1, which moves that pair of roots off
        # the real line, so the pinned completion fails the circle test
        counts = witness_counts()
        profile = zeta.assemble_charpoly(counts[:9], WITNESS_P)
        for extra, status in [(0, "surviving"), (10, "discarded")]:
            resolved = zeta.resolve_family_with_count(profile, counts[9] + extra)
            (pinned,) = [c for c in resolved.candidates if c["sign"] == 1]
            assert (pinned["kind"], pinned["status"]) == ("complete", status)
            coeffs = pinned["coeffs_ascending"]
            assert oracles.all_roots_on_circle(coeffs, WITNESS_P, 1) == (extra == 0)
        assert pinned["reason"] == "pinned middle fails the circle test"
        assert [c["sign"] for c in resolved.surviving()] == [-1]

    @pytest.mark.parametrize("n", [8, 10])
    def test_other_count_lengths_are_refused(self, n):
        with pytest.raises(BundleCertError, match=f"expected 9 counts, got {n}"):
            zeta.assemble_charpoly(witness_counts()[:n], WITNESS_P)


class TestShape:
    @pytest.mark.parametrize("k_alg", [0, 1, 3, 4])
    def test_other_k_alg_is_refused(self, k_alg):
        with pytest.raises(ValueError, match="k_alg must be 2"):
            zeta.assemble_charpoly(witness_counts()[:9], WITNESS_P, k_alg=k_alg)

    def test_k_alg_2_by_keyword_is_the_default(self):
        counts = witness_counts()[:9]
        by_keyword = zeta.assemble_charpoly(counts, WITNESS_P, k_alg=2)
        assert by_keyword.to_document() == zeta.assemble_charpoly(counts, WITNESS_P).to_document()
        assert by_keyword.to_document()["k_alg"] == 2
