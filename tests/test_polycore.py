import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlecert.errors import BundleCertError
from bundlecert.polycore import (
    Ambient,
    RationalPolynomial,
    bareiss_rank,
    monomial_basis,
    parse_poly,
    section_matrix,
)

from bundlecert.cohom import exterior_contraction
from bundlecert.monad import kernel_monad, restrict_to_fiber
from bundlecert.polycore import linalg
from bundlecert.polycore.parse import MAX_NESTING
from bundlecert.polycore.poly import MAX_BASIS

from oracles import (
    add_cell,
    dense,
    dense_section_matrix,
    from_rows,
    gauss_rank,
    homogeneous_multidegree,
    identity_matrix,
    matmul,
    mdeg_leq,
    monomial,
    monomial_count,
    section_row_keys,
    zero_matrix,
)

P2 = Ambient.projective(2)
P2XYZ = Ambient.projective(2, names=("x", "y", "z"))
PP = Ambient.product_projective(1, 1)


def cleared_rows(rows):
    """Each row times the lcm of its denominators: integer rows of the same rank."""
    out = []
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        out.append([int(x * d) for x in row])
    return out


class TestParser:
    def test_monomial_on_product(self):
        p = parse_poly("x1*y1", PP)
        assert homogeneous_multidegree(p) == (1, 1)
        assert len(p.terms) == 1

    def test_zero(self):
        assert parse_poly("0", PP).is_zero()

    def test_two_term_bidegree(self):
        p = parse_poly("x0^4*y0^3*y1 + 2*x0^3*x1*y0^4", PP)
        assert len(p.terms) == 2
        assert p.is_homogeneous_of((4, 4))

    def test_juxtaposition_is_unknown_variable(self):
        with pytest.raises(BundleCertError, match=r"unknown variable 'x1y1' \(at offset 0\)"):
            parse_poly("x1y1", PP)

    def test_syntax_error_offset(self):
        with pytest.raises(BundleCertError, match=r"found '\^' \(at offset 5\)"):
            parse_poly("x0 + ^2", PP)

    def test_unknown_variable_offset(self):
        with pytest.raises(BundleCertError, match=r"unknown variable 'z3' \(at offset 5\)"):
            parse_poly("x0 + z3", PP)

    def test_leading_minus_and_parens(self):
        p = parse_poly("-x0*(x1 + y0*0) + x0*x1", PP)
        assert p.is_zero()

    def test_precedence(self):
        p = parse_poly("x + y*z^2", P2XYZ)
        q = parse_poly("x", P2XYZ) + parse_poly("y", P2XYZ) * parse_poly("z", P2XYZ) ** 2
        assert p == q

    def test_nesting_up_to_the_limit_parses(self):
        text = "(" * MAX_NESTING + "x0" + ")" * MAX_NESTING
        assert parse_poly(text, PP) == parse_poly("x0", PP)

    def test_closed_groups_do_not_add_to_the_nesting(self):
        text = "*".join(["(x0)"] * (2 * MAX_NESTING))
        assert parse_poly(text, PP) == parse_poly(f"x0^{2 * MAX_NESTING}", PP)

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
    def test_nesting_beyond_the_limit_is_refused(self, depth):
        # the offset is that of the first parenthesis beyond the limit
        text = "(x1)*" + "(" * depth + "x0" + ")" * depth
        message = rf"parentheses nested over {MAX_NESTING} deep \(at offset {5 + MAX_NESTING}\)"
        with pytest.raises(BundleCertError, match=message):
            parse_poly(text, PP)

    def test_trailing_garbage(self):
        with pytest.raises(BundleCertError, match=r"trailing input 'x1' \(at offset 3\)"):
            parse_poly("x0 x1", PP)

    @pytest.mark.parametrize("text,message", [
        ("(x0", "expected ')', found end of input (at offset 3)"),
        ("x0 +", "expected integer, variable or '(', found end of input (at offset 4)"),
        ("x0^", "expected 'int', found end of input (at offset 3)"),
    ], ids=["unclosed-parenthesis", "trailing-plus", "trailing-caret"])
    def test_a_cut_expression_names_the_end_of_input(self, text, message):
        with pytest.raises(BundleCertError) as e:
            parse_poly(text, PP)
        assert str(e.value) == message

    def test_a_large_exponent_parses_at_once(self):
        # the power is taken by repeated squaring: 20 products, not 10^6
        start = time.perf_counter()
        p = parse_poly("x0^1000000", P2)
        assert time.perf_counter() - start < 0.2
        assert p.terms == {(1000000, 0, 0): 1}

    @pytest.mark.parametrize("text", ["x0 - 2*x1 + 3", "x0 + x1 + x2", "(x0 - x1)^2 + x2"])
    def test_a_power_is_the_repeated_product(self, text):
        base, power = parse_poly(text, P2), RationalPolynomial.constant(P2, 1)
        for n in range(8):
            assert parse_poly(f"({text})^{n}", P2) == power
            power = power * base

    @given(st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40)
    def test_render_roundtrip(self, c, e1, e2):
        p = monomial(PP, (e1, 0, e2, 1), c) + parse_poly("x0*y0", PP)
        assert parse_poly(p.render(), PP) == p


class TestIntegerCoefficients:
    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5])
    def test_constant_and_scalar_product_refuse_non_integers(self, value):
        with pytest.raises(TypeError):
            RationalPolynomial.constant(PP, value)
        with pytest.raises(TypeError):
            parse_poly("x0*y0", PP) * value
        with pytest.raises(TypeError):
            value * parse_poly("x0*y0", PP)

    def test_arithmetic_takes_polynomials_only(self):
        p = parse_poly("x0*y0", PP)
        for op in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p,
                   lambda: p * 2, lambda: 2 * p):
            with pytest.raises(TypeError):
                op()
        assert p * RationalPolynomial.constant(PP, 2) == parse_poly("2*x0*y0", PP)
        assert RationalPolynomial.zero(PP) != 0

    def test_coefficients_and_values_are_ints(self):
        p = parse_poly("3*x0*y0 - (x1 + 2*x0)^2*y1^2", PP)
        assert all(type(c) is int for c in p.terms.values())
        assert type(p.evaluate((1, 2, 3, 4))) is int


class TestBasis:
    def test_p2_linear(self):
        basis = monomial_basis(P2XYZ, 1)
        assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_bidegree_count(self):
        assert len(monomial_basis(PP, (1, 1))) == 4

    def test_negative_degree_empty(self):
        assert monomial_basis(PP, (-1, 3)) == ()

    def test_counts_match_closed_form(self):
        for d in range(0, 6):
            assert len(monomial_basis(P2, d)) == monomial_count(P2, d)
        for a in range(-2, 4):
            for b in range(-2, 4):
                assert len(monomial_basis(PP, (a, b))) == monomial_count(PP, (a, b))

    def test_a_basis_over_the_cap_is_refused_before_it_is_built(self):
        # C(141, 2) = 9,870 monomials of degree 139 on P2; C(142, 2) = 10,011 at 140
        assert len(monomial_basis(P2, 139)) == 9870 <= MAX_BASIS
        start = time.perf_counter()
        for d in (140, 10**5):
            with pytest.raises(BundleCertError, match=rf"degree \({d},\) has \d+ monomials, "
                                                      rf"over the cap {MAX_BASIS}"):
                monomial_basis(P2, d)
        assert time.perf_counter() - start < 0.1

    def test_order_is_deterministic(self):
        assert monomial_basis(PP, (1, 1)) == (
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        )


class TestAmbient:
    def test_equal_ambients_hash_alike(self):
        a, b = Ambient.product_projective(1, 1), Ambient.product_projective(1, 1)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, PP}) == 1

    def test_other_groups_differ(self):
        assert Ambient.product_projective(1, 1) != Ambient.projective(3)
        assert P2 != P2XYZ and P2 == Ambient.projective(2, names=("x0", "x1", "x2"))
        assert PP != PP.groups


class TestSubstitute:
    """Evaluating the second factor of P1 x P1 at a point, as a fiber does."""

    P1X = Ambient.projective(1, names=("x0", "x1"))

    @staticmethod
    def fiber_entry(text, d, point):
        # the four bidegree-d corner monomials have no common zero, so the
        # row is a valid kernel monad whatever the first entry is
        corners = [f"x{i}^{d}*y{j}^{d}" for i in (0, 1) for j in (0, 1)]
        m = kernel_monad(PP, [(-d, -d)] * 5, [(0, 0)], [[text, *corners]])
        return restrict_to_fiber(m, 2, point).map_b[0][0]

    def test_kill_coordinate(self):
        assert self.fiber_entry("x1*y1", 1, (0, 1)) == parse_poly("x1", self.P1X)

    def test_vanishing(self):
        assert self.fiber_entry("x1*y0", 1, (0, 1)).is_zero()

    def test_arithmetic(self):
        assert self.fiber_entry("x0^4*y0^3*y1", 4, (1, 2)) == parse_poly("2*x0^4", self.P1X)


class TestSectionMatrix:
    def test_linear_forms_rank(self):
        row = [[parse_poly(v, P2XYZ) for v in ("x", "y", "z")]]
        M = section_matrix(P2XYZ, row, [(0,)] * 3, [(1,)], (0,))
        assert (M.rows, M.cols) == (3, 3)
        assert M.rank() == 3

    def test_empty_domain(self):
        row = [[parse_poly(v, P2XYZ) for v in ("x", "y", "z")]]
        M = section_matrix(P2XYZ, row, [(0,)] * 3, [(1,)], (-1,))
        assert M.cols == 0 and M.cols - M.rank() == 0

    def test_rank3_map_at_11_and_22(self):
        # oracle-frozen values; the spec sheet's "kernel 13" is unreachable
        # under any assembly convention (see the decisions ledger)
        b = [[parse_poly(s, PP) for s in ("x0*y0", "x0*y1", "x1*y0", "x1*y1")]]
        M1 = section_matrix(PP, b, [(-1, -1)] * 4, [(0, 0)], (1, 1))
        assert (M1.cols, M1.cols - M1.rank()) == (4, 0)
        M2 = section_matrix(PP, b, [(-1, -1)] * 4, [(0, 0)], (2, 2))
        assert (M2.cols, M2.cols - M2.rank()) == (16, 7)
        assert gauss_rank(dense(M2, section_row_keys(PP, [(0, 0)], (2, 2)))) == M2.rank()

    def test_composite_equals_product(self):
        # functoriality: section matrix of g∘f = (matrix of g) @ (matrix of f)
        rng = random.Random(42)
        for _ in range(20):
            src = [(rng.randint(-2, 0), rng.randint(-2, 0)) for _ in range(2)]
            mid = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(2)]
            tgt = [(rng.randint(2, 3), rng.randint(2, 3))]

            def rand_map(sources, targets):
                rows = []
                for t in targets:
                    row = []
                    for s in sources:
                        d = (t[0] - s[0], t[1] - s[1])
                        basis = monomial_basis(PP, d)
                        if not basis:
                            row.append(RationalPolynomial.zero(PP))
                        else:
                            exps = rng.choice(basis)
                            row.append(monomial(PP, exps, rng.randint(1, 3)))
                    rows.append(row)
                return rows

            f = rand_map(src, mid)
            g = rand_map(mid, tgt)
            gf = [
                [
                    sum(
                        (g[i][k] * f[k][j] for k in range(len(mid))),
                        RationalPolynomial.zero(PP),
                    )
                    for j in range(len(src))
                ]
                for i in range(len(tgt))
            ]
            L = (1, 1)
            Mf = section_matrix(PP, f, src, mid, L)
            Mg = section_matrix(PP, g, mid, tgt, L)
            Mgf = section_matrix(PP, gf, src, tgt, L)
            # each keyed row at its `monomial_basis` position; the rows of f
            # are in the order of the columns of g
            mid_keys, tgt_keys = section_row_keys(PP, mid, L), section_row_keys(PP, tgt, L)
            G, F = from_rows(dense(Mg, tgt_keys)), from_rows(dense(Mf, mid_keys))
            assert dense(matmul(G, F)) == dense(Mgf, tgt_keys)

    def test_matches_dense_reference(self):
        def poly(amb, *terms):
            return sum(
                (monomial(amb, e, c) for e, c in terms),
                RationalPolynomial.zero(amb),
            )

        zero = RationalPolynomial.zero(PP)
        monad = kernel_monad(
            PP, [(-1, 0), (-1, 0), (0, -1), (0, -1)], [(0, 0)], [["x0", "x1", "y0", "y1"]]
        )
        contraction, c_src, c_tgt = exterior_contraction(monad, 2)
        cases = [
            ([[parse_poly(v, P2XYZ) for v in ("x", "y", "z")]], [(0,)] * 3, [(1,)], (2,), P2XYZ),
            (
                [
                    [poly(PP, ((1, 0, 1, 0), 2), ((0, 1, 0, 1), -3)), zero],
                    [poly(PP, ((2, 0, 1, 0), 1), ((1, 1, 0, 1), -7)),
                     poly(PP, ((1, 0, 0, 1), 5))],
                ],
                [(-1, -1), (0, -1)], [(0, 0), (1, 0)], (2, 1), PP,
            ),
            (contraction, c_src, c_tgt, (1, 2), PP),
        ]
        for entries, src, tgt, L, amb in cases:
            M = section_matrix(amb, entries, src, tgt, L)
            expected = dense_section_matrix(amb, entries, src, tgt, L)
            assert dense(M, section_row_keys(amb, tgt, L)) == expected
            assert all(row and all(row.values()) for row in M.entries.values())  # no zero, no empty row
            assert M.rank() == gauss_rank(expected)


BAREISS_KNOWN = [
    ([[2, 4], [1, 2]], 1),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], 3),
]


class TestRank:
    def test_identity(self):
        M = identity_matrix(3)
        assert M.cols - M.rank() == 0

    def test_zero_matrix(self):
        M = zero_matrix(2, 4)
        assert M.cols - M.rank() == 4

    def test_rank_nullity_random_vs_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = cleared_rows([
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ])
            M = from_rows(rows)
            r = M.rank()
            assert r == gauss_rank(rows)
            assert r + (M.cols - M.rank()) == ncols

    def test_bareiss_known(self):
        for rows, rank in BAREISS_KNOWN:
            assert bareiss_rank(from_rows(rows).entries) == rank == gauss_rank(rows)


class TestSparseRank:
    """ExactMatrix.rank (Bareiss elimination on the sparse rows, singletons
    first) against plain fraction elimination."""

    # no singleton row or column: elimination starts on the whole matrix
    CORES = [
        ([[1, 1], [1, 1]], 1),  # 2x2 all-ones block
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3),  # odd cycle, two nonzeros a row
        ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], 3),  # even cycle: singular
        ([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], 2),  # signed cycle: rows sum to 0
        ([[1, 2, 3], [2, 4, 6], [1, 1, 1]], 2),  # rank-deficient dense core
    ]
    # the singleton columns 2 and 4, then 3, are pivots first and leave a 2x2
    # all-ones block
    EMBEDDED_CORE = ([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                      [0, 0, 0, 1, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0]], 4)
    HAND_MADE = CORES + [EMBEDDED_CORE] + BAREISS_KNOWN

    @staticmethod
    def spy_calls(monkeypatch):
        calls = []

        def spy(entries):
            calls.append(entries)
            return bareiss_rank(entries)

        monkeypatch.setattr(linalg, "bareiss_rank", spy)
        return calls

    def test_random_sparse_vs_oracles(self):
        rng = random.Random(11)
        seen = {"zero row": 0, "zero col": 0, "cancelled": 0, "deficient": 0}
        for _ in range(300):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice([0.1, 0.25, 0.5])
            values = cleared_rows([
                [Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
                 if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ])
            M = zero_matrix(nrows, ncols)
            for i in range(nrows):
                for j in range(ncols):
                    if values[i][j]:
                        add_cell(M, i, j, values[i][j])
                    if rng.random() < 0.1:  # a term that cancels the cell to zero
                        v = rng.randint(1, 4)
                        add_cell(M, i, j, v)
                        add_cell(M, i, j, -v)
                        seen["cancelled"] += 1
            assert all(row and all(row.values()) for row in M.entries.values())
            rows = dense(M)
            assert rows == values
            seen["zero row"] += any(not any(r) for r in rows)
            seen["zero col"] += any(not any(col) for col in zip(*rows))
            r = M.rank()
            assert r == gauss_rank(rows)
            assert r + (M.cols - M.rank()) == ncols
            seen["deficient"] += r < min(nrows, ncols)
        assert all(seen.values()), seen

    def test_cores_that_do_not_peel(self, monkeypatch):
        calls = self.spy_calls(monkeypatch)
        for rows, rank in self.CORES:
            M = from_rows(rows)
            assert all(len(row) > 1 for row in M.entries.values())
            assert all(sum(1 for row in rows if row[j]) > 1 for j in range(M.cols))
            calls.clear()
            assert M.rank() == rank == gauss_rank(rows)
            assert calls == [M.entries]

    def test_peeling_reaches_a_core_inside_a_larger_matrix(self):
        rows, rank = self.EMBEDDED_CORE
        assert from_rows(rows).rank() == rank == gauss_rank(rows)
        assert bareiss_rank({0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}) == 1  # the block left

    def test_seeded_vs_oracle(self):
        # sparse and dense, entries up to ±12, and half of them products of an
        # n x r and an r x m matrix with r < min(n, m): rank-deficient on purpose
        rng = random.Random(13)

        def block(nrows, ncols, density):
            return [[rng.randint(-12, 12) if rng.random() < density else 0
                     for _ in range(ncols)] for _ in range(nrows)]

        seen = {"sparse": 0, "dense": 0, "deficient": 0, "large": 0}
        for _ in range(600):
            nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.choice([0.15, 0.4, 1.0])
            if rng.random() < 0.5:
                rows = block(nrows, ncols, density)
            else:
                inner = rng.randint(0, min(nrows, ncols) - 1)
                left, right = block(nrows, inner, density), block(inner, ncols, density)
                rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                        for row in left]
            M = from_rows(rows)
            before = {i: dict(row) for i, row in M.entries.items()}
            r = M.rank()
            assert r == gauss_rank(rows)
            assert M.entries == before  # the input is not consumed
            seen["sparse" if density < 1 else "dense"] += 1
            seen["deficient"] += r < min(nrows, ncols)
            seen["large"] += any(abs(x) > 1 for row in rows for x in row)
        assert min(seen.values()) >= 100, seen

    def test_one_elimination_per_matrix_with_a_cell(self, monkeypatch):
        # singletons alone reach rank 4 and 2 in the last two: still one call
        calls = self.spy_calls(monkeypatch)
        cases = self.HAND_MADE + [([[int(i == j) for j in range(4)] for i in range(4)], 4),
                                  ([[0, 3, 0], [2, 5, 0]], 2)]
        for rows, rank in cases:
            M = from_rows(rows)
            calls.clear()
            assert M.rank() == rank
            assert calls == [M.entries]

    def test_a_matrix_with_no_cell_has_rank_0_without_elimination(self, monkeypatch):
        calls = self.spy_calls(monkeypatch)
        cancelled = zero_matrix(2, 2)
        add_cell(cancelled, 0, 1, 3)
        add_cell(cancelled, 0, 1, -3)
        row = [[parse_poly(v, P2XYZ) for v in ("x", "y", "z")]]
        no_column = section_matrix(P2XYZ, row, [(0,)] * 3, [(1,)], (-1,))
        for M in (zero_matrix(3, 2), zero_matrix(0, 0), cancelled, no_column):
            assert M.entries == {} and M.rank() == 0
        assert (no_column.rows, no_column.cols) == (1, 0)
        assert calls == []

    def test_product_drops_cancelled_cells(self):
        A = from_rows([[1, 1], [2, -3]])
        B = from_rows([[1, 0], [-1, 2]])
        assert matmul(A, B).entries == {0: {1: 2}, 1: {0: 5, 1: -6}}
        assert matmul(from_rows([[1, 1]]), from_rows([[1], [-1]])).entries == {}


def test_mdeg_partial_order():
    assert mdeg_leq((0, -1), (1, 0))
    assert not mdeg_leq((2, 0), (1, 5))
