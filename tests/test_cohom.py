import json
from pathlib import Path

import pytest

from bundlecert import cohom, k3lat
from bundlecert.cohom import (
    exterior_contraction,
    fiber_h0_vanishes,
    h0_exterior,
    h0_homology,
    h0_monad,
    h_line,
    h_line_sum,
    tail_vanish,
)
from bundlecert.errors import BundleCertError, FiberNotVanishingError, UnsupportedOperationError
from bundlecert.monad import (
    KERNEL,
    homology_monad,
    kernel_monad,
    monad_from_document,
    restrict_to_fiber,
)
from bundlecert.polycore import Ambient, RationalPolynomial, section_matrix
from bundlecert.stability import Polarization, certify
from oracles import dense, dense_section_matrix, h0_kernel, mdeg_leq, section_row_keys

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

P2 = Ambient.projective(2, names=("x", "y", "z"))
PP = Ambient.product_projective(1, 1)


def k_rank3():
    return kernel_monad(PP, [(-1, -1)] * 4, [(0, 0)], [["x0*y0", "x0*y1", "x1*y0", "x1*y1"]])


def k_rank3_n2():
    return kernel_monad(
        PP, [(-2, 0), (-2, 0), (0, -2), (0, -2)], [(0, 0)],
        [["x0^2", "x1^2", "y0^2", "y1^2"]],
    )


def e_rank2():
    return homology_monad(
        PP,
        [(0, 0)],
        [(1, 0), (1, 0), (0, 1), (0, 1)],
        [(1, 1)],
        [["x0"], ["x1"], ["y0"], ["y1"]],
        [["y0", "y1", "-x0", "-x1"]],
    )


def euler():
    return kernel_monad(P2, [-1, -1, -1], [0], [["x", "y", "z"]])


def value(res) -> int:
    """The exact h^0 of a result fragment; an interval fails the test."""
    lo, hi = res["h0"]
    assert lo == hi, res["h0"]
    return lo


class TestHLine:
    def test_product_h0(self):
        assert h_line(PP, (2, 3), 0) == 12

    def test_p2_no_middle_cohomology(self):
        for k in range(-6, 6):
            assert h_line(P2, k, 1) == 0

    def test_product_h1(self):
        assert h_line(PP, (-2, 0), 1) == 1

    def test_serre_top(self):
        assert h_line(P2, -4, 2) == h_line(P2, 1, 0) == 3
        assert h_line(PP, (-2, -2), 2) == 1


class TestKernelH0:
    def test_k_rank3_band_zero(self):
        assert value(h0_kernel(k_rank3(), (1, 1))) == 0

    def test_ks2_floor(self):
        ks2 = kernel_monad(P2, [0, 0, 0], [2], [["x^2", "y^2", "z^2"]])
        assert value(h0_kernel(ks2, -1)) == 0

    def test_euler_twist2(self):
        res = h0_kernel(euler(), 2)
        assert value(res) == 3
        w = res["witness"]
        assert w["cols"] == w["rank"] + w["nullity"]  # rank-nullity audit

    def test_zero_map_degenerate(self):
        zero = RationalPolynomial.zero(PP)
        m = kernel_monad(PP, [(1, 0), (0, 1)], [(2, 2)], [[zero, zero]])
        # kernel of the zero map is everything
        assert value(h0_kernel(m, (0, 0))) == h_line(PP, (1, 0), 0) + h_line(PP, (0, 1), 0)


PAPER_TABLE_K1 = [
    # rows k = 5..0, columns l = 0..5
    [0, 0, 2, 12, 22, 32],
    [0, 0, 1, 8, 15, 22],
    [0, 0, 0, 4, 8, 12],
    [0, 0, 0, 0, 1, 2],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]


class TestExterior:
    def test_table_entry_33(self):
        assert value(h0_exterior(k_rank3(), 2, (3, 3))) == 4

    def test_table_corner_55(self):
        assert value(h0_exterior(k_rank3(), 2, (5, 5))) == 32

    def test_s1_matches_kernel(self):
        m = k_rank3()
        for L in [(1, 1), (2, 0), (3, 2)]:
            assert value(h0_exterior(m, 1, L)) == value(h0_kernel(m, L))

    def test_full_first_table(self):
        m = k_rank3()
        got = [[value(h0_exterior(m, 2, (k, l))) for l in range(6)] for k in range(5, -1, -1)]
        assert got == PAPER_TABLE_K1

    def test_diagonal_twists_match_the_euler_characteristic(self):
        # 0 -> Λ^2 K -> Λ^2 B -> K -> 0 with B = O(-1,-1)^4 gives
        # χ(Λ^2 K(t,t)) = 6(t-1)^2 - (4t^2 - (t+1)^2) = 3t^2 - 10t + 7.  For
        # t >= 3 the Koszul resolution O(t-4,t-4) -> O(t-3,t-3)^4 ->
        # O(t-2,t-2)^6 -> K(t,t) -> 0 makes H^0(Λ^2 B(t,t)) -> H^0(K(t,t))
        # onto, and H^1(K(t,t)) = 0, so Λ^2 K(t,t) has no higher cohomology
        # and h^0 = χ.  The section matrices have rank-deficient cores.
        m = k_rank3()
        for t in range(3, 21):
            assert value(h0_monad(m, 2, (t, t))) == 3 * t * t - 10 * t + 7, t

    def test_rank_one_cokernel_required(self):
        m = kernel_monad(
            PP, [(-1, -1)] * 4, [(0, 0), (0, 0)],
            [[
                "x0*y0", "x0*y1", "x1*y0", "x1*y1",
            ], [
                "x1*y1", "x0*y1", "x1*y0", "x0*y0",
            ]],
        )
        with pytest.raises(BundleCertError, match="rank-1 cokernel, got rank 2"):
            h0_exterior(m, 2, (1, 1))

    def test_s1_contraction_is_b_for_any_cokernel_rank(self):
        monads = [monad_from_document(json.loads(path.read_text()))
                  for path in sorted(INPUTS.glob("*.monad"))]
        monads.append(kernel_monad(P2, [0] * 4, [1, 1],
                                   [["x", "y", "z", "0"], ["0", "x", "y", "z"]]))
        kernels = [m for m in monads if m.kind == KERNEL]
        assert len(kernels) == 5
        for m in kernels:
            assert exterior_contraction(m, 1) == (m.map_b, m.middle, m.target)

    def test_exterior_rank_identity(self):
        # Λ^s B has C(rank B, s) summands, so rank Λ^s K = C(rank B - 1, s)
        from math import comb

        from bundlecert.cohom import exterior_contraction

        m = k_rank3()
        for s in (1, 2, 3):
            entries, src, tgt = exterior_contraction(m, s)
            assert len(src) == comb(4, s)
            assert len(tgt) == comb(4, s - 1)
            assert comb(4, s) - comb(3, s - 1) == comb(3, s)


class TestHomology:
    def test_core_zeros(self):
        E = e_rank2()
        for L in [(-1, 0), (0, -1), (-1, -1)]:
            assert h0_homology(E, L)["h0"] == [0, 0]

    def test_interval_case(self):
        res = h0_homology(e_rank2(), (-2, 0))
        assert res["h0"] == [0, 1]
        assert res["method"] == "HomologyBound" and res["witness"]["h1_A"] == 1

    def test_h0_monad_dispatch(self):
        assert value(h0_monad(k_rank3(), 2, (3, 3))) == 4
        assert value(h0_monad(e_rank2(), 1, (-1, 0))) == 0
        with pytest.raises(UnsupportedOperationError):
            h0_monad(e_rank2(), 2, (0, 0))


class TestTailRule:
    def test_k_rank3_s1(self):
        w = tail_vanish(k_rank3(), 1, 1, -1, (0, 1))
        assert (w["s"], w["axis"], w["bound"], w["point"]) == (1, 1, -1, [0, 1])
        assert w["fiber"]["rule"] == "kernel-exact" and w["fiber"]["h0"] == 0

    def test_e_tail_at_minus2(self):
        w = tail_vanish(e_rank2(), 1, 2, -2, (0, 1))
        assert w["fiber"]["rule"] == "splitting-bound"
        assert w["fiber"]["max_summand"] <= 1

    def test_e_tail_fails_at_minus1(self):
        with pytest.raises(FiberNotVanishingError):
            tail_vanish(e_rank2(), 1, 2, -1, (0, 1))

    def test_n2_s2_tail(self):
        w = tail_vanish(k_rank3_n2(), 2, 1, -1, (0, 1))
        assert w["fiber"]["rule"] == "kernel-exact" and w["fiber"]["h0"] == 0

    def test_fiber_splitting_certificate_matches_paper(self):
        # h^0(E|fiber ⊗ O(-2)) = 0
        fiber = restrict_to_fiber(e_rank2(), 1, (0, 1))
        witness = fiber_h0_vanishes(fiber, 1, -2)
        assert witness["rule"] == "splitting-bound"


class TestMonotoneAndSymmetry:
    def test_monotonicity_spot_checks(self):
        m = k_rank3()
        values = {}
        for k in range(-4, 5):
            for l in range(-4, 5):
                values[(k, l)] = value(h0_exterior(m, 1, (k, l)))
        for (k, l), v in values.items():
            for (k2, l2), v2 in values.items():
                if mdeg_leq((k, l), (k2, l2)):
                    assert v <= v2

    def test_swap_symmetry(self):
        m = k_rank3()
        for k in range(-2, 5):
            for l in range(-2, 5):
                a = value(h0_exterior(m, 2, (k, l)))
                b = value(h0_exterior(m, 2, (l, k)))
                assert a == b


def assert_matches_dense_oracle(ambient, entries, source, target, L):
    """section_matrix cell by cell against the dense products, and its shape
    against Bott: a skipped source summand must be one with no sections."""
    M = section_matrix(ambient, entries, source, target, L)
    rows = dense_section_matrix(ambient, entries, source, target, L)
    assert dense(M, section_row_keys(ambient, target, L)) == rows
    assert all(row and all(row.values()) for row in M.entries.values())  # no zero, no empty row
    assert M.rows == h_line_sum(ambient, target, L, 0)
    assert M.cols == h_line_sum(ambient, source, L, 0)


class TestSectionMatricesAgainstTheDenseOracle:
    def test_every_twist_of_the_certify_bands(self):
        empty_sources = 0
        for name in ("e_rank2", "euler", "k_rank3", "k_rank3_n2", "ks2"):
            m = monad_from_document(json.loads((INPUTS / f"{name}.monad").read_text()))
            cert = certify(m, Polarization(m.ambient, (1,) * m.ambient.arity))
            assert cert["verdict"] == "Stable" and cert["core_checks"]
            for check in cert["core_checks"]:
                s, L = check["s"], tuple(check["twist"])
                matrices = [(m.map_b, m.middle, m.target)]
                if m.kind == KERNEL:
                    matrices.append(exterior_contraction(m, s))
                for entries, source, target in matrices:
                    assert_matches_dense_oracle(m.ambient, entries, source, target, L)
                    empty_sources += sum(h_line(m.ambient, [a + b for a, b in zip(t, L)], 0) == 0
                                         for t in source)
        assert empty_sources > 0  # the skip is reached

    def test_the_quartic_rows(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return section_matrix(*args)

        monkeypatch.setattr(cohom, "section_matrix", spy)
        doc = json.loads((INPUTS / "quartic.json").read_text())
        assert k3lat.quartic_region_run(doc["surface"], doc["map"])["verdict"] == "Stable"
        assert calls
        for args in calls:
            assert_matches_dense_oracle(*args)
