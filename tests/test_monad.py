import random

import pytest

from bundlecert.errors import AmbientMismatchError, InvalidPointError, ValidationError
from bundlecert.monad import (
    HOMOLOGY,
    TRIALS,
    ChernData,
    FreeSheaf,
    chern_free,
    chern_monad,
    homology_monad,
    kernel_monad,
    monad_from_document,
    monad_to_document,
    restrict_to_fiber,
    validate,
)
from bundlecert.polycore import Ambient, parse_poly
from oracles import chern_dual

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
        assert r.surjectivity_of_b.status == "ProvedByMonomialCover"
        assert r.injectivity_of_a.status == "Vacuous"

    def test_k_rank3_cover(self):
        r = validate(k_rank3())
        assert r.surjectivity_of_b.status == "ProvedByMonomialCover"

    def test_composite_nonzero_fails(self):
        # b∘a = x1*x0 != 0: refused when the monad is built
        with pytest.raises(ValidationError, match="monad fails structural validation: b∘a != 0"):
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
        assert r.surjectivity_of_b.status == "Unknown"

    def test_constant_entry_is_surjective(self):
        m = kernel_monad(PP, [(0, 0), (-1, -1)], [(0, 0)], [["1", "x0*y0"]])
        assert validate(m).surjectivity_of_b.status == "ProvedByMonomialCover"

    def test_randomized_rank_path(self):
        # non-monomial entries force the sampling fallback
        m = kernel_monad(P2, [-1, -1, -1], [0], [["x + y", "y + z", "z"]])
        r = validate(m)
        assert r.surjectivity_of_b.status == "ProvedByRandomizedRank"
        assert r.surjectivity_of_b.trials == TRIALS

    def test_randomized_injectivity_path(self):
        # a non-monomial column a sends injectivity to the sampling fallback too
        m = homology_monad(
            PP,
            [(0, 0)],
            [(1, 0), (1, 0), (0, 1), (0, 1)],
            [(1, 1)],
            [["x0 + x1"], ["x1"], ["y0"], ["y1"]],
            [["y0", "y1", "-x0 - x1", "-x1"]],
        )
        r = validate(m)
        assert r.injectivity_of_a.status == "ProvedByRandomizedRank"
        assert r.injectivity_of_a.trials == TRIALS


class TestStructure:
    """The grading and b∘a = 0 are checked once, when a monad is built."""

    def test_homogeneity_error_identifies_entry(self):
        with pytest.raises(ValidationError, match=r"map_b\[0\]\[1\] not homogeneous of \(1, 0\)"):
            kernel_monad(PP, [(-1, 0), (-1, 0)], [(0, 0)], [["x0", "x0*y0"]])

    def test_entry_on_another_ambient_is_refused(self):
        other = Ambient.product_projective(1, 1, names=(("a0", "a1"), ("b0", "b1")))
        entries = [[parse_poly("x0*y0", PP), parse_poly("a0*b1", other)]]
        with pytest.raises(ValidationError, match=r"map_b\[0\]\[1\] is not on the monad's ambient"):
            kernel_monad(PP, [(-1, -1)] * 2, [(0, 0)], entries)


class TestChern:
    def test_chern_free_examples(self):
        assert chern_free(FreeSheaf(PP, [(-1, -1)] * 4)) == ChernData(4, (-4, -4), 12)
        assert chern_free(FreeSheaf(P2, [-1, -1, -1])) == ChernData(3, (-3,), 3)
        assert chern_free(
            FreeSheaf(PP, [(-2, 0), (-2, 0), (0, -2), (0, -2)])
        ) == ChernData(4, (-4, -4), 16)

    def test_chern_monad_euler(self):
        assert chern_monad(euler()) == ChernData(2, (-3,), 3)

    def test_chern_monad_ks_dual(self):
        for s in (1, 2, 3):
            ks = kernel_monad(P2, [0, 0, 0], [s], [[f"x^{s}", f"y^{s}", f"z^{s}"]])
            c = chern_monad(ks)
            assert chern_dual(c) == ChernData(2, (s,), s * s)

    def test_chern_monad_homology(self):
        assert chern_monad(e_rank2()) == ChernData(2, (1, 1), 2)

    def test_whitney_consistency_random(self):
        rng = random.Random(3)
        for _ in range(200):
            t1 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            t2 = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
            a = chern_free(FreeSheaf(PP, t1))
            b = chern_free(FreeSheaf(PP, t2))
            ab = chern_free(FreeSheaf(PP, t1 + t2))
            # Whitney: c1 adds; c2(F⊕G) = c2F + c2G + c1F·c1G
            assert ab.c1 == (a.c1[0] + b.c1[0], a.c1[1] + b.c1[1])
            prod = a.c1[0] * b.c1[1] + a.c1[1] * b.c1[0]
            assert ab.c2 == a.c2 + b.c2 + prod

    def test_permutation_invariance(self):
        m1 = k_rank3()
        m2 = kernel_monad(
            PP, [(-1, -1)] * 4, [(0, 0)], [["x1*y1", "x0*y1", "x1*y0", "x0*y0"]]
        )
        assert chern_monad(m1) == chern_monad(m2)

    def test_kernel_rank_identity(self):
        assert chern_monad(k_rank3()).rank == k_rank3().middle.rank - k_rank3().target.rank

    def test_invalid_monad_raises(self):
        # x0 has degree (1, 0), not (1, 1): no monad, so no Chern data, is made
        with pytest.raises(ValidationError, match=r"map_b\[0\]\[0\] not homogeneous of \(1, 1\)"):
            kernel_monad(PP, [(-1, -1)], [(0, 0)], [["x0"]])


class TestFiberRestriction:
    def test_k_rank3_axis2(self):
        f = restrict_to_fiber(k_rank3(), 2, (0, 1))
        assert [p.render() for p in f.map_b[0]] == ["0", "x0", "0", "x1"]
        assert f.middle.twists == ((-1,), (-1,), (-1,), (-1,))

    def test_euler_not_a_product(self):
        with pytest.raises(AmbientMismatchError):
            restrict_to_fiber(euler(), 2, (0, 1))

    def test_n2_axis2(self):
        n2 = kernel_monad(
            PP, [(-2, 0), (-2, 0), (0, -2), (0, -2)], [(0, 0)],
            [["x0^2", "x1^2", "y0^2", "y1^2"]],
        )
        f = restrict_to_fiber(n2, 2, (0, 1))
        assert [p.render() for p in f.map_b[0]] == ["x0^2", "x1^2", "0", "1"]

    def test_invalid_point(self):
        with pytest.raises(InvalidPointError):
            restrict_to_fiber(k_rank3(), 2, (0, 0))

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
        from bundlecert.errors import DocumentError

        with pytest.raises(DocumentError):
            monad_from_document(doc)
