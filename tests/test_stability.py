import json
from fractions import Fraction
from pathlib import Path

import pytest

from bundlecert.errors import BundleCertError
from bundlecert import stability
from bundlecert.monad import (
    chern_monad,
    homology_monad,
    kernel_monad,
    monad_from_document,
    restrict_to_fiber,
)
from bundlecert.polycore import Ambient
from bundlecert.stability import (
    CertifyOptions,
    Polarization,
    certify,
    slope,
    twist_region,
    verify_certificate,
)
from oracles import audit_coverage, chern_dual

P2 = Ambient.projective(2, names=("x", "y", "z"))
PP = Ambient.product_projective(1, 1)
H_P2 = Polarization(P2, (1,))
H_PP = Polarization(PP, (1, 1))


def euler():
    return kernel_monad(P2, [-1, -1, -1], [0], [["x", "y", "z"]], name="cotangent")


def k_rank3():
    return kernel_monad(
        PP, [(-1, -1)] * 4, [(0, 0)], [["x0*y0", "x0*y1", "x1*y0", "x1*y1"]], name="k3"
    )


def e_rank2():
    return homology_monad(
        PP,
        [(0, 0)],
        [(1, 0), (1, 0), (0, 1), (0, 1)],
        [(1, 1)],
        [["x0"], ["x1"], ["y0"], ["y1"]],
        [["y0", "y1", "-x0", "-x1"]],
        name="e2",
    )


class TestSlope:
    def test_k_rank3(self):
        assert slope(chern_monad(k_rank3()), H_PP) == Fraction(-8, 3)

    def test_cotangent(self):
        assert slope(chern_monad(euler()), H_P2) == Fraction(-3, 2)

    def test_ks_dual(self):
        for s in (1, 2, 3, 4):
            ks = kernel_monad(P2, [0, 0, 0], [s], [[f"x^{s}", f"y^{s}", f"z^{s}"]])
            assert slope(chern_dual(chern_monad(ks)), H_P2) == Fraction(s, 2)

    def test_zero_rank(self):
        # MonadComplex refuses rank 0 before slope can see its Chern data
        with pytest.raises(BundleCertError, match="a monad needs rank >= 1"):
            slope(chern_monad(kernel_monad(PP, [(-1, 0)], [(0, 0)], [["x0"]])), H_PP)


class TestRegion:
    def test_k_rank3_bands(self):
        c = chern_monad(k_rank3())
        assert twist_region(c, 2, H_PP) == 5  # 16/3
        assert twist_region(c, 1, H_PP) == 2  # 8/3

    def test_cotangent_halfline(self):
        assert twist_region(chern_monad(euler()), 1, H_P2) == 1

    def test_scaling_invariance(self):
        c = chern_monad(k_rank3())
        H2 = Polarization(PP, (2, 2))
        for s in (1, 2):
            assert twist_region(c, s, H_PP) == twist_region(c, s, H2)

    def test_unbalanced_polarization_rejected(self):
        c = chern_monad(k_rank3())
        with pytest.raises(BundleCertError, match="twist regions are implemented for multiples"):
            twist_region(c, 1, Polarization(PP, (1, 2)))


class TestOptionsAndPolarization:
    def test_default_options(self):
        options = CertifyOptions()
        assert (options.fiber_points, options.margin) == (((0, 1), (0, 1)), None)
        assert options.to_dict() == {
            "fiber_points": [[0, 1], [0, 1]], "tail_floor": -6, "margin": None,
        }
        assert CertifyOptions(((1, 2), (-1, 1)), 3).to_dict() == {
            "fiber_points": [[1, 2], [-1, 1]], "tail_floor": -6, "margin": 3,
        }

    @pytest.mark.parametrize("kwargs, message", [
        ({"margin": -1}, "margin must be a nonnegative integer"),
        ({"fiber_points": ((0, 1), (0, 0))}, r"fiber point \(0:0\) is not a point of P1"),
        # the margin is checked first
        ({"fiber_points": ((0, 0), (0, 1)), "margin": -2}, "margin must be a nonnegative integer"),
    ])
    def test_options_refusals_keep_their_messages(self, kwargs, message):
        with pytest.raises(BundleCertError, match=f"^{message}$"):
            CertifyOptions(**kwargs)

    @pytest.mark.parametrize("ambient, coords, message", [
        (PP, (0, 1), "polarization components must be positive"),
        (P2, -1, "polarization components must be positive"),
        # the components are counted before their signs are read
        (PP, (-1,), r"degree \(-1,\) has 1 components, ambient has 2"),
        (PP, 1, "scalar degree on a product ambient"),
    ])
    def test_polarization_refusals_keep_their_messages(self, ambient, coords, message):
        with pytest.raises(BundleCertError, match=f"^{message}$"):
            Polarization(ambient, coords)

    def test_a_polarization_normalizes_its_coordinates(self):
        assert Polarization(P2, 3).coords == (3,)
        assert Polarization(PP, [2, 2]).coords == (2, 2)


class TestCertify:
    def test_euler_stable(self):
        cert = certify(euler(), H_P2)
        assert cert["verdict"] == "Stable"
        assert audit_coverage(cert)

    def test_e_rank2_stable_with_paper_core(self):
        cert = certify(e_rank2(), H_PP)
        assert cert["verdict"] == "Stable"
        assert sorted(c["twist"] for c in cert["core_checks"]) == [[-1, -1], [-1, 0], [0, -1]]
        assert sorted((t["axis"], t["bound"]) for t in cert["tail_rules"]) == [(1, -2), (2, -2)]
        assert audit_coverage(cert)

    def test_k_rank3_stable_with_paper_core(self):
        cert = certify(k_rank3(), H_PP)
        assert cert["verdict"] == "Stable"
        s1 = sorted(tuple(c["twist"]) for c in cert["core_checks"] if c["s"] == 1)
        assert s1 == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        assert {t["s"] for t in cert["tail_rules"]} == {1, 2}
        assert audit_coverage(cert)

    def test_scaling_leaves_verdict(self):
        cert = certify(k_rank3(), Polarization(PP, (2, 2)))
        assert cert["verdict"] == "Stable"

    def test_margin_option_uses_propagation(self):
        cert = certify(k_rank3(), H_PP, CertifyOptions(margin=0))
        assert cert["verdict"] == "Stable"
        s1 = sorted(tuple(c["twist"]) for c in cert["core_checks"] if c["s"] == 1)
        assert s1 == [(0, 2), (1, 1), (2, 0)]  # maximal band points only
        assert any(p["s"] == 1 for p in cert["monotone_propagations"])
        assert audit_coverage(cert)

    def test_inconclusive_on_destabilized_bundle(self):
        # the kernel splits off the trivial summand, so sections appear in-band
        m = kernel_monad(
            PP, [(0, 0)] + [(-1, -1)] * 4, [(0, 0)],
            [["0", "x0*y0", "x0*y1", "x1*y0", "x1*y1"]],
        )
        cert = certify(m, H_PP)
        assert cert["verdict"] == "Inconclusive"
        assert cert["failure"]["reason"] == "nonzero h0 upper bound"
        k, l = cert["failure"]["twist"]
        assert k + l <= 2  # inside the s=1 band

    def test_tail_search_reaching_the_floor_is_inconclusive(self):
        # b's zero column makes O(0,7) a summand of E; twisted by l >= -7 it
        # keeps sections on every y-line, so no tail bound on axis 2 down to
        # TAIL_FLOOR = -6 vanishes
        m = kernel_monad(
            PP, [(0, 7)] + [(-1, -1)] * 4, [(0, 0)],
            [["0", "x0*y0", "x0*y1", "x1*y0", "x1*y1"]],
        )
        cert = certify(m, H_PP)
        assert cert["verdict"] == "Inconclusive"
        assert cert["failure"] == {
            "reason": "FiberNotVanishingError",
            "detail": "fiber h0 does not vanish at point (0, 1): no tail bound above the "
                      f"floor {stability.TAIL_FLOOR} (s=1)",
        }
        assert [(t["axis"], t["bound"]) for t in cert["tail_rules"]] == [(1, -1)]
        assert cert["core_checks"] == []
        assert verify_certificate(json.loads(cert.to_json())) == []

    def test_unproved_surjectivity_is_inconclusive(self):
        # every entry vanishes at (1:-1:0), so b is not onto there
        m = kernel_monad(P2, [-1, -1, -1], [0], [["x + y", "x + y", "z"]], name="nonmono")
        cert = certify(m, H_P2)
        assert cert["verdict"] == "Inconclusive"
        assert cert["failure"]["reason"] == "exactness not proved"
        assert cert["failure"]["surjectivity_of_b"] == "Unknown"

    def test_quadrics_proved_by_the_section_matrix_are_stable(self):
        # leading monomials x^2, xz, xy share the zero x = 0; the forms share none
        m = kernel_monad(P2, [-2, -2, -2], [0], [["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"]])
        cert = certify(m, H_P2)
        assert cert["verdict"] == "Stable"
        assert "exactness at the ends proved by the monomial cover rule" in cert["notes"]
        assert verify_certificate(json.loads(cert.to_json())) == []

    def test_sheared_euler_matches_euler(self):
        # (x + y, y + z, z) is Euler's row after an automorphism of O(-1)^3
        sheared = kernel_monad(P2, [-1, -1, -1], [0], [["x + y", "y + z", "z"]], name="cotangent")
        a, b = certify(euler(), H_P2), certify(sheared, H_P2)
        assert b["verdict"] == a["verdict"] == "Stable"
        assert b["regions"] == a["regions"]
        assert b["core_checks"] == a["core_checks"]
        assert b["tail_rules"] == a["tail_rules"]


def test_one_restriction_per_distinct_fiber(monkeypatch):
    # the tail rule restricts the same fiber for several s and bounds
    fibers = []

    def spy(m, s, axis, bound, point, tail_vanish=stability.tail_vanish):
        fibers.append((m, 3 - axis, tuple(point)))
        return tail_vanish(m, s, axis, bound, point)

    monkeypatch.setattr(stability, "tail_vanish", spy)
    restrict_to_fiber.cache_clear()
    inputs = Path(__file__).resolve().parent.parent / "inputs"
    for name in ("e_rank2", "k_rank3", "k_rank3_n2"):
        m = monad_from_document(json.loads((inputs / f"{name}.monad").read_text()))
        assert certify(m, H_PP)["verdict"] == "Stable"
    info = restrict_to_fiber.cache_info()
    assert info.misses == len(set(fibers))
    assert info.hits == len(fibers) - len(set(fibers)) > 0


class TestCertificateDocument:
    def test_replay(self):
        cert = certify(k_rank3(), H_PP)
        doc = json.loads(cert.to_json())
        assert verify_certificate(doc) == []

    def test_tampered_replay_fails(self):
        cert = certify(e_rank2(), H_PP)
        doc = json.loads(cert.to_json())
        doc["core_checks"][0]["h0"] = [1, 1]
        assert verify_certificate(doc) != []

    def test_returns_a_list_of_strings(self):
        # the benchmark's verify workload json-dumps this list and reads it as problems
        doc = json.loads(certify(k_rank3(), H_PP, CertifyOptions(margin=0)).to_json())
        problems = verify_certificate(doc)
        assert type(problems) is list and problems == []
        doc["monotone_propagations"].pop()
        doc["verdict"] = "Inconclusive"
        problems = verify_certificate(doc)
        assert type(problems) is list and len(problems) == 2
        assert all(type(p) is str for p in problems)

    def test_names_the_first_differing_entry(self):
        doc = json.loads(certify(k_rank3(), H_PP).to_json())
        del doc["core_checks"][3]
        assert verify_certificate(doc) == [
            "core_checks: entry 3 differs from the re-run (26 recorded, 27 re-run)"
        ]

    def test_reads_only_typed_inputs(self):
        doc = json.loads(certify(k_rank3(), H_PP).to_json())
        doc["input"]["options"]["fiber_points"] = [[0, 1]]
        with pytest.raises(BundleCertError, match="'input.options.fiber_points' must be two"):
            verify_certificate(doc)

    def test_byte_stability(self):
        a = certify(k_rank3(), H_PP).to_json()
        b = certify(k_rank3(), H_PP).to_json()
        assert a == b

