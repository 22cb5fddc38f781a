import argparse
import ast
import hashlib
import inspect
import json
import re
import textwrap
import time
from pathlib import Path

import pytest

from bundlecert import cli, cohom, k3lat, monad, stability, zeta
from bundlecert.monad import document_mismatches
from bundlecert.polycore import linalg, parse_poly, section_matrix
from bundlecert.polycore.poly import basis_exponents
from bundlecert.zeta import count
from oracles import dense_section_matrix, gauss_rank

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

# sha256 of `certify --format json` and `quartic-run` output on the shipped inputs
CERTIFICATE_SHA256 = {
    ("euler", "1"): "37d8ac6504b6fc6aea6fa84d540958f49cc087fe55a63c97aac3b899e87ed2c7",
    ("ks2", "1"): "b77617ca3512cfc2fee22e703ee9c5cf2466d6df00580470a1ee48454756f31e",
    ("k_rank3", "1,1"): "54af8e9773c2175975fc7def5e928336e118aef75d1fbe7c3f00393a7bc3c7d4",
    ("k_rank3_n2", "1,1"): "09c63a860b9c79b27ad46cd1ec0cdbda86677bfe0c726e5fa89ef35bcd3c48fc",
    ("e_rank2", "1,1"): "ab4d7d3c887237e3cf35b333e643e7543defbfbe403ac25f26b4fdb7c1635fe3",
}
# sha256 of `certify --format json --polarization 1,1` at fiber points other
# than the default 0:1, where every power a^i * b^j of a restriction is nonzero
FIBER_POINT_SHA256 = {
    ("e_rank2", "-3:2"): "0b2c017a8960df7fd8c7e9fa955e881c9d77d7b2afe7d5e43ba20e6ae1f790c4",
    ("e_rank2", "1:1"): "742dbd6400964bf890bdb0ec770d959dfceb66a5fef572f323961b2761bde8d3",
    ("e_rank2", "2:-1"): "5dcbe61b8c21555a034ba8c27c3cea9bc5f3b19cff7d81f53bf34960c3f3b7d2",
    ("k_rank3", "-3:2"): "c8ebf63851076f654f3ac998a960aa6141f72763855531731afc2c4f11c723d0",
    ("k_rank3", "1:1"): "61d65748feb7c3e147c6c0c5cbb7d8914f37999d38e8a818558746256e4fd78c",
    ("k_rank3", "2:-1"): "52630f35ec064b4d472e5f8cd4ef55d77a41269721d63f3084f83201c4bc0aec",
    ("k_rank3_n2", "-3:2"): "6b4d58eae9d319b10fb68802d422e70f21b492a95d8d7d33bccbcf8fe2132bed",
    ("k_rank3_n2", "1:1"): "03f076accebd799c3f7855291bbb8827ebd670cd3a4c5e15f4bf104a55ef59e5",
    ("k_rank3_n2", "2:-1"): "c045e7be5ee03657dd93d42bf565749fb89be1fa6fe0baac86ce7f1b8f5ac3aa",
}
QUARTIC_SHA256 = "7d21f8dd13ab4c84a7dc4ac65b1beb5b0b8b7f41b24fe1ae0a267f9c3b2f6eef"
# sha256 of `picard-bound --surface b44.poly --prime 3` output without its `input` field
B44_BOUND_SHA256 = "2896ad88c5f4461c765642d7b29d2899a091d2bd4f82acd0b32e81c3fc3d4cbf"

B44 = json.loads((INPUTS / "b44.poly").read_text())["polynomial"]
EDITED_B44 = B44.replace("+ 2*x0^4*y1^4", "+ x0^4*y1^4")
# point counts over F_{3^n}, n = 1, 2, ..., of the double covers branched over
# these forms; b44 needs the count at n = 10 to pin its plus-sign family
COUNTS_AT_3 = {
    B44: [14, 98, 848, 6566, 59219, 530948, 4796078, 43037342, 387408206, 3487024373],
    EDITED_B44: [17, 95, 803, 6767, 59477, 534341, 4794695, 43079351, 387532487],
}

# sha256 of `certify --format json` on scaled monads (maps of degree n), recorded
# with the dense Bareiss rank before section matrices became sparse
SCALED_SHA256 = {
    "k-rank3-n3": "7b887f3be324c9f71b86a4702a048f3df9c48b1d4b3fe77f1d1116588210cac6",
    "k-rank3-n4": "64bb962e59f9e7e062f04551ed4bdd94ecb49ef91ca8624525e4190a5c223ef8",
    "ks-8": "855c029c1e0b68ff354feddb5bf0dbf19b2112b3a0b148c90fe7a002588a42fa",
}


def scaled_monad(name):
    """ker(O(-n,0)^2 + O(0,-n)^2 -> O) on P1 x P1 or ker(O^3 -> O(n)) on P2."""
    family, _, n = name.rpartition("-")
    n = int(n.lstrip("n"))
    if family == "k-rank3":
        return {
            "ambient": {"dims": [1, 1], "type": "product_projective"},
            "map_b": [[f"{v}^{n}" for v in ("x0", "x1", "y0", "y1")]],
            "middle": [[-n, 0], [-n, 0], [0, -n], [0, -n]],
            "name": name,
            "target": [[0, 0]],
        }
    return {
        "ambient": {"dim": 2, "type": "projective"},
        "map_b": [[f"{v}^{n}" for v in ("x0", "x1", "x2")]],
        "middle": [0, 0, 0],
        "name": name,
        "target": [n],
    }


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,polarization", sorted(CERTIFICATE_SHA256))
def test_certify_is_byte_stable(capsys, name, polarization):
    code, out, _ = run(
        capsys, "certify", "--monad", INPUTS / f"{name}.monad",
        "--polarization", polarization, "--format", "json",
    )
    assert code == cli.EXIT_OK
    assert sha256(out) == CERTIFICATE_SHA256[name, polarization]


@pytest.mark.parametrize("name,point", sorted(FIBER_POINT_SHA256))
def test_certify_at_other_fiber_points_is_byte_stable(capsys, name, point):
    code, out, _ = run(
        capsys, "certify", "--monad", INPUTS / f"{name}.monad", "--polarization", "1,1",
        "--fiber-point", point, "--format", "json",
    )
    assert code == cli.EXIT_OK
    assert sha256(out) == FIBER_POINT_SHA256[name, point]


def test_section_matrix_cells_are_ints(capsys, monkeypatch):
    # every matrix certify and quartic-run build on the shipped inputs
    cells = []

    def spy(*args):
        M = section_matrix(*args)
        cells.extend(v for row in M.entries.values() for v in row.values())
        return M

    for module in (cohom, monad):
        monkeypatch.setattr(module, "section_matrix", spy)
    for name, polarization in sorted(CERTIFICATE_SHA256):
        code, _, _ = run(capsys, "certify", "--monad", INPUTS / f"{name}.monad",
                         "--polarization", polarization, "--format", "json")
        assert code == cli.EXIT_OK
    assert run(capsys, "quartic-run", "--surface", INPUTS / "quartic.json")[0] == cli.EXIT_OK
    assert cells and all(type(v) is int for v in cells)


@pytest.mark.parametrize("name", sorted(SCALED_SHA256))
def test_scaled_certificates_are_byte_stable(capsys, tmp_path, name):
    path = tmp_path / f"{name}.monad"
    path.write_text(json.dumps(scaled_monad(name)))
    polarization = "1" if name.startswith("ks") else "1,1"
    code, out, _ = run(capsys, "certify", "--monad", path, "--polarization", polarization,
                       "--format", "json")
    assert code == cli.EXIT_OK
    assert sha256(out) == SCALED_SHA256[name]


def _monads_of_the_certify_bench():
    """The shipped monads and the scaled documents the bench certifies."""
    docs = [json.loads((INPUTS / f"{name}.monad").read_text()) for name, _ in CERTIFICATE_SHA256]
    scaled = ["k-rank3-n3", "k-rank3-n4", "k-rank3-n6", "k-rank3-n8", "ks-8", "ks-12", "ks-16"]
    return [monad.monad_from_document(doc) for doc in docs + [scaled_monad(n) for n in scaled]]


def test_witness_rows_and_cols_are_the_bott_counts():
    # each core check's section matrix has h0(target(L)) rows and h0(source(L))
    # columns: Bott's formula against the rows polycore counts and the
    # columns it enumerates, on every check, those with no column included
    no_column = 0
    for m in _monads_of_the_certify_bench():
        cert = stability.certify(m, stability.Polarization(m.ambient, (1,) * m.ambient.arity))
        assert cert["verdict"] == "Stable"
        for check in cert["core_checks"]:
            L, witness = tuple(check["twist"]), check["witness"]
            if m.kind == monad.KERNEL:
                _, source, target = cohom.exterior_contraction(m, check["s"])
            else:
                source, target, witness = m.middle, m.target, witness["h0_kernel"]
            assert witness["rows"] == cohom.h_line_sum(m.ambient, target, L, 0)
            assert witness["cols"] == cohom.h_line_sum(m.ambient, source, L, 0)
            no_column += witness["cols"] == 0
    assert no_column > 0


def test_certify_builds_the_bases_of_its_source_degrees_only(monkeypatch):
    asked, built, uncounted = [], [], []

    def basis_spy(sizes, d):
        asked.append(d)
        return basis_exponents(sizes, d)

    def matrix_spy(ambient, entries, source, target, L):
        asked.clear()
        M = section_matrix(ambient, entries, source, target, L)
        twisted = [{tuple(a + b for a, b in zip(t, L)) for t in twists} for twists in (source, target)]
        assert set(asked) <= twisted[0]
        built.extend(asked)
        # a target degree with sections and no source of that degree: the
        # basis a row enumeration would build
        uncounted.extend(d for d in twisted[1] - twisted[0] if min(d) >= 0)
        return M

    monkeypatch.setattr(linalg, "basis_exponents", basis_spy)
    for module in (cohom, monad):
        monkeypatch.setattr(module, "section_matrix", matrix_spy)
    for m in _monads_of_the_certify_bench():
        stability.certify(m, stability.Polarization(m.ambient, (1,) * m.ambient.arity))
    assert built and uncounted


def test_h0_of_the_second_exterior_power_at_20_20(capsys):
    # 3t^2 - 10t + 7 at t = 20 (test_cohom.py derives the closed form)
    code, out, err = run(capsys, "h0", "--monad", INPUTS / "k_rank3.monad", "--exterior", 2,
                         "--twist", "20,20")
    assert (code, out, err) == (cli.EXIT_OK, "1007\n", "")


def test_h0_of_the_second_exterior_power_at_30_30(capsys):
    # 3t^2 - 10t + 7 at t = 30: a core with no singleton row or column, where
    # each pivot row is taken from a heap of row lengths, not a scan
    code, out, err = run(capsys, "h0", "--monad", INPUTS / "k_rank3.monad", "--exterior", 2,
                         "--twist", "30,30")
    assert (code, out, err) == (cli.EXIT_OK, "2407\n", "")


def test_h0_counts_the_rows_of_a_target_it_never_enumerates(capsys, tmp_path, monkeypatch):
    # ker(O^3 -> O(16)) on P2 at twist 120: 3 C(122, 2) - C(138, 2) = 22143 - 9453
    # sections; the 9,453 rows of degree 136 are counted, and only the source
    # basis of degree 120 is built.  At 130 the target count C(148, 2) is over
    # the cap, and is refused as its basis would be.
    asked = []

    def spy(sizes, d):
        asked.append(d)
        return basis_exponents(sizes, d)

    monkeypatch.setattr(linalg, "basis_exponents", spy)
    path = tmp_path / "ks-16.monad"
    path.write_text(json.dumps(scaled_monad("ks-16")))
    assert run(capsys, "h0", "--monad", path, "--twist", 120) == (cli.EXIT_OK, "12690\n", "")
    assert set(asked) == {(120,)}
    code, out, err = run(capsys, "h0", "--monad", path, "--twist", 130)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == "error: a monomial basis of degree (146,) has 10878 monomials, over the cap 10000\n"


def test_quartic_run_is_byte_stable(capsys):
    code, out, _ = run(capsys, "quartic-run", "--surface", INPUTS / "quartic.json")
    assert code == cli.EXIT_OK
    assert sha256(out) == QUARTIC_SHA256


def test_count_points_b44(capsys):
    code, out, err = run(
        capsys, "count-points", "--surface", INPUTS / "b44.poly", "--prime", 3, "--max-n", 6
    )
    assert code == cli.EXIT_OK
    assert out == (
        "1, 3, 14, 4\n2, 9, 98, 16\n3, 27, 848, 118\n"
        "4, 81, 6566, 4\n5, 243, 59219, 169\n6, 729, 530948, -494\n"
    )
    progress = err.splitlines()
    assert len(progress) == 6
    orbit_fibers = [4, 7, 12, 25, 52, 131]  # orbits of x -> x^3 on F_q, plus x = [0:1]
    for n, (line, fibers) in enumerate(zip(progress, orbit_fibers), start=1):
        m = re.fullmatch(
            rf"n={n} q={3**n}: {fibers} orbit fibers \((\d+) Jacobian, (\d+) kernel\), \d+\.\d{{3}} s",
            line,
        )
        assert m, line
        jacobian, kernel = int(m[1]), int(m[2])
        assert jacobian + kernel == fibers
        # a count whose rows fit one kernel chunk is not routed: every n <= 6 here
        assert (jacobian > 0) == (fibers * (3**n - 1) > zeta.count.CELLS)


def test_unproved_exactness_is_inconclusive(capsys, tmp_path):
    doc = json.loads((INPUTS / "euler.monad").read_text())
    doc["map_b"] = [["x0 + x1", "x0 + x1", "x2"]]  # a common zero at (1:-1:0)
    path = tmp_path / "common-zero.monad"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", "--monad", path, "--polarization", 1, "--format", "json")
    assert code == cli.EXIT_INCONCLUSIVE
    cert = json.loads(out)
    assert cert["verdict"] == "Inconclusive"
    assert cert["failure"]["surjectivity_of_b"] == "Unknown"


def test_polynomial_syntax_error_exits_1(capsys, tmp_path):
    doc = json.loads((INPUTS / "euler.monad").read_text())
    doc["map_b"] = [["x0 +", "x1", "x2"]]
    path = tmp_path / "broken.monad"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "certify", "--monad", path, "--polarization", 1)
    assert code == cli.EXIT_ERROR
    assert err.startswith("error: ") and "Traceback" not in err


def test_prime_above_the_field_cap_exits_1(capsys):
    code, out, err = run(
        capsys, "count-points", "--surface", INPUTS / "b44.poly", "--prime", 1048583, "--max-n", 1
    )
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_form_that_vanishes_mod_p_exits_1(capsys, tmp_path):
    path = tmp_path / "3b.poly"
    path.write_text(json.dumps({"polynomial": "3*x0^4*y0^4"}))
    code, out, err = run(capsys, "count-points", "--surface", path, "--prime", 3, "--max-n", 2)
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == "error: branch curve vanishes mod 3\n"


@pytest.mark.parametrize("command,prime,max_n", [
    ("count-points", 1031, ("--max-n", 2)), ("picard-bound", 1031, ()),
    ("count-points", 4, ()), ("count-points", 2, ()), ("picard-bound", 2, ()),
    ("count-points", 3, ("--max-n", 0)), ("count-points", 3, ("--max-n", 10 ** 8)),
    ("count-points", 10 ** 18 + 3, ()), ("picard-bound", 10 ** 18 + 3, ()),
], ids=["count-points", "picard-bound", "count-points-not-prime", "count-points-even",
        "picard-bound-even", "count-points-degree-0", "count-points-degree-1e8",
        "count-points-prime-1e18", "picard-bound-prime-1e18"])
def test_field_cap_is_checked_before_any_count(capsys, monkeypatch, command, prime, max_n):
    """A prime above the cap, a composite, p = 2 and n < 1 are refused
    before a count reads the form, and an oversize field within seconds:
    3^(10^8), or trial division up to 10^9, would each take minutes."""
    def no_count(*args, **kwargs):
        raise AssertionError("started a count before refusing the prime")

    monkeypatch.setattr(zeta.count, "curve_coefficients", no_count)
    start = time.perf_counter()
    code, out, err = run(
        capsys, command, "--surface", INPUTS / "b44.poly", "--prime", prime, *max_n
    )
    assert time.perf_counter() - start < 5
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("map_b", [[5, "x1", "x2"]]), ("map_b", ["x0"]), ("middle", 5), ("target", [None]), (None, [1]),
    ("ambient", {"type": "projective", "dim": [2]}),
    ("ambient", {"type": "product_projective", "dims": 3}),
    ("ambient", {"type": "projective", "dim": 2.5}),
    ("ambient", {"type": "projective", "dim": True}),
    ("name", 5), ("target", [False]),
], ids=["numeric-map-entry", "map-row-not-a-list", "middle-not-a-list", "null-twist",
        "top-level-list", "dim-a-list", "dims-not-a-list", "dim-not-an-integer", "dim-a-boolean",
        "name-not-a-string", "twist-a-boolean"])
def test_malformed_monad_document_exits_1(capsys, tmp_path, field, value):
    doc = json.loads((INPUTS / "euler.monad").read_text())
    if field is None:
        doc = value
    else:
        doc[field] = value
    path = tmp_path / "malformed.monad"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "certify", "--monad", path, "--polarization", 1)
    assert code == cli.EXIT_ERROR
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("middle", [[0], [0, 0]], ids=["rank-minus-1", "rank-0"])
@pytest.mark.parametrize("argv", [
    ("chern",), ("h0", "--twist", "1"), ("certify", "--polarization", "1"),
], ids=["chern", "h0", "certify"])
def test_a_bundle_of_rank_below_1_exits_1(capsys, tmp_path, middle, argv):
    path = tmp_path / "rank.monad"
    path.write_text(json.dumps({
        "ambient": {"type": "projective", "dim": 2}, "middle": middle, "target": [1, 1],
        "map_b": [["x0"] * len(middle), ["x1"] * len(middle)],
    }))
    code, out, err = run(capsys, argv[0], "--monad", path, *argv[1:])
    assert code == cli.EXIT_ERROR
    rank = len(middle) - 2
    assert out == "" and err == (f"error: the bundle has rank {rank} = rank(B) - rank(C) - rank(A);"
                                 " a monad needs rank >= 1\n")


def _e_rank2_edited(field, i, j, entry):
    doc = json.loads((INPUTS / "e_rank2.monad").read_text())
    doc[field][i][j] = entry
    return doc


@pytest.mark.parametrize("command", [
    ("certify", "--polarization", "1,1"), ("chern",), ("h0", "--twist", "1,1"),
], ids=["certify", "chern", "h0"])
@pytest.mark.parametrize("doc,problem", [
    (_e_rank2_edited("map_b", 0, 2, "-x0*y0"), "map_b[0][2] not homogeneous of (1, 0)"),
    (_e_rank2_edited("map_a", 1, 0, "y1"), "map_a[1][0] not homogeneous of (1, 0)"),
    (_e_rank2_edited("map_a", 3, 0, "y0"), "b∘a != 0"),
], ids=["map-b-inhomogeneous", "map-a-inhomogeneous", "composite-nonzero"])
def test_malformed_monad_structure_exits_1(capsys, tmp_path, command, doc, problem):
    """The grading and b∘a = 0 are checked when the monad is built, so every
    command that reads a monad refuses the same documents with the same line."""
    path = tmp_path / "malformed.monad"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], "--monad", path, *command[1:])
    assert code == cli.EXIT_ERROR
    assert out == "" and err == f"error: monad fails structural validation: {problem}\n"


@pytest.mark.parametrize("command", [
    ("certify", "--polarization", "1"), ("chern",), ("h0", "--twist", "1"),
], ids=["certify", "chern", "h0"])
def test_a_source_of_rank_0_exits_1(capsys, tmp_path, command):
    """An empty source with empty map_a rows is neither a kernel monad (no
    source) nor a homology monad (A of rank >= 1): every command refuses it."""
    doc = json.loads((INPUTS / "euler.monad").read_text())
    doc["source"], doc["map_a"] = [], [[] for _ in doc["middle"]]
    path = tmp_path / "empty-source.monad"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], "--monad", path, *command[1:])
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == "error: source of rank 0: omit source and map_a for a kernel monad\n"


def test_h0_of_an_exterior_power_of_a_homology_monad_exits_1(capsys):
    code, out, err = run(capsys, "h0", "--monad", INPUTS / "e_rank2.monad", "--twist", "1,1",
                         "--exterior", 2)
    assert code == cli.EXIT_ERROR
    assert out == "" and err == "error: s = 2 is out of range: a homology monad takes s = 1 only\n"


@pytest.mark.parametrize("name,s,allowed", [
    ("e_rank2", 0, "a homology monad takes s = 1 only"),
    ("e_rank2", -1, "a homology monad takes s = 1 only"),
    ("euler", 0, "a kernel monad of rank 2 takes s in 1..2"),
    ("euler", 3, "a kernel monad of rank 2 takes s in 1..2"),
    ("k_rank3", 0, "a kernel monad of rank 3 takes s in 1..3"),
    ("k_rank3", 4, "a kernel monad of rank 3 takes s in 1..3"),
])
def test_h0_exterior_out_of_range_exits_1(capsys, name, s, allowed):
    twist = "1" if name == "euler" else "1,1"
    code, out, err = run(capsys, "h0", "--monad", INPUTS / f"{name}.monad", "--twist", twist,
                         "--exterior", s)
    assert code == cli.EXIT_ERROR
    assert out == "" and err == f"error: s = {s} is out of range: {allowed}\n"


# When a is injective and b onto on sections at the twist,
# h0(E(L)) = h0(B(L)) - h0(C(L)) - h0(A(L)), with h0(O_P2(d)) = C(d+2, 2) and
# h0(O(k,l)) = (k+1)(l+1) on P1 x P1 (Bott)
@pytest.mark.parametrize("name,twist,h0", [
    ("euler", "2", 3),  # 3 h0(O(1)) - h0(O(2)) = 9 - 6
    ("euler", "3", 8),  # 3 h0(O(2)) - h0(O(3)) = 18 - 10
    ("k_rank3", "2,2", 7),  # 4 h0(O(1,1)) - h0(O(2,2)) = 16 - 9
    ("e_rank2", "1,1", 11),  # 2 h0(O(2,1)) + 2 h0(O(1,2)) - h0(O(2,2)) - h0(O(1,1)) = 24 - 9 - 4
    # an interval: 0 -> A -> K -> E -> 0 gives h0(K) - h0(A) <= h0(E) <= h0(K) + h1(A),
    # with h0(K) = h0(A) = 0 and h1(A) = h1(O(-2, 0)) = 1
    ("e_rank2", "-2,0", "[0, 1]"),
])
def test_h0_prints_the_dimension(capsys, name, twist, h0):
    code, out, err = run(capsys, "h0", "--monad", INPUTS / f"{name}.monad", f"--twist={twist}")
    assert code == cli.EXIT_OK
    assert out == f"{h0}\n" and err == ""


# ker(b: O^4 -> O(1)^2) on P2, b onto at every point (its 2x2 minors share no
# zero); at s = 1 the contraction is b itself, whatever the rank of C
RANK2_COKERNEL = {"ambient": {"dim": 2, "type": "projective"}, "middle": [0, 0, 0, 0],
                  "target": [1, 1], "map_b": [["x0", "x1", "x2", "0"], ["0", "x0", "x1", "x2"]]}


@pytest.mark.parametrize("twist,h0", [(0, 0), (1, 0), (2, 4)])
def test_h0_of_a_kernel_bundle_with_a_rank_2_cokernel(capsys, tmp_path, twist, h0):
    m = monad.monad_from_document(RANK2_COKERNEL)
    rows = dense_section_matrix(m.ambient, m.map_b, m.middle, m.target, (twist,))
    assert len(rows[0]) - gauss_rank(rows) == h0
    path = tmp_path / "rank2-cokernel.monad"
    path.write_text(json.dumps(RANK2_COKERNEL))
    code, out, err = run(capsys, "h0", "--monad", path, "--twist", twist, "--exterior", 1)
    assert (code, out, err) == (cli.EXIT_OK, f"{h0}\n", "")


def test_h0_of_a_wedge_square_with_a_rank_2_cokernel_exits_1(capsys, tmp_path):
    path = tmp_path / "rank2-cokernel.monad"
    path.write_text(json.dumps(RANK2_COKERNEL))
    code, out, err = run(capsys, "h0", "--monad", path, "--twist", 2, "--exterior", 2)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == "error: exterior powers need a rank-1 cokernel, got rank 2\n"


def targetless(tmp_path, rank):
    """ker(O^rank -> 0) on P2, the trivial bundle O^rank: no target, no map."""
    path = tmp_path / "targetless.monad"
    path.write_text(json.dumps({"ambient": {"type": "projective", "dim": 2},
                                "middle": [0] * rank, "target": [], "map_b": []}))
    return path


@pytest.mark.parametrize("twist,h0", [(0, 1), (1, 3), (2, 6)])
def test_h0_of_a_monad_without_a_target(capsys, tmp_path, twist, h0):
    # h0(O(k)) on P2 is C(k + 2, 2); s = 1 = rank is in the range h0_monad owns
    code, out, err = run(capsys, "h0", "--monad", targetless(tmp_path, 1), "--twist", twist)
    assert (code, out, err) == (cli.EXIT_OK, f"{h0}\n", "")


def test_h0_of_a_wedge_square_without_a_target_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "h0", "--monad", targetless(tmp_path, 2), "--twist", 1,
                         "--exterior", 2)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == "error: exterior powers need a rank-1 cokernel, got rank 0\n"


def _write(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _json(tmp_path, name, doc):
    return _write(tmp_path, name, json.dumps(doc).encode())


def _edited(monad, **fields):
    """The shipped monad with each field set, or deleted where None."""
    doc = json.loads((INPUTS / f"{monad}.monad").read_text())
    for key, value in fields.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _chern_of(doc):
    return lambda tmp: ("chern", "--monad", _json(tmp, "edited.monad", doc))


def _h0_of(doc, twist):
    return lambda tmp: ("h0", "--monad", _json(tmp, "edited.monad", doc), "--twist", twist)


def _quartic_run_of(section_map):
    doc = {**json.loads((INPUTS / "quartic.json").read_text()), "map": section_map}
    return lambda tmp: ("quartic-run", "--surface", _json(tmp, "quartic.json", doc))


PP_AMBIENT = {"type": "product_projective", "dims": [1, 1]}
# a homology monad A -> O^3 -> O with zero maps: h0 reads h^i(A(L)) by Bott and Künneth
ZERO_HOMOLOGY = {"middle": [[0, 0]] * 3, "target": [[0, 0]], "map_a": [["0"]] * 3,
                 "map_b": [["1", "0", "0"]]}

# each malformed input with the lines it prints on stderr: argparse prints its
# usage before the error line of a value an option's `type=` parser refuses
MALFORMED_INPUTS = [
    ("polarization-not-integers", lambda tmp: (
        "certify", "--monad", INPUTS / "euler.monad", "--polarization", "1,x"),
     "argument --polarization: expected integers k or k,l,..., got '1,x'"),
    ("twist-not-integers", lambda tmp: (
        "h0", "--monad", INPUTS / "euler.monad", "--twist", "one"),
     "argument --twist: expected integers k or k,l,..., got 'one'"),
    ("fiber-point-one-number", lambda tmp: (
        "certify", "--monad", INPUTS / "k_rank3.monad", "--polarization", "1,1",
        "--fiber-point", "1"),
     "argument --fiber-point: expected two integers a:b, got '1'"),
    ("missing-file", lambda tmp: ("chern", "--monad", tmp / "missing.monad"),
     "error: cannot read {tmp}/missing.monad: No such file or directory"),
    ("not-utf-8", lambda tmp: ("chern", "--monad", _write(tmp, "latin.monad", b'{"name": "\xe9"}')),
     "error: cannot read {tmp}/latin.monad: 'utf-8' codec can't decode byte 0xe9"),
    ("malformed-json", lambda tmp: ("chern", "--monad", _write(tmp, "cut.monad", b'{"ambient": ')),
     "error: cannot read {tmp}/cut.monad: Expecting value"),
    ("json-nested-too-deep", lambda tmp: (
        "verify", _write(tmp, "deep.json", b"[" * 100000 + b"]" * 100000)),
     "error: cannot read {tmp}/deep.json: maximum recursion depth exceeded"),
    ("unwritable-out", lambda tmp: (
        "chern", "--monad", INPUTS / "euler.monad", "--out", tmp / "no-such-dir" / "c.json"),
     "error: cannot write {tmp}/no-such-dir/c.json: No such file or directory"),
    ("h0-homology-on-p1xp2", _h0_of({
        **ZERO_HOMOLOGY, "ambient": {"type": "product_projective", "dims": [1, 2]},
        "source": [[0, 0]], "map_b": [["0", "0", "0"]]}, "0,0"),
     "error: h_line implemented for P^n and P1 x P1"),
    # h0(K(0,0)) = 3 - 1 sections, h0(A(0,0)) = h0(O(2,2)) = 9
    ("h0-of-a-above-h0-of-k", _h0_of({**ZERO_HOMOLOGY, "ambient": PP_AMBIENT,
                                       "source": [[2, 2]]}, "0,0"),
     "error: h^0(A) exceeds h^0(K); the monad is not exact at A"),
    ("h0-twist-of-2-components-on-p2", lambda tmp: (
        "h0", "--monad", INPUTS / "euler.monad", "--twist", "1,2"),
     "error: degree (1, 2) has 2 components, ambient has 1"),
    ("h0-twist-of-1-component-on-p1xp1", lambda tmp: (
        "h0", "--monad", INPUTS / "k_rank3.monad", "--twist", "3"),
     "error: degree (3,) has 1 components, ambient has 2"),
    ("h0-basis-over-the-cap", lambda tmp: (
        "h0", "--monad", INPUTS / "euler.monad", "--twist", "100000"),
     "error: a monomial basis of degree (100000,) has 5000150001 monomials, over the cap 10000"),
    ("source-without-map-a", _chern_of(_edited("e_rank2", map_a=None)),
     "error: source and map_a must be given together"),
    ("map-b-row-count", _chern_of(_edited("e_rank2", map_b=[["y0", "y1", "-x0", "-x1"]] * 2)),
     "error: map_b row count differs from rank of C"),
    ("map-b-column-count", _chern_of(_edited("e_rank2", map_b=[["y0", "y1", "-x0"]])),
     "error: map_b column count differs from rank of B"),
    ("map-a-row-count", _chern_of(_edited("e_rank2", map_a=[["x0"], ["x1"], ["y0"]])),
     "error: map_a row count differs from rank of B"),
    ("map-a-column-count", _chern_of(_edited("e_rank2", map_a=[["x0", "0"]] * 4)),
     "error: map_a column count differs from rank of A"),
    ("integer-twist-on-p1xp1", _chern_of(_edited("e_rank2", target=[2])),
     "error: scalar degree on a product ambient"),
    ("ambient-without-type", _chern_of(_edited("e_rank2", ambient={"dims": [1, 1]})),
     "error: ambient document needs a 'type' field"),
    ("ambient-a-list", _chern_of(_edited("e_rank2", ambient=[1, 1])),
     "error: ambient document needs a 'type' field"),
    ("ambient-of-unknown-type", _chern_of(_edited("e_rank2", ambient={"type": "weighted"})),
     "error: unknown ambient type 'weighted'"),
    ("no-middle", _chern_of(_edited("e_rank2", middle=None)),
     "error: monad document missing field 'middle'"),
    ("map-entry-with-dollar", _chern_of(_edited("euler", map_b=[["x0 $", "x1", "x2"]])),
     "error: unexpected character '$' (at offset 3)"),
    ("map-entry-with-unclosed-parenthesis", _chern_of(_edited("euler", map_b=[["(x0", "x1", "x2"]])),
     "error: expected ')', found end of input (at offset 3)"),
    ("polarization-of-square-0", lambda tmp: (
        "certify", "--monad", INPUTS / "k_rank3.monad", "--polarization", "0,1"),
     "error: polarization components must be positive"),
    ("polarization-negative", lambda tmp: (
        "certify", "--monad", INPUTS / "euler.monad", "--polarization", "-1"),
     "error: polarization components must be positive"),
    ("map-entry-quadratic", _quartic_run_of(["x^2", "y", "w"]),
     "error: entry (0,0) inhomogeneous: the section map needs linear forms"),
    ("map-entry-constant", _quartic_run_of(["x", "y", "1"]),
     "error: entry (0,2) inhomogeneous: the section map needs linear forms"),
    ("map-of-rank-2", _quartic_run_of(["x", "x", "y"]),
     "error: the linear forms of the section map have rank below 3"),
    # the shipped quartic vanishes at [0:0:0:1], the common zero of x, y and z
    ("map-base-point-on-x", _quartic_run_of(["x", "y", "z"]),
     "error: f vanishes at [0:0:0:1]"),
]


@pytest.mark.parametrize("argv,line", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_a_malformed_input_exits_1_with_one_error_line(capsys, tmp_path, argv, line):
    # every refusal comes before any large computation: a basis of 5*10^9
    # monomials is refused before it is built
    start = time.perf_counter()
    code, out, err = run(capsys, *argv(tmp_path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert "Traceback" not in err and "input error" not in err
    errors = [e for e in err.splitlines() if "error: " in e]
    assert len(errors) == 1 and line.format(tmp=tmp_path) in errors[0]
    if not line.startswith("argument "):
        assert err == errors[0] + "\n"


DEEP = "(" * 3000 + "x0" + ")" * 3000


@pytest.mark.parametrize("command,doc", [
    (("count-points", "--prime", 3, "--max-n", 1, "--surface"), {"polynomial": DEEP}),
    (("chern", "--monad"), {**json.loads((INPUTS / "euler.monad").read_text()),
                            "map_b": [[DEEP, "x1", "x2"]]}),
], ids=["count-points", "chern"])
def test_a_deeply_nested_polynomial_exits_1(capsys, tmp_path, command, doc):
    # 3000 levels would overflow the stack of the recursive descent
    path = _write(tmp_path, "deep.json", json.dumps(doc).encode())
    code, out, err = run(capsys, *command, path)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == "error: parentheses nested over 100 deep (at offset 100)\n"



def canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# c(E) = c(B) / (c(A) c(C)), with h^2 = 1 on P2 and a^2 = b^2 = 0, ab = 1 on
# P1 x P1; the double cover doubles c2
@pytest.mark.parametrize("name,cover,doc", [
    ("euler", (), {"rank": 2, "c1": [-3], "c2": 3}),  # (1 - h)^3
    ("euler", ("--cover", "double"), {"rank": 2, "c1": [-3], "c2": 3, "cover": {
        "rank": 2, "c1": "pullback of O([-3])", "c2": 6}}),
    ("e_rank2", (), {"rank": 2, "c1": [1, 1], "c2": 2}),  # (1 + 2a)(1 + 2b) / (1 + a + b)
    ("k_rank3", ("--cover", "double"), {"rank": 3, "c1": [-4, -4], "c2": 12, "cover": {
        "rank": 3, "c1": "pullback of O([-4, -4])", "c2": 24}}),  # (1 - a - b)^4
], ids=["euler", "euler-double", "e_rank2", "k_rank3-double"])
def test_chern_prints_the_chern_data(capsys, name, cover, doc):
    code, out, err = run(capsys, "chern", "--monad", INPUTS / f"{name}.monad", *cover)
    assert code == cli.EXIT_OK
    assert out == canonical(doc) and err == ""


@pytest.mark.parametrize("name,polarization", sorted(CERTIFICATE_SHA256))
def test_chern_prints_the_chern_field_of_the_certificate(capsys, name, polarization):
    path = INPUTS / f"{name}.monad"
    code, out, _ = run(capsys, "certify", "--monad", path, "--polarization", polarization,
                       "--format", "json")
    assert code == cli.EXIT_OK
    recorded = json.loads(out)["chern"]
    code, out, err = run(capsys, "chern", "--monad", path)
    assert code == cli.EXIT_OK
    assert out == canonical(recorded) and err == ""


OFF_SURFACE_MONADS = pytest.mark.parametrize("doc,polarization", [
    ({"ambient": {"type": "projective", "dim": 3}, "middle": [-1, -1, -1, -1], "target": [0],
      "map_b": [["x0", "x1", "x2", "x3"]]}, "1"),
    ({"ambient": {"type": "product_projective", "dims": [1, 2]},
      "middle": [[-1, 0], [-1, 0], [0, -1], [0, -1], [0, -1]], "target": [[0, 0]],
      "map_b": [["x0", "x1", "y0", "y1", "y2"]]}, "1,1"),
], ids=["P3", "P1xP2"])


@OFF_SURFACE_MONADS
def test_chern_off_p2_and_p1p1_exits_1(capsys, tmp_path, doc, polarization):
    """Chern data goes through the intersection form, which only P2 and
    P1 x P1 have here."""
    path = tmp_path / "other.monad"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chern", "--monad", path)
    assert code == cli.EXIT_ERROR
    assert out == "" and err == "error: intersection form only defined on P2 and P1xP1\n"


@OFF_SURFACE_MONADS
def test_certify_off_p2_and_p1p1_exits_1(capsys, tmp_path, doc, polarization):
    """`certify` takes the Chern data before any twist region, so a product
    other than P1 x P1 never reaches a tail rule's fiber restriction."""
    path = tmp_path / "other.monad"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--monad", path, "--polarization", polarization)
    assert code == cli.EXIT_ERROR
    assert out == "" and err == "error: intersection form only defined on P2 and P1xP1\n"


# a separate value that starts with "-" and a digit belongs to the option before it
@pytest.mark.parametrize("before,option,value,after,printed", [
    (("h0", "--monad", INPUTS / "e_rank2.monad"), "--twist", "-2,0", (), "[0, 1]\n"),
    (("certify", "--monad", INPUTS / "k_rank3.monad", "--polarization", "1,1"),
     "--fiber-point", "-1:1", ("--format", "json"),
     '"fiber_points": [\n        [\n          -1,\n          1\n        ],'),
], ids=["h0-twist", "certify-fiber-point"])
def test_a_negative_value_follows_its_option(capsys, before, option, value, after, printed):
    code, out, err = run(capsys, *before, option, value, *after)
    assert code == cli.EXIT_OK and err == ""
    assert printed in out
    assert (code, out, err) == run(capsys, *before, f"{option}={value}", *after)


@pytest.mark.parametrize("argv", [
    ("rigid-classes",),
    ("rigid-classes", "--k", 0),
    ("expected-dim", "--k", 0),
    ("genus", "--class", "1", "--lattice", "double-plane"),
    ("genus", "--class", "1,0,0,0,0,0,0,0", "--lattice", "E8-minus"),
    ("pair", "--class", "1,0", "--class", "0,1"),
], ids=["rigid-classes", "rigid-classes-k", "k-option", "double-plane", "E8-minus", "pair"])
def test_removed_lattice_names_exit_1(capsys, argv):
    # the lattice command is gone, so each of these is an argparse usage error
    code, out, err = run(capsys, "lattice", *argv)
    assert code == cli.EXIT_ERROR
    assert out == "" and "invalid choice: 'lattice'" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,doc", [
    (("count-points", "--prime", 3, "--max-n", 1), {"polynomial": 5}),
    (("count-points", "--prime", 3, "--max-n", 1), [1]),
    (("picard-bound", "--prime", 3), {"polynomial": 5}),
    (("picard-bound", "--prime", 3), [1]),
    (("quartic-run",), {"surface": 5}),
    (("quartic-run",), [1]),
    (("quartic-run",), {"surface": "x^4 + y^4 + z^4 + w^4", "map": 7}),
    (("quartic-run",), {"surface": "x^3"}),
], ids=["count-points-numeric-polynomial", "count-points-top-level-list",
        "picard-bound-numeric-polynomial", "picard-bound-top-level-list",
        "quartic-run-numeric-surface", "quartic-run-top-level-list", "quartic-run-numeric-map",
        "quartic-run-not-a-quartic"])
def test_malformed_surface_or_lattice_document_exits_1(capsys, tmp_path, argv, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--surface", path)
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"source": [-1, -1, -2]}, {"target": [1]}, {"source": [-1, -1, -1, -1]}, {"target": 0},
], ids=["other-source", "other-target", "four-sources", "target-not-a-list"])
def test_quartic_run_refuses_twists_it_does_not_certify(capsys, tmp_path, doc):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps({**json.loads((INPUTS / "quartic.json").read_text()), **doc}))
    code, out, err = run(capsys, "quartic-run", "--surface", path)
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("h0", "--monad", INPUTS / "euler.monad", "--twist", "1", "--out", "h0.txt"),
    ("verify", INPUTS / "quartic.json", "--format", "json"),
    ("chern", "--monad", INPUTS / "euler.monad", "--format", "json"),
    ("count-points", "--surface", INPUTS / "b44.poly", "--prime", 3, "--max-n", 1,
     "--threads", 1),
    ("picard-bound", "--surface", INPUTS / "b44.poly", "--prime", 3, "--threads", 1),
], ids=["h0-out", "verify-format", "chern-format", "count-points-threads",
        "picard-bound-threads"])
def test_removed_options_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_ERROR
    assert out == "" and "unrecognized arguments" in err and "Traceback" not in err


def _args_read(fn, seen=()) -> set:
    """Attributes `fn` reads from `args`, and those read by the module-level
    helpers it passes `args` to."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
                and node.func.id not in seen):
            helper = getattr(cli, node.func.id, None)
            if inspect.isfunction(helper):
                read |= _args_read(helper, (*seen, node.func.id))
    return read


def test_every_cli_option_is_read():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sub in commands.choices.items():
        read = _args_read(sub.get_default("fn"))
        unread += [f"{name} {a.option_strings or a.dest}" for a in sub._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    assert unread == []


def test_the_docstring_lists_every_command():
    # "Commands: a, b, ..., z." in the module docstring names exactly the
    # subcommands build_parser registers
    listed = re.search(r"Commands: ([^.]*)\.", cli.__doc__).group(1)
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert sorted(re.split(r",\s*", listed)) == sorted(commands.choices)


def test_negative_margin_exits_1(capsys):
    # a negative margin would leave every core point to a propagation from an
    # unchecked point, and certify would print Stable without a core check
    code, out, err = run(capsys, "certify", "--monad", INPUTS / "k_rank3.monad",
                         "--polarization", "1,1", "--margin", -1)
    assert code == cli.EXIT_ERROR
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def certificate(capsys, tmp_path, *argv):
    """Run a certificate-producing command with --out and load the result."""
    path = tmp_path / "certificate.json"
    code, _, _ = run(capsys, *argv, "--out", path)
    assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE)
    return json.loads(path.read_text())


@pytest.fixture
def k_rank3_certificate(capsys, tmp_path):
    return certificate(capsys, tmp_path, "certify", "--monad", INPUTS / "k_rank3.monad",
                       "--polarization", "1,1")


def verify_document(capsys, tmp_path, doc):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "verify", path)


def test_verify_accepts_the_certificate(capsys, tmp_path, k_rank3_certificate):
    code, out, _ = verify_document(capsys, tmp_path, k_rank3_certificate)
    assert code == cli.EXIT_OK
    assert out.startswith("certificate verified")


def test_the_fiber_point_0_0_is_refused(capsys, tmp_path):
    # certify on P2 restricts to no fiber, so nothing else would catch the
    # non-point (0:0) that the certificate records
    argv = ("certify", "--monad", INPUTS / "euler.monad", "--polarization", "1")
    code, out, err = run(capsys, *argv, "--fiber-point", "0:0")
    assert code == cli.EXIT_ERROR
    assert out == "" and err == "error: fiber point (0:0) is not a point of P1\n"
    doc = certificate(capsys, tmp_path, *argv)
    doc["input"]["options"]["fiber_points"] = [[0, 1], [0, 0]]
    code, out, err = verify_document(capsys, tmp_path, doc)
    assert code == cli.EXIT_ERROR
    assert out == "" and err == "error: fiber point (0:0) is not a point of P1\n"


@pytest.mark.parametrize("argv", [
    *(("certify", "--monad", INPUTS / f"{name}.monad", "--polarization", polarization)
      for name, polarization in sorted(CERTIFICATE_SHA256)),
    ("quartic-run", "--surface", INPUTS / "quartic.json"),
], ids=[*(name for name, _ in sorted(CERTIFICATE_SHA256)), "quartic"])
def test_every_shipped_certificate_round_trips(capsys, tmp_path, argv):
    doc = certificate(capsys, tmp_path, *argv)
    code, out, _ = verify_document(capsys, tmp_path, doc)
    assert code == cli.EXIT_OK
    assert out.startswith("certificate verified")
    if argv[0] == "quartic-run":
        assert_compared_as_json(k3lat.quartic_region_run(doc["surface"]), doc)
    else:
        assert_compared_as_json(stability.certify(*stability._read_inputs(doc)), doc)


def assert_compared_as_json(rerun, doc):
    """A re-run holds JSON values only and equals the document it recorded,
    and an edited document gets one line per edited field."""
    assert json.loads(json.dumps(rerun)) == rerun == doc
    assert document_mismatches(rerun, doc) == []
    edited = dict(doc, schema="edited", added=0)
    removed = max(key for key in doc if key != "schema")
    del edited[removed]
    assert document_mismatches(rerun, edited) == sorted([
        "added: missing from the re-run",
        f"{removed}: missing from the certificate",
        "schema: differs from the re-run",
    ])


def _margin_not_an_integer(doc):
    doc["input"]["options"]["margin"] = "0"
    return doc


def _margin_a_boolean(doc):
    doc["input"]["options"]["margin"] = True
    return doc


def _polarization_not_integers(doc):
    doc["polarization"] = ["1", "1"]
    return doc


def _fiber_points(points):
    def edit(doc):
        doc["input"]["options"]["fiber_points"] = points
        return doc
    return edit


PICARD = "picard-bound-profile/1"
PRIME_NOT_AN_INTEGER = "error: 'input.prime' of a picard-bound document must be an integer"
# (id, edit, start of stderr, or of stdout for an unknown schema)
MALFORMED_CERTIFICATES = [
    ("top-level-list", lambda doc: [1], "error: a certificate is a JSON object"),
    ("input-not-an-object", lambda doc: {**doc, "input": 5},
     "error: 'input' and 'input.monad' must be JSON objects"),
    ("schema-not-a-string", lambda doc: {"schema": 5}, "error: unknown certificate schema '5'"),
    ("quartic-surface-not-a-string", lambda doc: {"schema": "quartic-certificate/1", "surface": 5},
     "error: a quartic certificate needs the surface as a string"),
    ("quartic-surface-not-a-quartic",
     lambda doc: {"schema": "quartic-certificate/1", "surface": "x^3"},
     "error: f must be a nonzero homogeneous quartic"),
    ("margin-not-an-integer", _margin_not_an_integer,
     "error: 'input.options.margin' must be an integer or null"),
    ("polarization-not-integers", _polarization_not_integers,
     "error: 'polarization' must be a list of integers"),
    ("polarization-booleans", lambda doc: {**doc, "polarization": [True, True]},
     "error: 'polarization' must be a list of integers"),
    ("margin-a-boolean", _margin_a_boolean,
     "error: 'input.options.margin' must be an integer or null"),
    ("fiber-points-not-pairs", _fiber_points([0, 1]),
     "error: 'input.options.fiber_points' must be two [int, int]"),
    ("fiber-point-too-short", _fiber_points([[0, 1], [0]]),
     "error: 'input.options.fiber_points' must be two [int, int]"),
    ("fiber-point-not-integers", _fiber_points([[0, "1"], [0, 1]]),
     "error: 'input.options.fiber_points' must be two [int, int]"),
    ("fiber-points-booleans", _fiber_points([[False, True], [False, True]]),
     "error: 'input.options.fiber_points' must be two [int, int]"),
    ("picard-polynomial-not-a-string",
     lambda doc: {"schema": PICARD, "input": {"polynomial": 5, "prime": 3}},
     "error: a surface is a JSON object with the polynomial as a string"),
    ("picard-prime-not-an-integer",
     lambda doc: {"schema": PICARD, "input": {"polynomial": B44, "prime": "3"}},
     PRIME_NOT_AN_INTEGER),
    ("picard-prime-above-the-field-cap",
     lambda doc: {"schema": PICARD, "input": {"polynomial": B44, "prime": 1031}},
     "error: q = 1031^10 exceeds the log-table limit 2^20"),
    ("picard-prime-a-bool",  # a bool is an int to isinstance
     lambda doc: {"schema": PICARD, "input": {"polynomial": B44, "prime": True}},
     PRIME_NOT_AN_INTEGER),
    ("picard-polynomial-of-bidegree-3-4",
     lambda doc: {"schema": PICARD, "input": {"polynomial": "x0^3*y0^4", "prime": 3}},
     "error: branch curve must be a nonzero form of bidegree (4,4)"),
    ("picard-polynomial-zero-mod-p",
     lambda doc: {"schema": PICARD, "input": {"polynomial": "3*x0^4*y0^4", "prime": 3}},
     "error: branch curve vanishes mod 3"),
    ("polarization-unbalanced", lambda doc: {**doc, "polarization": [1, 2]},
     "error: twist regions are implemented for multiples of O(1) / O(1,1)"),
]


@pytest.mark.parametrize("edit,message", [case[1:] for case in MALFORMED_CERTIFICATES],
                         ids=[case[0] for case in MALFORMED_CERTIFICATES])
def test_verify_rejects_a_malformed_certificate(capsys, tmp_path, k_rank3_certificate, edit,
                                                message):
    """Fields the re-run reads must have the right JSON type."""
    code, out, err = verify_document(capsys, tmp_path, edit(k_rank3_certificate))
    assert code == cli.EXIT_ERROR
    assert (err or out).startswith(message)
    assert "certificate verified" not in out and "Traceback" not in err


def _s_not_an_integer(doc):
    doc["core_checks"][0]["s"] = "x"
    return doc


def _core_checks_not_a_list(doc):
    doc["core_checks"] = 5
    return doc


def _witness_deleted(doc):
    del doc["core_checks"][0]["witness"]
    return doc


@pytest.mark.parametrize("edit", [_s_not_an_integer, _core_checks_not_a_list, _witness_deleted],
                         ids=["s-not-an-integer", "core-checks-not-a-list", "witness-deleted"])
def test_verify_fails_a_certificate_that_differs_from_its_rerun(
        capsys, tmp_path, k_rank3_certificate, edit):
    """Recorded fields the re-run does not read are compared, not type-checked."""
    code, out, err = verify_document(capsys, tmp_path, edit(k_rank3_certificate))
    assert code == cli.EXIT_ERROR
    assert out.startswith("verification FAILED") and "core_checks" in out
    assert "Traceback" not in err


def test_verify_replays_the_recorded_rank(capsys, tmp_path, k_rank3_certificate):
    witness = k_rank3_certificate["core_checks"][0]["witness"]
    witness["rank"] += 1
    code, out, _ = verify_document(capsys, tmp_path, k_rank3_certificate)
    assert code == cli.EXIT_ERROR
    assert out.startswith("verification FAILED") and "core_checks" in out


# a homology monad whose tail bound -1 on axis 1 leaves h^0(A(-1, l)) =
# h^0(O(0, l)) nonzero: the h^1(A) obstruction, after which the search goes on
# to -2.  b is onto (x0*y0, x1*y1, x0*y1 + x1*y0 share no zero) and a is the
# constant 1, so both ends are proved exact.
OBSTRUCTED = {"ambient": PP_AMBIENT, "source": [[1, 0]],
              "middle": [[1, 0], [0, 0], [0, 0], [0, 0]], "target": [[1, 1]],
              "map_a": [["1"], ["0"], ["0"], ["0"]],
              "map_b": [["0", "x0*y0", "x1*y1", "x0*y1 + x1*y0"]]}


def test_the_h1_obstruction_fails_only_its_tail_bound(capsys, tmp_path):
    doc = certificate(capsys, tmp_path, "certify", "--monad",
                      _json(tmp_path, "obstructed.monad", OBSTRUCTED), "--polarization", "1,1")
    assert doc["verdict"] == "Stable" and doc["failure"] is None
    tails = [(r["s"], r["axis"], r["bound"], r["witness"]["fiber"]["rule"])
             for r in doc["tail_rules"]]
    assert tails == [(1, 1, -2, "homology-exact"), (1, 2, -1, "homology-exact")]
    code, out, _ = verify_document(capsys, tmp_path, doc)
    assert code == cli.EXIT_OK and out.startswith("certificate verified")


def _e_rank2_plus(twist):
    """e_rank2 with one more summand O(twist) of B, a zero column of b and a
    zero row of a: the homology bundle E + O(twist), of rank 3."""
    doc = json.loads((INPUTS / "e_rank2.monad").read_text())
    doc["middle"].append(twist)
    doc["map_b"][0].append("0")
    doc["map_a"].append(["0"])
    return doc


@pytest.mark.parametrize("doc,polarization,failure", [
    # E + O passes s = 1, and s = 2 needs a homology fiber
    (_e_rank2_plus([0, 0]), "1,1",
     {"reason": "UnsupportedOperationError", "detail": "homology fibers support s = 1 only"}),
    # on each fiber of axis 1, E + O(7, 0) has the summand O(7): no bound down to
    # the floor -6 leaves the fiber without sections
    (_e_rank2_plus([7, 0]), "1,1",
     {"reason": "FiberNotVanishingError", "detail": "fiber h0 does not vanish at point (0, 1): "
                                                    "no tail bound above the floor -6 (s=1)"}),
    # ker(x0, x1, x2, 0: O^4 -> O(1)) on P2 is T(-1) + O, with a section at twist 0
    ({"ambient": {"type": "projective", "dim": 2}, "middle": [0, 0, 0, 0], "target": [1],
      "map_b": [["x0", "x1", "x2", "0"]]}, "1",
     {"reason": "nonzero h0 upper bound", "s": 1, "twist": [0], "h0": [1, 1]}),
], ids=["rank-3-homology", "homology-fiber-with-sections", "p2-halfline-with-a-section"])
def test_certify_is_inconclusive_where_a_check_fails(capsys, tmp_path, doc, polarization,
                                                     failure):
    path = _json(tmp_path, "inconclusive.monad", doc)
    code, out, err = run(capsys, "certify", "--monad", path, "--polarization", polarization,
                         "--format", "json")
    assert (code, err) == (cli.EXIT_INCONCLUSIVE, "")
    cert = json.loads(out)
    assert (cert["verdict"], cert["failure"]) == ("Inconclusive", failure)


DESTABILIZED = {  # the kernel splits off O, so sections appear inside the s=1 band
    "ambient": {"dims": [1, 1], "type": "product_projective"},
    "map_b": [["0", "x0*y0", "x0*y1", "x1*y0", "x1*y1"]],
    "middle": [[0, 0], [-1, -1], [-1, -1], [-1, -1], [-1, -1]],
    "target": [[0, 0]],
}


def _flip_to_stable(doc):
    assert doc["verdict"] == "Inconclusive"
    doc["verdict"], doc["failure"] = "Stable", None
    return "verdict"


def _empty_checks_and_tails(doc):
    doc["core_checks"], doc["tail_rules"] = [], []
    return "core_checks"


def _empty_regions(doc):
    doc["regions"] = {}
    return "regions"


def _delete_a_propagation(doc):
    del doc["monotone_propagations"][1]
    return "monotone_propagations"


def _change_the_tail_floor(doc):
    doc["input"]["options"]["tail_floor"] = -2
    return "input"


@pytest.mark.parametrize("monad,margin,forge", [
    (DESTABILIZED, None, _flip_to_stable),
    ("k_rank3", None, _empty_checks_and_tails),
    ("k_rank3", None, _empty_regions),
    ("k_rank3", 0, _delete_a_propagation),
    ("k_rank3", None, _change_the_tail_floor),
], ids=["inconclusive-flipped-to-stable", "checks-and-tails-emptied", "regions-emptied",
        "propagation-deleted", "tail-floor-changed"])
def test_verify_fails_a_forged_certificate(capsys, tmp_path, monad, margin, forge):
    path = INPUTS / f"{monad}.monad"
    if isinstance(monad, dict):
        path = tmp_path / "destabilized.monad"
        path.write_text(json.dumps(monad))
    margin = () if margin is None else ("--margin", margin)
    doc = certificate(capsys, tmp_path, "certify", "--monad", path, "--polarization", "1,1",
                      *margin)
    field = forge(doc)
    code, out, _ = verify_document(capsys, tmp_path, doc)
    assert code == cli.EXIT_ERROR
    assert out.startswith("verification FAILED") and f"\n{field}: " in out


def test_picard_bound_has_no_count_or_k_alg_option(capsys):
    code, out, _ = run(capsys, "picard-bound", "--help")
    assert code == cli.EXIT_OK and "--prime" in out
    assert "--max-n" not in out and "--k-alg" not in out


def test_picard_bound_stops_at_the_first_bad_trace(capsys, tmp_path):
    path = tmp_path / "x4.json"
    path.write_text(json.dumps({"polynomial": "x0^4*y0^4"}))
    code, out, err = run(capsys, "picard-bound", "--surface", path, "--prime", 3)
    assert code == cli.EXIT_ERROR and out == ""
    *progress, last = err.splitlines()
    assert [line.split(":")[0] for line in progress] == ["n=1 q=3", "n=2 q=9", "n=3 q=27"]
    assert last == "error: trace t_3 = 783 violates the Weil bound 22*3^3"


def other_ruling(text):
    """The form with (x0, x1) and (y0, y1) swapped: the same surface, with the
    same counts, over the other ruling's fibers."""
    return text.translate(str.maketrans("xy", "yx"))


@pytest.fixture
def b44_bound(capsys, tmp_path, monkeypatch):
    """picard-bound on b44 at p = 3, with the counts read from COUNTS_AT_3 for
    either ruling."""
    table = {
        parse_poly(form, cli.SURFACE_AMBIENT): counts
        for text, counts in COUNTS_AT_3.items() for form in (text, other_ruling(text))
    }
    monkeypatch.setattr(zeta, "count_points", lambda f, p, n: table[f][n - 1])
    return certificate(capsys, tmp_path, "picard-bound", "--surface", INPUTS / "b44.poly",
                       "--prime", 3)


def test_picard_bound_round_trips(capsys, tmp_path, b44_bound):
    assert b44_bound.pop("input") == {"polynomial": B44, "prime": 3}
    assert sha256(json.dumps(b44_bound, sort_keys=True, indent=2) + "\n") == B44_BOUND_SHA256
    assert b44_bound["rank_upper_bound"] == 2
    assert b44_bound["disambiguation"]["count"] == 3487024373
    b44_bound["input"] = {"polynomial": B44, "prime": 3}
    code, out, _ = verify_document(capsys, tmp_path, b44_bound)
    assert code == cli.EXIT_OK
    assert out.startswith("certificate verified")
    rerun = zeta.run_picard_bound(cli._branch_form(B44, 3, other_ruling=True), 3)
    assert_compared_as_json({**rerun, "input": b44_bound["input"]}, b44_bound)


def _change_a_count(doc):
    doc["counts"][4] += 2
    return ["counts"]


def _change_the_polynomial(doc):
    doc["input"]["polynomial"] = EDITED_B44  # its surface needs no count at n = 10
    return ["counts", "disambiguation", "rank_upper_bound"]


def _change_the_bound(doc):
    doc["rank_upper_bound"] = 1
    return ["rank_upper_bound"]


@pytest.mark.parametrize("edit", [_change_a_count, _change_the_polynomial, _change_the_bound],
                         ids=["count-changed", "polynomial-changed", "bound-changed"])
def test_verify_fails_an_edited_picard_bound(capsys, tmp_path, b44_bound, edit):
    fields = edit(b44_bound)
    code, out, _ = verify_document(capsys, tmp_path, b44_bound)
    assert code == cli.EXIT_ERROR
    assert out.startswith("verification FAILED")
    assert all(f"\n{field}: " in out for field in fields)


def flipped_sign_jacobians():
    """count._jacobians with bd + 4ae in place of bd - 4ae: a smooth fiber gets
    the Jacobian of another curve, so only counts through the Jacobian route
    move (n >= 7 for b44 at p = 3)."""
    source = inspect.getsource(count._jacobians)
    assert source.count("F.mul(m4 + a, e)") == 1
    namespace = dict(vars(count))
    exec(source.replace("F.mul(m4 + a, e)", "F.mul(F.const(4) + a, e)"), namespace)
    return namespace["_jacobians"]


def test_verify_counts_over_the_other_ruling(capsys, tmp_path, monkeypatch):
    """A fault that depends on the fiber survives a re-run over the same ruling,
    but not one over the other ruling's fibers."""
    monkeypatch.setattr(count, "_jacobians", flipped_sign_jacobians())
    doc = certificate(capsys, tmp_path, "picard-bound", "--surface", INPUTS / "b44.poly",
                      "--prime", 3)
    # the document exists, so every moved count passed its Weil audit
    moved = [n for n, (a, b) in enumerate(zip(doc["counts"], COUNTS_AT_3[B44]), 1) if a != b]
    assert moved and min(moved) >= 5
    rerun = zeta.run_picard_bound(cli._branch_form(B44, 3), 3)
    assert document_mismatches({**rerun, "input": doc["input"]}, doc) == []
    # over the other ruling the faulty counts are not even the power sums of
    # an integer polynomial: the re-run fails, and so does the verification
    code, out, err = verify_document(capsys, tmp_path, doc)
    assert code == cli.EXIT_ERROR
    assert out.startswith("verification FAILED:\nre-run: Newton identities give non-integral")
    assert len(out.splitlines()) == 2 and "error" not in err
