import hashlib
import json
import re
from pathlib import Path

import pytest

from bundlecert import cli, zeta

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

# sha256 of `certify --format json` and `quartic-run` output on the shipped inputs
CERTIFICATE_SHA256 = {
    ("euler", "1"): "37d8ac6504b6fc6aea6fa84d540958f49cc087fe55a63c97aac3b899e87ed2c7",
    ("ks2", "1"): "b77617ca3512cfc2fee22e703ee9c5cf2466d6df00580470a1ee48454756f31e",
    ("k_rank3", "1,1"): "54af8e9773c2175975fc7def5e928336e118aef75d1fbe7c3f00393a7bc3c7d4",
    ("k_rank3_n2", "1,1"): "09c63a860b9c79b27ad46cd1ec0cdbda86677bfe0c726e5fa89ef35bcd3c48fc",
    ("e_rank2", "1,1"): "ab4d7d3c887237e3cf35b333e643e7543defbfbe403ac25f26b4fdb7c1635fe3",
}
QUARTIC_SHA256 = "7d21f8dd13ab4c84a7dc4ac65b1beb5b0b8b7f41b24fe1ae0a267f9c3b2f6eef"


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
        assert re.fullmatch(rf"n={n} q={3**n}: {fibers} orbit fibers, \d+\.\d s", line)


def test_unproved_exactness_is_inconclusive(capsys, tmp_path):
    doc = json.loads((INPUTS / "euler.monad").read_text())
    doc["map_b"] = [["x0 + x1", "x1", "x2"]]
    path = tmp_path / "sheared.monad"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", "--monad", path, "--polarization", 1)
    assert code == cli.EXIT_INCONCLUSIVE
    assert "verdict: Inconclusive" in out


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


@pytest.mark.parametrize("command", ["count-points", "picard-bound"])
def test_field_cap_is_checked_before_any_count(capsys, monkeypatch, command):
    def no_count(*args, **kwargs):
        raise AssertionError("counted a field below the cap before refusing the one above")

    monkeypatch.setattr(zeta, "count_points", no_count)
    code, out, err = run(
        capsys, command, "--surface", INPUTS / "b44.poly", "--prime", 1031, "--max-n", 2
    )
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
