"""Tests of the benchmark itself: generators, oracles, references, tracing.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", ROOT / "tests", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import child  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from bundlecert.polycore import Ambient, parse_poly  # noqa: E402
from bundlecert.zeta import count_points, count_points_bruteforce  # noqa: E402

P1P1 = Ambient.product_projective(1, 1)
REFS = json.loads(child.REFERENCES.read_text(encoding="utf-8"))


def _b44(p=3):
    return gen.parse_form(json.loads(gen._read("b44.poly"))["polynomial"], p)


def _poly(A):
    return parse_poly(gen.render_form(A), P1P1)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _child(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# --- generators -------------------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    for seed in (1, 9):
        assert gen.monad_jobs(seed) == gen.monad_jobs(seed)
        assert gen.count_jobs("count-ext", seed) == gen.count_jobs("count-ext", seed)
        assert gen.count_jobs("count-prime", seed) == gen.count_jobs("count-prime", seed)
        assert gen.charpoly_cases(seed) == gen.charpoly_cases(seed)


def test_seeds_change_the_inputs():
    assert gen.monad_jobs(1) != gen.monad_jobs(2)
    assert gen.count_jobs("count-ext", 1) != gen.count_jobs("count-ext", 2)
    assert gen.count_jobs("count-prime", 1) != gen.count_jobs("count-prime", 2)
    assert gen.charpoly_cases(1) != gen.charpoly_cases(2)


def test_form_text_round_trips_through_the_program_parser():
    A = gen.automorphism(_b44(), 3, random.Random(4))
    assert gen.parse_form(gen.render_form(A), 3) == A
    assert _poly(A).render() == gen.render_form(A)


def test_automorphisms_keep_the_support_size():
    for p, base in ((3, _b44()), (1009, gen.base_prime_form(1009))):
        size = sum(1 for row in base for c in row if c)
        for seed in range(5):
            A = gen.automorphism(base, p, random.Random(seed))
            assert sum(1 for row in A for c in row if c) == size


# --- point counts against independent oracles --------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_b44_variants_match_bruteforce(seed):
    A = gen.automorphism(_b44(), 3, random.Random(seed))
    f = _poly(A)
    for n in (1, 2, 3):
        assert count_points(f, 3, n) == count_points_bruteforce(f, 3, n)
    assert count_points(f, 3, 1) == oracles.count_double_cover_f3(A)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (13, 1), (23, 1)])
def test_random_forms_match_bruteforce(p, n):
    A = gen.automorphism(gen.base_prime_form(p), p, random.Random(p + n))
    f = _poly(A)
    assert count_points(f, p, n) == count_points_bruteforce(f, p, n)
    if p == 3 and n == 1:
        assert count_points(f, 3, 1) == oracles.count_double_cover_f3(A)


def test_automorphisms_keep_counts():
    base = gen.base_prime_form(101)
    want = count_points(_poly(base), 101, 1)
    for seed in range(3):
        assert count_points(_poly(gen.automorphism(base, 101, random.Random(seed))), 101, 1) == want
    b44 = _b44()
    for n in (1, 2, 3, 4):
        assert count_points(_poly(gen.automorphism(b44, 3, random.Random(n))), 3, n) == \
            REFS["count"][f"b44/p3/n{n}"]


# --- synthetic zeta data --------------------------------------------------------------

@pytest.mark.parametrize("seed", [gen.BASELINE_SEED, gen.CONFIRM_SEED])
def test_synthetic_counts_reproduce_the_known_bound(seed):
    for name, case in gen.charpoly_cases(seed):
        doc = child.counts_to_bound(case["counts"], case["p"])
        assert doc["rank_upper_bound"] == case["known_bound"], name
        assert doc["elementary_symmetric"] == case["elementary"], name


def test_known_bound_counts_unit_root_factors():
    case = gen.charpoly_case(3, [0, 3, -6] + [1] * 7)
    assert case["known_bound"] == 2 + 2 * 3
    assert case["q_ascending"][-1] == 1 and case["q_ascending"][0] == 3 ** 20


# --- references and the correctness check ---------------------------------------------

def _records(workload, seed, refs, keep=None):
    jobs = child.build_jobs(workload, seed, None)
    if keep:
        jobs = [j for j in jobs if j.name in keep]
    return child.check_results(child.run_jobs(jobs), refs)


def test_outputs_match_the_references():
    records = _records("certify", 3, REFS) + _records("charpoly", gen.BASELINE_SEED, REFS)
    records += _records("count-ext", 3, REFS, keep={f"b44/p3/n{n}" for n in range(1, 6)})
    assert [r for r in records if r["problem"]] == []


def test_corrupted_reference_makes_failed_share_nonzero():
    bad = copy.deepcopy(REFS)
    bad["certify"]["k-rank3-n3"] = "0" * 64
    bad["count"]["b44/p3/n3"] += 2
    bad["charpoly"][str(gen.BASELINE_SEED)]["p5/case1"] = "0" * 64
    records = _records("certify", 4, bad) + _records("charpoly", gen.BASELINE_SEED, bad)
    records += _records("count-ext", 4, bad, keep={"b44/p3/n2", "b44/p3/n3"})
    attempted, failed, problems = run.check_passes([(False, {"jobs": records})])
    assert failed == 3 and failed / attempted > 0
    assert {p.split(":")[0] for p in problems} == {"k-rank3-n3", "b44/p3/n3", "p5/case1"}


def test_output_change_between_passes_is_a_failure():
    rec = {"name": "j", "s": 0.1, "digest": "a", "problem": None}
    passes = [(False, {"jobs": [rec]}), (True, {"jobs": [dict(rec, digest="b")]})]
    attempted, failed, problems = run.check_passes(passes)
    assert (attempted, failed) == (2, 1) and "traced" in problems[0]


# --- tracing ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["certify", "charpoly"])
def test_tracing_keeps_outputs_and_reaches_every_span(workload):
    plain, traced = _child(workload, 5, 0), _child(workload, 5, 1)
    assert traced["missing_spans"] == []
    assert [j["digest"] for j in plain["jobs"]] == [j["digest"] for j in traced["jobs"]]
    assert all(j["problem"] is None for j in plain["jobs"] + traced["jobs"])


def test_traced_counts_repeat():
    a, b = _child("certify", 6, 1), _child("certify", 6, 1)
    counts = [k for k in a["layers"] if not k.endswith(".s") and not k.endswith("_per_s")]
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    assert a["layers"]["polycore.section_matrix.calls"] > 0


def test_self_time_excludes_child_spans(monkeypatch):
    # outer starts at 0, inner runs from 1 to 3, outer ends at 10
    monkeypatch.setattr(spans, "perf_counter", iter([0.0, 1.0, 3.0, 10.0]).__next__)
    rec = spans.Recorder()
    inner = rec.wrap("cohom.h0_monad", lambda: None)

    def build():
        inner()
        return type("Matrix", (), {"rows": 2, "cols": 3})()

    rec.wrap("polycore.section_matrix", build)()
    assert rec.spans["cohom.h0_monad"].self_s == 2.0
    assert rec.spans["polycore.section_matrix"].self_s == 8.0
    assert rec.layer_metrics()["polycore.section_matrix.cells"] == 6


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = set(spans.Recorder().layer_metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= layers
    assert {m["name"] for m in spec["end_to_end"]} == {"work_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(child.WORKLOADS)


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
