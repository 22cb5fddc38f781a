"""The benchmark calls the program through `bench/child.py`; a change to that
API (a dropped keyword, a renamed function) must fail here, not only there."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_counts_to_bound_runs_a_charpoly_case(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    child = importlib.import_module("child")
    gen = importlib.import_module("gen")
    name, case = gen.charpoly_cases(1)[1]  # one unit-root factor: the tenth count is used
    doc = child.counts_to_bound(case["counts"], case["p"])
    assert "disambiguation" in doc
    assert doc["rank_upper_bound"] == case["known_bound"]
    (job,) = [j for j in child._charpoly_jobs(1) if j.name == name]
    refs = json.loads(child.REFERENCES.read_text())
    assert job.check(job.render(doc), refs) is None


@pytest.mark.parametrize("seed", [1, 2])
def test_charpoly_jobs_match_the_references(monkeypatch, seed):
    """Every bound document of the charpoly workload is byte-identical to the
    one recorded in bench/references.json."""
    monkeypatch.syspath_prepend(str(BENCH))
    child = importlib.import_module("child")
    refs = json.loads(child.REFERENCES.read_text())
    jobs = child._charpoly_jobs(seed)
    assert len(jobs) == len(refs["charpoly"][str(seed)]) == 24
    for job in jobs:
        assert job.check(job.render(job.call()), refs) is None, job.name


def test_count_jobs_match_the_references(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    child = importlib.import_module("child")
    refs = json.loads(child.REFERENCES.read_text())
    jobs = child._count_jobs("count-prime", 1) + child._count_jobs("count-ext", 1)
    small = [job for job in jobs if int(job.name.rsplit("/n", 1)[1]) <= 6]
    assert len(small) == 9  # three primes, n = 1..6 over F_3
    for job in small:
        assert job.check(job.render(job.call()), refs) is None, job.name


def traced_pass(workload):
    """The report of one traced `bench/child.py` pass at seed 1."""
    path = [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, env=env, timeout=300,
    ).stdout
    report = json.loads(out)
    assert report["missing_spans"] == []
    assert all(job["problem"] is None for job in report["jobs"])
    return report


@pytest.mark.parametrize("workload,q_max", [("count-prime", 3001), ("count-ext", 6561)])
def test_count_workloads_reach_every_span(workload, q_max):
    """bench/spans.py wraps `make_field` and `count_points` at the names the
    program calls them by; a count that reached its field another way would
    leave a span at 0 calls."""
    assert traced_pass(workload)["layers"]["zeta.field.q_max"] == q_max


@pytest.mark.parametrize("workload,jobs", [("certify", 13), ("charpoly", 24)])
def test_certify_and_charpoly_workloads_reach_every_span(workload, jobs):
    """Every span the workload expects is reached at the names the program
    calls it by, and every job's output matches bench/references.json: for
    certify, the certificates of the scaled monads and the quartic."""
    assert len(traced_pass(workload)["jobs"]) == jobs
