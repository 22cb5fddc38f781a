"""One pass of one workload, in a fresh interpreter.

Run by run.py with `src` on PYTHONPATH.  The pass imports what the CLI
command imports, builds and parses the seeded inputs (set-up), times each
job's call into the program, then checks every output against the recorded
references and prints one JSON line.  A fresh process per pass makes every
pass pay the fill of the program's caches (`_cached_field`, `cyclotomic`),
as every CLI invocation does.

Modes: `pass` (set-up and jobs), `setup` (set-up only), `prep` (certify and
print the certificates that the verify workload replays).
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402

REFERENCES = Path(__file__).resolve().parent / "references.json"
WEIL_TRACE_FACTOR = 22  # |t_n| <= 22 p^n for a K3 surface
CALIBRATION_INTERVAL_S = 0.25

# spans each workload must reach; a zero count means a wrapper is misplaced
EXPECTED_SPANS = {
    "certify": (
        "polycore.parse_poly", "polycore.section_matrix", "polycore.rank",
        "polycore.bareiss_rank", "monad.validate", "monad.chern_monad",
        "monad.restrict_to_fiber", "cohom.h0_monad", "cohom.exterior_contraction",
        "cohom.tail_vanish", "k3lat.quartic_region_run",
    ),
    "verify": (
        "polycore.parse_poly", "polycore.section_matrix", "polycore.rank",
        "polycore.bareiss_rank", "monad.validate", "monad.chern_monad", "monad.restrict_to_fiber",
        "cohom.h0_monad", "cohom.exterior_contraction", "cohom.tail_vanish",
    ),
    "count-ext": ("polycore.parse_poly", "zeta.make_field", "zeta.count_points"),
    "count-prime": ("polycore.parse_poly", "zeta.make_field", "zeta.count_points"),
    "charpoly": (
        "zeta.assemble_charpoly", "zeta.rank_upper_bound", "zeta.resolve_family_with_count",
        "zeta.family_completions", "zeta.all_roots_on_circle", "zeta.unit_root_count",
    ),
}
WORKLOADS = tuple(EXPECTED_SPANS)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def certificate_skeleton_sha(cert_text: str) -> str:
    """sha256 of a certificate with its input monad document left out.

    The seeded signs change only that document, so the rest of the
    certificate (verdict, regions, every recorded dimension) has one
    reference for all seeds.
    """
    doc = json.loads(cert_text)
    doc.get("input", {}).pop("monad", None)
    return sha256(json.dumps(doc, sort_keys=True, indent=2))


class Job:
    """A timed call into the program and the check of its output.

    `call()` returns the program's result; `render(result)` turns it into
    the output text that is digested and checked.
    """

    def __init__(self, name, call, render, check):
        self.name = name
        self.call = call
        self.render = render
        self.check = check


# --- certify / verify ---------------------------------------------------------------

def _certify_jobs(seed: int) -> list:
    from bundlecert import k3lat, stability
    from bundlecert.monad import monad_from_document

    jobs = []
    for name, text, H in gen.monad_jobs(seed):
        doc = json.loads(text)
        m = monad_from_document(doc)
        pol = stability.Polarization(m.ambient, H)

        def check(out, refs, name=name, doc=doc):
            cert = json.loads(out)
            if cert["verdict"] != "Stable":
                return f"verdict {cert['verdict']}"
            if cert["input"]["monad"] != doc:
                return "certificate does not record the input monad"
            if certificate_skeleton_sha(out) != refs["certify"][name]:
                return "certificate differs from the reference"
            return None

        jobs.append(Job(
            name,
            lambda m=m, pol=pol: stability.certify(m, pol, stability.CertifyOptions()),
            lambda cert: cert.to_json(),
            check,
        ))

    quartic = json.loads(gen.quartic_text())
    surface, qmap = quartic["surface"], tuple(quartic.get("map", ("x", "y", "w")))

    def check_quartic(out, refs):
        if json.loads(out)["verdict"] != "Stable":
            return "quartic verdict is not Stable"
        if sha256(out) != refs["certify"]["quartic"]:
            return "quartic certificate differs from the reference"
        return None

    jobs.append(Job(
        "quartic",
        lambda: k3lat.quartic_region_run(surface, qmap),
        lambda cert: cert.to_json(),
        check_quartic,
    ))
    return jobs


def _verify_jobs(certificates: dict) -> list:
    from bundlecert import stability

    jobs = []
    for name, text in certificates.items():
        doc = json.loads(text)

        def check(out, refs, name=name, text=text):
            if certificate_skeleton_sha(text) != refs["certify"][name]:
                return "replayed certificate differs from the reference"
            problems = json.loads(out)
            return "; ".join(problems) if problems else None

        jobs.append(Job(
            name,
            lambda doc=doc: stability.verify_certificate(doc),
            json.dumps,
            check,
        ))
    return jobs


# --- point counts --------------------------------------------------------------------

def _count_jobs(workload: str, seed: int) -> list:
    from bundlecert import zeta
    from bundlecert.polycore import Ambient, parse_poly

    amb = Ambient.product_projective(1, 1)
    forms = {}
    jobs = []
    for name, text, p, n in gen.count_jobs(workload, seed):
        if text not in forms:  # the CLI parses a surface once per command
            forms[text] = parse_poly(json.loads(text)["polynomial"], amb)
        f = forms[text]

        def check(out, refs, name=name, p=p, n=n):
            N = int(out)
            q = p ** n
            if abs(N - 1 - q * q) > WEIL_TRACE_FACTOR * q:
                return f"count {N} breaks the Weil bound"
            if N != refs["count"][name]:
                return f"count {N} != reference {refs['count'][name]}"
            return None

        jobs.append(Job(name, lambda f=f, p=p, n=n: zeta.count_points(f, p, n, threads=1), str, check))
    return jobs


# --- counts to bound -----------------------------------------------------------------

def counts_to_bound(counts, p: int) -> dict:
    """The stage of `run_picard_bound` after counting, with the same calls in the same order."""
    from bundlecert import zeta

    profile = zeta.assemble_charpoly(counts[:-1], p, k_alg=gen.K_ALG)
    first = zeta.rank_upper_bound(profile)
    doc = profile.to_document()
    doc["stage1_bound"] = first.to_document()
    ambiguous = any(kind == "family" and c > 0 for _, kind, c, _ in first.per_candidate)
    if ambiguous:
        resolved = zeta.resolve_family_with_count(profile, counts[-1])
        final = zeta.rank_upper_bound(resolved)
        doc["disambiguation"] = {
            "n": len(counts),
            "count": counts[-1],
            "candidates": resolved.to_document()["candidates"],
        }
        doc["rank_upper_bound"] = final.bound
        doc["final_bound"] = final.to_document()
    else:
        doc["rank_upper_bound"] = first.bound
        doc["final_bound"] = first.to_document()
    return doc


def _charpoly_jobs(seed: int) -> list:
    jobs = []
    for name, case in gen.charpoly_cases(seed):
        def check(out, refs, name=name, case=case):
            doc = json.loads(out)
            if doc["elementary_symmetric"] != case["elementary"]:
                return "elementary symmetric functions differ from those of Q"
            if doc["rank_upper_bound"] < case["known_bound"]:
                return f"bound {doc['rank_upper_bound']} below the known {case['known_bound']}"
            if "disambiguation" in doc and not any(
                c["sign"] == 1 and c["coeffs_ascending"] == case["q_ascending"]
                and c["status"] == "surviving"
                for c in doc["disambiguation"]["candidates"]
            ):
                return "the pinned plus-sign candidate is not Q"
            recorded = refs["charpoly"].get(str(seed))
            if recorded is not None and sha256(out) != recorded[name]:
                return "bound document differs from the reference"
            return None

        jobs.append(Job(
            name,
            lambda case=case: counts_to_bound(case["counts"], case["p"]),
            lambda doc: json.dumps(doc, sort_keys=True, indent=2) + "\n",
            check,
        ))
    return jobs


def charpoly_notes(seed: int, outputs: dict) -> list:
    """Cases whose bound is above the known one: reported, not failed."""
    notes = []
    for name, case in gen.charpoly_cases(seed):
        out = outputs.get(name)
        if out is None:
            continue
        bound = json.loads(out)["rank_upper_bound"]
        if bound > case["known_bound"]:
            notes.append(f"{name}: bound {bound} above the known {case['known_bound']}")
    return notes


# --- one pass ------------------------------------------------------------------------

def build_jobs(workload: str, seed: int, stdin_doc: dict | None) -> list:
    if workload == "certify":
        return _certify_jobs(seed)
    if workload == "verify":
        return _verify_jobs(stdin_doc["certificates"])
    if workload in ("count-ext", "count-prime"):
        return _count_jobs(workload, seed)
    if workload == "charpoly":
        return _charpoly_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def import_program(workload: str):
    """What the CLI imports for this workload's command."""
    import bundlecert.cli  # noqa: F401

    if workload in ("count-ext", "count-prime", "charpoly"):
        import bundlecert.zeta  # noqa: F401  (imported lazily by those commands)


def calibrate() -> float:
    """Seconds taken by a fixed mix of integer, dict and Fraction arithmetic.

    The machine's speed drifts by up to a third over tens of seconds;
    samples of this mix taken between jobs follow that drift, and run.py
    scales the times of short jobs by them.  The mix never calls the program.
    """
    start = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    d = {}
    for i in range(25_000):
        d[i % 1000] = d.get(i % 1000, 0) + i
    f = Fraction(0)
    for i in range(1, 1500):
        f += Fraction(1, i)
    return time.perf_counter() - start


def run_jobs(jobs, calibration: list | None = None) -> list:
    """Time each job's call; keep the rendered output or the error.

    With a `calibration` list, a calibration sample is appended before the
    first job, between jobs at least CALIBRATION_INTERVAL_S apart, and after
    the last job; samples are never inside a job's timing.
    """
    results = []
    last_sample = float("-inf")
    for job in jobs:
        if calibration is not None and time.perf_counter() - last_sample >= CALIBRATION_INTERVAL_S:
            calibration.append(calibrate())
            last_sample = time.perf_counter()
        start = time.perf_counter()
        try:
            out = job.call()
            seconds = time.perf_counter() - start
            text, error = job.render(out), None
        except Exception as e:  # a failing job is counted, not fatal
            seconds = time.perf_counter() - start
            text, error = None, f"{type(e).__name__}: {e}"
        results.append((job, seconds, text, error))
    if calibration is not None:
        calibration.append(calibrate())
    return results


def check_results(results, refs: dict) -> list:
    """One record per job: time, output digest and the first problem found."""
    records = []
    for job, seconds, out, error in results:
        problem = error
        if problem is None:
            try:
                problem = job.check(out, refs)
            except (KeyError, ValueError, TypeError) as e:
                problem = f"check failed: {type(e).__name__}: {e}"
        records.append({
            "name": job.name,
            "s": seconds,
            "digest": sha256(out) if out is not None else None,
            "problem": problem,
        })
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup", "prep"), default="pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program(args.workload)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
    stdin_doc = json.loads(sys.stdin.read()) if args.workload == "verify" else None
    jobs = build_jobs(args.workload, args.seed, stdin_doc)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "calibration": [calibrate() for _ in range(3)]}))
        return 0

    calibration = []
    results = run_jobs(jobs, calibration)
    if args.mode == "prep":
        certificates = {
            job.name: out for job, _, out, _ in results if out is not None and job.name != "quartic"
        }
        print(json.dumps({"certificates": certificates}))
        return 0 if all(error is None for *_, error in results) else 1

    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    report = {
        "setup_s": setup_s,
        "jobs": check_results(results, refs),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calibration": calibration,
        "notes": [],
    }
    if args.workload == "charpoly":
        report["notes"] = charpoly_notes(
            args.seed, {job.name: out for job, _, out, _ in results if out is not None}
        )
    if recorder:
        report["layers"] = recorder.layer_metrics()
        report["missing_spans"] = recorder.missing_spans(EXPECTED_SPANS[args.workload])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
