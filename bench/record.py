"""Record the references the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/record.py --source "<commit or version>"

Writes bench/references.json from the program's own outputs:
- certify: sha256 of every certificate with its input monad left out (and of
  the whole quartic certificate), identical for the baseline and confirm seeds;
- count: the point count of every (form, p, n) job, identical for both seeds
  (the seeds move the forms by automorphisms);
- charpoly: sha256 of every bound document, for the baseline and confirm seeds.

Outputs must first pass every check that needs no reference (Stable
verdicts, the Weil bound, the known rank bound of each synthetic case).
Re-record only when a change is meant to alter outputs, and say so.
"""
from __future__ import annotations

import argparse
import json
import sys

import child
import gen

SEEDS = (gen.BASELINE_SEED, gen.CONFIRM_SEED)


def outputs(workload: str, seed: int, stdin_doc=None) -> dict:
    out = {}
    for job, _, text, error in child.run_jobs(child.build_jobs(workload, seed, stdin_doc)):
        if error:
            sys.exit(f"{workload} seed {seed}: {job.name} raised {error}")
        out[job.name] = text
    return out


def same_for_all_seeds(kind: str, per_seed: list) -> dict:
    if any(d != per_seed[0] for d in per_seed[1:]):
        sys.exit(f"{kind} outputs depend on the seed; the generator must not change answers")
    return per_seed[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--source", required=True, help="the commit or version the references come from")
    args = ap.parse_args(argv)
    child.import_program("charpoly")

    certify, certificates = [], {}
    for seed in SEEDS:
        outs = outputs("certify", seed)
        certify.append({
            name: child.sha256(text) if name == "quartic" else child.certificate_skeleton_sha(text)
            for name, text in outs.items()
        })
        certificates[seed] = {name: text for name, text in outs.items() if name != "quartic"}

    counts = []
    for seed in SEEDS:
        counts.append({
            name: int(text)
            for workload in ("count-ext", "count-prime")
            for name, text in outputs(workload, seed).items()
        })

    refs = {
        "source": args.source,
        "baseline_seed": gen.BASELINE_SEED,
        "confirm_seed": gen.CONFIRM_SEED,
        "certify": same_for_all_seeds("certify", certify),
        "count": same_for_all_seeds("count", counts),
        "charpoly": {
            str(seed): {name: child.sha256(text) for name, text in outputs("charpoly", seed).items()}
            for seed in SEEDS
        },
    }

    for seed in SEEDS:
        for workload in child.WORKLOADS:
            stdin_doc = {"certificates": certificates[seed]} if workload == "verify" else None
            jobs = child.build_jobs(workload, seed, stdin_doc)
            for record in child.check_results(child.run_jobs(jobs), refs):
                if record["problem"]:
                    sys.exit(f"{workload} seed {seed}: {record['name']}: {record['problem']}")

    child.REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {child.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
