"""Command-line front end.

Commands: certify, h0, chern, lattice (pair | gram | genus | effectivity |
expected-dim), quartic-run, count-points, picard-bound, verify.  Documents
are JSON with fixed field names; output is byte-stable for fixed inputs and
options.

`certify` prints a text summary, or the certificate with `--format json`.
certify and quartic-run return their certificate as the JSON document itself,
and every JSON artifact is printed by `Document.to_json`, the one canonical
rendering.
`--out FILE` writes the main artifact of certify, chern, lattice,
quartic-run, count-points and picard-bound to FILE instead of stdout; h0 and
verify print to stdout only.  quartic-run certifies ker(O(-1)^3 -> O) on a
quartic X = Z(f) in P3 and refuses a document with other twists.

picard-bound makes 9 counts over F_{p^n}, n = 1..9, and at most one at
n = 10, so it needs p^10 <= 2^20 (p = 3).  Its document records the inputs
`verify` re-runs it from; the re-run counts over the other ruling's fibers.

Exit codes: 0 success, 1 input/usage errors, 2 Inconclusive or Unknown
verdicts.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import k3lat
from .cohom import h0_monad
from .errors import BundleCertError
from .monad import Document, chern_monad, is_int, is_list_of, monad_from_document
from .polycore import Ambient, RationalPolynomial, parse_poly
from .stability import (
    CertifyOptions,
    Polarization,
    certify,
    document_mismatches,
    verify_certificate,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2

FIELD_LIMIT_HELP = "odd prime p; every field F_q counted needs q = p^n ≤ 2^20"
SURFACE_AMBIENT = Ambient.product_projective(1, 1)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_twist(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _parse_point(text: str) -> tuple:
    a, b = text.split(":")
    return (int(a), int(b))


def _surface_text(doc) -> str:
    """The (4,4) branch form of a surface document (or of a picard-bound
    document's `input`)."""
    if not (isinstance(doc, dict) and isinstance(doc.get("polynomial"), str)):
        raise BundleCertError("a surface is a JSON object with the polynomial as a string")
    return doc["polynomial"]


def _picard_bound_document(polynomial: str, p: int, other_ruling: bool = False) -> dict:
    """run_picard_bound on the branch form, with the inputs its replay reads;
    other_ruling swaps (x0, x1) with (y0, y1): the same surface, other fibers."""
    from .zeta import HALF, check_field, run_picard_bound

    check_field(p, HALF)  # before the first count: the last one may be over F_{p^HALF}
    f = parse_poly(polynomial, SURFACE_AMBIENT)
    if other_ruling:
        f = RationalPolynomial(SURFACE_AMBIENT, {(*e[2:], *e[:2]): c for e, c in f.terms.items()})
    doc = run_picard_bound(f, p)
    doc["input"] = {"polynomial": polynomial, "prime": p}
    return doc


def cmd_certify(args) -> int:
    m = monad_from_document(_load_json(args.monad))
    H = Polarization(m.ambient, _parse_twist(args.polarization))
    opts = CertifyOptions(
        fiber_points=(_parse_point(args.fiber_point), _parse_point(args.fiber_point)),
        margin=args.margin,
    )
    cert = certify(m, H, opts)
    if args.format == "json" or args.out:
        _emit(cert.to_json(), args.out)
    if args.format == "text":
        c = cert["chern"]
        lines = [
            f"bundle: {cert['bundle']}",
            f"chern: rank {c['rank']}, c1 {c['c1']}, c2 {c['c2']}",
            f"slope: {cert['slope']}",
            f"core checks: {len(cert['core_checks'])}, tail rules: {len(cert['tail_rules'])}",
            f"verdict: {cert['verdict']}",
        ]
        if cert["failure"]:
            lines.append(f"failure: {json.dumps(cert['failure'], sort_keys=True)}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if cert["verdict"] == "Stable" else EXIT_INCONCLUSIVE


def cmd_h0(args) -> int:
    m = monad_from_document(_load_json(args.monad))
    lo, hi = h0_monad(m, args.exterior, _parse_twist(args.twist))["h0"]
    sys.stdout.write(f"{lo}\n" if lo == hi else f"[{lo}, {hi}]\n")
    return EXIT_OK


def cmd_chern(args) -> int:
    m = monad_from_document(_load_json(args.monad))
    c = chern_monad(m)
    doc = Document(c)
    if args.cover == "double":
        cover = k3lat.pullback_chern(c)
        doc["cover"] = {**cover, "c1": f"pullback of O({cover['c1']})"}
    _emit(doc.to_json(), args.out)
    return EXIT_OK


def _lattice_from_args(args) -> k3lat.GramLattice:
    catalogue = {
        "U": k3lat.U,
        "U2": k3lat.U2,
        "quartic-452": k3lat.QUARTIC_452,
    }
    if args.lattice in catalogue:
        return catalogue[args.lattice]
    doc = _load_json(args.lattice)
    if not isinstance(doc, dict):
        raise BundleCertError("a lattice is a JSON object")
    names, gram = doc.get("names"), doc.get("gram")
    if not is_list_of(names, lambda n: isinstance(n, str)):
        raise BundleCertError("'names' must be a list of strings")
    if not is_list_of(gram, lambda row: is_list_of(row, is_int)):
        raise BundleCertError("'gram' must be a list of lists of integers")
    return k3lat.GramLattice(tuple(names), tuple(tuple(r) for r in gram))


# the number of --class options each lattice command reads; gram reads 1 or more
_CLASS_COUNTS = {"pair": 2, "genus": 1, "effectivity": 2, "expected-dim": 0}


def cmd_lattice(args) -> int:
    lat = _lattice_from_args(args)
    sub = args.lattice_cmd
    n = len(args.classes)
    if n != _CLASS_COUNTS.get(sub, n) or (sub == "gram" and n == 0):
        want = _CLASS_COUNTS.get(sub, "at least 1")
        raise BundleCertError(f"lattice {sub} needs {want} --class, got {n}")
    classes = [lat.cls(_parse_twist(c)) for c in args.classes]
    out = {}
    if sub == "pair":
        out = {"pair": lat.pair(*classes)}
    elif sub == "genus":
        D = classes[0]
        out = {"self_intersection": lat.pair(D, D), "genus": k3lat.genus(lat, D)}
    elif sub == "gram":
        mat, det = k3lat.gram_of(lat, classes)
        out = {"gram": [list(r) for r in mat], "det": det}
        if det == 0:
            try:
                out["dependency"] = list(k3lat.dependency(lat, classes))
            except ValueError:
                pass
    elif sub == "effectivity":
        cert = k3lat.not_effective_cert(lat, *classes)
        out = {"verdict": "Unknown"} if cert is None else {"verdict": "NotEffective", **cert}
    elif sub == "expected-dim":
        out = {"expected_dim": k3lat.expected_dim(args.rank, args.c1sq, args.c2)}
    _emit(Document(out).to_json(), args.out)
    if out.get("verdict") == "Unknown":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_quartic_run(args) -> int:
    doc = _load_json(args.surface)
    if not (isinstance(doc, dict) and isinstance(doc.get("surface"), str)):
        raise BundleCertError("a quartic surface is a JSON object with the quartic as a string")
    section_map = doc.get("map", ["x", "y", "w"])
    if not (is_list_of(section_map, lambda e: isinstance(e, str)) and len(section_map) == 3):
        raise BundleCertError("'map' must be a list of three linear forms as strings")
    # the region and strata are derived for ker(O(-1)^3 -> O) only
    if doc.get("source", [-1, -1, -1]) != [-1, -1, -1] or doc.get("target", [0]) != [0]:
        raise BundleCertError("quartic-run supports 'source' [-1, -1, -1] and 'target' [0] only")
    cert = k3lat.quartic_region_run(doc["surface"], tuple(section_map))
    _emit(cert.to_json(), args.out)
    return EXIT_OK if cert["verdict"] == "Stable" else EXIT_INCONCLUSIVE


def cmd_count_points(args) -> int:
    from .zeta import check_field, count_points

    check_field(args.prime, args.max_n)
    f = parse_poly(_surface_text(_load_json(args.surface)), SURFACE_AMBIENT)
    lines = []
    for n in range(1, args.max_n + 1):
        N = count_points(f, args.prime, n)
        q = args.prime ** n
        t = N - 1 - q * q
        lines.append(f"{n}, {q}, {N}, {t}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_picard_bound(args) -> int:
    polynomial = _surface_text(_load_json(args.surface))
    result = _picard_bound_document(polynomial, args.prime)
    _emit(Document(result).to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = _load_json(args.certificate)
    if not isinstance(doc, dict):
        raise BundleCertError("a certificate is a JSON object")
    schema = str(doc.get("schema", ""))
    if schema.startswith("stability-certificate"):
        problems = verify_certificate(doc)
    elif schema.startswith("quartic-certificate"):
        if not isinstance(doc.get("surface"), str):
            raise BundleCertError("a quartic certificate needs the surface as a string")
        problems = document_mismatches(k3lat.quartic_region_run(doc["surface"]), doc)
    elif schema.startswith("picard-bound-profile"):
        inp = doc.get("input")
        polynomial = _surface_text(inp)
        if not is_int(inp.get("prime")):
            raise BundleCertError("'input.prime' of a picard-bound document must be an integer")
        rerun = _picard_bound_document(polynomial, inp["prime"], other_ruling=True)
        problems = document_mismatches(rerun, doc)
    else:
        sys.stdout.write(f"unknown certificate schema {schema!r}\n")
        return EXIT_ERROR
    if problems:
        sys.stdout.write("verification FAILED:\n" + "\n".join(problems) + "\n")
        return EXIT_ERROR
    sys.stdout.write("certificate verified: the re-run reproduces every field\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bundlecert")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="write the main artifact to this path")

    p = sub.add_parser("certify", help="stability certificate for a monad bundle")
    p.add_argument("--monad", required=True)
    p.add_argument("--polarization", required=True, help='e.g. "1" on P2 or "1,1"')
    p.add_argument("--fiber-point", default="0:1")
    p.add_argument("--margin", type=int, default=None)
    add_out(p)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="a text summary on stdout, or the certificate JSON")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("h0", help="h^0 of (an exterior power of) a monad bundle")
    p.add_argument("--monad", required=True)
    p.add_argument("--twist", required=True, help='"k" or "k,l"')
    p.add_argument("--exterior", type=int, default=1)
    p.set_defaults(fn=cmd_h0)

    p = sub.add_parser("chern", help="Chern data of a monad bundle")
    p.add_argument("--monad", required=True)
    p.add_argument("--cover", choices=("none", "double"), default="none")
    add_out(p)
    p.set_defaults(fn=cmd_chern)

    p = sub.add_parser("lattice", help="intersection-lattice computations")
    p.add_argument("lattice_cmd", choices=(
        "pair", "gram", "genus", "effectivity", "expected-dim"))
    p.add_argument("--lattice", default="quartic-452",
                   help="catalogue name (U, U2, quartic-452) or a JSON file")
    p.add_argument("--class", dest="classes", action="append", default=[],
                   help='class coordinates, e.g. "1,0" (repeatable)')
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--c1sq", type=int, default=0)
    p.add_argument("--c2", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("quartic-run", help="stability pipeline on the quartic surface")
    p.add_argument("--surface", required=True, help="JSON with the quartic and the section map")
    add_out(p)
    p.set_defaults(fn=cmd_quartic_run)

    p = sub.add_parser("count-points", help="point counts of the branched double cover")
    p.add_argument("--surface", required=True, help="JSON with the (4,4) branch curve")
    p.add_argument("--prime", type=int, required=True, help=FIELD_LIMIT_HELP)
    p.add_argument("--max-n", type=int, default=9)
    add_out(p)
    p.set_defaults(fn=cmd_count_points)

    text = ("geometric Picard-rank upper bound from 9 point counts over F_{p^n}, n = 1..9, "
            "and at most one at n = 10")
    p = sub.add_parser("picard-bound", help=text, description=text)
    p.add_argument("--surface", required=True, help="JSON with the (4,4) branch curve")
    p.add_argument("--prime", type=int, required=True,
                   help="odd prime p with p^10 ≤ 2^20 (p = 3)")
    add_out(p)
    p.set_defaults(fn=cmd_picard_bound)

    text = ("re-run the computation a stability or quartic certificate or a picard-bound "
            "document records and compare the result with the whole document")
    p = sub.add_parser("verify", help=text, description=text)
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_verify)

    return ap


# options whose value is a tuple of integers: argparse reads a separate value
# such as "-1,2" or "-1:1" as an option, so main attaches it as --class=-1,2
_TUPLE_OPTIONS = ("--polarization", "--fiber-point", "--twist", "--class")


def _attach_negative_values(argv) -> list:
    out = []
    for arg in argv:
        if out and out[-1] in _TUPLE_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(_attach_negative_values(argv))
    except SystemExit as e:
        return EXIT_ERROR if e.code else EXIT_OK
    try:
        return args.fn(args)
    except BundleCertError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
