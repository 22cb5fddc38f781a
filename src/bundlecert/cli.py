"""Command-line front end.

Commands: certify, h0, chern, quartic-run, count-points, picard-bound,
verify.  Documents are JSON with fixed field names; output is byte-stable
for fixed inputs and options.

`certify` prints a text summary, or the certificate with `--format json`.
certify and quartic-run return their certificate as the JSON document itself,
and every JSON artifact is printed by `Document.to_json`, the one canonical
rendering.
`--out FILE` writes the main artifact of certify, chern, quartic-run,
count-points and picard-bound to FILE instead of stdout; h0 and verify
print to stdout only.  quartic-run certifies ker(O(-1)^3 -> O) on a
quartic X = Z(f) in P3 and refuses a document with other twists.

picard-bound makes 9 counts over F_{p^n}, n = 1..9, and at most one at
n = 10, so it needs p^10 <= 2^20 (p = 3).  Its document records the inputs
`verify` re-runs it from; the re-run counts over the other ruling's fibers.

Exit codes: 0 success, 1 a usage error (argparse, option values included)
or a refusal, 2 Inconclusive or Unknown verdicts.  A refusal is a
BundleCertError, printed as one `error:` line; `main` catches nothing else.
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


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise BundleCertError(f"cannot read {path}: {e.strerror}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON or JSON nested too deep
        raise BundleCertError(f"cannot read {path}: {e}") from None


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise BundleCertError(f"cannot write {out}: {e.strerror}") from None


def _twist(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers k or k,l,..., got {text!r}") from None


def _point(text: str) -> tuple:
    try:
        a, b = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers a:b, got {text!r}") from None
    return (a, b)


def _surface_text(doc) -> str:
    """The (4,4) branch form of a surface document (or of a picard-bound
    document's `input`)."""
    if not (isinstance(doc, dict) and isinstance(doc.get("polynomial"), str)):
        raise BundleCertError("a surface is a JSON object with the polynomial as a string")
    return doc["polynomial"]


def _branch_form(polynomial: str, p: int, other_ruling: bool = False) -> RationalPolynomial:
    """The branch form of picard-bound, with every input check made before
    the first count: F_{p^HALF} can be built (the last count may be over it),
    and the form is a nonzero (4,4) form that does not vanish mod p.
    other_ruling swaps (x0, x1) with (y0, y1): the same surface, other fibers."""
    from .zeta import HALF, check_field, curve_coefficients

    check_field(p, HALF)
    f = parse_poly(polynomial, SURFACE_AMBIENT)
    if other_ruling:
        f = RationalPolynomial(SURFACE_AMBIENT, {(*e[2:], *e[:2]): c for e, c in f.terms.items()})
    curve_coefficients(f, p)
    return f


def cmd_certify(args) -> int:
    m = monad_from_document(_load_json(args.monad))
    H = Polarization(m.ambient, args.polarization)
    opts = CertifyOptions(fiber_points=(args.fiber_point, args.fiber_point), margin=args.margin)
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
    lo, hi = h0_monad(m, args.exterior, args.twist)["h0"]
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


def _picard_bound_document(f: RationalPolynomial, polynomial: str, p: int) -> dict:
    """The picard-bound document of f, read from `polynomial` by `_branch_form`."""
    from .zeta import run_picard_bound

    return {**run_picard_bound(f, p), "input": {"polynomial": polynomial, "prime": p}}


def cmd_picard_bound(args) -> int:
    polynomial = _surface_text(_load_json(args.surface))
    f = _branch_form(polynomial, args.prime)
    _emit(Document(_picard_bound_document(f, polynomial, args.prime)).to_json(), args.out)
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
        # every error of this re-run is about the surface it parses: a refused input
        problems = document_mismatches(k3lat.quartic_region_run(doc["surface"]), doc)
    elif schema.startswith("picard-bound-profile"):
        inp = doc.get("input")
        polynomial = _surface_text(inp)
        if not is_int(inp.get("prime")):
            raise BundleCertError("'input.prime' of a picard-bound document must be an integer")
        p = inp["prime"]
        f = _branch_form(polynomial, p, other_ruling=True)
        try:  # the inputs are well formed: a re-run that fails refutes the document
            rerun = _picard_bound_document(f, polynomial, p)
        except BundleCertError as e:
            problems = [f"re-run: {e}"]
        else:
            problems = document_mismatches(rerun, doc)
    else:
        raise BundleCertError(f"unknown certificate schema {schema!r}")
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
    p.add_argument("--polarization", required=True, type=_twist, help='e.g. "1" on P2 or "1,1"')
    p.add_argument("--fiber-point", type=_point, default="0:1")
    p.add_argument("--margin", type=int, default=None)
    add_out(p)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="a text summary on stdout, or the certificate JSON")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("h0", help="h^0 of (an exterior power of) a monad bundle")
    p.add_argument("--monad", required=True)
    p.add_argument("--twist", required=True, type=_twist, help='"k" or "k,l"')
    p.add_argument("--exterior", type=int, default=1)
    p.set_defaults(fn=cmd_h0)

    p = sub.add_parser("chern", help="Chern data of a monad bundle")
    p.add_argument("--monad", required=True)
    p.add_argument("--cover", choices=("none", "double"), default="none")
    add_out(p)
    p.set_defaults(fn=cmd_chern)

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
# such as "-1,2" or "-1:1" as an option, so main attaches it as --twist=-1,2
_TUPLE_OPTIONS = ("--polarization", "--fiber-point", "--twist")


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


if __name__ == "__main__":
    sys.exit(main())
