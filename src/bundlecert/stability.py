"""Slope-stability certification for monad bundles via vanishing of twisted
sections of exterior powers.

The criterion: a rank-r bundle E is stable once H^0(Λ^s E ⊗ L) = 0 for every
line bundle L with deg_H(L) <= -s·μ(E) and every 1 <= s <= r-1.  The verifier
splits each such region into a finite CORE, checked twist by twist, plus (on
P1 x P1) two infinite TAILS covered by the fiber-descent rule, plus monotone
downward propagation (multiplication by a section of an effective divisor
class is injective on sections of a torsion-free sheaf).  Only the sufficient
direction is used: a nonzero h^0 yields Inconclusive, never "unstable".

certify builds the certificate as a JSON document while it runs, and returns
that document.  A certificate records the monad, polarization and options it
was made from.  verify re-runs certify on them and compares the document it
returns with the recorded one, field by field, so a certificate that leaves
out an obligation, or claims a verdict its checks do not support, differs
from its re-run.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .cohom import h0_monad, tail_vanish
from .errors import BundleCertError, FiberNotVanishingError, UnsupportedOperationError
from .monad import (
    UNKNOWN,
    Document,
    MonadComplex,
    chern_monad,
    is_int,
    is_list_of,
    monad_from_document,
    monad_to_document,
    validate,
)
from .polycore import Ambient, intersection_product

STABLE = "Stable"
INCONCLUSIVE = "Inconclusive"


class Polarization:
    """An ample class on the ambient surface."""

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient: Ambient, coords: tuple):
        self.ambient = ambient
        self.coords = ambient.normalize_degree(coords)
        # positive components make the class ample on a product of projective
        # spaces, and so give it positive self-intersection on a surface
        if any(c <= 0 for c in self.coords):
            raise BundleCertError("polarization components must be positive")

    def degree(self, L) -> int:
        return intersection_product(self.ambient, self.ambient.normalize_degree(L), self.coords)

    @property
    def is_balanced(self) -> bool:
        """True when proportional to O(1) resp. O(1,1)."""
        return len(set(self.coords)) == 1


def slope(c: dict, H: Polarization) -> Fraction:
    """deg_H(c1) / rank, of the Chern data that `chern_monad` returns; the
    rank is positive, since `MonadComplex` refuses a rank below 1."""
    return Fraction(H.degree(c["c1"]), c["rank"])


def twist_region(c: dict, s: int, H: Polarization) -> int:
    """The integer bound of {deg_H(L) <= -s·μ(E)}: the region is every L whose
    components sum to at most the bound (a half-line on P^n, a band on
    P1 x P1).  `certify`, its one caller, takes s in 1..rank-1."""
    if not H.is_balanced:
        raise BundleCertError(
            "twist regions are implemented for multiples of O(1) / O(1,1)"
        )
    # deg_H(L) = h * (sum of L's components), h = H.coords[0]
    bound = -s * slope(c, H) / H.coords[0]
    return bound.numerator // bound.denominator  # exact floor


TAIL_FLOOR = -6  # the lowest tail bound the fiber-descent search tries


class CertifyOptions:
    __slots__ = (
        "fiber_points",  # per axis
        "margin",  # None: evaluate every core point; else maximal points only
    )

    def __init__(self, fiber_points: tuple = ((0, 1), (0, 1)), margin: int | None = None):
        self.fiber_points = fiber_points
        self.margin = margin
        if margin is not None and margin < 0:
            raise BundleCertError("margin must be a nonnegative integer")
        if any(a == 0 and b == 0 for a, b in fiber_points):
            raise BundleCertError("fiber point (0:0) is not a point of P1")

    def to_dict(self) -> dict:
        return {
            "fiber_points": [list(p) for p in self.fiber_points],
            "tail_floor": TAIL_FLOOR,
            "margin": self.margin,
        }


_GIESEKER_NOTE = (
    "mu-stable implies Gieseker-stable implies Gieseker-semistable implies mu-semistable"
)


def certify(m: MonadComplex, H: Polarization, options: CertifyOptions | None = None) -> Document:
    """Run the full vanishing verification and return the certificate: the
    document `verify` compares with its re-run.  H is a polarization on
    m.ambient, as both callers build it."""
    options = options or CertifyOptions()

    ends = validate(m)
    chern = chern_monad(m)
    cert = Document(
        schema="stability-certificate/1",
        bundle=m.name or "monad-bundle",
        chern=chern,
        slope=str(slope(chern, H)),
        polarization=list(H.coords),
        regions={},
        core_checks=[],
        tail_rules=[],
        monotone_propagations=[],
        verdict=INCONCLUSIVE,
        failure=None,
        notes=[_GIESEKER_NOTE],
        input={"monad": monad_to_document(m), "options": options.to_dict()},
    )
    if UNKNOWN in ends.values():  # any other status is a proof, or Vacuous
        cert["failure"] = {"reason": "exactness not proved", **ends}
        return cert
    cert["notes"].append("exactness at the ends proved by the monomial cover rule")

    try:
        for s in range(1, chern["rank"]):
            bound = twist_region(chern, s, H)
            if m.ambient.arity == 1:
                cert["regions"][str(s)] = {"kind": "halfline", "bound": bound}
                fail = _run_halfline(m, s, bound, cert)
            else:
                cert["regions"][str(s)] = {"kind": "band", "bound": bound}
                fail = _run_band(m, s, bound, cert, options)
            if fail is not None:
                cert["failure"] = fail
                return cert
    except (FiberNotVanishingError, UnsupportedOperationError) as e:
        cert["failure"] = {"reason": type(e).__name__, "detail": str(e)}
        return cert

    cert["verdict"] = STABLE
    return cert


def _record_check(cert, s, twist, res) -> dict | None:
    cert["core_checks"].append({"s": s, "twist": list(twist), **res})
    if res["h0"][1] != 0:
        return {"reason": "nonzero h0 upper bound", "s": s, "twist": list(twist),
                "h0": list(res["h0"])}
    return None


def _run_halfline(m, s, bound, cert) -> dict | None:
    fail = _record_check(cert, s, (bound,), h0_monad(m, s, (bound,)))
    if fail:
        return fail
    cert["monotone_propagations"].append(
        {"s": s, "from": [bound], "covers": f"all k <= {bound} by downward monotonicity"}
    )
    return None


def _run_band(m, s, bound, cert, options) -> dict | None:
    tail_bounds = []
    for axis in (1, 2):
        point = options.fiber_points[axis - 1]
        for t in range(-1, TAIL_FLOOR - 1, -1):
            try:
                witness = tail_vanish(m, s, axis, t, point)
                break
            except FiberNotVanishingError:
                pass
        else:
            raise FiberNotVanishingError(
                f"fiber h0 does not vanish at point {tuple(point)}: "
                f"no tail bound above the floor {TAIL_FLOOR} (s={s})"
            )
        cert["tail_rules"].append(
            {"s": s, "axis": axis, "bound": t, "point": list(point), "witness": witness}
        )
        tail_bounds.append(t)

    t1, t2 = tail_bounds
    core = [
        (k, l)
        for k in range(t1 + 1, bound - t2)
        for l in range(t2 + 1, bound - k + 1)
    ]
    core.sort(key=lambda kl: (-(kl[0] + kl[1]), -kl[0]))
    checked, covered = core, []
    if options.margin is not None:  # check the maximal points only
        checked = [kl for kl in core if sum(kl) >= bound - options.margin]
        covered = [kl for kl in core if sum(kl) < bound - options.margin]
    for kl in checked:
        fail = _record_check(cert, s, kl, h0_monad(m, s, kl))
        if fail:
            return fail
    for kl in covered:
        cert["monotone_propagations"].append({"s": s, "from": [kl[0], bound - kl[0]],
                                              "covers": f"covers {kl} by downward monotonicity"})
    return None


def _read_inputs(doc) -> tuple:
    """The monad, polarization and options a certificate records, a JSON
    object (`cli.cmd_verify` checks that).  Only these are read before the
    re-run; a wrong JSON type raises BundleCertError."""
    inp = doc.get("input")
    if not (isinstance(inp, dict) and isinstance(inp.get("monad"), dict)):
        raise BundleCertError("'input' and 'input.monad' must be JSON objects")
    if not is_list_of(doc.get("polarization"), is_int):
        raise BundleCertError("'polarization' must be a list of integers")
    opts = inp.get("options")
    points = opts.get("fiber_points") if isinstance(opts, dict) else None
    if not (is_list_of(points, lambda pt: is_list_of(pt, is_int)
                       and len(pt) == 2) and len(points) == 2):
        raise BundleCertError("'input.options.fiber_points' must be two [int, int]")
    margin = opts.get("margin")
    if not (margin is None or is_int(margin)):
        raise BundleCertError("'input.options.margin' must be an integer or null")
    m = monad_from_document(inp["monad"])
    options = CertifyOptions(tuple(tuple(p) for p in points), margin)
    return m, Polarization(m.ambient, tuple(doc["polarization"])), options


def document_mismatches(replayed: dict, doc: dict) -> list:
    """One line per top-level field where `doc` differs from the document a
    re-run produced (after a JSON round trip); a list field also names the
    first entry that differs.  Empty when the two are equal.

    A re-run holds JSON values only (lists, never tuples), so the round trip
    is the identity on it, and `replayed == doc` means nothing differs."""
    if replayed == doc:
        return []
    replayed = json.loads(json.dumps(replayed))
    problems = []
    for key in sorted(set(replayed) | set(doc)):
        if key not in doc or key not in replayed:
            where = "certificate" if key not in doc else "re-run"
            problems.append(f"{key}: missing from the {where}")
        elif replayed[key] != doc[key]:
            got, recorded = replayed[key], doc[key]
            if isinstance(got, list) and isinstance(recorded, list):
                i = next((i for i, (a, b) in enumerate(zip(got, recorded)) if a != b),
                         min(len(got), len(recorded)))
                problems.append(f"{key}: entry {i} differs from the re-run "
                                f"({len(recorded)} recorded, {len(got)} re-run)")
            else:
                problems.append(f"{key}: differs from the re-run")
    return problems


def verify_certificate(doc: dict) -> list:
    """Re-run certify on the monad, polarization and options the certificate
    records and compare the result with the whole document.

    Returns one description per top-level field that differs; empty means the
    certificate re-verifies.  Recorded inputs of the wrong JSON type raise
    BundleCertError.
    """
    m, H, options = _read_inputs(doc)
    return document_mismatches(certify(m, H, options), doc)

