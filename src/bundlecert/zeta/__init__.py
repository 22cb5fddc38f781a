"""Point counting over F_{p^n} and Frobenius-eigenvalue Picard bounds."""
from __future__ import annotations

from dataclasses import replace

from .charpoly import (
    Candidate,
    RankBoundResult,
    ZetaProfile,
    all_roots_on_circle,
    assemble_charpoly,
    cyclotomic,
    euler_phi,
    family_completions,
    newton_elementary_from_power_sums,
    rank_upper_bound,
    traces_from_counts,
    unit_root_count,
)
from .count import count_points, count_points_bruteforce, curve_coefficients
from .field import FqField, check_field, make_field, smallest_irreducible

__all__ = [
    "Candidate",
    "FqField",
    "RankBoundResult",
    "ZetaProfile",
    "all_roots_on_circle",
    "assemble_charpoly",
    "check_field",
    "count_points",
    "count_points_bruteforce",
    "curve_coefficients",
    "cyclotomic",
    "euler_phi",
    "family_completions",
    "make_field",
    "newton_elementary_from_power_sums",
    "rank_upper_bound",
    "resolve_family_with_count",
    "run_picard_bound",
    "smallest_irreducible",
    "traces_from_counts",
    "unit_root_count",
]


def resolve_family_with_count(profile: ZetaProfile, extra_count: int) -> ZetaProfile:
    """Pin an underdetermined middle coefficient with the next point count.

    With d/2 - 1 counts the plus-sign completion has one free coefficient;
    the count over the next extension determines the missing power sum and
    hence the coefficient exactly, turning the family into a complete
    candidate (re-vetted by the circle test).
    """
    p = profile.p
    n_next = len(profile.counts) + 1
    t_next = extra_count - 1 - p ** (2 * n_next)
    ps_next = t_next - profile.k_alg * p ** n_next
    power_sums = profile.reduced_power_sums + [ps_next]
    elementary = newton_elementary_from_power_sums(power_sums)
    out = ZetaProfile(
        p=profile.p,
        counts=profile.counts + [extra_count],
        k_alg=profile.k_alg,
        traces=profile.traces + [t_next],
        reduced_power_sums=power_sums,
        elementary=elementary,
        candidates=[],
        weil_audit_ok=profile.weil_audit_ok,
    )
    e_mid = elementary[-1]
    for cand in profile.candidates:
        if cand.kind != "family":
            out.candidates.append(cand)
            continue
        coeffs = list(cand.coeffs)
        coeffs[cand.middle_index] = e_mid  # (-1)^h e_h with h even: sign +
        pinned = Candidate(sign=cand.sign, kind="complete", coeffs=tuple(coeffs))
        if all_roots_on_circle(coeffs, p, pinned.sign):
            pinned = replace(pinned, status="surviving", reason="circle test passed (pinned middle)")
        else:
            pinned = replace(pinned, status="discarded", reason="pinned middle fails the circle test")
        out.candidates.append(pinned)
    return out


def run_picard_bound(f, p: int, threads: int = 1) -> dict:
    """Counts, candidate assembly, and the rank bound, as one document.

    The algebraic part taken out of the traces is the U(2) spanned by the
    pulled-back rulings (k_alg = 2), the only classes known to be algebraic.
    The nine counts over F_{p^n}, n = 1..9, determine the minus-sign completion
    and leave one free coefficient for the plus sign; when a feasible
    plus-sign completion with unit roots survives, one count at n = 10 pins
    the coefficient and removes the ambiguity (recorded in the document).
    The caller checks that p^10 fits the field cap before the first count.
    """
    counts = [count_points(f, p, n, threads=threads) for n in range(1, 10)]
    profile = assemble_charpoly(counts, p)
    first = rank_upper_bound(profile)
    doc = profile.to_document()
    doc["stage1_bound"] = first.to_document()
    ambiguous = any(
        kind == "family" and contrib > 0 for _, kind, contrib, _ in first.per_candidate
    )
    if ambiguous:
        n_next = len(counts) + 1
        extra = count_points(f, p, n_next, threads=threads)
        resolved = resolve_family_with_count(profile, extra)
        final = rank_upper_bound(resolved)
        doc["disambiguation"] = {
            "n": n_next,
            "count": extra,
            "candidates": resolved.to_document()["candidates"],
        }
        doc["rank_upper_bound"] = final.bound
        doc["final_bound"] = final.to_document()
    else:
        doc["rank_upper_bound"] = first.bound
        doc["final_bound"] = first.to_document()
    doc["lower_bound"] = {
        "value": 2,
        "source": "catalogued pullback classes spanning U(2) = [0 2 0]",
    }
    return doc
