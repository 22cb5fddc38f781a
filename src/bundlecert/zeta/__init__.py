"""Point counting over F_{p^n} and Frobenius-eigenvalue Picard bounds."""
from __future__ import annotations

from .charpoly import (
    HALF,
    K_ALG,
    RankBoundResult,
    ZetaProfile,
    all_roots_on_circle,
    assemble_charpoly,
    cyclotomic,
    euler_phi,
    family_completions,
    profile_from_counts,
    rank_upper_bound,
    resolve_family_with_count,
    unit_root_count,
    weil_trace,
)
from .count import count_points, count_points_bruteforce, curve_coefficients
from .field import Field, check_field, make_field, primitive_modulus

__all__ = [
    "Field",
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
    "primitive_modulus",
    "profile_from_counts",
    "rank_upper_bound",
    "resolve_family_with_count",
    "run_picard_bound",
    "unit_root_count",
]


def run_picard_bound(f, p: int) -> dict:
    """Counts, candidate assembly, and the rank bound, as one document.

    The one shape of `charpoly`: the U(2) of the pulled-back rulings
    (k_alg = 2) comes out of the traces, leaving a degree-20 Weil factor.
    The HALF - 1 = 9 counts over F_{p^n}, n = 1..9, determine the minus-sign
    completion and leave the coefficient of T^HALF free for the plus sign;
    when a plus-sign completion with unit roots survives, the count at
    n = HALF = 10 pins it and removes the ambiguity (recorded in the
    document).  Each trace is audited against the Weil bound as soon as its
    count is made, so a bad one stops the run before the next count.  The
    caller checks that p^HALF fits the field cap before the first count.
    """
    counts = []
    for n in range(1, HALF):
        counts.append(count_points(f, p, n))
        weil_trace(counts[-1], p, n)
    profile = assemble_charpoly(counts, p)
    first = rank_upper_bound(profile)
    doc = profile.to_document()
    doc["stage1_bound"] = first.to_document()
    ambiguous = any(
        kind == "family" and contrib > 0 for _, kind, contrib, _ in first.per_candidate
    )
    if ambiguous:
        extra = count_points(f, p, HALF)
        resolved = resolve_family_with_count(profile, extra)
        final = rank_upper_bound(resolved)
        doc["disambiguation"] = {
            "n": HALF,
            "count": extra,
            "candidates": resolved.to_document()["candidates"],
        }
        doc["rank_upper_bound"] = final.bound
        doc["final_bound"] = final.to_document()
    else:
        doc["rank_upper_bound"] = first.bound
        doc["final_bound"] = first.to_document()
    doc["lower_bound"] = {
        "value": K_ALG,
        "source": "pullbacks of the two rulings of P1 x P1, spanning U(2) = [0 2 0]",
    }
    return doc
