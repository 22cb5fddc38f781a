"""Exact h^0 computations for monad bundles and their exterior powers.

Everything reduces to kernels of section matrices between twisted sums of
line bundles, by left exactness of global sections:

  * kernel monads:    H^0(K⊗L) = ker(H^0(B⊗L) -> H^0(C⊗L));
  * exterior powers:  0 -> Λ^s K -> Λ^s B -> Λ^{s-1}B ⊗ C, the second map
    being contraction with b (valid fiberwise wherever b is onto), so
    H^0(Λ^s K⊗L) is the kernel of the contraction's section matrix; at
    s = 1 it is b itself, for C of any rank, and s >= 2 needs rank-1 C;
  * homology monads:  h^0(E⊗L) is sandwiched by the A-cohomology of the
    splitting 0 -> A -> K -> E -> 0 and is exact when h^1(A⊗L) = 0.

Each h^0 function returns the fragment a certificate's core check records,
{"h0": [lo, hi], "method": ..., "witness": {...}}: lo == hi is an exact value,
lo < hi an interval bound.  lo <= hi holds by construction, since hi - lo is
a dimension, h^1(A⊗L).

The tail rule turns the fiber-restriction estimate into a rigorous
vanish-on-divisor descent certificate for a whole half-plane of twists.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import BundleCertError, FiberNotVanishingError, UnsupportedOperationError
from .monad import HOMOLOGY, KERNEL, MonadComplex, restrict_to_fiber
from .polycore import (
    Ambient,
    RationalPolynomial,
    mdeg_add,
    section_matrix,
)

SECTION_KERNEL = "SectionKernel"
EXTERIOR_KERNEL = "ExteriorKernel"
HOMOLOGY_BOUND = "HomologyBound"


def _h_line_pn(n: int, k: int, i: int) -> int:
    """h^i(P^n, O(k)) by Bott's formula: only h^0 and h^n can be nonzero."""
    if i == 0:
        return comb(n + k, n) if k >= 0 else 0
    if i == n:
        return comb(-k - 1, n) if k <= -n - 1 else 0
    return 0


def h_line(ambient: Ambient, d, i: int) -> int:
    """h^i of a line bundle, 0 <= i <= dim: Bott's formula on P^n, Künneth on
    P1 x P1.  Its one caller, `h_line_sum`, is asked for i = 0 or 1 only."""
    d = ambient.normalize_degree(d)
    if ambient.arity == 1:
        return _h_line_pn(ambient.dims[0], d[0], i)
    if ambient.dims == (1, 1):
        return sum(_h_line_pn(1, d[0], a) * _h_line_pn(1, d[1], i - a) for a in range(i + 1))
    raise BundleCertError("h_line implemented for P^n and P1 x P1")


def h_line_sum(ambient: Ambient, twists, L, i: int) -> int:
    L = ambient.normalize_degree(L)
    return sum(h_line(ambient, mdeg_add(ambient.normalize_degree(t), L), i) for t in twists)


def _kernel_result(m: MonadComplex, entries, src_twists, tgt_twists, L, method) -> dict:
    """The h^0 fragment of the kernel of the section matrix at twist L, a
    tuple of ints with one per factor: every caller builds its twists so, and
    `cli.cmd_h0` normalizes the user's --twist where it enters."""
    M = section_matrix(m.ambient, entries, src_twists, tgt_twists, L)
    rank = M.rank()
    nullity = M.cols - rank
    witness = {
        "twist": list(L),
        "rows": M.rows,
        "cols": M.cols,
        "rank": rank,
        "nullity": nullity,
    }
    return {"h0": [nullity, nullity], "method": method, "witness": witness}


def _wedge_twists(m: MonadComplex, s: int, base) -> list:
    """base + the sum of the middle twists over each s-subset, in combinations order."""
    out = []
    for S in combinations(range(len(m.middle)), s):
        t = base
        for i in S:
            t = mdeg_add(t, m.middle[i])
        out.append(t)
    return out


@lru_cache(maxsize=32)
def exterior_contraction(m: MonadComplex, s: int):
    """Entries and twists for the contraction Λ^s B -> Λ^{s-1} B ⊗ C, b itself
    at s = 1; s >= 2 needs rank-1 C.  Independent of the twist, so built once
    per (monad, s) and shared immutable.  `h0_monad` owns the range of s."""
    r = len(m.middle)
    if s == 1:
        return m.map_b, m.middle, m.target
    if len(m.target) != 1:
        raise BundleCertError(
            f"exterior powers need a rank-1 cokernel, got rank {len(m.target)}"
        )
    b = m.map_b[0]
    sources = list(combinations(range(r), s))
    targets = list(combinations(range(r), s - 1))
    src_twists = _wedge_twists(m, s, m.ambient.zero_degree())
    tgt_twists = _wedge_twists(m, s - 1, m.target[0])
    zero = RationalPolynomial.zero(m.ambient)
    entries = [[zero] * len(sources) for _ in targets]
    tpos = {T: i for i, T in enumerate(targets)}
    for col, S in enumerate(sources):
        # S minus its pos-th index is a distinct T for each pos: one b_i per cell
        for pos, i in enumerate(S):
            entries[tpos[S[:pos] + S[pos + 1 :]]][col] = b[i] if pos % 2 == 0 else -b[i]
    return tuple(map(tuple, entries)), tuple(src_twists), tuple(tgt_twists)


def h0_exterior(m: MonadComplex, s: int, L) -> dict:
    """h^0((Λ^s ker b) ⊗ O(L)), exact, for a kernel monad m (rank-1 cokernel
    if s >= 2); its callers dispatch on m.kind."""
    entries, src, tgt = exterior_contraction(m, s)
    res = _kernel_result(m, entries, src, tgt, L, EXTERIOR_KERNEL)
    res["witness"]["s"] = s
    return res


def h0_homology(m: MonadComplex, L) -> dict:
    """h^0((ker b / im a) ⊗ O(L)) for a homology monad m; exact when
    h^1(A⊗L) = 0, else an interval.  Its callers dispatch on m.kind; L is
    a tuple of ints, as for `_kernel_result`."""
    # the K in 0 -> A -> K -> E -> 0
    k = _kernel_result(m, m.map_b, m.middle, m.target, L, SECTION_KERNEL)
    a0 = h_line_sum(m.ambient, m.source, L, 0)
    a1 = h_line_sum(m.ambient, m.source, L, 1)
    lo = k["h0"][0] - a0
    if lo < 0:
        raise BundleCertError(
            "h^0(A) exceeds h^0(K); the monad is not exact at A"
        )
    witness = {"twist": list(L), "h0_kernel": k["witness"], "h0_A": a0, "h1_A": a1}
    return {"h0": [lo, lo + a1], "method": HOMOLOGY_BOUND, "witness": witness}


def h0_monad(m: MonadComplex, s: int, L) -> dict:
    """Uniform front end: Λ^s of the monad bundle, twisted by L.

    s must lie in 1..rank for a kernel monad and be 1 for a homology monad
    (exterior powers of homology monads are unsupported); any other s is
    refused before any other check.
    """
    if m.kind == KERNEL:
        rank = len(m.middle) - len(m.target)
        if not 1 <= s <= rank:
            raise UnsupportedOperationError(
                f"s = {s} is out of range: a kernel monad of rank {rank} takes s in 1..{rank}"
            )
        return h0_exterior(m, s, L)
    if s != 1:
        raise UnsupportedOperationError(
            f"s = {s} is out of range: a homology monad takes s = 1 only"
        )
    return h0_homology(m, L)


# --- fiber restriction and the tail rule --------------------------------------

def fiber_h0_vanishes(fiber: MonadComplex, s: int, bound: int) -> dict:
    """Certify h^0(Λ^s F ⊗ O(t)) = 0 on P1 for every t <= bound.

    Kernel monads are exact at every twist, so the value at t = bound decides
    (P1 monotonicity covers t < bound).  For homology monads (s = 1) the
    splitting type is pinned instead: on P1 every bundle is a sum of line
    bundles O(a_i), and any exact value n(t) = h^0(F(t)) forces
    max a_i <= n(t) - t - 1; vanishing at `bound` follows once
    n(t) <= t - bound for some t in the exact window h^1(A(t)) = 0.
    Raises FiberNotVanishingError when no certificate is found.
    """
    if fiber.kind == KERNEL:
        res = h0_exterior(fiber, s, (bound,))
        h0 = res["h0"][0]
        if h0 != 0:
            raise FiberNotVanishingError(f"fiber h0 = {h0} at twist {bound}")
        return {"rule": "kernel-exact", "twist": bound, "h0": 0, "witness": res["witness"]}
    if s != 1:
        raise UnsupportedOperationError("homology fibers support s = 1 only")
    t0 = max(-1 - t[0] for t in fiber.source)
    if bound >= t0:
        lo, hi = h0_homology(fiber, (bound,))["h0"]
        if hi != 0:
            raise FiberNotVanishingError(f"fiber h0 in [{lo},{hi}] at twist {bound}")
        return {"rule": "homology-exact", "twist": bound, "h0": 0}
    rank = len(fiber.middle) - len(fiber.target) - len(fiber.source)
    for t in range(t0, t0 + rank + 3):
        n, hi = h0_homology(fiber, (t,))["h0"]
        if n == hi and n <= t - bound:
            return {
                "rule": "splitting-bound",
                "probe_twist": t,
                "probe_h0": n,
                "max_summand": n - t - 1,
                "bound": bound,
            }
    raise FiberNotVanishingError(f"no fiber splitting certificate down to twist {bound}")


def tail_vanish(m: MonadComplex, s: int, axis: int, bound: int, point) -> dict:
    """Certify h^0((Λ^s F)(k, l)) = 0 for every twist whose `axis` component
    is <= bound (the other component arbitrary).

    Mechanism: restrict to a fiber over `point` of the other factor; the
    restricted h^0 vanishes at all twists <= bound by P1 monotonicity, so
    every global section vanishes on the fiber divisor and h^0 is unchanged
    by twisting down in the other component; iterating reaches an outright
    ambient vanishing twist.  For a homology monad the bound must also keep
    h^0 of every source twist at zero along the tail.  Returns the witness a
    certificate's tail rule records; raises FiberNotVanishingError when the
    bound fails either condition, so the caller tries a lower one.
    `certify`, the one caller, passes a monad on P1 x P1 and a point of P1.
    """
    other = 2 - axis  # 0-based index of the descending component
    # h^0(E) <= h^0(K) + h^1(A): the A-term needs the bounded component to
    # keep h^0 of the A twists at zero along the whole tail; no fiber needed
    if m.kind == HOMOLOGY and any(bound + t[axis - 1] >= 0 for t in m.source):
        raise FiberNotVanishingError(
            f"h^1(A) obstruction: tail bound {bound} too high for the source twists"
        )

    # evaluate the factor not carrying the bound; `axis` is the surviving one
    fiber = restrict_to_fiber(m, 3 - axis, tuple(point))
    fiber_witness = fiber_h0_vanishes(fiber, s, bound)

    # terminal twist for the descent: beyond it, h^0 vanishes for ambient reasons
    lam_twists = _wedge_twists(m, s, m.ambient.zero_degree())
    terminal = -max(t[other] for t in lam_twists) - 1
    return {
        "s": s,
        "axis": axis,
        "bound": bound,
        "point": list(point),
        "fiber": fiber_witness,
        "descent_component": other + 1,
        "terminal_twist": terminal,
    }
