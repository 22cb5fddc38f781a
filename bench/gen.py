"""Seeded input generators for the benchmark.

Everything here is plain Python and never imports bundlecert: the program
receives only the documents, polynomial texts and count lists built here.
The same seed gives byte-identical inputs.

Each generator varies its inputs with the seed along a direction that leaves
the exact answer unchanged, so that every seed can be checked against one
recorded reference:

* scaled monad families get a seeded sign on every map entry, which rescales
  the summands of B and gives an isomorphic bundle (same h^0 at every twist);
* (4,4) forms are moved by a seeded F_p-automorphism of P1 x P1 (variable
  scalings, swaps within a factor, swapping the factors), which keeps the
  point count over every F_{p^n} and the number of nonzero coefficients;
* synthetic zeta cases are random per seed, but carry their own exact
  answer (the polynomial Q they were built from).
"""
from __future__ import annotations

import json
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"

BASELINE_SEED = 1
CONFIRM_SEED = 2

# shipped monads and the polarization each is certified with
SHIPPED_MONADS = (
    ("euler", (1,)),
    ("ks2", (1,)),
    ("k_rank3", (1, 1)),
    ("k_rank3_n2", (1, 1)),
    ("e_rank2", (1, 1)),
)
K_RANK3_NS = (3, 4, 6, 8)
KS_NS = (8, 12, 16)

COUNT_EXT_P = 3
COUNT_EXT_NS = tuple(range(1, 9))
COUNT_PRIMES = (1009, 2003, 3001)

CHARPOLY_PRIMES = (3, 5, 7)
CHARPOLY_CASES_PER_PRIME = 8
CHARPOLY_PAIRS = 10  # Q has degree 20 = 22 - k_alg
CHARPOLY_COUNTS = 10  # counts for n = 1..10
K_ALG = 2


def _rng(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


def _read(name: str) -> str:
    return (INPUTS / name).read_text(encoding="utf-8")


# --- monad documents ------------------------------------------------------------

def _signed(rng: random.Random, monomial: str) -> str:
    return monomial if rng.random() < 0.5 else "-" + monomial


def k_rank3_document(n: int, rng: random.Random) -> dict:
    """ker(O(-n,0)^2 + O(0,-n)^2 -> O) with map (x0^n, x1^n, y0^n, y1^n)."""
    return {
        "ambient": {"dims": [1, 1], "type": "product_projective"},
        "map_b": [[_signed(rng, f"{v}^{n}") for v in ("x0", "x1", "y0", "y1")]],
        "middle": [[-n, 0], [-n, 0], [0, -n], [0, -n]],
        "name": f"k-rank3-n{n}",
        "target": [[0, 0]],
    }


def ks_document(n: int, rng: random.Random) -> dict:
    """ker(O^3 -> O(n)) on P2 with map (x0^n, x1^n, x2^n)."""
    return {
        "ambient": {"dim": 2, "type": "projective"},
        "map_b": [[_signed(rng, f"{v}^{n}") for v in ("x0", "x1", "x2")]],
        "middle": [0, 0, 0],
        "name": f"ks-{n}",
        "target": [n],
    }


def monad_jobs(seed: int) -> list:
    """(job name, monad document text, polarization) for the certify workload."""
    rng = _rng(seed, 1)
    jobs = [(stem, _read(f"{stem}.monad"), H) for stem, H in SHIPPED_MONADS]
    for n in K_RANK3_NS:
        jobs.append((f"k-rank3-n{n}", json.dumps(k_rank3_document(n, rng), sort_keys=True), (1, 1)))
    for n in KS_NS:
        jobs.append((f"ks-{n}", json.dumps(ks_document(n, rng), sort_keys=True), (1,)))
    return jobs


def quartic_text() -> str:
    return _read("quartic.json")


# --- (4,4) forms -------------------------------------------------------------------
# A form is a 5x5 matrix A; A[i][j] multiplies x0^(4-i) x1^i y0^(4-j) y1^j.

_VARS = ("x0", "x1", "y0", "y1")


def parse_form(text: str, p: int) -> list:
    """Coefficient matrix mod p of a signed sum of integer-coefficient monomials."""
    A = [[0] * 5 for _ in range(5)]
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text):
        coeff = -1 if sign == "-" else 1
        exps = dict.fromkeys(_VARS, 0)
        for factor in body.split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            exps[name.strip()] += int(e) if e else 1
        i, j = exps["x1"], exps["y1"]
        if exps["x0"] + i != 4 or exps["y0"] + j != 4:
            raise ValueError(f"term {body!r} is not of bidegree (4,4)")
        A[i][j] = (A[i][j] + coeff) % p
    return A


def render_form(A) -> str:
    """Polynomial text in the program's canonical term order."""
    terms = []
    for i in range(5):
        for j in range(5):
            c = A[i][j]
            if not c:
                continue
            factors = []
            for name, e in zip(_VARS, (4 - i, i, 4 - j, j)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            terms.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(terms)


def automorphism(A, p: int, rng: random.Random) -> list:
    """Image of the form under a random monomial automorphism of P1 x P1 over F_p."""
    A = [row[:] for row in A]
    if rng.random() < 0.5:
        A = [list(col) for col in zip(*A)]  # swap the factors
    if rng.random() < 0.5:
        A = A[::-1]  # x0 <-> x1
    if rng.random() < 0.5:
        A = [row[::-1] for row in A]  # y0 <-> y1
    a, b, c, d = (rng.randrange(1, p) for _ in range(4))
    return [
        [A[i][j] * pow(a, 4 - i, p) * pow(b, i, p) * pow(c, 4 - j, p) * pow(d, j, p) % p
         for j in range(5)]
        for i in range(5)
    ]


def surface_document(A) -> str:
    doc = {
        "ambient": {"dims": [1, 1], "type": "product_projective"},
        "polynomial": render_form(A),
    }
    return json.dumps(doc, sort_keys=True)


def base_prime_form(p: int) -> list:
    """A fixed dense random form for the prime field F_p (all 25 terms nonzero)."""
    rng = random.Random(p)
    return [[rng.randrange(1, p) for _ in range(5)] for _ in range(5)]


def count_jobs(workload: str, seed: int) -> list:
    """(job name, surface document text, p, n) for a count workload."""
    if workload == "count-ext":
        base = parse_form(json.loads(_read("b44.poly"))["polynomial"], COUNT_EXT_P)
        doc = surface_document(automorphism(base, COUNT_EXT_P, _rng(seed, 2)))
        return [(f"b44/p{COUNT_EXT_P}/n{n}", doc, COUNT_EXT_P, n) for n in COUNT_EXT_NS]
    if workload == "count-prime":
        return [
            (f"prime/p{p}/n1", surface_document(automorphism(base_prime_form(p), p, _rng(seed, p))), p, 1)
            for p in COUNT_PRIMES
        ]
    raise ValueError(workload)


# --- synthetic zeta data -----------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly_case(p: int, a: list) -> dict:
    """Counts and exact answer for Q = prod (T^2 - a_i T + p^2).

    t_n = k_alg p^n + sum of n-th powers of the roots of Q, and
    N_n = 1 + p^(2n) + t_n.  A factor with a_i in {0, +-p, +-2p} has both
    roots of the form p * (root of unity); no other factor has any.
    """
    power_sums = []
    for n in range(1, CHARPOLY_COUNTS + 1):
        total = 0
        for ai in a:
            s_prev, s = 2, ai  # s_k = a s_{k-1} - p^2 s_{k-2}
            for _ in range(n - 1):
                s_prev, s = s, ai * s - p * p * s_prev
            total += s
        power_sums.append(total)
    counts = [1 + p ** (2 * n) + K_ALG * p ** n + ps for n, ps in enumerate(power_sums, 1)]
    q = [1]
    for ai in a:
        q = _poly_mul(q, [p * p, -ai, 1])  # ascending coefficients
    d = len(q) - 1
    unit = sum(2 for ai in a if ai in (0, p, -p, 2 * p, -2 * p))
    return {
        "p": p,
        "a": list(a),
        "counts": counts,
        "q_ascending": q,
        "elementary": [(-1) ** j * q[d - j] for j in range(1, CHARPOLY_COUNTS)],
        "known_bound": K_ALG + unit,
    }


def charpoly_cases(seed: int) -> list:
    """(job name, case) pairs; case k of each prime has k mod 4 unit-root factors."""
    out = []
    for p in CHARPOLY_PRIMES:
        special = [0, p, -p, 2 * p, -2 * p]
        generic = [a for a in range(-2 * p, 2 * p + 1) if a not in special]
        for k in range(CHARPOLY_CASES_PER_PRIME):
            rng = _rng(seed, 100 * p + k)
            units = k % 4
            a = [rng.choice(special) for _ in range(units)]
            a += [rng.choice(generic) for _ in range(CHARPOLY_PAIRS - units)]
            rng.shuffle(a)
            out.append((f"p{p}/case{k}", charpoly_case(p, a)))
    return out
