"""Monad complexes A -> B -> C of twisted sums of line bundles.

Covers the data model, exactness at the ends, Chern-class calculus for the
kernel/homology bundle, and restriction to a fiber of P1 x P1.

A monad's structure is checked once, when it is built: `MonadComplex`
refuses (ValidationError) an entry on another ambient, an entry that is not
homogeneous of target - source, and b∘a != 0.  Every later layer (validate,
chern_monad, the section matrices of `cohom`) trusts a built monad.

Coefficients are exact rationals.  The input grammar admits integer constants
only, so every loaded monad is defined over Q and invariant under complex
conjugation: the real structure holds by construction and needs no check.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iter_product

from .errors import (
    AmbientMismatchError,
    DocumentError,
    InvalidPointError,
    ValidationError,
)
from .polycore import (
    Ambient,
    RationalPolynomial,
    intersection_product,
    mdeg_sub,
    parse_poly,
)

KERNEL = "kernel"
HOMOLOGY = "homology"

# exactness statuses; the randomized one is sampling evidence, not a proof
PROVED_BY_MONOMIAL_COVER = "ProvedByMonomialCover"
PROVED_BY_RANDOMIZED_RANK = "ProvedByRandomizedRank"
UNKNOWN = "Unknown"
VACUOUS = "Vacuous"

# the sampling fallback's rational points per map, and its seed
TRIALS = 20
SEED = 20240915


@dataclass(frozen=True)
class FreeSheaf:
    """A direct sum of line bundles O(t_1) ⊕ ... ⊕ O(t_r) on a fixed ambient."""

    ambient: Ambient
    twists: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "twists", tuple(self.ambient.normalize_degree(t) for t in self.twists)
        )

    @property
    def rank(self) -> int:
        return len(self.twists)


@dataclass(frozen=True)
class ChernData:
    rank: int
    c1: tuple
    c2: int


@dataclass(frozen=True)
class ExactnessStatus:
    status: str
    trials: int = 0
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    surjectivity_of_b: ExactnessStatus
    injectivity_of_a: ExactnessStatus

    @property
    def exactness_proved(self) -> bool:
        return (
            self.surjectivity_of_b.status == PROVED_BY_MONOMIAL_COVER
            and self.injectivity_of_a.status in (PROVED_BY_MONOMIAL_COVER, VACUOUS)
        )


@dataclass(frozen=True)
class MonadComplex:
    """0 -> A -> B -> C -> 0, exact at A and C; A may be absent (kernel monad).

    map_b is stored row-major with rows indexed by C summands and columns by B
    summands; map_a likewise with rows indexed by B and columns by A.
    Construction checks the shapes, then the structure (module docstring).
    """

    middle: FreeSheaf
    target: FreeSheaf
    map_b: tuple
    source: FreeSheaf | None = None
    map_a: tuple | None = None
    name: str = ""

    def __post_init__(self):
        if (self.source is None) != (self.map_a is None):
            raise ValidationError("source and map_a must be both present or both absent")
        if len(self.map_b) != self.target.rank:
            raise ValidationError("map_b row count differs from rank of C")
        for row in self.map_b:
            if len(row) != self.middle.rank:
                raise ValidationError("map_b column count differs from rank of B")
        if self.map_a is not None:
            if len(self.map_a) != self.middle.rank:
                raise ValidationError("map_a row count differs from rank of B")
            for row in self.map_a:
                if len(row) != self.source.rank:
                    raise ValidationError("map_a column count differs from rank of A")
        problem = _grading_problem(self.map_b, self.target, self.middle, "map_b", self.ambient)
        if problem is None and self.map_a is not None:
            problem = _grading_problem(self.map_a, self.middle, self.source, "map_a", self.ambient)
        if problem is None and not _composite_is_zero(self):
            problem = "b∘a != 0"
        if problem is not None:
            raise ValidationError(f"monad fails structural validation: {problem}")

    @property
    def ambient(self) -> Ambient:
        return self.middle.ambient

    @property
    def kind(self) -> str:
        return KERNEL if self.source is None or self.source.rank == 0 else HOMOLOGY


def kernel_monad(ambient, middle_twists, target_twists, map_b_texts, name="") -> MonadComplex:
    B = FreeSheaf(ambient, tuple(middle_twists))
    C = FreeSheaf(ambient, tuple(target_twists))
    rows = tuple(
        tuple(parse_poly(s, ambient) if isinstance(s, str) else s for s in row)
        for row in map_b_texts
    )
    return MonadComplex(middle=B, target=C, map_b=rows, name=name)


def homology_monad(
    ambient, source_twists, middle_twists, target_twists, map_a_texts, map_b_texts, name=""
) -> MonadComplex:
    A = FreeSheaf(ambient, tuple(source_twists))
    B = FreeSheaf(ambient, tuple(middle_twists))
    C = FreeSheaf(ambient, tuple(target_twists))
    ra = tuple(
        tuple(parse_poly(s, ambient) if isinstance(s, str) else s for s in row)
        for row in map_a_texts
    )
    rb = tuple(
        tuple(parse_poly(s, ambient) if isinstance(s, str) else s for s in row)
        for row in map_b_texts
    )
    return MonadComplex(middle=B, target=C, map_b=rb, source=A, map_a=ra, name=name)


def _grading_problem(rows, target: FreeSheaf, source: FreeSheaf, label: str, ambient):
    """The first entry of a map source -> target that is on another ambient or
    not homogeneous of target_i - source_j, described; None when there is none."""
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if p.ambient != ambient:
                return f"{label}[{i}][{j}] is not on the monad's ambient"
            want = mdeg_sub(target.twists[i], source.twists[j])
            if not p.is_homogeneous_of(want):
                return f"{label}[{i}][{j}] not homogeneous of {want}"
    return None


def _composite_is_zero(m: MonadComplex) -> bool:
    if m.map_a is None:
        return True
    for i in range(m.target.rank):
        for j in range(m.source.rank):
            acc = RationalPolynomial.zero(m.ambient)
            for k in range(m.middle.rank):
                acc = acc + m.map_b[i][k] * m.map_a[k][j]
            if not acc.is_zero():
                return False
    return True


def _monomial_support(p: RationalPolynomial):
    """Variable-index support if p is a single monomial, else None."""
    if len(p.terms) != 1:
        return None
    (exps,) = p.terms
    return frozenset(i for i, e in enumerate(exps) if e > 0)


def _monomials_have_common_zero(supports, ambient: Ambient) -> bool:
    """Whether some point of the ambient kills every monomial.

    A point may zero out any proper subset of each factor's coordinates; a
    monomial vanishes iff its support meets the zeroed set.  Exhaustive over
    the (small) per-factor subset choices.
    """
    group_subsets = []
    for lo, hi in ambient.group_slices():
        idxs = list(range(lo, hi))
        subsets = []
        for mask in range(1 << len(idxs)):
            if mask == (1 << len(idxs)) - 1:
                continue  # cannot zero a whole factor
            subsets.append(frozenset(idxs[i] for i in range(len(idxs)) if mask >> i & 1))
        group_subsets.append(subsets)
    for combo in iter_product(*group_subsets):
        zeroed = frozenset().union(*combo)
        if all(s & zeroed for s in supports):
            return True
    return False


def _rank_one_monomial_status(entries, ambient) -> ExactnessStatus | None:
    """Exactness status via the common-zero-locus rule, when it applies."""
    supports = []
    for p in entries:
        if p.is_zero():
            continue  # a zero entry vanishes everywhere and constrains nothing
        s = _monomial_support(p)
        if s is None:
            return None
        supports.append(s)
    if not supports:
        return ExactnessStatus(UNKNOWN, detail="all entries are zero")
    if _monomials_have_common_zero(supports, ambient):
        return ExactnessStatus(UNKNOWN, detail="monomial entries share a common zero")
    return ExactnessStatus(PROVED_BY_MONOMIAL_COVER)


def _randomized_full_rank(entry_rows, need_rank, ambient, seed) -> ExactnessStatus:
    """Sample rational points and check the evaluated matrix has full rank.

    Evidence only, never a proof; a witnessed rank drop downgrades to Unknown.
    """
    from .polycore import ExactMatrix

    rng = random.Random(seed)
    for t in range(TRIALS):
        point = []
        for lo, hi in ambient.group_slices():
            while True:
                coords = [rng.randint(-9, 9) for _ in range(hi - lo)]
                if any(coords):
                    break
            point += coords
        rows = [[p.evaluate(point) for p in row] for row in entry_rows]
        if ExactMatrix.from_rows(rows).rank() < need_rank:
            return ExactnessStatus(UNKNOWN, trials=t + 1, detail="rank drop at a sample point")
    return ExactnessStatus(PROVED_BY_RANDOMIZED_RANK, trials=TRIALS)


def validate(m: MonadComplex) -> ValidationReport:
    """Exactness at the ends: b onto at every point, a injective at every point.

    The structure (grading, b∘a = 0) was checked when m was built.
    """
    surj = None
    if m.target.rank == 1:
        surj = _rank_one_monomial_status(list(m.map_b[0]), m.ambient)
    if surj is None:
        surj = _randomized_full_rank(m.map_b, m.target.rank, m.ambient, SEED)

    if m.map_a is None:
        inj = ExactnessStatus(VACUOUS)
    else:
        inj = None
        if m.source.rank == 1:
            inj = _rank_one_monomial_status([row[0] for row in m.map_a], m.ambient)
        if inj is None:
            inj = _randomized_full_rank(_transpose(m.map_a), m.source.rank, m.ambient, SEED + 1)
    return ValidationReport(surjectivity_of_b=surj, injectivity_of_a=inj)


def _transpose(rows):
    return tuple(tuple(row[i] for row in rows) for i in range(len(rows[0])))


def chern_free(F: FreeSheaf) -> ChernData:
    """Closed-form Chern data of a twisted sum of line bundles on P2 or P1xP1."""
    amb = F.ambient
    if amb.arity == 1:
        ks = [t[0] for t in F.twists]
        c1 = (sum(ks),)
        c2 = sum(ks[i] * ks[j] for i in range(len(ks)) for j in range(i + 1, len(ks)))
        return ChernData(F.rank, c1, c2)
    if amb.arity == 2 and amb.dims == (1, 1):
        ks = [t[0] for t in F.twists]
        ms = [t[1] for t in F.twists]
        c1 = (sum(ks), sum(ms))
        c2 = sum(
            ks[i] * ms[j] + ks[j] * ms[i]
            for i in range(len(ks))
            for j in range(i + 1, len(ks))
        )
        return ChernData(F.rank, c1, c2)
    raise AmbientMismatchError("Chern calculus implemented for P2 and P1xP1 only")


def _quotient_chern(total: ChernData, quot: ChernData, ambient: Ambient) -> ChernData:
    """Chern data of the third term of 0 -> S -> total -> quot -> 0, given `total`
    and one of S, quot (Whitney c(total) = c(S) c(quot), truncated at degree 2)."""
    rank = total.rank - quot.rank
    c1 = mdeg_sub(total.c1, quot.c1)
    c2 = total.c2 - intersection_product(ambient, c1, quot.c1) - quot.c2
    return ChernData(rank, c1, c2)


def chern_monad(m: MonadComplex) -> ChernData:
    """Chern data of ker(b) (kernel kind) or ker(b)/im(a) (homology kind)."""
    kernel = _quotient_chern(chern_free(m.middle), chern_free(m.target), m.ambient)
    if m.kind == KERNEL:
        return kernel
    # 0 -> A -> K -> E -> 0, so c(K) = c(A) c(E)
    return _quotient_chern(kernel, chern_free(m.source), m.ambient)


def restrict_to_fiber(m: MonadComplex, axis: int, point) -> MonadComplex:
    """Restrict to a fiber of P1 x P1 by substituting the chosen factor at a point.

    axis is the factor being evaluated (1 or 2); the result is a monad on the
    other P1, with twists projected to the surviving component.
    """
    amb = m.ambient
    if amb.arity != 2 or amb.dims != (1, 1):
        raise AmbientMismatchError("fiber restriction needs ambient P1 x P1")
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    a, b = int(point[0]), int(point[1])
    if a == 0 and b == 0:
        raise InvalidPointError("(0:0) is not a point of P1")

    fixed = axis - 1
    surviving = 1 - fixed
    sub_names = amb.groups[fixed]
    new_amb = Ambient.projective(1, names=amb.groups[surviving])
    assignment = {sub_names[0]: a, sub_names[1]: b}

    def restrict_twists(F):
        return FreeSheaf(new_amb, tuple((t[surviving],) for t in F.twists))

    def restrict_rows(rows):
        return tuple(tuple(p.substitute(assignment, new_amb) for p in row) for row in rows)

    return MonadComplex(
        middle=restrict_twists(m.middle),
        target=restrict_twists(m.target),
        map_b=restrict_rows(m.map_b),
        source=None if m.source is None else restrict_twists(m.source),
        map_a=None if m.map_a is None else restrict_rows(m.map_a),
        name=f"{m.name}|fiber" if m.name else "",
    )


# --- document schema ----------------------------------------------------------

def ambient_from_document(doc: dict) -> Ambient:
    try:
        kind = doc["type"]
    except (KeyError, TypeError):
        raise DocumentError("ambient document needs a 'type' field") from None
    if kind == "projective":
        return Ambient.projective(int(doc["dim"]))
    if kind == "product_projective":
        dims = [int(d) for d in doc["dims"]]
        if len(dims) != 2:
            raise DocumentError("product_projective expects two dims")
        return Ambient.product_projective(dims[0], dims[1])
    raise DocumentError(f"unknown ambient type {kind!r}")


def ambient_to_document(amb: Ambient) -> dict:
    if amb.arity == 1:
        return {"type": "projective", "dim": amb.dims[0]}
    return {"type": "product_projective", "dims": list(amb.dims)}


def is_list_of(value, ok) -> bool:
    """Whether a JSON value is a list whose every entry passes `ok`."""
    return isinstance(value, list) and all(ok(x) for x in value)


def monad_from_document(doc: dict) -> MonadComplex:
    """Load a monad from its canonical document.

    Fields: ambient, middle, target (twist arrays), map_b (row-major polynomial
    strings); optional source/map_a for homology monads; optional name.
    """
    if not isinstance(doc, dict):
        raise DocumentError("a monad document is a JSON object")
    try:
        amb = ambient_from_document(doc["ambient"])
        middle = doc["middle"]
        target = doc["target"]
        map_b = doc["map_b"]
    except KeyError as e:
        raise DocumentError(f"monad document missing field {e.args[0]!r}") from None
    has_source = "source" in doc or "map_a" in doc
    if has_source and not ("source" in doc and "map_a" in doc):
        raise DocumentError("source and map_a must be given together")
    known = {"ambient", "middle", "target", "map_b", "source", "map_a", "name"}
    unknown = set(doc) - known
    if unknown:
        raise DocumentError(f"unknown monad document fields: {sorted(unknown)}")

    for key in ("map_b", "map_a"):
        if not is_list_of(doc.get(key, []),
                          lambda row: is_list_of(row, lambda e: isinstance(e, str))):
            raise DocumentError(f"{key} must be a list of rows of polynomial strings")
    for key in ("middle", "target", "source"):
        if not is_list_of(doc.get(key, []), lambda t: isinstance(t, int)
                          or is_list_of(t, lambda c: isinstance(c, int))):
            raise DocumentError(f"{key} must be a list of twists (integers or lists of integers)")
    name = doc.get("name", "")
    if has_source:
        return homology_monad(amb, doc["source"], middle, target, doc["map_a"], map_b, name=name)
    return kernel_monad(amb, middle, target, map_b, name=name)


def monad_to_document(m: MonadComplex) -> dict:
    """Serialize in the canonical document coordinates (default variable names)."""
    canonical = ambient_from_document(ambient_to_document(m.ambient))
    rename = {
        old: RationalPolynomial.variable(canonical, new)
        for old, new in zip(m.ambient.variables, canonical.variables)
    }

    def render(p: RationalPolynomial) -> str:
        return p.substitute(rename, canonical).render()

    def twists_out(F):
        if m.ambient.arity == 1:
            return [t[0] for t in F.twists]
        return [list(t) for t in F.twists]

    doc = {
        "ambient": ambient_to_document(m.ambient),
        "middle": twists_out(m.middle),
        "target": twists_out(m.target),
        "map_b": [[render(p) for p in row] for row in m.map_b],
    }
    if m.map_a is not None:
        doc["source"] = twists_out(m.source)
        doc["map_a"] = [[render(p) for p in row] for row in m.map_a]
    if m.name:
        doc["name"] = m.name
    return doc
