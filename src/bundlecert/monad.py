"""Monad complexes A -> B -> C of twisted sums of line bundles.

Covers the data model, exactness at the ends, Chern-class calculus for the
kernel/homology bundle, restriction to a fiber of P1 x P1, and the JSON
document helpers every command shares (`Document`, `is_int`, `is_list_of`,
`document_mismatches`).

The data model.  A twisted sum O(t_1) ⊕ ... ⊕ O(t_r) is the tuple of its
twists, each a degree tuple on the monad's one `ambient`; its rank is the
tuple's length.  `MonadComplex` holds the ambient, the twists of B, C and
(for a homology monad) A, and the maps as row-major tuples of polynomials.
Chern data is the dict a certificate records, {"rank", "c1": list, "c2"}.

A monad's structure is checked once, when it is built: `MonadComplex`
normalizes every twist, and refuses (BundleCertError) a source A of rank 0
(a monad is of kernel kind exactly when A is absent), an entry on another
ambient, an entry that is not homogeneous of target - source, b∘a != 0, and
a bundle of rank rank(B) - rank(C) - rank(A) < 1.
Every later layer (validate, chern_monad, the section matrices of `cohom`)
trusts a built monad.

Exactness at the ends.  When C has rank 1, b is onto at every point iff the
entries of its row share no zero over Q-bar; when A has rank 1, a is
injective at every point iff the entries of its column do.  `validate`
decides this exactly, in two stages, for forms f_j with ideal I = (f_j) in
the Cox ring S (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3;
Maclagan-Smith 2004 for products of projective spaces):

  1. The lex-leading monomials share no zero, that is, every choice of one
     coordinate per factor has a leading monomial supported in it.  Where a
     choice supports none, the point whose only nonzero coordinates are the
     chosen ones is a common zero.  At a common zero p, a choice of one
     coordinate per factor nonzero at p supports none, since a monomial
     supported in it is nonzero at p.  On P^n a choice is one coordinate, so
     the rule reads: every coordinate has a pure power among the leading
     monomials.  Then the monomial ideal they span contains all of S_d for
     some d, and dim I_d = dim in(I)_d, so I_d = S_d and the forms share no
     zero.  For monomial entries this is the whole rule.
  2. Otherwise, with D the largest component of any entry's multidegree,
     N = dim of the ambient and d* = (N+1)D - max(dims), all d* components
     equal: the forms share no zero iff the section matrix of
     (f_j): ⊕ S_{d* - deg f_j} -> S_{d*} has rank dim S_{d*}.  If they share
     no zero, N+1 generic elements of I of degree (D, ..., D) share none
     either, so their Koszul complex is exact; H^i(O(d* - (i+1)D)) = 0 for
     1 <= i <= N, so its last map is onto on global sections at d*.  A
     common zero p keeps every form of I zero at p, so I_{d*} != S_{d*}.
     On P^n, d* = (n+1)(D-1)+1; on P1 x P1, d* = (3D-1, 3D-1).  A proof
     never rests on the choice of d*: full rank at any degree excludes a
     common zero; d* only makes the test complete.

Stage 1 is the fast path that every shipped monad takes; stage 2 builds one
matrix.  Both end in a cover of every monomial of one graded piece, hence
the one status `ProvedByMonomialCover`.  Unknown means a common zero exists,
or that the end has rank >= 2, which no rule here decides.

Coefficients are integers: the input grammar admits integer constants only,
and the polynomial layer stores Python ints.  So every loaded monad is defined
over Q and invariant under complex conjugation: the real structure holds by
construction and needs no check.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import product as iter_product

from .errors import BundleCertError
from .polycore import (
    Ambient,
    RationalPolynomial,
    intersection_product,
    mdeg_sub,
    parse_rows,
    section_matrix,
)

KERNEL = "kernel"
HOMOLOGY = "homology"

# exactness statuses; each is a proof or Unknown (module docstring)
PROVED_BY_MONOMIAL_COVER = "ProvedByMonomialCover"
UNKNOWN = "Unknown"
VACUOUS = "Vacuous"


class MonadComplex:
    """0 -> A -> B -> C -> 0, exact at A and C; A may be absent (kernel monad).

    middle, target and source are the twists of B, C and A.  map_b is stored
    row-major with rows indexed by C summands and columns by B summands;
    map_a likewise with rows indexed by B and columns by A; source and map_a
    are both given or both None (`monad_from_document` refuses a document
    with one of them).  Construction normalizes the twists, checks the
    shapes, then the structure (module docstring).  Two monads with equal
    fields are equal and hash alike.  No code assigns to a field of a built
    monad: its hash is taken once, at construction, and caches share it.
    """

    __slots__ = ("ambient", "middle", "target", "map_b", "source", "map_a", "name", "_hash")

    def __init__(self, ambient: Ambient, middle: tuple, target: tuple, map_b: tuple,
                 source: tuple | None = None, map_a: tuple | None = None, name: str = ""):
        self.ambient = ambient
        self.source = None if source is None else tuple(ambient.normalize_degree(t) for t in source)
        self.middle = tuple(ambient.normalize_degree(t) for t in middle)
        self.target = tuple(ambient.normalize_degree(t) for t in target)
        self.map_b = map_b
        self.map_a = map_a
        self.name = name
        if self.source == ():
            raise BundleCertError("source of rank 0: omit source and map_a for a kernel monad")
        if len(self.map_b) != len(self.target):
            raise BundleCertError("map_b row count differs from rank of C")
        for row in self.map_b:
            if len(row) != len(self.middle):
                raise BundleCertError("map_b column count differs from rank of B")
        if self.source is not None:
            if len(self.map_a) != len(self.middle):
                raise BundleCertError("map_a row count differs from rank of B")
            for row in self.map_a:
                if len(row) != len(self.source):
                    raise BundleCertError("map_a column count differs from rank of A")
        problem = _grading_problem(self.map_b, self.target, self.middle, "map_b", self.ambient)
        if problem is None and self.source is not None:
            problem = _grading_problem(self.map_a, self.middle, self.source, "map_a", self.ambient)
        if problem is None and not _composite_is_zero(self):
            problem = "b∘a != 0"
        if problem is not None:
            raise BundleCertError(f"monad fails structural validation: {problem}")
        rank = len(self.middle) - len(self.target) - len(self.source or ())
        if rank < 1:
            raise BundleCertError(
                f"the bundle has rank {rank} = rank(B) - rank(C) - rank(A); a monad needs rank >= 1"
            )
        self._hash = hash(self._fields())

    def _fields(self) -> tuple:
        return (self.ambient, self.middle, self.target, self.map_b, self.source, self.map_a,
                self.name)

    def __eq__(self, other):
        if isinstance(other, MonadComplex):
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        # the fields __eq__ compares, hashed once at construction: the caches
        # keyed by a monad hash it on every call, and hashing the fields there
        # would rehash every map polynomial each time
        return self._hash

    @property
    def kind(self) -> str:
        return KERNEL if self.source is None else HOMOLOGY


def kernel_monad(ambient, middle_twists, target_twists, map_b_texts, name="") -> MonadComplex:
    return MonadComplex(
        ambient, middle_twists, target_twists, parse_rows(map_b_texts, ambient), name=name
    )


def homology_monad(
    ambient, source_twists, middle_twists, target_twists, map_a_texts, map_b_texts, name=""
) -> MonadComplex:
    return MonadComplex(
        ambient, middle_twists, target_twists, parse_rows(map_b_texts, ambient),
        source=source_twists, map_a=parse_rows(map_a_texts, ambient), name=name,
    )


def _grading_problem(rows, target, source, label: str, ambient):
    """The first entry of a map source -> target that is on another ambient or
    not homogeneous of target_i - source_j, described; None when there is none."""
    for i, row in enumerate(rows):
        for j, p in enumerate(row):
            if p.ambient != ambient:
                return f"{label}[{i}][{j}] is not on the monad's ambient"
            want = mdeg_sub(target[i], source[j])
            if not p.is_homogeneous_of(want):
                return f"{label}[{i}][{j}] not homogeneous of {want}"
    return None


def _composite_is_zero(m: MonadComplex) -> bool:
    if m.source is None:
        return True
    for i in range(len(m.target)):
        for j in range(len(m.source)):
            acc = RationalPolynomial.zero(m.ambient)
            for k in range(len(m.middle)):
                acc = acc + m.map_b[i][k] * m.map_a[k][j]
            if not acc.is_zero():
                return False
    return True


def leading_monomials_cover(forms, ambient: Ambient) -> bool:
    """Stage 1: the lex-leading monomials of the forms share no zero, that is,
    every choice of one coordinate per factor has a leading monomial supported
    in it (module docstring)."""
    supports = [frozenset(i for i, e in enumerate(max(p.terms)) if e) for p in forms]
    choices = iter_product(*(range(lo, hi) for lo, hi in ambient.group_slices()))
    return all(any(s.issubset(choice) for s in supports) for choice in choices)


def forms_cover_degree(forms, ambient: Ambient) -> bool:
    """Stage 2: the ideal of the forms holds every form of multidegree (d*, ..., d*)."""
    degrees = [ambient.exponent_multidegree(next(iter(p.terms))) for p in forms]
    top = max(max(d) for d in degrees)
    d_star = (ambient.dim + 1) * top - max(ambient.dims)
    zero = ambient.zero_degree()
    M = section_matrix(ambient, [forms], [mdeg_sub(zero, d) for d in degrees], [zero],
                       (d_star,) * ambient.arity)
    return M.rank() == M.rows


def _common_zero_status(entries, ambient: Ambient) -> str:
    """Whether the entries, one rank-1 end of the monad, share no zero over Q-bar."""
    forms = [p for p in entries if not p.is_zero()]
    if forms and (leading_monomials_cover(forms, ambient) or forms_cover_degree(forms, ambient)):
        return PROVED_BY_MONOMIAL_COVER
    return UNKNOWN


def validate(m: MonadComplex) -> dict:
    """Exactness at the ends: b onto at every point, a injective at every point.

    Returns the status of each end, {"surjectivity_of_b": ...,
    "injectivity_of_a": ...}, as a certificate records it: ProvedByMonomialCover,
    Unknown, or Vacuous for the a of a kernel monad.  Decided exactly when C
    (resp. A) has rank 1 (module docstring); Unknown for rank >= 2.  The
    structure (grading, b∘a = 0) was checked when m was built.
    """
    surj = UNKNOWN
    if len(m.target) == 1:
        surj = _common_zero_status(m.map_b[0], m.ambient)
    inj = UNKNOWN
    if m.source is None:
        inj = VACUOUS
    elif len(m.source) == 1:
        inj = _common_zero_status([row[0] for row in m.map_a], m.ambient)
    return {"surjectivity_of_b": surj, "injectivity_of_a": inj}


def chern_free(ambient: Ambient, twists) -> dict:
    """Chern data of O(t_1) ⊕ ... ⊕ O(t_r): c1 = Σ t_i and c2 = Σ_{i<j} t_i·t_j
    (Whitney), the product being the ambient's intersection form."""
    c1 = [sum(t[i] for t in twists) for i in range(ambient.arity)]
    c2 = sum(
        intersection_product(ambient, t, u) for i, t in enumerate(twists) for u in twists[i + 1 :]
    )
    return {"rank": len(twists), "c1": c1, "c2": c2}


def _quotient_chern(total: dict, quot: dict, ambient: Ambient) -> dict:
    """Chern data of the third term of 0 -> S -> total -> quot -> 0, given `total`
    and one of S, quot (Whitney c(total) = c(S) c(quot), truncated at degree 2)."""
    c1 = mdeg_sub(total["c1"], quot["c1"])
    c2 = total["c2"] - intersection_product(ambient, c1, quot["c1"]) - quot["c2"]
    return {"rank": total["rank"] - quot["rank"], "c1": list(c1), "c2": c2}


def chern_monad(m: MonadComplex) -> dict:
    """Chern data of ker(b) (kernel kind) or ker(b)/im(a) (homology kind), as
    {"rank", "c1", "c2"}; refused off P2 and P1xP1, where the intersection
    form is not defined."""
    amb = m.ambient
    kernel = _quotient_chern(chern_free(amb, m.middle), chern_free(amb, m.target), amb)
    if m.kind == KERNEL:
        return kernel
    # 0 -> A -> K -> E -> 0, so c(K) = c(A) c(E)
    return _quotient_chern(kernel, chern_free(amb, m.source), amb)


@lru_cache(maxsize=32)
def restrict_to_fiber(m: MonadComplex, axis: int, point: tuple) -> MonadComplex:
    """Restrict to a fiber of P1 x P1 by evaluating the chosen factor at a point.

    axis is the factor being evaluated (1 or 2); the result is a monad on the
    other P1, with twists projected to the surviving component.  Each term
    c * x^e, whose exponents in the evaluated factor are (i, j), becomes
    c * a^i * b^j times the monomial of its surviving exponents at the point
    (a:b); terms that land on one monomial are summed.  The tail rule asks for
    the same fiber at several s and bounds, so each (monad, axis, point) is
    restricted once and the result shared.  Its one caller,
    `cohom.tail_vanish`, passes an axis 1 or 2, a monad on P1 x P1 (`certify`
    reaches a tail rule only there, and `chern_monad` refuses every other
    product first) and a point that `CertifyOptions` has checked is not (0:0).
    """
    a, b = int(point[0]), int(point[1])
    lo = 2 * (axis - 1)  # the evaluated factor's exponents are e[lo], e[lo + 1]
    new_amb = Ambient.projective(1, names=m.ambient.groups[2 - axis])

    def restrict(p):
        terms = {}
        for e, c in p.terms.items():
            rest = e[:lo] + e[lo + 2:]
            terms[rest] = terms.get(rest, 0) + c * a ** e[lo] * b ** e[lo + 1]
        return RationalPolynomial(new_amb, {e: c for e, c in terms.items() if c})

    def restrict_twists(twists):
        return tuple((t[2 - axis],) for t in twists)

    def restrict_rows(rows):
        return tuple(tuple(restrict(p) for p in row) for row in rows)

    return MonadComplex(
        new_amb,
        restrict_twists(m.middle),
        restrict_twists(m.target),
        restrict_rows(m.map_b),
        source=None if m.source is None else restrict_twists(m.source),
        map_a=None if m.source is None else restrict_rows(m.map_a),
        name=f"{m.name}|fiber" if m.name else "",
    )


# --- document schema ----------------------------------------------------------

def _dimension(value) -> int:
    if not is_int(value) or value < 1:
        raise BundleCertError(f"an ambient dimension is a positive integer, got {value!r}")
    return value


def ambient_from_document(doc: dict) -> Ambient:
    try:
        kind = doc["type"]
    except (KeyError, TypeError):
        raise BundleCertError("ambient document needs a 'type' field") from None
    if kind == "projective":
        return Ambient.projective(_dimension(doc.get("dim")))
    if kind == "product_projective":
        dims = doc.get("dims")
        if not isinstance(dims, list) or len(dims) != 2:
            raise BundleCertError("product_projective expects two dims")
        return Ambient.product_projective(_dimension(dims[0]), _dimension(dims[1]))
    raise BundleCertError(f"unknown ambient type {kind!r}")


def ambient_to_document(amb: Ambient) -> dict:
    if amb.arity == 1:
        return {"type": "projective", "dim": amb.dims[0]}
    return {"type": "product_projective", "dims": list(amb.dims)}


class Document(dict):
    """A JSON document a command prints: the certificate of certify or
    quartic-run, or the result of chern or picard-bound.  Its one rendering is
    canonical, so a document is byte-stable for fixed inputs."""

    def to_json(self) -> str:
        return json.dumps(self, sort_keys=True, indent=2) + "\n"


def is_int(value) -> bool:
    """Whether a JSON value is an integer; `true` and `false` are not."""
    return type(value) is int


def is_list_of(value, ok) -> bool:
    """Whether a JSON value is a list whose every entry passes `ok`."""
    return isinstance(value, list) and all(ok(x) for x in value)


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


def monad_from_document(doc: dict) -> MonadComplex:
    """Load a monad from its canonical document.

    Fields: ambient, middle, target (twist arrays), map_b (row-major polynomial
    strings); optional source/map_a for homology monads; optional name.
    """
    if not isinstance(doc, dict):
        raise BundleCertError("a monad document is a JSON object")
    try:
        amb = ambient_from_document(doc["ambient"])
        middle = doc["middle"]
        target = doc["target"]
        map_b = doc["map_b"]
    except KeyError as e:
        raise BundleCertError(f"monad document missing field {e.args[0]!r}") from None
    has_source = "source" in doc
    if has_source != ("map_a" in doc):
        raise BundleCertError("source and map_a must be given together")
    known = {"ambient", "middle", "target", "map_b", "source", "map_a", "name"}
    unknown = set(doc) - known
    if unknown:
        raise BundleCertError(f"unknown monad document fields: {sorted(unknown)}")

    for key in ("map_b", "map_a"):
        if not is_list_of(doc.get(key, []),
                          lambda row: is_list_of(row, lambda e: isinstance(e, str))):
            raise BundleCertError(f"{key} must be a list of rows of polynomial strings")
    for key in ("middle", "target", "source"):
        if not is_list_of(doc.get(key, []), lambda t: is_int(t) or is_list_of(t, is_int)):
            raise BundleCertError(
                f"{key} must be a list of twists (integers or lists of integers)"
            )
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise BundleCertError("name must be a string")
    if has_source:
        return homology_monad(amb, doc["source"], middle, target, doc["map_a"], map_b, name=name)
    return kernel_monad(amb, middle, target, map_b, name=name)


def monad_to_document(m: MonadComplex) -> dict:
    """Serialize in the canonical document coordinates (default variable names)."""
    # the canonical ambient has the same shape, so only the names change
    canonical = ambient_from_document(ambient_to_document(m.ambient))

    def render(p: RationalPolynomial) -> str:
        return RationalPolynomial(canonical, p.terms).render()

    def twists_out(twists):
        if m.ambient.arity == 1:
            return [t[0] for t in twists]
        return [list(t) for t in twists]

    doc = {
        "ambient": ambient_to_document(m.ambient),
        "middle": twists_out(m.middle),
        "target": twists_out(m.target),
        "map_b": [[render(p) for p in row] for row in m.map_b],
    }
    if m.source is not None:
        doc["source"] = twists_out(m.source)
        doc["map_a"] = [[render(p) for p in row] for row in m.map_a]
    if m.name:
        doc["name"] = m.name
    return doc
