"""Exact multigraded polynomials with integer coefficients.

A polynomial lives on an Ambient (a projective space or a product of two),
and is stored as a map from exponent vectors to nonzero Python ints.  Each
variable carries a multidegree that is a standard basis vector of Z^g, where
g is the number of projective factors, so homogeneity is decidable per term.

Arithmetic (+, -, *) is polynomial with polynomial on one ambient: an int or
any other operand raises TypeError, and `RationalPolynomial.constant` makes
the polynomial of an int.

The input grammar has integer constants only and no operation here divides,
so the algebra is exact over Q with no rational type: a polynomial is an
element of Q[x] whose coefficients are integers.

Section matrices read monomials packed into one int each (`pack_exponents`,
FIELD_BITS bits per variable), so that a product of monomials is one int add.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product as iter_product
from math import comb, prod

from ..errors import BundleCertError

MultiDegree = tuple  # tuple[int, ...], one entry per projective factor

# the most monomials one basis may hold, and so the most rows one target summand
# of a section matrix may count: about 20 times the largest (455, degree 12 on
# P3) that any test, shipped input or benchmark workload builds or counts
MAX_BASIS = 10_000

# bits per variable in a packed monomial (`pack_exponents`): 2^14 = 16384 > MAX_BASIS
FIELD_BITS = MAX_BASIS.bit_length()


class Ambient:
    """A projective space P^n or a product P^{n1} x P^{n2} with named coordinates.

    Every ambient is made from dimensions >= 1 with the generated names x0, x1,
    ... (y0, y1, ... for a second factor), or from distinct names the caller
    fixes: the quartic's x, y, z, w, or one factor of a product.  Two ambients
    with the same groups are equal and hash alike.
    """

    __slots__ = ("groups",)  # tuple of tuples of variable names, one tuple per factor

    def __init__(self, groups: tuple):
        self.groups = groups

    def __eq__(self, other):
        if isinstance(other, Ambient):
            return self.groups == other.groups
        return NotImplemented

    def __hash__(self):
        return hash(self.groups)

    @staticmethod
    def projective(n: int, names=None) -> "Ambient":
        return Ambient((tuple(names or (f"x{i}" for i in range(n + 1))),))

    @staticmethod
    def product_projective(n1: int, n2: int) -> "Ambient":
        return Ambient((
            tuple(f"x{i}" for i in range(n1 + 1)),
            tuple(f"y{i}" for i in range(n2 + 1)),
        ))

    @property
    def arity(self) -> int:
        return len(self.groups)

    @property
    def dims(self) -> tuple:
        return tuple(len(g) - 1 for g in self.groups)

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def variables(self) -> tuple:
        return tuple(v for g in self.groups for v in g)

    @property
    def nvars(self) -> int:
        return sum(len(g) for g in self.groups)

    def group_slices(self):
        out, start = [], 0
        for g in self.groups:
            out.append((start, start + len(g)))
            start += len(g)
        return out

    def zero_degree(self) -> MultiDegree:
        return (0,) * self.arity

    def normalize_degree(self, d) -> MultiDegree:
        """Accept an int for arity-1 ambients; always return a tuple."""
        if isinstance(d, int):
            if self.arity != 1:
                raise BundleCertError("scalar degree on a product ambient")
            return (d,)
        d = tuple(int(c) for c in d)
        if len(d) != self.arity:
            raise BundleCertError(
                f"degree {d} has {len(d)} components, ambient has {self.arity}"
            )
        return d

    def exponent_multidegree(self, exps: tuple) -> MultiDegree:
        """Multidegree of a monomial given by its exponent vector."""
        out = []
        for lo, hi in self.group_slices():
            out.append(sum(exps[lo:hi]))
        return tuple(out)


def mdeg_add(a: MultiDegree, b: MultiDegree) -> MultiDegree:
    return tuple(x + y for x, y in zip(a, b))


def mdeg_sub(a: MultiDegree, b: MultiDegree) -> MultiDegree:
    return tuple(x - y for x, y in zip(a, b))


def _coeff(value):
    """A coefficient is a Python int; a rational or a float is refused."""
    if isinstance(value, int):
        return value
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


class RationalPolynomial:
    """Sparse exact polynomial: exponent vector -> nonzero int coefficient.

    No code changes `terms` after construction, so the packed terms a section
    matrix reads are computed once per polynomial and kept.
    """

    __slots__ = ("ambient", "terms", "_packed")

    def __init__(self, ambient: Ambient, terms: dict):
        self.ambient = ambient
        self.terms = terms
        self._packed = None

    def packed_terms(self) -> tuple:
        """((packed exponent, coefficient), ...), by `pack_terms` at the first call."""
        if self._packed is None:
            self._packed = pack_terms(self.terms)
        return self._packed

    @staticmethod
    def zero(ambient: Ambient) -> "RationalPolynomial":
        return RationalPolynomial(ambient, {})

    @staticmethod
    def constant(ambient: Ambient, value) -> "RationalPolynomial":
        c = _coeff(value)
        if not c:
            return RationalPolynomial.zero(ambient)
        return RationalPolynomial(ambient, {(0,) * ambient.nvars: c})

    @staticmethod
    def variable(ambient: Ambient, name: str) -> "RationalPolynomial":
        i = ambient.variables.index(name)
        e = [0] * ambient.nvars
        e[i] = 1
        return RationalPolynomial(ambient, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.ambient == other.ambient and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return RationalPolynomial(self.ambient, terms)

    def __neg__(self):
        return RationalPolynomial(self.ambient, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return RationalPolynomial(self.ambient, terms)

    def __pow__(self, n: int):
        """self^n for n >= 0, by repeated squaring."""
        out, base = RationalPolynomial.constant(self.ambient, 1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def is_homogeneous_of(self, d) -> bool:
        """Zero is homogeneous of every multidegree."""
        if not self.terms:
            return True
        d = self.ambient.normalize_degree(d)
        return all(self.ambient.exponent_multidegree(e) == d for e in self.terms)

    def evaluate(self, point) -> int:
        """The exact value at an integer point given by one coordinate per variable."""
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def render(self) -> str:
        """Canonical printing; reparses to the same polynomial."""
        if not self.terms:
            return "0"
        names = self.ambient.variables
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            neg = c < 0
            a = -c if neg else c
            coeff_txt = str(a) if a != 1 or not factors else None
            mono = "*".join(([coeff_txt] if coeff_txt else []) + factors)
            parts.append(("-" if neg else "+", mono))
        sign, mono = parts[0]
        text = ("-" if sign == "-" else "") + mono
        for sign, mono in parts[1:]:
            text += f" {sign} {mono}"
        return text


def monomial_basis(ambient: Ambient, d) -> tuple:
    """All exponent vectors of multidegree d, graded-lexicographic per factor.

    Within a factor the order is descending lexicographic on exponents, so on
    P^2 at d=1 the basis reads x0, x1, x2.  Empty when any component of d is
    negative.
    """
    return basis_exponents(tuple(map(len, ambient.groups)), ambient.normalize_degree(d))


@lru_cache(maxsize=None)
def basis_size(sizes: tuple, d: tuple) -> int:
    """The number of monomials of multidegree d on factors with `sizes`
    coordinates each, prod C(n - 1 + d_i, d_i), and 0 when any d_i < 0.

    A count over MAX_BASIS is refused, so a basis too large to build is
    refused before it is built, and so is a target summand too large to count.
    """
    if any(c < 0 for c in d):
        return 0
    size = prod(comb(n - 1 + c, c) for n, c in zip(sizes, d))
    if size > MAX_BASIS:
        raise BundleCertError(
            f"a monomial basis of degree {d} has {size} monomials, over the cap {MAX_BASIS}"
        )
    return size


@lru_cache(maxsize=None)
def basis_exponents(sizes: tuple, d: tuple) -> tuple:
    """The basis of multidegree d on factors with `sizes` coordinates each,
    in `monomial_basis` order.

    Built once per (sizes, d): every twist of a section matrix asks for the
    same few source bases (`packed_basis`), and a key of int tuples hashes
    faster than an Ambient.  Its size is checked by `basis_size` first.
    """
    if not basis_size(sizes, d):
        return ()
    per_group = [_exponents_of_degree(n, deg) for n, deg in zip(sizes, d)]
    return tuple(tuple(x for part in combo for x in part) for combo in iter_product(*per_group))


def pack_exponents(e) -> int:
    """The exponent vector e as one int: the sum of e[k] * 2^(FIELD_BITS * k).

    The map is Z-linear, so pack(a) + pack(b) == pack(a + b) for any integer
    vectors, whatever their size: a product of monomials is one int add.  It
    is injective on vectors whose entries lie in 0 .. 2^FIELD_BITS - 1, whose
    packs are their base-2^FIELD_BITS digits; every exponent of a monomial in
    a basis of at most MAX_BASIS monomials is one (`section_matrix`).
    """
    key = 0
    for x in reversed(e):
        key = (key << FIELD_BITS) + x
    return key


def pack_terms(terms: dict) -> tuple:
    """((pack_exponents(e), c), ...) over the terms of a polynomial: each map
    entry of a section matrix is packed here once, by `packed_terms`."""
    return tuple((pack_exponents(e), c) for e, c in terms.items())


@lru_cache(maxsize=None)
def packed_basis(sizes: tuple, d: tuple) -> tuple:
    """`basis_exponents(sizes, d)` packed by `pack_exponents`, in the same
    order, built once per (sizes, d)."""
    return tuple(map(pack_exponents, basis_exponents(sizes, d)))


def _exponents_of_degree(nvars: int, d: int) -> list:
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        for rest in _exponents_of_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def intersection_product(ambient: Ambient, d1, d2) -> int:
    """Intersection number of two divisor classes on a surface ambient."""
    d1 = ambient.normalize_degree(d1)
    d2 = ambient.normalize_degree(d2)
    if ambient.arity == 1 and ambient.dim == 2:
        return d1[0] * d2[0]
    if ambient.arity == 2 and ambient.dims == (1, 1):
        return d1[0] * d2[1] + d1[1] * d2[0]
    raise BundleCertError("intersection form only defined on P2 and P1xP1")
