"""Finite fields F_{p^n} with deterministic construction.

The modulus is the lexicographically smallest monic irreducible of degree n
over F_p (high-degree coefficients compared first), elements are packed into
integers base p, and multiplication runs on discrete-log tables with a
Zech-logarithm table for addition.  The generator is the smallest packed
integer g with g^((q-1)/l) != 1 for every prime l dividing q - 1, which is
the smallest element of order q - 1.  Building the tables costs O(q) time
and memory, so `make_field` refuses q > ZECH_CAP = 2^20; there is no
table-free arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from ..errors import ExtensionDegreeError, NotPrimeError, TooLargeError

ZECH_CAP = 1 << 20

LOG_ZERO = -1  # sentinel log value for the zero element


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_divisors(m: int) -> list:
    """The distinct primes dividing m, by trial division."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# --- dense polynomial helpers over F_p (ascending coefficient lists) -----------

def _pol_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pol_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _pol_rem(out, mod, p)


def _pol_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        _pol_trim(a)
        if len(a) - 1 < dm:
            break
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, m in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * m) % p
        _pol_trim(a)
    return a


def _pol_powmod(a, e, mod, p):
    result = [1]
    base = _pol_rem(a, mod, p)
    while e:
        if e & 1:
            result = _pol_mulmod(result, base, mod, p)
        base = _pol_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _pol_gcd(a, b, p):
    a, b = list(a), list(b)
    while _pol_trim(b):
        a = _pol_rem(a, b, p)
        a, b = b, a
    return _pol_trim(a)


def _is_irreducible(poly, p) -> bool:
    """Rabin's test: x^(p^n) = x mod f, and gcd(x^(p^(n/l)) - x, f) = 1."""
    n = len(poly) - 1
    if n == 1:
        return True
    x = [0, 1]
    xq = _pol_powmod(x, p ** n, poly, p)
    minus_x = _pol_trim([(a - b) % p for a, b in zip(xq + [0] * 2, [0, 1] + [0] * len(xq))])
    if minus_x:
        return False
    for ell in _prime_divisors(n):
        xe = _pol_powmod(x, p ** (n // ell), poly, p)
        diff = [(a - b) % p for a, b in zip(xe + [0, 0], [0, 1] + [0] * len(xe))]
        g = _pol_gcd(poly, diff, p)
        if len(g) - 1 >= 1:
            return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple:
    """Monic irreducible of degree n, minimal in lex order on (c_{n-1},..,c_0)."""
    if n == 1:
        return (0, 1)  # the polynomial x
    for high_to_low in iter_product(range(p), repeat=n):
        coeffs = list(reversed(high_to_low)) + [1]  # ascending, monic
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("unreachable: irreducibles exist in every degree")


@dataclass
class FqField:
    """F_{p^n}; elements are integers packing base-p coefficient vectors."""

    p: int
    n: int
    modulus: tuple
    q: int = field(init=False)
    exp: np.ndarray = field(init=False, repr=False)
    log: np.ndarray = field(init=False, repr=False)
    zech: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.q = self.p ** self.n
        self._build_tables()

    # packing helpers
    def _unpack(self, a: int):
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return out

    def _pack(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs) + [0] * (self.n - len(coeffs))):
            a = a * self.p + c % self.p
        return a

    # scalar arithmetic (packed representation)
    def add(self, a: int, b: int) -> int:
        ca, cb = self._unpack(a), self._unpack(b)
        return self._pack([(x + y) % self.p for x, y in zip(ca, cb)])

    def from_int(self, c: int) -> int:
        return c % self.p

    def _build_tables(self):
        q, p = self.q, self.p
        mod = list(self.modulus)
        cofactors = [(q - 1) // ell for ell in _prime_divisors(q - 1)]
        gen = next(
            cand for cand in range(1, q)
            if all(_pol_trim(_pol_powmod(self._unpack(cand), e, mod, p)) != [1] for e in cofactors)
        )
        # multiplication by g is F_p-linear: row j of `step` holds the digits of
        # x^j g, and digits(g^(k0+k)) = digits(g^k) @ step^k0 fills [k0, 2 k0)
        # from [0, k0); the dtype holds every dot product before its mod p.
        n = self.n
        dtype = np.min_scalar_type(n * (p - 1) ** 2)
        step = np.zeros((n, n), dtype=dtype)
        for j in range(n):
            row = _pol_mulmod([0] * j + [1], self._unpack(gen), mod, p)
            step[j, : len(row)] = row
        digits = np.zeros((q - 1, n), dtype=dtype)
        digits[0, 0] = 1
        done = 1
        while done < q - 1:
            todo = min(done, q - 1 - done)
            digits[done : done + todo] = digits[:todo] @ step % p
            step = step @ step % p
            done += todo
        exp = digits[:, n - 1].astype(np.int64)
        for j in range(n - 2, -1, -1):
            exp = exp * p + digits[:, j]
        log = np.full(q, LOG_ZERO, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        # zech[i] = log(1 + g^i), LOG_ZERO when 1 + g^i = 0: adding 1 raises the
        # lowest base-p digit mod p, and log[0] is LOG_ZERO
        self.zech = log[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)]
        self.exp = exp
        self.log = log


def check_field(p: int, n: int):
    """Raise unless F_{p^n} can be built: p prime, n >= 1, q <= ZECH_CAP."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if n < 1:
        raise ExtensionDegreeError(f"extension degree must be >= 1, got {n}")
    if p ** n > ZECH_CAP:
        raise TooLargeError(f"q = {p}^{n} exceeds the log-table limit 2^20")


def make_field(p: int, n: int) -> FqField:
    """Deterministic field construction; raises NotPrime / TooLarge."""
    check_field(p, n)
    return FqField(p, n, smallest_irreducible(p, n))
