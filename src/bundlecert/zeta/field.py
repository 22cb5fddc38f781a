"""Finite fields F_{p^n}, built deterministically, with arithmetic on codes.

The modulus is the lexicographically smallest monic irreducible of degree n
over F_p (high-degree coefficients compared first).  An element is named by
the integer packing its base-p digits; that name only indexes `Field.log`,
which maps it to the element's code: its discrete log to the generator g
for a nonzero element, 3(q - 1) for zero.  g is the smallest packed integer
with g^((q-1)/l) != 1 for every prime l dividing q - 1, the smallest element
of order q - 1.  Every operation of `Field` is a lookup in a table indexed
by codes (see its docstring).  Building the tables costs O(q) time and
memory, so `make_field` refuses q > ZECH_CAP = 2^20; there is no table-free
arithmetic.  The digit-list helpers below build the tables and serve the
table-free brute-force oracle of `count`.
"""
from __future__ import annotations

from itertools import product as iter_product

import numpy as np

from ..errors import BundleCertError
from .charpoly import prime_divisors

ZECH_CAP = 1 << 20


def is_prime(n: int) -> bool:
    return prime_divisors(n) == [n]


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
    for ell in prime_divisors(n):
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


class Field:
    """F_{p^n}, with arithmetic on the codes of its elements, one numpy call
    per table lookup, for arrays of any shape.

    An element is named by the integer that packs its base-p digits (digit
    k is the coefficient of x^k), and log[a] is the code of the element a.
    A nonzero element is coded by its log to the generator g, in [0, L),
    L = q - 1, and zero by Z = 3L.  red[v] is v mod L for v < 3L and Z from
    3L on (lookups clip), so a product of up to three factors is
    red[a + b + c] and a quotient red[a - b + 2L], b a product of up to two.
    A sum is a + b = red[b + plus[d]] and a difference red[b + minus[d]],
    with d = b - a + 3L, so that b + 3L - d = a: on (2L, 4L) plus[d] is
    3L - d plus the zech log of 1 + g^(b - a) (Z when that is zero) and
    minus[d] 3L - d plus that of 1 - g^(b - a); on [0, L) (a = Z) b + plus[d]
    and b + minus[d] are b and -b; from 5L on (b = Z) both are a; at 3L
    (a = b) they are 2a and Z.  chi[v] is the quadratic character of the
    code v, 0 at Z (clipped to L).
    """

    def __init__(self, p: int, n: int, modulus: tuple):
        self.p, self.n, self.modulus = p, n, modulus
        self.q = p ** n
        L = self.L = self.q - 1
        self.zero = 3 * L
        exp = self._powers()
        logs = np.arange(L, dtype=np.int64)
        self.log = np.full(self.q, self.zero, dtype=np.int64)
        self.log[exp] = logs
        # the code of 1 + g^i: adding 1 raises the lowest base-p digit mod p
        zech = self.log[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)]
        self.red = np.concatenate([logs, logs, logs, [self.zero]])
        self.chi = np.concatenate([1 - 2 * (logs & 1), [0]])
        self.plus = np.arange(3 * L, -3 * L - 1, -1, dtype=np.int64)  # 3L - d
        self.minus = self.plus.copy()
        self.plus[:L] = 0
        self.minus[:L] = self.red[L // 2 : L // 2 + L] - logs
        self.plus[2 * L : 4 * L].reshape(2, L)[:] += zech
        self.minus[2 * L : 4 * L].reshape(2, L)[:] += np.roll(zech, -(L // 2))

    def _powers(self) -> np.ndarray:
        """The packed elements g^i, i = 0..L-1."""
        p, n, q = self.p, self.n, self.q
        mod = list(self.modulus)

        def digits(a):
            return [a // p ** k % p for k in range(n)]

        cofactors = [(q - 1) // ell for ell in prime_divisors(q - 1)]
        gen = next(
            cand for cand in range(1, q)
            if all(_pol_trim(_pol_powmod(digits(cand), e, mod, p)) != [1] for e in cofactors)
        )
        # multiplication by g is F_p-linear: row j of `step` holds the digits of
        # x^j g, and digits(g^(k0+k)) = digits(g^k) @ step^k0 fills [k0, 2 k0)
        # from [0, k0); the dtype holds every dot product before its mod p.
        dtype = np.min_scalar_type(n * (p - 1) ** 2)
        step = np.zeros((n, n), dtype=dtype)
        for j in range(n):
            row = _pol_mulmod([0] * j + [1], digits(gen), mod, p)
            step[j, : len(row)] = row
        table = np.zeros((q - 1, n), dtype=dtype)
        table[0, 0] = 1
        done = 1
        while done < q - 1:
            todo = min(done, q - 1 - done)
            table[done : done + todo] = table[:todo] @ step % p
            step = step @ step % p
            done += todo
        exp = table[:, n - 1].astype(np.int64)
        for j in range(n - 2, -1, -1):
            exp = exp * p + table[:, j]
        return exp

    def encode(self, a: int) -> int:
        """The code of the element a (packed)."""
        return int(self.log[a])

    def const(self, k: int) -> int:
        return self.encode(k % self.p)

    def mul(self, a, b):
        return self.red.take(a + b, mode="clip")

    def div(self, a, b):
        return self.red.take(a - b + 2 * self.L, mode="clip")

    def add(self, a, b):
        return self.red.take(b + self.plus.take(b - a + 3 * self.L, mode="clip"), mode="clip")

    def sub(self, a, b):
        return self.red.take(b + self.minus.take(b - a + 3 * self.L, mode="clip"), mode="clip")

    def neg(self, a):
        return self.red.take(a + self.L // 2, mode="clip")

    def horner(self, coeffs, x, acc):
        """acc[r, s] = sum_j coeffs[r, j] x[s]^j, by acc <- add(mul(acc, x), c_j)
        from acc = c_4; coeffs is (rows, 5), x a row of codes, and acc a
        (rows, len(x)) int64 buffer.

        The sum c_j + plus[d] of `add` is left unreduced until the next
        step's mul: it lies in [0, 2L), or from 3L on when it is zero, so
        red[sum + x] is the code of the product."""
        shifted = coeffs + 3 * self.L
        np.add(coeffs[:, 4:], x, out=acc)
        for j in (3, 2, 1, 0):
            self.red.take(acc, out=acc, mode="clip")  # mul(acc, x)
            np.subtract(shifted[:, j : j + 1], acc, out=acc)
            self.plus.take(acc, out=acc, mode="clip")
            np.add(acc, coeffs[:, j : j + 1], out=acc)  # add(., c_j), unreduced
            if j:
                np.add(acc, x, out=acc)
        return self.red.take(acc, out=acc, mode="clip")


def check_field(p: int, n: int):
    """Raise unless F_{p^n} can be built: p prime, n >= 1, q <= ZECH_CAP."""
    if not is_prime(p):
        raise BundleCertError(f"{p} is not prime")
    if n < 1:
        raise BundleCertError(f"extension degree must be >= 1, got {n}")
    if p ** n > ZECH_CAP:
        raise BundleCertError(f"q = {p}^{n} exceeds the log-table limit 2^20")


def make_field(p: int, n: int) -> Field:
    """Deterministic field construction; raises NotPrime / TooLarge."""
    check_field(p, n)
    return Field(p, n, smallest_irreducible(p, n))
