"""Finite fields F_{p^n}, built deterministically, with arithmetic on codes.

The modulus is the first primitive polynomial of degree n over F_p in the
order of `primitive_modulus`, so x generates the multiplicative group, and
for n = 1 it is x - r with r the least primitive root mod p.  The search
runs the power tests on digit lists only for a candidate f that passes
exact necessary conditions: (-1)^n f(0), the norm of its root, is a
primitive root mod p (Lidl and Niederreiter, Finite Fields, 3.18); for
n >= 2, f(1) != 0 and f(-1) != 0, since a primitive f is irreducible; and
at n = 2, a non-square discriminant and a nonzero x coefficient.
Every candidate skipped would fail the power tests, so the modulus is the
one the full search finds.

An element is named by the integer packing its base-p digits; that name
only indexes `Field.log`, which maps it to the element's code: its discrete
log to x for a nonzero element, 3(q - 1) for zero.  x is also the smallest
packed element of order q - 1: for n >= 2 it packs as p, and 1, ..., p - 1
have order dividing p - 1.  Every operation of `Field` is a lookup in a
table indexed by codes (see its docstring).  Building the tables costs O(q)
time and memory, so `make_field` refuses q > ZECH_CAP = 2^20; there is no
table-free arithmetic.  The digit-list helpers below find the modulus for
n >= 2 and serve the table-free brute-force oracle of `count`.
"""
from __future__ import annotations

from itertools import product as iter_product

import numpy as np

from ..errors import BundleCertError
from .charpoly import is_prime, prime_divisors

ZECH_CAP = 1 << 20


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
    a = _pol_trim(list(a))
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm:  # a is trimmed: empty, or a nonzero leading digit
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


def primitive_modulus(p: int, n: int) -> tuple:
    """The first monic f = x^n + c_{n-1} x^{n-1} + ... + c_1 x - t in lex order
    on (c_{n-1}, ..., c_1, t) whose root x has order q - 1, ascending.

    With h = x^((q-1)/2) mod f, h^2 = 1 makes x a unit of order dividing
    q - 1, which h != 1 and x^((q-1)/l) != 1 for every odd prime l | q - 1
    make exactly q - 1 (a reducible f can pass all but h^2 = 1).  Then the
    powers of x are the q - 1 nonzero residues, so F_p[x]/(f) is a field
    generated by x: f is primitive (Lidl and Niederreiter, Finite Fields,
    3.1).  Necessary conditions skip most candidates before any power of
    x: (-1)^n f(0) = (-1)^(n+1) t is the norm x^((q-1)/(p-1)) of x, so it
    has order p - 1 when x has order q - 1: it is a primitive root mod p
    (ibid., 3.18); for n >= 2 a primitive f is irreducible, so f(1) != 0
    and f(-1) != 0, and at n = 2 its discriminant c_1^2 + 4t is a
    non-square mod p; and at n = 2, c_1 = 0 would make x^p = -x, so
    x^(2(p-1)) = 1.  For n = 1, f = x - t and the root is t itself, so
    the first such f has t = r, the least primitive root mod p.
    """
    if n == 1:
        return (-next(_primitive_roots(p)) % p, 1)
    return _search_primitive(p, n)


def _primitive_roots(p: int):
    """The primitive roots mod p in increasing order, lazily: the c with
    c^((p-1)/l) != 1 mod p for every prime l | p - 1."""
    exponents = [(p - 1) // ell for ell in prime_divisors(p - 1)]
    return (c for c in range(1, p) if all(pow(c, e, p) != 1 for e in exponents))


def _candidates(p: int, n: int):
    """The candidates of `primitive_modulus` in its order, as ascending lists,
    less every f whose norm (-1)^(n+1) t is not a primitive root mod p, for
    n >= 2 every f with f(1) = 0 or f(-1) = 0, and for n = 2 every f with
    c_1 = 0 or whose discriminant c_1^2 + 4t is a square mod p (Euler's
    criterion)."""
    sign = (-1) ** (n + 1)
    norms = sorted(sign * r % p for r in _primitive_roots(p))  # the t that pass
    for high in iter_product(range(p), repeat=n - 1):  # (c_{n-1}, ..., c_1)
        low = high[::-1]
        if n == 2 and not low[0]:  # x^p = -x, so x^(2(p-1)) = 1
            continue
        # f(1) = 0 iff t = 1 + sum c_k, and f(-1) = 0 iff t = (-1)^n + sum (-1)^k c_k
        at_units = () if n == 1 else (
            (1 + sum(low)) % p,
            ((-1) ** n + sum(low[1::2]) - sum(low[::2])) % p,
        )
        for t in norms:
            # at n = 2, x^2 + c x - t is irreducible only if c^2 + 4t is a non-square
            if t not in at_units and (n != 2 or pow(low[0] ** 2 + 4 * t, (p - 1) // 2, p) == p - 1):
                yield [-t % p, *low, 1]


def _search_primitive(p: int, n: int) -> tuple:
    """The search of `primitive_modulus` over `_candidates`, with powers on
    digit lists.  At n = 1 and odd p it finds the f that the int powers find."""
    q = p ** n
    odd = [(q - 1) // ell for ell in prime_divisors(q - 1) if ell != 2]
    for mod in _candidates(p, n):
        h = _pol_powmod([0, 1], (q - 1) // 2, mod, p)
        if h != [1] and _pol_mulmod(h, h, mod, p) == [1] and all(
            _pol_powmod([0, 1], e, mod, p) != [1] for e in odd
        ):
            return tuple(mod)
    raise RuntimeError("unreachable: primitive polynomials exist in every degree")


class Field:
    """F_{p^n}, with arithmetic on the codes of its elements, one numpy call
    per table lookup, for arrays of any shape.

    An element is named by the integer that packs its base-p digits (digit
    k is the coefficient of x^k), and log[a] is the code of the element a.
    A nonzero element is coded by its log to the generator x, in [0, L),
    L = q - 1, and zero by Z = 3L.  red[v] is v mod L for v < 3L and Z from
    3L on (lookups clip), so a product of up to three factors is
    red[a + b + c] and a quotient red[a - b + 2L], b a product of up to two.
    A sum is a + b = red[b + plus[d]] and a difference red[b + minus[d]],
    with d = b - a + 3L, so that b + 3L - d = a: on (2L, 4L) plus[d] is
    3L - d plus the zech log of 1 + x^(b - a) (Z when that is zero) and
    minus[d] 3L - d plus that of 1 - x^(b - a); on [0, L) (a = Z) b + plus[d]
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
        # the code of 1 + x^i: adding 1 raises the lowest base-p digit mod p
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
        """The packed elements x^i, i = 0..L-1."""
        p, n, q = self.p, self.n, self.q
        # multiplication by x is F_p-linear with the companion matrix `step`:
        # row j holds the digits of x^(j+1), row n-1 those of
        # x^n = -sum c_k x^k, and digits(x^(k0+k)) = digits(x^k) @ step^k0
        # fills [k0, 2 k0) from [0, k0); the dtype holds every dot product
        # before its mod p.
        dtype = np.min_scalar_type(n * (p - 1) ** 2)
        step = np.eye(n, k=1, dtype=dtype)
        step[n - 1] = [-c % p for c in self.modulus[:n]]
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
    """Raise unless F_{p^n} can be built for a count: n >= 1, q <= ZECH_CAP,
    p an odd prime.  The size goes first, from p^min(n, 21) (exact: p^21 >
    ZECH_CAP), so no large power is made and `is_prime` sees p <= ZECH_CAP."""
    if n < 1:
        raise BundleCertError(f"extension degree must be >= 1, got {n}")
    if p >= 2 and p ** min(n, ZECH_CAP.bit_length()) > ZECH_CAP:
        raise BundleCertError(f"q = {p}^{n} exceeds the log-table limit 2^20")
    if not is_prime(p):
        raise BundleCertError(f"{p} is not prime")
    if p == 2:
        raise BundleCertError("double-cover counting needs odd characteristic")


def make_field(p: int, n: int) -> Field:
    """F_{p^n} on its primitive modulus; refused as `check_field` says."""
    check_field(p, n)
    return Field(p, n, primitive_modulus(p, n))
