"""Finite fields F_q of odd characteristic, q = p^f, at desk scale.

Elements are coefficient vectors over F_p modulo a fixed monic irreducible
polynomial.  The modulus is chosen deterministically (smallest candidate in
the lexicographic order on coefficient tuples) so that element encodings are
reproducible across runs and machines.

Elements are also addressable as integers: (c_0, ..., c_{f-1}) encodes to
sum c_i * p^i.  Census code enumerates fields through this encoding, and a
prime field F_p is F_{p^1}, where the code of a residue is the residue.
Products of codes go through one pair of log/antilog tables of a primitive
element, built lazily from about log2(q) f x f matrix products over F_p and
cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import is_prime

DESK_SCALE_BOUND = 100_000


def _digits(k, p, width):
    out = []
    for _ in range(width):
        out.append(k % p)
        k //= p
    return out


def _poly_mulmod(a, b, modulus, p):
    # schoolbook multiply, then reduce by the monic modulus
    f = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, f - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(f):
                prod[i - f + j] = (prod[i - f + j] - c * modulus[j]) % p
    out = prod[:f]
    out += [0] * (f - len(out))
    return out


def _poly_rem(a, b, p):
    # remainder of a by monic b
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return a[:db]


def _is_irreducible(poly, p):
    # trial division against all monic polynomials of degree <= deg/2
    f = len(poly) - 1
    if f == 1:
        return True
    if poly[0] == 0:
        return False
    for d in range(1, f // 2 + 1):
        for k in range(p**d):
            divisor = _digits(k, p, d) + [1]
            if all(c == 0 for c in _poly_rem(poly, divisor, p)):
                return False
    return True


def find_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree f over F_p, as coefficients c_0..c_f.

    Candidates x^f + a_{f-1}x^{f-1} + ... + a_0 are scanned with the constant
    term varying fastest, i.e. in lexicographic order on (a_{f-1}, ..., a_0).
    """
    for k in range(p**f):
        coeffs = _digits(k, p, f) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {f} over F_{p}")


class FqField:
    """F_{p^f} with odd p; immutable after construction."""

    def __init__(self, p: int, f: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        if p**f > DESK_SCALE_BOUND:
            raise ValueError(f"q = {p}^{f} exceeds the desk-scale bound {DESK_SCALE_BOUND}")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = find_irreducible(p, f)

    def elem(self, coeffs) -> "FqElem":
        if isinstance(coeffs, int):
            return self.decode(coeffs)
        c = [x % self.p for x in coeffs]
        if len(c) > self.f:
            raise ValueError("coefficient vector longer than extension degree")
        c += [0] * (self.f - len(c))
        return FqElem(self, tuple(c))

    def decode(self, code: int) -> "FqElem":
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range for q={self.q}")
        return FqElem(self, tuple(_digits(code, self.p, self.f)))

    def elements(self):
        for code in range(self.q):
            yield self.decode(code)

    def one(self) -> "FqElem":
        return self.elem([1])

    @cached_property
    def exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Log/antilog tables of g, the primitive element with the smallest code.

        exp[k] is the code of g^k for 0 <= k < q-1, each power stored once,
        so the product of nonzero codes a and b is exp[(log[a] + log[b]) % (q-1)].
        log[exp[k]] = k.  Zero has no logarithm; log[0] = 0 is a placeholder
        that no caller reads.  Read-only.

        The powers are built by doubling blocks of digit vectors: multiplying
        by h is the f x f matrix M_h over F_p whose column i is h * x^i, so the
        block g^0 .. g^(L-1) times M_h for h = g^L is g^L .. g^(2L-1), and
        squaring M_h moves to the next block.
        """
        n, p, f = self.q - 1, self.p, self.f
        one = self.one()
        cofactors = [n // ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)]
        g = next(x for x in map(self.decode, range(1, self.q)) if all(x**c != one for c in cofactors))
        M = np.array([(g * self.elem([0] * i + [1])).coeffs for i in range(f)], dtype=np.int64).T
        digits = np.eye(1, f, dtype=np.int64)  # g^0 = 1
        while len(digits) < n:
            digits = np.concatenate([digits, digits @ M.T % p])
            M = M @ M % p
        exp = (digits[:n] @ p ** np.arange(f)).astype(np.int32)
        log = np.zeros(self.q, dtype=np.int32)
        log[exp] = np.arange(n)
        exp.flags.writeable = log.flags.writeable = False
        return exp, log

    def __repr__(self):
        return f"FqField(p={self.p}, f={self.f}, modulus={self.modulus})"

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))


@dataclass(frozen=True)
class FqElem:
    field: FqField
    coeffs: tuple[int, ...]

    def encode(self) -> int:
        return sum(c * self.field.p**i for i, c in enumerate(self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FqElem") -> "FqElem":
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "FqElem") -> "FqElem":
        c = _poly_mulmod(
            list(self.coeffs), list(other.coeffs), list(self.field.modulus), self.field.p
        )
        return FqElem(self.field, tuple(c))

    def __pow__(self, n: int) -> "FqElem":
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


@lru_cache(maxsize=128)
def fq_construct(p: int, f: int) -> FqField:
    """Field with the deterministic smallest irreducible modulus, one per (p, f)."""
    return FqField(p, f)


def quad_char_fq(x: FqElem) -> int:
    """Quadratic character on F_q: 0 at zero, else x^((q-1)/2) mapped to ±1.

    Computed by modular exponentiation, independently of the census square
    tables.  Agrees with the Legendre symbol on prime fields.
    """
    field = x.field
    if field.p == 2:
        raise ValueError("characteristic 2 is unsupported")
    if x.is_zero():
        return 0
    y = x ** ((field.q - 1) // 2)
    if y == field.one():
        return 1
    return -1

