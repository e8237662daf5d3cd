"""Finite fields F_q of odd characteristic, q = p^f, at desk scale.

F_q is F_p[x] modulo a fixed monic irreducible polynomial.  The modulus is
chosen deterministically (smallest candidate in the lexicographic order on
coefficient tuples) so that element encodings are reproducible across runs
and machines.

Elements are addressed as integers: the coefficient vector (c_0, ...,
c_{f-1}) encodes to sum c_i * p^i.  Census code enumerates fields through
this encoding, and a prime field F_p is F_{p^1}, where the code of a residue
is the residue.  All arithmetic is on f x f matrices over F_p: multiplying
by h = sum h_i x^i is M_h = sum h_i C^i, with C the companion matrix of the
modulus.  Products of codes go through one pair of log/antilog tables of a
primitive element, built lazily from about log2(q) such matrix products and
cached read-only.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .arith import is_prime, smallest_factor

DESK_SCALE_BOUND = 100_000


def _digits(k, p, width):
    out = []
    for _ in range(width):
        out.append(k % p)
        k //= p
    return out


def _prime_factors(n):
    primes = []
    while n > 1:
        ell = smallest_factor(n)
        primes.append(ell)
        while n % ell == 0:
            n //= ell
    return primes


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
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        # f against the bound's bit length first, since p**f for a huge f would stall
        if f >= DESK_SCALE_BOUND.bit_length() and abs(p) > 1 or p**f > DESK_SCALE_BOUND:
            raise ValueError(f"q = {p}^{f} exceeds the desk-scale bound {DESK_SCALE_BOUND}")
        if p == 2 or not is_prime(p):
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = find_irreducible(p, f)

    @cached_property
    def exp_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Log/antilog tables of g, the primitive element with the smallest code.

        exp[k] is the code of g^k for 0 <= k < q-1, each power stored once,
        so the product of nonzero codes a and b is exp[(log[a] + log[b]) % (q-1)].
        log[exp[k]] = k.  Zero has no logarithm; log[0] = 0 is a placeholder
        that no caller reads.  Read-only.

        Multiplying by h is the f x f matrix M_h = sum h_i C^i over F_p, C
        the companion matrix of the modulus, so column i of M_h is h * x^i.
        g is the first code c with M_c^(n/l) != I for every prime l | n = q-1,
        the powers taken by square-and-multiply, 16 codes at a time.  The
        powers of g are built by doubling blocks of digit vectors: the block
        g^0 .. g^(L-1) times M_h for h = g^L is g^L .. g^(2L-1), and squaring
        M_h moves to the next block.
        """
        n, p, f = self.q - 1, self.p, self.f
        C = np.eye(f, k=-1, dtype=np.int64)  # x * x^i = x^(i+1) for i < f-1
        C[:, -1] = -np.array(self.modulus[:f]) % p  # x^f = -(c_0 + ... + c_{f-1} x^(f-1))
        powers = [np.eye(f, dtype=np.int64)]  # C^0 .. C^(f-1)
        while len(powers) < f:
            powers.append(powers[-1] @ C % p)
        identity, powers = powers[0], np.array(powers)
        cofactors = np.array([n // ell for ell in _prime_factors(n)])[:, None, None, None]
        for start in range(1, self.q, 16):  # codes in order, 16 at a time
            codes = np.arange(start, min(start + 16, self.q))
            coeffs = codes[:, None] // p ** np.arange(f) % p
            Ms = (coeffs @ powers.reshape(f, -1)).reshape(-1, f, f) % p  # M_c for each code c
            R, S = identity, Ms  # R[l, c] = M_c^(n/l) once every bit is read
            for b in range(n.bit_length()):
                R = np.where(cofactors >> b & 1, R @ S % p, R)
                S = S @ S % p
            primitive = (R != identity).any(axis=(2, 3)).all(axis=0)
            if primitive.any():
                M = Ms[primitive.argmax()]
                break
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


@lru_cache(maxsize=128)
def fq_construct(p: int, f: int) -> FqField:
    """Field with the deterministic smallest irreducible modulus, one per (p, f)."""
    return FqField(p, f)

