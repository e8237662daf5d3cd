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
modulus.  Products of codes go through one pair of log/antilog tables of g,
the primitive element with the smallest code: the first code c with
c^((q-1)/l) != 1 for every prime l | q - 1, the primes found by trial
division and the powers taken in integers (Python's pow at f = 1,
square-and-multiply on M_c at f > 1).  The tables are built lazily and
cached read-only.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

import numpy as np

from .arith import require_odd_prime

DESK_SCALE_BOUND = 100_000


def _digits(k, p, width):
    out = []
    for _ in range(width):
        out.append(k % p)
        k //= p
    return out


def _prime_factors(n):
    # trial division by 2, then the odd ell with ell^2 <= n: n < 10^5, so at most about 160 steps
    primes, ell = [], 2
    while ell * ell <= n:
        if n % ell == 0:
            primes.append(ell)
            while n % ell == 0:
                n //= ell
        ell += 1 if ell == 2 else 2
    return primes + [n] * (n > 1)


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


def _doubled_powers(one, squares, n, times):
    # h^0 = one, h, ..., h^(n-1) along axis 0 of one array, given squares[b] = h^(2^b):
    # the block h^0 .. h^(L-1) times h^L is h^L .. h^(2L-1)
    out = np.empty((n, *np.shape(one)), dtype=np.int64)
    out[0] = one
    for b, H in enumerate(squares):
        L = 1 << b
        out[L : 2 * L] = times(out[: min(L, n - L)], H)
    return out


class FqField:
    """F_{p^f} with odd p; immutable after construction."""

    def __init__(self, p: int, f: int):
        if f < 1:
            raise ValueError("extension degree must be >= 1")
        # f against the bound's bit length first, since p**f for a huge f would stall
        if f >= DESK_SCALE_BOUND.bit_length() and abs(p) > 1 or p**f > DESK_SCALE_BOUND:
            raise ValueError(f"q = {p}^{f} exceeds the desk-scale bound {DESK_SCALE_BOUND}")
        require_odd_prime(p)
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
        At f = 1, M_h is the residue h.  g is the first code c with
        c^(n/l) != 1 for every prime l | n = q-1, the primes found by trial
        division and the powers taken in integers: Python's pow at f = 1, and
        at f > 1 square-and-multiply on M_c for blocks of 8, 16, 32, ... codes
        at a time.  The powers of g are built by doubling in one array: the
        block g^0 .. g^(L-1) times M_h for h = g^L is g^L .. g^(2L-1), where
        the M_g^L are the squares the test took.  Raises RuntimeError, also
        under -O, unless the q-1 powers are q-1 distinct nonzero codes.
        """
        n, p, f = self.q - 1, self.p, self.f
        cofactors = [n // ell for ell in _prime_factors(n)]
        bits = (n - 1).bit_length()  # the table takes g^(2^b) for 2^b < n
        if f == 1:  # g = 0 if no code passes, and the check below refuses its powers
            g = next((c for c in range(1, p) if all(pow(c, e, p) != 1 for e in cofactors)), 0)
            exp = _doubled_powers(1, [pow(g, 1 << b, p) for b in range(bits)], n, lambda a, h: a * h % p)
        else:
            C = np.eye(f, k=-1, dtype=np.int64)  # x * x^i = x^(i+1) for i < f-1
            C[:, -1] = -np.array(self.modulus[:f]) % p  # x^f = -(c_0 + ... + c_{f-1} x^(f-1))
            powers = [np.eye(f, dtype=np.int64)]  # C^0 .. C^(f-1)
            while len(powers) < f:
                powers.append(powers[-1] @ C % p)
            powers = np.array(powers).reshape(f, -1)
            place = p ** np.arange(f)
            start, size = 1, 8
            while start < self.q:  # codes in order, in blocks of 8, 16, 32, ...
                codes = np.arange(start, min(start + size, self.q))
                squares = [(codes[:, None] // place % p @ powers).reshape(-1, f, f) % p]  # M_c for each code c
                while len(squares) < bits:  # M_c^(2^b)
                    squares.append(squares[-1] @ squares[-1] % p)
                R = [reduce(lambda A, B: A @ B % p, (Q for b, Q in enumerate(squares) if e >> b & 1))
                     for e in cofactors]  # R[j][c] = M_c^(e_j)
                primitive = (np.array(R)[..., 0] @ place != 1).all(axis=0)  # column 0 of M_h is h
                if primitive.any():
                    i = primitive.argmax()
                    break
                start, size = start + size, 2 * size
            else:  # no code passes: g = 0, whose powers the check below refuses
                codes, i, squares = [0], 0, [np.zeros((1, f, f), dtype=np.int64)] * bits
            g = int(codes[i])
            exp = _doubled_powers(_digits(1, p, f), [Q[i].T for Q in squares], n, lambda a, h: a @ h % p) @ place
        exp = exp.astype(np.int32)
        log = np.zeros(self.q, dtype=np.int32)
        log[exp] = k = np.arange(n, dtype=np.int32)
        if log[0] or (log[exp] != k).any():  # 0 is among the powers (exp[0] = 1), or one repeats
            raise RuntimeError(f"the powers of code {g} in F_{self.q} are not its {n} nonzero codes")
        exp.flags.writeable = log.flags.writeable = False
        return exp, log

    def __repr__(self):
        return f"FqField(p={self.p}, f={self.f}, modulus={self.modulus})"


@lru_cache(maxsize=128)
def fq_construct(p: int, f: int) -> FqField:
    """Field with the deterministic smallest irreducible modulus, one per (p, f)."""
    return FqField(p, f)

