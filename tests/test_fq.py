from dataclasses import dataclass

import pytest

from dioptuples.arith import is_prime, legendre
from dioptuples.fq import FqField, _prime_factors, fq_construct
from conftest import fresh_python

# The scalar reference: an element of F_q is its coefficient vector, and
# products are polynomial products reduced by the modulus of fq_construct(p, f).
# It reads only p, f, q and the modulus of the field, never its log tables.


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
        result = one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def elem(field, coeffs) -> FqElem:
    """The element c_0 + c_1 x + ... from a coefficient list no longer than f."""
    c = [x % field.p for x in coeffs]
    return FqElem(field, tuple(c + [0] * (field.f - len(c))))


def decode(field, code: int) -> FqElem:
    return elem(field, [code // field.p**i % field.p for i in range(field.f)])


def elements(field):
    return (decode(field, code) for code in range(field.q))


def one(field) -> FqElem:
    return elem(field, [1])


def quad_char_fq(x: FqElem) -> int:
    """Quadratic character on F_q: 0 at zero, else x^((q-1)/2) mapped to ±1."""
    if x.is_zero():
        return 0
    return 1 if x ** ((x.field.q - 1) // 2) == one(x.field) else -1


def test_modulus_selection_is_deterministic_and_smallest():
    assert fq_construct(5, 1).modulus == (0, 1)  # x
    assert fq_construct(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert fq_construct(5, 2).modulus == (2, 0, 1)  # x^2 + 2 (x^2, x^2+1 reducible)


def test_modulus_has_no_roots():
    for p, f in ((3, 2), (5, 2), (3, 3), (7, 2)):
        field = fq_construct(p, f)
        mod = field.modulus
        for x in range(p):
            assert sum(c * x**i for i, c in enumerate(mod)) % p != 0


def test_quad_char_basics():
    f9 = fq_construct(3, 2)
    assert quad_char_fq(elem(f9, [])) == 0
    assert quad_char_fq(one(f9)) == 1


def test_generator_is_nonsquare():
    f9 = fq_construct(3, 2)
    generators = []
    for x in elements(f9):
        if x.is_zero():
            continue
        order = 1
        y = x
        while y != one(f9):
            y = y * x
            order += 1
        if order == f9.q - 1:
            generators.append(x)
    assert generators
    for g in generators:
        assert quad_char_fq(g) == -1


def test_square_count_invariant():
    for p, f in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        field = fq_construct(p, f)
        table = [quad_char_fq(x) for x in elements(field)]
        assert table.count(1) == (field.q - 1) // 2
        assert table.count(-1) == (field.q - 1) // 2
        assert table[0] == 0


def test_log_tables_are_read_only_and_fields_cached():
    for p, f in ((3, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        field = fq_construct(p, f)
        assert fq_construct(p, f) is field
        exp, log = field.exp_log
        assert not exp.flags.writeable and not log.flags.writeable
        with pytest.raises(ValueError):
            exp[0] = 2
        g = decode(field, int(exp[1]))
        assert len(exp) == field.q - 1  # each power stored once
        for k in range(field.q - 1):
            assert decode(field, int(exp[k])) == g**k
        assert sorted(exp) == list(range(1, field.q))  # g is primitive
        assert all(log[exp[k]] == k for k in range(field.q - 1))


def walked_exp_log(field):
    """exp and log by q - 1 scalar products with the smallest primitive element: the reference for exp_log."""
    n = field.q - 1
    cofactors = [n // ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)]
    g = next(x for x in elements(field) if not x.is_zero() and all(x**c != one(field) for c in cofactors))
    exp, x = [], one(field)
    for _ in range(n):
        exp.append(x.encode())
        x = x * g
    log = [0] * field.q
    for k, code in enumerate(exp):
        log[code] = k
    return exp, log


# g has code 21 in F_409 and 19 in F_{17^2}; the last three are the desk-scale
# fields whose g sits farthest along the code order (codes 44, 34 and 316)
WALKED_FIELDS = [
    (7, 1), (3, 2), (5, 2), (3, 3), (3, 5), (7, 5), (11, 4), (17, 2), (409, 1), (1009, 1), (99991, 1),
    (71761, 1), (3, 10), (313, 2),
]


@pytest.mark.parametrize(
    "p,f", WALKED_FIELDS + [(p, 1) for p in range(3, 500) if is_prime(p) and (p, 1) not in WALKED_FIELDS]
)
def test_exp_log_equals_the_scalar_walk(p, f):
    exp, log = fq_construct(p, f).exp_log
    assert (exp.tolist(), log.tolist()) == walked_exp_log(fq_construct(p, f))


def test_prime_factors_equal_the_scan_by_is_prime():
    for n in [*range(1, 5000), *(p**f - 1 for p, f in WALKED_FIELDS)]:
        assert _prime_factors(n) == [ell for ell in range(2, n + 1) if n % ell == 0 and is_prime(ell)], n


@pytest.mark.parametrize("factors,p,f,g", [
    ("[ell for ell in factors(n) if ell != 2]", 1009, 1, 2),
    ("[ell for ell in factors(n) if ell != 2]", 7, 2, 2),
    ("[1]", 3, 1, 0),
    ("[1]", 5, 2, 0),
])
def test_exp_log_refuses_powers_that_repeat_under_optimize(factors, p, f, g):
    # without l = 2 the cofactor test passes a code of order below q - 1: code 2
    # of F_1009 (order 504; every code from 2 to 10 has order dividing 504) and
    # code 2 of F_49, a residue of order 3; with l = 1 no code passes, and g = 0
    # (F_3 checks that 0 is no power, F_25 the f > 1 search running out)
    code = (
        "from dioptuples import fq\n"
        "factors = fq._prime_factors\n"
        f"fq._prime_factors = lambda n: {factors}\n"
        f"fq.fq_construct({p}, {f}).exp_log\n"
    )
    proc = fresh_python("-O", "-c", code, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.endswith(
        f"RuntimeError: the powers of code {g} in F_{p**f} are not its {p**f - 1} nonzero codes\n"
    ), proc.stderr


def test_prime_field_agrees_with_legendre():
    for p in (3, 5, 7, 11, 13):
        field = fq_construct(p, 1)
        for a in range(p):
            assert quad_char_fq(elem(field, [a])) == legendre(a, p)


def test_char_is_multiplicative():
    field = fq_construct(3, 2)
    elems = list(elements(field))
    for x in elems:
        for y in elems:
            assert quad_char_fq(x * y) == quad_char_fq(x) * quad_char_fq(y)


def test_encode_decode_roundtrip():
    field = fq_construct(5, 2)
    for code in range(field.q):
        assert decode(field, code).encode() == code


def test_rejects_even_characteristic_and_huge_fields():
    with pytest.raises(ValueError, match="expected an odd prime, got 2"):
        fq_construct(2, 3)
    with pytest.raises(ValueError, match="expected an odd prime, got 4"):
        fq_construct(4, 1)
    with pytest.raises(ValueError, match="exceeds the desk-scale bound 100000"):
        fq_construct(317, 2)  # q = 100 489
