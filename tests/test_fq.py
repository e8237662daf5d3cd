import pytest

from dioptuples.arith import legendre
from dioptuples.fq import fq_construct, quad_char_fq


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
    assert quad_char_fq(f9.elem([])) == 0
    assert quad_char_fq(f9.one()) == 1


def test_generator_is_nonsquare():
    f9 = fq_construct(3, 2)
    generators = []
    for x in f9.elements():
        if x.is_zero():
            continue
        order = 1
        y = x
        while y != f9.one():
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
        table = [quad_char_fq(x) for x in field.elements()]
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
        g = field.decode(int(exp[1]))
        assert len(exp) == field.q - 1  # each power stored once
        for k in range(field.q - 1):
            assert field.decode(int(exp[k])) == g**k
        assert sorted(exp) == list(range(1, field.q))  # g is primitive
        assert all(log[exp[k]] == k for k in range(field.q - 1))


def test_prime_field_agrees_with_legendre():
    for p in (3, 5, 7, 11, 13):
        field = fq_construct(p, 1)
        for a in range(p):
            assert quad_char_fq(field.elem([a])) == legendre(a, p)


def test_char_is_multiplicative():
    field = fq_construct(3, 2)
    elems = list(field.elements())
    for x in elems:
        for y in elems:
            assert quad_char_fq(x * y) == quad_char_fq(x) * quad_char_fq(y)


def test_encode_decode_roundtrip():
    field = fq_construct(5, 2)
    for code in range(field.q):
        assert field.decode(code).encode() == code


def test_rejects_even_characteristic_and_huge_fields():
    with pytest.raises(ValueError):
        fq_construct(2, 3)
    with pytest.raises(ValueError):
        fq_construct(4, 1)
    with pytest.raises(ValueError):
        fq_construct(317, 2)  # q = 100 489 exceeds the desk-scale bound
