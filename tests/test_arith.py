import numpy as np
import pytest

from dioptuples.arith import format_rational, is_prime, legendre, odd_prime_power


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x) % p == a for x in range(1, p)) else -1


def test_legendre_examples():
    assert legendre(1, 5) == 1
    assert legendre(0, 7) == 0
    assert legendre(2, 5) == -1  # squares mod 5 are {0, 1, 4}


def test_legendre_matches_brute_force():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        for a in range(p):
            assert legendre(a, p) == brute_legendre(a, p), (a, p)


def test_legendre_multiplicative():
    for p in (3, 5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 4)
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 15)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes)


def test_odd_prime_power():
    assert odd_prime_power(27) == (3, 3)
    assert odd_prime_power(25) == (5, 2)
    assert odd_prime_power(7) == (7, 1)
    for bad in (1, 2, 8, 12, 15, 45):
        with pytest.raises(ValueError):
            odd_prime_power(bad)


def test_format_rational():
    from fractions import Fraction

    assert format_rational(Fraction(7, 12)) == "7/12"
    assert format_rational(Fraction(37)) == "37"
    assert format_rational(Fraction(-5, 16)) == "-5/16"
    # ints (bool and numpy ints too) and Fractions, each formatted as its Fraction is
    for x in (0, -3, 42, 10**30, True, np.int64(-7), Fraction(6, 3), Fraction(-9, 4)):
        assert format_rational(x) == str(Fraction(x)), repr(x)


def test_rational_canonical_form_and_algebra():
    # exact rationals: canonical reduced form, positive denominator, and
    # field algebra on seeded random triples
    import random
    from fractions import Fraction

    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6).denominator > 0
    rng = random.Random(423)
    for _ in range(200):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        from math import gcd

        assert gcd(abs(a.numerator), a.denominator) == 1 and a.denominator > 0
