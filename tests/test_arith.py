import numpy as np
import pytest

from dioptuples.arith import PRIMALITY_BOUND, format_rational, is_prime, legendre, odd_prime_power


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


def test_trial_division_agrees_with_a_sieve():
    n_max = 10**4
    spf = list(range(n_max))  # smallest prime factor, for n >= 2
    for k in range(2, int(n_max**0.5) + 1):
        if spf[k] == k:
            for j in range(k * k, n_max, k):
                spf[j] = min(spf[j], k)
    powers = {p**f: (p, f) for p in range(3, n_max) if spf[p] == p for f in range(1, 10) if p**f < n_max}
    for n in range(n_max):
        assert is_prime(n) == (n >= 2 and spf[n] == n), n
        if n < 3 or n % 2 == 0:
            with pytest.raises(ValueError, match="expected an odd prime power"):
                odd_prime_power(n)
        elif n in powers:
            assert odd_prime_power(n) == powers[n], n
        else:
            with pytest.raises(ValueError, match="is not a prime power"):
                odd_prime_power(n)


def test_odd_prime_power_refuses_a_small_factor_at_once():
    # the factor 3 leaves a cofactor above 10^30, which trial division could not factor
    with pytest.raises(ValueError, match="is not a prime power"):
        odd_prime_power(3 * (10**30 + 57))


def strong_probable_prime(n, a):
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


@pytest.mark.parametrize(
    "n,factors,fooled",
    [
        (3215031751, (151, 751, 28351), (2, 3, 5, 7)),
        (3825123056546413051, (149491, 747451, 34233211), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
    ],
)
def test_strong_pseudoprimes_are_composite(n, factors, fooled):
    # each passes Miller-Rabin at every base in `fooled`, and has no factor up to 41
    assert n == factors[0] * factors[1] * factors[2]
    assert all(strong_probable_prime(n, a) for a in fooled)
    assert not is_prime(n)
    with pytest.raises(ValueError, match="is not a prime power"):
        odd_prime_power(n)


def test_huge_primes_and_the_proven_bound():
    p = 2**61 - 1
    assert is_prime(p) and odd_prime_power(p) == (p, 1)
    assert odd_prime_power(p**3) == (p, 3)  # past the bound, found by its cube root
    # the bound is itself a strong pseudoprime to all 13 bases, so it is refused
    assert all(strong_probable_prime(PRIMALITY_BOUND, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    with pytest.raises(ValueError, match="past the proven primality bound"):
        is_prime(PRIMALITY_BOUND)
    assert not is_prime(3 * PRIMALITY_BOUND)  # a small factor decides at any size


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
