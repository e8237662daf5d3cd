from dataclasses import fields
from fractions import Fraction

import pytest

from dioptuples.arith import RShape, legendre, r_shape, vp
from dioptuples.zp_census import status_table

SQ, NON, UND = 1, -1, 0  # the status_table codes


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(45, 3) == 2
    assert vp(7, 5) == 0
    with pytest.raises(ValueError):
        vp(0, 3)


def test_square_status_examples():
    assert status_table(2, 5)[17] == SQ  # unit = 1 mod 8
    assert status_table(2, 3)[4] == UND  # unit of 4(1+2k) seen only mod 2
    assert status_table(5, 3)[10] == NON  # odd valuation for every lift
    assert status_table(5, 1)[4] == SQ  # unit square mod 5, Hensel-liftable
    assert status_table(3, 4)[0] == UND  # zero class carries no unit info


@pytest.mark.parametrize("p,N", [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_status_soundness_by_lifting(p, N):
    # SQUARE: every lift two levels up is a square; NONSQUARE: no lift is;
    # UNDETERMINED: some lifts are squares and some are not.
    M = N + 2
    squares = {x * x % p**M for x in range(p**M)}
    table = status_table(p, N)
    for value in range(p**N):
        solvable = [value + t * p**N in squares for t in range(p**M // p**N)]
        if table[value] == SQ:
            assert all(solvable), (p, N, value)
        elif table[value] == NON:
            assert not any(solvable), (p, N, value)
        else:
            assert table[value] == UND and any(solvable) and not all(solvable), (p, N, value)


@pytest.mark.parametrize("p,N", [(2, 5), (3, 4), (5, 3)])
def test_status_monotone_under_refinement(p, N):
    coarse, fine = status_table(p, N), status_table(p, N + 1)
    for value in range(p**N):
        for t in range(p):
            if coarse[value] in (SQ, NON):
                assert fine[value + t * p**N] == coarse[value], (p, N, value, t)


@pytest.mark.parametrize("p,N", [(3, 4), (5, 3), (7, 3), (2, 6), (2, 8)])
def test_undetermined_mass_bound(p, N):
    mass = Fraction(int((status_table(p, N) == UND).sum()), p**N)
    bound = Fraction(2, p ** (N - 3)) if p == 2 else Fraction(2, p ** (N - 2))
    assert mass <= bound


def test_r_shape_examples():
    assert r_shape(9, 3) == RShape(p=3, alpha=2, chi_s=1)
    s = r_shape(2, 5)
    assert (s.alpha, s.chi_s) == (0, -1) == (0, legendre(2, 5))
    assert r_shape(18, 3) == RShape(p=3, alpha=2, chi_s=-1)
    assert [field.name for field in fields(RShape)] == ["p", "alpha", "chi_s"]
    with pytest.raises(ValueError):
        r_shape(0, 3)
    with pytest.raises(ValueError, match="expected an odd prime, got 2"):
        r_shape(1, 2)


def test_r_shape_consistency():
    for p in (3, 5, 7):
        for r in range(1, 200):
            s = r_shape(r, p)
            assert s.p == p
            assert r % p**s.alpha == 0 and r // p**s.alpha % p != 0
            # chi(r) is chi_s for a unit r and 0 otherwise
            assert legendre(r, p) == (s.chi_s if s.alpha == 0 else 0)
