import pytest

from dioptuples.padic import ResidueClass, SquareStatus, r_shape, square_status, vp

SQ = SquareStatus.SQUARE
NON = SquareStatus.NONSQUARE
UND = SquareStatus.UNDETERMINED


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(45, 3) == 2
    assert vp(7, 5) == 0
    with pytest.raises(ValueError):
        vp(0, 3)


def test_square_status_examples():
    assert square_status(ResidueClass(2, 5, 17)) == SQ  # unit = 1 mod 8
    assert square_status(ResidueClass(2, 3, 4)) == UND  # unit of 4(1+2k) seen only mod 2
    assert square_status(ResidueClass(5, 3, 10)) == NON  # odd valuation for every lift
    assert square_status(ResidueClass(5, 1, 4)) == SQ  # unit square mod 5, Hensel-liftable
    assert square_status(ResidueClass(3, 4, 0)) == UND  # zero class carries no unit info


def lift_is_square(value, p, M):
    return any((x * x) % p**M == value for x in range(p**M))


@pytest.mark.parametrize("p,N", [(2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3)])
def test_status_soundness_by_lifting(p, N):
    # SQUARE: every lift two levels up is a square; NONSQUARE: no lift is.
    M = N + 2
    for value in range(p**N):
        status = square_status(ResidueClass(p, N, value))
        lifts = [value + t * p**N for t in range(p**M // p**N)]
        if status == SQ:
            assert all(lift_is_square(w, p, M) for w in lifts), (p, N, value)
        elif status == NON:
            assert not any(lift_is_square(w, p, M) for w in lifts), (p, N, value)
        else:
            solvable = [lift_is_square(w, p, M) for w in lifts]
            assert any(solvable) and not all(solvable), (p, N, value)


@pytest.mark.parametrize("p,N", [(2, 5), (3, 4), (5, 3)])
def test_status_monotone_under_refinement(p, N):
    for value in range(p**N):
        coarse = square_status(ResidueClass(p, N, value))
        for t in range(p):
            fine = square_status(ResidueClass(p, N + 1, value + t * p**N))
            if coarse in (SQ, NON):
                assert fine == coarse, (p, N, value, t)


@pytest.mark.parametrize("p,N", [(3, 4), (5, 3), (7, 3), (2, 6), (2, 8)])
def test_undetermined_mass_bound(p, N):
    count = sum(
        1 for v in range(p**N) if square_status(ResidueClass(p, N, v)) == UND
    )
    from fractions import Fraction

    mass = Fraction(count, p**N)
    bound = Fraction(2, p ** (N - 3)) if p == 2 else Fraction(2, p ** (N - 2))
    assert mass <= bound


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(4, 2, 1)
    with pytest.raises(ValueError):
        ResidueClass(3, 2, 9)
    with pytest.raises(ValueError):
        ResidueClass(3, 0, 0)


def test_refine():
    # a class mod 3^3 refines c when its value reduces to c's value mod 3^2
    c = ResidueClass(3, 2, 4)
    fine = ResidueClass(3, 3, 13)
    assert fine.value % c.p**c.N == c.value
    assert 14 % c.p**c.N != c.value


def test_r_shape_examples():
    s = r_shape(9, 3)
    assert (s.alpha, s.s, s.chi_s) == (2, 1, 1)
    s = r_shape(2, 5)
    assert (s.alpha, s.chi_r) == (0, -1)
    s = r_shape(18, 3)
    assert (s.alpha, s.s, s.chi_s) == (2, 2, -1)
    with pytest.raises(ValueError):
        r_shape(0, 3)


def test_r_shape_consistency():
    for p in (3, 5, 7):
        for r in range(1, 200):
            s = r_shape(r, p)
            assert s.r == p**s.alpha * s.s
            assert s.s % p != 0
            assert (s.chi_r == 0) == (s.alpha > 0)
