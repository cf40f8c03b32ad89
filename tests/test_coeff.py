import random

import pytest

from wittram.coeff import (
    DEFINING_POLYS,
    CoeffRing,
    _Element,
    finite_field,
    lift,
    lift_ring,
    pth_root,
    reduce_mod_p,
)
from wittram.errors import ConsistencyFailure
from wittram.series import TruncatedLaurentSeries, compose

from randoms import random_series, random_unit


def test_char_two_addition():
    F2 = finite_field(2)
    assert F2.one() + F2.one() == F2.zero()


def test_f4_generator_square():
    # F_4 = F_2[x]/(x^2+x+1): x*x = x+1
    F4 = finite_field(2, 2)
    g = F4.gen()
    assert g * g == g + F4.one()
    assert g * g == F4.from_coords((1, 1))


def test_f3_inverse_of_two():
    F3 = finite_field(3)
    two = F3.from_int(2)
    assert two.inv() == two
    assert F3.one() / two == two


def test_field_arith_dispatch():
    F5 = finite_field(5)
    a, b = F5.from_int(3), F5.from_int(4)
    assert a + b == F5.from_int(2)
    assert a - b == F5.from_int(4)
    assert a * b == F5.from_int(2)
    assert a / b == a * b.inv()
    assert a**3 == F5.from_int(2)


def test_division_by_zero_raises():
    F3 = finite_field(3)
    with pytest.raises(ZeroDivisionError):
        F3.one() / F3.zero()
    with pytest.raises(ZeroDivisionError):
        F3.zero().inv()


def test_mismatched_fields_raise():
    with pytest.raises(ValueError):
        finite_field(2).one() + finite_field(3).one()
    with pytest.raises(ValueError):
        finite_field(2, 1).one() * finite_field(2, 2).one()


def test_pth_root_basics():
    F2 = finite_field(2)
    assert pth_root(F2.one()) == F2.one()
    # prime fields: Frobenius is the identity
    for p in (2, 3, 5, 7):
        Fp = finite_field(p)
        for n in range(p):
            assert pth_root(Fp.from_int(n)) == Fp.from_int(n)


def test_pth_root_f9_generator():
    F9 = finite_field(3, 2)
    g = F9.gen()
    r = pth_root(g)
    assert r == g**3
    assert r**3 == g


def test_pth_root_inverts_frobenius():
    rng = random.Random(11)
    for (p, f) in DEFINING_POLYS:
        F = finite_field(p, f)
        for _ in range(25):
            a = F.random(rng)
            assert pth_root(a**p) == a
            assert pth_root(a) ** p == a


def test_frobenius_additive():
    rng = random.Random(7)
    for (p, f) in DEFINING_POLYS:
        F = finite_field(p, f)
        for _ in range(25):
            a, b = F.random(rng), F.random(rng)
            assert (a + b) ** p == a**p + b**p


def test_field_axioms_randomized():
    rng = random.Random(3)
    for (p, f) in DEFINING_POLYS:
        F = finite_field(p, f)
        for _ in range(20):
            a, b, c = F.random(rng), F.random(rng), F.random(rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inv() == F.one()
                assert (a.inv()).inv() == a


def test_multiplicative_order_divides_q_minus_one():
    rng = random.Random(41)
    for (p, f) in DEFINING_POLYS:
        F = finite_field(p, f)
        a = F.gen() if f >= 2 else random_unit(F, rng)
        assert a ** (p**f - 1) == F.one()


def test_lift_and_reduce_roundtrip():
    F2 = finite_field(2)
    x = lift(F2.one(), 3)
    assert x.ring.modulus == 8
    assert x.coords == (1,)
    assert reduce_mod_p(x) == F2.one()

    F3 = finite_field(3)
    y = lift(F3.from_int(2), 2)
    assert y.coords == (2,) and y.ring.modulus == 9
    assert reduce_mod_p(y) == F3.from_int(2)

    Z9 = lift_ring(3, 2)
    assert reduce_mod_p(Z9.from_int(3)) == F3.zero()


def test_lift_roundtrip_all_rings():
    rng = random.Random(19)
    for (p, f) in DEFINING_POLYS:
        F = finite_field(p, f)
        for m in (2, 4):
            for _ in range(10):
                a = F.random(rng)
                assert reduce_mod_p(lift(a, m)) == a


def test_reduce_is_ring_hom():
    rng = random.Random(23)
    for (p, f) in ((2, 3), (3, 2), (5, 1), (7, 2)):
        R = lift_ring(p, 4, f)
        for _ in range(20):
            a, b = R.random(rng), R.random(rng)
            assert reduce_mod_p(a + b) == reduce_mod_p(a) + reduce_mod_p(b)
            assert reduce_mod_p(a * b) == reduce_mod_p(a) * reduce_mod_p(b)


def test_lift_ring_axioms_and_units():
    rng = random.Random(29)
    for (p, m, f) in ((2, 5, 2), (3, 4, 1), (5, 3, 2), (7, 2, 1)):
        R = lift_ring(p, m, f)
        for _ in range(15):
            a, b, c = R.random(rng), R.random(rng), R.random(rng)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            u = random_unit(R, rng)
            assert u * u.inv() == R.one()
        # p is nilpotent of exact order m
        pe = R.from_int(p)
        assert pe**m == R.zero()
        assert pe ** (m - 1) != R.zero()


def test_hensel_inverse_check_raises(monkeypatch):
    R = lift_ring(3, 4)
    assert R.cmul((2,), R.cinv((2,))) == (1,)
    # a wrong inverse mod p cannot be lifted into an inverse mod 3^4
    monkeypatch.setattr(CoeffRing, "_cpow", lambda self, a, e: (1,))
    with pytest.raises(ConsistencyFailure, match="Hensel"):
        R.cinv((2,))


def test_pth_root_check_raises(monkeypatch):
    F8 = finite_field(2, 3)
    g = F8.gen()
    assert pth_root(g) ** 2 == g
    # the root is g^(2^2); a power map that is off at that exponent only
    power = _Element.__pow__
    monkeypatch.setattr(_Element, "__pow__", lambda self, e: power(self, e + (e == 4)))
    with pytest.raises(ConsistencyFailure, match="p-th root"):
        pth_root(g)


@pytest.mark.parametrize("p, f", sorted(DEFINING_POLYS))
def test_level_one_lift_ring_is_the_field(p, f):
    F, R = finite_field(p, f), lift_ring(p, 1, f)
    assert R == F and hash(R) == hash(F)
    rng = random.Random(10 * p + f)
    for _ in range(5):
        a = F.random(rng)
        assert lift(a, 1) == a
    # a series over R powers and composes as the same series over F
    x, g = random_series(F, -1, 6, rng), random_series(F, 1, 6, rng)

    def over(ring, s):
        return TruncatedLaurentSeries(ring, s.v, s.coeffs, s.prec)

    for op in (lambda x, g: x.pth_power(), lambda x, g: x**p, compose):
        want, got = op(x, g), op(over(R, x), over(R, g))
        assert got.ring == want.ring
        assert (got.v, got.prec, got.coeffs.tolist()) == (want.v, want.prec, want.coeffs.tolist())
