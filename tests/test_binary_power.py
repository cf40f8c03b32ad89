"""Every caller of `coeff.binary_power`, the package's one square-and-multiply
loop, against a repeated product at e in {0, 1, 2, p, p^2 + 1}."""

import functools
import random

import numpy as np
import pytest

from wittram import intpoly as ip
from wittram.coeff import finite_field, lift_ring
from wittram.series import TruncatedLaurentSeries as TLS
from wittram.wbar import GradedPolynomial
from wittram.witt import WittVector, ghost_batch, ghost_eval

PRIMES = (2, 3, 5, 7)


def exponents(p):
    return (0, 1, 2, p, p * p + 1)


def repeated(x, e, one, mul):
    return functools.reduce(mul, [x] * e, one)


@pytest.mark.parametrize("p", PRIMES)
def test_cpow_matches_repeated_product(p):
    rng = random.Random(p)
    for ring in (finite_field(p), finite_field(p, 2), lift_ring(p, 3, 2)):
        a = ring.random(rng).coords
        for e in exponents(p):
            assert ring._cpow(a, e) == repeated(a, e, ring.one().coords, ring.cmul), (ring, e)


@pytest.mark.parametrize("p", PRIMES)
def test_p_pow_matches_repeated_product(p):
    a = {ip.var(0): 2, ip.var(1): -p, 0: 1}
    for e in exponents(p):
        assert ip.p_pow(a, e) == repeated(a, e, {0: 1}, ip.p_mul), e


@pytest.mark.parametrize("p", PRIMES)
def test_graded_power_matches_repeated_product(p):
    F = finite_field(p)
    x = GradedPolynomial.t_var(F, 2).scale(F.from_int(2)) + GradedPolynomial.y_var(F, 2, 0)
    one = GradedPolynomial(F, 2, 0, {(0, 0, 0): F.one()})
    for e in exponents(p):
        assert x**e == repeated(x, e, one, GradedPolynomial.__mul__), e


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("lead", [1, "p"])
def test_lift_ring_series_power_matches_repeated_product(p, lead):
    # a lead p is a zero divisor of Z/p^3: its powers vanish from the
    # products, which gain precision past it, the binary route at least as
    # much as the repeated one; a unit lead gives the same window either way
    R = lift_ring(p, 3)
    x = TLS(R, 1, [p if lead == "p" else lead, 1, 2, 0, p + 1, 3, 1, 1], 9)
    for e in exponents(p):
        got, want = x**e, repeated(x, e, TLS.monomial(R, 0, 1), lambda a, b: a * b)
        assert got.agrees_with(want) and got.prec >= want.prec, e
        if lead == 1:
            assert (got.v, got.prec) == (want.v, want.prec), e
            assert np.array_equal(got.coeffs, want.coeffs), e


@pytest.mark.parametrize("p", PRIMES)
def test_ghost_batch_matches_ghost_eval(p):
    rng = np.random.default_rng(p)
    mod = p**4
    R = lift_ring(p, 4)
    X = rng.integers(0, mod, size=(4, 6), dtype=np.int64)
    for j in range(4):
        got = ghost_batch(X, p, j, mod)
        for col in range(X.shape[1]):
            a = WittVector(R.from_int(int(x)) for x in X[:, col])
            assert ghost_eval(a, j).coords == (int(got[col]),), (j, col)
