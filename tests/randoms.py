"""Seeded random ring elements and series for the tests."""

import numpy as np

from wittram.series import TruncatedLaurentSeries


def random_unit(ring, rng):
    """A random unit of a finite field or Galois ring, by rejection."""
    while True:
        a = ring.random(rng)
        if a.is_unit():
            return a


def random_series(ring, v, width, rng, prec=None, unit_lead=True):
    """width random coefficients from s**v on, with a unit leading one unless
    unit_lead is false; precision v + width unless prec is given."""
    arr = np.array(
        [[rng.randrange(ring.modulus) for _ in range(ring.f)] for _ in range(width)],
        dtype=np.int64,
    )
    if unit_lead:
        while not any(c % ring.p for c in arr[0]):
            arr[0] = [rng.randrange(ring.modulus) for _ in range(ring.f)]
    return TruncatedLaurentSeries(ring, v, arr, prec if prec is not None else v + width)


def random_unit_series(field, window, rng):
    """A unit of the series ring: a random unit leading term at exponent 0,
    then window - 1 random coefficients, precision window."""
    terms = [(0, random_unit(field, rng))]
    terms += [(k, field.random(rng)) for k in range(1, window)]
    return TruncatedLaurentSeries.from_terms(field, terms, prec=window)


def perturbed_lift(s, lift, rng):
    """A different valid lift of the same series: adds random multiples of
    p to every stored digit."""
    p = lift.p
    noise = np.array(
        [
            [p * rng.randrange(lift.modulus // p) for _ in range(lift.f)]
            for _ in range(len(s.coeffs))
        ],
        dtype=np.int64,
    ).reshape(len(s.coeffs), lift.f)
    return TruncatedLaurentSeries(lift, s.v, s.coeffs + noise, s.prec)
