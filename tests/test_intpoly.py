"""p_eval_batch_mod, the graded bilinear block kernel, against p_eval over
the integers at every point, reduced afterwards."""

import random

import numpy as np
import pytest

from wittram import intpoly as ip
from wittram.witt import build_table

EDGE = 3037000499  # the largest modulus the int64 guard admits


def _reference(a, vals, mod):
    # the points are the columns of vals; p_eval maps variable -> value
    return [ip.p_eval(a, dict(enumerate(map(int, col))), 1) % mod for col in np.asarray(vals).T]


@pytest.mark.parametrize("p, n", [(3, 4), (2, 6), (5, 4)])
def test_witt_tables_match_reference(p, n):
    table = build_table(p, n)
    rng = np.random.default_rng([p, n])
    for mod in (p ** (n + 2), EDGE):
        vals = rng.integers(0, mod, size=(2 * n, 4), dtype=np.int64)
        for name in "SPI":
            for i in range(n):
                a = getattr(table, name)[i]
                got = ip.p_eval_batch_mod(a, vals, mod).tolist()
                assert got == _reference(a, vals, mod), (name, i, mod)


def _random_poly(rng, nv, terms, parity=None, cmax=10):
    """Up to `terms` terms in variables 0..nv-1 with exponents 0..3 (so that
    X and Y parts repeat and blocks have several terms); parity 0 or 1 keeps
    only the even or only the odd variables."""
    a = {}
    for _ in range(terms):
        exps = [
            0 if parity is not None and v % 2 != parity else rng.randrange(4)
            for v in range(nv)
        ]
        a[ip.mono(*exps)] = rng.randrange(-cmax, cmax)
    return {k: c for k, c in a.items() if c}


def _polys():
    rng = random.Random(20261018)
    yield "empty", 3, {}
    yield "constant", 2, {0: -(2**70) - 5}
    for nv in range(1, 9):
        yield f"mixed-{nv}", nv, _random_poly(rng, nv, 30)
        yield f"even-{nv}", nv, _random_poly(rng, nv, 12, parity=0)
        yield f"odd-{nv}", nv, _random_poly(rng, nv, 12, parity=1)
        yield f"huge-{nv}", nv, _random_poly(rng, nv, 20, cmax=2**70)


@pytest.mark.parametrize("B", [1, 127, 129, 300])
def test_random_polynomials_match_reference(B):
    # B around the column-block width leaves an uneven last block
    rng = np.random.default_rng(B)
    for name, nv, a in _polys():
        for mod in (7**5, 2**31 - 1, EDGE):
            vals = rng.integers(-mod, mod, size=(nv, B), dtype=np.int64)
            got = ip.p_eval_batch_mod(a, vals, mod)
            assert got.shape == (B,) and got.dtype == np.int64
            assert got.tolist() == _reference(a, vals, mod), (name, mod)
