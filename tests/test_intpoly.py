"""The array and bigint kernels against their references: p_eval_batch_mod,
the graded bilinear block kernel, against p_eval over the integers at every
point, reduced afterwards; p_mul_sliced and p_pow_sliced, the sliced
Kronecker product, against the term-by-term p_mul and p_pow."""

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


# ---------- the sliced Kronecker product against the term-by-term product ----------

# (u, v, lam): the planes the Witt tables use, (X_0, Y_0, 1) and (X_0, X_1, p)
PLANES = [(0, 1, 1), (0, 2, 2), (0, 2, 3), (0, 2, 5)]


def _sparse(rng, nv, terms, cmax):
    """Up to `terms` terms in variables 0..nv-1 with exponents 0..4 and
    nonzero coefficients in (-cmax, cmax)."""
    a = {}
    for _ in range(terms):
        a[ip.mono(*(rng.randrange(5) for _ in range(nv)))] = rng.randrange(-cmax, cmax) or 1
    return a


def _operands():
    rng = random.Random(20261019)
    yield "empty", {}, _sparse(rng, 3, 10, 10)
    yield "constant", {0: -(2**70) - 5}, _sparse(rng, 3, 10, 10)
    yield "constants", {0: 3}, {0: -7}
    for nv in (1, 2, 3, 4, 6):
        yield f"small-{nv}", _sparse(rng, nv, 20, 10), _sparse(rng, nv, 20, 10)
        yield f"huge-{nv}", _sparse(rng, nv, 15, 2**70), _sparse(rng, nv, 10, 2**70)
        yield f"lopsided-{nv}", _sparse(rng, nv, 1, 10), _sparse(rng, nv, 40, 3)


@pytest.mark.parametrize("plane", PLANES)
def test_sliced_product_matches_p_mul(plane):
    for name, a, b in _operands():
        want = ip.p_mul(a, b)
        assert ip.p_mul_sliced(a, b, plane) == want, name
        assert ip.p_mul_sliced(b, a, plane) == want, name


@pytest.mark.parametrize("plane", PLANES)
def test_sliced_power_matches_p_pow(plane):
    rng = random.Random(plane[2])
    cases = [{}, {0: -(2**70) - 5}, {ip.var(0): 1, ip.var(1): 1}]
    cases += [_sparse(rng, nv, 5, 5) for nv in (1, 3, 4)]
    cases += [_sparse(rng, 3, 3, 2**70)]
    for a in cases:
        for e in range(6):
            assert ip.p_pow_sliced(a, e, plane) == ip.p_pow(a, e), (a, e)


def _sliced_mul_at(a, b, plane, B):
    # the kernel's product at a chosen number of bits per slot
    return ip._unslice(ip._slice_mul(ip._slices(a, plane, B), ip._slices(b, plane, B)), plane, B)


def test_slot_at_the_balanced_digit_edge():
    # at B = 8 a slot holds -127..127; (X0 + Y0)(63 X0 + 64 Y0) puts 127 at
    # X0*Y0, and 128 carries into the next slot
    plane, x, y = (0, 1, 1), ip.var(0), ip.var(1)
    a = {x: 1, y: 1}
    for sign in (1, -1):
        b = {x: 63 * sign, y: 64 * sign}
        want = ip.p_mul(a, b)
        assert want[x + y] == sign * (2**7 - 1)
        assert _sliced_mul_at(a, b, plane, 8) == want
    past = {x: 64, y: 64}
    assert _sliced_mul_at(a, past, plane, 8) != ip.p_mul(a, past)
    # neighbouring slots at opposite edges, for digits narrower and wider than 64 bits
    for B in (8, 64, 128):
        edge = 2 ** (B - 1) - 1
        digits = [edge, -edge, -edge, edge, 0, edge, 1]
        assert ip._unpack(sum(d << (B * j) for j, d in enumerate(digits)), B) == digits
    # the kernel's own slots leave a factor 2 of room: |a|_1*|b|_1 = 254 -> B = 16
    assert ip._slot_bits(254) == 16 and ip._slot_bits(2**62 - 1) == 64


def test_exponents_up_to_mask():
    x, y = ip.var(0), ip.var(1)
    top = {ip.var(0, ip.MASK): 1}
    assert ip.p_mul(top, {y: 2}) == {ip.var(0, ip.MASK) + y: 2}
    assert ip.p_pow({x: 1}, ip.MASK) == top
    assert ip.p_pow_sliced({ip.var(0, 1025): 1}, 1023, (0, 1, 1)) == top  # MASK = 1025*1023
    assert ip.p_mul_sliced(top, {y: 2}, (0, 1, 1)) == {ip.var(0, ip.MASK) + y: 2}
    # the OR of the keys over-estimates a degree; the exact degrees then pass
    a = {ip.var(0, 2**18): 1, ip.var(0, 2**18 - 1): 1}
    b = {ip.var(0, ip.MASK - 2**18): 1}
    assert ip.p_mul(a, b) == {ip.var(0, ip.MASK): 1, ip.var(0, ip.MASK - 1): 1}
