"""The array and bigint kernels against their references: p_eval_batch_mod,
the graded bilinear block kernel, against p_eval over the integers at every
point, reduced afterwards; p_pow_sum_sliced, the sliced Kronecker product,
against the term-by-term p_mul and p_pow; exponent_rows, row_blocks and
the readers on them against the key-by-key oracles.unpack."""

import math
import random

import numpy as np
import pytest

from wittram import intpoly as ip
from wittram.coeff import finite_field
from wittram.errors import ConsistencyFailure
from wittram.wbar import GradedPolynomial
from wittram.witt import build_table

from oracles import degree_in, unpack

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


def _block(k):
    # a full k x k block, every coefficient -1: at residues m - 1 its matmul
    # sums k products of (m - 1)**2, the largest sum a modulus m admits
    return {ip.var(2 * i) + ip.var(2 * j + 1): -1 for i in range(k) for j in range(k)}


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_float_and_int_matmul_at_their_boundary(k):
    # the largest m with k*(m-1)**2 < 2**53 takes float64, the next int64;
    # both are exact with every residue at its maximum
    top = math.isqrt((2**53 - 1) // k) + 1
    for mod, dtype in ((top, np.float64), (top + 1, np.int64)):
        a = _block(k)
        assert ip._batch_plan(a, 2 * k, mod).dtype == dtype
        vals = np.full((2 * k, 3), mod - 1, dtype=np.int64)
        want = k * k * -((mod - 1) ** 2) % mod
        assert ip.p_eval_batch_mod(a, vals, mod).tolist() == [want] * 3
        assert _reference(a, vals, mod) == [want] * 3


@pytest.mark.parametrize("r, cols", [(200, 161), (300, 128)])
def test_batch_widths_around_the_tile(r, cols):
    # r terms x0^i y0^(i % 3): the power rows are x0's r exponents and y0's
    # 3, so a tile is 2**15 // (r + 3) points, never below 128; B one short
    # of, at, one past and past twice the tile
    a = {ip.mono(i, i % 3): i % 7 + 1 for i in range(r)}
    assert ip._batch_plan(a, 2, 7**5).cols == cols
    rng = np.random.default_rng(cols)
    for B in (cols - 1, cols, cols + 1, 2 * cols + 1):
        vals = rng.integers(0, 7**5, size=(2, B), dtype=np.int64)
        exact = [ip.p_eval(a, dict(enumerate(map(int, col))), 1) for col in vals.T]
        for mod in (7**5, EDGE):
            want = [x % mod for x in exact]
            assert ip.p_eval_batch_mod(a, vals, mod).tolist() == want, (B, mod)


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
    # a*b as the sum of powers ((a + b)**2 - a**2 - b**2)/2, and a sum of
    # cubes of distinct operands, whose powers past the square multiply by
    # the base slices in _slice_mul
    for name, a, b in _operands():
        squares = [(1, ip.p_add(a, b), 2), (-1, a, 2), (-1, b, 2)]
        assert ip.p_pow_sum_sliced(squares, plane, 2) == ip.p_mul(a, b), name
        cubes = ip.p_add(ip.p_pow(a, 3), ip.p_pow(b, 3), -2)
        assert ip.p_pow_sum_sliced([(1, a, 3), (-2, b, 3)], plane) == cubes, name


@pytest.mark.parametrize("plane", PLANES)
def test_sliced_power_matches_p_pow(plane):
    rng = random.Random(plane[2])
    cases = [{}, {0: -(2**70) - 5}, {ip.var(0): 1, ip.var(1): 1}]
    cases += [_sparse(rng, nv, 5, 5) for nv in (1, 3, 4)]
    cases += [_sparse(rng, 3, 3, 2**70)]
    for a in cases:
        for e in range(6):
            assert ip.p_pow_sum_sliced([(1, a, e)], plane) == ip.p_pow(a, e), (a, e)


def _swapped(a, nv):
    # X_i <-> Y_i: variables 2i and 2i + 1 trade exponents
    out = {}
    for k, c in a.items():
        e = unpack(k, nv)
        out[ip.mono(*(e[v ^ 1] for v in range(nv)))] = c
    return out


@pytest.mark.parametrize("plane", [(0, 1, 1), (1, 0, 1), (2, 3, 1)])
def test_swap_fixed_powers_match_p_pow(plane):
    # on the plane of a pair X_i, Y_i with lam = 1 the powers of a polynomial
    # that the swap fixes are formed half and mirrored; the rests of these
    # slices have X- minus Y-exponents of both signs and zero
    rng = random.Random(sum(plane))
    for nv, cmax in ((4, 5), (4, 2**70), (6, 9)):
        a = _sparse(rng, nv, 6, cmax)
        a = ip.p_add(a, _swapped(a, nv))
        for e in range(1, 6):
            assert ip.p_pow_sum_sliced([(1, a, e)], plane) == ip.p_pow(a, e), (nv, cmax, e)


@pytest.mark.parametrize("d", [7, 2**31 - 1])
@pytest.mark.parametrize("cmax", [9, 2**70])
def test_sliced_power_sums_divide_exactly(cmax, d):
    # slots of one 64-bit limb and of several, by a small divisor and the
    # largest admitted one
    rng = random.Random(cmax)
    a, b = _sparse(rng, 4, 8, cmax), _sparse(rng, 4, 8, cmax)
    terms = [(3, ip.p_add(a, _swapped(a, 4)), 3), (-2, b, 2), (5, a, 0), (1, {}, 2)]
    want = {}
    for c, x, e in terms:
        want = ip.p_add(want, ip.p_pow(x, e), c)
    scaled = [(d * c, x, e) for c, x, e in terms]
    for plane in PLANES:
        assert ip.p_pow_sum_sliced(scaled, plane, d) == want, plane
        with pytest.raises(ArithmeticError):
            ip.p_pow_sum_sliced(scaled + [(1, {ip.var(3): 1}, 1)], plane, d)
    assert ip.p_pow_sum_sliced([], (0, 1, 1)) == {}


def test_subst_agrees_with_evaluation():
    # a with polynomials put in for variables 0, 2 and 3 (3 by zero), at a
    # point, is a at their values there
    rng = random.Random(11)
    a = _sparse(rng, 4, 30, 9)
    subs = {0: _sparse(rng, 4, 4, 5), 2: _sparse(rng, 3, 5, 5), 3: {}}
    got = ip.p_subst(a, subs)
    for _ in range(5):
        point = {v: rng.randrange(-9, 10) for v in range(4)}
        at = {v: ip.p_eval(subs[v], point, 1) if v in subs else point[v] for v in range(4)}
        assert ip.p_eval(got, point, 1) == ip.p_eval(a, at, 1)
    # cancelling terms leave no zero coefficient behind
    assert ip.p_subst({ip.var(0): 1, ip.var(1): -1}, {0: {ip.var(1): 1}}) == {}


def test_subst_of_a_stored_zero_is_the_zero_polynomial():
    # a substitution value that stores a zero coefficient, as a translation
    # by a zero entry does, gives what the empty polynomial gives
    rng = random.Random(12)
    a = _sparse(rng, 3, 20, 9)
    for v in (0, 2):
        got = ip.p_subst(a, {v: {ip.var(1, 2): 0}, 1: {ip.var(0): 3}})
        assert got == ip.p_subst(a, {v: {}, 1: {ip.var(0): 3}}) != {}
    F4 = finite_field(2, 2)
    g = F4.gen()
    b = {k: F4.from_int(c % 2) + g for k, c in a.items()}
    zero = {v: {ip.var(1): F4.zero()} for v in (0, 2)}
    assert ip.p_subst(b, zero) == ip.p_subst(b, {0: {}, 2: {}}) != {}


@pytest.mark.parametrize("nvars", [1, 2, 3, 5, 6])
def test_exponent_rows_match_unpack(nvars):
    # against the key-by-key reader, with MASK in the top variable and the
    # key 0; nvars odd leaves half of the last pair's bytes unread
    rng = random.Random(nvars)
    keys = list(_sparse(rng, nvars, 30, 5)) + [0, ip.var(nvars - 1, ip.MASK)]
    rows = ip.exponent_rows(keys, nvars)
    assert rows.dtype == np.int64 and rows.shape == (len(keys), nvars)
    assert [tuple(r) for r in rows.tolist()] == [unpack(k, nvars) for k in keys]
    assert ip.exponent_rows([], nvars).shape == (0, nvars)
    # a key in variable nvars, inside or past the bytes of the last pair
    for past in (ip.var(nvars), ip.var(nvars + 1, ip.MASK)):
        with pytest.raises(ValueError, match="beyond"):
            ip.exponent_rows(keys + [past], nvars)


def test_row_blocks_across_a_block_boundary():
    # _ROW_KEYS + 1 terms put the last key alone in a second block: the
    # rows, the degrees, a substitution and the graded ring's weight check,
    # terms and dehomogenization against their key-by-key references
    a = {ip.mono(i % 97, i // 97, 0, 1 + i % 2): i % 5 + 1 for i in range(ip._ROW_KEYS)}
    a[ip.var(0) + ip.var(2, ip.MASK)] = 7
    blocks = list(ip.row_blocks(a))
    assert [len(keys) for keys, _ in blocks] == [ip._ROW_KEYS, 1]
    assert [k for keys, _ in blocks for k in keys] == list(a)
    rows = np.concatenate([r for _, r in blocks])
    assert [tuple(r) for r in rows.tolist()] == [unpack(k, 4) for k in a]
    top = (ip._ROW_KEYS - 1) // 97
    assert ip.degrees(a) == [degree_in(a, v) for v in range(4)] == [96, top, ip.MASK, 2]
    assert ip.degrees({}) == [] and ip.degrees({0: 3}) == []
    # only the last key's X_2**MASK makes the degree bound of p_subst pass
    # MASK, so that every product takes p_mul's check
    with pytest.raises(ValueError, match="would pass"):
        ip.p_subst(a, {0: {ip.var(2): 1}})
    subs = {0: {ip.var(1): 3}, 3: {ip.var(0, 2): -1, ip.var(1): 1}}
    got = ip.p_subst(a, subs)
    rng = random.Random(13)
    for _ in range(2):
        point = {v: rng.randrange(-3, 4) for v in range(4)}
        at = {v: ip.p_eval(subs[v], point, 1) if v in subs else point[v] for v in range(4)}
        assert ip.p_eval(got, point, 1) == ip.p_eval(a, at, 1)
    # T, Y_0, Y_1 of weight 1, 1, 2: T tops every Y-monomial of weight at
    # most 260 up to 260, in 17,161 terms
    F2 = finite_field(2)
    terms = {(260 - i - 2 * j, i, j): F2.one() for j in range(131) for i in range(261 - 2 * j)}
    graded = GradedPolynomial(F2, 2, 260, terms)
    assert len(graded.poly) > ip._ROW_KEYS
    assert graded.terms == {unpack(k, 3): c for k, c in graded.poly.items()} == terms
    assert graded.set_t_one() == {ip.mono(0, i, 0, j): 1 for _t, i, j in terms}
    off = dict(graded.poly)
    last = next(reversed(off))
    off[last + ip.var(0)] = off.pop(last)
    with pytest.raises(ConsistencyFailure, match="has weight 261"):
        GradedPolynomial._of(F2, 2, 260, off)


def test_batch_refuses_a_key_past_its_rows():
    # the block plan's variable guard is exponent_rows', on the odd parts
    vals = np.ones((2, 3), dtype=np.int64)
    for key in (ip.var(2), ip.var(3, 5) + ip.var(0)):
        with pytest.raises(ValueError, match="monomial uses a variable beyond number 1"):
            ip.p_eval_batch_mod({key: 1, ip.var(1): 2}, vals, 27)


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
        packed = sum(d << (B * j) for j, d in enumerate(digits))
        assert ip._ints(ip._unpack_all([packed], B)[0]) == digits
    # the kernel's own slots leave a factor 2 of room: |a|_1*|b|_1 = 254 -> B = 16
    assert ip._slot_bits(254) == 16 and ip._slot_bits(2**62 - 1) == 64


def test_exponents_up_to_mask():
    x, y = ip.var(0), ip.var(1)
    top = {ip.var(0, ip.MASK): 1}
    assert ip.p_mul(top, {y: 2}) == {ip.var(0, ip.MASK) + y: 2}
    assert ip.p_pow({x: 1}, ip.MASK) == top
    # MASK = 1025*1023
    assert ip.p_pow_sum_sliced([(1, {ip.var(0, 1025): 1}, 1023)], (0, 1, 1)) == top
    terms = [(1, {ip.var(0, 1025) + y: 1}, 1023), (2, top, 1)]
    want = {ip.var(0, ip.MASK) + ip.var(1, 1023): 1, ip.var(0, ip.MASK): 2}
    assert ip.p_pow_sum_sliced(terms, (0, 1, 1)) == want
    # the OR of the keys over-estimates a degree; the exact degrees then pass
    a = {ip.var(0, 2**18): 1, ip.var(0, 2**18 - 1): 1}
    b = {ip.var(0, ip.MASK - 2**18): 1}
    assert ip.p_mul(a, b) == {ip.var(0, ip.MASK): 1, ip.var(0, ip.MASK - 1): 1}
