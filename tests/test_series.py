import math
import operator
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from wittram import series as series_mod
from wittram.coeff import finite_field, lift_ring
from wittram.errors import ConsistencyFailure, InsufficientPrecision
from wittram.series import (
    INF,
    TruncatedLaurentSeries as TLS,
    _conv,
    _int_conv,
    compose,
    nth_root,
)

from oracles import pth_power_decompose
from randoms import random_series, random_unit

F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F7 = finite_field(7)
F9 = finite_field(3, 2)
F25 = finite_field(5, 2)
F49 = finite_field(7, 2)


def ser(ring, terms, prec=INF):
    return TLS.from_terms(ring, terms, prec)


def test_pole_times_t():
    a = ser(F3, [(-1, 1), (0, 1)])
    t = TLS.monomial(F3, 1)
    prod = a * t
    assert prod.terms() == [(0, F3.one()), (1, F3.one())]
    assert math.isinf(prod.prec)


def test_square_is_frobenius_in_char_two():
    f = ser(F2, [(0, 1), (1, 1)])
    sq = f * f
    assert sq.terms() == [(0, F2.one()), (2, F2.one())]
    assert (f**2).terms() == sq.terms()


def test_char_two_cancellation_pushes_valuation():
    a = ser(F2, [(-3, 1)])
    assert (a + a).is_exact_zero()
    assert (a + a).valuation() == INF

    b = ser(F2, [(-3, 1)], prec=2)
    s = b + b
    assert len(s.coeffs) == 0 and s.prec == 2
    assert not s.is_exact_zero()
    with pytest.raises(InsufficientPrecision):
        s.valuation()


def test_add_mul_precision_propagation():
    a = ser(F3, [(2, 1), (5, 2)], prec=9)
    b = ser(F3, [(-1, 1)], prec=4)
    assert (a + b).prec == 4
    assert (a * b).prec == min(9 + (-1), 4 + 2)
    assert (a * b).valuation() == 1


def test_division_basics():
    one_minus_t = ser(F3, [(0, 1), (1, -1)], prec=8)
    inv = TLS.monomial(F3, 0, 1) / one_minus_t
    # geometric series
    for e in range(8):
        assert inv.coeff(e) == F3.one()
    assert (one_minus_t * inv).coeff(0) == F3.one()


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        TLS.monomial(F2, 0, 1) / TLS.zero(F2)
    with pytest.raises(InsufficientPrecision):
        TLS.monomial(F2, 0, 1) / TLS.zero_to(F2, 5)
    with pytest.raises(ValueError):
        # exact/exact non-monomial division has no finite answer
        ser(F2, [(0, 1)]) / ser(F2, [(0, 1), (1, 1)])


def test_compose_pole_into_cubic():
    f = TLS.monomial(F2, -2)
    g = ser(F2, [(3, 1), (4, 1)], prec=12)
    h = compose(f, g)
    assert h.valuation() == -6
    # t^{-6}(1+t)^{-2} = t^{-6} + t^{-4} + t^{-2} + 1 + t^2 + ...
    want = {-6: 1, -5: 0, -4: 1, -3: 0, -2: 1, -1: 0, 0: 1, 1: 0, 2: 1}
    for e, c in want.items():
        assert h.coeff(e) == F2.from_int(c)


def test_compose_identity_and_shift():
    g = ser(F7, [(1, 3), (2, 5), (9, 1)], prec=20)
    s = TLS.monomial(F7, 1)
    assert compose(s, g).agrees_with(g)
    f = ser(F7, [(0, 1), (1, 1)])
    t = TLS.monomial(F7, 1)
    assert compose(f, t).terms() == [(0, F7.one()), (1, F7.one())]


def test_compose_requires_positive_valuation():
    f = ser(F2, [(0, 1), (1, 1)])
    with pytest.raises(ValueError):
        compose(f, TLS.monomial(F2, 0, 1))


def test_residue_and_derivative():
    a = ser(F9, [(-1, F9.gen()), (0, 2)])
    assert a.coeff(-1) == F9.gen()
    for p, F in ((2, F2), (3, F3), (7, F7)):
        tp = TLS.monomial(F, p)
        assert tp.derivative().is_exact_zero()
    # residue outside the window is loud
    with pytest.raises(InsufficientPrecision):
        TLS.zero_to(F2, -5).coeff(-1)
    assert ser(F2, [(3, 1)], prec=9).coeff(-1) == F2.zero()


def test_residue_dlog_over_z9():
    Z9 = lift_ring(3, 2)
    f = ser(Z9, [(0, 1), (2, -1)], prec=9)
    dlog = f.derivative() / f
    val = (TLS.monomial(Z9, -2) * dlog).coeff(-1)
    assert val == Z9.from_int(7)


def test_windows_are_read_only():
    # the cached inverse and powers stay valid only while no window changes
    arr = np.array([[1], [2], [0]], dtype=np.int64)
    f = TLS(F3, 1, arr, 4, normalize=False)
    with pytest.raises(ValueError, match="read-only"):
        f.coeffs[0, 0] = 2
    assert arr.flags.writeable  # the caller's own array is left alone
    g = TLS(F3, 1, arr, 4) + TLS.monomial(F3, 2)
    with pytest.raises(ValueError, match="read-only"):
        g.coeffs[1:] += 1


def test_nth_root_examples():
    r = nth_root(TLS.monomial(F3, 2), 2)
    assert r.valuation() == 1 and r.coeff(1) == F3.one()

    f = ser(F2, [(3, 1), (4, 1)], prec=13)
    c = nth_root(f, 3)
    assert c.valuation() == 1
    assert (c**3).agrees_with(f)

    g = nth_root(TLS.monomial(F7, 2, 4), 2)
    assert g.coeff(1) == F7.from_int(2)


def test_nth_root_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nth_root(TLS.monomial(F2, 2), 2)  # r not prime to p
    with pytest.raises(ValueError):
        nth_root(TLS.monomial(F3, 1), 2)  # valuation not divisible
    with pytest.raises(InsufficientPrecision):
        nth_root(TLS.zero_to(F3, 4), 2)


def test_pth_power_decompose_examples():
    g, h = pth_power_decompose(ser(F2, [(0, 1), (3, 1)]))
    assert g.terms() == [(0, F2.one())]
    assert h.terms() == [(3, F2.one())]

    g, h = pth_power_decompose(TLS.monomial(F2, 2))
    assert g.terms() == [(1, F2.one())]
    assert h.is_exact_zero()

    g, h = pth_power_decompose(ser(F2, [(-4, 1), (-1, 1)]))
    assert g.terms() == [(-2, F2.one())]
    assert h.terms() == [(-1, F2.one())]


def test_pth_power_decompose_randomized():
    rng = random.Random(5)
    for F in (F2, F3, F4, F9):
        p = F.p
        for _ in range(20):
            f = random_series(F, rng.randrange(-6, 3), 24, rng)
            g, h = pth_power_decompose(f)
            assert (g.pth_power() + h).agrees_with(f)
            for e, _c in h.terms():
                assert e % p != 0


def test_valuation_multiplicative_randomized():
    rng = random.Random(13)
    for F in (F2, F3, F7, F9):
        for _ in range(20):
            f = random_series(F, rng.randrange(-5, 5), 12, rng)
            g = random_series(F, rng.randrange(-5, 5), 12, rng)
            assert (f * g).valuation() == f.valuation() + g.valuation()
            assert f.derivative().coeff(-1) == F.zero()


def test_nth_root_randomized():
    rng = random.Random(17)
    for F, r in ((F2, 3), (F3, 2), (F7, 3), (F9, 4)):
        for _ in range(10):
            f = random_series(F, r * rng.randrange(-2, 3), 20, rng)
            f = f**r
            root = nth_root(f, r)
            assert (root**r).agrees_with(f)


def test_inverse_roundtrip_randomized():
    rng = random.Random(19)
    for R in (F2, F9, lift_ring(3, 3), lift_ring(2, 5, 2)):
        for _ in range(10):
            f = random_series(R, rng.randrange(-4, 4), 16, rng)
            g = f.inv()
            prod = f * g
            assert prod.coeff(0) == R.one()
            assert all(c == R.zero() for e, c in prod.terms() if e != 0)


def _compose_by_horner(f, g):
    """Reference: f(g) by Horner's rule in series arithmetic, cut at the
    precision `compose` promises, g.prec + (v(f) - 1) v(g) and f.prec v(g)."""
    acc = TLS.zero(f.ring)
    for row in f.coeffs[::-1]:
        acc = acc * g + TLS.monomial(f.ring, 0, f.ring.from_coords(tuple(row)))
    if f.v:
        acc = acc * g**f.v
    cap = f.prec * g.v if f.prec != INF else INF
    if g.prec != INF:
        cap = min(cap, g.prec + (f.v - 1) * g.v)
    return acc.truncate(cap)


def test_compose_fast_matches_horner():
    rng = random.Random(23)
    for R in (F2, F3, F4, F7, lift_ring(3, 3), lift_ring(2, 4, 2)):
        for k in range(16):
            width = rng.choice([1, 3, 7, 23, 40])  # most below 24 rows
            f = random_series(R, rng.randrange(-3, 2), width, rng)  # poles included
            g = random_series(R, rng.randrange(1, 3), rng.choice([2, 5, 30]), rng)
            if k % 4 == 1:  # exact f
                f = TLS(R, f.v, f.coeffs, INF)
            elif k % 4 == 2:  # exact f and g; a pole needs a monomial g
                f = TLS(R, max(f.v, 0), f.coeffs, INF)
                g = TLS(R, g.v, g.coeffs[:3], INF)
            elif k % 4 == 3 and f.v >= 0:  # exact g
                g = TLS(R, g.v, g.coeffs[:2], INF)
            got, want = compose(f, g), _compose_by_horner(f, g)
            assert (got.v, got.prec) == (want.v, want.prec)
            assert np.array_equal(got.coeffs, want.coeffs)


def test_precision_soundness_refinement():
    rng = random.Random(29)
    for F in (F2, F3):
        for _ in range(10):
            base_f = random_series(F, -2, 40, rng)
            base_g = random_series(F, 1, 40, rng)
            f_lo, g_lo = base_f.truncate(10), base_g.truncate(12)
            for op in (operator.add, operator.mul, operator.truediv):
                lo = op(f_lo, g_lo)
                hi = op(base_f, base_g)
                assert lo.agrees_with(hi)
            assert compose(f_lo, g_lo).agrees_with(compose(base_f, base_g))


def test_pth_power_fast_path():
    rng = random.Random(31)
    for F in (F2, F3, F9):
        for _ in range(10):
            f = random_series(F, rng.randrange(-3, 3), 15, rng)
            slow = f
            for _ in range(F.p - 1):
                slow = slow * f
            assert f.pth_power().agrees_with(slow)
            assert (f**F.p).agrees_with(slow)


def test_agrees_with_detects_one_coefficient():
    # at the last exponent below the shorter prec
    a = ser(F3, [(0, 1), (4, 2)], prec=10)
    for e, want in ((9, False), (10, True), (11, True)):
        b = ser(F3, [(0, 1), (4, 2), (e, 1)], prec=12)
        assert a.agrees_with(b) is want and b.agrees_with(a) is want
    # inside one operand's prec but below its stored window, where the
    # coefficients are known zeros
    a = ser(F9, [(3, F9.gen())], prec=8)
    assert a.v == 3
    b = ser(F9, [(1, 1), (3, F9.gen())], prec=8)
    assert not a.agrees_with(b) and not b.agrees_with(a)
    assert a.agrees_with(ser(F9, [(3, F9.gen())], prec=6))
    # an exact series is known to vanish past its last term
    exact = ser(F2, [(0, 1), (1, 1)])
    assert exact.agrees_with(ser(F2, [(0, 1), (1, 1)], prec=6))
    finite = ser(F2, [(0, 1), (1, 1), (5, 1)], prec=6)
    assert not exact.agrees_with(finite) and not finite.agrees_with(exact)
    # differences are read modulo the ring modulus
    Z8 = lift_ring(2, 3)
    assert not ser(Z8, [(0, 1)], prec=4).agrees_with(ser(Z8, [(0, 5)], prec=4))


def _agrees_by_loop(a, b):
    """Reference: compare coefficient by coefficient over the known overlap."""
    lo = min(a.val_lower_bound(), b.val_lower_bound())
    hi = min(a.prec, b.prec)
    if lo == INF:
        return True
    if hi == INF:
        hi = max(a.end, b.end)
    return all(a.coeff(e) == b.coeff(e) for e in range(lo, hi))


def test_agrees_with_matches_coefficient_loop():
    rng = random.Random(59)
    for R in (F2, F9, lift_ring(3, 2)):
        for _ in range(60):
            a = random_series(R, rng.randrange(-3, 3), rng.randrange(1, 12), rng)
            b = a.truncate(a.prec - rng.randrange(0, 4))
            if rng.random() < 0.3:  # the same window read as exact
                b = TLS(R, b.v, b.coeffs, INF)
            if rng.random() < 0.7:  # one coefficient moved, maybe past the overlap
                e = rng.randrange(-5, b.prec if b.prec != INF else a.prec + 2)
                b = b + TLS.monomial(R, e, random_unit(R, rng), b.prec)
            assert a.agrees_with(b) == _agrees_by_loop(a, b)
            assert b.agrees_with(a) == _agrees_by_loop(b, a)


@pytest.mark.parametrize("R", [F2, F9, lift_ring(2, 5, 2)], ids=repr)
def test_negative_power_is_inverse_of_power(R):
    rng = random.Random(37)
    for _ in range(4):
        s = random_series(R, rng.randrange(-3, 4), 14, rng)
        for k in range(1, 7):
            fast, slow = s ** (-k), (s**k).inv()
            assert (fast.v, fast.prec) == (slow.v, slow.prec)
            assert np.array_equal(fast.coeffs, slow.coeffs)
    mono = TLS.monomial(R, 2, R.one())
    assert (mono ** (-3)).terms() == (mono**3).inv().terms()
    assert (mono ** (-3)).prec == INF


def test_inv_past_the_stored_width():
    # an exact series is zero past its stored rows, so its inverse goes on;
    # a finite one determines only its own width of the inverse
    R = lift_ring(2, 5, 2)
    rng = random.Random(61)
    base = random_series(R, -2, 6, rng)
    exact = TLS(R, base.v, base.coeffs, INF)
    for k in (7, 13, 30):
        got = exact.inv(n_terms=k)
        padded = exact.truncate(exact.v + k)  # the same rows, zeros up to k
        want = padded.inv()
        assert len(padded.coeffs) == k
        assert (got.v, got.prec) == (want.v, want.prec) == (2, k + 2)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert (exact * got).agrees_with(TLS.monomial(R, 0, 1))
        short = base.inv(n_terms=k)
        assert (short.v, short.prec) == (2, 6 + 2)
        assert np.array_equal(short.coeffs, base.inv().coeffs)


def test_inv_is_computed_once():
    s = random_series(F9, -2, 12, random.Random(41))
    first = s.inv()
    assert s.inv() is first
    assert s.inv(n_terms=5) is not first
    assert s.inv() is first


@pytest.mark.parametrize("F", [F4, F25, F49], ids=repr)
def test_nth_root_orders_prime_to_p(F):
    rng = random.Random(43)
    for r in (2, 3, 4, 6):
        if math.gcd(r, F.p) != 1:
            continue
        for _ in range(3):
            g = random_series(F, rng.randrange(-2, 3), rng.randrange(1, 30), rng)
            f = g**r
            root = nth_root(f, r)
            assert (root**r).agrees_with(f)
            assert root.valuation() == g.valuation()
            assert root.prec == f.v // r + len(f.coeffs) == g.prec
            # the root is g up to an r-th root of unity
            zeta = root.leading_coeff() / g.leading_coeff()
            assert zeta**r == F.one()
            assert root.agrees_with(g.scalar_mul(zeta))
            forced = nth_root(f, r, leading_root=g.leading_coeff())
            assert forced.agrees_with(g)


def test_broken_certificates_raise(monkeypatch):
    f = random_series(F7, 1, 20, random.Random(47)) ** 3
    wrong = next(x for x in map(F7.from_int, range(1, 7)) if x**3 != f.leading_coeff())
    with pytest.raises(ConsistencyFailure):
        nth_root(f, 3, leading_root=wrong)
    with monkeypatch.context() as m:
        m.setattr(series_mod, "_pow_trunc", lambda ring, A, k, n: series_mod._one(ring))
        with pytest.raises(ConsistencyFailure):
            nth_root(f, 3)

    kernel = series_mod._inv_root

    def off_in_last_row(ring, U, r, n):
        w = kernel(ring, U, r, n).copy()
        w[-1, 0] = (w[-1, 0] + 1) % ring.modulus
        return w

    with monkeypatch.context() as m:
        m.setattr(series_mod, "_inv_root", off_in_last_row)
        with pytest.raises(ConsistencyFailure):
            random_series(F9, 0, 10, random.Random(53)).inv()
        with pytest.raises(ConsistencyFailure):
            nth_root(f, 3)

    composite = series_mod._compose_fast
    with monkeypatch.context() as m:
        m.setattr(series_mod, "_compose_fast", lambda f, g, cap: composite(f, g, cap).shift(1))
        with pytest.raises(ConsistencyFailure):
            compose(TLS.monomial(F2, -3), ser(F2, [(1, 1), (2, 1)], prec=10))

    pth_power = TLS.pth_power
    with monkeypatch.context() as m:
        m.setattr(TLS, "pth_power", lambda self: pth_power(self).shift(self.ring.p))
        with pytest.raises(ConsistencyFailure):
            pth_power_decompose(ser(F3, [(0, 1), (2, 1), (3, 1)], prec=12))


@pytest.mark.parametrize("p, m, f, edge", [(3, 19, 1, 6), (3, 19, 2, 6), (2, 31, 1, 2)])
def test_conv_int64_guard_edge(p, m, f, edge):
    # (mod - 1)^2 * edge < 2^63 <= (mod - 1)^2 * (edge + 1): the edge is
    # exact with every coordinate at its maximum, one row more is refused
    R = lift_ring(p, m, f)
    top = R.modulus - 1
    assert top**2 * edge + top < 2**63 <= top**2 * (edge + 1)
    A = np.full((edge, f), top, dtype=np.int64)
    B = np.full((edge + 3, f), top, dtype=np.int64)
    got = _conv(R, A, B)
    x = [R.from_coords([top] * f)] * edge
    y = [R.from_coords([top] * f)] * (edge + 3)
    for k in range(2 * edge + 2):
        want = R.zero()
        for i in range(max(0, k - edge - 2), min(k, edge - 1) + 1):
            want = want + x[i] * y[k - i]
        assert tuple(int(c) for c in got[k]) == want.coords
    with pytest.raises(ValueError, match="overflow"):
        _conv(R, np.vstack([A, A[:1]]), B)


def test_conv_int64_guard_counts_reduction():
    # over GR(2^31, 4) a product of single rows convolves within int64, but
    # reducing it by the quartic adds three products of up to (2^31 - 1)^2
    R = lift_ring(2, 31, 4)
    top = R.modulus - 1
    assert top**2 < 2**63 <= 3 * top**2
    one_row = np.full((1, 4), top, dtype=np.int64)
    with pytest.raises(ValueError, match="overflow"):
        _conv(R, one_row, one_row)
    _conv(lift_ring(2, 31, 2), one_row[:, :2], one_row[:, :2])


def _edge_inputs(rng, length, top):
    """All-max and random signed int64 inputs whose largest magnitude is top."""
    signed = rng.integers(-top, top + 1, size=length)
    signed[rng.integers(length)] = rng.choice([-top, top])
    return np.full(length, top, dtype=np.int64), signed


@pytest.mark.parametrize(
    "la, lb, top", [(64, 961, 81450), (2048, 2049, 37177), (512, 3585, 37177)]
)
def test_fft_guard_edge(la, lb, top, monkeypatch):
    # top is the largest amax = bmax the rounding guard admits for a product
    # of N = la + lb - 1 terms (N = 1024 or 4096): there the FFT path must be
    # exact, and one step past it the direct path must run
    rng = np.random.default_rng(la * lb)
    rfft, calls = np.fft.rfft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    def refused(*args, **kwargs):
        raise RuntimeError("FFT path taken past the rounding guard")

    monkeypatch.setattr(np.fft, "rfft", counted)
    for a, b in zip(_edge_inputs(rng, la, top), _edge_inputs(rng, lb, top)):
        assert np.array_equal(_int_conv(a, b), np.convolve(a, b)), (la, lb)
    assert len(calls) == 4
    monkeypatch.setattr(np.fft, "rfft", refused)
    for a, b in zip(_edge_inputs(rng, la, top + 1), _edge_inputs(rng, lb, top + 1)):
        assert np.array_equal(_int_conv(a, b), np.convolve(a, b)), (la, lb)


def test_certificates_survive_optimized_python():
    # python -O strips assert statements; the certificates must still run
    script = textwrap.dedent(
        """
        import sys
        if __debug__:
            sys.exit("not running under -O")
        from wittram import series
        from wittram.coeff import finite_field
        from wittram.errors import ConsistencyFailure
        from wittram.series import TruncatedLaurentSeries as TLS, nth_root
        from wittram.tower import CoverDatum, analyze_tower

        _tw, filt, rep = analyze_tower(CoverDatum.from_orders(3, 2, 1, (2, 1)))
        print(rep["e"], rep["different"], rep["conductor"], filt.breaks)
        F = finite_field(5, 2)
        f = TLS.from_terms(F, [(2, 1), (3, 2), (5, 3)], prec=30)
        print((nth_root(f, 2) ** 2).agrees_with(f))
        series._pow_trunc = lambda ring, A, k, n: series._one(ring)
        try:
            nth_root(f, 2)
        except ConsistencyFailure:
            print("broken root refused")
        from wittram.intpoly import p_eval_batch_mod, var
        try:
            p_eval_batch_mod({0: 1}, [[1]], 3037000500)
        except ValueError:
            print("int64 guard refused")
        # a full 3x3 block at the edge modulus: its matmul runs in chunks of 1
        edge = 3037000499
        block = {var(2 * i) + var(2 * j + 1): -1 for i in range(3) for j in range(3)}
        print(p_eval_batch_mod(block, [[edge - 1]] * 6, edge).tolist())
        from wittram import tower
        tower.pow = lambda e, k, p: 1  # a wrong inverse of e mod p
        try:
            tower._bezout_exponents(5, 3)
        except ConsistencyFailure:
            print("broken Bezout exponents refused")
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:6] == [
        "(2, 14) 48 7 (2, 14)",
        "True",
        "broken root refused",
        "int64 guard refused",
        "[3037000490]",
        "broken Bezout exponents refused",
    ]
