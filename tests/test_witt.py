import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from wittram import intpoly as ip
from wittram import witt as witt_mod
from wittram.coeff import finite_field, lift, lift_ring
from wittram.errors import ConsistencyFailure, WittTableError
from wittram.series import TruncatedLaurentSeries as TLS
from wittram.witt import (
    WittVector,
    asw_map,
    build_table,
    frobenius,
    ghost_batch,
    ghost_eval,
    nth_component_identity_check,
    verschiebung,
    witt_add,
    witt_batch_op,
    witt_mul,
    witt_neg,
    xvar,
    yvar,
)

from oracles import (
    asw_ghost_inversion,
    asw_literal_form,
    cn_leading_term_check,
    involves,
    iso_weight,
    unpack,
    witt_smul,
)
from randoms import random_series


def X(i, e=1):
    return {ip.var(xvar(i), e): 1}


def Y(i, e=1):
    return {ip.var(yvar(i), e): 1}


def wvec(ring, *ints):
    return WittVector(tuple(ring.from_int(k) for k in ints))


def test_table_base_components():
    for p in (2, 3, 5, 7):
        t = build_table(p, 2)
        assert t.S[0] == ip.p_add(X(0), Y(0))
        assert t.c[0] == {}
        assert t.I[0] == ip.p_neg(Y(0))
        assert t.P[0] == ip.p_mul(X(0), Y(0))


def test_carry_one_small_primes():
    t2 = build_table(2, 2)
    assert t2.c[1] == ip.p_neg(ip.p_mul(X(0), Y(0)))
    t3 = build_table(3, 2)
    want = ip.p_neg(ip.p_add(ip.p_mul(X(0, 2), Y(0)), ip.p_mul(X(0), Y(0, 2))))
    assert t3.c[1] == want


def test_negation_table_shapes():
    # odd p: entry-wise minus; p = 2: the irregular extra terms
    for p in (3, 5, 7):
        t = build_table(p, 3)
        for i in range(3):
            assert t.I[i] == ip.p_neg(Y(i))
    t2 = build_table(2, 2)
    assert t2.I[0] == ip.p_neg(Y(0))
    assert t2.I[1] == ip.p_sub(ip.p_neg(Y(0, 2)), Y(1))


def test_ghost_identities_symbolic():
    # Phi_j(S) = Phi_j(X) + Phi_j(Y) etc. re-verified from scratch
    for p in (2, 3):
        t = build_table(p, 3)
        for j in range(3):
            gx, gy = t.ghost(j, 0), t.ghost(j, 1)
            acc_s, acc_p, acc_i = {}, {}, {}
            for i in range(j + 1):
                e = p ** (j - i)
                acc_s = ip.p_add(acc_s, ip.p_scale(ip.p_pow(t.S[i], e), p**i))
                acc_p = ip.p_add(acc_p, ip.p_scale(ip.p_pow(t.P[i], e), p**i))
                acc_i = ip.p_add(acc_i, ip.p_scale(ip.p_pow(t.I[i], e), p**i))
            assert acc_s == ip.p_add(gx, gy)
            assert acc_p == ip.p_mul(gx, gy)
            assert acc_i == ip.p_neg(gy)


def test_isobaric_weights():
    for p in (2, 3, 5):
        t = build_table(p, 3)
        wl = []
        for i in range(3):
            wl += [p**i, p**i]
        for i in range(3):
            assert iso_weight(t.S[i], wl) == p**i
            assert iso_weight(t.I[i], wl) == p**i
            assert iso_weight(t.P[i], wl) == 2 * p**i
            if t.c[i]:
                assert iso_weight(t.c[i], wl) == p**i


# SHA-256 of every S/c/I/P component, each as its sorted (exponents,
# coefficient) pairs, recorded from the term-by-term build of the tables
TABLE_DIGESTS = {
    (3, 4): "d2049d4498f80cf842dfb3cbd671f9b5e386efb5f582dc8943bd5b1e0c6b748e",
    (2, 6): "cc27bccd73f58a8ddbc66025c0c9c8688d46bab72ad67d8b86a6c08b5c073b5a",
    (5, 4): "0aed7dc8b5f3310fe8bb6540aebee5f57658e2f8703396e428b6818c7333b476",
}


@pytest.mark.parametrize("p, n", list(TABLE_DIGESTS))
def test_tables_match_pinned_digest(p, n):
    t = build_table(p, n)
    h = hashlib.sha256()
    for name in "ScIP":
        for i in range(n):
            terms = sorted((unpack(k, 2 * n), c) for k, c in getattr(t, name)[i].items())
            h.update(repr((name, i, terms)).encode())
    assert h.hexdigest() == TABLE_DIGESTS[p, n]


def test_w2_f2_is_z4():
    F2 = finite_field(2)
    t = build_table(2, 2)
    one = wvec(F2, 1, 0)
    two = witt_add(one, one, t)
    assert two == wvec(F2, 0, 1)
    three = witt_add(two, one, t)
    assert three == wvec(F2, 1, 1)
    assert witt_add(one, two, t) == three
    four = witt_add(three, one, t)
    assert four.is_zero()


def test_unit_vector_order_p_to_n():
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 2)):
        F = finite_field(p)
        t = build_table(p, n)
        one = WittVector((F.one(),) + (F.zero(),) * (n - 1))
        assert witt_smul(p**n, one, t).is_zero()
        assert not witt_smul(p ** (n - 1), one, t).is_zero()


def test_neg_is_additive_inverse():
    rng = random.Random(3)
    for p, f, n in ((2, 2, 3), (3, 1, 3), (5, 2, 2), (7, 1, 2)):
        F = finite_field(p, f)
        t = build_table(p, n)
        for _ in range(10):
            a = WittVector(tuple(F.random(rng) for _ in range(n)))
            assert witt_add(a, witt_neg(a, t), t).is_zero()


def test_ring_axioms_over_fq():
    rng = random.Random(5)
    for p, f, n in ((2, 1, 3), (2, 2, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (7, 2, 2)):
        F = finite_field(p, f)
        t = build_table(p, n)
        for _ in range(8):
            a = WittVector(tuple(F.random(rng) for _ in range(n)))
            b = WittVector(tuple(F.random(rng) for _ in range(n)))
            c = WittVector(tuple(F.random(rng) for _ in range(n)))
            assert witt_add(a, b, t) == witt_add(b, a, t)
            assert witt_add(witt_add(a, b, t), c, t) == witt_add(a, witt_add(b, c, t), t)
            assert witt_mul(a, b, t) == witt_mul(b, a, t)
            assert witt_mul(witt_mul(a, b, t), c, t) == witt_mul(a, witt_mul(b, c, t), t)
            lhs = witt_mul(a, witt_add(b, c, t), t)
            rhs = witt_add(witt_mul(a, b, t), witt_mul(a, c, t), t)
            assert lhs == rhs


def test_ghost_homomorphism_over_lift_rings():
    rng = random.Random(7)
    for p, n in ((2, 4), (3, 3), (5, 3)):
        m = n + 2
        R = lift_ring(p, m)
        t = build_table(p, n)
        for _ in range(12):
            a = WittVector(tuple(R.random(rng) for _ in range(n)))
            b = WittVector(tuple(R.random(rng) for _ in range(n)))
            s = witt_add(a, b, t)
            q = witt_mul(a, b, t)
            z = witt_neg(a, t)
            for j in range(n):
                assert ghost_eval(s, j) == ghost_eval(a, j) + ghost_eval(b, j)
                assert ghost_eval(q, j) == ghost_eval(a, j) * ghost_eval(b, j)
                assert ghost_eval(z, j) == -ghost_eval(a, j)


def test_batch_ops_match_elementwise():
    rng = random.Random(9)
    p, n, m = 3, 3, 5
    R = lift_ring(p, m)
    t = build_table(p, n)
    B = 40
    A = np.array([[rng.randrange(p**m) for _ in range(B)] for _ in range(n)])
    C = np.array([[rng.randrange(p**m) for _ in range(B)] for _ in range(n)])
    S = witt_batch_op(t, "add", A, C, p**m)
    P = witt_batch_op(t, "mul", A, C, p**m)
    N = witt_batch_op(t, "neg", A, None, p**m)
    for k in range(0, B, 7):
        a = WittVector(tuple(R.from_int(int(A[i, k])) for i in range(n)))
        c = WittVector(tuple(R.from_int(int(C[i, k])) for i in range(n)))
        assert witt_add(a, c, t) == WittVector(
            tuple(R.from_int(int(S[i, k])) for i in range(n))
        )
        assert witt_mul(a, c, t) == WittVector(
            tuple(R.from_int(int(P[i, k])) for i in range(n))
        )
        assert witt_neg(a, t) == WittVector(
            tuple(R.from_int(int(N[i, k])) for i in range(n))
        )
    for j in range(n):
        mod = p ** (j + 1)
        assert np.array_equal(
            ghost_batch(S, p, j, mod),
            (ghost_batch(A, p, j, mod) + ghost_batch(C, p, j, mod)) % mod,
        )


def test_verschiebung_and_fv_identities():
    rng = random.Random(11)
    F4 = finite_field(2, 2)
    a = WittVector((F4.gen(), F4.one()))
    assert verschiebung(a) == WittVector((F4.zero(), F4.gen(), F4.one()))
    for p, n in ((2, 3), (3, 2), (5, 2)):
        F = finite_field(p, 2 if p < 5 else 1)
        t = build_table(p, n)
        for _ in range(8):
            x = WittVector(tuple(F.random(rng) for _ in range(n)))
            assert frobenius(verschiebung(x)) == verschiebung(frobenius(x))
            px = witt_smul(p, x, t)
            assert px == verschiebung(frobenius(x)).truncated(n)


def test_asw_vanishes_on_prime_field_points():
    t = build_table(2, 2)
    F2 = finite_field(2)
    assert asw_map(wvec(F2, 1, 1), t).is_zero()
    for p, n in ((2, 3), (3, 2), (5, 2)):
        F = finite_field(p)
        tt = build_table(p, n)
        rng = random.Random(13)
        for _ in range(6):
            a = WittVector(tuple(F.random(rng) for _ in range(n)))
            assert asw_map(a, tt).is_zero()


def test_asw_on_w2_f4():
    F4 = finite_field(2, 2)
    t = build_table(2, 2)
    g = F4.gen()
    a = WittVector((g, F4.zero()))
    fa = frobenius(a)
    assert fa == WittVector((g + F4.one(), F4.zero()))
    image = asw_map(a, t)
    assert image == WittVector((F4.one(), g))
    # adding a back recovers F(a): the image really is F(a) - a
    assert witt_add(a, image, t) == fa
    # ghost cross-check in the Galois ring mod p^2
    la = WittVector(tuple(lift(e, 2) for e in a))
    lf = WittVector(tuple(lift(e, 2) for e in fa))
    li = WittVector(tuple(lift(e, 2) for e in image))
    for j in range(2):
        assert ghost_eval(li, j) == ghost_eval(lf, j) - ghost_eval(la, j)


def test_component_identity_check():
    t2 = build_table(2, 3)
    rep = nth_component_identity_check(t2, 1)
    assert not involves(rep["correction_poly"], yvar(1))
    # frozen: the first nontrivial component of F(Y)-Y over F_2
    want = ip.p_add(ip.p_add(Y(1, 2), Y(1)), ip.p_add(Y(0, 2), Y(0, 3)))
    assert rep["component_poly"] == want
    # p=2 negation is irregular, so the odd-p closed form must NOT match
    assert asw_literal_form(t2, 1) != rep["component_poly"]

    assert not involves(nth_component_identity_check(t2, 2)["correction_poly"], yvar(2))

    t3 = build_table(3, 2)
    rep3 = nth_component_identity_check(t3, 1)
    assert not involves(rep3["correction_poly"], yvar(1))
    assert asw_literal_form(t3, 1) == rep3["component_poly"]

    t5 = build_table(5, 2)
    rep5 = nth_component_identity_check(t5, 1)
    assert not involves(rep5["correction_poly"], yvar(1))
    assert asw_literal_form(t5, 1) == rep5["component_poly"]


def test_component_identity_check_routes_must_agree(monkeypatch):
    # one extra term on the table route makes the two routes disagree
    table_route = witt_mod.asw_component_poly
    monkeypatch.setattr(
        witt_mod, "asw_component_poly", lambda table, n: ip.p_add(table_route(table, n), Y(0))
    )
    with pytest.raises(ConsistencyFailure, match="disagree"):
        nth_component_identity_check(build_table(3, 2), 1)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 1)])
def test_component_identity_check_refuses_a_correction_in_its_own_slot(monkeypatch, p, n):
    # both routes give the component plus Y_n*Y_0 mod p: they agree, and the
    # correction then involves Y_n
    table_route, ghost_route = witt_mod.asw_component_poly, witt_mod._ghost_route
    extra = {ip.var(yvar(n)) + ip.var(yvar(0)): 1}
    monkeypatch.setattr(
        witt_mod, "asw_component_poly", lambda table, k: ip.p_add(table_route(table, k), extra)
    )
    monkeypatch.setattr(witt_mod, "_ghost_route", lambda q, k: ip.p_add(ghost_route(q, k), extra))
    with pytest.raises(ConsistencyFailure, match=f"involves Y_{n}"):
        nth_component_identity_check(build_table(p, n + 1), n)


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_ghost_route_matches_term_by_term_inversion(p, n):
    # route B's packed ghost-inversion step against p_pow and a division
    # checked coefficient by coefficient, over Z, at every component up to n
    for l in range(n + 1):
        assert witt_mod._ghost_route(p, l) == asw_ghost_inversion(p, l), (p, l)


def test_ghost_route_refuses_a_ghost_component_off_by_one(monkeypatch):
    # Y_1^3 gets 4, not 3, in Phi_1(F(Y) - Y) for p = 3: its component 1
    # has Y_1^3/3, which the exact division of the step refuses
    ghost = witt_mod._asw_ghost

    def broken(p, l):
        w = ghost(p, l)
        if l == 1:
            w[ip.var(yvar(1), p)] += 1
        return w

    monkeypatch.setattr(witt_mod, "_asw_ghost", broken)
    with pytest.raises(WittTableError, match="integrality"):
        nth_component_identity_check(build_table(3, 2), 1)


def test_component_identity_check_deeper_odd_p():
    t3 = build_table(3, 3)
    rep = nth_component_identity_check(t3, 2)
    assert not involves(rep["correction_poly"], yvar(2))
    assert asw_literal_form(t3, 2) == rep["component_poly"]


def test_carry_leading_term():
    t2 = build_table(2, 3)
    r = cn_leading_term_check(t2, 1, 0)
    assert r["holds"]
    assert r["extracted"] == ip.p_neg(Y(0))
    r = cn_leading_term_check(t2, 2, 1)
    assert r["holds"]
    assert r["extracted"] == ip.p_neg(ip.p_add(Y(1), t2.c[1]))
    t3 = build_table(3, 3)
    r = cn_leading_term_check(t3, 1, 0)
    assert r["holds"] and r["degree_bound"] == 2
    r = cn_leading_term_check(t3, 2, 0)
    assert r["holds"] and r["degree_bound"] == 8
    assert r["extracted"] == ip.p_neg(Y(0))


def test_series_entry_arithmetic():
    rng = random.Random(17)
    for p in (2, 3):
        F = finite_field(p)
        t = build_table(p, 2)
        for _ in range(5):
            a = WittVector(tuple(random_series(F, rng.randrange(0, 3), 8, rng) for _ in range(2)))
            b = WittVector(tuple(random_series(F, rng.randrange(0, 3), 8, rng) for _ in range(2)))
            s = witt_add(a, b, t)
            s2 = witt_add(b, a, t)
            for i in range(2):
                assert s[i].agrees_with(s2[i])
            z = witt_add(a, witt_neg(a, t), t)
            for i in range(2):
                assert not len(z[i].coeffs)


def test_asw_on_series_entries():
    # F - 1 applied to (s^{-1}, 0) over F_2((s)), the simplest wild datum
    F2 = finite_field(2)
    t = build_table(2, 2)
    u0 = TLS.monomial(F2, -1, 1, prec=6)
    zero = TLS.zero_to(F2, 6)
    a = WittVector((u0, zero))
    image = asw_map(a, t)
    assert image[0].valuation() == -2  # s^{-2} - s^{-1} leads with the square
    assert image[0].coeff(-2) == F2.one()
    assert image[0].coeff(-1) == F2.one()
    # second slot: carry_1(F a, -a) contributes s^{-3}
    assert image[1].valuation() == -3


# one term added to the X ghost of component 1 of a cold build for p = 3,
# and what the build must then refuse.  Each test fails on a scratch copy
# with the check named in its comment taken out.
CERTIFICATE_BREAKS = {
    # X_1 gets 1, not 3, so S_1 has X_1/3: the remainder check of
    # intpoly._quotients, on slots of one 64-bit limb
    "integrality-one-limb": ("S", {ip.var(2): -2}, "integrality"),
    # the same on slots of two limbs, where the remainder is carried from
    # the top limb down
    "integrality-wide-slots": ("S", {ip.var(2): 2**70 + 1}, "integrality"),
    # 3*X_0 divides into X_0, of weight 1, not 3: the weight test of _certify
    "off-weight": ("S", {ip.var(0): 3}, "not isobaric"),
    # 3*X_2 divides into X_2, past Y_1: the key check of intpoly.exponent_rows
    "past-the-slots": ("P", {ip.var(4): 3}, "past Y_1"),
    # 6*X_1 divides into 2*X_1, of the right weight, so the carry keeps
    # X_1: the coefficient test of the own-slot check of _certify
    "carry-own-slot": ("S", {ip.var(2): 3}, "own slot"),
}


@pytest.mark.parametrize(
    "name, extra, message", CERTIFICATE_BREAKS.values(), ids=CERTIFICATE_BREAKS.keys()
)
def test_build_certificates_fire(monkeypatch, name, extra, message):
    ghost = witt_mod._ghost_poly

    def broken(p, j, side):
        return ip.p_add(ghost(p, j, side), extra) if (j, side) == (1, 0) else ghost(p, j, side)

    monkeypatch.setattr(witt_mod, "_STATE", {})
    monkeypatch.setattr(witt_mod, "_ghost_poly", broken)
    with pytest.raises(WittTableError, match=message):
        getattr(build_table(3, 2), name)[1]


def test_table_errors():
    with pytest.raises(WittTableError):
        build_table(4, 2)
    with pytest.raises(WittTableError):
        build_table(2, 0)
    t = build_table(2, 2)
    with pytest.raises(IndexError):
        t.S[2]
    with pytest.raises(ValueError):
        witt_add(wvec(finite_field(2), 1, 0), wvec(finite_field(3), 1, 0), t)


# public preconditions, as expressions over this prelude; each must raise
# ValueError, also under python -O, which strips asserts
PRECONDITION_PRELUDE = (
    "import numpy as np\n"
    "from wittram.coeff import finite_field, lift, lift_ring, pth_root\n"
    "from wittram import intpoly as ip\n"
    "from wittram.series import TruncatedLaurentSeries as TLS, nth_root\n"
    "from wittram.tower import _bezout_exponents\n"
    "from wittram.witt import WittVector, asw_map, build_table, witt_add, witt_batch_op\n"
    "from wittram.witt import witt_mul, witt_neg\n"
    "from oracles import pth_power_decompose\n"
    "pair = WittVector((finite_field(3).one(), finite_field(3).zero()))\n"
    "A = np.ones((2, 4), dtype=np.int64)\n"
)
PRECONDITIONS = {
    "empty-vector": "WittVector(())",
    "mixed-rings": "WittVector((finite_field(2).one(), finite_field(3).one()))",
    "truncate-to-zero": "pair.truncated(0)",
    "truncate-past-length": "pair.truncated(3)",
    "add-table-of-another-prime": "witt_add(pair, pair, build_table(2, 2))",
    "mul-table-of-another-prime": "witt_mul(pair, pair, build_table(2, 2))",
    "neg-table-of-another-prime": "witt_neg(pair, build_table(2, 2))",
    "asw-table-of-another-prime": "asw_map(pair, build_table(2, 2))",
    "batch-missing-operand": "witt_batch_op(build_table(3, 2), 'add', A, None, 27)",
    "batch-shape-mismatch": "witt_batch_op(build_table(3, 2), 'mul', A, A[:, :3], 27)",
    "batch-unknown-op": "witt_batch_op(build_table(3, 2), 'sub', A, A, 27)",
    "batch-longer-than-table": "witt_batch_op(build_table(3, 2), 'neg', np.ones((3, 4), np.int64), None, 27)",
    "batch-float-entries": "witt_batch_op(build_table(3, 2), 'add', A + 0.5, A, 27)",
    "batch-one-polynomial-for-a-family": "ip.p_eval_batch_mod({ip.var(0): 1}, A, 27)",
    "batch-modulus-zero": "ip.p_eval_batch_mod([{0: 1}], A, 0)",
    "batch-variable-beyond-values": "ip.p_eval_batch_mod([{ip.var(2): 1}], A, 27)",
    "mono-negative-exponent": "ip.mono(1, -1)",
    "mono-exponent-past-mask": "ip.mono(ip.MASK + 1)",
    "pow-negative-exponent": "ip.p_pow({0: 1}, -1)",
    "mul-exponent-past-mask": "ip.p_mul({ip.var(0, ip.MASK): 1}, {ip.var(0): 1})",
    "pow-exponent-past-mask": "ip.p_pow({ip.var(0): 1}, 1 << 20)",
    "sliced-mul-exponent-past-mask": (
        "ip.p_pow_sum_sliced([(1, {ip.var(2, ip.MASK): 1, ip.var(2): 1}, 2)], (0, 2, 3))"
    ),
    "sliced-pow-exponent-past-mask": (
        "ip.p_pow_sum_sliced([(1, {ip.var(1): 1}, 1 << 20)], (0, 1, 1))"
    ),
    "sliced-pow-negative-exponent": "ip.p_pow_sum_sliced([(1, {0: 1}, -1)], (0, 1, 1))",
    "sliced-plane-one-variable": "ip.p_pow_sum_sliced([(1, {0: 1}, 2)], (1, 1, 1))",
    "sliced-sum-divisor-zero": "ip.p_pow_sum_sliced([(1, {0: 1}, 1)], (0, 1, 1), 0)",
    "sliced-sum-divisor-past-31-bits": "ip.p_pow_sum_sliced([(1, {0: 1}, 1)], (0, 1, 1), 2**31)",
    "subst-power-past-mask": "ip.p_subst({ip.var(0, 2): 1}, {0: {ip.var(1, 1 << 19): 1}})",
    "subst-kept-past-mask": "ip.p_subst({ip.var(0) + ip.var(1, ip.MASK): 1}, {0: {ip.var(1): 1}})",
    "eval-values-as-list": "ip.p_eval({ip.var(0): 1}, [5], 1)",
    "eval-variable-missing": "ip.p_eval({ip.var(1): 1}, {0: 5}, 1)",
    "lift-level-zero": "lift_ring(3, 0)",
    "bezout-break-divisible-by-p": "_bezout_exponents(6, 3)",
    "monomial-at-precision": "TLS.monomial(finite_field(3), 5, 1, prec=5)",
    "terms-past-precision": "TLS.from_terms(finite_field(3), [(1, 1), (5, 2)], prec=5)",
    "gen-of-prime-field": "finite_field(3).gen()",
    "pth-root-in-lift-ring": "pth_root(lift_ring(3, 2).one())",
    "lift-of-lift-element": "lift(lift_ring(3, 2).one(), 3)",
    "window-wrong-width": "TLS(finite_field(3, 2), 0, np.zeros((2, 3), dtype=np.int64))",
    "window-not-dense": "TLS(finite_field(3), 0, np.ones((2, 1), dtype=np.int64), prec=5)",
    "pth-power-in-lift-ring": "TLS.monomial(lift_ring(3, 2), 1, 1).pth_power()",
    "leading-root-in-lift-ring": "nth_root(TLS.monomial(lift_ring(3, 2), 0, 1), 2)",
    "decompose-in-lift-ring": "pth_power_decompose(TLS.monomial(lift_ring(3, 2), 0, 1))",
}


@pytest.mark.parametrize("expr", PRECONDITIONS.values(), ids=PRECONDITIONS.keys())
def test_precondition_raises_value_error(expr):
    scope = {}
    exec(PRECONDITION_PRELUDE, scope)
    assert scope["pair"].truncated(2) == scope["pair"]
    with pytest.raises(ValueError):
        eval(expr, scope)


def test_preconditions_survive_optimized_python():
    checks = "".join(
        f"try:\n    {expr}\nexcept ValueError:\n    print({name!r})\n"
        for name, expr in PRECONDITIONS.items()
    )
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PRECONDITION_PRELUDE + checks],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(PRECONDITIONS)


def test_int64_guards_at_their_edge():
    # 3037000499^2 < 2^63 <= 3037000500^2: the edge modulus is exact with
    # every residue at its maximum, one more is refused
    edge = 3037000499
    assert edge**2 < 2**63 <= (edge + 1) ** 2
    top = np.full((2, 3), edge - 1, dtype=np.int64)
    poly = {ip.mono(1, 1): 1, 0: edge - 1}  # x0 x1 + (edge - 1)
    want = ((edge - 1) ** 2 + edge - 1) % edge
    assert ip.p_eval_batch_mod([poly], top, edge)[0].tolist() == [want] * 3
    for p, j in ((2, 1), (3, 1)):
        want = sum(p**i * (edge - 1) ** (p ** (j - i)) for i in range(j + 1)) % edge
        assert ghost_batch(top, p, j, edge).tolist() == [want] * 3
    # a full 3x3 block: its matmul sums 3 products of (edge - 1)**2, one per
    # chunk, since two would pass 2**63
    block = {ip.var(2 * i) + ip.var(2 * j + 1): -1 for i in range(3) for j in range(3)}
    want = 9 * (edge - 1) ** 3 % edge
    assert ip.p_eval_batch_mod([block], np.full((6, 3), edge - 1), edge)[0].tolist() == [want] * 3
    with pytest.raises(ValueError, match="overflow"):
        ip.p_eval_batch_mod([poly], top, edge + 1)
    with pytest.raises(ValueError, match="overflow"):
        ghost_batch(top, 2, 1, edge + 1)
