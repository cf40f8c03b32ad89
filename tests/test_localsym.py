"""Local symbols: residues through lifts, ghost inversion, vanishing bounds."""

import random

import pytest

from wittram import localsym
from wittram import series as series_mod
from wittram.coeff import finite_field, lift_ring, reduce_mod_p
from wittram.conductor import theorem_conductor
from wittram.errors import (
    ConsistencyFailure,
    GhostInversionFailure,
    InsufficientPrecision,
    VanishingFailure,
)
from wittram.localsym import (
    LocalSymbolInput,
    _exact_p_division,
    canonical_lift,
    modulus_vanishing_test,
    nonzero_elements,
    pole_depth,
    residue_vector,
    symbol_from_lifts,
)
from wittram.series import TruncatedLaurentSeries as TLS
from wittram.tower import CoverDatum
from wittram.witt import WittVector, build_table, ghost_eval, witt_add

from randoms import perturbed_lift, random_unit, random_unit_series

F2 = finite_field(2, 1)
F3 = finite_field(3, 1)
F4 = finite_field(2, 2)
F5 = finite_field(5, 1)
F8 = finite_field(2, 3)
F9 = finite_field(3, 2)


def _mono(field, e, c):
    return TLS.monomial(field, e, c)


def _random_pole_vector(field, n, max_pole, rng):
    """Vector of Laurent polynomials with poles up to max_pole.  The first
    entry's coefficient at -nu, nu the largest order <= max_pole prime to p,
    is a fresh random unit that replaces any term drawn there, so the entry
    has a genuine pole of order nu."""
    entries = []
    for i in range(n):
        terms = []
        for e in range(-max_pole, 2):
            if rng.random() < 0.5:
                terms.append((e, field.random(rng)))
        entries.append(terms)
    nu = max_pole if max_pole % field.p else max_pole - 1
    entries[0] = [t for t in entries[0] if t[0] != -nu] + [(-nu, random_unit(field, rng))]
    u = WittVector(tuple(TLS.from_terms(field, terms) for terms in entries))
    if pole_depth(u) < field.p ** (n - 1) * nu:
        raise AssertionError(f"no pole of order {nu} in {u}")
    return u


def _series_pairing(u_lifts, alpha_lift):
    """The pairing on series objects, kept as a reference for the window
    route: residues of Phi_j(u) alpha'/alpha, then the ghost inversion.
    alpha_lift must be finite, since exact/exact division does not stop."""
    lift = alpha_lift.ring
    p = lift.p
    dlog = alpha_lift.derivative() / alpha_lift
    residues = [(ghost_eval(WittVector(u_lifts), j) * dlog).coeff(-1) for j in range(len(u_lifts))]
    digits = []
    for j, acc in enumerate(residues):
        for i in range(j):
            acc = acc - (p**i) * digits[i] ** (p ** (j - i))
        digits.append(_exact_p_division(acc, j, lift))
    return WittVector(tuple(reduce_mod_p(w) for w in digits)), residues


def test_simple_pole_symbol_frozen():
    # u = a/s against 1 - c s pairs to -ac; against 1 - c s^2 to zero
    rng = random.Random(7)
    for field in (F2, F3, F4, F5):
        for _ in range(5):
            a = random_unit(field, rng)
            c = random_unit(field, rng)
            u = WittVector((_mono(field, -1, a),))
            one = _mono(field, 0, 1)
            sym = residue_vector(LocalSymbolInput(u, one - _mono(field, 1, c)))
            assert sym.entries == (-(a * c),)
            sym2 = residue_vector(LocalSymbolInput(u, one - _mono(field, 2, c)))
            assert sym2.is_zero()


def test_alpha_one_and_zero_u():
    rng = random.Random(3)
    one = _mono(F3, 0, 1)
    u = _random_pole_vector(F3, 2, 5, rng)
    assert residue_vector(LocalSymbolInput(u, one)).is_zero()
    zero_u = WittVector((TLS.zero(F3),) * 3)
    alpha = random_unit_series(F3, 6, rng)
    assert residue_vector(LocalSymbolInput(zero_u, alpha)).is_zero()


def test_input_validation():
    u = WittVector((_mono(F2, -1, F2.one()),))
    with pytest.raises(ValueError):
        LocalSymbolInput(u, _mono(F2, 1, 1))  # valuation 1, not a unit
    with pytest.raises(ValueError):
        LocalSymbolInput(u, _mono(F3, 0, 1))  # mixed coefficient fields
    with pytest.raises(ValueError):
        LocalSymbolInput(u, _mono(F2, 0, 1), m=1)  # lift depth too shallow


def test_pole_depth():
    u = WittVector((_mono(F2, -3, F2.one()), _mono(F2, -1, F2.one())))
    # ghost slot 1 sees u_0 squared: depth 6
    assert pole_depth(u) == 6
    reg = WittVector((_mono(F2, 2, F2.one()),))
    assert pole_depth(reg) == 0


def test_bilinearity_in_alpha():
    rng = random.Random(11)
    for field, n in [(F2, 2), (F3, 2), (F4, 2), (F2, 3), (F5, 1)]:
        table = build_table(field.p, n)
        for _ in range(4):
            u = _random_pole_vector(field, n, 3, rng)
            window = pole_depth(u) + 4
            alpha = random_unit_series(field, window, rng)
            beta = random_unit_series(field, window, rng)
            lhs = residue_vector(LocalSymbolInput(u, alpha * beta))
            sa = residue_vector(LocalSymbolInput(u, alpha))
            sb = residue_vector(LocalSymbolInput(u, beta))
            assert lhs == witt_add(sa, sb, table), (field.p, field.f, n)


def test_additivity_in_u():
    rng = random.Random(13)
    for field, n in [(F2, 2), (F3, 2), (F4, 2)]:
        table = build_table(field.p, n)
        for _ in range(3):
            u = _random_pole_vector(field, n, 2, rng)
            v = _random_pole_vector(field, n, 2, rng)
            usum = witt_add(u, v, table)
            window = max(pole_depth(u), pole_depth(v), pole_depth(usum)) + 4
            alpha = random_unit_series(field, window, rng)
            lhs = residue_vector(LocalSymbolInput(usum, alpha))
            su = residue_vector(LocalSymbolInput(u, alpha))
            sv = residue_vector(LocalSymbolInput(v, alpha))
            assert lhs == witt_add(su, sv, table), (field.p, field.f, n)


def test_lift_independence():
    rng = random.Random(17)
    for field, n in [(F2, 2), (F3, 3), (F4, 2)]:
        u = _random_pole_vector(field, n, 3, rng)
        window = pole_depth(u) + 4
        alpha = random_unit_series(field, window, rng)
        inp = LocalSymbolInput(u, alpha)
        lift = lift_ring(field.p, inp.m, field.f)
        base = residue_vector(inp)
        for _ in range(3):
            u_lifts = [perturbed_lift(s, lift, rng) for s in u]
            alpha_lift = perturbed_lift(alpha, lift, rng)
            other, _cert = symbol_from_lifts(u_lifts, alpha_lift, field)
            assert other == base, (field.p, field.f, n)


def test_finite_alpha_truncated_without_loss():
    # the residue reads alpha only below exponent pole_depth(u) + 1, so a
    # finite alpha with extra rows gives the symbol and certificate of its
    # truncation, and of the untruncated lift
    rng = random.Random(23)
    for field, n in [(F2, 3), (F3, 2), (F4, 2), (F5, 2)]:
        u = _random_pole_vector(field, n, 3, rng)
        depth = pole_depth(u)
        alpha = random_unit_series(field, depth + 9, rng)
        inp = LocalSymbolInput(u, alpha)
        assert inp.alpha.prec == depth + 2
        sym, cert = residue_vector(inp, with_certificate=True)
        short = LocalSymbolInput(u, alpha.truncate(depth + 2))
        assert residue_vector(short, with_certificate=True) == (sym, cert)
        lift = cert["lift"]
        full, full_cert = symbol_from_lifts(
            [canonical_lift(s, lift) for s in u], canonical_lift(alpha, lift), field
        )
        assert (full, full_cert) == (sym, cert), (field.p, field.f, n)


def test_certificate_ghost_consistency():
    # the inverted digits reproduce every residue exactly in the lift ring
    rng = random.Random(19)
    for field, n in [(F2, 3), (F3, 2), (F5, 2)]:
        u = _random_pole_vector(field, n, 3, rng)
        alpha = random_unit_series(field, pole_depth(u) + 4, rng)
        sym, cert = residue_vector(LocalSymbolInput(u, alpha), with_certificate=True)
        lift = cert["lift"]
        p = field.p
        for j in range(n):
            ghost = lift.zero()
            for i in range(j + 1):
                ghost = ghost + (p**i) * cert["digits"][i] ** (p ** (j - i))
            assert ghost == cert["residues"][j], (field.p, n, j)
        assert sym.ring == field


def test_ghost_inversion_failure_is_loud():
    lift = lift_ring(2, 4)
    from wittram.localsym import _exact_p_division

    with pytest.raises(GhostInversionFailure):
        _exact_p_division(lift.from_int(6), 2, lift)
    assert _exact_p_division(lift.from_int(12), 2, lift) == lift.from_int(3)


def test_vanishing_and_sharp_witness_depth_one():
    # u = a/s^3 over F_2: symbols die above order 3 and a witness sits at 3
    u = WittVector((_mono(F2, -3, F2.one()),))
    report = modulus_vanishing_test(u, 3, trials=25, rng=random.Random(23))
    assert report["trials"] == 25
    assert report["witness_found"]
    alpha, sym = report["witness"]
    assert not sym.is_zero()
    assert (alpha - _mono(F2, 0, 1)).valuation() == 3


def test_vanishing_and_sharp_witness_depth_two():
    u = WittVector((_mono(F2, -3, F2.one()), TLS.zero(F2)))
    report = modulus_vanishing_test(u, 6, trials=15, rng=random.Random(29))
    assert report["witness_found"]
    _alpha, sym = report["witness"]
    # the order-6 witness shows up one digit deep, not in the first slot
    assert sym.entries[0].is_zero()
    assert not sym.entries[1].is_zero()


def test_vanishing_failure_below_true_bound():
    u = WittVector((_mono(F3, -2, F3.one()),))
    with pytest.raises(VanishingFailure):
        modulus_vanishing_test(u, 1, trials=40, rng=random.Random(31))


def test_probe_needs_a_trial_and_a_positive_bound():
    u = WittVector((_mono(F2, -3, 1),))
    for trials, bound in ((0, 3), (-5, 3), (5, 0)):
        with pytest.raises(ValueError):
            modulus_vanishing_test(u, bound, trials=trials)


def test_two_term_alpha_pairs_like_its_first_term():
    # 1 + c s^M + c2 s^(M+1) is (1 + c s^M) times a unit of U^(M+1), which
    # pairs to zero at M = pole_depth(u); this is why the probe's witness
    # search needs only single-term candidates
    rng = random.Random(37)
    for field in (F2, F3, F4, F5):
        one = _mono(field, 0, 1)
        for n in (1, 2):
            for _ in range(3):
                u = _random_pole_vector(field, n, 3, rng)
                M = pole_depth(u)
                c, c2 = random_unit(field, rng), random_unit(field, rng)
                single = one + _mono(field, M, c)
                pair = single + _mono(field, M + 1, c2)
                assert residue_vector(LocalSymbolInput(u, pair)) == residue_vector(
                    LocalSymbolInput(u, single)
                ), (field.p, field.f, n)


@pytest.mark.parametrize("field, q", [(F2, 2), (F4, 4)])
def test_probe_without_witness_tries_each_unit_once(field, q):
    # u = 1/s pairs to zero with every 1 + c s^3, so the search tries the
    # q - 1 single-term candidates and stops
    u = WittVector((_mono(field, -1, 1),))
    report = modulus_vanishing_test(u, 3, trials=5, rng=random.Random(43))
    assert not report["witness_found"] and report["witness"] is None
    assert report["witness_attempts"] == q - 1


def test_probe_forms_ghost_components_once(monkeypatch):
    calls = []
    ghost_series = localsym.ghost_series

    def counted(u_lifts, j):
        calls.append(j)
        return ghost_series(u_lifts, j)

    monkeypatch.setattr(localsym, "ghost_series", counted)
    rng = random.Random(47)
    for field, n in [(F2, 1), (F3, 2), (F4, 2), (F2, 3)]:
        calls.clear()
        u = _random_pole_vector(field, n, 3, rng)
        modulus_vanishing_test(u, pole_depth(u), trials=10, rng=rng)
        assert calls == list(range(n)), (field.p, field.f, n)


@pytest.mark.parametrize(
    "p, f, nu", [(2, 1, (3,)), (2, 2, (3, 1)), (3, 1, (2, 1)), (3, 2, (4,)), (5, 1, (1, 2))]
)
def test_probe_witness_symbol_is_its_residue_vector(p, f, nu):
    datum = CoverDatum.from_orders(p, len(nu), f, list(nu))
    u = WittVector(datum.entries)
    bound = theorem_conductor(p, len(nu), nu)["M"]
    report = modulus_vanishing_test(u, bound, trials=5, rng=random.Random(53))
    assert report["witness_found"]
    alpha, sym = report["witness"]
    assert sym == residue_vector(LocalSymbolInput(u, alpha))


def test_extension_field_symbols_use_full_field():
    # over F_4 the symbol can land outside the prime field
    g = F4.gen()
    u = WittVector((_mono(F4, -1, g), TLS.zero(F4)))
    one = _mono(F4, 0, 1)
    alpha = one - _mono(F4, 1, F4.one())
    sym = residue_vector(LocalSymbolInput(u, alpha))
    assert sym.ring == F4
    assert sym.entries[0] == -g
    assert len(nonzero_elements(F4)) == 3


def test_canonical_lift_round_trip():
    rng = random.Random(41)
    lift = lift_ring(3, 4)
    s = random_unit_series(F3, 6, rng)
    lifted = canonical_lift(s, lift)
    assert lifted.ring is lift
    assert lifted.prec == s.prec
    assert [int(c[0]) % 3 for c in lifted.coeffs] == [int(c[0]) for c in s.coeffs]


def test_ghost_series_matches_hand_expansion():
    lift = lift_ring(2, 4)
    u0 = TLS.monomial(lift, -1, 1)
    u1 = TLS.monomial(lift, -2, 1)
    g1 = ghost_eval(WittVector((u0, u1)), 1)
    # u_0^2 + 2 u_1 = s^-2 + 2 s^-2 = 3 s^-2
    assert (g1 - TLS.monomial(lift, -2, 3)).is_exact_zero()


@pytest.mark.parametrize(
    "field, n",
    [(F, n) for F in (F2, F3, F4, F5, F9, F8) for n in (1, 2, 3)],
    ids=lambda x: repr(x),
)
def test_window_pairing_matches_series_reference(field, n):
    # alphas: finite and exact, leads 1 and not 1, v(alpha') from 0 up to
    # past D (no dlog row meets a pole), under canonical and perturbed lifts
    rng = random.Random(71 + 10 * field.q + n)
    for _ in range(2):
        u = _random_pole_vector(field, n, 2, rng)
        D = pole_depth(u)
        lift = lift_ring(field.p, 2 * n + 2, field.f)
        one = _mono(field, 0, 1)
        alphas = [random_unit_series(field, D + 3, rng)]
        for k in sorted({1, 2, max(1, D // 2), D, D + 1}):
            c = random_unit(field, rng)
            alphas.append(one + _mono(field, k, c) + _mono(field, k + 2, random_unit(field, rng)))
        alphas.append(_mono(field, 0, random_unit(field, rng)) + _mono(field, 1, 1))
        for alpha in alphas:
            lifts = [("canonical", [canonical_lift(s, lift) for s in u], canonical_lift(alpha, lift))]
            lifts.append(
                ("perturbed", [perturbed_lift(s, lift, rng) for s in u], perturbed_lift(alpha, lift, rng))
            )
            for how, u_lifts, alpha_lift in lifts:
                sym, cert = symbol_from_lifts(u_lifts, alpha_lift, field)
                want, residues = _series_pairing(u_lifts, alpha_lift.truncate(D + 2))
                assert (sym, cert["residues"]) == (want, residues), (how, alpha)
            assert residue_vector(LocalSymbolInput(u, alpha)) == sym


def test_rows_the_residue_cannot_know_are_refused():
    # u_0 = s^-2 + O(1) makes Phi_1 = u_0^3 + 3 u_1 known only below s^-4:
    # a residue reading it there is refused, one reading only s^-6, s^-5
    # is exact
    u = WittVector((TLS.from_terms(F3, [(-2, 1)], prec=0), TLS.zero(F3)))
    one = _mono(F3, 0, 1)
    with pytest.raises(InsufficientPrecision):
        residue_vector(LocalSymbolInput(u, one + _mono(F3, 1, 1)))
    assert residue_vector(LocalSymbolInput(u, one + _mono(F3, 5, 1))).is_zero()
    assert residue_vector(LocalSymbolInput(u, one + _mono(F3, 6, 1))).entries[1] == 2
    # u = 1/s^3 reads alpha up to s^3, and alpha must be a unit
    u = WittVector((_mono(F2, -3, 1),))
    alpha = _mono(F2, 0, 1) + _mono(F2, 1, 1)
    with pytest.raises(InsufficientPrecision):
        residue_vector(LocalSymbolInput(u, alpha.truncate(3)))
    assert residue_vector(LocalSymbolInput(u, alpha.truncate(4))) == residue_vector(
        LocalSymbolInput(u, alpha)
    )
    lift = lift_ring(2, 4)
    with pytest.raises(ValueError, match="unit"):
        symbol_from_lifts([canonical_lift(u[0], lift)], TLS.monomial(lift, 1, 1), F2)


def test_wrong_inverse_row_is_caught(monkeypatch):
    inv_root = series_mod._inv_root

    def wrong(ring, U, r, n):
        w = inv_root(ring, U, r, n).copy()
        w[-1, 0] = (w[-1, 0] + 1) % ring.modulus
        return w

    monkeypatch.setattr(series_mod, "_inv_root", wrong)
    u = WittVector((_mono(F3, -2, 1),))
    one = _mono(F3, 0, 1)
    with pytest.raises(ConsistencyFailure):
        residue_vector(LocalSymbolInput(u, one + _mono(F3, 1, 1)))
    # the trials pair in U^3 and invert nothing; the witness inverts one row
    with pytest.raises(ConsistencyFailure):
        modulus_vanishing_test(u, 2, trials=5, rng=random.Random(67))


@pytest.mark.parametrize(
    "field, u0, n, bound, generators",
    [(F2, -2, 1, 1, 1), (F4, -2, 1, 1, 3), (F3, -3, 1, 1, 4), (F2, -4, 1, 1, 3), (F2, -2, 2, 2, 2)],
    ids=repr,
)
def test_certificate_pairs_the_generators_above_the_bound(field, u0, n, bound, generators):
    # u = s^(u0) with u0 = -p^k is s^-1 modulo (F - 1)W, so its symbols die
    # above order p^(n-1) although its ghost poles reach p^(n-1)|u0|: the
    # probe pairs the q - 1 generators 1 + c t^k at each order in between
    u = WittVector((_mono(field, u0, 1),) + (TLS.zero(field),) * (n - 1))
    report = modulus_vanishing_test(u, bound, trials=10, rng=random.Random(73))
    assert report["certificate"] == {"pole_depth": pole_depth(u), "generators": generators}
    assert generators == (field.q - 1) * (pole_depth(u) - bound)
    assert report["witness_found"]


def test_certificate_catches_a_nonzero_generator():
    # 1/s^2 over F_3 has conductor 3: 1 + t^2 pairs to nonzero above bound 1
    u = WittVector((_mono(F3, -2, 1),))
    with pytest.raises(VanishingFailure, match=r"t\^2 above 1"):
        modulus_vanishing_test(u, 1, trials=5, rng=random.Random(79))


def test_trials_build_no_series_objects(monkeypatch):
    counts = []
    init = TLS.__init__

    def counted(self, *args, **kwargs):
        counts[-1] += 1
        init(self, *args, **kwargs)

    u = WittVector(CoverDatum.from_orders(3, 2, 1, [2, 1]).entries)
    monkeypatch.setattr(TLS, "__init__", counted)
    for trials in (5, 50):
        counts.append(0)
        modulus_vanishing_test(u, 6, trials=trials, rng=random.Random(59))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "p, f, nu, after",
    [
        (2, 2, (3, 1), 0.10186291162760164),
        (3, 1, (2, 1), 0.6168383011809137),
        (5, 2, (1,), 0.937723127649293),
    ],
)
def test_probe_draws_are_pinned(p, f, nu, after):
    # the trials draw from rng exactly as before the window route: one
    # randrange for the tail length, then f randrange(p) per term
    datum = CoverDatum.from_orders(p, len(nu), f, list(nu))
    bound = theorem_conductor(p, len(nu), nu)["M"]
    rng = random.Random(61)
    modulus_vanishing_test(WittVector(datum.entries), bound, trials=12, rng=rng)
    assert rng.random() == after
