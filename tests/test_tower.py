"""Tower construction: stage solving, conjugates, filtration, invariants."""

import hashlib
import math
import random
import sys

import pytest

from wittram import intpoly as ip
from wittram import tower as tower_mod
from wittram.coeff import finite_field
from wittram.errors import (
    ConsistencyFailure,
    InsufficientPrecision,
    NonTotallyRamified,
)
from wittram.series import TruncatedLaurentSeries as TLS
from wittram.series import compose
from wittram.tower import (
    DEFAULT_BUDGET_FACTOR,
    CoverDatum,
    HerbrandPhi,
    RamificationFiltration,
    TowerStage,
    analyze_tower,
    budget_factor,
    build_tower,
    conductor_exponent,
    extend_stage,
    galois_conjugate,
    group_element_coordinates,
    herbrand_phi,
    predicted_invariants,
    ramification_filtration,
    standard_form_reduce,
    tower_invariants,
)
from wittram.witt import xvar

from oracles import adjust_decompose
from randoms import random_series

F2 = finite_field(2, 1)
F3 = finite_field(3, 1)
F4 = finite_field(2, 2)


def build(p, n, nu, f=1, factor=None):
    d = CoverDatum.from_orders(p, n, f, nu)
    return build_tower(d, factor=factor)


# ---------- datum validation ----------


def test_datum_rejects_divisible_pole():
    with pytest.raises(ValueError):
        CoverDatum.from_orders(2, 1, 1, (4,))
    with pytest.raises(ValueError):
        CoverDatum.from_orders(3, 2, 1, (2, 6))


def test_datum_rejects_regular_entry():
    one = TLS.monomial(F2, 0)
    with pytest.raises(ValueError):
        CoverDatum(2, 1, F2, [one])


def test_datum_shorthand_orders():
    d = CoverDatum.from_orders(5, 2, 1, (3, 7))
    assert d.nu == (3, 7)
    assert d.entries[0].valuation() == -3


# ---------- standard form reduction ----------


def test_standard_form_p2_square_pole():
    # t^-2 = (t^-1)^2 - t^-1 + t^-1: reduction leaves the odd pole
    z = TLS.monomial(F2, -2)
    zs, h = standard_form_reduce(z)
    assert zs.valuation() == -1
    assert h.terms() == [(-1, F2.one())]
    assert (z - zs).agrees_with(h.pth_power() - h)


def test_standard_form_p3_iterates():
    # t^-9 + t^-1 strips twice: pole 9 -> 3 -> already prime... p=3: 9 -> 3 -> 1
    z = TLS.monomial(F3, -9) + TLS.monomial(F3, -1)
    zs, h = standard_form_reduce(z)
    assert zs.valuation() == -1
    assert (z - zs).agrees_with(h.pth_power() - h)
    assert h.valuation() == -3


def test_standard_form_rejects_regular():
    z = TLS.monomial(F2, 2) + TLS.monomial(F2, 5)
    with pytest.raises(NonTotallyRamified):
        standard_form_reduce(z)


def test_standard_form_exact_image_splits():
    # t^-2 + t^-1 = h^2 - h for h = t^-1 over F_2: nothing survives
    z = TLS.monomial(F2, -2) + TLS.monomial(F2, -1)
    with pytest.raises(NonTotallyRamified):
        standard_form_reduce(z)


def test_standard_form_window_undecidable():
    # same datum on a finite window: the zero tail cannot be certified
    z = (TLS.monomial(F2, -2) + TLS.monomial(F2, -1)).truncate(6)
    with pytest.raises(InsufficientPrecision):
        standard_form_reduce(z)


def test_standard_form_random_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice((2, 3))
        F = finite_field(p, rng.choice((1, 2)))
        v = -rng.randrange(1, 15)
        z = random_series(F, v, 20, rng)
        try:
            zs, h = standard_form_reduce(z)
        except NonTotallyRamified:
            continue
        assert (-zs.valuation()) % p != 0
        assert (z - zs).agrees_with(h.pth_power() - h)


# ---------- frozen two-stage tower, p = 2, nu = (3, 1) ----------


@pytest.fixture(scope="module")
def tower_31():
    return build(2, 2, (3, 1))


def test_invariant_families(tower_31):
    top = tower_31.top
    assert top.m == [0, 3, 6]
    assert top.e == [0, 3, 9]
    assert top.mu == [0, 3, 15]


def test_embedding_valuations(tower_31):
    top = tower_31.top
    assert top.s.valuation() == 4
    assert top.ytilde[0].valuation() == -6  # -p * e_1
    assert top.ytilde[1].valuation() == -9  # -e_2
    assert top.t_embs[1].valuation() == 2


def test_relations_on_window(tower_31):
    top = tower_31.top
    for j in range(2):
        lhs = top.ytilde[j].pth_power() - top.ytilde[j]
        rhs = compose(top.z_std[j], top.t_embs[j])
        assert lhs.agrees_with(rhs)


def test_filtration_frozen(tower_31):
    filt = ramification_filtration(tower_31)
    assert filt.breaks == (3, 9)
    assert filt.different == 18
    assert filt.segments() == [(0, 3, 4), (4, 9, 2), (10, None, 1)]
    # order-4 generators jump at 4, the order-2 element at 10
    assert sorted(filt.jumps) == [(2, 10, 1), (4, 4, 2)]


def test_transition_function_frozen(tower_31):
    filt = ramification_filtration(tower_31)
    phi = herbrand_phi(filt)
    assert phi(3) == 3
    assert phi(9) == 6
    assert phi(4) == 3.5
    assert conductor_exponent(filt) == 7


def test_invariant_report_frozen(tower_31):
    filt = ramification_filtration(tower_31)
    rep = tower_invariants(tower_31, filt)
    assert rep["different"] == rep["different_chain_rule"] == 18
    assert rep["conductor"] == 7
    assert rep["relative_different_1"] == 9  # mu_2 - p * mu_1


def test_conjugates_by_order_class(tower_31):
    t_top = tower_31.top.t_embs[2]
    vals = {}
    for g in range(1, 4):
        sig = galois_conjugate(tower_31, g)
        vals[g] = (sig - t_top).valuation()
    assert vals[1] == vals[3] == 4
    assert vals[2] == 10


def test_conjugate_of_identity(tower_31):
    sig = galois_conjugate(tower_31, 0)
    assert (sig - tower_31.top.t_embs[2]).is_exact_zero() or not len(
        (sig - tower_31.top.t_embs[2]).coeffs
    )


def test_group_coordinates():
    assert group_element_coordinates(2, 3, 1) == (1, 0, 0)
    assert group_element_coordinates(2, 3, 2) == (0, 1, 0)
    # 3 = (3, -3, -24) over the integers (ghost (3,3,3)), reduced mod 2
    assert group_element_coordinates(2, 3, 3) == (1, 1, 0)
    # -1 has constant coordinates (-1, -1, ...): 7 = -1 mod 8
    assert group_element_coordinates(2, 3, 7) == (1, 1, 1)
    assert group_element_coordinates(3, 2, 3) == (0, 1)


# ---------- single-stage examples ----------


def test_single_stage_p2_nu1():
    tw = build(2, 1, (1,))
    top = tw.top
    assert top.e == [0, 1]
    assert top.s.valuation() == 2
    # s = t^2 * unit and y has a simple pole
    assert top.ytilde[0].valuation() == -1
    filt = ramification_filtration(tw)
    assert filt.breaks == (1,)
    assert conductor_exponent(filt) == 2


def test_single_stage_p2_nu3_chain_rule():
    tw = build(2, 1, (3,))
    rep = tower_invariants(tw)
    assert rep["m"] == (3,) and rep["mu"] == (3,)
    assert rep["different_chain_rule"] == 4
    # v(ds/dt) = (p-1)(e+1)
    dT = tw.stages[1].t_embs[0].derivative()
    assert dT.valuation() == 4


def test_stage_equality_case_nu_equals_m():
    # nu = (1, 5): the adjustment pole h hits the bound exactly
    tw = build(2, 2, (1, 5))
    top = tw.top
    assert top.m == [0, 1, 5]
    assert top.e == [0, 1, 9]
    v_y1 = top.y[1].valuation()
    assert v_y1 == -2 * 5  # equality at -p * m_2
    # strict inequality case: nu = (3, 1) has v(y_1) = -9 > -12
    tw2 = build(2, 2, (3, 1))
    assert tw2.top.y[1].valuation() == -9 > -2 * tw2.top.m[2]


def test_unit_relation_exponents(tower_31):
    # e_1 = 3, p = 2: -a*3 + 2b = 1 with minimal a = 1, b = 2
    assert tower_31.top.bezout[0] == (1, 2)
    # e_2 = 9: -9a + 2b = 1: a = 1, b = 5
    assert tower_31.top.bezout[1] == (1, 5)


def test_predicted_invariants_match_built():
    for p, n, nu in [(2, 2, (3, 1)), (3, 2, (2, 7)), (2, 3, (3, 1, 1))]:
        m, e, mu = predicted_invariants(p, n, nu)
        tw = build(p, n, nu)
        assert tw.top.m == m and tw.top.e == e and tw.top.mu == mu


# ---------- odd p and deeper towers ----------


def test_p3_frozen_break():
    tw = build(3, 2, (2, 7))
    assert tw.top.e == [0, 2, 17]
    filt = ramification_filtration(tw)
    assert filt.breaks == (2, 17)
    rep = tower_invariants(tw, filt)
    assert rep["conductor"] == 8  # m_2 + 1


def test_depth_three_tower():
    tw = build(2, 3, (3, 1, 1))
    filt = ramification_filtration(tw)
    assert filt.breaks == (3, 9, 33)
    rep = tower_invariants(tw, filt)
    assert rep["different"] == 70
    assert rep["conductor"] == 13


# ---------- the increment route to i(g) ----------


@pytest.mark.parametrize(
    "p, n, nu, qualifies",
    [
        (5, 2, (3, 4), True),
        (5, 2, (1, 7), False),
        (2, 3, (3, 1, 5), False),
        (3, 3, (2, 4, 5), False),
    ],
)
def test_increment_route_matches_every_conjugate(p, n, nu, qualifies):
    # (5,2,(3,4)) reads i(g) off y_1 directly; v(y_(n-1)) of the others is
    # divisible by p, so their increments carry h(sigma t_(n-1)) - h(t_(n-1)).
    # The filtration reads one representative per order class; i(g) is the
    # same on the whole class, by either route
    tw = build(p, n, nu)
    assert (tw.top.y[n - 1].valuation() % p != 0) == qualifies
    filt = ramification_filtration(tw)
    by_order = {o: i_g for o, i_g, _m in filt.jumps}
    t_top = tw.top.t_embs[n]
    for g in range(1, p**n):  # every conjugate, built here
        i_g = (galois_conjugate(tw, g) - t_top).valuation()
        assert i_g == by_order[p**n // math.gcd(g, p**n)], g
        delta = tower_mod._increment(tw, n - 1, group_element_coordinates(p, n, g))
        assert tower_mod._increment_jump(tw, g, delta) == i_g, g


def _count_conjugates(monkeypatch):
    calls = []
    conjugate = tower_mod.galois_conjugate

    def counted(tower, g, level=None, top_increment=None):
        calls.append((g, level))
        return conjugate(tower, g, level, top_increment)

    monkeypatch.setattr(tower_mod, "galois_conjugate", counted)
    return calls


def test_filtration_builds_one_conjugate_per_class(monkeypatch):
    calls = _count_conjugates(monkeypatch)
    ramification_filtration(build(5, 2, (3, 4)))
    assert calls == [(5, None), (1, None)]  # n = 2 conjugates, not 24
    calls.clear()
    # the adjusted increments need sigma t_1 for the representative 1 only:
    # the representative 5 is 0 mod 5 and fixes t_1
    ramification_filtration(build(5, 2, (1, 7)))
    assert calls == [(5, None), (1, None), (1, 1)]


def test_adjusted_increment_reads_large_groups(monkeypatch):
    # (5,3,(1,3,2)) has order 125 and 5 | v(y_2): its increments carry
    # h(sigma t_2) - h(t_2), with n - 1 = 2 conjugates at level 2.  Built
    # for the wrong element, they move the increment readings alone
    tw = build(5, 3, (1, 3, 2))
    assert tw.top.y[2].valuation() % 5 == 0
    calls = _count_conjugates(monkeypatch)
    ramification_filtration(tw)
    assert [c for c in calls if c[1] == 2] == [(5, 2), (1, 2)]
    conjugate = tower_mod.galois_conjugate

    def corrupted(tower, g, level=None, top_increment=None):
        if level == 2:
            return conjugate(tower, g + 1, level)
        return conjugate(tower, g, level, top_increment)

    monkeypatch.setattr(tower_mod, "galois_conjugate", corrupted)
    with pytest.raises(ConsistencyFailure, match="its increment gives"):
        ramification_filtration(tw)


def test_shifted_increment_is_refused(monkeypatch):
    # one more pole in the increment of the representative g = 1 of order 25
    # moves both routes' readings, but not alike, and the filtration refuses it
    tw = build(5, 2, (3, 4))
    target = group_element_coordinates(5, 2, 1)
    delta_poly = tower_mod._delta_poly

    def shifted(p, i, gbar):
        poly = delta_poly(p, i, gbar)
        return ip.p_add(poly, {ip.var(xvar(0), p): 1}) if gbar == target else poly

    monkeypatch.setattr(tower_mod, "_delta_poly", shifted)
    with pytest.raises(ConsistencyFailure, match=r"order-p\^2 class"):
        ramification_filtration(tw)


def test_wrong_representative_is_refused_in_reps_mode(monkeypatch):
    # a conjugate built for the wrong element disagrees with the increment
    # route on the representative it stands for
    tw = build(5, 2, (3, 4))
    conjugate = tower_mod.galois_conjugate
    monkeypatch.setattr(
        tower_mod,
        "galois_conjugate",
        lambda tower, g, level=None, top_increment=None: conjugate(tower, g + 1, level),
    )
    with pytest.raises(ConsistencyFailure, match="the conjugate of 5 gives"):
        ramification_filtration(tw)


def test_extension_field_tower():
    tw = build(2, 2, (3, 1), f=2)
    filt = ramification_filtration(tw)
    assert filt.breaks == (3, 9)
    assert tower_invariants(tw, filt)["different"] == 18


def test_non_monomial_datum():
    # u_0 = s^-3 + s^-1 (same pole): identical invariants to the monomial
    u0 = TLS.monomial(F2, -3) + TLS.monomial(F2, -1)
    u1 = TLS.monomial(F2, -1)
    d = CoverDatum(2, 2, F2, [u0, u1])
    tw = build_tower(d)
    assert tw.top.e == [0, 3, 9]
    filt = ramification_filtration(tw)
    assert filt.different == 18


def test_datum_with_unit_tail():
    # adding a regular tail never changes the filtration
    u0 = TLS.monomial(F3, -2) + TLS.monomial(F3, 0) + TLS.monomial(F3, 3)
    u1 = TLS.monomial(F3, -7)
    d = CoverDatum(3, 2, F3, [u0, u1])
    tw = build_tower(d)
    assert tw.top.e == [0, 2, 17]


# ---------- adjustment decomposition ----------


def test_adjust_decompose_base_stage():
    tw = build(2, 1, (3,))
    rng = random.Random(3)
    x = random_series(F2, -1, 12, rng)
    g, h, mu = adjust_decompose(tw, x, level=0)
    assert mu == 0
    assert (g.pth_power() + h).agrees_with(x)


def test_adjust_decompose_stage_one():
    tw = build(2, 1, (3,))
    rng = random.Random(5)
    for v_s in (-1, 1, 3):
        x_base = random_series(F2, v_s, 10, rng)
        x = compose(x_base, tw.top.s)
        g, h, mu = adjust_decompose(tw, x)
        assert mu == 3
        assert h.valuation() == 2 * v_s + 3
        assert (g.pth_power() + h).agrees_with(x)


def test_adjust_decompose_two_stages():
    tw = build(2, 2, (3, 1))
    rng = random.Random(11)
    x = compose(random_series(F2, 1, 8, rng), tw.top.s)
    g, h, mu = adjust_decompose(tw, x)
    assert mu == 15
    assert h.valuation() == 4 * 1 + 15


def test_adjust_decompose_rejects_divisible():
    tw = build(2, 1, (3,))
    x = compose(TLS.monomial(F2, 2, prec=14), tw.top.s)
    with pytest.raises(ValueError):
        adjust_decompose(tw, x)


# ---------- failure paths ----------


def test_solver_budget_failure_recovers(monkeypatch):
    # the plan covers every read, so force a first attempt below it; the
    # last-resort retry doubles the factor and replans
    planned = tower_mod._stage_budgets
    calls = []

    def short_first(datum, factor):
        calls.append(factor)
        budgets = planned(datum, factor)
        return [w // 4 for w in budgets] if len(calls) == 1 else budgets

    monkeypatch.setattr(tower_mod, "_stage_budgets", short_first)
    tw, _filt, rep = analyze_tower(CoverDatum.from_orders(2, 2, 1, (3, 1)), factor=1)
    assert calls == [1, 2]
    assert tw.factor == 2
    assert tw.top.e == [0, 3, 9]
    assert rep["conductor"] == 7


def test_retry_budget_exhausted(monkeypatch):
    monkeypatch.setattr(tower_mod, "_stage_budgets", lambda datum, factor: [3] * datum.n)
    with pytest.raises(InsufficientPrecision, match="after 3 attempts") as info:
        analyze_tower(CoverDatum.from_orders(2, 2, 1, (3, 1)))
    # every attempt's factor and cause is kept, the last one as __cause__
    message = str(info.value)
    starts = [message.index(f"factor {k * DEFAULT_BUDGET_FACTOR}: ") for k in (1, 2, 4)]
    assert starts == sorted(starts)
    cause = info.value.__cause__
    assert isinstance(cause, InsufficientPrecision)
    assert message.endswith(f"factor {4 * DEFAULT_BUDGET_FACTOR}: {cause}")


@pytest.mark.parametrize("n", [0, -1])
def test_datum_rejects_nonpositive_height(n):
    with pytest.raises(ValueError, match="at least 1"):
        CoverDatum.from_orders(2, n, 1, ())
    with pytest.raises(ValueError, match="at least 1"):
        CoverDatum(2, n, F2, [])


@pytest.mark.parametrize("nu", [(3, 1), (6, 9)])
def test_plan_first_attempt_p7(nu):
    # p = 7 needs the top map T known past (p-1)(e_2+1); the plan must
    # provide it with no retry, at the default factor
    d = CoverDatum.from_orders(7, 2, 1, nu)
    tw, filt, rep = analyze_tower(d)
    assert tw.factor == DEFAULT_BUDGET_FACTOR
    m, e, mu = predicted_invariants(7, 2, nu)
    assert tw.top.e == e
    assert rep["different_chain_rule"] == rep["different"] == mu[2] + 48
    assert filt.breaks == tuple(e[1:])
    assert rep["conductor"] == m[2] + 1


def test_plan_reads_and_factor_monotone():
    for p, n, nu in [(2, 3, (7, 9, 9)), (3, 2, (5, 7)), (5, 3, (2, 1, 1))]:
        d = CoverDatum.from_orders(p, n, 1, nu)
        _m, e, _mu = predicted_invariants(p, n, nu)
        plan = tower_mod._stage_budgets(d, DEFAULT_BUDGET_FACTOR)
        # every stage map must show its derivative's leading term
        assert all(w >= (p - 1) * (e[i + 1] + 1) + 2 for i, w in enumerate(plan))
        wider = tower_mod._stage_budgets(d, 2 * DEFAULT_BUDGET_FACTOR)
        assert all(b >= a for a, b in zip(plan, wider)) and wider[-1] > plan[-1]


@pytest.mark.parametrize(
    "p, n, nu, windows",
    [
        (2, 2, (3, 1), [12, 22]),
        (5, 3, (2, 1, 1), [229, 1124, 4758]),
        (7, 2, (3, 1), [131, 871]),
    ],
)
def test_plan_windows_pinned(p, n, nu, windows):
    # the plan at the default factor, as recorded before the stage record
    # dropped its separate base-uniformizer series
    d = CoverDatum.from_orders(p, n, 1, nu)
    assert tower_mod._stage_budgets(d, DEFAULT_BUDGET_FACTOR) == windows


def test_budget_factor_rejects_nonpositive():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            budget_factor(bad)
    assert budget_factor(5) == 5


def test_stage_valuation_check_raises(monkeypatch):
    # the relations imply v(T) = p and v(Y) = -e; make the solver's own
    # final reading of v(T) disagree and the stage must be refused
    valuation = TLS.valuation

    def misread_T(self):
        caller = sys._getframe(1)
        v = valuation(self)
        if caller.f_code is tower_mod._solve_stage.__code__ and self is caller.f_locals.get("T"):
            return v + 1
        return v

    monkeypatch.setattr(TLS, "valuation", misread_T)
    with pytest.raises(ConsistencyFailure, match="stage solution"):
        build_tower(CoverDatum.from_orders(2, 1, 1, [3]))


def _stage_map_digest(tw):
    h = hashlib.sha256()
    for i in range(tw.n):
        stage = tw.stages[i + 1]
        for series in (stage.t_embs[i], stage.ytilde[i]):  # T and Y of stage i
            h.update(repr((series.v, series.prec)).encode())
            h.update(series.coeffs.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "p, n, nu, f, digest",
    [
        (2, 2, (3, 1), 1, "985b227d7bbc42064d57948fdbc2b7279e80225ede034874fc7bf66bf158e82d"),
        (5, 3, (2, 1, 1), 1, "82fb3a93bd47849c801ed0271947f81fa1d13e63227777d6a18e8affdb691ea8"),
        (7, 2, (6, 9), 1, "d5a6dd8396d817b5f942847f73ef972a49731ee6cb795dd112dad18ebfe75a4b"),
        (3, 2, (2, 1), 2, "66c518aa046e405811bc103b70a7e757878025ccce77ba1064a2acc7687aacbc"),
    ],
)
def test_stage_maps_pinned(p, n, nu, f, digest):
    # SHA-256 over (v, prec) and the int64 rows of every stage's T and Y, as
    # recorded with the linearly converging solver: the window fixes the root
    assert _stage_map_digest(build(p, n, nu, f)) == digest


def _count_residuals(monkeypatch):
    """Count the residuals the solver forms: each reads Y off one inverse
    root of its iterate T."""
    calls = []
    inv_root = TLS.inv_root

    def counted(*args, **kwargs):
        calls.append(1)
        return inv_root(*args, **kwargs)

    monkeypatch.setattr(TLS, "inv_root", counted)
    return calls


def test_stage_solver_residual_count(monkeypatch):
    # Newton with the full derivative doubles the right rows of T per step,
    # so a stage forms about log2(window) residuals, the certificate included
    calls = _count_residuals(monkeypatch)
    d = CoverDatum.from_orders(7, 3, 1, (1, 1, 1))
    stage = TowerStage(d)
    for window in tower_mod._stage_budgets(d, DEFAULT_BUDGET_FACTOR):
        calls.clear()
        stage = extend_stage(stage, window)
        assert 1 <= len(calls) <= math.ceil(math.log2(window)) + 2, (window, len(calls))


def test_wrong_derivative_is_refused(monkeypatch):
    # a derivative off by a unit factor makes every step gain nothing; the
    # schedule still ends, and the certificate refuses the last T
    derivative = TLS.derivative
    monkeypatch.setattr(TLS, "derivative", lambda self: derivative(self).scalar_mul(2))
    calls = _count_residuals(monkeypatch)
    d = CoverDatum.from_orders(5, 1, 1, (3,))
    (window,) = tower_mod._stage_budgets(d, DEFAULT_BUDGET_FACTOR)
    with pytest.raises(InsufficientPrecision, match=r"Y\^p - Y = z\(T\) fails"):
        build_tower(d)
    assert 1 <= len(calls) <= math.ceil(math.log2(window)) + 2


def test_lower_level_relation_is_checked():
    # a re-expanded generator of a level below the newest is re-verified
    st = build(2, 2, (3, 1)).top
    yt = st.ytilde[0]
    st.ytilde[0] = yt + TLS.monomial(F2, yt.v + 1, 1, yt.prec)
    with pytest.raises(ConsistencyFailure, match="level-0 relation fails at stage 2"):
        st.check_relations()


def test_newest_level_is_certified_by_the_solver(monkeypatch):
    # check_relations skips the newest level; a Y read off a wrong inverse
    # root is still refused by the stage solver's own relation certificates
    inv_root = TLS.inv_root

    def corrupted(self, r, start=None):
        w = inv_root(self, r, start)
        return w + TLS.monomial(w.ring, 1, 1, w.prec)

    monkeypatch.setattr(TLS, "inv_root", corrupted)
    for nu in [(3,), (1,)]:
        with pytest.raises((InsufficientPrecision, ConsistencyFailure), match="stage relation"):
            build_tower(CoverDatum.from_orders(5, 1, 1, nu))


def test_extend_past_end_rejected():
    tw = build(2, 1, (1,))
    with pytest.raises(ValueError):
        extend_stage(tw.top, 40)


def test_stage_zero_state():
    d = CoverDatum.from_orders(2, 2, 1, (3, 1))
    st = TowerStage(d)
    assert st.level == 0
    assert st.s is st.t_embs[0] and st.s.valuation() == 1
    with pytest.raises(AttributeError):
        st.s = st.t_embs[0]  # read-only: s is the first embedding
    assert st.m == [0] and st.e == [0] and st.mu == [0]
    st.check_relations()  # vacuous at the base


def test_filtration_segments_and_order():
    jumps = [(2, 10, 1), (4, 4, 2)]
    filt = RamificationFiltration(2, 2, jumps)
    assert filt.group_order(0) == 4
    assert filt.group_order(5) == 2
    assert filt.group_order(10) == 1
    phi = HerbrandPhi(filt)
    assert phi(12) == 6 + (12 - 9) * phi.tail_slope


# ---------- randomized consistency sweep ----------


def test_random_tower_sweep():
    rng = random.Random(20260815)
    cases = 0
    while cases < 8:
        p = rng.choice((2, 3))
        n = rng.choice((1, 2))
        nu = []
        for _ in range(n):
            v = rng.randrange(1, 10)
            if v % p == 0:
                v += 1
            nu.append(v)
        tw = build(p, n, tuple(nu))
        filt = ramification_filtration(tw)
        rep = tower_invariants(tw, filt)
        assert rep["conductor"] == rep["m"][-1] + 1
        cases += 1
