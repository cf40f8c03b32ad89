"""Tower construction: stage solving, conjugates, filtration, invariants."""

import functools
import hashlib
import math
import random
import sys

import numpy as np
import pytest

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
    CoverDatum,
    HerbrandPhi,
    RamificationFiltration,
    TowerStage,
    analyze_tower,
    build_tower,
    conductor_exponent,
    extend_stage,
    galois_conjugate,
    group_element_coordinates,
    predicted_invariants,
    ramification_filtration,
    standard_form_reduce,
    tower_invariants,
)

from oracles import adjust_decompose
from randoms import random_series

F2 = finite_field(2, 1)
F3 = finite_field(3, 1)
F4 = finite_field(2, 2)


def build(p, n, nu, f=1):
    return build_tower(CoverDatum.from_orders(p, n, f, nu))


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
    phi = HerbrandPhi(filt)
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
    # v(ds/dt) reads past the rows the plan provides: the long tower has them
    tw = _long_tower(2, 1, (3,))
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
    increment = tower_mod._increment

    def shifted(tower, j, gbar):
        delta = increment(tower, j, gbar)
        if tuple(gbar[: j + 1]) == target:  # delta_(1,1) gains y_0^5
            delta = delta + tower.stages[j].y[0].pth_power()
        return delta

    monkeypatch.setattr(tower_mod, "_increment", shifted)
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
    # the oracle reads past the rows the plan provides: the long tower has them
    tw = _long_tower(2, 1, (3,))
    rng = random.Random(5)
    for v_s in (-1, 1, 3):
        x_base = random_series(F2, v_s, 10, rng)
        x = compose(x_base, tw.top.s)
        g, h, mu = adjust_decompose(tw, x)
        assert mu == 3
        assert h.valuation() == 2 * v_s + 3
        assert (g.pth_power() + h).agrees_with(x)


def test_adjust_decompose_two_stages():
    # the oracle reads past the rows the plan provides: the long tower has them
    tw = _long_tower(2, 2, (3, 1))
    rng = random.Random(11)
    x = compose(random_series(F2, 1, 8, rng), tw.top.s)
    g, h, mu = adjust_decompose(tw, x)
    assert mu == 15
    assert h.valuation() == 4 * 1 + 15


@pytest.mark.parametrize("nu, h1_zero", [((1, 1), True), ((1, 3), False)])
def test_y_is_ytilde_exactly_where_h_vanishes(nu, h1_zero):
    # y_j = ytilde_j + h_j(t_j): with h_j = 0 every stage stores the one
    # series for both, re-expanded once
    tw = build(2, 2, nu)
    assert tw.top.h_adj[1].is_exact_zero() is h1_zero
    for stage in tw.stages:
        for j in range(stage.level):
            assert (stage.y[j] is stage.ytilde[j]) is stage.h_adj[j].is_exact_zero(), (stage.level, j)
            assert stage.y[j].agrees_with(stage.ytilde[j] + compose(stage.h_adj[j], stage.t_embs[j]))


def test_adjust_decompose_rejects_divisible():
    tw = build(2, 1, (3,))
    x = compose(TLS.monomial(F2, 2, prec=14), tw.top.s)
    with pytest.raises(ValueError):
        adjust_decompose(tw, x)


# ---------- failure paths ----------


@pytest.mark.parametrize("window", [2, 3])
def test_plan_shortfall_raises_after_one_build(monkeypatch, window):
    # the plan is the only precision policy: a window below it is a plan
    # bug, raised as it is after one build, with no rebuild on a wider
    # plan.  Windows of 2 fail in the build, windows of 3 build and fail
    # in the filtration's first conjugate read.
    builds = []
    build_once = tower_mod.build_tower

    def counted(datum):
        builds.append(datum)
        return build_once(datum)

    monkeypatch.setattr(tower_mod, "_stage_budgets", lambda datum: [window] * datum.n)
    monkeypatch.setattr(tower_mod, "build_tower", counted)
    d = CoverDatum.from_orders(2, 2, 1, (3, 1))
    with pytest.raises(InsufficientPrecision) as raised:
        analyze_tower(d)
    assert len(builds) == 1
    with pytest.raises(InsufficientPrecision) as direct:
        ramification_filtration(build_once(d))
    assert str(raised.value) == str(direct.value)
    assert raised.value.__cause__ is None


@pytest.mark.parametrize("n", [0, -1])
def test_datum_rejects_nonpositive_height(n):
    with pytest.raises(ValueError, match="at least 1"):
        CoverDatum.from_orders(2, n, 1, ())
    with pytest.raises(ValueError, match="at least 1"):
        CoverDatum(2, n, F2, [])


@pytest.mark.parametrize("nu", [(3, 1), (6, 9)])
def test_plan_first_attempt_p7(nu):
    # p = 7: the conjugates must resolve i(g) <= e_2 + 1 at the top, and
    # the plan must provide it with no retry
    d = CoverDatum.from_orders(7, 2, 1, nu)
    tw, filt, rep = analyze_tower(d)
    m, e, mu = predicted_invariants(7, 2, nu)
    assert tw.top.e == e
    assert rep["different_chain_rule"] == rep["different"] == mu[2] + 48
    assert filt.breaks == tuple(e[1:])
    assert rep["conductor"] == m[2] + 1


def test_plan_covers_the_conjugate_read():
    for p, n, nu in [(2, 3, (7, 9, 9)), (3, 2, (5, 7)), (5, 3, (2, 1, 1))]:
        d = CoverDatum.from_orders(p, n, 1, nu)
        _m, e, _mu = predicted_invariants(p, n, nu)
        # the top window covers the conjugate read e_n + 2
        assert tower_mod._stage_budgets(d)[-1] >= e[n] + 2


@pytest.mark.parametrize(
    "p, n, nu, windows",
    [
        (2, 2, (3, 1), [6, 15]),
        (5, 3, (2, 1, 1), [91, 432, 1296]),
        (7, 2, (3, 1), [29, 155]),
    ],
)
def test_plan_windows_pinned(p, n, nu, windows):
    # the plan is the net's requirement, set by the jumps and the
    # certificates with no margin on top
    d = CoverDatum.from_orders(p, n, 1, nu)
    assert tower_mod._stage_budgets(d) == windows


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


# the windows the plan gave while the chain-rule different read v(T') off
# each stage map T itself, which asked for (p-1)(e+1) rows of it, and
# (2, 1, (3,)) on the window of the plan's binary power rule
LONG_WINDOWS = {
    (2, 1, (3,)): [6],
    (2, 2, (3, 1)): [12, 22],
    (5, 3, (2, 1, 1)): [229, 1124, 4758],
    (7, 2, (3, 1)): [131, 871],
    (7, 2, (6, 9)): [251, 1710],
    (3, 2, (2, 1)): [17, 44],
    (5, 2, (1, 1)): [27, 113],
    (7, 2, (1, 1)): [51, 312],
    (3, 3, (8, 8, 7)): [178, 527, 1238],
}


@functools.lru_cache(maxsize=None)
def _long_tower(p, n, nu, f=1):
    """The tower of the datum built stage by stage on its LONG_WINDOWS;
    shared between tests, which must not change it."""
    d = CoverDatum.from_orders(p, n, f, nu)
    stages = [TowerStage(d)]
    for window in LONG_WINDOWS[p, n, nu]:
        stages.append(extend_stage(stages[-1], window))
    return tower_mod.Tower(d, stages)


@pytest.mark.parametrize(
    "p, n, nu, f, digest",
    [
        (2, 2, (3, 1), 1, "985b227d7bbc42064d57948fdbc2b7279e80225ede034874fc7bf66bf158e82d"),
        (5, 3, (2, 1, 1), 1, "82fb3a93bd47849c801ed0271947f81fa1d13e63227777d6a18e8affdb691ea8"),
        (7, 2, (6, 9), 1, "d5a6dd8396d817b5f942847f73ef972a49731ee6cb795dd112dad18ebfe75a4b"),
        (3, 2, (2, 1), 2, "66c518aa046e405811bc103b70a7e757878025ccce77ba1064a2acc7687aacbc"),
        (5, 2, (1, 1), 2, "ccfc66f6579c743311201f12f9ae70e4ce0a247d77d2139d95817bb20b150c71"),
        (7, 2, (1, 1), 2, "f85062bd02a4a1cdd9154354e80adc50033d57848288ff1c3b3d0066f3f18483"),
    ],
)
def test_stage_maps_pinned(p, n, nu, f, digest):
    # SHA-256 over (v, prec) and the int64 rows of every stage's T and Y on
    # the long windows, as recorded with the linearly converging solver:
    # the window fixes the root
    assert _stage_map_digest(_long_tower(p, n, nu, f)) == digest


@pytest.mark.parametrize(
    "p, n, nu, f, digest",
    [
        (2, 2, (3, 1), 1, "88b0afcd89eaff0026b42f4252d9971dd970c5fd6d6f84a4f7dfbe7b489fd3d8"),
        (5, 3, (2, 1, 1), 1, "175169a7f418866e93e04ebd024b6130ed3ae682178dd921204638639924094a"),
        (7, 2, (6, 9), 1, "f225a8446a428bb1e0501a8d4ddbc1ab93f2bcd22e7605722bcf8a9261907780"),
        (3, 2, (2, 1), 2, "63a8070cc9f6e2a04fc1d4c57639d0c7c2e33d113d211e875b402da075063a5d"),
        (5, 2, (1, 1), 2, "cca4c1813958a06892ffe0d662a0a605a40f81a498469c445fd9bb3e0b2c001d"),
        (7, 2, (1, 1), 2, "80de4e5ba5159f151decff28be8fd8eccb70f8f9e17c3a156c582d5cf8fa256a"),
    ],
)
def test_plan_stage_maps_pinned(p, n, nu, f, digest):
    # the planned stage maps are the long ones cut to their rows; the
    # digests were recorded by cutting the long maps to the planned (v, prec)
    tw, long = build(p, n, nu, f), _long_tower(p, n, nu, f)
    for i in range(n):
        for got, ref in [
            (tw.stages[i + 1].t_embs[i], long.stages[i + 1].t_embs[i]),
            (tw.stages[i + 1].ytilde[i], long.stages[i + 1].ytilde[i]),
        ]:
            assert (got.v, got.prec) == (ref.v, min(got.prec, ref.prec))
            assert np.array_equal(got.coeffs, ref.truncate(got.prec).coeffs)
    assert _stage_map_digest(tw) == digest


@pytest.mark.parametrize("p, n, nu", [(5, 3, (2, 1, 1)), (7, 2, (3, 1)), (3, 3, (8, 8, 7))])
def test_literal_derivative_oracle(p, n, nu):
    # on the long windows T' shows its lead, v(dT/dtau) = (p-1)(e+1); the
    # report reads the same valuation off -Y' = z'(T) T' instead
    tw = _long_tower(p, n, nu)
    D = 0
    for i in range(n):
        st = tw.stages[i + 1]
        literal = st.t_embs[i].derivative().valuation()
        identity = st.ytilde[i].derivative().valuation() - st.z_std[i].derivative().valuation() * p
        assert literal == identity == (p - 1) * (tw.top.e[i + 1] + 1)
        D = p * D + literal
    rep = tower_invariants(tw)
    assert rep["different_chain_rule"] == D == rep["different"]
    assert tower_invariants(build(p, n, nu))["different_chain_rule"] == D


def test_planned_stage_map_hides_its_derivative():
    # the planned top window is short of (p-1)(e+1): T' has no visible lead
    # there, and the report still reads the chain-rule different
    tw = build(7, 2, (3, 1))
    with pytest.raises(InsufficientPrecision, match="no visible leading term"):
        tw.stages[2].t_embs[1].derivative().valuation()
    rep = tower_invariants(tw)
    assert rep["different_chain_rule"] == rep["different"] == 7 * 6 * 4 + 6 * 130


def test_chain_rule_refuses_shifted_generator():
    # one extra pole row on Y moves v(Y') and with it the chain-rule mu
    tw = build(5, 2, (1, 1))
    Y = tw.top.ytilde[1]
    tw.top.ytilde[1] = Y.shift(-1)
    with pytest.raises(ConsistencyFailure, match="chain-rule mu"):
        tower_invariants(tw)


def test_chain_rule_needs_the_lead_of_the_generator():
    # a Y cut below its lead leaves Y' with no visible lead: no guess
    tw = build(5, 2, (1, 1))
    Y = tw.top.ytilde[1]
    tw.top.ytilde[1] = Y.truncate(Y.v)
    with pytest.raises(InsufficientPrecision, match="no visible leading term"):
        tower_invariants(tw)


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
    for window in tower_mod._stage_budgets(d):
        calls.clear()
        stage = extend_stage(stage, window)
        assert 1 <= len(calls) <= math.ceil(math.log2(window)) + 2, (window, len(calls))


def test_wrong_derivative_is_refused(monkeypatch):
    # a z'(T) off by a unit factor makes every step gain nothing; the
    # schedule still ends, and the certificate refuses the last T.  The
    # datum's window of 12 needs at least one Newton step; over F_4 the
    # factor can be a unit other than 1.  build_tower differentiates only
    # z_std, for the Newton steps
    derivative = TLS.derivative
    d = CoverDatum.from_orders(2, 1, 2, (9,))
    omega = d.ring.from_coords([0, 1])

    def scaled(self):
        return derivative(self).scalar_mul(omega)

    monkeypatch.setattr(TLS, "derivative", scaled)
    calls = _count_residuals(monkeypatch)
    (window,) = tower_mod._stage_budgets(d)
    assert window == 12
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
    # root is still refused by the stage solver's own relation certificates.
    # The solver starts each root from the rows of the last one it was
    # given, so the stand-in starts cold: a corrupted start would be refused
    # by inv_root's own certificate before Y is read
    inv_root = TLS.inv_root

    def corrupted(self, r, start=None):
        w = inv_root(self, r)
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
