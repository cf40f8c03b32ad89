"""Conductor closed form, lattice oracles, and pole-bound checks."""

import itertools
import random

import pytest

from wittram import conductor
from wittram import intpoly as ip
from wittram.conductor import (
    LatticeProblem,
    carry_pole_lp,
    claim_pole_check,
    lp_minimize,
    section_degree_oracle,
    sort_bound_check,
    theorem_conductor,
)
from wittram.errors import ConsistencyFailure, InfeasibleProblem
from wittram.tower import CoverDatum, build_tower
from wittram.witt import build_table

from oracles import box_scan, carry_pole_substituted_scan


def test_theorem_conductor_frozen():
    r = theorem_conductor(2, 2, (3, 1))
    assert r["M"] == 6 and r["conductor"] == 7
    assert r["argmax"] == 0 and r["unique"]
    r = theorem_conductor(3, 3, (2, 1, 25))
    assert r["M"] == 25  # max{18, 3, 25}
    assert r["argmax"] == 2


def test_theorem_conductor_depth_one():
    for nu0 in (1, 3, 7):
        assert theorem_conductor(2, 1, (nu0,))["M"] == nu0


def test_theorem_conductor_validation():
    with pytest.raises(ValueError):
        theorem_conductor(2, 2, (4, 1))
    with pytest.raises(ValueError):
        theorem_conductor(2, 2, (0, 1))
    with pytest.raises(ValueError):
        theorem_conductor(2, 2, (3,))


def test_theorem_conductor_max_always_unique():
    # candidates p^(n-1-i) nu_i have distinct p-adic valuations
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5)
        nu = []
        for _ in range(n):
            v = rng.randrange(1, 30)
            while v % p == 0:
                v += 1
            nu.append(v)
        assert theorem_conductor(p, n, tuple(nu))["unique"]


def test_section_oracle_frozen():
    r = section_degree_oracle(2, 2, (3, 1))
    assert r["M"] == 6
    assert set(r["witnesses"]) == {(2, 0)}
    r = section_degree_oracle(2, 2, (1, 5))
    assert r["M"] == 5
    assert set(r["witnesses"]) == {(0, 1)}


def test_section_oracle_depth_one():
    assert section_degree_oracle(5, 1, (7,))["M"] == 7
    assert section_degree_oracle(5, 1, (7,))["witnesses"] == ((1,),)


def _full_box_oracle(p, n, nu):
    """Reference: scan the whole box 0 <= i_h <= p^(n-1-h) point by point."""
    best, witnesses = box_scan(
        [range(p ** (n - 1 - h) + 1) for h in range(n)],
        lambda point: sum(p**h * i_h for h, i_h in enumerate(point)) == p ** (n - 1),
        lambda point: sum(i_h * nu[h] for h, i_h in enumerate(point)),
        sense="max",
    )
    return {"M": best, "witnesses": witnesses}


def test_oracle_matches_full_box_scan():
    # the pruned enumeration finds the same optimum and every witness, in
    # the same order, as the plain scan of the box
    cases = 0
    for p in (2, 3, 5, 7):
        orders = [v for v in range(1, 10) if v % p]
        for n in (1, 2, 3):
            for nu in itertools.product(orders, repeat=n):
                assert section_degree_oracle(p, n, nu) == _full_box_oracle(p, n, nu), (p, nu)
                cases += 1
    assert cases == 1581


def test_orders_need_a_prime():
    for bad in (4, 1, 0, -3):
        with pytest.raises(ValueError, match="not prime"):
            theorem_conductor(bad, 1, (1,))
        with pytest.raises(ValueError, match="not prime"):
            section_degree_oracle(bad, 1, (1,))
    assert theorem_conductor(11, 2, (1, 1))["M"] == section_degree_oracle(11, 2, (1, 1))["M"] == 11


def test_oracle_matches_closed_form():
    rng = random.Random(17)
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 4)
        nu = []
        for _ in range(n):
            v = rng.randrange(1, 12)
            while v % p == 0:
                v += 1
            nu.append(v)
        nu = tuple(nu)
        assert section_degree_oracle(p, n, nu)["M"] == theorem_conductor(p, n, nu)["M"]


def test_monotone_in_each_order():
    base = theorem_conductor(3, 3, (2, 4, 5))["M"]
    assert theorem_conductor(3, 3, (7, 4, 5))["M"] >= base
    assert theorem_conductor(3, 3, (2, 8, 5))["M"] >= base
    assert theorem_conductor(3, 3, (2, 4, 10))["M"] >= base


# ---------- lattice programs ----------


def test_lp_frozen_carry_pole():
    # p=2, n=1, weight -3: only (a_0, b_0) = (1, 1) is feasible: value -9
    prob = carry_pole_lp(2, 1, (-3,))
    value, argmin = lp_minimize(prob)
    assert value == -9
    assert argmin == ((1, 1),)
    # matches the stated carry bound -(p^2 - p + 1) m with m = 3
    assert value == -(2**2 - 2 + 1) * 3


def test_lp_substituted_frozen():
    value, argmin = carry_pole_substituted_scan(2, 1, (-3,))
    assert value == -9
    # optimum sits at alpha_0 = p^2 - p + 1 = 3
    assert any(pt[0] == 3 for pt in argmin)


def test_lp_two_forms_agree_random():
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randrange(1, 3)
        w = tuple(rng.randrange(-9, 3) for _ in range(n))
        v1, _ = lp_minimize(carry_pole_lp(p, n, w))
        v2, _ = carry_pole_substituted_scan(p, n, w)
        assert v1 == v2, (p, n, w)


def test_lp_matches_box_scan_random():
    # the relaxation bound prunes only when every equality coefficient is
    # positive; mixed signs, both senses and ties all keep every optimizer
    rng = random.Random(43)
    pruned = 0
    for _ in range(400):
        k = rng.randrange(1, 5)
        obj = [rng.randrange(-6, 7) for _ in range(k)]
        eq = [rng.randrange(1, 5) if rng.random() < 0.6 else rng.randrange(-3, 5) for _ in range(k)]
        lower = [rng.randrange(-2, 2) for _ in range(k)]
        upper = [lo + rng.randrange(5) for lo in lower]
        rhs = rng.randrange(-5, 12)
        sense = rng.choice(("min", "max"))
        box = [range(lo, up + 1) for lo, up in zip(lower, upper)]
        want = box_scan(
            box,
            lambda x: sum(a * v for a, v in zip(eq, x)) == rhs,
            lambda x: sum(c * v for c, v in zip(obj, x)),
            sense,
        )
        prob = LatticeProblem(obj, eq, rhs, lower, upper, sense=sense)
        if want[0] is None:
            with pytest.raises(InfeasibleProblem):
                lp_minimize(prob)
        else:
            assert lp_minimize(prob) == want, prob
            pruned += min(eq) > 0
    assert pruned > 50


def test_lp_carry_pole_at_p7_height3():
    # the slot valuations of (7,3,(2,1,1)), whose box the pruned search
    # leaves almost unvisited: the optimum loads a_0, both optimizers kept
    value, argmin = lp_minimize(carry_pole_lp(7, 3, (-98, -602, -4202)))
    assert value == -234710
    assert argmin == ((336, 0, 1, 0, 0, 0), (342, 1, 0, 0, 0, 0))


def test_lp_degenerate_zero_box():
    prob = LatticeProblem((5, -2), (1, 1), 0, (0, 0), (0, 0))
    value, argmin = lp_minimize(prob)
    assert value == 0 and argmin == ((0, 0),)


def test_lp_infeasible():
    prob = LatticeProblem((1,), (2,), 3, (0,), (5,))
    with pytest.raises(InfeasibleProblem):
        lp_minimize(prob)
    with pytest.raises(InfeasibleProblem):
        LatticeProblem((1,), (1,), 0, (2,), (1,))


def test_lp_maximize_sense():
    # the section-degree program as a LatticeProblem, maximized
    p, n, nu = 2, 2, (3, 1)
    prob = LatticeProblem(
        nu, tuple(p**h for h in range(n)), p ** (n - 1),
        (0,) * n, tuple(p ** (n - 1 - h) for h in range(n)), sense="max",
    )
    value, argmin = lp_minimize(prob)
    assert value == 6 and argmin == ((2, 0),)


def test_lp_ties_collect_all_argmins():
    prob = LatticeProblem((1, 1), (1, 1), 3, (0, 0), (3, 3))
    value, argmin = lp_minimize(prob)
    assert value == 3
    assert set(argmin) == {(0, 3), (1, 2), (2, 1), (3, 0)}


def test_carry_pole_single_weight_extreme_vertex():
    # when only slot j carries (negative) weight, the optimum loads that
    # slot to its extreme vertex: a_j = p^(n-j) - 1, b_j = 1, giving value
    # -(p^(n-j+1) - p + 1) m, and the optimizer is unique
    for p, n, m in [(2, 1, 3), (2, 2, 4), (2, 3, 2), (3, 1, 2), (3, 2, 5)]:
        for j in range(n):
            w = tuple(-m if i == j else 0 for i in range(n))
            value, argmin = lp_minimize(carry_pole_lp(p, n, w))
            assert value == -(p ** (n - j + 1) - p + 1) * m, (p, n, j)
            point = argmin[0]
            assert point[2 * j] == p ** (n - j) - 1
            assert point[2 * j + 1] == 1
            value2, argmin2 = carry_pole_substituted_scan(p, n, w)
            assert value2 == value
            assert len(argmin2) == 1
            assert argmin2[0][2 * j] == p ** (n - j + 1) - p + 1
            assert argmin2[0][2 * j + 1] == 1


@pytest.mark.parametrize("p, top", [(2, 4), (3, 4), (5, 3), (7, 2)])
def test_carry_monomials_lie_in_the_program_box(p, top):
    # the premises of carry_pole_lp's weight argument, and the box it
    # licenses, on every monomial of c_n mod p; variable 2i is X_i, 2i+1 Y_i
    table = build_table(p, top + 1)
    for n in range(1, top + 1):
        prob = carry_pole_lp(p, n, [1] * n)
        cn = ip.p_mod(table.c[n], p)
        assert cn
        for key in cn:
            point = ip.unpack(key, 2 * n)  # raises on a slot >= n
            assert sum(p ** (v // 2) * e for v, e in enumerate(point)) == p**n
            assert any(point[1::2]), (p, n, point)  # c_n(X, 0) = 0
            assert any(point[0::2]), (p, n, point)  # c_n(0, Y) = 0
            assert all(lo <= e <= hi for lo, e, hi in zip(prob.lower, point, prob.upper))


# ---------- bounds on built towers ----------


def test_sort_bounds_strict_case():
    tw = build_tower(CoverDatum.from_orders(2, 2, 1, (3, 1)))
    rep = sort_bound_check(tw)
    assert len(rep["stage_bounds"]) == 2
    lvl1 = rep["stage_bounds"][1]
    assert lvl1["v_y"] == -9 and lvl1["bound"] == -12
    assert not lvl1["equality"] and not lvl1["equality_expected"]


def test_sort_bounds_equality_case():
    tw = build_tower(CoverDatum.from_orders(2, 2, 1, (1, 5)))
    rep = sort_bound_check(tw)
    lvl1 = rep["stage_bounds"][1]
    assert lvl1["v_y"] == -10 and lvl1["bound"] == -10
    assert lvl1["equality"] and lvl1["equality_expected"]


def test_sort_bounds_depth_one():
    tw = build_tower(CoverDatum.from_orders(3, 1, 1, (2,)))
    rep = sort_bound_check(tw)
    assert len(rep["stage_bounds"]) == 1
    assert rep["stage_bounds"][0]["equality"]  # m_1 = nu_0 at the base


def test_sort_bounds_program_bound_is_checked(monkeypatch):
    # a program bound one above the observed carry valuation must raise
    tw = build_tower(CoverDatum.from_orders(2, 2, 1, (1, 3)))
    observed = sort_bound_check(tw)["carry_bound"]["valuation_lower_bound"]
    monkeypatch.setattr(conductor, "lp_minimize", lambda prob: (observed + 1, ()))
    with pytest.raises(ConsistencyFailure, match="program bound"):
        sort_bound_check(tw)


def test_claim_pole_frozen():
    tw = build_tower(CoverDatum.from_orders(2, 2, 1, (3, 1)))
    recs = claim_pole_check(tw)
    assert [r["pole"] for r in recs] == [3, 9]
    assert recs[1]["M"] == 6  # p^1 * 6 - mu_1 = 12 - 3 = 9


def test_claim_pole_nu_dominant():
    tw = build_tower(CoverDatum.from_orders(2, 2, 1, (1, 5)))
    recs = claim_pole_check(tw)
    assert recs[1]["M"] == 5 and recs[1]["pole"] == 2 * 5 - 1
