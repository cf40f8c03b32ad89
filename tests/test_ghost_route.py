"""Witt sums on series through ghost components, against the Witt polynomials
evaluated monomial by monomial (the reference route of tests/oracles.py)."""

import random
import sys

import pytest

from wittram import tower as tower_mod
from wittram import witt as witt_mod
from wittram.coeff import finite_field
from wittram.conductor import sort_bound_check
from wittram.errors import ConsistencyFailure
from wittram.series import TruncatedLaurentSeries as TLS
from wittram.tower import CoverDatum, analyze_tower, build_tower, group_element_coordinates
from wittram.witt import (
    WittVector,
    build_table,
    witt_add,
    witt_neg,
    witt_sum_component,
    xvar,
    yvar,
)

from oracles import asw_correction_poly, delta_poly, eval_on_series, witt_smul
from randoms import random_series, random_unit


def assert_same(got, want):
    """Equal on the overlap of the known windows, and in valuation."""
    assert got.agrees_with(want)
    assert got.has_certified_valuation() and want.has_certified_valuation()
    assert got.valuation() == want.valuation()


def random_datum(p, f, nu, rng):
    """Seeded non-monomial datum: a unit at s^-nu_i, random terms above it."""
    field = finite_field(p, f)
    entries = []
    for v in nu:
        tail = random_series(field, -v + 1, v + 2, rng, prec=3, unit_lead=False)
        entries.append(TLS.monomial(field, -v, random_unit(field, rng)) + tail)
    return CoverDatum(p, len(nu), field, entries)


GRID = {
    "2-3-(3,1,5)": CoverDatum.from_orders(2, 3, 1, [3, 1, 5]),
    "3-3-(2,4,5)": CoverDatum.from_orders(3, 3, 1, [2, 4, 5]),
    "5-2-(3,4)": CoverDatum.from_orders(5, 2, 1, [3, 4]),
    "7-2-(2,3)": CoverDatum.from_orders(7, 2, 1, [2, 3]),
    "F4-(3,1)": CoverDatum.from_orders(2, 2, 2, [3, 1]),
    "seeded-2-(3,1,5)": random_datum(2, 1, (3, 1, 5), random.Random(1)),
    "seeded-F9-(2,1)": random_datum(3, 2, (2, 1), random.Random(2)),
    "seeded-5-(1,3)": random_datum(5, 1, (1, 3), random.Random(3)),
}


@pytest.fixture(scope="module", params=list(GRID.values()), ids=list(GRID))
def tower(request):
    return build_tower(request.param)


def test_witt_sums_of_random_series_match_the_tables():
    # a + c - b, componentwise, on seeded series vectors with constant entries
    rng = random.Random(17)
    for p, f, n in [(2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 2, 2), (5, 1, 2), (7, 1, 2)]:
        field = finite_field(p, f)
        table = build_table(p, n)
        for _ in range(3):
            a = [random_series(field, -rng.randrange(1, 6), 8, rng) for _ in range(n)]
            b = [random_series(field, rng.randrange(-4, 3), 6, rng) for _ in range(n)]
            c = [rng.randrange(p) for _ in range(n)]
            const = WittVector(TLS.monomial(field, 0, x) for x in c)
            want = witt_add(WittVector(a), const, table)
            want = witt_add(want, witt_neg(WittVector(b), table), table)
            for i in range(n):
                assert_same(witt_sum_component(field, i, [a, c], [b]), want[i])
            # slot 0 of a alone: [a_0] + V(...), the sum shifts down a slot
            c[0] = 0
            b0 = [TLS.zero(field)] + b[1:]
            const = WittVector(TLS.monomial(field, 0, x) for x in c)
            want = witt_add(WittVector(a), const, table)
            want = witt_add(want, witt_neg(WittVector(b0), table), table)
            for i in range(n):
                assert_same(witt_sum_component(field, i, [a, c], [b0]), want[i])


def test_a_division_that_is_not_exact_raises(monkeypatch):
    # a ghost component off by one at component 1 leaves a remainder mod p
    field = finite_field(3)
    y = [TLS.monomial(field, -2), TLS.monomial(field, -1)]
    witt_sum_component(field, 1, [y, y])
    invert = witt_mod.invert_ghosts
    monkeypatch.setattr(
        witt_mod, "invert_ghosts", lambda g, *args: invert([g[0], g[1] + 1], *args)
    )
    with pytest.raises(ConsistencyFailure, match="not divisible by p"):
        witt_sum_component(field, 1, [y, y])


def test_corrections_match_the_polynomial(tower):
    p, top = tower.p, tower.top
    for i in range(1, tower.n):
        y = tower.stages[i].y
        vals = {yvar(j): y[j] for j in range(i)}
        want = eval_on_series(asw_correction_poly(build_table(p, i + 1), i), vals, tower.ring)
        assert_same(top.corr[i], want)


def test_increments_match_the_polynomial_for_every_element(tower):
    p, n = tower.p, tower.n
    seen = set()
    for g in range(p**n):
        gbar = group_element_coordinates(p, n, g)
        for j in range(n):
            if gbar[: j + 1] in seen:
                continue
            seen.add(gbar[: j + 1])
            vals = {xvar(l): tower.stages[j].y[l] for l in range(j)}
            want = eval_on_series(delta_poly(p, j, gbar[: j + 1]), vals, tower.ring)
            got = tower_mod._increment(tower, j, gbar)
            if want.is_exact_zero():  # gbar's prefix is 0: nothing moves
                assert got.agrees_with(want) and not len(got.coeffs)
            else:
                assert_same(got, want)
    assert len(seen) == sum(p ** (j + 1) for j in range(n))


def test_carries_match_the_polynomial(tower):
    p, n, top = tower.p, tower.n, tower.top
    cn = build_table(p, n + 1).c[n]
    vals = {}
    for i in range(n):
        vals[xvar(i)] = top.ytilde[i].pth_power()
        vals[yvar(i)] = -top.ytilde[i]
    want = eval_on_series({k: c % p for k, c in cn.items() if c % p}, vals, tower.ring)
    got = witt_sum_component(
        tower.ring, n, [[y.pth_power() for y in top.ytilde], [-y for y in top.ytilde]]
    )
    assert_same(got, want)
    assert sort_bound_check(tower)["carry_bound"]["valuation_lower_bound"] == got.valuation()


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_group_element_coordinates_match_repeated_addition(p, n):
    # g times the unit vector, by the tables' double-and-add, at every height <= n
    field = finite_field(p)
    for m in range(1, n + 1):
        table = build_table(p, m)
        unit = WittVector((field.one(),) + (field.zero(),) * (m - 1))
        for g in range(p**m):
            want = tuple(int(e.coords[0]) for e in witt_smul(g, unit, table).entries)
            assert group_element_coordinates(p, m, g) == want, (p, m, g)


def test_analyze_tower_builds_no_witt_table(monkeypatch):
    # build_table raises wherever a package module binds it, and so does the
    # lazy table extension; cached group coordinates are dropped first
    def refuse(*_args):
        raise AssertionError("analyze_tower built a Witt table")

    for name, module in list(sys.modules.items()):
        if name == "wittram" or name.startswith("wittram."):
            for attr, value in list(vars(module).items()):
                if value is witt_mod.build_table:
                    monkeypatch.setattr(module, attr, refuse)
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    monkeypatch.setattr(witt_mod, "_extend_family", refuse)
    cases = [(2, 3, (3, 1, 5)), (3, 3, (2, 4, 5)), (5, 3, (2, 1, 1)), (7, 2, (2, 3))]
    for p, n, nu in cases + [(3, 4, (2, 1, 1, 1))]:
        _tower, filtration, report = analyze_tower(CoverDatum.from_orders(p, n, 1, list(nu)))
        assert report["conductor_filtration"] == report["conductor"]
        assert len(filtration.breaks) == n
