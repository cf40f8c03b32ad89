"""End-to-end acceptance: one test per advertised guarantee.

Each test prints one PASSED/FAILED line under pytest -v.  The shared grid
(82 parameter sets over p in {2,3,5,7}, heights 1..4, pole orders 1..9
prime to p, both growth regimes) is built once and reused; the per-case and
total wall-clock budgets are asserted, not just hoped for.
"""

import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from wittram import tower as tower_mod
from wittram.coeff import finite_field, lift_ring
from wittram.conductor import (
    claim_pole_check,
    section_degree_oracle,
    sort_bound_check,
    theorem_conductor,
)
from wittram.localsym import (
    LocalSymbolInput,
    modulus_vanishing_test,
    pole_depth,
    residue_vector,
    symbol_from_lifts,
)
from wittram.series import TruncatedLaurentSeries as TLS
from wittram.series import compose
from wittram.tower import (
    CoverDatum,
    HerbrandPhi,
    TowerStage,
    analyze_tower,
    extend_stage,
    galois_conjugate,
    predicted_invariants,
    ramification_filtration,
    tower_invariants,
)
from wittram.wbar import (
    ChowClass,
    GradedPolynomial,
    divisor_ledger,
    group_action_on_sections,
    psi_on_sections,
    psi_pullback,
    pushforward_recursion_check,
)
from wittram.witt import (
    WittVector,
    build_table,
    ghost_batch,
    witt_add,
    witt_batch_op,
    witt_mul,
    witt_neg,
    xvar,
    yvar,
)

from oracles import coeff_of, degree_in, iso_weight, section_monomials, unpack
from randoms import perturbed_lift, random_unit, random_unit_series

# ---------- the acceptance grid: 82 cases, both regimes ----------

CASES = []
for _nu in (1, 3, 5, 7, 9):
    CASES.append((2, 1, (_nu,)))
for _nu in (1, 2, 4, 5, 7, 8):
    CASES.append((3, 1, (_nu,)))
for _nu in (1, 2, 3, 4, 6, 7, 8, 9):
    CASES.append((5, 1, (_nu,)))
CASES += [(2, 2, t) for t in [(1, 1), (1, 3), (3, 1), (3, 3), (5, 9), (7, 1), (9, 5), (5, 3)]]
CASES += [(3, 2, t) for t in [(1, 1), (1, 4), (2, 1), (4, 2), (5, 7), (7, 8), (8, 1), (2, 7)]]
CASES += [(5, 2, t) for t in [(1, 1), (1, 7), (2, 3), (3, 4), (4, 1), (6, 2), (9, 8), (4, 9)]]
CASES += [
    (2, 3, t)
    for t in [(1, 1, 1), (3, 1, 5), (7, 9, 9), (1, 3, 1), (1, 1, 5), (1, 1, 9), (5, 1, 3), (9, 7, 1)]
]
CASES += [(3, 3, t) for t in [(1, 1, 1), (2, 4, 5), (8, 8, 7), (1, 5, 2), (4, 1, 8), (2, 2, 2)]]
CASES += [(5, 3, t) for t in [(1, 1, 1), (1, 2, 4), (1, 3, 2), (1, 4, 3), (2, 1, 1)]]
CASES += [(7, 1, (_nu,)) for _nu in (1, 2, 3, 4, 5, 6, 8, 9)]
CASES += [(7, 2, t) for t in [(1, 1), (2, 3), (3, 1), (1, 6), (6, 9)]]
CASES += [(7, 3, (1, 1, 1)), (7, 3, (2, 1, 1))]
CASES += [(2, 4, t) for t in [(1, 1, 1, 1), (3, 1, 5, 1)]]
CASES += [(3, 4, t) for t in [(1, 1, 1, 1), (2, 1, 1, 1)]]
CASES += [(5, 4, (1, 1, 1, 1))]


def _top_regime(p, n, nu):
    """nu-dominant when the last pole order beats p times the running m."""
    m, _e, _mu = predicted_invariants(p, n, nu)
    return "nu" if nu[n - 1] > p * m[n - 1] else "pm"


@pytest.fixture(scope="module")
def grid():
    rows = []
    for p, n, nu in CASES:
        t0 = time.monotonic()
        datum = CoverDatum.from_orders(p, n, 1, list(nu))
        tower, filtration, report = analyze_tower(datum)
        seconds = time.monotonic() - t0
        rows.append(
            {
                "p": p,
                "n": n,
                "nu": nu,
                "datum": datum,
                "tower": tower,
                "filtration": filtration,
                "report": report,
                "seconds": seconds,
            }
        )
    return rows


def test_criterion_01_conductor_theorem_end_to_end(grid):
    # brute-force conductor from the filtration == max p^(n-1-i) nu_i + 1,
    # on >= 60 cases covering both regimes, within the time budget
    assert len(grid) >= 60
    regimes = {"nu": 0, "pm": 0}
    total = 0.0
    for row in grid:
        p, n, nu = row["p"], row["n"], row["nu"]
        closed = theorem_conductor(p, n, nu)
        assert row["report"]["conductor_filtration"] == closed["conductor"], (p, n, nu)
        assert row["report"]["conductor"] == closed["conductor"], (p, n, nu)
        regimes[_top_regime(p, n, nu)] += 1
        total += row["seconds"]
        assert row["seconds"] < 10.0, (p, n, nu, row["seconds"])
    assert regimes["nu"] >= 10 and regimes["pm"] >= 10, regimes
    assert total < 600.0, total


def test_criterion_02_lattice_identity():
    # the box-enumeration oracle reproduces the closed form exactly
    for p, n, nu in CASES:
        closed = theorem_conductor(p, n, nu)
        oracle = section_degree_oracle(p, n, nu)
        assert oracle["M"] == closed["M"], (p, n, nu)


def test_criterion_03_hasse_arf_integral_upper_breaks(grid):
    for row in grid:
        phi = HerbrandPhi(row["filtration"])
        m = row["report"]["m"]
        for k, br in enumerate(row["filtration"].breaks):
            val = phi(br)
            assert val.denominator == 1, (row["p"], row["n"], row["nu"], br, val)
            assert int(val) == m[k], (row["p"], row["n"], row["nu"], br)


def test_criterion_04_invariant_identities(grid):
    # mu_k = p^k m_k - e_k, both telescoped families, and the different
    # from the filtration orders equals mu_n + p^n - 1
    for row in grid:
        p, n = row["p"], row["n"]
        rep = row["report"]
        m, e, mu = (0,) + rep["m"], (0,) + rep["e"], (0,) + rep["mu"]
        for k in range(1, n + 1):
            assert mu[k] == p**k * m[k] - e[k]
            assert e[k] == sum(p ** (i - 1) * (m[i] - m[i - 1]) for i in range(1, k + 1))
            assert mu[k] == sum((p**i - p ** (i - 1)) * m[i] for i in range(1, k + 1))
        filt = row["filtration"]
        hilbert = 0
        for lo, hi, order in filt.segments():
            if order > 1:
                hilbert += (hi - lo + 1) * (order - 1)
        assert hilbert == mu[n] + p**n - 1, (p, n, row["nu"])
        assert rep["different"] == hilbert
        assert filt.different == hilbert


def test_criterion_05_witt_layer():
    rng = random.Random(20260815)
    # ghost homomorphism on 1000 random vectors per (p, n), n <= 4
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            t = build_table(p, n)
            m = n + 2
            mod = p**m
            B = 1000
            A = np.array(
                [[rng.randrange(mod) for _ in range(B)] for _ in range(n)], dtype=np.int64
            )
            C = np.array(
                [[rng.randrange(mod) for _ in range(B)] for _ in range(n)], dtype=np.int64
            )
            S = witt_batch_op(t, "add", A, C, mod)
            P = witt_batch_op(t, "mul", A, C, mod)
            N = witt_batch_op(t, "neg", A, None, mod)
            for j in range(n):
                gA, gC = ghost_batch(A, p, j, mod), ghost_batch(C, p, j, mod)
                assert np.array_equal(ghost_batch(S, p, j, mod), (gA + gC) % mod)
                assert np.array_equal(ghost_batch(P, p, j, mod), (gA * gC) % mod)
                assert np.array_equal(ghost_batch(N, p, j, mod), (-gA) % mod)

    # ring axioms over proper extension fields
    for p, f in ((2, 2), (2, 3), (3, 2), (5, 2)):
        F = finite_field(p, f)
        t = build_table(p, 3)
        for _ in range(30):
            a = WittVector(tuple(F.random(rng) for _ in range(3)))
            b = WittVector(tuple(F.random(rng) for _ in range(3)))
            c = WittVector(tuple(F.random(rng) for _ in range(3)))
            zero = WittVector((F.zero(),) * 3)
            one = WittVector((F.one(), F.zero(), F.zero()))
            assert witt_add(a, b, t) == witt_add(b, a, t)
            assert witt_add(witt_add(a, b, t), c, t) == witt_add(a, witt_add(b, c, t), t)
            assert witt_mul(a, b, t) == witt_mul(b, a, t)
            assert witt_mul(witt_mul(a, b, t), c, t) == witt_mul(a, witt_mul(b, c, t), t)
            assert witt_mul(a, witt_add(b, c, t), t) == witt_add(
                witt_mul(a, b, t), witt_mul(a, c, t), t
            )
            assert witt_add(a, witt_neg(a, t), t) == zero
            assert witt_add(a, zero, t) == a
            assert witt_mul(a, one, t) == a

    # isobaric weights of every component of every family
    for p in (2, 3, 5):
        t = build_table(p, 4)
        for j in range(4):
            w = [p**i for i in range(j + 1) for _ in (0, 1)]
            assert iso_weight(t.S[j], w) == p**j
            assert iso_weight(t.I[j], w) == p**j
            assert iso_weight(t.P[j], w) == 2 * p**j
            if j:
                assert iso_weight(t.c[j], w) == p**j

    # carry leading terms: degree p^(n-i) - 1 in X_i and in Y_i, leading
    # coefficient alive mod p, and every monomial mixes X and Y
    for p in (2, 3):
        for n in (1, 2, 3):
            t = build_table(p, n + 1)
            c = t.c[n]
            for key in c:
                exps = unpack(key, 2 * (n + 1))
                assert any(e and v % 2 == 0 for v, e in enumerate(exps))
                assert any(e and v % 2 == 1 for v, e in enumerate(exps))
            for i in range(n):
                d = p ** (n - i) - 1
                assert degree_in(c, xvar(i)) == d, (p, n, i)
                assert degree_in(c, yvar(i)) == d, (p, n, i)
                lead = coeff_of(c, xvar(i), d)
                assert any(v % p for v in lead.values()), (p, n, i)
            # isobarity pins the X_0-leading coefficient to a multiple of Y_0
            lead0 = coeff_of(c, xvar(0), p**n - 1)
            (key0,) = lead0
            assert unpack(key0, 2 * (n + 1)) == (0, 1) + (0,) * (2 * n)


def test_criterion_06_standard_form_and_pole_claim(grid):
    for row in grid:
        tower, datum = row["tower"], row["datum"]
        p, n = row["p"], row["n"]
        top = tower.top
        for i in range(n):
            stage = tower.stages[i]
            u_i = compose(datum.entries[i], stage.s) if i else datum.entries[i]
            z = u_i - top.corr[i]
            h = top.h_adj[i]
            wp_h = h.pth_power() - h if not h.is_exact_zero() else h
            assert (z - top.z_std[i]).agrees_with(wp_h), (p, n, row["nu"], i)
            assert (-top.z_std[i].valuation()) % p != 0
        # reduced pole order p^(k-1) M_k - mu_(k-1), unique-max cases only
        records = claim_pole_check(tower)
        for k, rec in enumerate(records, start=1):
            assert theorem_conductor(p, k, row["nu"][:k])["unique"]
            assert rec["pole"] == p ** (k - 1) * rec["M"] - top.mu[k - 1]
        # the top carry meets the closed and the program bound
        carry = sort_bound_check(tower)["carry_bound"]
        assert carry["valuation_lower_bound"] >= carry["bound"], (p, n, row["nu"])
        assert carry["valuation_lower_bound"] >= carry["lp_bound"], (p, n, row["nu"])


def test_criterion_07_local_symbols(grid):
    rng = random.Random(97)
    data = [row for row in grid if row["n"] <= 2][:16]
    data += [row for row in grid if row["n"] == 3][:4]
    assert len(data) >= 20
    for idx, row in enumerate(data):
        p, n, nu = row["p"], row["n"], row["nu"]
        u = WittVector(row["datum"].entries)
        M = theorem_conductor(p, n, nu)["M"]
        report = modulus_vanishing_test(
            u, M, trials=50, rng=random.Random(1000 + idx)
        )
        assert report["trials"] == 50, (p, n, nu)
        # the symbol factors through unit classes mod s^(M+1), so a zero
        # symbol on every 1 + c s^M would contradict conductor = M + 1
        assert report["witness_found"], (p, n, nu)

    # bilinearity and lift independence on 200 random triples
    fields = [finite_field(2), finite_field(3), finite_field(5), finite_field(2, 2)]
    tables = {}
    checked = 0
    while checked < 200:
        field = fields[checked % len(fields)]
        n = 1 + checked % 3
        p = field.p
        if (p, n) not in tables:
            tables[(p, n)] = build_table(p, n)
        t = tables[(p, n)]
        entries = []
        for i in range(n):
            pole = rng.randrange(1, 4)
            terms = [(-pole, random_unit(field, rng))]
            terms += [(e, field.random(rng)) for e in range(-pole + 1, 1)]
            entries.append(TLS.from_terms(field, terms))
        u = WittVector(tuple(entries))
        window = pole_depth(u) + 4
        alpha = random_unit_series(field, window, rng)
        beta = random_unit_series(field, window, rng)
        sa = residue_vector(LocalSymbolInput(u, alpha))
        sb = residue_vector(LocalSymbolInput(u, beta))
        sab = residue_vector(LocalSymbolInput(u, alpha * beta))
        assert sab == witt_add(sa, sb, t), (p, n, checked)
        inp = LocalSymbolInput(u, alpha)
        lift = lift_ring(p, inp.m, field.f)
        other, _ = symbol_from_lifts(
            [perturbed_lift(s, lift, rng) for s in u],
            perturbed_lift(alpha, lift, rng),
            field,
        )
        assert other == sa, (p, n, checked)
        checked += 1


def test_criterion_08_compactification_layer():
    rng = random.Random(53)
    # section-dimension pushforward recursion
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            rec = pushforward_recursion_check(p, n)
            assert rec["lhs"] == rec["constant"] + rec["twisted"]
    # pullback along the section map multiplies by p^codim, all basis
    # monomials up to ambient dimension 5
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4, 5):
            for r in range(n + 1):
                for subset in combinations(range(1, n + 1), r):
                    cls = ChowClass(p, n, {subset: 1})
                    assert psi_pullback(cls) == (p**r) * cls, (p, n, subset)
    # divisor ledger telescopes to the hyperplane class
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4, 5):
            ledger = divisor_ledger(p, n)
            assert ledger.boundary_class == ledger.hyperplane
    # graded section map: homogeneity is certified on construction, and
    # setting T = 1 recovers the affine component identity
    for p in (2, 3):
        for level in (0, 1, 2):
            f = psi_on_sections(p, level)
            assert f.weight == p ** (level + 1)
    # action composition law on random pairs
    for p, n in ((2, 2), (3, 2), (2, 3)):
        fp = finite_field(p)
        t = build_table(p, n + 1)
        basis = section_monomials(p, n + 1, 1)
        for _ in range(8):
            sec = GradedPolynomial(
                fp,
                n + 1,
                p**n,
                {k: fp.random(rng) for k in basis if rng.random() < 0.7},
            )
            a = WittVector(tuple(fp.random(rng) for _ in range(n + 1)))
            b = WittVector(tuple(fp.random(rng) for _ in range(n + 1)))
            ab = witt_add(a, b, t)
            lhs = group_action_on_sections(p, n, ab, sec)
            rhs = group_action_on_sections(p, n, a, group_action_on_sections(p, n, b, sec))
            assert lhs == rhs


def test_criterion_09_precision_stability(grid):
    # a plan strictly wider at every stage, each window doubled, must not
    # move any reported invariant
    for row in grid:
        d = row["datum"]
        stages = [TowerStage(d)]
        for window in tower_mod._stage_budgets(d):
            stages.append(extend_stage(stages[-1], 2 * window))
        tower2 = tower_mod.Tower(d, stages)
        assert stages[1].s.prec > row["tower"].stages[1].s.prec
        filt2 = ramification_filtration(tower2)
        rep2 = tower_invariants(tower2, filt2)
        assert rep2 == row["report"], (row["p"], row["n"], row["nu"])
        assert filt2.breaks == row["filtration"].breaks
        assert filt2.jumps == row["filtration"].jumps


def _net_forward(net, leaves):
    """Each node's precision evaluated forwards from its leaves' values."""
    pred = []
    for k, terms in enumerate(net.terms):
        leaf = leaves.get(k, math.inf)  # a node with no terms: a window or an exact series
        pred.append(min((a * pred[src] + b for src, a, b in terms), default=leaf))
    return pred


def test_criterion_10_precision_net_met_by_build(grid):
    # the window plan is the precision net's requirement with no margin, so
    # the net is a claim about the build: forwards from the planned windows
    # it meets every read it requires, and no series a build stores, nor
    # the conjugates of t_n that the filtration reads, falls below it.  Its
    # power rule is the series' rule, so at height 1 the prediction for
    # sigma t_n is the conjugate's precision, and a net one row more
    # optimistic about sigma t_n fails on some grid case
    mutant_met = []
    for row in grid:
        case = (row["p"], row["n"], row["nu"])
        tw = row["tower"]
        net, windows, stored, sig_t = tower_mod._plan(row["datum"])
        leaves = dict(zip(windows, tower_mod._stage_budgets(row["datum"])))
        pred = _net_forward(net, leaves)
        assert all(got >= need for got, need in zip(pred, net.need)), case
        for stage, nodes in zip(tw.stages[1:], stored):
            for name, ks in nodes.items():
                series = getattr(stage, name)
                assert len(series) == len(ks), (case, stage.level, name)
                for j, (x, k) in enumerate(zip(series, ks)):
                    want = math.inf if k is None else pred[k]
                    assert x.prec >= want, (case, stage.level, name, j, x.prec, want)
        precs = {g: galois_conjugate(tw, g).prec for g in (1, tw.p)}
        for g, prec in precs.items():
            assert prec >= pred[sig_t], (case, g)
            if tw.n == 1 and g % tw.p:  # g = p fixes t_1: its conjugate is exact
                assert prec == pred[sig_t], (case, g)
        net.terms[sig_t] = [(src, a, b + 1) for src, a, b in net.terms[sig_t]]
        mutant = _net_forward(net, leaves)[sig_t]
        mutant_met.append(all(prec >= mutant for prec in precs.values()))
    assert not all(mutant_met)
