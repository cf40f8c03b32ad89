"""Reference routes that only the tests compare the package against: box
scans, enumerations and splits that no report of the package runs."""

import itertools

import numpy as np

from wittram import intpoly as ip
from wittram.coeff import finite_field
from wittram.errors import ConsistencyFailure, InsufficientPrecision
from wittram.series import INF, TruncatedLaurentSeries
from wittram.wbar import GradedPolynomial, group_action_on_sections
from wittram.witt import WittVector, build_table, witt_smul, xvar, yvar


# ---------- conductor ----------


def box_scan(box, feasible, objective, sense="min"):
    """Optimum of objective over the points of box (a list of ranges) that
    feasible accepts, scanned point by point.  Returns (value, optimizers in
    lexicographic order)."""
    sign = 1 if sense == "min" else -1
    best, argbest = None, []
    for point in itertools.product(*box):
        if not feasible(point):
            continue
        val = objective(point)
        if best is None or sign * val < sign * best:
            best, argbest = val, [point]
        elif val == best:
            argbest.append(point)
    return best, tuple(argbest)


def carry_pole_substituted_scan(p, n, weights):
    """The carry-pole program in variables (alpha_i, b_i), alpha_i = p a_i + b_i,
    minimized by a box scan.

    The isobaric constraint becomes
        sum p^i alpha_i + sum (p^(i+1) - p^i) b_i = p^(n+1),
    the objective is sum w_i alpha_i, and a point counts only under the
    coupling alpha_i = b_i (mod p), 0 <= alpha_i - b_i <= p (p^(n-i) - 1),
    which makes the change of variables a bijection with the (a, b) form.
    """

    def feasible(point):
        alpha, b = point[0::2], point[1::2]
        if sum(p**i * alpha[i] + (p ** (i + 1) - p**i) * b[i] for i in range(n)) != p ** (n + 1):
            return False
        return all(
            (alpha[i] - b[i]) % p == 0 and 0 <= alpha[i] - b[i] <= p * (p ** (n - i) - 1)
            for i in range(n)
        )

    box = []
    for i in range(n):
        box += [range(p ** (n - i + 1) - p + 2), range(p ** (n - i) + 1)]
    return box_scan(box, feasible, lambda point: sum(w * a for w, a in zip(weights, point[0::2])))


# ---------- Witt tables ----------


def coeff_of(a, v, e):
    """The coefficient of (variable v)**e, as a polynomial in the others."""
    sh = ip.SHIFT * v
    strip = e << sh
    out = {}
    for key, c in a.items():
        if (key >> sh) & ip.MASK == e:
            out[key - strip] = c
    return out


def cn_leading_term_check(table, n, i):
    """Check the carry's top slice in its i-th X-slot.

    carry_n = -X_i^(p^(n-i)-1) (Y_i + carry_i) + lower X_i-degree terms."""
    p = table.p
    if not 0 <= i <= n - 1:
        raise IndexError("need 0 <= i <= n-1")
    e = p ** (n - i) - 1
    cn = table.c[n]
    lead = coeff_of(cn, xvar(i), e)
    expected = ip.p_neg(ip.p_add({ip.var(yvar(i)): 1}, table.c[i]))
    top = {ip.var(xvar(i), e): 1}
    rest = ip.p_sub(cn, ip.p_mul(top, lead))
    rest_deg = ip.degree_in(rest, xvar(i))
    return {"holds": lead == expected and rest_deg < e, "extracted": lead, "degree_bound": e}


# ---------- graded sections ----------


def section_monomials(p, n, m):
    """Explicit basis of the weight m*p^(n-1) graded piece, as (t, e_0..e_{n-1})
    keys: every Y-monomial of weight at most the target, topped up by T."""
    d = m * p ** (n - 1)
    basis = []
    for exps in itertools.product(*[range(d // p**i + 1) for i in range(n)]):
        w = sum(e * p**i for i, e in enumerate(exps))
        if w <= d:
            basis.append((d - w,) + exps)
    return sorted(basis)


def inertia_subgroup_check(p, n, i):
    """Count constant vectors acting trivially on the level-i variables.

    Enumerates all p^n translations, tests fixity on Y_0..Y_{i-1}, and
    certifies the fixing subgroup is the cyclic one generated by the vector
    supported in slot i (whose additive order p^(n-i) is computed honestly
    by repeated addition)."""
    if not 1 <= i <= n:
        raise ValueError("component index out of range")
    field = finite_field(p)
    table = build_table(p, n)
    gens = [GradedPolynomial.y_var(field, n, j) for j in range(i)]
    digits = [field.from_int(d) for d in range(p)]
    fixers = []
    for entries in itertools.product(digits, repeat=n):
        a = WittVector(entries)
        if all(group_action_on_sections(p, n - 1, a, g) == g for g in gens):
            fixers.append(a)
    expected = p ** (n - i)
    if len(fixers) != expected:
        raise ConsistencyFailure(
            f"fixing subgroup has order {len(fixers)}, expected {expected}"
        )
    if i < n:
        gen = WittVector(tuple(field.one() if j == i else field.zero() for j in range(n)))
        orders = [k for k in range(1, expected + 1) if witt_smul(k, gen, table).is_zero()]
        if orders[:1] != [expected]:
            raise ConsistencyFailure(f"slot-{i} generator does not have order {expected}")
    return {"p": p, "n": n, "component": i, "order": expected}


# ---------- series and towers ----------


def pth_power_decompose(f):
    """Split f = g^p + h with h supported on exponents prime to p."""
    ring = f.ring
    if not ring.is_field:
        raise ValueError(f"p-th power decomposition needs a finite field, not {ring}")
    p = ring.p
    if f.is_exact_zero():
        return f, f
    if not f.has_certified_valuation():
        raise InsufficientPrecision("decomposition needs a certified window")
    exps = np.arange(f.v, f.end)
    mask = exps % p == 0
    harr = f.coeffs.copy()
    harr[mask] = 0
    h = TruncatedLaurentSeries(ring, f.v, harr, f.prec)
    roots = (f.coeffs[mask] @ ring.pth_root_matrix) % p
    g = TruncatedLaurentSeries.from_terms(
        ring,
        [(int(e) // p, r.tolist()) for e, r in zip(exps[mask], roots)],
        f.prec if f.prec == INF else -(-f.prec // p),
    )
    if not (g.pth_power() + h).agrees_with(f):
        raise ConsistencyFailure("g^p + h does not reconstruct f")
    return g, h


def adjust_decompose(tower, x, level=None):
    """Split x at a stage as g^p + h with v(h) = p^i v_s(x) + mu_i.

    x must be the pull-back of a base series whose valuation is prime to p;
    the split separates p-divisible exponents (the p-th power part) from the
    rest, and the valuation law pins the stage's adjustment exponent.
    Returns (g, h, mu_obs) and checks mu_obs against the stored invariant.
    """
    i = tower.n if level is None else level
    p = tower.p
    vx = x.valuation()
    if vx % p**i != 0:
        raise ValueError(f"x (valuation {vx}) is not pulled back from the base")
    v_s = vx // p**i
    if v_s % p == 0:
        raise ValueError(f"base valuation {v_s} must be prime to p")
    g, h = pth_power_decompose(x)
    if h.is_exact_zero() or not h.has_certified_valuation():
        raise InsufficientPrecision("adjustment part not resolved in window")
    mu_obs = h.valuation() - p**i * v_s
    if mu_obs != tower.stages[i].mu[i]:
        raise ConsistencyFailure(
            f"adjustment exponent {mu_obs} != stored mu_{i} = {tower.stages[i].mu[i]}"
        )
    return g, h, mu_obs
