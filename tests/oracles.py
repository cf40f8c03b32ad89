"""Reference routes that only the tests compare the package against: box
scans, enumerations, splits and the binary power route that no report of
the package runs."""

import itertools

import numpy as np

from wittram import intpoly as ip
from wittram.coeff import finite_field
from wittram.errors import ConsistencyFailure, InsufficientPrecision
from wittram.series import INF, TruncatedLaurentSeries
from wittram.wbar import GradedPolynomial, group_action_on_sections
from wittram.witt import (
    WittVector,
    _one,
    _principal_part,
    asw_component_poly,
    build_table,
    witt_add,
    witt_neg,
    xvar,
    yvar,
)


# ---------- packed keys, read key by key ----------


def unpack(key, nvars):
    """The exponent tuple of a key in variables 0..nvars-1, read field by
    field; a key that uses a later variable raises ValueError.  The
    reference for intpoly.exponent_rows."""
    if key >> (ip.SHIFT * nvars):
        raise ValueError(f"monomial uses a variable beyond number {nvars - 1}")
    return tuple((key >> (ip.SHIFT * v)) & ip.MASK for v in range(nvars))


def degree_in(a, v):
    """The degree of a in variable v, key by key: the reference for
    intpoly.degrees."""
    return max(((key >> (ip.SHIFT * v)) & ip.MASK for key in a), default=0)


def involves(a, v):
    return degree_in(a, v) > 0


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


def iso_weight(a, weights):
    """The common weighted degree of all monomials of a, exponent by
    exponent, or None if mixed: the reference for the build's certificate."""
    w = None
    for key in a:
        total = 0
        k = key
        v = 0
        while k:
            e = k & ip.MASK
            if e:
                total += e * weights[v]
            k >>= ip.SHIFT
            v += 1
        if w is None:
            w = total
        elif w != total:
            return None
    return w


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
    rest_deg = degree_in(rest, xvar(i))
    return {"holds": lead == expected and rest_deg < e, "extracted": lead, "degree_bound": e}


def asw_ghost_inversion(p, n):
    """Component n of F(Y) - Y over Z, by inverting its ghost components
    Phi_l(F(Y) - Y) = sum_i p^i (Y_i^(p^(l-i+1)) - Y_i^(p^(l-i))) term by
    term, with p_pow and a division checked coefficient by coefficient: the
    reference for route B of witt.nth_component_identity_check."""
    comps = []
    for l in range(n + 1):
        num = {}
        for i in range(l + 1):
            num[ip.var(yvar(i), p ** (l - i + 1))] = p**i
            num[ip.var(yvar(i), p ** (l - i))] = -(p**i)
        for i in range(l):
            num = ip.p_sub(num, ip.p_scale(ip.p_pow(comps[i], p ** (l - i)), p**i))
        if any(c % p**l for c in num.values()):
            raise ConsistencyFailure(f"ghost inversion not integral at component {l}")
        comps.append({k: c // p**l for k, c in num.items()})
    return comps[n]


def asw_literal_form(table, n):
    """The literal closed form Y_n^p - Y_n + c_n(Y^p, -Y) mod p of component
    n of a -> F(a) - a: c_n, the carry of the sum table, at X_i = Y_i^p and
    Y_i = -Y_i.  It is the component for odd p; for p = 2 negation is not
    entry-wise minus, and the two differ by the negation carry."""
    p = table.p
    subs = {}
    for i in range(n + 1):
        subs[xvar(i)] = {ip.var(yvar(i), p): 1}
        subs[yvar(i)] = {ip.var(yvar(i)): p - 1}  # -Y_i mod p
    carry = ip.p_subst(ip.p_mod(table.c[n], p), subs)
    return ip.p_mod(ip.p_add(_principal_part(p, n), carry), p)


def witt_smul(k, a, table):
    """Integer multiple of a Witt vector by double-and-add."""
    if k < 0:
        return witt_smul(-k, witt_neg(a, table), table)
    acc = WittVector((0 * _one(a.entries[0]),) * a.n) if k == 0 else None
    base = a
    while k:
        if k & 1:
            acc = base if acc is None else witt_add(acc, base, table)
        k >>= 1
        if k:
            base = witt_add(base, base, table)
    return acc


# ---------- Witt polynomials evaluated monomial by monomial ----------
# The tower and the carry bound take these components through ghost
# components (witt.witt_sum_component); the tests compare the two routes.


def asw_correction_poly(table, n):
    """asw component n minus its principal part Y_n^p - Y_n.

    Free of Y_n; this is the inhomogeneous tail that couples equation n of
    a length-(n+1) generator datum to the solutions below it."""
    p = table.p
    corr = ip.p_mod(ip.p_sub(asw_component_poly(table, n), _principal_part(p, n)), p)
    if involves(corr, yvar(n)):
        raise ConsistencyFailure(f"correction at component {n} involves its own slot")
    return corr


def delta_poly(p, i, gbar):
    """Packed polynomial in the solution slots for sigma_g(y_i) - y_i.

    Translating the solution vector by the constant vector gbar moves
    component i by gbar_i + carry_i(y; gbar); the returned mod-p polynomial
    has the solution slots in xvar coordinates and gbar already filled in.
    gbar is the prefix (gbar_0, ..., gbar_i) of g's coordinates.
    """
    table = build_table(p, i + 1)
    subs = {yvar(j): {0: gbar[j]} if gbar[j] else {} for j in range(i)}
    carry = ip.p_mod(ip.p_subst(ip.p_mod(table.c[i], p), subs), p)
    return ip.p_mod(ip.p_add(carry, {0: gbar[i]} if gbar[i] else {}), p)


def eval_on_series(poly, vals, ring):
    """A packed polynomial evaluated on series, monomial by monomial."""
    return ip.p_eval(poly, vals, TruncatedLaurentSeries.monomial(ring, 0))


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


def frobenius_pth_power(x):
    """x^p over F_q on its own rows: Frobenius on the coefficients, the
    exponents times p, and the precision times p."""
    ring, p = x.ring, x.ring.p
    prec = x.prec if x.prec == INF else x.prec * p
    if not len(x.coeffs):
        return TruncatedLaurentSeries.zero_to(ring, prec)
    arr = np.zeros(((len(x.coeffs) - 1) * p + 1, ring.f), dtype=np.int64)
    arr[::p] = (x.coeffs @ ring.frobenius_matrix) % p
    return TruncatedLaurentSeries(ring, x.v * p, arr, INF).truncate(prec)


def binary_power(x, e):
    """x^e for e >= 1 by the binary route: over F_q the p-factors of e are
    stripped, the rest is binary on series, and each stripped factor is one
    Frobenius p-th power."""
    r, k = e, 0
    if x.ring.is_field:
        while r % x.ring.p == 0:
            r, k = r // x.ring.p, k + 1
    result, base = None, x
    while r:
        if r & 1:
            result = base if result is None else result * base
        r >>= 1
        if r:
            base = base * base
    for _ in range(k):
        result = frobenius_pth_power(result)
    return result


def binary_pole_power(g, k):
    """g^(-k) for k >= 1 by the binary route, cut at g.prec - (k + 1) v(g):
    with k = p^j r, g.inv()^r is cut to ceil(cap / p^i) before the last i
    of its p-th powers."""
    p, r, j = g.ring.p, k, 0
    cap = g.prec - (k + 1) * g.v
    while cap != INF and g.ring.is_field and r % p == 0:
        r, j = r // p, j + 1
    out = binary_power(g.inv(), r)
    for i in range(j, 0, -1):
        out = frobenius_pth_power(out.truncate(-(-cap // p**i)))
    return out.truncate(cap)
