"""Closed-form conductor arithmetic and the integer-lattice oracles behind it.

The conductor exponent of a cyclic p^n-cover with pole orders nu has the
closed form M + 1 with M = max_i p^(n-1-i) nu_i.  The same number is the
maximum of a linear functional over a small lattice box, and the pole bounds
on carry evaluations reduce to tiny integer programs.  Everything here is
exact enumeration; no floating-point optimizer is ever consulted.
"""

from __future__ import annotations

from . import intpoly as ip
from .coeff import is_prime
from .errors import ConsistencyFailure, InfeasibleProblem
from .series import TruncatedLaurentSeries
from .witt import build_table, xvar, yvar


def _validate_orders(p, n, nu):
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 1:
        raise ValueError("need n >= 1")
    if len(nu) != n:
        raise ValueError(f"expected {n} pole orders, got {len(nu)}")
    for i, v in enumerate(nu):
        if v <= 0:
            raise ValueError(f"pole order nu_{i} = {v} must be positive")
        if v % p == 0:
            raise ValueError(f"pole order nu_{i} = {v} divisible by p = {p}")


def theorem_conductor(p, n, nu):
    """Closed form M = max_i p^(n-1-i) nu_i, with attainment bookkeeping.

    Returns a dict: M, conductor = M + 1, the attaining index, and whether
    the maximum is attained once.  A tie cannot actually occur (the i-th
    candidate has p-adic valuation exactly n-1-i since nu_i is prime to p,
    so all candidates are distinct), but the flag is reported rather than
    assumed so that a violated hypothesis surfaces loudly downstream.
    """
    _validate_orders(p, n, nu)
    cands = [p ** (n - 1 - i) * nu[i] for i in range(n)]
    M = max(cands)
    where = [i for i, c in enumerate(cands) if c == M]
    return {
        "p": p,
        "n": n,
        "nu": tuple(nu),
        "M": M,
        "conductor": M + 1,
        "argmax": where[0],
        "unique": len(where) == 1,
    }


def section_degree_oracle(p, n, nu):
    """Lattice twin of theorem_conductor.

    Maximizes sum_h i_h nu_h over the integer points with
    0 <= i_h <= p^(n-1-h) and sum_h p^h i_h = p^(n-1), by exact enumeration
    (lp_minimize); the witnesses are every maximizing point, in
    lexicographic order.
    """
    _validate_orders(p, n, nu)
    prob = LatticeProblem(
        nu, [p**h for h in range(n)], p ** (n - 1), [0] * n,
        [p ** (n - 1 - h) for h in range(n)], sense="max",
    )
    best, witnesses = lp_minimize(prob)
    return {"M": best, "witnesses": witnesses}


class LatticeProblem:
    """Integer linear program over a finite box with one equality constraint.

    minimize / maximize   sum_j objective[j] * x_j
    subject to            sum_j eq_coeffs[j] * x_j = eq_rhs
                          lower[j] <= x_j <= upper[j]
    """

    def __init__(self, objective, eq_coeffs, eq_rhs, lower, upper, sense="min"):
        k = len(objective)
        if not (len(eq_coeffs) == len(lower) == len(upper) == k):
            raise ValueError("inconsistent problem dimensions")
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        if any(u < l for l, u in zip(lower, upper)):
            raise InfeasibleProblem("empty box")
        self.objective = tuple(int(c) for c in objective)
        self.eq_coeffs = tuple(int(c) for c in eq_coeffs)
        self.eq_rhs = int(eq_rhs)
        self.lower = tuple(int(c) for c in lower)
        self.upper = tuple(int(c) for c in upper)
        self.sense = sense
        self.dim = k

    def __repr__(self):
        return (
            f"LatticeProblem({self.sense} {self.objective}, "
            f"{self.eq_coeffs}.x = {self.eq_rhs}, box {self.lower}..{self.upper})"
        )


def lp_minimize(prob):
    """Exact optimum of a LatticeProblem by enumeration with residual pruning.

    Depth-first over the variables; a branch dies as soon as the remaining
    coefficients cannot reach the residual right-hand side.  Returns
    (value, argmin tuple of points); raises InfeasibleProblem when no lattice
    point satisfies the constraint.
    """
    k = prob.dim
    # residual reachability bounds for suffixes
    lo_reach = [0] * (k + 1)
    hi_reach = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        c = prob.eq_coeffs[j]
        terms = (c * prob.lower[j], c * prob.upper[j])
        lo_reach[j] = lo_reach[j + 1] + min(terms)
        hi_reach[j] = hi_reach[j + 1] + max(terms)

    sign = 1 if prob.sense == "min" else -1
    best = None
    argbest = []
    point = [0] * k

    def rec(j, residual):
        nonlocal best, argbest
        if j == k:
            if residual == 0:
                val = sum(c * x for c, x in zip(prob.objective, point))
                if best is None or sign * val < sign * best:
                    best = val
                    argbest = [tuple(point)]
                elif val == best:
                    argbest.append(tuple(point))
            return
        if not (lo_reach[j] <= residual <= hi_reach[j]):
            return
        c = prob.eq_coeffs[j]
        for x in range(prob.lower[j], prob.upper[j] + 1):
            point[j] = x
            rec(j + 1, residual - c * x)
        point[j] = 0

    rec(0, prob.eq_rhs)
    if best is None:
        raise InfeasibleProblem(f"no lattice point satisfies {prob!r}")
    return best, tuple(argbest)


def carry_pole_lp(p, n, weights):
    """The carry-pole program in exponent-pair variables (a_i, b_i).

    Monomials of the weight-p^n carry have per-slot degrees a_i (power part,
    at most p^(n-i) - 1 by the leading-term factorisation) and b_i (plain
    part, at most p^(n-i); the plain side gets the looser bound because the
    substituted series picks up extra terms from negation when p = 2), tied
    by the isobaric constraint sum p^i (a_i + b_i) = p^n.  Evaluating slot i
    on a series of valuation w_i contributes (p a_i + b_i) w_i, so the worst
    pole is the minimum of sum w_i (p a_i + b_i).
    """
    if len(weights) != n:
        raise ValueError(f"expected {n} weights")
    objective = []
    eq = []
    lower = []
    upper = []
    for i in range(n):
        objective += [p * weights[i], weights[i]]  # a_i then b_i
        eq += [p**i, p**i]
        lower += [0, 0]
        upper += [p ** (n - i) - 1, p ** (n - i)]
    return LatticeProblem(objective, eq, p**n, lower, upper, sense="min")


# a carry table with more terms than this is not evaluated: the evaluation
# is a series computation whose cost grows with the table
CARRY_COST_LIMIT = 4000


def sort_bound_check(tower):
    """Verify the generator and carry pole bounds on a built tower.

    Checks, per solved level j (with m = tower.top.m and so on):
      - v(y_j) at stage j+1 is >= -p^j m_(j+1), with equality exactly when
        nu_j = m_(j+1);
      - the literal carry evaluation c_n(ytilde^p, -ytilde) at the top stage
        has valuation >= -(p^(n+1) - p + 1) m_n, the closed bound, and >=
        the optimum of carry_pole_lp at the weights v(ytilde_i), the program
        bound.  The program bound holds once every monomial of c_n mod p
        lies in the program's exponent box, which is checked first.
    The carry evaluation is skipped (and reported as such) when the carry
    table exceeds CARRY_COST_LIMIT terms.
    """
    p, n = tower.p, tower.n
    top = tower.top
    report = {"p": p, "n": n, "nu": tower.datum.nu, "stage_bounds": []}

    for j in range(n):
        stage = tower.stages[j + 1]
        v_y = stage.y[j].valuation()
        bound = -(p**j) * stage.m[j + 1]
        equality_expected = tower.datum.nu[j] == stage.m[j + 1]
        entry = {
            "level": j,
            "v_y": v_y,
            "bound": bound,
            "equality": v_y == bound,
            "equality_expected": equality_expected,
        }
        report["stage_bounds"].append(entry)
        if v_y < bound or entry["equality"] != equality_expected:
            raise ConsistencyFailure(
                f"generator bound fails at level {j}: v = {v_y}, bound = {bound}, "
                f"equality expected {equality_expected}"
            )

    table = build_table(p, n + 1)
    cn = table.c[n]
    if len(cn) > CARRY_COST_LIMIT:
        report["carry_bound"] = {"skipped": True, "table_terms": len(cn)}
        return report
    cn = ip.p_mod(cn, p)
    for i in range(n):
        box = p ** (n - i)
        if ip.degree_in(cn, xvar(i)) > box - 1 or ip.degree_in(cn, yvar(i)) > box:
            raise ConsistencyFailure(f"c_{n} leaves the carry-pole box in slot {i}")
    weights = [top.ytilde[i].valuation() for i in range(n)]
    lp_bound, _ = lp_minimize(carry_pole_lp(p, n, weights))
    vals = {}
    for i in range(n):
        vals[xvar(i)] = top.ytilde[i].pth_power()
        vals[yvar(i)] = -top.ytilde[i]
    series = ip.p_eval(cn, vals, TruncatedLaurentSeries.monomial(tower.ring, 0))
    bound = -(p ** (n + 1) - p + 1) * top.m[n]
    v_c = series.val_lower_bound()
    report["carry_bound"] = {
        "skipped": False,
        "valuation_lower_bound": v_c,
        "bound": bound,
        "lp_bound": lp_bound,
    }
    if v_c < bound or v_c < lp_bound:
        raise ConsistencyFailure(
            f"carry bound fails: v >= {v_c} observed, closed bound {bound}, "
            f"program bound {lp_bound}"
        )
    return report


def claim_pole_check(tower):
    """Restate the top break through the closed conductor form.

    For every level k of a built tower, the reduced datum z_(k-1) has pole
    order p^(k-1) M_k - mu_(k-1) where M_k = theorem_conductor at depth k of
    the truncated pole orders; equivalently the stage recursion.  Returns
    the per-level records; raises ConsistencyFailure on mismatch.
    """
    p, n = tower.p, tower.n
    top = tower.top
    out = []
    for k in range(1, n + 1):
        M_k = theorem_conductor(p, k, tower.datum.nu[:k])["M"]
        want = p ** (k - 1) * M_k - top.mu[k - 1]
        got = -top.z_std[k - 1].valuation()  # measured, in level k-1 terms
        if got != want:
            raise ConsistencyFailure(
                f"level {k}: reduced pole {got} != p^{k - 1} M - mu = {want}"
            )
        out.append({"level": k, "M": M_k, "pole": got})
    return out
