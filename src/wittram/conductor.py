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
                          x_j - x_k = 0 (mod m) and lo <= x_j - x_k <= hi
                              for (j, k, m, lo, hi) in couplings

    The coupling list is optional; it is what makes the substituted form of
    the carry-pole program an exact re-encoding (the difference alpha - b
    must be a p-multiple inside the original exponent box) rather than a
    strictly weaker relaxation.
    """

    def __init__(
        self, objective, eq_coeffs, eq_rhs, lower, upper, sense="min",
        couplings=(),
    ):
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
        self.couplings = tuple(tuple(int(x) for x in c) for c in couplings)
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

    best = None
    argbest = []
    point = [0] * k

    def rec(j, residual):
        nonlocal best, argbest
        if j == k:
            if residual == 0 and all(
                (point[a] - point[b]) % m == 0
                and lo <= point[a] - point[b] <= hi
                for (a, b, m, lo, hi) in prob.couplings
            ):
                val = sum(c * x for c, x in zip(prob.objective, point))
                key = val if prob.sense == "min" else -val
                cur = None if best is None else (best if prob.sense == "min" else -best)
                if cur is None or key < cur:
                    best = val
                    argbest = [tuple(point)]
                elif key == cur:
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


def carry_pole_lp_substituted(p, n, weights):
    """The same program in variables (alpha_i, b_i) with alpha_i = p a_i + b_i.

    The isobaric constraint becomes
        sum p^i alpha_i + sum (p^(i+1) - p^i) b_i = p^(n+1),
    the objective is sum w_i alpha_i, and integrality plus the box of a_i
    survive as the coupling
        alpha_i = b_i (mod p),  0 <= alpha_i - b_i <= p (p^(n-i) - 1).
    The change of variables is then a bijection, so the optimum agrees with
    the (a, b) form; dropping either half of the coupling gives a strictly
    weaker relaxation.
    """
    if len(weights) != n:
        raise ValueError(f"expected {n} weights")
    objective = []
    eq = []
    lower = []
    upper = []
    couplings = []
    for i in range(n):
        objective += [weights[i], 0]  # alpha_i then b_i
        eq += [p**i, p ** (i + 1) - p**i]
        lower += [0, 0]
        upper += [p ** (n - i + 1) - p + 1, p ** (n - i)]
        couplings.append((2 * i, 2 * i + 1, p, 0, p * (p ** (n - i) - 1)))
    return LatticeProblem(
        objective, eq, p ** (n + 1), lower, upper, sense="min",
        couplings=couplings,
    )


def sort_bound_check(tower, carry_cost_limit=4000):
    """Verify the generator and carry pole bounds on a built tower.

    Checks, per solved level j (with m = tower.top.m and so on):
      - v(y_j) at stage j+1 is >= -p^j m_(j+1), with equality exactly when
        nu_j = m_(j+1);
      - the literal carry evaluation c_n(ytilde^p, -ytilde) at the top stage
        has valuation >= -(p^(n+1) - p + 1) m_n.
    The carry evaluation is skipped (and reported as such) when the carry
    table would exceed carry_cost_limit terms; the bound itself is a series
    computation whose cost grows with the table.
    """
    p, n = tower.p, tower.n
    top = tower.top
    report = {"p": p, "n": n, "nu": tower.datum.nu, "stage_bounds": [], "ok": True}

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
            report["ok"] = False
            raise ConsistencyFailure(
                f"generator bound fails at level {j}: v = {v_y}, bound = {bound}, "
                f"equality expected {equality_expected}"
            )

    table = build_table(p, n + 1)
    cn = table.c[n]
    if len(cn) > carry_cost_limit:
        report["carry_bound"] = {"skipped": True, "table_terms": len(cn)}
        return report
    ring = tower.ring
    vals = {}
    for i in range(n):
        vals[xvar(i)] = top.ytilde[i].pth_power()
        vals[yvar(i)] = -top.ytilde[i]
    series = ip.p_eval(ip.p_mod(cn, p), vals, TruncatedLaurentSeries.monomial(ring, 0))
    bound = -(p ** (n + 1) - p + 1) * top.m[n]
    v_c = bound if series.is_exact_zero() else series.val_lower_bound()
    report["carry_bound"] = {
        "skipped": False,
        "valuation_lower_bound": v_c,
        "bound": bound,
    }
    if v_c < bound:
        report["ok"] = False
        raise ConsistencyFailure(
            f"carry bound fails: v >= {v_c} observed, bound {bound}"
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
