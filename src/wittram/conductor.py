"""Closed-form conductor arithmetic and the integer-lattice oracles behind it.

The conductor exponent of a cyclic p^n-cover with pole orders nu has the
closed form M + 1 with M = max_i p^(n-1-i) nu_i.  The same number is the
maximum of a linear functional over a small lattice box, and the pole bounds
on carry evaluations reduce to tiny integer programs.  Everything here is
exact enumeration; no floating-point optimizer is ever consulted.
"""

from __future__ import annotations

from .coeff import is_prime
from .errors import ConsistencyFailure, InfeasibleProblem
from .witt import witt_sum_component


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
    """Exact optimum of a LatticeProblem by enumeration with pruning.

    Depth-first over the variables; a branch dies when the remaining
    coefficients cannot reach the residual right-hand side, or when its
    linear relaxation (the lower corner, plus the rest of the constraint at
    the least cost per unit) costs more than the best value found, which a
    tie never does.  Returns (value, argmin tuple of points in lexicographic
    order); raises InfeasibleProblem when no lattice point is feasible.
    """
    k = prob.dim
    eq, lower, upper = prob.eq_coeffs, prob.lower, prob.upper
    sign = 1 if prob.sense == "min" else -1
    cost = [sign * c for c in prob.objective]  # minimized
    # per suffix: the residuals it reaches, its lower corner's cost and
    # constraint share, and its least cost per unit of the constraint
    lo_reach = [sum(min(eq[l] * lower[l], eq[l] * upper[l]) for l in range(j, k)) for j in range(k)]
    hi_reach = [sum(max(eq[l] * lower[l], eq[l] * upper[l]) for l in range(j, k)) for j in range(k)]
    corner = [sum(cost[l] * lower[l] for l in range(j, k)) for j in range(k)]
    filled = [sum(eq[l] * lower[l] for l in range(j, k)) for j in range(k)]
    bounded = min(eq, default=0) > 0  # else the relaxation bound may fail
    ratio = []  # as (cost, eq)
    for j in range(k - 1, -1, -1):
        r = (cost[j], eq[j])
        ratio.insert(0, r if not ratio or r[0] * ratio[0][1] < ratio[0][0] * r[1] else ratio[0])
    best = None
    argbest = []
    point = [0] * k

    def rec(j, residual, spent):
        nonlocal best, argbest
        if j == k:
            if residual == 0:
                if best is None or spent < best:
                    best = spent
                    argbest = [tuple(point)]
                elif spent == best:
                    argbest.append(tuple(point))
            return
        if not (lo_reach[j] <= residual <= hi_reach[j]):
            return
        if bounded and best is not None:
            c, a = ratio[j]  # a cost of at least spent + corner + (c / a) * rest
            if (spent + corner[j] - best) * a + c * (residual - filled[j]) > 0:
                return
        xs = range(lower[j], upper[j] + 1)
        for x in reversed(xs) if cost[j] < 0 else xs:  # cheap points first
            point[j] = x
            rec(j + 1, residual - eq[j] * x, spent + cost[j] * x)
        point[j] = 0

    rec(0, prob.eq_rhs, 0)
    if best is None:
        raise InfeasibleProblem(f"no lattice point satisfies {prob!r}")
    return sign * best, tuple(sorted(argbest))


def carry_pole_lp(p, n, weights):
    """The carry-pole program in exponent-pair variables (a_i, b_i).

    Evaluating X_i^(a_i) Y_i^(b_i) at X_i = ytilde_i^p and Y_i = -ytilde_i,
    with v(ytilde_i) = w_i, gives valuation sum w_i (p a_i + b_i); the worst
    pole is its minimum over the monomials of c_n, all in the box by weight.
    c_n is isobaric of weight p^n in the slots i < n, with X_i and Y_i of
    weight p^i, so sum p^i (a_i + b_i) = p^n and b_i <= p^(n-i).  Then
    a_i = p^(n-i) leaves room only for X_i^(p^(n-i)), which cannot occur as
    c_n(X, 0) = S_n(X, 0) - X_n = 0; so a_i <= p^(n-i) - 1.  Reducing c_n
    mod p only drops monomials.  Table builds certify the weight and the
    slots, and a test checks the box on c_n mod p.
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


def sort_bound_check(tower):
    """Verify the generator and carry pole bounds on a built tower.

    Checks, per solved level j (with m = tower.top.m and so on):
      - v(y_j) at stage j+1 is >= -p^j m_(j+1), with equality exactly when
        nu_j = m_(j+1);
      - the literal carry evaluation c_n(ytilde^p, -ytilde) at the top stage
        has valuation >= -(p^(n+1) - p + 1) m_n, the closed bound, and >=
        the optimum of carry_pole_lp at the weights v(ytilde_i), the program
        bound, which holds because every monomial of c_n lies in the
        program's box by weight (see carry_pole_lp).  The carry itself is
        component n of the Witt sum (ytilde^p, 0) + (-ytilde, 0), through
        ghost components, so no Witt table is read.
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

    weights = [top.ytilde[i].valuation() for i in range(n)]
    lp_bound, _ = lp_minimize(carry_pole_lp(p, n, weights))
    series = witt_sum_component(
        tower.ring, n, [[y.pth_power() for y in top.ytilde], [-y for y in top.ytilde]]
    )
    bound = -(p ** (n + 1) - p + 1) * top.m[n]
    v_c = series.val_lower_bound()
    report["carry_bound"] = {
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
