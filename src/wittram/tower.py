"""Cyclic p-power covers of a Laurent-series base, built stage by stage.

A length-n generator datum u = (u_0, ..., u_{n-1}) of pole orders prime to p
determines a tower of n Artin-Schreier steps over k((s)).  Each stage is
realised concretely: the new local field is again a Laurent-series field in a
uniformizer t_{i+1}, the previous uniformizer and all solved generators are
re-expanded as certified-precision series in it, and every defining relation
is re-verified numerically before the stage is accepted.

The module exposes the per-stage operations (reduction to standard form,
stage extension, conjugate transport) as well as tower-level reports:
ramification filtration, transition function, conductor exponent, and the
cross-checked invariant families (m_i, e_i, mu_i).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .coeff import finite_field, pth_root
from .errors import (
    ConsistencyFailure,
    HasseArfViolation,
    InsufficientPrecision,
    NonTotallyRamified,
)
from .series import (DIRECT_CONV_ROWS, TruncatedLaurentSeries, compose,
                     power_precision)
from .witt import invert_ghosts, witt_sum_component

INF = math.inf

# the window plan adds no margin to the net's requirement; this and
# Tower.factor stay only while bench/run.py and bench/workloads.py read them
DEFAULT_BUDGET_FACTOR = 0


class CoverDatum:
    """Length-n generator vector over k((s)), poles prime to p.

    Entries are certified-precision series in s.  The constructor checks the
    wild-cover hypothesis: every entry has a genuine pole whose order is not
    divisible by p.
    """

    def __init__(self, p, n, ring, entries):
        if n < 1:
            raise ValueError(f"tower height n must be at least 1, got {n}")
        if len(entries) != n:
            raise ValueError(f"expected {n} generator entries, got {len(entries)}")
        self.p = p
        self.n = n
        self.ring = ring
        self.entries = tuple(entries)
        nu = []
        for i, e in enumerate(self.entries):
            if e.ring is not ring:
                raise ValueError("datum entries must share one coefficient field")
            v = e.valuation()
            if v >= 0:
                raise ValueError(f"entry {i} has no pole (valuation {v})")
            if (-v) % p == 0:
                raise ValueError(f"entry {i} pole order {-v} divisible by p={p}")
            nu.append(-v)
        self.nu = tuple(nu)

    @classmethod
    def from_orders(cls, p, n, f, nu):
        """Shorthand datum u_i = s^(-nu_i) over the field with p^f elements."""
        ring = finite_field(p, f)
        entries = [TruncatedLaurentSeries.monomial(ring, -v) for v in nu]
        return cls(p, n, ring, entries)

    def __repr__(self):
        return f"CoverDatum(p={self.p}, n={self.n}, nu={self.nu})"


def standard_form_reduce(z):
    """Strip p-divisible pole terms from z by subtracting x^p - x pieces.

    Returns (z_std, h) with z - z_std = h^p - h and z_std of pole order prime
    to p.  Raises NonTotallyRamified when the reduced datum has no pole left
    (the step would be unramified or split), and InsufficientPrecision when
    the window cannot certify a valuation.
    """
    ring = z.ring
    if not ring.is_field:
        raise ValueError("standard form reduction needs field coefficients")
    p = ring.p
    h = TruncatedLaurentSeries.zero(ring)
    while True:
        if z.is_exact_zero():
            raise NonTotallyRamified("datum reduced to zero: split step")
        v = z.valuation()
        if v >= 0:
            raise NonTotallyRamified(
                f"reduced datum regular (valuation {v}): step not totally ramified"
            )
        if (-v) % p != 0:
            return z, h
        root = pth_root(z.leading_coeff())
        term = TruncatedLaurentSeries.monomial(ring, v // p, root)
        h = h + term
        z = z - (term.pth_power() - term)


def _bezout_exponents(e, p):
    """Minimal a in [1, p-1] and matching b with -a*e + b*p = 1."""
    if e % p == 0:
        raise ValueError(f"break {e} is divisible by p={p}")
    a = (-pow(e, -1, p)) % p
    if a == 0:
        a = p
    b = (1 + a * e) // p
    if -a * e + b * p != 1:
        raise ConsistencyFailure(f"Bezout exponents a={a}, b={b} fail for e={e}, p={p}")
    return a, b


def _solve_stage(z_std, ring, window):
    """Solve one Artin-Schreier step in its own Laurent-series model.

    Given the standard-form datum z_std (pole order e prime to p, series in
    the current uniformizer t), produce series T and Y in the next
    uniformizer tau with

        Y^p - Y = z_std(T),        Y^a * T^b = tau,

    where -a*e + b*p = 1.  T re-expands t and Y re-expands the standard
    generator; v(T) = p and v(Y) = -e.  Newton runs on F(T) = Y^p - Y -
    z_std(T), Y(T) = (tau T^(-b))^(1/a), with F' = (b/a) Y/T - z_std'(T);
    each step doubles the right rows of T (Brent-Kung 1978), so
    ceil(log2(rows)) steps run on a short window, then one per doubled
    window up to the planned one (Bernstein, "Removing redundancy in
    high-precision Newton iteration").  The residual of the returned (T, Y)
    on the full window is the relation certificate.  Each iterate T =
    c^(-a) tau^p U forms one inverse root w = U^(-1/a), started from the
    rows of the last one below the first row of U that moved, and reads
    Y = c^b tau^(-e) w^b, T^(-1) and T^(-e) off it, kept on T.  z'(T) is
    composed only for a step, on the rows that the step reads, and
    the inverse of each Newton denominator starts from the last one's.
    Only raw rows are carried from one iterate to the next.
    """
    p = ring.p
    e = -z_std.valuation()
    a, b = _bezout_exponents(e, p)
    c = z_std.leading_coeff()
    b_over_a = b * pow(a, -1, p) % p
    tau = TruncatedLaurentSeries.monomial(ring, 1)

    def unit_side(T, start):
        # Y from the unit relation, with the forced leading root; returns
        # the rows of the root, Y and Y^p - Y
        root = T.inv_root(a, start)
        Y = (root**b).shift(-e).scalar_mul(c**b)
        Yp = Y.pth_power()
        # T = d tau^p U has T^-e = d^-e tau^-pe w^(bp-1) = d^-e c^-bp Y^p U w^(a-1)
        scale = T.leading_coeff() ** (-e - 1) * c ** (-b * p)
        T.keep_pole_power(e, (Yp * T.shift(-p) * root ** (a - 1)).scalar_mul(scale))
        return root.coeffs, Y, Yp - Y

    windows = [window]  # a step at window w needs T right below (w + p) / 2
    while windows[-1] > p + DIRECT_CONV_ROWS:
        windows.append((windows[-1] + p + 1) // 2)
    short = windows.pop()
    T = TruncatedLaurentSeries.monomial(ring, p, c ** (-a)).truncate(short)
    rho = None  # the residual of T, once formed
    root = dinv = None  # rows of the last root and of the last denominator's inverse
    for w in [short] * (short - p - 1).bit_length() + windows[::-1]:
        if w > T.prec:  # pad T with zero rows up to the doubled window
            T = TruncatedLaurentSeries(ring, T.v, T.coeffs, INF).truncate(w)
        elif rho is not None:
            continue  # the residual on the short window vanished
        root, Y, lhs = unit_side(T, root)
        rho = lhs - compose(z_std, T)
        if len(rho.coeffs):
            # z'(T) on the len(rho) rows of the denominator that the step
            # reads, from t^(-p(e + 1)): z' cut at t^k composes to t^(pk).
            # T stays whole, so the composition reads the powers kept on it
            rows = -(-len(rho.coeffs) // p)
            dzT = compose(z_std.derivative().truncate(rows - e - 1), T)
            denom = b_over_a * Y * T.inv() - dzT
            inverse = denom.inv(n_terms=len(rho.coeffs), start=dinv)
            step = rho * inverse
            T, rho, dinv = T - step, None, inverse.coeffs
            root = root[: max(0, step.v - p)]  # the rows of U below t^(v(step) - p) stay
    if rho is None:
        _, Y, lhs = unit_side(T, root)
        rho = lhs - compose(z_std, T)
    if len(rho.coeffs):
        raise InsufficientPrecision(f"stage relation Y^p - Y = z(T) fails at t^{rho.v}")
    res2 = Y**a * T**b - tau
    if len(res2.coeffs):
        raise ConsistencyFailure("stage relation Y^a T^b = tau fails on window")
    if (T.valuation(), Y.valuation()) != (p, -e):
        raise ConsistencyFailure(
            f"stage solution has v(T) = {T.valuation()} and v(Y) = {Y.valuation()}, "
            f"expected {p} and {-e}"
        )
    return T, Y, a, b


class TowerStage:
    """Stage i of the tower: the field k((t_i)) with everything re-expanded.

    Carries the embeddings of s, of every uniformizer below, and of every
    solved generator (both the standard-form ones and the true solutions),
    plus the invariant families m, e, mu up to level i.  Per-level artifacts
    (standard datum, adjustment, correction series, unit-relation exponents)
    are kept in the coordinates of their own level for cheap re-use.
    """

    def __init__(self, datum):
        ring = datum.ring
        self.datum = datum
        self.level = 0
        self.ring = ring
        # exact at the base: maximises downstream precision
        self.t_embs = [TruncatedLaurentSeries.monomial(ring, 1)]
        self.y = []
        self.ytilde = []
        self.z_std = []
        self.h_adj = []
        self.corr = []
        self.bezout = []
        self.m = [0]
        self.e = [0]
        self.mu = [0]

    @property
    def p(self):
        return self.datum.p

    @property
    def s(self):
        """The base uniformizer s = t_0 as a series in t_i."""
        return self.t_embs[0]

    def check_relations(self):
        """Re-verify every solved level's defining relation in t_i terms, but
        the newest one: that is the stage solver's certificate."""
        for j in range(self.level - 1):
            lhs = self.ytilde[j].pth_power() - self.ytilde[j]
            rhs = compose(self.z_std[j], self.t_embs[j])
            if not lhs.agrees_with(rhs):
                raise ConsistencyFailure(f"level-{j} relation fails at stage {self.level}")
        v = self.s.valuation()
        if v != self.p**self.level:
            raise ConsistencyFailure(f"base uniformizer has valuation {v}")


def extend_stage(stage, budget):
    """Solve equation i of the datum and return stage i+1.

    budget is the window length for series at the new stage.  The step:
    evaluate the right-hand side u_i - W_i(y) in t_i coordinates, reduce to
    standard form, solve the Artin-Schreier relation together with the unit
    relation for the next uniformizer, then re-expand every stored series
    through T.  The invariant recursions are cross-checked against the
    observed pole orders and any mismatch raises ConsistencyFailure.
    """
    datum = stage.datum
    i = stage.level
    if i >= datum.n:
        raise ValueError(f"datum has length {datum.n}; stage {i} is final")
    p, ring = datum.p, datum.ring

    u_i = compose(datum.entries[i], stage.s) if i else datum.entries[i]
    # the coupling to the levels below: component i of F(y') - y', y' =
    # (y_0, ..., y_(i-1), 0), is free of y_i
    corr_series = witt_sum_component(ring, i, [[y.pth_power() for y in stage.y]], [stage.y])
    z = u_i - corr_series
    z_std, h = standard_form_reduce(z)

    e_new = -z_std.valuation()
    m_new = max(p * stage.m[i], datum.nu[i])
    e_pred = p**i * m_new - stage.mu[i]
    if e_new != e_pred:
        raise ConsistencyFailure(f"stage {i}: observed break {e_new}, recursion predicts {e_pred}")
    mu_new = p ** (i + 1) * m_new - e_new

    T, Y, a, b = _solve_stage(z_std, ring, budget)

    new = TowerStage.__new__(TowerStage)
    new.datum = datum
    new.level = i + 1
    new.ring = ring
    new.t_embs = [compose(emb, T) for emb in stage.t_embs]
    new.t_embs.append(TruncatedLaurentSeries.monomial(ring, 1))
    # y_j is ytilde_j itself where h_j = 0, and is re-expanded once
    new.ytilde = [compose(yj, T) for yj in stage.ytilde]
    new.y = [yt if yj is stage.ytilde[j] else compose(yj, T)
             for j, (yj, yt) in enumerate(zip(stage.y, new.ytilde))]
    new.y.append(Y if h.is_exact_zero() else Y + compose(h, T))
    new.ytilde.append(Y)
    new.z_std = stage.z_std + [z_std]
    new.h_adj = stage.h_adj + [h]
    new.corr = stage.corr + [corr_series]
    new.bezout = stage.bezout + [(a, b)]
    new.m = stage.m + [m_new]
    new.e = stage.e + [e_new]
    new.mu = stage.mu + [mu_new]

    for j in range(new.level):
        want = -(p ** (i - j)) * new.e[j + 1]
        got = new.ytilde[j].valuation()
        if got != want:
            raise ConsistencyFailure(f"standard generator {j} has valuation {got}, expected {want}")
    new.check_relations()
    return new


class Tower:
    """Fully built tower: the stage sequence of one build."""

    factor = DEFAULT_BUDGET_FACTOR

    def __init__(self, datum, stages):
        self.datum = datum
        self.stages = stages  # stages[i] has level i; stages[n] is the top
        self.top = stages[-1]

    @property
    def p(self):
        return self.datum.p

    @property
    def n(self):
        return self.datum.n

    @property
    def ring(self):
        return self.datum.ring

    def __repr__(self):
        return (
            f"Tower(p={self.p}, n={self.n}, nu={self.datum.nu}, "
            f"e={tuple(self.top.e[1:])})"
        )


def predicted_invariants(p, n, nu):
    """Closed-form m/e/mu families from pole orders alone (planning aid)."""
    m, e, mu = [0], [0], [0]
    for i in range(n):
        m_new = max(p * m[i], nu[i])
        e_new = p**i * m_new - mu[i]
        m.append(m_new)
        e.append(e_new)
        mu.append(p ** (i + 1) * m_new - e_new)
    return m, e, mu


class _PrecisionNet:
    """Absolute precisions of the series one build stores, as a min-affine net.

    Node k stands for one series; its precision is the least of
    a * prec(src) + b over its terms, and a node with no terms is a leaf (a
    stage window) or an exact series.  The terms are the precision rules of
    `series` (products, powers by `power_precision`, inversion, roots, and
    `compose` with its cap g.prec + (v_f - 1) v_g), with valuations taken
    from the predicted invariants or bounded from below by them, so no
    node's precision in the build falls below what the net predicts.  Nodes
    are added in dependency order.
    """

    def __init__(self):
        self.terms = []
        self.need = []

    def node(self, terms=()):
        self.terms.append(list(terms))
        self.need.append(-INF)
        return len(self.terms) - 1

    def compose(self, f, v_f, g, v_g):
        """Node for f(g) with v(f) >= v_f; f is None for an exact series."""
        terms = [(g, 1, (v_f - 1) * v_g)]
        if f is not None:
            terms.append((f, v_g, 0))
        return self.node(terms)

    def require(self, k, prec):
        self.need[k] = max(self.need[k], prec)

    def solve(self):
        """Least precision every node must reach so that every need is met."""
        req = list(self.need)
        for k in range(len(req) - 1, -1, -1):
            if req[k] == -INF:
                continue
            for src, a, b in self.terms[k]:
                req[src] = max(req[src], -((b - req[k]) // a))
        return req


def _ghost_sum_node(net, p, i, entries):
    """Node for `witt_sum_component` at component i, and its valuation bound.

    entries lists (l, node, a, v) per entry: slot l, known to a * prec(node)
    (node None: exact), valuation at least v.  Over the lift E^(p^e) keeps
    prec(E) + (p^e - 1) v(E); component k is isobaric of weight p^k, so
    v(x_k) >= V_k = min over l <= k of p^(k-l) v_l, and x_k is known to the
    least of its ghost terms and of the chains x_l^(p^(k-l)), l < k."""
    V, xs = [], []
    for k in range(i + 1):
        V.append(min(p ** (k - l) * v for l, _node, _a, v in entries if l <= k))
        terms = [(node, a, (p ** (k - l) - 1) * v) for l, node, a, v in entries
                 if l <= k and node is not None]
        terms += [(xs[l], 1, (p ** (k - l) - 1) * V[l]) for l in range(k)]
        xs.append(net.node(terms))
    return xs[i], V[i]


def _plan(datum):
    """The `_PrecisionNet` of one build of the datum, with every read required.

    The jumps and the certificates are the reads: the Galois conjugates
    must resolve i(g) <= e_n + 1 at the top, so sigma t_n is needed to
    e_n + 2, and every stage certifies its reduction to standard form and
    the valuations of the re-expanded standard generators, which also shows
    the leads of Y_i' and z_i' that the chain-rule different reads.  The
    nodes mirror the build, with the pole orders of the data, of the ghost
    components behind the corrections and increments (`_ghost_sum_node`)
    and of the re-expansions known in advance from `predicted_invariants`
    and the generator bound v(y_j) >= -p^j m_(j+1).  The stage map T_i is
    known to min(W_i, p (prec(z_i) + e_(i+1) + 1)).

    Returns (net, windows, stored, sig_t): the leaf of each stage window;
    per level i + 1, the nodes of the t_embs, y and ytilde that stage
    stores (None for an exact series); and the node of sigma_g(t_n), which
    bounds `galois_conjugate(tower, g)` for every g.
    """
    p, n = datum.p, datum.n
    m, e, _mu = predicted_invariants(p, n, datum.nu)
    # pole order of the standard-form adjustment h_i, in level-i terms
    pole_h = [0] + [p ** (i - 1) * m[i + 1] for i in range(1, n)]
    net = _PrecisionNet()
    windows = [net.node() for _ in range(n)]

    # level state: (node, valuation bound); node None is an exact series
    t_embs = [(None, 1)]
    y, ytilde = [], []
    y_by_level = [y]
    stored = []
    for i in range(n):
        e_new = e[i + 1]
        z = None  # the base datum entry: no window changes it
        if i:
            u = net.node([(t_embs[0][0], 1, (-datum.nu[i] - 1) * p**i)])
            # the correction: y_j^p over the field, known to p prec(y_j), minus y_j
            corr, _v = _ghost_sum_node(
                net, p, i, [(j, node, p, p * v) for j, (node, v) in enumerate(y)]
                + [(j, node, 1, v) for j, (node, v) in enumerate(y)],
            )
            z = net.node([(u, 1, 0), (corr, 1, 0)])
            net.require(z, 1 - e_new)
        T_terms = [(windows[i], 1, 0)]
        if z is not None:
            T_terms.append((z, p, p * (e_new + 1)))
        T = net.node(T_terms)

        def lift(series):
            node, v = series
            return net.compose(node, v, T, p), p * v

        t_embs = [lift(t) for t in t_embs] + [(None, 1)]
        # Y = c^b tau^(-e) w^b, with the root w on the prec(T) - p rows of T
        pa, pb = power_precision(datum.ring, _bezout_exponents(e_new, p)[1], 0)
        Y = net.node([(T, pa, pb - pa * p - e_new)])
        y_new = Y
        if pole_h[i]:
            y_new = net.node([(Y, 1, 0), (T, 1, -(pole_h[i] + 1) * p)])
        y = [lift(yj) for yj in y] + [(y_new, -(p**i) * m[i + 1])]
        ytilde = [lift(yj) for yj in ytilde] + [(Y, -e_new)]
        for node, v in ytilde:
            net.require(node, v + 1)
        y_by_level.append(y)
        stored.append({name: [node for node, _v in level]
                       for name, level in (("t_embs", t_embs), ("y", y), ("ytilde", ytilde))})

    # Galois conjugates of t_n, built level by level as in galois_conjugate
    sig_t = t_embs[0][0]
    for j in range(n):
        v_t = p ** (n - j)
        # the increment y' + gbar at component j, for every g: constants in slots 0..j
        delta, v_delta = _ghost_sum_node(
            net, p, j, [(l, node, 1, v) for l, (node, v) in enumerate(y_by_level[j])]
            + [(l, None, 1, 0) for l in range(j + 1)],
        )
        delta_top = net.compose(delta, v_delta, t_embs[j][0], v_t)
        sig_ytilde = net.node([(y[j][0], 1, 0), (delta_top, 1, 0)])
        if pole_h[j]:
            sig_ytilde = net.node([(sig_ytilde, 1, 0), (sig_t, 1, (-pole_h[j] - 1) * v_t)])
        a, b = _bezout_exponents(e[j + 1], p)
        v_yt = -(p ** (n - 1 - j)) * e[j + 1]
        # the product of the powers sigma ytilde^a and sigma t^b
        ya, yb = power_precision(datum.ring, a, v_yt)
        ta, tb = power_precision(datum.ring, b, v_t)
        sig_t = net.node([(sig_ytilde, ya, yb + b * v_t), (sig_t, ta, tb + a * v_yt)])
    net.require(sig_t, e[n] + 2)
    return net, windows, stored, sig_t


def _stage_budgets(datum):
    """Window plan: the least stage windows that meet every read of `_plan`.

    The requirements are carried backwards through the precision each
    operation loses (`_PrecisionNet.solve`), and the plan is exactly what
    they ask, with no margin on top.  That makes the net a claim about the
    build, and the tests check it as one: every series a build stores
    reaches the precision the net predicts forwards from these windows.
    A window beyond what the stage below supports buys nothing.  Datum
    entries count as exact: an entry known only to O(s^N) caps every stage
    whatever the windows, and the build then raises InsufficientPrecision.
    """
    net, windows, _stored, _sig_t = _plan(datum)
    req = net.solve()
    return [req[w] for w in windows]


def build_tower(datum):
    """Build all n stages in one pass, with windows planned from the invariants.

    `_stage_budgets` sizes every stage from what the build, the filtration
    and the invariant report read downstream, so a single attempt certifies
    everything `analyze_tower` checks.  A window that still falls short
    raises InsufficientPrecision: the plan has missed a read.
    """
    stages = [TowerStage(datum)]
    for budget in _stage_budgets(datum):
        stages.append(extend_stage(stages[-1], budget))
    return Tower(datum, stages)


def analyze_tower(datum):
    """Build, filter and cross-check in one call.  Returns
    (tower, filtration, report).

    One build on the window plan; a precision failure anywhere is raised as
    it is, with its cause, since the plan covers every read downstream.
    """
    tower = build_tower(datum)
    filtration = ramification_filtration(tower)
    return tower, filtration, tower_invariants(tower, filtration)


# ---------- Galois conjugates ----------


@lru_cache(maxsize=None)
def group_element_coordinates(p, n, g):
    """Coordinates over F_p of the residue class g in the length-n vectors.

    g times the unit vector has every ghost component g; the components
    follow by inverting those over Z/p^n, and reduce mod p."""
    mod = p**n

    def divide(w, k):
        w %= mod
        if w % p**k:
            raise ConsistencyFailure(f"ghost inversion of {g} is not exact at component {k}")
        return w // p**k

    return tuple(x % p for x in invert_ghosts([g % mod] * n, p, divide))


def _increment(tower, j, gbar):
    """delta_(j,g) = sigma_g(y_j) - y_j in stage j's window.

    sigma_g adds the constant vector gbar, g's coordinates (of length at
    least j + 1), to the solution vector, so delta_(j,g) is component j of
    y' + gbar with y' = (y_0, ..., y_(j-1), 0), the solutions of stage j.
    """
    return witt_sum_component(tower.ring, j, [tower.stages[j].y, gbar[: j + 1]])


def galois_conjugate(tower, g, level=None, top_increment=None):
    """Series expansion of sigma_g(t_level) in t_level, built up the tower.

    level defaults to the top n; sigma_g acts on k((t_level)) through
    g mod p^level.  sigma_g translates the solution vector by the
    coordinates of g; the per-level increments are evaluated in their own
    stage's (small) window and transported up by one composition each, then
    the unit relations rebuild the conjugate uniformizer level by level.
    top_increment, when given, is the increment of level - 1, evaluated.
    """
    p = tower.p
    n = tower.n if level is None else level
    top = tower.stages[n]
    g = g % p**n
    if g == 0:
        return top.t_embs[n]
    gbar = group_element_coordinates(p, n, g)

    sig_t = top.t_embs[0]
    for j in range(n):
        if j < n - 1 or top_increment is None:
            delta_top = compose(_increment(tower, j, gbar), top.t_embs[j])
        else:
            delta_top = compose(top_increment, top.t_embs[j])
        sig_y = top.y[j] + delta_top
        h = top.h_adj[j]
        sig_ytilde = sig_y - compose(h, sig_t) if len(h.coeffs) else sig_y
        a, b = top.bezout[j]
        sig_t = sig_ytilde**a * sig_t**b
    return sig_t


class RamificationFiltration:
    """Lower-numbering jump data of a built tower.

    jumps carries (element order, i(g), class size) per cyclic-order class;
    breaks are the integers u with G_u != G_(u+1); different is the exponent
    of the different, Sum over u >= 0 of (|G_u| - 1) = Sum over g != 1 of
    i(g).
    """

    def __init__(self, p, n, jumps):
        self.p = p
        self.n = n
        self.jumps = tuple(jumps)
        self.breaks = tuple(sorted({i_g - 1 for (_o, i_g, _m) in jumps}))
        self.different = sum(i_g * m for (_o, i_g, m) in jumps)

    def group_order(self, u):
        """|G_u| for integer u >= 0."""
        return 1 + sum(m for (_o, i_g, m) in self.jumps if i_g >= u + 1)

    def segments(self):
        """[(lo, hi, order)] with |G_u| = order for lo <= u <= hi."""
        out = []
        lo = 0
        for br in self.breaks:
            out.append((lo, br, self.group_order(lo)))
            lo = br + 1
        out.append((lo, None, 1))
        return out


def _increment_jump(tower, g, delta):
    """i(g) read off delta = delta_(n-1,g), the increment of the top
    generator, with no conjugate at the top.

    sigma_g moves y_(n-1) by delta, and v(sigma x - x) = v(x) +
    i(g) - 1 when p does not divide v(x) (Serre, Local Fields, IV section
    1); v(t_(n-1)) = p in t_n.  x is y_(n-1) when p does not divide
    v(y_(n-1)), else ytilde_(n-1) = y_(n-1) - h(t_(n-1)), whose increment
    also subtracts h(sigma t_(n-1)) - h(t_(n-1)); sigma t_(n-1) depends on
    g mod p^(n-1) only, and is t_(n-1) itself when that is 0.
    """
    p, n = tower.p, tower.n
    x = tower.top.y[n - 1]
    r = g % p ** (n - 1)
    if x.valuation() % p == 0:
        x, h = tower.top.ytilde[n - 1], tower.top.h_adj[n - 1]
        if r:
            delta = delta - (compose(h, galois_conjugate(tower, r, level=n - 1)) - h)
    return p * delta.valuation() - x.valuation() + 1


def ramification_filtration(tower):
    """Measure the lower-numbering jumps i(g) and assemble the filtration.

    i(g) depends only on the order p^k of g, whose class has the
    representative p^(n-k).  Each representative is read by two routes:
    the conjugate route, v(sigma_g(t_n) - t_n) off `galois_conjugate`, and
    the increment route, `_increment_jump`; both take the one evaluation
    of delta_(n-1,g).  Readings that differ raise ConsistencyFailure; the
    class size scales the agreed jump.
    """
    p, n = tower.p, tower.n
    t_top = tower.top.t_embs[n]

    jumps = []
    for k in range(1, n + 1):
        rep = p ** (n - k)
        delta = _increment(tower, n - 1, group_element_coordinates(p, n, rep))
        i_g = (galois_conjugate(tower, rep, top_increment=delta) - t_top).valuation()
        i_inc = _increment_jump(tower, rep, delta)
        if i_inc != i_g:
            raise ConsistencyFailure(
                f"i(g) on the order-p^{k} class: the conjugate of {rep} gives {i_g}, "
                f"its increment gives {i_inc}"
            )
        jumps.append((p**k, i_g, p**k - p ** (k - 1)))

    filt = RamificationFiltration(p, n, jumps)

    # jumps decrease strictly as the element order grows, every conjugate
    # moves t_n (totally ramified), and the break set matches the pole
    # orders of the standard-form data
    seq = [i_g for (_o, i_g, _m) in sorted(jumps)]
    if any(i_g < 1 for i_g in seq):
        raise ConsistencyFailure("some conjugate fixes t_n to valuation < 1")
    for earlier, later in zip(seq, seq[1:]):
        if later >= earlier:
            raise ConsistencyFailure(f"jumps not strictly decreasing: {jumps}")
    if list(filt.breaks) != list(tower.top.e[1:]):
        raise ConsistencyFailure(
            f"filtration breaks {filt.breaks} != stage pole orders {tower.top.e[1:]}"
        )
    if filt.group_order(0) != p**n:
        raise ConsistencyFailure("G_0 is not the full group")
    return filt


class HerbrandPhi:
    """Piecewise-linear transition function of a filtration (exact knots)."""

    def __init__(self, filtration):
        self.filtration = filtration
        g0 = filtration.group_order(0)
        knots = [(0, Fraction(0))]
        for lo, hi, order in filtration.segments():
            if hi is None:
                break
            x0, y0 = knots[-1]
            knots.append((hi, y0 + Fraction(order, g0) * (hi - x0)))
        self.knots = knots
        self.tail_slope = Fraction(1, g0)

    def __call__(self, u):
        knots = self.knots
        if u <= 0:
            return Fraction(u)
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if u <= x1:
                return y0 + (y1 - y0) * Fraction(u - x0, x1 - x0)
        x_last, y_last = knots[-1]
        return y_last + self.tail_slope * (u - x_last)


def conductor_exponent(filtration):
    """phi(last break) + 1, checking integrality of phi at every break.

    Non-integral values raise HasseArfViolation (they cannot occur for an
    abelian group; hitting one means the filtration itself is wrong).
    """
    phi = HerbrandPhi(filtration)
    for br in filtration.breaks:
        val = phi(br)
        if val.denominator != 1:
            raise HasseArfViolation(f"phi({br}) = {val} is not an integer")
    return int(phi(filtration.breaks[-1])) + 1


def tower_invariants(tower, filtration=None):
    """Cross-checked invariant report for a built tower.

    Checks, for every level: the defining recursions of (m, e, mu); the
    telescoped forms of the break and of mu; mu_i = p^i m_i - e_i; and an
    independent different through the chain rule on the stage re-expansions
    D_(i+1) = p D_i + v(dT_i/d tau).  With a filtration, additionally:
    different = mu_n + p^n - 1, the transition function hits m_k at every
    break, and the conductor exponent is m_n + 1.  Raises
    ConsistencyFailure / HasseArfViolation on mismatch; returns the report.
    """
    p, n = tower.p, tower.n
    top = tower.top
    m, e, mu = top.m, top.e, top.mu

    for i in range(n):
        if m[i + 1] != max(p * m[i], tower.datum.nu[i]):
            raise ConsistencyFailure(f"m recursion fails at level {i + 1}")
        if e[i + 1] != p**i * m[i + 1] - mu[i]:
            raise ConsistencyFailure(f"e recursion fails at level {i + 1}")
        if mu[i + 1] != p ** (i + 1) * m[i + 1] - e[i + 1]:
            raise ConsistencyFailure(f"mu identity fails at level {i + 1}")
    for k in range(1, n + 1):
        tele_e = sum(p ** (i - 1) * (m[i] - m[i - 1]) for i in range(1, k + 1))
        if e[k] != tele_e:
            raise ConsistencyFailure(f"telescoped break fails at level {k}")
        tele_mu = sum((p**i - p ** (i - 1)) * m[i] for i in range(1, k + 1))
        if mu[k] != tele_mu:
            raise ConsistencyFailure(f"telescoped mu fails at level {k}")

    # independent different: chain rule through the stage re-expansions, with
    # v(dT_i/dtau) = v(Y') - v(z') v(T) off -Y' = z'(T) T' (p does not divide e)
    D = [0]
    mu_indep = [0]
    for i in range(n):
        st = tower.stages[i + 1]  # T = t_i and Y = ytilde_i as series in t_(i+1)
        dY, dz = st.ytilde[i].derivative(), st.z_std[i].derivative()
        D.append(p * D[i] + dY.valuation() - dz.valuation() * st.t_embs[i].valuation())
        mu_indep.append(D[i + 1] - p ** (i + 1) + 1)
    if mu_indep != list(mu):
        raise ConsistencyFailure(f"chain-rule mu {mu_indep} != recursion mu {list(mu)}")

    report = {
        "p": p,
        "n": n,
        "nu": tower.datum.nu,
        "m": tuple(m[1:]),
        "e": tuple(e[1:]),
        "mu": tuple(mu[1:]),
        "different": mu[n] + p**n - 1,
        "different_chain_rule": D[n],
        "conductor": m[n] + 1,
    }
    if D[n] != report["different"]:
        raise ConsistencyFailure(
            f"chain-rule different {D[n]} != mu_n + p^n - 1 = {report['different']}"
        )

    if filtration is not None:
        if filtration.different != report["different"]:
            raise ConsistencyFailure(
                f"filtration different {filtration.different} != {report['different']}"
            )
        phi = HerbrandPhi(filtration)
        for k in range(1, n + 1):
            val = phi(e[k])
            if val.denominator != 1 or int(val) != m[k]:
                raise HasseArfViolation(f"phi(e_{k}) = {val}, expected m_{k} = {m[k]}")
            drop = mu[n] - p ** (n - k) * mu[k]
            if drop < 0:
                raise ConsistencyFailure(f"negative relative different at level {k}")
            report[f"relative_different_{k}"] = drop
        report["conductor_filtration"] = conductor_exponent(filtration)
        if report["conductor_filtration"] != report["conductor"]:
            raise ConsistencyFailure(f"conductor {report['conductor_filtration']} != m_n + 1")
    return report
