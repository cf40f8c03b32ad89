"""Witt polynomial tables and Witt-vector arithmetic.

The tables are exact integer polynomials built from the ghost components
by the standard recurrences, with every division by a power of p checked
to be exact and every component certified isobaric at build time.  A
component is one pass over one numerator: its powers are summed packed and
divided as the sum is unpacked (intpoly.p_pow_sum_sliced), and one numpy
pass over its keys checks the weight of every monomial and, for S, that X_l
and Y_l occur only as X_l + Y_l.  The vector operations evaluate those
tables over any coefficient ring, including truncated Laurent series
entries.
"""

from __future__ import annotations

import numpy as np

from . import intpoly as ip
from .coeff import binary_power, is_prime, lift_ring
from .errors import ConsistencyFailure, WittTableError
from .series import TruncatedLaurentSeries


def xvar(i):
    """Variable index of X_i (first operand slot)."""
    return 2 * i


def yvar(i):
    """Variable index of Y_i (second operand slot)."""
    return 2 * i + 1


def _ghost_poly(p, j, side):
    # Phi_j = sum_{i<=j} p^i Z_i^(p^(j-i)) in the X-block (side 0) or Y-block
    return {ip.var(2 * i + side, p ** (j - i)): p**i for i in range(j + 1)}


# per-prime build state: families grow monotonically and are never mutated
# after append, so cached polynomials can be shared freely
_STATE = {}


def _state(p):
    st = _STATE.get(p)
    if st is None:
        st = {"S": [], "c": [], "I": [], "P": []}
        _STATE[p] = st
    return st


def _plane(p, name):
    """The slicing plane of a family for the sliced product, from its grading.

    S and I are isobaric in total weight, X_0 and Y_0 both of weight 1; P is
    bihomogeneous, X_0 and X_1 of X-weight 1 and p.  Either way the rest of
    a monomial fixes its weight on the plane, and the slices are few and long."""
    if name == "P":
        return xvar(0), xvar(1), p
    return xvar(0), yvar(0), 1


def _certify(comp, p, l, name):
    """Raise WittTableError unless every monomial of component l of a family
    has the weight p**l (2*p**l for P) in X_i, Y_i of weight p**i, and, for
    S, unless X_l and Y_l occur only as the terms X_l + Y_l.

    The keys are read in blocks by intpoly.row_blocks, whose exponent_rows
    fails for a key in a variable past Y_l, and every monomial's weight is
    its pair sums e(X_i) + e(Y_i) against the p**i.  The weight is exact in
    int64: p**l < 2**20, or the exponent check of the powers had raised, so
    it is below 2*2**20*(p**(l+1) - 1)/(p - 1) < 2**43."""
    want = (2 if name == "P" else 1) * p**l
    weights = p ** np.arange(l + 1)
    own = []
    try:
        for keys, rows in ip.row_blocks(comp, 2 * (l + 1)):
            degree = rows[:, 0::2] + rows[:, 1::2]
            off = (degree @ weights != want).nonzero()[0]
            if len(off):
                raise WittTableError(
                    f"{name}_{l} for p={p} not isobaric: key {keys[off[0]]:#x} is off weight {want}"
                )
            if name == "S":
                own += [keys[i] for i in degree[:, l].nonzero()[0]]
    except ValueError:
        raise WittTableError(f"{name}_{l} for p={p} involves a variable past Y_{l}") from None
    if name == "S":
        own.sort()
        if own != [ip.var(xvar(l)), ip.var(yvar(l))] or comp[own[0]] != 1 or comp[own[1]] != 1:
            raise WittTableError(f"c_{l} for p={p} involves its own slot")


def _ghost_step(ghost, xs, p, plane, what):
    """The next Witt component x_l, l = len(xs), of integer polynomials with
    ghost component l `ghost`: (ghost - sum_(i<l) p**i * xs[i]**(p**(l-i)))
    / p**l, formed packed on plane and divided as it is unpacked
    (intpoly.p_pow_sum_sliced).  A remainder raises WittTableError."""
    l = len(xs)
    terms = [(1, ghost, 1)] + [(-(p**i), x, p ** (l - i)) for i, x in enumerate(xs)]
    try:
        return ip.p_pow_sum_sliced(terms, plane, p**l)
    except ArithmeticError as exc:
        raise WittTableError(f"integrality failure {what}") from exc


def _extend_family(p, name, j):
    """Build components up to j of a family by the ghost-inversion step, on
    the ghost sum, minus the Y ghost, or the ghost product, and certify
    each."""
    st = _state(p)
    fam = st[name]
    plane = _plane(p, name)
    while len(fam) <= j:
        l = len(fam)
        gx = _ghost_poly(p, l, 0)
        gy = _ghost_poly(p, l, 1)
        if name == "S":
            target = {**gx, **gy}
        elif name == "I":
            target = ip.p_neg(gy)
        else:
            target = ip.p_mul(gx, gy)
        comp = _ghost_step(target, fam, p, plane, f"building {name}_{l} for p={p}")
        _certify(comp, p, l, name)
        fam.append(comp)
        if name == "S":
            carry = dict(comp)
            del carry[ip.var(xvar(l))], carry[ip.var(yvar(l))]
            st["c"].append(carry)


class _Family:
    """Lazy, bounds-checked view onto one cached polynomial family."""

    __slots__ = ("p", "name", "n")

    def __init__(self, p, name, n):
        self.p, self.name, self.n = p, name, n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"component {i} outside table of length {self.n}")
        _extend_family(self.p, "S" if self.name == "c" else self.name, i)
        return _state(self.p)[self.name][i]


class WittPolynomialTable:
    """Sum/carry/negation/product polynomials for length-n vectors.

    Components build on first access and are cached per prime, so a table
    of length 4 whose product polynomials are never touched never pays for
    them."""

    __slots__ = ("p", "n", "S", "c", "I", "P")

    def __init__(self, p, n):
        if n < 1:
            raise WittTableError("table length must be >= 1")
        if not is_prime(p):
            raise WittTableError(f"{p} is not prime")
        self.p = p
        self.n = n
        self.S = _Family(p, "S", n)
        self.c = _Family(p, "c", n)
        self.I = _Family(p, "I", n)
        self.P = _Family(p, "P", n)

    def ghost(self, i, side=0):
        if not 0 <= i < self.n:
            raise IndexError(f"component {i} outside table of length {self.n}")
        return _ghost_poly(self.p, i, side)

    def __repr__(self):
        return f"WittPolynomialTable(p={self.p}, n={self.n})"


def build_table(p, n):
    return WittPolynomialTable(p, n)


# ---------- Witt vectors ----------


def _one(entry):
    """The unit of the ring an entry lives in: series or coefficients."""
    if isinstance(entry, TruncatedLaurentSeries):
        return TruncatedLaurentSeries.monomial(entry.ring, 0, 1)
    return entry.ring.one()


def _entry_is_zero(entry):
    if isinstance(entry, TruncatedLaurentSeries):
        return entry.is_exact_zero()
    return not entry


class WittVector:
    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty Witt vector")
        if any(e.ring != entries[0].ring for e in entries):
            raise ValueError("mixed entry rings")
        self.entries = entries

    @property
    def n(self):
        return len(self.entries)

    @property
    def ring(self):
        return self.entries[0].ring

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, WittVector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self):
        return all(_entry_is_zero(e) for e in self.entries)

    def truncated(self, m):
        if not 1 <= m <= self.n:
            raise ValueError(f"cannot truncate a length-{self.n} vector to {m}")
        return WittVector(self.entries[:m])

    def __repr__(self):
        return f"W({', '.join(repr(e) for e in self.entries)})"


def _compat(a, b, table):
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    if a.ring != b.ring:
        raise ValueError("entry ring mismatch")
    if table.p != a.ring.p:
        raise ValueError(f"table for p = {table.p} on vectors over p = {a.ring.p}")
    if table.n < a.n:
        raise ValueError(f"table length {table.n} < vector length {a.n}")
    return a.n


def _eval_components(polys, vals, count, sample):
    one = _one(sample)
    return WittVector(tuple(ip.p_eval(polys[i], vals, one) for i in range(count)))


def _binary_op(polys, a, b, table):
    n = _compat(a, b, table)
    vals = {}
    for i in range(n):
        vals[xvar(i)] = a.entries[i]
        vals[yvar(i)] = b.entries[i]
    return _eval_components(polys, vals, n, a.entries[0])


def witt_add(a, b, table):
    return _binary_op(table.S, a, b, table)


def witt_mul(a, b, table):
    return _binary_op(table.P, a, b, table)


def witt_neg(a, table):
    n = _compat(a, a, table)
    vals = {yvar(i): a.entries[i] for i in range(n)}
    return _eval_components(table.I, vals, n, a.entries[0])


def frobenius(a):
    """Entry-wise p-th power (the Witt Frobenius over a char-p base)."""
    if not a.ring.is_field:
        raise ValueError("frobenius needs char-p entries")
    return WittVector([e**a.ring.p for e in a.entries])


def verschiebung(a):
    """Shift into length n+1 with a leading zero."""
    return WittVector((0 * _one(a.entries[0]),) + a.entries)


def asw_map(a, table):
    """The isogeny a -> F(a) - a, computed entirely through the tables."""
    return witt_add(frobenius(a), witt_neg(a, table), table)


def ghost_eval(a, j):
    """j-th ghost component of a vector over any ring (exact integer ops)."""
    acc = None
    for i in range(j + 1):
        term = a.entries[i] ** (a.ring.p ** (j - i))
        term = (a.ring.p**i) * term
        acc = term if acc is None else acc + term
    return acc


def _scaled(c, x):
    """c * x, with no product formed for c = 1 or -1."""
    return x if c == 1 else -x if c == -1 else c * x


def canonical_lift(s, lift):
    """Reinterpret a series coefficient-wise in the lift ring: field digits
    mod p are already the canonical representatives."""
    return TruncatedLaurentSeries(lift, s.v, s.coeffs, s.prec, normalize=False)


def _total(ring, terms):
    """Series and integers summed over ring, the integers first."""
    const = sum(t for t in terms if isinstance(t, int))
    series = [t for t in terms if not isinstance(t, int)] or [TruncatedLaurentSeries.zero(ring)]
    return sum(series[1:], series[0] + const if const else series[0])


def invert_ghosts(ghosts, p, divide, power=None):
    """Witt components x_0..x_i from ghost components w_0..w_i, over any ring:
    x_k = (w_k - sum_(l<k) p^l x_l^(p^(k-l))) / p^k, where divide(w, k)
    divides by p^k and raises when that is not exact.  Each chain x_l,
    x_l^p, x_l^(p^2), ... is formed once, by power (default x ** p)."""
    xs, chains = [], []
    for k, w in enumerate(ghosts):
        for l in range(k):
            chains[l] = chains[l] ** p if power is None else power(chains[l])
            w = w - _scaled(p**l, chains[l])
        xs.append(divide(w, k) if k else w)
        chains.append(xs[-1])
    return xs


def witt_sum_component(ring, i, add, sub=()):
    """Component i, mod p, of the Witt sum of the vectors in `add` minus
    those in `sub`; entries are series over the field `ring` or integers,
    and short vectors are padded with zeros.

    The series lift to Z/p^(i+1) (GR(p^(i+1), f) for f > 1), their ghost
    components add up, and `invert_ghosts` divides them back, each division
    checked exact (ConsistencyFailure otherwise).  Any lifts give the same
    result mod p, since a = b mod p implies a^(p^k) = b^(p^k) mod p^(k+1).
    Over the lift E^N keeps prec(E) + (N - 1) v(E), and a series met twice
    is raised to the p-th power once.  Component 0 is the plain sum."""
    p = ring.p
    signed = [(1, vec) for vec in add] + [(-1, vec) for vec in sub]
    lead = [sign for sign, vec in signed if len(vec) and not _entry_is_zero(vec[0])]
    if i and lead in ([], [1]):  # a vector is [x_0] + V(x_1, ...), and V is additive
        return witt_sum_component(ring, i - 1, [vec[1:] for vec in add], [vec[1:] for vec in sub])
    if i == 0:
        return _total(ring, [_scaled(sign, vec[0]) for sign, vec in signed if len(vec)])
    lift = lift_ring(p, i + 1, ring.f)
    powers = {}  # id(x) -> (x, x^p)

    def power(x):
        if id(x) not in powers:
            powers[id(x)] = (x, x**p)
        return powers[id(x)][1]

    terms = [[] for _ in range(i + 1)]  # the terms of each ghost component
    for sign, vec in signed:
        for l, x in enumerate(vec[: i + 1]):
            if isinstance(x, TruncatedLaurentSeries):
                x = canonical_lift(x, lift)
            for k in range(l, i + 1):
                if k > l:
                    x = power(x)
                terms[k].append(_scaled(sign * p**l, x))
    ghosts = [_total(lift, ts) for ts in terms]

    def divide(w, k):
        if (w.coeffs % p**k).any():
            raise ConsistencyFailure(f"ghost component {k} of a Witt sum is not divisible by p^{k}")
        return TruncatedLaurentSeries(lift, w.v, w.coeffs // p**k, w.prec, normalize=False)

    x = invert_ghosts(ghosts, p, divide, power)[i]
    return TruncatedLaurentSeries(ring, x.v, x.coeffs % p, x.prec)


# ---------- batched evaluation over Z/mod (acceptance-scale checks) ----------


def witt_batch_op(table, op, A, B, mod):
    """Evaluate S/P/I tables on (n, B)-shaped int64 entry arrays mod `mod`."""
    polys = {"add": table.S, "mul": table.P, "neg": table.I}[op]
    n = A.shape[0]
    nv = 2 * n
    Bc = A.shape[1]
    vals = np.zeros((nv, Bc), dtype=np.int64)
    if op == "neg":
        vals[1::2, :] = A
    else:
        if B is None or B.shape != A.shape:
            raise ValueError(f"{op} needs a second operand shaped like A {A.shape}")
        vals[0::2, :] = A
        vals[1::2, :] = B
    return np.stack([ip.p_eval_batch_mod(polys[i], vals, mod) for i in range(n)])


def ghost_batch(X, p, j, mod):
    """j-th ghost component of (n, B) entry arrays, vectorized mod `mod`;
    every product of two residues fits int64 while mod**2 < 2**63."""
    if mod * mod >= 2**63:
        raise ValueError(f"int64 ghost components would overflow: modulus {mod}")
    out = np.zeros(X.shape[1], dtype=np.int64)
    for i in range(j + 1):
        acc = binary_power(X[i] % mod, p ** (j - i), lambda a, b: a * b % mod)
        out = (out + (p**i % mod) * acc) % mod
    return out


# ---------- symbolic certificates ----------

_ASW_POLY_CACHE = {}


def asw_component_poly(table, n):
    """n-th component of a -> F(a) - a as a mod-p polynomial in Y_0..Y_n.

    Composes the cached negation and sum tables symbolically: the result is
    S_n evaluated at (X-block, Y-block) = (Y^p entry-wise, I(Y)), reduced
    mod p.  Cached per (p, n)."""
    p = table.p
    if not 0 <= n < table.n:
        raise IndexError(f"component {n} outside table of length {table.n}")
    key = (p, n)
    if key not in _ASW_POLY_CACHE:
        subs = {}
        for i in range(n + 1):
            subs[xvar(i)] = {ip.var(yvar(i), p): 1}  # Y_i^p
            subs[yvar(i)] = ip.p_mod(table.I[i], p)
        comp = ip.p_mod(ip.p_subst(ip.p_mod(table.S[n], p), subs), p)
        _ASW_POLY_CACHE[key] = comp
    return _ASW_POLY_CACHE[key]


def _principal_part(p, n):
    """Y_n^p - Y_n mod p."""
    return {ip.var(yvar(n), p): 1, ip.var(yvar(n)): p - 1}


def _asw_ghost(p, l):
    """Phi_l(F(Y) - Y) = sum_i p^i (Y_i^(p^(l-i+1)) - Y_i^(p^(l-i))) over Z;
    no two of these monomials coincide."""
    w = {}
    for i in range(l + 1):
        w[ip.var(yvar(i), p ** (l - i + 1))] = p**i
        w[ip.var(yvar(i), p ** (l - i))] = -(p**i)
    return w


def _ghost_route(p, n):
    """Component n of F(Y) - Y over Z, by inverting its ghost components
    with the ghost-inversion step of the tables, on the plane (Y_0, Y_1, p)."""
    comps, plane = [], (yvar(0), yvar(1), p)
    for l in range(n + 1):
        comps.append(_ghost_step(_asw_ghost(p, l), comps, p, plane, f"inverting Phi_{l}(F(Y) - Y)"))
    return comps[n]


def nth_component_identity_check(table, n):
    """Certify the n-th component of a -> F(a) - a two independent ways.

    Route A composes the cached negation and sum tables symbolically over
    F_p.  Route B inverts the ghost map over the integers (every division
    checked exact) and reduces mod p.  They must agree, and the correction,
    the component minus its principal part Y_n^p - Y_n, must be free of
    Y_n; either failure raises ConsistencyFailure.
    """
    p = table.p
    if not 0 <= n < table.n:
        raise IndexError(f"component {n} outside table of length {table.n}")

    comp_a = asw_component_poly(table, n)
    comp_b = ip.p_mod(_ghost_route(p, n), p)

    if comp_a != comp_b:
        raise ConsistencyFailure(
            f"table route and ghost route disagree at component {n}, p={p}"
        )

    correction = ip.p_mod(ip.p_sub(comp_a, _principal_part(p, n)), p)
    if any(ip.degrees(correction)[yvar(n) :]):
        raise ConsistencyFailure(f"the correction at component {n}, p={p} involves Y_{n}")

    return {"p": p, "component": n, "component_poly": comp_a, "correction_poly": correction}
