"""Witt polynomial tables and Witt-vector arithmetic.

The tables are exact integer polynomials built from the ghost components
by the standard recurrences, with every division by a power of p checked
to be exact and every component certified isobaric at build time.  The
vector operations evaluate those tables over any coefficient ring,
including truncated Laurent series entries.
"""

from __future__ import annotations

import numpy as np

from . import intpoly as ip
from .coeff import is_prime
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


def _weights(p, upto):
    w = []
    for i in range(upto + 1):
        w += [p**i, p**i]
    return w


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


def _extend_family(p, name, j):
    st = _state(p)
    fam = st[name]
    plane = _plane(p, name)
    while len(fam) <= j:
        l = len(fam)
        gx = _ghost_poly(p, l, 0)
        gy = _ghost_poly(p, l, 1)
        if name == "S":
            target = ip.p_add(gx, gy)
        elif name == "I":
            target = ip.p_neg(gy)
        else:
            target = ip.p_mul_sliced(gx, gy, plane)
        num = target
        for i in range(l):
            num = ip.p_add(num, ip.p_pow_sliced(fam[i], p ** (l - i), plane), -(p**i))
        try:
            comp = ip.p_divexact(num, p**l)
        except ArithmeticError as exc:
            raise WittTableError(
                f"integrality failure building {name}_{l} for p={p}"
            ) from exc
        want = (2 if name == "P" else 1) * p**l
        wt = ip.iso_weight(comp, _weights(p, l))
        if comp and wt != want:
            raise WittTableError(f"{name}_{l} for p={p} not isobaric: {wt} != {want}")
        fam.append(comp)
        if name == "S":
            carry = ip.p_sub(comp, {ip.var(xvar(l)): 1, ip.var(yvar(l)): 1})
            if ip.involves(carry, xvar(l)) or ip.involves(carry, yvar(l)):
                raise WittTableError(f"c_{l} for p={p} involves its own slot")
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
    if table.n < a.n:
        raise ValueError(f"table length {table.n} < vector length {a.n}")
    vals = {yvar(i): a.entries[i] for i in range(a.n)}
    return _eval_components(table.I, vals, a.n, a.entries[0])


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


def frobenius(a):
    """Entry-wise p-th power (the Witt Frobenius over a char-p base)."""
    out = []
    for e in a.entries:
        if isinstance(e, TruncatedLaurentSeries):
            if not e.ring.is_field:
                raise ValueError("frobenius needs char-p entries")
            out.append(e.pth_power())
        else:
            if not e.ring.is_field:
                raise ValueError("frobenius needs char-p entries")
            out.append(e ** e.ring.p)
    return WittVector(out)


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
        t = X[i] % mod
        acc = np.ones_like(t)
        e = p ** (j - i)
        while e:
            if e & 1:
                acc = (acc * t) % mod
            e >>= 1
            if e:
                t = (t * t) % mod
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


def asw_correction_poly(table, n):
    """asw component n minus its principal part Y_n^p - Y_n.

    Free of Y_n; this is the inhomogeneous tail that couples equation n of
    a length-(n+1) generator datum to the solutions below it."""
    p = table.p
    corr = ip.p_mod(ip.p_sub(asw_component_poly(table, n), _principal_part(p, n)), p)
    if ip.involves(corr, yvar(n)):
        raise ConsistencyFailure(f"correction at component {n} involves its own slot")
    return corr


def nth_component_identity_check(table, n):
    """Certify the n-th component of a -> F(a) - a two independent ways.

    Route A composes the cached negation and sum tables symbolically over
    F_p.  Route B inverts the ghost map over the integers (every division
    checked exact) and reduces mod p.  The certificate also records whether
    the literal closed form Y_n^p - Y_n + carry_n(Y^p, -Y) matches: it does
    for odd p, and fails for p = 2 where negation is not entry-wise minus.
    """
    p = table.p
    if not 0 <= n < table.n:
        raise IndexError(f"component {n} outside table of length {table.n}")

    comp_a = asw_component_poly(table, n)

    # route B: ghost components of F(Y) - Y, inverted over Z[Y]
    ghost_vals = []
    for l in range(n + 1):
        w = {}
        for i in range(l + 1):
            w = ip.p_add(
                w,
                ip.p_scale(
                    ip.p_sub(
                        {ip.var(yvar(i), p ** (l - i) * p): 1},
                        {ip.var(yvar(i), p ** (l - i)): 1},
                    ),
                    p**i,
                ),
            )
        ghost_vals.append(w)
    comps = []
    for l in range(n + 1):
        num = ghost_vals[l]
        for i in range(l):
            num = ip.p_sub(num, ip.p_scale(ip.p_pow(comps[i], p ** (l - i)), p**i))
        try:
            comps.append(ip.p_divexact(num, p**l))
        except ArithmeticError as exc:
            raise WittTableError(
                f"ghost inversion not integral at component {l}"
            ) from exc
    comp_b = ip.p_mod(comps[n], p)

    if comp_a != comp_b:
        raise ConsistencyFailure(
            f"table route and ghost route disagree at component {n}, p={p}"
        )

    yn_p_yn = _principal_part(p, n)
    correction = ip.p_mod(ip.p_sub(comp_a, yn_p_yn), p)
    correction_free = not ip.involves(correction, yvar(n))

    # literal closed form: carry_n evaluated at (Y^p, -Y)
    lit_subs = {}
    for i in range(n + 1):
        lit_subs[xvar(i)] = {ip.var(yvar(i), p): 1}
        lit_subs[yvar(i)] = {ip.var(yvar(i)): p - 1}  # -Y_i mod p
    literal = ip.p_mod(
        ip.p_add(yn_p_yn, ip.p_subst(ip.p_mod(table.c[n], p), lit_subs)), p
    )

    return {
        "p": p,
        "component": n,
        "holds": correction_free,
        "routes_agree": True,
        "component_poly": comp_a,
        "correction_poly": correction,
        "correction_free_of_target": correction_free,
        "literal_poly": literal,
        "literal_matches": literal == comp_a,
    }


def cn_leading_term_check(table, n, i):
    """Check the carry's top slice in its i-th X-slot.

    carry_n = -X_i^(p^(n-i)-1) (Y_i + carry_i) + lower X_i-degree terms."""
    p = table.p
    if not 0 <= i <= n - 1:
        raise IndexError("need 0 <= i <= n-1")
    e = p ** (n - i) - 1
    cn = table.c[n]
    lead = ip.coeff_of(cn, xvar(i), e)
    expected = ip.p_neg(ip.p_add({ip.var(yvar(i)): 1}, table.c[i]))
    top = {ip.var(xvar(i), e): 1}
    rest = ip.p_sub(cn, ip.p_mul(top, lead))
    rest_deg = ip.degree_in(rest, xvar(i))
    return {
        "p": p,
        "n": n,
        "i": i,
        "holds": lead == expected and rest_deg < e,
        "extracted": lead,
        "expected": expected,
        "remainder_degree": rest_deg,
        "degree_bound": e,
    }
