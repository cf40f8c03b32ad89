"""Graded sections and boundary-class arithmetic of the compactified vector
groups behind the towers.

The affine space of length-(n+1) vectors compactifies to a tower of weighted
projectivizations.  Everything this module needs from that geometry survives
in two computable shadows:

* the graded ring F_p[T, Y_0, Y_1, ...] with deg T = 1 and deg Y_i = p^i,
  whose graded pieces are the section spaces of the tautological bundles,
  carrying the translation action of constant vectors and the isogeny
  substitution; an element is its weight and its value at T = 1 in the
  Witt tables' Y-slots, T's exponent implied; and

* the intersection ring Z[x_1..x_n] / (x_1^2, x_i^2 - p x_i x_{i-1}) on the
  square-free monomial basis, where x_i is the hyperplane class pulled back
  from level i, with the isogeny pullback x_i -> p x_i.

Boundary components, their multiplicities, and their stabilizer orders are
bookkept against both shadows.
"""

from __future__ import annotations

import numpy as np

from . import intpoly as ip
from .coeff import finite_field
from .errors import ConsistencyFailure
from .witt import (
    WittVector,
    build_table,
    nth_component_identity_check,
    sum_mod_p_at,
    yvar,
)


# ---------- the weighted graded ring ----------


class GradedPolynomial:
    """Homogeneous element of F_q[T, Y_0..Y_{k-1}] with deg T=1, deg Y_i=p^i.

    Its weight and its value at T = 1: one intpoly polynomial in the Witt
    tables' Y-slots (Y_i is variable witt.yvar(i)) with nonzero F_q
    coefficients, T's exponent implied as the weight minus the Y-weight.
    The ring operations are intpoly's, and every result passes one check:
    no X-slot, no variable past Y_{k-1}, no Y-weight above the weight.  A
    sum of nonzero elements of unequal weights raises, and such elements are
    never equal.  The constructor takes tuple keys (t, e_0, ..., e_{k-1}),
    and `terms` gives them back.
    """

    __slots__ = ("field", "nvars", "weight", "poly")

    def __init__(self, field, nvars, weight, terms):
        poly = {}
        for key, c in terms.items():
            if len(key) != nvars + 1 or any(e < 0 for e in key):
                raise ValueError(f"bad monomial key {key} for {nvars} variables")
            if not c.is_zero():
                w = key[0] + sum(e * field.p**i for i, e in enumerate(key[1:]))
                if w != weight:
                    raise ConsistencyFailure(f"monomial {key} has weight {w}, declared {weight}")
                slots = [0] * (2 * nvars)
                slots[1::2] = key[1:]
                poly[ip.mono(*slots)] = c
        self._set(field, nvars, weight, poly)

    def _set(self, field, nvars, weight, poly):
        # the one check: a monomial in a variable past Y_{nvars-1} raises
        # ValueError in intpoly.exponent_rows, one in an X-slot here, and one
        # whose Y-weight passes the weight, which would leave T a negative
        # exponent, raises ConsistencyFailure; the weights are Python ints,
        # so the sums are exact
        weights = _y_weights(field.p, nvars)
        for _keys, rows in ip.row_blocks(poly, 2 * nvars):
            if rows[:, 0::2].any():
                raise ValueError(f"X-slot in a graded polynomial: {rows[rows[:, 0::2].any(axis=1)][0]}")
            ys = rows[:, 1::2]
            w = ys @ weights
            top = w.argmax()
            if w[top] > weight:
                raise ConsistencyFailure(
                    f"monomial {tuple(ys[top].tolist())} has Y-weight {w[top]}, above the weight {weight}"
                )
        self.field = field
        self.nvars = nvars
        self.weight = weight
        self.poly = poly

    @classmethod
    def _of(cls, field, nvars, weight, poly):
        out = cls.__new__(cls)
        out._set(field, nvars, weight, poly)
        return out

    @classmethod
    def monomial(cls, field, nvars, coeff, t, yexps):
        key = (t,) + tuple(yexps) + (0,) * (nvars - len(yexps))
        return cls(field, nvars, t + sum(e * field.p**i for i, e in enumerate(yexps)), {key: coeff})

    @classmethod
    def t_var(cls, field, nvars):
        return cls.monomial(field, nvars, field.one(), 1, ())

    @classmethod
    def y_var(cls, field, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"no variable Y_{i} among {nvars}")
        return cls.monomial(field, nvars, field.one(), 0, (0,) * i + (1,))

    def _rows(self):
        """(keys, rows) block by block, rows the (t, e_0, ..., e_{k-1}) of
        each key: int64 when the weight fits, as 0 <= t <= weight, else
        Python ints."""
        weights = _y_weights(self.field.p, self.nvars)
        for keys, rows in ip.row_blocks(self.poly, 2 * self.nvars):
            ys = rows[:, 1::2]
            t = self.weight - ys @ weights
            yield keys, np.column_stack([t.astype(np.int64) if self.weight < 2**63 else t, ys])

    @property
    def terms(self):
        """The monomials as (t, e_0, ..., e_{k-1}) keys to coefficients."""
        out = {}
        for keys, rows in self._rows():
            out.update(zip(map(tuple, rows.tolist()), map(self.poly.__getitem__, keys)))
        return out

    def is_zero(self):
        return not self.poly

    def _like(self, weight, poly):
        return GradedPolynomial._of(self.field, self.nvars, weight, poly)

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("mixed graded rings")

    def _sum(self, other, sign):
        self._check(other)
        if self.poly and other.poly and self.weight != other.weight:
            raise ConsistencyFailure(f"sum of elements of weights {self.weight} and {other.weight}")
        w = self.weight if self.poly or not other.poly else other.weight
        return self._like(w, ip.p_add(self.poly, other.poly, sign))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._like(self.weight, ip.p_neg(self.poly))

    def __mul__(self, other):
        self._check(other)
        return self._like(self.weight + other.weight, ip.p_mul(self.poly, other.poly))

    def scale(self, c):
        return self._like(self.weight, ip.p_scale(self.poly, self.field.element(c)))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return self._like(0, {0: self.field.one()})
        return self._like(self.weight * e, ip.p_pow(self.poly, e))

    def __eq__(self, other):
        return (
            isinstance(other, GradedPolynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.poly == other.poly
            and (self.weight == other.weight or not self.poly)
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def set_t_one(self):
        """The value at T = 1 as a packed integer polynomial in the Witt
        tables' Y-slots: the stored keys, each with its residue.  Only over
        a prime field, whose elements are plain residues."""
        if self.field.f != 1:
            raise ValueError("dehomogenization target is a prime-field table")
        return {k: c.coords[0] for k, c in self.poly.items()}

    def __repr__(self):
        if not self.poly:
            return "0"
        rows = np.concatenate([r for _keys, r in self._rows()])
        names = ["T"] + [f"Y_{i}" for i in range(self.nvars)]
        return ip.format_rows(rows, names, list(map(str, self.poly.values())))


def _y_weights(p, nvars):
    """The weights p**i of Y_0..Y_{nvars-1}, as Python ints."""
    return np.array([p**i for i in range(nvars)], dtype=object)


def homogenize_component(field, nvars, poly, weight):
    """Lift a packed Y-slot polynomial over Z to the graded ring at the
    given weight: the keys stay, T's exponent being implied, and each
    coefficient is read mod p into the field.  The graded ring's check
    refuses an X-slot, a variable past Y_{nvars-1} and a monomial of
    Y-weight above the target."""
    p = field.p
    terms = {k: field.from_int(c) for k, c in poly.items() if c % p}
    return GradedPolynomial._of(field, nvars, weight, terms)


# ---------- section spaces ----------


def section_dim(p, n, m):
    """Dimension of the weight m*p^(n-1) graded piece in T, Y_0..Y_{n-1}.

    For m = 1 this is the rank of the global sections of the tautological
    bundle at level n; general m twists by O(m)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1, m >= 0")
    d = m * p ** (n - 1)
    # count Y-monomials of weight <= d; the T-exponent soaks up the rest
    ways = [1] + [0] * d
    for i in range(n):
        step = p**i
        if step > d:
            break
        for w in range(step, d + 1):
            ways[w] += ways[w - step]
    return sum(ways)


def pushforward_recursion_check(p, n):
    """One level of the pushforward decomposition, as a counting identity.

    Sections at level n+1 split into the span of Y_n (a trivial summand)
    and the weight-p^n sections not involving Y_n (the twist by p)."""
    lhs = section_dim(p, n + 1, 1)
    constant = section_dim(p, n, 0)
    twisted = section_dim(p, n, p)
    if lhs != constant + twisted:
        raise ConsistencyFailure(
            f"section count {lhs} != {constant} + {twisted} at level {n + 1}"
        )
    return {"p": p, "n": n, "lhs": lhs, "constant": constant, "twisted": twisted}


# ---------- translation action and the isogeny substitution ----------


def _translation_entries(a, field, count):
    if isinstance(a, WittVector):
        entries = tuple(a.entries)
    else:
        entries = tuple(
            x if not isinstance(x, int) else field.from_int(x) for x in a
        )
    if len(entries) != count:
        raise ValueError(f"translation vector must have length {count}")
    for e in entries:
        if e.ring != field:
            raise ValueError("translation vector lives over the wrong field")
    return entries


def group_action_on_sections(p, n, a, f):
    """Pull back a graded element along translation by the constant vector a.

    Y_j goes to S_j mod p at (Y, a), the a_i constants, for every j <= n,
    and T and the Y_j above n stay: S_j is isobaric, so T tops the image up
    to weight p^j.  One substitution moves every Y_j whose image is not
    itself, and the graded ring's check certifies that the result keeps f's
    weight."""
    field = f.field
    if field.p != p:
        raise ValueError("field characteristic and p disagree")
    a = _translation_entries(a, field, n + 1)
    table = build_table(p, n + 1)
    ys = [{ip.var(yvar(i)): field.one()} for i in range(n + 1)]
    consts = [{0: x} if x else {} for x in a]
    images = {}
    for j in range(n + 1):
        image = sum_mod_p_at(table, j, ys, consts)
        if image != ys[j]:
            images[yvar(j)] = image
    return GradedPolynomial._of(field, max(f.nvars, n + 1), f.weight, ip.p_subst(f.poly, images))


def psi_on_sections(p, n):
    """Homogeneous substitution rule of the isogeny on the top variable.

    The weight-p^(n+1) element whose value at T = 1 is the n-th coordinate
    of a -> F(a) - a.  The coordinate polynomial is certified by its two
    independent routes first, then lifted; invariance under the order-p
    translation (0,..,0,1) is checked symbolically, since that translation
    generates the covering group of the substitution."""
    comp = nth_component_identity_check(build_table(p, n + 1), n)["component_poly"]
    field = finite_field(p)
    poly = homogenize_component(field, n + 1, comp, p ** (n + 1))
    translation = (field.zero(),) * n + (field.one(),)
    moved = group_action_on_sections(p, n, translation, poly)
    if moved != poly:
        raise ConsistencyFailure("not invariant under the order-p translation")
    return poly


# ---------- intersection classes ----------


class ChowClass:
    """Integer combination of square-free monomials in x_1..x_n.

    The ambient ring is Z[x_1..x_n] / (x_1^2, x_i^2 - p x_i x_{i-1}); the
    relations eliminate every square, so subsets of {1..n} form a basis and
    codimension is monomial length."""

    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p, n, coeffs):
        self.p = p
        self.n = n
        clean = {}
        for mono, c in coeffs.items():
            mono = tuple(sorted(mono))
            if len(set(mono)) != len(mono):
                raise ValueError(f"non-square-free basis monomial {mono}")
            if any(not 1 <= i <= n for i in mono):
                raise ValueError(f"index out of range in {mono}")
            if c:
                clean[mono] = clean.get(mono, 0) + c
        self.coeffs = {m: c for m, c in clean.items() if c}

    @classmethod
    def zero(cls, p, n):
        return cls(p, n, {})

    @classmethod
    def one(cls, p, n):
        return cls(p, n, {(): 1})

    @classmethod
    def generator(cls, p, n, i):
        return cls(p, n, {(i,): 1})

    def _check(self, other):
        if self.p != other.p or self.n != other.n:
            raise ValueError("mixed intersection rings")

    def __add__(self, other):
        self._check(other)
        coeffs = dict(self.coeffs)
        for m, c in other.coeffs.items():
            coeffs[m] = coeffs.get(m, 0) + c
        return ChowClass(self.p, self.n, coeffs)

    def __neg__(self):
        return ChowClass(self.p, self.n, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return ChowClass(self.p, self.n, {m: k * c for m, c in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ChowClass)
            and (self.p, self.n) == (other.p, other.n)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m in sorted(self.coeffs, key=lambda t: (len(t), t)):
            c = self.coeffs[m]
            name = "".join(f"x_{i}" for i in m) or "1"
            bits.append(f"{c}*{name}" if (c != 1 or not m) else name)
        return " + ".join(bits)


def _reduce_power_product(p, counts):
    """Rewrite a monomial with repeated indices into the square-free basis.

    Repeatedly replaces the largest available square via x_i^2 = p x_i
    x_{i-1} (and kills x_1^2); each step lowers the total index sum, so the
    rewriting terminates."""
    counts = dict(counts)
    factor = 1
    while True:
        doubled = [i for i, e in counts.items() if e >= 2]
        if not doubled:
            return factor, tuple(sorted(i for i, e in counts.items() if e))
        i = max(doubled)
        if i == 1:
            return 0, ()
        counts[i] -= 2
        counts[i] = counts.get(i, 0) + 1
        counts[i - 1] = counts.get(i - 1, 0) + 1
        factor *= p


def chow_mul(a, b):
    """Product in the intersection ring, reduced to the square-free basis."""
    a._check(b)
    coeffs = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            counts = {}
            for i in ma:
                counts[i] = counts.get(i, 0) + 1
            for i in mb:
                counts[i] = counts.get(i, 0) + 1
            factor, mono = _reduce_power_product(a.p, counts)
            if factor:
                coeffs[mono] = coeffs.get(mono, 0) + ca * cb * factor
    return ChowClass(a.p, a.n, coeffs)


def psi_pullback(a):
    """Ring map x_i -> p x_i, evaluated through actual products.

    On a codimension-c basis monomial the result collapses to p^c times the
    monomial; routing the computation through chow_mul keeps that collapse a
    verified consequence instead of a shortcut."""
    out = ChowClass.zero(a.p, a.n)
    for mono, c in a.coeffs.items():
        img = ChowClass(a.p, a.n, {(): c})
        for i in mono:
            img = chow_mul(img, ChowClass(a.p, a.n, {(i,): a.p}))
        out = out + img
    return out


# ---------- boundary ledger ----------


class DivisorLedger:
    """Classes and stabilizer metadata of the boundary components at level n.

    Component i (1 <= i <= n) is the preimage of the level-i infinity
    section; its class is x_i - p x_{i-1}, it enters the boundary with
    multiplicity p^(n-i), and the subgroup of constant vectors fixing the
    level-i sections pointwise has order p^(n-i)."""

    def __init__(self, p, n, components, inertia_orders):
        self.p = p
        self.n = n
        self.components = components
        self.inertia_orders = inertia_orders
        self.hyperplane = ChowClass.generator(p, n, n)

    @property
    def boundary_class(self):
        total = ChowClass.zero(self.p, self.n)
        for i, cls in self.components.items():
            total = total + self.p ** (self.n - i) * cls
        return total


def divisor_ledger(p, n):
    """Build the level-n boundary ledger and verify its telescoping sum."""
    if n < 1:
        raise ValueError("need n >= 1")
    components = {}
    for i in range(1, n + 1):
        cls = ChowClass.generator(p, n, i)
        if i > 1:
            cls = cls - p * ChowClass.generator(p, n, i - 1)
        components[i] = cls
    ledger = DivisorLedger(
        p, n, components, {i: p ** (n - i) for i in range(1, n + 1)}
    )
    if ledger.boundary_class != ChowClass.generator(p, n, n):
        raise ConsistencyFailure("boundary classes do not telescope to x_n")
    return ledger
