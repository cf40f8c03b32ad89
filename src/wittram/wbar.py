"""Graded sections and boundary-class arithmetic of the compactified vector
groups behind the towers.

The affine space of length-(n+1) vectors compactifies to a tower of weighted
projectivizations.  Everything this module needs from that geometry survives
in two computable shadows:

* the graded ring F_p[T, Y_0, Y_1, ...] with deg T = 1 and deg Y_i = p^i,
  whose graded pieces are the section spaces of the tautological bundles,
  carrying the translation action of constant vectors and the isogeny
  substitution; and

* the intersection ring Z[x_1..x_n] / (x_1^2, x_i^2 - p x_i x_{i-1}) on the
  square-free monomial basis, where x_i is the hyperplane class pulled back
  from level i, with the isogeny pullback x_i -> p x_i.

Boundary components, their multiplicities, and their stabilizer orders are
bookkept against both shadows.
"""

from __future__ import annotations

from . import intpoly as ip
from .coeff import finite_field
from .errors import ConsistencyFailure
from .witt import (
    WittVector,
    build_table,
    nth_component_identity_check,
    yvar,
)


# ---------- the weighted graded ring ----------


class GradedPolynomial:
    """Homogeneous element of F_q[T, Y_0..Y_{k-1}] with deg T=1, deg Y_i=p^i.

    Terms map monomial keys (t, e_0, ..., e_{k-1}) to nonzero field
    elements; every monomial must have total weight equal to the declared
    one, so homogeneity is a construction invariant, not an afterthought.
    """

    __slots__ = ("field", "nvars", "weight", "terms")

    def __init__(self, field, nvars, weight, terms):
        self.field = field
        self.nvars = nvars
        self.weight = weight
        clean = {}
        p = field.p
        for key, c in terms.items():
            if len(key) != nvars + 1 or any(e < 0 for e in key):
                raise ValueError(f"bad monomial key {key} for {nvars} variables")
            if c.is_zero():
                continue
            w = key[0] + sum(e * p**i for i, e in enumerate(key[1:]))
            if w != weight:
                raise ConsistencyFailure(
                    f"monomial {key} has weight {w}, declared {weight}"
                )
            clean[tuple(key)] = c
        self.terms = clean

    @classmethod
    def zero(cls, field, nvars, weight):
        return cls(field, nvars, weight, {})

    @classmethod
    def monomial(cls, field, nvars, coeff, t, yexps):
        key = (t,) + tuple(yexps) + (0,) * (nvars - len(yexps))
        return cls(field, nvars, key[0] + sum(
            e * field.p**i for i, e in enumerate(key[1:])
        ), {key: coeff})

    @classmethod
    def t_var(cls, field, nvars):
        return cls.monomial(field, nvars, field.one(), 1, ())

    @classmethod
    def y_var(cls, field, nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"no variable Y_{i} among {nvars}")
        return cls.monomial(field, nvars, field.one(), 0, (0,) * i + (1,))

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("mixed graded rings")

    def __add__(self, other):
        self._check(other)
        if self.weight != other.weight and self.terms and other.terms:
            raise ConsistencyFailure(
                f"adding weights {self.weight} and {other.weight}"
            )
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key)
            terms[key] = c if s is None else s + c
        w = self.weight if self.terms or not other.terms else other.weight
        return GradedPolynomial(self.field, self.nvars, w, terms)

    def __neg__(self):
        return GradedPolynomial(
            self.field, self.nvars, self.weight,
            {k: -c for k, c in self.terms.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(ea + eb for ea, eb in zip(ka, kb))
                c = ca * cb
                s = terms.get(key)
                terms[key] = c if s is None else s + c
        return GradedPolynomial(
            self.field, self.nvars, self.weight + other.weight, terms
        )

    def scale(self, c):
        return GradedPolynomial(
            self.field, self.nvars, self.weight,
            {k: c * v for k, v in self.terms.items()},
        )

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        acc = GradedPolynomial(
            self.field, self.nvars, 0, {(0,) * (self.nvars + 1): self.field.one()}
        )
        base = self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, GradedPolynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("unhashable")

    def with_nvars(self, nvars):
        """The same element viewed inside a polynomial ring with nvars >=
        self.nvars variables."""
        pad = (0,) * (nvars - self.nvars)
        terms = {k + pad: c for k, c in self.terms.items()}
        return GradedPolynomial(self.field, nvars, self.weight, terms)

    def set_t_one(self):
        """Dehomogenize to a packed integer polynomial in the Y-slots.

        Only meaningful over a prime field, where coefficients are plain
        residues; the packing matches the Witt-table convention so results
        compare directly against table-derived component polynomials."""
        if self.field.f != 1:
            raise ValueError("dehomogenization target is a prime-field table")
        out = {}
        for key, c in self.terms.items():
            packed = sum(ip.var(yvar(i), e) for i, e in enumerate(key[1:]))
            out[packed] = (out.get(packed, 0) + c.coords[0]) % self.field.p
        return {k: v for k, v in out.items() if v}

    def __repr__(self):
        if not self.terms:
            return "0"
        one = self.field.one()
        bits = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            factors = [] if c == one else [repr(c)]
            if key[0]:
                factors.append("T" if key[0] == 1 else f"T^{key[0]}")
            for i, e in enumerate(key[1:]):
                if e:
                    factors.append(f"Y_{i}" if e == 1 else f"Y_{i}^{e}")
            bits.append("*".join(factors) or repr(c))
        return " + ".join(bits)


def homogenize_component(field, nvars, poly, weight):
    """Lift a packed Y-slot polynomial to the graded ring, filling with T.

    Every monomial must have ghost weight at most the target; the deficit
    becomes the T-exponent, which is what makes the output homogeneous."""
    p = field.p
    terms = {}
    for packed, c in poly.items():
        slots = ip.unpack(packed, 2 * nvars)
        if any(slots[0::2]):
            raise ValueError(f"X-slot in a Y-slot polynomial: {slots}")
        exps = slots[1::2]
        w = sum(e * p**i for i, e in enumerate(exps))
        if w > weight:
            raise ConsistencyFailure(f"monomial weight {w} exceeds target {weight}")
        key = (weight - w,) + exps
        terms[key] = field.from_int(c)
    return GradedPolynomial(field, nvars, weight, terms)


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


def _variable_image(table, field, nvars, j, a):
    """Image of Y_j under translation by a, with denominators cleared.

    Y_j picks up a_j T^(p^j) plus the carry of the lower coordinates with
    the constant vector, each carry monomial weighted back to p^j by T."""
    p = table.p
    terms = {(0,) + tuple(0 if i != j else 1 for i in range(nvars)): field.one()}
    key_t = (p**j,) + (0,) * nvars
    if not a[j].is_zero():
        terms[key_t] = a[j]
    for packed, c in ip.p_mod(table.c[j], p).items():
        slots = ip.unpack(packed, 2 * nvars)
        # X-slot: the live coordinate Y_i / T^(p^i); Y-slot: the constant a_i
        yexps = slots[0::2]
        coeff = field.from_int(c)
        for i, e in enumerate(slots[1::2]):
            if e:
                coeff = coeff * a[i] ** e
        if coeff.is_zero():
            continue
        t_exp = p**j - sum(e * p**i for i, e in enumerate(yexps))
        key = (t_exp,) + tuple(yexps)
        s = terms.get(key)
        terms[key] = coeff if s is None else s + coeff
    return GradedPolynomial(field, nvars, p**j, terms)


def group_action_on_sections(p, n, a, f):
    """Pull back a graded element along translation by the constant vector a.

    The substitution sends Y_j to its translated image for every j <= n and
    fixes T; the result has the same weight, which the graded constructor
    re-certifies monomial by monomial."""
    field = f.field
    if field.p != p:
        raise ValueError("field characteristic and p disagree")
    a = _translation_entries(a, field, n + 1)
    nvars = max(f.nvars, n + 1)
    f = f.with_nvars(nvars)
    table = build_table(p, n + 1)
    images = [_variable_image(table, field, nvars, j, a) for j in range(n + 1)]
    for j in range(n + 1, nvars):
        images.append(GradedPolynomial.y_var(field, nvars, j))
    out = GradedPolynomial.zero(field, nvars, f.weight)
    t = GradedPolynomial.t_var(field, nvars)
    for key, c in f.terms.items():
        term = t ** key[0]
        for j, e in enumerate(key[1:]):
            if e:
                term = term * images[j] ** e
        out = out + term.scale(c)
    if out.weight != f.weight and not out.is_zero():
        raise ConsistencyFailure("translation action changed the weight")
    return out


def psi_on_sections(p, n):
    """Homogeneous substitution rule of the isogeny on the top variable.

    The weight-p^(n+1) element whose dehomogenization at T = 1 is the n-th
    coordinate of a -> F(a) - a.  The coordinate polynomial is certified by
    its two independent routes first, then lifted; invariance under the
    order-p translation (0,..,0,1) is checked symbolically, since that
    translation generates the covering group of the substitution."""
    comp = nth_component_identity_check(build_table(p, n + 1), n)["component_poly"]
    field = finite_field(p)
    poly = homogenize_component(field, n + 1, comp, p ** (n + 1))
    if poly.set_t_one() != comp:
        raise ConsistencyFailure("dehomogenization does not invert the lift")
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
