"""The Galois rings GR(p^m, f) (small p): finite fields F_q, q = p^f, at
m = 1, and their unramified Z/p^m lifts above.

Elements are coordinate vectors over a fixed defining polynomial shipped with
the package (Conway-style, one polynomial per (p, f) forever).  Every level m
of (p, f) uses the *same* polynomial with coefficients read mod p^m, so
reduction mod p is literally coordinate-wise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConsistencyFailure

SUPPORTED_PRIMES = (2, 3, 5, 7)


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def binary_power(x, e, mul):
    """x^e, e >= 1, by repeated squaring with the product mul: the one
    square-and-multiply loop of the package, for every ring it powers in.
    The one vectorized exception is `intpoly._powers`, which powers rows by
    a whole array of exponents at once and shares the squarings."""
    out = x if e & 1 else None
    while e > 1:
        e, x = e >> 1, mul(x, x)
        if e & 1:
            out = x if out is None else mul(out, x)
    return out


# (p, f) -> monic defining polynomial, coefficients low to high.
DEFINING_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
}


class CoeffRing:
    """The Galois ring GR(p^m, f) = (Z/p^m)[x]/(poly), with poly the shipped
    defining polynomial of (p, f): Z/p^m when f = 1, and the finite field
    F_q, q = p^f, exactly when m = 1.

    Coordinates are tuples of ints in [0, modulus), modulus = p^m.  Rings
    are equal when (p, m, f) are.
    """

    def __init__(self, p, m, f):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported prime {p}")
        if (p, f) not in DEFINING_POLYS:
            raise ValueError(f"no defining polynomial shipped for (p={p}, f={f})")
        if m < 1:
            raise ValueError(f"lift level m={m} must be >= 1")
        self.p = p
        self.m = m
        self.f = f
        self.modulus = p**m
        self.poly = tuple(c % self.modulus for c in DEFINING_POLYS[(p, f)])
        # reduction_rows[k] = coordinates of x^k, for k = 0 .. 2f-2
        rows = []
        cur = [0] * f
        cur[0] = 1
        for _ in range(2 * f - 1):
            rows.append(list(cur))
            cur = [0] + cur  # multiply by x
            lead = cur.pop()
            if lead:
                for i in range(f):
                    cur[i] = (cur[i] - lead * self.poly[i]) % self.modulus
        self.reduction_rows = np.array(rows, dtype=np.int64)
        if self.is_field:
            self.q = p**f
            # frobenius_matrix[i] = coordinates of (x^i)^p; pth_root = its
            # inverse, which is frobenius^(f-1) since Frobenius has order f
            rows = []
            for i in range(f):
                xi = tuple(1 if j == i else 0 for j in range(f))
                rows.append(self._cpow(xi, p))
            self.frobenius_matrix = np.array(rows, dtype=np.int64)
            mat = np.eye(f, dtype=np.int64)
            for _ in range(f - 1):
                mat = (mat @ self.frobenius_matrix) % p
            self.pth_root_matrix = mat

    @property
    def is_field(self):
        return self.m == 1

    def from_coords(self, coords):
        coords = tuple(int(c) % self.modulus for c in coords)
        if len(coords) != self.f:
            raise ValueError(f"an element of {self} has {self.f} coordinates, got {len(coords)}")
        return _Element(self, coords)

    def from_int(self, n):
        return _Element(self, (n % self.modulus,) + (0,) * (self.f - 1))

    def element(self, c):
        """c as an element of this ring: an int, or an element of this ring;
        anything else raises ValueError."""
        if isinstance(c, int):
            return self.from_int(c)
        if isinstance(c, _Element) and c.ring == self:
            return c
        other = c.ring if isinstance(c, _Element) else type(c).__name__
        raise ValueError(f"ring mismatch: {self} vs {other}")

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def gen(self):
        """The class of x (a root of the defining polynomial)."""
        if self.f < 2:
            raise ValueError(f"{self} has no generator beyond the prime field")
        return _Element(self, (0, 1) + (0,) * (self.f - 2))

    def random(self, rng):
        return _Element(self, tuple(rng.randrange(self.modulus) for _ in range(self.f)))

    # -- raw coordinate arithmetic (shared with the series backend) --

    def cmul(self, a, b):
        f, mod = self.f, self.modulus
        if f == 1:
            return ((a[0] * b[0]) % mod,)
        full = [0] * (2 * f - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    full[i + j] += ai * bj
        out = [0] * f
        for k, ck in enumerate(full):
            if ck:
                row = self.reduction_rows[k]
                for i in range(f):
                    out[i] += ck * int(row[i])
        return tuple(c % mod for c in out)

    def cinv(self, a):
        if not any(c % self.p for c in a):
            raise ZeroDivisionError("not a unit")
        if self.is_field:
            return self._cpow(a, self.p**self.f - 2)
        # Hensel: invert mod p, then lift through p^m
        fld = finite_field(self.p, self.f)
        x = fld._cpow(tuple(c % self.p for c in a), self.p**self.f - 2)
        x = tuple(int(c) for c in x)
        known = 1
        while known < self.m:
            ax = self.cmul(a, x)
            two_minus = tuple((-c) % self.modulus for c in ax)
            two_minus = (two_minus[0] + 2,) + two_minus[1:]
            x = self.cmul(x, tuple(c % self.modulus for c in two_minus))
            known *= 2
        if self.cmul(a, x) != (1,) + (0,) * (self.f - 1):
            raise ConsistencyFailure(f"Hensel lift {x} does not invert {a} in {self}")
        return x

    def _cpow(self, a, e):
        return binary_power(a, e, self.cmul) if e else (1,) + (0,) * (self.f - 1)

    def __eq__(self, other):
        return (
            isinstance(other, CoeffRing)
            and (self.p, self.m, self.f) == (other.p, other.m, other.f)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.f))

    def __repr__(self):
        if self.is_field:
            return f"F{self.q}"
        return f"GR({self.p}^{self.m},{self.f})" if self.f > 1 else f"Z/{self.modulus}"


@lru_cache(maxsize=None)
def lift_ring(p, m, f=1):
    return CoeffRing(p, m, f)


def finite_field(p, f=1):
    return lift_ring(p, 1, f)


@lru_cache(maxsize=None)
def nonzero_elements(field):
    """All q - 1 nonzero elements of F_q, in a fixed coordinate order: one
    tuple per field, like the field itself."""
    return tuple(field.from_coords(c) for c in product(range(field.p), repeat=field.f) if any(c))


class _Element:
    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords

    def _operand(self, other):
        """other as an element of this ring: an int is read into it, an
        element of another ring raises ValueError, and anything else is
        NotImplemented, so that Python tries the other operand's method."""
        if isinstance(other, (int, _Element)):
            return self.ring.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        mod = self.ring.modulus
        return _Element(self.ring, tuple((a + b) % mod for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        mod = self.ring.modulus
        return _Element(self.ring, tuple((a - b) % mod for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return self.ring.element(other).__sub__(self)

    def __neg__(self):
        mod = self.ring.modulus
        return _Element(self.ring, tuple(-a % mod for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            mod = self.ring.modulus
            return _Element(self.ring, tuple((a * other) % mod for a in self.coords))
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return _Element(self.ring, self.ring.cmul(self.coords, other.coords))

    __rmul__ = __mul__

    def inv(self):
        return _Element(self.ring, self.ring.cinv(self.coords))

    def __truediv__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self * other.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        return _Element(self.ring, self.ring._cpow(self.coords, e))

    def is_unit(self):
        return any(c % self.ring.p for c in self.coords)

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        return (
            isinstance(other, _Element)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        if self.ring.f == 1:
            return str(self.coords[0])
        names = ["", "g"] + [f"g^{i}" for i in range(2, self.ring.f)]
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(names[i])
                else:
                    terms.append(f"{c}*{names[i]}")
        return "+".join(terms) if terms else "0"


def pth_root(a):
    """The unique p-th root in F_q: the inverse of Frobenius, a^(p^(f-1))."""
    ring = a.ring
    if not ring.is_field:
        raise ValueError(f"p-th roots are taken in a finite field, not {ring}")
    root = a ** (ring.p ** (ring.f - 1))
    if root**ring.p != a:
        raise ConsistencyFailure(f"{root} is not a p-th root of {a}")
    return root


def lift(a, m):
    """Coordinate-wise lift of a field element into the Galois ring mod p^m."""
    ring = a.ring
    if not ring.is_field:
        raise ValueError(f"only field elements are lifted, not elements of {ring}")
    return lift_ring(ring.p, m, ring.f).from_coords(a.coords)


def reduce_mod_p(x):
    """Reduce a lift-ring element back to the residue field."""
    ring = x.ring
    return finite_field(ring.p, ring.f).from_coords(tuple(c % ring.p for c in x.coords))
