"""Truncated Laurent series with sound valuation/precision bookkeeping.

A series stores a dense coefficient window [v, v+W) as an int64 array of
shape (W, f) over a coefficient ring from `coeff`.  `prec` is the exponent
bound below which every coefficient is known: prec = v + W for finite
windows, or math.inf for exactly-known Laurent polynomials (then all
coefficients outside the stored window are known to vanish).

Two distinct "zero" states exist on purpose:
  * exact zero: W = 0 and prec = inf;
  * zero-in-window: W = 0 with finite prec N, meaning only "O(t^N)".
Operations that need a certified valuation raise InsufficientPrecision on
the second state instead of guessing.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyFailure, InsufficientPrecision

INF = math.inf


class TruncatedLaurentSeries:
    """A series never changes after construction (nothing writes to its
    `coeffs`), so its full-window inverse is computed once and kept."""

    __slots__ = ("ring", "v", "coeffs", "prec", "_inv")

    def __init__(self, ring, v, coeffs, prec=INF, normalize=True):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim == 1:
            coeffs = coeffs.reshape(-1, ring.f)
        assert coeffs.ndim == 2 and coeffs.shape[1] == ring.f
        if normalize:
            coeffs = coeffs % ring.modulus
            if prec != INF:
                assert v + len(coeffs) == prec, "window must be dense up to prec"
            nz = np.nonzero(coeffs.any(axis=1))[0]
            if len(nz) == 0:
                coeffs = coeffs[:0]
                v = 0 if prec == INF else prec
            else:
                first = int(nz[0])
                v += first
                if prec == INF:
                    coeffs = coeffs[first : int(nz[-1]) + 1]
                else:
                    coeffs = coeffs[first:]
        self.ring = ring
        self.v = v
        self.coeffs = coeffs
        self.prec = prec
        self._inv = None

    # ---------- state queries ----------

    @property
    def end(self):
        return self.v + len(self.coeffs)

    def is_exact_zero(self):
        return len(self.coeffs) == 0 and self.prec == INF

    def has_certified_valuation(self):
        return len(self.coeffs) > 0 or self.prec == INF

    def valuation(self):
        if len(self.coeffs):
            return self.v
        if self.prec == INF:
            return INF
        raise InsufficientPrecision(
            f"series is O(t^{self.prec}) with no visible leading term"
        )

    def val_lower_bound(self):
        if len(self.coeffs):
            return self.v
        return INF if self.prec == INF else self.prec

    def coeff(self, e):
        """The coefficient of t^e as a ring element; loud if not known."""
        if self.v <= e < self.end:
            return self.ring.from_coords(tuple(self.coeffs[e - self.v]))
        if e < self.prec:
            return self.ring.zero()
        raise InsufficientPrecision(f"coefficient of t^{e} beyond O(t^{self.prec})")

    def leading_coeff(self):
        if not len(self.coeffs):
            raise InsufficientPrecision("no leading term in window")
        return self.ring.from_coords(tuple(self.coeffs[0]))

    def terms(self):
        """Known nonzero terms as (exponent, coefficient) pairs."""
        out = []
        for i, row in enumerate(self.coeffs):
            if row.any():
                out.append((self.v + i, self.ring.from_coords(tuple(row))))
        return out

    def __repr__(self):
        n = "inf" if self.prec == INF else self.prec
        body = " + ".join(f"({c})*t^{e}" for e, c in self.terms()[:8])
        if not body:
            body = "0"
        if len(self.terms()) > 8:
            body += " + ..."
        return f"<{body} + O(t^{n}) over {self.ring}>"

    # ---------- constructors ----------

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0, np.zeros((0, ring.f), dtype=np.int64), INF)

    @classmethod
    def zero_to(cls, ring, prec):
        return cls(ring, prec, np.zeros((0, ring.f), dtype=np.int64), prec)

    @classmethod
    def monomial(cls, ring, e, c=1, prec=INF):
        c = ring.from_int(c) if isinstance(c, int) else c
        if not c:
            return cls.zero(ring) if prec == INF else cls.zero_to(ring, prec)
        if prec == INF:
            arr = np.array([c.coords], dtype=np.int64)
            return cls(ring, e, arr, INF)
        if e >= prec:
            raise ValueError(f"monomial exponent {e} not below the precision {prec}")
        arr = np.zeros((prec - e, ring.f), dtype=np.int64)
        arr[0] = c.coords
        return cls(ring, e, arr, prec)

    @classmethod
    def from_terms(cls, ring, terms, prec=INF):
        """terms: iterable of (exponent, coefficient); coefficient an int,
        a coordinate list, or a ring element."""
        pairs = []
        for e, c in terms:
            if isinstance(c, int):
                c = ring.from_int(c)
            elif isinstance(c, (list, tuple)):
                c = ring.from_coords(c)
            pairs.append((e, c))
        if not pairs:
            return cls.zero(ring) if prec == INF else cls.zero_to(ring, prec)
        lo = min(e for e, _ in pairs)
        hi = prec if prec != INF else max(e for e, _ in pairs) + 1
        if any(e >= hi for e, _ in pairs):
            raise ValueError(f"term exponents must lie below the precision {prec}")
        arr = np.zeros((hi - lo, ring.f), dtype=np.int64)
        for e, c in pairs:
            arr[e - lo] = (arr[e - lo] + np.array(c.coords, dtype=np.int64)) % ring.modulus
        return cls(ring, lo, arr, prec)

    # ---------- structural ops ----------

    def truncate(self, new_prec):
        """Forget all coefficients at exponents >= new_prec."""
        if new_prec >= self.prec:
            return self
        if new_prec <= self.v or not len(self.coeffs):
            return TruncatedLaurentSeries.zero_to(self.ring, new_prec)
        arr = self.coeffs[: new_prec - self.v]
        if len(arr) < new_prec - self.v:  # exact series shorter than target
            pad = np.zeros((new_prec - self.v - len(arr), self.ring.f), dtype=np.int64)
            arr = np.vstack([arr, pad])
        return TruncatedLaurentSeries(self.ring, self.v, arr, new_prec)

    def shift(self, k):
        """Multiply by t^k."""
        p = self.prec if self.prec == INF else self.prec + k
        return TruncatedLaurentSeries(self.ring, self.v + k, self.coeffs, p, normalize=False)

    # ---------- ring operations ----------

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = TruncatedLaurentSeries.monomial(self.ring, 0, other)
        self._check(other)
        a, b = self, other
        prec = min(a.prec, b.prec)
        lo = min(a.val_lower_bound(), b.val_lower_bound(), prec)
        if lo == INF:
            return TruncatedLaurentSeries.zero(self.ring)
        hi = prec if prec != INF else max(a.end, b.end)
        if hi <= lo:
            return TruncatedLaurentSeries.zero_to(self.ring, prec)
        arr = np.zeros((hi - lo, self.ring.f), dtype=np.int64)
        for s in (a, b):
            if len(s.coeffs):
                seg_end = min(s.end, hi)
                if seg_end > s.v:
                    arr[s.v - lo : seg_end - lo] += s.coeffs[: seg_end - s.v]
        return TruncatedLaurentSeries(self.ring, lo, arr, prec)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedLaurentSeries(
            self.ring, self.v, -self.coeffs % self.ring.modulus, self.prec, normalize=False
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = TruncatedLaurentSeries.monomial(self.ring, 0, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, c):
        """Multiply by a ring element (or int), coefficient-wise."""
        ring = self.ring
        if isinstance(c, int):
            c = ring.from_int(c)
        if not c:
            return (
                TruncatedLaurentSeries.zero(ring)
                if self.prec == INF
                else TruncatedLaurentSeries.zero_to(ring, self.prec)
            )
        if not len(self.coeffs):
            return self
        arr = _scale(ring, self.coeffs, c.coords)
        return TruncatedLaurentSeries(ring, self.v, arr, self.prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        if not isinstance(other, TruncatedLaurentSeries):
            return self.scalar_mul(other)
        self._check(other)
        a, b = self, other
        if a.is_exact_zero() or b.is_exact_zero():
            return TruncatedLaurentSeries.zero(self.ring)
        va, vb = a.val_lower_bound(), b.val_lower_bound()
        prec = min(a.prec + vb, b.prec + va)
        if not len(a.coeffs) or not len(b.coeffs):
            return TruncatedLaurentSeries.zero_to(self.ring, prec)
        arr = _conv(self.ring, a.coeffs, b.coeffs)
        v = a.v + b.v
        if prec != INF:
            arr = arr[: prec - v]
        return TruncatedLaurentSeries(self.ring, v, arr, prec)

    __rmul__ = __mul__

    def pth_power(self):
        """Fast p-th power over F_q: Frobenius on coefficients, exponents * p."""
        ring = self.ring
        assert ring.is_field
        p = ring.p
        prec = self.prec if self.prec == INF else self.prec * p
        if not len(self.coeffs):
            return TruncatedLaurentSeries(ring, self.v * p, self.coeffs, prec, normalize=False)
        W = len(self.coeffs)
        arr = np.zeros(((W - 1) * p + 1, ring.f), dtype=np.int64)
        arr[::p] = (self.coeffs @ ring.frobenius_matrix) % p
        out = TruncatedLaurentSeries(ring, self.v * p, arr, INF, normalize=False)
        return out.truncate(prec) if prec != INF else out

    def __pow__(self, e):
        ring = self.ring
        if e < 0:
            # s.inv()**k has the precision of (s**k).inv(), prec - (k+1)v,
            # and reuses the cached inverse; an exact non-monomial s would
            # lose terms that way, so it keeps the old route
            if self.prec == INF and len(self.coeffs) > 1:
                return (self ** (-e)).inv()
            return self.inv() ** (-e)
        if e == 0:
            return TruncatedLaurentSeries.monomial(ring, 0, 1)
        r, k = e, 0
        if ring.is_field:
            while r % ring.p == 0:
                r //= ring.p
                k += 1
        result = None
        base = self
        while r:
            if r & 1:
                result = base if result is None else result * base
            r >>= 1
            if r:
                base = base * base
        for _ in range(k):
            result = result.pth_power()
        return result

    def inv(self, n_terms=None):
        """Multiplicative inverse to n_terms rows (default: the stored width).

        The lead-normalised window runs through `_inv_root` with r = 1, and
        the residual of self * inverse = 1 on the returned rows certifies it.
        A finite window determines only its own width of the inverse; an
        exact one is zero past its stored rows, so it is padded with zero
        rows up to n_terms.  Without n_terms the inverse is computed once
        and cached."""
        if n_terms is None and self._inv is not None:
            return self._inv
        ring = self.ring
        if self.is_exact_zero():
            raise ZeroDivisionError("division by exact zero")
        if not len(self.coeffs):
            raise InsufficientPrecision("cannot invert a series with no visible term")
        lead = self.leading_coeff()
        if not lead.is_unit():
            raise ZeroDivisionError("leading coefficient is not a unit")
        W, v = len(self.coeffs), self.v
        n = W if n_terms is None else n_terms
        if self.prec != INF:
            n = min(n, W)
        if W == 1 and self.prec == INF:
            x = TruncatedLaurentSeries.monomial(ring, -v, lead.inv(), INF)
        elif n < 1:
            x = TruncatedLaurentSeries.zero_to(ring, n - v)
        else:
            c = lead.inv().coords
            u = np.zeros((n, ring.f), dtype=np.int64)
            u[: min(n, W)] = _scale(ring, self.coeffs[:n], c)
            w = _scale(ring, _inv_root(ring, u, 1, n), c)
            residual = _mul_trunc(ring, self.coeffs, w, n)
            residual[0, 0] -= 1
            if (residual % ring.modulus).any():
                raise ConsistencyFailure("Newton inversion failed to converge")
            x = TruncatedLaurentSeries(ring, -v, w, n - v, normalize=False)
        if n_terms is None:
            self._inv = x
        return x

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(self.ring.from_int(other).inv())
        if not isinstance(other, TruncatedLaurentSeries):
            return self.scalar_mul(other.inv())
        self._check(other)
        if other.is_exact_zero():
            raise ZeroDivisionError("division by exact zero")
        if not len(other.coeffs):
            raise InsufficientPrecision("divisor has no visible leading term")
        if len(other.coeffs) == 1 and other.prec == INF:
            return self.shift(-other.v).scalar_mul(other.leading_coeff().inv())
        if self.prec == INF and other.prec == INF:
            raise ValueError(
                "exact/exact division does not terminate; truncate an operand first"
            )
        n = len(self.coeffs) if self.prec != INF else len(other.coeffs)
        return self * other.inv(n_terms=max(n, 1))

    def derivative(self):
        ring = self.ring
        if not len(self.coeffs):
            prec = self.prec if self.prec == INF else self.prec - 1
            return TruncatedLaurentSeries(ring, self.v - 1, self.coeffs, prec, normalize=False)
        exps = np.arange(self.v, self.end, dtype=np.int64) % ring.modulus
        arr = (self.coeffs * exps[:, None]) % ring.modulus
        prec = self.prec if self.prec == INF else self.prec - 1
        return TruncatedLaurentSeries(ring, self.v - 1, arr, prec)

    def residue(self):
        return self.coeff(-1)

    def agrees_with(self, other):
        """True when the two series agree on the overlap of known windows."""
        self._check(other)
        lo = min(self.val_lower_bound(), other.val_lower_bound())
        hi = min(self.prec, other.prec)
        if lo == INF:
            return True
        if hi == INF:
            hi = max(self.end, other.end)
        if hi <= lo:
            return True
        # every known coefficient outside a stored window is zero
        diff = np.zeros((hi - lo, self.ring.f), dtype=np.int64)
        for s, sign in ((self, 1), (other, -1)):
            a, b = max(s.v, lo), min(s.end, hi)
            if a < b:
                diff[a - lo : b - lo] += sign * s.coeffs[a - s.v : b - s.v]
        return not (diff % self.ring.modulus).any()


def _int_conv(a, b):
    """Exact convolution of 1-D int64 arrays.

    Large windows go through a real FFT when the worst-case rounding error
    provably stays below 1/4, which covers field-sized coefficients; lift
    rings with big moduli fall back to the quadratic direct method.  The
    guard is the floating-point FFT convolution bound of Percival (Math.
    Comp. 72, 2003), with the complex-product constant of Brent, Percival
    and Zimmermann (Math. Comp. 76, 2007): every output errs by at most a
    small multiple of eps log2(N) |a|_2 |b|_2, and |a|_2 |b|_2 <= N amax bmax."""
    N = len(a) + len(b) - 1
    if min(len(a), len(b)) >= 64 and N >= 1024:
        amax, bmax = int(np.abs(a).max()), int(np.abs(b).max())
        if 16 * 2.3e-16 * N * math.log2(N) * amax * bmax < 0.25:
            size = 1 << (N - 1).bit_length()
            out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
            return np.rint(out[:N]).astype(np.int64)
    return np.convolve(a, b)


def _conv(ring, A, B):
    """Exact convolution of coefficient windows over the ring.

    Every int64 sum below adds at most min(len) products of reduced
    coordinates (the convolution), or f - 1 of them and one coordinate (the
    reduction by the defining polynomial); each product is at most
    (mod - 1)^2."""
    mod = ring.modulus
    if (mod - 1) ** 2 * max(min(len(A), len(B)), ring.f - 1) + mod - 1 >= 2**63:
        raise ValueError(
            f"int64 convolution would overflow: modulus {mod}, "
            f"windows {len(A)} x {len(B)}"
        )
    if ring.f == 1:
        arr = _int_conv(A[:, 0], B[:, 0]) % mod
        return arr.reshape(-1, 1)
    L = len(A) + len(B) - 1
    full = np.zeros((L, 2 * ring.f - 1), dtype=np.int64)
    for i in range(ring.f):
        for j in range(ring.f):
            full[:, i + j] += _int_conv(A[:, i], B[:, j]) % mod
    return (full % mod) @ ring.reduction_rows % mod


def _scale(ring, A, c):
    """A window times the ring element with coordinates c."""
    mod = ring.modulus
    if ring.f == 1:
        return (A * c[0]) % mod
    full = np.zeros((len(A), 2 * ring.f - 1), dtype=np.int64)
    for j, cj in enumerate(c):
        if cj:
            full[:, j : j + ring.f] += A * cj
    return (full % mod) @ ring.reduction_rows % mod


def _one(ring):
    """The window of the constant 1."""
    arr = np.zeros((1, ring.f), dtype=np.int64)
    arr[0, 0] = 1
    return arr


def _mul_trunc(ring, A, B, n):
    """Product of two windows that start at t^0, cut to its first n rows."""
    return _conv(ring, A[:n], B[:n])[:n]


def _pow_trunc(ring, A, k, n):
    """A^k for a window A that starts at t^0, cut to n rows; k >= 0."""
    out = None
    while k:
        if k & 1:
            out = A[:n] if out is None else _mul_trunc(ring, out, A, n)
        k >>= 1
        if k:
            A = _mul_trunc(ring, A, A, n)
    return _one(ring) if out is None else out


def _inv_root(ring, U, r, n):
    """Rows 0..n-1 of U^(-1/r) for a window U = 1 + O(t) of at least n rows,
    with r a unit of the ring.

    w <- w + w (1 - U w^r) / r doubles the correct window of w each round
    using products only (Brent-Kung 1978)."""
    mod = ring.modulus
    rinv = pow(r, -1, mod)
    w = _one(ring)
    known = 1
    while known < n:
        old, known = known, min(2 * known, n)
        # 1 - U w^r vanishes below t^old, so only its rows old..known-1 act
        err = -_mul_trunc(ring, U, _pow_trunc(ring, w, r, known), known)[old:] % mod
        step = _mul_trunc(ring, w, err, known - old)
        w = np.vstack([w, step * rinv % mod])
    return w


# ---------- module-level operations (the public contract) ----------


def compose(f, g):
    """Substitute g into f; requires v(g) >= 1."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    ring = f.ring
    if f.is_exact_zero():
        return f
    if g.is_exact_zero():
        if f.val_lower_bound() < 0:
            raise ZeroDivisionError("pole composed with exact zero")
        return TruncatedLaurentSeries.monomial(ring, 0, f.coeff(0))
    vg = g.valuation()  # raises InsufficientPrecision when undetermined
    if vg < 1:
        raise ValueError(f"composition requires v(g) >= 1, got {vg}")
    if not len(f.coeffs):
        return TruncatedLaurentSeries.zero_to(ring, f.prec * vg)
    vf = f.v
    cap = f.prec * vg if f.prec != INF else INF
    if g.prec != INF:
        cap = min(cap, g.prec + (vf - 1) * vg)
    if vf < 0 and g.prec == INF and len(g.coeffs) > 1:
        raise ValueError("composing a pole into an exact series: truncate g first")
    result = _compose_fast(f, g, cap)
    if len(f.coeffs) and vf != 0 and f.leading_coeff().is_unit() and g.leading_coeff().is_unit():
        if result.valuation() != vf * vg:
            raise ConsistencyFailure(
                f"composite has valuation {result.valuation()}, expected {vf * vg}"
            )
    return result


def _compose_fast(f, g, cap):
    """The composite f(g) cut at cap, built on raw windows.

    Over F_q a long f is split by x -> x^p linearity: writing
    F = sum_j t^j F_j(t^p) and taking p-th roots of the F_j coefficients
    turns one composition at window N into p compositions at window ~N/p
    followed by free p-th powers, so the total cost stays at a small
    constant times one full-window multiplication.  Short pieces, and every
    f over a Galois ring, run Horner's rule on rows.
    """
    ring = f.ring
    p, mod = ring.p, ring.modulus
    vg = g.valuation()
    if cap == INF:  # f and g exact: the unit part is a polynomial in t
        n0 = (len(f.coeffs) - 1) * (g.end - 1) + 1
    else:
        n0 = cap - f.v * vg  # window needed for the unit-part composition
    if n0 <= 0:
        return TruncatedLaurentSeries.zero_to(ring, cap)
    # inside the recursion g's stored window is treated as exact; the
    # honest precision cap was computed by the caller.  Windows are raw
    # (rows, f) arrays starting at t^0; series are built only on exit.
    G = np.zeros((min(g.end, n0), ring.f), dtype=np.int64)
    G[g.v :] = g.coeffs[: max(0, len(G) - g.v)]
    gpow = [None, G]  # gpow[j] = g^j for 1 <= j < p, read once f is split
    if ring.is_field and len(f.coeffs) > max(4, p):
        for _ in range(2, p):
            gpow.append(_mul_trunc(ring, gpow[-1], G, n0))

    def rec(arr, n):
        # arr: coefficient rows at exponents 0..len-1; returns the rows of
        # sum_k arr[k] * g^k modulo t^n, or None when that is zero
        if n <= 0 or not arr.any():
            return None
        if not ring.is_field or len(arr) <= max(4, p):
            acc = arr[-1:]
            for row in arr[-2::-1]:
                acc = _mul_trunc(ring, acc, G, n)
                acc[0] = (acc[0] + row) % mod
            return acc[:n]
        m = -(-n // p)
        total = np.zeros((n, ring.f), dtype=np.int64)
        for j in range(p):
            piece = arr[j::p]
            if not piece.any():
                continue
            rj = rec((piece @ ring.pth_root_matrix) % p, m)
            if rj is None:
                continue
            # the p-th power of rj: Frobenius on coefficients, exponents * p
            term = np.zeros(((len(rj) - 1) * p + 1, ring.f), dtype=np.int64)
            term[::p] = (rj @ ring.frobenius_matrix) % p
            if j:
                term = _mul_trunc(ring, term, gpow[j], n)
            total[: len(term)] += term
        return total % p

    unit = np.zeros((n0, ring.f), dtype=np.int64)
    rows = rec(f.coeffs, n0)
    if rows is not None:
        unit[: len(rows)] = rows
    unit = TruncatedLaurentSeries(ring, 0, unit, INF if cap == INF else n0)
    out = unit * (g**f.v) if f.v else unit
    return out.truncate(cap)


def derivative(f):
    return f.derivative()


def residue(f):
    return f.residue()


def nth_root(f, r, leading_root=None):
    """r-th root with gcd(r, p) = 1, by inverse-root Newton iteration.

    With u = f / (c t^v) = 1 + O(t), w <- w + w (1 - u w^r) / r doubles the
    correct window of w = u^(-1/r) each round using products only; then
    u w^(r-1) = u^(1/r).  The result is certified by comparing its r-th
    power with f."""
    ring = f.ring
    p = ring.p
    if math.gcd(r, p) != 1:
        raise ValueError(f"gcd({r}, {p}) != 1; use pth_power_decompose for p-th powers")
    if not f.has_certified_valuation():
        raise InsufficientPrecision("root of a series with uncertified valuation")
    if f.is_exact_zero():
        return f
    v = f.valuation()
    if v % r:
        raise ValueError(f"valuation {v} not divisible by {r}")
    c = f.leading_coeff()
    if leading_root is not None:
        c0 = leading_root
        if c0**r != c:
            raise ConsistencyFailure(f"leading root {c0} is not an {r}-th root of {c}")
    else:
        c0 = _find_root(c, r)
        if c0 is None:
            raise ValueError(f"leading coefficient has no {r}-th root in {ring}")
    W = len(f.coeffs)
    u = _scale(ring, f.coeffs, c.inv().coords)
    if r == 1:  # the 1st root of u is u itself
        z = u
    else:
        z = _mul_trunc(ring, u, _pow_trunc(ring, _inv_root(ring, u, r, W), r - 1, W), W)
    out = TruncatedLaurentSeries(ring, v // r, _scale(ring, z, c0.coords), v // r + W)
    if not (out**r).agrees_with(f):
        raise ConsistencyFailure(f"{r}-th root does not reproduce the series")
    return out


def _find_root(c, r):
    ring = c.ring
    assert ring.is_field
    # fields here are tiny; exhaustive search is the simplest certified route
    from itertools import product as iproduct

    for coords in iproduct(range(ring.p), repeat=ring.f):
        x = ring.from_coords(coords)
        if x**r == c:
            return x
    return None


def pth_power_decompose(f):
    """Split f = g^p + h with h supported on exponents prime to p."""
    ring = f.ring
    assert ring.is_field
    p = ring.p
    if f.is_exact_zero():
        return f, f
    if not f.has_certified_valuation():
        raise InsufficientPrecision("decomposition needs a certified window")
    W = len(f.coeffs)
    exps = np.arange(f.v, f.end)
    mask = exps % p == 0
    harr = f.coeffs.copy()
    harr[mask] = 0
    h = TruncatedLaurentSeries(ring, f.v, harr, f.prec)
    gexps = exps[mask] // p
    if len(gexps):
        gv = int(gexps[0])
        gprec = f.prec if f.prec == INF else -(-f.prec // p)
        hi = int(gexps[-1]) + 1 if f.prec == INF else gprec
        garr = np.zeros((hi - gv, ring.f), dtype=np.int64)
        roots = (f.coeffs[mask] @ ring.pth_root_matrix) % p
        garr[gexps - gv] = roots
        g = TruncatedLaurentSeries(ring, gv, garr, gprec)
    else:
        g = (
            TruncatedLaurentSeries.zero(ring)
            if f.prec == INF
            else TruncatedLaurentSeries.zero_to(ring, -(-f.prec // p))
        )
    if not (g.pth_power() + h).agrees_with(f):
        raise ConsistencyFailure("g^p + h does not reconstruct f")
    return g, h
