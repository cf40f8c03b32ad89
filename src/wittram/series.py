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
import operator

import numpy as np

from .coeff import binary_power, nonzero_elements
from .errors import ConsistencyFailure, InsufficientPrecision

INF = math.inf
DIRECT_CONV_ROWS = 64  # _int_conv multiplies shorter windows directly
FFT_CONV_TERMS = 512  # and products of fewer terms; see _fft_sized


class TruncatedLaurentSeries:
    """A series never changes after construction (its `coeffs` window is
    read-only), so its full-window inverse is computed once and kept, and so
    are the powers that compositions through it form (`_compose_fast`)."""

    __slots__ = ("ring", "v", "coeffs", "prec", "_inv", "_pows", "_poles")

    def __init__(self, ring, v, coeffs, prec=INF, normalize=True):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim == 1:
            coeffs = coeffs.reshape(-1, ring.f)
        if coeffs.ndim != 2 or coeffs.shape[1] != ring.f:
            raise ValueError(f"a window over {ring} has shape (rows, {ring.f}), not {coeffs.shape}")
        if normalize:
            coeffs = coeffs % ring.modulus
            if prec != INF:
                if v + len(coeffs) != prec:
                    raise ValueError("window must be dense up to prec")
            # trim only a zero first row, or the zero last rows of an exact series
            lead = len(coeffs) and any(coeffs[0].tolist())
            if not lead or (prec == INF and not any(coeffs[-1].tolist())):
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
        else:
            coeffs = coeffs.view()  # the caller's array stays writable
        coeffs.flags.writeable = False
        self.ring = ring
        self.v = v
        self.coeffs = coeffs
        self.prec = prec
        self._inv = self._pows = self._poles = None

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
        """O(t^prec); the exact zero when prec is INF."""
        return cls(ring, prec, np.zeros((0, ring.f), dtype=np.int64), prec)

    @classmethod
    def monomial(cls, ring, e, c=1, prec=INF):
        c = ring.element(c)
        if not c:
            return cls.zero_to(ring, prec)
        if e >= prec:
            raise ValueError(f"monomial exponent {e} not below the precision {prec}")
        arr = np.zeros((1 if prec == INF else prec - e, ring.f), dtype=np.int64)
        arr[0] = c.coords
        return cls(ring, e, arr, prec)

    @classmethod
    def from_terms(cls, ring, terms, prec=INF):
        """terms: iterable of (exponent, coefficient); coefficient an int,
        a coordinate list, or an element of ring."""
        pairs = [
            (e, ring.from_coords(c) if isinstance(c, (list, tuple)) else ring.element(c))
            for e, c in terms
        ]
        if not pairs:
            return cls.zero_to(ring, prec)
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

    def _overlay(self, other, sign):
        """self + other (sign 1) or self - other (sign -1) on the known
        windows: every known coefficient outside a stored window is zero."""
        if not isinstance(other, TruncatedLaurentSeries):  # an int or a ring element
            other = TruncatedLaurentSeries.monomial(self.ring, 0, other)
        self._check(other)
        prec = min(self.prec, other.prec)
        lo = min(self.val_lower_bound(), other.val_lower_bound(), prec)
        hi = prec if prec != INF else max(self.end, other.end)
        if hi <= lo:
            return TruncatedLaurentSeries.zero_to(self.ring, prec)
        arr = np.zeros((hi - lo, self.ring.f), dtype=np.int64)
        for s, op in ((self, np.add), (other, np.add if sign > 0 else np.subtract)):
            end = min(s.end, hi)
            if end > s.v:
                rows = arr[s.v - lo : end - lo]
                op(rows, s.coeffs[: end - s.v], out=rows)
        return TruncatedLaurentSeries(self.ring, lo, arr, prec)

    def __add__(self, other):
        return self._overlay(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedLaurentSeries(
            self.ring, self.v, -self.coeffs % self.ring.modulus, self.prec, normalize=False
        )

    def __sub__(self, other):
        return self._overlay(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, c):
        """Multiply by an element of the series' ring (or int), coefficient-wise."""
        ring = self.ring
        c = ring.element(c)
        if not c:
            return TruncatedLaurentSeries.zero_to(ring, self.prec)
        if not len(self.coeffs):
            return self
        arr = _scale(ring, self.coeffs, c.coords)
        return TruncatedLaurentSeries(ring, self.v, arr, self.prec)

    def __mul__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return self.scalar_mul(other)
        self._check(other)
        a, b = self, other
        va, vb = a.val_lower_bound(), b.val_lower_bound()
        prec = min(a.prec + vb, b.prec + va)
        if not len(a.coeffs) or not len(b.coeffs):
            return TruncatedLaurentSeries.zero_to(self.ring, prec)
        v = a.v + b.v
        if prec == INF:
            arr = _conv(self.ring, a.coeffs, b.coeffs)
        else:  # rows at or past prec - v of either factor reach no kept row
            n = prec - v
            arr = _conv(self.ring, a.coeffs[:n], b.coeffs[:n])[:n]
        return TruncatedLaurentSeries(self.ring, v, arr, prec)

    __rmul__ = __mul__

    def pth_power(self):
        """Fast p-th power over F_q: Frobenius on coefficients, exponents * p."""
        if not self.ring.is_field:
            raise ValueError(f"the Frobenius p-th power needs a finite field, not {self.ring}")
        return _power(self, self.ring.p)

    def __pow__(self, e):
        if e < 0:
            # s.inv()**k has the precision of (s**k).inv(), prec - (k+1)v,
            # and reuses the cached inverse; an exact non-monomial s would
            # lose terms that way, so it keeps the old route
            if self.prec == INF and len(self.coeffs) > 1:
                return (self ** (-e)).inv()
            return self.inv() ** (-e)
        if e == 0:
            return TruncatedLaurentSeries.monomial(self.ring, 0, 1)
        return _power(self, e)

    def inv(self, n_terms=None, start=None):
        """Multiplicative inverse to n_terms rows (default: the stored width).

        `_inv_rows` inverts the window and certifies it by its residual;
        `start`, the rows of a nearby series' inverse of the same valuation
        (such as the last Newton iterate's), seeds it with the rows that
        fit.  A finite window determines only its own width of the inverse;
        an exact one is zero past its stored rows, so it is padded with zero
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
            w0 = None if start is None else _scale(ring, start[:n], lead.coords)
            w = _inv_rows(ring, self.coeffs, lead.inv().coords, n, w0)
            x = TruncatedLaurentSeries(ring, -v, w, n - v, normalize=False)
        if n_terms is None:
            self._inv = x
        return x

    def inv_root(self, r, start=None):
        """w = U^(-1/r) on the rows of a finite window self = c t^v U, where
        U = 1 + O(t) and r is a unit of the ring; w is a series at t^0.

        Newton starts from `start`, rows of w that the caller knows (the
        stage solver keeps the rows of its last root below the first row of
        U that moved).  The residual U w^r = 1 on all rows certifies w, and
        with it the inverse c^(-1) t^(-v) w^r of self, which is kept as
        `inv()`."""
        ring = self.ring
        if self.prec == INF:
            raise ValueError("inverse root of an exact series: truncate it first")
        if not len(self.coeffs):
            raise InsufficientPrecision("cannot invert a series with no visible term")
        lead = self.leading_coeff()
        if not lead.is_unit():
            raise ZeroDivisionError("leading coefficient is not a unit")
        W, c = len(self.coeffs), lead.inv().coords
        U = _scale(ring, self.coeffs, c)
        w = _inv_root(ring, U, r, W, None if start is None else start[:W])
        err, wr = _root_error(ring, U, w, r)
        if err.any():
            raise ConsistencyFailure(f"inverse {r}-th root failed to converge")
        inv = _scale(ring, wr, c)
        self._inv = TruncatedLaurentSeries(ring, -self.v, inv, W - self.v, normalize=False)
        return TruncatedLaurentSeries(ring, 0, w, W, normalize=False)

    def keep_pole_power(self, k, x):
        """Keep x as self^(-k), k >= 1, for the compositions through self.

        x must be that power on at least the rows of self, as the stage
        solver reads it off a certified inverse root of self."""
        if x.v != -k * self.v or x.prec - x.v < len(self.coeffs):
            raise ValueError(f"not the power t^{-k * self.v} on {len(self.coeffs)} rows")
        if self._poles is None:
            self._poles = {}
        self._poles[k] = x

    def __truediv__(self, other):
        if not isinstance(other, TruncatedLaurentSeries):
            return self.scalar_mul(self.ring.element(other).inv())
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
        exps = np.arange(self.v, self.end, dtype=np.int64) % ring.modulus
        arr = (self.coeffs * exps[:, None]) % ring.modulus
        prec = self.prec if self.prec == INF else self.prec - 1
        return TruncatedLaurentSeries(ring, self.v - 1, arr, prec)

    def agrees_with(self, other):
        """True when the two series agree on the overlap of known windows:
        their difference has no stored row."""
        return not len(self._overlay(other, -1).coeffs)


def _fft_sized(la, lb):
    """True when a product of la- and lb-row windows is long enough for the
    FFT.  In a sweep of square int64 windows (2-CPU x86 VM) the direct and
    FFT products cost the same, about 30 us, near 450-560 terms; at 1026
    terms the direct one takes 245 us against 59 us."""
    return la + lb - 1 >= FFT_CONV_TERMS and min(la, lb) >= DIRECT_CONV_ROWS


def _int_conv(a, b):
    """Exact convolution of the int64 row b with a, a row or a stack (..., la).

    Large windows go through a real FFT along the last axis when the
    worst-case rounding error provably stays below 1/4, which covers
    field-sized coefficients; lift rings with big moduli fall back to the
    quadratic direct method.  The guard is the floating-point FFT
    convolution bound of Percival (Math. Comp. 72, 2003), with the
    complex-product constant of Brent, Percival and Zimmermann (Math. Comp.
    76, 2007): every output errs by at most a small multiple of eps log2(N)
    |a|_2 |b|_2, and |a|_2 |b|_2 <= N amax bmax, amax over the whole stack."""
    N = a.shape[-1] + len(b) - 1
    if _fft_sized(a.shape[-1], len(b)):
        amax, bmax = int(np.abs(a).max()), int(np.abs(b).max())
        if 16 * 2.3e-16 * N * math.log2(N) * amax * bmax < 0.25:
            size = 1 << (N - 1).bit_length()
            out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
            return np.rint(out[..., :N]).astype(np.int64)
    return np.convolve(a, b) if a.ndim == 1 else _convolve_rows(a, b)


def _convolve_rows(a, b):
    """The direct product of a stack of rows a with the row b, row by row."""
    rows = [np.convolve(x, b) for x in a.reshape(-1, a.shape[-1])]
    return np.reshape(rows, a.shape[:-1] + (-1,))


def _conv(ring, A, B):
    """Exact convolution of coefficient windows over the ring: the window B
    times A, one (rows, f) window or a stack (..., rows, f) of them.

    Every int64 sum below adds at most min(len) products of reduced
    coordinates (the convolution), or f - 1 of them and one coordinate (the
    reduction by the defining polynomial); each product is at most
    (mod - 1)^2.

    Over F_q with f > 1, where the coordinates would be convolved directly,
    each row's f coordinates are packed at s bits apiece into one int64
    (Kronecker substitution), so one convolution replaces f^2.  Slot k of
    a packed product sums at most f coordinate convolutions, each below
    min(len) (mod - 1)^2, so s = bitlen(f min(len) (mod - 1)^2) bits keep
    the slots apart, and the 2f - 1 slots fit when (2f - 1) s <= 62."""
    mod, f = ring.modulus, ring.f
    if B.ndim != 2 or B.shape[1] != f:
        raise ValueError(f"the second factor must be one (rows, {f}) window, not {B.shape}")
    la, lb = A.shape[-2], len(B)
    if (mod - 1) ** 2 * max(min(la, lb), f - 1) + mod - 1 >= 2**63:
        raise ValueError(f"int64 convolution would overflow: modulus {mod}, windows {la} x {lb}")
    if f == 1:
        return (_int_conv(A[..., 0], B[:, 0]) % mod)[..., None]
    s = (f * min(la, lb) * (mod - 1) ** 2).bit_length()  # bits per packed slot
    if ring.is_field and (2 * f - 1) * s <= 62 and not _fft_sized(la, lb):
        a, b = ((X << (s * np.arange(f))).sum(axis=-1) for X in (A, B))
        ab = np.convolve(a, b) if a.ndim == 1 else _convolve_rows(a, b)
        full = (ab[..., None] >> (s * np.arange(2 * f - 1))) & ((1 << s) - 1)
    else:
        full = np.zeros(A.shape[:-2] + (la + lb - 1, 2 * f - 1), dtype=np.int64)
        for i in range(f):
            for j in range(f):
                full[..., i + j] += _int_conv(A[..., i], B[:, j]) % mod
    return (full % mod) @ ring.reduction_rows % mod


def _scale(ring, A, c):
    """A window, or a stack of them, times the ring element with coordinates
    c; coordinates c[j] of shape (K, 1, 1) give K multiples of one window.
    For f > 1 that is A times the matrix of c, whose row i holds the
    coordinates of x^i c: an entry sums f products, below f (mod - 1)^2."""
    mod = ring.modulus
    if ring.f == 1:
        return (A * c[0]) % mod
    if ring.f * (mod - 1) ** 2 >= 2**63:
        raise ValueError(f"int64 scaling would overflow: modulus {mod}, f = {ring.f}")
    M = sum(cj * ring.reduction_rows[j : j + ring.f] for j, cj in enumerate(c))
    return A @ (M % mod) % mod


def _one(ring):
    """The window of the constant 1."""
    arr = np.zeros((1, ring.f), dtype=np.int64)
    arr[0, 0] = 1
    return arr


def _mul_trunc(ring, A, B, n):
    """Product of windows from t^0, cut to n rows; A may be a stack."""
    return _conv(ring, A[..., :n, :], B[:n])[..., :n, :]


def _pow_rows(ring, A, e, n):
    """Rows 0..n-1 of A^e, e >= 1, for a window A from t^0.

    Over F_q, A^e is the product of (A^(e_k))^(p^k) over the base-p digits
    e_k of e: each digit power is binary on the ceil(n / p^k) rows that
    reach a kept row, and its p^k-th power is a free Frobenius, which maps
    the coefficients and multiplies the exponents by p^k.  Over a lift ring
    e is one digit.  A stack of windows takes only e = p^k over F_q, a
    Frobenius of each, since `_conv` multiplies a stack by one window only."""
    q = ring.p if ring.is_field else e + 1
    out = None
    for k in range(e.bit_length()):  # e has at most that many base-q digits
        d = e // q**k % q
        if d:
            m = -(-n // q**k)
            x = binary_power(A[..., :m, :], d, lambda a, b: _mul_trunc(ring, a, b, m))
            for _ in range(k):
                x = (x @ ring.frobenius_matrix) % q
            y = np.zeros(x.shape[:-2] + (n, ring.f), dtype=np.int64)
            y[..., : x.shape[-2] * q**k : q**k, :] = x
            out = y if out is None else _mul_trunc(ring, out, y, n)
    return out


def power_precision(ring, e, v):
    """(a, b) with prec(x^e) = a prec(x) + b, e >= 1, for x of valuation v
    with a unit lead: p^k0 (prec - v) + e v, with p^k0 the largest power of
    p dividing e over F_q, where `_pow_rows` takes p-th powers by Frobenius,
    and p^k0 = 1 over a lift ring, where a product keeps prec + v(other)."""
    a = 1
    while ring.is_field and e % (a * ring.p) == 0:
        a *= ring.p
    return a, (e - a) * v


def _power(x, e, cap=INF):
    """x^e for e >= 1, cut at cap, at the precision of `power_precision`.
    A lead that is a zero divisor of a lift ring vanishes from the products,
    which then gain precision past it: such powers stay binary on series."""
    ring = x.ring
    if not len(x.coeffs):
        return TruncatedLaurentSeries.zero_to(ring, min(e * x.prec, cap))
    if not ring.is_field and not x.leading_coeff().is_unit():
        return binary_power(x, e, operator.mul).truncate(cap)
    a, b = power_precision(ring, e, x.v)
    prec = min(a * x.prec + b, cap)
    n = (len(x.coeffs) - 1) * e + 1 if prec == INF else prec - e * x.v
    return TruncatedLaurentSeries(ring, e * x.v, _pow_rows(ring, x.coeffs, e, n), prec)


def _inv_root(ring, U, r, n, w=None):
    """Rows 0..n-1 of U^(-1/r) for a window U = 1 + O(t) of at least n rows,
    with r a unit of the ring.

    w <- w + w (1 - U w^r) / r doubles the correct window of w each round
    using products only (Brent-Kung 1978), from the rows w of U^(-1/r)
    given, or from 1."""
    mod = ring.modulus
    rinv = pow(r, -1, mod)
    if w is None or not len(w):
        w = _one(ring)
    known = len(w)
    while known < n:
        old, known = known, min(2 * known, n)
        # 1 - U w^r vanishes below t^old, so only its rows old..known-1 act
        err = -_mul_trunc(ring, U, _pow_rows(ring, w, r, known), known)[old:] % mod
        step = _mul_trunc(ring, w, err, known - old)
        w = np.vstack([w, step * rinv % mod])
    return w


def _root_error(ring, U, w, r):
    """(U w^r - 1, w^r) on the rows of w, reduced."""
    wr = _pow_rows(ring, w, r, len(w))
    err = _mul_trunc(ring, U, wr, len(w))
    err[0, 0] -= 1
    return err % ring.modulus, wr


def _inv_rows(ring, A, c, n, w=None):
    """Rows 0..n-1 of 1/A for a window A from t^0 whose lead is a unit with
    inverse c (coordinates); A reads as zero past its rows.  With U = c A,
    the residual U w = 1 on those rows certifies the Newton inversion.  A
    start w for 1/U, such as the inverse of a nearby U, is kept up to its
    first row where U w = 1 fails."""
    U = np.zeros((n, ring.f), dtype=np.int64)
    U[: min(n, len(A))] = _scale(ring, A[:n], c)
    if w is None:
        w = _inv_root(ring, U, 1, n)
    else:
        bad = np.nonzero(_root_error(ring, U, w[:n], 1)[0].any(axis=1))[0]
        w = _inv_root(ring, U, 1, n, w[: int(bad[0]) if len(bad) else n])
    if _root_error(ring, U, w, 1)[0].any():
        raise ConsistencyFailure("Newton inversion failed to converge")
    return _scale(ring, w, c)


# ---------- module-level operations (the public contract) ----------


def compose(f, g):
    """Substitute g into f; requires v(g) >= 1."""
    f._check(g)
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
    if vf and g.leading_coeff().is_unit() and f.leading_coeff().is_unit():
        if result.valuation() != vf * vg:
            raise ConsistencyFailure(
                f"composite has valuation {result.valuation()}, expected {vf * vg}"
            )
    return result


def _compose_fast(f, g, cap):
    """The composite f(g) cut at cap, built on raw windows.  g's window is
    taken as exact; the caller's cap is the honest precision.

    Over F_q a long f is split by x -> x^p linearity (Bernstein 1998):
    F = sum_j t^j F_j(t^p) is p compositions of the p-th-rooted F_j at
    window ~N/p and free p-th powers.  The classes at one depth share their
    window, so a depth is one stack: at the least depth D with len(f) <=
    L p^D, L = max(4, p), row i of leaf r is f_(r + i p^D), p-th-rooted D
    times, and a leaf is read off the powers g^1..g^(L-1) kept on g
    (Brent-Kung's baby steps).  A short f, and every f over a Galois ring,
    is one leaf.  Each level up spreads its stack by a Frobenius, multiplies
    class j by g^j on its nonzero windows and sums the classes."""
    ring = f.ring
    p, mod = ring.p, ring.modulus
    vg = g.valuation()
    if cap == INF:  # f and g exact: the unit part is a polynomial in t
        n0 = (len(f.coeffs) - 1) * (g.end - 1) + 1
    else:
        n0 = cap - f.v * vg  # window needed for the unit-part composition
    if n0 <= 0:
        return TruncatedLaurentSeries.zero_to(ring, cap)
    L = max(4, p) if ring.is_field and len(f.coeffs) > max(4, p) else len(f.coeffs)
    windows = [n0]  # windows[d]: the rows each class at depth d needs
    while len(f.coeffs) > L * p ** (len(windows) - 1):
        windows.append(-(-windows[-1] // p))
    K, n = p ** (len(windows) - 1), windows[-1]
    gpow = _window_powers(g, n0, L)
    if K == 1:  # one leaf, f's window itself, scaled by ring elements
        C = coords = f.coeffs
    else:  # C[i, r] is row i of leaf r, scaled as (K, 1, 1) coordinate arrays
        C = np.zeros((L * K, ring.f), dtype=np.int64)
        C[: len(f.coeffs)] = f.coeffs
        for _ in windows[1:]:
            C = C @ ring.pth_root_matrix % p
        C = C.reshape(L, K, ring.f)
        coords = C.transpose(0, 2, 1)[..., None, None]
    V = np.zeros(C.shape[1:-1] + (n, ring.f), dtype=np.int64)  # (n, f) or (K, n, f)
    V[..., 0, :] = C[0]
    for i in np.flatnonzero(C.reshape(L, -1).any(axis=1)[1:]) + 1:
        power = gpow[i][:n]
        V[..., : len(power), :] += _scale(ring, power, coords[i])
    V = V.reshape(K, n, ring.f) % mod
    for n in windows[-2::-1]:
        K //= p
        live = V.reshape(p, K, -1).any(axis=2).tolist()
        W = _pow_rows(ring, V, p, n).reshape(p, K, n, ring.f)  # a Frobenius
        V = np.zeros((K, n, ring.f), dtype=np.int64)
        for j in range(p):
            rows = [r for r, x in enumerate(live[j]) if x]
            if len(rows) == K:  # every class: a view, and one window when K = 1
                rows = slice(None) if K > 1 else 0
            elif not rows:
                continue
            term = _mul_trunc(ring, W[j, rows], gpow[j], n) if j else W[j, rows]
            V[rows, : term.shape[-2]] += term
        V %= p
    unit = TruncatedLaurentSeries(ring, 0, V[0], INF if cap == INF else n0)
    if f.v > 0:
        unit = unit * _power(g, f.v, cap)
    elif f.v < 0:
        unit = unit * _pole_power(g, -f.v)
    return unit.truncate(cap)


def _window_powers(g, n, count):
    """[None, G, G^2, ..., G^(count-1)]: g's window from t^0 as a raw array
    and its powers, cut to at least n rows.

    They are kept on g, with their row count, for later compositions
    through it.  `_mul_trunc` cuts its operands to the rows it forms, so
    powers kept at more rows give the same products."""
    if g._pows is None or g._pows[0] < n:
        G = np.zeros((min(g.end, n), g.ring.f), dtype=np.int64)
        G[g.v :] = g.coeffs[: max(0, len(G) - g.v)]
        g._pows = (n, [None, G])
    n, pows = g._pows
    while len(pows) < count:
        pows.append(_mul_trunc(g.ring, pows[-1], pows[1], n))
    return pows


def _pole_power(g, k):
    """g^(-k) for k >= 1, kept on g: the nearest lower power kept times a
    power of g.inv(), cut at g.prec - (k + 1) v(g), which every route to
    g^(-k) reaches."""
    if g._poles is None:
        g._poles = {}
    out = g._poles.get(k)
    if out is None:
        below = max((j for j in g._poles if j < k), default=0)
        out = _power(g.inv(), k - below, g.prec - (k - below + 1) * g.v)
        if below:
            out = g._poles[below] * out
        g._poles[k] = out
    return out


def nth_root(f, r, leading_root=None):
    """r-th root with gcd(r, p) = 1, by inverse-root Newton iteration.

    With u = f / (c t^v) = 1 + O(t), w <- w + w (1 - u w^r) / r doubles the
    correct window of w = u^(-1/r) each round using products only; then
    u w^(r-1) = u^(1/r).  The result is certified by comparing its r-th
    power with f."""
    ring = f.ring
    p = ring.p
    if math.gcd(r, p) != 1:
        raise ValueError(f"gcd({r}, {p}) != 1: only roots of order prime to p")
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
        z = _mul_trunc(ring, u, _pow_rows(ring, _inv_root(ring, u, r, W), r - 1, W), W)
    out = TruncatedLaurentSeries(ring, v // r, _scale(ring, z, c0.coords), v // r + W)
    if not (out**r).agrees_with(f):
        raise ConsistencyFailure(f"{r}-th root does not reproduce the series")
    return out


def _find_root(c, r):
    """An r-th root of the unit c of a finite field, or None: the field is
    tiny, and a search of its units is the simplest certified route."""
    ring = c.ring
    if not ring.is_field:
        raise ValueError(f"leading roots are searched in a finite field, not {ring}")
    return next((x for x in nonzero_elements(ring) if x**r == c), None)
