"""Local symbols at infinity as residue vectors over characteristic-zero lifts.

The symbol (u, alpha) of a vector of Laurent series and a unit power series
is pinned down by its ghost components: the j-th one is the residue of
Phi_j(u) dalpha/alpha.  In characteristic p the ghost map is singular, so
the computation runs upstairs: lift every coefficient to the unramified
extension of Z/p^m, take residues there, invert the ghost map with exact
p-divisions, and only then reduce mod p.  With m = 2n + 2 the reduction is
independent of the chosen lifts, which the tests exercise by lifting twice.

The pairing runs on raw (rows, f) windows: the ghost components are cut
once per datum to their rows at exponents -D..-1, D their largest pole
order.  With v' = v(alpha'), only rows v'..D-1 of dlog(alpha) meet a pole,
so alpha is inverted to D - v' rows (none when v' >= D) and each residue is
one row of a ghost window convolved with those rows.  U^(D+1) thus pairs to
zero, and vanishing above a bound M < D is certified by the (q - 1)(D - M)
generators 1 + c t^k, M < k <= D (modulus_vanishing_test).
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .coeff import finite_field, lift_ring, reduce_mod_p
from .errors import (
    GhostInversionFailure,
    InsufficientPrecision,
    VanishingFailure,
)
from .series import TruncatedLaurentSeries, _conv, _inv_rows, _mul_trunc
from .witt import WittVector, ghost_eval

DEFAULT_GUARD = 2


def default_lift_precision(n):
    """Lift depth 2n + 2: inversion burns up to n digits, reduction needs
    one, and the rest is margin the consistency checks can see."""
    return 2 * n + DEFAULT_GUARD


def pole_depth(u):
    """Largest pole order appearing in any ghost component of u.

    Only exponents down to -pole_depth(u) of the ghost series pair with the
    non-negative exponents of dlog(alpha) when extracting residues, so this
    bounds the coefficient window every symbol computation needs."""
    p = u.ring.p
    depth = 0
    for j in range(u.n):
        for i in range(j + 1):
            if not u[i].is_exact_zero() and u[i].valuation() < 0:
                depth = max(depth, p ** (j - i) * -u[i].valuation())
    return depth


class LocalSymbolInput:
    """A symbol datum: series vector u, unit series alpha, lift depth m.

    alpha is truncated to the window pole_depth(u) + 2, which loses nothing:
    the residue reads dlog(alpha) up to exponent pole_depth(u) - 1, and those
    rows depend only on alpha below exponent pole_depth(u) + 1."""

    def __init__(self, u, alpha, m=None):
        if not isinstance(u, WittVector):
            u = WittVector(tuple(u))
        for entry in u:
            if not isinstance(entry, TruncatedLaurentSeries):
                raise ValueError("u must consist of Laurent series")
            if entry.ring != alpha.ring:
                raise ValueError("u and alpha must share a coefficient field")
        if alpha.ring.m != 1:
            raise ValueError("inputs live over a finite field, not a lift ring")
        if alpha.is_exact_zero() or alpha.valuation() != 0:
            raise ValueError("alpha must be a unit power series")
        self.u = u
        self.alpha = alpha.truncate(pole_depth(u) + DEFAULT_GUARD)
        self.n = u.n
        self.m = default_lift_precision(self.n) if m is None else m
        if self.m < self.n + 1:
            raise ValueError(f"lift depth {self.m} cannot survive {self.n} digits")

    @property
    def field(self):
        return self.alpha.ring


def canonical_lift(s, lift):
    """Reinterpret a series coefficient-wise in the lift ring.

    Field coefficients are stored as digit tuples mod p, which are already
    the canonical representatives, so the array transfers unchanged."""
    return TruncatedLaurentSeries(lift, s.v, s.coeffs.copy(), s.prec)


def ghost_series(u_lifts, j):
    """Phi_j of the lifted vector (witt.ghost_eval); bench/tracer.py times
    the ghost components of a symbol under this name."""
    return ghost_eval(WittVector(u_lifts), j)


def _exact_p_division(x, k, lift):
    """Divide a lift-ring element by p^k, loudly checking divisibility."""
    q = lift.p**k
    coords = []
    for c in x.coords:
        if c % q:
            raise GhostInversionFailure(
                f"residue not divisible by p^{k}; lift depth too small or bug"
            )
        coords.append(c // q)
    return lift.from_coords(tuple(coords))


def _pairing(u_lifts, field):
    """The symbol map for fixed lifts of u, on raw windows.

    Returns (D, pair): D is the largest pole order of u's ghost components,
    and pair maps rows 0..D of a lifted unit alpha, as a (D + 1, f) window,
    to (symbol, certificate).  The ghost components do not depend on alpha,
    so they are formed and cut to their rows at exponents -D..-1 once per
    datum.  The certificate carries the raw residues and the ghost-inverted
    digits in the lift ring so callers can audit the inversion at full depth."""
    lift = u_lifts[0].ring
    p, mod = lift.p, lift.modulus
    ghosts = [ghost_series(u_lifts, j) for j in range(len(u_lifts))]
    depth = max([0] + [-g.val_lower_bound() for g in ghosts])
    known = min(g.prec for g in ghosts) + depth  # rows of the windows known
    windows = []
    for g in ghosts:
        win = np.zeros((depth, lift.f), dtype=np.int64)
        lo, hi = max(g.v, -depth), min(g.end, 0)
        if lo < hi:
            win[lo + depth : hi + depth] = g.coeffs[lo - g.v : hi - g.v]
        windows.append(win)
    if finite_field(p, lift.f) != field:
        raise ValueError("lift ring does not reduce onto the given field")
    one = (1,) + (0,) * (lift.f - 1)
    zero = WittVector((field.zero(),) * len(ghosts))

    def pair(A):
        # row k of the slope is k a_k, the coefficient of t^(k-1) in alpha';
        # with v' = v(alpha'), only rows v'..D-1 of dlog(alpha) meet a pole
        slope = A * np.arange(depth + 1)[:, None] % mod
        nz = np.flatnonzero(slope.any(axis=1))
        n = depth + 1 - int(nz[0]) if len(nz) else 0
        if n > known:
            raise InsufficientPrecision("ghost components unknown where the residue reads them")
        if n == 0:  # dlog(alpha) = O(t^D): every residue vanishes by valuation
            zeros = [lift.zero()] * len(windows)
            return zero, {"residues": zeros, "digits": list(zeros), "lift": lift}
        lead = tuple(int(c) for c in A[0])
        c = one if lead == one else lift.cinv(lead)
        w = _inv_rows(lift, A, c, n)
        dlog = _mul_trunc(lift, slope[depth + 1 - n :], w, n)
        residues = [lift.from_coords(_conv(lift, win[:n], dlog)[n - 1]) for win in windows]
        digits = []
        for j, acc in enumerate(residues):
            for i in range(j):
                acc = acc - (p**i) * digits[i] ** (p ** (j - i))
            digits.append(_exact_p_division(acc, j, lift))
        symbol = WittVector(tuple(reduce_mod_p(w) for w in digits))
        return symbol, {"residues": residues, "digits": digits, "lift": lift}

    return depth, pair


def symbol_from_lifts(u_lifts, alpha_lift, field):
    """Residue vector from explicit lifts; returns (symbol, certificate)."""
    depth, pair = _pairing(u_lifts, field)
    if alpha_lift.ring != u_lifts[0].ring or alpha_lift.valuation() != 0:
        raise ValueError("alpha must be a unit power series over the lift ring of u")
    if alpha_lift.prec <= depth:
        raise InsufficientPrecision(f"alpha is O(t^{alpha_lift.prec}); the residues read t^{depth}")
    return pair(alpha_lift.truncate(depth + 1).coeffs)


def residue_vector(inp, with_certificate=False):
    """The local symbol of a datum, through the canonical coefficient lift."""
    field = inp.field
    lift = lift_ring(field.p, inp.m, field.f)
    u_lifts = [canonical_lift(s, lift) for s in inp.u]
    alpha_lift = canonical_lift(inp.alpha, lift)
    symbol, cert = symbol_from_lifts(u_lifts, alpha_lift, field)
    return (symbol, cert) if with_certificate else symbol


def nonzero_elements(field):
    """All q - 1 nonzero elements, in a fixed coordinate order."""
    out = []
    for coords in itertools.product(range(field.p), repeat=field.f):
        if any(coords):
            out.append(field.from_coords(coords))
    return out


def modulus_vanishing_test(u, bound, trials=50, rng=None):
    """Certify symbol vanishing above a conductor bound, and probe below it.

    Every alpha with 1 - alpha vanishing to order at least bound + 1 must
    give the zero symbol.  The (q - 1) max(0, D - bound) generator symbols
    prove it (see the module docstring), and the seeded trials cross-check
    it; a nonzero symbol in either raises VanishingFailure.  At order
    exactly bound the function searches for a nonzero witness and reports
    the outcome without asserting existence, since sharpness is a theorem
    only for the generic data the closed formula covers.  u is validated,
    lifted and cut once; each alpha is 1 + O(t), drawn from rng straight
    into its window of canonical lifts."""
    if trials < 1 or bound < 1:
        raise ValueError(f"the probe needs trials >= 1 and bound >= 1, not {trials}, {bound}")
    if not isinstance(u, WittVector):
        u = WittVector(tuple(u))
    field = u.ring
    if rng is None:
        rng = random.Random(0)
    one = TruncatedLaurentSeries.monomial(field, 0, 1)
    lift = lift_ring(field.p, LocalSymbolInput(u, one).m, field.f)
    depth, pair = _pairing([canonical_lift(s, lift) for s in u], field)
    window = pole_depth(u) + bound + 4

    def one_plus(terms):
        # rows 0..D of 1 + sum c t^e; rows past D never reach a residue
        A = np.zeros((depth + 1, field.f), dtype=np.int64)
        A[0, 0] = 1
        for e, coords in terms:
            if e <= depth:
                A[e] = coords
        return A

    units = nonzero_elements(field)
    for k in range(bound + 1, depth + 1):
        for c in units:
            if not pair(one_plus([(k, c.coords)]))[0].is_zero():
                raise VanishingFailure(f"nonzero symbol for 1 + ({c}) t^{k} above {bound}")

    for _ in range(trials):
        tail = [
            (bound + 1 + k, [rng.randrange(field.p) for _ in range(field.f)])
            for k in range(1 + rng.randrange(max(1, window - bound - 1)))
        ]
        if not pair(one_plus(tail))[0].is_zero():
            raise VanishingFailure(
                f"nonzero symbol for 1 - alpha of order >= {bound + 1}"
            )

    # Single-term candidates suffice: 1 + c t^M + c2 t^(M+1) is (1 + c t^M)
    # times a unit of U^(M+1), which pairs to zero (certified above), so
    # such a pair has the symbol of its first term.
    witness = None
    for tried, c in enumerate(units, start=1):
        symbol = pair(one_plus([(bound, c.coords)]))[0]
        if not symbol.is_zero():
            alpha = one + TruncatedLaurentSeries.from_terms(field, [(bound, c)], prec=window)
            witness = (alpha, symbol)
            break
    return {
        "p": field.p,
        "n": u.n,
        "bound": bound,
        "trials": trials,
        "certificate": {"pole_depth": depth, "generators": len(units) * max(0, depth - bound)},
        "witness_found": witness is not None,
        "witness": witness,
        "witness_attempts": tried,
    }
