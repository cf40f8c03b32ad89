"""Sparse multivariate integer polynomials with packed exponent keys.

A polynomial is a plain dict mapping a packed monomial key to a nonzero int
coefficient.  Exponents occupy ``SHIFT`` bits per variable inside a single
Python int, so multiplying two monomials is one integer addition.  That is
the whole trick: the universal Witt addition law for p=5 at length 4 has
~5*10^4 monomials and is still buildable in seconds this way.

Exponents must stay below 2**SHIFT; every use in this package is bounded by
a small multiple of p^4 < 10^4, far under the cap.
"""

from __future__ import annotations

import numpy as np

SHIFT = 20
MASK = (1 << SHIFT) - 1

Poly = dict


def var(v, e=1):
    """The monomial key of (variable number v)**e."""
    return e << (SHIFT * v)


def mono(*exps):
    """Pack an exponent tuple into a key."""
    key = 0
    for v, e in enumerate(exps):
        assert 0 <= e <= MASK
        key |= e << (SHIFT * v)
    return key


def unpack(key, nvars):
    """The exponent tuple of a key in variables 0..nvars-1; a key that uses
    a later variable raises ValueError."""
    if key >> (SHIFT * nvars):
        raise ValueError(f"monomial uses a variable beyond number {nvars - 1}")
    return tuple((key >> (SHIFT * v)) & MASK for v in range(nvars))


def const(c):
    return {0: c} if c else {}


def p_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p_neg(a):
    return {k: -c for k, c in a.items()}


def p_sub(a, b):
    return p_add(a, p_neg(b))


def p_scale(a, c):
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def p_mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def p_pow(a, e):
    assert e >= 0
    result = {0: 1}
    base = a
    while e:
        if e & 1:
            result = p_mul(result, base)
        e >>= 1
        if e:
            base = p_mul(base, base)
    return result


def p_divexact(a, d):
    """Divide every coefficient by the integer d, asserting exactness."""
    out = {}
    for k, c in a.items():
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError(f"non-exact division by {d}")
        out[k] = q
    return out


def p_mod(a, m):
    out = {}
    for k, c in a.items():
        c %= m
        if c:
            out[k] = c
    return out


def iso_weight(a, weights):
    """Return the common weighted degree of all monomials, or None if mixed."""
    w = None
    for key in a:
        total = 0
        k = key
        v = 0
        while k:
            e = k & MASK
            if e:
                total += e * weights[v]
            k >>= SHIFT
            v += 1
        if w is None:
            w = total
        elif w != total:
            return None
    return w


def degree_in(a, v):
    sh = SHIFT * v
    d = 0
    for key in a:
        d = max(d, (key >> sh) & MASK)
    return d


def coeff_of(a, v, e):
    """The coefficient of (variable v)**e, as a polynomial in the others."""
    sh = SHIFT * v
    strip = e << sh
    out = {}
    for key, c in a.items():
        if (key >> sh) & MASK == e:
            out[key - strip] = c
    return out


def involves(a, v):
    sh = SHIFT * v
    return any((key >> sh) & MASK for key in a)


def p_subst(a, subs):
    """Substitute polynomials for variables: subs maps var index -> Poly.

    Variables absent from subs are kept as themselves.
    """
    pow_cache = {v: {1: s} for v, s in subs.items()}

    def pw(v, e):
        cache = pow_cache[v]
        r = cache.get(e)
        if r is None:
            h = pw(v, e >> 1)
            r = p_mul(h, h)
            if e & 1:
                r = p_mul(r, cache[1])
            cache[e] = r
        return r

    total = {}
    for key, c in a.items():
        term = None
        kept = 0
        k = key
        v = 0
        while k:
            e = k & MASK
            if e:
                if v in subs:
                    piece = pw(v, e)
                    term = piece if term is None else p_mul(term, piece)
                else:
                    kept |= e << (SHIFT * v)
            k >>= SHIFT
            v += 1
        term = {kept: c} if term is None else p_mul(term, {kept: c})
        total = p_add(total, term)
    return total


def p_eval(a, vals, one):
    """Evaluate over any ring whose elements support + and * (and int*x).

    one is the ring's unit; the empty sum is 0 * one, which is an exact
    zero whenever one is exact."""
    pow_cache = {v: {} for v in vals}

    def pw(v, e):
        cache = pow_cache[v]
        r = cache.get(e)
        if r is None:
            if e == 1:
                r = vals[v]
            else:
                h = pw(v, e >> 1)
                r = h * h
                if e & 1:
                    r = r * vals[v]
            cache[e] = r
        return r

    total = 0 * one
    for key, c in a.items():
        term = None
        k = key
        v = 0
        while k:
            e = k & MASK
            if e:
                x = pw(v, e)
                term = x if term is None else term * x
            k >>= SHIFT
            v += 1
        if term is None:
            term = c * one
        else:
            term = c * term
        total = total + term
    return total


def p_eval_batch_mod(a, vals, mod):
    """Vectorized evaluation at many points of Z/mod at once.

    vals is an int64 array of shape (nvars, B); returns shape (B,).
    Intermediate products are reduced mod `mod` at every step, so int64
    never overflows as long as mod**2 < 2**63.
    """
    if mod * mod >= 2**63:
        raise ValueError(f"int64 evaluation would overflow: modulus {mod}")
    vals = np.asarray(vals, dtype=np.int64) % mod
    nv, B = vals.shape
    caches = [dict() for _ in range(nv)]

    def pw(v, e):
        cache = caches[v]
        r = cache.get(e)
        if r is None:
            if e == 1:
                r = vals[v]
            else:
                h = pw(v, e >> 1)
                r = (h * h) % mod
                if e & 1:
                    r = (r * vals[v]) % mod
            cache[e] = r
        return r

    out = np.zeros(B, dtype=np.int64)
    for key, c in a.items():
        term = np.full(B, c % mod, dtype=np.int64)
        k = key
        v = 0
        while k:
            e = k & MASK
            if e:
                term = (term * pw(v, e)) % mod
            k >>= SHIFT
            v += 1
        out = (out + term) % mod
    return out
