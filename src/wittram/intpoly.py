"""Sparse multivariate integer polynomials with packed exponent keys.

A polynomial is a plain dict mapping a packed monomial key to a nonzero int
coefficient.  Exponents occupy ``SHIFT`` bits per variable inside a single
Python int, so multiplying two monomials is one integer addition.  An
exponent must stay at most MASK = 2**SHIFT - 1: the products check this once
per call from their operands' degrees and raise ValueError, rather than let
an exponent carry into the next variable.

p_mul multiplies term by term and is the reference.  The Witt tables are
built with the sliced Kronecker product (p_mul_sliced, p_pow_sliced) on a
plane (u, v, lam): a term goes to the slice keyed by (its key without u and
v, e_u + lam*e_v) at slot e_v, which is exact for any polynomial, and each
slice is packed into one Python int of B bits per slot.  Slice pairs
multiply with one bigint multiply each, summed per output slice, and every
output slice is unpacked once.  The bit bound: no coefficient of a*b exceeds
|a|_1*|b|_1, the product of the sums of absolute coefficients, so B =
bitlen(|a|_1*|b|_1) + 2, rounded up to whole bytes, holds every slot as a
balanced digit within +-(2**(B-1) - 1); a power a**e stays packed from end
to end under the bound |a|_1**e.  When the rest of a monomial fixes its
weight on the plane, as the gradings of the Witt tables do, the slices are
few and long: S_2 for p=5 is 134 terms in 21 slices, and its fifth power
37,604 terms in 1,456.

Batched evaluation mod m (p_eval_batch_mod) is one graded bilinear block
kernel.  Each monomial splits into its even-variable part X and its
odd-variable part Y, the two operand slots of the Witt polynomials, and the
terms fall into blocks, the connected components of the X/Y incidence.  The
Witt polynomials are isobaric, so a block is a weight class and nearly dense:
S_3 for p=5 is 37,760 terms in 126 blocks.  A block is a coefficient matrix
C, and its value at the points is the column sum of (C @ MY) * MX over the
values MX, MY of its distinct X and Y monomials: one int64 matmul per block
shape.  It is exact: every entry is a residue below m and m**2 < 2**63, so
each product fits int64, and every sum of products runs in chunks of c terms
with c*(m-1)**2 + m-1 < 2**63, reduced after each chunk.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from itertools import compress
from operator import mul, or_

import numpy as np

from .coeff import binary_power

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
        if not 0 <= e <= MASK:
            raise ValueError(f"exponent {e} of variable {v} outside 0..{MASK}")
        key |= e << (SHIFT * v)
    return key


def unpack(key, nvars):
    """The exponent tuple of a key in variables 0..nvars-1; a key that uses
    a later variable raises ValueError."""
    if key >> (SHIFT * nvars):
        raise ValueError(f"monomial uses a variable beyond number {nvars - 1}")
    return tuple((key >> (SHIFT * v)) & MASK for v in range(nvars))


def p_add(a, b, scale=1):
    """a + scale*b."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p_neg(a):
    return {k: -c for k, c in a.items()}


def p_sub(a, b):
    return p_add(a, b, -1)


def p_scale(a, c):
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def _exponent_check(factors):
    """Raise ValueError if a product of terms could have an exponent past MASK.

    factors lists (poly, count): the product takes count terms of each poly.
    The check runs once per call, not per term: the OR of a poly's keys bounds
    each of its exponents below twice their maximum, and only a variable whose
    bounds could pass MASK has its exact degrees read term by term."""
    bounds = [(reduce(or_, a, 0), count) for a, count in factors]
    top = max(o.bit_length() for o, _ in bounds)
    for v in range(-(-top // SHIFT)):
        sh = SHIFT * v
        if sum(count * ((o >> sh) & MASK) for o, count in bounds) > MASK:
            deg = sum(count * degree_in(a, v) for a, count in factors)
            if deg > MASK:
                raise ValueError(f"exponent {deg} of variable {v} would pass {MASK}")


def _mul(a, b):
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


def p_mul(a, b):
    """The product a*b, term by term: the reference for p_mul_sliced."""
    _exponent_check([(a, 1), (b, 1)])
    return _mul(a, b)


def p_pow(a, e):
    """a**e by binary powering with the term-by-term product."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    _exponent_check([(a, e)])
    return binary_power(a, e, _mul) if e else {0: 1}


# ---------- the sliced Kronecker product ----------


def _plane_check(plane):
    u, v, lam = plane
    if u == v or min(u, v) < 0 or not 0 <= lam <= MASK:
        raise ValueError(
            f"slicing plane {plane}: needs two distinct variables and 0 <= lam <= {MASK}"
        )


def _slot_bits(bound):
    """Bits per slot that hold every integer of absolute value <= bound as a
    balanced digit: bitlen(bound) + 2, rounded up to whole bytes."""
    return -(-(bound.bit_length() + 2) // 8) * 8


def _slices(a, plane, B):
    """a cut into slices on plane = (u, v, lam), each packed into one int.

    A term goes to the slice keyed by (its key without u and v, e_u + lam*e_v)
    at slot e_v, so that key and slot give back e_u; slot j of a slice is
    worth 2**(B*j)."""
    u, v, lam = plane
    su, sv = SHIFT * u, SHIFT * v
    drop = ~((MASK << su) | (MASK << sv))
    slots = {}
    for key, c in a.items():
        ev = (key >> sv) & MASK
        s = ((key >> su) & MASK) + lam * ev
        slots.setdefault((key & drop, s), []).append(c << (B * ev))
    return {k: sum(terms) for k, terms in slots.items()}


def _unpack(x, B):
    """The base-2**B digits of x, lowest first, each in +-(2**(B-1) - 1).

    B is a multiple of 8, and x must have such digits.  Adding 2**(B-1) to
    every digit makes them all positive with no carry between slots, so they
    are read off the bytes of the sum, B/8 at a time."""
    n, m = x.bit_length() // B + 1, B // 8
    half = 1 << (B - 1)
    buf = (x + int.from_bytes((bytes(m - 1) + b"\x80") * n, "little")).to_bytes(n * m, "little")
    return [int.from_bytes(buf[i : i + m], "little") - half for i in range(0, n * m, m)]


def _unslice(slices, plane, B):
    """The polynomial of packed slices: slot j of slice (rest, s) is the
    coefficient of rest * u**(s - lam*j) * v**j, whose key steps by
    2**(SHIFT*v) - lam * 2**(SHIFT*u) from slot to slot."""
    u, v, lam = plane
    su = SHIFT * u
    step = (1 << (SHIFT * v)) - (lam << su)
    out = {}
    for (rest, s), x in slices.items():
        digits = _unpack(x, B)
        start = rest + (s << su)
        keys = range(start, start + len(digits) * step, step)
        out.update(compress(zip(keys, digits), digits))
    return out


def _slice_mul(a, b):
    """The product of two sliced polynomials: one bigint multiply per slice
    pair, summed into the output slice."""
    out = {}
    get = out.get
    for (ra, sa), xa in a.items():
        for (rb, sb), xb in b.items():
            k = (ra + rb, sa + sb)
            out[k] = get(k, 0) + xa * xb
    return out


def _slice_square(a):
    """_slice_mul(a, a), with the product of two distinct slices formed once."""
    out = {}
    get = out.get
    items = list(a.items())
    for i, ((ra, sa), xa) in enumerate(items):
        k = (ra + ra, sa + sa)
        out[k] = get(k, 0) + xa * xa
        for (rb, sb), xb in items[i + 1 :]:
            k = (ra + rb, sa + sb)
            out[k] = get(k, 0) + ((xa * xb) << 1)
    return out


def _norm1(a):
    return sum(map(abs, a.values()))


def p_mul_sliced(a, b, plane):
    """The product a*b by the sliced Kronecker product on plane = (u, v, lam).

    Equal to p_mul(a, b) for any a and b.  No coefficient of the product
    exceeds |a|_1*|b|_1, so _slot_bits of it holds each as one digit."""
    _plane_check(plane)
    _exponent_check([(a, 1), (b, 1)])
    B = _slot_bits(_norm1(a) * _norm1(b))
    return _unslice(_slice_mul(_slices(a, plane, B), _slices(b, plane, B)), plane, B)


def p_pow_sliced(a, e, plane):
    """a**e by the sliced product on plane = (u, v, lam); equal to p_pow(a, e).

    The square a**2 forms each product of two distinct slices once, and
    every further power is one multiply by a, e - 1 steps in all.  Each
    step pairs the growing power with the few slices of a, where binary
    powering would pair two large powers: S_1**49 for p=7 takes 0.8 s this
    way and 10 s that way.  The Witt tables raise to at most p**(n-1).
    The powers stay packed from the one slicing of a to the one unpacking
    of the result: no coefficient of any a**k with k <= e exceeds |a|_1**e,
    so _slot_bits of it serves them all."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    _plane_check(plane)
    _exponent_check([(a, e)])
    if e == 0:
        return {0: 1}
    B = _slot_bits(_norm1(a) ** e)
    base = _slices(a, plane, B)
    power = _slice_square(base) if e > 1 else base
    for _ in range(e - 2):
        power = _slice_mul(power, base)
    return _unslice(power, plane, B)


def p_divexact(a, d):
    """Divide every coefficient by the integer d; a remainder raises
    ArithmeticError."""
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


def involves(a, v):
    sh = SHIFT * v
    return any((key >> sh) & MASK for key in a)


def _power_table(vals, product):
    """pw(v, e) = vals[v]^e, e >= 1, memoized: pw(v, e >> 1) squared, times
    vals[v] for an odd e, so the powers of one variable share their halves.
    A variable with no value raises ValueError."""
    cache = {}

    def pw(v, e):
        r = cache.get((v, e))
        if r is None:
            if v not in vals:
                raise ValueError(f"no value for variable {v}")
            if e == 1:
                r = vals[v]
            else:
                h = pw(v, e >> 1)
                r = product(h, h)
                if e & 1:
                    r = product(r, vals[v])
            cache[v, e] = r
        return r

    return pw


def p_subst(a, subs):
    """Substitute polynomials for variables: subs maps var index -> Poly.

    Variables absent from subs are kept as themselves.
    """
    pw = _power_table(subs, p_mul)
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

    vals is a mapping (a dict, say) from variable number to value, with an
    entry for every variable a uses; otherwise ValueError.  one is the
    ring's unit; the empty sum is 0 * one, which is an exact zero whenever
    one is exact."""
    if not isinstance(vals, Mapping):
        raise ValueError(f"vals must map variable numbers to values, not a {type(vals).__name__}")
    pw = _power_table(vals, mul)
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


# ---------- batched evaluation over Z/mod: the graded bilinear block kernel ----------

# points per column block: bounds the (monomials x points) arrays of one pass
_COLS = 128


def _components(u, v, n):
    """Root of every node of the graph on nodes 0..n-1 with edges u[i]--v[i].

    Each round hooks every root onto the smallest root it touches and then
    points every node straight at its root; parent[x] <= x keeps it a forest.
    """
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return parent
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _trie(exps):
    """A plan to evaluate the distinct monomials whose exponent rows are exps:
    every prefix is formed once, as its parent prefix times one power, with
    the variables taking the fewest distinct exponents first.

    Returns (steps, rows): per level, (j, parent, e), where prefix i of the
    level is prefix parent[i] of the level before times x_j**e[i]; and the
    prefix of every monomial in the last level.  When no variable occurs,
    the monomial 1 is a level of one prefix with exponent 0."""
    cols = [j for j in range(exps.shape[1]) if exps[:, j].any()]
    cols.sort(key=lambda j: len(np.unique(exps[:, j])))
    steps, rows = [], np.zeros(len(exps), dtype=np.intp)
    for j in cols:
        prefixes, rows = np.unique(rows * (MASK + 1) + exps[:, j], return_inverse=True)
        steps.append((j, prefixes >> SHIFT, prefixes & MASK))
    return steps or [(0, np.zeros(1, np.intp), np.zeros(1, np.intp))], rows


def _block_plan(a, nv, mod):
    """Split every term into its even-variable part (X) and its odd-variable
    part (Y), and group the terms into blocks, the connected components of
    the X-part/Y-part incidence; blocks of one shape (r, k) are stacked.

    Returns (xsteps, ysteps, groups): the _trie steps of the distinct X and
    Y monomials, over variables 0, 2, 4, ... and 1, 3, 5, ...; and per
    block shape the triple (xrows, yrows, C): the last trie level's rows of
    each block's X and Y monomials, shapes (nb, r) and (nb, k), and its
    coefficients mod `mod`, shape (nb, r, k)."""
    if max(a) >> (SHIFT * nv):
        raise ValueError(f"monomial uses a variable beyond number {nv - 1}")
    even = sum(MASK << (SHIFT * v) for v in range(0, nv, 2))

    def split(part, first):
        # the distinct parts and each term's part number, then the parts' trie
        parts = list(map(part.__and__, a))
        keys = {k: i for i, k in enumerate(dict.fromkeys(parts))}
        vs = range(first, nv, 2)
        exps = np.zeros((len(keys), len(vs)), dtype=np.intp)
        for j, v in enumerate(vs):
            exps[:, j] = np.fromiter(((k >> (SHIFT * v)) & MASK for k in keys), np.intp)
        steps, rows = _trie(exps)
        steps = [(first + 2 * j, parent, e) for j, parent, e in steps]
        return np.fromiter(map(keys.__getitem__, parts), np.intp, len(a)), steps, rows

    xi, xsteps, xrow = split(even, 0)
    yi, ysteps, yrow = split(~even, 1)
    nx, ny = len(xrow), len(yrow)

    # blocks, numbered in order of their shape (rows, cols)
    _, block = np.unique(_components(xi, yi + nx, nx + ny), return_inverse=True)
    rows, cols = np.bincount(block[:nx]), np.bincount(block[nx:])
    order = np.lexsort((cols, rows))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    rows, cols = rows[order], cols[order]
    bx, by = rank[block[:nx]], rank[block[nx:]]

    def lay_out(b, sizes, trie_rows):
        # the monomials block after block, and each one's place in its block
        order = np.argsort(b, kind="stable")
        start = np.cumsum(sizes) - sizes
        place = np.empty_like(order)
        place[order] = np.arange(len(b)) - start[b[order]]
        return trie_rows[order], start, place

    xflat, xstart, lx = lay_out(bx, rows, xrow)
    yflat, ystart, ly = lay_out(by, cols, yrow)
    bt = bx[xi]
    sizes = rows * cols
    cstart = np.cumsum(sizes) - sizes
    cflat = np.zeros(sizes.sum(), dtype=np.int64)
    cflat[cstart[bt] + lx[xi] * cols[bt] + ly[yi]] = np.fromiter(
        map(mod.__rmod__, a.values()), np.int64, len(a)
    )
    edges = [0, *(np.flatnonzero(np.diff(rows) | np.diff(cols)) + 1).tolist(), len(rows)]
    groups = []
    for b0, b1 in zip(edges, edges[1:]):
        nb, r, k = b1 - b0, int(rows[b0]), int(cols[b0])
        x0, y0, c0 = xstart[b0], ystart[b0], cstart[b0]
        groups.append(
            (
                xflat[x0 : x0 + nb * r].reshape(nb, r),
                yflat[y0 : y0 + nb * k].reshape(nb, k),
                cflat[c0 : c0 + nb * r * k].reshape(nb, r, k),
            )
        )
    return xsteps, ysteps, groups


def _rem(x, mod):
    """x %= mod in place.  numpy divides by a scalar through a precomputed
    multiplier, which is about twice as fast as its remainder."""
    q = x // mod
    q *= mod
    x -= q


def _powers(x, e, mod):
    """The rows x**e[i] mod `mod`, by binary powering over all of e at once."""
    out = np.ones((len(e), len(x)), dtype=np.int64)
    e = e.copy()
    while e.any():
        odd = np.flatnonzero(e & 1)
        t = out[odd] * x
        _rem(t, mod)
        out[odd] = t
        e >>= 1
        x = x * x
        _rem(x, mod)
    return out


def p_eval_batch_mod(a, vals, mod):
    """Vectorized evaluation at many points of Z/mod at once.

    vals is an int64 array of shape (nvars, B), one column per point;
    returns shape (B,).

    The kernel is bilinear and graded.  Each monomial is (X-part)(Y-part),
    its even and its odd variables, and the terms fall into blocks, the
    connected components of the X/Y incidence; for the Witt polynomials
    these are the weight classes, and they are nearly dense.  Per block, with
    C its coefficient matrix and MX, MY the values of its distinct X and Y
    monomials at the points, the block's value is the column sum of
    (C @ MY) * MX.  Blocks of one shape run as one stacked int64 matmul, and
    the points run in column blocks of _COLS.

    Exactness: every entry is reduced into 0..mod-1, so a product of two is
    at most (mod-1)**2 < 2**63 while mod**2 < 2**63, which the guard below
    demands.  Each sum of products (the matmul's inner dimension, and the
    sum over a block's X monomials) adds `chunk` of them to an accumulator
    below mod, with chunk*(mod-1)**2 + mod-1 < 2**63, and reduces after every
    chunk; at the edge modulus 3037000499 the chunk is 1.  No float64 or BLAS
    is used.
    """
    if mod * mod >= 2**63:
        raise ValueError(f"int64 evaluation would overflow: modulus {mod}")
    vals = np.asarray(vals, dtype=np.int64) % mod
    nv, B = vals.shape
    out = np.zeros(B, dtype=np.int64)
    if not a:
        return out
    xsteps, ysteps, groups = _block_plan(a, nv, mod)
    chunk = (2**63 - mod) // max((mod - 1) ** 2, 1)

    def levels(steps):
        # per level: parents, the values of its variable, its distinct
        # exponents, and the exponent of each prefix among them
        out = []
        for v, parent, e in steps:
            used, where = np.unique(e, return_inverse=True)
            # the level of the monomial 1 has exponent 0 and no variable
            x = vals[v] if used[-1] else np.ones(B, dtype=np.int64)
            out.append((parent, x, used, where))
        return out

    def prefixes(levels, c0, c1):
        m = np.ones((1, c1 - c0), dtype=np.int64)
        for parent, x, used, where in levels:
            m = m[parent]
            m *= _powers(x[c0:c1], used, mod)[where]
            _rem(m, mod)
        return m

    # the last level of each side is formed block by block, never whole
    xlevels, ylevels = levels(xsteps), levels(ysteps)
    (xpar, xval, xused, xwhere), (ypar, yval, yused, ywhere) = xlevels.pop(), ylevels.pop()
    groups = [(xpar[xr], xwhere[xr], ypar[yr], ywhere[yr], C) for xr, yr, C in groups]
    for c0 in range(0, B, _COLS):
        c1 = min(c0 + _COLS, B)
        PX, PY = prefixes(xlevels, c0, c1), prefixes(ylevels, c0, c1)
        xtab, ytab = _powers(xval[c0:c1], xused, mod), _powers(yval[c0:c1], yused, mod)
        total = np.zeros(c1 - c0, dtype=np.int64)
        for xp, xw, yp, yw, C in groups:
            MY = PY[yp]
            MY *= ytab[yw]
            _rem(MY, mod)
            Q = np.zeros(C.shape[:2] + (c1 - c0,), dtype=np.int64)
            for k0 in range(0, C.shape[2], chunk):
                Q += C[:, :, k0 : k0 + chunk] @ MY[:, k0 : k0 + chunk]
                _rem(Q, mod)
            Q *= PX[xp]
            _rem(Q, mod)
            Q = Q.reshape(-1, c1 - c0)
            MX = xtab[xw.reshape(-1)]
            for r0 in range(0, len(Q), chunk):
                total += np.einsum("ij,ij->j", Q[r0 : r0 + chunk], MX[r0 : r0 + chunk])
                _rem(total, mod)
        out[c0:c1] = total
    return out
