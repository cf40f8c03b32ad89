"""Sparse multivariate integer polynomials with packed exponent keys.

A polynomial is a plain dict mapping a packed monomial key to a nonzero int
coefficient.  Exponents occupy ``SHIFT`` bits per variable inside a single
Python int, so multiplying two monomials is one integer addition.  An
exponent must stay at most MASK = 2**SHIFT - 1: the products check this once
per call from their operands' degrees and raise ValueError, rather than let
an exponent carry into the next variable.

p_mul and p_pow multiply term by term and are the reference.  The Witt
tables are built with the sliced Kronecker product, p_pow_sum_sliced, on a
plane (u, v, lam): a term goes to the slice of (its key without u and v,
e_u + lam*e_v) at slot e_v, which is exact for any polynomial.  Each slice
is packed into one Python int of B bits per slot and keyed by one int, so
the key of a product of two slices is the sum of theirs, and slice pairs
multiply with one bigint multiply each, summed per output slice.  The bit
bound: no coefficient of a*b exceeds |a|_1*|b|_1, the product of the sums of
absolute coefficients, so B = bitlen(|a|_1*|b|_1) + 2, rounded up to whole
bytes, holds every slot as a balanced digit within +-(2**(B-1) - 1).
p_pow_sum_sliced forms a sum of c*a**e, as the numerator of a Witt component
is one, packed from end to end under the bound sum |c|*|a|_1**e, and
unpacks it once: numpy reads every slot of every slice off one buffer in
64-bit limbs and divides each exactly, from the top limb down.  When the
rest of a monomial fixes its weight on the plane, as the gradings of the
Witt tables do, the slices are few and long: S_2 for p=5 is 134 terms in 21
slices, and its fifth power 37,604 terms in 1,456.  On a plane (X_i, Y_i, 1)
the powers of a polynomial that the X/Y swap fixes, as every S_l is, are
formed half: each multiply by the polynomial forms only the slices whose
rest has X-exponents minus Y-exponents >= 0, and the others are theirs with
the slots reversed.

Batched evaluation mod m (p_eval_batch_mod) is one graded bilinear block
kernel over a family of polynomials, the components of a Witt table.  Each
monomial splits into its even-variable part X and its odd-variable part Y,
the two operand slots of the Witt polynomials, and the terms fall into
blocks, the connected components of the incidence of (component, X part)
and (component, Y part), so that no block mixes two components.  The Witt
polynomials are isobaric, so a block is a weight class and nearly dense:
S_3 for p=5 is 37,760 terms in 126 blocks.  A block is a coefficient matrix
C, and its value at the points is the column sum of (C @ MY) * MX over the
values MX, MY of its distinct X and Y monomials.  The matmul runs over a
block's longer side, and the blocks of one shorter side whose longer sides
lie within 1.5 times the smallest of them are padded with zero coefficients
to one shape and run as one stacked matmul.  Everything that does not depend
on the points is made first, as one plan for the family (_batch_plan), and
the points run in tiles of 2**15 elements of the plan's widest array, at
least 128 points; the powers of the variables and the tries of X and Y
monomials are formed once per tile for every component.  It is exact by its
bounds: m**2 < 2**63, the powers and the tries' prefixes are residues below
m, and every other intermediate carries an integer bound and is reduced mod
m only when the next product or sum could leave its dtype's exact range,
2**63 - 1 in int64 and below 2**53 in float64, where the matmul runs, on
BLAS, when k*(m-1)**2 < 2**53 for a matmul over k monomials.  Evaluating the
Witt tables mod p**(n+2), no block is reduced at (2, 6) and (3, 4), and each
group once per tile at (5, 4), where t = 5**6 - 1 leaves room for four
factors of t in int64.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import reduce
from itertools import chain, compress, islice, repeat
from operator import add, itemgetter, lshift, mul, or_
from types import SimpleNamespace

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


# a pair of variables spans 2*SHIFT = 40 bits, five whole bytes
_PAIR_BYTES = 2 * SHIFT // 8


def exponent_rows(keys, nvars):
    """The exponent tuples of keys in variables 0..nvars-1, as the rows of
    an int64 array; a key that uses a later variable raises ValueError.
    Each key is written in five bytes per pair of variables, and numpy reads
    every pair off its bytes at once."""
    if keys and max(keys) >> (SHIFT * nvars):
        raise ValueError(f"monomial uses a variable beyond number {nvars - 1}")
    pairs = -(-nvars // 2)
    raw = b"".join([k.to_bytes(_PAIR_BYTES * pairs, "little") for k in keys])
    wide = np.zeros((len(keys), pairs, 8), dtype=np.uint8)
    wide[:, :, :_PAIR_BYTES] = np.frombuffer(raw, np.uint8).reshape(len(keys), pairs, _PAIR_BYTES)
    wide = wide.view("<i8")[:, :, 0]
    rows = np.empty((len(keys), pairs, 2), dtype=np.int64)
    np.bitwise_and(wide, MASK, out=rows[:, :, 0])
    np.right_shift(wide, SHIFT, out=rows[:, :, 1])
    return rows.reshape(len(keys), 2 * pairs)[:, :nvars]


# keys per exponent_rows call of row_blocks: its scratch memory, about 200
# bytes a key for eight variables with the caller's own arrays, stays under
# 1 MB however large the polynomial
_ROW_KEYS = 2**12


def row_blocks(a, nvars=None):
    """The exponents of a polynomial (or of any collection of keys),
    _ROW_KEYS keys at a time: yields (keys, exponent_rows(keys, nvars)), keys a list
    in a's order.  Without nvars the rows run up to the last variable that
    a key uses, which the largest key shows."""
    if nvars is None:
        nvars = -(-max(a, default=0).bit_length() // SHIFT)
    keys = iter(a)
    while block := list(islice(keys, _ROW_KEYS)):
        yield block, exponent_rows(block, nvars)


def degrees(a):
    """The degree of a in each variable up to the last it uses, variable 0
    first, in one pass over its keys."""
    deg = None
    for _keys, rows in row_blocks(a):
        top = rows.max(axis=0)
        deg = top if deg is None else np.maximum(deg, top)
    return [] if deg is None else deg.tolist()


def format_rows(rows, names, coeffs):
    """The human form of a polynomial given as exponent rows: term i has the
    exponents rows[i] of the variables `names` and the printed coefficient
    coeffs[i], a string.  The terms run by descending exponent row, sorted
    by numpy, and each nonzero exponent is named once; a coefficient "1" is
    left out and "-1" is written as a sign, as strings, so a field element
    that equals -1 prints as itself."""
    if not len(rows):
        return "0"
    order = np.lexsort(rows.T[::-1])[::-1]
    parts = []
    for start in range(0, len(order), _ROW_KEYS):  # the factors of a block at a time
        block = order[start : start + _ROW_KEYS]
        sub = rows[block]
        at, col = sub.nonzero()
        exps = sub[at, col].tolist()
        factors = iter([names[v] if e == 1 else f"{names[v]}^{e}" for v, e in zip(col.tolist(), exps)])
        for i, n in zip(block.tolist(), np.count_nonzero(sub, axis=1).tolist()):
            body, coeff = "*".join(islice(factors, n)), coeffs[i]
            if n and coeff in ("1", "-1"):
                parts.append(coeff[:-1] + body)  # the coefficient's sign alone
            else:
                parts.append(f"{coeff}*{body}" if n else coeff)
    return " + ".join(parts).replace("+ -", "- ")


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
    each of its exponents below twice their maximum, and only when a
    variable's bounds could pass MASK are the exact degrees read, once per
    poly."""
    bounds = [(reduce(or_, a, 0), count) for a, count in factors]
    top = max(o.bit_length() for o, _ in bounds)
    exact = None
    for v in range(-(-top // SHIFT)):
        sh = SHIFT * v
        if sum(count * ((o >> sh) & MASK) for o, count in bounds) > MASK:
            if exact is None:
                exact = [(degrees(a), count) for a, count in factors]
            deg = sum(count * d[v] for d, count in exact if v < len(d))
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
                out.pop(k, None)
    return out


def p_mul(a, b):
    """The product a*b, term by term."""
    _exponent_check([(a, 1), (b, 1)])
    return _mul(a, b)


def p_pow(a, e):
    """a**e by binary powering with the term-by-term product: the reference
    for p_pow_sum_sliced."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    _exponent_check([(a, e)])
    return binary_power(a, e, _mul) if e else {0: 1}


# ---------- the sliced Kronecker product ----------

# a slice is keyed by one int, rest * 2**_SLICE + s: s = e_u + lam*e_v is at
# most MASK*(1 + lam) < 2**_SLICE for any lam <= MASK, so the key of a
# product of two slices is the sum of their keys
_SLICE = 2 * SHIFT
_S_MASK = (1 << _SLICE) - 1


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

    A term goes to the slice of (its key without u and v, e_u + lam*e_v) at
    slot e_v, so that key and slot give back e_u; slot j of a slice is worth
    2**(B*j)."""
    u, v, lam = plane
    su, sv = SHIFT * u, SHIFT * v
    drop = ~((MASK << su) | (MASK << sv))
    slots = {}
    for key, c in a.items():
        ev = (key >> sv) & MASK
        s = ((key >> su) & MASK) + lam * ev
        slots.setdefault(((key & drop) << _SLICE) + s, []).append(c << (B * ev))
    return {k: sum(terms) for k, terms in slots.items()}


def _end_to_end(xs, counts, m):
    """Every x in xs as counts[i] slots of m bytes, laid end to end in one
    buffer, with 2**(8*m - 1) added to every slot, which makes balanced
    digits positive with no carry between slots: (buffer, offset), offset[n]
    the int that adds it to n slots."""
    offset = {n: int.from_bytes((bytes(m - 1) + b"\x80") * n, "little") for n in set(counts)}
    buf = b"".join([(x + offset[n]).to_bytes(n * m, "little") for x, n in zip(xs, counts)])
    return buf, offset


def _unpack_all(xs, B):
    """The base-2**B digits of every x in xs, x after x, lowest first, each
    in +-(2**(B-1) - 1), as 64-bit limbs: (limbs, counts), with limbs[i] the
    int64 array of every digit's i-th limb, the top one signed, and counts
    the number of slots of each x.

    B is a multiple of 8, and each x must have such digits.  They are laid
    end to end in one buffer (_end_to_end), and numpy reads each slot off
    its B/8 bytes, widened to whole limbs; the top limb is then taken back by
    its share of 2**(B-1), mod 2**64, which is the signed limb in two's
    complement."""
    m = B // 8
    nl = -(-m // 8)
    counts = [x.bit_length() // B + 1 for x in xs]
    buf, _ = _end_to_end(xs, counts, m)
    wide = np.zeros((len(buf) // m, 8 * nl), dtype=np.uint8)
    wide[:, :m] = np.frombuffer(buf, dtype=np.uint8).reshape(-1, m)
    limbs = list(wide.view("<u8").T)
    limbs[-1] = (limbs[-1] - np.uint64(1 << (B - 1 - 64 * (nl - 1)))).view(np.int64)
    return limbs, counts


def _quotients(limbs, d):
    """_unpack_all's limbs of every digit divided by d, 1 <= d < 2**31, as
    limbs again.  numpy divides from the top limb down, the signed top limb
    floored, then every lower limb 32 bits at a time, so that no dividend
    reaches d * 2**32 <= 2**63.  A remainder raises ArithmeticError."""
    if d == 1:
        return limbs
    q, r = np.divmod(limbs[-1], d)
    out = [q]
    for limb in reversed(limbs[:-1]):
        q1, r = np.divmod((r << 32) | (limb >> 32).astype(np.int64), d)
        q0, r = np.divmod((r << 32) | (limb & 0xFFFFFFFF).astype(np.int64), d)
        out.append((q1.astype(np.uint64) << 32) | q0.astype(np.uint64))
    if r.any():
        raise ArithmeticError(f"non-exact division by {d}")
    return out[::-1]


def _ints(limbs):
    """The digits of limbs as Python ints."""
    digits = limbs[-1].tolist()
    for limb in reversed(limbs[:-1]):
        digits = list(map(add, map(lshift, digits, repeat(64)), limb.tolist()))
    return digits


def _unslice(slices, plane, B, divisor=1):
    """The polynomial of packed slices, every coefficient divided by
    divisor: slot j of the slice of (rest, s) holds the coefficient of
    rest * u**(s - lam*j) * v**j, whose key steps by
    2**(SHIFT*v) - lam * 2**(SHIFT*u) from slot to slot.  A division that
    leaves a remainder raises ArithmeticError.  All slices are read and
    divided at once (_unpack_all, _quotients), and slot j's key is its
    slice's first key plus j steps."""
    u, v, lam = plane
    su = SHIFT * u
    step = (1 << (SHIFT * v)) - (lam << su)
    limbs, counts = _unpack_all(list(slices.values()), B)
    limbs = _quotients(limbs, divisor)
    coeffs = _ints(limbs)
    del limbs
    starts = [(k >> _SLICE) + ((k & _S_MASK) << su) for k in slices]
    steps = list(range(0, max(counts, default=0) * step, step))
    keys = map(
        add,
        chain.from_iterable(map(repeat, starts, counts)),
        chain.from_iterable(map(islice, repeat(steps), counts)),
    )
    return dict(compress(zip(keys, coeffs), coeffs))


def _slice_mul(a, b):
    """The product of two sliced polynomials: one bigint multiply per slice
    pair, summed into the output slice."""
    out = {}
    get = out.get
    b = list(b.items())
    for ka, xa in a.items():
        for kb, xb in b:
            k = ka + kb
            out[k] = get(k, 0) + xa * xb
    return out


def _slice_square(a):
    """_slice_mul(a, a), with the product of two distinct slices formed once."""
    out = {}
    get = out.get
    items = list(a.items())
    for i, (ka, xa) in enumerate(items):
        k = ka + ka
        out[k] = get(k, 0) + xa * xa
        for kb, xb in items[i + 1 :]:
            k = ka + kb
            out[k] = get(k, 0) + ((xa * xb) << 1)
    return out


def _phi(k, even):
    """The X-exponents minus the Y-exponents of a slice's rest, field by
    field (even marks the X fields): the X/Y swap negates it, and the slice
    of a product of two slices has the sum of theirs."""
    rest = k >> _SLICE
    return (rest & even) - ((rest >> SHIFT) & even)


def _half_mul(a, b, even):
    """The slices of _slice_mul(a, b) with phi >= 0: only the pairs whose
    phi add up to >= 0 are multiplied."""
    bs = sorted(((_phi(k, even), k, x) for k, x in b.items()), key=itemgetter(0), reverse=True)
    out = {}
    get = out.get
    for ka, xa in a.items():
        low = -_phi(ka, even)
        for fb, kb, xb in bs:
            if fb < low:
                break
            k = ka + kb
            out[k] = get(k, 0) + xa * xb
    return out


def _mirror(half, even, B):
    """The slices of a polynomial fixed by the X/Y swap, on a plane (u, v, 1)
    with u, v a swapped pair, from those with phi >= 0: the swap takes the
    slice of (rest, s) to that of (swap(rest), s), and its slot j, of
    e_v = j and e_u = s - j, to slot s - j.  The s + 1 slots of every slice
    to mirror are laid end to end (_end_to_end), and numpy reverses them in
    one gather."""
    m = B // 8
    twins, xs, ns = [], [], []
    for k, x in half.items():
        rest, s = k >> _SLICE, k & _S_MASK
        xf, yf = rest & even, (rest >> SHIFT) & even
        if xf > yf:
            twins.append((((xf << SHIFT) | yf) << _SLICE) + s)
            xs.append(x)
            ns.append(s + 1)
    if not twins:
        return half
    buf, offset = _end_to_end(xs, ns, m)
    slots = np.frombuffer(buf, dtype=np.uint8).reshape(-1, m)
    # slot i of a slice of n slots ending at `end` goes to 2*end - n - 1 - i
    sizes = np.array(ns, dtype=np.intp)
    flipped = slots[np.repeat(2 * np.cumsum(sizes) - sizes - 1, sizes) - np.arange(len(slots))]
    flipped = flipped.tobytes()
    at = 0
    for twin, n in zip(twins, ns):
        half[twin] = int.from_bytes(flipped[at : at + n * m], "little") - offset[n]
        at += n * m
    return half


def _slice_power(base, e, even=None, B=None):
    """base**e for e >= 1: the square forms each product of two distinct
    slices once, and every further power is one multiply by base, e - 1
    steps in all.  Each step pairs the growing power with the few slices of
    base, where binary powering would pair two large powers: S_1**49 for
    p=7 takes 0.8 s this way and 10 s that way.  When base is fixed by the
    X/Y swap (even given, slots of B bits), so is every power, and each step
    after the square forms only its slices of phi >= 0 and mirrors the
    others."""
    power = _slice_square(base) if e > 1 else base
    for _ in range(e - 2):
        if even is None:
            power = _slice_mul(power, base)
        else:
            power = _mirror(_half_mul(power, base, even), even, B)
    return power


def _swap(a, even):
    """a with X_i and Y_i exchanged: even marks the fields of X_0, X_1, ..."""
    return {((k & even) << SHIFT) | ((k >> SHIFT) & even): c for k, c in a.items()}


def p_pow_sum_sliced(terms, plane, divisor=1):
    """The sum of c * a**e over terms (c, a, e), every coefficient divided by
    divisor, 1 <= divisor < 2**31, by the sliced product on plane
    = (u, v, lam).  A division that leaves a remainder raises
    ArithmeticError.  One power a**e is p_pow_sum_sliced([(1, a, e)], plane),
    equal to p_pow(a, e).

    The sum stays packed from the one slicing of each a to the one
    unpacking of the sum, which also divides: every power is formed on the
    slices (_slice_power) and added into the sum slice by slice.  No
    coefficient of a partial sum, nor of any a**k with k <= e, exceeds the
    sum of |c|*|a|_1**e, so _slot_bits of it serves them all.  The Witt
    tables raise to at most p**(n-1)."""
    _plane_check(plane)
    if not 1 <= divisor < 2**31:
        raise ValueError(f"divisor {divisor} outside 1..2**31-1")
    for _c, a, e in terms:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        _exponent_check([(a, e)])
    B = _slot_bits(sum(abs(c) * sum(map(abs, a.values())) ** e for c, a, e in terms))
    # on the plane of a swapped pair X_i, Y_i with lam = 1, the powers of a
    # polynomial that the swap fixes are formed half and mirrored
    u, v, lam = plane
    even = None
    if lam == 1 and u ^ v == 1:
        top = max((max(a, default=0) for _c, a, _e in terms), default=0).bit_length()
        even = sum(MASK << (2 * SHIFT * i) for i in range(top // (2 * SHIFT) + 1))
    total = {}
    get = total.get
    for c, a, e in terms:
        half = even if even is not None and _swap(a, even) == a else None
        power = _slice_power(_slices(a, plane, B), e, half, B) if e else {0: 1}
        while power:  # each slice of the power is dropped once it is added
            k, x = power.popitem()
            total[k] = get(k, 0) + c * x
    return _unslice(total, plane, B, divisor)


def p_mod(a, m):
    out = {}
    for k, c in a.items():
        c %= m
        if c:
            out[k] = c
    return out


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

    Variables absent from subs are kept as themselves.  A term in a
    variable that goes to the zero polynomial {} is dropped first, unread.
    The exponent check runs once, on the degrees: no exponent of any product
    formed here passes deg_w(a) (w kept) + sum over v in subs of
    deg_v(a)*deg_w(subs[v]), and only when that passes MASK for some w is
    every product p_mul, with its own check.  Each term's image is added
    into the sum in place.
    """
    dead = reduce(or_, [MASK << (SHIFT * v) for v, s in subs.items() if not s], 0)
    if dead:
        a = {k: c for k, c in a.items() if not k & dead}
    deg = degrees(a)
    sub_deg = {v: degrees(s) for v, s in subs.items() if v < len(deg)}
    reach = [0 if v in subs else d for v, d in enumerate(deg)]
    for v, ds in sub_deg.items():
        reach += [0] * (len(ds) - len(reach))
        for w, d in enumerate(ds):
            reach[w] += deg[v] * d
    product = p_mul if max(reach, default=0) > MASK else _mul
    pw = _power_table(subs, product)
    total = {}
    get = total.get
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
                    term = piece if term is None else product(term, piece)
                else:
                    kept |= e << (SHIFT * v)
            k >>= SHIFT
            v += 1
        if term is None:
            term = {kept: 1}
        elif kept:
            term = product(term, {kept: 1})
        for k, t in term.items():
            t = c * t + get(k, 0)
            if t:
                total[k] = t
            else:
                total.pop(k, None)
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

# a column tile holds this many elements of the plan's widest array, and at
# least _MIN_COLS points: small families run in one tile, and the peak
# memory of a large one stays flat
_TILE_ELEMENTS = 2**15
_MIN_COLS = 128

# multiply-adds per float64 matmul call.  OpenBLAS runs a product of at most
# 2**18 on one thread and hands a larger one to its thread pool, whose
# wake-up cost up to ten times the product on a 2-CPU x86 VM: a 202 x 202
# block took 48 ms per 1000 points in one call and 4.7 ms in calls of 6
_GEMM_TERMS = 2**18

# the exact ranges: every integer up to 2**63 - 1 in int64, below 2**53 in float64
_INT = 2**63 - 1
_FLOAT = 2**53 - 1


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


def _rem(x, mod):
    """x %= mod in place.  numpy divides by a scalar through a precomputed
    multiplier, which is about twice as fast as its remainder."""
    q = x // mod
    q *= mod
    x -= q


def _powers(x, var, e, mod):
    """The rows x[var[i]]**e[i] mod `mod`, by binary powering over all rows
    at once: each variable is squared once per bit of the largest e."""
    out = np.ones((len(e), x.shape[1]), dtype=np.int64)
    e = e.copy()
    while e.any():
        odd = np.flatnonzero(e & 1)
        t = out[odd] * x[var[odd]]
        _rem(t, mod)
        out[odd] = t
        e >>= 1
        x = x * x
        _rem(x, mod)
    return out


def _batch_plan(polys, nv, mod):
    """The plan of p_eval_batch_mod(polys, vals, mod) for vals of nv rows:
    what it does not need the points for.

    var and exp list the powers a tile needs, one row each: the distinct
    exponents of every trie level, level after level.  levels holds, for
    the X and the Y trie, per level but the last, (parent, where): the
    parent of each prefix in the level before and its power row; a tile's
    Y prefixes follow its X prefixes.  groups holds, per group of blocks,
    (E, M, C, starts, comps, rows): the prefix and the power row of each
    block's monomials on its summed side, shape (2, nb, r), and on its
    matmul's side, (2, nb, k); the coefficients, (nb, r, k), in float64 when
    k*(mod-1)**2 < 2**53; the first row of each component's run of blocks,
    its component, and the rows of the longest run.  The points run in
    tiles of `cols`."""
    if mod < 1 or mod * mod >= 2**63:
        raise ValueError(f"int64 evaluation would overflow: modulus {mod} outside 1..3037000499")
    plan = SimpleNamespace(groups=[], levels=[], var=[], exp=[])
    if not any(polys):
        return plan

    def split(part, first):
        # the nodes are each component's distinct parts, component after
        # component: returns each term's node, each node's prefix row (past
        # those of the side before) and power row in the last trie level, and
        # its component.  Each level's distinct exponents become power rows
        # (the level of the monomial 1 may name any variable).  A key past
        # variable nv - 1 keeps its high bits in its odd part, which
        # exponent_rows refuses
        node, nodes, comp = [], [], []
        for c, a in enumerate(polys):
            parts = {}
            node.append(np.array([parts.setdefault(k & part, len(parts)) for k in a], np.intp) + len(nodes))
            nodes += parts
            comp += [c] * len(parts)
        steps, rows = _trie(np.concatenate([b[:, first::2] for _, b in row_blocks(nodes, nv)]))
        shift = sum(len(levels[-1][0]) if levels else 1 for levels in plan.levels)
        levels = []
        for j, parent, e in steps:
            used, where = np.unique(e, return_inverse=True)
            levels.append((parent, where + sum(map(len, plan.exp))))
            plan.var.append(np.full(len(used), first + 2 * j if used[-1] else 0))
            plan.exp.append(used)
        parent, where = levels.pop()
        plan.levels.append(levels)
        return np.concatenate(node), [parent[rows] + shift, where[rows]], comp

    even = sum(MASK << (SHIFT * v) for v in range(0, nv, 2))
    (xi, yi), last, (xcomp, ycomp) = zip(split(even, 0), split(~even, 1))
    plan.var, plan.exp = np.concatenate(plan.var), np.concatenate(plan.exp)
    # the nodes, X then Y, each term's two, and the blocks; a block's matmul
    # runs over its longer side, and its shorter is summed (X on a tie)
    nx, last = len(xcomp), np.concatenate(last, axis=1)
    ends = np.array([xi, yi + nx])
    _, block = np.unique(_components(*ends, nx + len(ycomp)), return_inverse=True)
    rows, cols = np.bincount(block[:nx]), np.bincount(block[nx:])
    summed = (np.arange(len(block)) < nx) == (rows <= cols)[block]
    short, wide = np.minimum(rows, cols), np.maximum(rows, cols)
    # the shapes (short, wide) of one short side share a group while the
    # wide side is at most 1.5 times the group's first, padded to the last
    shapes, shape = np.unique(short * (wide.max() + 1) + wide, return_inverse=True)
    group, width = [], []
    for r, k in zip(*divmod(shapes, wide.max() + 1)):
        if not width or r != first[0] or 2 * k > 3 * first[1]:
            first = r, k
            width.append(0)
        width[-1] = k
        group.append(len(width) - 1)
    group = np.array(group)[shape]
    wide = np.array(width)[group]

    # the blocks in order of their group and component, and each node's
    # place among its block's nodes on its side
    bcomp = np.empty_like(rows)
    bcomp[block[:nx]] = xcomp
    order = np.lexsort((bcomp, group))
    short, wide, bcomp, group = short[order], wide[order], bcomp[order], group[order]
    b = np.argsort(order)[block]
    key = 2 * b + ~summed
    o = np.argsort(key, kind="stable")
    count = np.bincount(key, minlength=2 * len(order))
    place = np.empty_like(o)
    place[o] = np.arange(len(o)) - (np.cumsum(count) - count)[key[o]]
    estart, mstart = np.cumsum(short) - short, np.cumsum(wide) - wide
    E, M = np.zeros((2, short.sum()), np.intp), np.zeros((2, wide.sum()), np.intp)
    E[:, estart[b[summed]] + place[summed]] = last[:, summed]
    M[:, mstart[b[~summed]] + place[~summed]] = last[:, ~summed]
    e = np.where(summed[ends[0]], *ends)
    size = short * wide
    cstart = np.cumsum(size) - size
    cflat = np.zeros(size.sum(), dtype=np.int64)
    cflat[cstart[b[e]] + place[e] * wide[b[e]] + place[ends.sum(0) - e]] = np.fromiter(
        map(mod.__rmod__, chain.from_iterable(a.values() for a in polys)), np.int64, len(xi)
    )
    edges = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(group)]
    # the widest array of a tile: a prefix level, the power rows, or a
    # group's stacked monomials on its matmul side (never the whole last level)
    widest = [len(p) for p, _ in chain(*plan.levels)] + [len(plan.exp)]
    widest += [(b1 - b0) * wide[b0] for b0, b1 in zip(edges, edges[1:])]
    plan.cols = max(_MIN_COLS, _TILE_ELEMENTS // int(max(widest)))
    for b0, b1 in zip(edges, edges[1:]):
        nb, r, k = b1 - b0, int(short[b0]), int(wide[b0])
        starts = np.flatnonzero(np.diff(bcomp[b0:b1], prepend=-1))
        run = r * int(np.diff(starts, append=nb).max())
        C = cflat[cstart[b0] : cstart[b0] + nb * r * k].reshape(nb, r, k)
        C = C.astype(np.float64 if k * (mod - 1) ** 2 <= _FLOAT else np.int64)
        Eg = E[:, estart[b0] : estart[b0] + nb * r].reshape(2, nb, r)
        Mg = M[:, mstart[b0] : mstart[b0] + nb * k].reshape(2, nb, k)
        plan.groups.append((Eg, Mg, C, starts * r, bcomp[b0:b1][starts], run))
    return plan


def p_eval_batch_mod(polys, vals, mod):
    """Every polynomial of the family polys at many points of Z/mod at once.

    vals is an int64 array of shape (nvars, B), one column per point;
    returns shape (len(polys), B).  One plan serves the whole family
    (_batch_plan), and the powers and the tries' prefixes are formed once
    per tile of points for all its components.  Per block, with C its
    coefficient matrix and MX, MY the values of its X and Y monomials, the
    block's value is the column sum of (C @ MY) * MX, added to its
    component.  The matmul runs over the longer side M (MY, or MX with C
    transposed), and a group of blocks, padded to one shape, runs as one
    stacked matmul.

    Exactness: mod**2 < 2**63, which the guard demands, and every value is
    >= 0, so no partial sum passes the bound of the whole.  The powers and
    the prefixes are residues, at most t = mod - 1, so a monomial's value
    is at most t**2.  Every other intermediate carries an integer bound and
    is reduced mod `mod`, to at most t, only when the next product or sum
    could leave the exact range of its dtype, up to 2**63 - 1 in int64 and
    below 2**53 in float64: M before a matmul over k monomials if k*t*t**2
    could (the matmul runs in float64 when k*t**2 < 2**53, else in int64,
    `step` monomials at a time with step*t**2 + t < 2**63), the matmul's
    sum Q before its next step and before each factor of the other side's
    monomials, a component's running total and then that product before a
    group's longest run of rows is added (a reduced total and product leave
    room for 2**31 rows), and every total at the end of its tile.
    """
    if isinstance(polys, Mapping):
        raise ValueError("p_eval_batch_mod takes a sequence of polynomials, not one")
    vals = np.asarray(vals, dtype=np.int64)
    nv, B = vals.shape
    plan = _batch_plan(polys, nv, mod)
    vals = vals % mod
    out = np.zeros((len(polys), B), dtype=np.int64)
    if not plan.groups:
        return out
    t = max(mod - 1, 1)

    def cap(x, bound, room):
        # x's bound, after x is reduced in place if the bound passes room
        if bound <= room or bound <= t:
            return bound
        _rem(x, mod)
        return t

    def prefixes(levels, pw):
        m = np.ones((1, pw.shape[1]), dtype=np.int64)
        for parent, where in levels:
            m = m[parent]
            m *= pw[where]
            _rem(m, mod)
        return m

    # the last level of each side is formed block by block, never whole
    for c0 in range(0, B, plan.cols):
        c1 = min(c0 + plan.cols, B)
        w = c1 - c0
        pw = _powers(vals[:, c0:c1], plan.var, plan.exp, mod)
        P = np.concatenate([prefixes(levels, pw) for levels in plan.levels])
        total, tb = np.zeros((len(polys), w), dtype=np.int64), 0
        for (ep, ew), (mp, mw), C, starts, comps, rows in plan.groups:
            nb, r, k = C.shape
            M = P[mp]
            M *= pw[mw]
            room = _FLOAT if C.dtype == np.float64 else _INT - t
            m = cap(M, t * t, room // (k * t))
            step = min(k, room // (t * m))
            sub = max(1, _GEMM_TERMS // (r * k)) if C.dtype == np.float64 else w
            M = M.astype(C.dtype, copy=False)
            for k0 in range(0, k, step):
                part = np.empty((nb, r, w), dtype=C.dtype)
                for j0 in range(0, w, sub):
                    np.matmul(
                        C[:, :, k0 : k0 + step],
                        M[:, k0 : k0 + step, j0 : j0 + sub],
                        out=part[:, :, j0 : j0 + sub],
                    )
                part = part.astype(np.int64, copy=False)
                q = cap(Q, q, _INT - step * t * m) + step * t * m if k0 else step * t * m
                Q = Q + part if k0 else part
            for factor in (P[ep], pw[ew]):
                q = cap(Q, q, _INT // t) * t
                Q *= factor
            tb = cap(total, tb, _INT - rows * q)
            q = cap(Q, q, (_INT - tb) // rows)
            total[comps] += np.add.reduceat(Q.reshape(-1, w), starts, axis=0)
            tb += rows * q
        _rem(total, mod)
        out[:, c0:c1] = total
    return out
