"""The kernels of the hot inner loops, in pure Python.

Coefficients are ints: SparsePolynomial and CyclotomicElement both store
integer numerators over one denominator and divide afterwards.  Term
tables are plain dicts {exponent tuple: nonzero coefficient};
power_sums_box works in complex doubles for the Abel check.  The
functions never mutate their arguments, except that cyclo_fold consumes
the list it reduces.

Both products have a packed path (Kronecker substitution; von zur
Gathen and Gerhard, Modern Computer Algebra, section 8.4): each operand
becomes one int with one fixed-width slot per coefficient, CPython
multiplies the two ints in C (Karatsuba on large operands), and the
slots of the product are the coefficients of the convolution.  A slot
holds bits(max|x|) + bits(max|y|) + bits(number of terms) + 1 bits,
rounded up to 1, 2, 4 or 8 bytes (one struct call converts a vector)
or to whole bytes above that, so no sum of products overflows it.  The
term product packs each table by the mixed-radix index of its
exponents in the box of the result.  The field product packs when its
operands have at least KS_MIN_PRODUCTS products of nonzero coordinates
and, while the slot widened for the reduction fits 8 bytes, reduces
packed too (_packed_cyclo); wider products unpack 2 phi - 1 slots for
the sparse long division of cyclo_fold.  Below the thresholds the
schoolbook loops run inline.  Measured schoolbook / packed time ratios
of the field product (above 1 packing wins; 2-core VM, Python 3.11.7,
medians of nine random operand pairs per cell), where a unit operand
is one coordinate 1, the others have the given number of nonzero
coordinates of the given bit length, and * marks the packed choice:

    operands         phi   8 bits  32      64      256     1024
    unit x 16         16   0.80    0.71    0.38    0.34    0.18
    unit x 32         32   1.02    0.91    0.37    0.22    0.13
    unit x 96 *       96   1.02    0.83    0.34    0.26    0.16
    8 x 8 *           16   1.87    0.74    0.64    0.42    0.34
    16 x 16 *         32   3.34    1.15    0.97    0.49    0.42
    48 x 48 *         96   2.83    2.37    1.86    0.79    0.57
    dense *           16   3.17    1.42    1.32    0.94    0.91
    dense *           32   6.71    2.62    2.25    1.51    1.19
    dense *           96   6.44    6.44    5.03    2.32    1.83

Packing gains most while the reduction runs packed, up to about 40
bits per operand at these degrees; below 64 coordinate products, and
from about 32 bits when fewer than half the coordinates are nonzero,
it loses.  KS_MIN_PRODUCTS = 64 is set
on the wide_field products (seed 3, 1,266 products at phi = 16, 32
and 96, up to about 30 bits per operand): the kernel time summed over
them is flat from a threshold of 32 to 64, 3-6% higher at 97 to 128
and over 40% higher at 256.  The dense n x n term product gained 3x at n = 16
and 15-45x at n = 64-256 with 8-bit coefficients (1.4-7x at 512 bits),
and a table times a binomial, with about as many slots as pairs, lost
up to 2x, which the density rule of _packed_terms excludes.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct

# Packed products (Kronecker substitution, below).  A field product
# packs from KS_MIN_PRODUCTS products of nonzero coordinates.  A
# term-table product packs from KS_MIN_PAIRS pairs of terms, when the
# exponent box of the result is dense enough (_packed_terms).
KS_MIN_PRODUCTS = 64
KS_MIN_PAIRS = 256


def mul_terms(A: dict, B: dict, ordered: bool = False) -> dict:
    """Distributive product of two term tables, zero results pruned.

    A large dense product runs packed (_packed_terms) and its keys come
    out in ascending lexicographic order.  The schoolbook loop keys its
    result in the order the pairs first meet each exponent; ordered=True
    keeps that order at every size, for callers whose floating-point
    sums follow the key order.
    """
    if len(A) * len(B) >= KS_MIN_PAIRS and not ordered:
        out = _packed_terms(A, B)
        if out is not None:
            return out
    out: dict = {}
    get = out.get
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(map(int.__add__, ea, eb))
            prev = get(e)
            if prev is None:
                out[e] = ca * cb
            else:
                s = prev + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def shift_terms(A: dict, a: tuple) -> dict:
    """Substitute X_i -> X_i + a_i, one variable at a time via Pascal rows."""
    out = A
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        nxt: dict = {}
        get = nxt.get
        for e, c in out.items():
            ei = e[i]
            if ei == 0:
                prev = get(e)
                if prev is None:
                    nxt[e] = c
                else:
                    s = prev + c
                    if s:
                        nxt[e] = s
                    else:
                        del nxt[e]
                continue
            pw = 1
            # j runs from ei down to 0 so the power of ai grows by one step
            for j in range(ei, -1, -1):
                coef = c * (math.comb(ei, j) * pw)
                pw *= ai
                ne = e[:i] + (j,) + e[i + 1 :]
                prev = get(ne)
                if prev is None:
                    nxt[ne] = coef
                else:
                    s = prev + coef
                    if s:
                        nxt[ne] = s
                    else:
                        del nxt[ne]
        out = nxt
    return dict(out) if out is A else out


def cyclo_mul(xs: tuple, ys: tuple, taps: tuple) -> tuple:
    """Coordinate product in Q(zeta_r).

    xs and ys have length phi and hold the integer numerators of the two
    operands; taps are the nonzero (t, c_t) below the top of the monic
    field polynomial, as cyclo_fold takes them.  The path follows the
    nonzero counts nx and ny: from KS_MIN_PRODUCTS coordinate products
    nx ny the product runs packed (_packed_cyclo), below it the
    schoolbook loop runs with the sparser operand outside, so a product
    by c z^e costs phi multiply-adds and a fold of e rows.
    """
    phi = len(xs)
    if phi * phi >= KS_MIN_PRODUCTS:
        nx = phi - xs.count(0)
        ny = phi - ys.count(0)
        if nx * ny >= KS_MIN_PRODUCTS:
            return _packed_cyclo(xs, ys, taps, min(nx, ny))
        if nx > ny:
            xs, ys = ys, xs
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys, i):
                if y:
                    conv[j] += x * y
    return cyclo_fold(conv, phi, taps)


def cyclo_fold(vec: list, phi: int, taps: tuple) -> tuple:
    """The reduced coordinates of sum_i vec[i] z^i modulo a monic
    polynomial of degree phi whose nonzero coefficients below the top
    are taps, pairs (t, c_t); vec is an integer list and is consumed.

    Long division from the top coefficient: each one costs one
    multiply-subtract per tap, and cyclotomic polynomials have few."""
    for i in range(len(vec) - 1, phi - 1, -1):
        c = vec[i]
        if c:
            base = i - phi
            for t, m in taps:
                vec[base + t] -= c * m
    return tuple(vec[:phi])


def power_sums_box(wre: float, wim: float, M: int, maxdeg: int) -> list:
    """S_d = sum_{m=1..M} w^m m^d for d = 0..maxdeg, in complex doubles."""
    w = complex(wre, wim)
    sums = [0j] * (maxdeg + 1)
    p = 1 + 0j
    for m in range(1, M + 1):
        p *= w
        md = 1.0
        for d in range(maxdeg + 1):
            sums[d] += p * md
            md *= m
    return sums


# Kronecker substitution: a vector of signed ints becomes one int with
# one slot of wb bytes per entry, so the convolution of two vectors is
# one product of two ints, which CPython multiplies in C (Karatsuba on
# large operands).  A slot is wide enough to hold every coefficient of
# the product with its sign; adding half a slot, 2^(8 wb - 1), to every
# slot makes each one a nonnegative digit, and flipping each slot's top
# bit (xor with the same constant) then leaves the two's complement
# form.  A slot of 1, 2, 4 or 8 bytes is a machine word, and one
# struct call converts the whole vector; a wider slot converts one
# coefficient at a time with int.to_bytes / int.from_bytes.


@functools.cache
def _half_slots(n: int, wb: int) -> int:
    """2^(8 wb - 1) in each of n slots of wb bytes."""
    return int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")


@functools.cache
def _words(n: int, wb: int):
    """The struct layout of n signed little-endian words of wb bytes,
    None for a slot that is not a machine word."""
    code = {1: "b", 2: "h", 4: "i", 8: "q"}.get(wb)
    return struct.Struct(f"<{n}{code}") if code else None


def _pack(vec, wb: int) -> int:
    """sum_i vec[i] 2^(8 wb i), from the slots' two's complement bytes."""
    n = len(vec)
    half = _half_slots(n, wb)
    words = _words(n, wb)
    if words:
        buf = words.pack(*vec)
    else:
        buf = b"".join([c.to_bytes(wb, "little", signed=True) for c in vec])
    return (int.from_bytes(buf, "little") ^ half) - half


def _unpack(z: int, n: int, wb: int):
    """The n signed slots of z, low slot first."""
    half = _half_slots(n, wb)
    buf = ((z + half) ^ half).to_bytes(n * wb, "little")
    words = _words(n, wb)
    if words:
        return words.unpack(buf)
    fb = int.from_bytes
    return [fb(buf[i : i + wb], "little", signed=True)
            for i in range(0, n * wb, wb)]


def _slot_bytes(bits: int) -> int:
    """Slot width in bytes for coefficients below 2^bits in absolute
    value: one sign bit above them, rounded up to a machine word when
    that is at most 8 bytes."""
    wb = (bits + 8) // 8
    return 1 << (wb - 1).bit_length() if wb <= 8 else wb


@functools.cache
def _quotient_series(phi: int, taps: tuple) -> tuple:
    """mu = z^(2 phi - 2) div Phi, phi - 1 coefficients low first, and
    the bits of headroom the packed reduction needs above the product's
    coefficients: (phi - 1) max|mu| (|Phi|_1 + 1) bounds the growth of
    every slot of it, |Phi|_1 the sum of |c_t| plus the top 1."""
    vec = [0] * (2 * phi - 1)
    vec[-1] = 1
    mu = [0] * (phi - 1)
    for i in range(phi - 2, -1, -1):
        q = mu[i] = vec[i + phi]
        if q:
            for t, c in taps:
                vec[i + t] -= q * c
    growth = (phi - 1) * max(map(abs, mu)) * (sum(abs(c) for _, c in taps) + 2)
    return tuple(mu), growth.bit_length()


@functools.cache
def _reducer(phi: int, taps: tuple, wb: int) -> tuple:
    """mu and the taps polynomial sum_t c_t z^t, packed in wb-byte slots."""
    low = [0] * phi
    for t, c in taps:
        low[t] = c
    return _pack(_quotient_series(phi, taps)[0], wb), _pack(low, wb)


def _packed_cyclo(xs: tuple, ys: tuple, taps: tuple, terms: int) -> tuple:
    """The reduced product of two coordinate vectors of length phi, from
    one packed product; terms bounds the products summed in a slot.

    While the reduction's slot fits a machine word the product is
    reduced packed too (Barrett's division for polynomials; von zur
    Gathen and Gerhard, section 9.1): with c = hi z^phi + lo, the
    quotient by the monic Phi is the top phi - 1 slots of hi mu, mu =
    z^(2 phi - 2) div Phi, and the remainder lo - (q Phi mod z^phi), so
    three integer products and one unpack of phi slots replace the fold.
    Wider products unpack all 2 phi - 1 slots for cyclo_fold.
    """
    phi = len(xs)
    bits = (max(map(abs, xs)).bit_length() + max(map(abs, ys)).bit_length()
            + terms.bit_length())
    head = _quotient_series(phi, taps)[1]
    if bits + head >= 64:
        wb = _slot_bytes(bits)
        conv = list(_unpack(_pack(xs, wb) * _pack(ys, wb), 2 * phi - 1, wb))
        return cyclo_fold(conv, phi, taps)
    wb = _slot_bytes(bits + head)
    mu, low = _reducer(phi, taps, wb)
    s = 8 * wb
    mask = (1 << s * phi) - 1
    half_phi = _half_slots(phi, wb)
    half_q = _half_slots(phi - 1, wb)
    # every slot of c plus half a slot is a digit in [0, 2^s)
    c = _pack(xs, wb) * _pack(ys, wb) + _half_slots(2 * phi - 1, wb)
    hi = (c >> s * phi) - half_q
    q = ((hi * mu + _half_slots(2 * phi - 3, wb)) >> s * (phi - 2)) - half_q
    qlow = ((q * low + _half_slots(2 * phi - 2, wb)) & mask) - half_phi
    return _unpack((c & mask) - half_phi - qlow, phi, wb)


def _packed_terms(A: dict, B: dict):
    """The product of two term tables by one packed integer product, or
    None when the tables are too sparse for it.

    Each exponent tuple e maps to the mixed-radix index of e - lo in the
    box of the product, lo the least exponents; the index of a sum of
    exponents is the sum of the indices, so packing both tables by index
    turns the table product into one integer product.  The result
    follows the box in ascending lexicographic order of the exponents.
    """
    cols_a = tuple(zip(*A))
    cols_b = tuple(zip(*B))
    lows, ranges = [], []
    for ca, cb in zip(cols_a, cols_b):
        la, lb = min(ca), min(cb)
        lows.append((la, lb))
        ranges.append(range(la + lb, max(ca) + max(cb) + 1))
    box = math.prod(map(len, ranges))
    # the packed product handles each term and each slot of the box
    # once, the schoolbook loop each pair of terms
    if len(A) + len(B) + box > len(A) * len(B):
        return None
    strides = []
    step = 1
    for r in reversed(ranges):
        strides.append(step)
        step *= len(r)
    strides.reverse()
    bits = (max(map(abs, A.values())).bit_length()
            + max(map(abs, B.values())).bit_length())
    wb = _slot_bytes(bits + min(len(A), len(B)).bit_length())

    def pack(table, side):
        base = sum(lo[side] * s for lo, s in zip(lows, strides))
        index = [sum(map(int.__mul__, e, strides)) - base for e in table]
        dense = [0] * (max(index) + 1)
        for i, c in zip(index, table.values()):
            dense[i] = c
        return _pack(dense, wb)

    slots = _unpack(pack(A, 0) * pack(B, 1), box, wb)
    return {e: c for e, c in zip(itertools.product(*ranges), slots) if c}
