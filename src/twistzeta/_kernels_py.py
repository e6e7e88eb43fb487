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
rounded up to whole bytes, so no sum of products overflows it.  The
field product packs its two coordinate vectors and reduces the 2 phi - 1
slots once by the sparse long division of cyclo_fold; the term product
packs each table by the mixed-radix index of its exponents in the box
of the result.  Below the thresholds the schoolbook loops run inline.
Packing pays for the interpreter work it removes: measured packed /
schoolbook speedups of the field product, on random coordinates of the
given bit length (2-core VM, Python 3.11.7, one run each, noisy to
about 0.3), were

    bits          8      64     128    256    1024
    phi = 16     1.0    1.5    1.0    1.3    0.8
    phi = 32     2.4    2.5    1.9    1.0    1.6
    phi = 96     6.4    3.4    4.6    2.6    2.2

and eleven paired repeats at phi = 16 read medians of 1.3-1.45x at 8
and 64 bits, 0.89-0.97x from 256 to 1024 bits and 1.25x at 4096 bits.
Every field product from phi = 16 packs: the loss is a window of at
most about 10%, and no workload multiplies coordinates that large at
phi < 32.  The dense n x n term product gained 3x at n = 16 and 15-45x
at n = 64-256 with 8-bit coefficients (1.4-7x at 512 bits), and a table
times a binomial, with about as many slots as pairs, lost up to 2x,
which the density rule of _packed_terms excludes.
"""

from __future__ import annotations

import itertools
import math

# Packed products (Kronecker substitution, below).  A field product
# packs from phi = KS_MIN_PHI.  A term-table product packs from
# KS_MIN_PAIRS pairs of terms, when the exponent box of the result is
# dense enough (_packed_terms).
KS_MIN_PHI = 16
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
    field polynomial, as cyclo_fold takes them.  From phi = KS_MIN_PHI
    the convolution is one packed integer product (_packed_conv).
    """
    phi = len(xs)
    if phi >= KS_MIN_PHI:
        conv = _packed_conv(xs, ys)
    else:
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(xs):
            if not x:
                continue
            for j, y in enumerate(ys):
                if y:
                    conv[i + j] += x * y
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
# form, which int.from_bytes(..., signed=True) reads back slot by slot.


def _half_slots(n: int, wb: int) -> int:
    """2^(8 wb - 1) in each of n slots of wb bytes."""
    return int.from_bytes((bytes(wb - 1) + b"\x80") * n, "little")


def _pack(vec, wb: int) -> int:
    """sum_i vec[i] 2^(8 wb i), from the slots' two's complement bytes."""
    half = _half_slots(len(vec), wb)
    z = int.from_bytes(
        b"".join([c.to_bytes(wb, "little", signed=True) for c in vec]), "little"
    )
    return (z ^ half) - half


def _unpack(z: int, n: int, wb: int) -> list:
    """The n signed slots of z, low slot first."""
    half = _half_slots(n, wb)
    buf = ((z + half) ^ half).to_bytes(n * wb, "little")
    fb = int.from_bytes
    return [fb(buf[i : i + wb], "little", signed=True)
            for i in range(0, n * wb, wb)]


def _slot_bytes(bits: int, terms: int) -> int:
    """Slot width in bytes for sums of at most terms products whose
    factors' bit lengths add up to bits: one sign bit above them."""
    return (bits + terms.bit_length() + 8) // 8


def _packed_conv(xs: tuple, ys: tuple) -> list:
    """The convolution of two integer vectors of length phi, packed."""
    phi = len(xs)
    bx = max(map(abs, xs)).bit_length()
    by = max(map(abs, ys)).bit_length()
    if not bx or not by:
        return [0] * (2 * phi - 1)
    wb = _slot_bytes(bx + by, phi)
    return _unpack(_pack(xs, wb) * _pack(ys, wb), 2 * phi - 1, wb)


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
    wb = _slot_bytes(bits, min(len(A), len(B)))

    def pack(table, side):
        base = sum(lo[side] * s for lo, s in zip(lows, strides))
        index = [sum(map(int.__mul__, e, strides)) - base for e in table]
        dense = [0] * (max(index) + 1)
        for i, c in zip(index, table.values()):
            dense[i] = c
        return _pack(dense, wb)

    slots = _unpack(pack(A, 0) * pack(B, 1), box, wb)
    return {e: c for e, c in zip(itertools.product(*ranges), slots) if c}
