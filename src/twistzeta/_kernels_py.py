"""The kernels of the hot inner loops, in pure Python.

Coefficients are arbitrary exact numbers (int or Fraction): the engine
passes integer numerators over a common denominator, SparsePolynomial
passes Fractions.  Term tables are plain dicts {exponent tuple: nonzero
coefficient}; power_sums_box works in complex doubles for the Abel
check.  The functions never mutate their arguments.
"""

from __future__ import annotations

import math


def mul_terms(A: dict, B: dict) -> dict:
    """Distributive product of two term tables, zero results pruned."""
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


def cyclo_mul(xs: tuple, ys: tuple, rows: tuple) -> tuple:
    """Coordinate product in Q(zeta_r).

    xs and ys have length phi; rows[j] holds the reduced integer
    coordinates of z^(phi+j) modulo the field polynomial.  Any exact
    coefficient type works; CyclotomicElement passes the integer
    numerators of its two operands and divides by the product of their
    denominators afterwards.
    """
    phi = len(xs)
    n = 2 * phi - 1
    conv = [0] * n
    for i, x in enumerate(xs):
        if not x:
            continue
        for j, y in enumerate(ys):
            if y:
                conv[i + j] += x * y
    out = conv[:phi]
    for j in range(phi, n):
        t = conv[j]
        if t:
            row = rows[j - phi]
            for i in range(phi):
                ri = row[i]
                if ri:
                    out[i] = out[i] + t * ri
    return tuple(out)


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
