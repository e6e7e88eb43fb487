"""Shared random-instance machinery for the test suite.

The generators here pin the randomized corpora: positive rational
coefficients p/q with p in 1..5 and q in 1..3, degrees at most 2, one
to three variables, one or two factors, twist orders in {2, 3, 4, 6}
unless a test passes other orders.  Everything is driven by explicit
seeds so failures replay.
"""

import itertools
import random

from hypothesis import strategies as st

from twistzeta import (
    PointTerm,
    Restricted,
    TwistVector,
    ZetaInstance,
    boundary_decompose,
    choose_shift,
)
from twistzeta._rational import rat
from twistzeta.errors import MuPowerIsOne
from twistzeta.multipoly import SparsePolynomial
from twistzeta.twists import mu_power


def exponent_pool(N, maxdeg):
    return sorted(
        e
        for e in itertools.product(range(maxdeg + 1), repeat=N)
        if sum(e) <= maxdeg
    )


def fraction_tables(nvars, maxdeg=2, maxterms=4):
    """Hypothesis strategy: {exps: Fraction} tables with signed
    fractional coefficients, zero coefficients included."""
    exps = st.tuples(*[st.integers(0, maxdeg) for _ in range(nvars)])
    coef = st.builds(rat, st.integers(-30, 30), st.integers(1, 12))
    return st.dictionaries(exps, coef, max_size=maxterms)


def fraction_polynomials(nvars, maxdeg=2, maxterms=4):
    """Hypothesis strategy: polynomials with signed fractional
    coefficients, the zero polynomial included."""
    return fraction_tables(nvars, maxdeg, maxterms).map(
        lambda terms: SparsePolynomial(nvars, terms)
    )


def random_polynomial(rng, N, maxdeg=2, maxterms=4):
    pool = exponent_pool(N, maxdeg)
    chosen = rng.sample(pool, min(rng.randint(1, maxterms), len(pool)))
    return SparsePolynomial(
        N, {e: rat(rng.randint(1, 5), rng.randint(1, 3)) for e in chosen}
    )


def random_linear_form(rng, N):
    """sum_n c_n X_n + d with every c_n > 0 and d >= 0, coefficients from
    the pinned p/q range, d zero half the time."""
    terms = {
        tuple(int(i == n) for i in range(N)): rat(
            rng.randint(1, 5), rng.randint(1, 3)
        )
        for n in range(N)
    }
    if rng.random() < 0.5:
        terms[(0,) * N] = rat(rng.randint(1, 5), rng.randint(1, 3))
    return SparsePolynomial(N, terms)


def random_twists(rng, N, orders=(2, 3, 4, 6)):
    r = rng.choice(orders)
    return TwistVector.exact(r, [rng.randint(1, r - 1) for _ in range(N)])


def random_instance(rng, ns=(1, 2, 3), ts=(1, 2), orders=(2, 3, 4, 6)):
    N = rng.choice(ns)
    T = rng.choice(ts)
    return ZetaInstance(
        random_polynomial(rng, N),
        tuple(random_polynomial(rng, N) for _ in range(T)),
        random_twists(rng, N, orders),
    )


def oracle_corpus(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]


def ks_up_to(T, total):
    return [
        k
        for k in itertools.product(range(total + 1), repeat=T)
        if sum(k) <= total
    ]


def random_valid_shift(rng, mus, bound=3):
    """A shift with entries in 0..bound, not all zero, mu^a != 1."""
    while True:
        a = tuple(rng.randint(0, bound) for _ in range(len(mus)))
        if not any(a):
            continue
        try:
            choose_shift(mus, a)
        except MuPowerIsOne:
            continue
        return a


def term_value(inst, k, m):
    """One summand mu^m Q(m) prod_t P_t(m)^(k_t) as an exact scalar."""
    val = inst.Q.eval(m)
    for P, kt in zip(inst.Ps, k):
        if kt:
            val = val * P.eval(m) ** kt
    return inst.mus.scale(mu_power(inst.mus, m), val)


def box_sum(inst, k, M, pred=lambda m: True):
    total = inst.mus.zero_scalar()
    for m in itertools.product(range(1, M + 1), repeat=inst.nvars):
        if pred(m):
            total = total + term_value(inst, k, m)
    return total


def box_partition_holds(inst, k, a, M):
    """Check the finite-box form of the signed boundary decomposition:

    the sum over [1,M]^N is the part above a plus, by inclusion-exclusion,
    every face's own restriction to the box (kept coordinates unshifted,
    in 1..M) times its signed prefactor, plus every point term times its
    sign.
    """
    full = box_sum(inst, k, M)
    interior = box_sum(
        inst, k, M, lambda m: all(x >= y + 1 for x, y in zip(m, a))
    )
    total = interior
    for piece in boundary_decompose(inst, a):
        if isinstance(piece, PointTerm):
            total = total + piece.sign * term_value(inst, k, piece.point)
        else:
            assert isinstance(piece, Restricted)
            q = len(piece.kept)
            for d in itertools.product(range(1, M + 1), repeat=q):
                total = total + piece.prefactor * term_value(
                    piece.sub, k, d
                )
    return full == total
