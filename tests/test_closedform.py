"""Closed product formula over per-axis polylogarithm values.

Its independent validation against the recurrence lives in the
acceptance suite; here the formula itself is pinned by small known
values, by linearity, and by a direct numeric partial sum.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistzeta import TwistVector
from twistzeta._rational import rat
from twistzeta.closedform import closed_value, expand_numerator
from twistzeta.cyclotomic import CyclotomicField
from twistzeta.multipoly import SparsePolynomial

from _support import fraction_polynomials, random_polynomial


def test_expand_numerator_is_the_product():
    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    Q = X1 + 1
    P1 = X1 + X2
    P2 = X2 + 2
    k = (2, 1)
    direct = Q * P1 * P1 * P2
    assert expand_numerator(Q, (P1, P2), k) == direct
    assert expand_numerator(Q, (P1, P2), (0, 0)) == Q


def test_known_one_variable_values():
    mus = TwistVector.exact(2, [1])
    field = CyclotomicField.get(2)
    Q = SparsePolynomial.one(1)
    P = SparsePolynomial.variable(1, 1)
    expected = {0: rat(-1, 2), 1: rat(-1, 4), 2: rat(0, 1), 3: rat(1, 8)}
    for k, q in expected.items():
        assert closed_value(Q, (P,), (k,), mus) == field.constant(q)


def test_two_variable_product_of_zeros():
    # E = X1 + X2 at k = 0 keeps only the geometric factors
    mus = TwistVector.exact(2, [1, 1])
    field = CyclotomicField.get(2)
    Q = SparsePolynomial.one(2)
    P = SparsePolynomial.variable(2, 1) + SparsePolynomial.variable(2, 2)
    assert closed_value(Q, (P,), (0,), mus) == field.constant(rat(1, 4))
    assert closed_value(Q, (P,), (1,), mus) == field.constant(rat(1, 4))


def test_zero_numerator_annihilates():
    mus = TwistVector.exact(4, [1, 3])
    Q = SparsePolynomial.zero(2)
    P = SparsePolynomial.variable(2, 1) + 1
    assert closed_value(Q, (P,), (3,), mus) == mus.zero_scalar()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_linearity_in_q(seed):
    rng = random.Random(seed)
    mus = TwistVector.exact(6, [rng.randint(1, 5), rng.randint(1, 5)])
    A = random_polynomial(rng, 2)
    B = random_polynomial(rng, 2)
    P = random_polynomial(rng, 2)
    k = (rng.randint(0, 2),)
    c = rat(rng.randint(1, 7), rng.randint(1, 3))
    lhs = closed_value(A * c + B, (P,), k, mus)
    rhs = mus.scale(closed_value(A, (P,), k, mus), c) + closed_value(
        B, (P,), k, mus
    )
    assert lhs == rhs


def test_separable_recombination_inside_the_disc():
    # The expansion E = sum a_alpha X^alpha recombines axis sums into the
    # full lattice sum.  Inside the unit disc both sides converge, so the
    # structural claim behind the closed formula is checkable numerically
    # without taking the boundary limit.
    Q = SparsePolynomial.variable(2, 1)
    P = SparsePolynomial.variable(2, 1) + SparsePolynomial.variable(2, 2)
    k = (2,)
    E = expand_numerator(Q, (P,), k)
    ws = (0.8 * cmath.exp(2j * math.pi / 4),
          0.8 * cmath.exp(2j * math.pi * 3 / 4))
    M = 260  # 0.8^260 ~ 5e-26, fully converged at double precision

    def axis(w, d):
        return sum(w ** m * m ** d for m in range(1, M))

    recombined = 0j
    for alpha, coef in E.sorted_terms():
        recombined += float(coef) * axis(ws[0], alpha[0]) * axis(
            ws[1], alpha[1]
        )
    brute = sum(
        ws[0] ** m1 * ws[1] ** m2 * m1 * (m1 + m2) ** 2
        for m1 in range(1, M)
        for m2 in range(1, M)
    )
    assert abs(recombined - brute) < 1e-9


def test_validates_lengths():
    import pytest

    mus = TwistVector.exact(2, [1])
    Q = SparsePolynomial.one(1)
    P = SparsePolynomial.variable(1, 1)
    with pytest.raises(Exception):
        closed_value(Q, (P,), (1, 2), mus)
    with pytest.raises(Exception):
        expand_numerator(Q, (P,), (-1,))


def test_results_live_in_the_twist_field():
    mus = TwistVector.exact(3, [1, 2])
    Q = SparsePolynomial.one(2)
    P = SparsePolynomial.variable(2, 1) + SparsePolynomial.variable(2, 2)
    v = closed_value(Q, (P,), (2,), mus)
    assert v.field.order == 3


def test_monomial_case_reduces_to_axis_product():
    from twistzeta.twists import monomial_sum

    mus = TwistVector.exact(6, [1, 5])
    Q = SparsePolynomial(2, {(2, 1): rat(3, 2)})
    P = SparsePolynomial.one(2)
    got = closed_value(Q, (P,), (4,), mus)
    want = mus.scale(monomial_sum((2, 1), mus), rat(3, 2))
    assert got == want


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    fraction_polynomials(n), fraction_polynomials(n), fraction_polynomials(n),
    st.integers(0, 4), st.integers(0, 3),
)))
def test_integer_expansion_matches_fraction_product(case):
    # E is Q times the powers of the factors, in that order
    Q, P1, P2, k1, k2 = case
    want = Q * P1**k1 * P2**k2
    got = expand_numerator(Q, (P1, P2), (k1, k2))
    assert got == want
    assert all(type(c) is Fraction for c in got.terms.values())
    assert expand_numerator(SparsePolynomial.zero(Q.nvars), (P1, P2),
                            (k1, k2)).is_zero


def test_closed_route_multiplies_no_fraction_polynomials(monkeypatch):
    # polynomials are integer numerators over one denominator: the exact
    # closed route (E = Q * P^k and A_n(mu) from one folded root vector)
    # and the engine's step data (shift, delta, restriction, point values
    # and the products N(X+a) G(v)) do no Fraction arithmetic and no
    # Horner loop in the field
    from twistzeta import twists
    from twistzeta.engine import ValueCache

    X = SparsePolynomial.variable(1, 1)
    Q = SparsePolynomial.one(1)
    P, fresh = X * 3 + 2, X * 3 + 2
    mus = TwistVector.exact(3, [1])
    want = mus.lincomb(
        (twists.monomial_sum(alpha, mus), c)
        for alpha, c in (P**40).terms.items()
    )
    N = SparsePolynomial(
        2, {(2, 1): rat(3, 4), (0, 1): rat(-5, 6), (0, 0): rat(1, 3)}
    )
    factor = SparsePolynomial(2, {(1, 0): rat(1, 2), (0, 1): rat(2, 3),
                                  (0, 0): 1})
    a = (2, 1)
    session = ValueCache()

    def refuse(*args):
        raise AssertionError("Fraction arithmetic or Horner on an integer path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(twists, "_horner", refuse)
    twists.negapolylog.cache_clear()
    try:
        assert closed_value(Q, (fresh,), (40,), mus) == want
        ctx = session.context((factor,), TwistVector.exact(4, [1, 3]), a)
        data = session._step_data(ctx, N.canonical_text(), N)
        prods = [data.prod(ctx, (v,)) for v in range(4)]
    finally:
        monkeypatch.undo()
        twists.negapolylog.cache_clear()
    assert data.shifted == N.shift(a) and data.delta == N.delta(a)
    assert len(data.restricted) == 3 and len(data.at_points) == 2
    assert prods == [N.shift(a) * factor.delta(a) ** v for v in range(4)]


_ORDERS = (2, 3, 4, 5, 6, 12, 60)


@st.composite
def _closed_cases(draw):
    N = draw(st.integers(1, 3))
    T = draw(st.integers(1, 2))
    r = draw(st.sampled_from(_ORDERS))
    mus = TwistVector.exact(
        r, [draw(st.integers(1, r - 1)) for _ in range(N)]
    )
    Q = draw(fraction_polynomials(N))
    Ps = tuple(draw(fraction_polynomials(N)) for _ in range(T))
    k = tuple(draw(st.integers(0, 3)) for _ in range(T))
    return Q, Ps, k, mus


def _per_monomial(Q, Ps, k, mus):
    from twistzeta.twists import monomial_sum

    E = expand_numerator(Q, Ps, k)
    return mus.lincomb(
        (monomial_sum(alpha, mus), c) for alpha, c in E.terms.items()
    )


_X = SparsePolynomial.variable(2, 1)
_Y = SparsePolynomial.variable(2, 2)


@settings(max_examples=80, deadline=None)
@given(_closed_cases())
@example((_X * rat(3, 4) + _Y * rat(-5, 6) + rat(1, 3), (_X + _Y * 2,), (2,),
          TwistVector.exact(12, [5, 7])))  # den != 1
@example((SparsePolynomial.zero(2), (_X + 1,), (2,),
          TwistVector.exact(5, [1, 2])))  # Q = 0
@example((_X + 1, (_Y, SparsePolynomial.zero(2)), (1, 2),
          TwistVector.exact(60, [7, 11])))  # E = Q * Y * 0^2 = 0
def test_contraction_equals_the_per_monomial_sum(case):
    Q, Ps, k, mus = case
    assert closed_value(Q, Ps, k, mus) == _per_monomial(Q, Ps, k, mus)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_contraction_costs_one_product_per_prefix(monkeypatch, N):
    # the last variable is summed by an integer lincomb, so the field
    # products are one per distinct exponent prefix (a_1..a_n), n < N:
    # for N = 2 the distinct first-variable exponents of E, for N = 1 none
    from twistzeta import twists
    from twistzeta.cyclotomic import CyclotomicElement

    X = [SparsePolynomial.variable(N, i) for i in range(1, N + 1)]
    Q = X[0] * rat(2, 3) + 1
    P = sum(X[1:], X[0] * 3) + rat(1, 5)
    k = (4,)
    mus = TwistVector.exact(5, range(1, N + 1))
    want = _per_monomial(Q, (P,), k, mus)  # fills the negapolylog rows
    E = expand_numerator(Q, (P,), k)
    prefixes = {alpha[:n] for alpha in E.nums for n in range(1, N)}

    products = []
    mul = CyclotomicElement.__mul__

    def counted(self, other):
        if isinstance(other, CyclotomicElement):
            products.append(1)
        return mul(self, other)

    def refuse(*args):
        raise AssertionError("monomial_sum on the exact closed route")

    monkeypatch.setattr(CyclotomicElement, "__mul__", counted)
    monkeypatch.setattr(twists, "monomial_sum", refuse)
    got = closed_value(Q, (P,), k, mus)
    monkeypatch.undo()
    assert got == want
    assert len(products) == len(prefixes)
