"""Sparse multivariate polynomials.

Ring structure is property-checked; shift, difference, restriction,
and evaluation are validated against each other through the evaluation
homomorphism, which pins all of them to integer arithmetic.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistzeta._rational import rat
from twistzeta.errors import DimensionMismatch
from twistzeta.multipoly import NEG_INF, SparsePolynomial

from _support import fraction_polynomials, fraction_tables


def poly_strategy(nvars, maxdeg=3, maxterms=5):
    exps = st.tuples(*[st.integers(0, maxdeg) for _ in range(nvars)])
    coef = st.integers(-6, 6).map(lambda n: rat(n, 1))
    return st.dictionaries(exps, coef, max_size=maxterms).map(
        lambda terms: SparsePolynomial(nvars, terms)
    )


points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=80, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(A, B, C):
    assert (A + B) + C == A + (B + C)
    assert A + B == B + A
    assert A * B == B * A
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert A - A == SparsePolynomial.zero(2)
    assert A * SparsePolynomial.one(2) == A


@settings(max_examples=80, deadline=None)
@given(poly_strategy(2), poly_strategy(2), points)
def test_eval_is_a_homomorphism(A, B, x):
    assert (A + B).eval(x) == A.eval(x) + B.eval(x)
    assert (A * B).eval(x) == A.eval(x) * B.eval(x)


@settings(max_examples=80, deadline=None)
@given(poly_strategy(2), st.tuples(st.integers(0, 3), st.integers(0, 3)),
       points)
def test_shift_matches_translated_evaluation(A, a, x):
    shifted = A.shift(a)
    moved = tuple(xi + ai for xi, ai in zip(x, a))
    assert shifted.eval(x) == A.eval(moved)


@settings(max_examples=50, deadline=None)
@given(poly_strategy(2), st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_shift_composes_additively(A, a, b):
    ab = tuple(x + y for x, y in zip(a, b))
    assert A.shift(a).shift(b) == A.shift(ab)


@settings(max_examples=50, deadline=None)
@given(poly_strategy(2), st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_delta_is_shift_minus_identity(A, a):
    assert A.delta(a) == A.shift(a) - A


def test_zero_shift_is_identity_object():
    A = SparsePolynomial.variable(2, 1) + 3
    assert A.shift((0, 0)) is A


def _repeated_product(A, k):
    out = SparsePolynomial.one(A.nvars)
    for _ in range(k):
        out = out * A
    return out


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2))
def test_powers_match_repeated_products(A):
    assert A ** 0 == SparsePolynomial.one(2)
    assert A ** 1 is A
    assert A ** 3 == A * A * A


X = SparsePolynomial.variable(1, 1)


@pytest.mark.parametrize("A", [
    rat(3, 7) * X ** 2 - rat(1, 2) * X + rat(5, 3),  # den != 1
    # 20 terms: A * A is 400 pairs, a packed product
    sum((rat(j + 1, 3) * X ** j for j in range(20)), SparsePolynomial.zero(1)),
    SparsePolynomial.zero(1),
])
def test_powers_up_to_nine_match_repeated_products(A):
    for k in range(10):
        assert A ** k == _repeated_product(A, k)


def _stored_powers(p):
    """The SparsePolynomials held in p's slots, inside tuples, lists and
    dict values too."""
    held, todo = [], [getattr(p, name) for name in SparsePolynomial.__slots__]
    while todo:
        value = todo.pop()
        if isinstance(value, SparsePolynomial):
            held.append(value)
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        elif isinstance(value, dict) and value is not p.nums:
            todo.extend(value.values())
    return held


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    fraction_polynomials(n), st.permutations(range(10)))))
@example((rat(3, 7) * X ** 2 - rat(1, 2) * X + rat(5, 3), list(range(10))))
def test_stored_power_matches_fraction_products(case):
    # one object powered in ascending, descending and shuffled k: each
    # power starts from the one stored by the call before, and equals
    # the plain product of Fraction tables
    P, shuffled = case
    fresh = SparsePolynomial(P.nvars, P.terms)
    want = [{(0,) * P.nvars: Fraction(1)}]
    for _ in range(9):
        want.append(_fmul(want[-1], P.terms))
    for order in (range(10), range(9, -1, -1), shuffled):
        for k in order:
            got = P**k
            assert math.gcd(got.den, *got.nums.values()) == 1
            assert got.terms == want[k]
            assert len(_stored_powers(P)) <= 1
    assert P == fresh and hash(P) == hash(fresh)
    assert repr(P) == repr(fresh)
    assert P.canonical_text() == fresh.canonical_text()


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        SparsePolynomial.one(1) ** -1


def test_restriction_substitutes_boundary_values():
    # the face X1 = 2, X3 = 1 of P(X1, X2, X3): every lattice point of the
    # kept coordinate X2, unshifted, must agree
    X1 = SparsePolynomial.variable(3, 1)
    X2 = SparsePolynomial.variable(3, 2)
    X3 = SparsePolynomial.variable(3, 3)
    P = X1 * X2 + X3 ** 2 + 2 * X2 + 1
    R = P.restrict({1: 2, 3: 1})
    assert R.nvars == 1
    for d in range(1, 6):
        assert R.eval((d,)) == P.eval((2, d, 1))


def test_restriction_renumbers_multiple_kept_variables():
    X1 = SparsePolynomial.variable(3, 1)
    X3 = SparsePolynomial.variable(3, 3)
    P = X1 * X3 + X1
    R = P.restrict({2: 2})
    assert R.nvars == 2
    for d1 in range(1, 4):
        for d3 in range(1, 4):
            assert R.eval((d1, d3)) == P.eval((d1, 2, d3))


def test_restriction_rejects_malformed_faces():
    P = SparsePolynomial.variable(3, 1)
    with pytest.raises(DimensionMismatch):
        P.restrict({4: 1})
    with pytest.raises(DimensionMismatch):
        P.restrict({0: 1})
    with pytest.raises(DimensionMismatch):
        P.restrict({1: 1, 2: 1, 3: 1})
    # a rational value would leave Fraction numerators in the result
    with pytest.raises(TypeError):
        P.restrict({1: rat(1, 2)})


def test_total_degree():
    assert SparsePolynomial.zero(2).total_degree() == NEG_INF
    assert SparsePolynomial.one(2).total_degree() == 0
    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    assert (X1 * X2 ** 2 + X1).total_degree() == 3


@settings(max_examples=50, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_degree_of_products_adds(A, B):
    if A.is_zero or B.is_zero:
        assert (A * B).total_degree() == NEG_INF
    else:
        assert (A * B).total_degree() == A.total_degree() + B.total_degree()


def test_depends_on():
    X1 = SparsePolynomial.variable(2, 1)
    P = X1 ** 2 + 1
    assert P.depends_on(1)
    assert not P.depends_on(2)


def test_constant_helpers():
    c = SparsePolynomial.constant(2, rat(3, 2))
    assert c.is_constant and c.constant_value() == rat(3, 2)
    assert SparsePolynomial.zero(2).constant_value() == 0
    X1 = SparsePolynomial.variable(2, 1)
    assert not X1.is_constant
    # constant_value is the X^0 coefficient, on any polynomial
    assert X1.constant_value() == 0
    assert (X1 + rat(5, 3)).constant_value() == rat(5, 3)


def test_canonical_text_is_stable_and_total():
    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    P = X2 + X1 * X1 + rat(1, 3)
    Q = rat(1, 3) + X1 ** 2 + X2
    assert P.canonical_text() == Q.canonical_text()
    assert SparsePolynomial.zero(2).canonical_text() == "0"
    assert "X1" in P.canonical_text() and "X2" in P.canonical_text()


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        SparsePolynomial(1, {(1,): 0.5})
    with pytest.raises(TypeError):
        SparsePolynomial.one(1) * 0.5


# A Fraction-dict oracle for the integer representation.  Each helper
# repeats the loop structure of the operation it checks, so that key
# order is part of what is compared.


def _put(table, e, c):
    s = table.get(e, 0) + c
    if s:
        table[e] = s
    else:
        table.pop(e, None)


def _fadd(A, B, sign=1):
    out = dict(A)
    for e, c in B.items():
        _put(out, e, sign * c)
    return out


def _fmul(A, B):
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            _put(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _fpow(A, k, nvars):
    result, base = {(0,) * nvars: Fraction(1)}, A
    while k:
        if k & 1:
            result = _fmul(result, base)
        k >>= 1
        if k:
            base = _fmul(base, base)
    return result


def _fshift(A, a):
    for i, ai in enumerate(a):
        if not ai:
            continue
        out = {}
        for e, c in A.items():
            for j in range(e[i], -1, -1):
                ne = e[:i] + (j,) + e[i + 1:]
                _put(out, ne, c * math.comb(e[i], j) * ai ** (e[i] - j))
        A = out
    return A


def _frestrict(A, kept, fixed):
    folded = {}
    for e, c in A.items():
        for j, b in fixed.items():
            c = c * b ** e[j - 1]
        _put(folded, tuple(e[i - 1] for i in kept), c)
    return folded


def _feval(A, x):
    return sum(
        (c * math.prod(Fraction(xi) ** ei for xi, ei in zip(x, e))
         for e, c in A.items()),
        Fraction(0),
    )


def _matches(p, table):
    """p is canonical and its terms equal table, key order included."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert list(p.terms.items()) == list(table.items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_representation_matches_fraction_oracle(data):
    n = data.draw(st.integers(1, 3))
    tables = [data.draw(fraction_tables(n, 3, 5)) for _ in range(2)]
    A, B = ({e: c for e, c in t.items() if c} for t in tables)
    P, R = (SparsePolynomial(n, t) for t in tables)
    _matches(P, A)
    _matches(R, B)
    _matches(P + R, _fadd(A, B))
    _matches(P - R, _fadd(A, B, -1))
    _matches(-P, {e: -c for e, c in A.items()})
    _matches(P * R, _fmul(A, B))
    k = data.draw(st.integers(0, 4))
    _matches(P**k, _fpow(A, k, n))
    a = data.draw(st.tuples(*[st.integers(0, 3)] * n))
    _matches(P.shift(a), _fshift(A, a))
    _matches(P.delta(a), _fadd(_fshift(A, a), A, -1))
    kept = data.draw(
        st.lists(st.integers(1, n), min_size=1, unique=True).map(sorted)
    )
    fixed = {
        j: data.draw(st.integers(-2, 3))
        for j in range(1, n + 1) if j not in kept
    }
    _matches(P.restrict(fixed), _frestrict(A, kept, fixed))
    x = data.draw(st.tuples(*[st.builds(rat, st.integers(-4, 4),
                                        st.integers(1, 3))] * n))
    assert P.eval(x) == _feval(A, x)
    assert type(P.eval(x)) is Fraction


def test_factors_cancelling_into_den_leave_canonical_results():
    X = SparsePolynomial.variable(1, 1)
    square = (X * rat(1, 2)) * (X * 2)
    assert (square.nums, square.den) == ({(2,): 1}, 1)
    half = SparsePolynomial(2, {(1, 0): rat(1, 2)})
    at_two = half.restrict({1: 2})
    assert (at_two.nums, at_two.den) == ({(0,): 1}, 1)
    assert (half - half).den == 1 and (half - half).is_zero
