"""Twist vectors and negative-order polylogarithm values.

The two derivations of Li_{-n}(mu), operator iteration and the
Eulerian-number numerator, are independent computations of the same
rational function; agreement across all n and r is the core check.
Known classical specializations at mu = -1 pin the absolute values.
"""

import cmath
import math

import pytest

from twistzeta._rational import rat
from twistzeta.cyclotomic import CyclotomicField, _embed_fixed
from twistzeta.errors import TwistIsOne
from twistzeta.multipoly import SparsePolynomial
from twistzeta.twists import (
    Twist,
    TwistVector,
    _grow_rows,
    _horner,
    eulerian_negapolylog,
    monomial_sum,
    mu_power,
    negapolylog,
    operator_numerator,
)


def test_dual_derivations_agree():
    for r in range(2, 9):
        for e in range(1, r):
            if math.gcd(e, r) == r:
                continue
            mu = TwistVector.exact(r, [e]).single(1)
            for n in range(1, 9):
                assert negapolylog(n, mu) == eulerian_negapolylog(n, mu)


@pytest.mark.parametrize("r", [12, 60])
def test_dual_derivations_agree_on_wide_fields(r):
    # negapolylog divides by powers of 1 - mu from the root-of-unity
    # identity; the Eulerian oracle inverts 1 - mu by the general inverse
    for e in range(1, r):
        mu = TwistVector.exact(r, [e]).single(1)
        for n in range(1, 7):
            assert negapolylog(n, mu) == eulerian_negapolylog(n, mu), (e, n)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 12, 60, 120])
def test_root_sum_numerators_match_eulerian_oracle(r):
    # A_n(zeta^e) from CyclotomicField.root_sum, over the memoized power of
    # 1/(1 - zeta^e), against the Eulerian oracle with its general inverse;
    # every e, n <= 30, and n = 256 at r in {2, 3}
    field = CyclotomicField.get(r)
    ns = list(range(1, 31)) + ([256] if r in (2, 3) else [])
    for e in range(1, r):
        mu = TwistVector.exact(r, [e]).single(1)
        for n in ns:
            want = eulerian_negapolylog(n, mu)
            num = field.root_sum(operator_numerator(n), e)
            assert num * field.inverse_one_minus_root(e, n + 1) == want
            assert negapolylog(n, mu) == want, (e, n)


@pytest.mark.parametrize("r", [3, 7, 60, None])
def test_eulerian_oracle_in_approx_mode(r):
    # the oracle's double branch against approx negapolylog at every
    # angle 2 pi e / r (and at 1.0 for r = None), and at the rational
    # angles against the exact value's fixed-point embedding (embed()
    # itself may keep up to 2^-26 of cancellation); each bound is
    # relative to n! / |1 - mu|^(n+1), the size of the summed terms
    angles = [2 * math.pi * e / r for e in range(1, r)] if r else [1.0]
    for e, theta in enumerate(angles, start=1):
        mu = Twist(mode="approx", angle=theta)
        gap = abs(1 - cmath.exp(1j * theta))
        for n in range(1, 13):
            size = math.factorial(n) / gap ** (n + 1)
            got = eulerian_negapolylog(n, mu)
            assert abs(got - negapolylog(n, mu)) <= 1e-14 * size, (e, n)
            if r:
                v = negapolylog(n, Twist(mode="exact", order=r, exponent=e))
                want = _embed_fixed(v.num, v.den, r)
                assert abs(got - want) <= 1e-12 * size, (e, n)


def test_alternating_values():
    # classical: sum (-1)^m m^n in the Abel sense
    mu = TwistVector.exact(2, [1]).single(1)
    field = CyclotomicField.get(2)
    expected = {
        0: rat(-1, 2),
        1: rat(-1, 4),
        2: rat(0, 1),
        3: rat(1, 8),
        4: rat(0, 1),
        5: rat(-1, 4),
    }
    for n, q in expected.items():
        assert negapolylog(n, mu) == field.constant(q)


def test_geometric_value():
    # n = 0 collapses to mu/(1-mu)
    for r in (3, 4, 6):
        for e in range(1, r):
            mu = TwistVector.exact(r, [e]).single(1)
            z = CyclotomicField.get(r).root(e)
            one = CyclotomicField.get(r).one
            assert negapolylog(0, mu) == z * (one - z).inverse()


def test_operator_numerator_matches_numeric_series():
    # inside the unit disc the series converges absolutely, so the
    # rational form A_n(w)/(1-w)^(n+1) can be checked numerically there
    w = 0.9 * cmath.exp(2.0j)
    for n in range(5):
        numeric = sum(w ** m * m ** n for m in range(1, 800))
        rational = _horner(operator_numerator(n), w, 1 + 0j) / (
            (1 - w) ** (n + 1)
        )
        assert abs(numeric - rational) < 1e-10


def test_monomial_sum_is_product_of_axis_values():
    mus = TwistVector.exact(6, [1, 5])
    alpha = (2, 3)
    want = negapolylog(2, mus.single(1)) * negapolylog(3, mus.single(2))
    assert monomial_sum(alpha, mus) == want


def test_mu_power():
    mus = TwistVector.exact(4, [1, 3])
    field = CyclotomicField.get(4)
    assert mu_power(mus, (1, 0)) == field.root(1)
    assert mu_power(mus, (1, 1)) == field.one
    assert mu_power(mus, (2, 1)) == field.root(1)
    assert mu_power(mus, (0, 0)) == field.one


_X = SparsePolynomial.variable(1, 1)
_EXACT = TwistVector.exact(5, [2])
_APPROX = TwistVector.approx([2.0])


@pytest.mark.parametrize("call", [
    lambda: _X.shift((1.7,)),
    lambda: _X.delta((1.7,)),
    lambda: SparsePolynomial(1, {(1.5,): 1}),
    lambda: TwistVector.exact(5, [1.7]),
    lambda: mu_power(_EXACT, (1.5,)),
    lambda: mu_power(_APPROX, (1.5,)),
    lambda: _EXACT.power_exponent((1.5,)),
    lambda: monomial_sum((1.5,), _EXACT),
    lambda: monomial_sum((rat(3, 2),), _APPROX),
], ids=["shift", "delta", "exponent", "twist_exponent", "mu_power_exact",
        "mu_power_approx", "power_exponent", "monomial_sum_exact",
        "monomial_sum_approx"])
def test_non_integral_exponents_and_shifts_are_refused(call):
    # truncating 1.7 to 1 would answer for another exponent or shift
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 60, 360])
def test_exact_mu_power_is_the_product_of_twist_powers(r):
    # root(e) is one folded slot and exact mu_power adds exponents; both
    # must match field products of the generator z = zeta_r
    import random

    from twistzeta.cyclotomic import CyclotomicElement

    field = CyclotomicField.get(r)
    if r <= 2:
        z = field.constant(1 if r == 1 else -1)
    else:
        z = CyclotomicElement(field, (0, 1) + (0,) * (field.degree - 2), 1)
    for e in range(-r, 2 * r + 1, max(1, r // 24)):
        assert field.root(e) == z ** (e % r), e
    if r == 1:
        return  # zeta_1 = 1 is no twist
    rng = random.Random(r)
    for _ in range(8):
        N = rng.randint(1, 3)
        mus = TwistVector.exact(r, [rng.randint(1, r - 1) for _ in range(N)])
        a = tuple(rng.randint(0, 5) for _ in range(N))
        want = field.one
        for n, an in enumerate(a, start=1):
            want = want * mus.mu(n) ** an
        assert mu_power(mus, a) == want, (mus, a)


def test_unit_twists_are_rejected():
    with pytest.raises(TwistIsOne):
        TwistVector.exact(2, [0])
    with pytest.raises(TwistIsOne):
        TwistVector.exact(4, [4])
    with pytest.raises(TwistIsOne):
        TwistVector.exact(3, [1, 3])
    with pytest.raises(TwistIsOne):
        TwistVector.approx([0.0])
    with pytest.raises(TwistIsOne):
        TwistVector.approx([2 * math.pi])


def test_eulerian_rejects_n_zero():
    mu = TwistVector.exact(2, [1]).single(1)
    with pytest.raises(ValueError):
        eulerian_negapolylog(0, mu)


def test_exact_scalar_helpers():
    mus = TwistVector.exact(4, [1, 3])
    field = CyclotomicField.get(4)
    assert mus.zero_scalar() == field.zero
    assert mus.one_scalar() == field.one
    assert mus.scale(field.root(1), rat(1, 2)) == field.root(1) * rat(1, 2)


def test_approx_scalar_helpers():
    mus = TwistVector.approx([math.pi])
    assert mus.zero_scalar() == 0j
    assert mus.one_scalar() == 1.0 + 0j
    assert abs(mus.mu(1) + 1.0) < 1e-12
    assert mus.scale(2 + 0j, rat(1, 2)) == 1 + 0j


def test_sub_preserves_mode_and_entries():
    mus = TwistVector.exact(6, [1, 2, 5])
    sub = mus.sub((1, 3))
    assert sub.mode == "exact"
    assert sub.exponents == (1, 5)
    approx = mus.to_approx()
    asub = approx.sub((2,))
    assert asub.mode == "approx"
    assert abs(asub.mu(1) - approx.mu(2)) < 1e-15


def test_to_approx_matches_embedding():
    mus = TwistVector.exact(6, [1, 5])
    approx = mus.to_approx()
    for n in (1, 2):
        exact_mu = mus.single(n).value().embed()
        assert abs(approx.mu(n) - exact_mu) < 1e-12


def test_twist_single_value():
    mus = TwistVector.exact(4, [3])
    tw = mus.single(1)
    assert isinstance(tw, Twist)
    assert tw.value() == CyclotomicField.get(4).root(3)


def test_canonical_text_distinguishes_vectors():
    a = TwistVector.exact(4, [1, 3])
    b = TwistVector.exact(4, [3, 1])
    assert a.canonical_text() != b.canonical_text()
    c = TwistVector.approx([1.0, 2.0])
    assert "angles" in c.canonical_text()


def test_negapolylog_cache_is_exposed():
    assert hasattr(negapolylog, "cache_clear")
    assert hasattr(eulerian_negapolylog, "cache_clear")
    # the memo keys on the Twist itself: an exponent shifted by the order
    # is another key with the same value, and a repeated call is a hit
    for r, e, n in ((5, 2, 3), (12, 7, 4), (7, -3, 2)):
        mu = Twist(mode="exact", order=r, exponent=e)
        value = negapolylog(n, mu)
        assert value == negapolylog(n, Twist("exact", r, e + r))
        hits = negapolylog.cache_info().hits
        assert negapolylog(n, Twist("exact", r, e)) is value
        assert negapolylog.cache_info().hits == hits + 1


def test_lincomb_dispatches_by_mode():
    exact = TwistVector.exact(6, [1, 5])
    approx = exact.to_approx()
    coefs = [rat(3, 4), -2, rat(-1, 3)]
    for mus, values in (
        (exact, [exact.mu(1), exact.mu(2), exact.one_scalar()]),
        (approx, [approx.mu(1), approx.mu(2), approx.mu(1) * 1e-17 + 0.3j]),
    ):
        for den in (1, 3):
            # approx mode must give the very doubles of scale() and +
            # applied in pair order
            want = mus.zero_scalar()
            for s, c in zip(values, coefs):
                want = want + mus.scale(s, c * rat(1, den))
            assert mus.lincomb(zip(values, coefs), den) == want
        assert mus.lincomb([]) == mus.zero_scalar()


def test_row_tables_grow_without_recursion():
    # operator_numerator, eulerian_row and abel's Stirling rows fill
    # their tables upward from the largest row held, so a first call far
    # beyond the interpreter's recursion limit costs no stack
    rows = {3: (1,)}
    top = _grow_rows(rows, 5000, lambda prev, m: (prev[0] + m,))
    assert top == (1 + sum(range(4, 5001)),)
    assert sorted(rows) == list(range(3, 5001))
    assert _grow_rows(rows, 10, None) == (1 + sum(range(4, 11)),)
