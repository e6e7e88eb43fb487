"""Cyclotomic field arithmetic.

Expected polynomial coefficients are the classical tables; field axioms
and inverses are property-checked on rational coordinates, with the
stored form (integer numerators over one reduced denominator) checked
after every operation; embeddings are compared against the complex
exponential they represent.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistzeta.cyclotomic import (
    CyclotomicElement,
    CyclotomicField,
    cyclotomic_polynomial,
)
from twistzeta.errors import DimensionMismatch, FieldMismatch, ZeroInverse
from twistzeta._rational import rat
from twistzeta.twists import TwistVector

# low-degree-first coefficient tuples
KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomial_table():
    for r, coeffs in KNOWN.items():
        assert cyclotomic_polynomial(r) == coeffs


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@pytest.mark.parametrize("r", list(range(1, 31)))
def test_product_over_divisors_is_xr_minus_one(r):
    prod = (1,)
    for d in range(1, r + 1):
        if r % d == 0:
            prod = _poly_mul_int(prod, cyclotomic_polynomial(d))
    expected = (-1,) + (0,) * (r - 1) + (1,)
    assert prod == expected


def test_degree_is_totient():
    totients = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 7: 6, 9: 6}
    for r, phi in totients.items():
        assert CyclotomicField.get(r).degree == phi


def test_fields_are_interned():
    assert CyclotomicField.get(6) is CyclotomicField.get(6)


def assert_canonical(x):
    """num is phi plain ints over one den > 0 sharing no factor with them;
    zero is stored over 1."""
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if x.is_zero:
        assert x.den == 1


rationals_st = st.builds(rat, st.integers(-9, 9), st.integers(1, 6))


def draw_element(data, field):
    cs = data.draw(
        st.lists(rationals_st, min_size=field.degree, max_size=field.degree)
    )
    x = field.element(cs)
    assert x.coords == tuple(cs)
    assert_canonical(x)
    return x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 8, 12]), st.data())
def test_ring_axioms(r, data):
    field = CyclotomicField.get(r)
    x, y, z = (draw_element(data, field) for _ in range(3))
    q = data.draw(rationals_st)
    xy_z, x_yz = (x + y) + z, x + (y + z)
    xy_z_mul, x_yz_mul = (x * y) * z, x * (y * z)
    left, right = x * (y + z), x * y + x * z
    for value in (x + y, x - y, x * y, x * q, q - x, -x, xy_z, x_yz,
                  xy_z_mul, x_yz_mul, left, right, x - x, x * 0):
        assert_canonical(value)
    assert xy_z == x_yz
    assert x + y == y + x
    assert xy_z_mul == x_yz_mul
    assert x * y == y * x
    assert left == right
    assert x + field.zero == x
    assert x * field.one == x
    assert x - x == field.zero == x * 0
    # rational operations agree coordinate by coordinate with Fractions
    assert (x + y).coords == tuple(a + b for a, b in zip(x.coords, y.coords))
    assert (x - y).coords == tuple(a - b for a, b in zip(x.coords, y.coords))
    assert (x * q).coords == tuple(a * q for a in x.coords)
    assert (q * x) == (x * q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 6, 8, 12, 60, 120]), st.data())
def test_inverse_property(r, data):
    field = CyclotomicField.get(r)
    x = draw_element(data, field)
    if x.is_zero:
        with pytest.raises(ZeroInverse):
            x.inverse()
    else:
        inv = x.inverse()
        assert_canonical(inv)
        assert x * inv == field.one
        # at phi = 32 the inverse has ~280-bit coordinates, and inverting
        # it back takes ~0.4 s of elimination on ~9000-bit minors
        if field.degree <= 16:
            assert inv.inverse() == x


def test_inverse_of_a_dense_element_at_r_360():
    # phi = 96 with every coordinate nonzero: the widest elimination
    field = CyclotomicField.get(360)
    rng = random.Random(360)
    num = [rng.choice([-1, 1]) * rng.randint(1, 15) for _ in range(96)]
    x = field.element([Fraction(c, 7) for c in num])
    inv = x.inverse()
    assert_canonical(inv)
    assert x * inv == field.one


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 12]), st.data())
def test_hash_agrees_with_equality(r, data):
    field = CyclotomicField.get(r)
    x, y = draw_element(data, field), draw_element(data, field)
    # the same value reached by two routes is one dict key
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)
    assert hash(x * 2 * rat(1, 2)) == hash(x)
    c = data.draw(rationals_st)
    assert field.constant(c) == c
    assert hash(field.constant(c) + x - x) == hash(field.constant(c))


def _fraction_product(xs, ys, modulus):
    """Schoolbook product of two Fraction coordinate vectors, reduced by
    long division by the monic modulus (low degree first)."""
    phi = len(modulus) - 1
    conv = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i + j] += x * y
    for i in range(len(conv) - 1, phi - 1, -1):
        c = conv[i]
        for t in range(phi + 1):
            conv[i - phi + t] -= c * modulus[t]
    return tuple(conv[:phi])


@pytest.mark.parametrize("r", [5, 12, 60])
def test_field_product_matches_fraction_kernel(r):
    # the element product runs cyclo_mul on integer numerators (packed
    # from phi = 16, so r = 60 takes that path); a schoolbook product on
    # Fraction coordinates is the oracle
    field = CyclotomicField.get(r)
    rng = random.Random(r)
    for _ in range(20):
        xs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                   for _ in range(field.degree))
        ys = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                   for _ in range(field.degree))
        got = field.element(xs) * field.element(ys)
        want = _fraction_product(xs, ys, field.modulus)
        assert_canonical(got)
        assert got.coords == want


def test_canonical_form_of_special_elements():
    field = CyclotomicField.get(12)
    for x in (field.zero, field.one, field.root(5), field.constant(rat(-4, 6)),
              field.constant(rat(3, 9)) * 3 - 1):
        assert_canonical(x)
    assert field.constant(rat(-4, 6)).num == (-2, 0, 0, 0)
    assert field.constant(rat(-4, 6)).den == 3
    assert (field.constant(rat(3, 9)) * 3 - 1).den == 1


def test_root_powers_cycle():
    for r in (2, 3, 4, 6, 8, 12):
        field = CyclotomicField.get(r)
        z = field.root(1)
        assert z ** r == field.one
        for j in range(1, r):
            assert z ** j != field.one
        assert field.root(r + 3) == field.root(3)


def test_root_inverse_is_negative_power():
    field = CyclotomicField.get(12)
    z = field.root(1)
    assert z ** -1 == field.root(11)
    assert z ** -5 == field.root(7)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 9, 12, 60, 120, 360])
def test_inverse_one_minus_root_property(r):
    # every e in 1..r-1, units and non-units alike: (1 - zeta^e) x == 1
    field = CyclotomicField.get(r)
    one, z = field.one, field.root(1)
    w = one
    for e in range(1, r):
        w = w * z
        x = field.inverse_one_minus_root(e)
        assert_canonical(x)
        assert (one - w) * x == one
        assert field.inverse_one_minus_root(e + r) is x


# every e up to r = 120 (phi = 32); a fixed sample at 360 (phi = 96),
# where each eliminated inverse takes tens of milliseconds
INVERSE_CASES = [
    (r, e) for r in (2, 3, 4, 5, 6, 9, 12, 60, 120) for e in range(1, r)
]
INVERSE_CASES += [(360, e) for e in (1, 77, 120, 180, 359)]


def test_inverse_one_minus_root_matches_general_inverse():
    # the root-of-unity identity against CyclotomicElement.inverse
    for r, e in INVERSE_CASES:
        field = CyclotomicField.get(r)
        want = (field.one - field.root(e)).inverse()
        assert field.inverse_one_minus_root(e) == want, (r, e)


@pytest.mark.parametrize("r", [2, 5, 12])
def test_inverse_one_minus_root_powers(r):
    field = CyclotomicField.get(r)
    for e in range(1, r):
        x = field.inverse_one_minus_root(e)
        assert field.inverse_one_minus_root(e, 0) == field.one
        assert field.inverse_one_minus_root(e, 1) is x
        # asking out of order grows the same memoized list
        assert field.inverse_one_minus_root(e, 7) == x**7
        assert field.inverse_one_minus_root(e, 3) == x * x * x
        assert field.inverse_one_minus_root(e, 7) == (
            field.one - field.root(e)
        ) ** -7
        with pytest.raises(ValueError):
            field.inverse_one_minus_root(e, -1)


@pytest.mark.parametrize("r", [1, 2, 12])
def test_inverse_one_minus_root_of_one_is_refused(r):
    field = CyclotomicField.get(r)
    for e in (0, r, -r, 3 * r):
        with pytest.raises(ZeroInverse):
            field.inverse_one_minus_root(e)


def test_embed_matches_complex_exponential():
    for r in (2, 3, 4, 5, 6, 8, 12):
        field = CyclotomicField.get(r)
        for e in range(r):
            got = field.root(e).embed()
            want = cmath.exp(2j * math.pi * e / r)
            assert abs(got - want) < 1e-12


def test_embed_is_homomorphism():
    field = CyclotomicField.get(12)
    x = field.root(5) + field.constant(rat(1, 3))
    y = field.root(7) * 2 - field.one
    assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-12
    assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-12


def test_scalar_lifting_and_equality():
    field = CyclotomicField.get(4)
    assert field.constant(3) == 3
    assert field.constant(rat(1, 2)) == rat(1, 2)
    assert field.root(1) != CyclotomicField.get(3).root(1)
    x = field.root(1) + 1
    assert hash(x) == hash(field.root(1) + field.one)


def test_cross_field_operations_fail():
    a = CyclotomicField.get(4).root(1)
    b = CyclotomicField.get(3).root(1)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b


def test_element_rejects_wrong_length():
    field = CyclotomicField.get(4)
    with pytest.raises(DimensionMismatch):
        field.element([rat(1, 1)] * 3)


def test_float_coefficients_are_refused():
    x = CyclotomicField.get(4).root(1)
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        x * 1.5


@pytest.mark.parametrize("bad", [0.1, 2.0, 1j, complex(1, 0)])
def test_constructors_refuse_float_and_complex(bad):
    field = CyclotomicField.get(4)
    with pytest.raises(TypeError):
        field.element([bad, rat(1, 1)])
    with pytest.raises(TypeError):
        field.element([rat(1, 1), bad])
    with pytest.raises(TypeError):
        field.constant(bad)


def test_str_rendering():
    field = CyclotomicField.get(4)
    assert str(field.constant(rat(-1, 2))) == "-1/2"
    assert str(field.zero) == "0"
    z = field.root(1)
    text = str(field.one + z + z)
    assert "z" in text


def test_element_is_hashable_dict_key():
    field = CyclotomicField.get(6)
    seen = {field.root(1): "a", field.root(2): "b"}
    assert seen[field.root(7)] == "a"


# 0 stands for the zero operand, which is stored over 1
_DENS = [0, 1, 2, 3, 4, 6, 9, 10, 12]


@st.composite
def operands(draw, field, den):
    """An element whose stored den is exactly den (zero for den 0): the
    first numerator is +-1, so no factor of den cancels."""
    if not den:
        return field.zero
    first = draw(st.sampled_from([-1, 1]))
    rest = draw(
        st.lists(st.integers(-20, 20), min_size=field.degree - 1,
                 max_size=field.degree - 1)
    )
    x = field.element([Fraction(n, den) for n in [first] + rest])
    assert x.den == den
    return x


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 5, 12]), st.sampled_from(_DENS),
       st.sampled_from(_DENS), st.data())
def test_sums_are_canonical_coordinatewise_fraction_sums(r, dx, dy, data):
    # zero operands and equal, coprime and shared-factor denominators,
    # element + element, exact scalar +- element and element times exact
    # scalar, where c's numerator may cancel against x's denominator and
    # its denominator against x's numerators
    field = CyclotomicField.get(r)
    x = data.draw(operands(field, dx))
    y = data.draw(operands(field, dy))
    c = data.draw(st.one_of(
        st.integers(-5, 5),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_DENS[1:])),
    ))
    lifted = (Fraction(c),) + (Fraction(0),) * (field.degree - 1)
    for got, want in (
        (x + y, [a + b for a, b in zip(x.coords, y.coords)]),
        (x - y, [a - b for a, b in zip(x.coords, y.coords)]),
        (c + x, [a + b for a, b in zip(lifted, x.coords)]),
        (c - x, [a - b for a, b in zip(lifted, x.coords)]),
        (x * c, [a * c for a in x.coords]),
        (c * x, [c * a for a in x.coords]),
        # every numerator a multiple of 6, against c's denominator
        (x * 6 * c, [a * 6 * c for a in x.coords]),
    ):
        assert_canonical(got)
        assert list(got.coords) == want


coefficients_st = st.one_of(st.integers(-6, 6), rationals_st)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 5, 12]), st.data())
def test_lincomb_matches_sequential_scale_and_sum(r, data):
    # the exact branch of TwistVector.lincomb
    field = CyclotomicField.get(r)
    mus = TwistVector.exact(r, [1])
    n = data.draw(st.integers(0, 6))
    xs = [draw_element(data, field) for _ in range(n)]
    cs = [data.draw(coefficients_st) for _ in range(n)]
    den = data.draw(st.integers(1, 12))
    want = field.zero
    for x, c in zip(xs, cs):
        want = want + x * c
    want = want * rat(1, den)
    got = mus.lincomb(zip(xs, cs), den)
    assert_canonical(got)
    assert got == want
    assert got.coords == want.coords


@pytest.mark.parametrize("r", [2, 5, 12])
def test_lincomb_edge_cases(r):
    field = CyclotomicField.get(r)
    mus = TwistVector.exact(r, [1])
    x = field.root(1) + rat(2, 3)
    y = field.root(r - 1) * rat(-5, 4)
    cases = [
        ([], 1, field.zero),
        ([], 7, field.zero),
        ([(x, 0), (y, rat(0, 5))], 3, field.zero),
        ([(field.zero, 4), (field.zero, rat(1, 3))], 2, field.zero),
        ([(x, 1), (x, -1)], 5, field.zero),
        ([(x, 3), (y, rat(1, 6)), (x, rat(-7, 2))], 4,
         (x * 3 + y * rat(1, 6) + x * rat(-7, 2)) * rat(1, 4)),
        ([(y, 2)], 1, y * 2),
    ]
    for pairs, den, want in cases:
        got = mus.lincomb(pairs, den)
        assert_canonical(got)
        assert got == want


def test_lincomb_refuses_other_fields_and_floats():
    field = CyclotomicField.get(5)
    mus = TwistVector.exact(5, [1])
    with pytest.raises(FieldMismatch):
        mus.lincomb([(CyclotomicField.get(4).one, 1)])
    with pytest.raises(TypeError):
        mus.lincomb([(field.one, 0.5)])


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 9, 12, 60])
def test_root_sum_matches_field_products(r):
    # sum_i c_i zeta^(e i) from one folded vector against the same sum
    # built by field products, for every e mod r (and e outside 0..r-1),
    # with coefficient lists shorter and longer than r
    field = CyclotomicField.get(r)
    rng = random.Random(r)
    for e in list(range(r)) + [r + 1, -1, 3 * r - 2]:
        z = field.root(e)
        for length in (0, 1, r // 2 + 1, 2 * r + 3):
            coeffs = [rng.randint(-40, 40) for _ in range(length)]
            want = field.zero
            w = field.one
            for c in coeffs:
                want = want + w * c
                w = w * z
            got = field.root_sum(coeffs, e)
            assert_canonical(got)
            assert got == want, (e, coeffs)
