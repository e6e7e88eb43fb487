"""The pure Python kernels against brute-force evaluation, and the
packed (Kronecker substitution) products against the schoolbook loops
they replace above their thresholds."""

import cmath
import contextlib
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistzeta import _kernels_py
from twistzeta._backend import BACKEND, kernels
from twistzeta.cyclotomic import CyclotomicField


def _random_terms(rng, nvars, nterms, maxexp=4):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxexp + 1) for _ in range(nvars))
        out[e] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
    return out


def _eval_terms(terms, point):
    total = Fraction(0)
    for e, c in terms.items():
        v = c
        for x, d in zip(point, e):
            v *= Fraction(x) ** d
        total += v
    return total


def test_mul_terms_matches_brute_force():
    rng = random.Random(102)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        A = _random_terms(rng, nvars, rng.randint(1, 5))
        B = _random_terms(rng, nvars, rng.randint(1, 5))
        got = _kernels_py.mul_terms(A, B)
        point = tuple(rng.randint(-3, 3) for _ in range(nvars))
        assert _eval_terms(got, point) == (
            _eval_terms(A, point) * _eval_terms(B, point)
        )


def test_shift_terms_is_translation():
    rng = random.Random(104)
    for _ in range(25):
        nvars = rng.randint(1, 3)
        A = _random_terms(rng, nvars, rng.randint(1, 5))
        a = tuple(rng.randrange(4) for _ in range(nvars))
        shifted = _kernels_py.shift_terms(A, a)
        point = tuple(rng.randint(-3, 3) for _ in range(nvars))
        moved = tuple(x + d for x, d in zip(point, a))
        assert _eval_terms(shifted, point) == _eval_terms(A, moved)


def test_shift_by_zero_keeps_the_table():
    A = {(1, 2): Fraction(3, 2), (0, 0): Fraction(-1)}
    out = _kernels_py.shift_terms(A, (0, 0))
    assert out == A and out is not A  # contract: arguments stay untouched


def test_cyclo_mul_respects_the_embedding():
    rng = random.Random(106)
    for order in (3, 4, 5, 8, 12):
        field = CyclotomicField.get(order)
        phi = field.degree
        zeta = cmath.exp(2j * cmath.pi / order)

        def emb(coords):
            return sum(float(c) * zeta ** i for i, c in enumerate(coords))

        for _ in range(10):
            xs = tuple(rng.randint(-5, 5) for _ in range(phi))
            ys = tuple(rng.randint(-5, 5) for _ in range(phi))
            out = _kernels_py.cyclo_mul(xs, ys, field.taps)
            assert len(out) == phi
            assert abs(emb(out) - emb(xs) * emb(ys)) < 1e-9


def test_power_sums_box_matches_direct_sum():
    w = 0.5 * cmath.exp(2j)
    sums = _kernels_py.power_sums_box(w.real, w.imag, 30, 3)
    for d in range(4):
        direct = sum(w ** m * m ** d for m in range(1, 31))
        assert abs(sums[d] - direct) < 1e-12


def test_backend_reports_a_known_name():
    assert BACKEND == "py" and kernels is _kernels_py


@contextlib.contextmanager
def _schoolbook():
    """Both products on their schoolbook loops at every size."""
    saved = _kernels_py.KS_MIN_PRODUCTS, _kernels_py.KS_MIN_PAIRS
    _kernels_py.KS_MIN_PRODUCTS = _kernels_py.KS_MIN_PAIRS = 10 ** 9
    try:
        yield
    finally:
        _kernels_py.KS_MIN_PRODUCTS, _kernels_py.KS_MIN_PAIRS = saved


def _reference_field_product(xs, ys, modulus):
    """The plain convolution, then long division by the whole modulus."""
    phi = len(xs)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i + j] += x * y
    for i in range(len(conv) - 1, phi - 1, -1):
        c = conv[i]
        for t, m in enumerate(modulus):
            conv[i - phi + t] -= c * m
    return tuple(conv[:phi])


# +-(2^(8 w - 1) - 1) and +-2^(8 w - 1): the edges of w-byte slots
_SLOT_EDGES = [
    sign * (2 ** (8 * w - 1) - d)
    for w in (1, 2, 4, 8) for d in (0, 1) for sign in (1, -1)
]

# signed ints from a few bits up to 300 bits per operand
_COEFFICIENT_RANGES = (
    st.integers(-9, 9),
    st.integers(-(2 ** 20), 2 ** 20),
    st.integers(-(2 ** 70), 2 ** 70),
    st.integers(2 ** 200, 2 ** 300).map(lambda n: -n),
    st.sampled_from(_SLOT_EDGES),
)
_coefficients = st.one_of(*_COEFFICIENT_RANGES)


@st.composite
def _field_operands(draw):
    # phi = 1, 2, 16, 32, 48, 96; phi(17) = 16 has a dense modulus and
    # Phi_105 the coefficient -2
    order = draw(st.sampled_from([2, 3, 4, 17, 60, 105, 120, 360]))
    phi = CyclotomicField.get(order).degree
    vectors = []
    for _ in range(2):
        # one size class per operand, so that word-sized slots and the
        # packed reduction are reached as often as the wide slots
        coefficients = draw(st.sampled_from(_COEFFICIENT_RANGES))
        shape = draw(st.sampled_from(["dense", "mid", "zero", "single"]))
        vec = [0] * phi
        if shape == "dense":
            vec = draw(st.lists(coefficients, min_size=phi, max_size=phi))
        elif shape == "mid":
            count = draw(st.integers(min(2, phi), max(2, phi // 2)))
            where = draw(st.permutations(range(phi)))[:count]
            for i in where:
                vec[i] = draw(coefficients)
        elif shape == "single":
            vec[draw(st.integers(0, phi - 1))] = draw(coefficients)
        vectors.append(tuple(vec))
    return order, vectors[0], vectors[1]


@settings(max_examples=200, deadline=None)
@given(_field_operands())
@example((60, (2 ** 300,) * 16, (-(2 ** 300),) * 16))  # phi = 16, 301 bits
@example((105, (2 ** 63 - 1,) * 48, (-(2 ** 63),) * 48))
@example((360, (0, 1) + (0,) * 94, (1 - 2 ** 7,) * 96))  # a root of unity
def test_packed_field_product_equals_schoolbook(case):
    order, xs, ys = case
    field = CyclotomicField.get(order)
    got = _kernels_py.cyclo_mul(xs, ys, field.taps)
    with _schoolbook():
        want = _kernels_py.cyclo_mul(xs, ys, field.taps)
    assert want == _reference_field_product(xs, ys, field.modulus)
    assert got == want and type(got) is tuple
    assert all(type(c) is int for c in got)


def test_packed_reduction_at_the_edges_of_its_slot():
    # equal operands 2^b - 1 give the largest products and the largest
    # growth in the reduction, and b = 1..30 puts the widened slot at
    # each word boundary in turn
    for order in (17, 60, 105, 360):
        field = CyclotomicField.get(order)
        for b in range(1, 31):
            xs = (2 ** b - 1,) * field.degree
            for ys in (xs, tuple(-c for c in xs)):
                assert _kernels_py.cyclo_mul(xs, ys, field.taps) == (
                    _reference_field_product(xs, ys, field.modulus))


def test_pack_round_trips_at_the_slot_edges():
    for w in (1, 2, 4, 8):
        edge = 2 ** (8 * w - 1)
        inside = [edge - 1, 1 - edge, -edge, 0, 1, -1]
        assert list(_kernels_py._unpack(_kernels_py._pack(inside, w),
                                        len(inside), w)) == inside
        both = inside + [edge]
        wb = _kernels_py._slot_bytes(edge.bit_length())
        assert wb == {1: 2, 2: 4, 4: 8, 8: 9}[w]
        assert list(_kernels_py._unpack(_kernels_py._pack(both, wb),
                                        len(both), wb)) == both


@st.composite
def _term_tables(draw):
    # each table is a random subset of a box of at most 64 exponents, so
    # products run from a single pair to about a thousand
    nvars = draw(st.integers(1, 3))
    side = draw(st.sampled_from({1: [3, 64], 2: [3, 8], 3: [2, 4]}[nvars]))
    box = [()]
    for _ in range(nvars):
        box = [e + (i,) for e in box for i in range(side)]
    tables = []
    for _ in range(2):
        shape = draw(st.sampled_from(["subset"] * 4 + ["single", "empty"]))
        if shape == "subset":
            mask = draw(st.lists(st.booleans(), min_size=len(box),
                                 max_size=len(box)))
            keys = [e for e, keep in zip(box, mask) if keep]
        else:
            keys = [draw(st.sampled_from(box))] if shape == "single" else []
        coefs = draw(st.lists(_coefficients.filter(bool), min_size=len(keys),
                              max_size=len(keys)))
        tables.append(dict(zip(keys, coefs)))
    return tables


@settings(max_examples=150, deadline=None)
@given(_term_tables())
@example([{(e,): 3 ** e for e in range(20)}, {(e,): -1 for e in range(20)}])
@example([{(e,): e + 1 for e in range(300)}, {(0,): 5}])
def test_packed_term_product_equals_schoolbook(tables):
    A, B = tables
    got = _kernels_py.mul_terms(A, B)
    with _schoolbook():
        want = _kernels_py.mul_terms(A, B)
    assert got == want
    # the ordered product keeps the schoolbook's key order at every size
    assert list(_kernels_py.mul_terms(A, B, ordered=True)) == list(want)


def test_packed_term_product_comes_out_sorted():
    A = {(e, 4 - e): e - 7 for e in range(5)}
    B = {(i, j): i * j + 1 for i in range(8) for j in range(8)}
    assert len(A) * len(B) >= _kernels_py.KS_MIN_PAIRS
    out = _kernels_py.mul_terms(A, B)
    assert list(out) == sorted(out)
    with _schoolbook():
        want = _kernels_py.mul_terms(A, B)
    assert out == want and list(out) != list(want)


def _refuse(*args):
    raise AssertionError("packed product called below its threshold")


class _Uncounted(tuple):
    """A coordinate tuple whose nonzeros must not be counted."""

    def count(self, value):
        raise AssertionError("zeros counted in a small field")


def test_dispatch_stays_schoolbook_below_the_thresholds(monkeypatch):
    monkeypatch.setattr(_kernels_py, "_packed_cyclo", _refuse)
    monkeypatch.setattr(_kernels_py, "_packed_terms", _refuse)
    rng = random.Random(108)
    # phi^2 below the threshold: no nonzero count at all
    for order in (2, 3, 4, 5, 7, 12):  # phi = 1 .. 6
        field = CyclotomicField.get(order)
        xs = _Uncounted(rng.randint(-9, 9) for _ in range(field.degree))
        want = _reference_field_product(xs, xs, field.modulus)
        assert _kernels_py.cyclo_mul(xs, xs, field.taps) == want
    # fewer than KS_MIN_PRODUCTS products of nonzero coordinates
    dense16 = tuple(rng.randint(1, 9) for _ in range(16))
    sparse16 = (0, 5, 0, 0, -3) + (0,) * 11
    root96 = (0,) * 41 + (-1,) + (0,) * 54
    half96 = tuple(rng.randint(1, 9) if i % 2 else 0 for i in range(96))
    for order, xs, ys in ((60, dense16, sparse16), (17, sparse16, dense16),
                          (360, root96, half96[:63] + (0,) * 33),
                          (360, half96, root96), (360, root96, root96)):
        nx = len(xs) - xs.count(0)
        ny = len(ys) - ys.count(0)
        assert nx * ny < _kernels_py.KS_MIN_PRODUCTS
        field = CyclotomicField.get(order)
        assert _kernels_py.cyclo_mul(xs, ys, field.taps) == (
            _reference_field_product(xs, ys, field.modulus))
    A = {(e,): e + 1 for e in range(15)}
    B = {(e,): 2 for e in range(17)}
    assert len(A) * len(B) < _kernels_py.KS_MIN_PAIRS
    _kernels_py.mul_terms(A, B)
    big = {(e,): 1 for e in range(40)}
    _kernels_py.mul_terms(big, big, ordered=True)


def test_dispatch_falls_back_where_packing_loses(monkeypatch):
    returned = []

    def spy(*args):
        out = packed_terms(*args)
        returned.append(out is not None)
        return out

    packed_terms = _kernels_py._packed_terms
    monkeypatch.setattr(_kernels_py, "_packed_terms", spy)
    # a long table times a binomial: about as many slots as pairs
    _kernels_py.mul_terms({(e,): 1 for e in range(200)}, {(0,): 1, (1,): 1})
    _kernels_py.mul_terms({(e,): 1 for e in range(20)},
                          {(e,): 1 for e in range(20)})
    assert returned == [False, True]


def test_field_products_pack_from_the_threshold(monkeypatch):
    calls = []

    def spy(xs, ys, taps, terms):
        calls.append((len(xs), terms))
        return packed_cyclo(xs, ys, taps, terms)

    packed_cyclo = _kernels_py._packed_cyclo
    monkeypatch.setattr(_kernels_py, "_packed_cyclo", spy)
    large = (2 ** 1000,) * 16
    eight = (3, 0) * 8
    root96 = (0,) * 95 + (7,)
    cases = ((60, (3,) * 16, (3,) * 16), (60, large, large),
             (60, eight, eight), (120, large + large, large + large),
             (360, root96, (1,) * 64 + (0,) * 32))
    for order, xs, ys in cases:
        field = CyclotomicField.get(order)
        assert _kernels_py.cyclo_mul(xs, ys, field.taps) == (
            _reference_field_product(xs, ys, field.modulus))
    assert calls == [(16, 16), (16, 16), (16, 8), (32, 32), (96, 1)]
