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
    saved = _kernels_py.KS_MIN_PHI, _kernels_py.KS_MIN_PAIRS
    _kernels_py.KS_MIN_PHI = _kernels_py.KS_MIN_PAIRS = 10 ** 9
    try:
        yield
    finally:
        _kernels_py.KS_MIN_PHI, _kernels_py.KS_MIN_PAIRS = saved


# signed ints from a few bits up to 300 bits per operand
_coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2 ** 70), 2 ** 70),
    st.integers(2 ** 200, 2 ** 300).map(lambda n: -n),
)


@st.composite
def _field_operands(draw):
    # phi = 1, 2, 16, 32, 96; phi(17) = 16 has a dense modulus
    order = draw(st.sampled_from([2, 3, 4, 17, 60, 120, 360]))
    phi = CyclotomicField.get(order).degree
    shape = draw(st.sampled_from(["dense", "zero", "single"]))
    vectors = []
    for _ in range(2):
        if shape == "dense":
            vec = draw(st.lists(_coefficients, min_size=phi, max_size=phi))
        else:
            vec = [0] * phi
            if shape == "single":
                vec[draw(st.integers(0, phi - 1))] = draw(_coefficients)
        vectors.append(tuple(vec))
    return order, vectors[0], vectors[1]


@settings(max_examples=150, deadline=None)
@given(_field_operands())
@example((60, (2 ** 300,) * 16, (-(2 ** 300),) * 16))  # phi = 16, 301 bits
def test_packed_field_product_equals_schoolbook(case):
    order, xs, ys = case
    taps = CyclotomicField.get(order).taps
    got = _kernels_py.cyclo_mul(xs, ys, taps)
    with _schoolbook():
        want = _kernels_py.cyclo_mul(xs, ys, taps)
    assert got == want and all(type(c) is int for c in got)


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


def test_dispatch_stays_schoolbook_below_the_thresholds(monkeypatch):
    monkeypatch.setattr(_kernels_py, "_packed_conv", _refuse)
    monkeypatch.setattr(_kernels_py, "_packed_terms", _refuse)
    rng = random.Random(108)
    for order in (2, 3, 4, 5, 12, 15, 44):  # phi = 1 .. 20, all below 16
        field = CyclotomicField.get(order)
        phi = field.degree
        if phi >= _kernels_py.KS_MIN_PHI:
            continue
        xs = tuple(rng.randint(-9, 9) for _ in range(phi))
        _kernels_py.cyclo_mul(xs, xs, field.taps)
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

    def spy(xs, ys):
        calls.append(len(xs))
        return packed_conv(xs, ys)

    packed_conv = _kernels_py._packed_conv
    monkeypatch.setattr(_kernels_py, "_packed_conv", spy)
    large = (2 ** 1000,) * 16
    for order, xs in ((60, (3,) * 16), (60, large), (120, large + large)):
        _kernels_py.cyclo_mul(xs, xs, CyclotomicField.get(order).taps)
    assert calls == [16, 16, 32]
