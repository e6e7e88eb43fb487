"""The pure Python kernels against brute-force evaluation."""

import cmath
import random
from fractions import Fraction

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
            xs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(phi))
            ys = tuple(Fraction(rng.randint(-5, 5)) for _ in range(phi))
            out = _kernels_py.cyclo_mul(xs, ys, field.reduction_rows)
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
