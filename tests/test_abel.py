"""Abel summation cross-check machinery.

The box mode is pinned against brute-force lattice sums; the closed
per-axis mode against the box mode where the tail is negligible; the
extrapolated limit against exact values embedded to floats.
"""

import itertools

import pytest

from twistzeta import TwistVector, ZetaInstance, abel
from twistzeta.abel import _li_neg, abel_estimate, abel_richardson, richardson
from twistzeta.closedform import closed_value
from twistzeta.engine import special_value
from twistzeta.errors import EngineError
from twistzeta.multipoly import SparsePolynomial


def _alt_1d():
    mus = TwistVector.exact(2, [1])
    return ZetaInstance(
        SparsePolynomial.one(1), (SparsePolynomial.variable(1, 1),), mus
    )


def test_richardson_recovers_polynomial_limits():
    # f(h) = 3 - 2h + 5h^2 sampled at h = 2^-j is resolved exactly
    f = lambda h: 3 - 2 * h + 5 * h * h
    values = [f(2.0 ** -j) for j in range(3, 8)]
    assert abs(richardson(values) - 3.0) < 1e-12


def test_richardson_validates_input():
    with pytest.raises(ValueError):
        richardson([])


def test_box_estimate_matches_brute_force():
    mus = TwistVector.exact(4, [1, 3])
    Q = SparsePolynomial.variable(2, 1)
    P = SparsePolynomial.variable(2, 1) + SparsePolynomial.variable(2, 2)
    inst = ZetaInstance(Q, (P,), mus)
    x = 0.75
    M = 30
    got = abel_estimate(inst, (1,), x, M)
    mu1 = mus.single(1).value().embed()
    mu2 = mus.single(2).value().embed()
    brute = 0j
    for m1, m2 in itertools.product(range(1, M + 1), repeat=2):
        w = (x * mu1) ** m1 * (x * mu2) ** m2
        brute += w * m1 * (m1 + m2)
    assert abs(got - brute) < 1e-9


def test_closed_axis_sums_match_large_boxes():
    # far from x = 1 the box converges quickly to the closed value
    inst = _alt_1d()
    x = 0.5
    closed = abel_estimate(inst, (2,), x)
    boxed = abel_estimate(inst, (2,), x, 200)
    assert abs(closed - boxed) < 1e-12


def test_li_neg_against_series():
    w = 0.3 - 0.4j
    for d in range(5):
        series = sum(w ** m * m ** d for m in range(1, 300))
        assert abs(_li_neg(d, w) - series) < 1e-12


def test_extrapolated_limit_hits_exact_values():
    inst = _alt_1d()
    for k, want in [((0,), -0.5), ((1,), -0.25), ((2,), 0.0), ((3,), 0.125)]:
        got = abel_richardson(inst, k)
        assert abs(got - want) < 1e-8


def test_extrapolated_limit_on_two_variables():
    mus = TwistVector.exact(4, [1, 3])
    Q = SparsePolynomial.variable(2, 1) + 1
    P = SparsePolynomial.variable(2, 1) + 2 * SparsePolynomial.variable(2, 2)
    inst = ZetaInstance(Q, (P,), mus)
    for k in [(0,), (1,), (2,)]:
        exact = special_value(inst, k).embed()
        assert abs(abel_richardson(inst, k) - exact) < 1e-6


def test_zero_numerator_is_zero():
    mus = TwistVector.exact(2, [1])
    inst = ZetaInstance(
        SparsePolynomial.zero(1), (SparsePolynomial.variable(1, 1),), mus
    )
    assert abel_estimate(inst, (4,), 0.9) == 0j


def test_x_range_is_validated():
    inst = _alt_1d()
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            abel_estimate(inst, (1,), bad)
    with pytest.raises(ValueError):
        abel_estimate(inst, (1,), 0.5, 0)


def test_approx_mode_instances_work_directly():
    import math

    mus = TwistVector.approx([math.pi])
    inst = ZetaInstance(
        SparsePolynomial.one(1), (SparsePolynomial.variable(1, 1),), mus
    )
    got = abel_richardson(inst, (1,))
    assert abs(got - (-0.25)) < 1e-8


def test_box_mode_misses_the_limit_near_one():
    # the documented failure: with x very close to 1 a 2e4 box drops a
    # tail that is far above the extrapolation tolerance
    inst = _alt_1d()
    x = 1 - 2.0 ** -12
    closed = abel_estimate(inst, (1,), x)
    boxed = abel_estimate(inst, (1,), x, 20000)
    assert abs(closed - boxed) > 1e-4


def test_richardson_expands_the_numerator_once(monkeypatch):
    mus = TwistVector.exact(4, [1, 3])
    P = SparsePolynomial(2, {(1, 0): 1, (0, 1): 2, (0, 0): 1})
    inst = ZetaInstance(SparsePolynomial.variable(2, 1), (P,), mus)
    calls = []
    expand = abel.expand_numerator

    def counting(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(abel, "expand_numerator", counting)
    js = (8, 9, 10, 11, 12)
    got = abel_richardson(inst, (3,), js)
    assert len(calls) == 1
    # the shared summation gives the very doubles of per-radius estimates
    assert got == richardson(
        [abel_estimate(inst, (3,), 1.0 - 2.0**-j) for j in js]
    )
