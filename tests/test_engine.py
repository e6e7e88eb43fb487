"""The shift-and-difference engine.

The independent oracle for values is the closed product formula; the
structural checks (signed boundary faces, shift policies, recursion
bookkeeping) are validated against finite lattice sums and hand-built
cases.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from twistzeta import (
    PointTerm,
    Restricted,
    ShiftVector,
    StructuredQuadratic,
    TwistVector,
    ValueCache,
    ZetaInstance,
    boundary_decompose,
    choose_shift,
    linear_special_value,
    quadratic_delta,
    quadratic_special_value,
    special_value,
)
from twistzeta import _kernels_py
from twistzeta._rational import rat
from twistzeta.closedform import closed_value
from twistzeta.cyclotomic import CyclotomicElement, CyclotomicField
from twistzeta.errors import (
    ApproxIllConditioned,
    DependencyConditionViolated,
    DimensionMismatch,
    EngineError,
    MuPowerIsOne,
    NotLinearForm,
    OrthogonalityViolated,
)
from twistzeta.multipoly import SparsePolynomial
from twistzeta.twists import negapolylog

from _support import (
    box_partition_holds,
    ks_up_to,
    oracle_corpus,
    random_instance,
    random_valid_shift,
    term_value,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _alt_1d():
    mus = TwistVector.exact(2, [1])
    return ZetaInstance(
        SparsePolynomial.one(1), (SparsePolynomial.variable(1, 1),), mus
    )


def test_hand_unrolled_value():
    # (1 - mu) Z(-1) = mu Z(-0) + mu * 1 with mu = -1 and Z(-0) = -1/2
    inst = _alt_1d()
    field = CyclotomicField.get(2)
    assert special_value(inst, (0,)) == field.constant(rat(-1, 2))
    assert special_value(inst, (1,)) == field.constant(rat(-1, 4))


def test_zero_numerator_is_zero():
    mus = TwistVector.exact(4, [1, 1])
    inst = ZetaInstance(
        SparsePolynomial.zero(2),
        (SparsePolynomial.variable(2, 1) + 1,),
        mus,
    )
    assert special_value(inst, (5,)) == mus.zero_scalar()


def test_zero_numerator_still_validates_an_explicit_shift():
    # Q = 0 has the value zero, but an explicit shift is checked first
    X1, X2 = (SparsePolynomial.variable(2, i) for i in (1, 2))
    mus = TwistVector.exact(4, [1, 2])
    inst = ZetaInstance(SparsePolynomial.zero(2), (X1 + X2 + 1,), mus)
    zero = mus.zero_scalar()
    assert special_value(inst, (1,)) == zero
    assert special_value(inst, (1,), shift=(1, 1)) == zero
    with pytest.raises(MuPowerIsOne):
        special_value(inst, (1,), shift=(2, 1))
    with pytest.raises(DimensionMismatch):
        special_value(inst, (1,), shift=(1, 2, 3))
    # the shift (1, 0) has mu^a away from 1, but mu_2 lies within the
    # approx tolerance of 1, which refuses the series under any explicit
    # shift; the default shift resolves nothing for Q = 0
    mus = TwistVector.approx([2.0, 1e-9])
    inst = ZetaInstance(SparsePolynomial.zero(2), (X1 + X2 + 1,), mus)
    assert special_value(inst, (1,)) == mus.zero_scalar()
    with pytest.raises(ApproxIllConditioned) as info:
        special_value(inst, (1,), shift=(1, 0))
    assert info.value.twists == (2,)


def test_oracle_agreement_on_random_instances():
    for inst in oracle_corpus(1105, 25):
        session = ValueCache()
        for k in itertools.product(range(3), repeat=inst.nfactors):
            got = special_value(inst, k, cache=session)
            want = closed_value(inst.Q, inst.Ps, k, inst.mus)
            assert got == want, (inst.canonical_text(), k)


def test_oracle_agreement_on_wider_twist_orders():
    # phi(r) in {4, 6}: field products the {2, 3, 4, 6} corpora never reach
    orders = (5, 7, 8, 9, 12)
    corpus = oracle_corpus(4405, 40, orders=orders)
    assert {inst.mus.order for inst in corpus} == set(orders)
    for inst in corpus:
        session = ValueCache()
        for k in itertools.product(range(4), repeat=inst.nfactors):
            got = special_value(inst, k, cache=session)
            want = closed_value(inst.Q, inst.Ps, k, inst.mus)
            assert got == want, (inst.canonical_text(), k)


def test_linearity_in_q():
    rng = random.Random(17)
    from _support import random_polynomial, random_twists

    for _ in range(10):
        N = rng.choice([1, 2])
        mus = random_twists(rng, N)
        A = random_polynomial(rng, N)
        B = random_polynomial(rng, N)
        P = random_polynomial(rng, N)
        k = (rng.randint(0, 3),)
        c = rat(rng.randint(1, 5), rng.randint(1, 3))
        session = ValueCache()
        lhs = special_value(
            ZetaInstance(A * c + B, (P,), mus), k, cache=session
        )
        va = special_value(ZetaInstance(A, (P,), mus), k, cache=session)
        vb = special_value(ZetaInstance(B, (P,), mus), k, cache=session)
        assert lhs == mus.scale(va, c) + vb


def test_shift_independence_explicit_vectors():
    rng = random.Random(23)
    for inst in oracle_corpus(2205, 10):
        k = tuple(
            rng.randint(0, 2) for _ in range(inst.nfactors)
        )
        session = ValueCache()
        base = special_value(inst, k, cache=session)
        for _ in range(4):
            a = random_valid_shift(rng, inst.mus)
            assert special_value(inst, k, shift=a, cache=session) == base
        try:
            choose_shift(inst.mus, "all-ones")
        except MuPowerIsOne:
            continue
        assert (
            special_value(inst, k, shift="all-ones", cache=session) == base
        )


def test_explicit_shift_skips_top_level_cache():
    inst = _alt_1d()
    session = ValueCache()
    v = special_value(inst, (2,), cache=session)
    key = session.value_key(inst, (2,))
    poisoned = CyclotomicField.get(2).constant(999)
    session.values[key] = poisoned
    # default policy returns the stored entry, an explicit shift recomputes
    # and leaves the entry as it was
    assert special_value(inst, (2,), cache=session) == poisoned
    assert special_value(inst, (2,), shift=(3,), cache=session) == v
    assert session.values[key] == poisoned


def _shift_policies(rng, mus):
    policies = ["default"]
    try:
        choose_shift(mus, "all-ones")
        policies.append("all-ones")
    except MuPowerIsOne:
        pass
    for _ in range(2):
        a = random_valid_shift(rng, mus)
        if a not in policies:
            policies.append(a)
    return policies


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_one_session_equals_fresh_sessions_for_every_shift(mode):
    # Contexts, step data and V tables live in the session; reusing them
    # must give the very values a fresh session computes: exactly equal
    # elements, or bit-identical doubles in approx mode.  The default
    # value read back after the explicit shifts must be the default one,
    # not the last shifted result.
    rng = random.Random(5505)
    for inst in oracle_corpus(5505, 12):
        if mode == "approx":
            inst = ZetaInstance(inst.Q, inst.Ps, inst.mus.to_approx())
        policies = _shift_policies(rng, inst.mus)
        session = ValueCache()
        for k in ks_up_to(inst.nfactors, 3):
            for shift in policies:
                got = special_value(inst, k, shift=shift, cache=session)
                fresh = special_value(inst, k, shift=shift)
                assert got == fresh, (inst.canonical_text(), k, shift)
            again = special_value(inst, k, cache=session)
            assert again == special_value(inst, k), (inst.canonical_text(), k)


def test_key_text_memo_stays_out_of_eq_hash_repr():
    a, b = _alt_1d(), _alt_1d()
    text = a.canonical_text()
    assert a.canonical_text() is text
    assert a.Q.canonical_text() is a.Q.canonical_text()
    # a holds the memo and b does not; they still compare as one value
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.Q == b.Q and hash(a.Q) == hash(b.Q)
    assert b.canonical_text() == text


def test_index_forms_agree_with_fresh_sessions():
    for inst in oracle_corpus(3305, 10):
        for k in itertools.product(range(3), repeat=inst.nfactors):
            a = special_value(inst, k, cache=ValueCache("residual"))
            b = special_value(inst, k, cache=ValueCache("consumed"))
            assert a == b


def test_session_index_form_conflicts_are_rejected():
    with pytest.raises(ValueError):
        ValueCache("sideways")


def test_cache_hits_are_returned():
    inst = _alt_1d()
    session = ValueCache()
    v = special_value(inst, (3,), cache=session)
    key = session.value_key(inst, (3,))
    assert key in session.values
    assert special_value(inst, (3,), cache=session) is session.values[key]
    assert v == session.values[key]


# shift selection -----------------------------------------------------


def test_choose_shift_default_is_first_unit_vector():
    mus = TwistVector.exact(4, [1, 3, 2])
    assert choose_shift(mus).a == (1, 0, 0)


_REFUSAL = (
    "mu_{} lies within 1e-06 of 1, so the series has no well-conditioned "
    "shift in approx mode"
)


def test_choose_shift_default_refuses_a_near_one_mu_1():
    # with a twist within the approx tolerance of 1, on either side and
    # in any position, the default pick is refused at once and names the
    # first such twist; an explicit shift with mu^a that close to 1 is
    # degenerate before that, and one with mu^a away from 1 is refused
    for angles, i in (([1e-9, 2.0], 1), ([math.tau - 1e-9, 2.0], 1),
                      ([1e-9, math.tau - 1e-9], 1), ([2.0, 1e-9], 2)):
        with pytest.raises(ApproxIllConditioned) as info:
            choose_shift(TwistVector.approx(angles))
        assert info.value.twists == (i,)
        assert str(info.value) == _REFUSAL.format(i)
    with pytest.raises(MuPowerIsOne):
        choose_shift(TwistVector.approx([1e-9, 2.0]), (1, 0))
    with pytest.raises(ApproxIllConditioned) as info:
        choose_shift(TwistVector.approx([2.0, 1e-9]), (1, 0))
    assert str(info.value) == _REFUSAL.format(2)
    assert choose_shift(TwistVector.approx([2.0, 3.0])).a == (1, 0)


def _near_one_sweep():
    # N = 1..3, the near-1 twist 1e-9 from 1 on either side in every
    # position, against the default, all-ones and every shift with
    # entries <= 2
    for N in (1, 2, 3):
        shifts = ["default", "all-ones"] + [
            a for a in itertools.product(range(3), repeat=N) if any(a)
        ]
        for pos in range(N):
            for near in (1e-9, math.tau - 1e-9):
                angles = [2.0 + n for n in range(N)]
                angles[pos] = near
                for shift in shifts:
                    yield N, pos, tuple(angles), shift


def test_no_shift_yields_a_value_with_a_near_one_twist():
    # no shift evaluates a series with a twist within the approx
    # tolerance of 1, neither in the engine nor held by a fast path: a
    # shift with mu^a near 1 is degenerate, and any other is refused up
    # front, naming the near-1 twist
    cases = list(_near_one_sweep())
    assert len(cases) == 216
    for N, pos, angles, shift in cases:
        X = [SparsePolynomial.variable(N, i) for i in range(1, N + 1)]
        mus = TwistVector.approx(angles)
        inst = ZetaInstance(SparsePolynomial.one(N), (sum(X[1:], X[0]),),
                            mus)
        quadratic = [StructuredQuadratic((), (1,) * N)]
        for evaluate in (
            lambda: special_value(inst, (1,), shift=shift),
            lambda: linear_special_value(inst, (1,), shift),
            lambda: quadratic_special_value(quadratic, mus, (1,), shift),
        ):
            with pytest.raises((ApproxIllConditioned, MuPowerIsOne)) as info:
                evaluate()
            if isinstance(info.value, ApproxIllConditioned):
                assert info.value.twists == (pos + 1,)
    # mu^2 lies 1.8e-6 from 1, outside the tolerance, and the held
    # shift (2,) has only points for its boundary, yet mu itself is
    # within it: the series is refused like any other
    mus = TwistVector.approx([0.9e-6])
    inst = ZetaInstance(SparsePolynomial.one(1),
                        (SparsePolynomial.variable(1, 1) * 2,), mus)
    quadratic = [StructuredQuadratic((), (2,))]
    for evaluate in (
        lambda: linear_special_value(inst, (1,), (2,)),
        lambda: quadratic_special_value(quadratic, mus, (1,), (2,)),
    ):
        with pytest.raises(ApproxIllConditioned) as info:
            evaluate()
        assert info.value.twists == (1,)


def test_ill_conditioned_twist_is_named_in_the_queried_variables():
    # the near-1 twist mu_2 is named in the numbering of the queried
    # series, with one text for every shift whose mu^a is away from 1
    X = [SparsePolynomial.variable(3, i) for i in (1, 2, 3)]
    inst = ZetaInstance(SparsePolynomial.one(3), (X[0] + X[1] + X[2],),
                        TwistVector.approx([2.0, 1e-9, 3.0]))
    for shift in ("default", (1, 0, 0), (0, 0, 1), (1, 1, 1)):
        with pytest.raises(ApproxIllConditioned) as info:
            special_value(inst, (1,), shift=shift)
        assert info.value.twists == (2,)
        assert str(info.value) == _REFUSAL.format(2)


def test_default_context_is_the_context_of_the_default_pick():
    X1, X2 = (SparsePolynomial.variable(2, i) for i in (1, 2))
    Ps = (X1 + X2 * 2 + 1,)
    exact = TwistVector.exact(6, [1, 5])
    for mus in (exact, exact.to_approx()):
        session = ValueCache()
        ctx = session.context(Ps, mus)
        assert ctx is session.context(Ps, mus, choose_shift(mus).a)


def test_choose_shift_validates_explicit_vectors():
    mus = TwistVector.exact(2, [1, 1])
    with pytest.raises(MuPowerIsOne):
        choose_shift(mus, (1, 1))
    with pytest.raises(MuPowerIsOne):
        choose_shift(mus, "all-ones")
    assert choose_shift(mus, (1, 0)).a == (1, 0)
    with pytest.raises(ValueError):
        choose_shift(mus, (0, 0))
    with pytest.raises(ValueError):
        choose_shift(mus, (-1, 2))
    with pytest.raises(DimensionMismatch):
        choose_shift(mus, (1, 0, 0))
    with pytest.raises(ValueError):
        choose_shift(mus, "sideways")



def test_shift_vector_validation():
    with pytest.raises(ValueError):
        ShiftVector((0, 0))
    with pytest.raises(ValueError):
        ShiftVector((-1,))
    assert tuple(ShiftVector((2, 0))) == (2, 0)


# boundary decomposition ----------------------------------------------


def _inst_2d():
    mus = TwistVector.exact(4, [1, 3])
    P = SparsePolynomial.variable(2, 1) + SparsePolynomial.variable(2, 2)
    return ZetaInstance(SparsePolynomial.one(2), (P,), mus)


def test_default_shift_boundary_is_single_restriction():
    inst = _inst_2d()
    pieces = boundary_decompose(inst, (1, 0))
    assert len(pieces) == 1
    piece = pieces[0]
    assert isinstance(piece, Restricted)
    assert piece.kept == (2,)
    assert piece.fixed == ((1, 1),)
    assert piece.sub.nvars == 1
    # prefactor is mu_1^0-free: only the frozen value b = 1 contributes
    assert piece.prefactor == CyclotomicField.get(4).root(1)


def test_one_variable_boundary_is_points():
    inst = _alt_1d()
    pieces = boundary_decompose(inst, (2,))
    assert [p.point for p in pieces] == [(1,), (2,)]
    assert all(isinstance(p, PointTerm) for p in pieces)


def test_boundary_piece_count_matches_stratification():
    inst = _inst_2d()
    a = (2, 2)
    pieces = boundary_decompose(inst, a)
    restricted = [p for p in pieces if isinstance(p, Restricted)]
    points = [p for p in pieces if isinstance(p, PointTerm)]
    # one face per one-coordinate set J and frozen value: 2 + 2, each of
    # sign +1, plus the 2 * 2 points of J = {1, 2}, each of sign -1
    assert len(restricted) == 4
    assert [p.fixed for p in restricted] == [
        ((2, 1),), ((2, 2),), ((1, 1),), ((1, 2),)
    ]
    assert len(points) == 4
    assert all(p.sign == -1 for p in points)


def test_restricted_prefactor_collects_kept_coordinates():
    # with a = (2, 1) the prefactor of the face X_J = c is mu_J^c alone:
    # the kept coordinates run unshifted and add no mu_I^(a_I) factor
    inst = _inst_2d()
    pieces = boundary_decompose(inst, (2, 1))
    field = CyclotomicField.get(4)
    got = {
        (p.kept, p.fixed): p.prefactor
        for p in pieces
        if isinstance(p, Restricted)
    }
    assert got == {
        ((2,), ((1, 1),)): field.root(1),
        ((2,), ((1, 2),)): field.root(2),
        ((1,), ((2, 1),)): field.root(3),
    }
    points = [p for p in pieces if isinstance(p, PointTerm)]
    assert [(p.point, p.sign) for p in points] == [((1, 1), -1), ((2, 1), -1)]


def test_zero_entries_suppress_point_terms():
    inst = _inst_2d()
    pieces = boundary_decompose(inst, (0, 2))
    assert all(isinstance(p, Restricted) for p in pieces)
    kept_sets = {p.kept for p in pieces}
    assert kept_sets == {(1,)}


def test_faces_are_shared_across_shifts():
    # a face's sub-series does not depend on the shift, so one session
    # builds one sub-context per distinct face m_1 = 1..3, m_2 = 1..2 for
    # the default shift and four explicit ones, and every shift gives the
    # default value and the closed value
    X1, X2 = (SparsePolynomial.variable(2, i) for i in (1, 2))
    mus = TwistVector.exact(6, [1, 2])
    inst = ZetaInstance(X1 * X2 + rat(1, 2), (X1 + X2 * 2 + 1,), mus)
    session = ValueCache()
    shifts = ((1, 0), (1, 1), (2, 1), (3, 2))
    for k in range(4):
        base = special_value(inst, (k,), cache=session)
        assert base == closed_value(inst.Q, inst.Ps, (k,), mus)
        for a in shifts:
            got = special_value(inst, (k,), shift=a, cache=session)
            assert got == base, (a, k)
    faces = {}
    for a in shifts:
        ctx = session.context(inst.Ps, mus, a)
        for piece, sub_ctx in ctx.restricted:
            assert faces.setdefault(piece.fixed, sub_ctx) is sub_ctx
    assert sorted(faces) == [
        ((1, 1),), ((1, 2),), ((1, 3),), ((2, 1),), ((2, 2),)
    ]
    one_variable = {
        id(ctx) for ctx in session._contexts.values() if ctx.N == 1
    }
    assert one_variable == {id(ctx) for ctx in faces.values()}


def test_signed_faces_of_three_variables_match_closed_form():
    # under (2, 1, 3) and (1, 1, 1) a three-variable series has faces of
    # two kept variables (sign +1), of one (sign -1) and points (sign +1)
    for index_form in ("residual", "consumed"):
        rng = random.Random(6606)
        checked = 0
        for inst in oracle_corpus(6605, 12, ns=(3,)):
            session = ValueCache(index_form)
            for a in ((2, 1, 3), (1, 1, 1)):
                try:
                    choose_shift(inst.mus, a)
                except MuPowerIsOne:
                    continue
                k = tuple(rng.randint(0, 2) for _ in range(inst.nfactors))
                got = special_value(inst, k, shift=a, cache=session)
                assert got == closed_value(inst.Q, inst.Ps, k, inst.mus), (
                    index_form, inst.canonical_text(), a, k
                )
                checked += 1
        assert checked == 19


def test_partition_identity_randomized():
    rng = random.Random(99)
    for _ in range(12):
        inst = random_instance(rng, ns=(1, 2, 3), ts=(1,))
        k = (rng.randint(0, 2),)
        a = tuple(rng.randint(0, 3) for _ in range(inst.nvars))
        if not any(a):
            a = (1,) + a[1:]
        M = rng.randint(max(a) + 1, 7)
        assert box_partition_holds(inst, k, a, M)


# validation and errors -----------------------------------------------


def test_instance_validation():
    mus = TwistVector.exact(2, [1, 1])
    Q = SparsePolynomial.one(2)
    with pytest.raises(EngineError):
        ZetaInstance(Q, (SparsePolynomial.zero(2),), mus)
    with pytest.raises(DimensionMismatch):
        ZetaInstance(SparsePolynomial.one(1), (Q,), mus)
    with pytest.raises(DimensionMismatch):
        ZetaInstance(Q, (SparsePolynomial.one(1),), mus)
    with pytest.raises(DimensionMismatch):
        ZetaInstance(Q, (), mus)


def test_k_validation():
    inst = _alt_1d()
    with pytest.raises(DimensionMismatch):
        special_value(inst, (1, 2))
    with pytest.raises(ValueError):
        special_value(inst, (-1,))


def test_approx_conditioning_error():
    mus = TwistVector.approx([1e-12])
    inst = ZetaInstance(
        SparsePolynomial.one(1), (SparsePolynomial.variable(1, 1),), mus
    )
    with pytest.raises(ApproxIllConditioned):
        special_value(inst, (1,))


def test_approx_agrees_with_exact_embedding():
    exact = _inst_2d()
    approx = ZetaInstance(exact.Q, exact.Ps, exact.mus.to_approx())
    for k in [(0,), (1,), (2,), (3,)]:
        ve = special_value(exact, k).embed()
        va = special_value(approx, k)
        assert abs(ve - va) < 1e-9


# linear fast path ----------------------------------------------------


def test_linear_path_known_values():
    inst = _alt_1d()
    field = CyclotomicField.get(2)
    assert linear_special_value(inst, (1,), (1,)) == field.constant(
        rat(-1, 4)
    )
    mus = TwistVector.exact(2, [1, 1])
    P = SparsePolynomial.variable(2, 1) + SparsePolynomial.variable(2, 2)
    inst2 = ZetaInstance(SparsePolynomial.one(2), (P,), mus)
    assert linear_special_value(inst2, (1,), (1, 0)) == field.constant(
        rat(1, 4)
    )
    # a non-unit shift: mu^(2,1) = -1, three restricted pieces, two points
    session = ValueCache()
    for k in range(5):
        fast = linear_special_value(inst2, (k,), (2, 1), cache=session)
        assert fast == closed_value(inst2.Q, inst2.Ps, (k,), mus)


def test_linear_path_matches_general_engine():
    rng = random.Random(31)
    for _ in range(8):
        N = rng.choice([1, 2, 3])
        T = rng.choice([1, 2])
        from _support import random_twists

        mus = random_twists(rng, N)
        Ps = []
        for _ in range(T):
            coeffs = {
                (tuple(1 if i == n else 0 for i in range(N))): rat(
                    rng.randint(1, 5), rng.randint(1, 3)
                )
                for n in range(N)
            }
            Ps.append(SparsePolynomial(N, coeffs))
        inst = ZetaInstance(SparsePolynomial.one(N), tuple(Ps), mus)
        k = tuple(rng.randint(0, 2) for _ in range(T))
        a = random_valid_shift(rng, mus)
        fast = linear_special_value(inst, k, a)
        assert fast == special_value(inst, k)
        assert fast == closed_value(inst.Q, inst.Ps, k, mus)


def test_linear_path_rejects_structures():
    mus = TwistVector.exact(2, [1, 1])
    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    with pytest.raises(NotLinearForm):
        linear_special_value(
            ZetaInstance(X1, (X1 + X2,), mus), (1,), (1, 0)
        )
    with pytest.raises(NotLinearForm):
        linear_special_value(
            ZetaInstance(SparsePolynomial.one(2), (X1 + 1,), mus),
            (1,),
            (1, 0),
        )
    with pytest.raises(NotLinearForm):
        linear_special_value(
            ZetaInstance(SparsePolynomial.one(2), (X1 * X1 + X2,), mus),
            (1,),
            (1, 0),
        )
    with pytest.raises(DependencyConditionViolated):
        linear_special_value(
            ZetaInstance(SparsePolynomial.one(2), (X1,), mus), (1,), (1, 0)
        )


# structured quadratics -----------------------------------------------


def test_quadratic_delta_values():
    P = StructuredQuadratic(squares=((1, -1),), linear=(1, 1), constant=1)
    assert quadratic_delta(P, (1, 1)) == 2
    P2 = StructuredQuadratic(squares=(), linear=(3, 2))
    assert quadratic_delta(P2, (1, 0)) == 3
    with pytest.raises(OrthogonalityViolated):
        quadratic_delta(
            StructuredQuadratic(squares=((1, 0),), linear=(1, 1)), (1, 0)
        )


def test_quadratic_expand():
    P = StructuredQuadratic(squares=((1, -1),), linear=(1, 1), constant=1)
    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    want = (X1 - X2) * (X1 - X2) + X1 + X2 + 1
    assert P.expand() == want


def test_quadratic_validation():
    with pytest.raises(ValueError):
        StructuredQuadratic(squares=(), linear=(1, 0))
    with pytest.raises(ValueError):
        StructuredQuadratic(squares=(), linear=(1, 1), constant=-1)
    with pytest.raises(DimensionMismatch):
        StructuredQuadratic(squares=((1,),), linear=(1, 1))


def test_quadratic_pipeline_matches_general_engine():
    P = StructuredQuadratic(squares=((1, -1),), linear=(1, 1), constant=1)
    mus = TwistVector.exact(4, [1, 1])
    inst = ZetaInstance(SparsePolynomial.one(2), (P.expand(),), mus)
    for k in [(0,), (1,), (2,), (3,)]:
        fast = quadratic_special_value((P,), mus, k, (1, 1))
        general = special_value(inst, k, shift=(1, 2))
        oracle = closed_value(inst.Q, inst.Ps, k, mus)
        assert fast == general == oracle


def test_fast_paths_in_approx_mode_match_closed_form():
    # both fast paths resolve in the context of their shift; in approx
    # mode the closed product formula is the independent check
    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    mus = TwistVector.exact(6, [1, 4]).to_approx()
    Ps = (X1 + 3 * X2, 2 * X1 + X2)
    inst = ZetaInstance(SparsePolynomial.one(2), Ps, mus)
    quad = StructuredQuadratic(squares=((1, -1),), linear=(1, 2), constant=1)
    qmus = TwistVector.exact(4, [1, 1]).to_approx()
    qinst = ZetaInstance(SparsePolynomial.one(2), (quad.expand(),), qmus)
    for index_form in ("residual", "consumed"):
        session = ValueCache(index_form)
        for k in ks_up_to(2, 3):
            for a in ((1, 0), (1, 1), (1, 2)):
                got = linear_special_value(inst, k, a, cache=session)
                want = closed_value(inst.Q, inst.Ps, k, mus)
                assert abs(got - want) <= 1e-12 * (1 + abs(want)), (k, a)
        for k in range(6):
            got = quadratic_special_value((quad,), qmus, (k,), (1, 1),
                                          cache=session)
            want = closed_value(qinst.Q, qinst.Ps, (k,), qmus)
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), k


def test_point_terms_use_exact_factor_powers():
    # 1-D instance with a = (3): three point terms, finite values only
    mus = TwistVector.exact(4, [1])
    P = SparsePolynomial.variable(1, 1) + 1
    inst = ZetaInstance(SparsePolynomial.one(1), (P,), mus)
    v1 = special_value(inst, (2,))
    v2 = special_value(inst, (2,), shift=(3,))
    assert v1 == v2
    total = mus.zero_scalar()
    # check against the raw translate relation at a = 3:
    # (1 - mu^3) Z = mu^3 [shifted series terms] + boundary points
    pieces = boundary_decompose(inst, (3,))
    assert [p.point for p in pieces] == [(1,), (2,), (3,)]
    for p in pieces:
        total = total + term_value(inst, (2,), p.point)
    assert total == sum(
        (term_value(inst, (2,), (m,)) for m in (1, 2, 3)),
        mus.zero_scalar(),
    )


def test_deep_k_needs_no_deep_stack():
    # Table misses are evaluated from one explicit stack, so neither index
    # form needs stack depth in k: on a 120-frame stack both forms reach
    # k = 300 for 2X + 1, and on a 60-frame stack a quadratic in two
    # variables reaches k = 20 with both shift policies.
    script = textwrap.dedent(
        """
        import sys
        from twistzeta import (
            TwistVector, ValueCache, ZetaInstance, special_value,
        )
        from twistzeta.closedform import closed_value
        from twistzeta.multipoly import SparsePolynomial

        X = SparsePolynomial.variable(1, 1)
        one = SparsePolynomial.one(1)
        line = ZetaInstance(one, (X * 2 + one,), TwistVector.exact(3, [1]))
        X1, X2 = (SparsePolynomial.variable(2, i) for i in (1, 2))
        one2 = SparsePolynomial.one(2)
        quad = ZetaInstance(
            one2,
            (X1 * X1 + X1 * X2 + X2 * 3 + one2,),
            TwistVector.exact(5, [1, 2]),
        )
        want_line = closed_value(line.Q, line.Ps, (300,), line.mus)
        want_quad = closed_value(quad.Q, quad.Ps, (20,), quad.mus)
        for form in ("residual", "consumed"):
            sys.setrecursionlimit(120)
            got = special_value(line, (300,), cache=ValueCache(form))
            assert got == want_line, form
            sys.setrecursionlimit(60)
            for shift in ("default", "all-ones"):
                got = special_value(
                    quad, (20,), shift=shift, cache=ValueCache(form)
                )
                assert got == want_quad, (form, shift)
            print(form, "ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["residual", "ok", "consumed", "ok"]


def test_exact_hot_paths_need_no_euclid_inverse(monkeypatch):
    # 1/(1 - mu^a) in the default and an explicit shift, and 1/(1 - mu_n)
    # in the closed route, come from CyclotomicField.inverse_one_minus_root
    X1, X2 = (SparsePolynomial.variable(2, i) for i in (1, 2))
    one = SparsePolynomial.one(2)
    mus = TwistVector.exact(60, [7, 12])
    inst = ZetaInstance(one + X1, (X1 + X2 * 2 + one,), mus)
    k, shift = (2,), (1, 2)

    def values():
        negapolylog.cache_clear()
        session = ValueCache()
        return (
            special_value(inst, k, cache=session),
            special_value(inst, k, shift=shift, cache=session),
            closed_value(inst.Q, inst.Ps, k, inst.mus),
        )

    want = values()
    assert want[0] == want[1] == want[2]

    def refuse(self):
        raise AssertionError("Euclid inverse on an exact hot path")

    monkeypatch.setattr(CyclotomicElement, "inverse", refuse)
    monkeypatch.setattr(
        CyclotomicField.get(60), "_one_minus_root_powers", {}
    )
    assert values() == want


def _reference_index_terms(index_form, k):
    """The (u, v, weight) enumeration with each weight a product of
    math.comb calls."""
    ranges = [range(x + 1) for x in k]
    for w in itertools.product(*ranges):
        if index_form == "residual":
            if w == k:
                continue
            u, v = w, tuple(x - y for x, y in zip(k, w))
        else:
            if not any(w):
                continue
            u, v = tuple(x - y for x, y in zip(k, w)), w
        yield u, v, math.prod(map(math.comb, k, u))


@pytest.mark.parametrize("index_form", ["residual", "consumed"])
@pytest.mark.parametrize("k", [
    (0,), (1,), (7,), (40,),
    (0, 0), (0, 3), (4, 0), (2, 5), (9, 6),
    (0, 0, 0), (2, 0, 1), (1, 3, 2), (5, 4, 6),
])
def test_index_terms_match_binomial_reference(index_form, k):
    session = ValueCache(index_form)
    want = list(_reference_index_terms(index_form, k))
    # the second call reads the session's memo when k has several factors
    for _ in range(2):
        got = list(session._index_terms(k))
        assert got == want
        assert all(type(w) is int for _, _, w in got)
    if len(k) == 1:
        # one factor zips shared 1-tuples, by now held up to k: every
        # smaller k slices them
        for n in range(k[0]):
            got = list(session._index_terms((n,)))
            assert got == list(_reference_index_terms(index_form, (n,)))


@pytest.mark.parametrize("factors, k, bound", [
    # the rows C(k, 0..k) of a one-factor ladder hold O(k^2) bits in
    # total; a session that kept them read 7.1 MB here, 0.3-0.5 MB without
    (((3, 2),), (256,), 1 << 20),
    # the tables of a two-factor box [0, K]^2 hold O(K^4) terms; keeping
    # all of them read 5.1 MB here, the capped memo 1.2 MB
    (((1, 1), (2, 1)), (16, 16), 2 << 20),
])
def test_index_tables_keep_a_small_peak(factors, k, bound):
    X = SparsePolynomial.variable(1, 1)
    one = SparsePolynomial.one(1)
    inst = ZetaInstance(one, tuple(X * a + one * b for a, b in factors),
                        TwistVector.exact(3, [1]))
    want = special_value(inst, k)  # process-wide tables filled
    tracemalloc.start()
    try:
        assert special_value(inst, k) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_metric_check_fires_on_cached_entries(monkeypatch):
    # Delta_a N is replaced, for N = X1^2 only, by X1 X2: same degree as
    # N at the same k.  Its V entry is cached by the first query, so
    # only the per-group check in _combine can catch the bad step.
    from twistzeta import engine

    X1 = SparsePolynomial.variable(2, 1)
    X2 = SparsePolynomial.variable(2, 2)
    mus = TwistVector.exact(2, [1, 1])
    session = ValueCache()
    cross = ZetaInstance(X1 * X2, (X1 + X2,), mus)
    special_value(cross, (0,), cache=session)
    ctx = session.context(cross.Ps, mus)
    assert ((1, 1), (0,)) in ctx.V and (2, 0) not in ctx.steps

    init = engine._Step.__init__

    def bad_init(self, ctx, numerator):
        init(self, ctx, numerator)
        if numerator == X1 * X1:
            self.delta = X1 * X2

    monkeypatch.setattr(engine._Step, "__init__", bad_init)
    square = ZetaInstance(X1 * X1, (X1 + X2,), mus)
    with pytest.raises(AssertionError, match="recursion metric failed"):
        special_value(square, (0,), cache=session)


@pytest.mark.parametrize("r", [2, 3, 4, 6, 12, 60, 360])
def test_key_order_reads_the_order_value_key_writes(r):
    # the CLI cache refuses an entry whose field order differs from the
    # order its key names; a value written under its own key must pass
    X = SparsePolynomial.variable(2, 1)
    Y = SparsePolynomial.variable(2, 2)
    one = SparsePolynomial.one(2)
    mus = TwistVector.exact(r, [1, r - 1])
    inst = ZetaInstance(X + one, (X * 2 + Y + one,), mus)
    session = ValueCache()
    value = special_value(inst, (2,), cache=session)
    (key,) = session.values
    assert key == ValueCache.value_key(inst, (2,))
    assert ValueCache.key_order(key) == value.field.order == r
    approx = ZetaInstance(X + one, inst.Ps, inst.mus.to_approx())
    assert ValueCache.key_order(ValueCache.value_key(approx, (2,))) is None
    for text in ("", key[: key.index(";mu=")], "mu=zeta(r=3;e=1)",
                 key.replace(f"zeta(r={r};", "zeta(r=x;")):
        assert ValueCache.key_order(text) is None, text


def test_products_above_the_packed_threshold_keep_every_value(monkeypatch):
    # approx mode sums V over the terms of each product in key order, and
    # a packed product keys its terms in another order; so the approx
    # engine keeps the schoolbook order: every product it makes has its
    # keys in the order of a run with packing switched off, and every
    # double of its V table is the same, bit for bit.  The exact value
    # runs packed and is the same element either way.
    X1, X2 = SparsePolynomial.variable(2, 1), SparsePolynomial.variable(2, 2)
    P = X1 * X1 + X1 * X2 + 3 * X2 + 1
    exact = ZetaInstance(SparsePolynomial.one(2), (P,),
                         TwistVector.exact(5, [1, 2]))
    approx = ZetaInstance(exact.Q, exact.Ps, exact.mus.to_approx())
    mul_terms, packed_terms = _kernels_py.mul_terms, _kernels_py._packed_terms
    products, packed = [], []

    def spy_mul(A, B, ordered=False):
        out = mul_terms(A, B, ordered)
        products.append((len(A) * len(B), list(out)))
        return out

    def spy_packed(A, B):
        out = packed_terms(A, B)
        packed.append(out is not None)
        return out

    def run(inst):
        products.clear()
        session = ValueCache()
        value = special_value(inst, (14,), cache=session)
        table = session.context(inst.Ps, inst.mus).V
        return value, table, list(products)

    def bits(z):
        return z.real.hex(), z.imag.hex()

    monkeypatch.setattr(_kernels_py, "mul_terms", spy_mul)
    monkeypatch.setattr(_kernels_py, "_packed_terms", spy_packed)
    got_approx, got_table, got_products = run(approx)
    assert max(n for n, _ in got_products) >= _kernels_py.KS_MIN_PAIRS
    got_exact, _, _ = run(exact)
    assert any(packed)
    monkeypatch.setattr(_kernels_py, "KS_MIN_PAIRS", 10 ** 9)
    want_approx, want_table, want_products = run(approx)
    want_exact, _, _ = run(exact)
    assert got_exact == want_exact == closed_value(
        exact.Q, exact.Ps, (14,), exact.mus)
    assert got_products == want_products
    assert bits(got_approx) == bits(want_approx)
    assert got_table.keys() == want_table.keys()
    assert all(bits(got_table[key]) == bits(want_table[key])
               for key in want_table)


def test_closed_route_keeps_its_approx_doubles_when_products_pack(
        monkeypatch):
    # approx mode sums the closed formula in key order, and E's key order
    # follows the path each product of its expansion took; the closed
    # route walks E in sorted exponent order, so its doubles are the same,
    # bit for bit, whether the expansion packs or not
    X1, X2 = SparsePolynomial.variable(2, 1), SparsePolynomial.variable(2, 2)
    P = X1 * X1 + X1 * X2 + 3 * X2 + 1
    one = SparsePolynomial.one(2)
    mus = TwistVector.exact(5, [1, 2]).to_approx()
    packed_terms = _kernels_py._packed_terms
    packed = []

    def spy_packed(A, B):
        out = packed_terms(A, B)
        packed.append(out is not None)
        return out

    def bits(z):
        return z.real.hex(), z.imag.hex()

    monkeypatch.setattr(_kernels_py, "_packed_terms", spy_packed)
    got = closed_value(one, (P,), (14,), mus)
    assert any(packed)
    monkeypatch.setattr(_kernels_py, "KS_MIN_PAIRS", 10 ** 9)
    packed.clear()
    want = closed_value(one, (P,), (14,), mus)
    assert not any(packed)
    assert bits(got) == bits(want)
