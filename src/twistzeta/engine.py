"""Shift-and-difference evaluation of twisted zeta special values.

Compare the series to its translate by a vector a of naturals with
mu^a != 1.  Expanding P_t(X+a)^(k_t) = sum_u C(k_t,u_t) P_t^(u_t)
(Delta_a P_t)^(k_t-u_t) and splitting the summation lattice at m >= a+1
gives the relation

  (1 - mu^a) Z(Q; -k) = mu^a sum_{0<=u<k} C(k,u)
                              Z(Q(X+a) prod_t (Delta_a P_t)^(k_t-u_t); -u)
                        + mu^a Z(Delta_a Q; -k)
                        + Z_boundary(-k),

where the boundary part sums over the finitely many lattice points not
above a.  Every term on the right is strictly smaller in the order
(variable count, |k|, deg Q), so special values fall out of exact linear
algebra; the only analytic input is the geometric series hiding in the
base case (1 - mu) Z(c; -0) = mu c.

The boundary set {m >= 1 : not (m >= a+1)} splits by the subset I of
coordinates with m_i >= a_i + 1: each stratum with I nonempty is again a
twisted series in #I variables (after substituting X_i -> a_i + d and
freezing the rest at values b_j in 1..a_j), and the I-empty stratum is a
finite sum of points.  The prefactor of a stratum collects the full mu
monomial of the substitution, mu_I^(a_I) * mu_{I^c}^(b); dropping the
first factor breaks the partition identity whenever some kept coordinate
has a_i > 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from ._backend import kernels
from ._rational import ONE, ZERO, Rational, format_rational
from .errors import (
    ApproxIllConditioned,
    DependencyConditionViolated,
    DimensionMismatch,
    EngineError,
    MuPowerIsOne,
    NotLinearForm,
    OrthogonalityViolated,
)
from .multipoly import SparsePolynomial
from .twists import Scalar, TwistVector, mu_power

__all__ = [
    "BoundaryPiece",
    "PointTerm",
    "Restricted",
    "ShiftVector",
    "StructuredQuadratic",
    "ValueCache",
    "ZetaInstance",
    "boundary_decompose",
    "choose_shift",
    "linear_special_value",
    "quadratic_delta",
    "quadratic_special_value",
    "special_value",
]

_APPROX_SHIFT_TOL = 1e-9
_INDEX_FORMS = ("residual", "consumed")


@dataclass(frozen=True)
class ZetaInstance:
    """The problem datum: numerator Q, factors P_1..P_T, twists mu."""

    Q: SparsePolynomial
    Ps: tuple[SparsePolynomial, ...]
    mus: TwistVector

    def __post_init__(self):
        object.__setattr__(self, "Ps", tuple(self.Ps))
        N = len(self.mus)
        if N < 1:
            raise DimensionMismatch("at least one variable is required")
        if len(self.Ps) < 1:
            raise DimensionMismatch("at least one factor is required")
        if self.Q.nvars != N:
            raise DimensionMismatch(
                f"Q has {self.Q.nvars} variables, twists have {N}"
            )
        for t, P in enumerate(self.Ps, start=1):
            if P.nvars != N:
                raise DimensionMismatch(
                    f"P_{t} has {P.nvars} variables, twists have {N}"
                )
            if P.is_zero:
                raise EngineError(
                    f"P_{t} is the zero polynomial; the series is undefined"
                )

    @property
    def nvars(self) -> int:
        return len(self.mus)

    @property
    def nfactors(self) -> int:
        return len(self.Ps)

    def canonical_text(self) -> str:
        """The cache-key text; computed once per instance and kept
        outside the dataclass fields (eq, hash and repr ignore it)."""
        text = self.__dict__.get("_text")
        if text is None:
            ps = ";".join(
                f"P{t}={P.canonical_text()}" for t, P in enumerate(self.Ps, 1)
            )
            text = (
                f"N={self.nvars};T={self.nfactors};"
                f"mu={self.mus.canonical_text()};"
                f"Q={self.Q.canonical_text()};{ps}"
            )
            object.__setattr__(self, "_text", text)
        return text


@dataclass(frozen=True)
class ShiftVector:
    """A vector of naturals, not all zero, used to translate the lattice."""

    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        if any(x < 0 for x in self.a):
            raise ValueError("shift entries must be naturals")
        if not any(self.a):
            raise ValueError("the zero shift compares nothing")

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):
        return iter(self.a)


def _scalar_is_one(mus: TwistVector, s: Scalar) -> bool:
    if mus.mode == "exact":
        return s == mus.one_scalar()
    return abs(s - 1.0) < 1e-12


def choose_shift(
    mus: TwistVector,
    policy: Union[str, Sequence[int], ShiftVector] = "default",
) -> ShiftVector:
    """Pick or validate a shift vector for the given twists.

    policy 'default' returns e_1, always usable since mu_1 != 1;
    'all-ones' and explicit vectors are validated against mu^a = 1.
    """
    N = len(mus)
    if isinstance(policy, str):
        if policy == "default":
            return ShiftVector((1,) + (0,) * (N - 1))
        if policy == "all-ones":
            a = ShiftVector((1,) * N)
        else:
            raise ValueError(f"unknown shift policy {policy!r}")
    elif isinstance(policy, ShiftVector):
        a = policy
    else:
        a = ShiftVector(tuple(policy))
    if len(a) != N:
        raise DimensionMismatch(
            f"shift of length {len(a)} against {N} twists"
        )
    if _scalar_is_one(mus, mu_power(mus, a.a)):
        raise MuPowerIsOne(f"mu^{a.a} equals 1; pick another shift")
    return a


@dataclass(frozen=True)
class Restricted:
    """A boundary stratum that is again a zeta instance in fewer
    variables.

    kept lists the surviving 1-based coordinate indices I; fixed maps
    each complement index j to its frozen value b_j; prefactor is the
    full twist monomial mu_I^(a_I) * mu_{I^c}^(b)."""

    kept: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...]
    sub: ZetaInstance
    prefactor: Scalar


@dataclass(frozen=True)
class PointTerm:
    """A single lattice point b of the boundary; evaluates finitely."""

    point: tuple[int, ...]


BoundaryPiece = Union[Restricted, PointTerm]


def boundary_decompose(
    inst: ZetaInstance, a: Union[ShiftVector, Sequence[int]]
) -> list[BoundaryPiece]:
    """Stratify {m >= 1 : not (m >= a+1)} into restricted sub-instances
    plus point terms.

    Strata are indexed by the set I of coordinates running above a and,
    for each, the frozen values b_j in {1..a_j} of the others; empty
    ranges (a_j = 0) kill a stratum.  I runs over the proper subsets;
    I empty yields the point terms.
    """
    if not isinstance(a, ShiftVector):
        a = ShiftVector(tuple(a))
    N = inst.nvars
    if len(a) != N:
        raise DimensionMismatch("shift length against instance variables")
    av = a.a
    pieces: list[BoundaryPiece] = []
    indices = list(range(1, N + 1))
    for q in range(N - 1, 0, -1):
        for kept in itertools.combinations(indices, q):
            comp = [j for j in indices if j not in kept]
            if any(av[j - 1] < 1 for j in comp):
                continue
            ranges = [range(1, av[j - 1] + 1) for j in comp]
            for bs in itertools.product(*ranges):
                fixed = dict(zip(comp, bs))
                subQ = inst.Q.restrict(av, kept, fixed)
                subPs = tuple(P.restrict(av, kept, fixed) for P in inst.Ps)
                power = [0] * N
                for i in kept:
                    power[i - 1] = av[i - 1]
                for j, b in fixed.items():
                    power[j - 1] = b
                prefactor = mu_power(inst.mus, power)
                for t, sP in enumerate(subPs, start=1):
                    if sP.is_zero:
                        raise EngineError(
                            f"restricted factor P_{t} vanishes identically"
                        )
                sub = ZetaInstance(subQ, subPs, inst.mus.sub(kept))
                pieces.append(
                    Restricted(
                        kept=kept,
                        fixed=tuple(sorted(fixed.items())),
                        sub=sub,
                        prefactor=prefactor,
                    )
                )
    if all(x >= 1 for x in av):
        for b in itertools.product(*[range(1, x + 1) for x in av]):
            pieces.append(PointTerm(point=b))
    return pieces


def _int_table(terms: Mapping) -> tuple[dict, int]:
    """A rational term table as ({exps: int}, den) over the least common
    denominator, keys in the same order."""
    den = math.lcm(*(int(c.denominator) for c in terms.values()))
    return (
        {
            e: int(c.numerator) * (den // int(c.denominator))
            for e, c in terms.items()
        },
        den,
    )


def _well_conditioned(mus: TwistVector, mu_a: Scalar) -> bool:
    if mus.mode == "exact":
        return not _scalar_is_one(mus, mu_a)
    return abs(mu_a - 1.0) >= _APPROX_SHIFT_TOL


class _Context:
    """Per-(P_1..P_T, mu, a) tables for the recursion.

    The default context picks its shift: e_1 in exact mode (valid since
    mu_1 != 1), the first well conditioned candidate from e_1..e_N,
    all-ones in approx mode.  An explicit shift is only checked for
    conditioning.  Values of monomial numerators are memoized as
    V[(alpha, k)]; everything else here is derived data shared by those
    computations.  Term tables are integer pairs ({exps: int}, den).
    """

    __slots__ = (
        "Ps",
        "mus",
        "N",
        "T",
        "a",
        "mu_a",
        "inv1ma",
        "zero",
        "deltas",
        "V",
        "_g",
        "_shifted",
        "_prod",
        "_pieces",
    )

    def __init__(
        self,
        Ps: tuple[SparsePolynomial, ...],
        mus: TwistVector,
        a: tuple[int, ...] | None = None,
    ):
        self.Ps = Ps
        self.mus = mus
        self.N = len(mus)
        self.T = len(Ps)
        if a is None:
            self.a, self.mu_a = self._pick_shift(mus)
        else:
            self.a, self.mu_a = a, mu_power(mus, a)
            if not _well_conditioned(mus, self.mu_a):
                raise ApproxIllConditioned(
                    f"|1 - mu^a| below 1e-9 for shift {a}"
                )
        diff = mus.one_scalar() - self.mu_a
        self.inv1ma = diff.inverse() if mus.mode == "exact" else 1.0 / diff
        self.zero = mus.zero_scalar()
        self.deltas = tuple(_int_table(P.delta(self.a).terms) for P in Ps)
        self.V: dict = {}
        self._g = {(0,) * self.T: ({(0,) * self.N: 1}, 1)}
        self._shifted: dict = {}
        self._prod: dict = {}
        self._pieces = None

    @staticmethod
    def _pick_shift(mus: TwistVector) -> tuple[tuple[int, ...], Scalar]:
        N = len(mus)
        candidates = [
            tuple(1 if i == n else 0 for i in range(N)) for n in range(N)
        ]
        candidates.append((1,) * N)
        for a in candidates:
            s = mu_power(mus, a)
            if _well_conditioned(mus, s):
                return a, s
        raise ApproxIllConditioned(
            "every candidate shift has mu^a within 1e-9 of 1"
        )

    def G(self, v: tuple[int, ...]) -> tuple[dict, int]:
        """prod_t (Delta_a P_t)^(v_t) as ({exps: int}, den).

        G(v) is G(v with its first nonzero entry lowered by one) times
        that Delta_a P_t, filled in upward from the nearest memoized
        entry without recursion, so a deep v costs no stack."""
        memo = self._g
        chain = []
        while v not in memo:
            chain.append(v)
            t = next(i for i, x in enumerate(v) if x)
            v = v[:t] + (v[t] - 1,) + v[t + 1 :]
        nums, den = memo[v]
        for v in reversed(chain):
            t = next(i for i, x in enumerate(v) if x)
            dnums, dden = self.deltas[t]
            nums, den = kernels.mul_terms(nums, dnums), den * dden
            memo[v] = (nums, den)
        return nums, den

    def shifted(self, alpha: tuple[int, ...]) -> dict:
        """Integer term table of (X + a)^alpha."""
        hit = self._shifted.get(alpha)
        if hit is None:
            hit = kernels.shift_terms({alpha: 1}, self.a)
            self._shifted[alpha] = hit
        return hit

    def prod(self, alpha: tuple[int, ...], v: tuple[int, ...]):
        """(X + a)^alpha * G(v) as ({exps: int}, den)."""
        key = (alpha, v)
        hit = self._prod.get(key)
        if hit is None:
            gnums, gden = self.G(v)
            if not gnums:
                hit = ({}, 1)
            elif not any(v):
                hit = (self.shifted(alpha), 1)
            else:
                hit = (kernels.mul_terms(self.shifted(alpha), gnums), gden)
            self._prod[key] = hit
        return hit


class _Point:
    """A boundary lattice point b with mu^b, Q(b) and every P_t(b)
    evaluated once; term(k) is mu^b Q(b) prod_t P_t(b)^(k_t)."""

    __slots__ = ("b", "mus", "mu_b", "qb", "pvals", "_pows")

    def __init__(self, inst: ZetaInstance, b: tuple[int, ...]):
        self.pvals = tuple(P.eval(b) for P in inst.Ps)
        for t, val in enumerate(self.pvals, start=1):
            if not val:
                raise EngineError(f"P_{t} vanishes at boundary point {b}")
        self.b = b
        self.mus = inst.mus
        self.mu_b = mu_power(inst.mus, b)
        self.qb = inst.Q.eval(b)
        self._pows: dict = {}

    def term(self, k: tuple[int, ...], mono: int = 1) -> Scalar:
        """The point's summand at -k, times the integer mono."""
        q = self._pows.get(k)
        if q is None:
            q = self.qb
            for val, kt in zip(self.pvals, k):
                if kt:
                    q = q * val**kt
            self._pows[k] = q
        return self.mus.scale(self.mu_b, q * mono if mono != 1 else q)


def _split_boundary(inst: ZetaInstance, a: tuple[int, ...]):
    """boundary_decompose(inst, a) as (restricted pieces, points), each
    list in decomposition order."""
    restricted, points = [], []
    for piece in boundary_decompose(inst, a):
        if isinstance(piece, Restricted):
            restricted.append(piece)
        else:
            points.append(_Point(inst, piece.point))
    return restricted, points


class _Plan:
    """One step of the relation for a fixed (instance, shift a): every
    part that does not depend on k.  That is the shift's context (mu^a,
    1/(1 - mu^a), Delta_a P_t and the G memo), Q(X+a) and its products
    with G(v), Delta_a Q, and the boundary pieces."""

    __slots__ = (
        "ctx",
        "shifted_q",
        "delta_q",
        "restricted",
        "points",
        "_prod",
    )

    def __init__(self, session: "ValueCache", inst: ZetaInstance, a):
        self.ctx = session.context(inst.Ps, inst.mus, a)
        shifted = inst.Q.shift(a)
        self.shifted_q = _int_table(shifted.terms)
        self.delta_q = _int_table((shifted - inst.Q).terms)
        self.restricted, self.points = _split_boundary(inst, a)
        self._prod: dict = {}

    def prod(self, v: tuple[int, ...]):
        """Q(X+a) * G(v) as ({exps: int}, den)."""
        hit = self._prod.get(v)
        if hit is None:
            gnums, gden = self.ctx.G(v)
            qnums, qden = self.shifted_q
            if gnums:
                hit = (kernels.mul_terms(qnums, gnums), qden * gden)
            else:
                hit = ({}, 1)
            self._prod[v] = hit
        return hit

    def boundary(self, session: "ValueCache", k, total: Scalar) -> Scalar:
        """total plus the boundary part of the relation at -k."""
        for piece in self.restricted:
            sval = special_value(piece.sub, k, cache=session)
            total = total + piece.prefactor * sval
        for point in self.points:
            total = total + point.term(k)
        return total


class ValueCache:
    """Evaluation session: canonical-key memo plus recursion tables.

    The public mapping .values sends the canonical text key of
    (instance, k) to the finished Scalar; lookups never change results
    against recomputation.  Internal per-context tables and per-shift
    plans make repeated queries against one instance cheap.  One session
    is bound to one index convention for the u-sum so that comparing the
    two conventions across sessions stays meaningful.
    """

    def __init__(self, index_form: str = "residual"):
        if index_form not in _INDEX_FORMS:
            raise ValueError(f"index_form must be one of {_INDEX_FORMS}")
        self.index_form = index_form
        self.values: dict = {}
        self._contexts: dict = {}
        self._plans: dict = {}

    @staticmethod
    def value_key(inst: ZetaInstance, k: tuple[int, ...]) -> str:
        ks = ",".join(str(x) for x in k)
        return f"{inst.canonical_text()};k={ks}"

    def context(
        self, Ps: tuple, mus: TwistVector, a: tuple[int, ...] | None = None
    ) -> _Context:
        """The context of (Ps, mus) for shift a; None is the default
        shift."""
        key = (mus.canonical_text(), a) + tuple(
            P.canonical_text() for P in Ps
        )
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = _Context(Ps, mus, a)
            self._contexts[key] = ctx
        return ctx

    def plan(self, inst: ZetaInstance, a: tuple[int, ...]) -> _Plan:
        """The k-independent part of one step of (inst, a)."""
        key = (inst.canonical_text(), a)
        plan = self._plans.get(key)
        if plan is None:
            plan = _Plan(self, inst, a)
            self._plans[key] = plan
        return plan

    # recursion ------------------------------------------------------

    def _index_terms(self, k: tuple[int, ...]):
        """Yield (u, v, weight) with u + v = k, u != k, and the
        multinomial weight prod_t C(k_t, u_t) = prod_t C(k_t, v_t).

        The residual convention enumerates by the surviving argument u,
        the consumed convention by the difference exponent v; both
        cover the same terms.
        """
        ranges = [range(x + 1) for x in k]
        if self.index_form == "residual":
            for u in itertools.product(*ranges):
                if u == k:
                    continue
                v = tuple(x - y for x, y in zip(k, u))
                w = math.prod(map(math.comb, k, u))
                yield u, v, w
        else:
            zero = (0,) * len(k)
            for v in itertools.product(*ranges):
                if v == zero:
                    continue
                u = tuple(x - y for x, y in zip(k, v))
                w = math.prod(map(math.comb, k, v))
                yield u, v, w

    def _pieces(self, ctx: _Context):
        """Boundary strata of the context's shift for monomial
        numerators: (restricted piece, its context, monomial cache)
        entries and the points."""
        if ctx._pieces is None:
            inst = ZetaInstance(SparsePolynomial.one(ctx.N), ctx.Ps, ctx.mus)
            restricted, points = _split_boundary(inst, ctx.a)
            ctx._pieces = (
                [
                    (piece, self.context(piece.sub.Ps, piece.sub.mus), {})
                    for piece in restricted
                ],
                points,
            )
        return ctx._pieces

    @staticmethod
    def _restrict_monomial(
        piece: Restricted, cache: dict, alpha: tuple[int, ...], av
    ):
        hit = cache.get(alpha)
        if hit is None:
            mono = SparsePolynomial._raw(len(alpha), {alpha: ONE})
            restricted = mono.restrict(av, piece.kept, dict(piece.fixed))
            hit = _int_table(restricted.terms)
            cache[alpha] = hit
        return hit

    def _V(self, ctx: _Context, alpha, k, parent=None) -> Scalar:
        if __debug__ and parent is not None:
            assert (ctx.N, sum(k), sum(alpha)) < parent, (
                "recursion metric failed to decrease"
            )
        key = (alpha, k)
        hit = ctx.V.get(key)
        if hit is not None:
            return hit
        me = (ctx.N, sum(k), sum(alpha))
        groups = [
            (ctx.prod(alpha, v), u, w) for u, v, w in self._index_terms(k)
        ]
        shifted = ctx.shifted(alpha)
        if len(shifted) > 1:
            dterms = {e: c for e, c in shifted.items() if e != alpha}
            groups.append(((dterms, 1), k, None))
        total = ctx.mu_a * self._combine(ctx, groups, me)
        restricted, points = self._pieces(ctx)
        for piece, sub_ctx, rcache in restricted:
            nums, den = self._restrict_monomial(piece, rcache, alpha, ctx.a)
            sval = self._resolve(sub_ctx, nums, den, k, me)
            total = total + piece.prefactor * sval
        for point in points:
            mono = 1
            for x, e in zip(point.b, alpha):
                if e:
                    mono *= x**e
            total = total + point.term(k, mono)
        value = ctx.inv1ma * total
        ctx.V[key] = value
        return value

    def _combine(self, ctx: _Context, groups: list, parent) -> Scalar:
        """sum over groups ((nums, den), u, w) of w * resolve(nums/den, u),
        where w None means a plain sum.

        Exact mode fuses every group into one linear combination over the
        least common denominator; approx mode keeps one combination per
        group, scaled by w and summed in order."""
        V = self._V
        if ctx.mus.mode == "exact":
            lcd = math.lcm(*(den for (nums, den), u, w in groups if nums))
            pairs = []
            for (nums, den), u, w in groups:
                if nums:
                    m = lcd // den if w is None else w * (lcd // den)
                    pairs.extend(
                        (V(ctx, alpha, u, parent), c * m)
                        for alpha, c in nums.items()
                    )
            return ctx.mus.lincomb(pairs, lcd)
        acc = ctx.zero
        for (nums, den), u, w in groups:
            if nums:
                value = self._resolve(ctx, nums, den, u, parent)
                acc = acc + (value if w is None else value * w)
        return acc

    def _resolve(self, ctx: _Context, nums: dict, den: int, k, parent):
        """sum over the integer term table of coef/den * V(alpha, k)."""
        V = self._V
        return ctx.mus.lincomb(
            [(V(ctx, alpha, k, parent), c) for alpha, c in nums.items()], den
        )


def _as_k(inst: ZetaInstance, k) -> tuple[int, ...]:
    k = tuple(int(x) for x in k)
    if len(k) != inst.nfactors:
        raise DimensionMismatch(
            f"k of length {len(k)} against {inst.nfactors} factors"
        )
    if any(x < 0 for x in k):
        raise ValueError("the entries of k must be naturals")
    return k


def _session(cache, index_form) -> ValueCache:
    if cache is None:
        return ValueCache(index_form or "residual")
    if not isinstance(cache, ValueCache):
        raise TypeError("cache must be a ValueCache")
    if index_form is not None and index_form != cache.index_form:
        raise ValueError(
            "session index_form conflicts with the explicit argument"
        )
    return cache


def _depth_guarded(fn):
    """Report an overflow of the Python stack by the recursive evaluator
    as an EngineError."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise EngineError(
                "recursion too deep for this k; the residual index form "
                "needs far less stack"
            ) from None

    return guarded


@_depth_guarded
def special_value(
    inst: ZetaInstance,
    k: Sequence[int],
    *,
    shift: Union[str, Sequence[int], ShiftVector] = "default",
    cache: ValueCache | None = None,
    index_form: str | None = None,
) -> Scalar:
    """Z(Q; P_1..P_T; mu; -k) by the shift-and-difference recurrence.

    shift 'default' uses the engine's internal choice (e_1 in exact
    mode).  'all-ones' or an explicit vector applies one step of the
    relation with that shift at the top level, all inner values coming
    from the default engine; the result must not depend on the shift,
    which the test suite checks.  Explicit shifts skip the cache lookup
    for the top-level key so repeated calls genuinely recompute; the
    k-independent part of the step is built once per session.
    """
    k = _as_k(inst, k)
    session = _session(cache, index_form)
    key = session.value_key(inst, k)
    if inst.Q.is_zero:
        return inst.mus.zero_scalar()
    if isinstance(shift, str) and shift == "default":
        hit = session.values.get(key)
        if hit is not None:
            return hit
        ctx = session.context(inst.Ps, inst.mus)
        value = session._resolve(ctx, *_int_table(inst.Q.terms), k, None)
        session.values[key] = value
        return value

    plan = session.plan(inst, choose_shift(inst.mus, shift).a)
    ctx = session.context(inst.Ps, inst.mus)
    groups = [(plan.prod(v), u, w) for u, v, w in session._index_terms(k)]
    groups.append((plan.delta_q, k, None))
    acc = session._combine(ctx, groups, None)
    step = plan.ctx
    value = step.inv1ma * plan.boundary(session, k, step.mu_a * acc)
    session.values[key] = value
    return value


# Fast paths for structured factor families --------------------------


@_depth_guarded
def _scalar_delta_value(
    inst: ZetaInstance,
    deltas: Sequence,
    k: tuple[int, ...],
    a: ShiftVector,
    session: ValueCache,
) -> Scalar:
    """Shared scalar-difference recurrence.

    When every Delta_a P_t is the constant delta_t and Q = 1, the u-sum
    collapses to scalar weights delta^(k-u) C(k,u) against the same
    instance at smaller arguments; only the boundary needs the general
    engine.
    """
    mus = inst.mus
    plan = session.plan(inst, a.a)
    step = plan.ctx
    memo: dict = {}

    def rec(kk: tuple[int, ...]) -> Scalar:
        hit = memo.get(kk)
        if hit is not None:
            return hit
        acc = mus.zero_scalar()
        for u, v, w in session._index_terms(kk):
            dpow = ONE
            for d, e in zip(deltas, v):
                if e:
                    dpow = dpow * d**e
            coef = dpow * w
            if coef:
                acc = acc + mus.scale(rec(u), coef)
        bound = plan.boundary(session, kk, mus.zero_scalar())
        value = step.inv1ma * (step.mu_a * acc + bound)
        memo[kk] = value
        return value

    return rec(k)


def linear_special_value(
    inst: ZetaInstance,
    k: Sequence[int],
    a: Union[str, Sequence[int], ShiftVector] = "default",
    *,
    cache: ValueCache | None = None,
    index_form: str | None = None,
) -> Scalar:
    """Fast path for Q = 1 and linear forms L_t with positive
    coefficients, each variable occurring in some L_t.

    Here Delta_a L_t = L_t(a) is the scalar delta_t, so the relation
    recurses on k alone; boundary strata still go through the general
    engine.
    """
    k = _as_k(inst, k)
    if not (inst.Q.is_constant and inst.Q.constant_value() == ONE):
        raise NotLinearForm("the linear fast path requires Q = 1")
    for t, P in enumerate(inst.Ps, start=1):
        if P.is_zero or any(sum(e) != 1 for e in P.terms):
            raise NotLinearForm(f"P_{t} is not a linear form")
        if any(c <= 0 for c in P.terms.values()):
            raise NotLinearForm(f"P_{t} has a nonpositive coefficient")
    for n in range(1, inst.nvars + 1):
        if not any(P.depends_on(n) for P in inst.Ps):
            raise DependencyConditionViolated(
                f"no linear factor depends on X{n}"
            )
    shift = choose_shift(inst.mus, a)
    deltas = tuple(P.eval(shift.a) for P in inst.Ps)
    session = _session(cache, index_form)
    return _scalar_delta_value(inst, deltas, k, shift, session)


@dataclass(frozen=True)
class StructuredQuadratic:
    """A factor of the shape sum_k <alpha_k, X>^2 + sum_n c_n X_n + d
    with every c_n > 0 and d >= 0; squares may be absent."""

    squares: tuple[tuple, ...]
    linear: tuple
    constant: object = ZERO

    def __post_init__(self):
        linear = tuple(Rational(c) for c in self.linear)
        if not linear:
            raise DimensionMismatch("at least one variable is required")
        if any(c <= 0 for c in linear):
            raise ValueError("linear coefficients must be positive")
        squares = tuple(
            tuple(Rational(c) for c in vec) for vec in self.squares
        )
        for vec in squares:
            if len(vec) != len(linear):
                raise DimensionMismatch("square-term vector length")
        constant = Rational(self.constant)
        if constant < 0:
            raise ValueError("the constant term must be nonnegative")
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", constant)

    @property
    def nvars(self) -> int:
        return len(self.linear)

    def expand(self) -> SparsePolynomial:
        N = self.nvars
        form = SparsePolynomial.constant(N, self.constant)
        for n, c in enumerate(self.linear, start=1):
            form = form + SparsePolynomial.variable(N, n) * c
        for vec in self.squares:
            lin = SparsePolynomial.zero(N)
            for n, c in enumerate(vec, start=1):
                if c:
                    lin = lin + SparsePolynomial.variable(N, n) * c
            form = form + lin * lin
        return form


def quadratic_delta(
    P: StructuredQuadratic, a: Union[ShiftVector, Sequence[int]]
):
    """The scalar Delta_a P for a structured quadratic and an orthogonal
    shift: the squares are shift invariant, so delta = sum_n c_n a_n."""
    if not isinstance(a, ShiftVector):
        a = ShiftVector(tuple(a))
    if len(a) != P.nvars:
        raise DimensionMismatch("shift length against quadratic variables")
    for vec in P.squares:
        dot = sum((c * x for c, x in zip(vec, a.a)), ZERO)
        if dot:
            raise OrthogonalityViolated(
                f"square term {tuple(map(format_rational, vec))} has "
                f"<alpha, a> = {format_rational(dot)}"
            )
    delta = sum((c * x for c, x in zip(P.linear, a.a)), ZERO)
    if __debug__:
        expanded = P.expand().delta(a.a)
        assert expanded == SparsePolynomial.constant(P.nvars, delta), (
            "expanded difference is not the predicted constant"
        )
    return delta


def quadratic_special_value(
    Ps: Sequence[StructuredQuadratic],
    mus: TwistVector,
    k: Sequence[int],
    a: Union[ShiftVector, Sequence[int]],
    *,
    cache: ValueCache | None = None,
    index_form: str | None = None,
) -> Scalar:
    """Value of Z(1; P_1..P_T; mu; -k) for structured quadratics along a
    shift orthogonal to every square term."""
    expanded = tuple(P.expand() for P in Ps)
    inst = ZetaInstance(
        SparsePolynomial.one(len(mus)), expanded, mus
    )
    k = _as_k(inst, k)
    shift = choose_shift(mus, a)
    deltas = tuple(quadratic_delta(P, shift) for P in Ps)
    session = _session(cache, index_form)
    return _scalar_delta_value(inst, deltas, k, shift, session)
