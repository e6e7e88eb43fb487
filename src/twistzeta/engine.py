"""Shift-and-difference evaluation of twisted zeta special values.

Compare the series to its translate by a vector a of naturals with
mu^a != 1.  Expanding P_t(X+a)^(k_t) = sum_u C(k_t,u_t) P_t^(u_t)
(Delta_a P_t)^(k_t-u_t) and splitting the summation lattice at m >= a+1
gives the relation

  (1 - mu^a) Z(Q; -k) = mu^a sum_{0<=u<k} C(k,u)
                              Z(Q(X+a) prod_t (Delta_a P_t)^(k_t-u_t); -u)
                        + mu^a Z(Delta_a Q; -k)
                        + Z_boundary(-k),

where the boundary part sums over the lattice points m >= 1 not above
a.  Every term on the right is strictly smaller in the order
(variable count, |k|, deg Q), so special values fall out of exact linear
algebra; the only analytic input is the geometric series hiding in the
base case (1 - mu) Z(c; -0) = mu c.

The boundary set {m >= 1 : not (m >= a+1)} is the union of the faces
m_j = c for j with a_j >= 1 and c in 1..a_j, summed by inclusion-exclusion:
for every nonempty set J of such coordinates and values c_J, the face
X_J = c_J counts with sign (-1)^(|J|+1) and prefactor mu_J^(c_J).  Its
kept coordinates run over all of m >= 1, unshifted, so a face is again a
twisted series in the kept variables that does not depend on a; J = all
coordinates gives finitely many signed points.  Every shift of a series
therefore meets the same face sub-series, and one session shares their
contexts and value tables across shifts.  The default shift e_1 has the
single face m_1 = 1.

In exact mode one step of the relation is one sum on integer numerators
over a running denominator, normalized once: the u-sum is an integer dot
product per coordinate, and mu^a, the prefactors and 1/(1 - mu^a) apply
to numerators by field products.  Approx mode forms each product and sum
of the step in turn, in a fixed order, so its doubles do not depend on
how the exact path is arranged.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

from ._backend import kernels
from ._rational import ONE, ZERO, Rational, format_rational
from .cyclotomic import CyclotomicField, _reduced
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

# In approx mode a shift with |1 - mu^a| below this is degenerate, and a
# series with a twist this close to 1 is refused (choose_shift): shifted
# values were measured to carry an error of about 3e-15 / |1 - mu^a| at
# k <= 5, which must stay well inside the CLI's 1e-8 agreement check.
_APPROX_SHIFT_TOL = 1e-6
_INDEX_FORMS = ("residual", "consumed")
# A session memoizes index tables of several factors up to this many
# terms in all, then builds the rest anew each step: the tables of a box
# of k in [0, K]^2 hold O(K^4) terms (52 MB more at K = 30 uncapped).
_TABLE_MEMO_TERMS = 1 << 12


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
    """s == 1 in exact mode; |s - 1| below _APPROX_SHIFT_TOL in approx
    mode, where a shift that close to 1 is too ill conditioned to use."""
    if mus.mode == "exact":
        return s == mus.one_scalar()
    return abs(s - 1.0) < _APPROX_SHIFT_TOL


def choose_shift(
    mus: TwistVector,
    policy: Union[str, Sequence[int], ShiftVector] = "default",
) -> ShiftVector:
    """Pick or validate a shift vector for the given twists.

    policy 'default' returns e_1, always usable in exact mode since
    mu_1 != 1.  'all-ones' and explicit vectors are validated against
    mu^a = 1 (MuPowerIsOne).  In approx mode any policy then raises
    ApproxIllConditioned, naming the first mu_i that lies within
    _APPROX_SHIFT_TOL of 1.  The default recursion meets every mu_i as
    the mu^a of a default shift: the face m_1 = 1 of e_1 is a series in
    the other variables, whose default shift is e_1 again.  So a series
    is refused once, here, whatever the shift; a face's twists are a
    subset of the series', so no context below one that passed refuses.
    """
    N = len(mus)
    if isinstance(policy, str) and policy == "default":
        a = ShiftVector((1,) + (0,) * (N - 1))
    else:
        if policy == "all-ones":
            a = ShiftVector((1,) * N)
        elif isinstance(policy, str):
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
    if mus.mode == "approx":
        for i in range(1, N + 1):
            if _scalar_is_one(mus, mus.mu(i)):
                raise ApproxIllConditioned(
                    f"mu_{i} lies within {_APPROX_SHIFT_TOL:g} of 1, so "
                    "the series has no well-conditioned shift in approx mode",
                    (i,),
                )
    return a


@dataclass(frozen=True)
class Restricted:
    """A boundary face X_J = c_J that is again a zeta instance in fewer
    variables.

    kept lists the surviving 1-based coordinate indices, which run over
    m >= 1 unshifted; fixed maps each index j of J, the complement, to
    its frozen value c_j in 1..a_j; prefactor is the signed twist
    monomial (-1)^(|J|+1) mu_J^(c_J), with no factor from the kept
    coordinates."""

    kept: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...]
    sub: ZetaInstance
    prefactor: Scalar


@dataclass(frozen=True)
class PointTerm:
    """A single lattice point b of the boundary, the face with every
    coordinate frozen, counted sign = (-1)^(N+1) times; evaluates
    finitely."""

    point: tuple[int, ...]
    sign: int = 1


BoundaryPiece = Union[Restricted, PointTerm]


def boundary_decompose(
    inst: ZetaInstance, a: Union[ShiftVector, Sequence[int]]
) -> list[BoundaryPiece]:
    """Split {m >= 1 : not (m >= a+1)} into signed faces: restricted
    sub-instances plus point terms, by inclusion-exclusion.

    A face is indexed by a nonempty set J of coordinates with a_j >= 1
    and values c_j in {1..a_j}; it fixes X_J = c_J, leaves the kept
    coordinates unshifted and counts with sign (-1)^(|J|+1).  Faces come
    with the largest kept set first, kept sets in combinations order and
    values in product order; J = all coordinates yields the point terms.
    A face does not depend on a beyond its values c_J, so different
    shifts share their common faces.
    """
    if not isinstance(a, ShiftVector):
        a = ShiftVector(tuple(a))
    N = inst.nvars
    if len(a) != N:
        raise DimensionMismatch("shift length against instance variables")
    av = a.a
    pieces: list[BoundaryPiece] = []
    indices = list(range(1, N + 1))
    for q in range(N - 1, -1, -1):
        sign = (-1) ** (N - q + 1)
        for kept in itertools.combinations(indices, q):
            comp = [j for j in indices if j not in kept]
            if any(av[j - 1] < 1 for j in comp):
                continue
            ranges = [range(1, av[j - 1] + 1) for j in comp]
            if not kept:
                for b in itertools.product(*ranges):
                    pieces.append(PointTerm(point=b, sign=sign))
                continue
            for cs in itertools.product(*ranges):
                fixed = dict(zip(comp, cs))
                subQ = inst.Q.restrict(fixed)
                subPs = tuple(P.restrict(fixed) for P in inst.Ps)
                power = [0] * N
                for j, c in fixed.items():
                    power[j - 1] = c
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
                        prefactor=prefactor if sign > 0 else -prefactor,
                    )
                )
    return pieces


class _Context:
    """Everything in one step of the relation for (P_1..P_T, mu, a) that
    depends neither on k nor on the numerator.

    That is mu^a, 1/(1 - mu^a), the differences Delta_a P_t, the
    products G(v), and the signed boundary faces: restricted pairs each
    face with the default context of its sub-series (shared with every
    other shift that has the face), points holds the points.  The
    context also holds V[(alpha, k)], the values of monomial numerators,
    and steps, the step data of every numerator it has met, keyed by
    alpha for X^alpha and by the canonical text of an explicit top-level
    Q.
    """

    __slots__ = (
        "mus",
        "N",
        "T",
        "a",
        "mu_a",
        "inv1ma",
        "field",
        "zero",
        "deltas",
        "V",
        "steps",
        "restricted",
        "points",
        "mul",
        "_g",
    )

    def __init__(
        self,
        Ps: tuple[SparsePolynomial, ...],
        mus: TwistVector,
        a: tuple[int, ...],
        restricted: list,
        points: list,
    ):
        self.mus = mus
        self.N = len(mus)
        self.T = len(Ps)
        self.a = a
        self.mu_a = mu_power(mus, a)
        if mus.mode == "exact":
            self.field = CyclotomicField.get(mus.order)
            self.inv1ma = self.field.inverse_one_minus_root(
                mus.power_exponent(a)
            )
        else:
            self.field = None
            self.inv1ma = 1.0 / (mus.one_scalar() - self.mu_a)
        self.zero = mus.zero_scalar()
        self.deltas = tuple(P.delta(a) for P in Ps)
        self.V: dict = {}
        self.steps: dict = {}
        self.restricted = restricted
        self.points = points
        # approx mode sums V over the terms of these products in key
        # order, so it keeps the schoolbook order of every product
        if mus.mode == "exact":
            self.mul = operator.mul
        else:
            self.mul = SparsePolynomial.mul_ordered
        self._g = {(0,) * self.T: SparsePolynomial.one(self.N)}

    def G(self, v: tuple[int, ...]) -> SparsePolynomial:
        """prod_t (Delta_a P_t)^(v_t).

        G(v) is G(v with its first nonzero entry lowered by one) times
        that Delta_a P_t, filled in upward from the nearest memoized
        entry without recursion, so a deep v costs no stack."""
        memo = self._g
        chain = []
        while v not in memo:
            chain.append(v)
            t = next(i for i, x in enumerate(v) if x)
            v = v[:t] + (v[t] - 1,) + v[t + 1 :]
        g = memo[v]
        for v in reversed(chain):
            t = next(i for i, x in enumerate(v) if x)
            g = self.mul(g, self.deltas[t])
            memo[v] = g
        return g


class _Step:
    """The part of one step that a numerator N adds to its context, all
    independent of k: N(X+a), its products with G(v), Delta_a N, its
    restriction to each face X_J = c_J and its value at each point."""

    __slots__ = (
        "shifted", "unit", "delta", "restricted", "at_points", "_prod"
    )

    def __init__(self, ctx: _Context, numerator: SparsePolynomial):
        self.shifted = numerator.shift(ctx.a)
        self.unit = self.shifted == SparsePolynomial.one(ctx.N)
        # numerator.delta(a), without shifting a second time
        self.delta = self.shifted - numerator
        self.restricted = [
            numerator.restrict(dict(piece.fixed))
            for piece, _ in ctx.restricted
        ]
        self.at_points = [numerator.eval(point.b) for point in ctx.points]
        # with N(X+a) = 1 the products are the context's G(v) themselves
        self._prod: dict = ctx._g if self.unit else {}

    def prod(self, ctx: _Context, v: tuple[int, ...]) -> SparsePolynomial:
        """N(X+a) * G(v), for the context ctx that holds this step data;
        G(v) itself when N(X+a) is the constant 1."""
        hit = self._prod.get(v)
        if hit is None:
            if self.unit:
                return ctx.G(v)
            hit = ctx.mul(self.shifted, ctx.G(v)) if any(v) else self.shifted
            self._prod[v] = hit
        return hit


class _Point:
    """A boundary lattice point b with mu^b and every P_t(b) evaluated
    once; its summand at -k is sign mu^b nb prod_t P_t(b)^(k_t), nb the
    numerator's value at b.  Both modes read the signed integer ratio
    power(k), memoized per k, and scale mu^b by it times nb."""

    __slots__ = ("b", "sign", "mu_b", "pvals", "_pows")

    def __init__(self, Ps, mus: TwistVector, b: tuple[int, ...], sign=1):
        self.pvals = tuple(P.eval(b) for P in Ps)
        for t, val in enumerate(self.pvals, start=1):
            if not val:
                raise EngineError(f"P_{t} vanishes at boundary point {b}")
        self.b = b
        self.sign = sign
        self.mu_b = mu_power(mus, b)
        self._pows: dict = {}

    def power(self, k: tuple[int, ...]) -> tuple[int, int]:
        """(p, q) with p/q = sign prod_t P_t(b)^(k_t), q > 0, as
        integer powers with no gcd; memoized per k."""
        pq = self._pows.get(k)
        if pq is None:
            p = self.sign
            q = 1
            for val, kt in zip(self.pvals, k):
                if kt:
                    p *= val.numerator**kt
                    q *= val.denominator**kt
            pq = self._pows[k] = (p, q)
        return pq


def _binomial_row(n: int) -> list[int]:
    """[C(n, 0), ..., C(n, n)]: the first half with each entry from the
    one before by C(n, j) = C(n, j-1) (n-j+1) / j, the rest by symmetry."""
    row = [1] * (n + 1)
    c = 1
    for j in range(1, n // 2 + 1):
        c = c * (n - j + 1) // j
        row[j] = row[n - j] = c
    return row


# (0,), (1,), ...: the u and v of every one-factor index table, shared
_UNIT_TUPLES = [(0,)]


def _unit_tuples(n: int) -> list:
    """A list that starts (0,), (1,), ..., (n,), grown on demand."""
    units = _UNIT_TUPLES
    units.extend((j,) for j in range(len(units), n + 1))
    return units


def _add_over(acc: list, acc_den: int, num, den: int, p: int = 1):
    """(numerators, denominator) of acc/acc_den + p num/den, over a
    common denominator and with no gcd of the numerators."""
    if den == acc_den:
        return [s + y * p for s, y in zip(acc, num)], acc_den
    g = math.gcd(acc_den, den)
    sa = den // g
    p *= acc_den // g
    return [s * sa + y * p for s, y in zip(acc, num)], acc_den * sa


def _check_descent(N: int, groups: list, parent) -> None:
    """Assert (N, |u|, deg p) < parent for every group (p, u, w) with p
    nonzero; the degree is computed only when (N, |u|) ties with the
    parent, that is for the Delta_a N group."""
    n, size, degree = parent
    if N < n:
        return
    for p, u, w in groups:
        if (N > n or sum(u) >= size) and p.nums:
            assert N == n and sum(u) == size and p.total_degree() < degree, (
                "recursion metric failed to decrease"
            )


class ValueCache:
    """Evaluation session: canonical-key memo plus recursion tables.

    The public mapping .values sends the canonical text key of
    (instance, k) to the finished Scalar; lookups never change results
    against recomputation.  Internal per-context tables make repeated
    queries against one instance cheap, along every shift.  One session
    is bound to one index convention for the u-sum so that comparing the
    two conventions across sessions stays meaningful.
    """

    def __init__(self, index_form: str = "residual"):
        if index_form not in _INDEX_FORMS:
            raise ValueError(f"index_form must be one of {_INDEX_FORMS}")
        self.index_form = index_form
        self.values: dict = {}
        self._contexts: dict = {}
        self._tables: dict = {}
        self._table_terms = 0

    @staticmethod
    def value_key(inst: ZetaInstance, k: tuple[int, ...]) -> str:
        ks = ",".join(str(x) for x in k)
        return f"{inst.canonical_text()};k={ks}"

    @staticmethod
    def key_order(key: str) -> int | None:
        """The twist order r that a value_key of exact twists names, None
        for any other key."""
        _, sep, rest = key.partition(";mu=")
        return TwistVector.order_of_text(rest) if sep else None

    def context(
        self, Ps: tuple, mus: TwistVector, a: tuple[int, ...] | None = None
    ) -> _Context:
        """The context of (Ps, mus) for shift a, built whole on first use
        with the default context of every face.  A face's sub-series does
        not depend on a, so its context, keyed by the face's own (Ps,
        mus), serves every shift that has the face.  None is the
        default pick of choose_shift; its key is an alias of the context
        of that explicit shift, so a default lookup is one dict hit.  An
        explicit a must have passed choose_shift for these twists: in
        approx mode that refuses a near-1 twist before anything is
        built, and the face contexts, whose twists are a subset, pass
        it again."""
        key = (mus.canonical_text(), a) + tuple(P.canonical_text() for P in Ps)
        ctx = self._contexts.get(key)
        if ctx is None:
            if a is None:
                ctx = self.context(Ps, mus, choose_shift(mus).a)
            else:
                one = SparsePolynomial.one(len(mus))
                pieces = boundary_decompose(ZetaInstance(one, Ps, mus), a)
                points = [
                    _Point(Ps, mus, piece.point, piece.sign)
                    for piece in pieces
                    if isinstance(piece, PointTerm)
                ]
                restricted = [
                    (piece, self.context(piece.sub.Ps, piece.sub.mus))
                    for piece in pieces
                    if isinstance(piece, Restricted)
                ]
                ctx = _Context(Ps, mus, a, restricted, points)
            self._contexts[key] = ctx
        return ctx

    def _step_data(self, ctx: _Context, key, numerator=None) -> _Step:
        """The step data in ctx of X^key for an exponent tuple key, or of
        numerator under its canonical text key."""
        data = ctx.steps.get(key)
        if data is None:
            if numerator is None:
                numerator = SparsePolynomial._raw(ctx.N, {key: 1})
            data = _Step(ctx, numerator)
            ctx.steps[key] = data
        return data

    def _value_in(self, inst: ZetaInstance, k, a=None) -> Scalar:
        """Z(Q; -k) over the V table of the context of shift a (None is
        the default pick)."""
        ctx = self.context(inst.Ps, inst.mus, a)
        return self._run(self._resolve(ctx, inst.Q, k, None))

    # recursion ------------------------------------------------------

    def _index_terms(self, k: tuple[int, ...]):
        """An iterable of (u, v, weight) with u + v = k, u != k, and the
        multinomial weight prod_t C(k_t, u_t) = prod_t C(k_t, v_t).

        The residual convention enumerates u in lexicographic order, the
        consumed convention v; both cover the same terms, and approx mode
        sums them in this order.  v = k - u runs through the reversed
        ranges in step with u, and each weight is a product of entries of
        the rows C(k_t, 0..k_t), built once per step, so no term computes
        a binomial.  With one factor the terms zip shared 1-tuples with
        the row C(k, 0..k); it holds O(k^2) bits, so it is built anew
        each step.  Tables of several factors are memoized per session,
        up to _TABLE_MEMO_TERMS terms in all.
        """
        if len(k) == 1:
            n = k[0]
            units = _unit_tuples(n)
            row = _binomial_row(n)
            if self.index_form == "residual":
                return zip(units[:n], reversed(units[1 : n + 1]), row)
            return zip(reversed(units[:n]), units[1 : n + 1], row[1:])
        table = self._tables.get(k)
        if table is not None:
            return table
        ups = [range(x + 1) for x in k]
        downs = [range(x, -1, -1) for x in k]
        rows = [_binomial_row(x) for x in k]
        weights = map(math.prod, itertools.product(*rows))
        if self.index_form == "residual":
            # u = k comes last
            terms = zip(
                itertools.product(*ups), itertools.product(*downs), weights
            )
            table = list(itertools.islice(terms, math.prod(map(len, ups)) - 1))
        else:
            # v = 0 comes first
            terms = zip(
                itertools.product(*downs), itertools.product(*ups), weights
            )
            table = list(itertools.islice(terms, 1, None))
        if self._table_terms + len(table) <= _TABLE_MEMO_TERMS:
            self._tables[k] = table
            self._table_terms += len(table)
        return table

    def _step(self, ctx: _Context, data: _Step, k, inner: _Context, parent):
        """One application of the relation: Z(N; -k) from the step data
        of N in ctx.  The u-sum and Delta_a N resolve in inner (ctx
        itself, or the default context under an explicit top-level
        shift), each face in its sub-series' context.  A
        generator: it yields (ctx, alpha, k, parent) for every V entry it
        misses and returns the value (see _run).

        Exact mode sums on integer numerators over a running denominator:
        mu^a and the prefactors are roots of unity over 1, so they apply
        to numerators by one field product each, and the value is
        normalized once, after the product by 1/(1 - mu^a); the signs of
        the faces ride on their prefactors and point terms.  Approx mode
        forms each product and sum in turn, in the order written here; a
        point adds mu^b times p nb / q, one correctly rounded division of
        integers, the double that float() gives that Fraction."""
        prod = data.prod
        groups = [(prod(ctx, v), u, w) for u, v, w in self._index_terms(k)]
        groups.append((data.delta, k, None))
        combined = yield from self._combine(inner, groups, parent)
        faces = zip(ctx.restricted, data.restricted)
        field = ctx.field
        if field is None:
            total = ctx.mu_a * combined
            for (piece, sub_ctx), poly in faces:
                sval = yield from self._resolve(sub_ctx, poly, k, parent)
                total = total + piece.prefactor * sval
            for point, nb in zip(ctx.points, data.at_points):
                p, q = point.power(k)
                ratio = (p * nb.numerator) / (q * nb.denominator)
                total = total + point.mu_b * ratio
            return ctx.inv1ma * total
        taps = field.taps
        num, den = combined
        acc = kernels.cyclo_mul(ctx.mu_a.num, num, taps)
        for (piece, sub_ctx), poly in faces:
            sval = yield from self._resolve(sub_ctx, poly, k, parent)
            num = kernels.cyclo_mul(piece.prefactor.num, sval.num, taps)
            acc, den = _add_over(acc, den, num, sval.den)
        for point, nb in zip(ctx.points, data.at_points):
            if nb:
                p, q = point.power(k)
                acc, den = _add_over(
                    acc, den, point.mu_b.num, q * nb.denominator,
                    p * nb.numerator,
                )
        num = kernels.cyclo_mul(ctx.inv1ma.num, acc, taps)
        return _reduced(field, num, den * ctx.inv1ma.den)

    def _run(self, gen) -> Scalar:
        """Drive the step generator gen to its value on one explicit
        stack.  Each V entry it misses gets a step generator of its own,
        whose value is stored in its context's V table and sent back, so
        the depth of the evaluation costs no Python stack."""
        pending = []
        value = None
        while True:
            try:
                ctx, alpha, k, parent = gen.send(value)
            except StopIteration as done:
                value = done.value
                if not pending:
                    return value
                ctx, key, gen = pending.pop()
                ctx.V[key] = value
                continue
            here = (ctx.N, sum(k), sum(alpha))
            assert parent is None or here < parent, (
                "recursion metric failed to decrease"
            )
            pending.append((ctx, (alpha, k), gen))
            gen = self._step(ctx, self._step_data(ctx, alpha), k, ctx, here)
            value = None

    def _combine(self, ctx: _Context, groups: list, parent):
        """sum over groups (polynomial, u, w) of w * resolve(polynomial, u),
        where w None means a plain sum; a generator like _step.

        Every group is checked once against the recursion metric: (N,
        |u|, deg polynomial) < parent, so a cached V entry cannot hide a
        step that fails to descend.  Exact mode then fuses every group
        into one integer weight per V value over the least common
        denominator of the polynomials, reading the V table directly and
        stepping only on a miss, and returns the sum unnormalized, as
        (numerators, denominator) from one integer dot product per
        coordinate; approx mode keeps one combination per group, scaled
        by w and summed in order."""
        if __debug__ and parent is not None:
            _check_descent(ctx.N, groups, parent)
        if ctx.field is not None:
            # zero polynomials are stored over 1
            lcd = math.lcm(*{p.den for p, u, w in groups})
            get = ctx.V.get
            values = []
            weights = []
            add_value = values.append
            add_weight = weights.append
            for p, u, w in groups:
                if w is None:
                    w = lcd // p.den
                elif lcd != 1:
                    w *= lcd // p.den
                for alpha, c in p.nums.items():
                    value = get((alpha, u))
                    if value is None:
                        value = yield ctx, alpha, u, parent
                    add_value(value)
                    add_weight(c * w)
            num, den = ctx.field._dot(values, weights)
            return num, den * lcd
        acc = ctx.zero
        for p, u, w in groups:
            if p.nums:
                value = yield from self._resolve(ctx, p, u, parent)
                acc = acc + (value if w is None else value * w)
        return acc

    def _resolve(self, ctx: _Context, poly: SparsePolynomial, k, parent):
        """sum over the terms of poly of coef * V(alpha, k); a generator
        like _step."""
        table = ctx.V
        pairs = []
        for alpha, c in poly.nums.items():
            value = table.get((alpha, k))
            if value is None:
                value = yield ctx, alpha, k, parent
            pairs.append((value, c))
        return ctx.mus.lincomb(pairs, poly.den)


def _as_k(inst: ZetaInstance, k) -> tuple[int, ...]:
    k = tuple(int(x) for x in k)
    if len(k) != inst.nfactors:
        raise DimensionMismatch(
            f"k of length {len(k)} against {inst.nfactors} factors"
        )
    if any(x < 0 for x in k):
        raise ValueError("the entries of k must be naturals")
    return k


def _session(cache) -> ValueCache:
    if cache is None:
        return ValueCache()
    if not isinstance(cache, ValueCache):
        raise TypeError("cache must be a ValueCache")
    return cache


def special_value(
    inst: ZetaInstance,
    k: Sequence[int],
    *,
    shift: Union[str, Sequence[int], ShiftVector] = "default",
    cache: ValueCache | None = None,
) -> Scalar:
    """Z(Q; P_1..P_T; mu; -k) by the shift-and-difference recurrence.

    shift 'default' resolves Q over the V table of the engine's default
    context (shift e_1 in exact mode).  'all-ones' or an explicit vector
    applies the same step of the relation to Q itself in the context of
    that shift, all inner values coming from the default context; the
    result must not depend on the shift, which the test suite checks.
    Explicit shifts skip the cache lookup for the top-level key so
    repeated calls genuinely recompute, and never replace a stored
    value: in exact mode the result is stored only under a free key, in
    approx mode (where it differs from the default in the last bits) not
    at all.  Everything in the step that does not depend on k is built
    once per session.  The index form of the u-sum is the session's,
    set by ValueCache(index_form) (a fresh residual session when cache
    is None).  V-table misses are evaluated from one explicit stack, so
    a deep k needs no Python stack in either index form.  An explicit
    shift is validated even for Q = 0, whose value is zero.
    """
    k = _as_k(inst, k)
    session = _session(cache)
    key = session.value_key(inst, k)
    default = isinstance(shift, str) and shift == "default"
    if not default:
        shift = choose_shift(inst.mus, shift)
    if inst.Q.is_zero:
        return inst.mus.zero_scalar()
    if default:
        hit = session.values.get(key)
        if hit is not None:
            return hit
        value = session._value_in(inst, k)
        session.values[key] = value
        return value

    step = session.context(inst.Ps, inst.mus, shift.a)
    data = session._step_data(step, inst.Q.canonical_text(), inst.Q)
    inner = session.context(inst.Ps, inst.mus)
    value = session._run(session._step(step, data, k, inner, None))
    if inst.mus.mode == "exact":
        session.values.setdefault(key, value)
    return value


# Fast paths for structured factor families --------------------------


def linear_special_value(
    inst: ZetaInstance,
    k: Sequence[int],
    a: Union[str, Sequence[int], ShiftVector] = "default",
    *,
    cache: ValueCache | None = None,
) -> Scalar:
    """Fast path for Q = 1 and linear forms L_t with positive
    coefficients, each variable occurring in some L_t.

    Here Delta_a L_t = L_t(a) is a constant, so resolving Q in the
    context of the shift a holds that shift at every level, and the
    u-sum collapses to scalar weights against the same numerator at
    smaller k: the scalar recursion of the linear case.  Boundary faces
    go through the default engine.
    """
    k = _as_k(inst, k)
    if not (inst.Q.is_constant and inst.Q.constant_value() == ONE):
        raise NotLinearForm("the linear fast path requires Q = 1")
    for t, P in enumerate(inst.Ps, start=1):
        if P.is_zero or any(sum(e) != 1 for e in P.nums):
            raise NotLinearForm(f"P_{t} is not a linear form")
        if any(c <= 0 for c in P.nums.values()):
            raise NotLinearForm(f"P_{t} has a nonpositive coefficient")
    for n in range(1, inst.nvars + 1):
        if not any(P.depends_on(n) for P in inst.Ps):
            raise DependencyConditionViolated(
                f"no linear factor depends on X{n}"
            )
    shift = choose_shift(inst.mus, a)
    return _session(cache)._value_in(inst, k, shift.a)


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
) -> Scalar:
    """Value of Z(1; P_1..P_T; mu; -k) for structured quadratics along a
    shift orthogonal to every square term.

    quadratic_delta checks the orthogonality; then every Delta_a P_t is
    a constant and Q = 1 resolves in the context of the shift a, as in
    linear_special_value."""
    expanded = tuple(P.expand() for P in Ps)
    inst = ZetaInstance(
        SparsePolynomial.one(len(mus)), expanded, mus
    )
    k = _as_k(inst, k)
    shift = choose_shift(mus, a)
    for P in Ps:
        quadratic_delta(P, shift)
    return _session(cache)._value_in(inst, k, shift.a)
