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

Every term on the right is a value of a smaller series.  A step is one
list of groups (context, polynomial, u, w, root) asking for monomial
values V(alpha, u) in a context's table: the u-sum groups and Delta_a N
in the series' own context, and each face's numerator at k in the
face's, with the root mu^-a times the face's prefactor.  In exact mode,
from Z(Q; -k) = mu^a/(1 - mu^a) (u-sum + Delta_a part + mu^-a
Z_boundary), one loop hands every monomial value, and the point terms,
to CyclotomicField._dot as numerators over their own denominators with
int weights; _dot alone forms the common denominator, so a face's value
is never summed or normalized on its own.  One field product by
mu^a/(1 - mu^a) and one cyclotomic._reduced end the step.  mu^-a times
a prefactor or a point's mu^b is a root of unity over 1, formed once per
context.  A factor with Delta_a P_t = 0 (one free of the shifted
variables) keeps u_t = k_t in the u-sum: every other term has G(v) = 0,
and the index table leaves it out.  Approx mode resolves the u-sum and
Delta_a N groups, then each face, forming each product and sum in turn
in a fixed order, so its doubles do not depend on how the exact path is
arranged.

With one factor whose difference Delta_a P is a nonzero constant p/q
(every linear factor, and a structured quadratic along a shift
orthogonal to its squares), the u-sum of N is sum_beta n_beta
sum_{u<k} C(k,u) (p/q)^(k-u) V(beta, u) over the monomials n_beta
X^beta of N(X+a): for each beta, a binomial transform of one column
of the value table.  In exact mode such a context keeps each column's
numerators and denominators beside V and sums the first k entries in
one CyclotomicField._dot, against the weights C(k,u) p^(k-u) q^u over
q^k built once per step; no product N(X+a) G(v) is formed.  Every other
context, and approx mode, sums the u-sum group by group: approx mode
keeps its one order of rounded sums, which the column sum would change.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
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
        object.__setattr__(self, "a", tuple(map(operator.index, self.a)))
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

    That is mu^a, 1/(1 - mu^a) (approx mode) or mu^a/(1 - mu^a) and
    the numerators of mu^-a times each face's prefactor (the roots of
    _step's face groups) and each point's mu^b (exact mode), the
    differences Delta_a P_t, zero_mask (which of them are zero), the
    products G(v), and the signed boundary faces:
    restricted pairs each face with the default context of its
    sub-series (shared with every other shift that has the face), points
    holds the points.  The
    context also holds V[(alpha, k)], the values of monomial numerators,
    and steps, the step data of every numerator it has met, keyed by
    alpha for X^alpha and by the canonical text of an explicit top-level
    Q.  In exact mode with one factor whose Delta_a P is a nonzero
    constant p/q, ratio is (p, q) and columns maps each alpha to the
    numerators and denominators of V(alpha, 0), V(alpha, 1), ..., in
    order; otherwise both are None.
    """

    __slots__ = (
        "mus",
        "N",
        "T",
        "a",
        "mu_a",
        "inv1ma",
        "field",
        "deltas",
        "zero_mask",
        "V",
        "steps",
        "restricted",
        "points",
        "mul",
        "face_roots",
        "point_roots",
        "scale",
        "columns",
        "ratio",
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
            field = self.field = CyclotomicField.get(mus.order)
            e = mus.power_exponent(a)
            # Z = mu^a/(1 - mu^a) (u-sum + mu^-a boundary): mu^-a times a
            # face's prefactor or a point's mu^b is again a root over 1
            back = field.root(-e)
            self.face_roots = [
                (piece.prefactor * back).num for piece, _ in restricted
            ]
            self.point_roots = [(point.mu_b * back).num for point in points]
            self.scale = self.mu_a * field.inverse_one_minus_root(e)
        else:
            self.field = None
            self.inv1ma = 1.0 / (mus.one_scalar() - self.mu_a)
        self.deltas = tuple(P.delta(a) for P in Ps)
        # G(v) = 0 once v_t > 0 for a factor with Delta_a P_t = 0, so the
        # u-sum keeps u_t = k_t there (_index_terms)
        self.zero_mask = tuple(not delta.nums for delta in self.deltas)
        # with G(v) = (p/q)^v each u-sum is a binomial transform of
        # columns of V (_column_terms), and _step's groups keep only
        # Delta_a N and the faces
        self.columns = None
        self.ratio = None
        if self.field is not None and self.T == 1:
            (delta,) = self.deltas
            if delta.nums and delta.is_constant:
                c = delta.constant_value()
                self.ratio = (c.numerator, c.denominator)
                self.columns = {}
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
    power(k), memoized per k, and scale mu^b (in exact mode the
    context's mu^(b-a)) by it times nb."""

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


def _transform_weights(n: int, p: int, q: int) -> list[int]:
    """[C(n, u) p^(n-u) q^u for u in 0..n-1]: the weights, over q^n, of
    the binomial transform sum_{u<n} C(n,u) (p/q)^(n-u) V(beta, u),
    scaled in place in _binomial_row's one list."""
    w = _binomial_row(n)
    w.pop()
    if p != 1:
        f = 1
        for u in range(n - 1, -1, -1):
            f *= p
            w[u] *= f
    if q != 1:
        f = 1
        for u in range(1, n):
            f *= q
            w[u] *= f
    return w


def _check_descent(N: int, groups: list, parent) -> None:
    """Assert (N, |u|, deg p) < parent for every group (context, p, u, w,
    root) of _step with p nonzero, all in contexts of N variables; the
    degree is computed only when (N, |u|) ties with the parent, that is
    for the Delta_a N group."""
    n, size, degree = parent
    if N < n:
        return
    for _, p, u, _, _ in groups:
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
        of that explicit shift, so a default lookup is one dict hit.  A
        key is validated by choose_shift once, when it misses: in approx
        mode that refuses a near-1 twist, in the numbering of mus,
        before anything is built, and the face contexts, whose twists
        are a subset, pass it again."""
        key = (mus.canonical_text(), a) + tuple(P.canonical_text() for P in Ps)
        ctx = self._contexts.get(key)
        if ctx is None:
            shift = choose_shift(mus, "default" if a is None else a).a
            explicit = (key[0], shift) + key[2:]
            ctx = self._contexts.get(explicit)
            if ctx is None:
                one = SparsePolynomial.one(len(mus))
                pieces = boundary_decompose(ZetaInstance(one, Ps, mus), shift)
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
                ctx = _Context(Ps, mus, shift, restricted, points)
                self._contexts[explicit] = ctx
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

    def _index_terms(self, k: tuple[int, ...], mask: tuple[bool, ...]):
        """The list of (u, v, weight) with u + v = k, u != k, v_t = 0
        wherever mask_t is set, and the multinomial weight prod_t
        C(k_t, u_t) = prod_t C(k_t, v_t).

        mask is a context's zero_mask: a factor with Delta_a P_t = 0 makes
        G(v) zero once v_t > 0, so those terms are left out rather than
        built and summed as empty groups.  The residual convention
        enumerates u in lexicographic order, the consumed convention v;
        both cover the same terms, and approx mode sums them in this
        order, which is the unmasked order with the masked terms taken
        out.  v = k - u runs through the reversed ranges in step with u,
        and each weight is a product of entries of the rows C(k_t,
        0..k_t), built once per table, so no term computes a binomial.
        Tables are memoized per session under (k, mask), for any number
        of factors, up to _TABLE_MEMO_TERMS terms in all, and built anew
        each step beyond that.  _step makes each term the group
        (N(X+a) G(v), u, weight) of its one gather loop; the weights are
        plain ints, which CyclotomicField._dot takes as they are.  An
        exact context with one factor and a nonzero constant Delta_a P
        reads no table: its u-sum is one column sum per monomial
        (_column_terms), the same in both index forms.
        """
        key = (k, mask)
        table = self._tables.get(key)
        if table is not None:
            return table
        residual = self.index_form == "residual"
        us, vs, rows = [], [], []
        for x, zero in zip(k, mask):
            if zero:
                us.append((x,))
                vs.append((0,))
                rows.append((1,))
            else:
                up, down = range(x + 1), range(x, -1, -1)
                # the enumerated index runs up, its complement down
                us.append(up if residual else down)
                vs.append(down if residual else up)
                rows.append(_binomial_row(x))
        weights = map(math.prod, itertools.product(*rows))
        terms = zip(itertools.product(*us), itertools.product(*vs), weights)
        if residual:
            # u = k comes last
            table = list(itertools.islice(terms, math.prod(map(len, us)) - 1))
        else:
            # v = 0 comes first
            table = list(itertools.islice(terms, 1, None))
        if self._table_terms + len(table) <= _TABLE_MEMO_TERMS:
            self._tables[key] = table
            self._table_terms += len(table)
        return table

    def _step(self, ctx: _Context, data: _Step, k, inner: _Context, parent):
        """One application of the relation: Z(N; -k) from the step data
        of N in ctx.  A generator: it yields (ctx, alpha, k, parent) for
        every V entry it misses and returns the value (see _run).

        The step is a list of groups (context, polynomial, u, w, root),
        each asking for the polynomial's monomial values V(alpha, u) in
        the context's table: the u-sum groups (N(X+a) G(v), u, C(k, u))
        and (Delta_a N, k, None) in inner (ctx itself, or the default
        context under an explicit top-level shift) with root None, and
        in exact mode one group (face numerator, k, 1, mu^-a prefactor)
        per face, in its sub-series' context.  The inner groups are
        checked once against the recursion metric (_check_descent), so
        a cached V entry cannot hide a step that fails to descend.  A
        context with columns sums its u-sum by columns (_column_terms)
        and keeps only the Delta_a N group.

        Exact mode adds every term in one CyclotomicField._dot: one loop
        reads each group's V table and adds each monomial c X^alpha as
        V(alpha, u), times the root if any (one field product on
        numerators), over its denominator times the polynomial's, with
        the int weight c w; then each point's root mu^(b-a) with weight
        p nb.numerator over q nb.denominator.  One product by
        mu^a/(1 - mu^a) and one cyclotomic._reduced end the step; the
        signs of the faces ride on their prefactors and point terms.
        Approx mode forms each product and sum in turn, in the order
        written here: each nonzero inner group by _resolve, times w
        unless w is None, then mu^a times their sum, each face's value
        by _resolve times its prefactor, and each point's mu^b times
        p nb / q, one correctly rounded division of integers, the
        double that float() gives that Fraction."""
        if inner is ctx and ctx.columns is not None:
            terms = yield from self._column_terms(ctx, data, k, parent)
            groups = []
        else:
            terms = [], [], []
            prod = data.prod
            groups = [
                (inner, prod(ctx, v), u, w, None)
                for u, v, w in self._index_terms(k, ctx.zero_mask)
            ]
        groups.append((inner, data.delta, k, None, None))
        if __debug__ and parent is not None:
            _check_descent(inner.N, groups, parent)
        field = ctx.field
        if field is None:
            acc = 0j
            for group_ctx, p, u, w, _ in groups:
                if p.nums:
                    value = yield from self._resolve(group_ctx, p, u, parent)
                    acc = acc + (value if w is None else value * w)
            total = ctx.mu_a * acc
            faces = zip(ctx.restricted, data.restricted)
            for (piece, sub_ctx), poly in faces:
                sval = yield from self._resolve(sub_ctx, poly, k, parent)
                total = total + piece.prefactor * sval
            for point, nb in zip(ctx.points, data.at_points):
                p, q = point.power(k)
                ratio = (p * nb.numerator) / (q * nb.denominator)
                total = total + point.mu_b * ratio
            return ctx.inv1ma * total
        faces = zip(ctx.restricted, data.restricted, ctx.face_roots)
        groups.extend(
            (sub_ctx, poly, k, 1, root) for (_, sub_ctx), poly, root in faces
        )
        taps = field.taps
        cyclo_mul = kernels.cyclo_mul
        nums, dens, weights = terms
        for group_ctx, p, u, w, root in groups:
            get = group_ctx.V.get
            if w is None:
                w = 1
            for alpha, c in p.nums.items():
                value = get((alpha, u))
                if value is None:
                    value = yield group_ctx, alpha, u, parent
                if root is None:
                    nums.append(value.num)
                else:
                    nums.append(cyclo_mul(root, value.num, taps))
                dens.append(value.den * p.den)
                weights.append(c * w)
        points = zip(ctx.points, data.at_points, ctx.point_roots)
        for point, nb, root in points:
            if nb:
                p, q = point.power(k)
                nums.append(root)
                dens.append(q * nb.denominator)
                weights.append(p * nb.numerator)
        num, den = field._dot(nums, dens, weights)
        scale = ctx.scale
        num = cyclo_mul(scale.num, num, taps)
        return _reduced(field, num, den * scale.den)

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
                columns = ctx.columns
                if columns is not None:
                    alpha, (u,) = key
                    column = columns.get(alpha)
                    if column is None:
                        column = columns[alpha] = ([], [])
                    # V(alpha, u) needed V(alpha, u - 1): columns fill
                    # in order
                    assert len(column[0]) == u, "V column out of order"
                    column[0].append(value.num)
                    column[1].append(value.den)
                continue
            here = (ctx.N, sum(k), sum(alpha))
            assert parent is None or here < parent, (
                "recursion metric failed to decrease"
            )
            pending.append((ctx, (alpha, k), gen))
            gen = self._step(ctx, self._step_data(ctx, alpha), k, ctx, here)
            value = None

    def _column_terms(self, ctx: _Context, data: _Step, k, parent):
        """The u-sum terms of _step's CyclotomicField._dot for a context
        with columns, where the u-sum is sum_beta n_beta sum_{u<k}
        C(k,u) (p/q)^(k-u) V(beta, u) over the monomials n_beta X^beta
        of N(X+a); a generator like _step.

        The weights C(k,u) p^(k-u) q^u over q^k are built once, in one
        list, before anything is stepped.  Each beta then steps the
        entries missing from its column, in order, and sums its first k
        entries in one CyclotomicField._dot.  The terms come back as
        (numerators, denominators, weights): each column sum (num, den)
        over den q^k times the denominator of N(X+a), with weight
        n_beta.  Every u-sum entry has |u| < |k|, so only _step's
        Delta_a N group needs the descent check."""
        (n,) = k
        nums = []
        dens = []
        weights = []
        if n:
            p, q = ctx.ratio
            w = _transform_weights(n, p, q)
            shifted = data.shifted
            over = shifted.den * q**n
            columns = ctx.columns
            field = ctx.field
            for beta, c in shifted.nums.items():
                column = columns.get(beta)
                for u in range(0 if column is None else len(column[0]), n):
                    yield ctx, beta, (u,), parent
                column_nums, column_dens = columns[beta]
                num, den = field._dot(column_nums[:n], column_dens[:n], w)
                nums.append(num)
                dens.append(den * over)
                weights.append(c)
        return nums, dens, weights

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


def _check_indexable(k: Sequence[int]) -> None:
    """Refuse a k with an entry above sys.maxsize, the largest length of
    a list: its binomial rows and index ranges cannot be built."""
    for t, x in enumerate(k, start=1):
        if x > sys.maxsize:
            raise EngineError(
                f"k_{t} = {x} exceeds the largest index {sys.maxsize}"
            )


def _as_k(inst: ZetaInstance, k) -> tuple[int, ...]:
    k = tuple(map(operator.index, k))
    if len(k) != inst.nfactors:
        raise DimensionMismatch(
            f"k of length {len(k)} against {inst.nfactors} factors"
        )
    if any(x < 0 for x in k):
        raise ValueError("the entries of k must be naturals")
    _check_indexable(k)
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


# Corollary entry points: hypotheses checked, then the same recurrence -


def linear_special_value(
    inst: ZetaInstance,
    k: Sequence[int],
    a: Union[str, Sequence[int], ShiftVector] = "default",
    *,
    cache: ValueCache | None = None,
) -> Scalar:
    """Z(1; L_1..L_T; mu; -k) for linear forms L_t with positive
    coefficients, each variable occurring in some L_t, in the context of
    the shift a: the same _value_in as special_value, not a faster path.

    Here Delta_a L_t = L_t(a) is a constant, so resolving Q in the
    context of the shift a holds that shift at every level, and the
    u-sum collapses to scalar weights against the same numerator at
    smaller k: the scalar recursion of the linear case.  With one
    factor in exact mode that recursion is a column sum: the context's
    values of 1 at u = 0..k-1, kept as a column, against the weights
    C(k,u) L(a)^(k-u), in one dot product; approx mode and several
    factors sum term by term.  Boundary faces go through the default
    engine.
    """
    k = _as_k(inst, k)
    if not (inst.Q.is_constant and inst.Q.constant_value() == ONE):
        raise NotLinearForm("linear_special_value requires Q = 1")
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
    linear_special_value, on the column sum there when T = 1 in exact
    mode."""
    expanded = tuple(P.expand() for P in Ps)
    inst = ZetaInstance(
        SparsePolynomial.one(len(mus)), expanded, mus
    )
    k = _as_k(inst, k)
    shift = choose_shift(mus, a)
    for P in Ps:
        quadratic_delta(P, shift)
    return _session(cache)._value_in(inst, k, shift.a)
