"""JSON problem documents and result records for the CLI.

A document carries the instance data (variable count, twists, numerator
Q, factors P_t), an optional shift, and optional queries, with all
rationals as strings to keep the format exact.  Parsing normalizes the
payload, so parse -> serialize -> parse is the identity on valid
documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

from ._rational import format_rational, parse_rational
from .engine import ZetaInstance
from .errors import DocumentError, EngineError
from .multipoly import SparsePolynomial
from .twists import TwistVector

__all__ = ["ProblemDocument", "ValueRecord", "parse_document"]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _as_int(value, what: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            f"{what} must be an integer")
    return value


def _parse_terms(raw, nvars: int, what: str) -> SparsePolynomial:
    _expect(isinstance(raw, list), f"{what} must be a list of terms")
    terms = {}
    for item in raw:
        _expect(isinstance(item, dict), f"{what}: each term is an object")
        _expect(set(item) == {"coef", "exps"},
                f"{what}: term fields are exactly coef and exps")
        coef_raw = item["coef"]
        _expect(isinstance(coef_raw, (str, int)) and
                not isinstance(coef_raw, bool),
                f"{what}: coef must be a string like \"p/q\"")
        try:
            coef = parse_rational(str(coef_raw))
        except ValueError as exc:
            raise DocumentError(f"{what}: {exc}") from None
        exps = item["exps"]
        _expect(isinstance(exps, list) and len(exps) == nvars,
                f"{what}: exps must list {nvars} exponents")
        _expect(all(isinstance(e, int) and not isinstance(e, bool) and e >= 0
                    for e in exps),
                f"{what}: exponents must be naturals")
        key = tuple(exps)
        _expect(key not in terms, f"{what}: duplicate exponent {key}")
        if coef:
            terms[key] = coef
    return SparsePolynomial(nvars, terms)


def _terms_payload(P: SparsePolynomial) -> list:
    return [
        {"coef": format_rational(c), "exps": list(e)}
        for e, c in P.sorted_terms()
    ]


def _parse_twist(raw, nvars: int) -> TwistVector:
    _expect(isinstance(raw, dict), "twist must be an object")
    mode = raw.get("mode")
    if mode == "exact":
        _expect(set(raw) == {"mode", "order", "exponents"},
                "exact twist fields are mode, order, exponents")
        order = _as_int(raw["order"], "twist order")
        _expect(order >= 1, "twist order must be >= 1")
        exps = raw["exponents"]
        _expect(isinstance(exps, list) and len(exps) == nvars,
                f"twist exponents must list {nvars} entries")
        exps = [_as_int(e, "twist exponent") for e in exps]
        return TwistVector.exact(order, exps)
    if mode == "approx":
        _expect(set(raw) == {"mode", "angles"},
                "approx twist fields are mode, angles")
        angles = raw["angles"]
        _expect(isinstance(angles, list) and len(angles) == nvars,
                f"twist angles must list {nvars} entries")
        _expect(all(isinstance(t, (int, float)) and not isinstance(t, bool)
                    for t in angles), "angles must be numbers")
        return TwistVector.approx([float(t) for t in angles])
    raise DocumentError("twist mode must be \"exact\" or \"approx\"")


def _twist_payload(mus: TwistVector) -> dict:
    if mus.mode == "exact":
        return {
            "mode": "exact",
            "order": mus.order,
            "exponents": list(mus.exponents),
        }
    return {"mode": "approx", "angles": list(mus.angles)}


@dataclass(frozen=True)
class ProblemDocument:
    """Parsed and normalized problem input."""

    nvars: int
    nfactors: int
    mus: TwistVector
    Q: SparsePolynomial
    Ps: tuple[SparsePolynomial, ...]
    shift: Optional[tuple[int, ...]]
    queries: Optional[tuple[tuple[int, ...], ...]]
    max_k: Optional[tuple[int, ...]]

    @classmethod
    def from_json(cls, text: str) -> "ProblemDocument":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise DocumentError("not valid JSON: nested too deeply") from None
        _expect(isinstance(raw, dict), "the document must be a JSON object")
        allowed = {"nvars", "nfactors", "twist", "Q", "Ps", "shift",
                   "queries"}
        unknown = set(raw) - allowed
        _expect(not unknown, f"unknown fields: {sorted(unknown)}")
        for field in ("nvars", "nfactors", "twist", "Q", "Ps"):
            _expect(field in raw, f"missing field {field}")
        nvars = _as_int(raw["nvars"], "nvars")
        nfactors = _as_int(raw["nfactors"], "nfactors")
        _expect(nvars >= 1, "nvars must be >= 1")
        _expect(nfactors >= 1, "nfactors must be >= 1")
        mus = _parse_twist(raw["twist"], nvars)
        Q = _parse_terms(raw["Q"], nvars, "Q")
        ps_raw = raw["Ps"]
        _expect(isinstance(ps_raw, list) and len(ps_raw) == nfactors,
                f"Ps must list {nfactors} factor term lists")
        Ps = tuple(
            _parse_terms(p, nvars, f"Ps[{t}]")
            for t, p in enumerate(ps_raw)
        )
        for t, P in enumerate(Ps, start=1):
            _expect(not P.is_zero, f"P_{t} is the zero polynomial")
        shift = None
        if "shift" in raw and raw["shift"] is not None:
            sh = raw["shift"]
            _expect(isinstance(sh, list) and len(sh) == nvars,
                    f"shift must list {nvars} naturals")
            shift = tuple(_as_int(x, "shift entry") for x in sh)
            _expect(all(x >= 0 for x in shift) and any(shift),
                    "shift entries are naturals, not all zero")
        queries = None
        max_k = None
        if "queries" in raw and raw["queries"] is not None:
            q = raw["queries"]
            if isinstance(q, dict):
                _expect(set(q) == {"max"}, "query range holds only max")
                mk = q["max"]
                _expect(isinstance(mk, list) and len(mk) == nfactors,
                        f"max must list {nfactors} bounds")
                max_k = tuple(_as_int(x, "max entry") for x in mk)
                _expect(all(x >= 0 for x in max_k), "bounds are naturals")
            else:
                _expect(isinstance(q, list), "queries is a list or a range")
                out = []
                for entry in q:
                    _expect(isinstance(entry, list)
                            and len(entry) == nfactors,
                            f"each query lists {nfactors} naturals")
                    kt = tuple(_as_int(x, "query entry") for x in entry)
                    _expect(all(x >= 0 for x in kt), "queries are naturals")
                    out.append(kt)
                queries = tuple(out)
        return cls(
            nvars=nvars,
            nfactors=nfactors,
            mus=mus,
            Q=Q,
            Ps=Ps,
            shift=shift,
            queries=queries,
            max_k=max_k,
        )

    def to_json(self) -> str:
        payload = {
            "nvars": self.nvars,
            "nfactors": self.nfactors,
            "twist": _twist_payload(self.mus),
            "Q": _terms_payload(self.Q),
            "Ps": [_terms_payload(P) for P in self.Ps],
        }
        if self.shift is not None:
            payload["shift"] = list(self.shift)
        if self.queries is not None:
            payload["queries"] = [list(k) for k in self.queries]
        elif self.max_k is not None:
            payload["queries"] = {"max": list(self.max_k)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_instance(self, mode: Optional[str] = None) -> ZetaInstance:
        """Build the instance, optionally forcing the twist mode.

        Forcing approx embeds exact twists; forcing exact on an approx
        document fails, floats carry no exact order.
        """
        mus = self.mus
        if mode is not None and mode != mus.mode:
            if mode == "approx":
                mus = mus.to_approx()
            else:
                raise DocumentError(
                    "cannot lift an approx document to exact mode"
                )
        try:
            return ZetaInstance(self.Q, self.Ps, mus)
        except EngineError as exc:
            raise DocumentError(str(exc)) from None


def parse_document(text: str) -> ProblemDocument:
    """Parse JSON text; DocumentError or TwistIsOne on invalid input."""
    return ProblemDocument.from_json(text)


def _float_text(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0 so output does not depend on sign noise
    if math.isnan(x) or math.isinf(x):
        raise EngineError("non-finite value in output")
    return repr(x)


def _pair_text(z: complex, sep: str) -> str:
    """The real and imaginary parts of z by _float_text, joined by sep."""
    return f"{_float_text(z.real)}{sep}{_float_text(z.imag)}"


@dataclass(frozen=True)
class ValueRecord:
    """One computed value: exact coordinates when available, a decimal
    rendering, the methods that ran, and their agreement."""

    k: tuple[int, ...]
    exact: Optional[object]
    approx: complex
    method: tuple[str, ...]
    agree: Optional[bool] = None

    def machine_line(self) -> str:
        ks = ",".join(str(x) for x in self.k)
        if self.exact is None:
            ex = "null"
        else:
            ex = "[" + ",".join(
                format_rational(c) for c in self.exact.coords
            ) + "]"
        ap = _pair_text(self.approx, ",")
        tags = ",".join(self.method)
        return f"k={ks} exact={ex} approx={ap} method={tags}"

    def pretty_value(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return _pair_text(self.approx, " + ") + "i"
