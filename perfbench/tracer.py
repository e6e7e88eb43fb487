"""Outside-in call tracer for the twistzeta package.

The tracer wraps public functions and methods of the package from the
outside: nothing in ``src/`` changes.  Each wrapped name is rebound in
every ``twistzeta`` module that holds it (``cli`` imports
``special_value``, ``closed_value``, ``abel_richardson`` and
``validate_conditions``; ``abel`` imports ``expand_numerator``; the
package ``__init__`` re-exports most names), and every class alias of a
wrapped method is re-pointed too (``__rmul__ = __mul__``,
``__radd__ = __add__``); otherwise calls through those names would be
missed.

Bookkeeping is bounded: leaf arithmetic is aggregated into
(function, parent) -> calls / total / self; only the query and method
levels keep one span per call.  Self time is a call's duration minus the
time covered by its traced children, so the self times of all
(function, parent) pairs add up to the root region's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter

# Every layer function the trace reports, in report order.
FUNCTIONS = (
    "cyclotomic.mul_scale",
    "cyclotomic.mul_field",
    "cyclotomic.add",
    "cyclotomic.inverse",
    "kernels.cyclo_mul",
    "kernels.mul_terms",
    "kernels.shift_terms",
    "twists.negapolylog",
    "twists.monomial_sum",
    "twists.mu_power",
    "multipoly.mul",
    "multipoly.shift",
    "multipoly.restrict",
    "multipoly.pow",
    "engine.special_value.default",
    "engine.special_value.explicit",
    "engine.boundary_decompose",
    "closedform.closed_value",
    "closedform.expand_numerator",
    "abel.abel_richardson",
    "abel.abel_estimate",
    "cli.main.verify",
    "cli.main.table",
    "cli.main.value",
    "document.from_json",
    "conditions.validate_conditions",
)

# Work counts reported beside the call statistics.
COUNTS = (
    "kernels.cyclo_mul.coord_products",
    "kernels.mul_terms.term_pairs",
    "kernels.shift_terms.terms",
    "engine.boundary_decompose.pieces",
    "engine.session_values.hits",
    "engine.session_values.misses",
    "closedform.expand_numerator.terms",
    "cyclotomic.calls_in_approx_queries",
)

ROOT = "bench"


class Tracer:
    """Collects calls, self/total time, spans and work counts."""

    def __init__(self):
        self._stack = [["", 0.0, None]]
        self._active: set = set()
        self.agg: dict = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list = []
        self.query = None
        self.query_mode = None
        self._patches: list = []
        self._negapolylog = None
        self._cache0 = None

    # -- recording ------------------------------------------------------

    def _open(self, name, span):
        parent = self._stack[-1]
        if span:
            sid = len(self.spans)
            record = [sid, name, parent[2], self.query, 0.0, 0.0]
            self.spans.append(record)
        else:
            sid, record = parent[2], None
        if self.query_mode == "approx" and name.startswith("cyclotomic."):
            self.counts["cyclotomic.calls_in_approx_queries"] += 1
        outer = name not in self._active
        if outer:
            self._active.add(name)
        frame = [name, 0.0, sid, record, outer, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        name, child, _sid, record, outer, parent = frame
        self._stack.pop()
        if outer:
            self._active.discard(name)
        dur = t1 - t0
        parent[1] += dur
        key = (name, parent[0])
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        if outer:
            entry[1] += dur
        entry[2] += dur - child
        if record is not None:
            record[4] = t0
            record[5] = t1

    def call(self, name, span, fn, args, kwargs):
        frame = self._open(name, span)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, t0, _now())

    @contextmanager
    def region(self, name: str, span: bool = True, query=None, mode=None):
        """A frame of the benchmark itself: the timed phase, or one query."""
        saved = (self.query, self.query_mode)
        if query is not None:
            self.query, self.query_mode = query, mode
        frame = self._open(name, span)
        t0 = _now()
        try:
            yield
        finally:
            self._close(frame, t0, _now())
            self.query, self.query_mode = saved

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, name, span=False, classify=None, pre=None, post=None):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nm = classify(args, kwargs) if classify is not None else name
            state = pre(args, kwargs) if pre is not None else None
            result = call(nm, span, fn, args, kwargs)
            if post is not None:
                post(nm, args, kwargs, result, state)
            return result

        return wrapper

    def _rebind(self, orig, new) -> None:
        """Point every module-level name bound to orig at new."""
        for modname, module in list(sys.modules.items()):
            if modname != "twistzeta" and not modname.startswith("twistzeta."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)
                    self._patches.append((module, attr, orig))

    def _rebind_method(self, cls, orig, new) -> None:
        """Point every class attribute bound to orig (aliases too) at new."""
        for attr, value in list(vars(cls).items()):
            if value is orig:
                setattr(cls, attr, new)
                self._patches.append((cls, attr, orig))

    def install(self) -> "Tracer":
        from twistzeta import (
            _backend,
            abel,
            cli,
            closedform,
            conditions,
            cyclotomic,
            document,
            engine,
            multipoly,
            twists,
        )

        counts = self.counts
        kernels = _backend.kernels
        Elem = cyclotomic.CyclotomicElement
        Poly = multipoly.SparsePolynomial

        def mul_kind(args, kwargs):
            if isinstance(args[1], Elem):
                return "cyclotomic.mul_field"
            return "cyclotomic.mul_scale"

        for attr, name in (("__mul__", None), ("__add__", "cyclotomic.add"),
                           ("inverse", "cyclotomic.inverse")):
            orig = vars(Elem)[attr]
            new = self._wrap(orig, name, classify=None if name else mul_kind)
            self._rebind_method(Elem, orig, new)

        def cyclo_count(args, kwargs):
            counts["kernels.cyclo_mul.coord_products"] += len(args[0]) * len(args[1])

        def mul_terms_count(args, kwargs):
            counts["kernels.mul_terms.term_pairs"] += len(args[0]) * len(args[1])

        def shift_terms_count(args, kwargs):
            counts["kernels.shift_terms.terms"] += len(args[0])

        for attr, pre in (("cyclo_mul", cyclo_count), ("mul_terms", mul_terms_count),
                          ("shift_terms", shift_terms_count)):
            orig = getattr(kernels, attr)
            self._rebind(orig, self._wrap(orig, f"kernels.{attr}", pre=pre))

        self._negapolylog = twists.negapolylog
        self._cache0 = twists.negapolylog.cache_info()
        for fn, name in ((twists.negapolylog, "twists.negapolylog"),
                         (twists.monomial_sum, "twists.monomial_sum"),
                         (twists.mu_power, "twists.mu_power")):
            self._rebind(fn, self._wrap(fn, name))

        for attr, name in (("__mul__", "multipoly.mul"), ("shift", "multipoly.shift"),
                           ("restrict", "multipoly.restrict"), ("__pow__", "multipoly.pow")):
            orig = vars(Poly)[attr]
            self._rebind_method(Poly, orig, self._wrap(orig, name))

        def sv_kind(args, kwargs):
            shift = kwargs.get("shift", "default")
            if isinstance(shift, str) and shift == "default":
                return "engine.special_value.default"
            return "engine.special_value.explicit"

        def sv_pre(args, kwargs):
            cache = kwargs.get("cache")
            return None if cache is None else len(cache.values)

        def sv_post(name, args, kwargs, result, before):
            if name == "engine.special_value.default":
                hit = before is not None and len(kwargs["cache"].values) == before
                counts["engine.session_values.hits" if hit else "engine.session_values.misses"] += 1

        fn = engine.special_value
        self._rebind(fn, self._wrap(fn, None, span=True, classify=sv_kind, pre=sv_pre, post=sv_post))

        def pieces(name, args, kwargs, result, state):
            counts["engine.boundary_decompose.pieces"] += len(result)

        def expanded(name, args, kwargs, result, state):
            counts["closedform.expand_numerator.terms"] += len(result.terms)

        for fn, name, span, post in (
            (engine.boundary_decompose, "engine.boundary_decompose", False, pieces),
            (closedform.closed_value, "closedform.closed_value", True, None),
            (closedform.expand_numerator, "closedform.expand_numerator", False, expanded),
            (abel.abel_richardson, "abel.abel_richardson", True, None),
            (abel.abel_estimate, "abel.abel_estimate", False, None),
            (conditions.validate_conditions, "conditions.validate_conditions", True, None),
        ):
            self._rebind(fn, self._wrap(fn, name, span=span, post=post))

        def main_kind(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.main.{argv[0]}" if argv else "cli.main"

        fn = cli.main
        self._rebind(fn, self._wrap(fn, None, span=True, classify=main_kind))

        Doc = document.ProblemDocument
        orig = vars(Doc)["from_json"]
        new = classmethod(self._wrap(orig.__func__, "document.from_json", span=True))
        setattr(Doc, "from_json", new)
        self._patches.append((Doc, "from_json", orig))
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict:
        """Flat per-layer metrics: <fn>.calls/total_s/self_s plus counts."""
        per_fn: dict = {}
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            row = per_fn.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        out = {}
        for name in FUNCTIONS:
            calls, total, self_s = per_fn.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        scale = out["cyclotomic.mul_scale.calls"]
        field = out["cyclotomic.mul_field.calls"]
        out["cyclotomic.scale_share"] = scale / (scale + field) if scale + field else 0.0
        if self._cache0 is not None:
            info = self._negapolylog.cache_info()
            out["twists.negapolylog.hits"] = info.hits - self._cache0.hits
            out["twists.negapolylog.misses"] = info.misses - self._cache0.misses
        return out

    def self_time_sum(self) -> float:
        return sum(entry[2] for entry in self.agg.values())

    def root_time(self) -> float:
        """Duration of the outermost benchmark region."""
        return self.agg.get((ROOT, ""), (0, 0.0, 0.0))[1]

    def by_parent(self, limit: int = 12) -> list:
        """The (function, parent) pairs with the most self time."""
        rows = sorted(self.agg.items(), key=lambda kv: -kv[1][2])[:limit]
        return [[name, parent, calls, round(self_s, 6)] for (name, parent), (calls, _t, self_s) in rows]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, parent, query, t0, t1 in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                         "query": query, "start": t0, "end": t1}) + "\n")
