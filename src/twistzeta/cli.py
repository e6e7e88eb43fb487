"""Command line front end.

Subcommands: value (one or more k), table (a box of k), verify (cross
check the two methods, shift independence, and the Abel estimate on one
document), check (condition report).  Documents are JSON; see the
README for the schema.

Exit codes: 0 success, 2 parse or validation failure, 3 the two
methods disagree, 4 engine errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import sys
from typing import Optional, Sequence

from ._rational import format_rational, parse_rational
from .abel import abel_richardson
from .closedform import closed_value
from .conditions import validate_conditions
from .cyclotomic import CyclotomicElement, CyclotomicField
from .document import ProblemDocument, ValueRecord, _pair_text
from .engine import (
    ValueCache,
    ZetaInstance,
    _check_indexable,
    choose_shift,
    special_value,
)
from .errors import (
    DocumentError,
    MuPowerIsOne,
    TwistIsOne,
    TwistZetaError,
)

_APPROX_AGREE_TOL = 1e-8
_ABEL_TOL = 1e-6
_ABEL_MAX_DEGREE = 6


class _Disagreement(Exception):
    pass


def _agrees(value, reference) -> bool:
    """Exact values agree when equal; doubles when they differ by at most
    _APPROX_AGREE_TOL * (1 + |reference|)."""
    if isinstance(reference, CyclotomicElement):
        return value == reference
    return abs(value - reference) <= _APPROX_AGREE_TOL * (1 + abs(reference))


def _read_document(path: str) -> ProblemDocument:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}") from None
    return ProblemDocument.from_json(text)


def _parse_k(text: str, nfactors: int) -> tuple[int, ...]:
    raw = text.strip().strip("()")
    try:
        k = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise DocumentError(f"cannot parse k from {text!r}") from None
    if len(k) != nfactors or any(x < 0 for x in k):
        raise DocumentError(
            f"k must be {nfactors} comma-separated naturals"
        )
    _check_indexable(k)
    return k


def _parse_shift(text: Optional[str], nvars: int):
    if text is None:
        return "default"
    if text in ("default", "all-ones"):
        return text
    try:
        a = tuple(int(part) for part in text.strip().strip("()").split(","))
    except ValueError:
        raise DocumentError(f"cannot parse shift from {text!r}") from None
    if len(a) != nvars:
        raise DocumentError(
            f"shift must list one entry per twist: {nvars} expected, "
            f"{len(a)} given"
        )
    return a


def _box(max_k: Sequence[int]):
    _check_indexable(max_k)
    return itertools.product(*[range(x + 1) for x in max_k])


# cache persistence ---------------------------------------------------


def _cache_load(
    path: Optional[str], session: ValueCache, mode: str
) -> Optional[int]:
    """Load the exact values of a cache file into the session.  Returns
    the number of values held after a clean load of an existing file,
    None when there was no file to read or it was ignored."""
    if not path or mode != "exact" or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("the cache must be a JSON object")
        for key, entry in raw.items():
            order = int(entry["order"])
            if ValueCache.key_order(key) != order:
                raise ValueError(
                    f"an entry of order {order} under a key of another "
                    f"twist order"
                )
            field = CyclotomicField.get(order)
            coords = [parse_rational(c) for c in entry["coords"]]
            session.values[key] = field.element(coords)
    except (
        ValueError,
        KeyError,
        TypeError,
        OSError,
        RecursionError,
        TwistZetaError,
    ) as exc:
        print(f"warning: ignoring cache {path}: {exc}", file=sys.stderr)
        session.values.clear()
        return None
    return len(session.values)


def _cache_save(
    path: Optional[str],
    session: ValueCache,
    mode: str,
    loaded: Optional[int],
) -> None:
    """Write the session's exact values to the cache file, unless loaded
    (what _cache_load returned) says the file loaded cleanly and the
    session added no value to it."""
    if not path or mode != "exact" or loaded == len(session.values):
        return
    payload = {}
    for key in sorted(session.values):
        value = session.values[key]
        if not isinstance(value, CyclotomicElement):
            continue
        payload[key] = {
            "order": value.field.order,
            "coords": [format_rational(c) for c in value.coords],
        }
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ValueError(
            f"cannot write cache {path}: {exc.strerror or exc}"
        ) from None


# value records -------------------------------------------------------


def _compute_record(
    inst: ZetaInstance,
    k: tuple[int, ...],
    method: str,
    shift,
    session: ValueCache,
    fault: bool,
) -> ValueRecord:
    exact_mode = inst.mus.mode == "exact"
    tags = []
    v_rec = None
    v_clo = None
    approx = None
    if method in ("recurrence", "both"):
        v_rec = special_value(inst, k, shift=shift, cache=session)
        tags.append("recurrence")
        # a value with no double form stops here, before the closed route
        approx = v_rec.embed() if exact_mode else v_rec
    if method in ("closed", "both"):
        v_clo = closed_value(inst.Q, inst.Ps, k, inst.mus)
        if fault:
            v_clo = v_clo + inst.mus.one_scalar()
        tags.append("closed")
        if approx is None:
            approx = v_clo.embed() if exact_mode else v_clo
    agree = None
    if v_rec is not None and v_clo is not None:
        agree = _agrees(v_rec, v_clo)
    value = v_rec if v_rec is not None else v_clo
    return ValueRecord(
        k=k,
        exact=value if exact_mode else None,
        approx=approx,
        method=tuple(tags),
        agree=agree,
    )


def _fail_on_disagreement(records: list[ValueRecord]) -> None:
    for r in records:
        if r.agree is False:
            ks = ",".join(str(x) for x in r.k)
            raise _Disagreement(
                f"methods disagree at k={ks}: "
                f"recurrence gives {r.pretty_value()}"
            )


# subcommands ---------------------------------------------------------


def _query_ks(args, doc: ProblemDocument, nfactors: int) -> list:
    """The k of a value or table command: value takes one k or the
    document's queries, table the box up to --max or the document's
    range."""
    if args.command == "table":
        if args.max is not None:
            return list(_box(_parse_k(args.max, nfactors)))
        if doc.max_k is not None:
            return list(_box(doc.max_k))
        raise DocumentError("no --max given and the document has no range")
    if args.k is not None:
        return [_parse_k(args.k, nfactors)]
    if doc.queries:
        for k in doc.queries:
            # --method closed would expand P^k before any engine check
            _check_indexable(k)
        return list(doc.queries)
    raise DocumentError("no k given and the document lists no queries")


def _cmd_values(args) -> int:
    """value and table: one machine line per k, which table precedes
    with an aligned k / value / decimal table and a blank line."""
    doc = _read_document(args.document)
    inst = doc.to_instance(args.mode)
    ks = _query_ks(args, doc, inst.nfactors)
    session = ValueCache()
    loaded = _cache_load(args.cache, session, inst.mus.mode)
    shift = _parse_shift(args.shift, inst.nvars)
    records = [
        _compute_record(inst, k, args.method, shift, session,
                        args.inject_fault)
        for k in ks
    ]
    if args.command == "table":
        rows = [
            (",".join(str(x) for x in r.k), r.pretty_value(),
             _pair_text(r.approx, ","))
            for r in records
        ]
        widths = [
            max(len("k"), *(len(row[0]) for row in rows)),
            max(len("value"), *(len(row[1]) for row in rows)),
        ]
        print(f"{'k'.ljust(widths[0])}  {'value'.ljust(widths[1])}  decimal")
        for row in rows:
            print(f"{row[0].ljust(widths[0])}  {row[1].ljust(widths[1])}  "
                  f"{row[2]}")
        print()
    for r in records:
        print(r.machine_line())
    _cache_save(args.cache, session, inst.mus.mode, loaded)
    _fail_on_disagreement(records)
    return 0


def _random_shift(rng: random.Random, inst: ZetaInstance):
    for _ in range(50):
        a = tuple(rng.randint(0, 3) for _ in range(inst.nvars))
        if not any(a):
            continue
        try:
            choose_shift(inst.mus, a)
        except TwistZetaError:
            continue
        return a
    return None


def _cmd_verify(args) -> int:
    doc = _read_document(args.document)
    inst = doc.to_instance(args.mode)
    report = validate_conditions(inst)
    for line in report.lines():
        print(line)
    if report.growth == "fail":
        print("verify: refused, the growth condition fails")
        return 2
    if args.max is not None:
        ks = list(_box(_parse_k(args.max, inst.nfactors)))
    elif doc.queries:
        ks = list(doc.queries)
    elif doc.max_k is not None:
        ks = list(_box(doc.max_k))
    else:
        ks = list(_box((2,) * inst.nfactors))
    session = ValueCache()
    loaded = _cache_load(args.cache, session, inst.mus.mode)
    exact_mode = inst.mus.mode == "exact"
    rng = random.Random(args.seed)

    shifts = []
    if doc.shift is not None:
        shifts.append(doc.shift)
    try:
        choose_shift(inst.mus, "all-ones")
        shifts.append("all-ones")
    except MuPowerIsOne:
        pass
    for _ in range(2):
        a = _random_shift(rng, inst)
        if a is not None and a not in shifts:
            shifts.append(a)

    qdeg = inst.Q.total_degree()
    pdegs = [P.total_degree() for P in inst.Ps]

    for k in ks:
        v_rec = special_value(inst, k, cache=session)
        v_clo = closed_value(inst.Q, inst.Ps, k, inst.mus)
        if args.inject_fault:
            v_clo = v_clo + inst.mus.one_scalar()
        ktext = ",".join(str(x) for x in k)
        if not _agrees(v_rec, v_clo):
            print(f"counterexample: k={ktext}")
            print(f"  recurrence = {v_rec}")
            print(f"  closed     = {v_clo}")
            raise _Disagreement(f"methods disagree at k={ktext}")
        for sh in shifts:
            v_sh = special_value(inst, k, shift=sh, cache=session)
            if not _agrees(v_sh, v_rec):
                print(f"counterexample: k={ktext} shift={sh}")
                print(f"  default   = {v_rec}")
                print(f"  shifted   = {v_sh}")
                raise _Disagreement(
                    f"shift {sh} changes the value at k={ktext}"
                )
        degree = (max(qdeg, 0)
                  + sum(kt * max(d, 0) for kt, d in zip(k, pdegs)))
        abel_text = "skipped"
        if inst.nvars <= 2 and degree <= _ABEL_MAX_DEGREE:
            target = v_rec.embed() if exact_mode else v_rec
            resid = abs(abel_richardson(inst, k) - target)
            abel_text = f"{resid:.3e}"
            if resid > _ABEL_TOL:
                print(f"counterexample: k={ktext} abel residual {resid:.3e}")
                raise _Disagreement(
                    f"Abel estimate misses at k={ktext} by {resid:.3e}"
                )
        v_text = str(v_rec) if exact_mode else _pair_text(v_rec, ",")
        print(
            f"k={ktext} value={v_text} methods=agree "
            f"shifts={1 + len(shifts)} abel={abel_text}"
        )
    _cache_save(args.cache, session, inst.mus.mode, loaded)
    print(f"verify: PASS ({len(ks)} values, {1 + len(shifts)} shifts each)")
    return 0


def _cmd_check(args) -> int:
    doc = _read_document(args.document)
    inst = doc.to_instance(args.mode)
    report = validate_conditions(inst)
    for line in report.lines():
        print(line)
    return 0


# parser --------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("document", help="path to a JSON document, or - for stdin")
    sub.add_argument("--mode", choices=["exact", "approx"], default=None,
                     help="override the twist mode of the document")
    sub.add_argument("--cache", metavar="FILE", default=None,
                     help="JSON value-cache file to read and update")


def _add_evaluation(sub) -> None:
    """The options shared by value and table."""
    sub.add_argument("--method", choices=["recurrence", "closed", "both"],
                     default="both")
    sub.add_argument("--shift", default=None, metavar="a1,...,aN")
    sub.add_argument("--inject-fault", action="store_true",
                     help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistzeta",
        description="Exact special values of twisted multivariable "
                    "zeta series at negative integers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_value = subs.add_parser("value", help="evaluate at one k")
    _add_common(p_value)
    p_value.add_argument("k", nargs="?", default=None,
                         help="comma-separated k, e.g. 1,0; defaults to "
                              "the document queries")
    _add_evaluation(p_value)
    p_value.set_defaults(func=_cmd_values)

    p_table = subs.add_parser("table", help="evaluate a whole box of k")
    _add_common(p_table)
    p_table.add_argument("--max", default=None, metavar="K1,...,KT")
    _add_evaluation(p_table)
    p_table.set_defaults(func=_cmd_values)

    p_verify = subs.add_parser(
        "verify", help="cross-check both methods, shifts, and Abel sums"
    )
    _add_common(p_verify)
    p_verify.add_argument("--max", default=None, metavar="K1,...,KT")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--inject-fault", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.set_defaults(func=_cmd_verify)

    p_check = subs.add_parser("check", help="print the condition report")
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones:
    parse_args keeps no state between calls."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Disagreement as exc:
        print(f"verify: FAIL, {exc}", file=sys.stderr)
        return 3
    except (DocumentError, TwistIsOne, MuPowerIsOne) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwistZetaError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 4
    except (OverflowError, MemoryError) as exc:
        # a k past the index range, or a table past the memory; a
        # MemoryError usually carries no text
        print(f"engine error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
