"""Acceptance battery.

One test per criterion, each printing a single [criterion N] PASS/FAIL
line straight to the terminal (capture disabled for that line only).
The corpora are seeded, so a failure replays deterministically.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from twistzeta import (
    StructuredQuadratic,
    TwistVector,
    ValueCache,
    ZetaInstance,
    abel_richardson,
    closed_value,
    linear_special_value,
    quadratic_delta,
    quadratic_special_value,
    special_value,
)
from twistzeta._rational import rat
from twistzeta.cyclotomic import CyclotomicField
from twistzeta.document import parse_document
from twistzeta.engine import choose_shift
from twistzeta.errors import MuPowerIsOne
from twistzeta.multipoly import SparsePolynomial
from twistzeta.twists import Twist, eulerian_negapolylog, negapolylog

import random

from _support import (
    box_partition_holds,
    ks_up_to,
    oracle_corpus,
    random_instance,
    random_twists,
    random_valid_shift,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = oracle_corpus(1105, 200)
    return _CORPUS


def _emit(capsys, n, name, ok, extra=""):
    line = f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    session = ValueCache()
    checked = 0
    bad = None
    for inst in corpus():
        for k in ks_up_to(inst.nfactors, 5):
            v = special_value(inst, k, cache=session)
            w = closed_value(inst.Q, inst.Ps, k, inst.mus)
            checked += 1
            if v != w:
                bad = (inst, k)
                break
        if bad:
            break
    elapsed = time.perf_counter() - t0
    ok = bad is None and elapsed < 60.0
    _emit(capsys, 1, "oracle equivalence",
          ok, f"{checked} values, {elapsed:.2f}s, first mismatch: {bad}")


def test_criterion_2_shift_independence(capsys):
    rng = random.Random(2207)
    session = ValueCache()
    compared = 0
    bad = None
    for inst in corpus()[:50]:
        shifts = []
        try:
            choose_shift(inst.mus, "all-ones")
            shifts.append("all-ones")
        except MuPowerIsOne:
            pass
        shifts += [random_valid_shift(rng, inst.mus) for _ in range(10)]
        for k in ks_up_to(inst.nfactors, 2):
            base = special_value(inst, k, cache=session)
            for sh in shifts:
                if special_value(inst, k, shift=sh, cache=session) != base:
                    bad = (inst, k, sh)
                    break
                compared += 1
            if bad:
                break
        if bad:
            break
    _emit(capsys, 2, "shift independence", bad is None,
          f"{compared} comparisons, first mismatch: {bad}")


def test_criterion_3_known_one_dim_values(capsys):
    field = CyclotomicField.get(2)
    mu_elt = field.root(1)
    inst = ZetaInstance(
        SparsePolynomial.one(1),
        (SparsePolynomial.variable(1, 1),),
        TwistVector.exact(2, (1,)),
    )
    tw = Twist(mode="exact", order=2, exponent=1)
    ok = True
    for n in range(11):
        got = special_value(inst, (n,))
        if n == 0:
            want = mu_elt * (field.one - mu_elt).inverse()
        else:
            want = eulerian_negapolylog(n, tw)
        ok = ok and got == want
    literal = [rat(-1, 2), rat(-1, 4), rat(0), rat(1, 8)]
    for n, c in enumerate(literal):
        ok = ok and special_value(inst, (n,)) == field.constant(c)
    _emit(capsys, 3, "known 1-D values", ok, "k = 0..10 against the "
          "Eulerian oracle, literals -1/2, -1/4, 0, 1/8")


def _random_linear_instance(rng):
    N = rng.choice((1, 2, 3))
    T = rng.choice((1, 2))
    Ps = []
    for t in range(T):
        if t == 0:
            vars_t = list(range(1, N + 1))  # dependency: cover everything
        else:
            vars_t = sorted(
                rng.sample(range(1, N + 1), rng.randint(1, N))
            )
        terms = {}
        for n in vars_t:
            e = tuple(1 if i == n - 1 else 0 for i in range(N))
            terms[e] = rat(rng.randint(1, 5), rng.randint(1, 3))
        Ps.append(SparsePolynomial(N, terms))
    return ZetaInstance(
        SparsePolynomial.one(N), tuple(Ps), random_twists(rng, N)
    )


def test_criterion_4_fast_paths(capsys):
    rng = random.Random(4410)
    session = ValueCache()
    checked = 0
    ok = True
    for _ in range(50):
        inst = _random_linear_instance(rng)
        for k in ks_up_to(inst.nfactors, 3):
            fast = linear_special_value(inst, k, cache=session)
            ok = ok and fast == special_value(inst, k, cache=session)
            ok = ok and fast == closed_value(inst.Q, inst.Ps, k, inst.mus)
            checked += 1

    mus = TwistVector.exact(4, (1, 1))
    quad = StructuredQuadratic(
        squares=((rat(1), rat(-1)),),
        linear=(rat(1), rat(1)),
        constant=rat(1),
    )
    ok = ok and quadratic_delta(quad, (1, 1)) == rat(2)
    expanded = ZetaInstance(SparsePolynomial.one(2), (quad.expand(),), mus)
    for k in range(5):
        fast = quadratic_special_value((quad,), mus, (k,), (1, 1),
                                       cache=session)
        ok = ok and fast == special_value(expanded, (k,), cache=session)
        ok = ok and fast == closed_value(
            expanded.Q, expanded.Ps, (k,), mus
        )
        checked += 1
    _emit(capsys, 4, "corollary entry points", ok,
          f"{checked} values, linear forms and the structured quadratic")


def test_criterion_5_boundary_partition(capsys):
    rng = random.Random(5513)
    trials = 0
    ok = True
    while trials < 50:
        inst = random_instance(rng)
        a = tuple(rng.randint(0, 3) for _ in range(inst.nvars))
        if not any(a):
            continue
        M = rng.randint(max(a) + 1, 8)
        k = tuple(rng.randint(0, 2) for _ in range(inst.nfactors))
        ok = ok and box_partition_holds(inst, k, a, M)
        trials += 1
    _emit(capsys, 5, "boundary partition identity", ok,
          f"{trials} random (instance, a, M) triples, exact")


def test_criterion_6_abel_cross_check(capsys):
    session = ValueCache()
    insts = [inst for inst in corpus() if inst.nvars <= 2][:20]
    worst = 0.0
    values = 0
    for inst in insts:
        for k in ks_up_to(inst.nfactors, 2):
            exact = special_value(inst, k, cache=session).embed()
            resid = abs(abel_richardson(inst, k) - exact)
            worst = max(worst, resid)
            values += 1
    ok = len(insts) == 20 and worst < 1e-6
    _emit(capsys, 6, "Abel numeric cross-check", ok,
          f"{values} values on 20 instances, max residual {worst:.3e}, "
          f"tolerance 1e-06")


def test_criterion_7_negapolylog_dual_derivation(capsys):
    ok = True
    pairs = 0
    for r in range(2, 13):
        for e in range(1, r):
            tw = Twist(mode="exact", order=r, exponent=e)
            z = CyclotomicField.get(r).root(e)
            geom = z * (CyclotomicField.get(r).one - z).inverse()
            ok = ok and negapolylog(0, tw) == geom
            for n in range(1, 13):
                ok = ok and (
                    negapolylog(n, tw) == eulerian_negapolylog(n, tw)
                )
                pairs += 1
    _emit(capsys, 7, "negapolylog dual derivation", ok,
          f"{pairs} (n, twist) pairs, n <= 12, r <= 12")


def test_criterion_8_index_convention_equivalence(capsys):
    resid = ValueCache(index_form="residual")
    consumed = ValueCache(index_form="consumed")
    checked = 0
    bad = None
    for inst in corpus():
        for k in ks_up_to(inst.nfactors, 5):
            a = special_value(inst, k, cache=resid)
            b = special_value(inst, k, cache=consumed)
            checked += 1
            if a != b:
                bad = (inst, k)
                break
        if bad:
            break
    _emit(capsys, 8, "index convention equivalence", bad is None,
          f"{checked} values under both sum forms, first mismatch: {bad}")


def _script_argv():
    exe = shutil.which("twistzeta")
    if exe:
        return [exe]
    return [sys.executable, "-m", "twistzeta.cli"]


def test_criterion_9_cli_contract(capsys, tmp_path):
    doc_path = str(PROBLEMS / "alternating_linear.json")
    ok = True
    notes = []
    env = dict(os.environ, PYTHONPATH=str(PROBLEMS.parent / "src"))

    clean = subprocess.run(_script_argv() + ["verify", doc_path],
                           capture_output=True, text=True, timeout=300,
                           env=env)
    ok = ok and clean.returncode == 0 and "verify: PASS" in clean.stdout
    notes.append(f"verify rc={clean.returncode}")

    fault = subprocess.run(
        _script_argv() + ["verify", doc_path, "--inject-fault"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    ok = ok and fault.returncode == 3 and "counterexample" in fault.stdout
    notes.append(f"fault rc={fault.returncode}")

    for path in sorted(PROBLEMS.glob("*.json")):
        doc = parse_document(path.read_text())
        ok = ok and parse_document(doc.to_json()) == doc

    runs = [
        subprocess.run(_script_argv() + ["table", doc_path],
                       capture_output=True, text=True, timeout=300, env=env)
        for _ in range(2)
    ]
    ok = ok and runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    notes.append("deterministic" if runs[0].stdout == runs[1].stdout
                 else "NONDETERMINISTIC")

    bad = tmp_path / "broken.json"
    bad.write_text("{]")
    parse = subprocess.run(_script_argv() + ["value", str(bad), "0"],
                           capture_output=True, text=True, timeout=300,
                           env=env)
    ok = ok and parse.returncode == 2
    notes.append(f"parse-error rc={parse.returncode}")

    _emit(capsys, 9, "CLI contract", ok, ", ".join(notes))
