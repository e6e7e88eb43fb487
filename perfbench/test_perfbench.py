"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the runner on shrunken inputs (--tiny), check that an injected
fault is caught, that the tracer's counts equal a hand count, and that
the runner refuses to produce a result outside a twistzeta checkout.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import run  # noqa: E402
from run import WORKLOADS  # noqa: E402
import twistzeta  # noqa: E402
from twistzeta import cli  # noqa: E402
from twistzeta.cyclotomic import CyclotomicField  # noqa: E402
from twistzeta.multipoly import SparsePolynomial  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def test_contract_workloads_are_runnable():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc, result = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                        "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc, result = _run("--workload", "cli_mix", "--seed", "3", "--seconds", "0.1",
                        "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["cli.main.verify.calls"]["value"] > 0


def test_injected_cli_fault_fails_the_run():
    proc, result = _run("--workload", "cli_mix", "--seed", "3", "--seconds", "0.1",
                        "--trace", "0", "--tiny", "--inject-fault")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert "exit 3, expected 0" in proc.stdout


def test_speed_scaling_undoes_a_slow_host():
    # The same pass on a host at half the reference speed: every probe and
    # every query takes twice as long, so the scaled metrics agree.
    queries = 40
    fast = {"probes": [run.REF_PROBE_S] * queries, "values": 80, "rss_mb": 20.0,
            "latencies": [0.001 * (1 + i % 7) for i in range(queries)],
            "recurrence": [0.0004] * queries, "closed": [0.0002] * queries,
            "setup_s": 0.2}
    slow = {k: [2 * t for t in v] if isinstance(v, list) else v for k, v in fast.items()}
    slow["setup_s"] = 0.4
    assert run._end_to_end([slow], [slow]) == pytest.approx(run._end_to_end([fast], [fast]))
    assert run._end_to_end([fast], [fast])["recurrence_s"] == pytest.approx(0.016)
    assert run._end_to_end([slow], [slow], scaled=False)["closed_s"] == pytest.approx(0.016)
    # A slow phase in the middle of a pass only touches the queries near it.
    probes = [run.REF_PROBE_S] * 100
    probes[50] *= 17  # the 16 probes around query 50 now average 2x
    factors = run._speed_factors(probes)
    assert factors[50] == pytest.approx(0.5)
    assert factors[0] == pytest.approx(1.0) and factors[99] == pytest.approx(1.0)


def test_outside_a_checkout_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


@pytest.fixture
def installed():
    tr = tracer.Tracer().install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_tracer_counts_equal_a_hand_count():
    field = CyclotomicField.get(5)  # phi = 4
    x, y = field.root(1), field.root(2)
    P = SparsePolynomial(1, {(0,): 1, (1,): 1})
    Q = SparsePolynomial(1, {(0,): 1, (1,): 2, (2,): 1})
    tr = tracer.Tracer().install()
    try:
        _hand_counted_calls(tr, x, y, P, Q)
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert m["cyclotomic.mul_field.calls"] == 1
    assert m["kernels.cyclo_mul.calls"] == 1
    assert m["kernels.cyclo_mul.coord_products"] == 16
    assert m["cyclotomic.mul_scale.calls"] == 2
    assert m["cyclotomic.add.calls"] == 3
    assert m["cyclotomic.inverse.calls"] == 1
    assert m["cyclotomic.scale_share"] == pytest.approx(2 / 3)
    assert m["cyclotomic.calls_in_approx_queries"] == 1
    assert m["multipoly.pow.calls"] == 1
    assert m["multipoly.mul.calls"] == 3
    assert m["kernels.mul_terms.calls"] == 3
    assert m["kernels.mul_terms.term_pairs"] == 6 + 4 + 3
    assert tr.self_time_sum() == pytest.approx(tr.root_time(), rel=1e-9, abs=1e-12)


def _hand_counted_calls(tr, x, y, P, Q):
    with tr.region(tracer.ROOT, span=False):
        x * y  # one field product, 4 x 4 coordinate products
        x * 3
        3 * x  # __rmul__ alias
        x + y
        1 + x  # __radd__ alias
        x.inverse()
        P * Q  # 2 x 3 term pairs
        P**2  # base * base (2 x 2), then one * base (1 x 3)
        with tr.region("bench.query", query=0, mode="approx"):
            x + y


def test_tracer_reaches_names_imported_elsewhere(installed):
    tr = installed
    assert cli.special_value is twistzeta.special_value is twistzeta.engine.special_value
    assert hasattr(cli.special_value, "__wrapped__")
    assert cli.abel_richardson is twistzeta.abel.abel_richardson
    assert hasattr(twistzeta.abel.expand_numerator, "__wrapped__")
    inst = twistzeta.ZetaInstance(
        SparsePolynomial.one(1),
        (SparsePolynomial.variable(1, 1),),
        twistzeta.TwistVector.exact(2, [1]),
    )
    session = twistzeta.ValueCache()
    out = io.StringIO()
    with tr.region(tracer.ROOT, span=False):
        twistzeta.special_value(inst, (1,), cache=session)
        twistzeta.special_value(inst, (1,), cache=session)
        with redirect_stdout(out):
            rc = cli.main(["value", str(ROOT / "problems" / "alternating_harmonic.json"),
                           "2", "--method", "recurrence"])
    assert rc == 0 and out.getvalue().startswith("k=2 exact=[0]")
    m = tr.metrics()
    assert m["engine.session_values.hits"] == 1
    assert m["engine.session_values.misses"] == 2
    assert m["engine.special_value.default.calls"] == 3
    assert m["cli.main.value.calls"] == 1
    assert m["document.from_json.calls"] == 1
    assert m["closedform.closed_value.calls"] == 0
    names = [span[1] for span in tr.spans]
    assert names.count("engine.special_value.default") == 3
    assert names.count("cli.main.value") == 1


def test_uninstall_restores_every_binding():
    before = {
        "cli": cli.special_value,
        "pkg": twistzeta.special_value,
        "rmul": twistzeta.CyclotomicElement.__rmul__,
        "kernel": twistzeta._backend.kernels.cyclo_mul,
        "from_json": twistzeta.ProblemDocument.__dict__["from_json"],
    }
    tr = tracer.Tracer().install()
    assert twistzeta.CyclotomicElement.__rmul__ is not before["rmul"]
    assert twistzeta.CyclotomicElement.__rmul__ is twistzeta.CyclotomicElement.__mul__
    tr.uninstall()
    assert cli.special_value is before["cli"]
    assert twistzeta.special_value is before["pkg"]
    assert twistzeta.CyclotomicElement.__rmul__ is before["rmul"]
    assert twistzeta._backend.kernels.cyclo_mul is before["kernel"]
    assert twistzeta.ProblemDocument.__dict__["from_json"] is before["from_json"]
