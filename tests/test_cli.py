"""Command line behaviour: subcommands, exit codes, cache, determinism."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twistzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
HARMONIC = str(PROBLEMS / "alternating_harmonic.json")
LINEAR = str(PROBLEMS / "alternating_linear.json")
QUADRATIC = str(PROBLEMS / "cor2_quadratic.json")
GROWTH_FAIL = str(PROBLEMS / "growth_fail.json")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_value_known_point(capsys):
    rc, out, err = run_cli(capsys, "value", HARMONIC, "1")
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        "k=1 exact=[-1/4] approx=-0.25,0.0 method=recurrence,closed"
    ]


def test_value_uses_document_queries(capsys):
    rc, out, _ = run_cli(capsys, "value", HARMONIC)
    assert rc == 0
    lines = out.splitlines()
    assert [l.split()[1] for l in lines] == [
        "exact=[-1/2]", "exact=[-1/4]", "exact=[0]", "exact=[1/8]",
    ]


def test_value_needs_k_or_queries(capsys):
    rc, _, err = run_cli(capsys, "value", LINEAR)
    assert rc == 2
    assert "error:" in err


def test_value_rejects_malformed_k(capsys):
    rc, _, err = run_cli(capsys, "value", HARMONIC, "1,x")
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(capsys, "value", HARMONIC, "1,2")
    assert rc == 2  # wrong arity for a one-factor problem
    rc, _, err = run_cli(capsys, "value", HARMONIC, "")
    assert rc == 2


def test_value_method_closed_only(capsys):
    rc, out, _ = run_cli(capsys, "value", HARMONIC, "3", "--method", "closed")
    assert rc == 0
    assert out.splitlines() == [
        "k=3 exact=[1/8] approx=0.125,0.0 method=closed"
    ]


def test_value_injected_fault_exits_3(capsys):
    rc, _, err = run_cli(capsys, "value", HARMONIC, "1", "--inject-fault")
    assert rc == 3
    assert "FAIL" in err


def test_table_layout(capsys):
    rc, out, _ = run_cli(capsys, "table", HARMONIC, "--max", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "value", "decimal"]
    assert len(lines) == 1 + 4 + 1 + 4  # header, rows, blank, machine lines
    assert lines[5] == ""
    assert lines[6].startswith("k=0 exact=[-1/2]")
    # rows are aligned: every row has the decimal column at one offset
    offsets = {line.index("  ") for line in lines[1:5]}
    assert len({len(line.split()) for line in lines[1:5]}) == 1
    assert offsets


def test_table_uses_document_range(capsys):
    rc, out, _ = run_cli(capsys, "table", LINEAR)
    assert rc == 0
    machine = [l for l in out.splitlines() if l.startswith("k=")]
    assert len(machine) == 4  # max [3] in the document


def test_table_without_any_range(capsys):
    rc, _, err = run_cli(capsys, "table", HARMONIC)
    assert rc == 2 and "error:" in err


def test_verify_passes_on_bundled_documents(capsys):
    for doc in (HARMONIC, LINEAR):
        rc, out, _ = run_cli(capsys, "verify", doc)
        assert rc == 0
        assert out.splitlines()[-1].startswith("verify: PASS")


def test_verify_reports_conditions_first(capsys):
    rc, out, _ = run_cli(capsys, "verify", HARMONIC)
    assert rc == 0
    head = out.splitlines()[:3]
    assert head[0].startswith("positivity:")
    assert head[1].startswith("hypoellipticity:")
    assert head[2].startswith("growth:")


def test_verify_detects_injected_fault(capsys):
    rc, out, err = run_cli(capsys, "verify", HARMONIC, "--inject-fault")
    assert rc == 3
    assert "counterexample" in out
    assert "verify: FAIL" in err


def test_verify_refuses_when_growth_fails(capsys):
    rc, out, _ = run_cli(capsys, "verify", GROWTH_FAIL)
    assert rc == 2
    assert "refused" in out
    assert "growth" in out


def test_verify_seed_does_not_change_verdict(capsys):
    for seed in ("0", "7", "31"):
        rc, out, _ = run_cli(capsys, "verify", QUADRATIC, "--seed", seed,
                             "--max", "2")
        assert rc == 0
        assert out.splitlines()[-1].startswith("verify: PASS")


def test_check_prints_report(capsys):
    rc, out, _ = run_cli(capsys, "check", LINEAR)
    assert rc == 0
    assert "positivity: pass" in out
    assert "hypoellipticity: pass" in out
    assert "growth: pass" in out


def test_check_growth_failure_still_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "check", GROWTH_FAIL)
    assert rc == 0
    assert "growth: fail" in out


def test_bad_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, "value", str(bad), "0")
    assert rc == 2 and "error:" in err


def test_missing_document_exits_2(capsys):
    rc, _, err = run_cli(capsys, "value", "/no/such/file.json", "0")
    assert rc == 2 and "error:" in err


def test_unit_twist_exits_2(tmp_path, capsys):
    doc = {
        "nvars": 1,
        "nfactors": 1,
        "twist": {"mode": "exact", "order": 3, "exponents": [3]},
        "Q": [{"coef": "1", "exps": [0]}],
        "Ps": [[{"coef": "1", "exps": [1]}]],
    }
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "value", str(path), "0")
    assert rc == 2 and "error:" in err


def test_ill_conditioned_approx_exits_4(tmp_path, capsys):
    doc = {
        "nvars": 1,
        "nfactors": 1,
        "twist": {"mode": "approx", "angles": [1e-12]},
        "Q": [{"coef": "1", "exps": [0]}],
        "Ps": [[{"coef": "1", "exps": [1]}]],
    }
    path = tmp_path / "near_one.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run_cli(capsys, "value", str(path), "0")
    assert rc == 4
    assert "engine error:" in err


def test_shift_near_the_tolerance_is_skipped_not_fatal(tmp_path, capsys):
    # mu_1 mu_2 = exp(5e-10 i): the all-ones shift and its multiples sit
    # inside the conditioning tolerance, so verify must pick other shifts
    # and an explicit all-ones shift is refused like one with mu^a = 1
    doc = json.loads(Path(LINEAR).read_text())
    doc["twist"] = {
        "mode": "approx",
        "angles": [1.0, 2 * math.pi - 1.0 + 5e-10],
    }
    path = tmp_path / "near_tolerance.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "verify", str(path))
    assert rc == 0, out + err
    assert "verify: PASS" in out
    rc, _, err = run_cli(capsys, "value", str(path), "1", "--shift", "1,1")
    assert rc == 2
    assert "mu^(1, 1) equals 1" in err


def test_approx_mode_drops_exact_coordinates(capsys):
    rc, out, _ = run_cli(capsys, "value", HARMONIC, "1", "--mode", "approx")
    assert rc == 0
    line = out.strip()
    assert " exact=null " in line
    approx = line.split("approx=")[1].split()[0]
    re_text, im_text = approx.split(",")
    assert abs(float(re_text) + 0.25) < 1e-9
    assert abs(float(im_text)) < 1e-9


def test_explicit_shift_matches_default(capsys):
    rc, base, _ = run_cli(capsys, "value", QUADRATIC, "3")
    assert rc == 0
    for shift in ("2,1", "1,2", "1,1", "default"):
        rc, out, _ = run_cli(capsys, "value", QUADRATIC, "3",
                             "--shift", shift)
        assert rc == 0
        assert out == base


def test_all_ones_shift_can_be_invalid(capsys):
    # both twists are -1, so mu^(1,1) = 1 and the relation degenerates
    rc, _, err = run_cli(capsys, "value", LINEAR, "1", "--shift", "all-ones")
    assert rc == 2 and "error:" in err
    rc, _, err = run_cli(capsys, "value", LINEAR, "1", "--shift", "1,1")
    assert rc == 2


APPROX_SHIFT_GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "approx_shift_golden.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "case",
    APPROX_SHIFT_GOLDEN,
    ids=lambda c: " ".join(c["argv"][:2] + c["argv"][-2:]),
)
def test_approx_shift_output_is_pinned(capsys, case):
    # approx --shift output pinned byte for byte, every double down to its
    # last bit: any change in the order or grouping of the floating-point
    # sums of the shifted step shows here
    argv = [str(ROOT / a) if a.startswith("problems/") else a
            for a in case["argv"]]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert out == case["stdout"]


def test_cache_file_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    rc, first, _ = run_cli(capsys, "table", HARMONIC, "--max", "4",
                           "--cache", str(cache))
    assert rc == 0
    payload = json.loads(cache.read_text())
    assert payload and all(
        set(entry) == {"order", "coords"} for entry in payload.values()
    )
    assert list(payload) == sorted(payload)
    rc, second, _ = run_cli(capsys, "table", HARMONIC, "--max", "4",
                            "--cache", str(cache))
    assert rc == 0
    assert second == first


def test_corrupt_cache_is_reset_with_a_warning(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text("{broken")
    rc, _, err = run_cli(capsys, "value", HARMONIC, "2",
                         "--cache", str(cache))
    assert rc == 0
    assert "cache" in err.lower()
    json.loads(cache.read_text())  # rewritten with valid content


def test_stdin_document(capsys, monkeypatch):
    text = Path(HARMONIC).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, out, _ = run_cli(capsys, "value", "-", "3")
    assert rc == 0
    assert out.startswith("k=3 exact=[1/8]")


def test_output_is_deterministic(capsys):
    runs = [run_cli(capsys, "table", LINEAR, "--method", "both")
            for _ in range(2)]
    assert runs[0] == runs[1]
    verifies = [run_cli(capsys, "verify", HARMONIC) for _ in range(2)]
    assert verifies[0] == verifies[1]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["value", HARMONIC, "1", "--method", "sideways"])
    assert exc.value.code == 2


def _script_argv():
    exe = shutil.which("twistzeta")
    if exe:
        return [exe]
    return [sys.executable, "-m", "twistzeta.cli"]


def test_console_script_end_to_end(tmp_path):
    proc = subprocess.run(
        _script_argv() + ["verify", LINEAR],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify: PASS" in proc.stdout

    fault = subprocess.run(
        _script_argv() + ["verify", LINEAR, "--inject-fault"],
        capture_output=True, text=True, timeout=300,
    )
    assert fault.returncode == 3
    assert "counterexample" in fault.stdout


def test_value_beyond_double_range_exits_4():
    # the exact value at k = 301 has coordinates above 1.8e308: no decimal
    # form exists, which is an engine error, not a crash
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", "value", HARMONIC, "301",
         "--method", "recurrence"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("engine error: ")
    assert "Traceback" not in proc.stderr
