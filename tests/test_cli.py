"""Command line behaviour: subcommands, exit codes, cache, determinism."""

import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twistzeta import cli
from twistzeta.cli import main
from twistzeta.closedform import closed_value
from twistzeta.cyclotomic import _embed_fixed
from twistzeta.document import ProblemDocument

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


@pytest.mark.parametrize("near", [1, 2])
def test_ill_conditioned_refusal_names_the_twist(tmp_path, capsys, near):
    # one twist within the tolerance of 1 refuses the series up front,
    # under the default shift and under the well-conditioned shift along
    # the other twist alike, with one text naming the near-1 twist;
    # verify prints its condition report and nothing after it
    angles = [2.0, 2.0]
    angles[near - 1] = 1e-9
    doc = json.loads(Path(LINEAR).read_text())
    doc["twist"] = {"mode": "approx", "angles": angles}
    path = str(tmp_path / "near_one.json")
    Path(path).write_text(json.dumps(doc))
    want = (
        f"engine error: mu_{near} lies within 1e-06 of 1, so the series "
        f"has no well-conditioned shift in approx mode\n"
    )
    far = ",".join(str(int(i != near)) for i in (1, 2))
    for argv in (("value", path, "1"), ("value", path, "1", "--shift", far),
                 ("table", path), ("table", path, "--shift", far)):
        assert run_cli(capsys, *argv) == (4, "", want), argv
    rc, report, err = run_cli(capsys, "check", path)
    assert rc == 0 and report and not err
    assert run_cli(capsys, "verify", path, "--mode", "approx") == (
        4, report, want
    )


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


def test_zero_numerator_still_validates_an_explicit_shift(tmp_path, capsys):
    # mu^(2, 1) = zeta_4^4 = 1: refused even though Q = 0 gives zero
    doc = {
        "nvars": 2,
        "nfactors": 1,
        "twist": {"mode": "exact", "order": 4, "exponents": [1, 2]},
        "Q": [],
        "Ps": [[
            {"coef": "1", "exps": [1, 0]},
            {"coef": "1", "exps": [0, 1]},
            {"coef": "1", "exps": [0, 0]},
        ]],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "value", str(path), "1")
    assert rc == 0 and "exact=[0,0]" in out
    rc, _, err = run_cli(capsys, "value", str(path), "1", "--shift", "2,1")
    assert rc == 2 and "mu^(2, 1) equals 1" in err


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


CLOSED_GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "closed_golden.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "case",
    CLOSED_GOLDEN,
    ids=lambda c: " ".join(c["argv"][:2] + c["argv"][-1:]),
)
def test_closed_route_output_is_pinned(capsys, case):
    # value and table through the closed route alone, exact and approx,
    # byte for byte: pins the exact text and, in approx mode, the order
    # of the floating-point sum over the expanded numerator
    argv = [str(ROOT / a) if a.startswith("problems/") else a
            for a in case["argv"]]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert out == case["stdout"]


PROBLEMS_GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "problems_golden.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "case",
    PROBLEMS_GOLDEN,
    ids=lambda c: " ".join(c["argv"][:2] + c["argv"][-1:]),
)
def test_problem_output_is_pinned(capsys, case):
    # value and table through the recurrence with the default shift, verify
    # (the abel= residual text) and check, exact and approx, on every
    # problems/*.json: pins the order of the default route's approx sums
    argv = [str(ROOT / a) if a.startswith("problems/") else a
            for a in case["argv"]]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == case["rc"], err
    assert out == case["stdout"]


def test_pinned_approx_doubles_are_accurate():
    # every approx double pinned above for a document with exact twists
    # (the k= lines of value, table and verify) lies within 1e-13 relative
    # of the correctly rounded decimal of the exact closed value, or
    # within 1e-13 absolute where that value is 0: a golden line that
    # moves in the last bits must still pass
    line = re.compile(r"k=([\d,]+) .*?(?:approx|value)=(\S+),(\S+) ")
    checked = 0
    for case in CLOSED_GOLDEN + APPROX_SHIFT_GOLDEN + PROBLEMS_GOLDEN:
        if "approx" not in case["argv"]:
            continue
        doc = ProblemDocument.from_json(
            (ROOT / case["argv"][1]).read_text(encoding="utf-8"))
        if doc.mus.mode != "exact":
            continue
        for m in line.finditer(case["stdout"]):
            k = tuple(int(x) for x in m[1].split(","))
            got = complex(float(m[2]), float(m[3]))
            exact = closed_value(doc.Q, doc.Ps, k, doc.mus)
            want = _embed_fixed(exact.num, exact.den, doc.mus.order)
            error = abs(got - want) / abs(want) if want else abs(got)
            assert error <= 1e-13, (case["argv"], k, got, want)
            checked += 1
    assert checked == 158


def test_embed_survives_cancelling_coordinates(tmp_path, capsys):
    # at r = 360 the exact value at k = 2 has coordinates up to 5e13 that
    # cancel to a value of modulus 650: the double Horner sum of embed()
    # lost 1e-4 of it, and verify failed the Abel check on a correct value
    from twistzeta import special_value
    from twistzeta.document import ProblemDocument

    doc = tmp_path / "r360.json"
    doc.write_text(json.dumps({
        "nvars": 2, "nfactors": 1,
        "twist": {"mode": "exact", "order": 360, "exponents": [61, 69]},
        "Q": [{"coef": "-9", "exps": [2, 0]}, {"coef": "5/7", "exps": [0, 0]}],
        "Ps": [[
            {"coef": "1", "exps": [1, 0]}, {"coef": "-3/7", "exps": [2, 0]},
            {"coef": "-1/3", "exps": [1, 1]}, {"coef": "-7/3", "exps": [0, 0]},
            {"coef": "4/7", "exps": [0, 1]},
        ]],
    }))
    rc, out, err = run_cli(capsys, "verify", str(doc))
    assert rc == 0, err
    assert out.splitlines()[-1] == "verify: PASS (3 values, 4 shifts each)"
    parsed = ProblemDocument.from_json(doc.read_text())
    exact = special_value(parsed.to_instance("exact"), (2,)).embed()
    approx = special_value(parsed.to_instance("approx"), (2,))
    assert abs(exact - approx) <= 1e-9 * abs(approx)
    assert abs(approx - complex(-144.7122, -638.6608)) < 1e-4


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


def test_cache_is_rewritten_only_when_a_value_was_added(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    rc, _, _ = run_cli(capsys, "table", HARMONIC, "--max", "4",
                       "--cache", str(cache))
    assert rc == 0
    payload = json.loads(cache.read_text())
    # formatted by hand: a rewrite would change the bytes
    hand = json.dumps(payload, indent=3, sort_keys=False) + "\n\n"
    cache.write_text(hand)
    for command in (("value", HARMONIC, "2"), ("table", HARMONIC,
                                               "--max", "3")):
        rc, _, err = run_cli(capsys, *command, "--cache", str(cache))
        assert rc == 0 and not err
        assert cache.read_text() == hand
    rc, _, _ = run_cli(capsys, "value", HARMONIC, "7", "--cache", str(cache))
    assert rc == 0
    rewritten = json.loads(cache.read_text())
    assert cache.read_text() != hand
    assert set(rewritten) > set(payload)


def test_corrupt_cache_is_reset_with_a_warning(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text("{broken")
    rc, _, err = run_cli(capsys, "value", HARMONIC, "2",
                         "--cache", str(cache))
    assert rc == 0
    assert "cache" in err.lower()
    json.loads(cache.read_text())  # rewritten with valid content


def test_cache_entry_in_another_field_is_ignored(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    argv = ("value", LINEAR, "1", "--method", "recurrence",
            "--cache", str(cache))
    rc, first, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    payload = json.loads(cache.read_text())
    (key,) = [key for key in payload if key.endswith(";k=1")]
    assert ";mu=zeta(r=2;" in key and payload[key]["order"] == 2
    payload[key] = {"order": 3, "coords": ["5", "7"]}
    cache.write_text(json.dumps(payload))
    rc, second, err = run_cli(capsys, *argv)
    assert rc == 0
    assert err.startswith(f"warning: ignoring cache {cache}")
    assert second == first
    assert "exact=[5,7]" not in second
    assert json.loads(cache.read_text())[key]["order"] == 2


@pytest.mark.parametrize("argv", [
    ("value", LINEAR, "1"),
    ("table", HARMONIC, "--max", "2"),
    ("verify", HARMONIC, "--max", "1"),
])
@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_cache_exits_2(tmp_path, capsys, argv, where):
    if where == "directory":
        cache = tmp_path / "cache.json"
        cache.mkdir()
    else:
        cache = tmp_path / "missing" / "cache.json"
    before = sorted(tmp_path.iterdir())
    rc, _, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert rc == 2
    assert err.splitlines()[-1].startswith(f"error: cannot write cache {cache}")
    assert sorted(tmp_path.iterdir()) == before  # no cache.json.tmp left


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


def _outcome(capsys, argv):
    """(rc, stdout, stderr) of one in-process call; argparse's usage
    errors and --help leave through SystemExit."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_shared_parser_matches_fresh_parsers(capsys, monkeypatch):
    calls = [
        ["value", HARMONIC, "2"],
        ["table", LINEAR, "--max", "2", "--method", "closed"],
        ["value", HARMONIC, "--mode", "approx", "--shift", "1"],
        [],
        ["value", HARMONIC, "1", "--method", "sideways"],
        ["check", GROWTH_FAIL],
        ["table", HARMONIC, "--max", "1,1"],
        ["verify", HARMONIC, "--seed", "3"],
        ["--help"],
        ["value", "--help"],
        ["frobnicate"],
        ["value", HARMONIC, "3", "--method", "recurrence"],
    ]
    assert cli._parser() is cli._parser()
    shared = [_outcome(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 2, 2, 0, 2, 0, 0, 0, 2, 0]
    assert shared[3][2].startswith("usage: twistzeta ")


def _nested_json(tmp_path, name, opener, closer):
    path = tmp_path / name
    path.write_text(opener * 100_000 + "1" + closer * 100_000)
    return str(path)


def _run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "twistzeta.cli", *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.mark.parametrize("command", ["value", "check"])
def test_deeply_nested_document_exits_2(tmp_path, command):
    for name, opener, closer in (
        ("list.json", "[", "]"),
        ("object.json", '{"a":', "}"),
    ):
        path = _nested_json(tmp_path, name, opener, closer)
        proc = _run_module(command, path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: not valid JSON")
        assert "Traceback" not in proc.stderr


def test_deeply_nested_cache_is_ignored_with_a_warning(tmp_path):
    cache = _nested_json(tmp_path, "cache.json", '{"a":', "}")
    proc = _run_module("value", HARMONIC, "2", "--cache", cache)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith(f"warning: ignoring cache {cache}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("k=2 exact=[0]")
    json.loads(Path(cache).read_text())  # rewritten with valid content


@pytest.mark.parametrize("payload", ["[]", "3", '"text"', "null"])
def test_cache_that_is_not_an_object_is_ignored(tmp_path, capsys, payload):
    cache = tmp_path / "cache.json"
    cache.write_text(payload)
    rc, out, err = run_cli(capsys, "value", HARMONIC, "2",
                           "--cache", str(cache))
    assert rc == 0
    assert err.startswith("warning: ignoring cache")
    assert out.startswith("k=2 exact=[0]")


def test_value_at_large_k_exits_cleanly(tmp_path):
    # the closed route's tables A_n used to be filled by recursion, one
    # frame per n, and a fresh process raised RecursionError near n = 450.
    # 3X + 2 at k = 500 and 1500 has no double form, so exit 4 is the
    # clean outcome; the four runs share the wall clock.
    doc = tmp_path / "linear.json"
    doc.write_text(json.dumps({
        "nvars": 1, "nfactors": 1,
        "twist": {"mode": "exact", "order": 3, "exponents": [1]},
        "Q": [{"coef": "1", "exps": [0]}],
        "Ps": [[{"coef": "3", "exps": [1]}, {"coef": "2", "exps": [0]}]],
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cases = [(k, method) for k in ("500", "1500")
             for method in ("closed", "both")]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "twistzeta.cli", "value", str(doc), k,
             "--method", method],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        for k, method in cases
    ]
    try:
        for case, proc in zip(cases, procs):
            _, err = proc.communicate(timeout=600)
            assert proc.returncode in (0, 4), (case, err)
            assert "Traceback" not in err, case
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def test_both_methods_stop_when_the_recurrence_has_no_double_form(
        tmp_path, capsys, monkeypatch):
    # 3X + 2 at r = 3, k = 170 exceeds the double range: the closed route
    # must not run once the recurrence value fails to embed
    doc = tmp_path / "linear.json"
    doc.write_text(json.dumps({
        "nvars": 1, "nfactors": 1,
        "twist": {"mode": "exact", "order": 3, "exponents": [1]},
        "Q": [{"coef": "1", "exps": [0]}],
        "Ps": [[{"coef": "3", "exps": [1]}, {"coef": "2", "exps": [0]}]],
    }))
    rc, out, err = run_cli(capsys, "value", str(doc), "170",
                           "--method", "closed")
    assert (rc, out) == (4, "")
    assert err == "engine error: value exceeds the double range; no decimal form\n"

    def refuse(*args):
        raise AssertionError("closed route ran after the failed embed")

    monkeypatch.setattr(cli, "closed_value", refuse)
    assert run_cli(capsys, "value", str(doc), "170", "--method", "both") == (
        4, "", err)


def _script_argv():
    exe = shutil.which("twistzeta")
    if exe:
        return [exe]
    return [sys.executable, "-m", "twistzeta.cli"]


def test_console_script_end_to_end(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        _script_argv() + ["verify", LINEAR],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify: PASS" in proc.stdout

    fault = subprocess.run(
        _script_argv() + ["verify", LINEAR, "--inject-fault"],
        capture_output=True, text=True, timeout=300, env=env,
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


@pytest.mark.parametrize("shift", ["1", "1,1,1"])
def test_shift_of_wrong_length_is_a_usage_error(shift):
    proc = _run_module("value", LINEAR, "1", "--shift", shift)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: shift must list one entry per twist: 2 expected"
    )
    assert "Traceback" not in proc.stderr


def test_verify_passes_abel_for_twists_near_one(tmp_path, capsys):
    # mu_1 = zeta_120 lies 0.052 from 1: the Richardson radii move toward
    # 1 so that the Abel estimate converges before the tolerance bites
    doc = tmp_path / "near_one.json"
    doc.write_text(json.dumps({
        "nvars": 2,
        "nfactors": 1,
        "twist": {"mode": "exact", "order": 120, "exponents": [1, 40]},
        "Q": [{"coef": "1", "exps": [0, 0]}],
        "Ps": [[{"coef": "1", "exps": [1, 0]},
                {"coef": "1", "exps": [0, 1]}]],
    }))
    rc, out, err = run_cli(capsys, "verify", str(doc), "--max", "3")
    assert rc == 0, err
    assert out.rstrip().endswith("verify: PASS (4 values, 4 shifts each)")
