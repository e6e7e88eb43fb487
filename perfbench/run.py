"""Run one benchmark workload and print its metrics.

Usage, from the root of a twistzeta checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after the other.

Each pass of the workload runs in a fresh interpreter (``worker.py``),
one after the other, until ``--seconds`` of wall time have gone; every
pass runs the same seeded inputs.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics plus the tracing overhead.  Every output is
checked; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check held, 1 when one failed, 2 when no result could be
produced (for instance outside a checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "wide_field", "deep_k", "cli_mix")
SETUP_SAMPLES = 9
# Every run makes at least this many passes; see run_workload.
MIN_PASSES = 2
# A pass is not started if it would end later than this share of --seconds.
OVERRUN = 1.1
# The worker's speed probe takes this long on the reference host, a 2-core
# Xeon VM with Python 3.11, when it is quiet.  Reported times are scaled
# to that speed; see _speed_factors.
REF_PROBE_S = 4.0e-4
# A query's speed factor is the mean of this many probes on each side.
PROBE_WINDOW = 8
# Every run must end within 180 s; passes stop being started well before.
RUN_LIMIT_S = 160.0

END_TO_END = (
    ("setup_s", "s"),
    ("values_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("recurrence_s", "s"),
    ("closed_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WorkerFailed(Exception):
    pass


def _spawn(args, workload: str, deadline: float, inputs: str, *extra: str) -> dict:
    """Run one worker to completion; its setup time is measured from the
    moment before the interpreter starts to its first timed query."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--inputs", inputs, *extra,
    ]
    if args.inject_fault:
        cmd.append("--inject-fault")
    if args.tiny:
        cmd.append("--tiny")
    timeout = max(1.0, deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "t_first" in result:
        result["setup_s"] = result["t_first"] - t_spawn
    return result


def _git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if sha.returncode != 0 or status.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "twistzeta").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _fingerprint(load: tuple) -> dict:
    sha, dirty = _git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load],
    }


def _speed_factors(probes: list) -> list:
    """For each query, REF_PROBE_S over the mean time of the probes around it.

    The worker times ``speed_probe`` before every query.  A shared host
    gives this process a speed that drifts by 1.5x over minutes and
    varies from second to second; a query's time multiplied by its factor
    is the time it would take on the reference host, so it moves with the
    program, not with the neighbours."""
    sums = [0.0]
    for t in probes:
        sums.append(sums[-1] + t)
    factors = []
    for i in range(len(probes)):
        lo, hi = max(0, i - PROBE_WINDOW + 1), min(len(probes), i + PROBE_WINDOW + 1)
        factors.append(REF_PROBE_S * (hi - lo) / (sums[hi] - sums[lo]))
    return factors


def _scaled_setup(result: dict, scaled: bool = True) -> float:
    factor = REF_PROBE_S / statistics.mean(result["probes"]) if scaled else 1.0
    return result["setup_s"] * factor


def _pass_metrics(p: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics of one untraced pass, except setup_s."""
    factors = _speed_factors(p["probes"]) if scaled else [1.0] * len(p["probes"])
    latencies = [t * f for t, f in zip(p["latencies"], factors)]
    return {
        "values_per_s": p["values"] / sum(latencies),
        "query_ms_p50": statistics.median(latencies) * 1e3,
        "query_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "recurrence_s": sum(t * f for t, f in zip(p["recurrence"], factors)),
        "closed_s": sum(t * f for t, f in zip(p["closed"], factors)),
        "peak_rss_mb": p["rss_mb"],
    }


def _end_to_end(passes: list, setups: list, scaled: bool = True) -> dict:
    """Each metric's median over the run's passes (setup_s over its setups)."""
    per_pass = [_pass_metrics(p, scaled) for p in passes]
    out = {"setup_s": statistics.median(_scaled_setup(r, scaled) for r in setups)}
    for name, _ in END_TO_END[1:]:
        out[name] = statistics.median(m[name] for m in per_pass)
    return out


def _per_layer(plain: list, traced: list) -> dict:
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    base = statistics.median(p["timed_s"] for p in plain)
    wall = statistics.median(p["timed_s"] for p in traced)
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = wall / base - 1.0
    return out


def run_workload(args, workload: str):
    """Run one workload's passes and print its report block.

    Returns (metrics report, attempted, failed)."""
    t_start = time.monotonic()
    env = _fingerprint(os.getloadavg())
    deadline = t_start + RUN_LIMIT_S
    work_dir = ROOT / ".perfbench_work"
    work_dir.mkdir(exist_ok=True)
    passes: list = []
    # The input files (cli_mix's documents) are written once per run,
    # outside every pass: creating hundreds of files took 0.1-0.3 s on the
    # tuning host and varied by 30% between runs, and it is not twistzeta's
    # work.  Each pass still generates the inputs in its own setup.
    with tempfile.TemporaryDirectory(dir=work_dir) as inputs:
        _spawn(args, workload, deadline, inputs, "--write-inputs")
        t_passes = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            extra = ["--trace", "1"] if traced else []
            if traced:
                spans = work_dir / f"spans-{workload}-seed{args.seed}.jsonl"
                extra += ["--spans", str(spans)]
            result = _spawn(args, workload, deadline, inputs, *extra)
            result["traced"] = traced
            passes.append(result)
            elapsed = time.monotonic() - t_start
            if len(passes) < MIN_PASSES or (args.trace and len(passes) % 2 == 1):
                continue
            # Start another pass (or untraced/traced pair) only if it should
            # end within the run: passes take 5-12 s, so finishing whichever
            # pass crosses --seconds would stretch runs by up to half.
            step = 2 if args.trace else 1
            next_end = elapsed + step * (time.monotonic() - t_passes) / len(passes)
            if next_end > args.seconds * OVERRUN or elapsed >= RUN_LIMIT_S / 2:
                break
        setups = [p for p in passes if not p["traced"]]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args, workload, deadline, inputs, "--setup-only"))

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["queries"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env.update(passes[0]["env"])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {passes[0]['queries']} queries, "
          f"digest {passes[0]['digest_status']}")
    for message in failures[:10]:
        print(f"FAIL {message}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")

    if args.trace:
        metrics = _per_layer(plain, traced)
        for row in traced[-1]["top_self"]:
            print("self {:<34} under {:<30} calls {:>8}  {:.4f} s".format(*row))
        report = {name: {"value": value, "unit": _layer_unit(name)}
                  for name, value in metrics.items()}
    else:
        metrics = _end_to_end(plain, setups)
        unscaled = _end_to_end(plain, setups, scaled=False)
        speed = REF_PROBE_S / statistics.median(t for p in plain for t in p["probes"])
        print(f"latency samples: {plain[0]['queries']} queries per pass, medians over "
              f"{len(plain)} passes; setup samples: {len(setups)}; host speed "
              f"{speed:.3f} of the reference")
        for name, unit in END_TO_END:
            print(f"unscaled {name} {unscaled[name]:.6g} {unit}")
        report = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    for name, entry in report.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    return report, attempted, len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twistzeta benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: corrupt one output, or shrink the inputs.
    parser.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for needed in (ROOT / "src" / "twistzeta" / "__init__.py", ROOT / "problems"):
        if not needed.exists():
            print(f"perfbench: {needed} is missing; run from a twistzeta checkout",
                  file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    attempted = failed = 0
    try:
        for name in names:
            report, tried, bad = run_workload(args, name)
            reports[name] = report
            attempted += tried
            failed += bad
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = reports[names[0]]
    else:
        metrics = {f"{w}.{m}": entry for w, report in reports.items() for m, entry in report.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
