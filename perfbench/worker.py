"""One benchmark pass in a fresh interpreter.

Imports twistzeta from the checkout's ``src/``, builds the workload's
inputs from the seed, runs every query once as a closed loop (one query
at a time, single thread) and prints one JSON object describing the pass
on stdout.  ``run.py`` starts this script; it is not meant to be run by
hand.

A fresh interpreter per pass matters: ``negapolylog``,
``operator_numerator``, ``cyclotomic_polynomial`` and
``CyclotomicField.get`` are process-wide caches, and a command-line user
fills them again on every run.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
# The digests in digests.json are pinned at this seed.
DEFAULT_SEED = 1
# Iterations of the host-speed probe run before every untraced query.
PROBE_LOOPS = 5000
# Probes a --setup-only pass runs after its setup, to scale its setup time.
SETUP_PROBES = 32


def _import_package():
    package = SRC / "twistzeta"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} is missing; run from a twistzeta checkout")
    sys.path.insert(0, str(SRC))
    import twistzeta

    if Path(twistzeta.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported twistzeta from {twistzeta.__file__}, not {package}")
    return twistzeta


def _pinned_digest(workload: str, seed: int, tiny: bool):
    if tiny or seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def speed_probe() -> float:
    """Time a fixed loop of small-integer arithmetic.

    It uses no twistzeta code and allocates nothing the garbage collector
    tracks, so its time follows only the speed the host gives this
    process at that moment, which drifts by up to 1.5x over minutes on a
    shared machine.  ``run.py`` scales each query's time by the mean of
    the probes around it."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += (i * 7) % 13
    return time.perf_counter() - t0


def run_pass(wl, rec, tr) -> float:
    """Run every query once; returns the monotonic time of the first.

    Untraced passes run the speed probe before each query, outside its
    latency."""
    t_first = time.monotonic()
    for i, query in enumerate(wl.queries):
        if tr is None:
            rec.probes.append(speed_probe())
        rec0, clo0 = rec.recurrence_s, rec.closed_s
        t0 = time.perf_counter()
        try:
            if tr is None:
                wl.run_query(i, query, rec)
            else:
                with tr.region("bench.query", query=i, mode=wl.query_mode(query)):
                    wl.run_query(i, query, rec)
        except Exception as exc:  # a failed query is counted; the pass goes on
            rec.failures.append(f"query {i}: {type(exc).__name__}: {exc}"[:300])
        rec.latencies.append(time.perf_counter() - t0)
        rec.query_recurrence.append(rec.recurrence_s - rec0)
        rec.query_closed.append(rec.closed_s - clo0)
    return t_first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inputs", required=True,
                        help="directory of the workload's input files, shared by a run's passes")
    parser.add_argument("--write-inputs", action="store_true",
                        help="write the input files into --inputs and exit")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tz = _import_package()
    import tracer
    import workloads

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        wl = workloads.build(args.workload, args.seed, args.inject_fault, args.tiny, ROOT,
                             Path(tmp), Path(args.inputs), args.write_inputs)
        if args.write_inputs:
            sys.stdout.write("{}\n")
            return 0
        if args.setup_only:
            result = {"t_first": time.monotonic(),
                      "probes": [speed_probe() for _ in range(SETUP_PROBES)]}
        else:
            rec = workloads.Recorder()
            tr = tracer.Tracer().install() if args.trace else None
            wl.begin(rec)
            t0 = time.perf_counter()
            if tr is None:
                t_first = run_pass(wl, rec, None)
            else:
                with tr.region(tracer.ROOT, span=False):
                    t_first = run_pass(wl, rec, tr)
            timed_s = time.perf_counter() - t0 - sum(rec.probes)
            wl.end()
            result = {
                "t_first": t_first,
                "timed_s": timed_s,
                "queries": len(wl.queries),
                "values": rec.values,
                "latencies": rec.latencies,
                "recurrence": rec.query_recurrence,
                "closed": rec.query_closed,
                "probes": rec.probes,
                "failures": rec.failures,
            }
            pinned = _pinned_digest(args.workload, args.seed, args.tiny)
            digest = rec.digest.hexdigest()
            result["digest"] = digest
            if pinned is None:
                result["digest_status"] = "unpinned"
            elif pinned == digest:
                result["digest_status"] = "match"
            else:
                result["digest_status"] = "miss"
                rec.failures.append(f"digest miss: {digest} != pinned {pinned}")
            if tr is not None:
                tr.uninstall()
                result["layers"] = tr.metrics()
                result["top_self"] = tr.by_parent()
                root = tr.root_time()
                spread = abs(tr.self_time_sum() - root)
                if spread > 1e-6 * max(root, 1.0) or abs(root - timed_s) > 0.01 * timed_s:
                    rec.failures.append(
                        f"trace self times sum to {tr.self_time_sum():.6f} s, "
                        f"root region {root:.6f} s, timed phase {timed_s:.6f} s"
                    )
                if args.spans:
                    tr.write_spans(args.spans)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "python": platform.python_version(),
        "rational_backend": tz.RATIONAL_BACKEND,
        "kernel_backend": tz.BACKEND,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
