"""End-to-end benchmark of the COMET reproduction's sweep, daemon and
fabric paths.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload dse_sweep --seed 1 --seconds 20 --trace 0

``--workload`` is ``dse_sweep``, ``daemon_query`` or ``fabric_sweep``
(see ``workloads.py`` for what each does and why).  ``--seed`` derives
every sweep seed block and query order.  ``--seconds`` is the time the
rounds run for.  ``--trace 0`` reports the end-to-end metrics from
untraced rounds; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics, the self time of every span and the
tracing overhead per phase, and writes the spans to
``.e2ebench_out/``.  ``--smoke`` runs a tiny grid for the benchmark's
own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are the readable report, including the digest of every
simulated result of round 0, which a fixed seed reproduces exactly.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("dse_sweep", "daemon_query", "fabric_sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid (the benchmark's own tests)")
    parser.add_argument("--fail-phase", default=None,
                        help="raise inside this phase (tests that daemons "
                             "still shut down cleanly)")
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "sim").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import report
    import workloads

    signal.signal(signal.SIGTERM, _terminate)
    bench = workloads.Bench(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.SMOKE if args.smoke else workloads.FULL, args.fail_phase)
    try:
        twin = bench.build()
        workloads.WORKLOADS[args.workload](bench)
    finally:
        began = time.perf_counter()
        bench.close()
        bench.stages["teardown"] = time.perf_counter() - began
        for daemon in bench.closed_daemons:
            print(f"daemon pid {daemon.pid} exit code {daemon.exit_code}"
                  f"{'' if daemon.clean_exit else ' (not clean)'}",
                  file=sys.stderr)
        print("stages: " + ", ".join(f"{name} {value:.1f}" for name, value
                                     in bench.stages.items()),
              file=sys.stderr)

    lines = [f"workload {args.workload}, seed {args.seed}, "
             f"{bench.workers} workers, compiled twin "
             f"{'loaded' if twin else 'unavailable'}"]
    values = report.end_to_end(bench, lines)
    report.fidelity(bench.model, lines)
    lines.append(f"simulated-results digest (round 0): {bench.digest()}")
    checker = bench.checker
    lines.append(f"correctness checks: {checker.checks}, mismatches: "
                 f"{len(checker.mismatches)}")
    lines.extend(f"  mismatch: {m}" for m in checker.mismatches)
    if args.trace:
        layers = report.per_layer(bench, bench.model, lines)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        spans_path = ROOT / ".e2ebench_out" / \
            f"spans-{args.workload}-seed{args.seed}.jsonl"
        bench.tracer.write(spans_path)
        lines.append(f"spans: {len(bench.tracer.spans)} written to "
                     f"{spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in report.END_TO_END}
    print("\n".join(lines))
    print(json.dumps({
        "correct": checker.failed == 0 and checker.checks > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
