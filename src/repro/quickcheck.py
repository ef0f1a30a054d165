"""One-command sanity check: run every gate a fresh checkout should pass.

``repro-quickcheck`` (or ``python -m repro.quickcheck``) owns no check
of its own; it is a table of the gates that exist elsewhere, run in
order until one fails:

1. the CLI smoke: ``repro build`` a small persistent SUM index in a
   temporary directory, ``repro stats`` it, ``repro fsck`` it,
2. a quick crash-consistency sweep (first occurrence of every crash
   point on the commit workload, :mod:`repro.crashcheck`),
3. the bounded resilience drill (``repro-rescheck --quick``:
   exactly-once writes through the chaos proxy against a
   SIGKILLed-and-restarted ``repro serve``; ``BENCH_resilience.json``),
4. the observability-overhead gate (fails if the tracing-disabled path
   regresses against a hand-inlined baseline;
   ``BENCH_trace_overhead.json``),
5. from a repo checkout, unless ``--no-tests`` or ``--quick`` (CI runs
   both as their own job): the unit-test suite (``pytest -q``) and
   ``python3 -m bench --quick``, which checks every reply of the
   service and view workloads against its oracle.

Nothing here times the service or the views: speed is gated by
``python3 -m bench`` alone.  Exit status is non-zero as soon as any
stage fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from typing import Callable, List, Optional, Tuple

from . import cli, crashcheck, rescheck
from .obs.overhead import render_report, run_overhead_gate
from .workloads import uniform

__all__ = ["main"]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _cli_smoke(n: int) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-quickcheck-") as scratch:
        csv_path = os.path.join(scratch, "facts.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            for value, interval in uniform(n, seed=7):
                handle.write(f"{value},{interval.start},{interval.end}\n")
        path = os.path.join(scratch, "quickcheck.sbt")
        for argv in (
            ["build", path, "--kind", "sum", "--csv", csv_path],
            ["stats", path],
            ["fsck", path],
        ):
            print(f"$ repro {' '.join(argv)}", flush=True)
            status = cli.main(argv)
            if status:
                return status
    return 0


def _overhead_gate(out_dir: str) -> int:
    report = run_overhead_gate(out_dir=out_dir or None)
    print(render_report(report), flush=True)
    if out_dir:
        print(f"wrote {os.path.join(out_dir, 'BENCH_trace_overhead.json')}")
    if not report["ok"]:
        print("FAIL: instrumentation overhead on the disabled path")
        return 1
    return 0


def _in_checkout(module_argv: List[str]) -> int:
    """Run ``python -m ...`` from the repo root with ``src`` importable."""
    env = dict(os.environ)
    src = os.path.join(_REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m"] + module_argv, cwd=_REPO_ROOT, env=env
    ).returncode


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-quickcheck", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--no-tests", action="store_true",
        help="skip the stages that need a repo checkout (pytest, bench --quick)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="bounded CI variant: smaller scratch index, no checkout stages",
    )
    parser.add_argument(
        "-n", type=int, default=2000, help="tuples in the scratch index"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="",
        help="write BENCH_resilience.json and BENCH_trace_overhead.json "
        "under DIR",
    )
    args = parser.parse_args(argv)
    n = min(args.n, 1000) if args.quick else args.n
    out = ["--out", args.out] if args.out else []

    gates: List[Tuple[str, Callable[[], int]]] = [
        (f"CLI smoke: build, stats, fsck a scratch SUM index ({n} tuples)",
         lambda: _cli_smoke(n)),
        ("crash-consistency sweep (commit workload, first hits)",
         lambda: crashcheck.main(["--workload", "commit", "--hits", "1"])),
        ("resilience check (chaos + server kill)",
         lambda: rescheck.main(["--quick"] + out)),
        ("observability-overhead gate (disabled path vs. baseline)",
         lambda: _overhead_gate(args.out)),
    ]
    if not (args.no_tests or args.quick):
        gates += [
            ("unit tests (pytest -q)", lambda: _in_checkout(["pytest", "-q"])),
            ("service and view replies against the oracle (bench --quick)",
             lambda: _in_checkout(["bench", "--quick"])),
        ]
    for title, gate in gates:
        print(f"\n=== quickcheck: {title} ===", flush=True)
        status = gate()
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
