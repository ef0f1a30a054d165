"""``python3 -m bench``: the repo's one benchmark command.

    python3 -m bench --seed N                 five workloads, end-to-end metrics
    python3 -m bench --trace --seed N         the traced run: per-layer metrics
    python3 -m bench --workload W --seed N --seconds S --trace 0|1
                                              one run, one JSON object on the last line
    python3 -m bench --quick                  same workloads at a tenth of the ops
    python3 -m bench --check [RESULT]         validate BENCHMARK.json and a result file
    python3 -m bench --selftest               A/A, determinism, corrupted-reply gate
    python3 -m bench --spread N               N seeds per workload: quartiles and spread
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS
from .report import OUT, environment, run_traced, run_untraced

QUICK = 0.1


def _parser() -> argparse.ArgumentParser:
    names = [name for name, _ in WORKLOADS]
    p = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names, help="run one workload (default: all five)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="length of the timed phases; scales every op count")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: the traced run (per-layer metrics)")
    p.add_argument("--quick", action="store_true",
                   help="a tenth of the ops; results are NOT comparable")
    p.add_argument("--check", nargs="?", const="", metavar="RESULT",
                   help="validate BENCHMARK.json and a result file, then exit")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--spread", type=int, metavar="N")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return p


def _print_metrics(result: Dict[str, Any], traced: bool) -> None:
    units = {m.name: m.unit for m in (PER_LAYER if traced else END_TO_END)}
    raw = result.get("raw", {})
    for name, value in result["metrics"].items():
        twin = f"   (raw {raw[name]:.6g})" if name in raw and name != "bytes_per_fact" else ""
        print(f"  {result['workload']:<18} {name:<44} {value:>14.6g} {units[name]}{twin}")
    samples = result.get("samples")
    if samples:
        print(f"  {result['workload']:<18} samples: " +
              ", ".join(f"{k} n={v}" for k, v in samples.items()))
    print(f"  {result['workload']:<18} ops_attempted {result['ops_attempted']}  "
          f"ops_failed {result['ops_failed']}  wall {result['wall_s']:.1f} s")


def _last_line(result: Dict[str, Any], traced: bool) -> str:
    units = {m.name: m.unit for m in (PER_LAYER if traced else END_TO_END)}
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    })


def main(argv: List[str]) -> int:
    args = _parser().parse_args(argv)
    if args.check is not None:
        from .check import check
        return check(args.check or None)
    scale = args.seconds / RUN_SECONDS * (QUICK if args.quick else 1.0)
    if args.selftest:
        from .selftest import selftest
        return selftest(args.seed, scale)
    if args.spread:
        from .selftest import spread
        return spread(args.spread, args.seed, scale, args.workload)

    names = [args.workload] if args.workload else [name for name, _ in WORKLOADS]
    traced = bool(args.trace)
    if args.quick:
        print("QUICK MODE: a tenth of the ops -- these numbers are NOT comparable "
              "with a full run or with BENCHMARK.json bounds")
    results = {}
    for name in names:
        print(f"{name}: {'traced' if traced else 'untraced'} run, seed {args.seed}, "
              f"scale {scale:.3g}", flush=True)
        if traced:
            results[name] = run_traced(name, args.seed, scale)
        else:
            results[name] = run_untraced(name, args.seed, scale, corrupt=args.corrupt)
        _print_metrics(results[name], traced)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result_trace.json" if traced else "result.json")
    with open(path, "w") as handle:
        json.dump({
            "comparable": not args.quick,
            "complete": args.workload is None,
            "traced": traced,
            "seed": args.seed,
            "seconds": args.seconds,
            "environment": environment(),
            "workloads": results,
        }, handle, indent=1)
    print(f"result file: {os.path.relpath(path)}")
    failed = sum(result["ops_failed"] for result in results.values())
    if failed:
        print(f"FAILED: {failed} operations did not match the oracle", file=sys.stderr)
    if args.workload:
        print(_last_line(results[args.workload], traced))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
