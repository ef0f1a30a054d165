"""``--selftest`` (A/A, determinism, the corrupted-reply gate) and
``--spread N`` (how steady each metric is over N seeds).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from . import ROOT, gen
from .metrics import END_TO_END, LIB, PER_LAYER, WORKLOADS
from .report import OUT, run_traced, run_untraced

NAMES = [name for name, _ in WORKLOADS]
#: Workloads whose counts do not depend on timing (no group commit, no
#: free-running reader): there the *exact* metrics must repeat bit-for-bit.
DETERMINISTIC = LIB + ("view_cascade",)
#: The A/A test alternates this many pairs of runs (A B A B ...) and
#: compares the two sides' medians: single runs of the service workloads
#: differ by 30 % when a neighbour takes a core for a quarter of a minute.
PAIRS = 3


def worse_by(metric, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if metric.better == "lower" else -change


def _inputs(seed: int) -> List[Any]:
    rng = gen.rng_for(seed, "selftest", "facts")
    return [gen.random_facts(rng, 500), gen.ordered_facts(rng, 500),
            gen.instants(rng, 500), gen.windows(rng, 100, 2_000, gen.CUTS)]


def selftest(seed: int, scale: float) -> int:
    problems: List[str] = []

    print("selftest 1/3: a corrupted reply must fail the command", flush=True)
    spoiled = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "lib_random_fit",
         "--quick", "--corrupt", "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if spoiled.returncode == 0 or '"correct": false' not in spoiled.stdout:
        problems.append("a corrupted reply did not fail the command")

    print("selftest 2/3: inputs are a function of the seed", flush=True)
    if _inputs(seed) != _inputs(seed):
        problems.append("the same seed generated different inputs")
    if _inputs(seed) == _inputs(seed + 1):
        problems.append("another seed generated the same inputs")

    print(f"selftest 3/3: A/A -- the full set twice with one seed, as the medians "
          f"of {PAIRS} alternating pairs of runs", flush=True)
    for name in NAMES:
        runs = [run_untraced(name, seed, scale) for _ in range(2 * PAIRS)]
        for metric in END_TO_END:
            a, b = (
                statistics.median(r["metrics"][metric.name] for r in runs[side::2])
                for side in (0, 1)
            )
            worse = worse_by(metric, a, b)
            print(f"  {name:<18} {metric.name:<20} A {a:>12.6g} B {b:>12.6g}  "
                  f"worse by {worse:+.2%} (bound {metric.bound:.0%})")
            if abs(worse) > metric.bound:
                problems.append(f"{name}/{metric.name}: A/A differ by {worse:+.2%}")
        if len({r["metrics"]["bytes_per_fact"] for r in runs}) != 1:
            problems.append(f"{name}/bytes_per_fact is not an exact count")
        if any(r["ops_failed"] for r in runs):
            problems.append(f"{name}: failed operations on a clean tree")
        if name in DETERMINISTIC:
            ta, tb = (run_traced(name, seed, scale)["metrics"] for _ in range(2))
            for layer in PER_LAYER:
                if layer.exact and ta[layer.name] != tb[layer.name]:
                    problems.append(
                        f"{name}/{layer.name}: exact metric differs "
                        f"({ta[layer.name]!r} vs {tb[layer.name]!r})")

    for problem in problems:
        print("SELFTEST FAILED:", problem)
    if not problems:
        print("selftest ok")
    return 1 if problems else 0


def spread(runs: int, seed: int, scale: float, workload: Optional[str]) -> int:
    """Run each workload *runs* times, each with another seed; print per
    metric the quartiles and the spread (Q3 - Q1) / median, as the
    acceptance rule computes it, and write ``bench/out/spread.json``."""
    table: Dict[str, Dict[str, Any]] = {}
    worst = 0.0
    for name in [workload] if workload else NAMES:
        results = [run_untraced(name, seed + i, scale) for i in range(runs)]
        if any(r["ops_failed"] for r in results):
            print(f"{name}: failed operations")
            return 1
        print(f"{name}: {runs} runs, seeds {seed}..{seed + runs - 1}, "
              f"wall {statistics.fmean(r['wall_s'] for r in results):.1f} s each")
        for metric in END_TO_END:
            values = [r["metrics"][metric.name] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / q2
            r1, r2, r3 = statistics.quantiles([r["raw"][metric.name] for r in results], n=4)
            if metric.name != "setup_s":
                worst = max(worst, share / metric.bound)
            table.setdefault(name, {})[metric.name] = {
                "q1": q1, "median": q2, "q3": q3, "spread": share,
                "raw_spread": (r3 - r1) / r2, "values": values}
            print(f"  {metric.name:<20} q1 {q1:>12.6g}  median {q2:>12.6g}  q3 {q3:>12.6g}  "
                  f"spread {share:6.2%}  (raw twin {(r3 - r1) / r2:6.2%})  "
                  f"bound {metric.bound:.0%}")
        table[name]["calib_ratio"] = [r["calibration"]["ratio"] for r in results]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spread.json"), "w") as handle:
        json.dump({"seed": seed, "runs": runs, "scale": scale, "workloads": table},
                  handle, indent=1)
    print(f"worst spread is {worst:.2f} of its bound (aim: below 0.33)")
    return 0
