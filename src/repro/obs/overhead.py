"""The observability-overhead gate: ``python -m repro.obs.overhead``.

An :func:`~repro.obs.observed` tree method costs nothing while
collection is off (the class attribute *is* the raw method, an identity
``tests/test_obs.py`` checks).  This gate times the flag branch left in
a method body: :class:`~repro.concurrent.ConcurrentTree` tests
:data:`repro.obs.ENABLED` and ``trace.TRACING`` on every call and, with
both off, skips its guard and span objects (other ``trace.span`` blocks,
as in ``ShardedTree``, are not timed here).  That claim regresses
silently -- a snapshot hoisted above the flag check, a span allocation
in the disabled path -- so this module measures it and fails loudly.

Three timings of the same fixed lookup workload:

* ``baseline`` -- the hand-inlined untraced path: acquire the read
  lock, call the tree method.  No flag checks.
* ``disabled`` -- :meth:`~repro.concurrent.ConcurrentTree.lookup` with
  metrics *and* tracing off: the production disabled path.
* ``traced_1pct`` -- tracing enabled with 1% head sampling and a
  null-device sink, each lookup opening a trace root the way the
  service client does.

The gate fails when ``disabled / baseline`` exceeds *threshold* (the
disabled branch must stay within a constant factor of hand-written
code; the default leaves generous room for timer noise since one lookup
is only a few microseconds of Python).  The enabled-at-1% ratio is
reported alongside, and the whole measurement is written as
``BENCH_trace_overhead.json`` via
:func:`repro.benchlib.write_bench_json`.  Run as a module, it prints the
summary and exits 1 when the gate fails.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from . import TraceSink
from . import disable as obs_disable
from . import is_enabled as obs_is_enabled
from . import trace

__all__ = ["run_overhead_gate", "DEFAULT_THRESHOLD"]

#: Disabled-path slowdown allowed over the hand-inlined baseline.
DEFAULT_THRESHOLD = 1.6


def _build_tree(n: int):
    from ..concurrent import ConcurrentTree
    from ..core.intervals import Interval
    from ..core.sbtree import SBTree

    tree = SBTree("sum", branching=8, leaf_capacity=8)
    for i in range(n):
        tree.insert(i % 7 + 1, Interval(i * 3, i * 3 + 25))
    return ConcurrentTree(tree), 3 * n + 25


def _time_best(fn, repeat: int = 3) -> float:
    from ..benchlib import time_call

    return time_call(fn, repeat=repeat)


def run_overhead_gate(
    *,
    facts: int = 400,
    lookups: int = 4000,
    threshold: float = DEFAULT_THRESHOLD,
    out_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure the three paths; returns the report (``ok`` is the gate).

    Must run with observability globally disabled (it manages the
    flags itself); raises :class:`RuntimeError` otherwise instead of
    publishing a corrupted measurement.
    """
    if obs_is_enabled() or trace.is_enabled():
        raise RuntimeError(
            "overhead gate needs obs/tracing disabled before it runs"
        )
    ct, span_end = _build_tree(facts)
    probes = [(i * 997) % span_end for i in range(lookups)]

    tree, lock = ct.tree, ct.lock

    def baseline() -> None:
        for t in probes:
            lock.acquire_read()
            try:
                tree.lookup(t)
            finally:
                lock.release_read()

    def disabled() -> None:
        for t in probes:
            ct.lookup(t)

    def traced() -> None:
        for t in probes:
            ctx = trace.new_trace()
            if ctx is not None:
                with trace.activated(ctx):
                    ct.lookup(t)
            else:
                ct.lookup(t)

    base_s = _time_best(baseline)
    disabled_s = _time_best(disabled)
    with open(os.devnull, "w") as null:
        sink = TraceSink(null)
        trace.enable(sink, sample=0.01)
        try:
            traced_s = _time_best(traced)
        finally:
            trace.disable()
    obs_disable()

    ratio_disabled = disabled_s / base_s if base_s else 0.0
    ratio_traced = traced_s / base_s if base_s else 0.0
    report: Dict[str, Any] = {
        "facts": facts,
        "lookups": lookups,
        "baseline_us_per_op": base_s / lookups * 1e6,
        "disabled_us_per_op": disabled_s / lookups * 1e6,
        "traced_1pct_us_per_op": traced_s / lookups * 1e6,
        "ratio_disabled": round(ratio_disabled, 4),
        "ratio_traced_1pct": round(ratio_traced, 4),
        "threshold": threshold,
        "ok": ratio_disabled <= threshold,
    }
    if out_dir is not None:
        from ..benchlib import Series, write_bench_json

        series = Series("mode", [0, 1, 2])
        series.add(
            "us_per_op",
            [
                report["baseline_us_per_op"],
                report["disabled_us_per_op"],
                report["traced_1pct_us_per_op"],
            ],
        )
        write_bench_json(
            out_dir,
            "trace_overhead",
            series,
            extra={
                "modes": ["baseline", "disabled", "traced_1pct"],
                **{k: v for k, v in report.items() if k not in ("facts", "lookups")},
            },
        )
    return report


def render_report(report: Dict[str, Any]) -> str:
    """One-paragraph human summary of a gate run."""
    return (
        f"overhead gate: baseline {report['baseline_us_per_op']:.2f} us/op, "
        f"disabled {report['disabled_us_per_op']:.2f} us/op "
        f"(x{report['ratio_disabled']:.2f}), "
        f"traced@1% {report['traced_1pct_us_per_op']:.2f} us/op "
        f"(x{report['ratio_traced_1pct']:.2f}); "
        f"threshold x{report['threshold']:.2f} -> "
        f"{'OK' if report['ok'] else 'FAIL'}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.overhead", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--out", metavar="DIR", help="write BENCH_trace_overhead.json under DIR"
    )
    args = parser.parse_args(argv)
    report = run_overhead_gate(out_dir=args.out)
    print(render_report(report))
    if args.out:
        print(f"wrote {os.path.join(args.out, 'BENCH_trace_overhead.json')}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
