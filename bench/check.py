"""``python3 -m bench --check``: the schema and contract check.

Validates ``BENCHMARK.json`` against the driver's limits and against
the tables in :mod:`bench.metrics`, then validates a result file.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, List, Optional

from . import ROOT
from .metrics import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json
from .report import OUT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def check_benchmark(doc: Any, size: int) -> List[str]:
    errors: List[str] = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    need(size <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    keys = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    if not isinstance(doc, dict) or sorted(doc) != sorted(keys):
        return errors + [f"top-level keys must be exactly {keys}"]
    command, paths = doc["command"], doc["paths"]
    need(isinstance(command, list) and 1 <= len(command) <= 32
         and all(isinstance(a, str) and len(a) <= 200 for a in command),
         "command: a list of at most 32 strings of at most 200 characters")
    need(not any(a.startswith("/") or ".." in a.split("/") for a in command),
         "command: no absolute path and no '..'")
    need(isinstance(paths, list) and 1 <= len(paths) <= 16
         and all(isinstance(p, str) and PATH.match(p) and not p.startswith("/")
                 and ".." not in p.split("/") for p in paths),
         "paths: 1 to 16 relative directories")
    need(isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60,
         "run_seconds: a whole number from 1 to 60")
    need(2 <= len(doc["workloads"]) <= 8, "workloads: 2 to 8")
    need(1 <= len(doc["end_to_end"]) <= 16, "end_to_end: 1 to 16 metrics")
    need(1 <= len(doc["per_layer"]) <= 128, "per_layer: 1 to 128 metrics")
    names: List[str] = []
    for w in doc["workloads"]:
        need(sorted(w) == ["name", "why"], f"workload {w}: exactly name and why")
        need(len(w.get("why", "")) <= 200 and "\n" not in w.get("why", ""),
             f"workload {w.get('name')}: why is one line of at most 200 characters")
        names.append(w.get("name", ""))
    for m in doc["end_to_end"]:
        need(sorted(m) == ["better", "bound", "name", "unit"],
             f"end_to_end {m}: exactly name, unit, better, bound")
        need(isinstance(m.get("bound"), (int, float)) and 0 < m["bound"] <= 0.25,
             f"end_to_end {m.get('name')}: bound in (0, 0.25]")
        names.append(m.get("name", ""))
    for m in doc["per_layer"]:
        need(sorted(m) == ["better", "name", "unit"],
             f"per_layer {m}: exactly name, unit, better")
        names.append(m.get("name", ""))
    for m in doc["end_to_end"] + doc["per_layer"]:
        need(bool(UNIT.match(str(m.get("unit", "")))), f"{m.get('name')}: bad unit")
        need(m.get("better") in ("lower", "higher"), f"{m.get('name')}: bad direction")
    for name in names:
        need(bool(NAME.match(name)), f"bad name {name!r}")
    need(len(set(names)) == len(names), "a name is used more than once")
    need(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
             for m in doc["end_to_end"]), "end_to_end needs setup_s in s, lower is better")

    need(doc == benchmark_json(), "BENCHMARK.json differs from bench/metrics.py")
    workloads = {name for name, _ in WORKLOADS}
    end_to_end = {m.name for m in END_TO_END}
    for layer in PER_LAYER:
        need(layer.moves in end_to_end,
             f"{layer.name}: should move {layer.moves!r}, not an end-to-end metric")
        need(bool(layer.where) and set(layer.where) <= workloads,
             f"{layer.name}: names no workload it should move on")
    return errors


def check_result(doc: Any) -> List[str]:
    errors: List[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("workloads"), dict):
        return ["result file: no 'workloads' object"]
    table = PER_LAYER if doc.get("traced") else END_TO_END
    for name, _ in WORKLOADS:
        run = doc["workloads"].get(name)
        if run is None:
            if doc.get("complete"):
                errors.append(f"result: workload {name} is missing")
            continue
        for metric in table:
            value = run["metrics"].get(metric.name)
            if not isinstance(value, (int, float)):
                errors.append(f"result: {name}/{metric.name} is missing")
            elif not doc.get("traced") and not value > 0:
                errors.append(f"result: {name}/{metric.name} is not positive")
        if not 0 <= run["ops_failed"] <= run["ops_attempted"]:
            errors.append(f"result: {name}: ops_failed > ops_attempted")
        if run["ops_attempted"] < 1:
            errors.append(f"result: {name}: no operation attempted")
    return errors


def check(result_path: Optional[str]) -> int:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        text = handle.read()
    errors = check_benchmark(json.loads(text), len(text.encode()))
    result_path = result_path or os.path.join(OUT, "result.json")
    if os.path.exists(result_path):
        with open(result_path) as handle:
            errors += check_result(json.load(handle))
    else:
        print(f"no result file at {result_path}: checked BENCHMARK.json only")
    for error in errors:
        print("CHECK FAILED:", error)
    if not errors:
        print("check ok:", os.path.relpath(path), "and", os.path.relpath(result_path))
    return 1 if errors else 0
