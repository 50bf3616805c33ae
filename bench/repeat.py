#!/usr/bin/env python3
"""Repeat bench/run.py over consecutive seeds and report each metric's spread.

    python3 bench/repeat.py --workload mc-compare,trace-export --runs 10 --first-seed 100

For every metric it prints the median of the runs, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile spread as a share
of the median and the bound from BENCHMARK.json, for every end-to-end
metric and for the raw (not rescaled) medians of ``job_s`` and ``setup_s``
from the report line.  Each run lasts BENCHMARK.json's ``run_seconds``.  ``--json`` also writes the
summary and every run's values to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    summary = {}
    for name in args.workload.split(","):
        results = []
        for i in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                 "--seed", str(args.first_seed + i), "--seconds", str(declared["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=900)
            if proc.returncode != 0:
                print(f"error: {name} run {i} exited with code {proc.returncode}",
                      file=sys.stderr)
                return 1
            *_, report_line, result_line = proc.stdout.splitlines()
            result = json.loads(result_line)
            if not result["correct"]:
                print(f"error: {name} run {i}: {result['failed']} jobs failed", file=sys.stderr)
                return 1
            raw = json.loads(report_line)["report"]["raw_seconds"]
            for metric, r in raw.items():
                result["metrics"][f"raw.{metric}"] = {"value": r["median"], "unit": "s"}
            results.append(result["metrics"])
        summary[name] = {}
        for metric, first in results[0].items():
            s = spread([r[metric]["value"] for r in results])
            s["unit"] = first["unit"]
            s["bound"] = bounds.get(metric)
            summary[name][metric] = s
            bound = "" if s["bound"] is None else f"  bound {s['bound']:g}"
            print(f"{name:13s} {metric:36s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{bound}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
