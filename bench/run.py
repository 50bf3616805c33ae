#!/usr/bin/env python3
"""Benchmark of redzone: whole CLI jobs end to end, and each layer in a traced run.

    python3 bench/run.py --workload mc-compare --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 30 --trace 1

The checkout holding this file must contain ``src/redzone`` and
``demos/config_example.json``; nothing needs installing.  One job runs a
workload's CLI commands in this process through ``redzone.cli.main``.  The
workload seed becomes ``sim.master_seed`` of a generated copy of the shipped
example config, and that copy is the only input the program sees.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
set-up time (median over fresh processes), median job time after one
warm-up job, replications per second and peak resident memory.  Set-up and
job times are rescaled to a reference machine speed (see ReferenceSpeed);
the raw times are in the report.  ``--trace 1`` alternates untraced and traced jobs and reports the per-layer metrics
(medians over traced jobs) and the tracing overhead.  Every job's outputs
are checked: a nonzero exit code, a failed consistency check or an output
digest that differs from ``bench/digests.json`` (or, for an unrecorded seed,
from the run's first job) fails the job.

The last line of standard output is the result object; the line before it
is the full report (environment, sample counts, tail percentiles, digests,
error rate).  Generated configs, outputs and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from tracing import COUNTED, TIMED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 42
MIN_JOBS = 4
# Reference speed (see ReferenceSpeed): the time one calibration loop takes,
# and the time a bare interpreter takes to start.
REFERENCE_LOOP_S = 0.0045
REFERENCE_START_S = 0.04
DELTAS = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 40.0)


class BenchError(Exception):
    """The benchmark cannot run here, or a job's output is wrong."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise BenchError(message)


def _csv_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def _check_compare(out: Path, cfg: dict, w: "Workload") -> None:
    doc = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    _expect(doc["seed"] == cfg["sim"]["master_seed"], "compare.json: wrong seed")
    _expect(doc["replications"] == w.replications // 2, "compare.json: wrong replications")
    t1 = doc["type1"]["trdd_weeks"]["mean"]
    t2 = doc["type2"]["trdd_weeks"]["mean"]
    _expect(math.isclose(doc["extension_ratio"], (t2 - t1) / t1, rel_tol=1e-12),
            "compare.json: extension_ratio does not match the trdd means")


def _check_trace_export(out: Path, cfg: dict, w: "Workload") -> None:
    doc = json.loads((out / "simulate.json").read_text(encoding="utf-8"))
    _expect(doc["seed"] == cfg["sim"]["master_seed"] and doc["policy"] == "type2",
            "simulate.json: wrong run")
    _expect(doc["replications"] == w.replications, "simulate.json: wrong replications")
    # Streamed line by line, so the check holds far less memory than the program.
    deaths, previous = 0, 0
    with open(out / "events.csv", encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        _expect(header[0] == "replication" and header[2] == "kind", "events.csv: bad header")
        for line in fh:
            rep, _, kind, _ = line.split(",", 3)
            rep = int(rep)
            _expect(previous <= rep < w.replications,
                    "events.csv: replication indices out of order or range")
            previous = rep
            deaths += kind == "system_death"
    _expect(deaths == w.replications - doc["censored_count"],
            "events.csv: system deaths do not match the uncensored count")


def _check_curve_sweep(out: Path, cfg: dict, w: "Workload") -> None:
    th3 = cfg["hazard"]["th3"]
    _, rows = _csv_rows(out / "redzone.csv")
    _expect([float(r[0]) for r in rows] == list(DELTAS), "redzone.csv: wrong spreads")
    for r in rows:
        predicted = float(r[0]) < th3
        _expect(r[1] == ("1" if predicted else "0"), f"redzone.csv: wrong prediction at {r[0]}")
        # the paper's existence rule: a red zone is detected exactly when spread < th3
        _expect(r[2] == r[1], f"redzone.csv: detection disagrees with spread < th3 at {r[0]}")
        _expect(r[4] != "", f"redzone.csv: no redundant lifetime at {r[0]}")
    _, segments = _csv_rows(out / "scenario.csv")
    _expect(any(s[6] == "1" for s in segments), "scenario.csv: no segment in the red zone")
    _expect(_line_count(out / "scenario_curve.csv") > 1, "scenario_curve.csv: empty")


@dataclass(frozen=True)
class Workload:
    commands: tuple  # CLI argv lists without --config; "{out}" is the output directory
    replications: int  # Monte Carlo replications one job completes
    check: Callable[[Path, dict, "Workload"], None]  # raises BenchError
    config: dict = field(default_factory=dict)  # overrides of the example config

    def argv(self, cfg: Path, out: Path):
        for cmd in self.commands:
            yield [cmd[0], "--config", str(cfg)] + [a.format(out=out) for a in cmd[1:]]

    def sizes(self) -> dict:
        return {"commands": [list(c) for c in self.commands],
                "replications_per_job": self.replications, "config": self.config}


WORKLOADS = {
    "mc-compare": Workload(
        commands=(("compare", "--replications", "2000", "--out", "{out}/compare.json"),),
        replications=2 * 2000,
        check=_check_compare,
    ),
    "trace-export": Workload(
        commands=(("simulate", "--policy", "type2", "--replications", "2000",
                   "--out", "{out}/simulate.json", "--events-out", "{out}/events.csv"),),
        replications=2000,
        check=_check_trace_export,
    ),
    "curve-sweep": Workload(
        commands=(("redzone", "--deltas", ",".join(f"{d:g}" for d in DELTAS),
                   "--replications", "100", "--out", "{out}/redzone.csv"),
                  ("scenario", "--out", "{out}/scenario.csv")),
        replications=len(DELTAS) * 100,
        check=_check_curve_sweep,
        config={"analysis": {"curve_dt": 0.002}},
    ),
}


# ---------------------------------------------------------------------------
# Program, inputs and outputs
# ---------------------------------------------------------------------------

def load_program():
    """Import ``redzone.cli`` from this checkout's sources."""
    src = ROOT / "src"
    for needed in (src / "redzone" / "cli.py", ROOT / "demos" / "config_example.json",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            raise BenchError(f"missing {needed.relative_to(ROOT)}: run inside a full checkout")
    sys.path.insert(0, str(src))
    import redzone.cli
    _expect(Path(redzone.cli.__file__).resolve().is_relative_to(src.resolve()),
            f"imported redzone from {redzone.cli.__file__}, not from this checkout")
    return redzone.cli


def prepare(name: str, seed: int) -> tuple[dict, Path, Path]:
    """Write the generated config; return it, its path and the output directory."""
    w = WORKLOADS[name]
    doc = json.loads((ROOT / "demos" / "config_example.json").read_text(encoding="utf-8"))
    doc.setdefault("sim", {})["master_seed"] = seed
    for section, fields in w.config.items():
        doc.setdefault(section, {}).update(fields)
    run_dir = ROOT / ".bench_out" / f"{name}-s{seed}"
    out = run_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    cfg = run_dir / "config.json"
    cfg.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc, cfg, out


def run_job(main, w: Workload, cfg: Path, out: Path) -> tuple[float, str | None]:
    """Run one job; return its wall time and an error message or None."""
    for stale in out.iterdir():
        stale.unlink()
    gc.collect()
    t0 = perf_counter()
    for argv in w.argv(cfg, out):
        code = main(argv)
        if code != 0:
            return perf_counter() - t0, f"{argv[0]} exited with code {code}"
    return perf_counter() - t0, None


def output_digests(out: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[path.name] = h.hexdigest()
    return digests


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def recorded_digests(name: str, seed: int) -> dict | None:
    table = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    return table.get(name, {}).get(str(seed))


def verify(w: Workload, out: Path, doc: dict, reference: dict | None):
    """Check one job's outputs; return (error or None, digests)."""
    digests = output_digests(out)
    try:
        w.check(out, doc, w)
    except (BenchError, OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as e:
        return f"output check failed: {e!r}", digests
    if reference is not None and digests != reference:
        bad = sorted(set(digests) ^ set(reference)
                     | {k for k in digests if digests[k] != reference.get(k)})
        return f"output digests differ: {', '.join(bad)}", digests
    return None, digests


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

_READY = "print('ready', flush=True)\n"
_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import redzone.cli\n"
    "from redzone.config import load_config\n"
    "load_config(sys.argv[2])\n" + _READY
)


def _time_to_ready(code: str, *args: str) -> float:
    """Wall time from starting a fresh interpreter on ``code`` until it prints ready."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        t1 = perf_counter()
        _, err = proc.communicate(timeout=60)
    _expect(ready == "ready\n" and proc.returncode == 0, f"child process failed: {err.strip()}")
    return t1 - t0


def setup_seconds(cfg: Path) -> float:
    """Fresh process start through ``import redzone.cli`` and ``load_config``."""
    return _time_to_ready(_SETUP_CHILD, str(ROOT / "src"), str(cfg))


def interpreter_start() -> float:
    """Fresh process start of a bare interpreter: the calibration for set-up."""
    return _time_to_ready(_READY)


def _calibration_loop() -> float:
    # Integer mixing, float arithmetic, dict stores and small numpy calls: the
    # kinds of work the program does, in fixed amounts.
    z, acc, last, v = 0, 0.0, {}, np.zeros(4)
    for i in range(10_000):
        z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        acc += ((x >> 11) + 0.5) * 2.0 ** -53
        last[i & 63] = (acc, i)
        if i % 16 == 0:
            v = np.sqrt(v + 1.0)
    return acc + float(v[0])


def calibration_loop_time() -> float:
    """Machine speed now: the median of five timings of a fixed loop, in seconds."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class ReferenceSpeed:
    """Rescales measured times to a fixed reference speed of this machine.

    The host is shared: neighbours slow this process by up to half, for
    seconds to minutes at a time.  Over twenty runs a workload's raw median
    moved by up to 19% between two sets of ten, against 6% rescaled (see
    bench/baseline.json).  Each raw time is multiplied by ``reference_s`` over the
    mean of two calibrations, taken just before and just after it.  A
    calibration runs no redzone code, so a change to the program moves the
    rescaled time in the same proportion as the raw one.
    """

    def __init__(self, calibrate, reference_s: float):
        self.calibrate = calibrate
        self.reference_s = reference_s
        self.last = calibrate()

    def measure(self, timed) -> tuple[float, float]:
        """Call ``timed()``, which returns seconds; return (raw, rescaled) seconds."""
        before = self.last
        raw = timed()
        self.last = self.calibrate()
        return raw, raw * self.reference_s / (0.5 * (before + self.last))


def tail_percentile(samples) -> dict | None:
    """The highest of a fixed ladder of percentiles with >= 10 samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return {"percentile": p, "value": float(np.percentile(samples, p))}
    return None


class Run:
    """One benchmark run of one workload: jobs, their outcome and their timings."""

    def __init__(self, main, name: str, seed: int):
        self.main = main
        self.w = WORKLOADS[name]
        self.doc, self.cfg, self.out = prepare(name, seed)
        self.recorded = recorded_digests(name, seed)
        self.reference = self.recorded
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def job(self, main=None) -> float:
        self.attempted += 1
        seconds, error = run_job(main or self.main, self.w, self.cfg, self.out)
        if error is None:
            error, self.digests = verify(self.w, self.out, self.doc, self.reference)
            if self.reference is None and error is None:
                self.reference = self.digests
        if error is not None:
            self.errors.append(f"job {self.attempted}: {error}")
        return seconds

    def output_size(self) -> tuple[int, int]:
        """Bytes written and CSV data rows in the last job's outputs."""
        files = sorted(self.out.iterdir())
        rows = sum(_line_count(p) - 1 for p in files if p.suffix == ".csv")
        return sum(p.stat().st_size for p in files), rows


def _until(seconds: float, minimum: int, step) -> None:
    deadline = perf_counter() + seconds
    n = 0
    while n < minimum or perf_counter() < deadline:
        step(n)
        n += 1


END_TO_END = ("setup_s", "job_s", "reps_per_s", "peak_rss_mb")


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Declared metrics, and the raw (not rescaled) times behind them."""
    setup_seconds(run.cfg)  # warm-up: byte-compiles the package
    run.job()  # warm-up
    job_speed = ReferenceSpeed(calibration_loop_time, REFERENCE_LOOP_S)
    start_speed = ReferenceSpeed(interpreter_start, REFERENCE_START_S)
    jobs: list[tuple[float, float]] = []
    setup: list[tuple[float, float]] = []

    # Set-up samples alternate with jobs so that both span the whole run.
    def step(n: int) -> None:
        jobs.append(job_speed.measure(run.job))
        setup.append(start_speed.measure(lambda: setup_seconds(run.cfg)))

    _until(seconds, MIN_JOBS, step)
    times = [scaled for _, scaled in jobs]
    job_s = statistics.median(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), [s for _, s in setup]),
        "job_s": (job_s, times),
        "reps_per_s": (run.w.replications / job_s, times),
        "peak_rss_mb": (peak_kib / 1024.0, [peak_kib / 1024.0]),
    }
    raw = {"setup_s": [r for r, _ in setup], "job_s": [r for r, _ in jobs]}
    return metrics, {k: {"median": statistics.median(v), "tail": tail_percentile(v), "values": v}
                     for k, v in raw.items()}


# Per-layer metrics that are not a per-name total or a counter.
_DERIVED = {
    "montecarlo.censored_ratio":
        lambda j: _ratio(j.get("montecarlo.censored", 0), j.get("montecarlo.replications", 0)),
    "maintenance.plan_type2.useful_ratio":
        lambda j: _ratio(j.get("maintenance.plan_type2.useful", 0),
                         j.get("maintenance.plan_type2.calls", 0)),
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def known_layer_metrics() -> set[str]:
    spans = [f"{m}.{f}" for m, f in TIMED] + ["cli.main"]
    known = {f"{s}.{k}" for s in spans for k in ("calls", "s", "self_s")}
    known |= set(_DERIVED) | {"cli.bytes_out", "cli.rows_out"}
    return known | set(COUNTED) | {"trace.job_s", "trace.untraced_job_s", "trace.overhead_s"}


def measure_layers(run: Run, seconds: float, names: list[str]) -> tuple[dict, Tracer]:
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", run.main)
    run.job()  # warm-up
    plain: list[float] = []
    traced: list[float] = []
    per_job: list[dict] = []

    def step(n: int) -> None:
        if n % 2 == 0:
            plain.append(run.job())
            return
        tracer.install()
        tracer.begin_job(run.attempted + 1)
        try:
            traced.append(run.job(traced_main))
        finally:
            tracer.uninstall()
        j = tracer.end_job()
        j["cli.bytes_out"], j["cli.rows_out"] = run.output_size()
        per_job.append(j)

    _until(seconds, 2 * MIN_JOBS, step)
    job_s, untraced_s = statistics.median(traced), statistics.median(plain)
    whole_run = {"trace.job_s": (job_s, traced),
                 "trace.untraced_job_s": (untraced_s, plain),
                 "trace.overhead_s": (job_s - untraced_s, traced)}
    metrics = {}
    for name in names:
        if name in whole_run:
            metrics[name] = whole_run[name]
            continue
        values = [_DERIVED[name](j) if name in _DERIVED else j.get(name, 0) for j in per_job]
        metrics[name] = (statistics.median(values), values)
    return metrics, tracer


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from files; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(ROOT),
        "src_sha256": _tree_digest(ROOT / "src" / "redzone"),
        "seed": seed,
    }


def run_one(main, name: str, seed: int, seconds: float, trace: bool) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    run = Run(main, name, seed)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "why": why.get(name), "sizes": run.w.sizes(), "environment": environment(seed)}
    if trace:
        unknown = sorted(set(units) - known_layer_metrics())
        _expect(not unknown, f"BENCHMARK.json names unknown per-layer metrics: {unknown}")
        measured, tracer = measure_layers(run, seconds, list(units))
        spans = ROOT / ".bench_out" / f"spans-{name}-s{seed}.npz"
        tracer.write(spans)
        report["spans"] = {"file": str(spans.relative_to(ROOT)), "count": len(tracer.start)}
    else:
        unknown = sorted(set(units) - set(END_TO_END))
        _expect(not unknown, f"BENCHMARK.json names unknown end-to-end metrics: {unknown}")
        measured, report["raw_seconds"] = measure_end_to_end(run, seconds)
    failed = len(run.errors)
    report["jobs"] = {"attempted": run.attempted, "failed": failed,
                      "error_rate": failed / run.attempted, "errors": run.errors[:5]}
    report["digest_gate"] = "recorded" if run.recorded is not None else "first job"
    report["digests"] = run.digests
    report["metrics"] = {
        m: {"value": measured[m][0], "unit": unit, "samples": len(measured[m][1]),
            "tail": tail_percentile(measured[m][1]), "values": measured[m][1]}
        for m, unit in units.items()
    }
    return report


def _print_table(title: str, metrics: dict, jobs: dict) -> None:
    print(f"{title}: {jobs['attempted']} jobs, {jobs['failed']} failed, "
          f"error_rate {jobs['error_rate']:g} ratio", file=sys.stderr)
    for m, v in metrics.items():
        print(f"  {m:40s} {v['value']:>14.6g} {v['unit']:6s} (n={v['samples']})",
              file=sys.stderr)


def run_all(args) -> int:
    """Run every workload in its own process; combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, written to sim.master_seed")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep starting timed jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        cli = load_program()
        report = run_one(cli.main, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _print_table(f"{args.workload} seed {args.seed}", report["metrics"], report["jobs"])
    print(json.dumps({"report": report}))
    jobs = report["jobs"]
    print(json.dumps({
        "correct": jobs["failed"] == 0,
        "attempted": jobs["attempted"],
        "failed": jobs["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
