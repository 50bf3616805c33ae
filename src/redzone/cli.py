"""Command-line interface.

Subcommands: ``hazard`` (component rate curves), ``scenario`` (deterministic
timeline and composed curve), ``simulate`` (Monte Carlo ensemble summary),
``compare`` (both policies from one master seed), ``redzone`` (spread
sweep).  All behavior flows from the flags and the JSON configuration
document; outputs are byte-reproducible for a given config, seed, numpy
version and numpy CPU dispatch level (numpy picks its ``exp`` and ``log``
loops by CPU feature).
Each subcommand's help line and flags are stated once, in ``_COMMANDS``; a
job builds the parser of the subcommand it names only, and
:func:`build_parser`, every subcommand's, serves ``redzone -h`` and an argv
that names none.  Both give the same arguments, errors and help.

Each kind of CSV table has one writer path.  A float table is written in
blocks of ``_TABLE_BLOCK`` rows, each one orjson pass (:func:`_float_lines`)
whose buffer is written itself, not copied to bytes.  A short table (the
scenario segments, the spread sweep) arrives as cell text, its floats as
``repr`` writes them, and is written in one join.  A block of
``_EVENT_BLOCK`` rows of the event log formats its distinct times once, by
bit pattern, and is one flat join of each row's replication prefix, time and
row tail, the tail looked up by the row's codes in
``montecarlo._event_tails``.  Floats read as ``repr`` writes them.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical or
runtime failure.  :func:`main` alone prints an error's ``fields`` after it,
as ``(config: ...)``, with the flag that set a field in its place.  A
config warning prints as ``warning: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .analysis import (
    apply_vendor_decision_point,
    assess_curve,
    assess_red_zone,
    compare_policies,
    delta_sweep,
)
from .config import SCHEMA_VERSION, RunConfig, load_config
from .errors import CompositionError, DomainError, ValidationError, ValidationWarning
from .hazards import bathtub_hazard, software_hazard
from .montecarlo import EventLog, Metrics, _event_tails, run_batch, sample_lifetimes
from .system import scenario_timeline, system_hazard_curve

__all__ = ["main", "build_parser"]

# Rows a CSV writer formats and writes at once; a block's buffers are freed before the
# next, and glibc trims large ones and faults them back in.  On a 2-core Xeon a 207,000-row
# float curve took 34.4-34.7 ms to write at 8,192 rows and 29.3-30.0 ms at 4,096 (p10 of
# 30), a 27,024-row type2 event log 5.2-6.0 ms and 306-459 faults at 8,192, and with none
# 4.6-5.0, 4.8-5.2 and 5.3-5.8 ms at 4,096, 2,048 and 1,024 (median of 15 calls).
_TABLE_BLOCK = 4096
_EVENT_BLOCK = 2048  # half the strings of 4,096 rows, at about their time


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _repr_fix_ups(x: np.ndarray) -> np.ndarray:
    """The indexes of the cells of float array ``x`` that orjson writes in another
    notation than ``repr``.  Its Ryu digits are ``repr``'s, the shortest that round
    trip; the notation differs only for non-finite values, 0 < |x| < 1e-4 and
    |x| >= 1e16 (``null``, ``0.00001``, ``1e16`` against ``nan``, ``1e-05``, ``1e+16``)."""
    ax = np.abs(x)
    return np.flatnonzero(~((ax >= 1e-4) & (ax < 1e16)) & (x != 0.0))


def _float_lines(columns) -> np.ndarray | bytes:
    """The CSV lines of a block of float columns, each cell as ``repr`` writes it.

    The block is interleaved row by row and dumped by orjson as one JSON array;
    every k-th comma becomes a newline in that buffer, which is returned as it is
    unless a cell of :func:`_repr_fix_ups` is spliced in from ``repr``, at the byte
    spans the commas bound, by joining views of the buffer.
    """
    import orjson  # loaded only by commands that write float tables

    x = np.column_stack(columns).astype(float, copy=False).ravel()
    if not x.size:
        return b""
    # the closing bracket ends the last row; k - 1 commas separate a row's cells
    line = np.frombuffer(orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8)[1:].copy()
    line[-1] = 10
    commas = np.flatnonzero(line == 44)
    line[commas[len(columns) - 1::len(columns)]] = 10
    fix = _repr_fix_ups(x)
    if not fix.size:
        return line
    # Spliced, not sent to _float_reprs: a str per cell gave the same bytes but raised the
    # curve-sweep benchmark's peak memory by 1.6 MB, at 1.6x the time on a two-column block.
    # cell i lies between separators i - 1 and i
    bounds = np.concatenate(([-1], commas, [line.size - 1]))
    text, parts, pos = memoryview(line), [], 0
    for v, start, end in zip(x[fix].tolist(), (bounds[fix] + 1).tolist(),
                             bounds[fix + 1].tolist()):
        parts += (text[pos:start], repr(v).encode())
        pos = end
    parts.append(text[pos:])
    return b"".join(parts)


def _float_reprs(x) -> list[str]:
    """``[repr(v) for v in x.tolist()]`` for a float array: orjson's cells, fixed up by ``repr``."""
    import orjson

    x = np.ascontiguousarray(x, dtype=float)
    if not x.size:
        return []
    cells = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    for i in _repr_fix_ups(x).tolist():
        cells[i] = repr(float(x[i]))
    return cells


def _write_table(path: str, table: dict) -> None:
    """Write a table given as {header: column}: float arrays or a curve's grid, written
    ``_TABLE_BLOCK`` rows at a time by :func:`_float_lines`, the grid's rows built per
    block; or lists of cell text, written in one join."""
    columns = list(table.values())
    with open(path, "wb") as fh:
        fh.write((",".join(table) + "\n").encode())
        if isinstance(columns[0], list):
            fh.write("".join(",".join(row) + "\n" for row in zip(*columns)).encode())
            return
        for lo in range(0, len(columns[0]), _TABLE_BLOCK):
            fh.write(_float_lines([c[lo:lo + _TABLE_BLOCK] for c in columns]))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# The flags that set a config field, with the field's path.
_FLAG_FIELDS = {
    "--policy": "policy.kind",
    "--seed": "sim.master_seed",
    "--replications": "sim.replications",
    "--dt": "analysis.curve_dt",
}


def _overrides(args) -> dict:
    """The config fields set by the flags given, for :func:`load_config`."""
    return {field: (flag, getattr(args, flag[2:])) for flag, field in _FLAG_FIELDS.items()
            if getattr(args, flag[2:], None) is not None}


def _sources(args) -> dict:
    """What an error names in place of a config field: the flag that set it, and in
    ``redzone`` what set the spreads that stand in for ``lifetime.sd``."""
    sources = {field: flag for field, (flag, _) in _overrides(args).items()}
    if args.command == "redzone":
        sources["lifetime.sd"] = "--deltas" if args.deltas is not None else "hazard.th3"
    return sources


# A curve command holds up to about seven float64 arrays of its grid at once (44-55
# bytes a point, measured on hazard runs); a grid may take eight.  scenario, whose
# curve is evaluated a block at a time into its rates and holds its times as a Grid,
# holds about one; hazard sets the bound.
_GRID_POINT_BYTES = 8 * np.dtype(float).itemsize
_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _curve_dt(run: RunConfig, t_max: float | None = None) -> float:
    """``run.curve_dt``, checked to give a grid that fits in physical memory: over
    [0, t_max] for ``hazard``, else over twice the mean lifetime, past where any scenario
    curve ends."""
    span = 2.0 * run.system.unit_lifetime.mean if t_max is None else t_max
    dt = run.curve_dt
    if span / dt * _GRID_POINT_BYTES >= _PHYSICAL_MEMORY:
        raise ValidationError(f"grid step {dt!r} gives {span / dt:.3g} grid points over "
                              f"[0, {span!r}] weeks, more than {_PHYSICAL_MEMORY:.3g} bytes of "
                              "physical memory hold; raise the step"
                              + ("" if t_max is None else " or lower --t-max"),
                              fields=("analysis.curve_dt",))
    return dt


def cmd_hazard(run: RunConfig, args) -> int:
    hz = run.system.hazard
    if args.t_max is None:
        t_max = 1.2 * (hz.th1 + hz.th2 + hz.th3)
        if not math.isfinite(t_max):
            raise ValidationError(f"the default grid end 1.2 * (th1 + th2 + th3) is {t_max!r}; "
                                  "pass --t-max", fields=("hazard.th1", "hazard.th2", "hazard.th3"))
    else:
        t_max = args.t_max
        if not (math.isfinite(t_max) and t_max > 0.0):
            raise ValidationError(f"--t-max must be a finite number > 0, got {t_max!r}")
    dt = _curve_dt(run, t_max)
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    h_hw = bathtub_hazard(t, hz)
    h_sw = (software_hazard(t, run.system.software) if run.system.software is not None
            else np.zeros_like(t))
    h_op = np.full_like(t, run.system.operator.rate if run.system.operator else 0.0)
    _write_table(args.out, {"t_weeks": t, "h_hardware": h_hw, "h_software": h_sw,
                            "h_operate": h_op, "h_system": h_hw + h_sw + h_op})
    return 0


def cmd_scenario(run: RunConfig, args) -> int:
    if run.policy.kind != "type1":
        raise ValidationError("scenario models the replace-on-failure policy (type1) only, "
                              f"not {run.policy.kind}", fields=("policy.kind",))
    dt = _curve_dt(run)
    timeline = scenario_timeline(run.system)
    # one full curve serves both the assessment and the curve file
    curve = system_hazard_curve(timeline, dt=dt)
    zone = assess_curve(timeline, curve, threshold=run.red_zone_threshold,
                        baseline_window_fraction=run.baseline_window_fraction).zone

    def in_zone(seg) -> bool:
        return zone is not None and seg.t_start < zone.end and seg.t_end > zone.start

    segs = timeline.segments
    _write_table(args.out, {
        "t_start_weeks": [repr(float(seg.t_start)) for seg in segs],
        "t_end_weeks": [repr(float(seg.t_end)) for seg in segs],
        "composition": [seg.composition for seg in segs],
        "boundary": [seg.boundary for seg in segs],
        "active_units": [";".join(au.unit_id for au in seg.units) for seg in segs],
        "phases": [";".join(au.phase for au in seg.units) for seg in segs],
        "red_zone": [str(int(in_zone(seg))) for seg in segs],
    })
    _write_table(args.out.removesuffix(".csv") + "_curve.csv",
                 {"t_weeks": curve.grid, "h_system": curve.rates})
    return 0


def _summary_doc(summary) -> dict | None:
    if summary is None:
        return None
    return {
        "mean": float(summary.mean),
        "std": float(summary.std),
        "ci95": [float(summary.ci_low), float(summary.ci_high)],
    }


def _metrics_doc(metrics: Metrics) -> dict:
    return {
        "trdd_weeks": _summary_doc(metrics.trdd),
        "tdt_weeks": _summary_doc(metrics.tdt),
        "dp_weeks": _summary_doc(metrics.dp),
        "tdr_weeks": _summary_doc(metrics.tdr),
        "censored_count": int(metrics.censored_count),
    }


def _zone_doc(zone) -> dict | None:
    if zone is None:
        return None
    return {"start": float(zone.start), "end": float(zone.end),
            "severity": float(zone.severity)}


def _write_events_csv(path: str, log: EventLog) -> None:
    """Write the event log, a block of rows as one join of ``[prefix, time, tail] * rows``:
    the replication's ``"{i},"``, the time and the row tail :func:`_event_tails` decodes.

    A block formats each of its distinct times once, told apart by bit pattern, and
    gathers them back by row: a rotation epoch recurs once per replication.
    """
    n = len(log.time)
    prefixes = np.array([f"{i}," for i in range(int(log.replication[-1]) + 1 if n else 0)],
                        dtype=object)
    tails = _event_tails()
    with open(path, "wb") as fh:
        fh.write(b"replication,time_weeks,kind,unit,slot,unit_out\n")
        for lo in range(0, n, _EVENT_BLOCK):
            rows = slice(lo, lo + _EVENT_BLOCK)
            bits, at = np.unique(log.time[rows].view(np.int64), return_inverse=True)
            times = np.array(_float_reprs(bits.view(float)), dtype=object)[at].tolist()
            parts = [None] * (3 * len(times))
            parts[0::3] = prefixes[log.replication[rows]].tolist()
            parts[1::3] = times
            parts[2::3] = tails[log.kind[rows], log.unit[rows], log.slot[rows],
                                log.unit_out[rows]].tolist()
            fh.write("".join(parts).encode())


def cmd_simulate(run: RunConfig, args) -> int:
    policy, sim = run.policy, run.sim
    dt = _curve_dt(run)
    try:
        zone = assess_red_zone(run.system, threshold=run.red_zone_threshold, dt=dt,
                               baseline_window_fraction=run.baseline_window_fraction).zone
    except (ValidationError, CompositionError) as e:
        if "analysis.curve_dt" in getattr(e, "fields", ()):
            raise  # a grid too coarse for the baseline fails the run, as in scenario
        zone = None  # the timeline or its curve is undefined here; the ensemble is not
    lifetimes = sample_lifetimes(run.system, sim.master_seed, sim.replications)
    out = run_batch(run.system, policy, lifetimes, horizon=sim.horizon,
                    record_events=bool(args.events_out))
    metrics = Metrics.from_batch(out)
    if policy.kind == "type1":
        metrics = apply_vendor_decision_point(metrics, run.vendor_mtbf, run.warn_factor)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(sim.master_seed),
        "policy": policy.kind,
        "replications": int(sim.replications),
        "red_zone": _zone_doc(zone),
        **_metrics_doc(metrics),
    }
    _write_json(args.out, doc)
    if args.events_out:
        _write_events_csv(args.events_out, out.events)
    return 0


def cmd_compare(run: RunConfig, args) -> int:
    sim = run.sim
    if run.policy.rotation_period is None:
        raise ValidationError("compare needs a rotation period for type2",
                              fields=("policy.rotation_period",))
    report = compare_policies(run.system, run.policy.rotation_period, sim,
                              vendor_mtbf=run.vendor_mtbf, warn_factor=run.warn_factor)
    m1, m2 = report.metrics_type1, report.metrics_type2
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(sim.master_seed),
        "replications": int(sim.replications),
        "extension_ratio": float(report.extension_ratio),
        "tdr_1_weeks": None if m1.tdr is None else float(m1.tdr.mean),
        "tdr_2_weeks": None if m2.tdr is None else float(m2.tdr.mean),
        "type1": _metrics_doc(m1),
        "type2": _metrics_doc(m2),
    }
    _write_json(args.out, doc)
    return 0


def cmd_redzone(run: RunConfig, args) -> int:
    dt = _curve_dt(run)
    th3 = run.system.hazard.th3
    if args.deltas is not None:
        try:
            deltas = [float(x) for x in args.deltas.split(",") if x.strip()]
        except ValueError as e:
            raise ValidationError(f"--deltas: {e}") from e
        if not deltas or not all(math.isfinite(d) for d in deltas):
            raise ValidationError(f"--deltas: give one or more finite spreads, got {args.deltas!r}")
    else:
        deltas = [0.1 * th3, 0.5 * th3, 2.0 * th3, 4.0 * th3]
    rows = delta_sweep(run.system, deltas, run.policy, run.sim,
                       threshold=run.red_zone_threshold, dt=dt,
                       baseline_window_fraction=run.baseline_window_fraction)
    _write_table(args.out, {
        "delta_weeks": [repr(float(r.delta)) for r in rows],
        "predicted": [str(int(r.predicted)) for r in rows],
        "detected": [str(int(r.detected)) for r in rows],
        "severity": [repr(float(r.severity)) for r in rows],
        "trdd_mean_weeks": ["" if r.trdd_mean is None else repr(float(r.trdd_mean))
                            for r in rows],
    })
    return 0


# The flags several subcommands take, as (flag, add_argument keywords).
_POLICY = ("--policy", {"choices": ["type1", "type2"]})
_SEED = ("--seed", {"type": int, "help": "master seed override"})
_REPLICATIONS = ("--replications", {"type": int})
_DT = ("--dt", {"type": float, "help": "grid step in weeks (default: analysis.curve_dt)"})
_COMMON = (("--config", {"required": True, "help": "path to the JSON run configuration"}),
           ("--out", {"required": True, "help": "output file path"}))

# Each subcommand: its function, its help line, and its flags after the common pair.
_COMMANDS = {
    "hazard": (cmd_hazard, "emit component hazard curves as CSV", (
        ("--t-max", {"type": float, "help": "grid end in weeks (default: 1.2 * (th1+th2+th3))"}),
        _DT)),
    "scenario": (cmd_scenario, "emit the deterministic timeline and curve", (_POLICY, _DT)),
    "simulate": (cmd_simulate, "run a Monte Carlo ensemble, emit summary JSON", (
        _POLICY, _SEED, _REPLICATIONS,
        ("--events-out", {"help": "also write a per-replication event CSV here"}))),
    "compare": (cmd_compare, "compare both policies from one master seed", (
        _SEED, _REPLICATIONS)),
    "redzone": (cmd_redzone, "sweep the lifetime spread, emit a detection table", (
        _POLICY, _SEED, _REPLICATIONS,
        ("--deltas", {"help": "comma-separated spreads in weeks "
                                "(default: 0.1,0.5,2,4 times th3)"}))),
}


def _add_flags(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for flag, keywords in _COMMON + _COMMANDS[command][2]:
        parser.add_argument(flag, **keywords)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, for ``redzone -h`` and an argv that names none."""
    parser = _Parser(
        prog="redzone",
        description="Reliability analysis of a two-controller system with one shelf spare.",
        epilog="Every config field is optional except schema_version; defaults are "
               "documented in the shipped schema (redzone/schema/run_config.schema.json).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(command, help=help_line), command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named subcommand's parser
    when ``argv`` starts with one: its own ``prog``, flags, errors and help are those
    of the subparser ``build_parser`` makes."""
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    args = _add_flags(_Parser(prog=f"redzone {argv[0]}"), argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    # A config warning reads like an error line: the message, not a line of this package.
    with warnings.catch_warnings():
        show = warnings.showwarning

        def show_warning(message, category, *args, **kwargs):
            if issubclass(category, ValidationWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show(message, category, *args, **kwargs)

        warnings.showwarning = show_warning
        args = None
        try:
            args = _parse(sys.argv[1:] if argv is None else list(argv))
            run = load_config(args.config, _overrides(args))
            return _COMMANDS[args.command][0](run, args)
        except Exception as e:
            sources = _sources(args) if args else {}
            fields = [sources.get(field, field) for field in getattr(e, "fields", ())]
            print(f"error: {e}" + (f" (config: {', '.join(fields)})" if fields else ""),
                  file=sys.stderr)
            return 1 if isinstance(e, (_UsageError, ValidationError, DomainError)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
