"""Command-line interface.

Subcommands: ``hazard`` (component rate curves), ``scenario`` (deterministic
timeline and composed curve), ``simulate`` (Monte Carlo ensemble summary),
``compare`` (both policies from one master seed), ``redzone`` (spread
sweep).  All behavior flows from the flags and the JSON configuration
document; outputs are byte-reproducible for a given config and seed.

Exit codes: 0 success, 1 configuration/validation error, 2 numerical or
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace as dc_replace
from itertools import islice

import numpy as np

from .analysis import apply_vendor_decision_point, assess_red_zone, compare_policies, delta_sweep
from .config import SCHEMA_VERSION, RunConfig, load_config
from .errors import DomainError, ValidationError
from .hazards import bathtub_hazard, software_hazard
from .maintenance import Policy
from .montecarlo import EventLog, Metrics, run_batch
from .system import scenario_timeline

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redzone",
        description="Reliability analysis of a two-controller system with one shelf spare.",
        epilog="Every config field is optional except schema_version; defaults are "
               "documented in the shipped schema (redzone/schema/run_config.schema.json).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", required=True, help="output file path")

    p_hazard = sub.add_parser("hazard", help="emit component hazard curves as CSV")
    add_common(p_hazard)
    p_hazard.add_argument("--t-max", type=float, default=None,
                          help="grid end in weeks (default: 1.2 * (th1+th2+th3))")
    p_hazard.add_argument("--dt", type=float, default=None,
                          help="grid step in weeks (default: analysis.curve_dt)")

    p_scen = sub.add_parser("scenario", help="emit the deterministic timeline and curve")
    add_common(p_scen)
    p_scen.add_argument("--policy", choices=["type1", "type2"], default=None)
    p_scen.add_argument("--dt", type=float, default=None)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo ensemble, emit summary JSON")
    add_common(p_sim)
    p_sim.add_argument("--policy", choices=["type1", "type2"], default=None)
    p_sim.add_argument("--seed", type=int, default=None, help="master seed override")
    p_sim.add_argument("--replications", type=int, default=None)
    p_sim.add_argument("--events-out", default=None,
                       help="also write a per-replication event CSV here")

    p_cmp = sub.add_parser("compare", help="compare both policies from one master seed")
    add_common(p_cmp)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--replications", type=int, default=None)

    p_rz = sub.add_parser("redzone", help="sweep the lifetime spread, emit a detection table")
    add_common(p_rz)
    p_rz.add_argument("--policy", choices=["type1", "type2"], default=None)
    p_rz.add_argument("--seed", type=int, default=None)
    p_rz.add_argument("--replications", type=int, default=None)
    p_rz.add_argument("--deltas", default=None,
                      help="comma-separated spreads in weeks "
                           "(default: 0.1,0.5,2,4 times th3)")
    return parser


def _f(x) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], lines) -> None:
    """Write the header and the data lines, each already joined with commas.

    Lines are written in blocks, so a long table is never held as one string.
    """
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(lines, 65536)):
            fh.write("\n".join(block) + "\n")


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _resolve_policy(run: RunConfig, name: str | None) -> Policy:
    kind = name if name is not None else run.policy.kind
    if kind == "type1":
        return Policy("type1")
    if run.policy.rotation_period is None:
        raise ValidationError("policy.rotation_period: required for type2")
    return Policy("type2", rotation_period=run.policy.rotation_period)


def _resolve_sim(run: RunConfig, args):
    sim = run.sim
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ValidationError("--seed must be >= 0")
        sim = dc_replace(sim, master_seed=args.seed)
    if getattr(args, "replications", None) is not None:
        if args.replications < 1:
            raise ValidationError("--replications must be >= 1")
        sim = dc_replace(sim, replications=args.replications)
    return sim


def _positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(f"{flag} must be a finite number > 0, got {value!r}")
    return value


# The most float64 grid points numpy can hold in one array.
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _grid_step(flag: str, value: float, span: float) -> float:
    """A finite step > 0 whose grid over [0, span] numpy can hold."""
    _positive(flag, value)
    if span / value >= _MAX_GRID_POINTS:
        raise ValidationError(f"{flag} {value!r} gives {span / value:.3g} grid points over "
                              f"[0, {span!r}] weeks, more than an array can hold")
    return value


def cmd_hazard(run: RunConfig, args) -> int:
    hz = run.system.hazard
    t_max = _positive("--t-max", args.t_max if args.t_max is not None
                      else 1.2 * (hz.th1 + hz.th2 + hz.th3))
    dt = _grid_step("--dt", args.dt if args.dt is not None else run.curve_dt, t_max)
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    h_hw = np.asarray(bathtub_hazard(t, hz), dtype=float)
    h_sw = (np.asarray(software_hazard(t, run.system.software), dtype=float)
            if run.system.software is not None else np.zeros_like(t))
    h_op = np.full_like(t, run.system.operator.rate if run.system.operator else 0.0)
    h_sys = h_hw + h_sw + h_op
    columns = (t.tolist(), h_hw.tolist(), h_sw.tolist(), h_op.tolist(), h_sys.tolist())
    _write_csv(args.out, ["t_weeks", "h_hardware", "h_software", "h_operate", "h_system"],
               (f"{a!r},{b!r},{c!r},{d!r},{e!r}" for a, b, c, d, e in zip(*columns)))
    return 0


def _curve_sibling(path: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + "_curve.csv"
    return path + "_curve.csv"


def cmd_scenario(run: RunConfig, args) -> int:
    kind = args.policy if args.policy is not None else run.policy.kind
    if kind != "type1":
        raise ValidationError(f"scenario: policy {kind} is not modelled; the analytic "
                              "timeline covers the replace-on-failure policy (type1) only")
    dt = _grid_step("--dt", args.dt if args.dt is not None else run.curve_dt,
                    scenario_timeline(run.system).t_end)
    assessment = assess_red_zone(run.system, threshold=run.red_zone_threshold, dt=dt,
                                 baseline_window_fraction=run.baseline_window_fraction)
    zone = assessment.zone

    def in_zone(seg) -> bool:
        return zone is not None and seg.t_start < zone.end and seg.t_end > zone.start

    rows = []
    for seg in assessment.timeline.segments:
        rows.append(",".join([
            _f(seg.t_start),
            _f(seg.t_end),
            seg.composition,
            seg.boundary,
            ";".join(au.unit_id for au in seg.units),
            ";".join(au.phase for au in seg.units),
            "1" if in_zone(seg) else "0",
        ]))
    _write_csv(args.out,
               ["t_start_weeks", "t_end_weeks", "composition", "boundary",
                "active_units", "phases", "red_zone"],
               rows)
    curve = assessment.curve
    _write_csv(_curve_sibling(args.out), ["t_weeks", "h_system"],
               (f"{a!r},{b!r}" for a, b in zip(curve.times.tolist(), curve.rates.tolist())))
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
    _write_csv(path, ["replication", "time_weeks", "kind", "unit", "slot", "unit_out"],
               (f"{i},{t!r},{k},{u or ''},{'' if s is None else s},{o or ''}"
                for i, t, k, u, s, o in zip(*log.fields())))


def cmd_simulate(run: RunConfig, args) -> int:
    policy = _resolve_policy(run, args.policy)
    sim = _resolve_sim(run, args)
    out = run_batch(run.system, policy, sim.master_seed, sim.replications,
                    horizon=sim.horizon, record_events=bool(args.events_out))
    metrics = Metrics.from_batch(out)
    if policy.kind == "type1":
        metrics = apply_vendor_decision_point(metrics, run.vendor_mtbf, run.warn_factor)
    assessment = assess_red_zone(run.system, threshold=run.red_zone_threshold,
                                 dt=run.curve_dt,
                                 baseline_window_fraction=run.baseline_window_fraction)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(sim.master_seed),
        "policy": policy.kind,
        "replications": int(sim.replications),
        "red_zone": _zone_doc(assessment.zone),
        **_metrics_doc(metrics),
    }
    _write_json(args.out, doc)
    if args.events_out:
        _write_events_csv(args.events_out, out.events)
    return 0


def cmd_compare(run: RunConfig, args) -> int:
    sim = _resolve_sim(run, args)
    if run.policy.rotation_period is None:
        raise ValidationError("policy.rotation_period: required to compare against type2")
    report = compare_policies(
        run.system,
        Policy("type1"),
        Policy("type2", rotation_period=run.policy.rotation_period),
        sim,
        vendor_mtbf=run.vendor_mtbf,
        warn_factor=run.warn_factor,
    )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": int(sim.master_seed),
        "replications": int(sim.replications),
        "extension_ratio": float(report.extension_ratio),
        "tdr_1_weeks": None if report.tdr_1 is None else float(report.tdr_1),
        "tdr_2_weeks": None if report.tdr_2 is None else float(report.tdr_2),
        "type1": _metrics_doc(report.metrics_type1),
        "type2": _metrics_doc(report.metrics_type2),
    }
    _write_json(args.out, doc)
    return 0


def cmd_redzone(run: RunConfig, args) -> int:
    policy = _resolve_policy(run, args.policy)
    sim = _resolve_sim(run, args)
    th3 = run.system.hazard.th3
    if args.deltas is not None:
        try:
            deltas = [float(x) for x in args.deltas.split(",") if x.strip()]
        except ValueError as e:
            raise ValidationError(f"--deltas: {e}") from e
        if not all(math.isfinite(d) for d in deltas):
            raise ValidationError(f"--deltas: spreads must be finite, got {args.deltas!r}")
    else:
        deltas = [0.1 * th3, 0.5 * th3, 2.0 * th3, 4.0 * th3]
    rows = delta_sweep(run.system, deltas, policy, sim,
                       threshold=run.red_zone_threshold, dt=run.curve_dt)
    out_rows = [",".join([
        _f(r.delta),
        "1" if r.predicted else "0",
        "1" if r.detected else "0",
        _f(r.severity),
        "" if r.trdd_mean is None else _f(r.trdd_mean),
    ]) for r in rows]
    _write_csv(args.out,
               ["delta_weeks", "predicted", "detected", "severity", "trdd_mean_weeks"],
               out_rows)
    return 0


_COMMANDS = {
    "hazard": cmd_hazard,
    "scenario": cmd_scenario,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "redzone": cmd_redzone,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        run = load_config(args.config)
        return _COMMANDS[args.command](run, args)
    except (ValidationError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
