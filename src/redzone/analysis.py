"""Red-zone detection, vendor decision points, and policy comparison studies.

The red zone is the interval of critically elevated system failure rate
that appears when both active units wear out near-simultaneously while the
just-installed spare is still in burn-in.  It is detected on a sampled
hazard curve as the maximal contiguous run of points above ``threshold *
baseline``; the baseline is the useful-phase plateau measured from the flat
part of the curve itself.  Detection is restricted to the end-of-life
window (at or after the mains' wear-out onset): the burn-in hump at
t = 0 is a property of any fresh system, not of the spare interaction
under study.

The sweep study reads the lifetime spread both ways on purpose: each spread
value drives a Monte Carlo ensemble (spread as sampling sd) for the
redundant-lifetime estimate, and a deterministic timeline (spread as the
failure-time gap) for curve-based detection.  The existence rule under test
is spread < th3, strict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ValidationError, ValidationWarning
from .hazards import LifetimeDistribution
from .maintenance import Policy, red_zone_condition
from .montecarlo import Metrics, MetricSummary, SimConfig, _summarize, run_ensemble
from .system import (
    _SPARE_EXHAUSTED,
    HazardCurve,
    ScenarioTimeline,
    SystemConfig,
    scenario_timeline,
    system_hazard_curve,
    system_hazard_curves,
)

__all__ = [
    "RedZone",
    "RedZoneAssessment",
    "ComparisonReport",
    "DeltaSweepPoint",
    "detect_red_zone",
    "baseline_from_curve",
    "peak_ratio",
    "assess_curve",
    "assess_red_zone",
    "lifetime_extension",
    "delta_sweep",
    "compare_policies",
    "apply_vendor_decision_point",
]


@dataclass(frozen=True)
class RedZone:
    """A detected interval of critically elevated system failure rate."""

    start: float
    end: float
    severity: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValidationError("red zone needs start < end")


def detect_red_zone(curve: HazardCurve, baseline: float, threshold: float) -> RedZone | None:
    """Find the elevated interval on a uniformly sampled curve.

    Returns the maximal contiguous run of grid points with rate above
    ``threshold * baseline`` that contains the global maximum (so the
    interval for a higher threshold always nests inside the interval for a
    lower one), or None when no point exceeds.  Severity is the peak rate
    over the baseline.
    """
    if len(curve.times) == 0:
        raise DomainError("detect_red_zone needs a non-empty curve")
    if not baseline > 0.0:
        raise DomainError(f"baseline must be > 0, got {baseline!r}")
    if not threshold > 1.0:
        raise DomainError(f"threshold must be > 1, got {threshold!r}")
    above = curve.rates > threshold * baseline
    if not np.any(above):
        return None
    exceed_idx = np.flatnonzero(above)
    peak = exceed_idx[np.argmax(curve.rates[exceed_idx])]
    # the run ends next to the nearest non-exceeding points on either side
    below = np.flatnonzero(~above)
    k = int(np.searchsorted(below, peak))
    lo = int(below[k - 1]) + 1 if k > 0 else 0
    hi = int(below[k]) - 1 if k < len(below) else len(above) - 1
    severity = float(curve.rates[peak] / baseline)
    start = float(curve.times[lo])
    end = float(curve.times[hi])
    if end <= start:
        # single-point run: widen to one grid step
        step = float(curve.times[1] - curve.times[0]) if len(curve.times) > 1 else 1e-9
        end = start + step
    return RedZone(start=start, end=end, severity=severity)


def baseline_from_curve(curve: HazardCurve, useful_end: float, *,
                        window_fraction: float) -> float:
    """Useful-phase plateau: median rate over the tail of the useful window.

    ``useful_end`` is the calendar time where the mains' wear-out begins;
    the window spans [window_fraction * useful_end, useful_end).
    """
    if not 0.0 < window_fraction < 1.0:
        raise DomainError("window_fraction must lie in (0, 1)")
    mask = (curve.times >= window_fraction * useful_end) & (curve.times < useful_end)
    if not np.any(mask):
        raise DomainError("no curve samples inside the baseline window")
    baseline = float(np.median(curve.rates[mask]))
    if not baseline > 0.0:
        raise DomainError("measured baseline is not positive")
    return baseline


def peak_ratio(curve: HazardCurve, baseline: float, t_start: float, t_end: float) -> float:
    """Peak rate over baseline inside [t_start, t_end]; defined even when
    the peak never crosses a detection threshold.

    A window narrower than the grid step can fall between two grid points;
    it then reads those two points.  A window outside the sampled span is
    rejected.
    """
    lo = int(np.searchsorted(curve.times, t_start, "left"))
    hi = int(np.searchsorted(curve.times, t_end, "right"))
    if lo == hi and 0 < lo < len(curve.times):
        # window between two grid points: widen to them
        lo, hi = lo - 1, hi + 1
    if lo >= hi:
        raise DomainError("no curve samples inside the requested window")
    return float(np.max(curve.rates[lo:hi]) / baseline)


@dataclass(frozen=True)
class RedZoneAssessment:
    """Curve-based red-zone study of one configuration."""

    zone: RedZone | None
    severity: float
    baseline: float
    timeline: ScenarioTimeline

    @property
    def detected(self) -> bool:
        return self.zone is not None


def assess_curve(timeline: ScenarioTimeline, curve: HazardCurve, *, threshold: float,
                 baseline_window_fraction: float) -> RedZoneAssessment:
    """Detect the end-of-life red zone on a curve sampled from ``timeline``.

    The curve must hold the grid points from the start of the baseline
    window, ``baseline_window_fraction * t0``, on: the first point any of
    these reads.  Detection runs on the curve restricted to t >= the mains'
    wear-out onset.  ``severity`` is the peak ratio over the failure window
    (first main failure through the declared end of the spare's burn-in)
    and is reported whether or not it crosses the threshold.
    """
    baseline = baseline_from_curve(curve, timeline.t0, window_fraction=baseline_window_fraction)
    tail = np.searchsorted(curve.times, timeline.t0, "left")
    tail_curve = HazardCurve(times=curve.times[tail:], rates=curve.rates[tail:])
    zone = detect_red_zone(tail_curve, baseline, threshold)
    severity = peak_ratio(curve, baseline, timeline.tf1, max(timeline.t2, timeline.tf2))
    return RedZoneAssessment(zone=zone, severity=severity, baseline=baseline,
                             timeline=timeline)


def assess_red_zone(config: SystemConfig, *, threshold: float, dt: float,
                    baseline_window_fraction: float) -> RedZoneAssessment:
    """Build the deterministic timeline, sample its curve and assess it.

    The curve is sampled only from the start of the baseline window, the
    first point :func:`assess_curve` reads.
    """
    timeline = scenario_timeline(config)
    curve = system_hazard_curve(timeline, dt=dt,
                                start=baseline_window_fraction * timeline.t0)
    return assess_curve(timeline, curve, threshold=threshold,
                        baseline_window_fraction=baseline_window_fraction)


def lifetime_extension(trdd_1: float, trdd_2: float) -> float:
    """Relative gain of the rotation policy: (trdd_2 - trdd_1) / trdd_1."""
    if not trdd_1 > 0.0:
        raise DomainError(f"trdd_1 must be > 0, got {trdd_1!r}")
    return (trdd_2 - trdd_1) / trdd_1


@dataclass(frozen=True)
class DeltaSweepPoint:
    """One row of a spread sweep."""

    delta: float
    predicted: bool
    detected: bool
    severity: float
    trdd_mean: float | None


def delta_sweep(config: SystemConfig, deltas, policy: Policy, sim: SimConfig, *,
                threshold: float, dt: float,
                baseline_window_fraction: float) -> list[DeltaSweepPoint]:
    """Sweep the lifetime spread and test the existence rule spread < th3.

    Each row pairs the ensemble estimate of the redundant lifetime (spread
    as sampling sd) with curve-based detection (spread as the deterministic
    failure gap) and the rule's prediction.  Every spread's timeline is
    built before any curve is sampled or ensemble run, so a spread the
    timeline rejects fails the sweep at once, its error naming the spread
    in place of ``lifetime.sd`` and advising a smaller spread; a check no
    spread moves is raised as the timeline raised it.  The curves come from one
    :func:`system_hazard_curves` call, which samples the segments the
    spreads share once, and each is assessed by :func:`assess_curve`; the
    rows equal per-spread :func:`assess_red_zone` results bit for bit.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0.0 for d in deltas):
        raise DomainError("all sweep spreads must be > 0")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("sweep spreads must be sorted, strictly increasing")
    # the caller's config has already warned about itself; the copies would repeat it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        configs = [replace(config, unit_lifetime=LifetimeDistribution(config.unit_lifetime.mean, d))
                   for d in deltas]
    timelines = []
    for d, cfg in zip(deltas, configs):
        try:
            timelines.append(scenario_timeline(cfg))
        except ValidationError as e:
            if "lifetime.sd" not in e.fields:
                raise  # no spread moves this check
            # the swept spread stands in for the config's lifetime sd, in the fields and the advice
            fields = tuple(f for f in e.fields if f != "lifetime.sd")
            raise ValidationError(f"spread {d!r}: {_SPARE_EXHAUSTED}; use a smaller spread "
                                  "or raise the mean lifetime", fields=fields) from None
    if not timelines:
        return []
    # Every spread shares t0, so one baseline window start serves all curves.
    # All spreads are assessed before any ensemble runs, so the samples the
    # curves share are freed before the ensembles allocate.
    start = baseline_window_fraction * timelines[0].t0
    assessments = [assess_curve(timeline, curve, threshold=threshold,
                                baseline_window_fraction=baseline_window_fraction)
                   for timeline, curve in zip(timelines,
                                              system_hazard_curves(timelines, dt=dt, start=start))]
    rows: list[DeltaSweepPoint] = []
    for d, cfg, assessment in zip(deltas, configs, assessments):
        metrics = run_ensemble(cfg, policy, sim)
        rows.append(DeltaSweepPoint(
            delta=d,
            predicted=red_zone_condition(d, config.hazard.th3),
            detected=assessment.detected,
            severity=assessment.severity,
            trdd_mean=None if metrics.trdd is None else metrics.trdd.mean,
        ))
    return rows


@dataclass(frozen=True)
class ComparisonReport:
    """Replace-on-failure vs periodic rotation, from one master seed."""

    metrics_type1: Metrics
    metrics_type2: Metrics
    extension_ratio: float


def apply_vendor_decision_point(metrics: Metrics, vendor_mtbf: float | None,
                                warn_factor: float) -> Metrics:
    """Type1 metrics with the vendor-statistics decision point attached.

    The replace-on-failure trace never reveals a decision point, so the
    operator estimates it as ``warn_factor * vendor_mtbf``; the factor is
    configuration, not truth.  The margin is the total lifetime minus that
    constant, per replication.  Returns a copy; without a vendor MTBF, or
    without any uncensored replication, the metrics themselves.
    """
    if vendor_mtbf is None or metrics.tdt is None:
        return metrics
    if not vendor_mtbf > 0.0:
        raise DomainError(f"vendor_mtbf must be > 0, got {vendor_mtbf!r}")
    if not warn_factor > 0.0:
        raise DomainError(f"warn_factor must be > 0, got {warn_factor!r}")
    dp = float(warn_factor * vendor_mtbf)
    dp_values = np.full(len(metrics.tdt_values), dp)
    tdr_values = metrics.tdt_values - dp
    return replace(metrics,
                   dp=MetricSummary(mean=dp, std=0.0, ci_low=dp, ci_high=dp, n=len(dp_values)),
                   tdr=_summarize(tdr_values), dp_values=dp_values, tdr_values=tdr_values)


def compare_policies(config: SystemConfig, policy1: Policy, policy2: Policy,
                     sim: SimConfig, *, vendor_mtbf: float | None = None,
                     warn_factor: float) -> ComparisonReport:
    """Run both policies from the same master seed and compare lifetimes.

    The extension ratio uses the ensemble means of the redundant lifetime.
    When a vendor MTBF is configured, the type1 decision point and margin
    are derived from it.
    """
    m1 = run_ensemble(config, policy1, sim)
    m2 = run_ensemble(config, policy2, sim)
    m1 = apply_vendor_decision_point(m1, vendor_mtbf, warn_factor)
    if m1.trdd is None or m2.trdd is None:
        raise DomainError("policy comparison needs defined redundant lifetimes on both sides")
    return ComparisonReport(metrics_type1=m1, metrics_type2=m2,
                            extension_ratio=lifetime_extension(m1.trdd.mean, m2.trdd.mean))
