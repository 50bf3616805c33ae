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

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ValidationError
from .hazards import LifetimeDistribution
from .maintenance import Policy, red_zone_condition
from .montecarlo import Metrics, MetricSummary, SimConfig, _summarize, run_ensemble
from .system import HazardCurve, ScenarioTimeline, SystemConfig, scenario_timeline, system_hazard_curve

__all__ = [
    "RedZone",
    "RedZoneAssessment",
    "ComparisonReport",
    "DeltaSweepPoint",
    "detect_red_zone",
    "baseline_from_curve",
    "peak_ratio",
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
    lo = peak
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = peak
    while hi + 1 < len(above) and above[hi + 1]:
        hi += 1
    severity = float(curve.rates[peak] / baseline)
    start = float(curve.times[lo])
    end = float(curve.times[hi])
    if end <= start:
        # single-point run: widen to one grid step
        step = float(curve.times[1] - curve.times[0]) if len(curve.times) > 1 else 1e-9
        end = start + step
    return RedZone(start=start, end=end, severity=severity)


def baseline_from_curve(curve: HazardCurve, useful_end: float,
                        window_fraction: float = 0.8) -> float:
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
    the peak never crosses a detection threshold."""
    mask = (curve.times >= t_start) & (curve.times <= t_end)
    if not np.any(mask):
        raise DomainError("no curve samples inside the requested window")
    return float(np.max(curve.rates[mask]) / baseline)


@dataclass(frozen=True)
class RedZoneAssessment:
    """Curve-based red-zone study of one configuration."""

    zone: RedZone | None
    severity: float
    baseline: float
    curve: HazardCurve
    timeline: ScenarioTimeline

    @property
    def detected(self) -> bool:
        return self.zone is not None


def assess_red_zone(config: SystemConfig, *, threshold: float = 2.0, dt: float = 0.1,
                    stagger: float | None = None,
                    baseline_window_fraction: float = 0.8) -> RedZoneAssessment:
    """Build the deterministic timeline and detect the end-of-life red zone.

    Detection runs on the curve restricted to t >= the mains' wear-out
    onset.  ``severity`` is the peak ratio over the failure window (first
    main failure through the declared end of the spare's burn-in) and is
    reported whether or not it crosses the threshold.
    """
    timeline = scenario_timeline(config, stagger=stagger)
    curve = system_hazard_curve(timeline, dt=dt)
    baseline = baseline_from_curve(curve, timeline.t0, baseline_window_fraction)
    tail = curve.times >= timeline.t0
    tail_curve = HazardCurve(times=curve.times[tail], rates=curve.rates[tail])
    zone = detect_red_zone(tail_curve, baseline, threshold)
    severity = peak_ratio(curve, baseline, timeline.tf1, max(timeline.t2, timeline.tf2))
    return RedZoneAssessment(zone=zone, severity=severity, baseline=baseline,
                             curve=curve, timeline=timeline)


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
                threshold: float = 2.0, dt: float = 0.1) -> list[DeltaSweepPoint]:
    """Sweep the lifetime spread and test the existence rule spread < th3.

    Each row pairs the ensemble estimate of the redundant lifetime (spread
    as sampling sd) with curve-based detection (spread as the deterministic
    failure gap) and the rule's prediction.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0.0 for d in deltas):
        raise DomainError("all sweep spreads must be > 0")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("sweep spreads must be sorted, strictly increasing")
    rows: list[DeltaSweepPoint] = []
    for d in deltas:
        cfg = replace(config, unit_lifetime=LifetimeDistribution(config.unit_lifetime.mean, d))
        assessment = assess_red_zone(cfg, threshold=threshold, dt=dt, stagger=d)
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
    tdr_1: float | None
    tdr_2: float | None


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
                     warn_factor: float = 0.8) -> ComparisonReport:
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
    ratio = lifetime_extension(m1.trdd.mean, m2.trdd.mean)
    return ComparisonReport(
        metrics_type1=m1,
        metrics_type2=m2,
        extension_ratio=ratio,
        tdr_1=None if m1.tdr is None else m1.tdr.mean,
        tdr_2=None if m2.tdr is None else m2.tdr.mean,
    )
