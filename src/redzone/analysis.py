"""Red-zone detection, vendor decision points, and policy comparison studies.

The red zone is the interval of critically elevated system failure rate
that appears when both active units wear out near-simultaneously while the
just-installed spare is still in burn-in.  It is read on a sampled hazard
curve from one peak, the highest point of the failure window (first main
failure through T2, the declared end of the spare's burn-in, which is never
before the second main failure): that peak over the useful-phase baseline,
measured from the flat part of the curve itself, is the severity, and when
it exceeds ``threshold * baseline`` the zone is the maximal contiguous run
of points above that value around it.  The burn-in hump at t = 0, a
property of any fresh system, and the spare's own wear-out at its death lie
outside the window.  The zone's existence condition is read from the same model: at
Tf2 the spare comes to stand alone, and there the zone peaks, so a zone
exists when the composed rate at Tf2 exceeds ``threshold * baseline``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .maintenance import Policy
from .montecarlo import (Metrics, MetricSummary, SimConfig, _defined, _derive_seeds, _summarize,
                         _uniforms, run_batch, sample_lifetimes)
from .system import (
    HazardCurve,
    ScenarioTimeline,
    SystemConfig,
    _segment_rate,
    scenario_timeline,
    scenario_timelines,
    system_hazard_curve,
    system_hazard_curves,
)
from .value import Value

__all__ = [
    "RedZone",
    "RedZoneAssessment",
    "ComparisonReport",
    "DeltaSweepPoint",
    "detect_red_zone",
    "baseline_from_curve",
    "assess_curve",
    "assess_red_zone",
    "lifetime_extension",
    "delta_sweep",
    "compare_policies",
    "apply_vendor_decision_point",
]


class RedZone(Value):
    """A detected interval of critically elevated system failure rate."""

    __slots__ = ("start", "end")

    def __init__(self, start: float, end: float):
        self._set(start=start, end=end)
        if not self.start < self.end:
            raise ValidationError("red zone needs start < end")


class RedZoneAssessment(NamedTuple):
    """Curve-based red-zone study of one configuration: the zone, if any, and the
    severity of the peak it is read around."""

    zone: RedZone | None
    severity: float
    baseline: float

    @property
    def detected(self) -> bool:
        return self.zone is not None


def detect_red_zone(curve: HazardCurve, baseline: float, threshold: float,
                    t_start: float, t_end: float) -> RedZoneAssessment:
    """Read the zone and its severity from one peak of a uniformly sampled curve.

    The window holds the grid points from the first at or after ``t_start``
    through the first at or after ``t_end``, so a jump at the window's end is
    read on the next point.  ``severity`` is the window's peak rate (a NaN is
    never the peak) over ``baseline``, reported whether or not it crosses the
    threshold.  A zone exists when the peak exceeds ``threshold * baseline``:
    the maximal contiguous run of the curve's points above that value that
    contains the peak (so the zone for a higher threshold nests inside the
    zone for a lower one), widened to one grid step when it is one point.
    """
    peak, severity, exceeds = _read_peak(curve, baseline, threshold, t_start, t_end)
    if not exceeds:
        return RedZoneAssessment(zone=None, severity=severity, baseline=baseline)
    above = curve.rates > threshold * baseline
    # the run ends next to the nearest non-exceeding point on either side: argmin
    # finds the first False scanning out from the peak, or 0 when there is none
    k = int(np.argmin(above[peak:]))
    hi = peak + k - 1 if k else len(above) - 1
    k = int(np.argmin(above[peak::-1]))
    lo = peak - k + 1 if k else 0
    grid = curve.grid
    start, end = grid.time(lo), grid.time(hi)
    if end <= start:  # a grid has its step even at one point
        end = start + (grid.time(1) - grid.time(0))
    return RedZoneAssessment(zone=RedZone(start=start, end=end), severity=severity,
                             baseline=baseline)


def _read_peak(curve: HazardCurve, baseline: float, threshold: float,
               t_start: float, t_end: float) -> tuple[int, float, bool]:
    """The window's peak, as :func:`detect_red_zone` reads it: its index, its rate over
    ``baseline``, and whether that rate exceeds ``threshold * baseline``."""
    if not baseline > 0.0:
        raise ValidationError(f"baseline must be > 0, got {baseline!r}")
    if not threshold > 1.0:
        raise ValidationError(f"threshold must be > 1, got {threshold!r}")
    lo, hi = map(curve.grid.index, (t_start, t_end))
    window = curve.rates[lo:hi + 1]
    if len(window) == 0:
        raise ValidationError("no curve samples inside the requested window")
    # the first maximum; a NaN is never the peak
    peak = lo + int(np.argmax(np.where(np.isnan(window), -np.inf, window)))
    rate = curve.rates[peak]
    return peak, float(rate / baseline), bool(rate > threshold * baseline)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit.

    It partitions at the middle index or indexes and at the last, where a NaN
    sorts, and takes the mean of the middle as ``np.median`` does; a NaN is
    returned as found.  ``np.median``'s own NaN check imports ``numpy.ma``,
    10 ms of start-up that no command needs otherwise.
    """
    n = values.size
    middle = slice((n - 1) // 2, n // 2 + 1)
    part = np.partition(values, [*range(n)[middle], -1])
    return float(part[-1] if np.isnan(part[-1]) else np.mean(part[middle]))


def baseline_from_curve(curve: HazardCurve, useful_end: float, *,
                        window_fraction: float) -> float:
    """Useful-phase plateau: median rate over the tail of the useful window.

    ``useful_end`` is the calendar time where the mains' wear-out begins;
    the window spans [window_fraction * useful_end, useful_end).  The median
    is :func:`_median`'s, equal to ``np.median``'s without its import of
    ``numpy.ma``; a NaN in the window makes it NaN, which is not positive.
    """
    if not 0.0 < window_fraction < 1.0:
        raise ValidationError("window_fraction must lie in (0, 1)")
    window = (window_fraction * useful_end, useful_end)
    lo, hi = map(curve.grid.index, window)
    if lo >= hi:
        raise ValidationError(f"grid step {curve.grid.dt!r} puts no curve sample inside the "
                              f"baseline window [{window[0]!r}, {window[1]!r}) weeks; lower the "
                              "step", fields=("analysis.curve_dt",))
    baseline = _median(curve.rates[lo:hi])
    if not baseline > 0.0:
        raise ValidationError("measured baseline is not positive")
    return baseline


def assess_curve(timeline: ScenarioTimeline, curve: HazardCurve, *, threshold: float,
                 baseline_window_fraction: float) -> RedZoneAssessment:
    """Detect the end-of-life red zone on a curve sampled from ``timeline``.

    The curve must hold the grid points from the start of the baseline
    window, ``baseline_window_fraction * t0``, on: the first point any of
    these reads.  Detection reads the failure window on the curve restricted
    to t >= the mains' wear-out onset.
    """
    baseline = baseline_from_curve(curve, timeline.t0, window_fraction=baseline_window_fraction)
    tail = curve.grid.index(timeline.t0)
    tail_curve = HazardCurve(grid=curve.grid[tail:], rates=curve.rates[tail:])
    return detect_red_zone(tail_curve, baseline, threshold, *_failure_window(timeline))


def _failure_window(timeline: ScenarioTimeline) -> tuple[float, float]:
    """Where the zone is read: first main failure through the declared end of the
    spare's burn-in, T2, which the timeline sets at or after the second failure."""
    return timeline.tf1, timeline.t2


def assess_red_zone(config: SystemConfig, *, threshold: float, dt: float,
                    baseline_window_fraction: float) -> RedZoneAssessment:
    """Build the deterministic timeline, sample its curve to its end of life and assess it."""
    timeline = scenario_timeline(config)
    curve = system_hazard_curve(timeline, dt=dt, start=baseline_window_fraction * timeline.t0)
    return assess_curve(timeline, curve, threshold=threshold,
                        baseline_window_fraction=baseline_window_fraction)


def lifetime_extension(trdd_1: float, trdd_2: float) -> float:
    """Relative gain of the rotation policy: (trdd_2 - trdd_1) / trdd_1."""
    if not trdd_1 > 0.0:
        raise ValidationError(f"trdd_1 must be > 0, got {trdd_1!r}",
                              fields=("lifetime.mean", "lifetime.sd"))
    return (trdd_2 - trdd_1) / trdd_1


class DeltaSweepPoint(NamedTuple):
    """One row of a spread sweep.

    ``predicted`` is the zone's existence condition, the composed rate at Tf2
    above ``threshold * baseline``; ``detected`` reads the sampled curve, whose
    first point after Tf2 can already fall below the threshold.  A row holds
    no zone extent, so its curve ends where its failure window does.
    """

    delta: float
    predicted: bool
    detected: bool
    severity: float
    trdd_mean: float | None


def delta_sweep(config: SystemConfig, deltas, policy: Policy, sim: SimConfig, *,
                threshold: float, dt: float,
                baseline_window_fraction: float) -> list[DeltaSweepPoint]:
    """Sweep the lifetime spread and test the red zone's existence condition.

    Each row pairs the ensemble estimate of the redundant lifetime (spread
    as sampling sd) with curve-based detection (spread as the deterministic
    failure gap) and the condition's prediction, read from the same model at
    Tf2, where the spare comes to stand alone.  The timelines come from one
    engine call, before any curve or ensemble, so a spread the timeline
    rejects fails the sweep at once, its error naming the spread.  One
    :func:`system_hazard_curves` call samples only what the rows read: the
    first timeline from its baseline window's start through Tf1, and each
    spread over its failure window, Tf1 through T2 >= Tf2.  The baseline is
    measured once, as every spread's window lies before T0 <= Tf1 = mean, in
    the mains' segment from epoch 0, which every spread shares.  Every pair
    point of the full curves from that window on is sampled (the mains'
    through Tf1, each spread's pair by Tf2), so a :class:`CompositionError`
    is raised as on the full curve.  The ensembles are one
    :func:`run_batch` call on one draw of uniforms, which each spread's
    lifetime model samples; spreads share lab credit, shelf aging and
    horizon, and the engine's rows are independent, so the rows equal
    per-spread :func:`assess_red_zone` and ``run_ensemble`` bit for bit.
    """
    deltas = [float(d) for d in deltas]
    if not (all(0.0 < d < np.inf for d in deltas)
            and all(a < b for a, b in zip(deltas, deltas[1:]))):
        raise ValidationError(f"sweep spreads must be finite, > 0 and strictly increasing, "
                              f"got {deltas!r}", fields=("lifetime.sd",))
    timelines = scenario_timelines(config, deltas)
    if not timelines:
        return []
    # The spreads are read before any ensemble runs, so the samples the curves
    # share are freed before the ensembles allocate.
    windows = [_failure_window(tl) for tl in timelines]
    t0, tf1 = timelines[0].t0, timelines[0].tf1
    curves = system_hazard_curves([timelines[0], *timelines],
                                  [(baseline_window_fraction * t0, tf1), *windows], dt=dt)
    baseline = baseline_from_curve(next(curves), t0, window_fraction=baseline_window_fraction)
    reads = [_read_peak(curve, baseline, threshold, *window)[1:]
             for window, curve in zip(windows, curves)]
    u = _uniforms(_derive_seeds(sim.master_seed, sim.replications), 3)
    lives = np.concatenate([timeline.config.unit_lifetime.sample(u) for timeline in timelines])
    trdd = run_batch(config, policy, lives, horizon=sim.horizon).trdd
    rows: list[DeltaSweepPoint] = []
    n = sim.replications
    for i, (d, tl, (severity, detected)) in enumerate(zip(deltas, timelines, reads)):
        defined = _defined(trdd[i * n:(i + 1) * n])
        # a segment always opens at Tf2, as the spare's life outlasts it
        alone = next(seg for seg in tl.segments if seg.t_start == tl.tf2)
        rows.append(DeltaSweepPoint(
            delta=d,
            predicted=_segment_rate(tl.tf2, alone, tl.config) > threshold * baseline,
            detected=detected,
            severity=severity,
            trdd_mean=float(np.mean(defined)) if len(defined) else None,
        ))
    return rows


class ComparisonReport(NamedTuple):
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
        raise ValidationError(f"vendor_mtbf must be > 0, got {vendor_mtbf!r}")
    if not warn_factor > 0.0:
        raise ValidationError(f"warn_factor must be > 0, got {warn_factor!r}")
    dp = float(warn_factor * vendor_mtbf)
    return metrics._replace(dp=MetricSummary(mean=dp, std=0.0, ci_low=dp, ci_high=dp),
                            tdr=_summarize(metrics.tdt_values - dp))


def compare_policies(config: SystemConfig, rotation_period: float, sim: SimConfig, *,
                     vendor_mtbf: float | None = None, warn_factor: float) -> ComparisonReport:
    """Run replace on failure (type1) and rotation every ``rotation_period``
    weeks (type2) on one draw of the master seed's lifetimes and compare them.

    The extension ratio uses the ensemble means of the redundant lifetime.
    When a vendor MTBF is configured, the type1 decision point and margin
    are derived from it.  A bad period is rejected before any ensemble runs.
    """
    rotation = Policy("type2", rotation_period=rotation_period)
    lifetimes = sample_lifetimes(config, sim.master_seed, sim.replications)
    m1, m2 = (Metrics.from_batch(run_batch(config, policy, lifetimes, horizon=sim.horizon))
              for policy in (Policy("type1", rotation_period=None), rotation))
    m1 = apply_vendor_decision_point(m1, vendor_mtbf, warn_factor)
    if m1.trdd is None or m2.trdd is None:
        raise ValidationError("policy comparison needs defined redundant lifetimes on both sides",
                              fields=("sim.horizon", "lifetime.mean"))
    return ComparisonReport(metrics_type1=m1, metrics_type2=m2,
                            extension_ratio=lifetime_extension(m1.trdd.mean, m2.trdd.mean))
