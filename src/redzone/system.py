"""System configuration, redundancy composition, and scenario timelines.

The reference architecture is two active controller units plus one shelf
spare.  The shelf aging factor weights shelf time in a unit's consumed
life (see :mod:`redzone.montecarlo`); it defaults to 0 (ideal cold storage).

Redundancy is composed exactly: for the two active units with rates ``h_i``
and cumulative hazards ``H_i`` measured from a common conditioning epoch,
the 1-out-of-2 system rate is

    (f1 * F2 + f2 * F1)   /   (1 - F1 * F2)

with ``R_i = exp(-H_i)``, ``F_i = 1 - R_i`` and ``f_i = h_i * R_i``.  The
curve generator conditions every segment on the units known alive at the
last state-change event (failure or installation): this is the observed
state of the maintained system.  Conditioning from birth instead would make
the composed rate jump to roughly the survivor's own rate immediately after
any first failure regardless of the lifetime spread, which erases the very
effect the timeline exists to exhibit.

Two readings of the lifetime spread are supported deliberately: the Monte
Carlo engine treats it as the standard deviation of sampled lifetimes, and
the deterministic timeline treats it as the explicit gap between the two
main-unit failure times.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import CompositionError, DomainError, ValidationError, ValidationWarning
from .hazards import (
    BathtubModel,
    LifetimeDistribution,
    OperatorHazard,
    SoftwareHazardModel,
    bathtub_cumulative,
    bathtub_hazard,
    software_cumulative,
    software_hazard,
)

# The cause of the one timeline error a smaller lifetime spread avoids.
_SPARE_EXHAUSTED = "spare exhausts before the second main failure"

__all__ = [
    "SystemConfig",
    "ActiveUnit",
    "ScenarioSegment",
    "ScenarioTimeline",
    "HazardCurve",
    "compose_parallel",
    "end_of_life",
    "scenario_timeline",
    "system_hazard_curve",
    "system_hazard_curves",
]


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one system under study.

    ``unit_lifetime`` is any model with a ``mean`` and a ``sample(u)`` that
    maps an array of uniforms to lifetimes in weeks, as
    ``LifetimeDistribution`` does.  ``lab_burnin`` is the burn-in credit
    (weeks) given to the provisioned shelf spare; practical lab runs are one
    or two weeks, far shorter than a typical burn-in phase, so a warning is
    emitted when it exceeds ``th1``.
    """

    hazard: BathtubModel
    unit_lifetime: LifetimeDistribution
    shelf_aging_factor: float = 0.0
    lab_burnin: float = 2.0
    software: SoftwareHazardModel | None = None
    operator: OperatorHazard | None = None

    def __post_init__(self):
        if not 0.0 <= self.shelf_aging_factor <= 1.0:
            raise ValidationError(
                f"shelf_aging_factor must lie in [0, 1], got {self.shelf_aging_factor!r}")
        if not 0.0 <= self.lab_burnin < math.inf:
            raise ValidationError(f"lab_burnin must be finite and >= 0, got {self.lab_burnin!r}")
        if self.lab_burnin > self.hazard.th1:
            warnings.warn(
                f"lab_burnin ({self.lab_burnin}) exceeds the declared burn-in "
                f"duration th1 ({self.hazard.th1})",
                ValidationWarning,
                stacklevel=3,  # past the dataclass-generated __init__ to its caller
            )


def compose_parallel(hazards, cumulative_hazards):
    """Exact 1-out-of-k active-parallel composition for k = 1 or 2.

    Arguments are sequences of per-unit values (floats or equally shaped
    arrays): instantaneous rates ``h_i`` and cumulative hazards ``H_i``
    measured from the shared conditioning epoch.  ``k = 1`` returns the
    single rate unchanged.  Raises :class:`CompositionError` when the
    composition is undefined because every unit is certainly failed.
    """
    if len(hazards) != len(cumulative_hazards):
        raise DomainError("hazards and cumulative_hazards must have equal length")
    k = len(hazards)
    if not 1 <= k <= 2:
        raise DomainError(f"compose_parallel takes one or two units, got {k}")
    if k == 1:
        return hazards[0]
    h1, h2 = (np.asarray(x, dtype=float) for x in hazards)
    H1, H2 = (np.asarray(x, dtype=float) for x in cumulative_hazards)
    scalar = h1.ndim == 0 and h2.ndim == 0
    F1, F2 = -np.expm1(-H1), -np.expm1(-H2)
    f1, f2 = h1 * np.exp(-H1), h2 * np.exp(-H2)
    num = f1 * F2 + f2 * F1
    den = 1.0 - F1 * F2
    if np.any(den <= 0.0):
        raise CompositionError("all units certainly failed; composed rate undefined")
    out = num / den
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Deterministic scenario timeline
# ---------------------------------------------------------------------------

PHASE_USEFUL = "useful"
PHASE_WEAROUT = "wearout"
PHASE_BURNIN = "burnin"


@dataclass(frozen=True)
class ActiveUnit:
    """One unit active within a segment; its age at time t is ``t - birth``."""

    unit_id: str
    phase: str
    birth: float


@dataclass(frozen=True)
class ScenarioSegment:
    """Half-open interval [t_start, t_end) with a fixed set of active units.

    ``epoch`` is the calendar time of the last failure/installation event at
    or before ``t_start``; composed hazards within the segment condition on
    all listed units being alive at the epoch.  ``boundary`` names the
    timeline landmark that opens the segment.
    """

    t_start: float
    t_end: float
    units: tuple[ActiveUnit, ...]
    epoch: float
    boundary: str

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError("segment needs t_start < t_end")

    @property
    def composition(self) -> str:
        """``single`` for one active unit, else ``parallel``."""
        return "single" if len(self.units) == 1 else "parallel"


@dataclass(frozen=True)
class ScenarioTimeline:
    """Deterministic replace-on-failure life of the two-main + spare system."""

    config: SystemConfig
    segments: tuple[ScenarioSegment, ...]
    t0: float
    tf1: float
    tf2: float
    t2: float
    t_end: float


def end_of_life(config: SystemConfig) -> float:
    """When the spare, installed at the first main failure, exhausts its life.

    Installed at the mean lifetime with its lab credit already consumed,
    it fails at ``mean + (mean - lab)``: the end of every scenario curve.
    """
    mean = config.unit_lifetime.mean
    return mean + (mean - config.lab_burnin)


def scenario_timeline(config: SystemConfig) -> ScenarioTimeline:
    """Deterministic event sequence for the replace-on-failure policy.

    The two mains are commissioned fresh at t = 0; the first fails at the
    mean lifetime and the second the lifetime sd later (the spread read as
    an explicit gap).  The spare carries its lab burn-in credit and is
    installed at the first failure.  Boundaries:

        T0  = th1 + th2                wear-out onset of the mains
        Tf1 = mean                     first main failure, spare installed
        Tf2 = mean + sd                second main failure
        T2  = Tf2 + (th1 - lab)        declared end of the spare's burn-in

    Segment labels follow the declared phase windows; hazard values along
    the curve always use true unit ages.
    """
    hz = config.hazard
    mean = config.unit_lifetime.mean
    lab = config.lab_burnin
    t0 = hz.wearout_onset
    if mean < t0:
        raise ValidationError(
            f"mean lifetime ({mean}) lies before the wear-out onset ({t0}); "
            "the end-of-life scenario is undefined",
            fields=("lifetime.mean", "hazard.th1 + hazard.th2"))
    tf1 = mean
    tf2 = mean + config.unit_lifetime.sd
    t2 = tf2 + max(hz.th1 - lab, 0.0)
    t_end = end_of_life(config)
    if t_end <= tf2:
        raise ValidationError(f"{_SPARE_EXHAUSTED}; lower the lifetime sd or raise the "
                              "mean lifetime",
                              fields=("lifetime.sd", "lifetime.mean", "system.lab_burnin"))

    main1 = ActiveUnit("controller_1", PHASE_USEFUL, birth=0.0)
    main2 = ActiveUnit("controller_2", PHASE_USEFUL, birth=0.0)
    spare_birth = tf1 - lab
    spare = ActiveUnit("controller_3", PHASE_BURNIN, birth=spare_birth)

    segs: list[ScenarioSegment] = []

    def add(t_start, t_end_, units, epoch, boundary):
        if t_start < t_end_:
            segs.append(ScenarioSegment(t_start, t_end_, tuple(units), epoch, boundary))

    add(0.0, min(t0, tf1), (main1, main2), 0.0, "start")
    add(t0, tf1, (replace(main1, phase=PHASE_WEAROUT), replace(main2, phase=PHASE_WEAROUT)),
        0.0, "T0")
    add(tf1, tf2, (replace(main2, phase=PHASE_WEAROUT), spare), tf1, "Tf1")
    # Declared spare burn-in window; with a large sd the spare has already
    # matured and the label is schematic (values use true ages).
    add(tf2, min(t2, t_end), (spare,), tf2, "Tf2")
    spare_onset = spare_birth + hz.wearout_onset
    if spare_onset <= max(t2, tf2):
        add(max(t2, tf2), t_end, (replace(spare, phase=PHASE_WEAROUT),), tf2, "T2")
    else:
        add(max(t2, tf2), min(spare_onset, t_end), (replace(spare, phase=PHASE_USEFUL),),
            tf2, "T2")
        add(min(spare_onset, t_end), t_end, (replace(spare, phase=PHASE_WEAROUT),),
            tf2, "spare_wearout")

    return ScenarioTimeline(config=config, segments=tuple(segs),
                            t0=t0, tf1=tf1, tf2=tf2, t2=t2, t_end=t_end)


@dataclass(frozen=True, eq=False)
class HazardCurve:
    """A hazard curve sampled on a uniform grid."""

    times: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.rates):
            raise ValidationError("times and rates must have equal length")


def _unit_rate(times: np.ndarray, au: ActiveUnit, config: SystemConfig) -> np.ndarray:
    # Hardware runs on the unit's age clock, software on the calendar clock.
    ages = times - au.birth
    h = np.asarray(bathtub_hazard(ages, config.hazard), dtype=float)
    if config.software is not None:
        h = h + software_hazard(times, config.software)
    if config.operator is not None:
        h = h + config.operator.rate
    return h


def _unit_cumulative_at(t, au: ActiveUnit, config: SystemConfig):
    age = np.asarray(t, dtype=float) - au.birth
    total = np.asarray(bathtub_cumulative(age, config.hazard), dtype=float)
    if config.software is not None:
        total = total + software_cumulative(np.asarray(t, dtype=float), config.software)
    if config.operator is not None:
        total = total + config.operator.rate * np.asarray(t, dtype=float)
    return total


def _segment_key(seg: ScenarioSegment, config: SystemConfig):
    """Everything a segment's sampled values depend on besides the grid.

    That is the unit terms ``_unit_rate`` and ``_unit_cumulative_at`` read,
    the active units' births and, for a pair, the conditioning epoch; the
    phase labels and the segment's extent do not enter the values.
    """
    epoch = seg.epoch if len(seg.units) > 1 else None
    return (config.hazard, config.software, config.operator,
            tuple(au.birth for au in seg.units), epoch)


def _segment_rates(tt: np.ndarray, seg: ScenarioSegment, config: SystemConfig) -> np.ndarray:
    """The composed rate of ``seg``'s active units at the times ``tt``."""
    rates = [_unit_rate(tt, au, config) for au in seg.units]
    if len(seg.units) == 1:
        return rates[0]
    cums = [
        _unit_cumulative_at(tt, au, config) - _unit_cumulative_at(seg.epoch, au, config)
        for au in seg.units
    ]
    return compose_parallel(rates, cums)


def system_hazard_curves(timelines, *, dt: float,
                         start: float = 0.0) -> Iterator[HazardCurve]:
    """Sample the composed system rate of each timeline on ``arange(0, t_end, dt)``.

    Only the grid points at or after ``start`` are sampled, and they hold
    the same values as the ``times >= start`` tail of the full curve.
    Within each segment the active units' cumulative hazards are measured
    from the segment's conditioning epoch; single-unit segments reduce to
    the unit's own rate.

    The timelines must share one end of life, hence one grid; the spreads
    of one system do.  Segments whose values are the same function of time
    (same unit terms, births and, for a pair, epoch) are evaluated once,
    over the hull of the grid slices that read them; for the spreads of one
    system those slices nest, so the hull is their union.  A grid point's
    value does not depend on which other points are evaluated with it, so
    every curve equals the curve sampled from its timeline alone, bit for
    bit.  All evaluation, and any error it raises, happens in this call;
    the returned iterator then assembles one curve per timeline, in order,
    as it is advanced.  The curves share one ``times`` array.
    """
    if not dt > 0.0:
        raise DomainError(f"dt must be > 0, got {dt!r}")
    timelines = list(timelines)
    ends = {tl.t_end for tl in timelines}
    if len(ends) > 1:
        raise DomainError(f"system_hazard_curves needs timelines with one end of life, "
                          f"got {sorted(ends)}")
    if not timelines:
        return iter(())
    # Slice the full grid rather than build one from ``start``: a grid that
    # starts elsewhere holds different float values.
    t = np.arange(0.0, timelines[0].t_end, dt)
    t = t[np.searchsorted(t, start, "left"):]
    plans = []  # per timeline: (key, lo, hi) for each segment with grid points
    hulls = {}  # key -> (a segment, its config, hull of the grid slices that read it)
    for tl in timelines:
        plan = []
        for seg in tl.segments:
            lo, hi = (int(i) for i in np.searchsorted(t, (seg.t_start, seg.t_end), "left"))
            if lo == hi:
                continue
            key = _segment_key(seg, tl.config)
            plan.append((key, lo, hi))
            first, config, a, b = hulls.get(key, (seg, tl.config, lo, hi))
            hulls[key] = (first, config, min(a, lo), max(b, hi))
        plans.append(plan)
    values = {key: (lo, _segment_rates(t[lo:hi], seg, config))
              for key, (seg, config, lo, hi) in hulls.items()}

    def assemble(plan) -> HazardCurve:
        h = np.zeros_like(t)
        for key, lo, hi in plan:
            base, block = values[key]
            h[lo:hi] = block[lo - base:hi - base]
        return HazardCurve(times=t, rates=h)

    return (assemble(plan) for plan in plans)


def system_hazard_curve(timeline: ScenarioTimeline, *, dt: float,
                        start: float = 0.0) -> HazardCurve:
    """The curve of one timeline; see :func:`system_hazard_curves`."""
    return next(system_hazard_curves([timeline], dt=dt, start=start))
