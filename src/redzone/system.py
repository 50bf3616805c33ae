"""Unit age accounting, redundancy composition, and scenario timelines.

The reference architecture is two active controller units plus one shelf
spare.  A unit's effective consumed life is

    lab_burnin_credit + shelf_aging_factor * shelf_age + onjob_age

and a unit has failed once that quantity reaches its lifetime.  The shelf
aging factor defaults to 0 (ideal cold storage).

Redundancy is composed exactly: for k active units with rates ``h_i`` and
cumulative hazards ``H_i`` measured from a common conditioning epoch, the
1-out-of-k system rate is

    sum_i f_i * prod_{j != i} F_j   /   (1 - prod_i F_i)

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

import warnings
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

__all__ = [
    "ACTIVE", "ON_SHELF", "FAILED",
    "Unit",
    "SystemConfig",
    "ActiveUnit",
    "ScenarioSegment",
    "ScenarioTimeline",
    "HazardCurve",
    "effective_age",
    "compose_parallel",
    "scenario_timeline",
    "system_hazard_curve",
]

ACTIVE = "active"
ON_SHELF = "shelf"
FAILED = "failed"


@dataclass
class Unit:
    """One controller unit with its age ledger.

    ``lifetime`` is the sampled (or deterministic) total life budget in
    weeks.  Ages only ever increase; the simulator owns all mutation.
    """

    id: str
    lifetime: float
    onjob_age: float = 0.0
    shelf_age: float = 0.0
    lab_burnin_credit: float = 0.0
    status: str = ACTIVE

    def __post_init__(self):
        if self.lifetime <= 0.0:
            raise ValidationError(f"unit lifetime must be > 0, got {self.lifetime!r}")
        for nm in ("onjob_age", "shelf_age", "lab_burnin_credit"):
            if getattr(self, nm) < 0.0:
                raise ValidationError(f"{nm} must be >= 0")
        if self.status not in (ACTIVE, ON_SHELF, FAILED):
            raise ValidationError(f"unknown unit status {self.status!r}")

    @property
    def failed(self) -> bool:
        return self.status == FAILED


def effective_age(unit: Unit, shelf_aging_factor: float) -> float:
    """Consumed life: lab credit + factor-weighted shelf time + on-job time."""
    return unit.lab_burnin_credit + shelf_aging_factor * unit.shelf_age + unit.onjob_age


@dataclass(frozen=True)
class SystemConfig:
    """Everything that defines one system under study.

    ``lab_burnin`` is the burn-in credit (weeks) given to the provisioned
    shelf spare; practical lab runs are one or two weeks, far shorter than a
    typical burn-in phase, so a warning is emitted when it exceeds ``th1``.
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
        if self.lab_burnin < 0.0:
            raise ValidationError(f"lab_burnin must be >= 0, got {self.lab_burnin!r}")
        if self.lab_burnin > self.hazard.th1:
            warnings.warn(
                f"lab_burnin ({self.lab_burnin}) exceeds the declared burn-in "
                f"duration th1 ({self.hazard.th1})",
                ValidationWarning,
                stacklevel=3,  # past the dataclass-generated __init__ to its caller
            )


def compose_parallel(hazards, cumulative_hazards):
    """Exact 1-out-of-k active-parallel composition.

    Arguments are sequences of per-unit values (floats or equally shaped
    arrays): instantaneous rates ``h_i`` and cumulative hazards ``H_i``
    measured from the shared conditioning epoch.  ``k = 1`` returns the
    single rate unchanged.  Raises :class:`CompositionError` when the
    composition is undefined because every unit is certainly failed.
    """
    if len(hazards) != len(cumulative_hazards):
        raise DomainError("hazards and cumulative_hazards must have equal length")
    k = len(hazards)
    if k == 0:
        raise DomainError("compose_parallel needs at least one unit")
    if k == 1:
        return hazards[0]
    h = [np.asarray(x, dtype=float) for x in hazards]
    H = [np.asarray(x, dtype=float) for x in cumulative_hazards]
    scalar = all(x.ndim == 0 for x in h)
    R = [np.exp(-x) for x in H]
    F = [-np.expm1(-x) for x in H]
    f = [hi * Ri for hi, Ri in zip(h, R)]
    prod_f = np.ones_like(np.broadcast_arrays(*F)[0])
    num = np.zeros_like(prod_f)
    for i in range(k):
        others = np.ones_like(prod_f)
        for j in range(k):
            if j != i:
                others = others * F[j]
        num = num + f[i] * others
    den = 1.0
    for Fi in F:
        den = den * Fi
    den = 1.0 - den
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
    composition: str
    epoch: float
    boundary: str

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValidationError("segment needs t_start < t_end")


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


def scenario_timeline(config: SystemConfig, *, stagger: float | None = None) -> ScenarioTimeline:
    """Deterministic event sequence for the replace-on-failure policy.

    The two mains are commissioned fresh at t = 0; the first fails at the
    mean lifetime and the second a fixed ``stagger`` later (the lifetime
    spread read as an explicit gap; defaults to the configured sd).  The
    spare carries its lab burn-in credit and is installed at the first
    failure.  Boundaries:

        T0  = th1 + th2                wear-out onset of the mains
        Tf1 = mean                     first main failure, spare installed
        Tf2 = mean + stagger           second main failure
        T2  = Tf2 + (th1 - lab)        declared end of the spare's burn-in

    Segment labels follow the declared phase windows; hazard values along
    the curve always use true unit ages.
    """
    if stagger is None:
        stagger = config.unit_lifetime.sd
    if stagger < 0.0:
        raise ValidationError(f"stagger must be >= 0, got {stagger!r}")
    hz = config.hazard
    mean = config.unit_lifetime.mean
    lab = config.lab_burnin
    t0 = hz.wearout_onset
    if mean < t0:
        raise ValidationError(
            f"mean lifetime ({mean}) lies before the wear-out onset ({t0}); "
            "the end-of-life scenario is undefined")
    tf1 = mean
    tf2 = mean + stagger
    t2 = tf2 + max(hz.th1 - lab, 0.0)
    t_end = tf1 + (mean - lab)
    if t_end <= tf2:
        raise ValidationError("spare exhausts before the second main failure; "
                              "lower the stagger or raise the mean lifetime")

    main1 = ActiveUnit("controller_1", PHASE_USEFUL, birth=0.0)
    main2 = ActiveUnit("controller_2", PHASE_USEFUL, birth=0.0)
    spare_birth = tf1 - lab
    spare = ActiveUnit("controller_3", PHASE_BURNIN, birth=spare_birth)

    segs: list[ScenarioSegment] = []

    def add(t_start, t_end_, units, composition, epoch, boundary):
        if t_start < t_end_:
            segs.append(ScenarioSegment(t_start, t_end_, tuple(units), composition,
                                        epoch, boundary))

    if t0 > 0.0:
        add(0.0, min(t0, tf1), (main1, main2), "parallel", 0.0, "start")
    add(t0, tf1, (replace(main1, phase=PHASE_WEAROUT), replace(main2, phase=PHASE_WEAROUT)),
        "parallel", 0.0, "T0")
    add(tf1, tf2, (replace(main2, phase=PHASE_WEAROUT), spare), "parallel", tf1, "Tf1")
    # Declared spare burn-in window; with a large stagger the spare has
    # already matured and the label is schematic (values use true ages).
    add(tf2, min(t2, t_end), (spare,), "single", tf2, "Tf2")
    spare_onset = spare_birth + hz.wearout_onset
    if spare_onset <= max(t2, tf2):
        add(max(t2, tf2), t_end, (replace(spare, phase=PHASE_WEAROUT),), "single",
            tf2, "T2")
    else:
        add(max(t2, tf2), min(spare_onset, t_end), (replace(spare, phase=PHASE_USEFUL),),
            "single", tf2, "T2")
        add(min(spare_onset, t_end), t_end, (replace(spare, phase=PHASE_WEAROUT),),
            "single", tf2, "spare_wearout")

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


def system_hazard_curve(timeline: ScenarioTimeline, dt: float = 0.1) -> HazardCurve:
    """Sample the composed system rate over the whole timeline.

    Within each segment the active units' cumulative hazards are measured
    from the segment's conditioning epoch; single-unit segments reduce to
    the unit's own rate.
    """
    if not dt > 0.0:
        raise DomainError(f"dt must be > 0, got {dt!r}")
    config = timeline.config
    t = np.arange(0.0, timeline.t_end, dt)
    h = np.zeros_like(t)
    for seg in timeline.segments:
        mask = (t >= seg.t_start) & (t < seg.t_end)
        if not np.any(mask):
            continue
        tt = t[mask]
        rates = [_unit_rate(tt, au, config) for au in seg.units]
        if seg.composition == "single" or len(seg.units) == 1:
            h[mask] = rates[0]
            continue
        cums = [
            _unit_cumulative_at(tt, au, config) - _unit_cumulative_at(seg.epoch, au, config)
            for au in seg.units
        ]
        h[mask] = compose_parallel(rates, cums)
    return HazardCurve(times=t, rates=h)
