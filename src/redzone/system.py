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
main-unit failure times of one engine replication, whose spare it draws.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import CompositionError, DomainError, ValidationError, ValidationWarning, warn
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
from .maintenance import Policy
from .montecarlo import _FAILURE, _REPLACE, run_batch
from .value import Value

# The cause of the one timeline error a smaller lifetime spread avoids.
_SPARE_EXHAUSTED = "spare exhausts before the second main failure"

__all__ = [
    "SystemConfig",
    "ActiveUnit",
    "ScenarioSegment",
    "ScenarioTimeline",
    "HazardCurve",
    "compose_parallel",
    "scenario_timeline",
    "scenario_timelines",
    "system_hazard_curve",
    "system_hazard_curves",
]


class SystemConfig(Value):
    """Everything that defines one system under study.

    The engine takes any ``unit_lifetime`` with a ``mean`` and a ``sample(u)`` of
    lifetimes in weeks; a scenario timeline, and so a sweep's ensembles, use the
    ``LifetimeDistribution`` of its ``mean`` and ``sd``, whatever model it is.
    ``lab_burnin``, the shelf spare's burn-in credit (weeks), warns above ``th1``:
    lab runs take a week or two, far less than a typical burn-in phase.
    """

    __slots__ = ("hazard", "unit_lifetime", "shelf_aging_factor", "lab_burnin", "software",
                 "operator")

    def __init__(self, hazard: BathtubModel, unit_lifetime: LifetimeDistribution,
                 shelf_aging_factor: float = 0.0, lab_burnin: float = 2.0,
                 software: SoftwareHazardModel | None = None,
                 operator: OperatorHazard | None = None):
        self._set(hazard=hazard, unit_lifetime=unit_lifetime,
                  shelf_aging_factor=shelf_aging_factor, lab_burnin=lab_burnin,
                  software=software, operator=operator)
        if not 0.0 <= self.shelf_aging_factor <= 1.0:
            raise ValidationError(
                f"shelf_aging_factor must lie in [0, 1], got {self.shelf_aging_factor!r}")
        if not 0.0 <= self.lab_burnin < math.inf:
            raise ValidationError(f"lab_burnin must be finite and >= 0, got {self.lab_burnin!r}")
        if self.lab_burnin > self.hazard.th1:
            warn(f"lab_burnin ({self.lab_burnin}) exceeds the declared burn-in "
                 f"duration th1 ({self.hazard.th1})")


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
    F1, f1 = -np.expm1(-H1), h1 * np.exp(-H1)
    # one unit given twice (the same arrays) has its terms computed once
    F2, f2 = (F1, f1) if h2 is h1 and H2 is H1 else (-np.expm1(-H2), h2 * np.exp(-H2))
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


class ActiveUnit(NamedTuple):
    """One unit active within a segment; its age at time t is ``t - birth``."""

    unit_id: str
    phase: str
    birth: float


class ScenarioSegment(Value):
    """Half-open interval [t_start, t_end) with a fixed set of active units.

    ``epoch`` is the calendar time of the last failure/installation event at
    or before ``t_start``; composed hazards within the segment condition on
    all listed units being alive at the epoch.  ``boundary`` names the
    timeline landmark that opens the segment.
    """

    __slots__ = ("t_start", "t_end", "units", "epoch", "boundary")

    def __init__(self, t_start: float, t_end: float, units: tuple[ActiveUnit, ...],
                 epoch: float, boundary: str):
        self._set(t_start=t_start, t_end=t_end, units=units, epoch=epoch, boundary=boundary)
        if not self.t_start < self.t_end:
            raise ValidationError("segment needs t_start < t_end")

    @property
    def composition(self) -> str:
        """``single`` for one active unit, else ``parallel``."""
        return "single" if len(self.units) == 1 else "parallel"


class ScenarioTimeline(NamedTuple):
    """Deterministic replace-on-failure life of the two-main + spare system."""

    config: SystemConfig
    segments: tuple[ScenarioSegment, ...]
    t0: float
    tf1: float
    tf2: float
    t2: float
    t_end: float


def scenario_timeline(config: SystemConfig) -> ScenarioTimeline:
    """Deterministic event sequence for the replace-on-failure policy.

    Tf1, Tf2 and the end of life ``t_end`` are the event times of a type1
    ``run_batch`` replication at lifetimes (mean, mean + sd, mean): the spread
    read as the gap between the mains' failures, and the spare, installed at
    the first, born at its death less its lifetime.  T0 = th1 + th2; T2 = Tf2
    + max(th1 - the spare's age at Tf1, 0), the declared end of its burn-in.
    Segment labels follow the declared phase windows; hazard values use true
    unit ages.  A spare dead before Tf1 or by Tf2 raises ValidationError.
    """
    return next(scenario_timelines(config, [config.unit_lifetime.sd]))


def scenario_timelines(config: SystemConfig, spreads) -> Iterator[ScenarioTimeline]:
    """The :func:`scenario_timeline` of ``config`` at each lifetime spread, from one
    ``run_batch`` call; the iterator builds each, or raises its error, when advanced."""
    # the caller's config has already warned about itself; the copies would repeat it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidationWarning)
        configs = [config._replace(unit_lifetime=LifetimeDistribution(
            config.unit_lifetime.mean, d)) for d in spreads]
    mean = config.unit_lifetime.mean
    lives = np.array([(mean, mean + c.unit_lifetime.sd, mean) for c in configs]).reshape(-1, 3)
    log = run_batch(config, Policy("type1"), lives, horizon=math.inf, record_events=True).events
    ends = np.searchsorted(log.replication, np.arange(1, len(lives) + 1)).tolist()
    events = zip(log.time.tolist(), log.kind.tolist(), log.unit.tolist())
    return (_timeline(c, list(itertools.islice(events, hi - lo)))
            for c, lo, hi in zip(configs, [0, *ends], ends))


def _timeline(config: SystemConfig, events) -> ScenarioTimeline:
    """The timeline of ``config`` from its replication's (time, kind, unit) events."""
    hz = config.hazard
    mean = config.unit_lifetime.mean
    t0 = hz.wearout_onset
    if mean < t0:
        raise ValidationError(f"mean lifetime ({mean}) lies before the wear-out onset ({t0}); "
                              "the end-of-life scenario is undefined",
                              fields=("lifetime.mean", "hazard.th1 + hazard.th2"))
    failed_at = {unit: t for t, kind, unit in events if kind == _FAILURE}
    if not any(kind == _REPLACE for _, kind, _ in events):
        raise ValidationError(f"spare dies before the first main failure ({failed_at[0]!r}), on "
                              "arrival or on the shelf; lower the shelf aging factor or the lab "
                              "burn-in", fields=("system.shelf_aging_factor", "system.lab_burnin"))
    tf1, tf2, spare_birth = failed_at[0], failed_at[1], failed_at[2] - mean
    t_end = events[-1][0]  # the system's death ends the log
    if t_end <= tf2:
        raise ValidationError(f"{_SPARE_EXHAUSTED}; lower the lifetime sd or raise the "
                              "mean lifetime",
                              fields=("lifetime.sd", "lifetime.mean", "system.lab_burnin"))
    age = tf1 - spare_birth  # the spare's consumed life at install
    t2 = tf2 + max(hz.th1 - age, 0.0)

    main1 = ActiveUnit("controller_1", PHASE_USEFUL, birth=0.0)
    main2 = ActiveUnit("controller_2", PHASE_USEFUL, birth=0.0)
    phase = PHASE_BURNIN if age < hz.th1 else PHASE_USEFUL if age < t0 else PHASE_WEAROUT
    spare = ActiveUnit("controller_3", phase, birth=spare_birth)

    segs: list[ScenarioSegment] = []

    def add(t_start, t_end_, units, epoch, boundary):
        if t_start < t_end_:
            segs.append(ScenarioSegment(t_start, t_end_, tuple(units), epoch, boundary))

    add(0.0, min(t0, tf1), (main1, main2), 0.0, "start")
    add(t0, tf1, (main1._replace(phase=PHASE_WEAROUT), main2._replace(phase=PHASE_WEAROUT)),
        0.0, "T0")
    add(tf1, tf2, (main2._replace(phase=PHASE_WEAROUT), spare), tf1, "Tf1")
    # the spare's declared burn-in window, schematic at a large sd (values use true ages)
    add(tf2, min(t2, t_end), (spare,), tf2, "Tf2")
    onset = min(max(spare_birth + t0, t2), t_end)  # t2 >= tf2
    add(t2, onset, (spare._replace(phase=PHASE_USEFUL),), tf2, "T2")
    add(onset, t_end, (spare._replace(phase=PHASE_WEAROUT),), tf2,
        "T2" if onset == t2 else "spare_wearout")

    return ScenarioTimeline(config=config, segments=tuple(segs),
                            t0=t0, tf1=tf1, tf2=tf2, t2=t2, t_end=t_end)


class HazardCurve(Value):
    """A hazard curve sampled on a uniform grid; equal only to itself."""

    __slots__ = ("times", "rates")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, times: np.ndarray, rates: np.ndarray):
        self._set(times=times, rates=rates)
        if len(self.times) != len(self.rates):
            raise ValidationError("times and rates must have equal length")


def _unit_rate(times: np.ndarray, au: ActiveUnit, config: SystemConfig) -> np.ndarray:
    # Hardware runs on the unit's age clock, software on the calendar clock.
    h = bathtub_hazard(times - au.birth, config.hazard)
    if config.software is not None:
        h += software_hazard(times, config.software)
    if config.operator is not None:
        h += config.operator.rate
    return h


def _unit_cumulative_at(t, au: ActiveUnit, config: SystemConfig):
    total = bathtub_cumulative(t - au.birth, config.hazard)
    if config.software is not None:
        total += software_cumulative(t, config.software)
    if config.operator is not None:
        total += config.operator.rate * t
    return total


def _segment_rate(t: np.ndarray, seg: ScenarioSegment, config: SystemConfig) -> np.ndarray:
    """The composed rate of ``seg`` at ``t``: a single unit's own rate, or the pair's
    :func:`compose_parallel` with cumulative hazards measured from ``seg.epoch``."""
    if len(seg.units) == 1:
        return _unit_rate(t, seg.units[0], config)
    units = {au.birth: au for au in seg.units}  # the two mains are one function of time
    h = {b: _unit_rate(t, au, config) for b, au in units.items()}
    H = {b: _unit_cumulative_at(t, au, config) - _unit_cumulative_at(seg.epoch, au, config)
         for b, au in units.items()}
    return compose_parallel([h[au.birth] for au in seg.units], [H[au.birth] for au in seg.units])


def system_hazard_curves(timelines, *, dt: float,
                         start: float = 0.0) -> Iterator[HazardCurve]:
    """Sample the composed system rate of each timeline on ``arange(0, t_end, dt)``.

    Only the grid points at or after ``start`` are sampled, and they hold
    the same values as the ``times >= start`` tail of the full curve.
    Within each segment the active units' cumulative hazards are measured
    from the segment's conditioning epoch; single-unit segments reduce to
    the unit's own rate.

    The timelines may end at different times: each curve's grid,
    ``arange(0, t_end, dt)``, is a prefix of the grid to the latest end of
    life.  Evaluation is by piece: segments whose units have the same terms
    and births, and for a pair the same epoch, are one function of time (the
    spare alone across segments and spreads; a sweep's pairs).  Each piece
    is evaluated once, by :func:`_segment_rate`, over the hull of the grid
    slices of its segments.  A grid point's value does not depend on which
    other points are evaluated with it, so every curve equals the curve
    sampled from its timeline alone, bit for bit.  All evaluation, and any
    error it raises, happens in this call; the returned iterator then
    assembles one curve per timeline, in order, as it is advanced.  The
    curves' ``times`` are views of one array.
    """
    if not dt > 0.0:
        raise DomainError(f"dt must be > 0, got {dt!r}")
    timelines = list(timelines)
    if not timelines:
        return iter(())
    # Slice the full grid rather than build one from ``start``, whose floats differ; a
    # curve's own grid, arange(0.0, t_end, dt), is its first ceil(t_end / dt) points.
    t = np.arange(0.0, max(tl.t_end for tl in timelines), dt)
    first = int(np.searchsorted(t, start, "left"))
    t = t[first:]
    # piece -> [a segment of it, its config, hull lo, hull hi]; a piece is (index of its
    # terms, its units' births) and, for a pair, its epoch
    terms, hulls, plans = {}, {}, []  # plans: [point count, (piece, lo, hi) per segment]
    for tl in timelines:
        c = tl.config
        index = terms.setdefault((c.hazard, c.software, c.operator), len(terms))
        plan = [n := max(math.ceil(tl.t_end / dt) - first, 0)]
        for seg in tl.segments:
            lo, hi = (min(int(i), n) for i in np.searchsorted(t, (seg.t_start, seg.t_end), "left"))
            if lo == hi:
                continue
            births = tuple(au.birth for au in seg.units)
            piece = (index, births, seg.epoch) if len(births) > 1 else (index, births)
            hull = hulls.setdefault(piece, [seg, c, lo, hi])
            hull[2:] = min(hull[2], lo), max(hull[3], hi)
            plan.append((piece, lo, hi))
        plans.append(plan)
    values = {piece: (lo, _segment_rate(t[lo:hi], seg, c))
              for piece, (seg, c, lo, hi) in hulls.items()}

    def assemble(plan) -> HazardCurve:
        n, *plan = plan
        h = np.zeros(n)
        for piece, lo, hi in plan:
            base, block = values[piece]
            h[lo:hi] = block[lo - base:hi - base]
        return HazardCurve(times=t[:n], rates=h)

    return (assemble(plan) for plan in plans)


def system_hazard_curve(timeline: ScenarioTimeline, *, dt: float,
                        start: float = 0.0) -> HazardCurve:
    """The curve of one timeline; see :func:`system_hazard_curves`."""
    return next(system_hazard_curves([timeline], dt=dt, start=start))
