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
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import CompositionError, DomainError, ValidationError, warn
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
    "end_of_life",
    "scenario_timeline",
    "system_hazard_curve",
    "system_hazard_curves",
]


class SystemConfig(Value):
    """Everything that defines one system under study.

    ``unit_lifetime`` is any model with a ``mean`` and a ``sample(u)`` that
    maps an array of uniforms to lifetimes in weeks, as
    ``LifetimeDistribution`` does.  ``lab_burnin`` is the burn-in credit
    (weeks) given to the provisioned shelf spare; practical lab runs are one
    or two weeks, far shorter than a typical burn-in phase, so a warning is
    emitted when it exceeds ``th1``.
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
    add(t0, tf1, (main1._replace(phase=PHASE_WEAROUT), main2._replace(phase=PHASE_WEAROUT)),
        0.0, "T0")
    add(tf1, tf2, (main2._replace(phase=PHASE_WEAROUT), spare), tf1, "Tf1")
    # Declared spare burn-in window; with a large sd the spare has already
    # matured and the label is schematic (values use true ages).
    add(tf2, min(t2, t_end), (spare,), tf2, "Tf2")
    spare_onset = spare_birth + hz.wearout_onset
    if spare_onset <= max(t2, tf2):
        add(max(t2, tf2), t_end, (spare._replace(phase=PHASE_WEAROUT),), tf2, "T2")
    else:
        add(max(t2, tf2), min(spare_onset, t_end), (spare._replace(phase=PHASE_USEFUL),),
            tf2, "T2")
        add(min(spare_onset, t_end), t_end, (spare._replace(phase=PHASE_WEAROUT),),
            tf2, "spare_wearout")

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
    h = np.asarray(bathtub_hazard(times - au.birth, config.hazard), dtype=float)
    if config.software is not None:
        h += software_hazard(times, config.software)
    if config.operator is not None:
        h += config.operator.rate
    return h


def _unit_cumulative_at(t, au: ActiveUnit, config: SystemConfig):
    total = np.asarray(bathtub_cumulative(t - au.birth, config.hazard), dtype=float)
    if config.software is not None:
        total += software_cumulative(t, config.software)
    if config.operator is not None:
        total += config.operator.rate * t
    return total


def system_hazard_curves(timelines, *, dt: float,
                         start: float = 0.0) -> Iterator[HazardCurve]:
    """Sample the composed system rate of each timeline on ``arange(0, t_end, dt)``.

    Only the grid points at or after ``start`` are sampled, and they hold
    the same values as the ``times >= start`` tail of the full curve.
    Within each segment the active units' cumulative hazards are measured
    from the segment's conditioning epoch; single-unit segments reduce to
    the unit's own rate.

    The timelines must share one end of life, hence one grid; the spreads
    of one system do.  Evaluation is by unit: units with the same terms and
    birth (the two mains; the spare across segments and spreads) are one.
    A unit's rate is evaluated once, over the hull of the grid slices that
    read it, and its cumulative hazard once, over the hull of the pair slices
    that read it; each pair is composed once from slices of those arrays.  A
    grid point's value does not depend on which other points are evaluated
    with it, so every curve equals the curve sampled from its timeline alone,
    bit for bit.  All evaluation, and any error it raises, happens in this
    call; the returned iterator then assembles one curve per timeline, in
    order, as it is advanced.  The curves share one ``times`` array.
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
    # (evaluator, key) -> [unit or pair segment, its config, hull lo, hull hi]; a unit's
    # key is (index of its terms, birth), a pair's (*its unit keys, epoch).
    terms, hulls, plans = {}, {}, []  # plans: (slot, lo, hi) per segment with grid points
    for tl in timelines:
        c = tl.config
        index = terms.setdefault((c.hazard, c.software, c.operator), len(terms))
        plan = []
        for seg in tl.segments:
            lo, hi = (int(i) for i in np.searchsorted(t, (seg.t_start, seg.t_end), "left"))
            if lo == hi:
                continue
            units = [((index, au.birth), au) for au in seg.units]
            needs = [((_unit_rate, key), au) for key, au in units]
            if len(units) != 1:  # compose_parallel rejects a count other than 2
                needs += [((_unit_cumulative_at, key), au) for key, au in units]
                needs.append((("pair", (*(key for key, _ in units), seg.epoch)), seg))
            for slot, item in needs:
                hull = hulls.setdefault(slot, [item, c, lo, hi])
                hull[2:] = min(hull[2], lo), max(hull[3], hi)
            plan.append((needs[-1][0], lo, hi))  # the pair, or the single unit's rate
        plans.append(plan)

    values = {}  # slot -> (hull lo, the values over the hull)

    def window(slot, lo, hi):
        base, block = values[slot]
        return block[lo - base:hi - base]

    # A pair entered ``hulls`` after its units' rates and cumulatives, which it reads.
    for (kind, key), (item, config, lo, hi) in hulls.items():
        if kind == "pair":
            units = dict(zip(key[:-1], item.units))  # one entry for the two mains
            h = {k: window((_unit_rate, k), lo, hi) for k in units}
            H = {k: window((_unit_cumulative_at, k), lo, hi)
                 - _unit_cumulative_at(item.epoch, au, config) for k, au in units.items()}
            block = compose_parallel([h[k] for k in key[:-1]], [H[k] for k in key[:-1]])
        else:
            block = kind(t[lo:hi], item, config)
        values[kind, key] = (lo, block)
    values = {slot: v for slot, v in values.items() if slot[0] is not _unit_cumulative_at}

    def assemble(plan) -> HazardCurve:
        h = np.zeros_like(t)
        for slot, lo, hi in plan:
            h[lo:hi] = window(slot, lo, hi)
        return HazardCurve(times=t, rates=h)

    return (assemble(plan) for plan in plans)


def system_hazard_curve(timeline: ScenarioTimeline, *, dt: float,
                        start: float = 0.0) -> HazardCurve:
    """The curve of one timeline; see :func:`system_hazard_curves`."""
    return next(system_hazard_curves([timeline], dt=dt, start=start))
