"""The scalar reference model the tests hold the batched engine to.

``run_replication`` simulates one replication of the two-slot, one-spare
fleet as a plain event loop over :class:`Unit` age ledgers, and returns its
event log as a :class:`Trace`.  ``redzone.montecarlo.run_batch`` runs the
same model over numpy arrays; the differential tests require its results
and event logs to equal this loop's, exactly, replication by replication.

The oracle states the model's rules on its own: the splitmix64 constants,
the seed derivation, the consumed-life ledger and the rotation target.  It
imports nothing from ``redzone.montecarlo`` or ``redzone.maintenance``, the
modules it checks (``tests/test_packaging.py`` guards this); it takes the
same config values as the engine and reads a policy only through its
``kind`` and ``rotation_period``.

It also holds two references of the closed-form checks, the constant-hazard
:class:`ExponentialLifetime` and the binned :func:`empirical_hazard` estimator,
and the formulas that the kernels of ``redzone.hazards`` must reproduce bit
for bit: the term-by-term bathtub, :func:`bathtub_hazard` and
:func:`bathtub_cumulative`, and the software rate on the time since the last
major upgrade with its segment-wise integral, :func:`software_hazard` and
:func:`software_cumulative`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from redzone import (
    BathtubModel,
    DomainError,
    Policy,
    RedzoneError,
    SoftwareHazardModel,
    SystemConfig,
    ValidationError,
    weibull_cumulative,
    weibull_hazard,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, replication_index: int) -> int:
    """Per-replication seed: avalanche mix of master + index * golden gamma.

    Both the index step and the finalizer are bijections on 64-bit words, so
    distinct indices always yield distinct seeds for a fixed master.
    """
    if replication_index < 0:
        raise DomainError("replication_index must be >= 0")
    return _mix64((master_seed + replication_index * _GAMMA) & _MASK64)


class SplitMix64:
    """Minimal splitmix64 stream; see ``redzone.montecarlo``'s docstring for constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """A double strictly inside (0, 1): ((u64 >> 11) + 0.5) * 2**-53,
        except that u64 >> 11 = 2**53 - 1, which rounds to 1.0, gives 1 - 2**-53."""
        return min(((self.next_u64() >> 11) + 0.5) * (2.0 ** -53), _BELOW_ONE)


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


def oldest_slot(slots: Sequence[Unit], shelf_aging_factor: float) -> int | None:
    """The rotation target: the unfailed slot of greatest effective age.

    Ties go to the lower slot index; ``None`` when every slot has failed.
    This is the k-slot reference for ``redzone.maintenance.rotation_targets``,
    the two-slot rule the engine applies.
    """
    candidates = [i for i, u in enumerate(slots) if not u.failed]
    return max(candidates, key=lambda i: (effective_age(slots[i], shelf_aging_factor), -i),
               default=None)


@dataclass(frozen=True)
class Event:
    """One trace entry.  ``slot`` is an index, "shelf", or None."""

    time: float
    kind: str
    unit: str | None = None
    slot: int | str | None = None
    unit_out: str | None = None


@dataclass(frozen=True)
class Trace:
    """Ordered event log of one simulated system life.

    ``trdd`` is the first time fewer than two unfailed units occupy slots
    with no shelf unit able to restore redundancy; ``tdt`` the time of zero
    unfailed in-slot units (None when censored at the horizon).  ``dp`` is
    the observable decision point (rotation policy): the first event epoch
    at which every slot holds an unfailed unit but no usable shelf unit is
    left, because the shelf is empty or its unit has failed.  Both are
    checked after each event epoch, so a dead-on-arrival spare is seen at
    the first epoch, not at t = 0.
    """

    events: tuple[Event, ...]
    trdd: float | None
    tdt: float | None
    dp: float | None
    censored: bool
    end_time: float
    lifetimes: dict[str, float]

    @property
    def tdr(self) -> float | None:
        if self.tdt is None or self.dp is None:
            return None
        return self.tdt - self.dp


def run_replication(config: SystemConfig, policy: Policy, seed: int, *,
                    horizon: float | None = None) -> Trace:
    """Simulate one life of the two-slot, one-spare system and return its trace."""
    model = config.unit_lifetime
    if horizon is None:
        horizon = 5.0 * model.mean
    alpha = config.shelf_aging_factor
    rng = SplitMix64(seed)

    slots = [Unit(id=f"controller_{i}", lifetime=float(model.sample(rng.uniform())),
                  status=ACTIVE) for i in (1, 2)]
    shelf: Unit | None = Unit(id="controller_3", lifetime=float(model.sample(rng.uniform())),
                              lab_burnin_credit=config.lab_burnin, status=ON_SHELF)
    lifetimes = {u.id: u.lifetime for u in (*slots, shelf)}
    # each pass is a failure (at most one per unit), a rotation epoch before the horizon
    # and the replication's death (plus one for rounding), or the censoring pass
    passes = 4
    if policy.kind == "type2":
        passes += math.floor(min(horizon, sum(lifetimes.values())) / policy.rotation_period) + 1

    events: list[Event] = []
    trdd: float | None = None
    dp: float | None = None
    tdt: float | None = None
    censored = False
    t = 0.0
    rotation_index = 1

    def shelf_usable() -> bool:
        return shelf is not None and not shelf.failed

    # A spare can be dead on arrival only when the lab credit already
    # exhausts its sampled lifetime; record it for transparency.
    if effective_age(shelf, alpha) >= shelf.lifetime:
        shelf.status = FAILED
        events.append(Event(0.0, "failure", shelf.id, "shelf"))

    for _ in range(passes):
        candidates: list[tuple[float, int, int]] = []  # (time, priority, slot/row)
        for i, u in enumerate(slots):
            if not u.failed:
                candidates.append((t + (u.lifetime - effective_age(u, alpha)), 0, i))
        if shelf_usable() and alpha > 0.0:
            candidates.append((t + (shelf.lifetime - effective_age(shelf, alpha)) / alpha, 0, 99))
        if policy.kind == "type2":
            candidates.append((rotation_index * policy.rotation_period, 1, -1))
        t_next = min(c[0] for c in candidates)
        if t_next > horizon:
            step = horizon - t
            for u in slots:
                if not u.failed:
                    u.onjob_age += step
            if shelf_usable():
                shelf.shelf_age += step
            t = horizon
            censored = True
            break

        step = t_next - t
        for u in slots:
            if not u.failed:
                u.onjob_age += step
        if shelf_usable():
            shelf.shelf_age += step
        t = t_next

        due = [c for c in candidates if c[0] == t_next]
        # failures first, ascending slot index, then the shelf row
        for _, prio, row in sorted(due, key=lambda c: (c[1], c[2])):
            if prio == 0 and row != 99:
                u = slots[row]
                u.status = FAILED
                events.append(Event(t, "failure", u.id, row))
                if shelf_usable():
                    incoming = shelf
                    incoming.status = ACTIVE
                    slots[row] = incoming
                    shelf = None
                    events.append(Event(t, "replace", incoming.id, row, unit_out=u.id))
            elif prio == 0 and row == 99:
                # the shelf unit may have been installed by an equal-time
                # replacement; its exhausted budget then fails it in a slot
                # on the next pass instead
                if shelf is not None and not shelf.failed:
                    shelf.status = FAILED
                    events.append(Event(t, "failure", shelf.id, "shelf"))
            else:
                rotation_index += 1
                target = oldest_slot(slots, alpha) if shelf_usable() else None
                if target is not None:
                    outgoing = slots[target]
                    incoming = shelf
                    incoming.status = ACTIVE
                    outgoing.status = ON_SHELF
                    slots[target] = incoming
                    shelf = outgoing
                    events.append(Event(t, "rotate", incoming.id, target,
                                        unit_out=outgoing.id))

        alive = sum(1 for u in slots if not u.failed)
        if trdd is None and alive < 2 and not shelf_usable():
            trdd = t
        if dp is None and policy.kind == "type2" and alive == 2 and not shelf_usable():
            dp = t
            events.append(Event(t, "dp"))
        if alive == 0:
            tdt = t
            events.append(Event(t, "system_death"))
            break
    else:
        raise RedzoneError(f"run_replication: still running after {passes} passes")

    return Trace(events=tuple(events), trdd=trdd, tdt=tdt, dp=dp,
                 censored=censored, end_time=t, lifetimes=lifetimes)


def bathtub_hazard(t, model: BathtubModel):
    """Total hardware rate at age ``t``: every term over every age, through the
    validating Weibull evaluators; a float for a float or a 0-d array."""
    arr = np.asarray(t, dtype=float)
    h = np.full_like(arr, model.useful_rate, dtype=float)
    if model.burnin.scale > 0.0:
        h = h + weibull_hazard(np.maximum(arr, model.clamp_floor), model.burnin)
    if model.wearout.scale > 0.0:
        h = h + weibull_hazard(np.maximum(arr - model.wearout_onset, 0.0), model.wearout)
    return float(h) if arr.ndim == 0 else h


def bathtub_cumulative(t, model: BathtubModel):
    """Integral of the bathtub rate on [0, t], term by term, as :func:`bathtub_hazard`."""
    arr = np.asarray(t, dtype=float)
    total = model.useful_rate * arr
    total = total + weibull_cumulative(arr, model.burnin)
    total = total + weibull_cumulative(np.maximum(arr - model.wearout_onset, 0.0), model.wearout)
    return float(total) if arr.ndim == 0 else total


def _pulses(model: SoftwareHazardModel):
    """The minor upgrades whose pulse enters the rate, in event order."""
    return [ev for ev in model.upgrade_events if ev.kind == "minor" and ev.pulse_amplitude > 0.0]


def software_hazard(t, model: SoftwareHazardModel):
    """Software rate at calendar time ``t``: the floor, plus the update transient on
    the time since the last major upgrade at or before ``t`` (or since 0), plus each
    minor upgrade's pulse from its time on; a float for a float or a 0-d array."""
    arr = np.asarray(t, dtype=float)
    work = np.atleast_1d(arr)
    h = np.full_like(work, model.steady_floor)
    if model.update_amplitude > 0.0:
        since_major = work.copy()
        for ev in model.upgrade_events:
            if ev.kind == "major":
                mask = work >= ev.time
                since_major[mask] = work[mask] - ev.time
        h += model.update_amplitude * np.exp(-since_major / model.update_decay_tau)
    for ev in _pulses(model):
        mask = work >= ev.time
        h[mask] += ev.pulse_amplitude * np.exp(-(work[mask] - ev.time) / ev.pulse_decay_tau)
    return float(h[0]) if arr.ndim == 0 else h.reshape(arr.shape)


def software_cumulative(t, model: SoftwareHazardModel):
    """Integral of :func:`software_hazard` on [0, t]: the floor, the update transient
    segment by segment between major upgrades, then each pulse, in closed form."""
    arr = np.asarray(t, dtype=float)
    total = model.steady_floor * arr
    if model.update_amplitude > 0.0:
        amp, tau = model.update_amplitude, model.update_decay_tau
        starts = [0.0] + [ev.time for ev in model.upgrade_events if ev.kind == "major"]
        for i, s in enumerate(starts):
            span = arr - s if i + 1 == len(starts) else np.minimum(arr, starts[i + 1]) - s
            total = total + amp * tau * -np.expm1(-np.clip(span, 0.0, None) / tau)
    for ev in _pulses(model):
        span = np.clip(arr - ev.time, 0.0, None)
        tau = ev.pulse_decay_tau
        total = total + ev.pulse_amplitude * tau * -np.expm1(-span / tau)
    return float(total) if arr.ndim == 0 else total


@dataclass(frozen=True)
class ExponentialLifetime:
    """Constant-hazard lifetime (mean ``1/rate``), sampled by inversion."""

    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValidationError(f"rate must be > 0, got {self.rate!r}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, u):
        """Lifetimes of uniforms ``u`` in (0, 1): a float for a float, else an array."""
        out = -np.log1p(-np.asarray(u, dtype=float)) / self.rate
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class EmpiricalHazardCurve:
    """Binned rate estimates: deaths per unit of at-risk system time."""

    midpoints: np.ndarray
    rates: np.ndarray
    deaths: np.ndarray
    exposure: np.ndarray


def empirical_hazard(end_times, death_times, bin_width: float) -> EmpiricalHazardCurve:
    """Binned hazard estimator: system deaths over at-risk system time.

    ``end_times`` holds every replication's end of observation (death or
    horizon) and ``death_times`` the uncensored total lifetimes.  Bin j
    covers [j*w, (j+1)*w); its rate is (deaths in bin) / (total time systems
    spent at risk inside the bin).  Bins with zero at-risk time are omitted.
    Needs at least one death.
    """
    if not bin_width > 0.0:
        raise DomainError("bin_width must be > 0")
    deaths_t = np.asarray(death_times, dtype=float)
    if len(deaths_t) == 0:
        raise DomainError("empirical_hazard needs at least one uncensored replication")
    ends = np.sort(np.asarray(end_times, dtype=float))
    n_bins = int(math.ceil(ends[-1] / bin_width))
    edges = np.arange(n_bins + 1, dtype=float) * bin_width
    deaths, _ = np.histogram(deaths_t, bins=edges)

    # exposure_j = sum_i clip(end_i - e_j, 0, w), via prefix sums over sorted ends
    prefix = np.concatenate(([0.0], np.cumsum(ends)))
    lo = np.searchsorted(ends, edges[:-1], side="right")
    hi = np.searchsorted(ends, edges[1:], side="right")
    inside_sum = prefix[hi] - prefix[lo]
    inside_cnt = hi - lo
    above_cnt = len(ends) - hi
    exposure = (inside_sum - edges[:-1] * inside_cnt) + bin_width * above_cnt

    keep = exposure > 0.0
    return EmpiricalHazardCurve(midpoints=(edges[:-1] + 0.5 * bin_width)[keep],
                                rates=deaths[keep] / exposure[keep],
                                deaths=deaths[keep].astype(float), exposure=exposure[keep])
