"""Seeded, deterministic Monte Carlo simulation of system lifetimes.

One replication samples a lifetime per unit, then advances an event queue in
which a unit fails exactly when its effective consumed life (lab credit +
aged shelf time + on-job time) crosses its sampled lifetime.  Between
maintenance events consumption is linear, so crossings are solved in closed
form; there is no integration step.  Simultaneous events are ordered
failure < replace < rotate, and equal-time failures break ties by slot
index.

Two engines run this model.  :func:`run_batch` runs all replications of an
ensemble in lockstep over numpy arrays, one pass per event epoch, and
repeats the scalar loop's floating-point operations in the same order, so
its per-replication results are bit-identical; on request it also records
every replication's event log as one :class:`EventLog` table.  It is the
engine every command runs, through :func:`run_ensemble` or directly.
:func:`run_replication` is the scalar event loop, kept as the oracle only:
it returns one replication's event log, and the tests hold the batched
engine's results and event logs to it.

Randomness comes from splitmix64 streams: 64-bit state advanced by the
golden-gamma increment 0x9E3779B97F4A7C15 and finalized by the standard
avalanche mix (xor-shift 30 / multiply 0xBF58476D1CE4E5B9 / xor-shift 27 /
multiply 0x94D049BB133111EB / xor-shift 31), period 2**64.  Per-replication
seeds are derived by mixing the master seed with the replication index, so
replications are independent of execution order.  Uniform variates are
((u64 >> 11) + 0.5) * 2**-53, strictly inside (0, 1): the one value that
rounds to 1.0, u64 >> 11 = 2**53 - 1, is taken as 1 - 2**-53.  The
generator is implemented here, in integer arithmetic (wrapping uint64
arrays for the batched engine), so byte-identical output does not depend
on any library version; golden vectors are frozen in the tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .maintenance import Policy, oldest_slot, rotation_targets
from .system import ACTIVE, FAILED, ON_SHELF, SystemConfig, Unit, effective_age

__all__ = [
    "SimConfig",
    "Event",
    "Trace",
    "MetricSummary",
    "Metrics",
    "EmpiricalHazardCurve",
    "SplitMix64",
    "derive_seed",
    "run_replication",
    "EVENT_KINDS",
    "EventLog",
    "BatchOutcomes",
    "run_batch",
    "run_ensemble",
    "empirical_hazard",
]

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _derive_seeds(master_seed: int, n: int) -> np.ndarray:
    """``derive_seed(master_seed, i)`` for i in 0..n-1, as uint64."""
    with np.errstate(over="ignore"):
        steps = np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix64_array(np.uint64(master_seed & _MASK64) + steps)


def _uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` :meth:`SplitMix64.uniform` draws of each seed, shape (n, k)."""
    with np.errstate(over="ignore"):
        states = seeds[:, None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        bits = _mix64_array(states) >> np.uint64(11)
    return np.minimum((bits.astype(float) + 0.5) * (2.0 ** -53), _BELOW_ONE)


class SplitMix64:
    """Minimal splitmix64 stream; see the module docstring for constants."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """A double strictly inside (0, 1): ((u64 >> 11) + 0.5) * 2**-53,
        except that u64 >> 11 = 2**53 - 1, which rounds to 1.0, gives 1 - 2**-53."""
        return min(((self.next_u64() >> 11) + 0.5) * (2.0 ** -53), _BELOW_ONE)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble parameters.

    ``horizon`` defaults to five mean lifetimes; replications still alive
    there are censored rather than simulated unboundedly.
    """

    replications: int = 1000
    master_seed: int = 1
    horizon: float | None = None

    def __post_init__(self):
        for name in ("replications", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValidationError("master_seed must be >= 0")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValidationError("horizon must be finite and > 0")


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

    while True:
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

    return Trace(events=tuple(events), trdd=trdd, tdt=tdt, dp=dp,
                 censored=censored, end_time=t, lifetimes=lifetimes)


@dataclass(frozen=True)
class MetricSummary:
    """Mean, sample standard deviation, and 95% interval of one metric."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int


def _summarize(values: np.ndarray) -> MetricSummary | None:
    n = len(values)
    if n == 0:
        return None
    mean = float(np.mean(values))
    std = 0.0 if n < 2 else float(np.std(values, ddof=1))
    half = 1.96 * std / math.sqrt(n)
    return MetricSummary(mean=mean, std=std, ci_low=mean - half, ci_high=mean + half, n=n)


@dataclass(frozen=True, eq=False)
class EmpiricalHazardCurve:
    """Binned rate estimates: deaths per unit of at-risk system time."""

    midpoints: np.ndarray
    rates: np.ndarray
    deaths: np.ndarray
    exposure: np.ndarray


@dataclass(frozen=True, eq=False)
class Metrics:
    """Ensemble statistics over N replications.

    Value arrays hold the defined observations only (a censored replication
    has no total lifetime); ``censored_count`` reports how many were cut at
    the horizon.
    """

    n_replications: int
    censored_count: int
    trdd: MetricSummary | None
    tdt: MetricSummary | None
    dp: MetricSummary | None
    tdr: MetricSummary | None
    trdd_values: np.ndarray
    tdt_values: np.ndarray
    dp_values: np.ndarray
    tdr_values: np.ndarray

    @classmethod
    def from_batch(cls, out: BatchOutcomes) -> Metrics:
        """Aggregate a :func:`run_batch` result in replication order."""
        trdd_values = _defined(out.trdd)
        tdt_values = _defined(out.tdt)
        dp_values = _defined(out.dp)
        tdr_values = _defined(out.tdt - out.dp)
        return cls(
            n_replications=len(out.trdd),
            censored_count=int(np.count_nonzero(out.censored)),
            trdd=_summarize(trdd_values),
            tdt=_summarize(tdt_values),
            dp=_summarize(dp_values),
            tdr=_summarize(tdr_values),
            trdd_values=trdd_values,
            tdt_values=tdt_values,
            dp_values=dp_values,
            tdr_values=tdr_values,
        )


def _defined(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values)]


# First axis of the batched engine's unit table: lifetime, lab credit, shelf age,
# on-job age, and (only while recording events) the unit's roster index.
_LIFE, _LAB, _SHELF, _ONJOB, _ID = range(5)

EVENT_KINDS = ("failure", "replace", "rotate", "dp", "system_death")
_FAILURE, _REPLACE, _ROTATE, _DP, _DEATH = range(len(EVENT_KINDS))
# Codes of EventLog.unit/unit_out and EventLog.slot, decoded by indexing these
# tables: a roster index or -1 for no unit; a slot index, -2 the shelf or -1 none.
_NONE, _SHELF_SLOT = -1, -2
_UNIT_IDS = np.array(["controller_1", "controller_2", "controller_3", None], dtype=object)
_SLOTS = np.array([0, 1, "shelf", None], dtype=object)
_KIND_NAMES = np.array(EVENT_KINDS, dtype=object)


@dataclass(frozen=True, eq=False)
class EventLog:
    """The event logs of a :func:`run_batch` ensemble as one table.

    One row per event, grouped by ascending replication; each replication's
    rows are in the order of ``run_replication(...).events``.  ``kind``
    indexes :data:`EVENT_KINDS`; ``unit`` and ``unit_out`` hold a roster
    index (unit i is ``controller_{i+1}``) or -1 for none; ``slot`` holds a
    slot index, -2 for the shelf or -1 for none.
    """

    replication: np.ndarray
    time: np.ndarray
    kind: np.ndarray
    unit: np.ndarray
    slot: np.ndarray
    unit_out: np.ndarray

    def fields(self, rows: slice = slice(None)) -> tuple[list, ...]:
        """The columns of ``rows`` (all rows by default) as lists of
        :class:`Event` field values.

        Returns (replication, time, kind, unit, slot, unit_out); a row's last
        five values equal the ``time``, ``kind``, ``unit``, ``slot`` and
        ``unit_out`` of the scalar event.
        """
        return (self.replication[rows].tolist(), self.time[rows].tolist(),
                _KIND_NAMES[self.kind[rows]].tolist(), _UNIT_IDS[self.unit[rows]].tolist(),
                _SLOTS[self.slot[rows]].tolist(), _UNIT_IDS[self.unit_out[rows]].tolist())


@dataclass(frozen=True, eq=False)
class BatchOutcomes:
    """Per-replication results of :func:`run_batch`, in replication order.

    ``trdd``, ``tdt`` and ``dp`` hold NaN where the scalar trace holds None.
    ``events`` is the ensemble's event log when it was recorded, else None.
    """

    trdd: np.ndarray
    tdt: np.ndarray
    dp: np.ndarray
    censored: np.ndarray
    end_time: np.ndarray
    events: EventLog | None = None


def run_batch(config: SystemConfig, policy: Policy, master_seed: int, replications: int, *,
              horizon: float | None = None, record_events: bool = False) -> BatchOutcomes:
    """Simulate replications 0..N-1 of ``master_seed`` in lockstep.

    The struct-of-arrays form of :func:`run_replication`: one row per
    running replication and one column per position (the slots, then the
    shelf), so an installation or a rotation moves a column's unit state.
    Each pass handles one event epoch of every running replication, with
    the scalar loop's event order and floating-point operations, so
    replication i equals ``run_replication(config, policy,
    derive_seed(master_seed, i), ...)`` exactly.  ``config.unit_lifetime.sample``
    is called once, on a (replications, units) array of uniforms.

    With ``record_events`` the result also holds the event log of every
    replication (:class:`EventLog`), equal to the scalar traces' events.
    Each pass appends one block of rows per event kind, in the scalar
    loop's order within an epoch, and a stable sort on the replication
    index then groups the blocks into per-replication logs.
    """
    if horizon is None:
        horizon = 5.0 * config.unit_lifetime.mean
    alpha = config.shelf_aging_factor
    rotating = policy.kind == "type2"
    S = 2  # column index of the shelf, after the two slots

    u = _uniforms(_derive_seeds(master_seed, replications), S + 1)
    units = np.zeros((_ID + int(record_events), replications, S + 1))
    units[_LIFE] = config.unit_lifetime.sample(u)
    units[_LAB, :, S] = config.lab_burnin
    on_shelf = np.ones(replications, dtype=bool)
    failed = np.zeros((replications, S + 1), dtype=bool)
    # dead on arrival: the lab credit already exhausts the spare's lifetime
    failed[:, S] = units[_LAB, :, S] >= units[_LIFE, :, S]
    t = np.zeros(replications)
    rotation = np.ones(replications)
    rows = np.arange(replications)  # replication index of each running row

    trdd = np.full(replications, np.nan)
    tdt = np.full(replications, np.nan)
    dp = np.full(replications, np.nan)
    censored = np.zeros(replications, dtype=bool)
    end_time = np.empty(replications)

    blocks: list[tuple] = []  # (replication, time, kind, unit, slot, unit_out)

    def record(sel, kind, unit=_NONE, slot=_NONE, unit_out=_NONE):
        blocks.append((rows[sel], t[sel], kind, unit, slot, unit_out))

    if record_events:
        units[_ID] = np.arange(S + 1)
        record(failed[:, S], _FAILURE, S, _SHELF_SLOT)

    while rows.size:
        consumed = units[_LAB] + alpha * units[_SHELF] + units[_ONJOB]
        fail_at = np.where(failed[:, :S], np.inf,
                           t[:, None] + (units[_LIFE, :, :S] - consumed[:, :S]))
        t_next = fail_at.min(axis=1)
        if alpha > 0.0:
            # a tiny alpha overflows the division to inf, as it does in run_replication
            with np.errstate(over="ignore"):
                shelf_left = (units[_LIFE, :, S] - consumed[:, S]) / alpha
            shelf_fail_at = np.where(on_shelf & ~failed[:, S], t + shelf_left, np.inf)
            t_next = np.minimum(t_next, shelf_fail_at)
        if rotating:
            rotate_at = rotation * policy.rotation_period
            t_next = np.minimum(t_next, rotate_at)

        cut = t_next > horizon
        censored[rows[cut]] = True
        end_time[rows[cut]] = horizon
        go = ~cut
        step = t_next - t
        # failed units and an emptied shelf column also age here; nothing reads them again
        units[_ONJOB, :, :S] += step[:, None]
        units[_SHELF, :, S] += step
        t = t_next

        # due events: slot failures in ascending slot, then the shelf, then the rotation
        for s in range(S):
            hit = go & (fail_at[:, s] == t)
            failed[hit, s] = True
            install = hit & on_shelf & ~failed[:, S]
            if record_events:
                record(hit, _FAILURE, units[_ID, hit, s], s)
                record(install, _REPLACE, units[_ID, install, S], s, units[_ID, install, s])
            units[:, install, s] = units[:, install, S]
            failed[install, s] = False
            on_shelf[install] = False
        if alpha > 0.0:
            hit = go & on_shelf & (shelf_fail_at == t)
            failed[hit, S] = True
            if record_events:
                record(hit, _FAILURE, units[_ID, hit, S], _SHELF_SLOT)
        if rotating:
            hit = go & (rotate_at == t)
            rotation[hit] += 1.0
            ages = units[_LAB, :, :S] + alpha * units[_SHELF, :, :S] + units[_ONJOB, :, :S]
            target = rotation_targets(ages, ~failed[:, :S], on_shelf & ~failed[:, S])
            r = np.flatnonzero(hit & (target >= 0))
            c = target[r]
            if record_events:
                record(r, _ROTATE, units[_ID, r, S], c, units[_ID, r, c])
            units[:, r, c], units[:, r, S] = units[:, r, S], units[:, r, c]

        alive = np.count_nonzero(~failed[:, :S], axis=1)
        no_spare = ~(on_shelf & ~failed[:, S])
        first = go & (alive < 2) & no_spare & np.isnan(trdd[rows])
        trdd[rows[first]] = t[first]
        if rotating:
            first = go & (alive == S) & no_spare & np.isnan(dp[rows])
            dp[rows[first]] = t[first]
            if record_events:
                record(first, _DP)
        dead = go & (alive == 0)
        tdt[rows[dead]] = t[dead]
        end_time[rows[dead]] = t[dead]
        if record_events:
            record(dead, _DEATH)

        keep = go & ~dead
        rows, t, rotation = rows[keep], t[keep], rotation[keep]
        units, failed, on_shelf = units[:, keep], failed[keep], on_shelf[keep]

    events = _event_log(blocks) if record_events else None
    return BatchOutcomes(trdd=trdd, tdt=tdt, dp=dp, censored=censored, end_time=end_time,
                         events=events)


def _event_log(blocks: list[tuple]) -> EventLog:
    """Concatenate the recorded blocks and group them by replication, stably."""
    sizes = [len(b[0]) for b in blocks]
    columns = [np.concatenate([np.broadcast_to(b[j], n) for b, n in zip(blocks, sizes)])
               for j in range(6)]
    order = np.argsort(columns[0], kind="stable")
    replication, time, kind, unit, slot, unit_out = (col[order] for col in columns)
    return EventLog(replication=replication, time=time, kind=kind.astype(np.int8),
                    unit=unit.astype(np.int8), slot=slot.astype(np.int8),
                    unit_out=unit_out.astype(np.int8))


def run_ensemble(config: SystemConfig, policy: Policy, sim: SimConfig) -> Metrics:
    """Run N replications with :func:`run_batch` and aggregate in index order.

    Replication i uses seed ``derive_seed(sim.master_seed, i)``, and its
    values equal those of :func:`run_replication` for that seed.
    """
    return Metrics.from_batch(run_batch(
        config, policy, sim.master_seed, sim.replications, horizon=sim.horizon))


def empirical_hazard(end_times, death_times, bin_width: float) -> EmpiricalHazardCurve:
    """Binned hazard estimator: system deaths over at-risk system time.

    ``end_times`` holds every replication's end of observation (death or
    horizon) and ``death_times`` the uncensored total lifetimes: for an
    ensemble, a :func:`run_batch` result's ``end_time`` and its non-NaN
    ``tdt``.  Bin j covers [j*w, (j+1)*w); its rate is (deaths in bin) /
    (total time systems spent at risk inside the bin).  Bins with zero
    at-risk time are omitted.  Needs at least one death.
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
    mid = edges[:-1] + 0.5 * bin_width
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where(keep, deaths / np.where(keep, exposure, 1.0), np.nan)
    return EmpiricalHazardCurve(midpoints=mid[keep], rates=rates[keep],
                                deaths=deaths[keep].astype(float), exposure=exposure[keep])
