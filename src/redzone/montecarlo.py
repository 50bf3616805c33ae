"""Seeded, deterministic Monte Carlo simulation of system lifetimes.

One replication samples a lifetime per unit, then advances an event queue in
which a unit fails exactly when its effective consumed life (lab credit +
aged shelf time + on-job time) crosses its sampled lifetime.  Between
maintenance events consumption is linear, so crossings are solved in closed
form; there is no integration step.  Simultaneous events are ordered
failure < replace < rotate, and equal-time failures break ties by slot
index.

:func:`run_batch` runs all replications of an ensemble in lockstep over
numpy arrays, one pass per event epoch; on request it also records every
replication's event log as one :class:`EventLog` table.  It is the engine
every command runs, through :func:`run_ensemble` or directly.  The tests
hold its per-replication results and event logs, bit for bit, to a scalar
event loop over per-unit age ledgers kept in ``tests/oracle.py``.

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
from .maintenance import Policy, rotation_targets
from .system import SystemConfig

__all__ = [
    "SimConfig",
    "MetricSummary",
    "Metrics",
    "EmpiricalHazardCurve",
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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _derive_seeds(master_seed: int, n: int) -> np.ndarray:
    """Replication i's seed, for i in 0..n-1, as uint64: the avalanche mix of
    master + i * golden gamma, a bijection of i for a fixed master."""
    with np.errstate(over="ignore"):
        steps = np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix64_array(np.uint64(master_seed & _MASK64) + steps)


def _uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` uniform draws of each seed's splitmix64 stream, shape (n, k)."""
    with np.errstate(over="ignore"):
        states = seeds[:, None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        bits = _mix64_array(states) >> np.uint64(11)
    return np.minimum((bits.astype(float) + 0.5) * (2.0 ** -53), _BELOW_ONE)


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
    rows are in the order of its events in the scalar oracle's trace
    (``tests/oracle.py``).  ``kind``
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

    def fields(self, rows: slice = slice(None)) -> tuple[list, np.ndarray, list, list, list, list]:
        """The columns of ``rows`` (all rows by default), decoded.

        Returns (replication, time, kind, unit, slot, unit_out): ``time`` as
        the float array, the others as lists of ints, names and None.  A
        row's last five values equal the ``time``, ``kind``, ``unit``,
        ``slot`` and ``unit_out`` of the oracle's scalar event.
        """
        return (self.replication[rows].tolist(), self.time[rows],
                _KIND_NAMES[self.kind[rows]].tolist(), _UNIT_IDS[self.unit[rows]].tolist(),
                _SLOTS[self.slot[rows]].tolist(), _UNIT_IDS[self.unit_out[rows]].tolist())


@dataclass(frozen=True, eq=False)
class BatchOutcomes:
    """Per-replication results of :func:`run_batch`, in replication order.

    ``trdd`` is the first time fewer than two unfailed units occupy slots
    with no usable shelf unit left; ``tdt`` the time no unfailed unit
    occupies a slot; ``dp`` (type2 only) the first event epoch at which
    both slots hold an unfailed unit but no usable shelf unit is left.
    Each holds NaN where it did not occur before the horizon, where the
    oracle's scalar trace (``tests/oracle.py``) holds None.
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

    The struct-of-arrays form of the scalar event loop in
    ``tests/oracle.py``: one row per running replication and one column per
    position (the slots, then the shelf), so an installation or a rotation
    moves a column's unit state.  Each pass handles one event epoch of every
    running replication, with the scalar loop's event order and
    floating-point operations, so replication i equals the oracle's
    ``run_replication(config, policy, derive_seed(master_seed, i), ...)``
    exactly.  ``config.unit_lifetime.sample`` is called once, on a
    (replications, units) array of uniforms.

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
            # a tiny alpha overflows the division to inf, as it does in the scalar loop
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

    Replication i uses the i-th seed derived from ``sim.master_seed``, and
    its values equal those of the scalar oracle's ``run_replication`` in
    ``tests/oracle.py`` for that seed.
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
