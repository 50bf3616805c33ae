"""Seeded, deterministic Monte Carlo simulation of system lifetimes.

One replication takes a lifetime per unit, then advances an event queue in
which a unit fails exactly when its effective consumed life (lab credit +
aged shelf time + on-job time) crosses its lifetime.  Between maintenance
events consumption is linear, so crossings are solved in closed form; there
is no integration step.  Simultaneous events are ordered failure < replace
< rotate, and equal-time failures break ties by slot index.

:func:`run_batch` runs all replications of an ensemble in lockstep over
position-major numpy arrays, one pass per event epoch that skips the event
kinds no replication is due for; on request it also records every replication's
event log as one :class:`EventLog` table.  Replace on failure runs as rotation
at an infinite period, so both policies take one path, and where it can a
shared state first takes all replications through the leading rotation epochs
at which none has any other event.  It alone says when the spare goes in, how
old it is then and when it dies: every ensemble and every scenario timeline
runs it.  The tests hold its per-replication results and event logs, bit for
bit, to a scalar event loop over per-unit age ledgers kept in
``tests/oracle.py``.  The module keeps what the outputs read: :class:`Metrics`,
the summaries ``simulate`` and ``compare`` print, and :func:`_event_tails`, the
one table that decodes the event codes ``simulate --events-out`` writes.

Randomness comes from splitmix64 streams: 64-bit state advanced by the
golden-gamma increment 0x9E3779B97F4A7C15 and finalized by the standard
avalanche mix (xor-shift 30 / multiply 0xBF58476D1CE4E5B9 / xor-shift 27 /
multiply 0x94D049BB133111EB / xor-shift 31), period 2**64.  Per-replication
seeds are derived by mixing the master seed with the replication index, so
replications are independent of execution order.  Uniform variates are
((u64 >> 11) + 0.5) * 2**-53, strictly inside (0, 1): the one value that
rounds to 1.0, u64 >> 11 = 2**53 - 1, is taken as 1 - 2**-53.  The
generator is implemented here, in integer arithmetic (wrapping uint64
arrays for the batched engine), so the uniforms do not depend on any
library version; golden vectors are frozen in the tests.  The lifetimes do:
numpy's ``log`` and ``exp`` loops may differ by an ulp between its versions
and CPU dispatch levels, and so may output bytes.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, RedzoneError, ValidationError
from .maintenance import Policy, rotation_targets
from .value import Value

if TYPE_CHECKING:
    from .system import SystemConfig

__all__ = [
    "SimConfig",
    "MetricSummary",
    "Metrics",
    "EVENT_KINDS",
    "EventLog",
    "BatchOutcomes",
    "sample_lifetimes",
    "run_batch",
    "run_ensemble",
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
    master + i * golden gamma, a bijection of i for a fixed master in [0, 2**64)."""
    if not 0 <= master_seed <= _MASK64:
        raise DomainError(f"master_seed must be in [0, 2**64), got {master_seed!r}")
    with np.errstate(over="ignore"):
        steps = np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA)
        return _mix64_array(np.uint64(master_seed) + steps)


def _uniforms(seeds: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` uniform draws of each seed's splitmix64 stream, shape (n, k)."""
    with np.errstate(over="ignore"):
        states = seeds[:, None] + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        bits = _mix64_array(states) >> np.uint64(11)
    return np.minimum((bits.astype(float) + 0.5) * (2.0 ** -53), _BELOW_ONE)


class SimConfig(Value):
    """Ensemble parameters.

    ``horizon`` defaults to five mean lifetimes; replications still alive
    there are censored rather than simulated unboundedly.
    """

    __slots__ = ("replications", "master_seed", "horizon")

    def __init__(self, replications: int = 1000, master_seed: int = 1,
                 horizon: float | None = None):
        self._set(replications=replications, master_seed=master_seed, horizon=horizon)
        for name in ("replications", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValidationError(f"master_seed must be in [0, {_MASK64}]")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValidationError("horizon must be finite and > 0")


class MetricSummary(NamedTuple):
    """Mean, sample standard deviation, and 95% interval of one metric."""

    mean: float
    std: float
    ci_low: float
    ci_high: float


def _summarize(values: np.ndarray) -> MetricSummary | None:
    n = len(values)
    if n == 0:
        return None
    mean = float(np.mean(values))
    std = 0.0 if n < 2 else float(np.std(values, ddof=1))
    half = 1.96 * std / math.sqrt(n)
    return MetricSummary(mean=mean, std=std, ci_low=mean - half, ci_high=mean + half)


class Metrics(NamedTuple):
    """Ensemble statistics over N replications, as ``simulate`` and ``compare`` print them.

    Summaries cover the defined observations only (a censored replication
    has no total lifetime); ``censored_count`` counts those cut at the
    horizon.  ``tdt_values``, the defined total lifetimes, give the type1
    decision margin.
    """

    censored_count: int
    trdd: MetricSummary | None
    tdt: MetricSummary | None
    dp: MetricSummary | None
    tdr: MetricSummary | None
    tdt_values: np.ndarray

    @classmethod
    def from_batch(cls, out: BatchOutcomes) -> Metrics:
        """Aggregate a :func:`run_batch` result in replication order."""
        tdt_values = _defined(out.tdt)
        return cls(
            censored_count=int(np.count_nonzero(out.censored)),
            trdd=_summarize(_defined(out.trdd)),
            tdt=_summarize(tdt_values),
            dp=_summarize(_defined(out.dp)),
            tdr=_summarize(_defined(out.tdt - out.dp)),
            tdt_values=tdt_values,
        )


def _defined(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values)]


# First axis of the batched engine's unit table: lifetime, lab credit, shelf age,
# on-job age, and (only while recording events) the unit's roster index.
_LIFE, _LAB, _SHELF, _ONJOB, _ID = range(5)

# The most passes run_batch takes on.  The tests' periods need a few thousand at most;
# a pass per epoch of a period far smaller would run for hours.
_MAX_PASSES = 10**6


def _consumed(units: np.ndarray, alpha: float) -> np.ndarray:
    """Each unit's effective consumed life: lab credit + alpha * shelf time + on-job time."""
    return units[_LAB] + alpha * units[_SHELF] + units[_ONJOB]


def _due(units: np.ndarray, t, alpha: float) -> np.ndarray:
    """When each position's unit fails, from time ``t``: ``t`` + its life left, the
    shelf's (the last position's) divided by alpha and never due at alpha 0."""
    left = units[_LIFE] - _consumed(units, alpha)
    with np.errstate(over="ignore"):  # a tiny alpha overflows to inf, as in the scalar loop
        left[-1] = left[-1] / alpha if alpha > 0.0 else np.inf
    return t + left


EVENT_KINDS = ("failure", "replace", "rotate", "dp", "system_death")
_FAILURE, _REPLACE, _ROTATE, _DP, _DEATH = range(len(EVENT_KINDS))
# Codes of EventLog.unit/unit_out and EventLog.slot, decoded by indexing these
# tables: a roster index or -1 for no unit; a slot index, -2 the shelf or -1 none.
_NONE, _SHELF_SLOT = -1, -2
_UNIT_IDS = ("controller_1", "controller_2", "controller_3", None)
_SLOTS = (0, 1, "shelf", None)
# The code columns' tables, in the order of the CSV row's cells.
_EVENT_CODE_TABLES = (EVENT_KINDS, _UNIT_IDS, _SLOTS, _UNIT_IDS)


@functools.cache
def _event_tails() -> np.ndarray:
    """The CSV row tail ``,kind,unit,slot,unit_out\\n`` of every code combination, indexed
    ``[kind, unit, slot, unit_out]`` (a negative code from the end of its axis): the kind
    name, ``controller_{i+1}``, the slot index or ``shelf``, and an empty cell for none."""
    return np.array(["," + ",".join("" if v is None else str(v) for v in combo) + "\n"
                     for combo in itertools.product(*_EVENT_CODE_TABLES)],
                    dtype=object).reshape(tuple(map(len, _EVENT_CODE_TABLES)))


class EventLog(NamedTuple):
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


class BatchOutcomes(NamedTuple):
    """Per-replication results of :func:`run_batch`, in replication order.

    ``trdd`` is the first time fewer than two unfailed units occupy slots
    with no usable shelf unit left; ``tdt`` the time no unfailed unit
    occupies a slot; ``dp`` (under rotation) the first event epoch at which
    both slots hold an unfailed unit but no usable shelf unit is left.
    Each holds NaN where it did not occur before the horizon, where the
    oracle's scalar trace (``tests/oracle.py``) holds None.
    ``events`` is the ensemble's event log when it was recorded, else None.
    """

    trdd: np.ndarray
    tdt: np.ndarray
    dp: np.ndarray
    censored: np.ndarray
    events: EventLog | None = None


def sample_lifetimes(config: SystemConfig, master_seed: int, replications: int) -> np.ndarray:
    """The (N, 3) unit lifetimes of replications 0..N-1 of ``master_seed``, in one draw."""
    return config.unit_lifetime.sample(_uniforms(_derive_seeds(master_seed, replications), 3))


def run_batch(config: SystemConfig, policy: Policy, lifetimes, *, horizon: float | None = None,
              record_events: bool = False) -> BatchOutcomes:
    """Simulate one replication per row of ``lifetimes``, in lockstep: (N, 3) unit
    lifetimes in roster order (slot 0's unit, slot 1's, then the shelf spare).

    The struct-of-arrays form of the scalar event loop in ``tests/oracle.py``,
    laid out by position: ``units[field, position, row]`` (the slots, then the
    shelf) and ``failed[slot, row]``, so each two-slot step is elementwise
    over contiguous rows.  Each pass handles one event epoch of every running
    replication, with the scalar loop's event order and floating-point
    operations, so at :func:`sample_lifetimes` of ``master_seed`` replication i
    equals the oracle's ``run_replication`` for ``derive_seed(master_seed, i)``
    exactly.  A pass first drops the rows next due past the horizon, as
    censored, and skips an event kind, or the compaction of dead rows, that no
    row is due for.  The policy is read once, as a rotation period: replace on
    failure (type1) is rotation at an infinite period, never due, so both
    policies take one path and only the ``dp`` record asks which one runs.

    The engine rests on one invariant: a usable shelf spare means both slots
    are up.  A slot stays failed only when no usable spare was left to fill it,
    and ``spare`` is only ever cleared.  So a rotation always finds two
    unfailed slots, and a row with a failed slot has no usable spare.

    Lifetimes must be finite and >= 0, and ``horizon`` > 0 (``inf`` allowed),
    or :class:`DomainError`.  Each pass gives every running row an event of its
    own or censors it, so a row takes at most three failure passes, one per
    unit; one rotation pass per epoch up to the horizon and its lifetime sum
    (it has a unit on the job until it dies), plus one for rounding, all that
    an infinite period has; and the censoring pass: five under type1.  A row
    still running after that many passes is an engine fault and raises
    :class:`RedzoneError` instead of hanging; a period so small that the bound
    exceeds ``_MAX_PASSES`` raises :class:`ValidationError` before any pass.  Passes
    are counted, not time: a spare installed with no life left fails in a pass of its
    own at the same instant.

    With ``record_events`` the result also holds the event logs (:class:`EventLog`),
    equal to the scalar traces' events: each pass appends a block of rows per
    event kind, in the scalar loop's order within an epoch, and a stable sort
    on the replication index groups the blocks into per-replication logs.

    The lead runs first when every row starts with a usable shelf spare and the first
    rotation falls by the horizon and the largest lifetime sum (never at an infinite
    period).  Until its first failure every row holds the same ages in the same
    positions and rotates the same slot, so one shared state, with each position's
    least lifetime over the rows, stands for them all.  The lead and the loop take due
    times from the one :func:`_due`, and rounding is monotone in the lifetime, so the
    shared state is due past epoch ``e`` exactly when no row is.  It takes the
    rotations of such epochs, one block of event rows each, up to the first epoch that
    a failure ties, another event precedes or those bounds cut, then, if it took any,
    hands every row its units back in place; results and event logs are the loop's.
    """
    if horizon is None:
        horizon = 5.0 * config.unit_lifetime.mean
    if not horizon > 0.0:
        raise DomainError(f"horizon must be > 0, got {horizon!r}")
    alpha = config.shelf_aging_factor
    period = policy.rotation_period if policy.kind == "type2" else math.inf
    S = 2  # position of the shelf, after the two slots
    lifetimes = np.asarray(lifetimes, dtype=float)
    if lifetimes.ndim != 2 or lifetimes.shape[1] != S + 1:
        raise DomainError(f"lifetimes must have shape (N, 3), got {lifetimes.shape}")
    if not ((lifetimes >= 0.0) & (lifetimes < np.inf)).all():
        raise DomainError("lifetimes must be finite and >= 0")
    # the pass bound (see above): 3 failures, the censoring pass, the rotation epochs
    cap = min(horizon, lifetimes.sum(axis=1).max(initial=0.0))
    passes = 5 + math.floor(min(cap / period, _MAX_PASSES))
    if passes > _MAX_PASSES:
        raise ValidationError(f"rotation period {period!r} gives {cap / period:.3g} "
                              f"rotation epochs in {float(cap):.6g} weeks, past the "
                              f"{_MAX_PASSES} passes an ensemble may take; raise the "
                              "period or lower the horizon",
                              fields=("policy.rotation_period", "sim.horizon"))

    replications = len(lifetimes)
    units = np.zeros((_ID + int(record_events), S + 1, replications))
    units[_LIFE] = lifetimes.T
    units[_LAB, S] = config.lab_burnin
    failed = np.zeros((S, replications), dtype=bool)
    # a usable shelf unit: not installed, not failed, not dead on arrival from its lab credit
    spare = units[_LAB, S] < units[_LIFE, S]
    t = np.zeros(replications)
    rotation = np.ones(replications)
    rows = np.arange(replications)  # replication index of each running row

    trdd, tdt, dp = np.full((3, replications), np.nan)

    columns = ([], [], [], [], [], [])  # replication, time, kind, unit, slot, unit_out

    def record(sel, kind, unit=None, slot=_NONE, unit_out=None):
        # unit and unit_out are positions, read before the event moves their units; an
        # empty block is kept only first, where it gives each column its dtype
        if record_events and ((at := np.flatnonzero(sel)).size or not columns[0]):
            n = at.size
            ids = [np.full(n, _NONE, np.int8) if p is None
                   else units[_ID, p].take(at).astype(np.int8) for p in (unit, unit_out)]
            block = (rows.take(at), t.take(at), np.full(n, kind, np.int8), ids[0],
                     np.full(n, slot, np.int8), ids[1])
            for column, values in zip(columns, block):
                column.append(values)

    if record_events:
        units[_ID] = np.arange(S + 1)[:, None]
    record(~spare, _FAILURE, S, _SHELF_SLOT)

    if replications and spare.all() and period <= cap:
        # the lead (see above): every row's ages and roster ids, and the least lifetimes
        lead = units[:, :, 0].copy()
        lead[_LIFE] = units[_LIFE].min(axis=1)
        order = list(range(S + 1))  # the starting position of each position's unit
        now, epoch = 0.0, 1.0
        while (when := epoch * period) <= cap:  # past every lifetime sum a unit has died
            if not (_due(lead, now, alpha) > when).all():  # strict: a tying failure goes first
                break
            lead[_ONJOB, :S] += when - now
            lead[_SHELF, S] += when - now
            now, epoch = when, epoch + 1.0
            s = rotation_targets(_consumed(lead[:, :S], alpha), True)
            if record_events:
                codes = np.array((_ROTATE, order[S], s, order[s]), np.int8)
                for column, value in zip(columns, (rows, now, *codes)):
                    column.append(np.broadcast_to(value, replications))
            lead[:, [s, S]] = lead[:, [S, s]]
            order[s], order[S] = order[S], order[s]
        if epoch > 1.0:  # it rotated; in place, as units[:, order] is a new table
            units[_LIFE] = units[_LIFE, order]
            units[_LAB:] = lead[_LAB:, :, None]
            t[:], rotation[:] = now, epoch

    for _ in range(passes):
        # when each slot's unit and the spare fail and the next rotation falls; inf: never
        due_at = np.empty((S + 2, rows.size))
        due_at[:S + 1] = _due(units, t, alpha)
        np.multiply(rotation, period, out=due_at[S + 1])
        np.copyto(due_at[:S], np.inf, where=failed)
        np.copyto(due_at[S], np.inf, where=~spare)
        t_next = due_at.min(axis=0)
        step = t_next - t
        # failed units and an emptied shelf also age here; nothing reads them again
        units[_ONJOB, :S] += step
        units[_SHELF, S] += step
        t = t_next

        cut = t > horizon
        if cut.any():
            rows, t, rotation, spare, units, failed, due_at = (
                np.compress(~cut, a, -1) for a in (rows, t, rotation, spare, units, failed, due_at))
        due = due_at == t

        # due events: slot failures in ascending slot, then the shelf, then the rotation
        for s in range(S):
            hit = due[s]
            if hit.any():
                install = hit & spare
                record(hit, _FAILURE, s, s)
                record(install, _REPLACE, S, s, s)
                units[:, s] = np.where(install, units[:, S], units[:, s])
                failed[s] |= hit & ~install
                spare &= ~install
        hit = due[S] & spare
        spare &= ~hit
        record(hit, _FAILURE, S, _SHELF_SLOT)
        hit = due[S + 1]
        if hit.any():
            rotation += hit
            target = rotation_targets(_consumed(units[:, :S], alpha), hit & spare)
            for s in range(S):
                swap = target == s
                if swap.any():
                    record(swap, _ROTATE, S, s, s)
                    units[:, s], units[:, S] = (np.where(swap, units[:, S], units[:, s]),
                                                np.where(swap, units[:, s], units[:, S]))

        alive = (~failed).sum(axis=0, dtype=np.int8)
        first = (alive < 2) & np.isnan(trdd[rows])
        trdd[rows[first]] = t[first]
        if period < math.inf:  # under replace on failure dp is the vendor's estimate
            first = (alive == S) & ~spare & np.isnan(dp[rows])
            dp[rows[first]] = t[first]
            record(first, _DP)
        dead = alive == 0
        if dead.any():
            tdt[rows[dead]] = t[dead]
            record(dead, _DEATH)
            rows, t, rotation, spare, units, failed = (
                np.compress(~dead, a, -1) for a in (rows, t, rotation, spare, units, failed))
        if not rows.size:  # a row leaves the loop when it dies or is censored
            break
    else:
        raise RedzoneError(f"run_batch: {rows.size} replications still running after "
                           f"{passes} passes, the most their lifetimes and horizon allow")

    return BatchOutcomes(trdd=trdd, tdt=tdt, dp=dp, censored=np.isnan(tdt),
                         events=_event_log(columns) if record_events else None)


def _event_log(columns) -> EventLog:
    """Concatenate the recorded blocks and group them by replication, stably.

    The order comes from the replication column; then each column in turn is
    concatenated, gathered into the log and released with its blocks, so at
    most one concatenated column is held beside the blocks and the log.  The
    block recorded before the loop, empty or not, gives each column its
    dtype, so an ensemble with no events still has typed columns.  Every block
    records the codes, unit ids among them, as int8, so they are gathered as
    recorded.
    """
    order = None
    log = []
    for blocks in columns:
        column = np.concatenate(blocks)
        blocks.clear()
        if order is None:
            order = np.argsort(column, kind="stable")
        log.append(column[order])
        del column  # before the next column is concatenated
    return EventLog(*log)


def run_ensemble(config: SystemConfig, policy: Policy, sim: SimConfig) -> Metrics:
    """Run N replications with :func:`run_batch` and aggregate in index order.

    Replication i samples the i-th seed derived from ``sim.master_seed``, and its
    values equal the scalar oracle's ``run_replication`` (``tests/oracle.py``) for it.
    """
    lifetimes = sample_lifetimes(config, sim.master_seed, sim.replications)
    return Metrics.from_batch(run_batch(config, policy, lifetimes, horizon=sim.horizon))

