"""Maintenance policies, decision points, and the red-zone condition.

Two interaction styles are supported:

* ``type1`` (replace on failure): the shelf spare is installed only when an
  active unit fails.  Simple, but the operator can locate the decision point
  only from vendor statistics.
* ``type2`` (periodic rotation): every ``rotation_period`` weeks the shelf
  unit is swapped with the in-slot unit of greatest effective age, which
  equalizes consumption across all three units.  The decision point becomes
  observable: the first moment the system is still redundant but the shelf
  is empty.

Failures are handled identically under both policies.  All planners here are
pure functions over immutable snapshots; the simulator owns mutation.
:func:`rotation_targets` is the rotation rule of :func:`plan_type2` over
arrays of replications, for the batched simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .system import Unit, effective_age

__all__ = [
    "Policy",
    "MaintenanceAction",
    "DecisionPoint",
    "FleetSnapshot",
    "default_rotation_period",
    "plan_type1",
    "plan_type2",
    "rotation_targets",
    "decision_point",
    "red_zone_condition",
]

TYPE1 = "type1"
TYPE2 = "type2"


@dataclass(frozen=True)
class Policy:
    """Maintenance policy: ``type1`` or ``type2`` (with a rotation period)."""

    kind: str
    rotation_period: float | None = None

    def __post_init__(self):
        if self.kind not in (TYPE1, TYPE2):
            raise ValidationError(f"policy kind must be 'type1' or 'type2', got {self.kind!r}")
        if self.kind == TYPE2:
            if self.rotation_period is None or not self.rotation_period > 0.0:
                raise ValidationError("type2 needs rotation_period > 0")


def default_rotation_period(unit_life_mean: float) -> float:
    """Default rotation period: one sixth of the unit life.

    Smaller periods equalize ages more tightly and push the redundant
    lifetime toward the 1.5x unit-life budget limit, at the cost of more
    touch points.
    """
    return unit_life_mean / 6.0


@dataclass(frozen=True)
class MaintenanceAction:
    """One planned swap: a replacement after failure or a periodic rotation."""

    time: float
    kind: str
    slot: int
    unit_in: str
    unit_out: str | None


@dataclass(frozen=True)
class DecisionPoint:
    """The moment the operator must choose: new system, more spares, or end.

    ``margin`` is the realisation time remaining after the decision point
    (total lifetime minus the decision point), filled in post hoc when the
    total lifetime is known.
    """

    time: float
    rule: str
    margin: float | None = None


@dataclass(frozen=True)
class FleetSnapshot:
    """Immutable view of slot/shelf occupancy used by the planners."""

    time: float
    slots: tuple[Unit | None, ...]
    shelf: Unit | None
    shelf_aging_factor: float = 0.0


def _shelf_usable(state: FleetSnapshot) -> bool:
    return state.shelf is not None and not state.shelf.failed


def plan_type1(state: FleetSnapshot, failed_slot: int) -> MaintenanceAction | None:
    """Install the shelf unit into a just-failed slot, if one is usable."""
    if not _shelf_usable(state):
        return None
    out = state.slots[failed_slot]
    return MaintenanceAction(
        time=state.time,
        kind="replace_failed",
        slot=failed_slot,
        unit_in=state.shelf.id,
        unit_out=out.id if out is not None else None,
    )


def plan_type2(state: FleetSnapshot, t: float) -> MaintenanceAction | None:
    """Rotate the shelf unit in for the oldest in-slot unit at epoch ``t``.

    The swap target is the slot whose unit has the greatest effective age;
    ties go to the lower slot index.  With the shelf empty (or its unit
    failed) rotation is suspended.
    """
    if not _shelf_usable(state):
        return None
    candidates = [(i, u) for i, u in enumerate(state.slots) if u is not None and not u.failed]
    if not candidates:
        return None
    oldest_slot, oldest = max(candidates,
                              key=lambda iu: (effective_age(iu[1], state.shelf_aging_factor), -iu[0]))
    return MaintenanceAction(
        time=t,
        kind="rotate",
        slot=oldest_slot,
        unit_in=state.shelf.id,
        unit_out=oldest.id,
    )


def rotation_targets(ages: np.ndarray, alive: np.ndarray, shelf_usable: np.ndarray) -> np.ndarray:
    """:func:`plan_type2` for many fleets at once: each row's swap slot, or -1.

    ``ages`` and ``alive`` are (rows, slots) arrays of effective ages and
    unfailed flags, ``shelf_usable`` a (rows,) flag.  The rule is the scalar
    one: the unfailed slot of greatest effective age, ties to the lower
    slot index, and no swap without a usable shelf unit or an unfailed slot.
    """
    target = np.argmax(np.where(alive, ages, -np.inf), axis=1)
    return np.where(shelf_usable & alive.any(axis=1), target, -1)


def decision_point(policy: Policy, *, trace=None, vendor_mtbf: float | None = None,
                   warn_factor: float = 0.8, commissioning: float = 0.0) -> DecisionPoint | None:
    """Locate the decision point for a policy.

    ``type1``: only vendor statistics are available, so the point is
    estimated as ``commissioning + warn_factor * vendor_mtbf``; the factor is
    configuration, not truth.  ``type2``: read off a completed trace as the
    first instant the system is redundant with an empty shelf; absent when
    that never happens.
    """
    if policy.kind == TYPE1:
        if vendor_mtbf is None:
            raise DomainError("type1 decision point needs a configured vendor MTBF")
        if not vendor_mtbf > 0.0:
            raise DomainError(f"vendor_mtbf must be > 0, got {vendor_mtbf!r}")
        if not warn_factor > 0.0:
            raise DomainError(f"warn_factor must be > 0, got {warn_factor!r}")
        dp = commissioning + warn_factor * vendor_mtbf
        return DecisionPoint(time=dp, rule="vendor_mtbf")
    if trace is None:
        raise DomainError("type2 decision point needs a completed trace")
    if trace.dp is None:
        return None
    margin = None if trace.tdt is None else trace.tdt - trace.dp
    return DecisionPoint(time=trace.dp, rule="shelf_empty", margin=margin)


def red_zone_condition(delta_spread: float, th3: float) -> bool:
    """Whether the critical end-of-life window can exist: spread < th3, strict."""
    if delta_spread < 0.0:
        raise DomainError(f"delta_spread must be >= 0, got {delta_spread!r}")
    if not th3 > 0.0:
        raise DomainError(f"th3 must be > 0, got {th3!r}")
    return delta_spread < th3
