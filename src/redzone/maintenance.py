"""Maintenance policies, the rotation rule, and the red-zone condition.

Two interaction styles are supported:

* ``type1`` (replace on failure): the shelf spare is installed only when an
  active unit fails.  Simple, but the operator can locate the decision point
  only from vendor statistics.
* ``type2`` (periodic rotation): every ``rotation_period`` weeks the shelf
  unit is swapped with the in-slot unit of greatest effective age, which
  equalizes consumption across all three units.  The decision point becomes
  observable: the first moment the system is still redundant but has no
  usable shelf unit.

Failures are handled identically under both policies: a usable shelf unit
is installed into the failed slot.  The simulators own all state and apply
these rules themselves; :func:`oldest_slot` picks the rotation target for
one fleet and :func:`rotation_targets` for many fleets at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .system import Unit, effective_age

__all__ = [
    "Policy",
    "default_rotation_period",
    "oldest_slot",
    "rotation_targets",
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


def oldest_slot(slots: Sequence[Unit | None], shelf_aging_factor: float) -> int | None:
    """The rotation target: the unfailed slot of greatest effective age.

    Ties go to the lower slot index; ``None`` when every slot is empty or
    failed.  This is the scalar form of :func:`rotation_targets`.
    """
    candidates = [i for i, u in enumerate(slots) if u is not None and not u.failed]
    return max(candidates, key=lambda i: (effective_age(slots[i], shelf_aging_factor), -i),
               default=None)


def rotation_targets(ages: np.ndarray, alive: np.ndarray, shelf_usable: np.ndarray) -> np.ndarray:
    """:func:`oldest_slot` for many fleets at once: each row's swap slot, or -1.

    ``ages`` and ``alive`` are (rows, slots) arrays of effective ages and
    unfailed flags, ``shelf_usable`` a (rows,) flag.  The rule is the scalar
    one: the unfailed slot of greatest effective age, ties to the lower
    slot index, and no swap without a usable shelf unit or an unfailed slot.
    """
    target = np.argmax(np.where(alive, ages, -np.inf), axis=1)
    return np.where(shelf_usable & alive.any(axis=1), target, -1)


def red_zone_condition(delta_spread: float, th3: float) -> bool:
    """Whether the critical end-of-life window can exist: spread < th3, strict."""
    if delta_spread < 0.0:
        raise DomainError(f"delta_spread must be >= 0, got {delta_spread!r}")
    if not th3 > 0.0:
        raise DomainError(f"th3 must be > 0, got {th3!r}")
    return delta_spread < th3
