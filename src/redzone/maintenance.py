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
is installed into the failed slot.  The simulator owns all state and
applies these rules itself; :func:`rotation_targets` picks the rotation
target of many fleets at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ValidationError
from .value import Value

__all__ = [
    "Policy",
    "rotation_targets",
    "red_zone_condition",
]

TYPE1 = "type1"
TYPE2 = "type2"


class Policy(Value):
    """Maintenance policy: ``type1`` or ``type2`` (with a rotation period)."""

    __slots__ = ("kind", "rotation_period")

    def __init__(self, kind: str, rotation_period: float | None = None):
        self._set(kind=kind, rotation_period=rotation_period)
        if self.kind not in (TYPE1, TYPE2):
            raise ValidationError(f"policy kind must be 'type1' or 'type2', got {self.kind!r}")
        if self.kind == TYPE2 and self.rotation_period is None:
            raise ValidationError("type2 needs rotation_period > 0")
        if self.rotation_period is not None and not 0.0 < self.rotation_period < math.inf:
            raise ValidationError(f"rotation_period must be finite and > 0, "
                                  f"got {self.rotation_period!r}")


def rotation_targets(ages: np.ndarray, alive: np.ndarray, shelf_usable: np.ndarray) -> np.ndarray:
    """The rotation target of many fleets at once: each row's swap slot, or -1.

    ``ages`` and ``alive`` are (slots, rows) arrays of effective ages and
    unfailed flags, ``shelf_usable`` a (rows,) flag.  The target is the
    unfailed slot of greatest effective age, ties to the lower slot index,
    and there is no swap without a usable shelf unit or an unfailed slot.
    """
    target = np.zeros(len(shelf_usable), dtype=np.intp)
    oldest = np.full(len(shelf_usable), -np.inf)
    for s, age in enumerate(np.where(alive, ages, -np.inf)):
        target = np.where(age > oldest, s, target)  # strict: a tie keeps the lower slot
        oldest = np.maximum(oldest, age)
    return np.where(shelf_usable & (oldest > -np.inf), target, -1)


def red_zone_condition(delta_spread: float, th3: float) -> bool:
    """Whether the critical end-of-life window can exist: spread < th3, strict."""
    if delta_spread < 0.0:
        raise DomainError(f"delta_spread must be >= 0, got {delta_spread!r}")
    if not th3 > 0.0:
        raise DomainError(f"th3 must be > 0, got {th3!r}")
    return delta_spread < th3
