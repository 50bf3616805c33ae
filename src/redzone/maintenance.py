"""Maintenance policies and the rotation rule.

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
target of the two slots, of many systems at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .value import Value

__all__ = [
    "Policy",
    "rotation_targets",
]

TYPE1 = "type1"
TYPE2 = "type2"


class Policy(Value):
    """Maintenance policy: ``type1`` or ``type2`` (with a rotation period)."""

    __slots__ = ("kind", "rotation_period")

    def __init__(self, kind: str, rotation_period: float | None):
        self._set(kind=kind, rotation_period=rotation_period)
        if self.kind not in (TYPE1, TYPE2):
            raise ValidationError(f"policy kind must be 'type1' or 'type2', got {self.kind!r}")
        if self.kind == TYPE2 and self.rotation_period is None:
            raise ValidationError("type2 needs rotation_period > 0",
                                  fields=("policy.rotation_period",))
        if self.rotation_period is not None and not 0.0 < self.rotation_period < math.inf:
            raise ValidationError(f"rotation_period must be finite and > 0, "
                                  f"got {self.rotation_period!r}")


def rotation_targets(ages: np.ndarray, shelf_usable) -> np.ndarray:
    """The rotation target of the two slots: the swap slot, or -1; elementwise over rows.

    ``ages`` holds each slot's effective age on its first axis, ``shelf_usable``
    the shelf's flag.  The target is the slot of greater effective age, a tie
    to slot 0, and there is no swap without a usable shelf unit.  Both slots
    are up whenever the shelf unit is usable, so there is no failed slot to skip.
    """
    return np.where(shelf_usable, ages[1] > ages[0], -1)
