"""Run-configuration documents: schema, defaults, validation.

A run configuration is a single JSON object with a mandatory
``schema_version`` and optional sections; every other field has a
documented default, so ``{"schema_version": 1}`` is a complete document.
The shipped ``schema/run_config.schema.json`` is the one statement of the
fields, their types, bounds and defaults: the loader walks it to validate a
document and fill in its defaults, then builds the domain objects, whose
constructors check the rules that span fields (a type2 policy needs a
rotation period, upgrade events are sorted, ...).  Unknown keys are
rejected, and every validation error names the offending field path
(e.g. ``hazard.burnin.scale``), or the label of the override that set it
(e.g. ``--seed``, for a command-line flag).  A constructor's error or
warning is prefixed with its section's path (``system: lab_burnin (30.0)
exceeds ...``), and a warning points at the line that called the loader.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

from .errors import ValidationError, warn
from .hazards import (
    BathtubModel,
    LifetimeDistribution,
    OperatorHazard,
    SoftwareHazardModel,
    UpgradeEvent,
    WeibullTerm,
)
from .maintenance import Policy
from .montecarlo import SimConfig
from .system import SystemConfig

__all__ = ["RunConfig", "SCHEMA_VERSION", "parse_config", "load_config"]

SCHEMA_VERSION = 1

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "null": lambda v: v is None,
}
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "maximum": (operator.le, "<="),
    "exclusiveMinimum": (operator.gt, ">"),
    "exclusiveMaximum": (operator.lt, "<"),
}


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


@functools.cache
def _schema() -> dict:
    path = Path(__file__).with_name("schema") / "run_config.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _same(a, b) -> bool:
    """JSON equality: ``true`` is not the number 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _check(schema: dict, value, path: str):
    """Validate ``value`` against a schema node; return it with defaults filled in.

    Handles the keywords the shipped schema uses: ``type``, ``const``,
    ``enum``, the four bounds, ``required``, ``properties``, ``items`` and
    ``default``; every object is closed to unknown keys.  Two rules are
    stricter than JSON Schema:

    - a number field takes finite values only (no NaN, no Infinity);
    - an integer field takes an int only, not a float such as ``1.0``.

    A number field's value comes back as a float, so ``20`` and ``20.0``
    configure the same run.
    """
    where = path or "config"
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
        _fail(where, f"must be of type {' or '.join(types)}, got {value!r}")
    if "const" in schema and not _same(value, schema["const"]):
        _fail(where, f"must be {schema['const']!r}, got {value!r}")
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        _fail(where, f"must be one of {schema['enum']}, got {value!r}")
    if _TYPES["number"](value):
        if "number" in types:
            # false for NaN, for Infinity and for an int no float can hold
            if not -sys.float_info.max <= value <= sys.float_info.max:
                _fail(where, f"must be a finite number, got {value!r}")
            value = float(value)
        for key, (holds, relation) in _BOUNDS.items():
            if key in schema and not holds(value, schema[key]):
                _fail(where, f"must be {relation} {schema[key]}, got {value!r}")
        return value
    if isinstance(value, list):
        return [_check(schema["items"], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, dict):
        return value
    props = schema.get("properties", {})
    prefix = f"{path}." if path else ""
    for key in schema.get("required", ()):
        if key not in value:
            _fail(prefix + key, "is required")
    for key in value:
        if key not in props:
            _fail(prefix + key, "unknown key")
    filled = {}
    for key, sub in props.items():
        if key in value:
            filled[key] = _check(sub, value[key], prefix + key)
        elif "default" in sub or sub.get("type") == "object":
            filled[key] = _check(sub, sub.get("default", {}), prefix + key)
    return filled


def _made(path: str, cls, /, **fields):
    """``cls(**fields)``, its validation errors and warnings prefixed with the section's
    path; :func:`~redzone.errors.warn` re-emits a warning at the loader's caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            made = cls(**fields)
        except ValidationError as e:
            raise ValidationError(f"{path}: {e}") from None
    for w in caught:
        warn(f"{path}: {w.message}", w.category)
    return made


class RunConfig(NamedTuple):
    """Validated configuration with its constructed domain objects."""

    system: SystemConfig
    policy: Policy
    sim: SimConfig
    vendor_mtbf: float | None
    warn_factor: float
    red_zone_threshold: float
    curve_dt: float
    baseline_window_fraction: float


def parse_config(doc, overrides=None) -> RunConfig:
    """Validate a configuration document and build the domain objects.

    ``overrides`` maps a field path (``"sim.master_seed"``) to a ``(label,
    value)`` pair; the value, checked against the field's schema node with
    errors naming ``label``, replaces the document's.
    """
    d = _check(_schema(), doc, "")
    for path, (label, value) in (overrides or {}).items():
        *parents, key = path.split(".")
        node, section = _schema(), d
        for name in parents:
            node, section = node["properties"][name], section[name]
        section[key] = _check(node["properties"][key], value, label)
    return _build(d)


def _build(d: dict) -> RunConfig:
    """The domain objects of a checked, defaulted configuration document."""
    hz = d["hazard"]
    for term in ("burnin", "wearout"):
        hz[term] = _made("hazard", WeibullTerm, **hz[term])
    hazard = _made("hazard", BathtubModel, **hz)

    software = None
    if (sw := d["software"]) is not None:
        sw["upgrade_events"] = [_made(f"software.upgrade_events[{i}]", UpgradeEvent, **ev)
                                for i, ev in enumerate(sw["upgrade_events"])]
        software = _made("software", SoftwareHazardModel, **sw)

    operator_hazard = None
    if d["operator"] is not None:
        operator_hazard = _made("operator", OperatorHazard, **d["operator"])

    lifetime = _made("lifetime", LifetimeDistribution, **d["lifetime"])
    system = _made("system", SystemConfig, hazard=hazard, unit_lifetime=lifetime,
                   software=software, operator=operator_hazard, **d["system"])
    policy = _made("policy", Policy, **d["policy"])
    sim = _made("sim", SimConfig, **d["sim"])

    an = d["analysis"]
    return RunConfig(
        system=system,
        policy=policy,
        sim=sim,
        vendor_mtbf=d["vendor"]["mtbf"],
        warn_factor=d["vendor"]["warn_factor"],
        red_zone_threshold=an["red_zone_threshold"],
        curve_dt=an["curve_dt"],
        baseline_window_fraction=an["baseline_window_fraction"],
    )


def load_config(path, overrides=None) -> RunConfig:
    """Read and validate a JSON configuration file; see :func:`parse_config`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ValidationError(f"config: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"config: {path} is not valid JSON: {e}") from e
    return parse_config(doc, overrides)
