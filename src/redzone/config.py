"""Run-configuration documents: schema, defaults, validation.

A run configuration is a single JSON object with a mandatory
``schema_version`` and optional sections; every other field has a
documented default, so ``{"schema_version": 1}`` is a complete document.
Unknown keys are rejected, and every validation error names the offending
field path (e.g. ``hazard.burnin.scale``).  The shipped
``schema/run_config.schema.json`` mirrors this loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ValidationError
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

__all__ = ["RunConfig", "SCHEMA_VERSION", "default_config", "parse_config", "load_config"]

SCHEMA_VERSION = 1


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _section(doc, key: str, path: str, allowed: set[str]):
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(f"{path}{key}", "must be a JSON object")
    for k in value:
        if k not in allowed:
            _fail(f"{path}{key}.{k}", "unknown key")
    return value


def _number(section, key: str, path: str, default, *, minimum=None, nullable=False):
    if key not in section:
        return default
    v = section[key]
    if v is None:
        if nullable:
            return None
        _fail(f"{path}.{key}", "must not be null")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"must be a number, got {v!r}")
    v = float(v)
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v


def _integer(section, key: str, path: str, default, *, minimum=None):
    if key not in section:
        return default
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v


def _choice(section, key: str, path: str, default, options):
    if key not in section:
        return default
    v = section[key]
    if v not in options:
        _fail(f"{path}.{key}", f"must be one of {sorted(options)}, got {v!r}")
    return v


def default_config() -> dict:
    """The fully defaulted configuration document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "hazard": {
            "useful_rate": 0.01,
            "burnin": {"scale": 0.9, "shape": 0.1},
            "wearout": {"scale": 1e-6, "shape": 3.0},
            "th1": 20.0,
            "th2": 180.0,
            "th3": 10.0,
        },
        "software": None,
        "operator": None,
        "lifetime": {"mean": 208.0, "sd": 2.0},
        "system": {"shelf_aging_factor": 0.0, "lab_burnin": 2.0, "warranty": None},
        "policy": {"kind": "type1", "rotation_period": None},
        "vendor": {"mtbf": None, "warn_factor": 0.8},
        "sim": {
            "replications": 1000,
            "master_seed": 1,
            "horizon": None,
            "dt_event": 1e-6,
            "bin_width": 5.0,
        },
        "analysis": {
            "red_zone_threshold": 2.0,
            "curve_dt": 0.1,
            "baseline_window_fraction": 0.8,
        },
    }


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with its constructed domain objects."""

    system: SystemConfig
    policy: Policy
    sim: SimConfig
    vendor_mtbf: float | None
    warn_factor: float
    red_zone_threshold: float
    curve_dt: float
    baseline_window_fraction: float
    rotation_period: float | None
    document: dict


_TOP_KEYS = {"schema_version", "hazard", "software", "operator", "lifetime",
             "system", "policy", "vendor", "sim", "analysis"}


def parse_config(doc) -> RunConfig:
    """Validate a configuration document and build the domain objects."""
    if not isinstance(doc, dict):
        _fail("config", "must be a JSON object")
    for k in doc:
        if k not in _TOP_KEYS:
            _fail(k, "unknown key")
    if "schema_version" not in doc:
        _fail("schema_version", "is required")
    if doc["schema_version"] != SCHEMA_VERSION:
        _fail("schema_version", f"must be {SCHEMA_VERSION}, got {doc['schema_version']!r}")

    d = default_config()

    hz = _section(doc, "hazard", "", {"useful_rate", "burnin", "wearout", "th1", "th2", "th3"})
    bt = _section(hz, "burnin", "hazard.", {"scale", "shape"})
    wt = _section(hz, "wearout", "hazard.", {"scale", "shape"})
    hz_d = d["hazard"]
    try:
        hazard = BathtubModel(
            useful_rate=_number(hz, "useful_rate", "hazard", hz_d["useful_rate"]),
            burnin=WeibullTerm(
                scale=_number(bt, "scale", "hazard.burnin", hz_d["burnin"]["scale"]),
                shape=_number(bt, "shape", "hazard.burnin", hz_d["burnin"]["shape"]),
            ),
            wearout=WeibullTerm(
                scale=_number(wt, "scale", "hazard.wearout", hz_d["wearout"]["scale"]),
                shape=_number(wt, "shape", "hazard.wearout", hz_d["wearout"]["shape"]),
            ),
            th1=_number(hz, "th1", "hazard", hz_d["th1"]),
            th2=_number(hz, "th2", "hazard", hz_d["th2"]),
            th3=_number(hz, "th3", "hazard", hz_d["th3"]),
        )
    except ValidationError as e:
        if ":" in str(e):
            raise
        _fail("hazard", str(e))

    software = None
    if doc.get("software") is not None:
        sw = _section(doc, "software", "",
                      {"steady_floor", "update_amplitude", "update_decay_tau", "upgrade_events"})
        events = []
        raw_events = sw.get("upgrade_events", [])
        if not isinstance(raw_events, list):
            _fail("software.upgrade_events", "must be a list")
        for i, ev in enumerate(raw_events):
            if not isinstance(ev, dict):
                _fail(f"software.upgrade_events[{i}]", "must be a JSON object")
            for k in ev:
                if k not in {"time", "kind", "pulse_amplitude", "pulse_decay_tau"}:
                    _fail(f"software.upgrade_events[{i}].{k}", "unknown key")
            try:
                events.append(UpgradeEvent(
                    time=_number(ev, "time", f"software.upgrade_events[{i}]", 0.0),
                    kind=_choice(ev, "kind", f"software.upgrade_events[{i}]", "minor",
                                 {"minor", "major"}),
                    pulse_amplitude=_number(ev, "pulse_amplitude",
                                            f"software.upgrade_events[{i}]", 0.0),
                    pulse_decay_tau=_number(ev, "pulse_decay_tau",
                                            f"software.upgrade_events[{i}]", 0.0),
                ))
            except ValidationError as e:
                if ":" in str(e):
                    raise
                _fail(f"software.upgrade_events[{i}]", str(e))
        try:
            software = SoftwareHazardModel(
                steady_floor=_number(sw, "steady_floor", "software", 0.0),
                update_amplitude=_number(sw, "update_amplitude", "software", 0.0),
                update_decay_tau=_number(sw, "update_decay_tau", "software", 0.0),
                upgrade_events=tuple(events),
            )
        except ValidationError as e:
            if ":" in str(e):
                raise
            _fail("software", str(e))

    operator = None
    if doc.get("operator") is not None:
        op = _section(doc, "operator", "", {"rate"})
        try:
            operator = OperatorHazard(rate=_number(op, "rate", "operator", 0.0))
        except ValidationError as e:
            if ":" in str(e):
                raise
            _fail("operator", str(e))

    lt = _section(doc, "lifetime", "", {"mean", "sd"})
    lt_d = d["lifetime"]
    try:
        lifetime = LifetimeDistribution(
            mean=_number(lt, "mean", "lifetime", lt_d["mean"]),
            sd=_number(lt, "sd", "lifetime", lt_d["sd"]),
        )
    except ValidationError as e:
        if ":" in str(e):
            raise
        _fail("lifetime", str(e))

    sy = _section(doc, "system", "", {"shelf_aging_factor", "lab_burnin", "warranty"})
    sy_d = d["system"]
    try:
        system = SystemConfig(
            hazard=hazard,
            unit_lifetime=lifetime,
            shelf_aging_factor=_number(sy, "shelf_aging_factor", "system",
                                       sy_d["shelf_aging_factor"]),
            lab_burnin=_number(sy, "lab_burnin", "system", sy_d["lab_burnin"]),
            warranty=_number(sy, "warranty", "system", sy_d["warranty"], nullable=True),
            software=software,
            operator=operator,
        )
    except ValidationError as e:
        if ":" in str(e):
            raise
        _fail("system", str(e))

    po = _section(doc, "policy", "", {"kind", "rotation_period"})
    po_d = d["policy"]
    kind = _choice(po, "kind", "policy", po_d["kind"], {"type1", "type2"})
    rotation_period = _number(po, "rotation_period", "policy", po_d["rotation_period"],
                              nullable=True)
    try:
        policy = Policy(kind=kind, rotation_period=rotation_period)
    except ValidationError as e:
        _fail("policy", str(e))

    ve = _section(doc, "vendor", "", {"mtbf", "warn_factor"})
    ve_d = d["vendor"]
    vendor_mtbf = _number(ve, "mtbf", "vendor", ve_d["mtbf"], nullable=True)
    warn_factor = _number(ve, "warn_factor", "vendor", ve_d["warn_factor"])
    if not warn_factor > 0.0:
        _fail("vendor.warn_factor", f"must be > 0, got {warn_factor}")
    if vendor_mtbf is not None and not vendor_mtbf > 0.0:
        _fail("vendor.mtbf", f"must be > 0, got {vendor_mtbf}")

    sm = _section(doc, "sim", "",
                  {"replications", "master_seed", "horizon", "dt_event", "bin_width"})
    sm_d = d["sim"]
    try:
        sim = SimConfig(
            replications=_integer(sm, "replications", "sim", sm_d["replications"], minimum=1),
            master_seed=_integer(sm, "master_seed", "sim", sm_d["master_seed"], minimum=0),
            horizon=_number(sm, "horizon", "sim", sm_d["horizon"], nullable=True),
            dt_event=_number(sm, "dt_event", "sim", sm_d["dt_event"]),
            bin_width=_number(sm, "bin_width", "sim", sm_d["bin_width"]),
        )
    except ValidationError as e:
        if ":" in str(e):
            raise
        _fail("sim", str(e))

    an = _section(doc, "analysis", "",
                  {"red_zone_threshold", "curve_dt", "baseline_window_fraction"})
    an_d = d["analysis"]
    threshold = _number(an, "red_zone_threshold", "analysis", an_d["red_zone_threshold"])
    if not threshold > 1.0:
        _fail("analysis.red_zone_threshold", f"must be > 1, got {threshold}")
    curve_dt = _number(an, "curve_dt", "analysis", an_d["curve_dt"])
    if not curve_dt > 0.0:
        _fail("analysis.curve_dt", f"must be > 0, got {curve_dt}")
    window = _number(an, "baseline_window_fraction", "analysis",
                     an_d["baseline_window_fraction"])
    if not 0.0 < window < 1.0:
        _fail("analysis.baseline_window_fraction", f"must lie in (0, 1), got {window}")

    return RunConfig(
        system=system,
        policy=policy,
        sim=sim,
        vendor_mtbf=vendor_mtbf,
        warn_factor=warn_factor,
        red_zone_threshold=threshold,
        curve_dt=curve_dt,
        baseline_window_fraction=window,
        rotation_period=rotation_period,
        document=doc,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ValidationError(f"config: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"config: {path} is not valid JSON: {e}") from e
    return parse_config(doc)
