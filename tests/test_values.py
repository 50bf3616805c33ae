"""Value semantics of every public value type: records are ``typing.NamedTuple``s,
validated types derive from ``redzone.value.Value``, and both are frozen, build
copies with ``_replace`` and, but for ``HazardCurve``, compare by value."""

import functools
import inspect
import pickle
import typing

import numpy as np
import pytest

from redzone import (
    Policy,
    SimConfig,
    UpgradeEvent,
    ValidationError,
    assess_red_zone,
    compare_policies,
    delta_sweep,
    scenario_timeline,
    system_hazard_curve,
)
from redzone import analysis, config, hazards, maintenance, montecarlo, system
from redzone.config import parse_config
from redzone.montecarlo import run_batch, sample_lifetimes
from redzone.value import Value

from conftest import make_redzone_system, make_software_system

MODULES = (hazards, system, maintenance, montecarlo, analysis, config)
SWEEP = {"threshold": 2.0, "dt": 0.1, "baseline_window_fraction": 0.8}
# every class a module exports, but the errors
TYPES = {name: cls for m in MODULES for name in m.__all__
         if inspect.isclass(cls := getattr(m, name)) and not issubclass(cls, Exception)}
VALIDATED = sorted(name for name, cls in TYPES.items() if issubclass(cls, Value))
RECORDS = sorted(name for name, cls in TYPES.items()
                 if issubclass(cls, tuple) and typing.NamedTuple in cls.__orig_bases__)


@functools.cache
def one_of_each() -> dict:
    """An instance of each public value type, by class name."""
    software_system = make_software_system(
        upgrades=(UpgradeEvent(50.0, "minor", 0.002, 4.0),), operator_rate=0.001)
    red = make_redzone_system(delta=2.0)
    run = parse_config({"schema_version": 1, "sim": {"replications": 20}})
    timeline = scenario_timeline(red)
    out = run_batch(red, Policy("type2", rotation_period=34.67), sample_lifetimes(red, 1, 20),
                    record_events=True)
    report = compare_policies(red, 34.67, SimConfig(replications=20), warn_factor=0.8)
    assessment = assess_red_zone(red, **SWEEP)
    values = [
        software_system, software_system.hazard, software_system.hazard.burnin,
        software_system.unit_lifetime, software_system.software,
        software_system.software.upgrade_events[0], software_system.operator,
        run, run.policy, run.sim,
        timeline, timeline.segments[0], timeline.segments[0].units[0],
        (curve := system_hazard_curve(timeline, dt=0.5)), curve.grid,
        out, out.events, report, report.metrics_type1, report.metrics_type1.trdd,
        assessment, assessment.zone,
        delta_sweep(red, [2.0], Policy("type1"), SimConfig(replications=20), **SWEEP)[0],
    ]
    return {type(v).__name__: v for v in values}


def test_every_public_value_type_is_covered():
    assert (len(VALIDATED), len(RECORDS)) == (13, 10)
    assert sorted(TYPES) == sorted(VALIDATED + RECORDS) == sorted(one_of_each())


def test_validated_types_are_not_tuples():
    # a tuple's _replace would build through tuple.__new__, past the checks
    assert not any(issubclass(TYPES[name], tuple) for name in VALIDATED)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_frozen(name):
    value = one_of_each()[name]
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_replace_keeps_the_other_fields(name):
    value = one_of_each()[name]
    first = value._fields[0]
    copy = value._replace(**{first: getattr(value, first)})
    assert type(copy) is type(value) and copy is not value
    assert all(getattr(copy, f) is getattr(value, f) for f in value._fields)


BAD_VALUES = [
    ("WeibullTerm", "shape", 0.0),
    ("BathtubModel", "useful_rate", 0.0),
    ("LifetimeDistribution", "sd", -1.0),
    ("UpgradeEvent", "kind", "patch"),
    ("SoftwareHazardModel", "steady_floor", -1.0),
    ("OperatorHazard", "rate", -1.0),
    ("Policy", "rotation_period", 0.0),
    ("SimConfig", "replications", 0),
    ("SystemConfig", "shelf_aging_factor", 2.0),
    ("ScenarioSegment", "t_end", 0.0),
    ("RedZone", "end", 0.0),
    ("HazardCurve", "rates", np.zeros(1)),
    ("Grid", "dt", 0.0),
]


def test_bad_values_cover_every_validated_type():
    assert sorted(name for name, _, _ in BAD_VALUES) == VALIDATED


@pytest.mark.parametrize("name, field, bad", BAD_VALUES, ids=[c[0] for c in BAD_VALUES])
def test_replace_checks_like_the_constructor(name, field, bad):
    with pytest.raises(ValidationError):
        one_of_each()[name]._replace(**{field: bad})


def test_replace_derives_the_derived_attributes_again():
    bathtub = one_of_each()["BathtubModel"]
    assert bathtub._replace(th1=40.0).clamp_floor == 1e-6 * 40.0
    lifetime = one_of_each()["LifetimeDistribution"]
    wider = lifetime._replace(sd=40.0)
    fresh = type(lifetime)(lifetime.mean, 40.0)
    assert (wider.location, wider.scale) == (fresh.location, fresh.scale) != (
        lifetime.location, lifetime.scale)
    assert "clamp_floor" not in type(bathtub)._fields


def test_software_model_holds_its_events_as_a_tuple():
    model = one_of_each()["SoftwareHazardModel"]
    rebuilt = model._replace(upgrade_events=list(model.upgrade_events))
    assert type(rebuilt.upgrade_events) is tuple and rebuilt == model


@pytest.mark.parametrize("name", [n for n in VALIDATED if n != "HazardCurve"])
def test_validated_values_compare_hash_and_pickle_by_value(name):
    value = one_of_each()[name]
    copy = pickle.loads(pickle.dumps(value))
    assert copy is not value and copy == value and hash(copy) == hash(value)


def test_repr_reads_as_a_constructor_call():
    term = one_of_each()["WeibullTerm"]
    assert repr(term) == f"WeibullTerm(scale={term.scale!r}, shape={term.shape!r})"


def test_hazard_curve_equals_only_itself():
    curve = one_of_each()["HazardCurve"]
    copy = pickle.loads(pickle.dumps(curve))
    assert np.array_equal(copy.rates, curve.rates)
    assert copy != curve and curve == curve
    assert len({curve, copy}) == 2
