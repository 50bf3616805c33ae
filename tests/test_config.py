import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import redzone
import redzone.config
from redzone import (
    Policy,
    SimConfig,
    SoftwareHazardModel,
    SystemConfig,
    UpgradeEvent,
    ValidationError,
    ValidationWarning,
)
from redzone.config import _build, _check, default_config, load_config, parse_config

SCHEMA = json.loads((Path(redzone.__file__).parent / "schema" / "run_config.schema.json")
                    .read_text(encoding="utf-8"))
EXAMPLE = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


def minimal():
    return {"schema_version": 1}


def schema_nodes(node, path=()):
    """Every node below ``node`` with its path; an array's items sit at index 0."""
    children = [((key,), sub) for key, sub in node.get("properties", {}).items()]
    if "items" in node:
        children.append(((0,), node["items"]))
    for step, sub in children:
        yield path + step, sub
        yield from schema_nodes(sub, path + step)


def dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def document_with(path, value):
    """The minimal document with ``value`` placed at ``path``."""
    doc = minimal()
    node = doc
    for key, following in zip(path, path[1:]):
        node[key] = [{}] if isinstance(following, int) else {}
        node = node[key]
    node[path[-1]] = value
    return doc


def types_of(node):
    types = node.get("type", [])
    return [types] if isinstance(types, str) else types


def violations(node):
    """(keyword, value) pairs, each breaking one keyword of a schema node."""
    types = types_of(node)
    if types:
        yield "type", "x"
        yield "type-bool", True
    if "integer" in types:
        yield "type-fraction", 1.5
    if "null" not in types:
        yield "null", None
    for keyword, shift in (("minimum", -1), ("maximum", 1),
                           ("exclusiveMinimum", 0), ("exclusiveMaximum", 0)):
        if keyword in node:
            yield keyword, node[keyword] + shift
    if "enum" in node:
        yield "enum", "no-such-choice"
    if "const" in node:
        yield "const", node["const"] + 1
        yield "const-bool", True


BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def bound_cases():
    """(path, default, value): a value breaking a number node's bound or finiteness.

    The vendor and analysis values are not built into objects: the loader
    hands them to the analysis functions, which check them there.
    """
    for path, node in schema_nodes(SCHEMA):
        types = types_of(node)
        if path[0] in ("vendor", "analysis") or not {"number", "integer"} & set(types):
            continue
        values = [value for keyword, value in violations(node) if keyword in BOUNDS]
        if "number" in types:
            values += [math.nan, math.inf, -math.inf]
        if "integer" in types:
            values += [1.5, math.nan, True]
        for value in values:
            yield pytest.param(path, node["default"], value, id=f"{dotted(path)}={value}")


def drift_cases():
    for path, node in schema_nodes(SCHEMA):
        for keyword, value in violations(node):
            yield pytest.param(document_with(path, value), dotted(path),
                               id=f"{dotted(path)}-{keyword}")
        if "object" in types_of(node):
            yield pytest.param(document_with(path + ("no_such_key",), 1),
                               dotted(path) + ".no_such_key", id=f"{dotted(path)}-unknown")


class TestParseConfig:
    def test_minimal_document_takes_defaults(self):
        run = parse_config(minimal())
        assert run.system.hazard.useful_rate == 0.01
        assert run.system.lab_burnin == 2.0
        assert run.policy.kind == "type1"
        assert run.sim.replications == 1000
        assert run.red_zone_threshold == 2.0
        assert run.vendor_mtbf is None

    def test_defaults_document_is_valid(self):
        run = parse_config(default_config())
        assert run.system.hazard.th3 == 10.0

    def test_schema_version_required(self):
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({})

    def test_schema_version_checked(self):
        with pytest.raises(ValidationError, match="schema_version"):
            parse_config({"schema_version": 2})

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="lifetimes"):
            parse_config({"schema_version": 1, "lifetimes": {}})

    def test_unknown_nested_key_reports_path(self):
        doc = {"schema_version": 1, "hazard": {"burnin": {"scale": 0.1, "rate": 1.0}}}
        with pytest.raises(ValidationError, match=r"hazard\.burnin\.rate"):
            parse_config(doc)
        # a configuration written for the removed thread pool
        with pytest.raises(ValidationError, match=r"sim\.workers: unknown key"):
            parse_config({"schema_version": 1, "sim": {"workers": 1}})

    def test_type_errors_report_path(self):
        with pytest.raises(ValidationError, match=r"lifetime\.mean"):
            parse_config({"schema_version": 1, "lifetime": {"mean": "fast"}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValidationError, match=r"lifetime\.sd"):
            parse_config({"schema_version": 1, "lifetime": {"sd": True}})

    def test_model_constraints_report_section(self):
        doc = {"schema_version": 1, "hazard": {"burnin": {"shape": 1.5}}}
        with pytest.raises(ValidationError, match="hazard"):
            parse_config(doc)

    def test_type2_without_period_rejected(self):
        doc = {"schema_version": 1, "policy": {"kind": "type2"}}
        with pytest.raises(ValidationError, match="policy"):
            parse_config(doc)

    def test_type2_with_period(self):
        doc = {"schema_version": 1, "policy": {"kind": "type2", "rotation_period": 30.0}}
        run = parse_config(doc)
        assert run.policy.rotation_period == 30.0

    def test_software_section(self):
        doc = {
            "schema_version": 1,
            "software": {
                "steady_floor": 0.001,
                "update_amplitude": 0.004,
                "update_decay_tau": 26.0,
                "upgrade_events": [
                    {"time": 52.0, "kind": "minor", "pulse_amplitude": 0.002,
                     "pulse_decay_tau": 8.0},
                    {"time": 104.0, "kind": "major"},
                ],
            },
        }
        run = parse_config(doc)
        assert run.system.software.steady_floor == 0.001
        assert len(run.system.software.upgrade_events) == 2

    def test_software_event_order_enforced(self):
        doc = {
            "schema_version": 1,
            "software": {"steady_floor": 0.001,
                         "upgrade_events": [{"time": 10.0, "kind": "minor"},
                                            {"time": 5.0, "kind": "minor"}]},
        }
        with pytest.raises(ValidationError, match="software"):
            parse_config(doc)

    def test_vendor_bounds(self):
        with pytest.raises(ValidationError, match=r"vendor\.mtbf"):
            parse_config({"schema_version": 1, "vendor": {"mtbf": -5.0}})

    def test_analysis_bounds(self):
        with pytest.raises(ValidationError, match=r"analysis\.red_zone_threshold"):
            parse_config({"schema_version": 1, "analysis": {"red_zone_threshold": 1.0}})

    def test_shelf_aging_factor_range(self):
        with pytest.raises(ValidationError, match="system"):
            parse_config({"schema_version": 1, "system": {"shelf_aging_factor": 1.5}})

    @pytest.mark.parametrize("section,key,value", [
        ("system", "lab_burnin", math.nan),
        ("vendor", "warn_factor", math.inf),
        ("hazard", "th3", -math.inf),
    ])
    def test_non_finite_numbers_rejected(self, section, key, value):
        with pytest.raises(ValidationError, match=rf"^{section}\.{key}: must be a finite number"):
            parse_config({"schema_version": 1, section: {key: value}})

    def test_type1_rotation_period_bound_checked(self):
        doc = {"schema_version": 1, "policy": {"kind": "type1", "rotation_period": -5.0}}
        with pytest.raises(ValidationError, match=r"^policy\.rotation_period: must be > 0"):
            parse_config(doc)

    def test_null_section_rejected(self):
        with pytest.raises(ValidationError, match=r"^sim: must be of type object"):
            parse_config({"schema_version": 1, "sim": None})

    def test_integer_field_rejects_float(self):
        with pytest.raises(ValidationError, match=r"^sim\.replications"):
            parse_config({"schema_version": 1, "sim": {"replications": 100.0}})

    @pytest.mark.parametrize("section, key, value", [
        ("sim", "dt_event", 1e-6),
        ("sim", "bin_width", 5.0),
        ("system", "warranty", 104.0),
    ], ids=["dt_event", "bin_width", "warranty"])
    def test_removed_dt_event_is_unknown(self, section, key, value):
        # keys an older configuration may still set; each is gone from the schema
        with pytest.raises(ValidationError, match=rf"^{section}\.{key}: unknown key"):
            parse_config({"schema_version": 1, section: {key: value}})

    def test_upgrade_event_defaults(self):
        doc = {"schema_version": 1, "software": {"steady_floor": 0.001, "upgrade_events": [{}]}}
        (event,) = parse_config(doc).system.software.upgrade_events
        assert (event.time, event.kind) == (0.0, "minor")

    def test_warnings_name_the_section(self):
        with pytest.warns(ValidationWarning) as record:
            parse_config({"schema_version": 1, "system": {"lab_burnin": 30.0}})
        assert [str(w.message) for w in record] == [
            "system: lab_burnin (30.0) exceeds the declared burn-in duration th1 (20.0)"]

    @pytest.mark.parametrize("loader", ["parse_config", "load_config"])
    @pytest.mark.parametrize("policy", [{}, {"kind": "type2"}], ids=["valid", "invalid"])
    def test_warnings_point_at_the_caller(self, loader, policy, tmp_path):
        # the system section warns; a later section that fails still lets the warning out
        doc = {"schema_version": 1, "system": {"lab_burnin": 30.0}, "policy": policy}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        load = {"parse_config": lambda: parse_config(doc), "load_config": lambda: load_config(path)}
        with pytest.warns(ValidationWarning) as record:
            if policy:
                with pytest.raises(ValidationError, match="^policy: "):
                    load[loader]()
            else:
                load[loader]()
        assert [(w.filename, str(w.message)[:8]) for w in record] == [(__file__, "system: ")]

    @pytest.mark.filterwarnings("always")
    def test_other_warnings_keep_their_category(self, monkeypatch):
        # a numpy overflow inside a constructor is re-emitted as itself, beside the
        # system section's own warning, both at the caller and with the section's path
        def overflowing(**fields):
            np.float64(1e308) * 10.0
            return SystemConfig(**fields)

        monkeypatch.setattr(redzone.config, "SystemConfig", overflowing)
        with pytest.warns(Warning) as record:
            parse_config({"schema_version": 1, "system": {"lab_burnin": 30.0}})
        assert [(w.category, w.filename, str(w.message)[:8]) for w in record] == [
            (RuntimeWarning, __file__, "system: "), (ValidationWarning, __file__, "system: ")]

    def test_integers_in_number_fields_become_floats(self):
        run = parse_config({"schema_version": 1, "hazard": {"th1": 20}})
        assert type(run.system.hazard.th1) is float
        assert type(run.sim.replications) is int


class TestSchemaIsTheLoader:
    """Whatever the shipped schema rejects, the loader rejects, naming the field's path."""

    @pytest.mark.parametrize("doc,path", drift_cases())
    def test_violation_rejected_by_both(self, doc, path):
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SCHEMA)
        with pytest.raises(ValidationError) as info:
            parse_config(doc)
        assert str(info.value).startswith(f"{path}: ")

    def test_default_config_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(default_config(), SCHEMA)

    @pytest.mark.parametrize("cls, section", [
        (SimConfig, "sim"), (SystemConfig, "system"), (Policy, "policy"),
        (SoftwareHazardModel, "software"), (UpgradeEvent, "software.upgrade_events"),
    ])
    def test_library_defaults_match_schema(self, cls, section):
        # the constructors' defaults serve direct library use; they must say what the schema says
        node = SCHEMA
        for key in section.split("."):
            node = node["properties"][key]
            node = node.get("items", node)  # an array's fields are its items'
        # software and operator are top-level sections
        fields = {**SCHEMA["properties"], **node["properties"]}
        defaults = {name: list(p.default) if isinstance(p.default, tuple) else p.default
                    for name, p in inspect.signature(cls).parameters.items()
                    if p.default is not p.empty}
        assert defaults == {name: fields[name]["default"] for name in defaults}

    @pytest.mark.parametrize("path, default, value", bound_cases())
    def test_constructors_hold_schema_bounds(self, path, default, value):
        # direct library use skips the schema walker, so the constructors repeat its bounds
        doc = _check(SCHEMA, document_with(path, default), "")
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValidationError):
            _build(doc)

    @pytest.mark.parametrize("key", ["replications", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, math.nan, True, "3"], ids=repr)
    def test_sim_integer_fields_named(self, key, value):
        with pytest.raises(ValidationError, match=rf"^{key} must be an integer, got "):
            SimConfig(**{key: value})

    def test_example_config_loads_and_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(json.loads(EXAMPLE.read_text(encoding="utf-8")), SCHEMA)
        run = load_config(EXAMPLE)
        assert run.policy.rotation_period == 34.67


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal()), encoding="utf-8")
        assert load_config(path).sim.master_seed == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_config(path)
