import json

import pytest

from redzone import ValidationError
from redzone.config import default_config, load_config, parse_config


def minimal():
    return {"schema_version": 1}


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
