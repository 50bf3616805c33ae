import csv
import json

import pytest

from redzone import Policy, derive_seed, run_replication
from redzone import cli
from redzone.cli import build_parser, main
from redzone.config import load_config
from redzone.montecarlo import run_batch


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "schema_version": 1,
        "lifetime": {"mean": 200.0, "sd": 0.0},
        "system": {"lab_burnin": 0.0},
        "sim": {"replications": 50, "master_seed": 5},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("hazard", "scenario", "simulate", "compare", "redzone"):
            args = parser.parse_args([cmd, "--config", "c.json", "--out", "o"])
            assert args.command == cmd

    def test_simulate_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--config", "c.json", "--out", "o.json",
             "--policy", "type2", "--seed", "9", "--replications", "123"])
        assert args.policy == "type2"
        assert args.seed == 9
        assert args.replications == 123

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_removed_workers_flag_exits_one(self, command, capsys):
        rc = main([command, "--config", "c.json", "--out", "o", "--workers", "2"])
        assert rc == 1
        assert "--workers" in capsys.readouterr().err

    def test_unknown_policy_is_usage_error(self, capsys):
        rc = main(["simulate", "--config", "c.json", "--out", "o", "--policy", "type9"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hazard", "--t-max", "inf"],
        ["hazard", "--t-max", "nan"],
        ["hazard", "--dt", "inf"],
        ["hazard", "--dt", "nan"],
        ["scenario", "--dt", "inf"],
        ["scenario", "--dt", "nan"],
        ["redzone", "--deltas", "nan"],
        ["redzone", "--deltas", "1,inf"],
    ], ids="_".join)
    def test_non_finite_flag_exits_one(self, argv, tmp_path, capsys):
        conf = write_config(tmp_path, sim={"replications": 5, "master_seed": 5})
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", conf, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {argv[1]}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hazard", "scenario"])
    def test_grid_too_large_for_an_array_exits_one(self, command, tmp_path, capsys):
        # numpy refuses this grid's size before it allocates anything
        conf = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main([command, "--config", conf, "--out", str(out), "--dt", "1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: --dt 1e-300 gives ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "redzone"])
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--replications", "0")])
    def test_out_of_range_sim_flag_exits_one(self, command, flag, value, tmp_path, capsys):
        conf = write_config(tmp_path, policy={"kind": "type1", "rotation_period": 50.0})
        out = tmp_path / "out"
        assert main([command, "--config", conf, "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()


class TestHazardCommand:
    @pytest.mark.parametrize("terms, sw, op", [
        ({}, 0.0, 0.0),
        ({"software": {"steady_floor": 0.001}, "operator": {"rate": 0.0005}}, 0.001, 0.0005),
    ], ids=["hardware-only", "all-terms"])
    def test_header_and_flat_useful_phase(self, terms, sw, op, tmp_path):
        conf = write_config(
            tmp_path,
            hazard={"burnin": {"scale": 0.0}, "wearout": {"scale": 0.0}}, **terms)
        out = tmp_path / "h.csv"
        assert main(["hazard", "--config", conf, "--out", str(out),
                     "--t-max", "100", "--dt", "1"]) == 0
        header, rows = read_csv(out)
        assert header == ["t_weeks", "h_hardware", "h_software", "h_operate", "h_system"]
        assert len(rows) == 101
        for r in rows:
            h_hw, h_sw, h_op, h_sys = map(float, r[1:])
            assert (h_hw, h_sw, h_op) == (0.01, sw, op)
            assert h_sys == h_hw + h_sw + h_op

    def test_bathtub_shape_matches_library(self, tmp_path):
        import numpy as np
        from redzone import bathtub_hazard
        from redzone.config import load_config
        conf = write_config(tmp_path)
        out = tmp_path / "h.csv"
        assert main(["hazard", "--config", conf, "--out", str(out),
                     "--t-max", "250", "--dt", "0.5"]) == 0
        run = load_config(conf)
        _, rows = read_csv(out)
        t = np.array([float(r[0]) for r in rows])
        h = np.array([float(r[1]) for r in rows])
        assert np.array_equal(h, bathtub_hazard(t, run.system.hazard))

    def test_floats_round_trip(self, tmp_path):
        conf = write_config(tmp_path)
        out = tmp_path / "h.csv"
        main(["hazard", "--config", conf, "--out", str(out), "--t-max", "10", "--dt", "0.1"])
        _, rows = read_csv(out)
        for r in rows:
            assert repr(float(r[1])) == r[1]


class TestScenarioCommand:
    def test_worked_boundaries_present(self, tmp_path):
        conf = write_config(
            tmp_path,
            hazard={"th1": 20.0, "th2": 180.0, "th3": 40.0},
            lifetime={"mean": 220.0, "sd": 1.0},
            system={"lab_burnin": 2.0},
        )
        out = tmp_path / "segments.csv"
        assert main(["scenario", "--config", conf, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t_start_weeks", "t_end_weeks", "composition", "boundary",
                          "active_units", "phases", "red_zone"]
        edges = {float(r[0]) for r in rows} | {float(r[1]) for r in rows}
        for landmark in (200.0, 220.0, 221.0, 239.0):
            assert landmark in edges
        assert (tmp_path / "segments_curve.csv").exists()

    def test_rotation_policy_exits_one(self, tmp_path, capsys):
        conf = write_config(tmp_path, policy={"kind": "type1", "rotation_period": 30.0})
        rc = main(["scenario", "--config", conf, "--out", str(tmp_path / "s.csv"),
                   "--policy", "type2"])
        assert rc == 1
        assert "policy type2" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_red_zone_annotation_tracks_gap(self, tmp_path):
        small = write_config(tmp_path, name="small.json", lifetime={"mean": 208.0, "sd": 1.0},
                             system={"lab_burnin": 2.0})
        large = write_config(tmp_path, name="large.json", lifetime={"mean": 208.0, "sd": 40.0},
                             system={"lab_burnin": 2.0})
        out_small = tmp_path / "s.csv"
        out_large = tmp_path / "l.csv"
        assert main(["scenario", "--config", small, "--out", str(out_small)]) == 0
        assert main(["scenario", "--config", large, "--out", str(out_large)]) == 0
        _, rows_small = read_csv(out_small)
        _, rows_large = read_csv(out_large)
        assert any(r[6] == "1" for r in rows_small)
        assert all(r[6] == "0" for r in rows_large)


class TestSimulateCommand:
    def test_deterministic_summary(self, tmp_path):
        conf = write_config(tmp_path, sim={"replications": 1, "master_seed": 5})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["seed"] == 5
        assert doc["censored_count"] == 0
        assert doc["trdd_weeks"]["mean"] == 200.0
        assert doc["trdd_weeks"]["std"] == 0.0
        assert doc["tdt_weeks"]["mean"] == 400.0
        assert doc["dp_weeks"] is None

    def test_vendor_decision_point(self, tmp_path):
        conf = write_config(tmp_path, vendor={"mtbf": 200.0, "warn_factor": 0.8},
                            sim={"replications": 2, "master_seed": 5})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dp_weeks"]["mean"] == 160.0
        assert doc["tdr_weeks"]["mean"] == pytest.approx(240.0)

    def test_byte_identical_reruns(self, tmp_path):
        conf = write_config(tmp_path, lifetime={"mean": 200.0, "sd": 2.0},
                            sim={"replications": 100, "master_seed": 5})
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["simulate", "--config", conf, "--out", str(a)]) == 0
        assert main(["simulate", "--config", conf, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_type2_decision_point_from_trace(self, tmp_path):
        conf = write_config(tmp_path, system={"lab_burnin": 2.0},
                            policy={"kind": "type2", "rotation_period": 200.0 / 6},
                            sim={"replications": 1, "master_seed": 5})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["policy"] == "type2"
        assert doc["dp_weeks"]["mean"] == pytest.approx(800.0 / 3.0)
        assert doc["tdr_weeks"]["mean"] == pytest.approx(100.0 / 3.0)

    def test_output_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path
        import redzone
        schema_dir = Path(redzone.__file__).parent / "schema"
        conf = write_config(tmp_path, lifetime={"mean": 200.0, "sd": 2.0},
                            policy={"kind": "type1", "rotation_period": 200.0 / 6},
                            vendor={"mtbf": 200.0})
        sim_out = tmp_path / "sim.json"
        cmp_out = tmp_path / "cmp.json"
        assert main(["simulate", "--config", conf, "--out", str(sim_out)]) == 0
        assert main(["compare", "--config", conf, "--out", str(cmp_out)]) == 0
        jsonschema.validate(
            json.loads(sim_out.read_text()),
            json.loads((schema_dir / "simulate_output.schema.json").read_text()))
        jsonschema.validate(
            json.loads(cmp_out.read_text()),
            json.loads((schema_dir / "compare_output.schema.json").read_text()))
        jsonschema.validate(json.loads(Path(conf).read_text()),
                            json.loads((schema_dir / "run_config.schema.json").read_text()))

    @pytest.mark.parametrize("policy, system, horizon", [
        # lab credit near the mean lifetime: some spares are dead on arrival
        (Policy("type1"), {"lab_burnin": 189.0}, None),
        (Policy("type2", rotation_period=30.0), {"lab_burnin": 2.0, "shelf_aging_factor": 0.5},
         245.0),
    ], ids=["type1-dead-on-arrival", "type2-censored"])
    def test_events_csv(self, policy, system, horizon, tmp_path):
        reps, seed = 40, 5
        conf = write_config(tmp_path, lifetime={"mean": 200.0, "sd": 10.0}, system=system,
                            policy={"kind": policy.kind,
                                    "rotation_period": policy.rotation_period},
                            sim={"replications": reps, "master_seed": seed,
                                 "horizon": horizon})
        out = tmp_path / "sim.json"
        ev = tmp_path / "events.csv"
        assert main(["simulate", "--config", conf, "--out", str(out),
                     "--events-out", str(ev)]) == 0
        header, rows = read_csv(ev)
        assert header == ["replication", "time_weeks", "kind", "unit", "slot", "unit_out"]
        config = load_config(conf).system
        expected = [
            [str(i), repr(e.time), e.kind, e.unit or "", "" if e.slot is None else str(e.slot),
             e.unit_out or ""]
            for i in range(reps)
            for e in run_replication(config, policy, derive_seed(seed, i),
                                     horizon=horizon).events]
        assert rows == expected
        deaths = sum(r[2] == "system_death" for r in rows)
        assert deaths == reps - json.loads(out.read_text())["censored_count"]
        if policy.kind == "type1":
            assert 0 < sum(r[:3] == [r[0], "0.0", "failure"] for r in rows) < reps
        else:
            assert 0 < deaths < reps and any(r[2] == "rotate" for r in rows)

    @pytest.mark.parametrize("events", [False, True], ids=["summary", "events-out"])
    def test_one_ensemble_pass(self, events, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["record_events"])
            return run_batch(*args, **kwargs)

        monkeypatch.setattr(cli, "run_batch", counted)
        conf = write_config(tmp_path, sim={"replications": 5, "master_seed": 5})
        argv = ["simulate", "--config", conf, "--out", str(tmp_path / "sim.json")]
        if events:
            argv += ["--events-out", str(tmp_path / "events.csv")]
        assert main(argv) == 0
        assert calls == [events]

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "hazard": {"thX": 1}}', encoding="utf-8")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "hazard.thX" in capsys.readouterr().err

    def test_infinite_warn_factor_exits_one(self, tmp_path, capsys):
        conf = write_config(tmp_path, vendor={"mtbf": 200.0, "warn_factor": float("inf")},
                            sim={"replications": 2, "master_seed": 5})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 1
        assert "vendor.warn_factor" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        conf = write_config(tmp_path, sim={"replications": 1, "master_seed": 5})
        rc = main(["simulate", "--config", conf,
                   "--out", str(tmp_path / "missing_dir" / "o.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def test_extension_ratio_band(self, tmp_path):
        conf = write_config(
            tmp_path,
            lifetime={"mean": 200.0, "sd": 2.0},
            policy={"kind": "type1", "rotation_period": 200.0 / 6},
            vendor={"mtbf": 200.0},
            sim={"replications": 1000, "master_seed": 11},
        )
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", conf, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 0.40 <= doc["extension_ratio"] <= 0.55
        assert doc["type1"]["trdd_weeks"]["mean"] == pytest.approx(200.0, rel=0.05)
        assert doc["type2"]["dp_weeks"] is not None

    def test_missing_rotation_period_exits_one(self, tmp_path, capsys):
        conf = write_config(tmp_path)
        rc = main(["compare", "--config", conf, "--out", str(tmp_path / "cmp.json")])
        assert rc == 1
        assert "rotation_period" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        conf = write_config(
            tmp_path,
            lifetime={"mean": 200.0, "sd": 2.0},
            policy={"kind": "type1", "rotation_period": 200.0 / 6},
            sim={"replications": 100, "master_seed": 11},
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["compare", "--config", conf, "--out", str(a)]) == 0
        assert main(["compare", "--config", conf, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRedzoneCommand:
    def test_detection_table(self, tmp_path):
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 1.0},
                            system={"lab_burnin": 2.0},
                            sim={"replications": 50, "master_seed": 3})
        out = tmp_path / "rz.csv"
        assert main(["redzone", "--config", conf, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["delta_weeks", "predicted", "detected", "severity",
                          "trdd_mean_weeks"]
        assert [r[2] for r in rows] == ["1", "1", "0", "0"]
        assert [r[1] for r in rows] == ["1", "1", "0", "0"]

    def test_explicit_deltas(self, tmp_path):
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 1.0},
                            system={"lab_burnin": 2.0},
                            sim={"replications": 20, "master_seed": 3})
        out = tmp_path / "rz.csv"
        assert main(["redzone", "--config", conf, "--out", str(out),
                     "--deltas", "1,5"]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [1.0, 5.0]
