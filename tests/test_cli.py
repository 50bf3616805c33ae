import csv
import hashlib
import itertools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redzone
from redzone import LifetimeDistribution, Policy, assess_red_zone, bathtub_hazard, run_ensemble
from redzone import cli
from redzone.cli import build_parser, main
from redzone.config import load_config
from redzone.montecarlo import EVENT_KINDS, EventLog, run_batch, sample_lifetimes
from redzone.system import scenario_timeline, system_hazard_curve

from conftest import event_fields, pulse_at_first_failure, with_spread
from oracle import derive_seed, run_replication

EXAMPLE = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
SCHEMA = json.loads((Path(redzone.__file__).parent / "schema" / "run_config.schema.json")
                    .read_text(encoding="utf-8"))


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


# ``conftest.pulse_at_first_failure`` as config document sections.
PULSE_AT_FIRST_FAILURE = {
    "hazard": {"useful_rate": 0.01, "burnin": {"scale": 0.9, "shape": 0.1},
               "wearout": {"scale": 1e-6, "shape": 3.0}, "th1": 20.0, "th2": 180.0, "th3": 10.0},
    "software": {"steady_floor": 0.001, "update_amplitude": 0.004, "update_decay_tau": 26.0,
                 "upgrade_events": [{"time": 208.0, "kind": "minor", "pulse_amplitude": 10.0,
                                     "pulse_decay_tau": 50.0}]},
    "system": {"lab_burnin": 2.0},
}


def event_lines(log):
    """The CSV lines of an ``EventLog`` as its docstring decodes it, each time by ``repr``."""
    return [f"{i},{float(t)!r},{k},{u or ''},{'' if s is None else s},{o or ''}"
            for i, t, k, u, s, o in zip(*event_fields(log))]


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

    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_deltas_without_a_spread_exits_one(self, value, tmp_path, capsys):
        conf = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main(["redzone", "--deltas", value, "--config", conf, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --deltas: give one or more finite spreads, got {value!r}\n")
        assert not out.exists()

    def test_overflowing_default_t_max_names_the_hazard_fields(self, tmp_path, capsys):
        conf = write_config(tmp_path, hazard={"th1": 1e308, "th2": 1e308})
        out = tmp_path / "out.csv"
        assert main(["hazard", "--config", conf, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: hazard.th1, hazard.th2, hazard.th3: ")
        assert "--t-max must" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hazard", "scenario"])
    def test_grid_too_large_for_an_array_exits_one(self, command, tmp_path, capsys):
        # refused before anything is allocated
        conf = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main([command, "--config", conf, "--out", str(out), "--dt", "1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: --dt 1e-300 gives ")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, source", [
        ("hazard", ["--dt", "0.01"], "--dt"),
        ("scenario", ["--dt", "0.01"], "--dt"),
        ("hazard", [], "analysis.curve_dt"),
        ("redzone", [], "analysis.curve_dt"),
    ])
    def test_grid_beyond_physical_memory_exits_one(self, command, flags, source, tmp_path,
                                                   capsys, monkeypatch):
        # with 1 MiB of memory: the 0.01-week grids of hazard (252 weeks) and of the
        # scenario curves (400 weeks) take 1.6 MB and 2.6 MB at 64 bytes a point
        monkeypatch.setattr(cli, "_PHYSICAL_MEMORY", 1 << 20)
        conf = write_config(tmp_path, analysis={"curve_dt": 0.01})
        out = tmp_path / "out.csv"
        assert main([command, "--config", conf, "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source} 0.01 gives ")
        fix = f"; raise {source}" + (" or lower --t-max" if command == "hazard" else "") + "\n"
        assert err.endswith(fix)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hazard", "scenario"])
    def test_grid_within_physical_memory_runs(self, command, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_PHYSICAL_MEMORY", 4 << 20)
        conf = write_config(tmp_path, analysis={"curve_dt": 0.01})
        assert main([command, "--config", conf, "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("command, value", [("hazard", "-1"), ("scenario", "0")])
    def test_non_positive_dt_exits_one(self, command, value, tmp_path, capsys):
        conf = write_config(tmp_path)
        out = tmp_path / "out.csv"
        assert main([command, "--config", conf, "--out", str(out), "--dt", value]) == 1
        assert capsys.readouterr().err.startswith("error: --dt: must be > 0, got ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hazard", "scenario", "simulate", "redzone"])
    def test_grid_too_large_in_config_exits_one(self, command, tmp_path, capsys):
        conf = write_config(tmp_path, analysis={"curve_dt": 1e-300})
        out = tmp_path / "out.csv"
        assert main([command, "--config", conf, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: analysis.curve_dt 1e-300 gives ")
        assert not out.exists()

    @pytest.mark.parametrize("command, curve_dt, flags, source", [
        ("simulate", 50.0, [], "analysis.curve_dt"),
        ("scenario", 50.0, [], "analysis.curve_dt"),
        ("redzone", 50.0, ["--deltas", "1"], "analysis.curve_dt"),
        ("scenario", 0.1, ["--dt", "50"], "--dt"),
    ])
    def test_grid_missing_the_baseline_window_exits_one(self, command, curve_dt, flags, source,
                                                        tmp_path, capsys):
        # the demo's baseline window is [160, 200) weeks; a 50-week grid steps from 150 to 200
        doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
        doc["analysis"]["curve_dt"] = curve_dt
        conf = tmp_path / "config.json"
        conf.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(conf), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == (
            f"error: {source} 50.0: no curve samples inside the baseline window "
            f"[160.0, 200.0) weeks; lower {source}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "redzone"])
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--seed", str(2 ** 64)),
                                             ("--replications", "0")])
    def test_out_of_range_sim_flag_exits_one(self, command, flag, value, tmp_path, capsys):
        conf = write_config(tmp_path, policy={"kind": "type1", "rotation_period": 50.0})
        out = tmp_path / "out"
        assert main([command, "--config", conf, "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()


# Every flag of each subcommand beyond --config and --out, with a value.
FULL_FLAGS = {
    "hazard": ["--t-max", "10", "--dt", "0.5"],
    "scenario": ["--policy", "type1", "--dt", "0.5"],
    "simulate": ["--policy", "type2", "--seed", "9", "--replications", "12",
                 "--events-out", "e.csv"],
    "compare": ["--seed", "9", "--replications", "12"],
    "redzone": ["--policy", "type2", "--seed", "9", "--replications", "12", "--deltas", "1,2"],
}


def full_parser_run(argv, capsys):
    """What ``main`` prints and returns for a usage error or a help request when it
    parses with ``build_parser``: (exit or SystemExit code, stdout, stderr)."""
    try:
        build_parser().parse_args(argv)
    except cli._UsageError as e:
        return 1, "", f"error: {e}\n"
    except SystemExit as e:
        return e.code, *capsys.readouterr()
    raise AssertionError(f"{argv} parsed")


def main_run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, *capsys.readouterr()


class TestParserParity:
    """A job parses with its subcommand's parser alone; ``build_parser`` gives the same."""

    @pytest.fixture
    def one_parser(self, monkeypatch):
        # a job that names its subcommand never builds the full parser; the tests
        # reach it through their own import of build_parser
        def no_full_parser():
            raise AssertionError("build_parser called")

        monkeypatch.setattr(cli, "build_parser", no_full_parser)

    @pytest.mark.parametrize("command", list(FULL_FLAGS))
    def test_full_flag_set_parses_alike(self, command, one_parser):
        argv = [command, "--config", "c.json", "--out", "o", *FULL_FLAGS[command]]
        expected = vars(build_parser().parse_args(argv))
        parsed = vars(cli._parse(argv))
        assert parsed == expected
        assert parsed["command"] == command and None not in parsed.values()

    @pytest.mark.parametrize("command", list(FULL_FLAGS))
    @pytest.mark.parametrize("flags", [
        ["--out", "o"],
        ["--config", "c.json", "--out", "o", "--seed", "x"],
        ["--config", "c.json", "--out", "o", "--policy", "type9"],
        ["--config", "c.json", "--out", "o", "--bogus", "1"],
        ["--config", "c.json", "--out", "o", "extra"],
        ["-h"],
    ], ids=["missing-config", "bad-seed", "bad-policy", "unknown-flag", "extra-positional",
            "help"])
    def test_usage_errors_and_help_alike(self, command, flags, capsys, one_parser):
        expected = full_parser_run([command, *flags], capsys)
        assert expected[0] == (0 if flags == ["-h"] else 1)
        assert main_run([command, *flags], capsys) == expected

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--config", "c.json"]],
                             ids=["none", "help", "unknown", "flag-first"])
    def test_argv_naming_no_subcommand_takes_the_full_parser(self, argv, capsys, monkeypatch):
        expected = full_parser_run(argv, capsys)
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        assert main_run(argv, capsys) == expected
        assert built == [1]


class TestFlagOverrides:
    """A flag that sets a config field acts exactly as the field set in the file."""

    def test_table_names_schema_fields_and_flags(self):
        parser = build_parser()
        dests = set()
        for command in ("hazard", "scenario", "simulate", "compare", "redzone"):
            dests |= set(vars(parser.parse_args([command, "--config", "c", "--out", "o"])))
        for flag, field in cli._FLAG_FIELDS.items():
            node = SCHEMA
            for key in field.split("."):
                node = node["properties"][key]
            assert "default" in node, field
            assert flag[2:] in dests, flag

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--policy", "type2"),
        ("simulate", "--seed", 7),
        ("compare", "--replications", 20),
        ("scenario", "--dt", 0.5),
    ], ids=["policy", "seed", "replications", "dt"])
    def test_flag_equals_config_field(self, command, flag, value, tmp_path):
        base = {"policy": {"kind": "type1", "rotation_period": 30.0},
                "sim": {"replications": 10, "master_seed": 5}}
        section, key = cli._FLAG_FIELDS[flag].split(".")
        field_doc = {**base, section: {**base.get(section, {}), key: value}}
        outputs = []
        for name, doc, extra in (("flag", base, [flag, str(value)]), ("field", field_doc, [])):
            (tmp_path / name).mkdir()
            conf = write_config(tmp_path, name=f"{name}.json", **doc)
            assert main([command, "--config", conf, "--out", str(tmp_path / name / "out.csv"),
                         *extra]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert outputs[0] == outputs[1]

    def test_policy_flag_needs_rotation_period(self, tmp_path, capsys):
        conf = write_config(tmp_path, policy={"kind": "type1"})
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out), "--policy", "type2"]) == 1
        assert capsys.readouterr().err.startswith("error: policy: ")
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

    def test_table_spans_blocks(self, tmp_path):
        # more rows than one formatted block: the blocks join without a seam
        conf = write_config(tmp_path)
        dt = 250.0 / (2.5 * cli._TABLE_BLOCK)
        out = tmp_path / "h.csv"
        assert main(["hazard", "--config", conf, "--out", str(out),
                     "--t-max", "250", "--dt", repr(dt)]) == 0
        t = np.arange(0.0, 250.0 + 0.5 * dt, dt)
        assert len(t) > 2 * cli._TABLE_BLOCK
        h = bathtub_hazard(t, load_config(conf).system.hazard)
        assert out.read_text(encoding="utf-8").splitlines() == [
            "t_weeks,h_hardware,h_software,h_operate,h_system"] + [
            f"{a!r},{b!r},0.0,0.0,{b!r}" for a, b in zip(t.tolist(), h.tolist())]


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

    @pytest.mark.parametrize("lifetime, fields", [
        ({"mean": 150.0, "sd": 1.0}, "lifetime.mean, hazard.th1 + hazard.th2"),
        ({"mean": 200.0, "sd": 300.0}, "lifetime.sd, lifetime.mean, system.lab_burnin"),
    ], ids=["mean-before-wear-out", "spare-exhausted"])
    def test_timeline_error_names_config_fields(self, lifetime, fields, tmp_path, capsys):
        conf = write_config(tmp_path, lifetime=lifetime)
        out = tmp_path / "s.csv"
        assert main(["scenario", "--config", conf, "--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f" (config: {fields})\n")
        assert not out.exists()

    def test_curve_file_spans_blocks(self, tmp_path):
        # more grid points than one written block: the blocks join without a seam
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 1.0},
                            system={"lab_burnin": 2.0})
        run = load_config(conf)
        timeline = scenario_timeline(run.system)
        dt = timeline.t_end / (2.5 * cli._TABLE_BLOCK)
        out = tmp_path / "s.csv"
        assert main(["scenario", "--config", conf, "--out", str(out), "--dt", repr(dt)]) == 0
        curve = system_hazard_curve(timeline, dt=dt)
        assert len(curve.times) > 2 * cli._TABLE_BLOCK
        lines = (tmp_path / "s_curve.csv").read_text(encoding="utf-8").splitlines()
        assert lines == ["t_weeks,h_system"] + [
            f"{a!r},{b!r}" for a, b in zip(curve.times.tolist(), curve.rates.tolist())]


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

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
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

    def test_events_csv_spans_blocks(self, tmp_path):
        # more rows than one formatted block: the blocks join without a seam
        reps, seed = cli._EVENT_BLOCK, 5
        conf = write_config(tmp_path, lifetime={"mean": 200.0, "sd": 10.0},
                            sim={"replications": reps, "master_seed": seed})
        ev = tmp_path / "events.csv"
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim.json"),
                     "--events-out", str(ev)]) == 0
        system = load_config(conf).system
        log = run_batch(system, Policy("type1"), sample_lifetimes(system, seed, reps),
                        record_events=True).events
        assert len(log.time) > 2 * cli._EVENT_BLOCK
        assert ev.read_text(encoding="utf-8").splitlines() == [
            "replication,time_weeks,kind,unit,slot,unit_out"] + event_lines(log)

    def test_events_csv_without_events_is_the_header(self, tmp_path):
        doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
        doc["sim"]["horizon"] = 1e-9  # every replication is censored before its first event
        conf = tmp_path / "config.json"
        conf.write_text(json.dumps(doc), encoding="utf-8")
        ev = tmp_path / "events.csv"
        assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "sim.json"),
                     "--events-out", str(ev)]) == 0
        assert ev.read_text(encoding="utf-8") == "replication,time_weeks,kind,unit,slot,unit_out\n"

    def test_events_csv_decodes_every_code_combination(self, tmp_path):
        # the writer's table of joined text agrees with the documented decoding on every code
        codes = np.array(list(itertools.product(range(len(EVENT_KINDS)), range(-1, 3),
                                                range(-2, 2), range(-1, 3))), dtype=np.int8)
        n = len(codes)
        log = EventLog(replication=np.arange(n) // 3, time=np.arange(n) / 7.0, kind=codes[:, 0],
                       unit=codes[:, 1], slot=codes[:, 2], unit_out=codes[:, 3])
        ev = tmp_path / "events.csv"
        cli._write_events_csv(str(ev), log)
        assert ev.read_text(encoding="utf-8").splitlines()[1:] == event_lines(log)

    @pytest.mark.parametrize("kind", ["failure", "rotate"])
    def test_events_csv_fix_ups_across_blocks(self, tmp_path, monkeypatch, kind):
        # thirteen times, each on two rows, in three-row blocks, twice over: a pass is 26
        # rows, not a multiple of 3, so every time whose notation repr and orjson write
        # differently starts, ends and sits inside a block, beside itself, in logs with
        # and without rotation rows, whose times the one path formats alike.  The zeros
        # and the NaN payloads are distinct bit patterns and stay distinct cells.
        monkeypatch.setattr(cli, "_EVENT_BLOCK", 3)
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], np.uint64).view(float)
        values = [0.0, -0.0, *nans, 5e-324, -5e-324, 1e-05, 9.999999999999999e-05, 1e-4, 1e16,
                  np.inf, -np.inf, 1 / 7]
        times = np.repeat(values, 2)
        times = np.concatenate([times, times])
        bits, at = np.unique(times.view(np.int64), return_inverse=True)
        assert len(bits) == len(values)
        assert all(set(np.flatnonzero(at == v) % 3) == {0, 1, 2} for v in range(len(bits)))
        n = len(times)
        log = EventLog(replication=np.arange(n) * 37 // 2, time=times,
                       kind=np.full(n, EVENT_KINDS.index(kind), dtype=np.int8),
                       unit=np.full(n, -1, dtype=np.int8), slot=np.full(n, -2, dtype=np.int8),
                       unit_out=(np.arange(n) % 3).astype(np.int8))
        ev = tmp_path / "events.csv"
        cli._write_events_csv(str(ev), log)
        assert ev.read_text(encoding="utf-8").splitlines()[1:] == [
            f"{i},{t!r},{kind},,shelf,controller_{o + 1}"
            for i, t, o in zip(log.replication.tolist(), times.tolist(), log.unit_out.tolist())]

    @pytest.mark.parametrize("block", [3, cli._EVENT_BLOCK])
    @pytest.mark.parametrize("rotations", [False, True], ids=["no-rotations", "rotations"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_events_csv_equals_repr_rows(self, tmp_path_factory, block, rotations, data):
        # times from a small pool, so rows share them within and across blocks: formatting
        # each distinct time once and gathering it back by row writes repr's rows, for a
        # log with rotation rows or without.  The pool holds each value's negation, a
        # distinct bit pattern even for 0 and NaN.
        pool = data.draw(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, *FIX_UPS])),
                                  min_size=1, max_size=3))
        pool += [-v for v in pool]
        n = data.draw(st.integers(1, 30))
        kinds = [k for k in range(len(EVENT_KINDS)) if rotations or EVENT_KINDS[k] != "rotate"]
        rows = st.tuples(st.sampled_from(kinds), st.integers(-1, 2), st.integers(-2, 1),
                         st.integers(-1, 2))
        codes = np.array(data.draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.int8)
        if rotations:
            codes[data.draw(st.integers(0, n - 1)), 0] = EVENT_KINDS.index("rotate")
        log = EventLog(
            replication=np.sort(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))),
            time=np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                          dtype=float),
            kind=codes[:, 0], unit=codes[:, 1], slot=codes[:, 2], unit_out=codes[:, 3])
        ev = tmp_path_factory.mktemp("events") / "events.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_EVENT_BLOCK", block)
            cli._write_events_csv(str(ev), log)
        assert ev.read_text(encoding="utf-8").splitlines()[1:] == event_lines(log)

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

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @pytest.mark.parametrize("lifetime, system", [
        ({"mean": 208.0, "sd": 2.0}, {"lab_burnin": 2.0, "shelf_aging_factor": 1.0}),
        ({"mean": 208.0, "sd": 2.0}, {"lab_burnin": 250.0}),
        ({"mean": 200.0, "sd": 300.0}, {}),
        ({"mean": 150.0, "sd": 1.0}, {}),
    ], ids=["shelf-death", "dead-on-arrival", "spare-exhausted", "mean-before-wear-out"])
    def test_undefined_timeline_leaves_the_ensemble(self, lifetime, system, tmp_path):
        # scenario exits 1 on these systems; simulate writes their ensemble, red_zone null
        conf = write_config(tmp_path, lifetime=lifetime, system=system,
                            sim={"replications": 20, "master_seed": 5})
        assert main(["scenario", "--config", conf, "--out", str(tmp_path / "s.csv")]) == 1
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        run = load_config(conf)
        assert doc["red_zone"] is None
        metrics = run_ensemble(run.system, Policy("type1"), run.sim)
        assert doc["tdt_weeks"]["mean"] == metrics.tdt.mean

    def test_undefined_composed_curve_leaves_the_ensemble(self, tmp_path):
        # scenario and redzone exit 2 on this system (test_undefined_composed_curve_exits_two);
        # its timeline is defined, its composed curve is not, and its ensemble is
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 30.0},
                            sim={"replications": 20, "master_seed": 5}, **PULSE_AT_FIRST_FAILURE)
        out = tmp_path / "sim.json"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        run = load_config(conf)
        assert run.system == with_spread(pulse_at_first_failure(), 30.0)
        assert doc["red_zone"] is None
        metrics = run_ensemble(run.system, Policy("type1"), run.sim)
        assert doc["tdt_weeks"]["mean"] == metrics.tdt.mean

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

    def test_baseline_window_from_config(self, tmp_path):
        severities = {}
        for fraction in (0.3, 0.8):
            conf = write_config(tmp_path, name=f"{fraction}.json",
                                lifetime={"mean": 208.0, "sd": 1.0}, system={"lab_burnin": 2.0},
                                sim={"replications": 5, "master_seed": 3},
                                analysis={"baseline_window_fraction": fraction})
            out = tmp_path / f"{fraction}.csv"
            assert main(["redzone", "--config", conf, "--out", str(out),
                         "--deltas", "1,5,20"]) == 0
            severities[fraction] = [float(r[3]) for r in read_csv(out)[1]]
        system = load_config(conf).system
        assert severities[0.3] == [
            assess_red_zone(system._replace(unit_lifetime=LifetimeDistribution(208.0, d)),
                            threshold=2.0, dt=0.1, baseline_window_fraction=0.3).severity
            for d in (1.0, 5.0, 20.0)]
        assert severities[0.3] != severities[0.8]

    def test_config_spread_replaced_by_deltas(self, tmp_path):
        # the config's sd would leave no spare for a second main failure; --deltas replaces it
        conf = write_config(tmp_path, lifetime={"mean": 200.0, "sd": 250.0},
                            sim={"replications": 5, "master_seed": 3})
        out = tmp_path / "rz.csv"
        assert main(["redzone", "--config", conf, "--out", str(out), "--deltas", "1,5"]) == 0
        assert len(read_csv(out)[1]) == 2

    def test_explicit_deltas(self, tmp_path):
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 1.0},
                            system={"lab_burnin": 2.0},
                            sim={"replications": 20, "master_seed": 3})
        out = tmp_path / "rz.csv"
        assert main(["redzone", "--config", conf, "--out", str(out),
                     "--deltas", "1,5"]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [1.0, 5.0]

    def test_spread_past_the_spare_names_the_spread(self, tmp_path, capsys):
        out = tmp_path / "rz.csv"
        rc = main(["redzone", "--config", str(EXAMPLE), "--out", str(out), "--deltas", "1,300"])
        assert rc == 1
        # the spread comes from --deltas, so the advice names the spread, not the lifetime sd
        assert capsys.readouterr().err == (
            "error: spread 300.0: spare exhausts before the second main failure; "
            "use a smaller spread or raise the mean lifetime "
            "(config: lifetime.mean, system.lab_burnin)\n")
        assert not out.exists()

    def test_spread_independent_error_names_no_spread(self, tmp_path, capsys):
        # a mean before the wear-out onset fails every spread; the flag is not to blame
        conf = write_config(tmp_path, lifetime={"mean": 150.0, "sd": 1.0})
        assert main(["redzone", "--config", conf, "--out", str(tmp_path / "rz.csv"),
                     "--deltas", "1,5"]) == 1
        assert capsys.readouterr().err == (
            "error: mean lifetime (150.0) lies before the wear-out onset (200.0); "
            "the end-of-life scenario is undefined "
            "(config: lifetime.mean, hazard.th1 + hazard.th2)\n")

    def test_matured_spare_severity_reads_its_jump_past_tf2(self, tmp_path):
        # shelf-aged, the spare goes in past its burn-in, so T2 = Tf2 and the failure
        # window ends on the jump at Tf2: its next grid point holds the spare standing
        # alone, above baseline, not the pair's near-zero rate just after Tf1
        doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
        doc["system"]["shelf_aging_factor"] = 0.3
        conf = tmp_path / "aged.json"
        conf.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "rz.csv"
        assert main(["redzone", "--config", str(conf), "--out", str(out), "--replications", "5",
                     "--deltas", "1.05,2.05,4.05,8.05"]) == 0
        rows = read_csv(out)[1]
        assert [r[1:3] for r in rows] == [["0", "0"]] * 4
        assert all(float(r[3]) > 1.0 for r in rows)

    @pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
    @pytest.mark.parametrize("command", ["scenario", "redzone"])
    @pytest.mark.parametrize("system", [
        {"lab_burnin": 2.0, "shelf_aging_factor": 1.0},  # dies on the shelf at 206
        {"lab_burnin": 250.0},  # dead on arrival
    ], ids=["shelf-death", "dead-on-arrival"])
    def test_spare_dead_before_first_failure_exits_one(self, command, system, tmp_path,
                                                       capsys):
        # no curve is drawn for a spare the engine never installs
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 2.0}, system=system)
        out = tmp_path / "out.csv"
        assert main([command, "--config", conf, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spare dies before the first main failure (208.0)")
        assert err.endswith(" (config: system.shelf_aging_factor, system.lab_burnin)\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["scenario"], ["redzone", "--deltas", "1,30"]],
                             ids=["scenario", "redzone"])
    def test_undefined_composed_curve_exits_two(self, argv, tmp_path, capsys):
        # at spread 30 the pulse at Tf1 leaves both units of the pair certainly failed
        # before Tf2, so the composed rate is undefined there
        conf = write_config(tmp_path, lifetime={"mean": 208.0, "sd": 30.0},
                            **PULSE_AT_FIRST_FAILURE)
        assert load_config(conf).system == with_spread(pulse_at_first_failure(), 30.0)
        out = tmp_path / "out.csv"
        assert main([argv[0], "--config", conf, "--out", str(out), *argv[1:]]) == 2
        assert "certainly failed" in capsys.readouterr().err
        assert not out.exists()


# The one ValidationWarning of a config with 30 weeks of lab credit, past th1 (20),
# as the CLI prints it.
LAB_WARNING = ("warning: system: lab_burnin (30.0) exceeds the declared burn-in duration "
               "th1 (20.0)\n")


class TestWarnings:
    @pytest.fixture
    def conf(self, tmp_path):
        return write_config(tmp_path, system={"lab_burnin": 30.0})

    @pytest.mark.filterwarnings("always::redzone.errors.ValidationWarning")
    def test_config_warning_is_one_line(self, conf, tmp_path, capsys):
        show = warnings.showwarning
        assert main(["hazard", "--config", conf, "--out", str(tmp_path / "h.csv"),
                     "--t-max", "10"]) == 0
        assert capsys.readouterr().err == LAB_WARNING
        assert warnings.showwarning is show

    @pytest.mark.filterwarnings("always::redzone.errors.ValidationWarning")
    def test_config_warning_precedes_the_error(self, conf, tmp_path, capsys):
        assert main(["redzone", "--config", conf, "--out", str(tmp_path / "rz.csv"),
                     "--deltas", "1,300"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(LAB_WARNING + "error: spread 300.0: ")
        assert err.count("\n") == 2

    @pytest.mark.filterwarnings("always::redzone.errors.ValidationWarning")
    def test_library_callers_keep_the_python_warning(self, conf, tmp_path):
        assert main(["hazard", "--config", conf, "--out", str(tmp_path / "h.csv"),
                     "--t-max", "10"]) == 0
        with pytest.warns(redzone.ValidationWarning) as record:
            load_config(conf)
        assert [w.filename for w in record] == [__file__]


# SHA-256 of every output of the curve commands on the shipped example config, at its
# curve_dt; any byte the curve, detection or formatting code changes shows up here.
CURVE_DIGESTS = {
    "redzone.csv": "0d9a330b101fd4602898fb8fb66153c8e24e2934d98558edab8983ff6e58a906",
    "scenario.csv": "7828153ff4b518eff44f53953b57d9f1988a81fe1f82c80de29c0af0765e9f4f",
    "scenario_curve.csv": "54c56cf50537289a2af0ba125722a6921b9b68aea511db0643045570b4daccc7",
}


def test_curve_outputs_byte_identical(tmp_path):
    assert main(["redzone", "--config", str(EXAMPLE), "--out", str(tmp_path / "redzone.csv"),
                 "--deltas", "1,2,4,6,8,10,12,16,24,40"]) == 0
    assert main(["scenario", "--config", str(EXAMPLE),
                 "--out", str(tmp_path / "scenario.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in CURVE_DIGESTS}
    assert digests == CURVE_DIGESTS


# SHA-256 of the float tables of hazard and simulate --events-out on the shipped example
# config, recorded before _float_reprs formatted them: they pin the repr bytes.
TABLE_DIGESTS = {
    "hazard.csv": "92437cd9e4c635b0e2c5dc1655c598e5ce92f41e278203af25a460c0751bcce8",
    "hazard_dt.csv": "1cc4a9288ed5258a6119ce5afed536e423c611a2151506993a0ef4e991a52e86",
    "events_type1.csv": "c84dc8d3f6b14a2955949f2373198e735dd6abc682bfc33379ff91a1e0ac9e87",
    "events_type2.csv": "d4222df4f1124826b81019fb456794021d97981224962a16a141ebea14a60c0a",
}


def test_float_tables_byte_identical(tmp_path):
    assert main(["hazard", "--config", str(EXAMPLE), "--out", str(tmp_path / "hazard.csv")]) == 0
    assert main(["hazard", "--config", str(EXAMPLE), "--out", str(tmp_path / "hazard_dt.csv"),
                 "--dt", "0.002"]) == 0
    for policy in ("type1", "type2"):
        assert main(["simulate", "--config", str(EXAMPLE), "--policy", policy,
                     "--out", str(tmp_path / f"{policy}.json"),
                     "--events-out", str(tmp_path / f"events_{policy}.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in TABLE_DIGESTS}
    assert digests == TABLE_DIGESTS


# SHA-256 of the JSON documents of compare and simulate on the shipped example config,
# recorded before the batched engine was laid out by position: they pin every metric
# the Monte Carlo engine feeds into a summary.
JSON_DIGESTS = {
    "compare.json": "775ca28e3db85abd902719288bd3afad9a559a100862e14d26e9484f6d1fd0ad",
    "simulate_type1.json": "b1a08f7324c51ed01071c25cd276bb103f41064c19eddf4929dc764f52286b18",
    "simulate_type2.json": "713e90df0a31b41b51ab1602b87c856430389f51339c6937914e6d058e116847",
}


def test_json_outputs_byte_identical(tmp_path):
    assert main(["compare", "--config", str(EXAMPLE), "--out", str(tmp_path / "compare.json")]) == 0
    for policy in ("type1", "type2"):
        assert main(["simulate", "--config", str(EXAMPLE), "--policy", policy,
                     "--out", str(tmp_path / f"simulate_{policy}.json")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in JSON_DIGESTS}
    assert digests == JSON_DIGESTS


# A config that reaches every kernel term the example config leaves off: a software
# model with update decay, a pulsed minor upgrade and a major upgrade, an operator rate,
# a wear-out shape whose hazard exponent 1.5 misses numpy's square fast path, and shelf
# aging in the ensembles.
KERNEL_CONFIG = {
    "schema_version": 1,
    "hazard": {"useful_rate": 0.01, "burnin": {"scale": 0.9, "shape": 0.1},
               "wearout": {"scale": 1e-4, "shape": 2.5},
               "th1": 20.0, "th2": 180.0, "th3": 10.0},
    "software": {"steady_floor": 0.001, "update_amplitude": 0.004, "update_decay_tau": 26.0,
                 "upgrade_events": [
                     {"time": 100.0, "kind": "minor", "pulse_amplitude": 0.003,
                      "pulse_decay_tau": 4.0},
                     {"time": 204.0, "kind": "major"}]},
    "operator": {"rate": 0.0005},
    "lifetime": {"mean": 208.0, "sd": 2.0},
    "system": {"shelf_aging_factor": 0.3, "lab_burnin": 2.0},
    "sim": {"replications": 200, "master_seed": 11},
    "analysis": {"curve_dt": 0.05},
}

# SHA-256 of hazard, scenario and a three-spread redzone run on KERNEL_CONFIG.  hazard's
# was recorded before the per-unit curve evaluation and the masked bathtub kernels; the
# scenario files when the timeline began to read its spare from the engine, which ages it
# on the shelf (alpha 0.3): it goes in 64.4 weeks old, born at 143.6, and dies at 351.6.
# redzone's when `predicted` began to read the composed rate at Tf2: past its burn-in,
# the spare shows no zone, so every row reads predicted 0, as detected does.
KERNEL_DIGESTS = {
    "hazard.csv": "912359d2b54b3494ab23dd4f8d8f20ef2342c09ab3e2a42ec69d7ccc867b4038",
    "scenario.csv": "53ce9f212b4595a622178b1739d34a22c4ed5f4d849c921041cc6fec06dbe6bf",
    "scenario_curve.csv": "546a28506e5a569503d1ea8fb6c721aba86665e9c2e3d84e5001f1c56ef01a95",
    "redzone.csv": "d1c04a63e6c3ef45ec1c0e6148daa35f54aafc3cb96fcee204adb9731c7215d9",
}


def test_kernel_outputs_byte_identical(tmp_path):
    conf = tmp_path / "kernel.json"
    conf.write_text(json.dumps(KERNEL_CONFIG), encoding="utf-8")
    for command in ("hazard", "scenario"):
        assert main([command, "--config", str(conf),
                     "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert main(["redzone", "--config", str(conf), "--out", str(tmp_path / "redzone.csv"),
                 "--deltas", "2,8,16"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in KERNEL_DIGESTS}
    assert digests == KERNEL_DIGESTS


# SHA-256 of simulate --events-out on KERNEL_CONFIG with a rotating policy, a wide
# lifetime spread and lab burn-in, recorded before the events writer joined each block
# as one flat list: unlike the example config's logs, these hold shelf rows (8 and 28),
# and type2's also hold rotate and dp rows.
EVENTS_DIGESTS = {
    "events_type1.csv": "c5fe70a10447ec5cd3cc8d0c18a4ac96388a7dbde774acb912250c2fa4b5fb48",
    "events_type2.csv": "3df336e81eb7414c043625e92fd1ae160a715252e9e28895566f91be417b1baa",
}


@pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
def test_events_outputs_byte_identical(tmp_path):
    doc = json.loads(json.dumps(KERNEL_CONFIG))
    doc["policy"] = {"rotation_period": 34.67}
    doc["lifetime"]["sd"] = 30.0
    doc["system"]["lab_burnin"] = 100.0
    conf = tmp_path / "events.json"
    conf.write_text(json.dumps(doc), encoding="utf-8")
    for policy in ("type1", "type2"):
        assert main(["simulate", "--config", str(conf), "--policy", policy,
                     "--out", str(tmp_path / f"{policy}.json"),
                     "--events-out", str(tmp_path / f"events_{policy}.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in EVENTS_DIGESTS}
    assert digests == EVENTS_DIGESTS


def reprs(x):
    return [repr(v) for v in np.asarray(x, dtype=float).tolist()]


def ulp_window(edge, n=200_000):
    """The 2n + 1 doubles nearest ``edge``, both signs."""
    bits = np.float64(edge).view(np.int64) + np.arange(-n, n + 1)
    x = bits.view(np.float64)
    return np.concatenate([x, -x])


class TestFloatReprs:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=50))
    def test_matches_repr(self, values):
        # st.floats() draws NaN, both infinities, subnormals and both zeros
        x = np.array(values, dtype=float)
        assert cli._float_reprs(x) == reprs(x)

    @pytest.mark.parametrize("edge", [1e-4, 1e16], ids=["1e-4", "1e16"])
    def test_notation_edges(self, edge):
        # the edges where repr's notation leaves orjson's
        x = ulp_window(edge)
        assert cli._float_reprs(x) == reprs(x)

    def test_special_values(self):
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-05, 1e+16, 1e308])
        assert cli._float_reprs(x) == ["0.0", "-0.0", "nan", "inf", "-inf", "5e-324",
                                       "1e-05", "1e+16", "1e+308"]

    def test_empty(self):
        assert cli._float_reprs(np.array([])) == []

    def test_strided_view(self):
        x = np.linspace(-3.0, 7.0, 301)[::3]
        assert not x.flags.c_contiguous
        assert cli._float_reprs(x) == reprs(x)


def lines(columns):
    """The CSV lines of float columns, one ``repr`` per cell."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


# Values whose repr notation differs from orjson's: the cells _float_lines splices.
FIX_UPS = [np.nan, np.inf, -np.inf, 1e-05, -5e-324, 1e+16, -1e300]


class TestFloatLines:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.lists(
        st.lists(st.one_of(st.floats(), st.sampled_from(FIX_UPS)), min_size=k, max_size=k),
        max_size=20).map(lambda rows: [np.array([r[j] for r in rows], dtype=float)
                                       for j in range(k)])))
    def test_matches_repr(self, columns):
        # st.floats() draws NaN, both infinities, subnormals and both zeros
        assert bytes(cli._float_lines(columns)) == lines(columns)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, -1)], [(-1, 0)], [(-1, -1)],
                                       [(0, 0), (0, -1), (-1, 0), (-1, -1)]],
                             ids=["block-first", "row-end", "row-start", "block-last", "all-four"])
    def test_fix_ups_at_row_and_block_edges(self, k, cells):
        block = np.arange(1.0, 4 * k + 1.0).reshape(4, k) / 3.0
        for n, (i, j) in enumerate(cells):
            block[i, j] = FIX_UPS[n]
        columns = list(block.T)
        assert bytes(cli._float_lines(columns)) == lines(columns)

    @pytest.mark.parametrize("columns", [
        [np.array(FIX_UPS), -np.array(FIX_UPS)],
        [np.array([0.5]), np.array([-0.0]), np.array([1e-05])],
        [np.array([]), np.array([])],
    ], ids=["all-fix-ups", "one-row", "empty"])
    def test_special_blocks(self, columns):
        assert bytes(cli._float_lines(columns)) == lines(columns)

    @pytest.mark.parametrize("edge", [1e-4, 1e16], ids=["1e-4", "1e16"])
    def test_notation_edges_in_two_columns(self, edge):
        columns = list(ulp_window(edge).reshape(-1, 2).T)
        assert bytes(cli._float_lines(columns)) == lines(columns)

    def test_scenario_curve_block_with_fix_ups(self):
        # the one block of the example's curve at dt 0.002 that splices: 40 cells below 1e-4
        curve = system_hazard_curve(scenario_timeline(load_config(EXAMPLE).system), dt=0.002)
        cells = cli._repr_fix_ups(np.column_stack([curve.times, curve.rates]).ravel())
        lo = cells[0] // 2 // cli._TABLE_BLOCK * cli._TABLE_BLOCK
        rows = slice(lo, lo + cli._TABLE_BLOCK)
        assert len(cells) == 40 and cells[-1] // 2 < rows.stop
        columns = [curve.times[rows], curve.rates[rows]]
        assert bytes(cli._float_lines(columns)) == lines(columns)


def traced_peak(write, *args) -> int:
    """The peak of memory traced while ``write(*args)`` runs, after one untraced call
    has loaded what it imports."""
    write(*args)
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    # a writer holds one block of rows at a time: four times the rows, the same peak

    def test_scenario_holds_one_grid_array(self, tmp_path):
        # the curve's rates: its times are a Grid, built a block at a time where the
        # writer reads them (about 1.3 times the rates; a times array took 2.3)
        argv = ["scenario", "--config", str(EXAMPLE), "--dt", "0.002",
                "--out", str(tmp_path / "s.csv")]
        peak = traced_peak(main, argv)
        with open(tmp_path / "s_curve.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        assert rows == 207_000
        assert peak < 1.6 * 8 * rows

    def test_float_table(self, tmp_path):
        def peak(rows):
            t = np.arange(rows) / 7.0
            h = np.sqrt(t)
            h[::1000] = 1e-6  # a fix-up in every block
            return traced_peak(cli._write_table, str(tmp_path / "t.csv"), {"t": t, "h": h})

        small, large = peak(4 * cli._TABLE_BLOCK), peak(16 * cli._TABLE_BLOCK)
        assert large < small + 8 * cli._TABLE_BLOCK
        # the interleaved floats, orjson's text, the buffer it is formatted in and the
        # splice, about 120 bytes a row; copying the buffer to bytes once more took 190
        assert large < 160 * cli._TABLE_BLOCK

    @pytest.mark.parametrize("kind", ["failure", "rotate"])
    def test_events(self, tmp_path, kind):
        def peak(rows):
            rng = np.random.default_rng(7)
            codes = np.zeros(rows, dtype=np.int8)
            log = EventLog(replication=np.sort(rng.integers(0, 50, rows)),
                           time=rng.integers(0, 1000, rows) / 7.0,
                           kind=codes + EVENT_KINDS.index(kind), unit=codes, slot=codes,
                           unit_out=codes)
            return traced_peak(cli._write_events_csv, str(tmp_path / "e.csv"), log)

        small, large = peak(4 * cli._EVENT_BLOCK), peak(16 * cli._EVENT_BLOCK)
        assert large < small + 8 * cli._EVENT_BLOCK
