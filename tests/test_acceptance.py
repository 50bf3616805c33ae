"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not calibrated: closed forms to 1e-6/1e-9,
Monte Carlo means to 2%/5%, the lifetime-extension band to [0.40, 0.55],
red-zone detection at threshold 2.0, and byte-identical CLI output.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from redzone import (
    LifetimeDistribution,
    Policy,
    SimConfig,
    SystemConfig,
    WeibullTerm,
    assess_red_zone,
    bathtub_cumulative,
    bathtub_hazard,
    compose_parallel,
    delta_sweep,
    lifetime_extension,
    run_ensemble,
    scenario_timeline,
    system_hazard_curve,
)
from redzone.cli import main
from redzone.config import parse_config
from redzone.montecarlo import run_batch, sample_lifetimes

from conftest import TYPE1, make_bathtub, make_flat_bathtub, make_redzone_system
from oracle import (
    ExponentialLifetime,
    derive_seed,
    empirical_hazard,
    run_replication,
    weibull_cumulative,
    weibull_hazard,
)


@contextmanager
def criterion(number, title, limit_s):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, (
        f"criterion {number} exceeded its runtime limit: {elapsed:.1f}s >= {limit_s}s")
    print(f"[criterion {number}] PASS {title} ({elapsed:.2f}s, limit {limit_s:.0f}s)")


def test_criterion_1_weibull_regimes():
    # on the term-by-term reference, whose bits the bathtub kernels reproduce
    with criterion(1, "Weibull regimes: constant at shape 1, monotone otherwise", 1.0):
        rng = np.random.default_rng(101)
        lam = rng.uniform(1e-4, 5.0, size=10_000)
        t = rng.uniform(1e-6, 1e4, size=10_000)
        for la, tt in zip(lam, t):
            assert weibull_hazard(float(tt), WeibullTerm(float(la), 1.0)) == float(la)
        grid = np.linspace(0.5, 400.0, 2_000)
        for shape in (0.2, 0.5, 0.8):
            h = weibull_hazard(grid, WeibullTerm(1.3, shape))
            assert np.all(np.diff(h) < 0.0)
        for shape in (1.5, 2.0, 3.5):
            h = weibull_hazard(grid, WeibullTerm(1.3, shape))
            assert np.all(np.diff(h) > 0.0)


def test_criterion_2_closed_form_vs_quadrature():
    with criterion(2, "closed-form cumulatives match trapezoid quadrature to 1e-6", 10.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            lam = rng.uniform(0.01, 2.0)
            beta = float(rng.choice([rng.uniform(0.1, 0.95), 1.0, rng.uniform(1.05, 4.0)]))
            horizon = rng.uniform(1.0, 500.0)
            term = WeibullTerm(lam, beta)
            t_min = 1e-6 * horizon
            x = np.geomspace(t_min, horizon, 100_000)
            quad = float(np.trapezoid(weibull_hazard(x, term), x))
            exact = weibull_cumulative(horizon, term) - weibull_cumulative(t_min, term)
            assert abs(quad - exact) <= 1e-6 * abs(exact)
        for _ in range(100):
            model = make_bathtub(
                useful_rate=rng.uniform(0.001, 0.1),
                burnin=(rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.9)),
                wearout=(rng.uniform(1e-8, 1e-4), rng.uniform(1.5, 4.0)),
                th1=rng.uniform(5.0, 40.0),
                th2=rng.uniform(40.0, 200.0),
                th3=rng.uniform(10.0, 80.0),
            )
            horizon = model.wearout_onset + rng.uniform(1.0, 2.0 * model.th3)
            t_min = model.clamp_floor
            onset = model.wearout_onset
            xa = np.geomspace(t_min, onset, 60_000)
            xb = np.geomspace(onset, horizon, 60_000)
            quad = (float(np.trapezoid(bathtub_hazard(xa, model), xa))
                    + float(np.trapezoid(bathtub_hazard(xb, model), xb)))
            exact = bathtub_cumulative(horizon, model) - bathtub_cumulative(t_min, model)
            assert abs(quad - exact) <= 1e-6 * abs(exact)


@pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
def test_criterion_3_parallel_composition_oracle():
    with criterion(3, "exact parallel composition and its Monte Carlo lifetime", 60.0):
        lam = 1.0
        t = np.arange(0.0, 12.0, 0.01)
        expected = 2.0 * lam * (1.0 - np.exp(-lam * t)) / (2.0 - np.exp(-lam * t))
        composed = compose_parallel([np.full_like(t, lam)] * 2, [lam * t] * 2)
        assert np.all(np.abs(composed - expected) <= 1e-9 * np.maximum(expected, 1e-300))

        # the same identity through the timeline machinery
        rate = 0.01
        model = make_flat_bathtub(useful_rate=rate, th1=20.0, th2=980.0, th3=100.0)
        cfg = SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(1100.0, 0.0),
                           lab_burnin=0.0, shelf_aging_factor=0.0, software=None, operator=None)
        curve = system_hazard_curve(scenario_timeline(cfg), dt=0.5)
        mains = curve.times < 1000.0
        ref = 2 * rate * (1 - np.exp(-rate * curve.times[mains])) \
            / (2 - np.exp(-rate * curve.times[mains]))
        assert np.all(np.abs(curve.rates[mains] - ref) <= 1e-9 * np.maximum(ref, 1e-300))

        # a lab credit above every lifetime Exp(rate) can draw (53 ln 2 / rate, about
        # 3,674 weeks) leaves the spare dead on arrival and the two units as the pair
        pair = cfg._replace(unit_lifetime=ExponentialLifetime(rate), lab_burnin=1e4)
        met = run_ensemble(pair, TYPE1,
                           SimConfig(replications=100_000, master_seed=303, horizon=10_000.0))
        assert met.censored_count == 0
        assert abs(met.tdt.mean - 150.0) / 150.0 < 0.02


def test_criterion_4_replace_on_failure_relations():
    with criterion(4, "replace-on-failure: Trdd near the unit life, Tdt near twice it", 60.0):
        mean = 200.0
        cfg = make_redzone_system(delta=0.01 * mean, mean=mean)
        met = run_ensemble(cfg, TYPE1,
                           SimConfig(replications=10_000, master_seed=404, horizon=None))
        assert met.censored_count == 0
        assert abs(met.trdd.mean - mean) / mean <= 0.05
        ratio = met.tdt.mean / met.trdd.mean
        assert 1.9 <= ratio <= 2.1


def test_criterion_5_rotation_extension():
    with criterion(5, "rotation policy extends redundant lifetime 40-55%", 120.0):
        mean = 200.0
        cfg = make_redzone_system(delta=0.01 * mean, mean=mean)
        sim = SimConfig(replications=10_000, master_seed=505, horizon=None)
        m1 = run_ensemble(cfg, TYPE1, sim)
        rotation = Policy("type2", rotation_period=mean / 6.0)
        m2 = run_ensemble(cfg, rotation, sim)
        ratio = lifetime_extension(m1.trdd.mean, m2.trdd.mean)
        assert 0.40 <= ratio <= 0.55
        # three-unit budget consumed at rate two bounds the redundant life
        trdd = run_batch(cfg, rotation,
                         sample_lifetimes(cfg, sim.master_seed, sim.replications)).trdd
        assert float(np.nanmax(trdd)) <= 1.55 * mean


def test_criterion_6_spread_sweep_brackets_th3():
    with criterion(6, "spread sweep detects the red zone only below th3", 120.0):
        cfg = make_redzone_system(delta=1.0)
        th3 = cfg.hazard.th3
        rows = delta_sweep(cfg, [0.1 * th3, 0.5 * th3, 2.0 * th3, 4.0 * th3],
                           TYPE1,
                           SimConfig(replications=1_000, master_seed=606, horizon=None),
                           threshold=2.0, dt=0.1, baseline_window_fraction=0.8)
        assert [r.detected for r in rows] == [True, True, False, False]
        assert [r.predicted for r in rows] == [True, True, False, False]
        for r in rows:
            assert r.trdd_mean is not None


def test_criterion_7_lab_burnin_mitigation():
    with criterion(7, "longer lab burn-in strictly lowers red-zone severity", 60.0):
        th3 = 10.0
        severities = []
        for lab in (2.0, 6.0, 10.0, 14.0, 18.0):
            cfg = make_redzone_system(delta=0.1 * th3, lab=lab)
            severities.append(assess_red_zone(cfg, threshold=2.0, dt=0.1,
                                              baseline_window_fraction=0.8).severity)
        assert all(a > b for a, b in zip(severities, severities[1:])), severities


def test_criterion_8_byte_identical_cli_output(tmp_path):
    with criterion(8, "simulate/compare output is byte-identical across runs and "
                      "the ensemble equals the scalar engine", 60.0):
        doc = {
            "schema_version": 1,
            "lifetime": {"mean": 200.0, "sd": 2.0},
            "policy": {"kind": "type1", "rotation_period": 200.0 / 6.0},
            "vendor": {"mtbf": 200.0},
            "sim": {"replications": 200, "master_seed": 808},
        }
        conf = tmp_path / "config.json"
        conf.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("simulate", "compare"):
            outputs = []
            for run_idx in range(3):
                out = tmp_path / f"{command}_{run_idx}.json"
                assert main([command, "--config", str(conf), "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]

        run = parse_config(doc)
        for policy in (TYPE1, Policy("type2", rotation_period=run.policy.rotation_period)):
            met = run_ensemble(run.system, policy, run.sim)
            out = run_batch(run.system, policy, sample_lifetimes(
                run.system, run.sim.master_seed, run.sim.replications), horizon=run.sim.horizon)
            columns = {"trdd": out.trdd, "tdt": out.tdt, "dp": out.dp, "tdr": out.tdt - out.dp}
            traces = [run_replication(run.system, policy, derive_seed(run.sim.master_seed, i))
                      for i in range(run.sim.replications)]
            for name, column in columns.items():
                scalar = [getattr(tr, name) for tr in traces if getattr(tr, name) is not None]
                assert np.array_equal(column[~np.isnan(column)], np.array(scalar, dtype=float))
            assert met.censored_count == sum(tr.censored for tr in traces)


@pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
def test_criterion_9_empirical_hazard_recovers_constant_rate():
    with criterion(9, "binned hazard estimator recovers a constant rate within 3 SE", 60.0):
        rate = 0.01
        # with the spare dead on arrival (lab credit above every lifetime), the
        # pair's first failure, trdd, is Exp(2 rate)
        cfg = make_redzone_system(delta=1.0)._replace(unit_lifetime=ExponentialLifetime(rate),
                                                      lab_burnin=1e4)
        out = run_batch(cfg, TYPE1, sample_lifetimes(cfg, 909, 100_000),
                        horizon=5_000.0)
        h = empirical_hazard(out.trdd, out.trdd, bin_width=10.0)
        first_two_lifetimes = h.midpoints <= 2.0 / rate
        assert np.count_nonzero(first_two_lifetimes) >= 20
        for r, d, e in zip(h.rates[first_two_lifetimes], h.deaths[first_two_lifetimes],
                           h.exposure[first_two_lifetimes]):
            se = math.sqrt(max(d, 1.0)) / e
            assert abs(r - 2.0 * rate) <= 3.0 * se, (r, d, e)
