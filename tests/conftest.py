import numpy as np
import pytest
from hypothesis import Phase

from redzone import (
    BathtubModel,
    LifetimeDistribution,
    OperatorHazard,
    Policy,
    SoftwareHazardModel,
    SystemConfig,
    UpgradeEvent,
    WeibullTerm,
    compose_parallel,
)
from redzone.montecarlo import EVENT_KINDS
from redzone.system import _unit_cumulative_at, _unit_rate


# The phases of a property test whose every example runs the engine, the scalar oracle
# or a fine curve grid: a failure is reported as first found, unshrunk.  Shrinking it
# reruns such examples hundreds of times, minutes per test when the engine is broken,
# and skipping the phase is the one bound on shrinking that Hypothesis offers.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate)

# Replace on failure, which takes no rotation period.
TYPE1 = Policy("type1", rotation_period=None)


def make_bathtub(useful_rate=0.01, burnin=(0.05, 0.5), wearout=(1e-6, 3.0),
                 th1=20.0, th2=80.0, th3=40.0) -> BathtubModel:
    return BathtubModel(
        useful_rate=useful_rate,
        burnin=WeibullTerm(*burnin),
        wearout=WeibullTerm(*wearout),
        th1=th1, th2=th2, th3=th3,
    )


def make_flat_bathtub(useful_rate=0.01, th1=20.0, th2=180.0, th3=40.0) -> BathtubModel:
    """Constant-rate model: burn-in and wear-out amplitudes zero."""
    return BathtubModel(
        useful_rate=useful_rate,
        burnin=WeibullTerm(0.0, 0.5),
        wearout=WeibullTerm(0.0, 3.0),
        th1=th1, th2=th2, th3=th3,
    )


def make_redzone_system(delta: float, lab: float = 2.0, mean: float = 208.0) -> SystemConfig:
    """End-of-life study configuration with a slowly decaying burn-in term."""
    model = make_bathtub(useful_rate=0.01, burnin=(0.9, 0.1), wearout=(1e-6, 3.0),
                         th1=20.0, th2=180.0, th3=10.0)
    return SystemConfig(hazard=model, unit_lifetime=LifetimeDistribution(mean, delta),
                        shelf_aging_factor=0.0, lab_burnin=lab, software=None, operator=None)


def make_software_system(*, th1=20.0, th2=180.0, margin=8.0, lab=2.0, upgrades=(),
                         software=True, operator_rate=0.0) -> SystemConfig:
    """A red-zone system with optional software and operator terms; lifetime sd 0."""
    model = make_bathtub(burnin=(0.9, 0.1), th1=th1, th2=th2, th3=10.0)
    return SystemConfig(
        hazard=model, unit_lifetime=LifetimeDistribution(th1 + th2 + margin, 0.0),
        shelf_aging_factor=0.0, lab_burnin=lab,
        software=SoftwareHazardModel(0.001, 0.004, 26.0, tuple(upgrades)) if software else None,
        operator=OperatorHazard(operator_rate) if operator_rate else None)


def pulse_at_first_failure() -> SystemConfig:
    """A system whose software pulse at Tf1 makes both units certainly failed within weeks."""
    return make_software_system(upgrades=(UpgradeEvent(208.0, "minor", 10.0, 50.0),))


def with_spread(config: SystemConfig, sd: float) -> SystemConfig:
    """``config`` with lifetime sd ``sd``: one spread of a sweep."""
    return config._replace(unit_lifetime=LifetimeDistribution(config.unit_lifetime.mean, sd))


def per_segment_curve(tl, dt, start=0.0):
    """Reference sampling: one timeline at a time, each segment evaluated on its own points."""
    t = np.arange(0.0, tl.t_end, dt)
    t = t[np.searchsorted(t, start, "left"):]
    h = np.zeros_like(t)
    for seg in tl.segments:
        lo, hi = np.searchsorted(t, (seg.t_start, seg.t_end), "left")
        if lo == hi:
            continue
        tt = t[lo:hi]
        rates = [_unit_rate(tt, au, tl.config) for au in seg.units]
        if len(seg.units) == 1:
            h[lo:hi] = rates[0]
            continue
        cums = [
            _unit_cumulative_at(tt, au, tl.config) - _unit_cumulative_at(seg.epoch, au, tl.config)
            for au in seg.units
        ]
        h[lo:hi] = compose_parallel(rates, cums)
    return t, h


def event_fields(log):
    """The (replication, time, kind, unit, slot, unit_out) columns of an ``EventLog``,
    decoded as its docstring states: ``time`` as the array, the others as lists of
    the values the oracle's scalar events hold."""
    units = [None, "controller_1", "controller_2", "controller_3"]  # by unit code + 1
    slots = {-2: "shelf", -1: None, 0: 0, 1: 1}
    return (log.replication.tolist(), log.time, [EVENT_KINDS[k] for k in log.kind.tolist()],
            [units[c + 1] for c in log.unit.tolist()], [slots[s] for s in log.slot.tolist()],
            [units[c + 1] for c in log.unit_out.tolist()])


@pytest.fixture
def example_bathtub() -> BathtubModel:
    return make_bathtub()


@pytest.fixture
def flat_bathtub() -> BathtubModel:
    return make_flat_bathtub()
