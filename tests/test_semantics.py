"""The engine's semantics, from closed forms at given lifetimes.

The scalar oracle checks how ``run_batch`` computes; these tests check what
it computes, from the model alone, by feeding it chosen lifetimes: the
type1 outcome of each replication as a closed-form map of its three
lifetimes, and the work that both policies conserve.  The closed forms add
floats in another order than the engine, so values are compared within a
few ulp.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redzone import LifetimeDistribution, Policy, SystemConfig
from redzone.montecarlo import run_batch

from conftest import UNSHRUNK, make_flat_bathtub
from oracle import run_replication

ULPS = 4
# The type1 map and the engine compute lab + alpha * lo alike; past it they differ by at
# most six roundings, each within half an ulp of the largest value either handles: the
# three lifetimes and the outcome.  So they agree within 3 ulp of that value, which may
# be many ulp of a small outcome.
MAP_ULPS = 3
# Found by Hypothesis: the engine's tdt, 2.4999999999999867, is 30 ulp of the map's 2.5
# but under one ulp of 129.
ROUNDED_APART = dict(lifetimes=[(1.0, 1.938163982698783, 129.0)], lab=127.0, alpha=0.5,
                     horizon=1e9)

# Few distinct values beside the open ranges, so that equal lifetimes, a lab credit
# equal to the spare's lifetime and horizons on an event are common.
LANDMARKS = [50.0, 100.0, 208.0]
life = st.one_of(st.sampled_from(LANDMARKS), st.floats(1.0, 500.0))
fleet = st.lists(st.tuples(life, life, life), min_size=1, max_size=20)


def system(lab, alpha):
    return SystemConfig(hazard=make_flat_bathtub(),
                        unit_lifetime=LifetimeDistribution(208.0, 20.0),
                        lab_burnin=lab, shelf_aging_factor=alpha)


def type1_map(lifetimes, lab, alpha):
    """(trdd, tdt) of each replication under replace on failure, before any horizon.

    The spare is usable when its lab credit leaves it life (not dead on arrival) and
    its shelf ageing does not use that life up before the first failure, a tie going
    to the install; installed at the first failure ``lo``, it has consumed
    lab + alpha * lo and dies when the rest is used up.
    """
    l1, l2, l3 = np.asarray(lifetimes).T
    lo, hi = np.minimum(l1, l2), np.maximum(l1, l2)
    with np.errstate(over="ignore"):  # a tiny alpha: never dies on the shelf
        usable = (lab < l3) & (alpha == 0.0 or (l3 - lab) / alpha >= lo)
    spare_death = lo + (l3 - (lab + alpha * lo))
    return (np.where(usable, np.minimum(hi, spare_death), lo),
            np.where(usable, np.maximum(hi, spare_death), hi))


def assert_outcome(actual, expected, lifetimes, horizon):
    """``actual`` is ``expected`` within ``MAP_ULPS`` ulp of the row's largest lifetime or
    outcome, or NaN where that falls past the horizon; a value that near the horizon may
    fall either side."""
    ulp = np.spacing(np.maximum(np.max(lifetimes, axis=1), expected))
    near = np.abs(expected - horizon) <= MAP_ULPS * ulp
    np.testing.assert_array_equal(np.isnan(actual)[~near], (expected > horizon)[~near])
    defined = ~np.isnan(actual)
    apart = np.abs(actual - expected)[defined] / ulp[defined]
    assert (apart <= MAP_ULPS).all(), f"{apart.max()} ulp of the largest value apart"


@pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")
class TestType1Map:
    @settings(max_examples=200, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet,
           lab=st.one_of(st.just(0.0), st.sampled_from(LANDMARKS), st.floats(0.0, 500.0)),
           alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           horizon=st.one_of(st.just(1e9), st.sampled_from(LANDMARKS), st.floats(1.0, 1000.0)))
    @example(**ROUNDED_APART)
    def test_outcome_is_the_closed_form(self, lifetimes, lab, alpha, horizon):
        out = run_batch(system(lab, alpha), Policy("type1"), np.array(lifetimes),
                        horizon=horizon)
        trdd, tdt = type1_map(lifetimes, lab, alpha)
        assert_outcome(out.trdd, trdd, lifetimes, horizon)
        assert_outcome(out.tdt, tdt, lifetimes, horizon)
        assert np.isnan(out.dp).all()
        np.testing.assert_array_equal(out.censored, np.isnan(out.tdt))

    def test_spares_dead_on_arrival_and_on_the_shelf(self):
        # lab 100: the spare of 100 weeks is dead on arrival; at alpha 1 the one of
        # 150 dies on the shelf at 50, before the failure at 60, and the one of 160
        # at 60, tying it, and is installed with nothing left
        lifetimes = np.array([(60.0, 80.0, 100.0), (60.0, 80.0, 150.0), (60.0, 80.0, 160.0),
                              (60.0, 80.0, 300.0)])
        out = run_batch(system(100.0, 1.0), Policy("type1"), lifetimes, horizon=1e9)
        assert out.trdd.tolist() == [60.0, 60.0, 60.0, 80.0]
        assert out.tdt.tolist() == [80.0, 80.0, 80.0, 200.0]
        np.testing.assert_array_equal(np.array(type1_map(lifetimes, 100.0, 1.0)),
                                      np.array([out.trdd, out.tdt]))

    def test_rounded_apart_is_the_oracle(self):
        # the engine's rounding off the map is the model's: the scalar oracle, handed the
        # same lifetimes, ends the replication at the same floats
        (lives,), lab, alpha, horizon = ROUNDED_APART.values()
        draws = iter(lives)
        drawn = SimpleNamespace(mean=208.0, sample=lambda u: next(draws))
        trace = run_replication(system(lab, alpha)._replace(unit_lifetime=drawn),
                                Policy("type1"), seed=0, horizon=horizon)
        out = run_batch(system(lab, alpha), Policy("type1"), np.array([lives]), horizon=horizon)
        assert out.tdt.tolist() == [2.4999999999999867]  # the map's is 2.5
        assert (out.trdd.tolist(), out.tdt.tolist()) == ([trace.trdd], [trace.tdt])


class TestHorizonTie:
    """A replication that dies exactly at the horizon is not censored: the horizon
    censors only what lies past it.  Lifetimes (208, 210, 208) with 2 weeks of lab
    credit install the spare at 208 with 206 weeks left, so the system dies at 414."""

    LIVES = (208.0, 210.0, 208.0)

    @pytest.mark.parametrize("horizon, censored", [(414.0, False),
                                                   (np.nextafter(414.0, 0.0), True)],
                             ids=["at-the-death", "one-ulp-before"])
    def test_death_at_the_horizon(self, horizon, censored):
        out = run_batch(system(2.0, 0.0), Policy("type1"), np.array([self.LIVES]),
                        horizon=horizon)
        draws = iter(self.LIVES)
        drawn = SimpleNamespace(mean=208.0, sample=lambda u: next(draws))
        trace = run_replication(system(2.0, 0.0)._replace(unit_lifetime=drawn),
                                Policy("type1"), seed=0, horizon=horizon)
        assert out.censored.tolist() == [censored] and trace.censored is censored
        assert (out.trdd.tolist(), trace.trdd) == ([210.0], 210.0)
        if censored:
            assert np.isnan(out.tdt).all() and trace.tdt is None
        else:
            assert (out.tdt.tolist(), trace.tdt) == ([414.0], 414.0)


class TestWorkConservation:
    """At alpha 0 a usable spare's life is all spent in a slot: the two slots run
    together until ``trdd`` and one runs on until ``tdt``, so trdd + tdt is every
    unit's lifetime less the spare's lab credit, whatever the rotations."""

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet, lab=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           period=st.one_of(st.none(), st.sampled_from([50.0, 208.0]), st.floats(1.0, 200.0)))
    def test_life_spent_is_life_given(self, lifetimes, lab, period):
        # the lab credit stays below every lifetime drawn, so every spare is usable
        policy = Policy("type1") if period is None else Policy("type2", rotation_period=period)
        lifetimes = np.array(lifetimes)
        out = run_batch(system(lab, 0.0), policy, lifetimes, horizon=1e9)
        assert not out.censored.any()
        np.testing.assert_array_max_ulp(out.trdd + out.tdt, lifetimes.sum(axis=1) - lab,
                                        maxulp=ULPS)
