"""The engine's semantics, from closed forms at given lifetimes.

The scalar oracle checks how ``run_batch`` computes; these tests check what
it computes, from the model alone, by feeding it chosen lifetimes: the
type1 outcome of each replication as a closed-form map of its three
lifetimes, and the work that both policies conserve.  The closed forms add
floats in another order than the engine, so values are compared within a
few ulp.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import LifetimeDistribution, Policy, SystemConfig
from redzone.montecarlo import run_batch

from conftest import make_flat_bathtub

ULPS = 4

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


def assert_outcome(actual, expected, horizon):
    """``actual`` is ``expected`` within ``ULPS`` ulp, or NaN where that falls past the
    horizon; a value within ``ULPS`` ulp of the horizon may fall either side."""
    near = np.abs(expected - horizon) <= ULPS * np.spacing(horizon)
    np.testing.assert_array_equal(np.isnan(actual)[~near], (expected > horizon)[~near])
    defined = ~np.isnan(actual)
    np.testing.assert_array_max_ulp(actual[defined], expected[defined], maxulp=ULPS)


class TestType1Map:
    @settings(max_examples=200, deadline=None)
    @given(lifetimes=fleet,
           lab=st.one_of(st.just(0.0), st.sampled_from(LANDMARKS), st.floats(0.0, 500.0)),
           alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           horizon=st.one_of(st.just(1e9), st.sampled_from(LANDMARKS), st.floats(1.0, 1000.0)))
    def test_outcome_is_the_closed_form(self, lifetimes, lab, alpha, horizon):
        out = run_batch(system(lab, alpha), Policy("type1"), np.array(lifetimes),
                        horizon=horizon)
        trdd, tdt = type1_map(lifetimes, lab, alpha)
        assert_outcome(out.trdd, trdd, horizon)
        assert_outcome(out.tdt, tdt, horizon)
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


class TestWorkConservation:
    """At alpha 0 a usable spare's life is all spent in a slot: the two slots run
    together until ``trdd`` and one runs on until ``tdt``, so trdd + tdt is every
    unit's lifetime less the spare's lab credit, whatever the rotations."""

    @settings(max_examples=100, deadline=None)
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
