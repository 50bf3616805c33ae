"""The engine's semantics, from closed forms and metamorphic relations at given lifetimes.

The scalar oracle checks how ``run_batch`` computes; these tests check what
it computes, from the model alone, by feeding it chosen lifetimes: the
type1 outcome of each replication as a closed-form map of its three
lifetimes, and the work that both policies conserve.  The closed forms add
floats in another order than the engine, so values are compared within a
few ulp.

The oracle shares the engine's event semantics, so an error in the semantics
themselves passes the differential tests.  Metamorphic relations (Chen,
Cheung and Yiu, "Metamorphic testing", 1998) check invariants of the model
instead, each bit for bit: a rotation period past the horizon is replace on
failure, time scales by powers of two, a horizon only cuts, and replace on
failure does not tell the two slots apart; and, but for one rounding, more
lab credit or shelf aging never lengthens a replace-on-failure life.
"""

from types import SimpleNamespace

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redzone import LifetimeDistribution, Policy, SystemConfig
from redzone.montecarlo import EVENT_KINDS, EventLog, run_batch, sample_lifetimes

from conftest import TYPE1, UNSHRUNK, make_flat_bathtub
from oracle import run_replication

# for the tests that draw lab credits past the hazard's burn-in duration on purpose
ignore_lab_warning = pytest.mark.filterwarnings("ignore::redzone.ValidationWarning")

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
labs = st.one_of(st.just(0.0), st.sampled_from(LANDMARKS), st.floats(0.0, 500.0))
alphas = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
horizons = st.one_of(st.just(1e9), st.sampled_from(LANDMARKS), st.floats(1.0, 1000.0))
# a rotation period, or None for replace on failure
periods = st.one_of(st.none(), st.sampled_from([50.0, 208.0]), st.floats(1.0, 200.0))


def system(lab, alpha):
    return SystemConfig(hazard=make_flat_bathtub(),
                        unit_lifetime=LifetimeDistribution(208.0, 20.0),
                        lab_burnin=lab, shelf_aging_factor=alpha, software=None, operator=None)


def policy(period):
    return TYPE1 if period is None else Policy("type2", rotation_period=period)


def assert_same_log(actual, expected):
    """Two event logs, or their columns in ``EventLog`` order, are equal column by column."""
    for name, a, e in zip(EventLog._fields, actual, expected, strict=True):
        np.testing.assert_array_equal(a, e, err_msg=name)


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


@ignore_lab_warning
class TestType1Map:
    @settings(max_examples=200, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet, lab=labs, alpha=alphas, horizon=horizons)
    @example(**ROUNDED_APART)
    def test_outcome_is_the_closed_form(self, lifetimes, lab, alpha, horizon):
        out = run_batch(system(lab, alpha), TYPE1, np.array(lifetimes),
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
        out = run_batch(system(100.0, 1.0), TYPE1, lifetimes, horizon=1e9)
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
                                TYPE1, seed=0, horizon=horizon)
        out = run_batch(system(lab, alpha), TYPE1, np.array([lives]), horizon=horizon)
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
        out = run_batch(system(2.0, 0.0), TYPE1, np.array([self.LIVES]),
                        horizon=horizon)
        draws = iter(self.LIVES)
        drawn = SimpleNamespace(mean=208.0, sample=lambda u: next(draws))
        trace = run_replication(system(2.0, 0.0)._replace(unit_lifetime=drawn),
                                TYPE1, seed=0, horizon=horizon)
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
    @given(lifetimes=fleet, lab=st.one_of(st.just(0.0), st.floats(0.0, 0.99)), period=periods)
    def test_life_spent_is_life_given(self, lifetimes, lab, period):
        # the lab credit stays below every lifetime drawn, so every spare is usable
        lifetimes = np.array(lifetimes)
        out = run_batch(system(lab, 0.0), policy(period), lifetimes, horizon=1e9)
        assert not out.censored.any()
        np.testing.assert_array_max_ulp(out.trdd + out.tdt, lifetimes.sum(axis=1) - lab,
                                        maxulp=ULPS)


@ignore_lab_warning
class TestPeriodPastTheHorizon:
    """Replace on failure is rotation at an infinite period: a rotation due only past the
    horizon never happens, so every outcome is type1's, and so is the event log but for
    the decision point, which rotation records and replace on failure does not."""

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet, lab=labs, alpha=alphas, horizon=horizons,
           excess=st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
    def test_is_replace_on_failure(self, lifetimes, lab, alpha, horizon, excess):
        period = np.nextafter(horizon + excess, np.inf)
        type1, type2 = (run_batch(system(lab, alpha), p, np.array(lifetimes), horizon=horizon,
                                  record_events=True)
                        for p in (TYPE1, Policy("type2", rotation_period=period)))
        for name in ("trdd", "tdt", "censored"):
            np.testing.assert_array_equal(getattr(type2, name), getattr(type1, name),
                                          err_msg=name)
        kept = type2.events.kind != EVENT_KINDS.index("dp")
        assert_same_log([column[kept] for column in type2.events], type1.events)


@ignore_lab_warning
class TestTimeScaling:
    """Scaling every time (lifetimes, lab credit, period, horizon) by 2^k scales every
    outcome and event time by 2^k, bit for bit, and changes nothing else: the engine's
    sums, differences, products with alpha, quotients by it and multiples of the period
    are all exact under a power of two, so an absolute constant in a time, such as a
    nudge of the rotation due time, breaks it.  That holds only away from the subnormal
    range, where a value loses bits: a nonzero lab credit or alpha is drawn from 1e-3."""

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet,
           lab=st.one_of(st.just(0.0), st.sampled_from(LANDMARKS), st.floats(1e-3, 500.0)),
           alpha=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(1e-3, 1.0)),
           horizon=horizons, period=periods,
           k=st.integers(-20, 20).filter(bool))
    def test_outcomes_scale(self, lifetimes, lab, alpha, horizon, period, k):
        c = 2.0 ** k
        out, scaled = (
            run_batch(system(lab * s, alpha), policy(None if period is None else period * s),
                      np.array(lifetimes) * s, horizon=horizon * s, record_events=True)
            for s in (1.0, c))
        for name in ("trdd", "tdt", "dp"):
            np.testing.assert_array_equal(getattr(scaled, name), getattr(out, name) * c,
                                          err_msg=name)
        np.testing.assert_array_equal(scaled.censored, out.censored)
        assert_same_log(scaled.events, out.events._replace(time=out.events.time * c))


@ignore_lab_warning
class TestHorizonConsistency:
    """A horizon only cuts: the outcomes at horizon h are those at an infinite horizon
    with every value past h set to NaN, censored where the system outlives h, and the
    event log is the events at or before h."""

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet, lab=labs, alpha=alphas, horizon=horizons, period=periods)
    def test_outcomes_are_cut_at_the_horizon(self, lifetimes, lab, alpha, horizon, period):
        cut, full = (run_batch(system(lab, alpha), policy(period), np.array(lifetimes),
                               horizon=h, record_events=True)
                     for h in (horizon, np.inf))
        assert not full.censored.any()
        for name in ("trdd", "tdt", "dp"):
            values = getattr(full, name)
            np.testing.assert_array_equal(getattr(cut, name),
                                          np.where(values > horizon, np.nan, values),
                                          err_msg=name)
        np.testing.assert_array_equal(cut.censored, full.tdt > horizon)
        assert_same_log(cut.events, [column[full.events.time <= horizon]
                                     for column in full.events])


@ignore_lab_warning
class TestType1SlotSymmetry:
    """Under replace on failure the two slots are alike: swapping the lifetimes of slot
    0's and slot 1's units changes no outcome.  Type2 is not symmetric: a rotation
    between slots of equal effective age takes slot 0's unit out, so the swap changes
    which unit rests on the shelf."""

    @settings(max_examples=100, deadline=None, phases=UNSHRUNK)
    @given(lifetimes=fleet, lab=labs, alpha=alphas, horizon=horizons)
    def test_swapping_the_slots_changes_nothing(self, lifetimes, lab, alpha, horizon):
        lifetimes = np.array(lifetimes)
        out, swapped = (run_batch(system(lab, alpha), TYPE1, lives, horizon=horizon)
                        for lives in (lifetimes, lifetimes[:, [1, 0, 2]]))
        for name in ("trdd", "tdt", "dp", "censored"):
            np.testing.assert_array_equal(getattr(swapped, name), getattr(out, name),
                                          err_msg=name)


@ignore_lab_warning
class TestType1Monotonicity:
    """On one draw, more lab credit or more shelf aging never lengthens a replication's
    total lifetime under replace on failure: the spare has consumed more at install, so
    it dies no later, and ``tdt`` is the later of its death and the other main unit's.

    The engine keeps this bit for bit but for one rounding.  A unit's death is its due
    time ``t + (L - consumed)``, computed at the last event epoch ``t`` before it.
    Where the spare dies last, that epoch is the second main failure whatever the lab
    credit or alpha, and raising either only raises ``consumed``; rounding is monotone,
    so the death does not rise.  Where the surviving main unit (born at 0, lifetime
    ``L``) dies last, its death is ``t + (L - t)``: exactly ``L`` when ``t >= L / 2``
    (Sterbenz), else within one ulp of it.  Raising lab or alpha can move that epoch,
    the spare dying at another time, on the shelf or on arrival, and so move ``tdt``
    from one ulp below ``L`` to one ulp above.  At a lifetime sd of 60 a first failure
    often falls before half the other main's life, and the draw below holds such rows;
    at sd 20 it holds none.  A rise anywhere else, or past one ulp of ``L`` on either
    side, breaks the relation: charging shelf aging at 1 - alpha does.
    """

    LABS = np.linspace(0.0, 250.0, 26)  # past many spares' lifetimes: some arrive dead
    ALPHAS = np.linspace(0.0, 1.0, 11)

    @pytest.mark.parametrize("sd, rounded", [(20.0, False), (60.0, True)])
    def test_more_lab_or_alpha_never_lengthens_life(self, sd, rounded):
        cfg = system(0.0, 0.0)._replace(unit_lifetime=LifetimeDistribution(208.0, sd))
        lifetimes = sample_lifetimes(cfg, 42, 2000)
        survivor = lifetimes[:, :2].max(axis=1)  # the main unit that fails second
        ulp = np.spacing(survivor)
        tdt = np.array([[run_batch(cfg._replace(lab_burnin=lab, shelf_aging_factor=alpha),
                                   TYPE1, lifetimes, horizon=math.inf).tdt
                         for alpha in self.ALPHAS] for lab in self.LABS])
        assert not np.isnan(tdt).any()
        rose = False
        for axis in (0, 1):  # raising lab at each alpha, then alpha at each lab
            values = np.moveaxis(tdt, axis, 0)
            # each setting against the least tdt any lower setting gave
            least = np.minimum.accumulate(values, axis=0)[:-1]
            higher = values[1:]
            up = higher > least
            rose |= up.any()
            near = np.abs(np.array([higher, least]) - survivor) <= ulp
            assert near.all(axis=0)[up].all(), "tdt rose away from the surviving main's death"
        assert rose == rounded
