from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import DomainError, Policy, Unit, ValidationError, decision_point, red_zone_condition
from redzone.maintenance import (
    FleetSnapshot,
    default_rotation_period,
    plan_type1,
    plan_type2,
    rotation_targets,
)


def unit(uid, onjob=0.0, shelf=0.0, credit=0.0, status="active", lifetime=1000.0):
    return Unit(uid, lifetime=lifetime, onjob_age=onjob, shelf_age=shelf,
                lab_burnin_credit=credit, status=status)


class TestPolicy:
    def test_type1(self):
        assert Policy("type1").rotation_period is None

    def test_type2_requires_period(self):
        with pytest.raises(ValidationError):
            Policy("type2")
        with pytest.raises(ValidationError):
            Policy("type2", rotation_period=0.0)
        assert Policy("type2", rotation_period=30.0).rotation_period == 30.0

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Policy("type3")

    def test_default_rotation_period_guidance(self):
        assert default_rotation_period(200.0) == pytest.approx(200.0 / 6.0)


class TestPlanType1:
    def test_spare_installed_on_failure(self):
        failed = unit("controller_1", onjob=220.0, status="failed")
        state = FleetSnapshot(220.0, (failed, unit("controller_2", onjob=220.0)),
                              unit("controller_3", credit=2.0, status="shelf"))
        action = plan_type1(state, failed_slot=0)
        assert action is not None
        assert action.kind == "replace_failed"
        assert action.slot == 0
        assert action.unit_in == "controller_3"
        assert action.unit_out == "controller_1"

    def test_empty_shelf_leaves_slot_empty(self):
        state = FleetSnapshot(300.0, (None, unit("controller_2")), None)
        assert plan_type1(state, failed_slot=0) is None

    def test_failed_shelf_unit_cannot_be_installed(self):
        state = FleetSnapshot(300.0, (None, unit("controller_2")),
                              unit("controller_3", status="failed"))
        assert plan_type1(state, failed_slot=0) is None


class TestPlanType2:
    def test_first_rotation_tie_breaks_to_lower_slot(self):
        p = 30.0
        state = FleetSnapshot(p, (unit("a", onjob=p), unit("b", onjob=p)),
                              unit("c", status="shelf"))
        action = plan_type2(state, p)
        assert action.kind == "rotate"
        assert action.slot == 0
        assert action.unit_in == "c"
        assert action.unit_out == "a"

    def test_second_rotation_targets_oldest(self):
        p = 30.0
        # after the first rotation: slot1 holds the fresh unit, slot2 kept aging
        state = FleetSnapshot(2 * p, (unit("c", onjob=p), unit("b", onjob=2 * p)),
                              unit("a", onjob=p, status="shelf"))
        action = plan_type2(state, 2 * p)
        assert action.slot == 1
        assert action.unit_out == "b"

    def test_effective_age_includes_credit_and_shelf(self):
        state = FleetSnapshot(10.0, (unit("a", onjob=10.0),
                                     unit("b", onjob=9.0, credit=2.0)),
                              unit("c", status="shelf"))
        action = plan_type2(state, 10.0)
        assert action.slot == 1  # 9 + 2 credit beats 10

    def test_suspended_when_shelf_empty(self):
        state = FleetSnapshot(60.0, (unit("a"), unit("b")), None)
        assert plan_type2(state, 60.0) is None

    # Few distinct ages, so that equal effective ages (ties) are common.
    @settings(max_examples=150, deadline=None)
    @given(fleets=st.integers(1, 2).flatmap(lambda k: st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from([0.0, 7.5, 30.0]), st.booleans()),
                           min_size=k, max_size=k),
                  st.sampled_from(["usable", "failed", "empty"])),
        min_size=1, max_size=6)))
    def test_vectorised_rule_agrees_with_plan_type2(self, fleets):
        expected = []
        for slots, shelf in fleets:
            state = FleetSnapshot(
                60.0,
                tuple(unit(f"s{i}", onjob=age, status="active" if up else "failed")
                      for i, (age, up) in enumerate(slots)),
                None if shelf == "empty" else unit("c", status="shelf" if shelf == "usable"
                                                   else "failed"))
            action = plan_type2(state, 60.0)
            expected.append(-1 if action is None else action.slot)
        ages = np.array([[age for age, _ in slots] for slots, _ in fleets])
        alive = np.array([[up for _, up in slots] for slots, _ in fleets])
        usable = np.array([shelf == "usable" for _, shelf in fleets])
        assert rotation_targets(ages, alive, usable).tolist() == expected


class TestDecisionPoint:
    def test_type1_from_vendor_statistics(self):
        dp = decision_point(Policy("type1"), vendor_mtbf=200.0, warn_factor=0.8)
        assert dp.time == pytest.approx(160.0)
        assert dp.rule == "vendor_mtbf"

    def test_type1_requires_vendor_mtbf(self):
        with pytest.raises(DomainError):
            decision_point(Policy("type1"))

    def test_type2_read_from_trace(self):
        trace = SimpleNamespace(dp=295.0, tdt=300.0)
        dp = decision_point(Policy("type2", rotation_period=30.0), trace=trace)
        assert dp.time == 295.0
        assert dp.rule == "shelf_empty"
        assert dp.margin == pytest.approx(5.0)

    def test_type2_absent_when_shelf_never_empties(self):
        trace = SimpleNamespace(dp=None, tdt=300.0)
        assert decision_point(Policy("type2", rotation_period=30.0), trace=trace) is None


class TestRedZoneCondition:
    def test_below_threshold(self):
        assert red_zone_condition(10.0, 20.0) is True

    def test_above_threshold(self):
        assert red_zone_condition(30.0, 20.0) is False

    def test_boundary_is_strict(self):
        assert red_zone_condition(20.0, 20.0) is False

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            red_zone_condition(-1.0, 20.0)
        with pytest.raises(DomainError):
            red_zone_condition(1.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(delta=st.floats(0.0, 100.0), th3=st.floats(0.1, 100.0),
           shrink=st.floats(0.0, 1.0))
    def test_monotone_in_spread(self, delta, th3, shrink):
        if red_zone_condition(delta, th3):
            assert red_zone_condition(delta * shrink, th3)
