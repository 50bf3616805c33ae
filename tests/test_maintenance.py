import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import DomainError, Policy, ValidationError, red_zone_condition
from redzone.maintenance import rotation_targets

from oracle import Unit, oldest_slot


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


class TestOldestSlot:
    def test_ties_go_to_lower_slot(self):
        assert oldest_slot((unit("a", onjob=30.0), unit("b", onjob=30.0)), 0.0) == 0

    def test_targets_oldest(self):
        # after the first rotation: slot 0 holds the fresh unit, slot 1 kept aging
        assert oldest_slot((unit("c", onjob=30.0), unit("b", onjob=60.0)), 0.0) == 1

    @pytest.mark.parametrize("second, alpha, expected", [
        (unit("b", onjob=9.0, credit=2.0), 0.0, 1),  # 9 + 2 credit beats 10
        (unit("b", onjob=8.0, shelf=6.0), 0.5, 1),   # 8 + 0.5 * 6 beats 10
        (unit("b", onjob=8.0, shelf=6.0), 0.0, 0),   # cold storage: shelf time is free
    ])
    def test_effective_age_includes_credit_and_shelf(self, second, alpha, expected):
        assert oldest_slot((unit("a", onjob=10.0), second), alpha) == expected

    def test_failed_slots_skipped(self):
        old_failed = unit("a", onjob=50.0, status="failed")
        assert oldest_slot((old_failed, unit("b", onjob=5.0)), 0.0) == 1
        assert oldest_slot((old_failed, unit("b", status="failed")), 0.0) is None

    # Two-slot fleets, the only ones the rule serves, with few distinct ages so that
    # equal effective ages (ties) are common.
    @settings(max_examples=150, deadline=None)
    @given(fleets=st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from([0.0, 7.5, 30.0]), st.booleans()),
                           min_size=2, max_size=2),
                  st.booleans()),
        min_size=1, max_size=6))
    def test_vectorised_rule_agrees_with_oldest_slot(self, fleets):
        expected = []
        for slots, shelf_usable in fleets:
            target = oldest_slot(
                [unit(f"s{i}", onjob=age, status="active" if up else "failed")
                 for i, (age, up) in enumerate(slots)], 0.0)
            expected.append(-1 if target is None or not shelf_usable else target)
        # (slots, rows) arrays: one column per fleet
        ages = np.array([[age for age, _ in slots] for slots, _ in fleets]).T
        alive = np.array([[up for _, up in slots] for slots, _ in fleets]).T
        usable = np.array([shelf_usable for _, shelf_usable in fleets])
        assert rotation_targets(ages, alive, usable).tolist() == expected
        # one system's (2,) ages with both slots up and a usable shelf, as the engine's
        # shared lead epochs call it
        for age_pair in ages.T:
            both = oldest_slot([unit("s0", onjob=age_pair[0]), unit("s1", onjob=age_pair[1])],
                               0.0)
            assert rotation_targets(age_pair, (True, True), True) == both


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
