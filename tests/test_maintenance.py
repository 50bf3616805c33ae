import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redzone import Policy, ValidationError
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

    # Two-slot fleets with both slots up, the only ones the rule serves (a usable shelf
    # unit means both slots are up), with few distinct ages so that ties are common.
    @settings(max_examples=150, deadline=None)
    @given(fleets=st.lists(
        st.tuples(st.lists(st.sampled_from([0.0, 7.5, 30.0]), min_size=2, max_size=2),
                  st.booleans()),
        min_size=1, max_size=6))
    def test_vectorised_rule_agrees_with_oldest_slot(self, fleets):
        targets = [oldest_slot([unit(f"s{i}", onjob=age) for i, age in enumerate(slots)], 0.0)
                   for slots, _ in fleets]
        # (slots, rows) arrays: one column per fleet
        ages = np.array([slots for slots, _ in fleets]).T
        usable = np.array([shelf_usable for _, shelf_usable in fleets])
        assert rotation_targets(ages, usable).tolist() == [
            target if shelf_usable else -1 for target, (_, shelf_usable) in zip(targets, fleets)]
        # one system's (2,) ages with a usable shelf, as the engine's shared lead
        # epochs call it
        for age_pair, target in zip(ages.T, targets):
            assert rotation_targets(age_pair, True) == target

