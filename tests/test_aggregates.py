"""Table-8 aggregate algebra unit tests (paper Sections 2.3 and 8)."""
import pytest

from repro.core.aggregates import (
    Avg,
    Count,
    CountType,
    Max,
    Min,
    Sum,
    apply_event_slots,
    finalize_slots,
    init_slots,
    merge_slots,
)


class TestSpecNames:
    @pytest.mark.parametrize(
        "spec, name",
        [
            (Count(), "count_star"),
            (CountType("A"), "count_A"),
            (Min("A", "v"), "min_A_v"),
            (Max("B", "price"), "max_B_price"),
            (Sum("A", "v"), "sum_A_v"),
            (Avg("U", "price"), "avg_U_price"),
        ],
    )
    def test_name(self, spec, name):
        assert spec.name == name


class TestCount:
    def test_rides_on_node_count(self):
        s = Count()
        assert s.finalize(s.init_val(), 42) == 42
        assert s.on_event(0, "A", {}, 5) == 0


class TestCountType:
    def test_update_only_for_matching_type(self):
        s = CountType("A")
        assert s.on_event(3, "A", {}, 2) == 5  # += trend count
        assert s.on_event(3, "B", {}, 2) == 3

    def test_merge_adds(self):
        assert CountType("A").merge(3, 4) == 7


class TestMinMax:
    def test_none_is_identity(self):
        assert Min("A", "v").merge(None, 5) == 5
        assert Min("A", "v").merge(5, None) == 5
        assert Max("A", "v").merge(None, None) is None

    def test_zero_count_event_does_not_contribute(self):
        """The bug the brute-force oracle caught: an event with e.count = 0
        ends no trend, so its value must not enter MIN/MAX."""
        s = Min("A", "v")
        assert s.on_event(None, "A", {"v": 1}, 0) is None
        assert s.on_event(None, "A", {"v": 1}, 3) == 1

    def test_min_max_direction(self):
        assert Min("A", "v").on_event(5, "A", {"v": 9}, 1) == 5
        assert Max("A", "v").on_event(5, "A", {"v": 9}, 1) == 9

    def test_other_type_propagates(self):
        assert Min("A", "v").on_event(5, "B", {"v": 0}, 7) == 5


class TestSum:
    def test_weighted_by_trend_count(self):
        # Table 8: e.sum = e.attr * e.count + predecessor sums.
        # Slots are exact binary fractions (num, k) = num / 2**k.
        s = Sum("A", "v")
        assert s.on_event((10, 0), "A", {"v": 3}, 4) == (22, 0)
        assert s.on_event((10, 0), "B", {"v": 3}, 4) == (10, 0)

    def test_merge(self):
        assert Sum("A", "v").merge((2, 0), (3, 0)) == (5, 0)


class TestAvg:
    def test_pair_semantics(self):
        s = Avg("A", "v")
        v = s.on_event(s.init_val(), "A", {"v": 3}, 2)
        assert v == (6, 0, 2)
        v = s.merge(v, (4, 0, 1))
        assert v == (10, 0, 3)
        assert s.finalize(v, 99) == pytest.approx(10 / 3)

    def test_empty_is_none(self):
        s = Avg("A", "v")
        assert s.finalize(s.init_val(), 0) is None


class TestSlotHelpers:
    SPECS = (Count(), CountType("A"), Min("A", "v"), Sum("A", "v"))

    def test_init(self):
        assert init_slots(self.SPECS) == [0, 0, None, (0, 0)]

    def test_merge_in_place(self):
        a = [0, 1, 5, (2, 0)]
        merge_slots(self.SPECS, a, [0, 2, 3, (4, 0)])
        assert a == [0, 3, 3, (6, 0)]

    def test_apply_event(self):
        slots = [0, 1, None, (2, 0)]
        apply_event_slots(self.SPECS, slots, "A", {"v": 7}, 3)
        assert slots == [0, 4, 7, (23, 0)]

    def test_finalize_names(self):
        out = finalize_slots(self.SPECS, [0, 4, 7, (23, 0)], 9)
        assert out == {"count_star": 9, "count_A": 4, "min_A_v": 7, "sum_A_v": 23}
