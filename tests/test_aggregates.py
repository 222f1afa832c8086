"""Table-8 aggregate algebra unit tests (paper Sections 2.3 and 8)."""
import random

import pytest

from repro.core.aggregates import (
    Avg,
    Count,
    CountType,
    Max,
    Min,
    Sum,
    absorb,
    extend,
    finalize,
    new_node,
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


class TestNodeHelpers:
    SPECS = (Count(), CountType("A"), Min("A", "v"), Sum("A", "v"))

    def test_new_node(self):
        assert new_node(self.SPECS, 3) == [3, 0, 0, None, (0, 0)]

    def test_absorb_in_place(self):
        a = [2, 0, 1, 5, (2, 0)]
        absorb(self.SPECS, a, [4, 0, 2, 3, (4, 0)])
        assert a == [6, 0, 3, 3, (6, 0)]

    def test_extend_by_node_count(self):
        node = [3, 0, 1, None, (2, 0)]
        extend(self.SPECS, node, "A", {"v": 7})
        assert node == [3, 0, 4, 7, (23, 0)]

    def test_finalize_names(self):
        out = finalize(self.SPECS, [9, 0, 4, 7, (23, 0)])
        assert out == {"count_star": 9, "count_A": 4, "min_A_v": 7, "sum_A_v": 23}


class TestNodeLaws:
    """The laws the kernels rely on when they merge predecessor nodes in
    any order and extend the merged node once, checked with ``==`` on
    random nodes built by ``extend`` and ``absorb``."""

    SPECS = (Count(), CountType("A"), CountType("B"), Min("A", "v"), Max("A", "v"),
             Min("B", "v"), Max("B", "v"), Sum("A", "v"), Avg("B", "v"))
    VALUES = {
        "int": lambda rng: rng.randint(-50, 50),
        "quarter": lambda rng: rng.randint(-400, 400) / 4,
        "uniform": lambda rng: rng.uniform(-1e3, 1e3),
        "beyond-int64": lambda rng: rng.choice((1, -1)) * (2**63 + rng.randint(0, 2**70)),
    }

    def plus(self, a, b):
        out = list(a)
        absorb(self.SPECS, out, b)
        return out

    def ext(self, node, event):
        out = list(node)
        extend(self.SPECS, out, *event)
        return out

    def event(self, rng, value):
        return rng.choice("ABC"), {"v": value(rng)}

    def node(self, rng, value, depth=2):
        node = new_node(self.SPECS, rng.randint(0, 3))
        for _ in range(rng.randint(0, 4)):
            if depth and rng.random() < 0.3:
                node = self.plus(node, self.node(rng, value, depth - 1))
            else:
                node = self.ext(node, self.event(rng, value))
        return node

    @pytest.mark.parametrize("kind", list(VALUES))
    def test_laws(self, kind):
        value = self.VALUES[kind]
        zero = new_node(self.SPECS, 0)
        for seed in range(50):
            rng = random.Random(seed)
            a, b, c = (self.node(rng, value) for _ in range(3))
            e = self.event(rng, value)
            assert self.plus(a, zero) == self.plus(zero, a) == a
            assert self.plus(a, b) == self.plus(b, a)
            assert self.plus(self.plus(a, b), c) == self.plus(a, self.plus(b, c))
            assert self.ext(self.plus(a, b), e) == self.plus(self.ext(a, e), self.ext(b, e))
