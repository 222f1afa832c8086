"""Baseline-specific behavior: capability envelope (Table 9), budget/DNF
handling, two-step construction counts, and the flattening machinery."""
import pytest

from repro.baselines.bruteforce import (
    TrendExplosion,
    aggregate_bruteforce,
    enumerate_trends,
)
from repro.baselines.flink_like import flatten_length, type_paths
from repro.baselines.registry import run_approach
from repro.core.aggregates import Avg, Count, CountType, Max, Min, Sum
from repro.core.events import Event
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query
from repro.harness.metrics import Budget


def mk(types: str) -> list[Event]:
    return [Event(i, i + 1, t, {"v": i}) for i, t in enumerate(types)]


def cq_of(pattern="(SEQ(A+, B))+", semantics=Semantics.ANY, preds=()):
    return Query(
        pattern=pattern, semantics=semantics, adjacent_predicates=preds
    ).compile()


class TestCapabilityErrors:
    def test_greta_rejects_next_cont(self):
        for sem in (Semantics.NEXT, Semantics.CONT):
            with pytest.raises(ValueError, match="Table 9"):
                run_approach("greta", mk("AB"), cq_of(semantics=sem))

    def test_aseq_rejects_non_any_and_predicates(self):
        with pytest.raises(ValueError, match="Table 9"):
            run_approach("aseq", mk("AB"), cq_of(semantics=Semantics.NEXT))
        with pytest.raises(ValueError, match="Table 9"):
            run_approach(
                "aseq",
                mk("AB"),
                cq_of(preds=(AdjacentPredicate("A", "v", "<", "A", "v"),)),
            )

    def test_flink_rejects_next(self):
        with pytest.raises(ValueError, match="Table 9"):
            run_approach("flink", mk("AB"), cq_of(semantics=Semantics.NEXT))

    def test_registry_refuses_unsupported(self):
        with pytest.raises(ValueError, match="Table 9"):
            run_approach("aseq", mk("AB"), cq_of(semantics=Semantics.CONT))


class TestBudgets:
    @pytest.mark.parametrize("name", ["flink", "sase", "greta", "aseq"])
    def test_dnf_on_tiny_budget(self, name):
        """Every budgeted approach reports a DNF row the same way: null
        aggregates, the relevant-event count and the state built so far."""
        events = mk("A" * 9 + "Z" + "A" * 9 + "B")
        cq = Query(
            pattern="(SEQ(A+, B))+",
            semantics=Semantics.ANY,
            aggregates=(Count(), Sum("A", "v"), Min("B", "v")),
        ).compile()
        res = run_approach(name, events, cq, budget=Budget(max_units=50))
        assert res.dnf
        assert res.aggregates == {s.name: None for s in cq.specs}
        assert res.events_processed == 19
        assert res.peak_state_bytes > 0

    def test_sase_completes_within_budget(self):
        events = mk("AABAB")
        res = run_approach("sase", events, cq_of(), budget=Budget(max_units=100_000))
        assert not res.dnf
        assert res.aggregates == aggregate_bruteforce(events, cq_of())

    def test_sase_dnf_counts_trends_not_work_units(self):
        """The budget runs out while pointers are built, before any trend."""
        events = mk("A" * 18 + "B")
        res = run_approach("sase", events, cq_of(), budget=Budget(max_units=50))
        assert res.dnf
        assert res.trends_constructed == 0

    def test_bruteforce_explosion_guard(self):
        events = mk("A" * 25)
        with pytest.raises(TrendExplosion):
            enumerate_trends(events, cq_of("A+"), max_trends=1_000)


@pytest.mark.parametrize(
    "semantics, expected",
    [
        # Trends (a1,b3), (a2,b3), (a1,a2,b3).
        (Semantics.ANY, (3, 4, 1, 2, 8, 2.0)),
        # Trends (a1,a2,b3), (a2,b3): a2 extends a1's partial trend.
        (Semantics.NEXT, (2, 3, 1, 2, 7, 7 / 3)),
        (Semantics.CONT, (2, 3, 1, 2, 7, 7 / 3)),
    ],
)
def test_bruteforce_definition6_by_hand(semantics, expected):
    """Definition 6 (Section 2.3) on a1(v=1), a2(v=3), b3(v=2)."""
    events = [
        Event(0, 1, "A", {"v": 1}),
        Event(1, 2, "A", {"v": 3}),
        Event(2, 3, "B", {"v": 2}),
    ]
    cq = Query(
        pattern="SEQ(A+, B)",
        semantics=semantics,
        aggregates=(
            Count(), CountType("A"), Min("A", "v"), Max("B", "v"),
            Sum("A", "v"), Avg("A", "v"),
        ),
    ).compile()
    got = aggregate_bruteforce(events, cq)
    assert tuple(got[s.name] for s in cq.specs) == expected


class TestTwoStepAccounting:
    def test_sase_counts_constructed_trends(self):
        events = mk("ABAABAB")
        cq = cq_of()
        res = run_approach("sase", events, cq)
        assert res.trends_constructed == res.aggregates["count_star"]
        assert res.peak_state_bytes > 0

    def test_flink_stores_all_sequences(self):
        events = mk("AAB")
        cq = cq_of()
        res = run_approach("flink", events, cq)
        # Trends: (a1,b), (a2,b), (a1,a2,b) -> 3 stored sequences.
        assert res.trends_constructed == 3
        assert res.aggregates["count_star"] == 3

    def test_flink_memory_exceeds_sase_on_many_trends(self):
        """Flink stores every sequence; SASE only the current DFS path."""
        events = mk("A" * 12 + "B")
        cq = cq_of()
        flink = run_approach("flink", events, cq)
        sase = run_approach("sase", events, cq)
        assert flink.peak_state_bytes > sase.peak_state_bytes


class TestFlattening:
    def test_type_paths_running_example(self):
        cq = cq_of()
        b = Budget()
        assert type_paths(cq, 2, b) == [("A", "B")]
        assert set(type_paths(cq, 4, b)) == {
            ("A", "A", "A", "B"),
            ("A", "B", "A", "B"),
        }
        assert type_paths(cq, 1, b) == []  # no 1-event match of (SEQ(A+,B))+

    def test_type_paths_q2(self):
        cq = cq_of("SEQ(Accept, (SEQ(Call, Cancel))+, Finish)")
        b = Budget()
        assert type_paths(cq, 4, b) == [("Accept", "Call", "Cancel", "Finish")]
        assert type_paths(cq, 5, b) == []
        assert len(type_paths(cq, 6, b)) == 1

    def test_flatten_length_any_is_relevant_event_count(self):
        events = mk("AZBAB")
        assert flatten_length(events, cq_of()) == 4

    def test_flatten_length_cont_is_longest_adjacent_stretch(self):
        rising = (AdjacentPredicate("A", "v", "<", "A", "v"),)
        cq = cq_of("A+", Semantics.CONT, rising)
        # v: 0 1 2 | 0 1 | Z | 1 2 3 4 ; a time tie also breaks a stretch.
        vs = [0, 1, 2, 0, 1, None, 1, 2, 3, 4]
        events = [
            Event(i, i + 1, "Z" if v is None else "A", {"v": v})
            for i, v in enumerate(vs)
        ]
        assert flatten_length(events, cq) == 4
        events[8] = Event(8, 8, "A", {"v": 3})  # same time as its predecessor
        assert flatten_length(events, cq) == 3
        assert flatten_length([], cq) == 0

    def test_flink_cont_measures_the_longest_run(self):
        """The flattening length comes from the input: a long rising run is
        counted in full, and a stream of short runs stays cheap."""
        cq = Query(
            pattern="M+",
            semantics=Semantics.CONT,
            adjacent_predicates=(AdjacentPredicate("M", "v", "<", "M", "v"),),
        ).compile()
        short_runs = [Event(i, i + 1, "M", {"v": i % 4}) for i in range(2_000)]
        res = run_approach("flink", short_runs, cq, budget=Budget(max_units=100_000))
        assert not res.dnf
        assert res.aggregates["count_star"] == 5_000
        assert res.aggregates == aggregate_bruteforce(short_runs, cq)
        rising = [Event(i, i + 1, "M", {"v": i}) for i in range(100)]
        res = run_approach("flink", rising, cq)
        assert res.aggregates["count_star"] == 5_050
        assert res.aggregates == aggregate_bruteforce(rising, cq)


class TestGretaProperties:
    def test_greta_state_grows_with_events(self):
        cq = cq_of()
        small = run_approach("greta", mk("AB" * 3), cq)
        large = run_approach("greta", mk("AB" * 30), cq)
        assert large.peak_state_bytes > small.peak_state_bytes * 5

    def test_cogra_state_constant_in_events(self):
        cq = cq_of()
        small = run_approach("cogra", mk("AB" * 3), cq)
        large = run_approach("cogra", mk("AB" * 30), cq)
        assert small.peak_state_bytes == large.peak_state_bytes
