"""Empirical complexity checks (paper Tables 3 and theorems 4.2/5.2/6.3).

These assert the *shape* that the evaluation section rests on: trend
counts per Table 3, Cogra state independent of n, GRETA state linear in
n, and the two-step construction effort tracking the trend count.
"""
import pytest

from repro.baselines.bruteforce import enumerate_trends
from repro.baselines.registry import run_approach
from repro.core.aggregates import Avg, Count, Max, Sum
from repro.core.events import Event
from repro.core.executor import aggregate_substream
from repro.core.granularity import Granularity, Semantics
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query


def mk(types: str) -> list[Event]:
    return [Event(i, i + 1, t, {}) for i, t in enumerate(types)]


class TestTable3TrendCounts:
    """Number of trends in the number of events (paper Table 3)."""

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_any_kleene_exponential(self, n):
        cq = Query(pattern="A+", semantics=Semantics.ANY).compile()
        assert len(enumerate_trends(mk("A" * n), cq)) == 2 ** n - 1

    @pytest.mark.parametrize("n", [4, 8, 12, 50])
    def test_next_kleene_polynomial(self, n):
        """Under NEXT every suffix of the run is a trend: n(n+1)/2."""
        cq = Query(pattern="A+", semantics=Semantics.NEXT).compile()
        assert len(enumerate_trends(mk("A" * n), cq)) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [4, 8, 12, 50])
    def test_cont_kleene_polynomial(self, n):
        cq = Query(pattern="A+", semantics=Semantics.CONT).compile()
        assert len(enumerate_trends(mk("A" * n), cq)) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_any_sequence_polynomial(self, n):
        """Fixed-length sequence SEQ(A, B) under ANY: one trend per (a, b)
        pair — polynomial, not exponential."""
        cq = Query(pattern="SEQ(A, B)", semantics=Semantics.ANY).compile()
        assert len(enumerate_trends(mk("AB" * n), cq)) == n * (n + 1) // 2

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_next_sequence_linear(self, n):
        cq = Query(pattern="SEQ(A, B)", semantics=Semantics.NEXT).compile()
        assert len(enumerate_trends(mk("AB" * n), cq)) == n


class TestSpaceComplexity:
    def test_cogra_type_grained_theta_l(self):
        """Theorem 4.2: space Theta(l), independent of n."""
        cq = Query(pattern="(SEQ(A+, B))+", semantics=Semantics.ANY).compile()
        sizes = {
            run_approach("cogra", mk("AB" * n), cq).peak_state_bytes
            for n in (2, 8, 32)
        }
        assert len(sizes) == 1

    def test_cogra_pattern_grained_constant(self):
        """Theorem 6.3: O(1) space."""
        cq = Query(pattern="(SEQ(A+, B))+", semantics=Semantics.NEXT).compile()
        sizes = {
            run_approach("cogra", mk("AB" * n), cq).peak_state_bytes
            for n in (2, 8, 64)
        }
        assert len(sizes) == 1

    def test_greta_linear_in_n(self):
        cq = Query(pattern="(SEQ(A+, B))+", semantics=Semantics.ANY).compile()
        s8 = run_approach("greta", mk("AB" * 8), cq).peak_state_bytes
        s32 = run_approach("greta", mk("AB" * 32), cq).peak_state_bytes
        assert s32 == pytest.approx(4 * s8, rel=0.05)

    def test_aseq_state_grows_with_n(self):
        cq = Query(pattern="A+", semantics=Semantics.ANY).compile()
        s8 = run_approach("aseq", mk("A" * 8), cq).peak_state_bytes
        s32 = run_approach("aseq", mk("A" * 32), cq).peak_state_bytes
        assert s32 == pytest.approx(4 * s8, rel=0.05)


class TestStateBytes:
    """Exact ``peak_state_bytes`` of the Cogra aggregators: k aggregates
    cost (1+k) numbers of 8 B per node, a stored event 48 B plus its
    (1+k) numbers. The EXPERIMENTS.md memory columns rest on these."""

    STREAM = [
        Event(i, i + 1, t, {"v": float(v)})
        for i, (t, v) in enumerate(zip("ABAACBAB", [3, 1, 4, 1, 5, 9, 2, 6]))
    ]
    AGGS = [(Count(),), (Count(), Sum("B", "v"), Avg("A", "v"), Max("B", "v"))]

    @pytest.mark.parametrize("aggs", AGGS)
    @pytest.mark.parametrize("pattern", ["A+", "SEQ(A+, B)", "(SEQ(A+, B))+"])
    def test_type_grained(self, pattern, aggs):
        """Algorithm 1: one node per pattern type."""
        cq = Query(pattern=pattern, semantics=Semantics.ANY,
                   aggregates=aggs).compile()
        assert cq.granularity is Granularity.TYPE
        peak = aggregate_substream(self.STREAM, cq).peak_state_bytes
        assert peak == len(cq.analysis.types) * (1 + len(aggs)) * 8

    @pytest.mark.parametrize("aggs", AGGS)
    @pytest.mark.parametrize(
        "pattern, pred, end_event_grained",
        [
            ("SEQ(A+, B)", AdjacentPredicate("A", "v", "<", "A", "v"), False),
            ("(SEQ(A+, B))+", AdjacentPredicate("B", "v", "<", "A", "v"), True),
        ],
    )
    def test_mixed_grained(self, pattern, pred, end_event_grained, aggs):
        """Algorithm 2: a node per type in T_t, the final accumulator, and
        every stored event of T_e."""
        cq = Query(pattern=pattern, semantics=Semantics.ANY, aggregates=aggs,
                   adjacent_predicates=(pred,)).compile()
        assert cq.granularity is Granularity.MIXED
        assert (cq.analysis.end in cq.event_grained_types) is end_event_grained
        k = len(aggs)
        n_e = sum(e.etype in cq.event_grained_types for e in self.STREAM)
        peak = aggregate_substream(self.STREAM, cq).peak_state_bytes
        assert peak == (
            (len(cq.type_grained_types) + 1) * (1 + k) * 8
            + n_e * (48 + (1 + k) * 8)
        )

    @pytest.mark.parametrize("aggs", AGGS)
    @pytest.mark.parametrize("semantics", [Semantics.NEXT, Semantics.CONT])
    def test_pattern_grained(self, semantics, aggs):
        """Algorithm 3: the last matched event and two nodes."""
        cq = Query(pattern="(SEQ(A+, B))+", semantics=semantics,
                   aggregates=aggs).compile()
        peak = aggregate_substream(self.STREAM, cq).peak_state_bytes
        assert peak == 48 + 2 * (1 + len(aggs)) * 8


class TestTimeShape:
    def test_two_step_effort_tracks_trend_count(self):
        """SASE's constructed-trend count doubles per extra event under ANY
        Kleene — the exponential two-step bottleneck (Table 3)."""
        cq = Query(pattern="A+", semantics=Semantics.ANY).compile()
        t10 = run_approach("sase", mk("A" * 10), cq).trends_constructed
        t11 = run_approach("sase", mk("A" * 11), cq).trends_constructed
        assert t10 == 2 ** 10 - 1 and t11 == 2 ** 11 - 1

    def test_cogra_events_processed_is_n(self):
        cq = Query(pattern="A+", semantics=Semantics.ANY).compile()
        r = run_approach("cogra", mk("A" * 200), cq)
        assert r.events_processed == 200
