"""Exact reproduction of the paper's worked examples.

* Table 5 — type-grained trend count trace (final count 43, Example 5),
* Table 6 — mixed-grained trace (final count 33, Example 6),
* Table 7 — pattern-grained traces under NEXT (8 trends, Example 7) and
  CONT (2 trends),
* Example 2 — 43 trends detected under ANY from the Figure-2 stream.
"""
import pytest

from repro.baselines.bruteforce import enumerate_trends
from repro.core.events import Event
from repro.core.executor import make_aggregator
from repro.core.granularity import Granularity, Semantics
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query


def fig2_stream(v: dict | None = None) -> list[Event]:
    """The Figure-2 stream a1 b2 a3 a4 c5 b6 a7 b8 (c5 is irrelevant)."""
    v = v or {}
    return [
        Event(i, t, ty, {"v": v.get(t, 0)})
        for i, (t, ty) in enumerate(
            [(1, "A"), (2, "B"), (3, "A"), (4, "A"), (5, "C"), (6, "B"),
             (7, "A"), (8, "B")]
        )
    ]


PATTERN = "(SEQ(A+, B))+"


def trace(cq, events, row):
    """Fold ``events`` one by one with ``make_aggregator(cq).update`` and
    read ``row(e, e_count, agg)`` right after each event ``e``, where
    ``e_count`` is ``update``'s return value (e.count, None if unmatched).
    Returns the rows that are not None and the aggregator."""
    agg = make_aggregator(cq)
    rows = [row(e, agg.update(e.etype, e.attrs), agg) for e in events]
    return [r for r in rows if r is not None], agg


def final_count(agg):
    return agg.result()["count_star"]


class TestTable5TypeGrained:
    """Table 5: e.count and type counts per event; final count 43."""

    EXPECTED = [
        # (etype, e.count, updated type count)
        ("A", 1, 1), ("B", 1, 1), ("A", 3, 4), ("A", 6, 10),
        ("B", 10, 11), ("A", 22, 32), ("B", 32, 43),
    ]

    def test_trace(self):
        cq = Query(pattern=PATTERN, semantics=Semantics.ANY).compile()
        assert cq.granularity is Granularity.TYPE
        got, agg = trace(cq, fig2_stream(), self.row)
        assert got == self.EXPECTED
        assert final_count(agg) == 43

    @staticmethod
    def row(e, e_count, agg):
        return None if e_count is None else (e.etype, e_count, agg.H[e.etype][0])

    def test_example5_arithmetic(self):
        """a7.count = A.count + B.count + 1 = 10 + 11 + 1 = 22."""
        cq = Query(pattern=PATTERN, semantics=Semantics.ANY).compile()
        got, _ = trace(cq, fig2_stream(), self.row)
        assert got[5] == ("A", 22, 32)  # a7: (etype, e.count, A.count)


class TestTable6MixedGrained:
    """Table 6: theta restricts B->A adjacency; a7 is adjacent to b2 but
    not b6; final count 33."""

    # v values realize Example 6's adjacency: b2.v=1 matches a-events
    # (v=1), b6.v=2 does not.
    VALUES = {1: 1, 2: 1, 3: 1, 4: 1, 6: 2, 7: 1, 8: 0}
    EXPECTED = [
        ("A", 1, 1, 0), ("B", 1, None, 1), ("A", 3, 4, 1), ("A", 6, 10, 1),
        ("B", 10, None, 11), ("A", 12, 22, 11), ("B", 22, None, 33),
    ]

    def cq(self):
        return Query(
            pattern=PATTERN,
            semantics=Semantics.ANY,
            adjacent_predicates=(AdjacentPredicate("B", "v", "==", "A", "v"),),
        ).compile()

    def test_granularity_and_split(self):
        cq = self.cq()
        assert cq.granularity is Granularity.MIXED
        assert cq.event_grained_types == frozenset({"B"})
        assert cq.type_grained_types == frozenset({"A"})

    def test_trace(self):
        got, agg = trace(self.cq(), fig2_stream(self.VALUES), self.row)
        assert got == self.EXPECTED
        assert final_count(agg) == 33

    @staticmethod
    def row(e, e_count, agg):
        """e.count, the updated count of its type (None if event-grained)
        and the final count."""
        if e_count is None:
            return None
        node = agg.H.get(e.etype)
        return e.etype, e_count, None if node is None else node[0], final_count(agg)

    def test_example6_arithmetic(self):
        """a7.count = A.count + b2.count + 1 = 10 + 1 + 1 = 12."""
        got, _ = trace(self.cq(), fig2_stream(self.VALUES), self.row)
        assert got[5][:2] == ("A", 12)  # a7: (etype, e.count)


class TestTable7PatternGrained:
    """Table 7: NEXT (bold) final 8, CONT (italics) final 2; c5 resets the
    last matched event under CONT only."""

    EXPECTED_NEXT = [  # (etype, e_l.count, final count) after each event
        ("A", 1, 0), ("B", 1, 1), ("A", 2, 1), ("A", 3, 1),
        ("C", 3, 1), ("B", 3, 4), ("A", 4, 4), ("B", 4, 8),
    ]
    EXPECTED_CONT = [
        ("A", 1, 0), ("B", 1, 1), ("A", 2, 1), ("A", 3, 1),
        ("C", 0, 1), ("B", 0, 1), ("A", 1, 1), ("B", 1, 2),
    ]

    @pytest.mark.parametrize(
        "semantics, expected, final",
        [(Semantics.NEXT, EXPECTED_NEXT, 8), (Semantics.CONT, EXPECTED_CONT, 2)],
    )
    def test_trace(self, semantics, expected, final):
        cq = Query(pattern=PATTERN, semantics=semantics).compile()
        assert cq.granularity is Granularity.PATTERN
        # Every arriving event, matched or not: the count of the last
        # matched event's node, agg.el[0], and the final count.
        got, agg = trace(cq, fig2_stream(),
                         lambda e, _, agg: (e.etype, agg.el[0], final_count(agg)))
        assert got == expected
        assert final_count(agg) == final


class TestFigure2Trends:
    """Example 2: 43 trends under ANY; the extreme trends of Figure 2."""

    def trends(self, semantics):
        cq = Query(pattern=PATTERN, semantics=semantics).compile()
        return {
            tuple(e.time for e in tr)
            for tr in enumerate_trends(fig2_stream(), cq)
        }

    def test_any_counts_and_extremes(self):
        trs = self.trends(Semantics.ANY)
        assert len(trs) == 43
        assert (1, 2) in trs  # shortest contiguous trend
        assert (1, 2, 3, 4, 6, 7, 8) in trs  # longest non-contiguous trend
        assert (3, 6, 7) not in trs  # a7 cannot end a trend (not end type)
        assert (3, 6) in trs  # Example 2: (a3, b6) kept when a7 arrives

    def test_next_trends(self):
        trs = self.trends(Semantics.NEXT)
        assert len(trs) == 8
        # Example 3: (a3, b6) skips the relevant a4 -> invalid under NEXT;
        # (a3, a4, b6) is valid.
        assert (3, 6) not in trs
        assert (3, 4, 6) in trs

    def test_cont_trends(self):
        """Example 4: (a1, b2) and (a7, b8) are the only contiguous trends."""
        assert self.trends(Semantics.CONT) == {(1, 2), (7, 8)}

    def test_containment_cont_next_any(self):
        """Figure 2: trends_cont subset of trends_next subset of trends_any."""
        cont, nxt, anyt = (
            self.trends(s) for s in (Semantics.CONT, Semantics.NEXT, Semantics.ANY)
        )
        assert cont <= nxt <= anyt
