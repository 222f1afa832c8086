"""WindowSpec arithmetic and Query compilation plumbing (Section 7)."""
import math

import numpy as np
import pytest

from repro.core.aggregates import Avg, Count, Min
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, LocalPredicate
from repro.core.query import Query, WindowSpec
from repro.core.windows import window_plan


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(size=0, slide=1)
        with pytest.raises(ValueError):
            WindowSpec(size=10, slide=0)
        with pytest.raises(ValueError):
            WindowSpec(size=10, slide=3)  # size must be multiple of slide

    @pytest.mark.parametrize(
        "t, wids",
        [
            (0, [0]),
            (4, [0]),
            (5, [0, 1]),
            (9, [0, 1]),
            (10, [1, 2]),
            (23, [3, 4]),
        ],
    )
    def test_wids_for_10_5(self, t, wids):
        """Window k spans [5k, 5k+10); an event sits in size/slide = 2
        windows (except at the stream head)."""
        assert list(WindowSpec(size=10, slide=5).wids_for(t)) == wids

    def test_tumbling_window(self):
        w = WindowSpec(size=10, slide=10)
        assert list(w.wids_for(0)) == [0]
        assert list(w.wids_for(9)) == [0]
        assert list(w.wids_for(10)) == [1]

    def test_paper_q1_window(self):
        """WITHIN 10 minutes SLIDE 30 seconds: 20 windows per event."""
        w = WindowSpec(size=600, slide=30)
        assert len(list(w.wids_for(12_345))) == 20

    def test_event_in_window_iff_wid_listed(self):
        w = WindowSpec(size=12, slide=4)
        for t in range(0, 50):
            wids = set(w.wids_for(t))
            for k in range(0, 20):
                in_window = k * 4 <= t < k * 4 + 12
                assert (k in wids) == in_window, (t, k)

    @pytest.mark.parametrize("w", [WindowSpec(10, 5), WindowSpec(12, 4),
                                   WindowSpec(25, 25), WindowSpec(600, 30)], ids=str)
    def test_window_plan_equals_wids_for(self, w):
        """The vector bounds equal ``wids_for`` on int, float, negative and
        window-boundary times (``hi < lo``: in no window)."""
        g = np.random.default_rng(w.size)
        edges = np.arange(-3, 40) * w.slide
        ints = np.sort(np.concatenate([edges, edges - 1, edges + 1,
                                       g.integers(-2 * w.size, 50 * w.size, 200)]))
        floats = np.sort(np.concatenate([edges - 0.25, edges + 0.5, edges * 1.0,
                                         g.uniform(-2 * w.size, 50 * w.size, 200)]))
        for times in (ints, floats, ints.astype(object)):
            lo, hi = window_plan(times, w)
            assert lo.dtype == hi.dtype == np.int64
            for t, a, b in zip(times.tolist(), lo.tolist(), hi.tolist()):
                assert range(a, b + 1) == w.wids_for(t), t
        for bad in (np.nan, np.inf, 1e30):
            with pytest.raises(ValueError, match="window id"):
                window_plan(np.array([0.0, bad]), w)

    def test_ns_times_divide_exactly(self):
        """Nanosecond times are beyond 2**53, where float division rounds
        t / slide up to the next window at a boundary's t - 1. Ints are
        divided exactly: ``wids_for`` and ``window_plan`` (int64, uint64
        and object columns, and object ints beyond int64) give the windows
        [k*slide, k*slide + size) that contain t, at every boundary ±1."""
        w = WindowSpec(size=600_000_000_000, slide=30_000_000_000)
        t = 56_666_667 * w.slide - 1
        assert w.wids_for(t) == range(56_666_647, 56_666_667)
        assert math.floor(t / w.slide) == 56_666_667  # what floats give
        ks = (1, 20, 56_666_667, 2**53 // w.slide + 7, 2**63 // w.slide - 1)
        times = [k * w.slide + d for k in ks for d in (-1, 0, 1)]
        for t in times:
            assert w.wids_for(t) == containing(w, t), t
        big = [2**64 + k * w.slide + d for k in (0, 3) for d in (-1, 0, 1)]
        columns = (np.array(times, np.int64), np.array(times, np.uint64),
                   np.array(times, object), np.array(big, object))
        for col in columns:
            lo, hi = window_plan(col, w)
            got = [range(a, b + 1) for a, b in zip(lo.tolist(), hi.tolist())]
            assert got == [containing(w, int(t)) for t in col.tolist()]


def containing(w: WindowSpec, t: int) -> range:
    """The windows that contain the int ``t``, from their definition."""
    k = t // w.slide  # a candidate near the top; checked, not trusted
    ids = [j for j in range(k - w.size // w.slide - 2, k + 3)
           if j >= 0 and j * w.slide <= t < j * w.slide + w.size]
    return range(ids[0], ids[-1] + 1) if ids else range(0)


class TestQueryCompile:
    def test_attr_cols_collected(self):
        cq = Query(
            pattern="SEQ(D+, U)",
            semantics=Semantics.ANY,
            aggregates=(Count(), Avg("U", "price"), Min("D", "low")),
            adjacent_predicates=(AdjacentPredicate("D", "price", "<", "D", "price"),),
            local_predicates=(LocalPredicate("volume", ">", 0, etype="D"),),
        ).compile()
        assert set(cq.attr_cols) == {"price", "low"}

    def test_pattern_object_accepted(self):
        from repro.core.pattern import parse_pattern

        p = parse_pattern("A+")
        cq = Query(pattern=p, semantics=Semantics.ANY).compile()
        assert cq.analysis.start == "A"

    def test_compiled_is_picklable(self):
        import pickle

        cq = Query(pattern="(SEQ(A+, B))+", semantics=Semantics.NEXT).compile()
        assert pickle.loads(pickle.dumps(cq)).analysis.end == "B"
