"""The shared window fold of Algorithm 1 (``MixedGrainedAggregator.
scan_windows`` via ``registry.run_approach_windows``) over the windows of
``executor.window_runs``: one pass per group must give, for every window,
exactly the row fold of that window's slice (the aggregator's ``fold``),
tied timestamps included; on untied input also the brute-force oracle;
and the same metric columns as ``run_approach`` on each slice, without
any per-window row work."""
import random
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.baselines import registry
from repro.baselines.bruteforce import aggregate_bruteforce
from repro.baselines.registry import APPROACHES, run_approach, run_approach_windows, supports
from repro.core import executor
from repro.core.aggregates import Count, CountType
from repro.core.events import Event, Substream
from repro.core.granularity import Granularity, Semantics
from repro.core.query import Query, WindowSpec
from repro.core.spark_runner import window_frame
from tests.test_kernels_vs_bruteforce import AGGS, PATTERNS, PRED_SETS

WINDOWS = [WindowSpec(10, 5), WindowSpec(12, 4), WindowSpec(10, 10)]


def mkgroup(n: int, seed: int, tied: bool, floats: bool) -> list[Event]:
    """A/B/C events from a negative start time, with gaps of 0 (ties, if
    ``tied``) up to three window sizes, and int or random-float values."""
    rng = random.Random(seed)
    t, events = rng.randint(-40, -31), []
    for i in range(n):
        t += rng.choice([0, 1, 1, 2, 3, 7, 30] if tied else [1, 1, 2, 3, 7, 30])
        v = rng.random() if floats else rng.randint(-9, 9)
        events.append(Event(i, t, rng.choice("ABC"), {"v": v}))
    return events


def per_window_rows(events, cq):
    """The row path: each window's slice of ``events``, for ``run_approach``."""
    wids, s, t, _ = executor.window_runs(Substream.from_events(events, cq.attr_cols), cq)
    return [(w, events[x:y]) for w, x, y in zip(wids, s, t)]


def cq_of(pattern, window, aggregates=AGGS):
    cq = Query(pattern=pattern, semantics=Semantics.ANY, aggregates=aggregates,
               window=window).compile()
    assert cq.granularity is Granularity.TYPE
    return cq


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("window", WINDOWS, ids=str)
@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("seed", range(3))
def test_scan_equals_row_fold_and_oracle(pattern, window, tied, seed):
    cq = cq_of(pattern, window)
    for floats in (False, True):
        events = mkgroup(24, seed * 7 + floats, tied, floats)
        got = run_approach_windows("cogra", Substream.from_events(events, cq.attr_cols), cq)
        want = per_window_rows(events, cq)
        assert [w for w, _ in got] == [w for w, _ in want]
        assert events[0].time < 0  # lies in no window
        for (wid, res), (_, part) in zip(got, want):
            row = executor.make_aggregator(cq).fold(Substream.from_events(part, cq.attr_cols))
            assert res.aggregates == row.result(), wid
            assert res.events_processed == run_approach("cogra", part, cq).events_processed
            if not tied and len(part) <= 16:  # the oracle enumerates 2^n trends
                assert res.aggregates == aggregate_bruteforce(part, cq), wid


def test_scan_with_no_window_is_wid_0():
    cq = cq_of("SEQ(A+, B)", None)
    events = mkgroup(12, 5, tied=False, floats=True)
    got = run_approach_windows("cogra", Substream.from_events(events, cq.attr_cols), cq)
    assert [w for w, _ in got] == [0]
    assert got[0][1].aggregates == aggregate_bruteforce(events, cq)


@pytest.mark.parametrize("sem", list(Semantics), ids=str)
@pytest.mark.parametrize("pred_key", ["none", "cross"])
def test_no_window_is_one_run_over_the_group(monkeypatch, sem, pred_key):
    """Without a window clause the group is wid 0, and every approach's
    row equals ``run_approach`` on the whole group, with no window
    arithmetic: ``window_plan`` and ``window_cuts`` are never called."""

    def no_windows(*args):
        raise AssertionError("window arithmetic without a window clause")

    monkeypatch.setattr(executor, "window_plan", no_windows)
    monkeypatch.setattr(executor, "window_cuts", no_windows)
    monkeypatch.setattr(registry, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    cq = Query(pattern="SEQ(A+, B)", semantics=sem, aggregates=AGGS,
               adjacent_predicates=PRED_SETS[pred_key]).compile()
    events = mkgroup(14, 4, tied=False, floats=True)
    for name in APPROACHES:
        if not supports(name, cq):
            continue
        got = run_approach_windows(name, Substream.from_events(events, cq.attr_cols), cq)
        assert got == [(0, run_approach(name, events, cq))], name
        assert run_approach_windows(name, Substream.from_events([], cq.attr_cols), cq) == []


@pytest.mark.parametrize("m", [57, 58, 63, 70])
def test_counts_beyond_int64_stay_exact(m):
    """``A+`` over m A's in one window has 2^m - 1 trends and COUNT(A) =
    m * 2^(m-1). From m = 58 a window's sum of weights may pass 2^63, so
    the fold runs on Python ints; at m = 57 it stays int64."""
    cq = cq_of("A+", WindowSpec(100, 50))
    events = [Event(i, 50 + i % 50, "A", {"v": i - 20}) for i in range(m)]
    events.sort(key=lambda e: e.time)
    got = run_approach_windows("cogra", Substream.from_events(events, cq.attr_cols), cq)
    want = per_window_rows(events, cq)
    assert [w for w, _ in got] == [0, 1]
    for (_, res), (_, part) in zip(got, want):
        row = executor.make_aggregator(cq).fold(Substream.from_events(part, cq.attr_cols))
        assert res.aggregates == row.result()
        assert res.aggregates["count_star"] == 2**m - 1
        assert res.aggregates["count_A"] == m * 2 ** (m - 1)


def _pdf(seed: int, n: int = 300) -> pd.DataFrame:
    """One group: A/B/C events with ties and gaps, then 1,030 A's and a B
    within 5 time units, whose two windows of ``WindowSpec(10, 5)`` have a
    COUNT(*) of 2^1030 - 1, beyond double range."""
    events = mkgroup(n, seed, tied=True, floats=True)
    t0 = (events[-1].time // 5 + 20) * 5
    events += [Event(n + i, t0 + i // 300, "A", {"v": 0.5}) for i in range(1030)]
    events.append(Event(n + 1030, t0 + 4, "B", {"v": 1.0}))
    return pd.DataFrame({"time": [e.time for e in events],
                         "etype": [e.etype for e in events],
                         "v": [e.attrs["v"] for e in events]})


def test_metric_columns_equal_the_row_path(monkeypatch):
    """The frame from the shared fold equals the frame from the per-window
    row fold in every column but ``kernel_seconds``; the fold never builds
    ``Event`` rows, checks the domain once per group, and gives each window
    an even share of its time."""
    window = WindowSpec(10, 5)
    cq = cq_of("SEQ(A+, B)", window)
    pdf = _pdf(3)

    def row_path(sub):
        wids, s, t, _ = executor.window_runs(sub, cq)
        return [(w, run_approach("cogra", sub[x:y], cq)) for w, x, y in zip(wids, s, t)]

    want = window_frame((), pdf, cq, row_path)

    def no_rows(self):
        raise AssertionError("Substream.rows() built on the TYPE path")

    checks = []

    def counting_check(cq, sub):
        checks.append(len(sub))
        return check(cq, sub)

    clock = iter(range(1_000))  # each perf_counter() call is 1 s later

    check = executor.check_substream
    monkeypatch.setattr(Substream, "rows", no_rows)
    monkeypatch.setattr(executor, "check_substream", counting_check)
    monkeypatch.setattr(registry, "time",
                        SimpleNamespace(perf_counter=lambda: float(next(clock))))
    got = window_frame((), pdf, cq,
                       lambda sub: run_approach_windows("cogra", sub, cq))
    assert checks == [(pdf.time >= 0).sum()]  # once, over the events in some window
    assert (got.overflow == got.count_star.isna()).all()
    assert got.overflow.sum() == 2
    # One fold of 1 s, split evenly: its sum is the group's kernel time.
    assert np.allclose(got.kernel_seconds, 1 / len(got))
    assert got.kernel_seconds.sum() == pytest.approx(1.0)
    cols = [c for c in want.columns if c != "kernel_seconds"]
    pd.testing.assert_frame_equal(got[cols], want[cols])


def test_domain_is_checked_over_windowed_events_only():
    """A NaN at a negative time lies in no window: neither path sees it.
    Inside a window, the shared fold rejects it as the row fold does."""
    cq = cq_of("SEQ(A+, B)", WindowSpec(10, 5))
    events = [Event(0, -3, "A", {"v": float("nan")}),
              Event(1, 2, "A", {"v": 1.0}), Event(2, 4, "B", {"v": 2.0})]
    sub = Substream.from_events(events, cq.attr_cols)
    got = run_approach_windows("cogra", sub, cq)
    assert [w for w, _ in got] == [0]
    assert got[0][1].aggregates["count_star"] == 1
    bad = Substream.from_events([events[1], events[0]._replace(time=3), events[2]],
                                cq.attr_cols)
    with pytest.raises(ValueError, match="_A_v"):
        run_approach_windows("cogra", bad, cq)


def test_other_paths_keep_one_kernel_run_per_window():
    """MIXED, NEXT/CONT and the baselines still run each window's slice."""
    window = WindowSpec(12, 4)
    events = mkgroup(20, 9, tied=False, floats=False)
    for sem, name in [(Semantics.NEXT, "cogra"), (Semantics.CONT, "cogra"),
                      (Semantics.ANY, "greta"), (Semantics.ANY, "aseq")]:
        cq = Query(pattern="SEQ(A+, B)", semantics=sem, window=window,
                   aggregates=(Count(), CountType("A"))).compile()
        got = run_approach_windows(name, Substream.from_events(events, cq.attr_cols), cq)
        want = per_window_rows(events, cq)
        assert [w for w, _ in got] == [w for w, _ in want]
        for (_, res), (_, part) in zip(got, want):
            assert res.aggregates == run_approach(name, part, cq).aggregates
