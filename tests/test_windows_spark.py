"""Sliding-window id assignment in Catalyst, validated against the DuckDB
oracle and the local WindowSpec arithmetic (paper Section 7)."""
import pandas as pd
import pytest

from repro.core.query import WindowSpec
from repro.core.windows import window_bounds, with_window_ids
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def events_pdf():
    return pd.DataFrame({"time": list(range(0, 40)), "v": [float(i) for i in range(40)]})


def test_wid_explode_matches_duckdb(spark, events_pdf):
    w = WindowSpec(size=12, slide=4)
    df = spark.createDataFrame(events_pdf)
    out = with_window_ids(df, w, "time").select("time", "wid")
    # Declarative wid definition: window k spans [4k, 4k + 12).
    sql = """
        SELECT e.time AS time, w.wid AS wid
        FROM events e
        JOIN (SELECT CAST(range AS BIGINT) AS wid FROM range(0, 1000)) w
          ON w.wid * 4 <= e.time AND e.time < w.wid * 4 + 12
    """
    assert_equivalent(out, sql, events=events_pdf)


def test_wid_explode_matches_windowspec(spark, events_pdf):
    w = WindowSpec(size=10, slide=5)
    df = spark.createDataFrame(events_pdf)
    got = (
        with_window_ids(df, w, "time")
        .groupBy("time")
        .count()
        .toPandas()
        .set_index("time")["count"]
        .to_dict()
    )
    for t in events_pdf.time:
        assert got[t] == len(list(w.wids_for(t)))


def test_no_window_is_single_wid(spark, events_pdf):
    df = spark.createDataFrame(events_pdf)
    out = with_window_ids(df, None, "time").select("wid").distinct().collect()
    assert [r.wid for r in out] == [0]


def test_window_bounds_roundtrip():
    w = WindowSpec(size=600, slide=30)
    for wid in (0, 1, 7):
        lo, hi = window_bounds(w, wid)
        assert hi - lo == 600
        assert lo == wid * 30
        # every time in [lo, hi) maps back to a wid set containing wid
        for t in (lo, lo + 599):
            assert wid in set(w.wids_for(t))


def test_negative_time_gets_no_wid(spark):
    """Spark's ``sequence(0, -1)`` counts down; an event before window 0
    must get no wid, as ``WindowSpec.wids_for`` gives none."""
    w = WindowSpec(size=40, slide=10)
    pdf = pd.DataFrame({"time": [-5, 3, -45]})
    rows = with_window_ids(spark.createDataFrame(pdf), w, "time").collect()
    assert sorted((r.time, r.wid) for r in rows) == [(3, 0)]
    assert [list(w.wids_for(t)) for t in pdf.time] == [[], [0], []]


def test_ns_times_get_exact_wids(spark):
    """A long time column is divided exactly in Catalyst too: at the
    boundary t = 56,666,667 * slide - 1 of nanosecond windows (beyond
    2**53) the wids are 56,666,647..56,666,666, as ``wids_for`` gives."""
    w = WindowSpec(size=600_000_000_000, slide=30_000_000_000)
    edge = 56_666_667 * w.slide
    pdf = pd.DataFrame({"time": [edge - 1, edge, edge + 1, w.slide - 1, -1]})
    rows = with_window_ids(spark.createDataFrame(pdf), w, "time").collect()
    got: dict[int, list[int]] = {}
    for r in rows:
        got.setdefault(r.time, []).append(r.wid)
    assert got[edge - 1] == list(range(56_666_647, 56_666_667))
    assert {t: sorted(v) for t, v in got.items()} == {
        t: list(w.wids_for(t)) for t in pdf.time.tolist() if len(w.wids_for(t))}
