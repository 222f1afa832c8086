"""End-to-end batch Spark pipeline (filter -> partition -> window slices
-> kernel), cross-checked against local kernels and between approaches."""
import math
import signal
import threading

import numpy as np
import pandas as pd
import pytest

from repro.baselines.registry import APPROACHES, run_approach, supports
from repro.core import executor, windows
from repro.core.aggregates import Avg, Count, CountType, Max, Min, Sum
from repro.core.events import Substream, events_from_pandas
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, LocalPredicate
from repro.core.query import Query, WindowSpec
from repro.core.spark_runner import local_filter_expr, run_query
from repro.harness.runner import run_point


@pytest.fixture(scope="module")
def stream_pdf():
    g = np.random.default_rng(5)
    n = 240
    return pd.DataFrame(
        {
            "time": np.arange(1, n + 1),
            "grp": g.integers(0, 3, n),
            "etype": g.choice(list("ABC"), n),
            "v": g.integers(0, 10, n).astype("float64"),
        }
    )


AGGS = (Count(), CountType("A"), Min("A", "v"), Max("B", "v"), Sum("B", "v"),
        Avg("A", "v"))


def local_expected(pdf: pd.DataFrame, query: Query) -> pd.DataFrame:
    """Reference: the same kernels run directly on pandas substreams."""
    cq = query.compile()
    rows = []
    for lp in query.local_predicates:
        pdf = pdf[[lp.holds(r[query.type_col], r) for r in pdf.to_dict("records")]]
    w = query.window
    pdf = pdf.copy()
    pdf["wid"] = [
        list(w.wids_for(t)) if w else [0] for t in pdf[query.time_col]
    ]
    pdf = pdf.explode("wid")
    for key, g in pdf.groupby([*query.partition_by, "wid"]):
        ev = events_from_pandas(g, attr_cols=cq.attr_cols)
        res = run_approach("cogra", ev, cq)
        row = dict(zip([*query.partition_by, "wid"], key))
        row.update(
            {k: (None if v is None else float(v)) for k, v in res.aggregates.items()}
        )
        rows.append(row)
    return pd.DataFrame(rows)


def _cmp(spark_out: pd.DataFrame, expected: pd.DataFrame, keys: list[str]):
    cols = list(expected.columns)
    got = spark_out[cols].sort_values(keys).reset_index(drop=True)
    exp = expected.sort_values(keys).reset_index(drop=True)
    got["wid"] = got.wid.astype("int64")
    exp["wid"] = exp.wid.astype("int64")
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


@pytest.mark.parametrize("semantics", list(Semantics))
def test_spark_matches_local_kernels(spark, stream_pdf, semantics):
    q = Query(
        pattern="(SEQ(A+, B))+",
        semantics=semantics,
        aggregates=AGGS,
        partition_by=("grp",),
        window=WindowSpec(size=40, slide=20),
    )
    out = run_query(spark.createDataFrame(stream_pdf), q).toPandas()
    _cmp(out, local_expected(stream_pdf, q), ["grp", "wid"])


def test_spark_with_adjacent_and_local_predicates(spark, stream_pdf):
    q = Query(
        pattern="SEQ(A+, B)",
        semantics=Semantics.ANY,
        aggregates=AGGS,
        adjacent_predicates=(AdjacentPredicate("A", "v", "<", "A", "v"),),
        local_predicates=(LocalPredicate("v", ">", 1.0, etype="A"),),
        partition_by=("grp",),
        window=WindowSpec(size=60, slide=30),
    )
    out = run_query(spark.createDataFrame(stream_pdf), q).toPandas()
    _cmp(out, local_expected(stream_pdf, q), ["grp", "wid"])


def test_approaches_agree_through_spark(spark, stream_pdf):
    q = Query(
        pattern="SEQ(A+, B)",
        semantics=Semantics.ANY,
        aggregates=(Count(),),
        partition_by=("grp",),
        window=WindowSpec(size=30, slide=15),
    )
    df = spark.createDataFrame(stream_pdf)
    base = None
    for ap in ("cogra", "greta", "aseq", "sase", "flink"):
        out = (
            run_query(df, q, approach=ap)
            .toPandas()
            .sort_values(["grp", "wid"])
            .reset_index(drop=True)
        )
        assert not out.dnf.any()
        cur = out[["grp", "wid", "count_star"]]
        if base is None:
            base = cur
        else:
            pd.testing.assert_frame_equal(base, cur, check_dtype=False)


def test_dnf_rows_surface_in_output(spark, stream_pdf):
    q = Query(
        pattern="A+",
        semantics=Semantics.ANY,
        aggregates=(Count(),),
        partition_by=("grp",),
    )
    out = run_query(
        spark.createDataFrame(stream_pdf), q, approach="sase", budget_units=500
    ).toPandas()
    assert out.dnf.all()
    assert out.count_star.isna().all()


def test_metrics_columns_present(spark, stream_pdf):
    q = Query(pattern="A+", semantics=Semantics.NEXT, partition_by=("grp",))
    out = run_query(spark.createDataFrame(stream_pdf), q).toPandas()
    for c in ("events", "peak_state_bytes", "kernel_seconds", "dnf",
              "trends_constructed"):
        assert c in out.columns
    assert (out.events > 0).all()
    assert (out.peak_state_bytes > 0).all()


def test_empty_group_absent_not_crashing(spark):
    pdf = pd.DataFrame(
        {"time": [1, 2], "grp": [0, 0], "etype": ["C", "C"], "v": [0.0, 0.0]}
    )
    q = Query(pattern="A+", semantics=Semantics.ANY, partition_by=("grp",))
    out = run_query(spark.createDataFrame(pdf), q).toPandas()
    # Group exists (rows arrive at the kernel) but no relevant events.
    assert out.count_star.tolist() == [0.0]


QUOTED = ["it's", 'say "hi"', "both ' and \"", "back\\slash"]


@pytest.mark.parametrize(
    "lp",
    [
        LocalPredicate("v", "<", math.inf),
        LocalPredicate("v", ">", -math.inf, etype="A"),
        LocalPredicate("v", "<=", 4.0, etype="B"),
        *(LocalPredicate("s", "==", q) for q in QUOTED),
        LocalPredicate("s", "!=", QUOTED[2], etype="A"),
    ],
    ids=repr,
)
def test_local_filter_expr_matches_holds(spark, lp):
    """The Catalyst filter keeps exactly the rows ``LocalPredicate.holds``
    keeps, for infinite constants and strings with quotes or backslashes."""
    pdf = pd.DataFrame(
        {
            "time": range(1, 16),
            "etype": list("ABC") * 5,
            "v": [0.0, 4.0, 9.0, -1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 1.0, 6.0, 4.5,
                  math.inf, -math.inf, 4.0],
            "s": (QUOTED + ["plain"]) * 3,
        }
    )
    cq = Query(pattern="A+", semantics=Semantics.ANY,
               local_predicates=(lp,)).compile()
    got = spark.createDataFrame(pdf).filter(local_filter_expr(cq)).count()
    assert got == sum(lp.holds(r["etype"], r) for r in pdf.to_dict("records"))


# ----------------------------------------------- window slices vs explode
#
# The batch runner cuts each group's sorted events into one slice per
# window; ``local_expected`` copies each event into every ``wids_for``
# window (a pandas explode). The two must give the same rows.


def _sparse_pdf(seed: int, groups: int, slide: int) -> pd.DataFrame:
    """Bursts of events at quarter-step float times, separated by gaps of
    2 to 48 slides, so some windows of up to 12 slides are empty. Each
    group starts at t = 0 and each burst on an exact multiple of
    ``slide``; times are distinct within a group (ties are a separate
    ROADMAP item)."""
    g = np.random.default_rng(seed)
    rows = []
    for grp in range(groups):
        t, times = 0.0, []
        for gap in (2, 48, 12, 48, 2):
            burst = np.round(g.uniform(0, 2 * slide, 5) * 4) / 4
            times.extend([t, *(t + burst)])
            t = max(times) // slide * slide + gap * slide
        times = sorted(set(times))
        for tm in times:
            rows.append((float(tm), grp, g.choice(list("ABC")),
                         float(g.integers(0, 10))))
    return pd.DataFrame(rows, columns=["time", "grp", "etype", "v"])


SLICE_WINDOWS = {
    "sliding": WindowSpec(size=40, slide=10),
    "tumbling": WindowSpec(size=25, slide=25),
}


def test_sparse_pdf_has_gaps_and_boundary_times():
    for name, w in SLICE_WINDOWS.items():
        pdf = _sparse_pdf(11, 3, w.slide)
        assert (pdf.time == 0).sum() == 3
        assert (pdf.time % w.slide == 0).sum() > 3
        assert (pdf.time % 1 != 0).any()
        for _, g in pdf.groupby("grp"):
            assert (g.time.diff() > w.size).any(), name  # some windows empty
            assert g.time.is_unique


@pytest.mark.parametrize("wname", list(SLICE_WINDOWS))
@pytest.mark.parametrize("semantics", list(Semantics))
def test_window_slices_equal_explode_for_every_approach(spark, wname, semantics):
    w = SLICE_WINDOWS[wname]
    pdf = _sparse_pdf(11, 3, w.slide)
    q = Query(
        pattern="SEQ(A+, B)",
        semantics=semantics,
        aggregates=AGGS,
        partition_by=("grp",),
        window=w,
    )
    expected = local_expected(pdf, q)
    df = spark.createDataFrame(pdf)
    cq = q.compile()
    ran = [ap for ap in APPROACHES if supports(ap, cq)]
    assert "cogra" in ran and len(ran) >= 2
    for ap in ran:
        out = run_query(df, q, approach=ap).toPandas()
        assert not out.dnf.any(), ap
        _cmp(out, expected, ["grp", "wid"])


def test_window_slices_match_wids_for(monkeypatch):
    """``executor.window_runs``: each slice holds exactly the events whose
    ``wids_for`` contains its wid, the wids are those the explode emits,
    in order, and each window's count is its relevant events. The domain
    check runs once per call, from the first event that lies in some
    window. Without a window clause the group is wid 0, with no window
    arithmetic; an empty group has no windows."""
    checked = []
    check = executor.check_substream

    def counting_check(cq, sub):
        checked.append(len(sub))
        return check(cq, sub)

    monkeypatch.setattr(executor, "check_substream", counting_check)
    g = np.random.default_rng(3)
    for w in (*SLICE_WINDOWS.values(), WindowSpec(size=600, slide=30)):
        cq = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY, window=w).compile()
        for _ in range(50):
            gaps = g.choice([0.0, 0.25, 1.0, w.slide, 3.0 * w.size], 30)
            times = np.cumsum(gaps) + g.choice([0.0, w.slide, -w.size])
            types = g.choice(list("ABZ"), 30).astype(object)
            want: dict[int, list[int]] = {}
            for i, tm in enumerate(times.tolist()):
                for k in w.wids_for(tm):
                    want.setdefault(k, []).append(i)
            checked.clear()
            wids, s, t, events = executor.window_runs(Substream(times, types, {}), cq)
            got = {k: list(range(x, y)) for k, x, y in zip(wids, s, t)}
            assert got == want
            assert wids == sorted(want)
            assert events == [int((types[x:y] != "Z").sum()) for x, y in zip(s, t)]
            first = min((i for ev in want.values() for i in ev), default=None)
            assert checked == ([] if first is None else [len(times) - first])
        empty = Substream(np.array([]), np.array([], object), {})
        assert executor.window_runs(empty, cq) == ([], [], [], [])

    def no_windows(*args):
        raise AssertionError("window arithmetic without a window clause")

    monkeypatch.setattr(windows, "_wid_floor", no_windows)
    monkeypatch.setattr(executor, "window_plan", no_windows)
    monkeypatch.setattr(executor, "window_cuts", no_windows)
    cq = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY).compile()
    sub = Substream(np.array([0.0, 5.5, 7.0]), np.array(["A", "Z", "B"], object), {})
    checked.clear()
    assert executor.window_runs(sub, cq) == ([0], [0], [3], [2])
    assert checked == [3]
    assert executor.window_runs(sub[:0], cq) == ([], [], [], [])


def _fail_after_5s(signum, frame):
    raise TimeoutError("window_runs walked the empty windows one by one")


def test_window_slices_jump_empty_windows():
    w = WindowSpec(size=600, slide=30)
    cq = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY, window=w).compile()
    sub = Substream(np.array([0, 10**12]), np.array(["A", "B"], object), {})
    handler = signal.signal(signal.SIGALRM, _fail_after_5s)
    signal.alarm(5)
    try:
        wids, s, t, events = executor.window_runs(sub, cq)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    got = list(zip(wids, s, t))
    assert got == [(0, 0, 1)] + [(k, 1, 2) for k in w.wids_for(10**12)]
    assert events == [1] * len(got)


def test_sparse_times_jump_empty_windows(spark):
    """Events at t = 0 and t = 10^12: 1 + 20 windows, not 3.3e10 steps.
    A query still running after 60 s is cancelled, so the test fails
    instead of hanging."""
    w = WindowSpec(size=600, slide=30)
    pdf = pd.DataFrame(
        {"time": [0, 10**12], "grp": [0, 0], "etype": ["A", "B"], "v": [1.0, 2.0]}
    )
    q = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY,
              partition_by=("grp",), window=w)
    timer = threading.Timer(60, spark.sparkContext.cancelAllJobs)
    timer.start()
    try:
        out = run_query(spark.createDataFrame(pdf), q).toPandas()
    finally:
        timer.cancel()
    want = sorted({k for t in pdf.time for k in w.wids_for(t)})
    assert len(want) == 21
    assert sorted(out.wid) == want
    assert out.events.tolist() == [1] * 21
    _cmp(out, local_expected(pdf, q), ["grp", "wid"])


def test_ns_times_get_exact_windows(spark):
    """Nanosecond times are beyond 2**53: the event at a window boundary's
    t - 1 lies in the 20 windows ending with the one before t's, not one
    further (what float division gives), and each window holds exactly
    the events its span contains."""
    w = WindowSpec(size=600_000_000_000, slide=30_000_000_000)
    edge = 56_666_667 * w.slide
    times = [edge - w.size - 1, edge - w.size, edge - 1, edge, edge + 1]
    pdf = pd.DataFrame({"time": times, "grp": 0, "etype": ["A", "A", "B", "A", "B"],
                        "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
    q = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY,
              aggregates=(Count(), Sum("B", "v")), partition_by=("grp",), window=w)
    out = run_query(spark.createDataFrame(pdf), q).toPandas()
    events = {int(r.wid): r.events for r in out.itertuples()}
    want = {k: sum(k * w.slide <= t < k * w.slide + w.size for t in times)
            for k in range(56_666_600, 56_666_700)}
    assert events == {k: n for k, n in want.items() if n}
    _cmp(out, local_expected(pdf, q), ["grp", "wid"])


def test_metric_columns_keep_their_per_substream_meaning(spark):
    w = WindowSpec(size=40, slide=10)
    pdf = _sparse_pdf(12, 3, w.slide)
    q = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY,
              aggregates=(Count(),), partition_by=("grp",), window=w)
    pred_types = q.compile().analysis.pred_types
    subs = pdf.assign(wid=[list(w.wids_for(t)) for t in pdf.time]).explode("wid")
    subs = subs.astype({"wid": "int64"})
    relevant = (
        subs.assign(rel=subs.etype.isin(pred_types))
        .groupby(["grp", "wid"]).rel.sum().rename("want").reset_index()
    )
    out = run_query(spark.createDataFrame(pdf), q).toPandas()
    got = out.astype({"wid": "int64"}).merge(relevant, on=["grp", "wid"],
                                             how="outer", indicator=True)
    assert (got._merge == "both").all()
    assert (got.events == got.want).all()
    assert (out.kernel_seconds > 0).all()
    assert (out.peak_state_bytes > 0).all()

    expected = local_expected(pdf, q)
    point = run_point(spark, pdf, q, "cogra")
    assert len(out) == len(expected) == len(relevant)
    assert point["count_checksum"] == expected.count_star.sum()
    assert point["events_processed"] == relevant.want.sum()
    assert point["latency_ms"] > 0


@pytest.mark.parametrize("missing", [None, math.nan], ids=["null", "nan"])
@pytest.mark.parametrize("window", [WindowSpec(size=40, slide=20), None],
                         ids=["window", "no-window"])
def test_events_without_time_are_dropped(spark, stream_pdf, missing, window):
    """A null (or NaN) time lies in no window: the event is dropped before
    the kernel, in both runners, instead of failing the windowed job."""
    from pyspark.sql import functions as F

    q = Query(pattern="(SEQ(A+, B))+", semantics=Semantics.ANY, aggregates=AGGS,
              partition_by=("grp",), window=window)
    pdf = stream_pdf.astype({"time": "float64"})
    holes = pdf.time % 7 == 0
    df = spark.createDataFrame(pdf).withColumn(
        "time", F.when(F.col("time") % 7 == 0, F.lit(missing)).otherwise(F.col("time")))
    assert df.filter(F.col("time").isNull() | F.isnan("time")).count() == holes.sum()
    out = run_query(df, q).toPandas()
    want = run_query(spark.createDataFrame(pdf[~holes]), q).toPandas()
    assert out.events.sum() == want.events.sum() > 0
    _cmp(out, want[["grp", "wid", *(s.name for s in AGGS), "events"]], ["grp", "wid"])


def test_reused_worker_skips_archive_rereads(spark, stream_pdf):
    """PySpark calls ``importlib.invalidate_caches()`` before every task.
    In a Python worker whose earlier task ran the kernel path
    (``window_frame``), that re-reads no zip archive on ``sys.path``."""
    q = Query(pattern="SEQ(A+, B)", semantics=Semantics.ANY, aggregates=(Count(),))
    cq = q.compile()
    pdf = stream_pdf.head(20)

    def probe(pdfs):
        """This worker's ``zipimport._read_directory`` calls since its last
        probe, None in its first; then one kernel call."""
        import zipimport

        from repro.baselines.registry import run_approach_windows
        from repro.core.spark_runner import window_frame

        reads = getattr(zipimport, "_test_probe_reads", None)
        if reads is None:
            zipimport._test_probe_reads = []
            read = zipimport._read_directory

            def counting_read(path):
                zipimport._test_probe_reads.append(path)
                return read(path)

            zipimport._read_directory = counting_read
        for _ in pdfs:
            pass
        window_frame((), pdf, cq, lambda sub: run_approach_windows("cogra", sub, cq))
        n = None if reads is None else len(reads)
        zipimport._test_probe_reads.clear()
        yield pd.DataFrame({"reads": [n]})

    # Idle workers are reused oldest first, so a probe reaches a worker it
    # ran in before once it has gone round the pool.
    counts = []
    for _ in range(16):
        row = spark.range(1, numPartitions=1).mapInPandas(probe, "reads long").collect()
        if row[0].reads is not None:
            counts.append(row[0].reads)
            if len(counts) == 2:
                break
    assert counts == [0, 0]
