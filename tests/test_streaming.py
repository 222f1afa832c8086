"""Structured Streaming deployment: the streaming result (update mode,
last update per key) must equal the batch pipeline's result on the same
data, across micro-batches that split the stream chronologically."""
import numpy as np
import pandas as pd
import pytest

from repro.core.aggregates import Avg, Count
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query, WindowSpec
from repro.core.spark_runner import run_query
from repro.core.streaming import run_query_streaming


def _stream_pdf(n=120, seed=9):
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "time": np.arange(1, n + 1),
            "grp": g.integers(0, 3, n),
            "etype": g.choice(list("ABC"), n),
            "v": g.integers(0, 10, n).astype("float64"),
        }
    )


def _run_streaming(spark, tmp_path, pdf, query, n_chunks=3):
    """Write the stream as chronological file chunks, process them as
    separate micro-batches (maxFilesPerTrigger=1, availableNow), and
    return the final state of each key from the update-mode output."""
    chunks = [pdf.iloc[c] for c in np.array_split(np.arange(len(pdf)), n_chunks)]
    return _stream_files(spark, tmp_path, chunks, query)[0]


def _stream_files(spark, tmp_path, chunks, query):
    """Stream ``chunks`` as one file each, in list order, and return the
    final row of each (key, wid) and the progress of each micro-batch
    that read input."""
    import json
    import os
    import time as _time

    src = tmp_path / "stream_src"
    src.mkdir()
    base = _time.time()
    for i, chunk in enumerate(chunks):
        path = src / f"part-{i:03d}.json"
        chunk.to_json(path, orient="records", lines=True)
        # The file source orders micro-batches by modification time; give
        # the chunks strictly increasing mtimes so batches arrive in list
        # order (the in-order assumption of DESIGN.md, unless a test
        # writes an old chunk late on purpose).
        os.utime(path, (base + i, base + i))
    schema = spark.createDataFrame(chunks[0].head(1)).schema
    stream = (
        spark.readStream.schema(schema)
        .option("maxFilesPerTrigger", 1)
        .json(str(src))
    )
    out = run_query_streaming(stream, query)
    sink = f"stream_sink_{abs(hash(str(tmp_path))) % 10**8}"
    q = (
        out.writeStream.format("memory")
        .queryName(sink)
        .outputMode("update")
        .option("checkpointLocation", str(tmp_path / "ckpt"))
        .trigger(availableNow=True)
        .start()
    )
    q.awaitTermination(120)
    progress = [p for p in (json.loads(p.json) for p in q.recentProgress)
                if p["numInputRows"] > 0]
    rows = spark.sql(f"SELECT * FROM {sink}").toPandas()
    # Update mode appends one row per key per micro-batch; the final
    # answer is the last row per key (``GroupBy.last`` would instead take
    # each column's last non-null value, hiding a null aggregate).
    keys = [*query.partition_by, "wid"]
    final = rows.groupby(keys).tail(1).sort_values(keys).reset_index(drop=True)
    return final, progress


@pytest.mark.parametrize(
    "semantics, preds",
    [
        (Semantics.ANY, ()),
        (Semantics.ANY, (AdjacentPredicate("A", "v", "<", "A", "v"),)),
        (Semantics.NEXT, ()),
        (Semantics.CONT, ()),
    ],
    ids=["any-type", "any-mixed", "next", "cont"],
)
def test_streaming_equals_batch(spark, tmp_path, semantics, preds):
    pdf = _stream_pdf()
    query = Query(
        pattern="(SEQ(A+, B))+",
        semantics=semantics,
        aggregates=(Count(), Avg("A", "v")),
        adjacent_predicates=preds,
        partition_by=("grp",),
        window=WindowSpec(size=40, slide=20),
    )
    stream_res = _run_streaming(spark, tmp_path, pdf, query)
    batch_res = run_query(spark.createDataFrame(pdf), query).toPandas()
    keys = ["grp", "wid"]
    cols = keys + ["count_star", "avg_A_v", "events"]
    got = stream_res[cols].sort_values(keys).reset_index(drop=True)
    exp = batch_res[cols].sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"wid": "int64"}), exp.astype({"wid": "int64"}),
        check_dtype=False,
    )


def test_streaming_state_is_coarse(spark, tmp_path):
    """The per-key state Cogra keeps in the state store is a pickled
    aggregator with Theta(l) aggregates — assert it stays small and does
    not grow with the number of events (the repro hint's point)."""
    import pickle

    from repro.core.executor import make_aggregator

    cq = Query(pattern="(SEQ(A+, B))+", semantics=Semantics.ANY).compile()
    agg = make_aggregator(cq)
    small = len(pickle.dumps(agg))
    n = 5000
    for i in range(n):
        agg.update("A" if i % 2 else "B", {})
    grown = len(pickle.dumps(agg))
    # Only the bignum digits of the two type counts grow (~n bits); the
    # state holds no events — far below GRETA's n * 48B event store.
    assert grown < small + 2 * (n // 8 + 64)
    assert grown < n * 48 / 10


def test_streaming_orders_events_across_arrow_chunks(spark, tmp_path):
    """Spark hands a key's micro-batch to the state function in chunks of
    ``maxRecordsPerBatch`` rows; the key's events must still reach the
    aggregator in time order, so the result equals batch."""
    g = np.random.default_rng(3)
    n = 40
    pdf = pd.DataFrame(
        {
            "time": np.arange(n, 0, -1),  # one file, reverse time order
            "grp": np.zeros(n, dtype=np.int64),
            "etype": np.repeat("M", n),
            "v": g.integers(0, 10, n).astype("float64"),
        }
    )
    query = Query(
        pattern="M+",
        semantics=Semantics.CONT,
        aggregates=(Count(), Avg("M", "v")),
        adjacent_predicates=(AdjacentPredicate("M", "v", "<", "M", "v"),),
        partition_by=("grp",),
    )
    conf = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(conf)
    spark.conf.set(conf, "4")
    try:
        stream_res = _run_streaming(spark, tmp_path, pdf, query, n_chunks=1)
    finally:
        spark.conf.set(conf, old)
    batch_res = run_query(spark.createDataFrame(pdf), query).toPandas()
    cols = ["grp", "wid", "count_star", "avg_M_v", "events"]
    pd.testing.assert_frame_equal(
        stream_res[cols].astype({"wid": "int64"}),
        batch_res[cols].astype({"wid": "int64"}),
        check_dtype=False,
    )


def test_streaming_count_overflow_matches_batch(spark, tmp_path):
    """An exact ANY count beyond float64 range (2^1100 - 1 trends) must
    not crash the streaming query; its row equals the batch row."""
    n = 1100
    pdf = pd.DataFrame(
        {
            "time": np.arange(1, n + 1),
            "grp": np.zeros(n, dtype=np.int64),
            "etype": np.repeat("M", n),
            "v": np.ones(n),
        }
    )
    query = Query(
        pattern="M+",
        semantics=Semantics.ANY,
        aggregates=(Count(),),
        partition_by=("grp",),
    )
    stream_res = _run_streaming(spark, tmp_path, pdf, query)
    batch_res = run_query(spark.createDataFrame(pdf), query).toPandas()
    cols = ["grp", "wid", "count_star", "events", "overflow"]
    pd.testing.assert_frame_equal(
        stream_res[cols].astype({"wid": "int64"}),
        batch_res[cols].astype({"wid": "int64"}),
        check_dtype=False,
    )
    assert stream_res.overflow.all()


def test_streaming_drops_negative_times_as_batch_does(spark, tmp_path):
    """Events before window 0 lie in no window in either runner, so
    neither checks their domain: a NaN ``v`` on one of their A events is
    accepted by both."""
    pdf = _stream_pdf(n=60, seed=4)
    pdf["time"] = pdf["time"] - 30  # times -29 .. 30
    nan_pdf = pdf.copy()
    nan_pdf.loc[((nan_pdf.time < 0) & (nan_pdf.etype == "A")).idxmax(), "v"] = np.nan
    assert nan_pdf.v.isna().sum() == 1
    query = Query(
        pattern="(SEQ(A+, B))+",
        semantics=Semantics.CONT,
        aggregates=(Count(), Avg("A", "v")),
        partition_by=("grp",),
        window=WindowSpec(size=40, slide=10),
    )
    for i, data in enumerate([pdf, nan_pdf]):
        (tmp_path / f"input{i}").mkdir()
        stream_res = _run_streaming(spark, tmp_path / f"input{i}", data, query)
        batch_res = run_query(spark.createDataFrame(data), query).toPandas()
        keys = ["grp", "wid"]
        cols = keys + ["count_star", "avg_A_v", "events"]
        got = stream_res[cols].sort_values(keys).reset_index(drop=True)
        exp = batch_res[cols].sort_values(keys).reset_index(drop=True)
        assert got.wid.min() == 0
        pd.testing.assert_frame_equal(
            got.astype({"wid": "int64"}), exp.astype({"wid": "int64"}),
            check_dtype=False,
        )


def _assert_equals_batch(spark, stream_res, pdf, query, cols):
    batch_res = run_query(spark.createDataFrame(pdf), query).toPandas()
    keys = [*query.partition_by, "wid"]
    got = stream_res[keys + cols].sort_values(keys).reset_index(drop=True)
    exp = batch_res[keys + cols].sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"wid": "int64"}), exp.astype({"wid": "int64"}),
        check_dtype=False,
    )


WINDOWED = Query(
    pattern="(SEQ(A+, B))+",
    semantics=Semantics.ANY,
    aggregates=(Count(), Avg("A", "v")),
    partition_by=("grp",),
    window=WindowSpec(size=40, slide=10),
)


def test_streaming_state_holds_one_row_per_group(spark, tmp_path):
    """State is keyed by group, and closed windows leave it: after every
    micro-batch the state store holds one row per group, however many
    windows the stream has opened."""
    pdf = _stream_pdf(n=160, seed=11)
    chunks = [pdf.iloc[c] for c in np.array_split(np.arange(len(pdf)), 4)]
    assert set(chunks[0].grp) == set(pdf.grp)  # every group from batch one
    stream_res, progress = _stream_files(spark, tmp_path, chunks, WINDOWED)
    state_rows = [p["stateOperators"][0]["numRowsTotal"] for p in progress]
    assert state_rows == [pdf.grp.nunique()] * len(chunks)
    _assert_equals_batch(spark, stream_res, pdf, WINDOWED,
                         ["count_star", "avg_A_v", "events", "late_events"])


def test_streaming_drops_and_counts_late_events(spark, tmp_path):
    """An old file that arrives after newer ones is dropped and counted in
    ``late_events``; the aggregates stay those of the in-order events."""
    pdf = _stream_pdf()  # times 1..120, three files of 40
    chunks = [pdf.iloc[c] for c in np.array_split(np.arange(len(pdf)), 3)]
    old = pdf[pdf.time <= 30]
    assert set(chunks[1].grp) == set(pdf.grp)  # every key is past time 30
    stream_res, _ = _stream_files(
        spark, tmp_path, [chunks[0], chunks[1], old, chunks[2]], WINDOWED
    )
    _assert_equals_batch(spark, stream_res, pdf, WINDOWED,
                         ["count_star", "avg_A_v", "events"])
    # Windows from wid 9 on start at time 90: only the last file reaches
    # them, so their rows come after the old file.
    after = stream_res[stream_res.wid >= 9]
    expected = after.grp.map(old.grp.value_counts())
    assert (after.late_events > 0).all()
    assert after.late_events.tolist() == expected.tolist()
    assert (stream_res[stream_res.wid <= 3].late_events == 0).all()


def test_streaming_drops_events_without_time(spark, tmp_path):
    """An event with a null time is dropped before the fold, as in batch:
    it is not a late event, and the rows equal batch's without it."""
    pdf = _stream_pdf().astype({"time": "float64"})
    holes = pdf.time % 9 == 0
    pdf.loc[holes, "time"] = np.nan  # written as null
    stream_res = _run_streaming(spark, tmp_path, pdf, WINDOWED)
    assert (stream_res.late_events == 0).all()
    _assert_equals_batch(spark, stream_res, pdf[~holes], WINDOWED,
                         ["count_star", "avg_A_v", "events"])


def test_streaming_schema_is_the_batch_schema(spark, tmp_path):
    schema = spark.createDataFrame(_stream_pdf(n=1)).schema
    (tmp_path / "src").mkdir()
    stream = spark.readStream.schema(schema).json(str(tmp_path / "src"))
    batch = spark.read.schema(schema).json(str(tmp_path / "src"))
    assert (
        run_query_streaming(stream, WINDOWED).schema
        == run_query(batch, WINDOWED).schema
    )
