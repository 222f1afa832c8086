"""Structured Streaming deployment of Cogra (paper Sections 7-8).

The stream takes the batch runner's path: the local filter and column
select (``prepare_input``), one group per partition key, the group's
events as one time-ordered ``Substream``, cut into its windows' slices
after one domain check (``executor.window_runs``), and one output row per
window (``window_frame``, batch's result schema). Unlike batch, every
window's slice is folded into that window's carried aggregator with the
aggregator's ``fold``, including at the TYPE granularity. Each
micro-batch runs ``applyInPandasWithState`` once per key.

A key's state is one pickle of its open windows' Cogra aggregators and
relevant-event counts so far (wid -> (aggregator, events): Theta(l)
values at the type granularity, O(1) at the pattern granularity), its
last event time and its late-event count. A micro-batch adds to a
window's count the relevant events ``window_runs`` counts in its slice.
After a micro-batch, a window that ends at or before the key's last time
is closed: in-order input can add no event to it, and its final row has
been emitted, so it leaves the state. A key thus keeps at most
ceil(size/slide) aggregators. Without a window clause its one wid-0
aggregator is never closed.

Rows are emitted in *update* mode, one per window a micro-batch folds
into, with the aggregates so far (the paper's per-slide outputs).
``events`` and ``peak_state_bytes`` cover the window so far,
``kernel_seconds`` is this micro-batch's fold, ``dnf`` is False and
``trends_constructed`` 0, and ``late_events`` is the key's dropped
events so far.

Ordering: Definition-7 adjacency is order-sensitive. A key's events in
one micro-batch are sorted by time together, and micro-batches are
assumed to arrive in time order per key (the paper makes the same
in-order assumption via its time-driven scheduler, Section 8). An event
older than the key's last time is late: it is dropped and counted, never
folded out of order. An event at exactly the last time is folded (ties
are ROADMAP item 1).
"""
from __future__ import annotations

import math
import pickle
import time
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core import executor
from repro.core.events import Substream
from repro.core.query import Query
from repro.core.spark_runner import prepare_input, result_schema, window_frame
from repro.core.windows import window_bounds
from repro.harness.metrics import KernelResult


def run_query_streaming(stream_df: DataFrame, query: Query) -> DataFrame:
    """Evaluate an event trend aggregation query over a *streaming*
    DataFrame; returns the update-mode result stream (one row per
    (key, wid) per micro-batch that folds into it, with the aggregates so
    far), in :func:`~repro.core.spark_runner.result_schema`.

    The caller starts the returned stream with ``writeStream`` (see
    ``jobs/streaming_demo.py`` and ``tests/test_streaming.py``).
    """
    cq = query.compile()
    stream_df = prepare_input(stream_df, cq)
    schema = result_schema(stream_df, cq)
    window = query.window

    def fold(
        key: tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        aggs, last, late = (
            pickle.loads(state.get[0]) if state.exists else ({}, -math.inf, 0)
        )
        # Spark splits a key's micro-batch into Arrow-sized chunks; window
        # them as one substream so its events reach the fold in time order.
        pdf = pd.concat(pdfs, ignore_index=True)
        on_time = pdf[pdf[query.time_col] >= last]
        late += len(pdf) - len(on_time)

        def run(sub: Substream) -> list[tuple[int, KernelResult]]:
            out = []
            for w, s, t, n in zip(*executor.window_runs(sub, cq)):
                agg, seen = aggs.get(w) or (executor.make_aggregator(cq), 0)
                aggs[w] = agg, seen + n
                t0 = time.perf_counter()
                agg.fold(sub[s:t])
                out.append((w, KernelResult(agg.result(), seen + n,
                                            agg.meter.peak, time.perf_counter() - t0)))
            return out

        rows = window_frame(key, on_time, cq, run, late)
        last = max(last, pdf[query.time_col].max())
        if window is not None:
            aggs = {w: a for w, a in aggs.items() if window_bounds(window, w)[1] > last}
        state.update((pickle.dumps((aggs, last, late)),))
        yield rows

    return stream_df.groupBy(*query.partition_by).applyInPandasWithState(
        fold,
        outputStructType=schema,
        stateStructType="blob binary",
        outputMode="update",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
