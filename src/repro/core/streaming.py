"""Structured Streaming deployment of Cogra (calibration-hint mapping).

Cogra's coarse-grained incremental aggregation maps directly onto
Structured Streaming's stateful aggregation operators: the keyed state per
(grouping attributes, window id) is one Cogra aggregator — Theta(l) values
at the type granularity, O(1) at the pattern granularity — and each
micro-batch folds its events into that state via
``applyInPandasWithState``. Aggregates are emitted in *update* mode after
every micro-batch, mirroring the paper's per-slide outputs. State has no
timeout and is never evicted (ROADMAP item 5).

The input and output paths are the batch runner's (``prepare_input``,
``result_frame``), the micro-batch becomes one columnar ``Substream``,
and the event loop is the executor's ``fold``. Unlike the batch runner,
which slices each group's windows in one kernel call, the stream tags
every event with each covering wid (``with_window_ids``) and keeps one
state per (group, wid). Each micro-batch runs ``registry.run_approach``'s
domain check (``executor.check_substream``) before folding.

Ordering: Definition-7 adjacency is order-sensitive. All of a key's events
in one micro-batch are sorted by timestamp together, and micro-batches are
assumed to arrive in time order per key (the paper makes the same in-order
assumption via its time-driven scheduler, Section 8 — out-of-order
handling a la watermarks is orthogonal to the contribution).
"""
from __future__ import annotations

import pickle
from typing import Any, Iterator, Tuple

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core import executor
from repro.core.events import Substream
from repro.core.query import Query
from repro.core.spark_runner import (
    METRIC_FIELDS,
    prepare_input,
    result_frame,
    result_schema,
)
from repro.core.windows import with_window_ids

_BATCH_ONLY_METRICS = {f.name for f in METRIC_FIELDS} - {"events", "overflow"}


def streaming_result_schema(df: DataFrame, query: Query) -> T.StructType:
    """The batch result schema with ``events`` and ``overflow`` as its
    only metrics."""
    fields = result_schema(df, query.compile()).fields
    return T.StructType([f for f in fields if f.name not in _BATCH_ONLY_METRICS])


_STATE_SCHEMA = T.StructType([T.StructField("blob", T.BinaryType())])


def run_query_streaming(stream_df: DataFrame, query: Query) -> DataFrame:
    """Evaluate an event trend aggregation query over a *streaming*
    DataFrame; returns the update-mode result stream (one row per key per
    micro-batch with the aggregates so far).

    The caller starts the returned stream with ``writeStream`` (see
    ``jobs/streaming_demo.py`` and ``tests/test_streaming.py``).
    """
    cq = query.compile()
    stream_df = prepare_input(stream_df, cq)
    stream_df = with_window_ids(stream_df, query.window, query.time_col)
    out_schema = streaming_result_schema(stream_df, query)
    time_col, type_col, attr_cols = query.time_col, query.type_col, cq.attr_cols

    def fold(
        key: Tuple[Any, ...],
        pdfs: Iterator[pd.DataFrame],
        state: GroupState,
    ) -> Iterator[pd.DataFrame]:
        if state.exists:
            agg = pickle.loads(state.get[0])
        else:
            agg = executor.make_aggregator(cq)
        # Spark splits a key's micro-batch into Arrow-sized chunks; convert
        # them as one substream so its events reach the fold in time order.
        sub = Substream.from_pandas(
            pd.concat(pdfs, ignore_index=True), time_col, type_col, attr_cols
        )
        executor.check_substream(cq, sub)
        executor.fold(agg, sub)
        state.update((pickle.dumps(agg),))
        yield result_frame(
            out_schema, key, agg.result(), events=agg.events_processed
        )

    return stream_df.groupBy(*query.partition_by, "wid").applyInPandasWithState(
        fold,
        outputStructType=out_schema,
        stateStructType=_STATE_SCHEMA,
        outputMode="update",
        timeoutConf=GroupStateTimeout.NoTimeout,
    )
