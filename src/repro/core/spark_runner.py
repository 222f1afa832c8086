"""Batch Spark runner: the distributed Cogra executor (paper Sections 7-8).

Pipeline (the relational stages in Catalyst, per the paper's executor):

1. **Filter** — local predicates prune the stream (Section 7).
2. **Partition** — groupBy(grouping/equivalence attrs): the paper's
   "non-overlapping sub-streams … processed in parallel independently".
3. **Kernel** — one ``applyInPandas`` call per group sorts its events by
   time once into a columnar ``Substream`` and cuts it into one
   contiguous slice view per covering window (``windows.window_slices``;
   Li et al.'s window ids, without copying an event into every window
   that covers it). Cogra under CONT scans the columns; the other kernels
   read the group's ``Event`` rows, built once and sliced.
4. **Aggregate** — each (group, wid) slice runs the granularity-selected
   Cogra aggregator (or a baseline) through ``registry.run_approach`` and
   becomes one output row (``result_row``): the aggregates plus
   per-substream metrics (events, peak state bytes, kernel seconds, DNF,
   overflow, and late events, always 0 in batch). The group's rows leave
   the kernel as one DataFrame.

Stages 3 and 4 are ``window_frame``. The streaming runner
(``core/streaming``) runs the same stages, ``window_frame`` included,
once per key and micro-batch, into the same result schema.

The kernel is sequential per substream by design: Definition 7 adjacency
is order-sensitive, so parallelism comes from partitioning, exactly as in
the paper (Section 8, "Parallel Processing").
"""
from __future__ import annotations

from typing import Callable

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.baselines.registry import run_approach
from repro.core.events import Substream
from repro.core.predicates import _OPS
from repro.core.query import CompiledQuery, Query
from repro.core.windows import window_slices
from repro.harness.metrics import Budget, KernelResult

METRIC_FIELDS = [
    T.StructField("events", T.LongType()),
    T.StructField("peak_state_bytes", T.LongType()),
    T.StructField("kernel_seconds", T.DoubleType()),
    T.StructField("dnf", T.BooleanType()),
    T.StructField("trends_constructed", T.LongType()),
    T.StructField("overflow", T.BooleanType()),
    T.StructField("late_events", T.LongType()),
]


def local_filter_expr(cq: CompiledQuery) -> Column | None:
    """Catalyst predicate for the query's local predicates: an event of a
    targeted type must satisfy the comparison; other types pass."""
    q = cq.query
    expr: Column | None = None
    for lp in q.local_predicates:
        c = _OPS[lp.op](F.col(lp.attr), F.lit(lp.value))
        if lp.etype is not None:
            c = (F.col(q.type_col) != F.lit(lp.etype)) | c
        expr = c if expr is None else (expr & c)
    return expr


def prepare_input(df: DataFrame, cq: CompiledQuery) -> DataFrame:
    """Local filter -> column select: the relational stages shared by the
    batch and the streaming runner."""
    q = cq.query
    flt = local_filter_expr(cq)
    if flt is not None:
        df = df.filter(flt)
    keep = [*q.partition_by, q.time_col, q.type_col, *cq.attr_cols]
    return df.select(*dict.fromkeys(keep))  # dedup, keep order


def result_schema(df: DataFrame, cq: CompiledQuery) -> T.StructType:
    """Output schema: partition keys + wid + one double per aggregate +
    kernel metrics."""
    q = cq.query
    fields = [df.schema[c] for c in q.partition_by]
    fields.append(T.StructField("wid", T.LongType()))
    fields.extend(T.StructField(s.name, T.DoubleType()) for s in cq.specs)
    fields.extend(METRIC_FIELDS)
    return T.StructType(fields)


def result_row(schema: T.StructType, key: tuple, aggregates: dict, **metrics) -> dict:
    """One output row of ``schema``: the key columns, each exact aggregate
    rounded to a double, then the metric columns given by name.

    This is the only place results are rounded. An aggregate beyond double
    range (an ANY count grows as 2^n) becomes null and sets ``overflow``.
    """
    row = dict(zip(schema.fieldNames(), key))
    overflow = False
    for name, v in aggregates.items():
        try:
            row[name] = None if v is None else float(v)
        except OverflowError:
            row[name], overflow = None, True
    row.update(metrics, overflow=overflow)
    return row


def window_frame(
    schema: T.StructType,
    key: tuple,
    pdf: pd.DataFrame,
    cq: CompiledQuery,
    run: Callable[[int, Substream], KernelResult],
    late_events: int = 0,
) -> pd.DataFrame:
    """One :func:`result_row` per window of the group's events ``pdf``,
    the windowing path of both runners: the events are sorted by time once
    into a ``Substream``, and ``run(wid, part)`` evaluates each window's
    slice view ``part`` (``windows.window_slices``)."""
    q = cq.query
    sub = Substream.from_pandas(pdf, q.time_col, q.type_col, cq.attr_cols)
    rows = []
    for wid, s, t in window_slices(sub.time.tolist(), q.window):
        res = run(wid, sub[s:t])
        rows.append(result_row(
            schema,
            (*key, wid),
            res.aggregates,
            events=res.events_processed,
            peak_state_bytes=res.peak_state_bytes,
            kernel_seconds=res.kernel_seconds,
            dnf=res.dnf,
            trends_constructed=res.trends_constructed,
            late_events=late_events,
        ))
    return pd.DataFrame(rows, columns=schema.fieldNames())


def run_query(
    df: DataFrame,
    query: Query,
    *,
    approach: str = "cogra",
    budget_units: int = 5_000_000,
    budget_seconds: float = 30.0,
) -> DataFrame:
    """Evaluate an event trend aggregation query over a batch DataFrame.

    Returns one row per (partition key values, wid) with the aggregate
    columns named after each :class:`~repro.core.aggregates.AggSpec` plus
    kernel metrics; ``overflow`` marks a row with an aggregate beyond
    double range (its column is null). ``approach`` selects Cogra or a
    Table-9 baseline; unsupported combinations raise (checked by the
    registry).
    """
    cq = query.compile()
    df = prepare_input(df, cq)
    schema = result_schema(df, cq)

    def run(_wid: int, part: Substream) -> KernelResult:
        budget = Budget(max_units=budget_units, max_seconds=budget_seconds)
        return run_approach(approach, part, cq, budget=budget)

    def kernel(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        return window_frame(schema, key, pdf, cq, run)

    return df.groupBy(*query.partition_by).applyInPandas(kernel, schema=schema)
