"""Batch Spark runner: the distributed Cogra executor (paper Sections 7-8).

Pipeline (the relational stages in Catalyst, per the paper's executor):

1. **Filter** — events without a time are dropped, and local predicates
   prune the stream (Section 7).
2. **Partition** — groupBy(grouping/equivalence attrs): the paper's
   "non-overlapping sub-streams … processed in parallel independently".
3. **Kernel** — one ``applyInPandas`` call per group sorts its events by
   time once into a columnar ``Substream`` and hands it to
   ``registry.run_approach_windows``, which gives one ``KernelResult`` per
   covering window. Each window is a contiguous slice of the group
   (``executor.window_runs``: Li et al.'s window ids, without copying an
   event into every window that covers it). Cogra at the TYPE granularity
   folds all the windows in one shared pass; otherwise each window's slice
   runs the granularity-selected Cogra aggregator (or a baseline): under
   CONT a scan of the columns, else the group's ``Event`` rows, built once
   and sliced.
4. **Aggregate** — the group's results become one DataFrame, column by
   column: the keys and wid, each aggregate rounded to a double
   (``rounded``), and the per-window metrics (events, peak state bytes,
   kernel seconds, DNF, trends constructed, overflow, and late events,
   always 0 in batch). On the shared fold, ``kernel_seconds`` is the
   group's fold time split evenly among its windows, so the column still
   sums to the kernel total.

Stages 3 and 4 are ``window_frame``. The streaming runner
(``core/streaming``) runs the same stages, ``window_frame`` included,
once per key and micro-batch, into the same result schema; its per-group
runner folds each window's slice into that window's carried aggregator.

``window_frame`` is also where the Python workers get
``worker_env.install``: from a worker's second task on, its set-up no
longer re-reads Spark's zip archives (below CPython 3.13).

The kernel is sequential per substream by design: Definition 7 adjacency
is order-sensitive, so parallelism comes from partitioning, exactly as in
the paper (Section 8, "Parallel Processing").
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.baselines.registry import run_approach_windows
from repro.core import worker_env
from repro.core.events import Substream
from repro.core.predicates import _OPS
from repro.core.query import CompiledQuery, Query
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
    batch and the streaming runner. An event without a time (null, or a
    floating-point NaN) lies in no window and has no place in a trend, so
    it is dropped here."""
    q = cq.query
    flt = local_filter_expr(cq)
    timed = F.col(q.time_col).isNotNull()
    if isinstance(df.schema[q.time_col].dataType, (T.FloatType, T.DoubleType)):
        timed &= ~F.isnan(q.time_col)
    df = df.filter(timed if flt is None else timed & flt)
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


def rounded(values: list) -> tuple[np.ndarray, np.ndarray]:
    """An aggregate column's exact values, each rounded to a double, and
    where one overflowed.

    This is the only place results are rounded. An aggregate beyond double
    range (an ANY count grows as 2^n) becomes null (NaN, which the Arrow
    conversion writes as null) and sets ``overflow``.
    """
    out = np.full(len(values), np.nan)
    overflow = np.zeros(len(values), bool)
    for i, v in enumerate(values):
        if v is not None:
            try:
                out[i] = float(v)
            except OverflowError:
                overflow[i] = True
    return out, overflow


def window_frame(
    key: tuple,
    pdf: pd.DataFrame,
    cq: CompiledQuery,
    run: Callable[[Substream], list[tuple[int, KernelResult]]],
    late_events: int = 0,
) -> pd.DataFrame:
    """The rows of :func:`result_schema` for the group's events ``pdf``,
    the windowing path of both runners: the events are sorted by time once
    into a ``Substream``, ``run(sub)`` gives one ``(wid, KernelResult)``
    per window, and the frame is built column by column, in the schema's
    order: the key columns, the rounded aggregates (:func:`rounded`) and
    the metric columns.

    It runs in the Python workers, so it also makes their later tasks skip
    re-reading Spark's zip archives (``worker_env.install``)."""
    worker_env.install()
    q = cq.query
    sub = Substream.from_pandas(pdf, q.time_col, q.type_col, cq.attr_cols)
    runs = run(sub)
    n = len(runs)
    results = [r for _, r in runs]
    cols: dict = dict(zip(q.partition_by, key))  # scalars, broadcast
    cols["wid"] = np.fromiter((w for w, _ in runs), np.int64, n)
    overflow = np.zeros(n, bool)
    for spec in cq.specs:
        cols[spec.name], over = rounded([r.aggregates[spec.name] for r in results])
        overflow |= over
    cols.update(
        events=np.fromiter((r.events_processed for r in results), np.int64, n),
        peak_state_bytes=np.fromiter((r.peak_state_bytes for r in results), np.int64, n),
        kernel_seconds=np.fromiter((r.kernel_seconds for r in results), np.float64, n),
        dnf=np.fromiter((r.dnf for r in results), bool, n),
        trends_constructed=np.fromiter((r.trends_constructed for r in results), np.int64, n),
        overflow=overflow,
        late_events=late_events,
    )
    return pd.DataFrame(cols, index=range(n))


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

    def budget() -> Budget:
        return Budget(max_units=budget_units, max_seconds=budget_seconds)

    def run(sub: Substream) -> list[tuple[int, KernelResult]]:
        return run_approach_windows(approach, sub, cq, new_budget=budget)

    def kernel(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        return window_frame(key, pdf, cq, run)

    return df.groupBy(*query.partition_by).applyInPandas(kernel, schema=schema)
