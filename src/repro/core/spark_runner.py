"""Batch Spark runner: the distributed Cogra executor (paper Sections 7-8).

Pipeline (all relational stages in Catalyst, per the paper's executor):

1. **Filter** — local predicates prune the stream (Section 7).
2. **Window** — each event is exploded into its covering window ids.
3. **Partition** — groupBy(grouping/equivalence attrs + wid): the paper's
   "non-overlapping sub-streams … processed in parallel independently".
4. **Kernel** — one ``applyInPandas`` call per substream runs the
   granularity-selected Cogra aggregator (or a baseline) as a
   DataFrame -> DataFrame physical operator, emitting the aggregates plus
   per-substream metrics (events, peak state bytes, kernel seconds, DNF).

The kernel is sequential per substream by design: Definition 7 adjacency
is order-sensitive, so parallelism comes from partitioning, exactly as in
the paper (Section 8, "Parallel Processing").
"""
from __future__ import annotations

import math

import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.baselines.registry import run_approach
from repro.core.events import events_from_pandas
from repro.core.predicates import _OPS
from repro.core.query import CompiledQuery, Query
from repro.core.windows import with_window_ids
from repro.harness.metrics import Budget

METRIC_FIELDS = [
    T.StructField("events", T.LongType()),
    T.StructField("peak_state_bytes", T.LongType()),
    T.StructField("kernel_seconds", T.DoubleType()),
    T.StructField("dnf", T.BooleanType()),
    T.StructField("trends_constructed", T.LongType()),
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
    """Local filter -> column select -> window explode: the relational
    stages shared by the batch and the streaming runner."""
    q = cq.query
    flt = local_filter_expr(cq)
    if flt is not None:
        df = df.filter(flt)
    keep = [*q.partition_by, q.time_col, q.type_col, *cq.attr_cols]
    df = df.select(*dict.fromkeys(keep))  # dedup, keep order
    return with_window_ids(df, q.window, q.time_col)


def result_schema(df: DataFrame, cq: CompiledQuery) -> T.StructType:
    """Output schema: partition keys + wid + one double per aggregate +
    kernel metrics."""
    q = cq.query
    fields = [df.schema[c] for c in q.partition_by]
    fields.append(T.StructField("wid", T.LongType()))
    fields.extend(T.StructField(s.name, T.DoubleType()) for s in cq.specs)
    fields.extend(METRIC_FIELDS)
    return T.StructType(fields)


def _as_double(v) -> float | None:
    if v is None:
        return None
    # Exact ANY counts can exceed float64 range (2^n trends); saturate
    # like the paper's fixed-width arithmetic would.
    try:
        return float(v)
    except OverflowError:
        return math.inf


def result_frame(
    schema: T.StructType, key: tuple, aggregates: dict, **metrics
) -> pd.DataFrame:
    """One output row of ``schema``: the key columns, each aggregate as a
    double, then the metric columns given by name."""
    names = schema.fieldNames()
    row = dict(zip(names, key))
    row.update((name, _as_double(v)) for name, v in aggregates.items())
    row.update(metrics)
    return pd.DataFrame([row], columns=names)


def run_query(
    df: DataFrame,
    query: Query,
    *,
    approach: str = "cogra",
    exact: bool = True,
    budget_units: int = 5_000_000,
    budget_seconds: float = 30.0,
    flatten_cap: int | None = None,
) -> DataFrame:
    """Evaluate an event trend aggregation query over a batch DataFrame.

    Returns one row per (partition key values, wid) with the aggregate
    columns named after each :class:`~repro.core.aggregates.AggSpec` plus
    kernel metrics. ``approach`` selects Cogra or a Table-9 baseline;
    unsupported combinations raise (checked by the registry).
    """
    cq = query.compile()
    df = prepare_input(df, cq)
    schema = result_schema(df, cq)
    time_col, type_col, attr_cols = query.time_col, query.type_col, cq.attr_cols

    def kernel(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        events = events_from_pandas(
            pdf, time_col=time_col, type_col=type_col, attr_cols=attr_cols
        )
        res = run_approach(
            approach,
            events,
            cq,
            exact=exact,
            budget=Budget(max_units=budget_units, max_seconds=budget_seconds),
            flatten_cap=flatten_cap,
        )
        return result_frame(
            schema,
            key,
            res.aggregates,
            events=res.events_processed,
            peak_state_bytes=res.peak_state_bytes,
            kernel_seconds=res.kernel_seconds,
            dnf=res.dnf,
            trends_constructed=res.trends_constructed,
        )

    return df.groupBy(*query.partition_by, "wid").applyInPandas(kernel, schema=schema)
