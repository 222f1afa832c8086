"""Experiment runner: evaluate approaches on a workload through the Spark
pipeline and collect the paper's three metrics (Section 9.1).

``run_sweep`` gives one row per (sweep value, approach):

* ``latency_ms``   — mean per-substream kernel time (the aggregation work
  for one window/group, the paper's per-result latency);
* ``throughput_eps`` — kernel-processed events per total kernel second
  (how fast the approach itself consumes the stream);
* ``peak_state_bytes`` — summed per-substream peak state (DESIGN.md);
* ``dnf_frac``     — fraction of substreams that exceeded the budget
  (the paper's "fails to terminate");
* ``events_processed`` — relevant events over all substreams;
* ``wall_s``       — end-to-end Spark wall time of the whole sweep point.

``count_checksum`` sums COUNT(*) over all substreams with ``math.fsum``
(every row's count is an exact value rounded once, so the sum does not
depend on row order), and the harness asserts that every non-DNF approach
gives the same checksum with ``==``; it is None when a finished
substream's count overflowed a double.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.registry import supports
from repro.core.query import Query
from repro.core.spark_runner import run_query


@dataclass(frozen=True)
class Sweep:
    """One experiment: the workload ``make_pdf(x)`` and the query
    ``make_query(x)`` at every x of ``xs``, run by each of ``approaches``
    that supports the query, with ``run_query``'s ``budget_units`` and
    ``budget_seconds`` (its defaults where unset)."""

    x_name: str
    xs: tuple
    make_pdf: Callable[[Any], pd.DataFrame]
    make_query: Callable[[Any], Query]
    approaches: tuple[str, ...]
    budget_units: int = 5_000_000
    budget_seconds: float = 30.0


def run_point(spark: SparkSession, pdf: pd.DataFrame, query: Query, approach: str, *,
              budget_units: int = 5_000_000, budget_seconds: float = 30.0) -> dict:
    """Run one approach on one workload through the Spark pipeline; its
    metrics, in ``run_sweep``'s column order."""
    df = spark.createDataFrame(pdf)
    t0 = time.perf_counter()
    out = run_query(df, query, approach=approach, budget_units=budget_units,
                    budget_seconds=budget_seconds).toPandas()
    wall = time.perf_counter() - t0
    done = out[~out.dnf]
    kernel_s = out.kernel_seconds.sum()
    events = int(out.events.sum())
    checksum = None
    if "count_star" in out.columns and len(done) and not done.overflow.any():
        checksum = math.fsum(done.count_star)
    return {
        "latency_ms": None if out.dnf.all() else float(done.kernel_seconds.mean() * 1e3),
        "throughput_eps": None if out.dnf.any() or kernel_s == 0
        else float(events / kernel_s),
        "peak_state_bytes": int(out.peak_state_bytes.sum()),
        "dnf_frac": float(out.dnf.mean()),
        "events_processed": events,
        "wall_s": wall,
        "count_checksum": checksum,
    }


def run_sweep(spark: SparkSession, name: str, sweep: Sweep) -> pd.DataFrame:
    """Run every supported approach at every sweep value, one row each:
    ``experiment``, the x column (``sweep.x_name``), ``approach``, then
    ``run_point``'s metrics.

    Asserts all non-DNF approaches give equal COUNT(*) checksums at each
    point.
    """
    rows: list[dict] = []
    for x in sweep.xs:
        pdf = sweep.make_pdf(x)
        query = sweep.make_query(x)
        cq = query.compile()
        sums = {}
        for ap in sweep.approaches:
            if not supports(ap, cq):
                continue
            p = run_point(spark, pdf, query, ap, budget_units=sweep.budget_units,
                          budget_seconds=sweep.budget_seconds)
            rows.append({"experiment": name, sweep.x_name: x, "approach": ap, **p})
            lat = "DNF" if p["latency_ms"] is None else f"{p['latency_ms']:10.3f}ms"
            print(
                f"[{name}] {sweep.x_name}={x:<10} {ap:<6} lat={lat} "
                f"mem={p['peak_state_bytes']:>12}B dnf={p['dnf_frac']:.0%} "
                f"wall={p['wall_s']:.1f}s"
            )
            if p["dnf_frac"] == 0 and p["count_checksum"] is not None:
                sums[ap] = p["count_checksum"]
        if len(set(sums.values())) > 1:
            raise AssertionError(f"{name} @ {sweep.x_name}={x}: approaches disagree: {sums}")
    return pd.DataFrame(rows)
