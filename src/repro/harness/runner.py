"""Experiment runner: evaluate approaches on a workload through the Spark
pipeline and collect the paper's three metrics (Section 9.1).

One :class:`SweepPoint` per (experiment, sweep value, approach):

* ``latency_ms``   — mean per-substream kernel time (the aggregation work
  for one window/group, the paper's per-result latency);
* ``throughput_eps`` — kernel-processed events per total kernel second
  (how fast the approach itself consumes the stream);
* ``peak_state_bytes`` — summed per-substream peak state (DESIGN.md);
* ``wall_s``       — end-to-end Spark wall time of the whole sweep point;
* ``dnf_frac``     — fraction of substreams that exceeded the budget
  (the paper's "fails to terminate").

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

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.registry import supports
from repro.core.query import Query
from repro.core.spark_runner import run_query


@dataclass
class SweepPoint:
    experiment: str
    x_name: str
    x: float
    approach: str
    total_events: int = 0
    n_substreams: int = 0
    latency_ms: float | None = None
    throughput_eps: float | None = None
    peak_state_bytes: int = 0
    wall_s: float = 0.0
    dnf_frac: float = 0.0
    count_checksum: float | None = None


def run_point(
    spark: SparkSession,
    pdf: pd.DataFrame,
    query: Query,
    approach: str,
    *,
    experiment: str,
    x_name: str,
    x: float,
    budget_units: int = 5_000_000,
    budget_seconds: float = 30.0,
) -> SweepPoint:
    """Run one approach on one workload through the Spark pipeline."""
    df = spark.createDataFrame(pdf)
    t0 = time.perf_counter()
    out = run_query(
        df,
        query,
        approach=approach,
        budget_units=budget_units,
        budget_seconds=budget_seconds,
    ).toPandas()
    wall = time.perf_counter() - t0
    done = out[~out.dnf]
    kernel_s = out.kernel_seconds.sum()
    events = int(out.events.sum())
    checksum = None
    if "count_star" in out.columns and len(done) and not done.overflow.any():
        checksum = math.fsum(done.count_star)
    return SweepPoint(
        experiment=experiment,
        x_name=x_name,
        x=x,
        approach=approach,
        total_events=events,
        n_substreams=len(out),
        latency_ms=None if out.dnf.all() else float(done.kernel_seconds.mean() * 1e3),
        throughput_eps=None
        if out.dnf.any() or kernel_s == 0
        else float(events / kernel_s),
        peak_state_bytes=int(out.peak_state_bytes.sum()),
        wall_s=wall,
        dnf_frac=float(out.dnf.mean()),
        count_checksum=checksum,
    )


def run_sweep(
    spark: SparkSession,
    *,
    experiment: str,
    x_name: str,
    xs: list,
    make_pdf,
    make_query,
    approaches: list[str],
    budget_units: int = 5_000_000,
    budget_seconds: float = 30.0,
    verbose: bool = True,
) -> list[SweepPoint]:
    """Run every supported approach at every sweep value.

    ``make_pdf(x)`` builds the workload and ``make_query(x)`` the query.
    Asserts all non-DNF approaches give equal COUNT(*) checksums at each
    point.
    """
    points: list[SweepPoint] = []
    for x in xs:
        pdf = make_pdf(x)
        query = make_query(x)
        cq = query.compile()
        at_x: list[SweepPoint] = []
        for ap in approaches:
            if not supports(ap, cq):
                continue
            p = run_point(
                spark, pdf, query, ap,
                experiment=experiment, x_name=x_name, x=x,
                budget_units=budget_units, budget_seconds=budget_seconds,
            )
            at_x.append(p)
            if verbose:
                lat = "DNF" if p.latency_ms is None else f"{p.latency_ms:10.3f}ms"
                print(
                    f"[{experiment}] {x_name}={x:<10} {ap:<6} lat={lat} "
                    f"mem={p.peak_state_bytes:>12}B dnf={p.dnf_frac:.0%} "
                    f"wall={p.wall_s:.1f}s"
                )
        sums = {
            p.approach: p.count_checksum
            for p in at_x
            if p.dnf_frac == 0 and p.count_checksum is not None
        }
        if len(set(sums.values())) > 1:
            raise AssertionError(
                f"{experiment} @ {x_name}={x}: approaches disagree: {sums}"
            )
        points.extend(at_x)
    return points


def points_to_pdf(points: list[SweepPoint]) -> pd.DataFrame:
    """Tabulate sweep points (for reports and EXPERIMENTS.md)."""
    return pd.DataFrame(
        [
            {
                "experiment": p.experiment,
                p.x_name: p.x,
                "approach": p.approach,
                "latency_ms": p.latency_ms,
                "throughput_eps": p.throughput_eps,
                "peak_state_bytes": p.peak_state_bytes,
                "dnf_frac": p.dnf_frac,
                "events_processed": p.total_events,
                "wall_s": p.wall_s,
                "count_checksum": p.count_checksum,
            }
            for p in points
        ]
    )
