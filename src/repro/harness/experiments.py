"""Definitions of the six evaluation experiments (paper Figures 5-10,
reproduced as tables E1-E6 — see DESIGN.md Section 3 and EXPERIMENTS.md).

Every experiment is a parameter sweep over a workload; each sweep point
runs all approaches that support the query (Table 9) through the Spark
pipeline and records latency / throughput / peak state. Scales are reduced
from the paper's 16-core-Java testbed (up to 100M events/window) to
laptop-Spark sizes; the budget guard turns the paper's "fails to
terminate" into DNF rows at correspondingly smaller thresholds.

Experiment-to-paper mapping:

* E1 <- Figure 5  (contiguous semantics, physical-activity data, q1)
* E2 <- Figure 6  (skip-till-next-match, public transportation, q2)
* E3 <- Figure 7  (skip-till-any-match, all approaches, stock data, q3')
* E4 <- Figure 8  (skip-till-any-match, online approaches, stock data)
* E5 <- Figure 9  (predicate selectivity, stock data)
* E6 <- Figure 10 (number of trend groups, public transportation)

q3' is ``SEQ(D+, U)`` grouped by (sector, company) — the whole-trend
grouping variant of q3 (DESIGN.md "Grouping scope").
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.aggregates import Avg, Count
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, LocalPredicate
from repro.core.query import Query
from repro.harness.runner import SweepPoint, run_sweep
from repro.synth_data import (
    activity_stream_pdf,
    selectivity_offset,
    stock_stream_pdf,
    transport_stream_pdf,
)

# The experiment queries, shared with the pytest-benchmark suite.
Q1 = Query(  # E1
    pattern="M+",
    semantics=Semantics.CONT,
    aggregates=(Count(),),
    adjacent_predicates=(AdjacentPredicate("M", "rate", "<", "M", "rate"),),
    local_predicates=(LocalPredicate("activity", "<", 9, etype="M"),),
    partition_by=("person",),
)

Q2_PATTERN = "SEQ(Accept, (SEQ(Call, Cancel))+, Finish)"
Q2_NEXT = Query(  # E2
    pattern=Q2_PATTERN,
    semantics=Semantics.NEXT,
    aggregates=(Count(),),
    partition_by=("passenger",),
)
Q2_ANY = Query(  # E6
    pattern=Q2_PATTERN,
    semantics=Semantics.ANY,
    aggregates=(Count(),),
    partition_by=("passenger",),
)


def stock_query(preds: tuple = ()) -> Query:
    """q3': down-trends followed by an up-tick per company."""
    return Query(
        pattern="SEQ(D+, U)",
        semantics=Semantics.ANY,
        aggregates=(Count(), Avg("U", "price")),
        adjacent_predicates=preds,
        partition_by=("sector", "company"),
    )


def selectivity_query(selectivity: float) -> Query:
    """q3' with D.price < NEXT(D).price + c, c tuned so the pair
    selectivity equals ``selectivity`` (§9.3)."""
    return stock_query(
        (AdjacentPredicate("D", "price", "<", "D", "price",
                           offset=selectivity_offset(selectivity)),)
    )


def exp_cont(spark: SparkSession, *, xs=(1_000, 5_000, 20_000, 50_000),
             verbose: bool = True) -> list[SweepPoint]:
    """E1 / Figure 5 — CONT semantics, vary events per window.

    q1-style: contiguously increasing heart rate during passive activity,
    per person. Approaches with CONT support: Flink, SASE, Cogra.
    """
    return run_sweep(
        spark,
        experiment="E1-cont",
        x_name="events",
        xs=list(xs),
        make_pdf=lambda n: activity_stream_pdf(n=n, seed=10),
        make_query=lambda n: Q1,
        approaches=["flink", "sase", "cogra"],
        flatten_cap=64,  # longest contiguous increasing run is far shorter
        verbose=verbose,
    )


def exp_next(spark: SparkSession, *, xs=(2_000, 10_000, 50_000, 100_000),
             verbose: bool = True) -> list[SweepPoint]:
    """E2 / Figure 6 — NEXT semantics, vary events per window.

    q2-style: Uber-pool trips with cancellations per passenger session;
    irrelevant events (InTransit, Dropoff) are skipped. Approaches with
    NEXT support: SASE, Cogra.
    """
    return run_sweep(
        spark,
        experiment="E2-next",
        x_name="events",
        xs=list(xs),
        make_pdf=lambda n: transport_stream_pdf(n=n, seed=12),
        make_query=lambda n: Q2_NEXT,
        approaches=["sase", "cogra"],
        verbose=verbose,
    )


def exp_any_all(spark: SparkSession, *, xs=(200, 500, 1_000, 2_000, 5_000),
                verbose: bool = True) -> list[SweepPoint]:
    """E3 / Figure 7 — ANY semantics, all five approaches, low-rate stream.

    q3'-style: down-trends followed by an up-tick per company, no
    predicates on adjacent events (so A-Seq participates, §9.1). The
    two-step approaches (Flink, SASE) blow up exponentially and DNF once
    substreams exceed a few dozen events — the paper's non-termination
    beyond 40k events.
    """
    return run_sweep(
        spark,
        experiment="E3-any-all",
        x_name="events",
        xs=list(xs),
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=11),
        make_query=lambda n: stock_query(),
        approaches=["flink", "sase", "greta", "aseq", "cogra"],
        budget_seconds=10.0,
        verbose=verbose,
    )


def exp_any_online(spark: SparkSession, *, xs=(2_000, 5_000, 10_000, 20_000),
                   verbose: bool = True) -> list[SweepPoint]:
    """E4 / Figure 8 — ANY semantics, online approaches, high-rate stream.

    GRETA (event-grained, O(n^2)) and A-Seq (flattened workload growing
    with n) fall behind Cogra's type-grained O(n*l); at the largest scales
    they exceed the budget like GRETA's >20M DNF in the paper.
    """
    return run_sweep(
        spark,
        experiment="E4-any-online",
        x_name="events",
        xs=list(xs),
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=11),
        make_query=lambda n: stock_query(),
        approaches=["greta", "aseq", "cogra"],
        budget_seconds=60.0,
        budget_units=500_000_000,
        verbose=verbose,
    )


def exp_selectivity(spark: SparkSession, *, n: int = 1_000,
                    xs=(0.1, 0.3, 0.5, 0.7, 0.9),
                    verbose: bool = True) -> list[SweepPoint]:
    """E5 / Figure 9 — selectivity of predicates on adjacent events.

    The predicate D.price < NEXT(D).price + c restricts down-trend
    adjacency; c is tuned so the pair-selectivity equals x (§9.3, via
    ``selectivity_offset``). A-Seq is excluded (no such predicates).
    Cogra runs mixed-grained here: D is event-grained, U type-grained.
    """
    pdf = stock_stream_pdf(n=n, seed=11)
    return run_sweep(
        spark,
        experiment="E5-selectivity",
        x_name="selectivity",
        xs=list(xs),
        make_pdf=lambda s: pdf,
        make_query=selectivity_query,
        approaches=["flink", "sase", "greta", "cogra"],
        budget_seconds=10.0,
        verbose=verbose,
    )


def exp_groups(spark: SparkSession, *, n: int = 900,
               xs=(5, 10, 15, 20, 25, 30),
               verbose: bool = True) -> list[SweepPoint]:
    """E6 / Figure 10 — number of event trend groups.

    Public-transportation workload under ANY with the q2 pattern; the
    number of passengers (= groups) varies while the stream size is fixed,
    so fewer groups mean larger substreams. Two-step approaches DNF below
    a group-count threshold (paper: Flink < 15, SASE < 25 groups).
    """
    return run_sweep(
        spark,
        experiment="E6-groups",
        x_name="groups",
        xs=list(xs),
        make_pdf=lambda g: transport_stream_pdf(n=n, n_passengers=g, seed=12),
        make_query=lambda g: Q2_ANY,
        approaches=["flink", "sase", "greta", "aseq", "cogra"],
        budget_seconds=2.0,
        verbose=verbose,
    )


ALL_EXPERIMENTS = {
    "E1-cont": exp_cont,
    "E2-next": exp_next,
    "E3-any-all": exp_any_all,
    "E4-any-online": exp_any_online,
    "E5-selectivity": exp_selectivity,
    "E6-groups": exp_groups,
}
