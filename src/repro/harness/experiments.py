"""Definitions of the six evaluation experiments (paper Figures 5-10,
reproduced as tables E1-E6 — see DESIGN.md Section 3 and EXPERIMENTS.md).

Every experiment is a parameter sweep over a workload, one
:class:`~repro.harness.runner.Sweep` in :data:`EXPERIMENTS`; each sweep
point runs all approaches that support the query (Table 9) through the
Spark pipeline and records latency / throughput / peak state. Scales are
reduced from the paper's 16-core-Java testbed (up to 100M events/window)
to laptop-Spark sizes; the budget guard turns the paper's "fails to
terminate" into DNF rows at correspondingly smaller thresholds.

q3' is ``SEQ(D+, U)`` grouped by (sector, company) — the whole-trend
grouping variant of q3 (DESIGN.md "Grouping scope").
"""
from __future__ import annotations

from repro.core.aggregates import Avg, Count
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate, LocalPredicate
from repro.core.query import Query
from repro.harness.runner import Sweep
from repro.synth_data import (
    activity_stream_pdf,
    selectivity_offset,
    stock_stream_pdf,
    transport_stream_pdf,
)

Q1 = Query(
    pattern="M+",
    semantics=Semantics.CONT,
    aggregates=(Count(),),
    adjacent_predicates=(AdjacentPredicate("M", "rate", "<", "M", "rate"),),
    local_predicates=(LocalPredicate("activity", "<", 9, etype="M"),),
    partition_by=("person",),
)

Q2_PATTERN = "SEQ(Accept, (SEQ(Call, Cancel))+, Finish)"
Q2_NEXT = Query(
    pattern=Q2_PATTERN,
    semantics=Semantics.NEXT,
    aggregates=(Count(),),
    partition_by=("passenger",),
)
Q2_ANY = Query(
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


EXPERIMENTS: dict[str, Sweep] = {
    # E1 <- Figure 5: CONT semantics, vary events per window. q1:
    # contiguously increasing heart rate during passive activity, per
    # person. Approaches with CONT support: Flink, SASE, Cogra.
    "E1-cont": Sweep(
        x_name="events",
        xs=(1_000, 5_000, 20_000, 50_000),
        make_pdf=lambda n: activity_stream_pdf(n=n, seed=10),
        make_query=lambda n: Q1,
        approaches=("flink", "sase", "cogra"),
    ),
    # E2 <- Figure 6: NEXT semantics, vary events per window. q2: Uber-pool
    # trips with cancellations per passenger session; irrelevant events
    # (InTransit, Dropoff) are skipped. Approaches with NEXT support: SASE,
    # Cogra.
    "E2-next": Sweep(
        x_name="events",
        xs=(2_000, 10_000, 50_000, 100_000),
        make_pdf=lambda n: transport_stream_pdf(n=n, seed=12),
        make_query=lambda n: Q2_NEXT,
        approaches=("sase", "cogra"),
    ),
    # E3 <- Figure 7: ANY semantics, all five approaches, low-rate stream.
    # q3' without predicates on adjacent events, so A-Seq participates
    # (§9.1). The two-step approaches (Flink, SASE) blow up exponentially
    # and DNF once substreams exceed a few dozen events: the paper's
    # non-termination beyond 40k events.
    "E3-any-all": Sweep(
        x_name="events",
        xs=(200, 500, 1_000, 2_000, 5_000),
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=11),
        make_query=lambda n: stock_query(),
        approaches=("flink", "sase", "greta", "aseq", "cogra"),
        budget_seconds=10.0,
    ),
    # E4 <- Figure 8: ANY semantics, online approaches, high-rate stream.
    # GRETA (event-grained, O(n^2)) and A-Seq (flattened workload growing
    # with n) fall behind Cogra's type-grained O(n*l); at the largest
    # scales they exceed the budget like GRETA's >20M DNF in the paper.
    "E4-any-online": Sweep(
        x_name="events",
        xs=(2_000, 5_000, 10_000, 20_000),
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=11),
        make_query=lambda n: stock_query(),
        approaches=("greta", "aseq", "cogra"),
        budget_seconds=60.0,
        budget_units=500_000_000,
    ),
    # E5 <- Figure 9: selectivity of predicates on adjacent events, on one
    # stream. A-Seq is excluded (no such predicates). Cogra runs
    # mixed-grained here: D is event-grained, U type-grained.
    "E5-selectivity": Sweep(
        x_name="selectivity",
        xs=(0.1, 0.3, 0.5, 0.7, 0.9),
        make_pdf=lambda s: stock_stream_pdf(n=1_000, seed=11),
        make_query=selectivity_query,
        approaches=("flink", "sase", "greta", "cogra"),
        budget_seconds=10.0,
    ),
    # E6 <- Figure 10: number of event trend groups. The transport
    # workload under ANY with the q2 pattern; the number of passengers
    # (= groups) varies while the stream size is fixed, so fewer groups
    # mean larger substreams. Two-step approaches DNF below a group-count
    # threshold (paper: Flink < 15, SASE < 25 groups).
    "E6-groups": Sweep(
        x_name="groups",
        xs=(5, 10, 15, 20, 25, 30),
        make_pdf=lambda g: transport_stream_pdf(n=900, n_passengers=g, seed=12),
        make_query=lambda g: Q2_ANY,
        approaches=("flink", "sase", "greta", "aseq", "cogra"),
        budget_seconds=2.0,
    ),
}
