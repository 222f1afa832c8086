"""Experiment harness: sweep runner over the Spark pipeline (Section 9)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.aggregates import Count
from repro.core.granularity import Semantics
from repro.core.query import Query
from repro.harness.runner import points_to_pdf, run_point, run_sweep
from repro.synth_data import stock_stream_pdf


@pytest.fixture(scope="module")
def query():
    return Query(
        pattern="SEQ(D+, U)",
        semantics=Semantics.ANY,
        aggregates=(Count(),),
        partition_by=("sector", "company"),
    )


def test_run_point_metrics(spark, query):
    pdf = stock_stream_pdf(n=300, seed=1)
    p = run_point(
        spark, pdf, query, "cogra",
        experiment="t", x_name="events", x=300,
    )
    assert p.total_events == 300
    assert p.n_substreams == pdf.groupby(["sector", "company"]).ngroups
    assert p.latency_ms is not None and p.latency_ms >= 0
    assert p.throughput_eps and p.throughput_eps > 0
    assert p.peak_state_bytes > 0
    assert p.dnf_frac == 0.0
    assert p.count_checksum and p.count_checksum > 0


def test_run_sweep_crosschecks_approaches(spark, query):
    points = run_sweep(
        spark,
        experiment="t2",
        x_name="events",
        xs=[150, 300],
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=1),
        make_query=lambda n: query,
        approaches=["cogra", "greta", "aseq"],
        verbose=False,
    )
    assert len(points) == 6
    by_x: dict = {}
    for p in points:
        by_x.setdefault(p.x, set()).add(p.count_checksum)
    for x, sums in by_x.items():
        assert len(sums) == 1, (x, sums)


def test_run_sweep_skips_unsupported(spark):
    q = Query(pattern="SEQ(D+, U)", semantics=Semantics.NEXT,
              aggregates=(Count(),), partition_by=("sector", "company"))
    points = run_sweep(
        spark,
        experiment="t3",
        x_name="events",
        xs=[100],
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=1),
        make_query=lambda n: q,
        approaches=["aseq", "greta", "cogra"],  # aseq/greta lack NEXT
        verbose=False,
    )
    assert [p.approach for p in points] == ["cogra"]


def test_dnf_point_reported(spark, query):
    pdf = stock_stream_pdf(n=400, seed=1)
    p = run_point(
        spark, pdf, query, "sase",
        experiment="t4", x_name="events", x=400,
        budget_units=200,
    )
    assert p.dnf_frac == 1.0
    assert p.latency_ms is None


def test_overflowed_count_gives_no_checksum(spark):
    """A count beyond double range is a null cell, which ``Series.sum``
    would skip; the checksum must not pretend it is complete."""
    n = 1100
    pdf = pd.DataFrame({"time": np.arange(1, n + 4),
                        "grp": [0] * n + [1] * 3, "etype": ["A"] * (n + 3)})
    q = Query(pattern="A+", semantics=Semantics.ANY, aggregates=(Count(),),
              partition_by=("grp",))
    p = run_point(spark, pdf, q, "cogra",
                  experiment="t6", x_name="events", x=n + 3)
    assert p.dnf_frac == 0.0
    assert p.count_checksum is None


def test_points_to_pdf(spark, query):
    pdf = stock_stream_pdf(n=150, seed=1)
    p = run_point(spark, pdf, query, "cogra",
                  experiment="t5", x_name="events", x=150)
    table = points_to_pdf([p])
    assert isinstance(table, pd.DataFrame)
    assert set(["experiment", "approach", "latency_ms", "peak_state_bytes"]) <= set(
        table.columns
    )
