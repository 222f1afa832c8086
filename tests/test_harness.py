"""Experiment harness: sweep runner over the Spark pipeline (Section 9)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core.aggregates import Count
from repro.core.granularity import Semantics
from repro.core.query import Query
from repro.harness.experiments import EXPERIMENTS
from repro.harness.reporting import to_markdown
from repro.harness.runner import Sweep, run_point, run_sweep
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
    p = run_point(spark, pdf, query, "cogra")
    assert p["events_processed"] == 300
    assert p["latency_ms"] is not None and p["latency_ms"] >= 0
    assert p["throughput_eps"] and p["throughput_eps"] > 0
    assert p["peak_state_bytes"] > 0
    assert p["dnf_frac"] == 0.0
    assert p["count_checksum"] and p["count_checksum"] > 0


def test_run_sweep_crosschecks_approaches(spark, query):
    table = run_sweep(spark, "t2", Sweep(
        x_name="events",
        xs=(150, 300),
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=1),
        make_query=lambda n: query,
        approaches=("cogra", "greta", "aseq"),
    ))
    assert len(table) == 6
    assert (table.groupby("events").count_checksum.nunique(dropna=False) == 1).all()


def test_run_sweep_skips_unsupported(spark):
    q = Query(pattern="SEQ(D+, U)", semantics=Semantics.NEXT,
              aggregates=(Count(),), partition_by=("sector", "company"))
    table = run_sweep(spark, "t3", Sweep(
        x_name="events",
        xs=(100,),
        make_pdf=lambda n: stock_stream_pdf(n=n, seed=1),
        make_query=lambda n: q,
        approaches=("aseq", "greta", "cogra"),  # aseq/greta lack NEXT
    ))
    assert table.approach.tolist() == ["cogra"]


def test_dnf_point_reported(spark, query):
    pdf = stock_stream_pdf(n=400, seed=1)
    p = run_point(spark, pdf, query, "sase", budget_units=200)
    assert p["dnf_frac"] == 1.0
    assert p["latency_ms"] is None


def test_overflowed_count_gives_no_checksum(spark):
    """A count beyond double range is a null cell, which ``Series.sum``
    would skip; the checksum must not pretend it is complete."""
    n = 1100
    pdf = pd.DataFrame({"time": np.arange(1, n + 4),
                        "grp": [0] * n + [1] * 3, "etype": ["A"] * (n + 3)})
    q = Query(pattern="A+", semantics=Semantics.ANY, aggregates=(Count(),),
              partition_by=("grp",))
    p = run_point(spark, pdf, q, "cogra")
    assert p["dnf_frac"] == 0.0
    assert p["count_checksum"] is None


def test_run_sweep_table_and_markdown(spark):
    """The job's CSV columns and markdown layout, on E5's first point
    with a budget that SASE exhausts."""
    e5 = EXPERIMENTS["E5-selectivity"]
    table = run_sweep(spark, "E5", replace(
        e5, xs=e5.xs[:1], make_pdf=lambda s: e5.make_pdf(s).head(200),
        approaches=("sase", "cogra"), budget_units=50,
    ))
    assert table.columns.tolist() == [
        "experiment", "selectivity", "approach", "latency_ms", "throughput_eps",
        "peak_state_bytes", "dnf_frac", "events_processed", "wall_s", "count_checksum",
    ]
    lines = to_markdown(table, "E5", "selectivity").splitlines()
    assert lines[:4] == [
        "### E5", "",
        "| selectivity | sase lat(ms) | sase mem | sase ev/s | cogra lat(ms) | cogra mem | cogra ev/s |",
        "|---|---|---|---|---|---|---|",
    ]
    cells = lines[4].strip("| ").split(" | ")
    assert cells[0] == "0.1"
    assert cells[1].endswith("% DNF)") and cells[3] == "-"  # SASE, partly DNF
    assert "DNF" not in cells[4] and cells[6] != "-"  # Cogra
    assert to_markdown(table.iloc[:0], "E5", "selectivity") == "### E5\n\n(no data)\n"
