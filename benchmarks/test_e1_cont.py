"""Benchmark E1 (paper Figure 5): contiguous semantics, q1-style query
over the physical-activity stream — Flink vs SASE vs Cogra."""
import pytest

from benchmarks._common import run_all_substreams, substreams
from repro.harness.experiments import Q1
from repro.synth_data import activity_stream_pdf

N = 20_000


@pytest.fixture(scope="module")
def streams():
    pdf = activity_stream_pdf(n=N, seed=10)
    pdf = pdf[pdf.activity < 9]  # local predicate, prefiltered like Catalyst
    return substreams(pdf, ["person"], ("rate",))


@pytest.fixture(scope="module")
def cogra_total(streams):
    return run_all_substreams(streams, Q1, "cogra")


@pytest.mark.parametrize("approach", ["flink", "sase", "cogra"])
def test_e1_cont(benchmark, streams, cogra_total, approach):
    total = benchmark.pedantic(
        run_all_substreams,
        args=(streams, Q1, approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0
    assert total == cogra_total
