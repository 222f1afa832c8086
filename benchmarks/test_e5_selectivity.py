"""Benchmark E5 (paper Figure 9): predicate selectivity on adjacent
events — SASE vs GRETA vs Cogra (mixed-grained) at 50% selectivity, plus
Flink at the low-selectivity point where it still terminates."""
import pytest

from benchmarks._common import run_all_substreams, substreams
from repro.harness.experiments import selectivity_query
from repro.synth_data import stock_stream_pdf

N = 1_000


@pytest.fixture(scope="module")
def streams():
    return substreams(stock_stream_pdf(n=N, seed=11), ["sector", "company"],
                      ("price",))


@pytest.mark.parametrize("approach", ["sase", "greta", "cogra"])
def test_e5_selectivity_50(benchmark, streams, approach):
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, selectivity_query(0.5), approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0


def test_e5_selectivity_10_flink(benchmark, streams):
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, selectivity_query(0.1), "flink"),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0


@pytest.mark.parametrize("approach", ["greta", "cogra"])
def test_e5_selectivity_90(benchmark, streams, approach):
    """At 90% selectivity only the online approaches stay cheap; the paper
    reports Cogra 2x over GRETA here."""
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, selectivity_query(0.9), approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0
