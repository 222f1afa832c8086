"""Benchmark E3 (paper Figure 7): skip-till-any-match, all five
approaches on a low-rate stock stream (the largest point where the
two-step approaches still terminate)."""
import pytest

from benchmarks._common import run_all_substreams, substreams
from repro.harness.experiments import stock_query
from repro.synth_data import stock_stream_pdf

N = 300
QUERY = stock_query()


@pytest.fixture(scope="module")
def streams():
    return substreams(stock_stream_pdf(n=N, seed=11), ["sector", "company"],
                      ("price",))


@pytest.mark.parametrize("approach", ["flink", "sase", "greta", "aseq", "cogra"])
def test_e3_any_all(benchmark, streams, approach):
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, QUERY, approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0
