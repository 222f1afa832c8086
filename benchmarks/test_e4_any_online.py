"""Benchmark E4 (paper Figure 8): skip-till-any-match, online approaches
on a high-rate stock stream — GRETA vs A-Seq vs Cogra."""
import pytest

from benchmarks._common import run_all_substreams, substreams
from repro.harness.experiments import stock_query
from repro.synth_data import stock_stream_pdf

N = 10_000
QUERY = stock_query()


@pytest.fixture(scope="module")
def streams():
    return substreams(stock_stream_pdf(n=N, seed=11), ["sector", "company"],
                      ("price",))


@pytest.mark.parametrize("approach", ["greta", "aseq", "cogra"])
def test_e4_any_online(benchmark, streams, approach):
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, QUERY, approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0


def test_e4_cogra_high_rate(benchmark):
    """Cogra alone at 10x the shared point — the paper's headline: latency
    linear in n, memory constant."""
    streams = substreams(
        stock_stream_pdf(n=100_000, seed=11), ["sector", "company"], ("price",)
    )
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, QUERY, "cogra"),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0
