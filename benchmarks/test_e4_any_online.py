"""Benchmark E4 (paper Figure 8): skip-till-any-match, online approaches
on a high-rate stock stream — GRETA vs A-Seq vs Cogra."""
import pytest

from benchmarks._common import run_all_substreams, run_each_substream, substreams
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
    linear in n, memory constant. Counts reach about 2^5000 here, so AVG
    must stay exact: finite and between the substream's U prices."""
    streams = substreams(
        stock_stream_pdf(n=100_000, seed=11), ["sector", "company"], ("price",)
    )
    results = benchmark.pedantic(
        run_each_substream, args=(streams, QUERY, "cogra"),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    total = sum(r["count_star"] for r in results)
    assert total > 0
    for ev, r in zip(streams, results):
        prices = [e.attrs["price"] for e in ev if e.etype == "U"]
        assert min(prices) <= r["avg_U_price"] <= max(prices)
