"""Benchmark E2 (paper Figure 6): skip-till-next-match, q2-style query
over the public-transportation stream — SASE vs Cogra."""
import pytest

from benchmarks._common import run_all_substreams, substreams
from repro.harness.experiments import Q2_NEXT
from repro.synth_data import transport_stream_pdf

N = 100_000


@pytest.fixture(scope="module")
def streams():
    return substreams(transport_stream_pdf(n=N, seed=12), ["passenger"], ())


@pytest.mark.parametrize("approach", ["sase", "cogra"])
def test_e2_next(benchmark, streams, approach):
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, Q2_NEXT, approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0
