"""Benchmark E6 (paper Figure 10): number of event trend groups — all
approaches at 30 groups (where the two-step approaches terminate) and the
online approaches at 5 groups (where they don't)."""
import pytest

from benchmarks._common import run_all_substreams, substreams
from repro.harness.experiments import Q2_ANY
from repro.synth_data import transport_stream_pdf

N = 900


def streams_for(groups: int):
    return substreams(
        transport_stream_pdf(n=N, n_passengers=groups, seed=12), ["passenger"], ()
    )


@pytest.mark.parametrize("approach", ["sase", "greta", "aseq", "cogra"])
def test_e6_groups_30(benchmark, approach):
    streams = streams_for(30)
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, Q2_ANY, approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0


@pytest.mark.parametrize("approach", ["greta", "aseq", "cogra"])
def test_e6_groups_5_online(benchmark, approach):
    streams = streams_for(5)
    total = benchmark.pedantic(
        run_all_substreams, args=(streams, Q2_ANY, approach),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert total > 0
