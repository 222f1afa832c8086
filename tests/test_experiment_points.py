"""The evaluation's points (tables E1–E6, paper Figures 5–10) as exact tests:
the workloads and queries of ``repro.harness.experiments``, split into the
query's groups. Every listed approach must finish every substream, with no
non-finite float, and return per-substream aggregates ``==`` to Cogra's."""
import math
from functools import lru_cache

import pytest

from repro.baselines.registry import run_approach
from repro.core.events import Substream
from repro.harness.experiments import Q1, Q2_ANY, Q2_NEXT, selectivity_query, stock_query
from repro.synth_data import activity_stream_pdf, stock_stream_pdf, transport_stream_pdf

# point: (workload, query, the approaches compared with Cogra)
POINTS = {
    # q1's local predicate is applied before the kernels, as Catalyst does.
    "E1": (lambda: activity_stream_pdf(n=20_000, seed=10).query("activity < 9"),
           Q1, ["flink", "sase"]),
    "E2": (lambda: transport_stream_pdf(n=100_000, seed=12), Q2_NEXT, ["sase"]),
    "E3": (lambda: stock_stream_pdf(n=300, seed=11), stock_query(),
           ["flink", "sase", "greta", "aseq"]),
    "E4": (lambda: stock_stream_pdf(n=10_000, seed=11), stock_query(), ["greta", "aseq"]),
    **{
        f"E5-{s}": (lambda: stock_stream_pdf(n=1_000, seed=11), selectivity_query(s), aps)
        for s, aps in [(0.5, ["sase", "greta"]), (0.1, ["flink"]), (0.9, ["greta"])]
    },
    **{
        f"E6-{g}": (lambda g=g: transport_stream_pdf(n=900, n_passengers=g, seed=12),
                    Q2_ANY, aps)
        for g, aps in [(30, ["sase", "greta", "aseq"]), (5, ["greta", "aseq"])]
    },
    "E4-100k": (lambda: stock_stream_pdf(n=100_000, seed=11), stock_query(), []),
}


# Tests run point by point, so one cached point is enough.
@lru_cache(maxsize=1)
def point_streams(point: str) -> list[Substream]:
    make_pdf, query, _ = POINTS[point]
    cols = query.compile().attr_cols
    return [Substream.from_pandas(g, attr_cols=cols)
            for _, g in make_pdf().groupby(list(query.partition_by))]


def run_each(point: str, approach: str) -> list[dict]:
    """Each substream's aggregates; no run may DNF or give a non-finite float."""
    cq = POINTS[point][1].compile()
    results = [run_approach(approach, sub, cq) for sub in point_streams(point)]
    assert not any(r.dnf for r in results), f"{approach} exceeded its budget"
    aggs = [r.aggregates for r in results]
    assert all(not isinstance(v, float) or math.isfinite(v)
               for a in aggs for v in a.values())
    return aggs


@lru_cache(maxsize=1)
def cogra_results(point: str) -> list[dict]:
    return run_each(point, "cogra")


@pytest.mark.parametrize(
    "point, approach", [(p, a) for p, (_, _, aps) in POINTS.items() for a in aps]
)
def test_point_matches_cogra(point, approach):
    expected = cogra_results(point)
    assert any(r["count_star"] for r in expected)
    assert run_each(point, approach) == expected


def test_e4_cogra_high_rate():
    """Cogra alone at 10x E4's size. Counts reach about 2^2700, far beyond
    double range, so AVG must stay exact: between the substream's U prices."""
    results = cogra_results("E4-100k")
    assert max(r["count_star"] for r in results).bit_length() > 2048
    for sub, r in zip(point_streams("E4-100k"), results):
        prices = sub.cols["price"][sub.etype == "U"]
        assert prices.min() <= r["avg_U_price"] <= prices.max()
