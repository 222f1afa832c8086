"""The evaluation's points (tables E1–E6, paper Figures 5–10) as exact tests:
each point's workload and query come from ``EXPERIMENTS``, split into the
query's groups. Every listed approach must finish every substream, with no
non-finite float, and return per-substream aggregates ``==`` to Cogra's.
The table itself is checked without Spark."""
import math
from functools import lru_cache

import pytest

from repro.baselines.registry import APPROACHES, run_approach, supports
from repro.core.events import Substream
from repro.harness.experiments import EXPERIMENTS

# point: (experiment, x, the approaches compared with Cogra[, a filter the
# workload passes first])
POINTS = {
    # q1's local predicate runs before the kernels, as in Catalyst.
    "E1": ("E1-cont", 20_000, ["flink", "sase"], "activity < 9"),
    "E2": ("E2-next", 100_000, ["sase"]),
    "E3": ("E3-any-all", 300, ["flink", "sase", "greta", "aseq"]),
    "E4": ("E4-any-online", 10_000, ["greta", "aseq"]),
    **{
        f"E5-{s}": ("E5-selectivity", s, aps)
        for s, aps in [(0.5, ["sase", "greta"]), (0.1, ["flink"]), (0.9, ["greta"])]
    },
    **{
        f"E6-{g}": ("E6-groups", g, aps)
        for g, aps in [(30, ["sase", "greta", "aseq"]), (5, ["greta", "aseq"])]
    },
    "E4-100k": ("E4-any-online", 100_000, []),
}


def point_query(point: str):
    name, x, *_ = POINTS[point]
    return EXPERIMENTS[name].make_query(x)


# Tests run point by point, so one cached point is enough.
@lru_cache(maxsize=1)
def point_streams(point: str) -> list[Substream]:
    name, x, _, *where = POINTS[point]
    pdf = EXPERIMENTS[name].make_pdf(x)
    if where:
        pdf = pdf.query(*where)
    query = point_query(point)
    cols = query.compile().attr_cols
    return [Substream.from_pandas(g, attr_cols=cols)
            for _, g in pdf.groupby(list(query.partition_by))]


def run_each(point: str, approach: str) -> list[dict]:
    """Each substream's aggregates; no run may DNF or give a non-finite float."""
    cq = point_query(point).compile()
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
    "point, approach", [(p, a) for p, (_, _, aps, *_) in POINTS.items() for a in aps]
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


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_sweep_definition(name):
    """Every x is distinct, its query compiles, and at least two of the
    sweep's approaches support it, so ``run_sweep``'s checksum
    cross-check compares something."""
    sweep = EXPERIMENTS[name]
    assert set(sweep.approaches) <= set(APPROACHES)
    assert len(set(sweep.xs)) == len(sweep.xs)
    for x in sweep.xs:
        cq = sweep.make_query(x).compile()
        assert sum(supports(a, cq) for a in sweep.approaches) >= 2, x
