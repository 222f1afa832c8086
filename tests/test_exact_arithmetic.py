"""Exact Table-8 arithmetic: closed forms beyond double range, exact SUM
and correctly rounded AVG, non-finite attributes rejected (NaN also by
MIN/MAX), and the single rounding step in the Spark result rows."""
import math
import random
from fractions import Fraction

import numpy as np
import pandas as pd
import pytest

from repro.baselines.bruteforce import aggregate_bruteforce
from repro.baselines.registry import APPROACHES, run_approach, supports
from repro.core.aggregates import Avg, Count, CountType, Max, Min, Sum
from repro.core.events import Event
from repro.core.executor import aggregate_substream
from repro.core.granularity import Semantics
from repro.core.query import Query
from repro.core.spark_runner import rounded, run_query

N = 5_000
A_PLUS_ANY = Query(
    pattern="A+",
    semantics=Semantics.ANY,
    aggregates=(Count(), CountType("A"), Sum("A", "v"), Avg("A", "v"),
                Min("A", "v"), Max("A", "v")),
    partition_by=("grp",),
)


def a_stream(values) -> list[Event]:
    return [Event(i, i + 1, "A", {"v": v}) for i, v in enumerate(values)]


def unreached(bad) -> list[Event]:
    """``bad`` on an A that no B precedes: no NEXT or CONT trend of
    ``SEQ(B, A)`` reaches it, yet the input must still be rejected."""
    return [Event(0, 1, "A", {"v": bad}), Event(1, 2, "B", {}),
            Event(2, 3, "A", {"v": 1.0})]


def test_any_closed_forms_beyond_double_range():
    """``A+`` under ANY: every non-empty subset of the n events is a trend,
    so COUNT = 2^n - 1 and each event lies in 2^(n-1) of them."""
    agg = aggregate_substream(a_stream([1.5] * N), A_PLUS_ANY.compile()).aggregates
    assert agg["count_star"] == 2**N - 1
    assert agg["count_A"] == N * 2 ** (N - 1)
    assert agg["sum_A_v"] == Fraction(3, 2) * N * 2 ** (N - 1)
    assert type(agg["count_star"]) is int and type(agg["sum_A_v"]) is int
    assert agg["avg_A_v"] == agg["min_A_v"] == agg["max_A_v"] == 1.5
    assert type(agg["avg_A_v"]) is float


def test_run_query_nulls_and_flags_what_a_double_cannot_hold(spark):
    pdf = pd.DataFrame(
        {"time": np.arange(1, N + 1), "grp": np.zeros(N, dtype=np.int64),
         "etype": ["A"] * N, "v": np.full(N, 1.5)}
    )
    rows = run_query(spark.createDataFrame(pdf), A_PLUS_ANY).collect()
    assert len(rows) == 1
    r = rows[0]
    assert r.overflow is True
    assert r.count_star is None and r.count_A is None and r.sum_A_v is None
    assert r.avg_A_v == r.min_A_v == r.max_A_v == 1.5


def test_float_sum_is_exact_and_avg_correctly_rounded():
    values = [random.Random(7).uniform(-1e3, 1e3) for _ in range(40)]
    exact_sum = sum(map(Fraction, values))
    agg = aggregate_substream(a_stream(values), A_PLUS_ANY.compile()).aggregates
    assert agg["sum_A_v"] == exact_sum * 2 ** 39
    assert isinstance(agg["sum_A_v"], Fraction)
    assert agg["avg_A_v"] == float(exact_sum / 40)
    # The same trends in the reverse arrival order give the same values.
    rev = aggregate_substream(a_stream(values[::-1]), A_PLUS_ANY.compile())
    assert rev.aggregates == agg


@pytest.mark.parametrize("spec", [Sum("A", "v"), Avg("A", "v")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sum_and_avg_reject_non_finite_attributes(spec, bad):
    with pytest.raises(ValueError, match=f"{spec.name}: .*{bad!r}"):
        spec.on_event(spec.init_val(), "A", {"v": bad}, 1)
    for pattern, semantics, events in [
        ("A+", Semantics.NEXT, a_stream([1.0, bad])),
        ("SEQ(B, A)", Semantics.NEXT, unreached(bad)),
        ("SEQ(B, A)", Semantics.CONT, unreached(bad)),
    ]:
        cq = Query(pattern=pattern, semantics=semantics, aggregates=(spec,)).compile()
        with pytest.raises(ValueError, match=spec.name):
            aggregate_substream(events, cq)


@pytest.mark.parametrize(
    "values", [[1.0, math.nan, 2.0], [math.nan, 1.0, 2.0], [2.0, 1.0, math.nan]]
)
def test_min_and_max_reject_nan_in_every_approach(values):
    """NaN has no order, so an extremum over it would depend on the arrival
    order; every approach and the oracle raise instead."""
    cq = Query(pattern="A+", semantics=Semantics.ANY,
               aggregates=(Min("A", "v"), Max("A", "v"))).compile()
    events = a_stream(values)
    bad = r"(min|max)_A_v: nan is not an ordered value"
    with pytest.raises(ValueError, match=bad):
        aggregate_bruteforce(events, cq)
    for name in APPROACHES:
        assert supports(name, cq)
        with pytest.raises(ValueError, match=bad):
            run_approach(name, events, cq)
    # Rejected even where no trend reaches the event (e.count = 0).
    with pytest.raises(ValueError, match=bad):
        Min("A", "v").on_event(None, "A", {"v": math.nan}, 0)
    for semantics in (Semantics.NEXT, Semantics.CONT):
        cq = Query(pattern="SEQ(B, A)", semantics=semantics,
                   aggregates=(Min("A", "v"), Max("A", "v"))).compile()
        with pytest.raises(ValueError, match=bad):
            aggregate_substream(unreached(math.nan), cq)


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("spec", [Min("B", "v"), Sum("B", "v"), Avg("B", "v")])
def test_domain_checked_where_no_trend_reaches(spec, bad, semantics):
    """An out-of-domain value in an event no trend reaches is rejected by
    the oracle and by every approach alike; MIN keeps ±inf as a value."""
    cq = Query(pattern="SEQ(A+, B)", semantics=semantics,
               aggregates=(Count(), spec)).compile()
    events = [Event(0, 1, "B", {"v": bad}), Event(1, 2, "A", {"v": 1.0}),
              Event(2, 3, "B", {"v": 2.0})]
    names = [name for name in APPROACHES if supports(name, cq)]
    if isinstance(spec, Min) and not math.isnan(bad):
        expected = aggregate_bruteforce(events, cq)
        assert expected == {"count_star": 1, spec.name: 2.0}
        for name in names:
            assert run_approach(name, events, cq).aggregates == expected, name
        return
    with pytest.raises(ValueError, match=spec.name):
        aggregate_bruteforce(events, cq)
    for name in names:
        with pytest.raises(ValueError, match=spec.name):
            run_approach(name, events, cq)


def test_rounded_rounds_once_and_flags_overflow():
    """The result frame's one rounding step: a value beyond double range
    becomes null and sets the row's ``overflow`` flag."""
    counts, over = rounded([2**1024, 2**1023])
    assert np.isnan(counts[0]) and counts[1] == 2.0**1023
    assert over.tolist() == [True, False]
    sums, over = rounded([Fraction(1, 3), None])
    assert sums[0] == 1 / 3 and np.isnan(sums[1])
    assert over.tolist() == [False, False]