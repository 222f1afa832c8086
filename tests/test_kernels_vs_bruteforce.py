"""Randomized cross-validation: every Cogra aggregator and every baseline
must return exactly the aggregates of the declarative brute-force oracle
(Definitions 2-4) on every workload within its Table-9 envelope.

This is the core correctness argument of the reproduction: the brute-force
oracle materializes trends straight from the semantics definitions and
aggregates them one by one; the kernels share none of that code path.
"""
import random

import pytest

from repro.baselines.bruteforce import aggregate_bruteforce
from repro.baselines.registry import APPROACHES, run_approach, supports
from repro.core.aggregates import Avg, Count, CountType, Max, Min, Sum
from repro.core.events import Event
from repro.core.granularity import Semantics
from repro.core.predicates import AdjacentPredicate
from repro.core.query import Query

PATTERNS = [
    "A+",
    "SEQ(A+, B)",
    "SEQ(A+, B+)",
    "(SEQ(A, B))+",
    "(SEQ(A+, B))+",
    "SEQ(A, SEQ(B+, C))",
]
PRED_SETS = {
    "none": (),
    "self": (AdjacentPredicate("A", "v", "<", "A", "v"),),
    "cross": (AdjacentPredicate("B", "v", ">=", "A", "v"),),
    "both": (
        AdjacentPredicate("A", "v", "<", "B", "v"),
        AdjacentPredicate("B", "v", "!=", "A", "v"),
    ),
}
AGGS = (Count(), CountType("A"), Min("A", "v"), Max("B", "v"), Sum("B", "v"),
        Avg("A", "v"))


def mkstream(n: int, seed: int, types: str = "ABC") -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(i, i + 1, rng.choice(types), {"v": rng.randint(0, 9)})
        for i in range(n)
    ]


def mkstream_dyadic(n: int, seed: int, types: str = "ABC") -> list[Event]:
    """Float attributes in quarters: their float sums in the oracle are
    exact, so every approach must equal it with ``==``."""
    rng = random.Random(seed)
    return [
        Event(i, i + 1, rng.choice(types), {"v": rng.randint(0, 9) / 4})
        for i in range(n)
    ]


def mkstream_random_floats(n: int, seed: int, types: str = "ABC") -> list[Event]:
    """Non-dyadic float attributes: the oracle sums them exactly too, so
    every approach must equal it with ``==``."""
    rng = random.Random(seed)
    return [
        Event(i, i + 1, rng.choice(types), {"v": rng.random()})
        for i in range(n)
    ]


def mkstream_tied(n: int, seed: int) -> list[Event]:
    """``mkstream`` over A/B with two events per timestamp. Definition 7
    orders a trend by strictly increasing time, so no trend holds both."""
    return [e._replace(time=e.eid // 2 + 1) for e in mkstream(n, seed, "AB")]


def check_all_approaches(events, pattern, semantics, pred_key):
    cq = Query(
        pattern=pattern,
        semantics=semantics,
        aggregates=AGGS,
        adjacent_predicates=PRED_SETS[pred_key],
    ).compile()
    expected = aggregate_bruteforce(events, cq)
    processed = set()
    checked = 0
    for name in APPROACHES:
        if not supports(name, cq):
            continue
        res = run_approach(name, events, cq)
        assert res.aggregates == expected, f"{name} disagrees with brute force"
        processed.add(res.events_processed)
        checked += 1
    assert checked >= 2  # cogra + at least sase always run
    assert len(processed) == 1  # every approach counts the same events


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("pred_key", list(PRED_SETS))
@pytest.mark.parametrize("seed", range(4))
def test_all_approaches_match_bruteforce(pattern, semantics, pred_key, seed):
    check_all_approaches(mkstream(11, seed), pattern, semantics, pred_key)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("pred_key", list(PRED_SETS))
@pytest.mark.parametrize("seed", range(2))
def test_all_approaches_match_bruteforce_dyadic_floats(
    pattern, semantics, pred_key, seed
):
    check_all_approaches(mkstream_dyadic(11, seed), pattern, semantics, pred_key)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("pred_key", list(PRED_SETS))
@pytest.mark.parametrize("seed", range(2))
def test_all_approaches_match_bruteforce_random_floats(
    pattern, semantics, pred_key, seed
):
    check_all_approaches(
        mkstream_random_floats(11, seed), pattern, semantics, pred_key
    )


# Cogra and A-Seq lack stream transactions (Section 8): tied events read
# each other's state.
_TIES_UNSUPPORTED = pytest.mark.xfail(raises=AssertionError, strict=True,
                                      reason="ROADMAP item 1")


@pytest.mark.parametrize("approach, semantics", [
    pytest.param(name, sem, marks=_TIES_UNSUPPORTED if name in ("cogra", "aseq") else ())
    for name, info in APPROACHES.items() for sem in Semantics if sem in info.semantics
])
@pytest.mark.parametrize("pattern", ["A+", "SEQ(A+, B)", "SEQ(A+, B+)"])
@pytest.mark.parametrize("seed", range(10))
def test_tied_timestamps_match_bruteforce(approach, semantics, pattern, seed):
    events = mkstream_tied(10, seed)
    cq = Query(pattern=pattern, semantics=semantics, aggregates=AGGS).compile()
    assert run_approach(approach, events, cq).aggregates == aggregate_bruteforce(events, cq)


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("seed", range(6))
def test_longer_streams_next_cont_and_any(semantics, seed):
    """Longer streams (cheap for NEXT/CONT, capped for ANY)."""
    n = 12 if semantics is Semantics.ANY else 200
    events = mkstream(n, seed + 100)
    cq = Query(pattern="(SEQ(A+, B))+", semantics=semantics,
               aggregates=AGGS).compile()
    expected = aggregate_bruteforce(events, cq)
    got = run_approach("cogra", events, cq).aggregates
    assert got == expected


@pytest.mark.parametrize("pattern", PATTERNS)
def test_empty_and_irrelevant_only_streams(pattern):
    for sem in Semantics:
        cq = Query(pattern=pattern, semantics=sem, aggregates=AGGS).compile()
        for events in ([], [Event(0, 1, "Z", {"v": 1}), Event(1, 2, "Y", {"v": 2})]):
            got = run_approach("cogra", events, cq).aggregates
            assert got == aggregate_bruteforce(events, cq)
            assert got["count_star"] == 0
            assert got["min_A_v"] is None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "types", ["AB", "ABCD", "A"]  # no relevant C / extra noise / A-only
)
def test_type_mixes(seed, types):
    events = mkstream(10, seed + 50, types=types)
    for sem in Semantics:
        cq = Query(pattern="(SEQ(A+, B))+", semantics=sem, aggregates=AGGS).compile()
        assert run_approach("cogra", events, cq).aggregates == aggregate_bruteforce(
            events, cq
        )


def test_q2_pattern_against_bruteforce():
    """The nested-Kleene q2 pattern across all semantics and approaches."""
    rng = random.Random(3)
    types = ["Accept", "Call", "Cancel", "Finish", "InTransit"]
    events = [
        Event(i, i + 1, rng.choice(types), {"v": rng.randint(0, 5)})
        for i in range(12)
    ]
    for sem in Semantics:
        cq = Query(
            pattern="SEQ(Accept, (SEQ(Call, Cancel))+, Finish)",
            semantics=sem,
            aggregates=(Count(), CountType("Call"), Sum("Call", "v")),
        ).compile()
        expected = aggregate_bruteforce(events, cq)
        for name in APPROACHES:
            if supports(name, cq):
                assert run_approach(name, events, cq).aggregates == expected, name
