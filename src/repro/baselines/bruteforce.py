"""Declarative brute-force oracle: materialize every event trend from the
semantics definitions (paper Section 2.2), aggregate trend-by-trend.

This is the ground truth all aggregators and baselines are tested against:

* **ANY** — full enumeration per Definition 2: a trend is a subsequence
  whose type string is accepted by the pattern's FSA digraph (a local
  language: starts at start(P), ends at end(P), every bigram is an allowed
  transition) and whose consecutive pairs satisfy the adjacent predicates.
  Exponential; guarded by a trend cap for tests.
* **NEXT / CONT** — an independent *trend-materializing* implementation of
  the operational semantics (DESIGN.md Section 2): all partial trends form
  a suffix-nested family ending at the last matched event; a matched event
  extends all of them (originals dropped), starts a new trend if of start
  type, and emits finished trends when of end type; unmatched events are
  skipped under NEXT and invalidate all partials under CONT. This shares
  no state-compression with Algorithm 3, so it is a meaningful cross-check
  of counts and of MIN/MAX/SUM/AVG, which it computes per materialized
  trend.
"""
from __future__ import annotations

from fractions import Fraction

from repro.core.aggregates import AggSpec, Avg, Count, CountType, Max, Min, Sum
from repro.core.aggregates import binary_fraction, check_domain, ordered_value
from repro.core.events import Event
from repro.core.granularity import Semantics
from repro.core.predicates import adjacency_holds
from repro.core.query import CompiledQuery


class TrendExplosion(RuntimeError):
    """Raised when brute-force enumeration exceeds the configured cap."""


def is_adjacent(cq: CompiledQuery, p: Event, e: Event) -> bool:
    """Definition 7: ``e`` may directly follow ``p`` in a trend — the
    pattern allows the type edge, time strictly increases, and every
    predicate on adjacent events of these types holds."""
    return (
        p.etype in cq.analysis.pred_types[e.etype]
        and p.time < e.time
        and adjacency_holds(cq.adjacent_predicates, p.etype, p.attrs, e.etype, e.attrs)
    )


def enumerate_trends_any(
    events: list[Event], cq: CompiledQuery, *, max_trends: int = 2_000_000
) -> list[tuple[Event, ...]]:
    """All finished trends under skip-till-any-match (Definition 2)."""
    an = cq.analysis
    relevant = [e for e in events if e.etype in an.pred_types]
    out: list[tuple[Event, ...]] = []

    def extend(prefix: list[Event]) -> None:
        last = prefix[-1]
        if last.etype == an.end:
            out.append(tuple(prefix))
            if len(out) > max_trends:
                raise TrendExplosion(f"more than {max_trends} trends")
        for e in relevant:
            if is_adjacent(cq, last, e):
                prefix.append(e)
                extend(prefix)
                prefix.pop()

    for e in relevant:
        if e.etype == an.start:
            extend([e])
    return out


def enumerate_trends_next_cont(
    events: list[Event], cq: CompiledQuery
) -> list[tuple[Event, ...]]:
    """All finished trends under NEXT or CONT (operational semantics)."""
    an = cq.analysis
    cont = cq.semantics is Semantics.CONT
    partials: list[list[Event]] = []
    last: Event | None = None
    out: list[tuple[Event, ...]] = []
    for e in events:
        if e.etype not in an.pred_types:
            if cont:
                partials, last = [], None
            continue
        adjacent = last is not None and is_adjacent(cq, last, e)
        started = e.etype == an.start
        if started or adjacent:
            new_partials = [p + [e] for p in partials] if adjacent else []
            if started:
                new_partials.append([e])
            if e.etype == an.end:
                out.extend(tuple(p) for p in new_partials)
            partials, last = new_partials, e
        elif cont:
            partials, last = [], None
    return out


def enumerate_trends(
    events: list[Event], cq: CompiledQuery, *, max_trends: int = 2_000_000
) -> list[tuple[Event, ...]]:
    if cq.semantics is Semantics.ANY:
        return enumerate_trends_any(events, cq, max_trends=max_trends)
    return enumerate_trends_next_cont(events, cq)


class TrendAccumulator:
    """Fold materialized trends into Definition-6 aggregates.

    The oracle's second step, shared with the two-step baselines: SASE and
    the Flink-like baseline first *construct* trends and only then
    aggregate them (paper Table 1). One trend is consumed at a time, so a
    caller need not hold every trend at once unless its memory model says
    so (Flink stores all constructed sequences; SASE keeps only the
    current one, Section 9.3). It computes each aggregate per trend, not
    through the Table-8 algebra, so it stays independent of Cogra.

    Arithmetic is exact like Cogra's, over the same value domain: SUM and
    AVG add each attribute as an integer numerator over a common power of
    two, and MIN/MAX reject NaN.
    """

    def __init__(self, specs: tuple[AggSpec, ...]) -> None:
        self.specs = specs
        self.count = 0
        self.vals: dict[str, object] = {}
        for s in specs:
            if isinstance(s, CountType):
                self.vals[s.name] = 0
            elif isinstance(s, (Sum, Avg)):
                self.vals[s.name] = [0, 0, 0]  # sum = num / 2**k; values added
            else:
                self.vals[s.name] = None

    def add_trend(self, trend: tuple[Event, ...]) -> None:
        self.count += 1
        for s in self.specs:
            if isinstance(s, Count):
                continue
            if isinstance(s, CountType):
                self.vals[s.name] += sum(1 for e in trend if e.etype == s.etype)
                continue
            ev = [e.attrs[s.attr] for e in trend if e.etype == s.etype]
            if isinstance(s, (Sum, Avg)):
                acc = self.vals[s.name]
                for x in ev:
                    m, k = binary_fraction(s, x)
                    if k > acc[1]:
                        acc[0] <<= k - acc[1]
                        acc[1] = k
                    acc[0] += m << (acc[1] - k)
                acc[2] += len(ev)
            elif isinstance(s, (Min, Max)):
                if ev:
                    pick = min if isinstance(s, Min) else max
                    m = pick(ordered_value(s, x) for x in ev)
                    cur = self.vals[s.name]
                    self.vals[s.name] = m if cur is None else pick(cur, m)
            else:
                raise TypeError(s)

    def result(self) -> dict:
        out: dict = {}
        for s in self.specs:
            if isinstance(s, Count):
                out[s.name] = self.count
            elif isinstance(s, (Sum, Avg)):
                num, k, c = self.vals[s.name]
                total = Fraction(num, 1 << k)
                if isinstance(s, Avg):
                    out[s.name] = None if c == 0 else float(total / c)
                else:
                    out[s.name] = total.numerator if total.denominator == 1 else total
            else:
                out[s.name] = self.vals[s.name]
        return out


def aggregate_bruteforce(
    events: list[Event], cq: CompiledQuery, *, max_trends: int = 2_000_000
) -> dict:
    """Per-group aggregates computed trend-by-trend over all finished
    trends; output keys match the incremental kernels'. Every relevant
    event's aggregated attributes must be in their functions' domains."""
    for e in events:
        if e.etype in cq.analysis.pred_types:
            check_domain(cq.specs, e.etype, e.attrs)
    acc = TrendAccumulator(cq.specs)
    for trend in enumerate_trends(events, cq, max_trends=max_trends):
        acc.add_trend(trend)
    return acc.result()
