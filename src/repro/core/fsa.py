"""Pattern Analyzer: FSA-based representation of a pattern (paper Section 3.1).

States are the event types of the pattern; transitions connect each type to
its *predecessor types* (``predTypes``). Because every type occurs at most
once, the pattern language is a *local language* and its Glushkov automaton
is fully described by

* ``first(P)``  — types that can start a trend,
* ``last(P)``   — types that can end a trend,
* ``pairs(P)``  — allowed adjacent (predecessor, successor) type pairs.

The paper's query class (no star/optional/disjunction) guarantees exactly
one start type and one end type (Section 3.1); ``analyze`` asserts this.
For the running example ``P = (SEQ(A+, B))+`` (Figure 4)::

    start(P) = A, end(P) = B,
    predTypes(A) = {A, B}, predTypes(B) = {A}.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.pattern import Pattern, Plus, Seq, TypeP


def _glushkov(p: Pattern) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """Return (first, last, pairs) of a pattern. No node is nullable in
    the paper's query class, so the standard Glushkov recursion simplifies."""
    if isinstance(p, TypeP):
        return {p.name}, {p.name}, set()
    if isinstance(p, Plus):
        f, l, pairs = _glushkov(p.sub)
        return f, l, pairs | {(a, b) for a in l for b in f}
    if isinstance(p, Seq):
        f0, l0, pairs = _glushkov(p.subs[0])
        first, last = f0, l0
        for sub in p.subs[1:]:
            f, l, pr = _glushkov(sub)
            pairs |= pr | {(a, b) for a in last for b in f}
            last = l
        return first, last, pairs
    raise TypeError(f"unknown pattern node {type(p).__name__}")


@dataclass(frozen=True)
class PatternAnalysis:
    """Static analysis result of a pattern: the FSA digraph over types."""

    pattern: Pattern
    start: str
    end: str
    mid: frozenset[str]
    pred_types: dict[str, frozenset[str]]  # type -> predecessor types
    succ_types: dict[str, tuple[str, ...]]  # type -> successor types

    @property
    def types(self) -> list[str]:
        return self.pattern.types()

    def is_type(self, etype: str) -> bool:
        """True iff ``etype`` appears in the pattern (relevant type)."""
        return etype in self.pred_types

    def accepts(self, type_seq: list[str]) -> bool:
        """True iff a sequence of event types is matched by the pattern.

        For a local language this is: starts with ``start``, ends with
        ``end``, and every adjacent bigram is an allowed transition.
        """
        if not type_seq:
            return False
        if type_seq[0] != self.start or type_seq[-1] != self.end:
            return False
        return all(
            a in self.pred_types.get(b, frozenset())
            for a, b in zip(type_seq, type_seq[1:])
        )


def analyze(p: Pattern) -> PatternAnalysis:
    """Translate a pattern into its FSA digraph (start/end/mid/predTypes)."""
    first, last, pairs = _glushkov(p)
    if len(first) != 1 or len(last) != 1:
        raise ValueError(
            f"pattern {p} has no unique start/end type "
            f"(first={sorted(first)}, last={sorted(last)})"
        )
    start, end = next(iter(first)), next(iter(last))
    pred: dict[str, set[str]] = {t: set() for t in p.types()}
    for a, b in pairs:
        pred[b].add(a)
    mid = frozenset(t for t in p.types() if t not in (start, end))
    return PatternAnalysis(
        pattern=p,
        start=start,
        end=end,
        mid=mid,
        pred_types={t: frozenset(s) for t, s in pred.items()},
        succ_types={
            t: tuple(u for u, ps in pred.items() if t in ps) for t in pred
        },
    )
