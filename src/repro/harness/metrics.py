"""Metrics for the evaluation (paper Section 9.1).

* **Latency** — wall-clock of the aggregation computation per window (ms),
  measured by the harness around each kernel invocation.
* **Throughput** — events processed per second over a sweep.
* **Peak memory** — peak bytes of *algorithm-owned state*, via explicit
  data-structure accounting (:class:`StateMeter`). The paper's memory
  metric counts "aggregates … the GRETA graph … prefix counters … events
  in stacks, pointers between them, and trends" — i.e. algorithm state,
  not process RSS. A JVM+Python RSS would be dominated by constant runtime
  overhead and hide the up-to-8-orders-of-magnitude state differences, so
  state accounting is the faithful substitution (documented in DESIGN.md).

Nominal sizes mirror a compact Java object layout: 8 B per numeric
aggregate/counter/pointer, 48 B per stored event.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

BYTES_PER_AGG = 8
BYTES_PER_POINTER = 8
BYTES_PER_EVENT = 48


class StateMeter:
    """Tracks current and peak bytes of algorithm-owned state.

    Kernels call :meth:`add` when they allocate state (an aggregate slot, a
    stored event, a pointer, a materialized trend entry) and :meth:`remove`
    when they release it; ``peak`` is what the experiments report.
    """

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def add(self, nbytes: int) -> None:
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def remove(self, nbytes: int) -> None:
        self.current -= nbytes


class Budget:
    """Guard reproducing the paper's "fails to terminate" outcomes.

    Two-step baselines blow up exponentially under ANY; instead of hanging
    the suite, a kernel raises :class:`BudgetExceeded` once it has
    constructed ``max_units`` trend-construction units or run past
    ``max_seconds``. The harness reports such runs as DNF — exactly how
    the paper reports Flink/SASE beyond 40k events (Section 9.2).
    """

    def __init__(self, max_units: int = 5_000_000, max_seconds: float = 30.0):
        self.max_units = max_units
        self.max_seconds = max_seconds
        self.units = 0
        self._t0 = time.perf_counter()
        self._check_every = 4096
        self._since_check = 0

    def charge(self, units: int = 1) -> None:
        self.units += units
        if self.units > self.max_units:
            raise BudgetExceeded(f"exceeded {self.max_units} work units")
        self._since_check += units
        if self._since_check >= self._check_every:
            self._since_check = 0
            if time.perf_counter() - self._t0 > self.max_seconds:
                raise BudgetExceeded(f"exceeded {self.max_seconds}s")


class BudgetExceeded(RuntimeError):
    """Raised by a kernel that exceeded its construction budget (DNF)."""


@dataclass
class KernelResult:
    """Output of one kernel run over one substream."""

    aggregates: dict = field(default_factory=dict)
    events_processed: int = 0
    peak_state_bytes: int = 0
    # Timed per window by registry.run_approach_windows and the streaming
    # runner's fold; on the shared window fold, an even share of the
    # group's fold time.
    kernel_seconds: float = 0.0
    dnf: bool = False  # did-not-finish (budget exceeded)
    trends_constructed: int = 0  # two-step approaches only
    # The run's state accounting; the registry copies its peak.
    meter: StateMeter = field(default_factory=StateMeter, repr=False, compare=False)
