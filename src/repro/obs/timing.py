"""Phase timers: where does a run's wall clock go?

:class:`PhaseTimers` accumulates wall-clock seconds per named *phase*.
The engine instruments its four round phases (:data:`PHASE_STEP`,
:data:`PHASE_TRANSMIT`, :data:`PHASE_CRASH`, :data:`PHASE_DELIVER`).

The no-op path is load-bearing: timers default to *disabled*, hot loops
gate every ``perf_counter`` call on the single :attr:`PhaseTimers.enabled`
boolean, and the disabled methods return immediately — the tracked
round-loop benchmark (``BENCH_sim.json``) asserts the disabled path stays
within 5% of the uninstrumented engine (``run_bench.py
--check-obs-overhead``).

Totals surface as ``Metrics.phase_seconds`` (and therefore
``Metrics.summary()`` / ``RunResult.phase_seconds``), merge across trials
via :meth:`repro.sim.metrics.Metrics.merge`, and render in ``repro
report``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator

#: Engine round phases (see ``Network._execute_round``).
PHASE_STEP = "step"
PHASE_TRANSMIT = "transmit"
PHASE_CRASH = "crash"
PHASE_DELIVER = "deliver"

#: The engine's four round phases, in execution order.
ENGINE_PHASES = (PHASE_STEP, PHASE_TRANSMIT, PHASE_CRASH, PHASE_DELIVER)


class PhaseTimers:
    """Per-phase wall-clock accumulator with a cheap disabled mode.

    Hot loops are expected to read :attr:`enabled` once and skip their
    ``perf_counter`` bookkeeping entirely when it is false; calling
    :meth:`add` / :meth:`timed` on a disabled instance is also a no-op,
    so library code never needs ``if timers is not None`` guards.
    """

    __slots__ = ("enabled", "totals", "counts")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: phase -> accumulated seconds.
        self.totals: Dict[str, float] = {}
        #: phase -> number of recorded intervals.
        self.counts: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` against ``phase`` (no-op when disabled)."""
        if not self.enabled:
            return
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def timed(self, phase: str) -> Iterator[None]:
        """Context manager timing its body into ``phase``.

        Convenient for coarse phases (pool dispatch, reassembly); the
        engine's per-round phases use explicit ``perf_counter`` deltas
        instead to keep the disabled path branch-only.
        """
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(phase, time.perf_counter() - started)

    def as_dict(self, precision: int = 9) -> Dict[str, float]:
        """Totals as a sorted ``{phase: seconds}`` dict (JSON-friendly)."""
        return {
            phase: round(total, precision)
            for phase, total in sorted(self.totals.items())
        }

    def clear(self) -> None:
        """Forget all accumulated intervals (keeps the enabled flag)."""
        self.totals.clear()
        self.counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "enabled" if self.enabled else "disabled"
        return f"PhaseTimers({state}, {self.as_dict(precision=6)})"


#: Shared disabled instance used as the default by the engine and pool;
#: it never accumulates state, so sharing is safe.
NULL_TIMERS = PhaseTimers(enabled=False)
