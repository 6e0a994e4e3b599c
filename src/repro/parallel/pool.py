"""The campaign scheduler: one path for every Monte-Carlo campaign.

Trials are described by picklable :class:`~repro.parallel.spec.TrialSpec`
objects and reassembled **by trial index** — so the output of a parallel
campaign is exactly the output of the serial one, independent of worker
timing.

Determinism contract
--------------------

* Seeds are derived *before* dispatch (the caller enumerates the same
  ``seed_sequence`` stream whatever ``jobs`` is).
* Workers share nothing; each trial is a pure function of its spec.
* Results are placed at ``spec.index``; chunking and completion order
  are invisible in the output.

Every campaign runs through :func:`run_trials_resilient`, in three steps:

1. **triage** in the parent — resume and quarantine answer the trials
   that must not run;
2. **dispatch** — in-process when ``jobs`` is 1 (or the whole campaign
   is one trial), otherwise in contiguous chunks through a
   :class:`PoolSupervisor` whose workers run each trial under the
   executor's timeout and retry policy.  The choice never depends on
   how many trials triage left, so a resumed trial that kills its
   process is still caught by the supervisor;
3. **settle** in the parent — quarantine feedback, the journal (one
   writer, no cross-process file races), then ``on_outcome``.

:func:`run_trials` is the same path with no timeout, retries or journal,
stopping at the first failed trial.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import CampaignInterrupted, ConfigurationError, TrialFailed
from ..exec import FAILED, QUARANTINED, ResilientExecutor, RetryPolicy, TrialOutcome
from ..obs.progress import ProgressReporter, ProgressSpec, ensure_progress
from .spec import TrialSpec
from .supervisor import (
    GracefulShutdown,
    PoolSupervisor,
    SupervisorStats,
    chunk_deadline_seconds,
)

#: Chunks per worker used when no explicit chunk size is given: small
#: enough to balance load, large enough to amortise pickling.
_CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``None``/``1`` serial, ``0`` = cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_chunk_size(total: int, jobs: int) -> int:
    """Contiguous chunk length for ``total`` trials over ``jobs`` workers."""
    if total <= 0:
        return 1
    return max(1, -(-total // (jobs * _CHUNKS_PER_WORKER)))


def _chunked(specs: Sequence[TrialSpec], size: int) -> List[List[TrialSpec]]:
    return [list(specs[i : i + size]) for i in range(0, len(specs), size)]


def _check_picklable(specs: Sequence[TrialSpec]) -> None:
    """Fail fast (and helpfully) on unpicklable work instead of inside the pool."""
    if not specs:
        return
    try:
        pickle.dumps(specs[0])
    except Exception as exc:
        raise ConfigurationError(
            "trial task/point is not picklable, so it cannot cross a "
            "process boundary; pass a module-level task (or a "
            "'module:qualname' reference) or run with jobs=1 "
            f"(pickle error: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# Worker-side execution (module-level so the pool can pickle it)
# ----------------------------------------------------------------------


def _run_chunk(
    chunk: List[TrialSpec],
    timeout_seconds: Optional[float],
    retry: RetryPolicy,
) -> List[Tuple[int, TrialOutcome]]:
    """Pool worker: attempt every trial of ``chunk``, never raising."""
    executor = ResilientExecutor(timeout_seconds=timeout_seconds, retry=retry)
    return [
        (spec.index, executor.attempt(spec.run, spec.journal_key, spec.seed))
        for spec in chunk
    ]


# ----------------------------------------------------------------------
# Parent-side scheduling
# ----------------------------------------------------------------------


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: int = 1,
    chunk_size: Optional[int] = None,
    *,
    progress: ProgressSpec = False,
) -> List[Any]:
    """Run ``specs`` and return their values in index order.

    A thin wrapper over :func:`run_trials_resilient` with no timeout,
    retries or journal.  The first failed trial stops the campaign with
    a :class:`~repro.errors.TrialFailed` carrying the trial index, its
    spec, and the pid of the process that ran it — the same at every
    ``jobs``.  At ``jobs`` > 1 a killed worker is redispatched by the
    supervisor instead of ending the campaign.  ``progress`` turns on a
    stderr heartbeat (see :mod:`repro.obs.progress`).
    """

    outcomes = run_trials_resilient(
        specs,
        jobs,
        executor=ResilientExecutor(),
        chunk_size=chunk_size,
        progress=progress,
        on_outcome=raise_for_failure,
    )
    return [outcome.value for outcome in outcomes]


class _TrialTraceback(Exception):
    """A failed trial's formatted traceback, chained under TrialFailed."""

    def __str__(self) -> str:
        return "\n" + str(self.args[0])


def raise_for_failure(spec: TrialSpec, outcome: TrialOutcome) -> None:
    """Raise :class:`~repro.errors.TrialFailed` if ``outcome`` failed.

    The error carries the trial index, its spec and the pid of the
    process that ran it, and is chained to the trial's own traceback so
    the line that failed stays visible — the same at every ``jobs``.
    """
    if outcome.ok:
        return
    where = "" if outcome.worker_pid is None else f" in worker {outcome.worker_pid}"
    cause = None if outcome.traceback is None else _TrialTraceback(outcome.traceback)
    raise TrialFailed(
        f"trial {outcome.key} failed{where}: {outcome.error}",
        trial_index=spec.index,
        spec=spec,
        worker_pid=outcome.worker_pid,
    ) from cause


#: Per-outcome hook: ``on_outcome(spec, outcome)`` fires once per trial,
#: in completion order, as soon as the outcome is final.
OutcomeHook = Callable[[TrialSpec, TrialOutcome], None]


def run_trials_resilient(
    specs: Sequence[TrialSpec],
    jobs: int = 1,
    *,
    executor: ResilientExecutor,
    chunk_size: Optional[int] = None,
    progress: ProgressSpec = False,
    shutdown: Optional[GracefulShutdown] = None,
    max_dispatches: int = 3,
    on_outcome: Optional[OutcomeHook] = None,
) -> List[TrialOutcome]:
    """Run ``specs`` under the resilience layer; outcomes in spec order.

    The caller's :class:`~repro.exec.ResilientExecutor` supplies the
    policy (timeout, retries) and owns the parent-side state:

    * **resume** — specs whose key is in ``executor.completed`` are
      answered from the journal without dispatching;
    * **quarantine** — consulted before dispatch and fed back with each
      outcome (success clears strikes, exhausted retries add one);
    * **journal** — every outcome is appended by the parent only, so the
      JSONL file has exactly one writer.

    Timeout and retry run wherever the trial runs: in-process at
    ``jobs=1``, otherwise inside the worker, which gets the caller's
    retry policy (its ``sleep`` reset to :func:`time.sleep`, since an
    injected callable cannot cross a process boundary).  Journal append
    order follows completion, which may interleave across grid points —
    resume only keys on record identity, so this is harmless.

    At ``jobs`` > 1 the trials run under a :class:`PoolSupervisor`: a
    worker killed with ``kill -9``, a hung pool, or a missed chunk
    deadline rebuilds the pool and re-dispatches only the in-flight
    chunks (at most ``max_dispatches`` times; a single trial that keeps
    breaking its worker is recorded as ``failed`` and counted against
    the quarantine instead of retrying forever).  Re-delivered results
    are ignored via the reassembly slots, so every trial lands exactly
    once.  Supervisor counters end up on ``executor.last_supervisor_stats``
    (``None`` when nothing was supervised) and — when anything eventful
    happened — as a ``{"kind": "supervisor"}`` journal record.

    ``shutdown`` (a :class:`GracefulShutdown`) stops the campaign at the
    next trial boundary on SIGINT/SIGTERM: the journal is already flushed
    per-outcome, workers are reaped, and
    :class:`~repro.errors.CampaignInterrupted` propagates so the caller
    can advertise ``--resume``.

    ``progress`` turns on a stderr heartbeat: trials completed/attempted,
    throughput/ETA, retry/quarantine counts, pool restarts, and how many
    workers still hold work.

    ``on_outcome(spec, outcome)`` fires once per trial in completion
    order, as soon as the outcome is final (resumed, quarantined, fresh,
    or abandoned) — the seam campaign services use to stream results and
    populate caches while the run is still in flight.  It runs in the
    parent process; an exception it raises stops the campaign and
    propagates.
    """
    jobs = resolve_jobs(jobs)
    owns_reporter = not isinstance(progress, ProgressReporter)
    reporter = ensure_progress(progress, total=len(specs), label="trials")
    base = min((spec.index for spec in specs), default=0)
    outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
    spec_by_index = {spec.index: spec for spec in specs}

    def settle(spec: TrialSpec, outcome: TrialOutcome) -> None:
        slot = spec.index - base
        if outcomes[slot] is not None:
            # Exactly-once guard: a redispatched chunk (hung worker that
            # was merely slow) may deliver the same trial twice.
            return
        outcomes[slot] = outcome
        executor.settle(outcome)
        _advance_for(reporter, outcome)
        if on_outcome is not None:
            on_outcome(spec, outcome)

    dispatchable: List[TrialSpec] = []
    for spec in specs:
        triaged = executor.triage(spec.journal_key, spec.seed)
        if triaged is None:
            dispatchable.append(spec)
        else:
            settle(spec, triaged)

    executor.last_supervisor_stats = None
    if jobs == 1 or len(specs) <= 1:
        for done, spec in enumerate(dispatchable):
            _check_shutdown(shutdown, len(dispatchable) - done)
            settle(spec, executor.attempt(spec.run, spec.journal_key, spec.seed))
    else:
        _check_picklable(dispatchable)
        reporter.set_workers(jobs)

        def abandon(spec: TrialSpec, reason: str) -> None:
            settle(
                spec,
                TrialOutcome(
                    key=spec.journal_key,
                    seed=spec.seed,
                    status=FAILED,
                    attempts=0,
                    error=reason,
                ),
            )

        retry = executor.retry
        stats = SupervisorStats()
        executor.last_supervisor_stats = stats
        supervisor = PoolSupervisor(
            jobs,
            _run_chunk,
            (executor.timeout_seconds, dataclasses.replace(retry, sleep=time.sleep)),
            deadline_seconds=chunk_deadline_seconds(
                executor.timeout_seconds, retry.max_attempts, sum(retry.delays())
            ),
            max_dispatches=max_dispatches,
            stats=stats,
            shutdown=shutdown,
            reporter=reporter,
        )
        size = chunk_size or default_chunk_size(len(dispatchable), jobs)
        try:
            supervisor.run(
                _chunked(dispatchable, size),
                lambda index, outcome: settle(spec_by_index[index], outcome),
                abandon,
            )
        finally:
            # Interrupted or not, make the supervision events durable: the
            # stats record rides in the journal next to the trial outcomes.
            if stats.eventful and executor.journal is not None:
                executor.journal.append(stats.journal_record())
    if owns_reporter:
        reporter.finish()
    return [outcome for outcome in outcomes if outcome is not None]


def _check_shutdown(
    shutdown: Optional[GracefulShutdown], pending: int
) -> None:
    """In-process twin of the supervisor's trial-boundary stop."""
    if shutdown is None or not shutdown.requested:
        return
    raise CampaignInterrupted(
        f"campaign interrupted by {shutdown.describe()}; "
        f"{pending} trial(s) not completed — journal is flushed, "
        "rerun with --resume to continue from this boundary",
        signum=shutdown.signum,
    )


def _advance_for(
    reporter: ProgressReporter,
    outcome: TrialOutcome,
    busy: Optional[int] = None,
) -> None:
    """Translate one trial outcome into progress-counter deltas."""
    reporter.advance(
        completed=1 if outcome.ok else 0,
        attempted=max(1, outcome.attempts),
        failed=0 if outcome.ok else 1,
        retries=max(0, outcome.attempts - 1),
        quarantined=1 if outcome.status == QUARANTINED else 0,
        busy=busy,
    )
