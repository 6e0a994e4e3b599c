"""Monte-Carlo and parameter-sweep drivers.

``monte_carlo`` repeats one configuration over derived trial seeds;
``sweep`` crosses a parameter grid, running a Monte-Carlo at each point.
Both return plain lists of results so callers can aggregate freely.

``resilient_sweep`` is the fault-tolerant sibling: each trial runs under
a :class:`~repro.exec.ResilientExecutor` (timeout, retry, quarantine,
journal), failed trials degrade to annotated partial results instead of
aborting the grid, and a journalled sweep can be killed and resumed.

All three drivers build their trial specs and hand them to the one
campaign path, :func:`repro.parallel.run_trials_resilient` (the first
two through :func:`repro.parallel.run_trials`).  ``jobs=1`` (the default)
runs the trials in-process, ``jobs=N`` fans them out over a supervised
process pool, and ``jobs=0`` auto-detects the core count.  Seed
derivation is identical in every mode, and results are reassembled in
trial order, so ``jobs`` never changes the output — only the wall clock.

They also thread the observability layer (:mod:`repro.obs`):
``progress=True`` turns on a stderr heartbeat, and
``resilient_sweep(manifest=...)`` embeds a provenance manifest in the
checkpoint journal.  Neither affects results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs.progress import ProgressReporter, ProgressSpec, ensure_progress
from ..obs.provenance import Manifest
from ..rng import seed_sequence

#: A task maps (seed, **point) to an arbitrary result object.
Task = Callable[..., Any]


def monte_carlo(
    task: Task,
    trials: int,
    master_seed: int = 0,
    jobs: int = 1,
    progress: ProgressSpec = False,
    backend: Optional[str] = None,
    **point: Any,
) -> List[Any]:
    """Run ``task(seed=..., **point)`` for ``trials`` derived seeds.

    ``jobs`` > 1 dispatches the trials to a process pool; the returned
    list is identical to the serial one (same derived seeds, same order).
    ``progress=True`` emits a stderr heartbeat.  ``backend`` (e.g.
    ``"vec"``) is forwarded to every trial; backends never change
    results, so it rides outside the grid point.  A failing trial raises
    :class:`~repro.errors.TrialFailed`.
    """
    from ..parallel import TrialSpec

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    specs = [
        TrialSpec(
            index=index, task=task, seed=seed, point=dict(point), backend=backend
        )
        for index, seed in enumerate(seed_sequence(master_seed, trials))
    ]
    return _run_labelled(specs, jobs, progress, "monte-carlo")


def sweep(
    task: Task,
    grid: Mapping[str, Sequence[Any]],
    trials: int = 1,
    master_seed: int = 0,
    jobs: int = 1,
    progress: ProgressSpec = False,
    backend: Optional[str] = None,
) -> List[Tuple[Dict[str, Any], List[Any]]]:
    """Cross the ``grid`` and Monte-Carlo each point.

    Returns ``[(point_dict, [result, ...]), ...]`` in grid order.  Each
    grid point gets its own deterministic seed stream, so adding points
    does not reshuffle the others.

    The whole grid × trials campaign is one trial list
    (:func:`enumerate_sweep_specs`), so at ``jobs`` > 1 workers stay busy
    across point boundaries; the rows come back in exact grid order.
    ``progress`` as in :func:`monte_carlo`, covering the whole grid with
    one heartbeat.
    """
    specs = enumerate_sweep_specs(
        task, grid, trials, master_seed=master_seed, backend=backend
    )
    flat = _run_labelled(specs, jobs, progress, "sweep")
    return [
        (point, flat[combo_index * trials : (combo_index + 1) * trials])
        for combo_index, point in enumerate(grid_points(grid))
    ]


def _run_labelled(
    specs: List[Any], jobs: int, progress: ProgressSpec, label: str
) -> List[Any]:
    """:func:`~repro.parallel.run_trials` under a heartbeat named ``label``."""
    from ..parallel import run_trials

    owns_reporter = not isinstance(progress, ProgressReporter)
    reporter = ensure_progress(progress, total=len(specs), label=label)
    values = run_trials(specs, jobs=jobs, progress=reporter)
    if owns_reporter:
        reporter.finish()
    return values


@dataclass
class SweepPoint:
    """One grid point of a resilient sweep, with per-trial bookkeeping."""

    point: Dict[str, Any]
    results: List[Any] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    failed: int = 0

    def as_row(self) -> Dict[str, Any]:
        """The point's parameters plus its attempt accounting."""
        row = dict(self.point)
        row.update(
            attempted=self.attempted, completed=self.completed, failed=self.failed
        )
        return row


@dataclass
class ResilientSweepResult:
    """A grid sweep that survives (and accounts for) failing trials."""

    points: List[SweepPoint] = field(default_factory=list)
    #: Outcomes of trials that did not produce a result.
    failures: List[Any] = field(default_factory=list)
    #: :class:`~repro.parallel.supervisor.SupervisorStats` of the parallel
    #: run (``None`` for serial sweeps or when nothing was supervised).
    supervisor: Optional[Any] = None

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.points)

    @property
    def completed(self) -> int:
        return sum(p.completed for p in self.points)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.points)

    @property
    def complete(self) -> bool:
        """True when every attempted trial produced a result."""
        return self.failed == 0

    def rows(self) -> List[Tuple[Dict[str, Any], List[Any]]]:
        """The classic ``sweep`` shape (point dict, result list)."""
        return [(p.point, p.results) for p in self.points]

    def counts(self) -> Dict[str, int]:
        """Headline accounting for tables and logs.

        When the parallel supervisor had to intervene (pool rebuilds,
        worker deaths, redispatches), its counters ride along so campaign
        summaries show *how* the numbers were reached.
        """
        counts = {
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
        }
        if self.supervisor is not None:
            counts.update(self.supervisor.incident_counts())
        return counts


def _trial_key(combo_index: int, point: Mapping[str, Any], trial: int) -> str:
    """Stable journal key: grid position + parameters + trial index."""
    described = ",".join(f"{k}={point[k]!r}" for k in sorted(point))
    return f"point[{combo_index}]({described})#trial{trial}"


def grid_points(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cross a parameter grid into its ordered list of point dicts.

    Axis order follows the mapping's insertion order, exactly as
    :func:`sweep` has always crossed it — this is the single definition
    every driver (and the campaign service) shares, so grid order can
    never drift between them.
    """
    if not grid:
        raise ValueError("grid must contain at least one axis")
    names = list(grid)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[k] for k in names))
    ]


def enumerate_sweep_specs(
    task: Any,
    grid: Mapping[str, Sequence[Any]],
    trials: int,
    master_seed: int = 0,
    backend: Optional[str] = None,
) -> List[Any]:
    """The full ``grid`` × ``trials`` campaign as ordered trial specs.

    This is the sweep's seed-derivation contract in one place: point
    ``i`` seeds its trial stream from ``master_seed + i * 1_000_003``,
    and every spec carries the :func:`_trial_key` journal key.  Plain,
    resilient, and served campaigns all enumerate through here, which is
    what makes a cache entry computed by one mode valid for every other.
    """
    from ..parallel import TrialSpec

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    specs: List[TrialSpec] = []
    for combo_index, point in enumerate(grid_points(grid)):
        point_seed = master_seed + combo_index * 1_000_003
        for trial, seed in enumerate(seed_sequence(point_seed, trials)):
            specs.append(
                TrialSpec(
                    index=len(specs),
                    task=task,
                    seed=seed,
                    point=point,
                    key=_trial_key(combo_index, point, trial),
                    backend=backend,
                )
            )
    return specs


def resilient_sweep(
    task: Task,
    grid: Mapping[str, Sequence[Any]],
    trials: int = 1,
    master_seed: int = 0,
    *,
    executor: Optional["ResilientExecutor"] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    timeout_seconds: Optional[float] = None,
    retries: int = 0,
    jobs: int = 1,
    progress: ProgressSpec = False,
    manifest: Optional[Manifest] = None,
    shutdown: Optional[Any] = None,
    backend: Optional[str] = None,
) -> ResilientSweepResult:
    """Cross ``grid`` like :func:`sweep`, but never die on a bad trial.

    Each trial runs under a :class:`~repro.exec.ResilientExecutor`; a
    trial that fails (or times out) after its retries is recorded in the
    result's ``failures`` and the sweep continues, so callers get partial
    rows with exact ``attempted/completed/failed`` counts.  With
    ``journal_path`` set, every outcome is checkpointed; ``resume=True``
    reloads the journal and skips trials that already completed — their
    journalled (serialised) values are returned in place of live results.

    Seed derivation matches :func:`sweep` exactly, so a resumed or
    retried-free resilient sweep is trial-for-trial identical to the
    plain one.

    ``jobs`` > 1 runs the timeout/retry net inside pool workers while
    the parent keeps sole ownership of resume, quarantine, and the
    journal file; outcomes are accounted in serial order.

    ``progress=True`` emits a stderr heartbeat (with retry/quarantine
    counts).  ``manifest`` (a :class:`~repro.obs.Manifest`) is embedded
    in the journal as a ``{"kind": "manifest"}`` record, so the journal
    file alone is enough for ``repro report``; on resume the new
    invocation's manifest is appended too, documenting every run that
    touched the journal.

    ``shutdown`` (a :class:`~repro.parallel.GracefulShutdown`) lets
    SIGINT/SIGTERM stop the campaign at the next trial boundary:
    :class:`~repro.errors.CampaignInterrupted` propagates with the
    journal flushed, so the same invocation with ``resume=True``
    continues from exactly where it stopped.  The parallel path runs
    under a :class:`~repro.parallel.PoolSupervisor` (worker kills, hung
    pools, and missed deadlines rebuild the pool and redispatch in-flight
    chunks); its counters land on the result's ``supervisor`` field.
    """
    from ..exec import Journal, ResilientExecutor, RetryPolicy
    from ..parallel import run_trials_resilient

    if not grid:
        raise ValueError("grid must contain at least one axis")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if executor is None:
        executor = ResilientExecutor(
            timeout_seconds=timeout_seconds,
            retry=RetryPolicy(retries=retries),
        )
    owned_journal = None
    if journal_path is not None and executor.journal is None:
        executor.journal = owned_journal = Journal(journal_path)
    try:
        if resume:
            executor.load_completed()
        elif executor.journal is not None:
            executor.journal.clear()
        if manifest is not None:
            executor.write_manifest(manifest)
        specs = enumerate_sweep_specs(
            task, grid, trials, master_seed=master_seed, backend=backend
        )
        trial_outcomes = run_trials_resilient(
            specs, jobs=jobs, executor=executor, progress=progress, shutdown=shutdown
        )
    finally:
        if owned_journal is not None:
            owned_journal.close()

    outcome = ResilientSweepResult(supervisor=executor.last_supervisor_stats)
    for combo_index, point in enumerate(grid_points(grid)):
        sweep_point = SweepPoint(point=point)
        for trial_outcome in trial_outcomes[
            combo_index * trials : (combo_index + 1) * trials
        ]:
            sweep_point.attempted += 1
            if trial_outcome.ok:
                sweep_point.completed += 1
                sweep_point.results.append(trial_outcome.value)
            else:
                sweep_point.failed += 1
                outcome.failures.append(trial_outcome)
        outcome.points.append(sweep_point)
    return outcome


def collect(
    rows: Iterable[Tuple[Dict[str, Any], List[Any]]],
    reducer: Callable[[List[Any]], Any],
) -> List[Dict[str, Any]]:
    """Reduce each sweep point's results into one flat record."""
    flattened = []
    for point, results in rows:
        record = dict(point)
        reduced = reducer(results)
        if isinstance(reduced, dict):
            record.update(reduced)
        else:
            record["value"] = reduced
        flattened.append(record)
    return flattened
