"""Campaign drivers close the journals they open, and only those.

``resilient_sweep``, ``run_experiments_resilient`` and ``fuzz`` accept a
journal *path* and open the file themselves; the append handle must be
released when the driver returns, or the interpreter reports
``ResourceWarning: unclosed file``.  A journal (or executor) the caller
passed in stays the caller's to close.
"""

import gc
import warnings

from repro.analysis import resilient_sweep
from repro.chaos.fuzzer import default_scenarios, fuzz
from repro.exec import Journal, ResilientExecutor
from repro.experiments.harness import (
    Experiment,
    ExperimentReport,
    run_experiments_resilient,
)


def _ok_task(seed, **point):
    return {"seed": seed, **point}


def _unclosed_warnings(run, path):
    """ResourceWarnings about ``path`` raised while ``run()`` executes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    return [
        w
        for w in caught
        if issubclass(w.category, ResourceWarning) and str(path) in str(w.message)
    ]


def test_resilient_sweep_closes_the_journal_it_opened(tmp_path):
    path = tmp_path / "sweep.jsonl"
    run = lambda: resilient_sweep(  # noqa: E731
        _ok_task, {"n": [4]}, trials=2, journal_path=str(path)
    )
    assert _unclosed_warnings(run, path) == []


def test_run_experiments_closes_the_journal_it_opened(tmp_path):
    path = tmp_path / "run.jsonl"
    experiment = Experiment(
        experiment_id="A",
        title="t",
        paper_claim="c",
        runner=lambda quick: ExperimentReport("A", "t", "c"),
    )
    run = lambda: run_experiments_resilient(  # noqa: E731
        [experiment], journal_path=str(path)
    )
    assert _unclosed_warnings(run, path) == []


def test_fuzz_closes_the_journal_it_opened(tmp_path):
    path = tmp_path / "fuzz.jsonl"
    run = lambda: fuzz(  # noqa: E731
        default_scenarios(n=16), seeds=1, journal=str(path)
    )
    assert _unclosed_warnings(run, path) == []


def test_caller_supplied_journal_is_left_open(tmp_path, monkeypatch):
    real_close = Journal.close
    closed = []
    monkeypatch.setattr(Journal, "close", lambda self: closed.append(self.path))
    journal = Journal(tmp_path / "mine.jsonl")
    resilient_sweep(
        _ok_task,
        {"n": [4]},
        trials=2,
        executor=ResilientExecutor(journal=journal),
        journal_path=str(tmp_path / "ignored.jsonl"),
    )
    fuzz(default_scenarios(n=16), seeds=1, journal=journal)
    assert closed == []
    real_close(journal)
