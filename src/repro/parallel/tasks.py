"""Module-level, picklable Monte-Carlo trial tasks.

Parallel campaigns need tasks that cross a process boundary.  These
wrappers run the headline protocols and return their plain-dict
``summary()`` — picklable, JSON-serialisable, and exactly what the
benchmark and CLI sweeps aggregate.

Pass adversaries by *name* (``"random"``, ``"staggered"``, ...): names
are picklable and resolved inside the worker, stateful adversary objects
may not be.

With ``profile=True`` each trial runs under a fresh
:class:`~repro.obs.PhaseTimers` and its summary gains a
``phase_seconds`` dict — timings ride back through the pool (and into
journals) as plain data.
"""

from __future__ import annotations

from typing import Any, Dict


def election_trial(
    seed: int = 0, profile: bool = False, **kwargs: Any
) -> Dict[str, Any]:
    """One leader-election trial → its ``summary()`` dict."""
    from ..core.runner import elect_leader

    timers = _make_timers(profile)
    result = elect_leader(seed=seed, timers=timers, **kwargs)
    return _with_phases(result.summary(), result.metrics)


def agreement_trial(
    seed: int = 0, profile: bool = False, **kwargs: Any
) -> Dict[str, Any]:
    """One agreement trial → its ``summary()`` dict."""
    from ..core.runner import agree

    timers = _make_timers(profile)
    result = agree(seed=seed, timers=timers, **kwargs)
    return _with_phases(result.summary(), result.metrics)


def ben_or_trial(
    seed: int = 0,
    profile: bool = False,
    n: int = 64,
    alpha: float = 0.5,
    adversary: str = "random",
    inputs: str = "mixed",
    max_delay: int = 0,
    **kwargs: Any,
) -> Dict[str, Any]:
    """One Ben-Or consensus trial → its ``summary()`` dict.

    ``alpha`` maps to the Ben-Or fault budget of
    :meth:`~repro.scenario.Scenario.fault_budget` (``Params.max_faulty``
    capped at ``< n/2``); ``max_delay`` > 0 runs the trial under
    bounded-delay delivery.
    """
    from ..baselines.ben_or import ben_or_consensus, ben_or_horizon
    from ..faults import named_adversary
    from ..scenario import Scenario
    from ..sim.delivery import UniformDelay

    timers = _make_timers(profile)
    scenario = Scenario("ben_or", n, alpha, inputs=inputs)
    delivery = UniformDelay(max_delay, salt=seed) if max_delay else None
    outcome = ben_or_consensus(
        n=n,
        inputs=scenario.input_bits(seed),
        seed=seed,
        adversary=named_adversary(adversary, ben_or_horizon(max_delay)),
        faulty_count=scenario.fault_budget(),
        delivery=delivery,
        timers=timers,
        **kwargs,
    )
    summary = outcome.summary()
    summary["alpha"] = alpha
    summary["adversary"] = adversary
    summary["max_delay"] = max_delay
    return _with_phases(summary, outcome.metrics)


def fuzz_trial(
    seed: int = 0,
    protocol: str = "election",
    n: int = 64,
    alpha: float = 0.5,
    inputs: str = "mixed",
    extra_rounds: int = 0,
    **kwargs: Any,
) -> Dict[str, Any]:
    """One adversary-fuzzing trial → a plain-dict verdict.

    A pure function of ``(scenario, seed)`` — the sampled crash schedule
    derives from the engine's seeded adversary stream — so the serve
    layer's content-addressed result cache can answer repeats.  A failing
    case ships its full replayable reproducer (``repro replay`` accepts
    the embedded ``case`` object verbatim); fault-fragile findings are
    flagged separately so campaign aggregation can journal instead of
    fail, mirroring ``repro fuzz``.
    """
    from ..chaos.fuzzer import FuzzScenario, fuzz_one

    scenario = FuzzScenario(
        protocol=protocol,
        n=n,
        alpha=alpha,
        inputs=inputs,
        extra_rounds=extra_rounds,
        **kwargs,
    )
    case = fuzz_one(scenario, seed)
    summary: Dict[str, Any] = {
        "protocol": protocol,
        "n": n,
        "alpha": alpha,
        "seed": seed,
        "failed": case is not None,
    }
    if case is not None:
        summary["violations"] = list(case.violations)
        summary["classes"] = list(case.signature)
        summary["finding"] = case.is_finding
        summary["case"] = case.to_dict()
    return summary


def _make_timers(profile: bool):
    if not profile:
        return None
    from ..obs.timing import PhaseTimers

    return PhaseTimers()


def _with_phases(summary: Dict[str, Any], metrics: Any) -> Dict[str, Any]:
    if metrics.phase_seconds:
        summary["phase_seconds"] = dict(metrics.phase_seconds)
    return summary
