"""High-level entry points: build a network, run a protocol, evaluate.

These are the functions most users call:

>>> from repro.core import elect_leader, agree
>>> elect_leader(n=512, alpha=0.5, seed=1, adversary="staggered").success
True
>>> agree(n=512, alpha=0.5, inputs="single0", seed=1).decision
0

Each runner describes its trial as a :class:`~repro.scenario.Scenario`
and hands it to one execute path: vec attempt → Byzantine wrap →
:class:`~repro.sim.network.Network` → run.  Params, schedule, horizon
and fault budget all come from the scenario, so the sim runners, the
wire backend and the fuzzer cannot derive them differently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, VecUnsupported
from ..faults.adversary import Adversary
from ..faults.strategies import named_adversary
from ..obs.timing import PhaseTimers
from ..params import CongestBudget, Params
from ..scenario import INPUT_PATTERNS, Scenario, make_inputs  # noqa: F401  (re-export)
from ..sim.delivery import DeliverySchedule
from ..sim.network import Network, RunResult
from ..sim.node import Protocol

if TYPE_CHECKING:  # pragma: no cover - lazy import (faults.byzantine
    # depends on this package; see repro.faults.__init__)
    from ..faults.byzantine import ByzantinePlan
from ..types import NodeState
from .agreement import AgreementProtocol
from .explicit import ExplicitAgreementProtocol, ExplicitLeaderElectionProtocol
from .leader_election import LeaderElectionProtocol
from .results import (
    AgreementResult,
    ExplicitAgreementResult,
    ExplicitLeaderElectionResult,
    LeaderElectionResult,
)

#: Rounds appended after the nominal schedule to fit the explicit
#: broadcast wave (broadcast + delivery).
EXPLICIT_TAIL_ROUNDS = 3

AdversarySpec = Union[str, Adversary]

#: Engine backends: the reference per-node engine, and the numpy
#: struct-of-arrays engine (exact same results, see ``docs/VEC.md``).
BACKENDS = ("ref", "vec")


def _resolve_adversary(spec: AdversarySpec, horizon: int) -> Adversary:
    if isinstance(spec, Adversary):
        return spec
    return named_adversary(spec, horizon)


# ----------------------------------------------------------------------
# The execute path
# ----------------------------------------------------------------------


def _run(
    scenario: Scenario,
    seed: int,
    adversary: AdversarySpec,
    variant: Optional[Callable[..., Protocol]] = None,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    timers: Optional[PhaseTimers] = None,
    delivery: Optional[DeliverySchedule] = None,
    byzantine: Optional["ByzantinePlan"] = None,
    backend: str = "ref",
) -> Tuple[RunResult, Adversary]:
    """Run ``scenario`` once: vec attempt → Byzantine wrap → Network → run.

    ``variant`` swaps in a subclass of the scenario's protocol taking
    ``(u, params, schedule[, input bit])`` — the explicit and
    election-based variants, which have no vec engine.  Returns the run
    and the adversary that drove it.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    horizon = scenario.horizon()
    adversary = _resolve_adversary(adversary, horizon)
    faulty_count = scenario.fault_budget()
    bits = None if scenario.inputs is None else scenario.input_bits(seed)
    if backend == "vec" and variant is None:
        from ..sim.vec import ensure_vec_supported

        try:
            ensure_vec_supported(
                adversary,
                collect_trace=collect_trace,
                message_budget=message_budget,
                timers=timers,
                delivery=delivery,
                byzantine=byzantine,
            )
            run = _run_vec(scenario, seed, adversary, faulty_count, bits, horizon)
            return run, adversary
        except VecUnsupported:
            # Unsupported configs replay on the reference engine; the
            # adversary's selection state is rebuilt from the same seed,
            # so the fallback run is byte-identical to a ref-only run.
            pass
    if variant is None:
        factory = scenario.protocol_factory(seed)
    else:
        params, schedule = scenario.params(), scenario.schedule()
        if bits is None:
            factory = lambda u: variant(u, params, schedule)  # noqa: E731
        else:
            factory = lambda u: variant(u, params, schedule, bits[u])  # noqa: E731
    if byzantine is not None and byzantine.modes:
        from ..faults.byzantine import (
            ByzantineAdversary,
            agreement_attackers,
            election_attackers,
            plan_factory,
        )

        params, schedule = scenario.params(), scenario.schedule()
        attackers = (
            election_attackers(params, schedule)
            if scenario.protocol == "election"
            else agreement_attackers(params, schedule, bits)
        )
        adversary = ByzantineAdversary(byzantine, adversary)
        factory = plan_factory(byzantine, factory, attackers)

    network = Network(
        scenario.n,
        factory,
        seed=seed,
        adversary=adversary,
        max_faulty=faulty_count,
        inputs=bits,
        knowledge=scenario.knowledge(),
        congest=CongestBudget(scenario.n),
        collect_trace=collect_trace,
        message_budget=message_budget,
        timers=timers,
        delivery=delivery,
    )
    return network.run(horizon), adversary


def _run_vec(
    scenario: Scenario,
    seed: int,
    adversary: Adversary,
    faulty_count: int,
    bits: Optional[List[int]],
    horizon: int,
) -> RunResult:
    from ..sim.vec import run_agreement_vec, run_election_vec
    from ..sim.vec.flooding import _FloodingVec

    schedule = scenario.schedule()
    if scenario.protocol == "election":
        return run_election_vec(
            scenario.params(), schedule, seed, adversary, faulty_count, horizon
        )
    assert bits is not None
    if scenario.protocol == "agreement":
        return run_agreement_vec(
            scenario.params(), schedule, seed, adversary, faulty_count, bits, horizon
        )
    return _FloodingVec(
        scenario.n, bits, seed, adversary, faulty_count, schedule, horizon
    ).run()


def execute(
    scenario: Scenario,
    seed: int = 0,
    adversary: AdversarySpec = "random",
    **options: Any,
) -> Any:
    """Run ``scenario`` under ``seed`` and evaluate it.

    Returns a :class:`~repro.core.results.LeaderElectionResult`, an
    :class:`~repro.core.results.AgreementResult` or, for flooding, a
    :class:`~repro.baselines.base.BaselineOutcome`.  ``options`` are the
    engine options of :func:`elect_leader` (``collect_trace``,
    ``message_budget``, ``timers``, ``delivery``, ``byzantine``,
    ``backend``).
    """
    run, resolved = _run(scenario, seed, adversary, **options)
    return evaluate(scenario, run, seed, resolved)


def evaluate(
    scenario: Scenario, run: RunResult, seed: int, adversary: Adversary
) -> Any:
    """Reduce a finished run of ``scenario`` to its protocol's result."""
    if scenario.protocol == "election":
        return _evaluate_leader_election(run, scenario.params(), seed, adversary)
    bits = scenario.input_bits(seed)
    if scenario.protocol == "agreement":
        return _evaluate_agreement(run, scenario.params(), seed, adversary, bits)
    if scenario.protocol == "flooding":
        return _evaluate_flooding(run, bits)
    raise ConfigurationError(
        "ben_or runs through repro.baselines.ben_or_consensus"
    )


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------


def elect_leader(
    n: int,
    alpha: float,
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    extra_rounds: int = 0,
    timers: Optional[PhaseTimers] = None,
    delivery: Optional[DeliverySchedule] = None,
    byzantine: Optional["ByzantinePlan"] = None,
    backend: str = "ref",
) -> LeaderElectionResult:
    """Run the Section IV-A fault-tolerant implicit leader election.

    Parameters
    ----------
    n, alpha:
        Network size and non-faulty fraction (``alpha in [log^2 n/n, 1]``).
    seed:
        Master seed; runs are exactly reproducible from ``(args, seed)``.
    adversary:
        An :class:`~repro.faults.Adversary` or a short name
        (``none/eager/lazy/random/staggered/split/adaptive``).
    faulty_count:
        Size of the static faulty set; defaults to the maximum the
        parameters tolerate.
    message_budget:
        Optional global cap on sent messages (lower-bound experiments).
    extra_rounds:
        Extra rounds appended after the nominal schedule (robustness
        experiments).
    timers:
        Optional :class:`~repro.obs.PhaseTimers` profiling the engine's
        round phases; totals surface as ``result.metrics.phase_seconds``.
    delivery:
        Optional :class:`~repro.sim.DeliverySchedule` (bounded-delay
        partial synchrony); default is the synchronous model.
    byzantine:
        Optional :class:`~repro.faults.byzantine.ByzantinePlan` turning
        designated nodes into attackers/omitters; the plan's nodes join
        the faulty set and charge ``faulty_count``.
    backend:
        ``"ref"`` (default) runs the per-node reference engine; ``"vec"``
        runs the numpy struct-of-arrays engine, which produces identical
        results and falls back to ``"ref"`` for configurations it cannot
        mirror exactly (see ``docs/VEC.md``).
    """
    scenario = Scenario("election", n, alpha, None, faulty_count, extra_rounds, params)
    return execute(
        scenario,
        seed,
        adversary,
        collect_trace=collect_trace,
        message_budget=message_budget,
        timers=timers,
        delivery=delivery,
        byzantine=byzantine,
        backend=backend,
    )


def _evaluate_leader_election(
    run: RunResult, params: Params, seed: int, adversary: Adversary
) -> LeaderElectionResult:
    result = LeaderElectionResult(
        n=run.n,
        alpha=params.alpha,
        seed=seed,
        adversary=adversary.name(),
        faulty=run.faulty,
        crashed=run.crashed,
        metrics=run.metrics,
        trace=run.trace,
        max_delay=run.max_delay,
    )
    for u in range(run.n):
        protocol: LeaderElectionProtocol = run.protocol(u)  # type: ignore[assignment]
        if protocol.rank is not None:
            result.ranks[u] = protocol.rank
        if not protocol.is_candidate:
            continue
        result.candidates_all.append(u)
        if u in run.crashed:
            if protocol.state is NodeState.ELECTED:
                result.elected_crashed.append(u)
            continue
        result.candidates_alive.append(u)
        result.beliefs[u] = protocol.leader_rank
        if protocol.state is NodeState.ELECTED:
            result.elected_alive.append(u)
    return result


def elect_leader_explicit(
    n: int,
    alpha: float,
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
) -> ExplicitLeaderElectionResult:
    """Run explicit leader election (implicit + one broadcast round).

    On top of the implicit outcome, the result records which nodes learnt
    the winner's rank (``explicit_ranks`` / ``explicit_success``).
    """
    scenario = Scenario(
        "election", n, alpha, None, faulty_count, EXPLICIT_TAIL_ROUNDS, params
    )
    run, resolved = _run(scenario, seed, adversary, ExplicitLeaderElectionProtocol)
    base = evaluate(scenario, run, seed, resolved)
    result = ExplicitLeaderElectionResult(**vars(base))
    for u in range(run.n):
        if u in run.crashed:
            continue
        protocol: ExplicitLeaderElectionProtocol = run.protocol(u)  # type: ignore[assignment]
        result.explicit_ranks[u] = protocol.explicit_leader_rank
    return result


# ----------------------------------------------------------------------
# Agreement
# ----------------------------------------------------------------------


def agree(
    n: int,
    alpha: float,
    inputs: Union[str, Sequence[int]] = "mixed",
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    extra_rounds: int = 0,
    timers: Optional[PhaseTimers] = None,
    delivery: Optional[DeliverySchedule] = None,
    byzantine: Optional["ByzantinePlan"] = None,
    backend: str = "ref",
) -> AgreementResult:
    """Run the Section V-A fault-tolerant implicit agreement.

    ``inputs`` is an explicit bit vector or a named pattern
    (see :func:`make_inputs`).  Other parameters as in
    :func:`elect_leader`.
    """
    scenario = Scenario(
        "agreement", n, alpha, inputs, faulty_count, extra_rounds, params
    )
    return execute(
        scenario,
        seed,
        adversary,
        collect_trace=collect_trace,
        message_budget=message_budget,
        timers=timers,
        delivery=delivery,
        byzantine=byzantine,
        backend=backend,
    )


def agree_explicit(
    n: int,
    alpha: float,
    inputs: Union[str, Sequence[int]] = "mixed",
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
) -> ExplicitAgreementResult:
    """Run explicit agreement (implicit + one broadcast round).

    On top of the implicit outcome, the result records which nodes learnt
    the agreed bit (``explicit_bits`` / ``explicit_success``).
    """
    scenario = Scenario(
        "agreement", n, alpha, inputs, faulty_count, EXPLICIT_TAIL_ROUNDS, params
    )
    run, resolved = _run(scenario, seed, adversary, ExplicitAgreementProtocol)
    base = evaluate(scenario, run, seed, resolved)
    result = ExplicitAgreementResult(**vars(base))
    for u in range(run.n):
        if u in run.crashed:
            continue
        protocol: ExplicitAgreementProtocol = run.protocol(u)  # type: ignore[assignment]
        result.explicit_bits[u] = protocol.explicit_decision
    return result


def agree_via_election(
    n: int,
    alpha: float,
    inputs: Union[str, Sequence[int]] = "mixed",
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
) -> AgreementResult:
    """Solve implicit agreement by the Section V reduction through leader
    election (agree on the elected leader's input bit).

    Costs the election's ``O(n^1/2 log^{5/2} n/alpha^{5/2})`` messages —
    a ``log n/alpha`` factor more than :func:`agree`; exists to measure
    that remark (experiment E13's table).
    """
    from .leader_based_agreement import LeaderBasedAgreementProtocol

    # An election scenario with inputs: the election's schedule and
    # horizon, the agreement's input bits.
    scenario = Scenario("election", n, alpha, inputs, faulty_count, 0, params)
    run, resolved = _run(scenario, seed, adversary, LeaderBasedAgreementProtocol)
    return _evaluate_agreement(
        run, scenario.params(), seed, resolved, scenario.input_bits(seed)
    )


def _evaluate_agreement(
    run: RunResult,
    params: Params,
    seed: int,
    adversary: Adversary,
    inputs: Sequence[int],
) -> AgreementResult:
    result = AgreementResult(
        n=run.n,
        alpha=params.alpha,
        seed=seed,
        adversary=adversary.name(),
        inputs=list(inputs),
        faulty=run.faulty,
        crashed=run.crashed,
        metrics=run.metrics,
        trace=run.trace,
        max_delay=run.max_delay,
    )
    for u in range(run.n):
        protocol: AgreementProtocol = run.protocol(u)  # type: ignore[assignment]
        if protocol.is_candidate:
            result.candidates_all.append(u)
        if u in run.crashed:
            continue
        if protocol.is_candidate:
            result.candidates_alive.append(u)
        result.decisions[u] = protocol.decision
    return result


def _evaluate_flooding(run: RunResult, bits: Sequence[int]) -> Any:
    from ..baselines.base import BaselineOutcome, evaluate_explicit_agreement

    outcome = BaselineOutcome(
        protocol="flooding",
        n=run.n,
        faulty=run.faulty,
        crashed=run.crashed,
        metrics=run.metrics,
        inputs=list(bits),
    )
    for u in run.alive:
        decided = run.protocol(u).decided  # type: ignore[attr-defined]
        if decided is not None:
            outcome.decisions[u] = decided
    outcome.success = evaluate_explicit_agreement(outcome, run.alive)
    return outcome
