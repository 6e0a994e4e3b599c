"""Byzantine stress tests (paper, open problem 3).

The paper's protocols assume *crash* faults: a faulty node follows the
protocol until it halts.  This module measures what happens when faulty
nodes instead lie, by swapping their protocol instances for attackers:

* ``zero_forger`` (agreement) — a faulty candidate injects a ``0`` it does
  not hold.  One successful forger violates *validity*: the committee
  agrees on a value that is nobody's input.
* ``rank_forger`` (election) — a faulty candidate claims rank 1, the
  smallest possible.  The protocol elects the minimum surviving rank, so
  the forger wins almost surely, destroying the "leader non-faulty w.p.
  alpha" guarantee (the forged leader can then go silent, leaving the
  network effectively leaderless).
* ``equivocator`` (election) — a faulty candidate tells half its referees
  one rank and the other half another, splitting views without crashing.

These attackers only do things any KT0 node could do (send well-formed
CONGEST messages through sampled ports); no engine rules are bent.  The
measured collapse is the content of experiment E15 and motivates why
sub-linear *Byzantine* agreement is open.

The attacker protocol classes live in :mod:`repro.faults.byzantine`
(first-class fault model, per-node plans, budget-charged composition with
crash adversaries); this module keeps the E15 measurement runners, which
take params, schedule, inputs and horizon from a
:class:`~repro.scenario.Scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..core.agreement import AgreementProtocol
from ..core.leader_election import LeaderElectionProtocol
from ..faults.byzantine import Equivocator, RankForger, ZeroForger
from ..params import CongestBudget, Params
from ..rng import RngFactory
from ..scenario import Scenario
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..types import Decision, NodeState

#: Attack names accepted by the runners.
BYZANTINE_ATTACKS = ("zero_forger", "rank_forger", "equivocator")


@dataclass
class ByzantineOutcome:
    """Outcome of a run with actively lying faulty nodes."""

    n: int
    alpha: float
    attack: str
    byzantine: Set[int]
    metrics: Metrics
    #: Agreement outputs of honest nodes (agreement attacks).
    decisions: Dict[int, Decision]
    #: Honest inputs (agreement attacks).
    inputs: Sequence[int]
    #: Honest ELECTED nodes / Byzantine ELECTED nodes (election attacks).
    honest_elected: List[int]
    byzantine_elected: List[int]
    #: Leader-rank beliefs of honest candidates (election attacks).
    beliefs: Dict[int, Optional[int]]
    #: Ranks claimed by the attackers (election attacks).
    forged_ranks: Set[int]

    # -- agreement verdicts ---------------------------------------------

    @property
    def honest_bits(self) -> List[int]:
        return [
            d.bit for d in self.decisions.values() if d is not Decision.UNDECIDED
        ]

    @property
    def agreement_holds(self) -> bool:
        """Honest nodes decided and agree."""
        bits = self.honest_bits
        return bool(bits) and len(set(bits)) == 1

    @property
    def validity_holds(self) -> bool:
        """Every honest decision is some *honest* node's input."""
        honest_inputs = {
            bit for u, bit in enumerate(self.inputs) if u not in self.byzantine
        }
        return all(bit in honest_inputs for bit in self.honest_bits)

    # -- election verdicts ------------------------------------------------

    @property
    def byzantine_won(self) -> bool:
        """Honest candidates unanimously believe a forged rank."""
        if not self.beliefs:
            return False
        values = {v for v in self.beliefs.values() if v is not None}
        if len(values) != 1:
            return False
        return values.pop() in self.forged_ranks

    @property
    def election_intact(self) -> bool:
        """The honest guarantee survived: exactly one honest ELECTED node
        whose rank is not forged."""
        return len(self.honest_elected) == 1 and not self.byzantine_won


def _select_byzantine(n: int, count: int, seed: int) -> Set[int]:
    rng = RngFactory(seed).stream("byzantine")
    return set(rng.sample(range(n), count))


def run_byzantine_agreement(
    n: int,
    alpha: float,
    byzantine_count: int,
    seed: int = 0,
    inputs: str = "all1",
    params: Optional[Params] = None,
) -> ByzantineOutcome:
    """Agreement with ``byzantine_count`` zero-forging nodes.

    Default inputs are all-1 so any decided 0 is provably forged.
    """
    scenario = Scenario("agreement", n, alpha, inputs=inputs, params_override=params)
    params, schedule = scenario.params(), scenario.schedule()
    input_bits = scenario.input_bits(seed)
    byzantine = _select_byzantine(n, byzantine_count, seed)

    def factory(u: int):
        if u in byzantine:
            return ZeroForger(u, params, schedule, input_bits[u])
        return AgreementProtocol(u, params, schedule, input_bits[u])

    network = Network(
        n, factory, seed=seed, congest=CongestBudget(n), inputs=input_bits
    )
    run = network.run(scenario.horizon())
    outcome = ByzantineOutcome(
        n=n,
        alpha=alpha,
        attack="zero_forger",
        byzantine=byzantine,
        metrics=run.metrics,
        decisions={},
        inputs=input_bits,
        honest_elected=[],
        byzantine_elected=[],
        beliefs={},
        forged_ranks=set(),
    )
    for u in range(n):
        if u in byzantine:
            continue
        protocol: AgreementProtocol = run.protocol(u)  # type: ignore[assignment]
        outcome.decisions[u] = protocol.decision
    return outcome


def run_byzantine_election(
    n: int,
    alpha: float,
    byzantine_count: int,
    seed: int = 0,
    attack: str = "rank_forger",
    params: Optional[Params] = None,
) -> ByzantineOutcome:
    """Leader election with forging or equivocating Byzantine nodes."""
    if attack not in ("rank_forger", "equivocator"):
        raise ValueError(f"unknown election attack {attack!r}")
    scenario = Scenario("election", n, alpha, inputs=None, params_override=params)
    params, schedule = scenario.params(), scenario.schedule()
    byzantine = _select_byzantine(n, byzantine_count, seed)
    attacker = RankForger if attack == "rank_forger" else Equivocator

    def factory(u: int):
        if u in byzantine:
            return attacker(u, params, schedule)
        return LeaderElectionProtocol(u, params, schedule)

    network = Network(n, factory, seed=seed, congest=CongestBudget(n))
    run = network.run(scenario.horizon())
    outcome = ByzantineOutcome(
        n=n,
        alpha=alpha,
        attack=attack,
        byzantine=byzantine,
        metrics=run.metrics,
        decisions={},
        inputs=[],
        honest_elected=[],
        byzantine_elected=[],
        beliefs={},
        forged_ranks=(
            {1}
            if attack == "rank_forger"
            else {2, params.rank_space - 1}
        ),
    )
    for u in range(n):
        protocol: LeaderElectionProtocol = run.protocol(u)  # type: ignore[assignment]
        if u in byzantine:
            if protocol.state is NodeState.ELECTED:
                outcome.byzantine_elected.append(u)
            continue
        if protocol.is_candidate:
            outcome.beliefs[u] = protocol.leader_rank
        if protocol.state is NodeState.ELECTED:
            outcome.honest_elected.append(u)
    return outcome
