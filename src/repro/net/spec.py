"""Wire-trial specification and the sim/wire shared vocabulary.

A :class:`WireSpec` is a :class:`~repro.scenario.Scenario` (protocol,
size, alpha, input pattern, fault budget, extra rounds) plus what only a
wire trial has — seed, fault script, and the transport tunables — and is
the unit the parity oracle quantifies over: for one ``(spec, seed,
script)`` the simulator and the wire backend must produce identical
message accounting and identical outcomes.  Params, horizon and fault
budget are the scenario's, on both sides.

To make "identical" checkable, this module also owns:

* node construction (:meth:`WireSpec.make_runtime`) — the scenario's own
  protocol factory and knowledge model plus the per-node RNG streams the
  sim backends use, behind the :class:`~repro.sim.adapter.NodeRuntime`
  seam;
* the sim reference run (:func:`sim_reference`) — one run of the spec's
  scenario through the runners' execute path;
* outcome canonicalisation (:func:`canonical_outcome`,
  :func:`wire_outcome`) — both sides reduce to one plain-dict shape, and
  the wire side reuses the *runner's own evaluators* over reconstructed
  protocol outputs, so the success predicate cannot drift between
  backends;
* :func:`metrics_dict` — the full accounting surface that parity
  compares (not just headline totals: per-round, per-kind, and per-node
  attribution too).

The spec (JSON-serialisable via :meth:`to_dict`/:meth:`from_dict`) is
handed verbatim to every node process, which rebuilds its runtime from
``(spec, node_id)`` alone — determinism across process boundaries comes
from :mod:`repro.rng`'s hash-derived streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from ..chaos.script import CrashScript
from ..core.runner import evaluate, execute
from ..errors import ConfigurationError
from ..faults.strategies import named_adversary
from ..params import CongestBudget, Params
from ..rng import RngFactory
from ..scenario import Scenario
from ..sim.adapter import NodeRuntime
from ..sim.metrics import Metrics
from ..sim.network import RunResult
from ..sim.node import Protocol
from ..types import Decision, NodeState

#: Protocols the wire backend can run (same logic objects as the sim).
WIRE_PROTOCOLS = ("election", "agreement", "flooding")


@dataclass(frozen=True)
class WireSpec(Scenario):
    """A :class:`~repro.scenario.Scenario` plus the seed, the fault script
    and the transport tunables of one wire trial; JSON-round-trippable."""

    alpha: float = 0.75
    params_override: Optional[Params] = field(default=None, init=False)
    seed: int = 0
    script: Optional[CrashScript] = None
    # -- transport tunables (no effect on accounting or outcomes) -------
    host: str = "127.0.0.1"
    heartbeat_interval: float = 0.1
    suspicion_threshold: int = 30
    round_timeout: float = 30.0
    setup_timeout: float = 20.0
    trial_timeout: float = 180.0

    supported: ClassVar[Tuple[str, ...]] = WIRE_PROTOCOLS
    kind: ClassVar[str] = "wire protocol"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.heartbeat_interval <= 0 or self.suspicion_threshold < 2:
            raise ConfigurationError(
                "heartbeat_interval must be positive and "
                "suspicion_threshold >= 2"
            )

    def adversary(self) -> Any:
        """The adversary object the sim reference run uses."""
        if self.script is not None:
            return self.script
        return named_adversary("none", self.horizon())

    def faulty_set(self) -> Tuple[int, ...]:
        """Static faulty set (scripted runs only; empty otherwise).
        Flooding sizes its derived fault budget, hence its horizon, to it."""
        return self.script.faulty if self.script else ()

    def validate(self) -> None:
        """Reject specs the wire backend cannot replay round-faithfully."""
        # Params strictness (alpha floor, n >= 8) for the paper protocols.
        if self.protocol != "flooding":
            self.params()
        script = self.script
        if script is None:
            return
        if script.byzantine.modes:
            raise ConfigurationError(
                "wire backend replays crash faults only; the script has a "
                "Byzantine plan"
            )
        if not script.delivery.is_synchronous:
            raise ConfigurationError(
                "wire backend is round-synchronous; the script has a "
                f"delay-{script.delivery.max_delay} delivery schedule"
            )
        faulty = set(script.faulty)
        for node, (round_, _) in script.crashes.items():
            if node not in faulty:
                raise ConfigurationError(
                    f"script crashes node {node} outside its faulty set"
                )
            if not 0 <= node < self.n:
                raise ConfigurationError(
                    f"script crashes node {node}, but n={self.n}"
                )
            if round_ < 1:
                raise ConfigurationError(
                    f"script crashes node {node} in round {round_} (< 1)"
                )
        if len(faulty) > self.fault_budget():
            raise ConfigurationError(
                f"script has {len(faulty)} faulty nodes; the budget is "
                f"{self.fault_budget()}"
            )

    # ------------------------------------------------------------------
    # Node-side construction
    # ------------------------------------------------------------------

    def make_runtime(self, node_id: int) -> NodeRuntime:
        """Build node ``node_id``'s engine-faithful runtime."""
        return NodeRuntime(
            node_id,
            self.n,
            self.protocol_factory(self.seed)(node_id),
            RngFactory(self.seed).node_stream(node_id),
            knowledge=self.knowledge(),
            congest=CongestBudget(self.n),
        )

    # ------------------------------------------------------------------
    # JSON round-trip (spec travels to the node launcher as argv)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "protocol": self.protocol,
            "n": self.n,
            "alpha": self.alpha,
            "seed": self.seed,
            "inputs": self.inputs,
            "faulty_count": self.faulty_count,
            "extra_rounds": self.extra_rounds,
            "host": self.host,
            "heartbeat_interval": self.heartbeat_interval,
            "suspicion_threshold": self.suspicion_threshold,
            "round_timeout": self.round_timeout,
            "setup_timeout": self.setup_timeout,
            "trial_timeout": self.trial_timeout,
        }
        if self.script is not None:
            data["script"] = self.script.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WireSpec":
        script = data.get("script")
        if script is not None:
            data = {**data, "script": CrashScript.from_dict(script)}
        return super().from_dict(data)

    def with_(self, **changes: object) -> "WireSpec":
        """Copy with fields replaced (mirrors ``Params.with_``)."""
        return replace(self, **changes)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Protocol-output snapshots (what a node reports about itself)
# ----------------------------------------------------------------------


def snapshot_outputs(spec: WireSpec, protocol: Protocol) -> Dict[str, object]:
    """A node's protocol outputs as a JSON-safe dict.

    For crashed nodes this is taken in their crash round, *after* the
    step/transmit phases — the protocol object never runs again, so the
    snapshot equals its end-of-run state in the sim.
    """
    if spec.protocol == "election":
        return {
            "rank": protocol.rank,  # type: ignore[attr-defined]
            "is_candidate": protocol.is_candidate,  # type: ignore[attr-defined]
            "state": protocol.state.name,  # type: ignore[attr-defined]
            "leader_rank": protocol.leader_rank,  # type: ignore[attr-defined]
        }
    if spec.protocol == "agreement":
        return {
            "is_candidate": protocol.is_candidate,  # type: ignore[attr-defined]
            "decision": protocol.decision.name,  # type: ignore[attr-defined]
        }
    return {
        "decided": protocol.decided,  # type: ignore[attr-defined]
        "estimate": protocol.estimate,  # type: ignore[attr-defined]
    }


def _fake_protocol(spec: WireSpec, outputs: Mapping[str, object]) -> object:
    """Rehydrate a snapshot into the attribute surface the evaluators read."""
    if spec.protocol == "election":
        rank = outputs["rank"]
        leader_rank = outputs["leader_rank"]
        return SimpleNamespace(
            rank=int(rank) if rank is not None else None,  # type: ignore[arg-type]
            is_candidate=bool(outputs["is_candidate"]),
            state=NodeState[str(outputs["state"])],
            leader_rank=(
                int(leader_rank) if leader_rank is not None else None  # type: ignore[arg-type]
            ),
        )
    if spec.protocol == "agreement":
        return SimpleNamespace(
            is_candidate=bool(outputs["is_candidate"]),
            decision=Decision[str(outputs["decision"])],
        )
    decided = outputs["decided"]
    return SimpleNamespace(
        decided=int(decided) if decided is not None else None,  # type: ignore[arg-type]
        estimate=int(outputs["estimate"]),  # type: ignore[arg-type]
    )


# ----------------------------------------------------------------------
# Canonical outcomes — one dict shape for both backends
# ----------------------------------------------------------------------


def canonical_outcome(spec: WireSpec, result: object) -> Dict[str, object]:
    """Reduce a runner result / baseline outcome to the parity dict."""
    if spec.protocol == "election":
        return {
            "protocol": "election",
            "success": result.success,  # type: ignore[attr-defined]
            "strict_success": result.strict_success,  # type: ignore[attr-defined]
            "leader_node": result.leader_node,  # type: ignore[attr-defined]
            "elected_alive": list(result.elected_alive),  # type: ignore[attr-defined]
            "elected_crashed": list(result.elected_crashed),  # type: ignore[attr-defined]
            "candidates_all": list(result.candidates_all),  # type: ignore[attr-defined]
            "candidates_alive": list(result.candidates_alive),  # type: ignore[attr-defined]
            "beliefs": dict(result.beliefs),  # type: ignore[attr-defined]
            "ranks": dict(result.ranks),  # type: ignore[attr-defined]
            "crashed": dict(result.crashed),  # type: ignore[attr-defined]
            "faulty": sorted(result.faulty),  # type: ignore[attr-defined]
        }
    if spec.protocol == "agreement":
        return {
            "protocol": "agreement",
            "success": result.success,  # type: ignore[attr-defined]
            "decision": result.decision,  # type: ignore[attr-defined]
            "decisions": {
                u: d.name
                for u, d in sorted(result.decisions.items())  # type: ignore[attr-defined]
            },
            "candidates_all": list(result.candidates_all),  # type: ignore[attr-defined]
            "candidates_alive": list(result.candidates_alive),  # type: ignore[attr-defined]
            "crashed": dict(result.crashed),  # type: ignore[attr-defined]
            "faulty": sorted(result.faulty),  # type: ignore[attr-defined]
        }
    return {
        "protocol": "flooding",
        "success": result.success,  # type: ignore[attr-defined]
        "decisions": dict(sorted(result.decisions.items())),  # type: ignore[attr-defined]
        "crashed": dict(result.crashed),  # type: ignore[attr-defined]
        "faulty": sorted(result.faulty),  # type: ignore[attr-defined]
    }


def wire_outcome(
    spec: WireSpec,
    outputs: Mapping[int, Mapping[str, object]],
    crashed: Mapping[int, int],
    metrics: Metrics,
) -> Dict[str, object]:
    """Evaluate wire-gathered protocol outputs with the sim's evaluators.

    Builds a faithful :class:`RunResult` over rehydrated protocol
    snapshots and hands it to the *same* evaluation functions the sim
    runners use, so the success predicates are shared by construction.
    """
    missing = [u for u in range(spec.n) if u not in outputs]
    if missing:
        raise ConfigurationError(
            f"wire outcome needs outputs from every node; missing {missing}"
        )
    protocols = [_fake_protocol(spec, outputs[u]) for u in range(spec.n)]
    run = RunResult(
        n=spec.n,
        protocols=protocols,  # type: ignore[arg-type]
        metrics=metrics,
        trace=None,
        faulty=set(spec.faulty_set()),
        crashed=dict(crashed),
        rounds=metrics.rounds,
        horizon=metrics.horizon,
        max_delay=0,
    )
    return canonical_outcome(spec, evaluate(spec, run, spec.seed, spec.adversary()))


# ----------------------------------------------------------------------
# The sim reference run
# ----------------------------------------------------------------------


def sim_reference(
    spec: WireSpec, backend: str = "ref"
) -> Tuple[Metrics, Dict[str, object]]:
    """Run ``spec`` on the discrete-round simulator (the parity baseline):
    one run of the spec's own scenario, so both sides share its horizon."""
    result = execute(spec, spec.seed, spec.adversary(), backend=backend)
    return result.metrics, canonical_outcome(spec, result)


def metrics_dict(metrics: Metrics) -> Dict[str, object]:
    """The full accounting surface the parity oracle compares."""
    return {
        "messages_sent": metrics.messages_sent,
        "messages_delivered": metrics.messages_delivered,
        "messages_dropped": metrics.messages_dropped,
        "messages_expired": metrics.messages_expired,
        "bits_sent": metrics.bits_sent,
        "rounds": metrics.rounds,
        "horizon": metrics.horizon,
        "rounds_executed": metrics.rounds_executed,
        "crashes": metrics.crashes,
        "per_round_messages": list(metrics.per_round_messages),
        "per_kind_messages": dict(sorted(metrics.per_kind_messages.items())),
        "per_node_sent": dict(sorted(metrics.per_node_sent.items())),
        "delivery_latency": dict(sorted(metrics.delivery_latency.items())),
    }
