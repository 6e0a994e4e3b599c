"""Shared machinery of the vectorized engine backend.

Everything here exists to make the array engines *bit-compatible* with
the reference engine:

* :func:`mirror_sample` replays :meth:`repro.sim.node.Context.sample_nodes`
  draw-for-draw on a node's private rng stream;
* :func:`field_bits` is the closed form of the CONGEST field size used by
  :func:`repro.sim.message.payload_bits` (no log arithmetic in hot loops);
* :class:`LazyOutboxes` hands the *real* adversary objects the outbox of a
  crash victim in the reference engine's exact wire order, materialising
  real :class:`~repro.sim.message.Envelope` objects only on demand — so
  ``CrashOrder.keep()`` consumes the adversary rng in the identical
  sequence;
* :class:`VecEngineBase` drives the real :class:`~repro.faults.Adversary`
  (``select_faulty`` / ``plan_round`` / ``done``) against a mirrored
  :class:`~repro.faults.adversary.RoundView`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ...errors import SimulationError, VecUnsupported
from ...faults.adversary import Adversary, RoundView
from ...faults.strategies import (
    EagerCrash,
    LazyCrash,
    NoFaults,
    RandomCrash,
    RefereeCrash,
    SplitDeliveryCrash,
    StaggeredCrash,
)
from ...optdeps import require_numpy
from ...rng import RngFactory
from ...sim.message import Envelope
from ...sim.metrics import Metrics
from ...types import NodeId, Round

#: Adversary classes the vec backend reproduces exactly.  The check is by
#: exact type: a subclass may override ``plan_round`` in ways the mirrored
#: view does not cover, so it conservatively falls back to the reference
#: engine.
VEC_ADVERSARIES: Tuple[type, ...] = (
    Adversary,
    NoFaults,
    EagerCrash,
    LazyCrash,
    RandomCrash,
    StaggeredCrash,
    SplitDeliveryCrash,
    RefereeCrash,
)


def ensure_vec_supported(
    adversary: Adversary,
    *,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    timers: Optional[object] = None,
    delivery: Optional[object] = None,
    byzantine: Optional[object] = None,
) -> None:
    """Raise :class:`VecUnsupported` for configurations vec cannot mirror.

    Called before any engine state is built, so a caller may catch the
    error and fall back to the reference engine with zero side effects.
    """
    if type(adversary) not in VEC_ADVERSARIES:
        raise VecUnsupported(
            f"adversary {adversary.name()!r} ({type(adversary).__name__}) "
            "is not in the vec backend's exact-parity set"
        )
    if adversary.dynamic_selection:
        raise VecUnsupported("dynamic-selection adversaries are not vectorized")
    if collect_trace:
        raise VecUnsupported("trace collection requires the reference engine")
    if message_budget is not None:
        raise VecUnsupported("message budgets require the reference engine")
    if timers is not None:
        raise VecUnsupported("phase profiling requires the reference engine")
    if delivery is not None and getattr(delivery, "max_delay", 0):
        raise VecUnsupported("bounded-delay delivery requires the reference engine")
    if byzantine is not None and getattr(byzantine, "modes", None):
        raise VecUnsupported("Byzantine plans require the reference engine")


def mirror_sample(
    rng: random.Random, n: int, self_id: int, k: int
) -> List[int]:
    """Exact replay of ``Context.sample_nodes`` on a node's rng stream."""
    if k > (n - 1) // 2:
        candidates = [i for i in range(n) if i != self_id]
        return rng.sample(candidates, k)
    sampled: List[int] = []
    seen = {self_id}
    randrange = rng.randrange
    seen_add = seen.add
    append = sampled.append
    while len(sampled) < k:
        pick = randrange(n)
        if pick not in seen:
            seen_add(pick)
            append(pick)
    return sampled


def field_bits(value: int) -> int:
    """CONGEST size of one non-None integer field.

    Closed form of ``max(1, ceil(log2(|v| + 2)))`` for ``v >= 0``:
    ``(v + 1).bit_length()``.
    """
    return (value + 1).bit_length()


class LazyOutboxes(Mapping):
    """The ``RoundView.outboxes`` mapping, materialised on demand.

    The reference engine only tracks outboxes of faulty senders (static
    selection), so the mapping's domain is the faulty alive nodes that
    transmitted this round; each value is the sender's wire batch in the
    reference engine's exact envelope order.
    """

    def __init__(self, engine: "VecEngineBase", round_: Round) -> None:
        self._engine = engine
        self._round = round_

    def __getitem__(self, sender: NodeId) -> Sequence[Envelope]:
        outbox = self._engine._outbox_envelopes(sender, self._round)
        if not outbox:
            raise KeyError(sender)
        return outbox

    def get(self, sender: NodeId, default: Any = None) -> Any:
        outbox = self._engine._outbox_envelopes(sender, self._round)
        return outbox if outbox else default

    def __contains__(self, sender: object) -> bool:
        if not isinstance(sender, int):
            return False
        return bool(self._engine._outbox_envelopes(sender, self._round))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._engine._outbox_senders(self._round))

    def __len__(self) -> int:
        return len(self._engine._outbox_senders(self._round))


class VecEngineBase:
    """Adversary plumbing shared by the protocol-specific array engines.

    Subclasses provide three hooks:

    * ``_outbox_envelopes(sender, r)`` — the sender's transmitted wire
      batch this round as real envelopes, in reference wire order;
    * ``_outbox_senders(r)`` — faulty alive senders with a non-empty batch;
    * ``_discard_queues(victim, r)`` — drop the victim's untransmitted
      backlog from the queued-total bookkeeping.
    """

    n: int

    def _init_adversary(
        self,
        seed: int,
        adversary: Adversary,
        max_faulty: int,
        inputs: Optional[Sequence[int]],
    ) -> None:
        self.seed = seed
        self.rngs = RngFactory(seed)
        self.adversary = adversary
        self.max_faulty = max_faulty
        self._adversary_rng = self.rngs.adversary_stream()
        self.faulty: Set[NodeId] = set(
            adversary.select_faulty(self.n, max_faulty, self._adversary_rng, inputs)
        )
        if len(self.faulty) > max_faulty:
            raise SimulationError(
                f"adversary selected {len(self.faulty)} faulty nodes, "
                f"budget is {max_faulty}"
            )
        self.crashed: Dict[NodeId, Round] = {}
        self.metrics = Metrics()
        self._round: Round = 0
        self._outbox_cache: Dict[NodeId, List[Envelope]] = {}
        self._alive_faulty: Set[NodeId] = set()
        self._alive_faulty_crashes = -1  # crash count it was built at

    # -- hooks ----------------------------------------------------------

    def _outbox_envelopes(self, sender: NodeId, r: Round) -> List[Envelope]:
        raise NotImplementedError

    def _outbox_senders(self, r: Round) -> List[NodeId]:
        raise NotImplementedError

    def _discard_queues(self, victim: NodeId, r: Round) -> None:
        raise NotImplementedError

    # -- adversary driving ----------------------------------------------

    def _faulty_alive(self) -> Set[NodeId]:
        # Crashes only accumulate, so the set changes only when
        # ``crashed`` grows; a fresh set (never mutated in place) keeps
        # every earlier view's snapshot intact.
        if len(self.crashed) != self._alive_faulty_crashes:
            self._alive_faulty_crashes = len(self.crashed)
            self._alive_faulty = {
                u for u in self.faulty if u not in self.crashed
            }
        return self._alive_faulty

    def _view(self, outboxes: Optional[Mapping] = None) -> RoundView:
        return RoundView(
            round=self._round,
            n=self.n,
            faulty_alive=self._faulty_alive(),
            crashed=self.crashed,
            outboxes={} if outboxes is None else outboxes,
            protocols=(),
            budget_remaining=max(0, self.max_faulty - len(self.faulty)),
        )

    def _adversary_done(self) -> bool:
        return self.adversary.done(self._view())

    def _crash_phase(self, r: Round) -> Set[Tuple[NodeId, NodeId]]:
        """Run ``plan_round`` and process the orders; return dropped edges.

        Mirrors the reference engine: the victim's transmitted batch this
        round is filtered per envelope by ``order.keep`` (in wire order —
        this is where ``keep_fraction`` consumes the adversary rng), its
        untransmitted backlog is discarded, and drops are keyed by edge
        (CONGEST: unique per round).
        """
        self._outbox_cache = {}
        view = self._view(LazyOutboxes(self, r))
        orders = self.adversary.plan_round(view, self._adversary_rng)
        dropped: Set[Tuple[NodeId, NodeId]] = set()
        for victim, order in orders.items():
            if victim not in self.faulty:
                raise SimulationError(
                    f"adversary crashed non-faulty node {victim}"
                )
            if victim in self.crashed:
                continue
            self.crashed[victim] = r
            self.metrics.record_crash()
            self._discard_queues(victim, r)
            for envelope in self._outbox_envelopes(victim, r):
                if not order.keep(envelope):
                    dropped.add((envelope.src, envelope.dst))
                    self.metrics.record_drop()
        return dropped

    def _cached_outbox(self, sender: NodeId, build) -> List[Envelope]:
        outbox = self._outbox_cache.get(sender)
        if outbox is None:
            outbox = self._outbox_cache[sender] = build()
        return outbox

    def _finalize_metrics(self, total_rounds: Round) -> None:
        metrics = self.metrics
        metrics.rounds = metrics.rounds_executed
        metrics.horizon = total_rounds


def np_module() -> Any:
    """The numpy module (raises :class:`BackendUnavailable` when absent)."""
    return require_numpy()
