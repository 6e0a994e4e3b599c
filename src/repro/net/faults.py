"""Real fault injection from chaos :class:`~repro.chaos.script.CrashScript`s.

The chaos layer already describes crash faults declaratively: *node v
crashes in round r, and this deterministic filter decides which of its
final-round messages survive*.  The sim replays that inside the engine;
here the same script drives **real SIGKILLs**:

* The coordinator tells the victim its crash order inside the round-``r``
  control frame.  The victim steps and transmits normally, but applies
  the script's :class:`DeliveryFilter` to its own outgoing wire messages
  — it physically sends only the kept ones ("kill-after-k-sends": the
  partial final-round delivery the model demands, realised by sending
  exactly ``k`` frames and then dying).
* The victim's crash-round report carries a snapshot of its protocol
  outputs (its state can never change again), then the coordinator
  delivers ``SIGKILL`` — no cooperative shutdown, the process is gone
  mid-event-loop exactly like a machine loss.
* The coordinator *also* replays the filter per edge (filters are pure
  functions of ``(src, dst)``) and fails the trial on any divergence
  from what the victim claims it sent, so a buggy victim cannot forge
  its own partial delivery.

:class:`WireFaultPlan` is the validated, coordinator-side view of the
script; :func:`kill_node` is the actual injector.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..chaos.script import CrashScript, DeliveryFilter
from ..errors import WireError
from ..types import NodeId, Round


@dataclass(frozen=True)
class WireFaultPlan:
    """Coordinator-side crash schedule distilled from a ``CrashScript``."""

    faulty: Tuple[NodeId, ...] = ()
    crashes: Mapping[NodeId, Tuple[Round, DeliveryFilter]] = field(
        default_factory=dict
    )

    @classmethod
    def from_script(cls, script: Optional[CrashScript]) -> "WireFaultPlan":
        """Distil ``script`` (already validated by ``WireSpec.validate``)."""
        if script is None:
            return cls()
        return cls(faulty=tuple(script.faulty), crashes=dict(script.crashes))

    def crashers_at(
        self, round_: Round, crashed: Mapping[NodeId, Round]
    ) -> Dict[NodeId, DeliveryFilter]:
        """Victims scheduled for ``round_`` that have not crashed yet.

        Mirrors ``CrashScript.plan_round`` (same round-equality match,
        same already-crashed skip).
        """
        return {
            node: filter_
            for node, (r, filter_) in self.crashes.items()
            if r == round_ and node not in crashed
        }

    def done(self, round_: Round, crashed: Mapping[NodeId, Round]) -> bool:
        """No crash pending at or after ``round_`` — mirrors
        ``CrashScript.done``, which gates the engine's quiescence
        fast-forward."""
        return not any(
            r >= round_ and node not in crashed
            for node, (r, _) in self.crashes.items()
        )

    @property
    def last_crash_round(self) -> Round:
        return max((r for r, _ in self.crashes.values()), default=0)


def kill_node(pid: int) -> None:
    """Deliver the crash fault: SIGKILL node process ``pid``, no warning,
    no cleanup handler.

    ``pid`` is the one the node announced in its ``hello`` frame.  The
    launcher that forked the node reaps it only at teardown, so until
    then the pid names that node alone — alive, or a zombie that ignores
    the signal.  Reaping is the launcher's job, not the coordinator's.
    """
    if pid <= 0:
        raise WireError(f"refusing to signal pid {pid}")
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone — the fault beat us to it


def check_report_against_filter(
    node: NodeId,
    round_: Round,
    filter_: DeliveryFilter,
    sent: object,
) -> None:
    """Fail the trial if a victim's claimed kept-set diverges from the
    script's filter (the coordinator replays ``keep`` per edge).

    ``sent`` is the report's entry list ``[[dst, kind, bits, kept], ...]``.
    """
    from ..sim.message import Envelope, Message

    for entry in sent:  # type: ignore[attr-defined]
        dst, kind, _bits, kept = entry
        envelope = Envelope(node, int(dst), Message(str(kind), ()), round_)
        expected = filter_.keep(envelope)
        if bool(kept) != expected:
            raise WireError(
                f"node {node} round {round_}: filter divergence on edge "
                f"->{dst} (reported kept={bool(kept)}, script says "
                f"{expected})"
            )
