"""Trial drivers: real node processes over TCP, and an in-process twin.

:func:`run_wire_trial` is the headline entry point.  It binds the
coordinator's listening socket, starts one *launcher* interpreter
(``python -m repro.net.node``, in its own process group) that forks the
trial's ``n`` node processes, runs the
:class:`~repro.net.rounds.WireCoordinator` under the spec's overall
``trial_timeout``, and **always** tears the fleet down — a wire trial
ends in a result or a journalled failure, never a hang or an orphaned
process.  Teardown closes the launcher's stdin; the launcher reaps its
nodes and reports their exit statuses (``WireTrialResult.exits``), and a
SIGKILL to its process group then sweeps up whatever a launcher that
died early left behind.  The result carries the same :class:`Metrics`
object and canonical outcome dict the sim runners produce, which is what
the parity oracle diffs.

:func:`run_loopback_trial` is the transport-free twin: the same
:class:`~repro.sim.adapter.NodeRuntime` per node and the same
:class:`~repro.net.rounds.RoundAccountant`, with message passing done by
plain dict shuffling in one process.  It exercises every accounting and
canonicalisation path of the wire backend at sim speed, so the tier-1
test suite can sweep the full parity grid without paying for sockets and
process spawns; the socket tests then only need to cover the transport
itself.

Journal layout (``journal_dir``)::

    launcher.log        the launcher's stderr
    node-<u>.log        per-node stdout and stderr (tracebacks)
    coordinator.jsonl   one JSON object per control-plane event, each
                        with ``ts``: monotonic seconds since the trial began
    result.json         the trial verdict, metrics, outcome and exits
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import WireError
from ..sim.message import Delivery
from ..sim.metrics import Metrics
from .faults import WireFaultPlan, kill_node
from .rounds import RoundAccountant, WireCoordinator, WireRunSummary
from .spec import WireSpec, metrics_dict, snapshot_outputs, wire_outcome


@dataclass
class WireTrialResult:
    """Outcome of one wire (or loopback) trial.

    ``ok`` is the *system* verdict — the trial ran to completion and all
    cross-checks held.  The *protocol* verdict lives in
    ``outcome["success"]``, same as in the sim: a scripted run where the
    protocol loses is still a successful trial.
    """

    ok: bool
    reason: str
    spec: WireSpec
    backend: str
    metrics: Optional[Metrics] = None
    outcome: Optional[Dict[str, object]] = None
    crashed: Dict[int, int] = field(default_factory=dict)
    rounds: int = 0
    horizon: int = 0
    journal_dir: Optional[str] = None
    frames: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Node exit statuses reported by the launcher, ``Popen.returncode``
    #: style: 0 for a clean exit, ``-9`` for a SIGKILL.
    exits: Dict[int, int] = field(default_factory=dict)

    def metrics_dict(self) -> Optional[Dict[str, object]]:
        return metrics_dict(self.metrics) if self.metrics is not None else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "backend": self.backend,
            "spec": self.spec.to_dict(),
            "metrics": self.metrics_dict(),
            "outcome": self.outcome,
            "crashed": dict(self.crashed),
            "rounds": self.rounds,
            "horizon": self.horizon,
            "journal_dir": self.journal_dir,
            "frames": {str(u): f for u, f in sorted(self.frames.items())},
            "exits": {str(u): s for u, s in sorted(self.exits.items())},
        }


def _source_root() -> Path:
    """The directory to put on the launcher's ``PYTHONPATH``."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def _start_launcher(
    spec: WireSpec, coord: str, journal_dir: Path
) -> "subprocess.Popen[bytes]":
    """Start the interpreter that forks the trial's node processes.

    It runs in a new session, so its process group holds exactly the
    launcher and its nodes.  stdin stays open until teardown; stdout
    carries one JSON line of exit statuses at the end.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_source_root()) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    spec_json = json.dumps(spec.to_dict(), separators=(",", ":"))
    with open(journal_dir / "launcher.log", "wb") as log:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.net.node",
                str(journal_dir.resolve()),
                coord,
                spec_json,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
            start_new_session=True,
        )


#: Seconds teardown waits for the launcher's exit-status report: its
#: nodes' exit grace plus reaping, with room for a loaded machine.
_REPORT_TIMEOUT = 10.0


def _stop_launcher(launcher: "subprocess.Popen[bytes]") -> Dict[int, int]:
    """Close the launcher's stdin and return the node exit statuses it
    reports (empty if it died first or missed ``_REPORT_TIMEOUT``).

    Then SIGKILL its process group: a no-op after a clean report, the
    orphan sweep after a launcher that died early.  The launcher is
    reaped last, so its pid — the group id — cannot have been reused.
    """
    assert launcher.stdin is not None and launcher.stdout is not None
    launcher.stdin.close()
    line = b""
    if select.select([launcher.stdout], [], [], _REPORT_TIMEOUT)[0]:
        line = launcher.stdout.readline()
    try:
        os.killpg(launcher.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    launcher.wait()
    launcher.stdout.close()
    try:
        reported = json.loads(line)["exits"]
    except (ValueError, KeyError, TypeError):
        return {}
    return {int(u): int(status) for u, status in reported.items()}


async def _supervise(
    coordinator: WireCoordinator,
    server_socket: socket.socket,
    launcher: "subprocess.Popen[bytes]",
    timeout: float,
) -> WireRunSummary:
    """Run the coordinator under ``timeout``, failing fast if the
    launcher dies mid-trial (its stdout reaches EOF only when it exits,
    and it reports nothing before teardown)."""
    assert launcher.stdout is not None
    loop = asyncio.get_running_loop()
    launcher_gone = loop.create_future()

    def on_launcher_output() -> None:
        if not launcher_gone.done():
            launcher_gone.set_result(None)

    fd = launcher.stdout.fileno()
    loop.add_reader(fd, on_launcher_output)
    trial = asyncio.ensure_future(
        asyncio.wait_for(coordinator.run(server_socket), timeout=timeout)
    )
    try:
        await asyncio.wait(
            {trial, launcher_gone}, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        loop.remove_reader(fd)
    if not trial.done():
        trial.cancel()
        await asyncio.gather(trial, return_exceptions=True)
        raise WireError(
            f"node launcher (pid {launcher.pid}) exited before the trial "
            "ended"
        )
    return trial.result()


def run_wire_trial(
    spec: WireSpec,
    *,
    journal_dir: Optional[str] = None,
    kill_after: Optional[Tuple[int, int]] = None,
) -> WireTrialResult:
    """Run one real-network trial: ``n`` OS processes, TCP, SIGKILLs.

    Never raises for trial-level faults and never hangs: system failures
    (including an exhausted ``trial_timeout`` and a launcher that dies
    mid-trial) come back as a ``WireTrialResult`` with ``ok=False`` and
    the journals intact.
    """
    started = time.monotonic()
    spec.validate()
    journal_path = Path(
        journal_dir
        if journal_dir is not None
        else tempfile.mkdtemp(prefix="repro-wire-")
    )
    journal_path.mkdir(parents=True, exist_ok=True)

    server_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server_socket.bind((spec.host, 0))
    server_socket.listen(spec.n)
    coord = f"{spec.host}:{server_socket.getsockname()[1]}"

    events: List[Dict[str, Any]] = []

    def journal(event: Dict[str, Any]) -> None:
        events.append({"ts": round(time.monotonic() - started, 6), **event})

    coordinator = WireCoordinator(
        spec,
        kill=lambda u: kill_node(coordinator.pids[u]),
        journal=journal,
        kill_after=kill_after,
    )
    launcher: "Optional[subprocess.Popen[bytes]]" = None
    result = WireTrialResult(
        ok=False,
        reason="trial did not start",
        spec=spec,
        backend="wire",
        journal_dir=str(journal_path),
    )
    try:
        launcher = _start_launcher(spec, coord, journal_path)
        journal({"event": "launched", "pid": launcher.pid})
        try:
            summary = asyncio.run(
                _supervise(
                    coordinator, server_socket, launcher, spec.trial_timeout
                )
            )
        except WireError as exc:
            result.reason = str(exc)
        except asyncio.TimeoutError:
            result.reason = (
                f"trial timed out after {spec.trial_timeout:.1f}s "
                "(coordinator deadline)"
            )
        except Exception as exc:  # noqa: BLE001 — journalled, not hidden
            result.reason = f"{type(exc).__name__}: {exc}"
        else:
            result.ok = True
            result.reason = ""
            result.metrics = summary.metrics
            result.outcome = summary.outcome
            result.crashed = summary.crashed
            result.rounds = summary.rounds
            result.horizon = summary.horizon
            result.frames = summary.frames
        if not result.ok:
            result.crashed = dict(coordinator.accountant.crashed)
            result.rounds = coordinator.accountant.metrics.rounds_executed
    finally:
        if launcher is not None:
            result.exits = _stop_launcher(launcher)
            journal({"event": "reaped"})
        try:
            server_socket.close()
        except OSError:
            pass
        _write_journals(journal_path, events, result)
    return result


def _write_journals(
    journal_path: Path, events: List[Dict[str, Any]], result: WireTrialResult
) -> None:
    with open(journal_path / "coordinator.jsonl", "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")
    with open(journal_path / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# The in-process twin
# ----------------------------------------------------------------------


def run_loopback_trial(spec: WireSpec) -> WireTrialResult:
    """The wire backend minus the wires: same runtimes, same accountant,
    message passing by dict.  Raises ``WireError`` on internal
    inconsistencies (there is no journal to fail into)."""
    spec.validate()
    plan = WireFaultPlan.from_script(spec.script)
    accountant = RoundAccountant(spec.n, plan)
    runtimes = {u: spec.make_runtime(u) for u in range(spec.n)}
    outputs: Dict[int, Dict[str, Any]] = {}
    # mail[u]: data frames deposited for u's next round, as (src, Message).
    mail: Dict[int, List[Any]] = {u: [] for u in range(spec.n)}
    horizon = spec.horizon()
    for round_ in range(1, horizon + 1):
        if accountant.quiescent_at(round_):
            break
        expects, crashers = accountant.begin_round(round_)
        next_mail: Dict[int, List[Any]] = {u: [] for u in range(spec.n)}
        reports: Dict[int, Dict[str, Any]] = {}
        for u in accountant.alive():
            runtime = runtimes[u]
            entries = mail[u]
            mail[u] = []
            if len(entries) != expects[u]:
                raise WireError(
                    f"loopback: node {u} holds {len(entries)} frames for "
                    f"round {round_}, accountant expected {expects[u]}"
                )
            entries.sort(key=lambda entry: entry[0])
            deliveries = [
                Delivery(src, message, round_) for src, message in entries
            ]
            if runtime.should_step(round_, bool(deliveries)):
                runtime.step(round_, deliveries)
            envelopes = runtime.transmit(round_)
            filter_ = crashers.get(u)
            sent: List[List[Any]] = []
            for envelope in envelopes:
                kept = True if filter_ is None else filter_.keep(envelope)
                if kept:
                    next_mail[envelope.dst].append(
                        (envelope.src, envelope.message)
                    )
                sent.append(
                    [
                        envelope.dst,
                        envelope.message.kind,
                        envelope.message.bits,
                        kept,
                    ]
                )
            reports[u] = {
                "r": round_,
                "sent": sent,
                "next_wake": runtime.next_wake,
                "backlog": runtime.backlog,
                "halted": runtime.halted,
            }
            if filter_ is not None:
                outputs[u] = snapshot_outputs(spec, runtime.protocol)
                runtime.discard_backlog()
        accountant.finish_round(round_, reports)
        # Frames addressed to a receiver that just crashed vanish on the
        # wire too (the corpse's listener is gone).
        for u in accountant.crashed:
            next_mail[u] = []
        mail = next_mail
    metrics = accountant.finalize(horizon)
    for u in accountant.alive():
        runtimes[u].stop(metrics.rounds_executed)
        outputs[u] = snapshot_outputs(spec, runtimes[u].protocol)
    outcome = wire_outcome(spec, outputs, accountant.crashed, metrics)
    return WireTrialResult(
        ok=True,
        reason="",
        spec=spec,
        backend="loopback",
        metrics=metrics,
        outcome=outcome,
        crashed=dict(accountant.crashed),
        rounds=metrics.rounds_executed,
        horizon=horizon,
    )
