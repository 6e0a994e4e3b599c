"""Node processes: ``python -m repro.net.node`` forks them all.

One OS process per model node, all forked from one *launcher*
interpreter per trial.  The launcher imports this module (and through it
the protocol code) once, then forks the trial's ``n`` nodes; a node
never pays an interpreter start or an import of its own.  Each forked
node rebuilds its protocol runtime from ``(spec, node_id)`` alone
(hash-derived RNG streams make that deterministic across machines),
serves a TCP listener for inbound data frames, and obeys the
coordinator's control frames:

``peers``
    The port map.  After this the node can dial any peer lazily.
``round`` (``r``, ``expect``, optional ``crash``)
    Wait until exactly ``expect`` data frames for arrival round ``r`` are
    buffered, deliver them to the protocol in ascending sender order (the
    engine's inbox order), transmit this round's envelopes to peers, and
    report back.  A ``crash`` filter marks this node a scripted victim:
    it physically sends only the filter-kept envelopes and its report
    carries a final output snapshot — the coordinator SIGKILLs it right
    after the report, so the snapshot is the node's last word.
``stop`` (``last_round``, ``expect_total``)
    Wait for the run's full delivered-frame count (late final-round
    frames are still in flight when the control frame arrives), run
    ``on_stop``, and answer with outputs and frame counters.

The node's ``hello`` frame carries its pid, which is how the coordinator
knows whom to SIGKILL.  The node never sleeps its way around races:
every wait is a bounded condition wait (``round_timeout``), every
failure path raises, and the traceback lands on stderr — which the
launcher redirects into the per-node journal file ``node-<u>.log``.
Coordinator EOF means the trial is over (success or not); the node
simply exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, NoReturn, Optional, Tuple

from ..chaos.script import DeliveryFilter
from ..errors import WireError
from ..sim.adapter import NodeRuntime
from ..sim.message import Delivery, Message
from .comm import FrameStream, PeerBook, connect_with_backoff, split_host_port
from .heartbeat import HeartbeatSender
from .spec import WireSpec, snapshot_outputs


class InboxBuffer:
    """Buffered inbound data frames, keyed by arrival round.

    Peers send ahead: a fast sender's round-``r`` frames can arrive while
    this node still works on round ``r - 1`` (or has not even received
    the round frame yet).  The buffer absorbs them; :meth:`take` blocks
    until the coordinator-announced count for a round is present.
    """

    def __init__(self) -> None:
        self._by_round: Dict[int, List[Tuple[int, Message]]] = {}
        self.total_received = 0
        self._cond = asyncio.Condition()

    async def serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Connection handler for the node's peer listener."""
        stream = FrameStream(reader, writer)
        while True:
            try:
                frame = await stream.recv()
            except WireError:
                return  # malformed peer stream; drop the connection
            except asyncio.CancelledError:
                # The node is exiting and asyncio.run cancels this handler.
                # Python 3.11-3.12 log a cancelled connection handler as
                # an error (3.13 does not), burying real tracebacks in
                # node-<u>.log; nothing awaits this task, so returning
                # loses no cancellation.
                return
            if frame is None:
                return
            if frame.get("t") != "m":
                continue
            arrival = int(frame["ar"])  # type: ignore[arg-type]
            src = int(frame["src"])  # type: ignore[arg-type]
            fields = tuple(frame.get("f", ()))  # type: ignore[arg-type]
            message = Message(str(frame["k"]), fields)
            async with self._cond:
                self._by_round.setdefault(arrival, []).append((src, message))
                self.total_received += 1
                self._cond.notify_all()

    async def take(
        self, round_: int, count: int, timeout: float
    ) -> List[Tuple[int, Message]]:
        """Pop round ``round_``'s frames once ``count`` have arrived,
        sorted ascending by sender (the engine's delivery order)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        async with self._cond:
            while len(self._by_round.get(round_, ())) < count:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    have = len(self._by_round.get(round_, ()))
                    raise WireError(
                        f"round {round_}: expected {count} data frames, "
                        f"only {have} arrived within {timeout:.1f}s"
                    )
                try:
                    await asyncio.wait_for(self._cond.wait(), remaining)
                except asyncio.TimeoutError:
                    continue
            entries = self._by_round.pop(round_, [])
        entries.sort(key=lambda entry: entry[0])
        return entries

    async def wait_total(self, count: int, timeout: float) -> None:
        """Block until the lifetime received count reaches ``count``
        (the coordinator's delivered-to-us total)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        async with self._cond:
            while self.total_received < count:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise WireError(
                        f"expected {count} delivered frames in total, got "
                        f"{self.total_received} within {timeout:.1f}s"
                    )
                try:
                    await asyncio.wait_for(self._cond.wait(), remaining)
                except asyncio.TimeoutError:
                    continue


class WireNode:
    """The round loop of one node process."""

    def __init__(self, node_id: int, spec: WireSpec) -> None:
        self.node_id = node_id
        self.spec = spec
        self.runtime: NodeRuntime = spec.make_runtime(node_id)
        #: Made in :meth:`run`, on the running loop: Python 3.9 binds an
        #: asyncio primitive to a loop when it is constructed.
        self.inbox: InboxBuffer
        self._peers: Optional[PeerBook] = None

    async def run(self, coord_host: str, coord_port: int) -> None:
        spec = self.spec
        self.inbox = InboxBuffer()
        server = await asyncio.start_server(
            self.inbox.serve, host=spec.host, port=0
        )
        listen_port = server.sockets[0].getsockname()[1]
        control = await connect_with_backoff(coord_host, coord_port)
        heartbeat = HeartbeatSender(
            control, self.node_id, spec.heartbeat_interval
        )
        heartbeat_task = asyncio.create_task(heartbeat.run())
        try:
            await control.send(
                {
                    "t": "hello",
                    "node": self.node_id,
                    "port": listen_port,
                    "pid": os.getpid(),
                }
            )
            await self._control_loop(control)
        finally:
            heartbeat.stop()
            heartbeat_task.cancel()
            try:
                await heartbeat_task
            except asyncio.CancelledError:
                pass
            if self._peers is not None:
                self._peers.close()
            control.close()
            server.close()
            await server.wait_closed()

    async def _control_loop(self, control: FrameStream) -> None:
        spec = self.spec
        frame = await control.recv()
        if frame is None:
            return  # trial torn down before it started
        if frame.get("t") != "peers":
            raise WireError(f"expected peers frame, got {frame!r}")
        ports = {
            int(u): int(p)
            for u, p in frame["ports"].items()  # type: ignore[union-attr]
        }
        self._peers = PeerBook(spec.host, ports)
        while True:
            frame = await control.recv()
            if frame is None:
                return  # coordinator gone; nothing more to do
            tag = frame.get("t")
            if tag == "round":
                await self._run_round(control, frame)
            elif tag == "stop":
                await self._finish(control, frame)
                return
            else:
                raise WireError(f"unexpected control frame {frame!r}")

    async def _run_round(
        self, control: FrameStream, frame: Dict[str, Any]
    ) -> None:
        spec = self.spec
        runtime = self.runtime
        peers = self._peers
        assert peers is not None
        round_ = int(frame["r"])
        expect = int(frame["expect"])
        entries = await self.inbox.take(round_, expect, spec.round_timeout)
        deliveries = [
            Delivery(src, message, round_) for src, message in entries
        ]
        if runtime.should_step(round_, bool(deliveries)):
            runtime.step(round_, deliveries)
        envelopes = runtime.transmit(round_)
        crash_raw = frame.get("crash")
        filter_: Optional[DeliveryFilter] = (
            DeliveryFilter.from_dict(crash_raw)  # type: ignore[arg-type]
            if crash_raw is not None
            else None
        )
        sent: List[List[Any]] = []
        for envelope in envelopes:
            kept = True if filter_ is None else filter_.keep(envelope)
            if kept:
                # Best effort: a dead destination still counts as a model
                # send (the accountant classifies it expired).
                await peers.send(
                    envelope.dst,
                    {
                        "t": "m",
                        "ar": round_ + 1,
                        "src": envelope.src,
                        "k": envelope.message.kind,
                        "f": list(envelope.message.fields),
                    },
                )
            sent.append(
                [envelope.dst, envelope.message.kind, envelope.message.bits, kept]
            )
        report: Dict[str, Any] = {
            "t": "report",
            "r": round_,
            "sent": sent,
            "next_wake": runtime.next_wake,
            "backlog": runtime.backlog,
            "halted": runtime.halted,
        }
        if filter_ is not None:
            # Scripted victim: freeze the final outputs into the report —
            # SIGKILL lands right after the coordinator reads it.
            report["outputs"] = snapshot_outputs(spec, runtime.protocol)
            runtime.discard_backlog()
        await control.send(report)

    async def _finish(
        self, control: FrameStream, frame: Dict[str, Any]
    ) -> None:
        spec = self.spec
        last_round = int(frame["last_round"])
        expect_total = int(frame["expect_total"])
        await self.inbox.wait_total(expect_total, spec.round_timeout)
        self.runtime.stop(last_round)
        peers = self._peers
        await control.send(
            {
                "t": "bye",
                "outputs": snapshot_outputs(spec, self.runtime.protocol),
                "received": self.inbox.total_received,
                "frames_sent": peers.frames_sent if peers is not None else 0,
            }
        )


#: Seconds the launcher gives its nodes to exit on their own once the
#: driver closes its stdin; nodes still running after that are SIGKILLed.
#: An ok trial's survivors exit within milliseconds of their ``bye``.
EXIT_GRACE = 0.5


def _node_process(
    node_id: int, spec: WireSpec, host: str, port: int, journal_dir: Path
) -> NoReturn:
    """Body of one forked node: journal to ``node-<u>.log``, run, exit.

    Never returns into the launcher's code: every path ends in
    ``os._exit`` — 0 after a clean run, 1 after a journalled traceback.
    """
    code = 1
    try:
        log = os.open(
            journal_dir / f"node-{node_id}.log",
            os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
            0o644,
        )
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        asyncio.run(WireNode(node_id, spec).run(host, port))
        code = 0
    except Exception:  # journaled: stderr is the per-node journal
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _reap(pids: Dict[int, int]) -> Dict[int, int]:
    """Wait up to ``EXIT_GRACE`` for the nodes to exit, SIGKILL the rest,
    reap all; return their exit statuses (``Popen.returncode`` style:
    ``-signal`` for a death by signal)."""
    exits: Dict[int, int] = {}
    deadline = time.monotonic() + EXIT_GRACE
    for u, pid in pids.items():
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.002)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        exits[u] = os.waitstatus_to_exitcode(status)
    return exits


def main(argv: Optional[List[str]] = None) -> int:
    """The launcher: ``python -m repro.net.node JOURNAL_DIR HOST:PORT SPEC``.

    ``SPEC`` is the trial's :class:`WireSpec` as a JSON object.  Forks
    the ``n`` nodes, then blocks reading stdin.  The driver closes stdin
    at teardown (or dies, which closes it too); the launcher then reaps
    every node (:func:`_reap`), prints ``{"exits": {"<u>": status}}`` as
    one JSON line on stdout, and exits.  It reaps nothing before that,
    so a pid the coordinator SIGKILLs can never have been reused.
    """
    journal_dir, coord, spec_json = sys.argv[1:] if argv is None else argv
    spec = WireSpec.from_dict(json.loads(spec_json))
    host, port = split_host_port(coord)
    spec.protocol_factory(spec.seed)  # import the protocol once, pre-fork
    pids: Dict[int, int] = {}
    try:
        for u in range(spec.n):
            pid = os.fork()
            if pid == 0:
                _node_process(u, spec, host, port, Path(journal_dir))
            pids[u] = pid
        sys.stdin.buffer.read()
    finally:
        exits = _reap(pids)
    report = {"exits": {str(u): s for u, s in sorted(exits.items())}}
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
