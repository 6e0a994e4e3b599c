"""Real-process wire trials: parity over actual TCP, SIGKILL detection.

Each trial starts one launcher interpreter (``python -m repro.net.node``)
that forks one OS process per node, so these run slower than the
loopback suite — sizes stay small and the heartbeat settings are tuned
fast so no test waits longer than the detector bound on any code path.
"""

import json
import os
import signal
import socket
import time
from pathlib import Path

import pytest

import repro.net.driver as driver
from repro.net import WireSpec, default_script, run_parity_trial, run_wire_trial

# Fast transport settings: 50 ms beats. Parity trials use a generous
# suspicion bound (they must never false-positive under CI jitter); the
# kill-detection trial uses a tight one (0.3 s) so detection is quick.
FAST = dict(heartbeat_interval=0.05, suspicion_threshold=40, trial_timeout=120.0)
DETECT = dict(heartbeat_interval=0.05, suspicion_threshold=6, round_timeout=10.0)


class TestWireParity:
    def test_fault_free_election_matches_sim(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **FAST)
        report = run_parity_trial(
            spec, backend="wire", journal_dir=str(tmp_path / "journal")
        )
        assert report.ok, "\n".join(report.diffs)
        assert report.wire_metrics == report.sim_metrics
        assert report.wire_outcome == report.sim_outcome

    def test_scripted_sigkill_agreement_matches_sim(self, tmp_path):
        spec = WireSpec(protocol="agreement", n=8, seed=0, **FAST)
        spec = spec.with_(script=default_script(spec))
        report = run_parity_trial(
            spec, backend="wire", journal_dir=str(tmp_path / "journal")
        )
        assert report.ok, "\n".join(report.diffs)
        # The SIGKILLs really happened and were accounted.
        assert report.trial.crashed
        assert report.wire_metrics["crashes"] == len(report.trial.crashed)

    def test_scripted_flooding_matches_sim(self, tmp_path):
        spec = WireSpec(protocol="flooding", n=8, seed=0, inputs="mixed", **FAST)
        spec = spec.with_(script=default_script(spec))
        report = run_parity_trial(
            spec, backend="wire", journal_dir=str(tmp_path / "journal")
        )
        assert report.ok, "\n".join(report.diffs)


class TestKillDetection:
    def test_unscripted_sigkill_fails_the_trial_via_the_detector(self, tmp_path):
        """An unexpected death must journal a failed trial, not hang."""
        spec = WireSpec(protocol="election", n=8, seed=0, **DETECT)
        started = time.monotonic()
        trial = run_wire_trial(
            spec, journal_dir=str(tmp_path / "journal"), kill_after=(3, 2)
        )
        elapsed = time.monotonic() - started
        assert not trial.ok
        assert "heartbeat detector suspects node(s) [3]" in trial.reason
        # Failed fast: well within the trial timeout, bounded by the
        # detector (0.3 s) plus round/teardown overhead.
        assert elapsed < spec.trial_timeout / 4

    def test_failed_trial_journal_records_the_reason(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **DETECT)
        journal = tmp_path / "journal"
        trial = run_wire_trial(spec, journal_dir=str(journal), kill_after=(5, 1))
        assert not trial.ok
        result = json.loads((journal / "result.json").read_text())
        assert result["ok"] is False
        assert "suspects" in result["reason"]
        assert (journal / "coordinator.jsonl").exists()
        # Every node process left a log (stderr tracebacks land there too).
        logs = sorted(p.name for p in journal.glob("node-*.log"))
        assert logs == [f"node-{u}.log" for u in range(spec.n)]


class TestJournals:
    def test_coordinator_journal_is_replayable_jsonl(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **FAST)
        spec = spec.with_(script=default_script(spec))
        journal = tmp_path / "journal"
        trial = run_wire_trial(spec, journal_dir=str(journal))
        assert trial.ok, trial.reason
        events = [
            json.loads(line)
            for line in (journal / "coordinator.jsonl").read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds.count("hello") == spec.n
        crash_events = [e for e in events if e["event"] == "crash"]
        assert {e["node"] for e in crash_events} == set(trial.crashed)
        result = json.loads((journal / "result.json").read_text())
        assert result["ok"] is True
        assert result["metrics"]["messages_sent"] == trial.metrics.messages_sent
        # Every event is timestamped from the trial's start, in order, so
        # launch, connect and barrier time read straight off the journal.
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps) and stamps[0] >= 0
        assert kinds[0] == "launched"


def trial_processes(journal):
    """Live (non-zombie) pids whose argv names ``journal``: the launcher
    and, sharing its argv, every node it forked."""
    needle = str(journal).encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # exited while we looked
        if needle in argv and state not in ("Z", "X"):
            found.append(int(entry.name))
    return found


def trial_pids(journal):
    """The launcher's and every node's pid, as the journal recorded them."""
    events = [
        json.loads(line)
        for line in (journal / "coordinator.jsonl").read_text().splitlines()
    ]
    return [e["pid"] for e in events if e["event"] in ("launched", "hello")]


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
class TestTeardown:
    def test_exit_statuses_prove_the_sigkills(self, tmp_path):
        spec = WireSpec(protocol="agreement", n=8, seed=0, **FAST)
        spec = spec.with_(script=default_script(spec))
        journal = tmp_path / "journal"
        trial = run_wire_trial(spec, journal_dir=str(journal))
        assert trial.ok, trial.reason
        assert sorted(trial.exits) == list(range(spec.n))
        # Every scripted victim died by a real SIGKILL; no node exited
        # through a traceback (status 1).
        assert trial.crashed
        for victim in trial.crashed:
            assert trial.exits[victim] == -signal.SIGKILL
        assert set(trial.exits.values()) <= {0, -signal.SIGKILL}
        result = json.loads((journal / "result.json").read_text())
        assert result["exits"] == {str(u): s for u, s in trial.exits.items()}
        assert len(trial_pids(journal)) == spec.n + 1
        assert trial_processes(journal) == []

    def test_unscripted_kill_leaves_no_process(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **DETECT)
        journal = tmp_path / "journal"
        trial = run_wire_trial(spec, journal_dir=str(journal), kill_after=(3, 2))
        assert not trial.ok
        assert trial.exits[3] == -signal.SIGKILL
        assert len(trial_pids(journal)) == spec.n + 1
        assert trial_processes(journal) == []

    def test_launcher_death_before_all_hellos_fails_fast(
        self, tmp_path, monkeypatch
    ):
        """The launcher dies after the first hello: its orphaned nodes are
        swept up and the trial fails at once, not at the setup timeout."""

        class LauncherKiller(driver.WireCoordinator):
            def __init__(self, *args, journal, **kwargs):
                def kill_launcher_on_first_hello(event):
                    journal(event)
                    if event["event"] == "hello" and not killed:
                        killed.append(event["pid"])
                        # The launcher leads the nodes' process group.
                        os.kill(os.getpgid(event["pid"]), signal.SIGKILL)

                super().__init__(
                    *args, journal=kill_launcher_on_first_hello, **kwargs
                )

        killed = []
        monkeypatch.setattr(driver, "WireCoordinator", LauncherKiller)
        spec = WireSpec(protocol="election", n=8, seed=0, **FAST)
        journal = tmp_path / "journal"
        started = time.monotonic()
        trial = run_wire_trial(spec, journal_dir=str(journal))
        elapsed = time.monotonic() - started
        assert killed
        assert not trial.ok
        assert "launcher" in trial.reason and "exited" in trial.reason
        assert elapsed < spec.setup_timeout
        result = json.loads((journal / "result.json").read_text())
        assert result["ok"] is False and result["reason"] == trial.reason
        # The sweep SIGKILLs orphans that nobody here can reap, so allow
        # the kernel a moment to finish them.
        deadline = time.monotonic() + 5.0
        while trial_processes(journal) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert trial_processes(journal) == []

    def test_closing_launcher_stdin_kills_running_nodes(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **FAST)
        # A coordinator that accepts connections (in the kernel backlog)
        # and never answers: every node blocks awaiting its peers frame.
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        silent.bind((spec.host, 0))
        silent.listen(spec.n)
        coord = f"{spec.host}:{silent.getsockname()[1]}"
        launcher = driver._start_launcher(spec, coord, tmp_path)
        try:
            deadline = time.monotonic() + spec.setup_timeout
            while len(trial_processes(tmp_path)) < spec.n + 1:
                assert time.monotonic() < deadline, "nodes never started"
                time.sleep(0.05)
            launcher.stdin.close()
            assert launcher.wait(timeout=10) == 0
            report = json.loads(launcher.stdout.read())
            assert report["exits"] == {
                str(u): -signal.SIGKILL for u in range(spec.n)
            }
            assert trial_processes(tmp_path) == []
        finally:
            silent.close()
            if launcher.poll() is None:
                os.killpg(launcher.pid, signal.SIGKILL)
                launcher.wait()
            launcher.stdout.close()
