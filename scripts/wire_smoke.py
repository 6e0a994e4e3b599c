#!/usr/bin/env python3
"""End-to-end smoke of the real-network backend (docs/NET.md).

Drives real node processes over localhost TCP and proves the three
properties the wire backend advertises:

* **Scenario A — parity oracle via the CLI.**  ``repro wire parity``
  over election at n=8, fault-free *and* scripted-SIGKILL cells, on the
  real wire backend: metrics and outcomes must equal the simulator's
  exactly, and the oracle's JSON report must say so.
* **Scenario B — scripted SIGKILLs are real.**  An agreement trial
  whose CrashScript kills two node processes mid-run with partial
  final-round delivery; the crash accounting must line up with the
  script and the coordinator journal must record the kills.
* **Scenario C — unscripted murder fails fast, not hung.**  SIGKILL a
  node the model did *not* schedule; the heartbeat detector must turn
  that into a journalled failed trial naming the victim, well inside
  the trial timeout.

Scenario B also checks the launcher's exit-status report: every victim
died by SIGKILL, and no node exited through a traceback.  A last check
finds no process left from any scenario: each trial's launcher, and
every node forked from it, carries its journal dir (under ``--workdir``)
in its argv.

Exits 0 when every check passes, 1 otherwise.  Journals for all three
scenarios land under ``--workdir`` so CI can upload them on failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.net import WireSpec, default_script, run_wire_trial  # noqa: E402

#: Fast transport settings: 50 ms beats, generous bound for CI jitter.
FAST = dict(heartbeat_interval=0.05, suspicion_threshold=40, trial_timeout=120.0)


def log(message):
    print(f"[wire-smoke] {message}", file=sys.stderr, flush=True)


def fail(message):
    log(f"FAIL: {message}")
    return False


def scenario_parity_cli(workdir):
    log("scenario A: repro wire parity (election n=8, wire backend)")
    out = workdir / "parity.json"
    journal = workdir / "parity-journals"
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "wire", "parity",
            "--protocols", "election", "--sizes", "8",
            "--backend", "wire",
            "--heartbeat-interval", "0.05", "--suspicion-threshold", "40",
            "--journal-dir", str(journal), "--out", str(out),
        ],
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    log(f"parity CLI exited {proc.returncode} in {time.monotonic() - started:.1f}s")
    if proc.returncode != 0:
        log(proc.stdout)
        log(proc.stderr)
        return fail("wire parity CLI exited non-zero")
    if "parity: 2/2 cells match" not in proc.stdout:
        log(proc.stdout)
        return fail("expected 2/2 parity cells to match")
    reports = json.loads(out.read_text())
    for report in reports:
        if not report["ok"] or report["diffs"]:
            return fail(f"parity report not clean: {report['diffs']}")
        if report["wire_metrics"] != report["sim_metrics"]:
            return fail("wire metrics != sim metrics in the JSON report")
    log("parity oracle green: wire == sim, fault-free and scripted")
    return True


def scenario_scripted_sigkill(workdir):
    log("scenario B: scripted SIGKILLs during a real agreement trial")
    spec = WireSpec(protocol="agreement", n=8, seed=0, **FAST)
    spec = spec.with_(script=default_script(spec))
    journal = workdir / "scripted"
    trial = run_wire_trial(spec, journal_dir=str(journal))
    if not trial.ok:
        return fail(f"scripted trial failed: {trial.reason}")
    expected = {node: round_ for node, (round_, _) in spec.script.crashes.items()}
    if trial.crashed != expected:
        return fail(f"crash accounting {trial.crashed} != script {expected}")
    events = [
        json.loads(line)
        for line in (journal / "coordinator.jsonl").read_text().splitlines()
    ]
    killed = {e["node"] for e in events if e["event"] == "crash"}
    if killed != set(expected):
        return fail(f"journal records kills of {killed}, script says {set(expected)}")
    exits = trial.exits
    if any(exits.get(node) != -signal.SIGKILL for node in expected):
        return fail(f"a victim did not die by SIGKILL: exits {exits}")
    if sorted(exits) != list(range(spec.n)) or set(exits.values()) - {0, -signal.SIGKILL}:
        return fail(f"unexpected node exit statuses {exits}")
    log(f"killed {sorted(killed)} on schedule; accounting, journal and exit statuses agree")
    return True


def scenario_unscripted_kill(workdir):
    log("scenario C: unscripted SIGKILL must fail fast via the detector")
    spec = WireSpec(
        protocol="election", n=8, seed=0,
        heartbeat_interval=0.05, suspicion_threshold=6, round_timeout=10.0,
    )
    journal = workdir / "unscripted"
    started = time.monotonic()
    trial = run_wire_trial(spec, journal_dir=str(journal), kill_after=(3, 2))
    elapsed = time.monotonic() - started
    if trial.ok:
        return fail("trial succeeded despite an unscripted node death")
    if "heartbeat detector suspects node(s) [3]" not in trial.reason:
        return fail(f"unexpected failure reason: {trial.reason}")
    if elapsed > spec.trial_timeout / 4:
        return fail(f"detection took {elapsed:.1f}s — that is a hang, not detection")
    result = json.loads((journal / "result.json").read_text())
    if result["ok"] or "suspects" not in result["reason"]:
        return fail("failed trial not journalled with its reason")
    log(f"detector failed the trial in {elapsed:.1f}s: {trial.reason}")
    return True


def leftover_processes(workdir):
    """Live (non-zombie) processes with an argv entry under ``workdir``."""
    prefix = (str(workdir) + os.sep).encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # exited while we looked
        if state not in ("Z", "X") and any(a.startswith(prefix) for a in argv):
            found.append(int(entry.name))
    return found


def check_no_leftovers(workdir):
    log("no process from any scenario may outlive it")
    if not Path("/proc/self/cmdline").exists():
        log("no /proc here; leftover check skipped")
        return True
    leftovers = leftover_processes(workdir)
    if leftovers:
        return fail(f"processes {leftovers} outlived their trials")
    log("no launcher or node process left")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="wire-smoke-work")
    args = parser.parse_args()
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)

    ok = True
    ok = scenario_parity_cli(workdir) and ok
    ok = scenario_scripted_sigkill(workdir) and ok
    ok = scenario_unscripted_kill(workdir) and ok
    ok = check_no_leftovers(workdir) and ok
    log("all scenarios green" if ok else "one or more scenarios FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
