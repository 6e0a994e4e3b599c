"""The four closed-loop workloads, their generated inputs and output checks.

Every workload is one client issuing its next operation only after the
previous one returned.  Operations come in *passes* of a fixed
composition; a run does a fixed number of passes per workload
(``catalogue.PASSES``), so every run takes the same samples.

Inputs are generated from the workload seed and the pass number alone
(:func:`elect_cases`, :func:`serve_chain`, :func:`wire_specs`); the
package under test receives only the generated cases.  ``README.md`` says why each
workload exists.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from catalogue import p50, tail

#: The canary: elect n=512, alpha=0.5, seed=2, random crashes sends
#: exactly this many messages on every backend.
CANARY_MESSAGES = 411687


class BenchFailure(Exception):
    """A check the benchmark cannot continue past (e.g. a silent fallback)."""


@dataclass(frozen=True)
class Case:
    """One protocol run of the elect workloads."""

    protocol: str  # "elect" or "agree"
    n: int
    alpha: float
    seed: int
    adversary: str = "random"
    inputs: str = "mixed"
    expect_messages: Optional[int] = None

    def label(self) -> str:
        return f"{self.protocol} n={self.n} alpha={self.alpha} seed={self.seed}"


CANARY = Case("elect", 512, 0.5, 2, expect_messages=CANARY_MESSAGES)


def _draw(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def elect_cases(seed: int, index: int = 0) -> List[Case]:
    """Pass ``index`` of elect-ref / elect-vec: the alpha axis at a glance.

    Each pass draws fresh case seeds: the cost of one n=2048 trial moves
    by a fifth with its seed, and a run on ref holds only two passes.
    The canary runs twice per pass.  It is the middle case by cost, so
    ``trial_s.p50`` is the median of its runs.  alpha=0.125 is left out:
    its smallest admissible n=256 takes about a minute per trial, too
    long for a workload repeated on every check.
    """
    rng = random.Random(f"perfbench/elect/{seed}/{index}")
    return [
        Case("elect", 128, 0.25, _draw(rng)),
        CANARY,
        Case("elect", 2048, 0.5, _draw(rng)),
        CANARY,
        Case("elect", 1024, 1.0, _draw(rng)),
        Case("agree", 1024, 0.5, _draw(rng)),
    ]


@dataclass
class Ledger:
    """Operations attempted and failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def conservation_problems(label: str, metrics: Any) -> List[str]:
    delivered = metrics.messages_delivered + metrics.messages_dropped + metrics.messages_expired
    if metrics.messages_sent != delivered:
        return [f"{label}: sent {metrics.messages_sent} != delivered+dropped+expired {delivered}"]
    return []


def outcome_digest(result: Any) -> Dict[str, Any]:
    """What two runs of one case must agree on: outcome and message counts."""
    m = result.metrics
    return {
        "summary": result.summary(),
        "counts": [m.messages_sent, m.messages_delivered, m.messages_dropped,
                   m.messages_expired, m.bits_sent, m.rounds_executed, m.crashes],
        "per_round": list(m.per_round_messages),
        "per_kind": dict(sorted(m.per_kind_messages.items())),
    }


def case_horizon(case: Case) -> int:
    from repro.core.schedule import AgreementSchedule, LeaderElectionSchedule
    from repro.params import Params

    schedule = LeaderElectionSchedule if case.protocol == "elect" else AgreementSchedule
    return schedule.from_params(Params(n=case.n, alpha=case.alpha)).last_round


def ensure_vec_case(case: Case, **options: Any) -> None:
    """Raise :class:`BenchFailure` unless ``backend="vec"`` runs ``case``
    on the vec engine; ``options`` are the extra keyword arguments the run
    would pass (``timers=`` alone reroutes a vec call to ``ref``)."""
    from repro.errors import VecUnsupported
    from repro.faults import named_adversary
    from repro.sim.vec import ensure_vec_supported

    try:
        ensure_vec_supported(named_adversary(case.adversary, case_horizon(case)), **options)
    except VecUnsupported as exc:
        raise BenchFailure(f"{case.label()} would fall back to ref: {exc}") from exc


def run_case(case: Case, backend: str, timers: Any = None) -> Any:
    """One protocol run through the public ``repro.core`` entry points."""
    import repro.core as core

    kwargs: Dict[str, Any] = dict(n=case.n, alpha=case.alpha, seed=case.seed,
                                  adversary=case.adversary, backend=backend)
    if timers is not None:
        kwargs["timers"] = timers
    if case.protocol == "elect":
        return core.elect_leader(**kwargs)
    return core.agree(inputs=case.inputs, **kwargs)


def case_problems(case: Case, result: Any) -> List[str]:
    problems = conservation_problems(case.label(), result.metrics)
    if case.expect_messages is not None and result.metrics.messages_sent != case.expect_messages:
        problems.append(f"canary {case.label()}: {result.metrics.messages_sent} messages, "
                        f"expected {case.expect_messages}")
    return problems


def per_trial(total: float, trials: int) -> float:
    return total / trials if trials else 0.0


def _calibration_loop() -> int:
    rng = random.Random(12345)
    table: Dict[int, int] = {}
    acc = 0
    for i in range(12000):
        key = rng.randrange(1024)
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, acc & 255))
    return min(table.values()) + acc


def tree_cpu_seconds() -> Optional[float]:
    """CPU seconds used so far by this process (every thread) and all its
    live descendant processes, read from ``/proc``; None without it."""
    if not os.path.isdir("/proc/self"):
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    parent: Dict[int, int] = {}
    cpu: Dict[int, float] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue  # the process ended while we looked
        # Fields after the command name: state ppid ... utime(12th) stime(13th).
        fields = stat[stat.rindex(")") + 2:].split()
        pid = int(entry.name)
        parent[pid] = int(fields[1])
        cpu[pid] = (int(fields[11]) + int(fields[12])) / ticks
    tree = {os.getpid()}
    grew = True
    while grew:
        found = {pid for pid, ppid in parent.items() if ppid in tree} - tree
        tree |= found
        grew = bool(found)
    return sum(cpu.get(pid, 0.0) for pid in tree)


def settle(window: float = 0.05, busy_share: float = 0.2, timeout: float = 5.0) -> Tuple[float, bool]:
    """Wait until the package is idle: this process and its descendants
    (pool workers, wire nodes) use at most ``busy_share`` of a core over
    ``window`` seconds.  Returns ``(seconds waited, idle)``; ``idle`` is
    False when ``timeout`` passed first."""
    started = time.perf_counter()
    before = tree_cpu_seconds()
    if before is None:
        time.sleep(window)
        return window, True
    while True:
        time.sleep(window)
        after = tree_cpu_seconds()
        waited = time.perf_counter() - started
        if after is not None and after - before <= busy_share * window:
            return waited, True
        if waited >= timeout:
            return waited, False
        before = after if after is not None else before


class Calibration:
    """Reference-speed scaling of wall times.

    The machines this runs on change speed by a third within minutes
    (other tenants share the cores), and the change hits the package and
    a fixed pure-Python loop alike.  The loop is timed only while the
    package is idle, at *idle points*: before set-up, after set-up and
    after every operation, each once :func:`settle` has seen the process
    and its children (pool workers, wire nodes) stop using CPU.  An idle
    point times the loop ``PER_IDLE`` times, each best of three.  An
    operation's *reference seconds* are its wall seconds times
    ``(REF_S / loop) ** EXPONENT``, where ``loop`` is the median of the
    loop times at the idle points just before and just after it.  On a
    machine that runs the loop in ``REF_S`` seconds, reference seconds
    are wall seconds.  The package cannot change the loop, so a slower
    package still reads slower.
    """

    #: Loop time of the reference machine (best of three).
    REF_S = 0.008
    #: Loop samples per idle point.
    PER_IDLE = 3
    #: Measured on the 2-core machine the benchmark was built on, a trial's
    #: wall time grew with the loop time to the power 0.46-0.61 (log-log
    #: slope, ref and vec engines); scaling by the whole ratio
    #: over-corrected and widened the spread between runs.
    EXPONENT = 0.5

    def __init__(self) -> None:
        self.idle_points: List[List[float]] = []
        #: Seconds waited for the package to go idle, per idle point.
        self.settle_s: List[float] = []
        #: Idle points where the package still used CPU at the timeout.
        self.busy_points = 0

    @property
    def samples(self) -> List[float]:
        return [s for point in self.idle_points for s in point]

    @staticmethod
    def loop_seconds() -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            _calibration_loop()
            best = min(best, time.perf_counter() - started)
        return best

    def idle_point(self) -> None:
        """Wait until the package is idle, then time the loop."""
        waited, idle = settle()
        self.settle_s.append(waited)
        self.busy_points += not idle
        self.idle_points.append([self.loop_seconds() for _ in range(self.PER_IDLE)])

    def measure(self, call: Any, *args: Any, **kwargs: Any) -> Tuple[Any, float, int]:
        """``(result, wall seconds, position)`` of one operation, followed
        by an idle point; :meth:`scale` turns the position into a factor."""
        if not self.idle_points:
            raise RuntimeError("take an idle point before the first operation")
        position = len(self.idle_points) - 1
        started = time.perf_counter()
        result = call(*args, **kwargs)
        seconds = time.perf_counter() - started
        self.idle_point()
        return result, seconds, position

    def scale(self, position: int) -> float:
        """Reference seconds per wall second of an operation at ``position``."""
        window = [s for point in self.idle_points[position: position + 2] for s in point]
        return (self.REF_S / statistics.median(window)) ** self.EXPONENT


def rate(ops: Sequence[Any], seconds: Sequence[float], amount: Any) -> float:
    """``sum(amount(op)) / sum(seconds)`` over the whole run."""
    return sum(amount(op) for op in ops) / sum(seconds)


def timing(ops: Sequence[Dict[str, Any]], calibration: Optional[Calibration]) -> List[float]:
    """Per-op reference seconds, or wall seconds without a calibration."""
    if calibration is None:
        return [op["seconds"] for op in ops]
    return [op["seconds"] * calibration.scale(op["position"]) for op in ops]


# ----------------------------------------------------------------------
# elect-ref / elect-vec
# ----------------------------------------------------------------------


class ElectWorkload:
    """Back-to-back ``elect_leader``/``agree`` calls on one backend."""

    def __init__(self, backend: str, seed: int, work_dir: Path, ledger: Ledger,
                 calibration: Calibration) -> None:
        self.name = f"elect-{backend}"
        self.backend = backend
        self.seed = seed
        self.ledger = ledger
        self.calibration = calibration

    def setup(self) -> None:
        import repro.core  # noqa: F401
        import repro.sim.vec  # noqa: F401  (numpy import and warm-up)

        run_case(Case("elect", 64, 1.0, 1), self.backend)

    def teardown(self) -> None:
        pass


    def run_pass(self, index: int, traced: bool) -> List[Dict[str, Any]]:
        from repro.obs import PhaseTimers

        cases = elect_cases(self.seed, index)
        if self.backend == "vec":
            for case in cases:
                ensure_vec_case(case)
        ops = []
        for case in cases:
            # Phase timers only on ref: on vec they would reroute the run.
            timers = PhaseTimers() if traced and self.backend == "ref" else None
            result, seconds, position = self.calibration.measure(
                run_case, case, self.backend, timers)
            self.ledger.record(case_problems(case, result))
            ops.append({"case": case, "seconds": seconds, "position": position,
                        "digest": outcome_digest(result), "messages": result.metrics.messages_sent})
        return ops

    def traced_checks(self, ops: List[Dict[str, Any]], tracer: Any) -> None:
        if self.backend != "vec":
            return
        runs, vec_calls = tracer.calls["sim.run"], tracer.calls["sim.vec"]
        if runs != 0 or vec_calls != len(ops):
            raise BenchFailure(
                f"elect-vec fell back to ref: Network.run ran {runs} times and the vec "
                f"engine {vec_calls} times for {len(ops)} trials"
            )

    def check(self, ops: List[Dict[str, Any]]) -> None:
        """Untimed: repeated runs of a case agree, the canary holds on the
        other backend, and (on vec) every case of the first pass equals
        its ref run."""
        first: Dict[Case, Dict[str, Any]] = {}
        for op in ops:
            seen = first.setdefault(op["case"], op["digest"])
            if seen != op["digest"]:
                self.ledger.record([f"{op['case'].label()}: repeated run differs"])
        other = "vec" if self.backend == "ref" else "ref"
        canary = run_case(CANARY, other)
        self.ledger.record([f"on {other}: {p}" for p in case_problems(CANARY, canary)])
        if self.backend != "vec":
            return
        for case in dict.fromkeys(elect_cases(self.seed, 0)):
            digest = first[case]
            if case == CANARY:
                reference = canary
            else:
                reference = run_case(case, "ref")
            problems = case_problems(case, reference)
            if outcome_digest(reference) != digest:
                problems.append(f"{case.label()}: vec differs from ref")
            self.ledger.record(problems)

    def end_to_end(self, ops: List[Dict[str, Any]], calibration: Optional[Calibration]) -> Dict[str, Any]:
        seconds = timing(ops, calibration)
        out = trial_metrics(seconds)
        for alpha, key in ((0.25, "alpha025"), (0.5, "alpha050"), (1.0, "alpha100")):
            out[f"{key}_trial_s.p50"] = p50(
                [t for t, op in zip(seconds, ops) if op["case"].alpha == alpha])
        out["msgs_per_s"] = rate(ops, seconds, lambda op: op["messages"])
        out["trials_per_s"] = rate(ops, seconds, lambda op: 1)
        return out

    def per_layer(self, tracer: Any, ops: List[Dict[str, Any]]) -> Dict[str, float]:
        return {}  # the engine layers every workload reports cover it


def trial_metrics(seconds: Sequence[float]) -> Dict[str, Any]:
    value, pct = tail(seconds)
    return {"trial_s.p50": p50(seconds), "trial_s.tail": value,
            "_trial_tail_pct": pct, "_trial_samples": len(seconds)}


def engine_layers(tracer: Any, trials: int) -> Dict[str, float]:
    """core / sim / sim.vec / faults metrics, per traced trial."""
    calls, busy, counts = tracer.calls, tracer.busy, tracer.counts
    out = {
        "core.calls": calls["core"],
        "core.busy_s": per_trial(busy["core"], trials),
        "core.self_s": per_trial(tracer.self_time["core"], trials),
        "sim.run.calls": calls["sim.run"],
        "sim.run_s": per_trial(busy["sim.run"], trials),
        "sim.rounds": per_trial(counts["sim.rounds"], trials),
        "sim.msgs": per_trial(counts["sim.msgs"], trials),
        "sim.vec.calls": calls["sim.vec"],
        "sim.vec.busy_s": per_trial(busy["sim.vec"], trials),
        "sim.vec.msgs_per_s": per_trial(counts["sim.vec.msgs"], busy["sim.vec"]),
        "faults.plan_round.calls": calls["faults.plan_round"],
        "faults.plan_round_s": per_trial(busy["faults.plan_round"], trials),
        "faults.select_faulty_s": per_trial(busy["faults.select_faulty"], trials),
        "faults.crash_orders": per_trial(counts["faults.crash_orders"], trials),
    }
    for phase in ("step", "transmit", "crash", "deliver"):
        out[f"sim.{phase}_s"] = per_trial(counts[f"sim.{phase}_s"], trials)
    for bucket in ("alpha025", "alpha050", "alpha100"):
        out[f"sim.vec.busy_s.{bucket}"] = per_trial(
            counts[f"sim.vec.busy_s.{bucket}"], int(counts[f"sim.vec.calls.{bucket}"]))
    return out


# ----------------------------------------------------------------------
# serve-campaign
# ----------------------------------------------------------------------

#: Point ``i`` of a campaign seeds its trials from ``master_seed + i *
#: SEED_STRIDE`` (``repro.analysis.sweeps.enumerate_sweep_specs``).
SEED_STRIDE = 1_000_003
#: n of each chain position: campaign ``c`` covers ``SERVE_N[c]`` and
#: ``SERVE_N[c + 1]`` at every alpha of ``SERVE_ALPHA``.
SERVE_N = (128, 160, 192, 224)
#: Three alphas, not two: with two equal groups of cheap (1.0) and dear
#: (0.5) trials the median trial would fall between the groups and jump.
SERVE_ALPHA = (0.5, 0.75, 1.0)
SERVE_TRIALS = 1
#: Full resubmissions of a chain's first campaign (all cache hits).
SERVE_RESUBMITS = 4


def serve_chain(seed: int, index: int, jobs: int) -> List[Dict[str, Any]]:
    """One fresh campaign followed by two that each share half their trials
    with the previous one.

    Campaign ``c`` has the points ``(N[c], a)`` then ``(N[c+1], a)`` for
    each alpha ``a`` and master seed ``base + c * k * SEED_STRIDE`` (``k``
    alphas), so its first ``k`` points carry exactly the seeds of campaign
    ``c - 1``'s last ``k``: the same cache keys.
    """
    base = random.Random(f"perfbench/serve/{seed}/{index}").randrange(1, 2**40)
    per_n = len(SERVE_ALPHA)
    return [
        {
            "task": "election",
            "grid": {"n": [SERVE_N[c], SERVE_N[c + 1]], "alpha": list(SERVE_ALPHA)},
            "trials": SERVE_TRIALS,
            "master_seed": base + c * per_n * SEED_STRIDE,
            "jobs": jobs,
        }
        for c in range(len(SERVE_N) - 1)
    ]


@dataclass
class CampaignRun:
    kind: str  # fresh / mixed / cached
    seconds: float
    first_record_s: Optional[float]
    queue_wait_s: Optional[float]
    records: List[Dict[str, Any]]
    stream_bytes: int
    position: int = 0

    def __getitem__(self, key: str) -> Any:
        """Field access by name, so :func:`timing` reads campaigns like trials."""
        return getattr(self, key)

    @property
    def summary(self) -> Dict[str, Any]:
        return self.records[-1] if self.records and self.records[-1].get("kind") == "summary" else {}

    @property
    def trials(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if "status" in r]


class ServeWorkload:
    """An in-process campaign server driven by one HTTP client."""

    def __init__(self, seed: int, work_dir: Path, ledger: Ledger,
                 calibration: Calibration) -> None:
        self.name = "serve-campaign"
        self.seed = seed
        self.work_dir = work_dir
        self.ledger = ledger
        self.calibration = calibration
        self.jobs = min(2, os.cpu_count() or 1)
        self.server: Any = None
        self.service: Any = None

    def setup(self) -> None:
        from repro.serve import CampaignServer, CampaignService

        self.service = CampaignService(self.work_dir / "cache", default_jobs=self.jobs)
        self.server = CampaignServer(self.service)
        self.server.start()
        # Warm-up: starts a pool and imports the task in the service.
        warm = self.campaign({"task": "election", "grid": {"n": [32], "alpha": [1.0]},
                              "trials": self.jobs, "master_seed": 0, "jobs": self.jobs}, "warm")
        if not warm.summary or warm.summary.get("failed"):
            raise BenchFailure("warm-up campaign did not complete")

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.service is not None:
            self.service.close()


    def campaign(self, payload: Dict[str, Any], kind: str) -> CampaignRun:
        started = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=120)
        try:
            conn.request("POST", "/campaigns", body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            accepted = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 202:
            raise BenchFailure(f"campaign rejected ({response.status}): {accepted}")
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=120)
        records: List[Dict[str, Any]] = []
        stream_bytes = 0
        first = queued = finished = None
        try:
            conn.request("GET", accepted["stream_url"])
            for line in conn.getresponse():
                now = time.perf_counter() - started
                stream_bytes += len(line)
                record = json.loads(line)
                records.append(record)
                kind_ = record.get("kind")
                if kind_ == "campaign" and queued is None:
                    queued = now
                elif "status" in record and first is None:
                    first = now
                elif kind_ == "summary":
                    finished = now
        finally:
            conn.close()
        seconds = finished if finished is not None else time.perf_counter() - started
        return CampaignRun(kind, seconds, first, queued, records, stream_bytes)

    def run_pass(self, index: int, traced: bool) -> List[CampaignRun]:
        # Every pass starts on an empty cache, so a pass run twice (the
        # traced run's pairs) computes the same trials both times.
        self.service.cache.evict(0)
        chain = serve_chain(self.seed, index, self.jobs)
        plan = [(chain[0], "fresh")] + [(payload, "mixed") for payload in chain[1:]]
        plan += [(chain[0], "cached")] * SERVE_RESUBMITS
        runs = []
        for payload, kind in plan:
            run, _, run.position = self.calibration.measure(self.campaign, payload, kind)
            runs.append(run)
        fresh = runs[0]
        for run in runs:
            self.ledger.record(self.campaign_problems(run, fresh))
        return runs

    def campaign_problems(self, run: CampaignRun, fresh: CampaignRun) -> List[str]:
        from repro.exec.journal import record_crc
        from repro.serve.cache import canonical_json

        label = f"{run.kind} campaign"
        summary = run.summary
        if not summary:
            return [f"{label}: no summary record"]
        total = summary["total_trials"]
        problems = [f"{label}: record {r.get('_seq')} fails its CRC"
                    for r in run.records if r.get("_crc") != record_crc(r)]
        expected_hits = {"fresh": 0, "mixed": total // 2, "cached": total}[run.kind]
        if summary["completed"] != total or summary["failed"] or len(run.trials) != total:
            problems.append(f"{label}: {summary['completed']}/{total} completed")
        if summary["cache_hits"] != expected_hits:
            problems.append(f"{label}: {summary['cache_hits']} cache hits, expected {expected_hits}")
        if run.kind == "cached":
            if summary["dispatched_trials"] or summary["dispatched_chunks"]:
                problems.append(f"{label}: dispatched {summary['dispatched_trials']} trials in "
                                f"{summary['dispatched_chunks']} chunks")
            if canonical_json(summary["points"]) != canonical_json(fresh.summary.get("points")):
                problems.append(f"{label}: results differ from the fresh run")
        return problems

    def traced_checks(self, runs: List[CampaignRun], tracer: Any) -> None:
        pass

    def check(self, runs: List[CampaignRun]) -> None:
        """Untimed: one served trial per grid point of the first fresh
        campaign equals a direct in-process run, which conserves messages."""
        from repro.core import elect_leader
        from repro.serve.cache import canonical_json

        fresh = next(run for run in runs if run.kind == "fresh")
        by_point: Dict[str, Dict[str, Any]] = {}
        for record in sorted(fresh.trials, key=lambda r: r["index"]):
            by_point.setdefault(record["key"].split("#")[0], record)
        for key, record in by_point.items():
            point = record["value"]
            result = elect_leader(n=point["n"], alpha=point["alpha"], seed=record["seed"])
            problems = conservation_problems(key, result.metrics)
            if canonical_json(result.summary()) != canonical_json(record["value"]):
                problems.append(f"{key}: served value differs from a direct run")
            self.ledger.record(problems)

    def end_to_end(self, runs: List[CampaignRun], calibration: Optional[Calibration]) -> Dict[str, Any]:
        scales = [calibration.scale(run.position) if calibration else 1.0 for run in runs]
        seconds = [run.seconds * k for run, k in zip(runs, scales)]
        computed = [(t, k) for run, k in zip(runs, scales) for t in run.trials if t["status"] == "ok"]
        out = trial_metrics([t["elapsed_seconds"] * k for t, k in computed])
        for kind in ("fresh", "mixed", "cached"):
            out[f"campaign_s.{kind}.p50"] = p50(
                [t for t, run in zip(seconds, runs) if run.kind == kind])
        out["first_record_s.p50"] = p50(
            [run.first_record_s * k for run, k in zip(runs, scales) if run.kind == "fresh"])
        out["msgs_per_s"] = rate(runs, seconds, lambda run: sum(
            t["value"]["messages"] for t in run.trials if t["status"] == "ok"))
        out["trials_per_s"] = rate(runs, seconds, lambda run: len(run.trials))
        return out

    def per_layer(self, tracer: Any, runs: List[CampaignRun]) -> Dict[str, float]:
        campaigns = len(runs)
        calls, busy, counts = tracer.calls, tracer.busy, tracer.counts
        computed = [t for run in runs for t in run.trials if t["status"] != "cached"]
        attempts = sum(t["attempts"] for t in computed)
        chunks = counts["parallel.dispatched_chunks"]
        return {
            "parallel.busy_s": per_trial(busy["parallel"], campaigns),
            "parallel.first_outcome_s": per_trial(counts["parallel.first_outcome_s"],
                                                  int(counts["parallel.calls"])),
            "parallel.dispatched_chunks": per_trial(chunks, campaigns),
            "parallel.trials_per_chunk": per_trial(counts["parallel.dispatched_trials"], chunks),
            "parallel.pool_rebuilds": per_trial(counts["parallel.pool_rebuilds"], campaigns),
            "parallel.redispatched_trials": per_trial(counts["parallel.redispatched_trials"], campaigns),
            "exec.attempts_per_trial": per_trial(sum(t["status"] == "ok" for t in computed), attempts),
            "exec.retries": per_trial(sum(max(0, t["attempts"] - 1) for t in computed), campaigns),
            "exec.timeouts": per_trial(sum(t["status"] == "timeout" for t in computed), campaigns),
            "serve.submit_s": per_trial(busy["serve.submit"], campaigns),
            "serve.queue_wait_s": per_trial(sum(r.queue_wait_s or 0.0 for r in runs), campaigns),
            "serve.cache.get.calls": per_trial(calls["serve.cache.get"], campaigns),
            "serve.cache.get_s": per_trial(busy["serve.cache.get"], campaigns),
            "serve.cache.put.calls": per_trial(calls["serve.cache.put"], campaigns),
            "serve.cache.put_s": per_trial(busy["serve.cache.put"], campaigns),
            "serve.cache.hit_ratio": per_trial(counts["serve.cache.hits"], calls["serve.cache.get"]),
            "serve.stream.records": per_trial(sum(len(r.records) for r in runs), campaigns),
            "serve.stream.bytes": per_trial(sum(r.stream_bytes for r in runs), campaigns),
        }


# ----------------------------------------------------------------------
# wire
# ----------------------------------------------------------------------


def wire_specs(seed: int) -> List[Any]:
    """Election and agreement at n=8, each fault-free and with a scripted
    crash schedule (two SIGKILLed nodes, one partial final round)."""
    from repro.net.parity import default_script
    from repro.net.spec import WireSpec

    rng = random.Random(f"perfbench/wire/{seed}")
    specs = []
    for protocol in ("election", "agreement"):
        plain = WireSpec(protocol=protocol, n=8, alpha=0.75, seed=_draw(rng))
        scripted = WireSpec(protocol=protocol, n=8, alpha=0.75, seed=_draw(rng))
        specs += [plain, scripted.with_(script=default_script(scripted))]
    return specs


class WireWorkload:
    """Sequential ``run_wire_trial`` runs, each checked against its
    transport-free ``run_loopback_trial`` twin."""

    def __init__(self, seed: int, work_dir: Path, ledger: Ledger,
                 calibration: Calibration) -> None:
        self.name = "wire"
        self.work_dir = work_dir
        self.ledger = ledger
        self.calibration = calibration
        self.specs: List[Any] = []
        self.seed = seed

    def setup(self) -> None:
        import repro.net.driver as driver

        self.specs = wire_specs(self.seed)
        driver.run_loopback_trial(self.specs[0])

    def teardown(self) -> None:
        pass


    def run_pass(self, index: int, traced: bool) -> List[Dict[str, Any]]:
        import repro.net.driver as driver

        ops = []
        for i, spec in enumerate(self.specs):
            result, seconds, position = self.calibration.measure(
                driver.run_wire_trial, spec, journal_dir=str(self.work_dir / f"wire-{i}"))
            problems = [] if result.ok else [f"wire trial {i} failed: {result.reason}"]
            if result.metrics is not None:
                problems += conservation_problems(f"wire trial {i}", result.metrics)
            self.ledger.record(problems)
            ops.append({"spec": i, "seconds": seconds, "position": position,
                        "result": result})
        return ops

    def _twin_problems(self, op: Dict[str, Any]) -> List[str]:
        import repro.net.driver as driver

        twin = driver.run_loopback_trial(self.specs[op["spec"]])
        wire = op["result"]
        if wire.metrics_dict() != twin.metrics_dict() or wire.outcome != twin.outcome:
            return [f"wire trial {op['spec']}: differs from its loopback twin"]
        return []

    def traced_checks(self, ops: List[Dict[str, Any]], tracer: Any) -> None:
        for op in ops:
            self.ledger.record(self._twin_problems(op))
            op["twin_checked"] = True

    def check(self, ops: List[Dict[str, Any]]) -> None:
        for op in ops:
            if not op.get("twin_checked"):
                self.ledger.record(self._twin_problems(op))

    def end_to_end(self, ops: List[Dict[str, Any]], calibration: Optional[Calibration]) -> Dict[str, Any]:
        seconds = timing(ops, calibration)
        out = trial_metrics(seconds)
        out["msgs_per_s"] = rate(ops, seconds, lambda op: op["result"].metrics.messages_sent)
        out["trials_per_s"] = rate(ops, seconds, lambda op: 1)
        return out

    def per_layer(self, tracer: Any, ops: List[Dict[str, Any]]) -> Dict[str, float]:
        trials = len(ops)
        busy, counts = tracer.busy, tracer.counts
        wire_s = per_trial(busy["net.wire"], trials)
        loopback_s = per_trial(busy["net.loopback"], int(tracer.calls["net.loopback"]))
        return {
            "net.wire_trial_s": wire_s,
            "net.loopback_trial_s": loopback_s,
            "net.transport_s": wire_s - loopback_s,
            "net.ms_per_round": 1000.0 * per_trial(busy["net.wire"], int(counts["net.rounds"])),
            "net.frames_sent": per_trial(counts["net.frames_sent"], trials),
            "net.frames_per_msg": per_trial(counts["net.frames_sent"], counts["net.msgs"]),
        }


def make_workload(name: str, seed: int, work_dir: Path, ledger: Ledger,
                  calibration: Calibration) -> Any:
    if name == "elect-ref":
        return ElectWorkload("ref", seed, work_dir, ledger, calibration)
    if name == "elect-vec":
        return ElectWorkload("vec", seed, work_dir, ledger, calibration)
    if name == "serve-campaign":
        return ServeWorkload(seed, work_dir, ledger, calibration)
    if name == "wire":
        return WireWorkload(seed, work_dir, ledger, calibration)
    raise ValueError(f"unknown workload {name!r}")
