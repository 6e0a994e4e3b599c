"""Every metric the benchmark reports: name, unit, scope and meaning.

``END_TO_END`` are the numbers a user of the package sees, measured with
tracing off.  ``PER_LAYER`` come from the traced run; each names the
end-to-end metric it should move and the workload where it should move
it.  ``BENCHMARK.json`` at the repository root lists the subset that is
gated (:func:`gated_end_to_end`) and every per-layer metric; a test
keeps the two in step.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

WORKLOADS: Tuple[str, ...] = ("elect-ref", "elect-vec", "serve-campaign", "wire")
ELECT = ("elect-ref", "elect-vec")
SERVE = ("serve-campaign",)

#: ``run_seconds`` of ``BENCHMARK.json``.
RUN_SECONDS = 15
#: Passes per run at ``RUN_SECONDS``, fixed so that every run of every
#: version of the package takes the same samples and reads the same order
#: statistics; a faster or slower package changes the run's length, not
#: its sample count.  Chosen from the pass counts that fitted in 15 s on
#: the 2-core machine the benchmark was built on (an elect-ref pass takes
#: 13-16 s there, so its two passes run for about 30 s).
PASSES: Dict[str, int] = {"elect-ref": 2, "elect-vec": 3, "serve-campaign": 6, "wire": 2}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    layer: str
    moves: str
    workloads: Tuple[str, ...]
    what: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", WORKLOADS,
             "process start to first timed operation (median of 7 fresh processes)"),
    EndToEnd("trial_s.p50", "s", "lower", WORKLOADS,
             "one protocol run, call to return; serve: as timed by the pool worker"),
    EndToEnd("trial_s.tail", "s", "lower", WORKLOADS,
             "highest percentile with >= 10 samples beyond it, never below p50"),
    EndToEnd("alpha025_trial_s.p50", "s", "lower", ELECT, "trial_s.p50 at alpha=0.25"),
    EndToEnd("alpha050_trial_s.p50", "s", "lower", ELECT, "trial_s.p50 at alpha=0.5"),
    EndToEnd("alpha100_trial_s.p50", "s", "lower", ELECT, "trial_s.p50 at alpha=1.0"),
    EndToEnd("msgs_per_s", "msg/s", "higher", WORKLOADS,
             "simulated messages of computed trials / timed seconds"),
    EndToEnd("trials_per_s", "1/s", "higher", WORKLOADS,
             "completed trials (served ones too) / timed seconds"),
    EndToEnd("campaign_s.fresh.p50", "s", "lower", SERVE,
             "HTTP POST to summary record, no cache hits"),
    EndToEnd("campaign_s.mixed.p50", "s", "lower", SERVE,
             "the same, sharing half its trials with the previous campaign"),
    EndToEnd("campaign_s.cached.p50", "s", "lower", SERVE,
             "the same, for a full resubmission (all hits)"),
    EndToEnd("first_record_s.p50", "s", "lower", SERVE,
             "POST to first streamed trial record of a fresh campaign"),
    EndToEnd("failed_ratio", "ratio", "lower", WORKLOADS,
             "failed operations / attempted; a failed output check is a failure"),
    EndToEnd("peak_rss_mb", "MB", "lower", WORKLOADS,
             "peak RSS of the benchmark process or its largest child"),
)

#: Bounds of the metrics ``BENCHMARK.json`` gates: the share of the
#: parent's median by which a metric may worsen before a change counts as
#: a regression.  Only metrics every workload defines, and that are never
#: 0, can be gated; ``failed_ratio`` is reported as the
#: ``attempted``/``failed`` fields instead.
GATE_BOUNDS: Dict[str, float] = {
    "setup_s": 0.25,
    "trial_s.p50": 0.25,
    "trial_s.tail": 0.25,
    "msgs_per_s": 0.25,
    "trials_per_s": 0.25,
    "peak_rss_mb": 0.25,
}

_V, _R, _S, _W = ("elect-vec",), ("elect-ref",), SERVE, ("wire",)

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("core.calls", "count", "core", "trial_s.p50", ELECT,
             "elect_leader/agree calls (raw count)"),
    PerLayer("core.busy_s", "s", "core", "trial_s.p50", ELECT, "core time per trial"),
    PerLayer("core.self_s", "s", "core", "trial_s.p50", ELECT,
             "core time per trial minus the engine call inside it"),
    PerLayer("sim.run.calls", "count", "sim", "trial_s.p50", _R,
             "Network.run calls (raw count); must read 0 on elect-vec"),
    PerLayer("sim.run_s", "s", "sim", "trial_s.p50", _R, "Network.run time per trial"),
    PerLayer("sim.step_s", "s", "sim", "trial_s.p50", _R, "step phase per trial"),
    PerLayer("sim.transmit_s", "s", "sim", "trial_s.p50", _R, "transmit phase per trial"),
    PerLayer("sim.crash_s", "s", "sim", "trial_s.p50", _R, "crash phase per trial"),
    PerLayer("sim.deliver_s", "s", "sim", "msgs_per_s", _R, "deliver phase per trial"),
    PerLayer("sim.rounds", "count", "sim", "trial_s.p50", _R, "executed rounds per trial"),
    PerLayer("sim.msgs", "count", "sim", "msgs_per_s", _R, "messages per trial"),
    PerLayer("sim.vec.calls", "count", "sim.vec", "trial_s.p50", _V,
             "run_election_vec/run_agreement_vec calls (raw count)"),
    PerLayer("sim.vec.busy_s", "s", "sim.vec", "trial_s.p50", _V, "vec time per trial"),
    PerLayer("sim.vec.busy_s.alpha025", "s", "sim.vec", "alpha025_trial_s.p50", _V,
             "vec time per alpha=0.25 trial (candidate-pair FIFO drain)"),
    PerLayer("sim.vec.busy_s.alpha050", "s", "sim.vec", "alpha050_trial_s.p50", _V,
             "vec time per alpha=0.5 trial"),
    PerLayer("sim.vec.busy_s.alpha100", "s", "sim.vec", "alpha100_trial_s.p50", _V,
             "vec time per alpha=1.0 trial"),
    PerLayer("sim.vec.msgs_per_s", "msg/s", "sim.vec", "msgs_per_s", _V,
             "messages / vec busy seconds"),
    PerLayer("faults.plan_round.calls", "count", "faults", "alpha050_trial_s.p50", _V,
             "plan_round calls (raw count)"),
    PerLayer("faults.plan_round_s", "s", "faults", "alpha050_trial_s.p50", _V,
             "plan_round time per trial"),
    PerLayer("faults.select_faulty_s", "s", "faults", "alpha050_trial_s.p50", _V,
             "select_faulty time per trial"),
    PerLayer("faults.crash_orders", "count", "faults", "alpha050_trial_s.p50", _V,
             "crash orders issued per trial"),
    PerLayer("parallel.busy_s", "s", "parallel", "campaign_s.fresh.p50", _S,
             "run_trials_resilient time per campaign"),
    PerLayer("parallel.first_outcome_s", "s", "parallel", "first_record_s.p50", _S,
             "run_trials_resilient call to first outcome, per dispatching campaign"),
    PerLayer("parallel.dispatched_chunks", "count", "parallel", "campaign_s.fresh.p50", _S,
             "chunks dispatched per campaign"),
    PerLayer("parallel.trials_per_chunk", "ratio", "parallel", "campaign_s.fresh.p50", _S,
             "dispatched trials / dispatched chunks"),
    PerLayer("parallel.pool_rebuilds", "count", "parallel", "campaign_s.fresh.p50", _S,
             "pool rebuilds per campaign"),
    PerLayer("parallel.redispatched_trials", "count", "parallel", "campaign_s.fresh.p50", _S,
             "re-dispatched trials per campaign"),
    PerLayer("exec.attempts_per_trial", "ratio", "exec", "failed_ratio", _S,
             "useful outcomes / attempts over computed trials"),
    PerLayer("exec.retries", "count", "exec", "failed_ratio", _S, "retries per campaign"),
    PerLayer("exec.timeouts", "count", "exec", "failed_ratio", _S, "timeouts per campaign"),
    PerLayer("serve.submit_s", "s", "serve", "campaign_s.cached.p50", _S,
             "CampaignService.submit time per campaign"),
    PerLayer("serve.queue_wait_s", "s", "serve", "campaign_s.cached.p50", _S,
             "POST to campaign record, per campaign"),
    PerLayer("serve.cache.get.calls", "count", "serve", "campaign_s.cached.p50", _S,
             "ResultCache.get calls per campaign"),
    PerLayer("serve.cache.get_s", "s", "serve", "campaign_s.cached.p50", _S,
             "ResultCache.get time per campaign"),
    PerLayer("serve.cache.put.calls", "count", "serve", "campaign_s.mixed.p50", _S,
             "ResultCache.put calls per campaign"),
    PerLayer("serve.cache.put_s", "s", "serve", "campaign_s.mixed.p50", _S,
             "ResultCache.put time per campaign"),
    PerLayer("serve.cache.hit_ratio", "ratio", "serve", "campaign_s.mixed.p50", _S,
             "cache hits / ResultCache.get calls"),
    PerLayer("serve.stream.records", "count", "serve", "campaign_s.cached.p50", _S,
             "streamed records per campaign"),
    PerLayer("serve.stream.bytes", "bytes", "serve", "campaign_s.cached.p50", _S,
             "streamed body bytes per campaign"),
    PerLayer("net.wire_trial_s", "s", "net", "trial_s.p50", _W, "run_wire_trial time per trial"),
    PerLayer("net.loopback_trial_s", "s", "net", "trial_s.p50", _W,
             "run_loopback_trial time per trial"),
    PerLayer("net.transport_s", "s", "net", "trial_s.p50", _W,
             "wire minus loopback time per trial"),
    PerLayer("net.ms_per_round", "ms", "net", "trial_s.p50", _W, "wire milliseconds per round"),
    PerLayer("net.frames_sent", "count", "net", "trial_s.p50", _W, "data frames sent per trial"),
    PerLayer("net.frames_per_msg", "ratio", "net", "trial_s.p50", _W,
             "frames sent / simulated messages"),
    PerLayer("bench.traced_ops", "count", "bench", "trials_per_s", WORKLOADS,
             "traced operations: trials, or campaigns on serve-campaign"),
    PerLayer("bench.trace_overhead", "ratio", "bench", "trials_per_s", WORKLOADS,
             "median over pass pairs of traced / untraced seconds of the same inputs"),
    PerLayer("bench.trace_overhead.spread", "ratio", "bench", "trials_per_s", WORKLOADS,
             "(max - min) / median of the per-pair overhead ratios"),
)

#: Per-layer metrics where a larger value is the improvement.
LAYER_HIGHER_IS_BETTER = frozenset({
    "sim.vec.msgs_per_s", "parallel.trials_per_chunk", "exec.attempts_per_trial",
    "serve.cache.hit_ratio", "bench.traced_ops",
})

E2E_BY_NAME = {m.name: m for m in END_TO_END}
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def gated_end_to_end() -> List[EndToEnd]:
    """The end-to-end metrics ``BENCHMARK.json`` gates, in catalogue order."""
    return [m for m in END_TO_END if m.name in GATE_BOUNDS]


def end_to_end_for(workload: str) -> List[EndToEnd]:
    return [m for m in END_TO_END if workload in m.workloads]


def passes_for(workload: str, seconds: float) -> int:
    """Passes of one run: ``PASSES`` scaled by ``seconds / RUN_SECONDS``.
    Depends on the arguments alone, never on how fast a pass ran."""
    return max(1, round(PASSES[workload] * seconds / RUN_SECONDS))


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------


def p50(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that has at
    least ten samples above it, floored at the median.

    With fewer than 21 samples no order statistic above the median has
    ten beyond it, so the tail reads as the median.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    count = len(ordered)
    index = count - 11
    if index < (count - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / count
