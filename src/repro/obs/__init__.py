"""Run observability: provenance, phase timing, live progress, reports.

The paper's claims are *counting* claims, so the campaigns that measure
them must themselves be measurable.  This subpackage is the layer the
engine, sweeps, fuzzer, pool, and CLI thread through:

* :mod:`repro.obs.provenance` — a :class:`Manifest` capturing the full
  reproducibility envelope of a campaign (seed, grid, git SHA, versions,
  machine, argv), written alongside results and embedded in checkpoint
  journals;
* :mod:`repro.obs.timing` — :class:`PhaseTimers` with a near-zero-cost
  disabled path, instrumenting the engine's step/transmit/crash/deliver
  round phases;
* :mod:`repro.obs.progress` — an opt-in stderr heartbeat
  (:class:`ProgressReporter`) with throughput, ETA, retry/quarantine
  counts, and worker utilisation;
* :mod:`repro.obs.report` — ``repro report``: manifest + journal +
  merged metrics rendered as one campaign summary.
"""

from .progress import (
    NULL_PROGRESS,
    ProgressReporter,
    ensure_progress,
    format_duration,
    render_progress_line,
)
from .provenance import (
    MANIFEST_RECORD_KIND,
    Manifest,
    capture_manifest,
    is_manifest_record,
    load_manifest,
)
from .report import (
    Campaign,
    is_structural_record,
    journal_counts,
    load_campaign,
    merge_journal_metrics,
    merge_supervisor_stats,
    render_campaign_report,
)
from .timing import (
    ENGINE_PHASES,
    NULL_TIMERS,
    PHASE_CRASH,
    PHASE_DELIVER,
    PHASE_STEP,
    PHASE_TRANSMIT,
    PhaseTimers,
)

__all__ = [
    "Campaign",
    "ENGINE_PHASES",
    "MANIFEST_RECORD_KIND",
    "Manifest",
    "NULL_PROGRESS",
    "NULL_TIMERS",
    "PHASE_CRASH",
    "PHASE_DELIVER",
    "PHASE_STEP",
    "PHASE_TRANSMIT",
    "PhaseTimers",
    "ProgressReporter",
    "capture_manifest",
    "ensure_progress",
    "format_duration",
    "is_manifest_record",
    "is_structural_record",
    "journal_counts",
    "load_campaign",
    "load_manifest",
    "merge_journal_metrics",
    "merge_supervisor_stats",
    "render_campaign_report",
    "render_progress_line",
]
