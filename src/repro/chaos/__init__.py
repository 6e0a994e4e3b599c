"""Adversary fuzzing: random fault schedules, safety oracles, shrinking.

The paper's theorems hold *for every* adaptive crash schedule; this
subpackage searches that space empirically.  A :class:`FuzzedAdversary`
samples schedules from a generation grammar, every run is checked against
the model validator plus protocol safety oracles, and failing schedules
are recorded as deterministic, replayable :class:`CrashScript` objects
and shrunk to minimal reproducers.

An *extended* :class:`GrammarConfig` fuzzes beyond the paper's model:
per-node Byzantine misbehaviour plans and bounded-delay delivery
schedules ride on the same scripts (wire-format version 2).  Oracle
violations that the sampled faults excuse are journalled *findings*
rather than campaign failures — the crash-safe properties (model
validator, engine contracts, crash-only oracles) must always hold.

See ``docs/CHAOS.md`` for the grammar, the oracle list, and the replay
workflow (``repro fuzz`` / ``repro replay``); ``docs/FAULTS.md`` for the
fault hierarchy.
"""

import importlib

#: Public names by the submodule that defines them, imported on first use
#: (PEP 562 ``__getattr__`` below): a wire node needs only
#: :mod:`~repro.chaos.script`, not the fuzzer, grammar, oracles and shrinker.
_EXPORTS = {
    "fuzzer": (
        "FAST_CONSTANTS",
        "PROTOCOLS",
        "SCENARIO_MODES",
        "FuzzCase",
        "FuzzReport",
        "FuzzScenario",
        "classify",
        "default_scenarios",
        "fuzz",
        "fuzz_one",
        "replay_case",
        "run_scenario",
    ),
    "grammar": ("FuzzedAdversary", "GrammarConfig", "sample_filter", "sample_script"),
    "oracles": (
        "FRAGILE_PREFIXES",
        "agreement_oracle",
        "downgrade_fragile",
        "leader_election_oracle",
    ),
    "script": (
        "SCRIPT_VERSION",
        "SUPPORTED_SCRIPT_VERSIONS",
        "CrashScript",
        "DeliveryFilter",
        "as_script",
    ),
    "shrink": ("ShrinkResult", "shrink_case", "shrink_script"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
