"""Real-network execution backend: the model, on actual sockets.

The sim (:mod:`repro.sim`) executes the paper's synchronous crash-fault
model as a discrete-event loop; this package executes the *same protocol
objects* as one OS process per node over localhost TCP, with heartbeat
failure detection, SIGKILL fault injection driven by chaos
:class:`~repro.chaos.script.CrashScript`\\ s, and a coordinator that
replays the engine's accounting from ground-truth node reports.

The headline artefact is the parity oracle (:mod:`repro.net.parity`):
for the same ``(spec, seed, script)``, wire message counts and outcomes
must equal the sim **exactly** — the real network is a measurement of
the model, not an approximation of it.

Modules:

* :mod:`~repro.net.spec` — :class:`WireSpec` and the shared sim/wire
  vocabulary (canonical outcomes, metrics dicts, the sim reference run);
* :mod:`~repro.net.comm` — length-prefixed JSON frames over asyncio TCP;
* :mod:`~repro.net.heartbeat` — heartbeat sender + timeout failure
  detector (injectable clock);
* :mod:`~repro.net.faults` — CrashScript-driven SIGKILL injection and
  partial final-round delivery;
* :mod:`~repro.net.rounds` — the round-barrier coordinator and the
  engine-exact :class:`RoundAccountant`;
* :mod:`~repro.net.node` — the node process, and the per-trial
  launcher (``python -m repro.net.node``) that forks all ``n`` of them;
* :mod:`~repro.net.driver` — :func:`run_wire_trial` /
  :func:`run_loopback_trial`, journals, teardown guarantees;
* :mod:`~repro.net.parity` — the sim-vs-wire oracle and the parity grid.
"""

import importlib

#: Public names by the submodule that defines them.  The package imports
#: none of them up front (PEP 562 ``__getattr__`` below): a node launcher
#: runs ``python -m repro.net.node``, which must not pull in the driver,
#: the parity oracle or the chaos fuzzer it never uses.
_EXPORTS = {
    "driver": ("WireTrialResult", "run_loopback_trial", "run_wire_trial"),
    "parity": (
        "PARITY_MODES",
        "ParityReport",
        "default_script",
        "parity_grid",
        "parity_specs",
        "run_parity_trial",
    ),
    "spec": ("WIRE_PROTOCOLS", "WireSpec"),
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
