"""Per-layer tracing from outside the program.

:class:`Tracer` times calls into the public functions of each layer by
replacing them, for the traced run only, with wrappers that record a span
(name, start, end, enclosing span) and per-layer counters.  Nothing in
``src/`` changes: :meth:`Tracer.install` patches module and class
attributes and :meth:`Tracer.uninstall` puts the originals back.

Adversary methods are wrapped on their classes, so
``repro.sim.vec.VEC_ADVERSARIES`` (an exact-type allowlist) still admits
every adversary the benchmark builds.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

OnResult = Callable[[Tuple[Any, ...], Dict[str, Any], Any, float], None]

ENGINE_PHASES = ("step", "transmit", "crash", "deliver")


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: span name -> calls / total seconds / seconds minus child spans.
        self.calls: "Counter[str]" = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: free-form counters filled by the ``on_result`` hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Dict[str, Any]] = []
        # Pool workers fork from a traced campaign service; a lock held by
        # another thread at fork time would never be released in the child.
        os.register_at_fork(after_in_child=self._reset_lock)

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, call: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
        """Run ``call`` inside a span; returns ``(result, seconds)``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            seconds = end - start
            if stack:
                stack[-1][1] += seconds
            with self._lock:
                self.calls[name] += 1
                self.busy[name] += seconds
                self.self_time[name] += seconds - frame[1]
                self.spans.append(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "thread": threading.get_ident()}
                )
        return result, seconds

    # -- patching --------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, on_result: Optional[OnResult] = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result, seconds = tracer.span(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result, seconds)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import repro.core
        import repro.net.driver
        import repro.serve.service
        import repro.sim.vec
        from repro.faults import adversary, strategies
        from repro.serve.cache import ResultCache
        from repro.serve.service import CampaignService
        from repro.sim.network import Network

        for fn in ("elect_leader", "agree"):
            self.wrap(repro.core, fn, "core")
        self.wrap(Network, "run", "sim.run", self._on_network_run)
        for fn in ("run_election_vec", "run_agreement_vec"):
            self.wrap(repro.sim.vec, fn, "sim.vec", self._on_vec_run)
        classes = [adversary.Adversary] + [
            cls for cls in vars(strategies).values()
            if isinstance(cls, type) and issubclass(cls, adversary.Adversary)
            and cls.__module__ == strategies.__name__
        ]
        for cls in classes:
            if "select_faulty" in cls.__dict__:
                self.wrap(cls, "select_faulty", "faults.select_faulty")
            if "plan_round" in cls.__dict__:
                self.wrap(cls, "plan_round", "faults.plan_round", self._on_plan_round)
        self._wrap_pool(repro.serve.service)
        self.wrap(CampaignService, "submit", "serve.submit")
        self.wrap(ResultCache, "get", "serve.cache.get", self._on_cache_get)
        self.wrap(ResultCache, "put", "serve.cache.put")
        self.wrap(repro.net.driver, "run_wire_trial", "net.wire", self._on_wire_trial)
        self.wrap(repro.net.driver, "run_loopback_trial", "net.loopback")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (start/end are perf_counter seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    # -- layer hooks -----------------------------------------------------

    def _on_network_run(self, args: Any, kwargs: Any, run: Any, seconds: float) -> None:
        metrics = run.metrics
        self.add("sim.rounds", metrics.rounds_executed)
        self.add("sim.msgs", metrics.messages_sent)
        for phase in ENGINE_PHASES:
            self.add(f"sim.{phase}_s", metrics.phase_seconds.get(phase, 0.0))

    def _on_vec_run(self, args: Any, kwargs: Any, run: Any, seconds: float) -> None:
        bucket = f"alpha{round(args[0].alpha * 100):03d}"
        self.add(f"sim.vec.busy_s.{bucket}", seconds)
        self.add(f"sim.vec.calls.{bucket}", 1)
        self.add("sim.vec.msgs", run.metrics.messages_sent)

    def _on_plan_round(self, args: Any, kwargs: Any, orders: Any, seconds: float) -> None:
        self.add("faults.crash_orders", len(orders) if orders else 0)

    def _on_cache_get(self, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        self.add("serve.cache.hits", 1 if result[0] else 0)

    def _on_wire_trial(self, args: Any, kwargs: Any, result: Any, seconds: float) -> None:
        self.add("net.rounds", result.rounds)
        self.add("net.frames_sent", sum(f.get("sent", 0) for f in result.frames.values()))
        if result.metrics is not None:
            self.add("net.msgs", result.metrics.messages_sent)

    def _wrap_pool(self, module: Any) -> None:
        """``run_trials_resilient`` as the campaign service calls it, plus
        the time to its first outcome and the supervisor's counters."""
        original = module.run_trials_resilient
        tracer = self

        @functools.wraps(original)
        def wrapper(specs: Any, *args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            hook = kwargs.get("on_outcome")
            first: List[float] = []

            def on_outcome(spec: Any, outcome: Any) -> None:
                if not first:
                    first.append(time.perf_counter() - started)
                if hook is not None:
                    hook(spec, outcome)

            kwargs["on_outcome"] = on_outcome
            result, _ = tracer.span("parallel", original, specs, *args, **kwargs)
            stats = kwargs["executor"].last_supervisor_stats
            tracer.add("parallel.calls", 1)
            tracer.add("parallel.first_outcome_s", first[0] if first else 0.0)
            tracer.add("parallel.dispatched_trials", len(specs))
            if stats is not None:
                tracer.add("parallel.dispatched_chunks", stats.dispatched_chunks)
                tracer.add("parallel.pool_rebuilds", stats.pool_rebuilds)
                tracer.add("parallel.redispatched_trials", stats.redispatched_trials)
            return result

        module.run_trials_resilient = wrapper
        self._patches.append((module, "run_trials_resilient", original))
