"""One description of a trial, and the one place its model quantities come from.

Every number this package reports is a function of ``(n, alpha)``: the
fault budget ``f <= (1 - alpha) n`` and the ``Theta(log n / alpha)``
round schedule of Theorems 4.1/5.1.  A :class:`Scenario` pins what a
trial runs — protocol, size, non-faulty fraction, inputs, an optional
explicit fault budget, extra rounds, and an optional :class:`Params`
override — and its methods are the only code that turns that into
``Params``, a schedule, a horizon, a fault budget, input bits, a
knowledge model and per-node protocol objects.

The seed and the fault schedule are not part of it: the sim runners
(:mod:`repro.core.runner`), the wire backend (:class:`repro.net.WireSpec`)
and the fuzzer (:class:`repro.chaos.FuzzScenario`) add those, and the two
specs *are* scenarios (subclasses adding only their own fields), so sim
and wire derive the same horizon and budget by construction.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import ConfigurationError
from .params import Params
from .rng import derive_seed
from .sim.node import Protocol
from .types import Knowledge

#: Protocols a scenario can describe.
PROTOCOLS = ("election", "agreement", "flooding", "ben_or")

#: Named input patterns for the agreement problem.
INPUT_PATTERNS = ("all0", "all1", "mixed", "single0", "single1")

#: Rounds flooding runs past its ``f + 1`` broadcast rounds: the last
#: broadcast is delivered, then every node decides.
FLOODING_TAIL_ROUNDS = 2

Inputs = Union[str, Sequence[int]]


def make_inputs(n: int, pattern: Inputs, seed: int = 0) -> List[int]:
    """Materialise an input-bit vector for the agreement problem.

    ``pattern`` is either an explicit bit sequence or one of
    :data:`INPUT_PATTERNS`:

    * ``all0`` / ``all1`` — unanimous inputs;
    * ``mixed`` — independent fair coin per node;
    * ``single0`` / ``single1`` — one random node holds the minority bit
      (the hardest validity cases: the lone value must either spread or
      die with its holder).
    """
    if not isinstance(pattern, str):
        inputs = [int(b) for b in pattern]
        if len(inputs) != n:
            raise ConfigurationError(
                f"got {len(inputs)} input bits for n={n} nodes"
            )
        if any(b not in (0, 1) for b in inputs):
            raise ConfigurationError("inputs must be bits")
        return inputs
    rng = random.Random(derive_seed(seed, "inputs", pattern))
    if pattern == "all0":
        return [0] * n
    if pattern == "all1":
        return [1] * n
    if pattern == "mixed":
        return [rng.randint(0, 1) for _ in range(n)]
    if pattern == "single0":
        inputs = [1] * n
        inputs[rng.randrange(n)] = 0
        return inputs
    if pattern == "single1":
        inputs = [0] * n
        inputs[rng.randrange(n)] = 1
        return inputs
    raise ConfigurationError(
        f"unknown input pattern {pattern!r}; choose from {INPUT_PATTERNS}"
    )


@dataclass(frozen=True)
class Scenario:
    """Everything about a trial except its seed and fault schedule."""

    protocol: str
    n: int
    alpha: float
    #: A named pattern or explicit bits; ``None`` means no inputs (an
    #: election run by itself).
    inputs: Optional[Union[str, Sequence[int]]] = "mixed"
    #: Explicit fault budget; ``None`` derives it (:meth:`fault_budget`).
    faulty_count: Optional[int] = None
    #: Rounds appended after the nominal horizon.
    extra_rounds: int = 0
    #: Replaces ``Params(n, alpha)`` (tuned sampling constants).
    params_override: Optional[Params] = None

    #: Protocols this kind of scenario accepts, and what errors call them.
    supported: ClassVar[Tuple[str, ...]] = PROTOCOLS
    kind: ClassVar[str] = "protocol"

    def __post_init__(self) -> None:
        if self.protocol not in self.supported:
            raise ConfigurationError(
                f"unknown {self.kind} {self.protocol!r}; "
                f"choose from {self.supported}"
            )
        if self.inputs is not None and not isinstance(self.inputs, str):
            object.__setattr__(self, "inputs", tuple(self.inputs))

    # ------------------------------------------------------------------
    # Derived model quantities
    # ------------------------------------------------------------------

    def params(self) -> Params:
        """Sampling parameters (validates ``(n, alpha)`` against the model)."""
        if self.params_override is not None:
            return self.params_override
        return Params(n=self.n, alpha=self.alpha)

    def schedule(self) -> Any:
        """The protocol's round schedule: the paper protocols' schedule
        objects, flooding's ``f + 1`` broadcast rounds, ``None`` for Ben-Or
        (whose phases count certificates, not rounds)."""
        from .core.schedule import AgreementSchedule, LeaderElectionSchedule

        if self.protocol == "election":
            return LeaderElectionSchedule.from_params(self.params())
        if self.protocol == "agreement":
            return AgreementSchedule.from_params(self.params())
        if self.protocol == "flooding":
            return self.fault_budget() + 1
        return None

    def faulty_set(self) -> Tuple[int, ...]:
        """Nodes a fault script fixes as faulty (none here; see WireSpec)."""
        return ()

    def fault_budget(self) -> int:
        """How many nodes may be faulty: ``faulty_count`` when set, else
        ``Params.max_faulty`` — capped at ``(n - 1) // 2`` for Ben-Or
        (``f < n/2``), and for flooding, which tolerates any ``f < n``,
        the size of the script's faulty set."""
        if self.faulty_count is not None:
            return self.faulty_count
        if self.protocol == "flooding":
            return len(self.faulty_set())
        budget = self.params().max_faulty
        if self.protocol == "ben_or":
            return min(budget, (self.n - 1) // 2)
        return budget

    def horizon(self) -> int:
        """Rounds a run is given: the nominal round count plus ``extra_rounds``."""
        if self.protocol == "flooding":
            nominal = self.schedule() + FLOODING_TAIL_ROUNDS
        elif self.protocol == "ben_or":
            from .baselines.ben_or import ben_or_horizon

            # The synchronous timetable: a delayed run stretches past it,
            # which only means the latest crashes land while it still runs.
            nominal = ben_or_horizon()
        else:
            nominal = self.schedule().last_round
        return nominal + self.extra_rounds

    def input_bits(self, seed: int) -> List[int]:
        """The input vector for ``seed``."""
        if self.inputs is None:
            raise ConfigurationError(f"this {self.protocol} scenario has no inputs")
        return make_inputs(self.n, self.inputs, seed)

    def knowledge(self) -> Knowledge:
        """Knowledge model of the protocol (flooding assumes KT1)."""
        return Knowledge.KT1 if self.protocol == "flooding" else Knowledge.KT0

    def protocol_factory(self, seed: int) -> Callable[[int], Protocol]:
        """Node ``u``'s protocol object, exactly as every backend builds it."""
        if self.protocol == "election":
            from .core.leader_election import LeaderElectionProtocol

            params, schedule = self.params(), self.schedule()
            return lambda u: LeaderElectionProtocol(u, params, schedule)
        bits = self.input_bits(seed)
        if self.protocol == "agreement":
            from .core.agreement import AgreementProtocol

            params, schedule = self.params(), self.schedule()
            return lambda u: AgreementProtocol(u, params, schedule, bits[u])
        if self.protocol == "flooding":
            from .baselines.flooding import FloodingConsensusProtocol

            rounds = self.schedule()
            return lambda u: FloodingConsensusProtocol(u, self.n, bits[u], rounds)
        raise ConfigurationError(
            "ben_or runs through repro.baselines.ben_or_consensus"
        )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.inputs is not None and not isinstance(self.inputs, str):
            data["inputs"] = list(self.inputs)
        if self.params_override is not None:
            data["params_override"] = asdict(self.params_override)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Rebuild from :meth:`to_dict` (a subclass's too): keys the class
        does not take are ignored, missing ones take the field defaults."""
        names = {f.name for f in fields(cls) if f.init}
        kwargs = {key: value for key, value in data.items() if key in names}
        if kwargs.get("params_override") is not None:
            kwargs["params_override"] = Params(**kwargs["params_override"])
        return cls(**kwargs)
