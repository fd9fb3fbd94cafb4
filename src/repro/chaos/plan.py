"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is a seeded, serializable timeline of fault events.
Compound events (a link *flap*, a switch *blackout*, a bounded *loss
episode*) expand into primitive actions via :meth:`FaultPlan.timeline`,
which the :class:`~repro.chaos.controller.ChaosController` compiles onto
the simulator's event heap before the run starts.  Everything is plain
data: ``to_json``/``from_json`` round-trip exactly, so a plan can live in a
file that a scenario spec names (``chaos.plan``), and is hashed by content
into the cell's cache key.

Determinism contract: the same (plan, seed) pair always produces the same
fault timeline *and* the same stochastic drop decisions — loss episodes
draw from named RNG streams derived from the plan seed and the event's
position in the plan, never from any stream a transport uses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Tuple, Type

from repro.sim.units import US


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault.  ``t_ps`` is absolute sim time."""

    t_ps: int

    kind = "abstract"

    def __post_init__(self):
        if self.t_ps < 0:
            raise ValueError(f"{type(self).__name__}.t_ps must be >= 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = self.kind
        return d


@dataclass(frozen=True)
class LinkDown(FaultEvent):
    """Administratively fail the a<->b link (no automatic repair)."""

    a: str = ""
    b: str = ""
    #: "both" (paper §3.1 treats unidirectional failures as full failures
    #: for routing), "a->b", or "b->a".
    direction: str = "both"

    kind = "link_down"

    def __post_init__(self):
        super().__post_init__()
        if not self.a or not self.b:
            raise ValueError("link_down needs both endpoint names")
        if self.direction not in ("both", "a->b", "b->a"):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass(frozen=True)
class LinkUp(FaultEvent):
    """Repair the a<->b link (both directions)."""

    a: str = ""
    b: str = ""

    kind = "link_up"

    def __post_init__(self):
        super().__post_init__()
        if not self.a or not self.b:
            raise ValueError("link_up needs both endpoint names")


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """``flaps`` down/up cycles: down ``down_ps``, then up ``gap_ps``."""

    a: str = ""
    b: str = ""
    down_ps: int = 1000 * US
    flaps: int = 1
    gap_ps: int = 1000 * US

    kind = "link_flap"

    def __post_init__(self):
        super().__post_init__()
        if not self.a or not self.b:
            raise ValueError("link_flap needs both endpoint names")
        if self.down_ps <= 0 or self.flaps < 1 or self.gap_ps < 0:
            raise ValueError("link_flap needs down_ps > 0, flaps >= 1, gap_ps >= 0")


@dataclass(frozen=True)
class SwitchBlackout(FaultEvent):
    """Every link of switch ``node`` goes down, then back up."""

    node: str = ""
    duration_ps: int = 1000 * US

    kind = "switch_blackout"

    def __post_init__(self):
        super().__post_init__()
        if not self.node:
            raise ValueError("switch_blackout needs a node name")
        if self.duration_ps <= 0:
            raise ValueError("switch_blackout duration must be positive")


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """A Gilbert–Elliott loss episode on the a->b egress (optionally both).

    ``match`` selects which packets the episode may drop: "all", "credit"
    (only ExpressPass credit packets — the interesting case, since credit
    loss is the feedback signal), or "data".
    """

    a: str = ""
    b: str = ""
    duration_ps: int = 1000 * US
    p_enter_bad: float = 0.05
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 1.0
    match: str = "all"
    direction: str = "a->b"

    kind = "loss_burst"

    def __post_init__(self):
        super().__post_init__()
        if not self.a or not self.b:
            raise ValueError("loss_burst needs both endpoint names")
        if self.duration_ps <= 0:
            raise ValueError("loss_burst duration must be positive")
        if self.match not in ("all", "credit", "data"):
            raise ValueError(f"bad match {self.match!r}")
        if self.direction not in ("a->b", "b->a", "both"):
            raise ValueError(f"bad direction {self.direction!r}")
        # Probability ranges are validated again by GilbertElliott; check
        # here too so a bad plan fails at load time, not mid-run.
        if not 0.0 <= self.p_enter_bad <= 1.0 or not 0.0 < self.p_exit_bad <= 1.0:
            raise ValueError("loss_burst needs p_enter_bad in [0,1], p_exit_bad in (0,1]")


@dataclass(frozen=True)
class CreditMeterFault(FaultEvent):
    """Misconfigure the a->b port's credit rate limiter by ``factor``.

    ``factor > 1`` models an operator fat-fingering the 5 % reservation
    upward (the fault the audit plane's credit-rate mirror exists to catch);
    ``factor < 1`` starves credits.  Restored after ``duration_ps``.
    """

    a: str = ""
    b: str = ""
    duration_ps: int = 1000 * US
    factor: float = 2.0

    kind = "credit_meter"

    def __post_init__(self):
        super().__post_init__()
        if not self.a or not self.b:
            raise ValueError("credit_meter needs both endpoint names")
        if self.duration_ps <= 0 or self.factor <= 0:
            raise ValueError("credit_meter needs duration > 0 and factor > 0")


@dataclass(frozen=True)
class HostJitterFault(FaultEvent):
    """Scale host ``host``'s credit-processing delay by ``factor`` (a
    CPU-starved SoftNIC, Fig 14a's tail) for ``duration_ps``."""

    host: str = ""
    duration_ps: int = 1000 * US
    factor: float = 8.0

    kind = "host_jitter"

    def __post_init__(self):
        super().__post_init__()
        if not self.host:
            raise ValueError("host_jitter needs a host name")
        if self.duration_ps <= 0 or self.factor <= 0:
            raise ValueError("host_jitter needs duration > 0 and factor > 0")


_KINDS: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (LinkDown, LinkUp, LinkFlap, SwitchBlackout, LossBurst,
                CreditMeterFault, HostJitterFault)
}


def event_from_dict(data: dict) -> FaultEvent:
    """Inverse of :meth:`FaultEvent.to_dict`; unknown kinds/fields raise."""
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown fault kind {kind!r}; "
                         f"known: {', '.join(sorted(_KINDS))}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"{kind}: unknown field(s) {sorted(unknown)}")
    return cls(**data)


#: One primitive action the controller executes: (time, opcode, source
#: event, source-event index).  The index names RNG streams and pairs
#: start/end actions, so expansion is stable across serialization.
Action = Tuple[int, str, FaultEvent, int]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded timeline of fault events."""

    name: str = "chaos"
    seed: int = 0
    #: How long routing takes to "notice" a topology change and reroute —
    #: the blackhole window.  The paper's testbed recovers via rerouting in
    #: well under a second; default 200 µs keeps sims short but nonzero.
    reconverge_delay_ps: int = 200 * US
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.reconverge_delay_ps < 0:
            raise ValueError("reconverge_delay_ps must be >= 0")
        object.__setattr__(self, "events", tuple(self.events))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "seed": self.seed,
            "reconverge_delay_ps": self.reconverge_delay_ps,
            "events": [ev.to_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported fault-plan version {version}")
        return cls(
            name=data.get("name", "chaos"),
            seed=int(data.get("seed", 0)),
            reconverge_delay_ps=int(data.get("reconverge_delay_ps", 200 * US)),
            events=tuple(event_from_dict(e) for e in data.get("events", ())),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def with_seed(self, seed: int) -> "FaultPlan":
        from dataclasses import replace
        return replace(self, seed=seed)

    # -- compilation ---------------------------------------------------------
    def timeline(self) -> List[Action]:
        """Expand compound events into time-sorted primitive actions.

        Sorting is stable on (time, plan position): two actions landing on
        the same picosecond fire in plan order, every run.
        """
        actions: List[Action] = []
        for idx, ev in enumerate(self.events):
            if isinstance(ev, LinkDown):
                actions.append((ev.t_ps, "link_down", ev, idx))
            elif isinstance(ev, LinkUp):
                actions.append((ev.t_ps, "link_up", ev, idx))
            elif isinstance(ev, LinkFlap):
                t = ev.t_ps
                for _ in range(ev.flaps):
                    actions.append((t, "link_down", ev, idx))
                    actions.append((t + ev.down_ps, "link_up", ev, idx))
                    t += ev.down_ps + ev.gap_ps
            elif isinstance(ev, SwitchBlackout):
                actions.append((ev.t_ps, "switch_down", ev, idx))
                actions.append((ev.t_ps + ev.duration_ps, "switch_up", ev, idx))
            elif isinstance(ev, LossBurst):
                actions.append((ev.t_ps, "burst_start", ev, idx))
                actions.append((ev.t_ps + ev.duration_ps, "burst_end", ev, idx))
            elif isinstance(ev, CreditMeterFault):
                actions.append((ev.t_ps, "meter_set", ev, idx))
                actions.append((ev.t_ps + ev.duration_ps, "meter_restore", ev, idx))
            elif isinstance(ev, HostJitterFault):
                actions.append((ev.t_ps, "jitter_set", ev, idx))
                actions.append((ev.t_ps + ev.duration_ps, "jitter_restore", ev, idx))
            else:  # pragma: no cover - _KINDS and this dispatch move together
                raise TypeError(f"unhandled fault event {type(ev).__name__}")
        actions.sort(key=lambda a: a[0])
        return actions
