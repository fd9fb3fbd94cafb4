"""One protocol for the observation planes (audit, profile, metrics, trace).

The runner never names a plane.  Each plane module exports one ``PROBE``
object, and everything that executes simulations on somebody's behalf —
the sweep scheduler and the CLI — talks to planes only through it:

``name``
    The registry key: also the ``RuntimeConfig`` switch, and the key its
    payloads travel under on ``TaskResult.probes``.
``capture(**opts)``
    A context manager; ``with`` binds a handle whose ``.payload`` — one
    plain picklable dict — is set when the block exits.  Captures nest
    innermost-wins: a simulation is claimed by the innermost open capture
    only, so a session-level capture around a sweep never double counts
    what the per-task captures already shipped.
``merge(payloads)`` / ``format(merged)``
    Fold payloads into one of the same shape; render it for stderr.  A
    merged payload carrying ``"ok": False`` fails the CLI run.
``active()``
    True when the plane is ambiently on in this process (inside a capture,
    or switched on by its environment variable).

Adding a plane is one module exporting ``PROBE`` plus its line in
:data:`_PLANES` (and a ``RuntimeConfig`` switch if sweeps should be able to
turn it on).  Plane modules are imported on first use of their name (the
dep-free trace module always is — the telemetry recorder lives there): a
sweep with the audit, profile and metrics planes off imports none of them.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

_PLANES = {
    "audit": "repro.audit",
    "profile": "repro.perf.profile",
    "metrics": "repro.obs",
    "trace": "repro.obs.trace",
}

#: Modules whose ``maybe_attach(net)`` wires an active plane into a freshly
#: finalized network.
_NETWORK_PLANES = ("repro.audit", "repro.obs")


def get(name: str):
    """The ``PROBE`` object registered under ``name``."""
    return importlib.import_module(_PLANES[name]).PROBE


def enabled(config) -> Tuple[str, ...]:
    """Probe names every task of a sweep runs under: the config's switches,
    plus the trace whenever a tracer is ambiently active (``tracing()`` or
    ``REPRO_TRACE`` in library use) — the runtime spans are recorded either
    way, and pool workers must capture their side of them."""
    names = config.probes
    if "trace" not in names and get("trace").active():
        names += ("trace",)
    return names


def attach_network(net) -> None:
    """:meth:`Network.finalize`'s hook: let every active plane wire itself
    into ``net`` (each is a no-op when its plane is off)."""
    for module in _NETWORK_PLANES:
        importlib.import_module(module).maybe_attach(net)


@contextlib.contextmanager
def capture(names: Sequence[str],
            opts: Optional[Mapping[str, dict]] = None) -> Iterator[dict]:
    """Enter each named probe's capture (``opts[name]`` are its keyword
    arguments); yields ``{name: handle}``, payloads ready after exit."""
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(
                   get(name).capture(**(opts or {}).get(name, {})))
               for name in names}


class Session:
    """What one CLI invocation (or test) observed: the payloads of every
    task the scheduler finished while it was open, plus its own outer
    capture of whatever ran directly in this process."""

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        #: ``(label, {name: payload})``: the outer capture's, then tasks'.
        self.banked: List[Tuple[str, Dict[str, dict]]] = []

    def merged(self, name: str) -> dict:
        """Everything banked for ``name``, folded by its probe's merge."""
        return get(name).merge([payloads[name] for _label, payloads
                                in self.banked if name in payloads])


_SESSIONS: List[Session] = []


def bank(label: str, payloads: Dict[str, dict]) -> None:
    """Credit a finished task's payloads to the innermost open session
    (no-op outside one, or for an unobserved task)."""
    if payloads and _SESSIONS:
        _SESSIONS[-1].banked.append((label, payloads))


@contextlib.contextmanager
def session(names: Sequence[str],
            opts: Optional[Mapping[str, dict]] = None) -> Iterator[Session]:
    """Open a :class:`Session` over ``names``; on a clean exit its outer
    captures (if it has any) are banked first, ahead of the tasks'."""
    sess = Session(names)
    _SESSIONS.append(sess)
    try:
        with capture(sess.names, opts) as outer:
            yield sess
        if outer:
            sess.banked.insert(0, ("", {name: handle.payload
                                        for name, handle in outer.items()}))
    finally:
        _SESSIONS.remove(sess)
