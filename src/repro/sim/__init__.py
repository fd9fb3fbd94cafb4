"""Discrete-event simulation engine.

This package is the lowest substrate of the reproduction: a deterministic
event scheduler with an integer-picosecond clock and named, independently
seeded random streams.  Everything else in :mod:`repro` (links, switches,
transports) is built on top of it.
"""

from repro._lazy import lazy_exports

_HOMES = {
    "repro.sim.engine": ("Event", "Simulator"),
    "repro.sim.units": (
        "PS", "NS", "US", "MS", "SEC", "KB", "MB", "GBPS", "bits_to_ps",
        "tx_time_ps", "ps_to_seconds", "seconds_to_ps", "fmt_time"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)
