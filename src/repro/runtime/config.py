"""Runtime configuration: how sweeps execute, cache, retry, and report.

A single :class:`RuntimeConfig` travels (implicitly, via :func:`get_config`)
from the entry point that knows the user's wishes — the CLI flags, benchmark
environment variables, or a test — down to :func:`repro.runtime.run_tasks`.
Experiments never take ``parallel=``/``cache=`` keyword arguments themselves;
they call ``run_matrix()`` or ``run_sweep()`` and inherit whatever the active
configuration says.
That keeps every ``run()`` signature about the *science* (flow counts, link
speeds, seeds) while execution policy stays in one place.

Environment variables (all optional) seed the defaults:

==========================  =====================================================
``REPRO_PARALLEL``          worker processes (0/1 = serial; default 0)
``REPRO_NO_CACHE``          "1" disables the result cache
``REPRO_CACHE_DIR``         cache directory (default ``~/.cache/repro-expresspass``)
``REPRO_RETRIES``           retry budget per task (default 2)
``REPRO_TASK_TIMEOUT``      per-task timeout in seconds, clocked from the
                            task's start on a pool worker, which is killed
                            when it expires (default: none)
``REPRO_PROGRESS``          "1" forces the stderr ticker on, "0" forces it off
``REPRO_CACHE_MAX_BYTES``   cache size cap before LRU eviction (default 512 MiB)
``REPRO_CACHE_MAX_ENTRIES`` cache entry cap before LRU eviction (default 4096)
``REPRO_AUDIT``             "1" runs every sweep task under the runtime
                            verifier (:mod:`repro.audit`); task results then
                            carry per-run audit summaries (and bypass the
                            result cache, as ``--audit`` does)
``REPRO_PROFILE``           "1" profiles every sweep task
                            (:mod:`repro.perf.profile`); task results then
                            carry per-run profile summaries (and bypass the
                            result cache, as ``--profile`` does)
``REPRO_METRICS``           "1" meters every sweep task (:mod:`repro.obs`);
                            task results then carry per-run metrics summaries
                            (and bypass the result cache, as ``--metrics``
                            does)
``REPRO_TRACE``             path for a cross-layer trace
                            (:mod:`repro.obs.trace`): JSONL at the path
                            plus Perfetto-loadable ``<path>.perfetto.json``.
                            Observation-only — never part of fingerprints
==========================  =====================================================

The resilience plane (:mod:`repro.resilience`, DESIGN.md §15) has its own
variables that do not travel through :class:`RuntimeConfig` — they
describe crash-safety machinery, not sweep policy, and several must reach
code that runs before or without a config:

==========================  =====================================================
``REPRO_JOURNAL``           path for the run journal
                            (``repro.resilience/v2`` JSONL), the one log of
                            every sweep and task event: tail it for
                            progress, ``repro resume`` it after a crash;
                            same effect as ``--journal``
``REPRO_SELFCHAOS``         comma-separated fault directives aimed at the
                            execution substrate itself (``task:kill=SUBSTR``,
                            ``parent:kill=N``, ``parent:int=N``,
                            ``cache:torn``, ``cache:enospc``); each fires
                            once per campaign
``REPRO_SELFCHAOS_DIR``     marker directory enforcing the once-only firing
                            across processes (default: a tempdir keyed by
                            the directive string)
==========================  =====================================================

Every ``REPRO_*`` read — these, the metrics plane's
``REPRO_METRICS_INTERVAL_PS`` and the scenario library's
``REPRO_SCENARIOS_DIR`` — goes through the three accessors below
(:func:`env_number`, :func:`env_flag`, :func:`env_text`), so there is one
truthiness rule and one answer to a hostile value: :class:`ConfigError`,
naming the variable, the value and the accepted range, which the CLI
prints as a single line (exit 2).
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from typing import Iterator, Optional


class ConfigError(ValueError):
    """A ``REPRO_*`` variable, or the CLI flag that overrides it, holds a
    value outside its accepted range."""


_ANY = (lambda v: True, "")
_NON_NEGATIVE = (lambda v: v >= 0, " >= 0")
_POSITIVE = (lambda v: v > 0, " > 0")

#: Every numeric knob: ``name -> (cast, default, (accepts, range text))``.
#: A knob whose reader clamps to a floor (snapshot interval) accepts any
#: number here.
_NUMBERS = {
    "REPRO_PARALLEL": (int, 0, _NON_NEGATIVE),
    "REPRO_RETRIES": (int, 2, _NON_NEGATIVE),
    "REPRO_TASK_TIMEOUT": (float, None, _POSITIVE),
    "REPRO_CACHE_MAX_BYTES": (int, 512 * 1024 * 1024, _NON_NEGATIVE),
    "REPRO_CACHE_MAX_ENTRIES": (int, 4096, _NON_NEGATIVE),
    "REPRO_METRICS_INTERVAL_PS": (int, None, _ANY),
}


def _raw(name: str, environ) -> Optional[str]:
    return (os.environ if environ is None else environ).get(name)


def env_number(name: str, environ=None):
    """The numeric knob ``name``: its default when unset or empty, else the
    parsed value — or :class:`ConfigError` if it does not parse or falls
    outside the accepted range."""
    raw = _raw(name, environ)
    if raw is None or raw == "":
        return _NUMBERS[name][1]
    return parse_number(name, raw)


def parse_number(name: str, raw: str, flag: Optional[str] = None):
    """``raw`` as a value of the numeric knob ``name``, or
    :class:`ConfigError`.  A CLI ``flag`` that overrides the knob is held
    to the same row of :data:`_NUMBERS`; the error then names the flag."""
    cast, _default, (accepts, range_text) = _NUMBERS[name]
    try:
        value = cast(raw)
        if value != value or not accepts(value):  # NaN never compares
            raise ValueError(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(
            f"{flag or name}={raw!r}: expected {kind}{range_text}") from None
    return value


#: Every on/off knob (:func:`env_flag`), parsed up front by :func:`check_env`.
_FLAGS = ("REPRO_NO_CACHE", "REPRO_PROGRESS", "REPRO_AUDIT", "REPRO_PROFILE",
          "REPRO_METRICS")


def env_flag(name: str, environ=None) -> bool:
    """True when the on/off knob ``name`` is set to ``1`` or ``true``;
    :class:`ConfigError` when it holds anything but those or ``0``/``false``."""
    raw = _raw(name, environ)
    if raw in (None, "", "0", "false"):
        return False
    if raw in ("1", "true"):
        return True
    raise ConfigError(f"{name}={raw!r}: expected 0/1/true/false")


def env_text(name: str, environ=None) -> Optional[str]:
    """The path/text knob ``name``, or ``None`` when unset or empty."""
    return _raw(name, environ) or None


def check_env() -> None:
    """Parse every numeric and on/off knob now, so a hostile value fails
    the CLI up front rather than deep inside the first task that happens to
    read it — and reject a ``REPRO_SELFCHAOS`` directive that names no
    injection point, which would otherwise silently never fire."""
    for name in _NUMBERS:
        env_number(name)
    for name in _FLAGS:
        env_flag(name)
    raw = env_text("REPRO_SELFCHAOS")
    if raw:
        from repro.resilience import selfchaos
        for point, _arg in selfchaos.directives():
            if point not in selfchaos.POINTS:
                raise ConfigError(
                    f"REPRO_SELFCHAOS={raw!r}: unknown point {point!r}; "
                    f"expected one of {', '.join(selfchaos.POINTS)}")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else XDG cache home, else ``~/.cache``."""
    env = env_text("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-expresspass"


class RuntimeConfig:
    """Execution policy for one or more sweeps.  Treat as immutable; derive
    a variant with :meth:`replace`."""

    def __init__(self, parallel: int = 0,
                 cache_enabled: Optional[bool] = None,
                 cache_dir: Optional[pathlib.Path] = None,
                 retries: int = 2, backoff_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 progress: Optional[bool] = None,
                 max_cache_bytes: int = 512 * 1024 * 1024,
                 max_cache_entries: int = 4096, audit: bool = False,
                 profile: bool = False, metrics: bool = False,
                 trace: bool = False):
        #: Worker processes.  0 or 1 runs tasks serially in-process.
        self.parallel = parallel
        #: True/False force the result cache on/off; None = on unless a
        #: plane that observes the simulations themselves is on (see
        #: ``use_cache``).
        self.cache_enabled = cache_enabled
        self.cache_dir = cache_dir  # None -> default_cache_dir()
        #: Additional attempts after the first failure (so 2 -> up to 3).
        self.retries = retries
        #: Sleep between attempts, doubled each retry (kept tiny: tasks are
        #: deterministic, so backoff only matters for resource exhaustion).
        self.backoff_s = backoff_s
        #: Per-task limit (seconds) from its start on a worker; None =
        #: unlimited.
        self.task_timeout_s = task_timeout_s
        #: True/False force the stderr ticker; None = only when stderr is a
        #: tty.
        self.progress = progress
        self.max_cache_bytes = max_cache_bytes
        self.max_cache_entries = max_cache_entries
        #: Run every task under :mod:`repro.audit` (observation-only
        #: invariant checking); audit summaries ride on the TaskResults.
        self.audit = audit
        #: Profile every task's simulations (:mod:`repro.perf.profile`);
        #: profile summaries ride on the TaskResults.
        self.profile = profile
        #: Meter every task's simulations (:mod:`repro.obs` counters,
        #: series, flow spans); metrics summaries ride on the TaskResults.
        self.metrics = metrics
        #: Capture cross-layer spans (:mod:`repro.obs.trace`) for every
        #: task.  Observation-only execution policy: the tracer touches no
        #: RNG, event heap, or fingerprint, so results are bit-identical
        #: either way.
        self.trace = trace

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields changed (an unknown one is a
        ``TypeError``, as in the constructor)."""
        return RuntimeConfig(**{**vars(self), **changes})

    def __eq__(self, other) -> bool:
        if type(other) is not RuntimeConfig:
            return NotImplemented
        return vars(self) == vars(other)

    @classmethod
    def from_env(cls, environ=None) -> "RuntimeConfig":
        cache_dir = env_text("REPRO_CACHE_DIR", environ)
        return cls(
            parallel=env_number("REPRO_PARALLEL", environ),
            cache_enabled=(False if env_flag("REPRO_NO_CACHE", environ)
                           else None),
            cache_dir=pathlib.Path(cache_dir) if cache_dir else None,
            retries=env_number("REPRO_RETRIES", environ),
            task_timeout_s=env_number("REPRO_TASK_TIMEOUT", environ),
            progress=(None if env_text("REPRO_PROGRESS", environ) is None
                      else env_flag("REPRO_PROGRESS", environ)),
            max_cache_bytes=env_number("REPRO_CACHE_MAX_BYTES", environ),
            max_cache_entries=env_number("REPRO_CACHE_MAX_ENTRIES", environ),
            audit=env_flag("REPRO_AUDIT", environ),
            profile=env_flag("REPRO_PROFILE", environ),
            metrics=env_flag("REPRO_METRICS", environ),
            trace=env_text("REPRO_TRACE", environ) is not None,
        )

    def resolved_cache_dir(self) -> pathlib.Path:
        return self.cache_dir or default_cache_dir()

    @property
    def use_cache(self) -> bool:
        """Whether sweeps read and write the result cache.  Unless
        ``cache_enabled`` forces it, yes — but not while auditing,
        profiling or metering, which observe the simulations themselves: a
        cache-served task runs none, so it would observe nothing (an audit
        of a warm cache would pass having checked nothing).  One rule for
        the flags and the ``REPRO_*`` knobs alike."""
        if self.cache_enabled is not None:
            return self.cache_enabled
        return not (self.audit or self.profile or self.metrics)

    @property
    def probes(self) -> tuple:
        """Names of the observation planes (:mod:`repro.runtime.probes`)
        the four switches above enable, in capture-entry order."""
        return tuple(name for name in ("audit", "profile", "metrics", "trace")
                     if getattr(self, name))


_ACTIVE: Optional[RuntimeConfig] = None


def get_config() -> RuntimeConfig:
    """The active config: whatever :func:`configure` set, else the env."""
    return _ACTIVE if _ACTIVE is not None else RuntimeConfig.from_env()


def configure(**overrides) -> RuntimeConfig:
    """Set the process-wide active config.

    Starts from the current active config (or the environment) and applies
    only the given fields, so ``configure(parallel=4)`` keeps cache settings.
    """
    global _ACTIVE
    base = get_config()
    _ACTIVE = base.replace(**overrides)
    return _ACTIVE


def reset() -> None:
    """Drop any :func:`configure` overrides; fall back to the environment."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def using(**overrides) -> Iterator[RuntimeConfig]:
    """Temporarily override the active config (tests, nested sweeps)."""
    global _ACTIVE
    prior = _ACTIVE
    try:
        yield configure(**overrides)
    finally:
        _ACTIVE = prior
