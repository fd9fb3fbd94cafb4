"""Self-chaos: fault injection aimed at the execution substrate itself.

``repro.chaos`` breaks the *simulated* fabric; this module breaks the
*simulator's own machinery* — killed workers, torn cache blobs, full
disks — so tests (and the CI ``resilience-smoke`` job) can assert that
journaling, pool recovery, and cache hygiene actually recover.

Directives come from ``REPRO_SELFCHAOS``, comma-separated:

============================  =============================================
``task:kill=<substr>``        a pool worker SIGKILLs itself when it starts
                              a task whose label contains ``<substr>``
``parent:kill=<n>``           the scheduler's own process SIGKILLs itself
                              once ``<n>`` tasks have completed
``parent:int=<n>``            the scheduler's own process sends itself
                              SIGINT once ``<n>`` tasks have completed
                              (deterministic Ctrl-C: exercises the
                              graceful drain without racing a timer)
``cache:torn``                the next cache put writes a truncated blob
``cache:enospc``              the next cache put fails with ENOSPC
============================  =============================================

Every directive fires **once per run**, claimed through an ``O_EXCL``
marker file so exactly one process wins even when the directive is
eligible in several workers at once.  Markers live in
``REPRO_SELFCHAOS_DIR`` when set (tests point it at a tmpdir), else in a
tempdir keyed by the directive string.  Production code calls
:func:`fire` at the injection points; with ``REPRO_SELFCHAOS`` unset the
cost is one env lookup.  A directive naming a point outside
:data:`POINTS` would never fire, so the CLI refuses it up front
(:func:`repro.runtime.config.check_env`).
"""

from __future__ import annotations

import errno
import hashlib
import os
import re
import signal
import time
from typing import List, Optional, Tuple

from repro.runtime.config import env_text

ENV_VAR = "REPRO_SELFCHAOS"
ENV_DIR = "REPRO_SELFCHAOS_DIR"

#: Injection points production code may fire.
POINTS = ("task:kill", "parent:kill", "parent:int", "cache:torn",
          "cache:enospc")


def armed() -> bool:
    return env_text(ENV_VAR) is not None


def directives() -> List[Tuple[str, Optional[str]]]:
    """``REPRO_SELFCHAOS`` split into ``(point, arg or None)`` pairs."""
    out = []
    for raw in (env_text(ENV_VAR) or "").split(","):
        raw = raw.strip()
        if not raw:
            continue
        point, _, arg = raw.partition("=")
        out.append((point, arg or None))
    return out


def _marker_dir() -> str:
    explicit = env_text(ENV_DIR)
    if explicit:
        return explicit
    import tempfile

    tag = hashlib.sha1((env_text(ENV_VAR) or "").encode()).hexdigest()[:10]
    return os.path.join(tempfile.gettempdir(), f"repro-selfchaos-{tag}")


def _claim(directive: str) -> bool:
    """Claim a directive's once-only marker; True if this caller won."""
    path = os.path.join(_marker_dir(),
                        re.sub(r"[^A-Za-z0-9_.=-]", "_", directive))
    try:
        os.makedirs(_marker_dir(), exist_ok=True)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    with os.fdopen(fd, "w") as fh:
        fh.write(f"pid={os.getpid()} t={time.time():.3f}\n")
    return True


def _matches(point: str, arg: Optional[str], *, label: Optional[str],
             count: Optional[int]) -> bool:
    if point in ("cache:torn", "cache:enospc"):
        return True
    if point == "task:kill":
        return label is not None and (arg or "") in label
    if point in ("parent:kill", "parent:int"):
        return count is not None and arg is not None and count >= int(arg)
    return False


def fire(point: str, *, label: Optional[str] = None,
         count: Optional[int] = None) -> bool:
    """True when an armed directive for ``point`` matches and was claimed."""
    if not armed():
        return False
    for d_point, arg in directives():
        if d_point != point:
            continue
        try:
            matched = _matches(point, arg, label=label, count=count)
        except ValueError:
            continue  # malformed numeric arg: ignore the directive
        if matched and _claim(f"{d_point}={arg}" if arg else d_point):
            return True
    return False


def kill_self() -> None:
    """SIGKILL the current process (no cleanup, no flush — that's the point)."""
    os.kill(os.getpid(), signal.SIGKILL)


def interrupt_self() -> None:
    """SIGINT the current process — a deterministic Ctrl-C.

    Unlike :func:`kill_self` this is *meant* to be survived: the graceful
    shutdown handler catches it, drains in-flight work, and exits with the
    interrupted status so ``repro resume`` can pick the campaign back up.
    """
    os.kill(os.getpid(), signal.SIGINT)


def enospc() -> OSError:
    return OSError(errno.ENOSPC, "injected ENOSPC (REPRO_SELFCHAOS)")


__all__ = ["ENV_VAR", "ENV_DIR", "POINTS", "armed", "directives", "fire",
           "kill_self", "interrupt_self", "enospc"]
