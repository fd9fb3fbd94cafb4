"""Timing primitives: calibration kernel, per-child rusage, calibrated medians.

Why calibrated CPU seconds and not wall (sizing evidence in README.md): on
this shared 2-core box a fixed pure-Python loop costs up to twice the CPU
from one stretch of seconds to the next, independently on each core, in
bursts of tens of milliseconds on top of regimes that last seconds — and
the program's CPU time moves with it.  So the benchmark pins itself and
its children to one core, and *while* a timed piece of work runs a sampler
thread keeps firing a fixed calibration kernel on that same core (one
~15 ms chunk, then a 50 ms pause).  The piece is reported as::

    raw CPU seconds x CALIB_REF_S / mean(kernel chunk readings during it)

i.e. in seconds of a box on which a chunk reads exactly ``CALIB_REF_S``.
Sampling during the piece, not before and after it, is what makes this
work: 40 back-to-back repeats of one workload read IQR/median 7.8 % raw,
6.1 % calibrated by kernels bracketing the repeat, 1.9 % calibrated by
50 ms chunks sampled every 0.2 s while it ran — and, in a second sizing run,
0.8 % with 15 ms chunks every 65 ms (finer interleaving misses fewer
bursts) against 1.5 % for the 50 ms ones and 10.7 % raw.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

#: CPU seconds one kernel chunk takes on the reference box state (the usual
#: reading during sizing on this box).  Changing it or
#: ``CALIB_CHUNK_EVENTS`` rescales every calibrated metric: re-measure
#: baselines.
CALIB_REF_S = 0.015

#: Events one kernel chunk fires; sized so a chunk lasts ~``CALIB_REF_S``.
CALIB_CHUNK_EVENTS = 12_000

#: Pause between chunks: the sampler costs the core a quarter of its time.
CALIB_GAP_S = 0.05

#: No child of the benchmark may run longer than this (seconds).
CHILD_TIMEOUT_S = 150.0


class _Event:
    __slots__ = ("fn", "args", "state")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args
        self.state = 0


class _Port:
    __slots__ = ("queued", "sent", "busy_until")

    def __init__(self):
        self.queued = 0
        self.sent = 0
        self.busy_until = 0

    def on_packet(self, now: int, size: int) -> int:
        self.queued += size
        if now >= self.busy_until:
            self.busy_until = now + size * 8
            self.sent += 1
            self.queued -= size
        return self.busy_until


def calibration_kernel(n_events: int = CALIB_CHUNK_EVENTS,
                       n_ports: int = 512) -> int:
    """A fixed amount of simulator-shaped work; returns a checksum.

    Heap pushes and pops of ``(time, seq, event)`` tuples, bound-method
    dispatch and slot updates on a few hundred objects: the operations the
    packet engine spends its time in, so the kernel speeds up and slows
    down with the program when the box does.
    """
    ports = [_Port() for _ in range(n_ports)]
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for i, port in enumerate(ports):
        seq += 1
        push(heap, (i * 13 % 997, seq, _Event(port.on_packet, (64 + i % 1400,))))
    x = 12345
    for _ in range(n_events):
        now, _seq, event = pop(heap)
        nxt = event.fn(now, *event.args)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        push(heap, (nxt + x % 4096, seq,
                    _Event(ports[x % n_ports].on_packet, (64 + x % 1400,))))
    return sum(p.sent for p in ports)


class Calibrator:
    """Samples the kernel while timed work runs; remembers every reading."""

    def __init__(self):
        self.readings: List[float] = []

    @contextlib.contextmanager
    def sampling(self) -> Iterator[List[float]]:
        """Fire kernel chunks from a thread for as long as the block runs.

        Yields the list the readings (CPU seconds per chunk) accumulate in;
        it holds at least one reading once the block has exited.  The main
        thread is expected to spend the block waiting for children, so the
        sampler shares the core with *them*, not with the driver.
        """
        samples: List[float] = []
        stop = threading.Event()

        def loop() -> None:
            while True:
                t0 = time.thread_time()
                calibration_kernel()
                samples.append(time.thread_time() - t0)
                if stop.wait(CALIB_GAP_S):
                    return

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield samples
        finally:
            stop.set()
            thread.join()
            self.readings.extend(samples)


def calibrated(raw_cpu_s: float, samples: Sequence[float]) -> float:
    """``raw_cpu_s`` rescaled to the reference box state."""
    return raw_cpu_s * CALIB_REF_S / statistics.mean(samples)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with min / quartiles / n beside it (n >= 1)."""
    values = list(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"median": median, "min": min(values), "q1": q1, "q3": q3,
            "max": max(values), "n": len(values),
            "iqr_share": (q3 - q1) / median if median else 0.0}


@dataclass
class ChildUsage:
    """What one child process (and the descendants it reaped) cost."""

    returncode: int
    cpu_s: float
    wall_s: float
    maxrss_mb: float


def run_child(argv: Sequence[str], env: Dict[str, str], cwd=None,
              stderr=subprocess.DEVNULL) -> ChildUsage:
    """Run ``argv`` to completion and read *its own* rusage via ``wait4``.

    ``wait4`` reports the child plus the descendants the child waited for,
    so CPU is process-tree CPU and ``ru_maxrss`` the largest resident set of
    any process in that tree — for this child only.  ``RUSAGE_CHILDREN``
    would not do: its ``ru_maxrss`` is a high-water mark over every child
    ever reaped and never comes back down.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(list(argv), env=env, cwd=cwd,
                            stdout=subprocess.DEVNULL, stderr=stderr,
                            start_new_session=True)

    def _kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        _pid, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (Ctrl-C, SIGTERM turned into SystemExit): the child
        # must not outlive the benchmark.
        _kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # A worker that outlived its parent would still hold the group.
    _kill()
    return ChildUsage(returncode=proc.returncode,
                      cpu_s=ru.ru_utime + ru.ru_stime, wall_s=wall,
                      maxrss_mb=ru.ru_maxrss / 1024.0)


def child_env(src_dir, cache_dir, tmp_dir,
              extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment every child of the benchmark runs in.

    Every ``REPRO_*`` variable of the caller is scrubbed so ambient knobs
    (a developer's ``REPRO_PARALLEL``, a CI ``REPRO_AUDIT``) cannot change
    what is measured; the cache and temp directories live inside the
    benchmark's work directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src_dir)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_PROGRESS"] = "0"
    env["TMPDIR"] = str(tmp_dir)
    if extra:
        env.update(extra)
    return env


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process — and so every child it starts — to one CPU, so
    that the calibration kernel and the program run on the same core.  The
    highest-numbered allowed CPU: the lowest usually takes the interrupts.
    Returns the CPU, or ``None`` where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]
