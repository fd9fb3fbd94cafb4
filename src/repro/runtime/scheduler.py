"""Sweep executor: cache lookup, worker processes, retries, serial fallback.

Execution contract (what makes parallel safe for a *reproduction*):

* **Determinism.**  Results are reassembled by task index, never completion
  order, and every task carries its own seed in its kwargs — so a sweep's
  rows are bit-identical whether it ran serially, on N workers, or from
  cache.  Tests assert this.
* **Fault tolerance.**  A task that raises is retried (``retries`` budget,
  exponential backoff) and, if it keeps failing, reported as a failed
  :class:`TaskResult` without killing the sweep.  A worker that dies under
  a task (SIGKILL, OOM, segfault) is that task's failure — ``worker died
  (exit N)``, same retry budget, on another worker, never re-executed in
  the parent — and a fresh process takes its slot.  Only what a worker
  process cannot do degrades to in-process serial execution: a process the
  OS refuses to start, a task whose spec or result value does not pickle.
* **One task per worker, so timeouts are exact.**  Each worker process
  holds one task at a time on its own pipe; what has started, since when,
  and which process to stop are all one field in the parent.
  ``task_timeout_s`` is clocked from the moment a task is sent to its
  worker (never queue time); when it expires that worker is SIGKILLed and
  reaped, a fresh one takes its slot, and the attempt counts as a failure.
  No process started here outlives ``run_tasks``.

Workers are initialised with ``parallel=0`` so a task that itself calls
``run_sweep`` (e.g. the summary driver invoking another experiment) runs
serially inside its worker rather than forking a nested pool.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.resilience import selfchaos
from repro.resilience import signals as shutdown
from repro.runtime import probes
from repro.runtime.cache import ResultCache
from repro.runtime.config import RuntimeConfig, get_config
from repro.runtime.task import SweepPlan, TaskSpec
from repro.runtime.telemetry import Telemetry

#: True inside pool worker processes (set by :func:`_worker_init`); gates
#: self-chaos injection points that must only ever kill a *worker*.
_IN_POOL_WORKER = False


@dataclass
class TaskResult:
    """Outcome of one task: a value or an error, never an exception flow."""

    index: int
    label: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    cached: bool = False
    wall_s: float = 0.0
    #: True when the task was cut short by a drain (SIGINT/SIGTERM) rather
    #: than failing on its own; ``error`` names the signal.  Interrupted
    #: tasks re-execute on resume.
    interrupted: bool = False
    #: ``{probe name: payload}`` for every observation plane the task
    #: executed under (:mod:`repro.runtime.probes` — the ``RuntimeConfig``
    #: ``audit``/``profile``/``metrics``/``trace`` switches); empty for an
    #: unobserved or cache-served task.
    probes: Dict[str, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


class SweepError(RuntimeError):
    """Raised by strict sweeps when tasks failed after all retries."""

    def __init__(self, failures: Sequence[TaskResult]):
        self.failures = list(failures)
        detail = "; ".join(f"task#{f.index} {f.label}: {f.error}"
                           for f in self.failures[:5])
        super().__init__(f"{len(self.failures)} sweep task(s) failed: {detail}")


def _call(spec: TaskSpec, names: Tuple[str, ...] = ()) -> tuple:
    """Worker entry point (module-level so it pickles).

    Returns ``(value, {probe name: payload})`` for the probes in ``names``
    (:func:`repro.runtime.probes.enabled`).  Capturing happens *here*, in
    whichever process executes the task, so parallel workers observe their
    own simulations and ship plain-dict payloads back; with no probe
    enabled the task is a bare ``spec.call()``.

    A task that constructed a packet :class:`~repro.sim.engine.Simulator`
    ends with one ``gc.collect()``: a finished simulation is one web of
    cycles (flows, ports, hosts and events all point back at it) that
    reference counting never frees, and without the collect a sweep's
    cells pile up until the interpreter exits.  The engine counts its
    constructions; reading the count through ``sys.modules`` keeps this
    module from importing it, and a fluid task or a cache hit — which
    builds no simulator — pays nothing.  ``python -m repro`` freezes its
    start-up objects, so the collect walks only what the run allocated.
    """
    if _IN_POOL_WORKER and selfchaos.armed() \
            and selfchaos.fire("task:kill", label=spec.label):
        selfchaos.kill_self()
    built = _simulators_created()
    if names:
        with probes.capture(names) as handles:
            value = spec.call()
        payloads = {name: handle.payload for name, handle in handles.items()}
    else:
        value, payloads = spec.call(), {}
    if _simulators_created() != built:
        gc.collect()
    return value, payloads


def _simulators_created() -> int:
    engine = sys.modules.get("repro.sim.engine")
    return 0 if engine is None else engine.simulators_created


def _worker_init() -> None:
    """Force serial execution inside workers (no nested pools).

    Also drops ``REPRO_TRACE`` and ``REPRO_JOURNAL`` from the worker's
    environment: the worker traces into a per-task capture buffer shipped
    back on the result, and journaling belongs to the coordinating parent
    — a worker that journaled its nested serial sweeps would interleave
    garbage into the campaign manifest.
    """
    global _IN_POOL_WORKER
    from repro.runtime import config as _config

    _IN_POOL_WORKER = True
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_JOURNAL", None)
    _config.configure(parallel=0, progress=False)


def _worker_main(conn, inherited) -> None:
    """Pool worker process: one task at a time until the parent hangs up.

    Receives ``(spec, names)``, runs :func:`_call`, replies ``(True,
    (value, payloads))`` or ``(False, error)`` — or ``(None, error)`` when
    the task ran but its reply does not pickle, which only the serial path
    can fix.  ``inherited`` are the parent's pipe ends a forked child
    holds copies of; closing them is what lets EOF reach every worker when
    the parent closes its end — or is SIGKILLed.
    """
    for parent_end in inherited:
        parent_end.close()
    _worker_init()
    while True:
        try:
            spec, names = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, _call(spec, names))
        except Exception as exc:
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone; nobody wants the result
        except Exception as exc:
            # ``send`` pickles before it writes a byte, so anything that is
            # not an I/O error is the value refusing to pickle.
            conn.send((None, f"{type(exc).__name__}: {exc}"))


class _Worker:
    """One pool process and the parent's end of its pipe.  ``task`` is
    ``(index, t_sent)`` while the process runs one and ``None`` while it
    idles in ``recv`` — the whole answer to "what has started, since when,
    and which process do I stop"."""

    def __init__(self, siblings: Sequence["_Worker"]):
        """Start the process; ``OSError`` when the OS refuses one."""
        import multiprocessing

        self.task: Optional[Tuple[int, float]] = None
        self.conn, child_end = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main, daemon=True,
            args=(child_end, [w.conn for w in siblings] + [self.conn]))
        try:
            self.proc.start()
        except OSError:
            self.conn.close()
            raise
        finally:
            child_end.close()

    def stop(self, grace_s: float = 0.0) -> Optional[int]:
        """Hang up (an idle worker reads EOF and returns), give the process
        ``grace_s`` to exit by itself, SIGKILL it if it has not, and reap
        it.  Returns the exit code — read after the join, which sets it."""
        self.conn.close()
        self.proc.join(grace_s)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join(5)
        return self.proc.exitcode


def run_tasks(
    tasks: Union[SweepPlan, Sequence[TaskSpec]],
    name: str = "",
    config: Optional[RuntimeConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> List[TaskResult]:
    """Execute tasks under the active config; results ordered by task index."""
    if isinstance(tasks, SweepPlan):
        specs = list(tasks.tasks)
        name = name or tasks.name
    else:
        specs = list(tasks)
        name = name or "sweep"
    config = config or get_config()
    tel = telemetry or Telemetry(name, len(specs), progress=config.progress)
    names = probes.enabled(config)

    cache = None
    if config.use_cache:
        cache = ResultCache(config.resolved_cache_dir(),
                            config.max_cache_bytes, config.max_cache_entries)

    results: List[Optional[TaskResult]] = [None] * len(specs)
    #: index -> (cache key, task identity): the identity is rendered once
    #: per spec and serves both the key and the entry's ``task`` field.
    keys: Dict[int, Tuple[str, str]] = {}
    pending: List[int] = []
    for i, spec in enumerate(specs):
        key = None
        if cache is not None:
            identity = spec.identity
            key = cache.key_for(spec, identity)
            keys[i] = (key, identity)
        tel.task_queued(i, spec.label, key)
        if cache is not None:
            hit, value = cache.get(key)
            if hit:
                results[i] = TaskResult(i, spec.label, value=value,
                                        cached=True)
                tel.cache_hit(i, spec.label)
                continue
            tel.cache_miss(i, spec.label)
        pending.append(i)

    if pending and config.parallel >= 2 and not shutdown.shutdown_requested():
        pending = _run_pool(specs, pending, results, config, tel, cache,
                            keys, names)
    if pending:
        _run_serial(specs, pending, results, config, tel, cache, keys, names)

    # A drain may leave tasks unexecuted (cancelled, deferred, or never
    # reached).  Every index still gets a real TaskResult so callers that
    # zip results against their own task lists stay aligned.
    signame = shutdown.shutdown_requested()
    if signame:
        for i, spec in enumerate(specs):
            if results[i] is None:
                _mark_interrupted(results, i, spec.label, signame, tel)

    tel.close()
    return [r for r in results if r is not None]


def _mark_interrupted(results, index: int, label: str, signame: str,
                      tel: Telemetry, attempts: int = 0) -> None:
    results[index] = TaskResult(index, label,
                                error=f"interrupted ({signame})",
                                interrupted=True, attempts=attempts)
    tel.task_interrupted(index, label, signame)


def _complete(results, tel: Telemetry, cache: Optional[ResultCache],
              keys: Dict[int, Tuple[str, str]], index: int, spec: TaskSpec,
              value: Any, payloads: Dict[str, dict], attempts: int,
              wall_s: float) -> None:
    """A task executed to completion: bank its result, cache entry and
    lifecycle event — then the parent-side self-chaos triggers, which count
    completed tasks."""
    results[index] = TaskResult(index, spec.label, value=value,
                                attempts=attempts, wall_s=wall_s,
                                probes=payloads)
    if cache is not None:
        key, identity = keys[index]
        cache.put(key, value, task=identity, elapsed_s=wall_s)
    tel.task_done(index, spec.label, wall_s, payloads)
    if selfchaos.armed():
        if selfchaos.fire("parent:kill", count=tel.counts["done"]):
            selfchaos.kill_self()
        if selfchaos.fire("parent:int", count=tel.counts["done"]):
            selfchaos.interrupt_self()


def _retry_or_fail(results, tel: Telemetry, config: RuntimeConfig, index: int,
                   spec: TaskSpec, attempts: int, error: str,
                   wall_s: float) -> Optional[float]:
    """An attempt raised (or timed out): the backoff in seconds if the
    retry budget grants another, else ``None`` with the failure recorded."""
    if attempts <= config.retries and not shutdown.shutdown_requested():
        tel.task_retry(index, spec.label, attempts, error)
        backoff = config.backoff_s * (2 ** (attempts - 1))
        tel.task_deferred(index, spec.label, backoff)
        return backoff
    results[index] = TaskResult(index, spec.label, error=error,
                                attempts=attempts, wall_s=wall_s)
    tel.task_failed(index, spec.label, error, attempts)
    return None


def _run_serial(specs, indices, results, config, tel, cache, keys,
                names: Tuple[str, ...] = ()) -> None:
    for i in indices:
        spec = specs[i]
        signame = shutdown.shutdown_requested()
        if signame:
            _mark_interrupted(results, i, spec.label, signame, tel)
            continue
        attempts = 0
        while True:
            attempts += 1
            tel.task_started(i, spec.label, attempts)
            start = time.monotonic()
            try:
                value, payloads = _call(spec, names)
            except Exception as exc:
                backoff = _retry_or_fail(
                    results, tel, config, i, spec, attempts,
                    f"{type(exc).__name__}: {exc}", time.monotonic() - start)
                if backoff is None:
                    break
                time.sleep(backoff)
                tel.task_resubmitted(i, spec.label, attempts + 1)
                continue
            _complete(results, tel, cache, keys, i, spec, value, payloads,
                      attempts, time.monotonic() - start)
            break


def _run_pool(specs, indices, results, config, tel, cache, keys,
              names: Tuple[str, ...] = ()) -> List[int]:
    """Run ``indices`` on worker processes; returns indices left for serial."""
    from multiprocessing.connection import wait

    attempts = {i: 0 for i in indices}
    queue = deque(indices)  # not (or, after a backoff, not again) sent yet
    #: index -> monotonic deadline for a backoff-deferred resubmission.
    #: Retries never sleep on the dispatcher thread — an inline sleep would
    #: stall collection of every other worker's reply — they park here and
    #: the wait loop requeues them when their deadline passes.
    deferred: Dict[int, float] = {}
    leftovers: List[int] = []
    workers: List[_Worker] = []
    timeout_s = config.task_timeout_s
    drain_deadline: Optional[float] = None

    def spawn() -> None:
        try:
            workers.append(_Worker(workers))
        except OSError as exc:
            if not workers:
                tel.degraded(f"cannot start worker process: {exc}")

    def replace(worker: _Worker, grace_s: float = 0.0) -> Optional[int]:
        """Stop ``worker`` and put a fresh process in its slot; returns the
        old one's exit code."""
        code = worker.stop(grace_s)
        workers.remove(worker)
        spawn()
        return code

    def feed(worker: _Worker) -> None:
        """Send idle ``worker`` the next queued task it can take."""
        while queue:
            i = queue[0]
            try:
                worker.conn.send((specs[i], names))
            except OSError:
                # Died while idle: no attempt was made, so none is charged;
                # the task stays first in line for the next idle worker.
                replace(worker)
                return
            except Exception:
                # ``send`` pickles before it writes: no worker can ever
                # take this spec, so it goes to the serial path unstarted.
                tel.degraded(f"task#{i} {specs[i].label} not picklable")
                leftovers.append(queue.popleft())
                continue
            worker.task = (queue.popleft(), time.monotonic())
            attempts[i] += 1
            tel.task_started(i, specs[i].label, attempts[i])
            return

    def interrupt(i: int, signame: str) -> None:
        _mark_interrupted(results, i, specs[i].label, signame, tel,
                          attempts=attempts[i])

    def record_failure(i: int, error: str, wall_s: float) -> None:
        backoff = _retry_or_fail(results, tel, config, i, specs[i],
                                 attempts[i], error, wall_s)
        if backoff is not None:
            deferred[i] = time.monotonic() + backoff

    try:
        for _ in range(min(config.parallel, len(indices))):
            spawn()
        while queue or deferred or any(w.task for w in workers):
            if not workers:  # the OS refused even one (replacement) process
                leftovers.extend([*queue, *deferred])
                break
            signame = shutdown.shutdown_requested()
            if signame:
                # Drain: interrupt at once everything no worker holds, give
                # running tasks a grace window to bank their results, then
                # kill what is left — the deadline bounds shutdown time.
                for i in [*queue, *deferred]:
                    interrupt(i, signame)
                queue.clear()
                deferred.clear()
                if drain_deadline is None:
                    drain_deadline = time.monotonic() + shutdown.DRAIN_GRACE_S
                elif time.monotonic() > drain_deadline:
                    for worker in [w for w in workers if w.task]:
                        worker.stop()
                        interrupt(worker.task[0], signame)
                        worker.task = None
                if not any(w.task for w in workers):
                    break
            else:
                for worker in [w for w in workers if not w.task]:
                    feed(worker)
            next_due = min(deferred.values(), default=float("inf"))
            wait_s = max(0.0, min(0.1, next_due - time.monotonic()))
            busy = [w for w in workers if w.task]
            ready = wait([w.conn for w in busy], wait_s)
            now = time.monotonic()
            for i in [j for j, due in deferred.items() if due <= now]:
                del deferred[i]
                tel.task_resubmitted(i, specs[i].label, attempts[i] + 1)
                queue.append(i)
            for worker in busy:
                i, t_sent = worker.task
                if worker.conn in ready:
                    try:
                        ok, body = worker.conn.recv()
                        worker.task = None
                    except (EOFError, OSError):
                        code = replace(worker, grace_s=1.0)
                        ok, body = False, f"worker died (exit {code})"
                elif timeout_s is not None and now - t_sent > timeout_s:
                    # Exactly the worker that earned it: killed and reaped
                    # before the failure is recorded, slot refilled.
                    replace(worker)
                    ok, body = False, f"timeout after {timeout_s:g}s"
                else:
                    continue
                if ok:
                    _complete(results, tel, cache, keys, i, specs[i], *body,
                              attempts[i], now - t_sent)
                elif ok is None:
                    # The task ran but the pipe cannot carry its value: it
                    # leaves the running set and reruns on the serial path.
                    tel.degraded(f"task#{i} {specs[i].label} result not "
                                 f"picklable ({body})", settles=True)
                    leftovers.append(i)
                else:
                    record_failure(i, body, now - t_sent)
    finally:
        # Every exit path reaps every process: idle workers hang up and
        # exit, busy ones (only an exception leaves any) are killed.
        for worker in workers:
            worker.stop(0.0 if worker.task else 1.0)
    return leftovers
