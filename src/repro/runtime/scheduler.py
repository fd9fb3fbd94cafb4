"""Sweep executor: cache lookup, process pool, retries, serial fallback.

Execution contract (what makes parallel safe for a *reproduction*):

* **Determinism.**  Results are reassembled by task index, never completion
  order, and every task carries its own seed in its kwargs — so a sweep's
  rows are bit-identical whether it ran serially, on N workers, or from
  cache.  Tests assert this.
* **Fault tolerance.**  A task that raises is retried (``retries`` budget,
  exponential backoff) and, if it keeps failing, reported as a failed
  :class:`TaskResult` without killing the sweep.  A broken pool (worker
  killed, fork failure) or an unpicklable task degrades the remainder of the
  sweep to in-process serial execution instead of erroring out.
* **Timeouts are best-effort.**  ``task_timeout_s`` measures from submission
  (queue + run).  An expired task is cancelled if still queued; if it is
  already running its result is abandoned (the worker finishes in the
  background) and the attempt counts as a failure.

Workers are initialised with ``parallel=0`` so a task that itself calls
``run_sweep`` (e.g. the summary driver invoking another experiment) runs
serially inside its worker rather than forking a nested pool.
"""

from __future__ import annotations

import concurrent.futures as futures
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.resilience import selfchaos
from repro.resilience import signals as shutdown
from repro.runtime import probes
from repro.runtime.cache import ResultCache
from repro.runtime.config import RuntimeConfig, env_number, get_config
from repro.runtime.task import SweepPlan, TaskSpec
from repro.runtime.telemetry import Telemetry

#: True inside pool worker processes (set by :func:`_worker_init`); gates
#: self-chaos injection points that must only ever kill a *worker*.
_IN_POOL_WORKER = False

#: Worker-side handle on the started-marker queue (set by
#: :func:`_worker_init`).  Workers drop a ``(index, attempt)`` token the
#: moment they begin a task so the parent's timeout watchdog can tell a
#: genuinely long-running task from one merely stuck in the executor's
#: queue behind hung workers — ``Future.cancel()`` cannot make that
#: distinction (the executor marks prefetched items RUNNING before any
#: worker touches them).
_STARTED_Q = None


#: How many times a queued-but-never-started task may be timeout-cancelled
#: and requeued with a fresh clock before the timeout is charged to it.
_QUEUE_LAPS = 3


def _recycle_after() -> int:
    """Abandoned-worker threshold that triggers a pool recycle."""
    return max(1, env_number("REPRO_RECYCLE_AFTER"))


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


def _call(spec: TaskSpec, names: Tuple[str, ...] = (), token=None) -> tuple:
    """Worker entry point (module-level so it pickles).

    Returns ``(value, {probe name: payload})`` for the probes in ``names``
    (:func:`repro.runtime.probes.enabled`).  Capturing happens *here*, in
    whichever process executes the task, so parallel workers observe their
    own simulations and ship plain-dict payloads back; with no probe
    enabled the task is a bare ``spec.call()``.
    """
    if _STARTED_Q is not None and token is not None:
        try:
            _STARTED_Q.put(token)
        except (OSError, ValueError):
            pass  # queue torn down mid-recycle: the marker is best-effort
    if _IN_POOL_WORKER and selfchaos.armed() \
            and selfchaos.fire("task:kill", label=spec.label):
        selfchaos.kill_self()
    if not names:
        return spec.call(), {}
    with probes.capture(names) as handles:
        value = spec.call()
    return value, {name: handle.payload for name, handle in handles.items()}


def _worker_init(started_q=None) -> None:
    """Force serial execution inside workers (no nested pools).

    Also drops ``REPRO_TRACE`` and ``REPRO_JOURNAL`` from the worker's
    environment: the worker traces into a per-task capture buffer shipped
    back on the result, and journaling belongs to the coordinating parent
    — a worker that journaled its nested serial sweeps would interleave
    garbage into the campaign manifest.
    """
    global _IN_POOL_WORKER, _STARTED_Q
    from repro.runtime import config as _config

    _IN_POOL_WORKER = True
    _STARTED_Q = started_q
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_JOURNAL", None)
    _config.configure(parallel=0, progress=False)


def _is_pickling_error(exc: BaseException) -> bool:
    if isinstance(exc, (pickle.PicklingError, pickle.UnpicklingError)):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(exc).lower()


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
    if config.cache_enabled:
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


def _kill_pool(pool) -> int:
    """Tear a pool down *hard*: SIGKILL workers, reap them, return count.

    ``shutdown(wait=False)`` alone leaves abandoned (timed-out) workers
    burning CPU until their tasks finish — and blocks interpreter exit on
    the concurrent.futures atexit join.  ``_processes`` is a private but
    long-stable attribute (3.8–3.13); when absent we fall back to a plain
    shutdown.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    killed = 0
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            killed += 1
    for proc in procs:
        proc.join(timeout=5)
    return killed


def _run_pool(specs, indices, results, config, tel, cache, keys,
              names: Tuple[str, ...] = ()) -> List[int]:
    """Run ``indices`` on a process pool; returns indices left for serial."""
    try:
        started_q = multiprocessing.SimpleQueue()
        pool = futures.ProcessPoolExecutor(max_workers=config.parallel,
                                           initializer=_worker_init,
                                           initargs=(started_q,))
    except (OSError, ValueError) as exc:
        tel.degraded(f"cannot start process pool: {exc}")
        return indices

    attempts = {i: 0 for i in indices}
    inflight: Dict[futures.Future, tuple] = {}  # future -> (index, t_submit)
    #: index -> monotonic deadline for a backoff-deferred resubmission.
    #: Retries never sleep on the dispatcher thread — an inline sleep would
    #: stall collection of completed futures and inflate every other
    #: inflight task's submission-measured timeout — they park here and the
    #: wait loop resubmits them when their deadline passes.
    deferred: Dict[int, float] = {}
    leftovers: List[int] = []
    #: Timed-out futures whose cancel() failed: their workers are still
    #: burning CPU on results nobody wants.  Past a threshold the pool is
    #: recycled (workers SIGKILLed, fresh pool, queued tasks resubmitted).
    abandoned = 0
    #: index -> times a queued-but-never-started future was timeout-cancelled
    #: and put back with a fresh clock.  A task stuck behind hung workers
    #: hasn't spent its own budget; bounded so a wedged pool that never
    #: recycles still terminates instead of lapping forever.
    queue_laps: Dict[int, int] = {}
    #: ``(index, attempt)`` tokens reported by workers the moment they
    #: begin executing a task.  ``Future.cancel()`` alone cannot tell a
    #: running task from one prefetched into the executor's call queue
    #: (both read RUNNING), so the watchdog consults this set before
    #: charging anyone a timeout.
    started: set = set()

    def drain_started() -> None:
        # Called every wait-loop iteration, timeout or no timeout: workers
        # put a marker per task unconditionally, and an undrained
        # SimpleQueue wedges every worker once the pipe buffer (~64KiB)
        # fills — a put() blocks holding the queue's write lock.
        while not started_q.empty():
            started.add(started_q.get())

    drain_deadline: Optional[float] = None

    def dispatch(i: int) -> None:
        """Hand task ``i`` to the pool under its current attempt number,
        with a fresh submission clock."""
        fut = pool.submit(_call, specs[i], names, (i, attempts[i]))
        inflight[fut] = (i, time.monotonic())

    def submit(i: int) -> None:
        attempts[i] += 1
        tel.task_started(i, specs[i].label, attempts[i])
        dispatch(i)

    def interrupt(i: int, signame: str) -> None:
        _mark_interrupted(results, i, specs[i].label, signame, tel,
                          attempts=attempts[i])

    def record_failure(i: int, error: str, wall_s: float = 0.0) -> None:
        backoff = _retry_or_fail(results, tel, config, i, specs[i],
                                 attempts[i], error, wall_s)
        if backoff is not None:
            deferred[i] = time.monotonic() + backoff

    try:
        for i in indices:
            submit(i)
        while inflight or deferred:
            signame = shutdown.shutdown_requested()
            if signame:
                # Drain: never start new work, cancel whatever is still
                # queued, give running tasks a grace window to bank their
                # results, then abandon the stragglers.
                for i in list(deferred):
                    del deferred[i]
                    interrupt(i, signame)
                for fut, (i, _t) in list(inflight.items()):
                    if fut.cancel():
                        inflight.pop(fut)
                        interrupt(i, signame)
                if drain_deadline is None:
                    drain_deadline = time.monotonic() + shutdown.DRAIN_GRACE_S
                elif inflight and time.monotonic() > drain_deadline:
                    for fut, (i, _t) in list(inflight.items()):
                        if not fut.cancel():
                            # Still running: its worker keeps grinding on a
                            # result nobody wants.  Counting it routes the
                            # finally block through _kill_pool, so the
                            # grace deadline actually bounds shutdown time
                            # instead of handing the wait to the
                            # interpreter's atexit join.
                            abandoned += 1
                        inflight.pop(fut)
                        interrupt(i, signame)
                if not inflight:
                    break
            wait_s = 0.1
            if deferred:
                next_due = min(deferred.values()) - time.monotonic()
                wait_s = min(wait_s, max(0.0, next_due))
            if inflight:
                done, _ = futures.wait(set(inflight), timeout=wait_s,
                                       return_when=futures.FIRST_COMPLETED)
            else:
                done = set()
                time.sleep(wait_s)
            now = time.monotonic()
            for i in [j for j, due in deferred.items() if due <= now]:
                del deferred[i]
                tel.task_resubmitted(i, specs[i].label, attempts[i] + 1)
                submit(i)
            drain_started()
            if config.task_timeout_s is not None:
                for fut, (i, t_submit) in list(inflight.items()):
                    if fut in done or now - t_submit <= config.task_timeout_s:
                        continue
                    if (i, attempts[i]) not in started \
                            and queue_laps.get(i, 0) < _QUEUE_LAPS:
                        # No worker ever began this task: it is stuck in
                        # the executor's queue behind hung workers.  That
                        # is the pool's fault, not the task's — don't
                        # charge it the timeout.  If the cancel lands,
                        # requeue it with a fresh clock; if it doesn't
                        # (prefetched into the call queue, which marks the
                        # future RUNNING), leave it for the recycle sweep
                        # to pull back.
                        queue_laps[i] = queue_laps.get(i, 0) + 1
                        if fut.cancel():
                            inflight.pop(fut)
                            dispatch(i)
                        else:
                            # Still parked in the call queue: restart its
                            # clock so each lap costs a full timeout, not
                            # one watchdog sweep.
                            inflight[fut] = (i, now)
                        continue
                    if not fut.cancel():  # already running: result abandoned
                        abandoned += 1
                    inflight.pop(fut)
                    record_failure(
                        i, f"timeout after {config.task_timeout_s:g}s",
                        wall_s=now - t_submit)
                if abandoned >= _recycle_after() \
                        and not any((i, attempts[i]) in started
                                    for i, _t in inflight.values()):
                    # Reclaim the capacity the abandoned workers are
                    # burning: nothing still inflight has actually started
                    # (whatever their futures claim, no worker reported
                    # them), so pull everything back, SIGKILL the pool,
                    # and resubmit on a fresh one.
                    requeue = []
                    for fut, (i, _t_submit) in list(inflight.items()):
                        fut.cancel()
                        inflight.pop(fut)
                        requeue.append(i)
                    killed = _kill_pool(pool)
                    tel.pool_recycled(killed=killed, abandoned=abandoned)
                    abandoned = 0
                    try:
                        # Fresh marker queue with the fresh pool: a worker
                        # SIGKILLed mid-put could leave the old queue's
                        # write lock held forever.
                        started_q = multiprocessing.SimpleQueue()
                        pool = futures.ProcessPoolExecutor(
                            max_workers=config.parallel,
                            initializer=_worker_init,
                            initargs=(started_q,))
                    except (OSError, ValueError) as exc:
                        tel.degraded(f"cannot restart process pool: {exc}")
                        leftovers = [j for j in attempts
                                     if results[j] is None]
                        inflight.clear()
                        deferred.clear()
                        break
                    for i in requeue:
                        # Same attempt, fresh submission clock: the task
                        # never ran on the dead pool, it just moves to the
                        # new queue, so its timeout budget starts over.
                        dispatch(i)
            for fut in done:
                if fut not in inflight:
                    continue
                i, t_submit = inflight.pop(fut)
                try:
                    value, payloads = fut.result()
                except BrokenProcessPool as exc:
                    tel.degraded(f"worker pool broke: {exc}")
                    leftovers = [j for j in attempts if results[j] is None]
                    inflight.clear()
                    deferred.clear()
                    break
                except futures.CancelledError:
                    continue  # handled by the timeout branch above
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    if _is_pickling_error(exc):
                        # The pool can never run this task; hand it to the
                        # serial path instead of burning retries.
                        tel.degraded(
                            f"task#{i} {specs[i].label} not picklable")
                        leftovers.append(i)
                    else:
                        record_failure(i, error, wall_s=now - t_submit)
                    continue
                _complete(results, tel, cache, keys, i, specs[i], value,
                          payloads, attempts[i], now - t_submit)
    finally:
        if abandoned:
            # Loop ended with workers still grinding on abandoned results;
            # without the kill, the interpreter's atexit join would block
            # on them.
            tel.pool_recycled(killed=_kill_pool(pool), abandoned=abandoned)
        else:
            pool.shutdown(wait=False, cancel_futures=True)
    return leftovers
