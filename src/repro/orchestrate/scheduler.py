"""Process-pool scheduler: fan jobs out, stream results back, survive
worker crashes.

The scheduler is deliberately simple and deliberately paranoid:

* **Parent-side assignment.**  Each worker has a private task queue and
  the parent records ``assigned[pid] = spec`` *before* putting the spec
  on it, so there is no window in which a job has left the parent but
  is not attributed to a worker.  A worker that dies (SIGKILL, OOM,
  ``os._exit``) therefore always leaves an identifiable torn job, which
  is requeued to a fresh worker — up to ``max_attempts`` times, after
  which it is reported as failed instead of looping forever on a
  deterministic crash.
* **Plain-data results.**  Workers return JSON-friendly payloads plus a
  raw :class:`~repro.obs.registry.MetricsRegistry` snapshot; the parent
  folds the snapshot in via ``merge_snapshot`` so per-worker counters
  and histograms aggregate exactly as PR 3 designed.
* **Determinism by construction.**  The scheduler never influences job
  results: every job seeds its own RNG from its identity (see
  :mod:`repro.orchestrate.jobs`), so ``jobs=4`` is bit-identical to
  ``jobs=1`` no matter how the pool interleaves.

``fault_point("sweep.job")`` fires in the worker just before each job
runs — the crash-replay suite arms it (or any training-side site such
as ``epoch.end``) with ``mode=kill`` to prove the requeue path.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from ..faults import fault_point
from ..obs import MetricsRegistry, get_registry, set_registry, span
from ..obs.registry import label_snapshot

__all__ = ["ScheduleStats", "run_jobs"]

# How long the parent waits on the result queue before checking worker
# liveness; purely a responsiveness knob, never a correctness one.
_POLL_SECONDS = 0.1


@dataclass
class ScheduleStats:
    """What the scheduler did, for logs, metrics and tests."""

    executed: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)
    requeued: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    worker_deaths: int = 0

    def summary(self) -> str:
        return (f"{len(self.executed)} executed, {len(self.restored)} "
                f"restored, {len(self.requeued)} requeued, "
                f"{len(self.failed)} failed")


def _job_attrs(spec) -> dict:
    """Attributes of the per-job root span (tolerant of bare specs)."""
    attrs = {"job_id": spec.job_id}
    describe = getattr(spec, "describe", None)
    if callable(describe):
        attrs["job"] = describe()
    return attrs


def _worker_main(task_q, result_q, runner, runner_kwargs,
                 telemetry_cfg=None) -> None:
    """Worker loop: take a spec, run it, ship the payload + metrics.

    With ``telemetry_cfg`` (a :class:`~repro.orchestrate.telemetry.
    WorkerTelemetryConfig`) the worker joins the sweep's distributed
    trace — a fresh tracer carrying the sweep's ``trace_id`` wraps each
    job in a ``job`` span — and runs the heartbeat thread that appends
    to this worker's JSONL bus.  Telemetry only observes; the job
    computation (seeds, scheduling, payloads) is untouched, preserving
    jobs=N ≡ jobs=1 bit-identity.
    """
    telemetry = None
    if telemetry_cfg is not None:
        from .telemetry import install_worker_telemetry

        telemetry = install_worker_telemetry(telemetry_cfg, task_q=task_q)
    while True:
        spec = task_q.get()
        if spec is None:
            break
        # The crash-injection site: mode=kill here simulates a worker
        # dying the instant it picks up a job.
        fault_point("sweep.job")
        if telemetry is not None:
            telemetry.job_started(spec.job_id)
        set_registry(MetricsRegistry())
        ok = False
        try:
            with span("job", **_job_attrs(spec)):
                payload = runner(spec, **runner_kwargs)
                snapshot = get_registry().snapshot(include_raw=True)
            # the job is done now, not when the parent gets to the result
            result_q.put(("done", spec.job_id, payload, snapshot, time.time()))
            ok = True
        except Exception as error:  # noqa: BLE001 — forwarded to parent
            result_q.put(("error", spec.job_id,
                          f"{type(error).__name__}: {error}"))
        if telemetry is not None:
            telemetry.job_finished(spec.job_id, ok)
    if telemetry is not None:
        telemetry.stop()


def run_jobs(
    specs,
    *,
    jobs: int = 1,
    runner,
    runner_kwargs: dict | None = None,
    label: str = "sweep",
    registry=None,
    on_complete=None,
    already: dict | None = None,
    max_attempts: int = 3,
    telemetry=None,
) -> tuple[dict, ScheduleStats]:
    """Run every spec and return ``(results, stats)``.

    ``specs`` is any sequence of objects with a ``job_id`` attribute
    (deduplicated, first occurrence wins); ``runner(spec,
    **runner_kwargs)`` must be a top-level callable returning a
    picklable payload.  ``already`` maps job ids to payloads restored
    from a progress file — those jobs are not re-run.  ``on_complete``
    fires in the parent for each newly executed job, in completion
    order; sweep drivers use it to persist progress and append ledger
    records as results stream in.

    ``jobs=1`` executes inline (the bit-exact reference path);
    ``jobs>1`` forks that many workers.  Worker crashes are survived by
    requeueing the torn job (see module docstring).

    ``telemetry`` (a :class:`~repro.orchestrate.telemetry.
    SweepTelemetry`) enables the live observability path: job-state
    transitions stream to the parent event bus, each worker is spawned
    with the sweep's trace context and a heartbeat loop, the drain loop
    polls for stalled workers, and merged worker snapshots gain
    ``worker="<idx>"`` labels so per-worker series survive the merge.
    """
    registry = registry if registry is not None else get_registry()
    runner_kwargs = runner_kwargs or {}
    seen: dict[str, object] = {}
    for spec in specs:
        seen.setdefault(spec.job_id, spec)
    results: dict[str, dict] = {}
    stats = ScheduleStats()
    pending: deque = deque()
    for job_id, spec in seen.items():
        if already and job_id in already:
            results[job_id] = already[job_id]
            stats.restored.append(job_id)
        else:
            pending.append(spec)
    counters = {
        outcome: registry.counter(f"sweep.jobs_{outcome}", sweep=label)
        for outcome in ("completed", "failed", "requeued")
    }
    if telemetry is not None:
        for spec in pending:
            telemetry.job_event(spec, "enqueued")
        for job_id in stats.restored:
            telemetry.job_event(seen[job_id], "restored")

    def complete(spec, payload, snapshot=None, worker=None,
                 finished=None) -> None:
        results[spec.job_id] = payload
        stats.executed.append(spec.job_id)
        counters["completed"].inc()
        if worker is not None:
            # per-worker series survive the merge (Prometheus export
            # exposes `sweep.jobs_completed{..., worker="<idx>"}`)
            registry.counter("sweep.jobs_completed", sweep=label,
                             worker=str(worker)).inc()
            if snapshot is not None:
                snapshot = label_snapshot(snapshot, worker=str(worker))
        if snapshot is not None:
            registry.merge_snapshot(snapshot)
        if telemetry is not None:
            telemetry.job_event(spec, "done", worker=worker,
                                payload=payload if isinstance(payload, dict)
                                else None, at=finished)
        if on_complete is not None:
            on_complete(spec, payload)

    def fail(spec, message, worker=None) -> None:
        stats.failed[spec.job_id] = message
        counters["failed"].inc()
        if worker is not None:
            registry.counter("sweep.jobs_failed", sweep=label,
                             worker=str(worker)).inc()
        if telemetry is not None:
            telemetry.job_event(spec, "failed", worker=worker)

    with span("sweep.schedule", label=label, jobs=jobs,
              n_jobs=len(pending), n_restored=len(stats.restored)):
        if jobs <= 1 or len(pending) <= 1:
            for spec in pending:
                fault_point("sweep.job")
                if telemetry is not None:
                    telemetry.job_event(spec, "running")
                try:
                    with span("job", **_job_attrs(spec)):
                        payload = runner(spec, **runner_kwargs)
                    complete(spec, payload)
                except Exception as error:  # noqa: BLE001
                    fail(spec, f"{type(error).__name__}: {error}")
            return results, stats
        _run_pool(pending, jobs, runner, runner_kwargs, complete, fail,
                  stats, counters, max_attempts, telemetry)
    return results, stats


def _run_pool(pending, jobs, runner, runner_kwargs, complete, fail,
              stats, counters, max_attempts, telemetry=None) -> None:
    """The parallel path: a fork-based pool with crash requeueing."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:  # pragma: no cover — non-POSIX fallback
        print("warning: fork start method unavailable; running jobs "
              "serially", file=sys.stderr)
        for spec in list(pending):
            try:
                complete(spec, runner(spec, **runner_kwargs))
            except Exception as error:  # noqa: BLE001
                fail(spec, f"{type(error).__name__}: {error}")
        return
    ctx = multiprocessing.get_context("fork")
    result_q = ctx.Queue()
    specs_by_id = {spec.job_id: spec for spec in pending}
    attempts = {job_id: 0 for job_id in specs_by_id}
    outstanding = set(specs_by_id)

    workers: dict[int, tuple] = {}  # pid -> (process, task_q)
    assigned: dict[int, str | None] = {}  # pid -> in-flight job id
    completed_by: dict[int, int] = {}  # pid -> jobs finished by worker
    worker_idx: dict[int, int] = {}  # pid -> stable worker index
    idx_counter = itertools.count()

    def spawn() -> None:
        # telemetry owns index allocation so indices stay unique across
        # every pool (rung batches, final CV, crash replacements) of
        # one sweep; the local counter covers the untelemetered case
        idx = (telemetry.allocate_worker() if telemetry is not None
               else next(idx_counter))
        task_q = ctx.Queue()
        telemetry_cfg = (telemetry.worker_config(idx)
                         if telemetry is not None else None)
        process = ctx.Process(
            target=_worker_main,
            args=(task_q, result_q, runner, runner_kwargs, telemetry_cfg),
            daemon=True,
        )
        process.start()
        workers[process.pid] = (process, task_q)
        assigned[process.pid] = None
        completed_by[process.pid] = 0
        worker_idx[process.pid] = idx
        if telemetry is not None:
            telemetry.worker_spawned(idx, process.pid)

    def dispatch() -> None:
        """Hand pending jobs to idle workers (assignment before send)."""
        for pid, (process, task_q) in workers.items():
            if not pending:
                break
            if assigned[pid] is None and process.is_alive():
                spec = pending.popleft()
                attempts[spec.job_id] += 1
                assigned[pid] = spec.job_id
                task_q.put(spec)
                if telemetry is not None:
                    telemetry.job_event(spec, "running",
                                        worker=worker_idx[pid])

    def requeue_or_fail(job_id: str, reason: str, *,
                        charge: bool = True) -> None:
        """Put a torn/errored job back, or give up after ``max_attempts``.

        ``charge=False`` requeues without counting an attempt: used when
        a *veteran* worker (one that already completed jobs since it was
        forked) dies, which proves the pool made progress and therefore
        cannot loop forever.  A poison job — one that deterministically
        kills any worker that runs it — always dies on the fresh
        replacement worker too, so it still accumulates charged
        attempts and fails out.
        """
        if job_id not in outstanding:
            return  # its result arrived before the worker died
        if not charge:
            attempts[job_id] -= 1  # undo the dispatch-time increment
        if attempts[job_id] >= max_attempts:
            fail(specs_by_id[job_id], reason)
            outstanding.discard(job_id)
            return
        stats.requeued.append(job_id)
        counters["requeued"].inc()
        if telemetry is not None:
            telemetry.job_event(specs_by_id[job_id], "requeued")
        pending.appendleft(specs_by_id[job_id])

    for _ in range(min(jobs, len(pending))):
        spawn()
    dispatch()

    try:
        while outstanding:
            # Drain everything already queued before judging liveness,
            # so a worker that reported its result and *then* died is
            # never treated as having torn the job.
            drained = True
            try:
                message = result_q.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                drained = False
            while True:
                if drained:
                    kind, job_id, *rest = message
                    source = None
                    for pid, inflight in assigned.items():
                        if inflight == job_id:
                            assigned[pid] = None
                            source = worker_idx.get(pid)
                            if kind == "done":
                                completed_by[pid] += 1
                    if job_id in outstanding:
                        if kind == "done":
                            payload, snapshot, finished = rest
                            complete(specs_by_id[job_id], payload, snapshot,
                                     worker=source, finished=finished)
                            outstanding.discard(job_id)
                        else:  # "error": retry, then fail
                            requeue_or_fail(job_id, rest[0])
                try:
                    message = result_q.get_nowait()
                    drained = True
                except queue_module.Empty:
                    break

            if telemetry is not None:
                # Tail worker heartbeat buses: updates per-worker gauges
                # and flags stalled workers (counter + warning + event).
                telemetry.poll()
                if getattr(telemetry, "kill_stalled", False):
                    # Opt-in escalation: a stalled-but-alive worker is
                    # terminated so its torn job feeds the normal
                    # death-requeue machinery below.
                    for pid in list(workers):
                        if worker_idx.get(pid) in telemetry.stalled_workers:
                            process, _ = workers[pid]
                            if process.is_alive():
                                process.terminate()

            for pid in list(workers):
                process, task_q = workers[pid]
                if process.is_alive():
                    continue
                process.join()
                stats.worker_deaths += 1
                torn = assigned.pop(pid, None)
                was_fresh = completed_by.pop(pid, 0) == 0
                del workers[pid]
                if telemetry is not None:
                    telemetry.worker_died(worker_idx.get(pid, -1), pid,
                                          process.exitcode)
                if torn is not None:
                    requeue_or_fail(
                        torn,
                        f"worker {pid} died (exit code "
                        f"{process.exitcode}) while running the job",
                        charge=was_fresh,
                    )
                task_q.close()
            needed = min(jobs, len(pending) + sum(
                1 for inflight in assigned.values() if inflight is not None))
            while outstanding and len(workers) < max(1, needed):
                spawn()
            dispatch()
    finally:
        for pid, (process, task_q) in workers.items():
            if process.is_alive():
                try:
                    task_q.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for process, task_q in workers.values():
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover — stuck worker
                process.terminate()
                process.join(timeout=5)
        # Cancel the feeder threads so interpreter shutdown never blocks
        # on a queue the (now dead) workers will never drain.
        result_q.cancel_join_thread()
        for _, task_q in workers.values():
            task_q.cancel_join_thread()
