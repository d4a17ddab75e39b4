"""Sweep telemetry: distributed tracing + heartbeats across the pool.

The scheduler (:mod:`repro.orchestrate.scheduler`) is a fork-based
process pool; this module is what makes it observable *while it runs*
and traceable *after it ran*:

* The parent creates one :class:`SweepTelemetry` per sweep.  It owns
  the sweep's root ``trace_id``, writes ``meta.json`` and the
  ``parent.jsonl`` event bus (job-state transitions, worker lifecycle)
  under ``<workdir>/telemetry/``, and each drain-loop iteration
  :meth:`SweepTelemetry.poll`\\ s the per-worker heartbeat files to
  detect stalled workers (no heartbeat for ``stall_intervals``
  intervals → ``sweep.workers_stalled`` counter + warning + bus event)
  and keep per-worker gauges fresh.
* Each worker gets a :class:`WorkerTelemetryConfig` at spawn.  It
  installs a :class:`~repro.obs.trace.Tracer` joined to the sweep's
  ``trace_id`` (so worker spans stitch under the sweep root span), and
  a :class:`WorkerTelemetry` whose daemon thread appends heartbeats
  (current job, stage/epoch from the training loop's
  :func:`~repro.obs.live.report_progress` hook, steps/s, ``ru_maxrss``,
  task-queue depth) to ``worker_<idx>.jsonl``.  Span events flush to
  ``worker_<idx>.trace.jsonl`` after every job, stamped with the pid
  and a unix-epoch timestamp for cross-process alignment.
* :func:`stitch_events` merges the parent tracer's events with every
  worker trace file into one event list under a single ``trace_id`` —
  span ids are remapped to process-unique strings and worker root
  spans are re-parented under the sweep root span — which
  :meth:`SweepTelemetry.finalize` exports as a per-worker-row Chrome
  trace (``trace.json``) plus a ``summary.json`` of per-worker peak
  RSS, heartbeat coverage and stall counts for the sweep's ledger
  record.

Nothing here touches job *results*: telemetry files are written beside
the computation, seeds stay a pure function of job identity, and
``jobs=N`` remains bit-identical to serial with telemetry on (the
determinism test in ``tests/test_sweep_telemetry.py`` holds this).
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..faults import append_jsonl, atomic_write_json, open_jsonl, read_jsonl
from ..obs import get_registry
from ..obs.live import (
    TELEMETRY_DIR,
    ProgressSink,
    StallDetector,
    set_progress_sink,
)
from ..obs.trace import (
    Tracer,
    events_to_chrome,
    get_tracer,
    peak_rss_bytes,
    peak_rss_tree_bytes,
    set_tracer,
)

__all__ = [
    "WorkerTelemetryConfig",
    "WorkerTelemetry",
    "SweepTelemetry",
    "stitch_events",
    "install_worker_telemetry",
]


@dataclass(frozen=True)
class WorkerTelemetryConfig:
    """Everything a forked worker needs to join the sweep's telemetry.

    Plain data (picklable) so the scheduler can pass it through the
    spawn path; carries the trace context — ``(trace_id,
    root_span_id)`` — that parents the worker's spans under the sweep
    root when the trace is stitched.
    """

    directory: str
    worker: int
    sweep_id: str
    trace_id: str
    root_span_id: int
    heartbeat_interval: float = 1.0


class WorkerTelemetry:
    """Worker-side telemetry: heartbeat thread + span flushing.

    Runs inside the forked worker process.  The heartbeat thread is a
    daemon sampling the :func:`~repro.obs.live.report_progress` sink,
    ``peak_rss_bytes()`` and the current job every
    ``heartbeat_interval`` seconds — it only ever *reads* process state
    and *appends* to this worker's own file, so it cannot perturb the
    deterministic computation happening on the main thread.
    """

    def __init__(self, config: WorkerTelemetryConfig, tracer: Tracer,
                 task_q=None):
        self.config = config
        self.tracer = tracer
        self._task_q = task_q
        directory = Path(config.directory)
        self._bus = open_jsonl(directory / f"worker_{config.worker}.jsonl")
        self._trace_bus = open_jsonl(
            directory / f"worker_{config.worker}.trace.jsonl")
        self._flushed = 0
        self._job_id: str | None = None
        self._jobs_done = 0
        self._progress = ProgressSink()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_steps: tuple[float, float] | None = None  # (t, steps)
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        set_progress_sink(self._progress)
        self.heartbeat()  # first beat immediately: liveness from t=0
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{self.config.worker}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.config.heartbeat_interval * 4)
        set_progress_sink(None)
        self.heartbeat(final=True)
        self.flush_spans()
        for handle in (self._bus, self._trace_bus):
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass

    def _run(self) -> None:
        interval = max(0.01, float(self.config.heartbeat_interval))
        while not self._stop.wait(interval):
            try:
                self.heartbeat()
            except (OSError, ValueError):  # pragma: no cover — bus gone
                return

    # -- events --------------------------------------------------------
    def job_started(self, job_id: str) -> None:
        self._job_id = job_id
        self._progress.update({"stage": "start", "epoch": None,
                               "epochs": None, "steps": None,
                               "hits1": None, "diverged": None})

    def job_finished(self, job_id: str, ok: bool) -> None:
        self._job_id = None
        self._jobs_done += 1
        self.flush_spans()
        self.heartbeat()

    def heartbeat(self, final: bool = False) -> None:
        """Append one heartbeat line (thread-safe, single flush)."""
        now = time.time()
        progress = self._progress.sample()
        steps = progress.get("steps")
        steps_per_s = 0.0
        if isinstance(steps, (int, float)):
            if self._last_steps is not None:
                t0, s0 = self._last_steps
                dt = now - t0
                if dt > 0 and steps >= s0:
                    steps_per_s = (steps - s0) / dt
            self._last_steps = (now, float(steps))
        queue_depth = 0
        if self._task_q is not None:
            try:
                queue_depth = self._task_q.qsize()
            except (NotImplementedError, OSError):  # pragma: no cover
                queue_depth = -1
        record = {
            "type": "heartbeat",
            "worker": self.config.worker,
            "pid": os.getpid(),
            "ts_unix": now,
            "job_id": self._job_id,
            "stage": progress.get("stage"),
            "epoch": progress.get("epoch"),
            "epochs": progress.get("epochs"),
            "steps_per_s": round(steps_per_s, 3),
            "rss_bytes": peak_rss_bytes(),
            "jobs_done": self._jobs_done,
            "queue_depth": queue_depth,
        }
        # quality payload (docs/observability.md): the in-fit
        # QualityMonitor reports probe Hits@1 and sentinel trips through
        # the same progress sink the epoch counters use
        hits1 = progress.get("hits1")
        if isinstance(hits1, (int, float)):
            record["hits1"] = round(float(hits1), 4)
        if progress.get("diverged"):
            record["diverged"] = True
        if final:
            record["final"] = True
        with self._lock:
            append_jsonl(self._bus, record)

    def flush_spans(self) -> None:
        """Append tracer events recorded since the last flush, stamped
        for cross-process stitching (pid, worker, unix timestamps)."""
        events = self.tracer.events
        pid = os.getpid()
        with self._lock:
            while self._flushed < len(events):
                event = dict(events[self._flushed])
                event["pid"] = pid
                event["worker"] = self.config.worker
                event["trace_id"] = self.config.trace_id
                if "ts" in event:
                    event["ts_unix"] = self.tracer.epoch_unix + event["ts"]
                append_jsonl(self._trace_bus, event)
                self._flushed += 1


def install_worker_telemetry(config: WorkerTelemetryConfig | None,
                             task_q=None) -> WorkerTelemetry | None:
    """Worker-process entry: install a sweep-joined tracer + telemetry.

    Called once at the top of the scheduler's worker loop.  Returns the
    started :class:`WorkerTelemetry` (or ``None`` when telemetry is
    off).  The tracer joins the parent's ``trace_id``; the fork may
    have inherited the parent's tracer object, which must not be reused
    (its events belong to the parent), so a fresh one is installed
    unconditionally.
    """
    if config is None:
        return None
    tracer = Tracer(trace_id=config.trace_id,
                    parent_span_id=config.root_span_id)
    set_tracer(tracer)
    telemetry = WorkerTelemetry(config, tracer, task_q=task_q)
    telemetry.start()
    return telemetry


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------
class SweepTelemetry:
    """Parent-side sweep telemetry: event bus, stall watch, stitching.

    Use as a context manager around the sweep body::

        with SweepTelemetry(workdir, sweep_id=..., jobs=2) as telemetry:
            run_jobs(..., telemetry=telemetry)
        scalars = telemetry.scalars()   # for the sweep's ledger record

    Entering ensures a tracer (installing one if tracing was off), opens
    the sweep root span every worker span stitches under, and writes
    ``meta.json``; exiting closes the span, stitches ``trace.json`` and
    writes ``summary.json`` — both through the atomic writers, so a
    crash never leaves a torn document.
    """

    def __init__(self, workdir: Path | str, *, sweep_id: str,
                 jobs: int = 1, registry=None,
                 heartbeat_interval: float = 1.0, stall_intervals: int = 5,
                 kill_stalled: bool = False, clock=time.monotonic):
        self.directory = Path(workdir) / TELEMETRY_DIR
        self.sweep_id = sweep_id
        self.jobs = jobs
        self.registry = registry
        self.heartbeat_interval = float(heartbeat_interval)
        self.stall_intervals = int(stall_intervals)
        #: when True the scheduler terminates a stalled worker, turning
        #: the silent hang into a worker death the requeue machinery
        #: already handles; off by default (stalls only warn + count).
        self.kill_stalled = bool(kill_stalled)
        self._clock = clock
        self._detector = StallDetector(
            timeout=self.heartbeat_interval * self.stall_intervals,
            clock=clock,
        )
        self._bus = None
        self._own_tracer: Tracer | None = None
        self._previous_tracer: Tracer | None = None
        self._root_span = None
        self.trace_id: str | None = None
        self.root_span_id: int = 0
        self._offsets: dict[int, int] = {}       # worker idx -> bus offset
        self._pids: dict[int, int] = {}          # worker idx -> pid
        self._alive: set[int] = set()
        self._beats: dict[int, int] = {}         # worker idx -> heartbeats
        self._first_beat: dict[int, float] = {}  # worker idx -> first ts_unix
        self._last_beat: dict[int, float] = {}   # worker idx -> last ts_unix
        self._peak_rss: dict[int, int] = {}      # worker idx -> peak bytes
        self._stall_events = 0
        self._last_poll = 0.0
        self._finalized = False
        self.summary: dict = {}
        # Sweep-global worker indices: one sweep runs several scheduler
        # pools (halving rungs, then final CV), and every generation —
        # including crash replacements — must get its own index, bus
        # file and dashboard row.  A pool-local counter would reuse
        # index 0 each batch and let a later "spawned" overwrite an
        # earlier worker's "died" state.
        self._worker_counter = itertools.count()

    def allocate_worker(self) -> int:
        """The next sweep-unique worker index (scheduler spawn path)."""
        return next(self._worker_counter)

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "SweepTelemetry":
        if self.registry is None:
            self.registry = get_registry()
        tracer = get_tracer()
        if tracer is None:
            tracer = Tracer()
            self._own_tracer = tracer
            self._previous_tracer = set_tracer(tracer)
        self.tracer = tracer
        self._root_span = tracer.span("sweep.root", sweep_id=self.sweep_id,
                                      jobs=self.jobs)
        self._root_span.__enter__()
        self.trace_id = tracer.trace_id
        self.root_span_id = self._root_span.id
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.directory / "meta.json", {
            "schema": 1,
            "sweep_id": self.sweep_id,
            "trace_id": self.trace_id,
            "root_span_id": self.root_span_id,
            "parent_pid": os.getpid(),
            "started_unix": time.time(),
            "jobs": self.jobs,
            "heartbeat_interval": self.heartbeat_interval,
            "stall_intervals": self.stall_intervals,
        }, site="telemetry.meta")
        self._bus = open_jsonl(self.directory / "parent.jsonl")
        return self

    def __exit__(self, exc_type, exc, tb):
        self.finalize(error=exc_type.__name__ if exc_type else None)
        return False

    def _emit(self, record: dict) -> None:
        if self._bus is None:
            return
        record.setdefault("ts_unix", time.time())
        append_jsonl(self._bus, record)

    # -- scheduler hooks -----------------------------------------------
    def worker_config(self, worker: int) -> WorkerTelemetryConfig:
        return WorkerTelemetryConfig(
            directory=str(self.directory),
            worker=worker,
            sweep_id=self.sweep_id,
            trace_id=self.trace_id or "",
            root_span_id=self.root_span_id,
            heartbeat_interval=self.heartbeat_interval,
        )

    def worker_spawned(self, worker: int, pid: int) -> None:
        self._pids[worker] = pid
        self._alive.add(worker)
        self._detector.beat(worker)  # grace period from spawn
        self._emit({"type": "worker", "event": "spawned",
                    "worker": worker, "pid": pid})

    def worker_died(self, worker: int, pid: int,
                    exitcode: int | None = None) -> None:
        self._alive.discard(worker)
        self._detector.forget(worker)
        self._emit({"type": "worker", "event": "died", "worker": worker,
                    "pid": pid, "exitcode": exitcode})

    def job_event(self, spec, state: str, worker: int | None = None,
                  payload: dict | None = None,
                  at: float | None = None) -> None:
        """Record a job-state transition on the parent bus.

        ``payload`` (the ``execute_job`` result, passed on "done")
        contributes the quality fields the dashboard shows: the job's
        validation score and a diverged flag when a sentinel aborted it.
        ``at`` (unix seconds) dates a transition that happened before
        the parent learned of it, e.g. a worker finishing a job; the
        default is now.
        """
        record = {"type": "job_state", "job_id": spec.job_id, "state": state}
        if at is not None:
            record["ts_unix"] = at
        if worker is not None:
            record["worker"] = worker
        if state == "enqueued":
            describe = getattr(spec, "describe", None)
            if callable(describe):
                record["describe"] = describe()
            record["stage"] = getattr(spec, "stage", "")
            record["rung"] = getattr(spec, "rung", -1)
        if isinstance(payload, dict):
            score = payload.get("score")
            if isinstance(score, (int, float)):
                record["score"] = round(float(score), 4)
            status = payload.get("status")
            if isinstance(status, str) and status not in ("", "completed"):
                record["status"] = status
        self._emit(record)

    def poll(self) -> None:
        """Tail worker heartbeat files; update gauges and stall state.

        Called from the scheduler drain loop (every ~0.1s); reads are
        incremental (byte offsets), so the steady-state cost is a stat
        plus whatever new lines arrived.
        """
        now = self._clock()
        if now - self._last_poll < min(0.05, self.heartbeat_interval):
            return
        self._last_poll = now
        for worker in list(self._alive) + [
                w for w in self._offsets if w not in self._alive]:
            path = self.directory / f"worker_{worker}.jsonl"
            offset = self._offsets.get(worker, 0)
            beats, new_offset, _ = read_jsonl(path, offset, live=True)
            self._offsets[worker] = new_offset
            fresh = [b for b in beats if b.get("type") == "heartbeat"]
            if not fresh:
                continue
            if worker in self._alive:
                self._detector.beat(worker)
            last = fresh[-1]
            self._beats[worker] = self._beats.get(worker, 0) + len(fresh)
            for beat in fresh:
                ts = beat.get("ts_unix")
                if ts is None:
                    continue
                self._first_beat.setdefault(worker, ts)
                self._last_beat[worker] = ts
            rss = max(int(b.get("rss_bytes", 0)) for b in fresh)
            self._peak_rss[worker] = max(self._peak_rss.get(worker, 0), rss)
            if any(b.get("final") for b in fresh):
                # clean goodbye: the worker drained its queue and is
                # exiting.  Stop expecting heartbeats — one sweep runs
                # several pools, and a retired worker from an earlier
                # rung must not read as stalled during later ones; only
                # unexpected silence (a hang or a kill) is a stall.
                self._alive.discard(worker)
                self._detector.forget(worker)
                self._emit({"type": "worker", "event": "exited",
                            "worker": worker,
                            "pid": self._pids.get(worker)})
            labels = {"sweep": self.sweep_id, "worker": str(worker)}
            self.registry.gauge("sweep.worker_rss_bytes", **labels).set(
                int(last.get("rss_bytes", 0)))
            self.registry.gauge("sweep.worker_steps_per_s", **labels).set(
                float(last.get("steps_per_s", 0.0)))
            self.registry.counter("sweep.heartbeats", **labels).inc(
                len(fresh))
        newly_stalled, recovered = self._detector.check(now)
        for worker in newly_stalled:
            self._stall_events += 1
            self.registry.counter("sweep.workers_stalled",
                                  sweep=self.sweep_id).inc()
            self._emit({"type": "worker", "event": "stalled",
                        "worker": worker, "pid": self._pids.get(worker)})
            print(f"warning: sweep worker {worker} "
                  f"(pid {self._pids.get(worker)}) sent no heartbeat for "
                  f"{self._detector.timeout:.1f}s — stalled?",
                  file=sys.stderr)
        for worker in recovered:
            self._emit({"type": "worker", "event": "recovered",
                        "worker": worker, "pid": self._pids.get(worker)})

    @property
    def stalled_workers(self) -> set[int]:
        """Workers currently flagged as stalled (feeds requeue policy)."""
        return self._detector.stalled

    # -- finalization --------------------------------------------------
    def finalize(self, error: str | None = None) -> dict:
        """Final poll, stitch the distributed trace, write summaries."""
        if self._finalized:
            return self.summary
        self._finalized = True
        self._last_poll = 0.0  # force one last full read
        try:
            self.poll()
        except OSError:  # pragma: no cover
            pass
        self._emit({"type": "sweep", "event": "finished",
                    "error": error})
        if self._root_span is not None:
            self._root_span.__exit__(None, None, None)
        worker_files = sorted(self.directory.glob("worker_*.trace.jsonl"))
        events, process_names, skipped = stitch_events(
            self.tracer.events, os.getpid(), self.tracer.epoch_unix,
            self.root_span_id, self.trace_id or "", worker_files,
        )
        atomic_write_json(self.directory / "trace.json",
                          events_to_chrome(events,
                                           process_names=process_names),
                          site="telemetry.trace", indent=None)
        coverage = {}
        for worker, beats in sorted(self._beats.items()):
            first = self._first_beat.get(worker)
            last = self._last_beat.get(worker)
            expected = 1.0
            if first is not None and last is not None and last > first:
                expected = (last - first) / self.heartbeat_interval + 1.0
            coverage[str(worker)] = min(1.0, beats / expected)
        self.summary = {
            "schema": 1,
            "sweep_id": self.sweep_id,
            "trace_id": self.trace_id,
            "error": error,
            "workers": {
                str(worker): {
                    "pid": self._pids.get(worker),
                    "heartbeats": self._beats.get(worker, 0),
                    "peak_rss_bytes": self._peak_rss.get(worker, 0),
                    "heartbeat_coverage": coverage.get(str(worker), 0.0),
                }
                for worker in sorted(set(self._pids) | set(self._beats))
            },
            "workers_stalled": self._stall_events,
            "parent_peak_rss_bytes": peak_rss_tree_bytes(),
            "stitched_spans": sum(1 for e in events
                                  if e.get("type") == "span"),
            "skipped_lines": skipped,
        }
        atomic_write_json(self.directory / "summary.json", self.summary,
                          site="telemetry.summary")
        if self._bus is not None:
            try:
                self._bus.close()
            except OSError:  # pragma: no cover
                pass
            self._bus = None
        if self._own_tracer is not None:
            set_tracer(self._previous_tracer)
            self._own_tracer = None
        return self.summary

    def scalars(self) -> dict:
        """Flat telemetry scalars for the sweep's ledger record."""
        summary = self.summary or {}
        out = {
            "workers_stalled": float(summary.get("workers_stalled", 0)),
            "peak_rss_bytes": float(
                summary.get("parent_peak_rss_bytes", 0)),
        }
        workers = summary.get("workers", {})
        for worker, info in sorted(workers.items()):
            out[f"worker{worker}_peak_rss_bytes"] = float(
                info.get("peak_rss_bytes", 0))
            out[f"worker{worker}_heartbeat_coverage"] = float(
                info.get("heartbeat_coverage", 0.0))
        if workers:
            out["heartbeat_coverage_min"] = min(
                float(info.get("heartbeat_coverage", 0.0))
                for info in workers.values())
        return out


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------
def stitch_events(parent_events: list[dict], parent_pid: int,
                  parent_epoch_unix: float, root_span_id: int,
                  trace_id: str, worker_files) -> tuple[list, dict, int]:
    """Merge parent tracer events with per-worker trace files.

    Returns ``(events, process_names, skipped_lines)``.  Span ids are
    remapped to process-unique strings (``p<id>`` for the parent,
    ``w<worker>.<id>`` for workers) so they never collide; worker root
    spans — the per-job spans whose ``parent_id`` is ``None`` in the
    worker's local tree — are re-parented under the sweep root span.
    Worker timestamps are re-anchored onto the parent timeline via
    their unix-epoch stamps, so per-worker Chrome rows line up.
    """
    events: list[dict] = []
    process_names = {int(parent_pid): "sweep parent"}
    skipped = 0
    for event in parent_events:
        event = dict(event)
        if event.get("type") == "span":
            event["id"] = f"p{event['id']}"
            if event.get("parent_id") is not None:
                event["parent_id"] = f"p{event['parent_id']}"
        event["pid"] = int(parent_pid)
        event["trace_id"] = trace_id
        events.append(event)
    for path in worker_files:
        lines, _, torn = read_jsonl(path, live=True)
        skipped += torn
        for event in lines:
            worker = event.get("worker", "?")
            pid = event.get("pid")
            if pid is not None:
                process_names.setdefault(int(pid), f"worker {worker}")
            if event.get("type") == "span":
                event["id"] = f"w{worker}.{event['id']}"
                if event.get("parent_id") is None:
                    event["parent_id"] = f"p{root_span_id}"
                else:
                    event["parent_id"] = f"w{worker}.{event['parent_id']}"
            if "ts_unix" in event:
                event["ts"] = max(0.0,
                                  event["ts_unix"] - parent_epoch_unix)
            event["trace_id"] = trace_id
            events.append(event)
    events.sort(key=lambda e: (e.get("ts", 0.0)))
    return events, process_names, skipped
