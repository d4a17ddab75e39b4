"""repro.orchestrate — parallel experiment orchestration.

The subsystem that turns "regenerate the paper tables" from a serial
afternoon into a budgeted, crash-safe, parallel sweep:

* :mod:`~repro.orchestrate.jobs` — the job model: one (approach config,
  dataset, fold) unit with a deterministic job id, checkpoint lineage
  and per-job :class:`numpy.random.SeedSequence`-derived seed.
* :mod:`~repro.orchestrate.scheduler` — a fork-based process pool that
  streams results back, merges worker metrics snapshots and requeues
  jobs torn by worker crashes.
* :mod:`~repro.orchestrate.halving` — successive-halving budgets and
  survivor selection on validation Hits@1.
* :mod:`~repro.orchestrate.sweep` — the driver: TOML/JSON sweep specs,
  grid expansion, the tune-then-cross-validate pipeline, ledger
  recording and the ``sweep_progress.json`` resume file (a
  :class:`repro.faults.ProgressFile`).  See ``docs/orchestration.md``.
* :mod:`~repro.orchestrate.telemetry` — distributed tracing + live
  telemetry for sweeps: per-worker heartbeat buses, stall detection and
  the stitched multi-process Chrome trace.  See
  ``docs/observability.md``.
"""

from .halving import HalvingSchedule, rung_budgets, select_survivors
from .jobs import (JobResult, JobSpec, dataset_key, derive_seed,
                   execute_job, load_dataset)
from .scheduler import ScheduleStats, run_jobs
from .sweep import (SweepResult, SweepSpec, expand_grid, load_spec,
                    parse_spec, payload_metrics, run_sweep)
from .telemetry import (SweepTelemetry, WorkerTelemetry,
                        WorkerTelemetryConfig, install_worker_telemetry,
                        stitch_events)

__all__ = [
    "HalvingSchedule",
    "JobResult",
    "JobSpec",
    "ScheduleStats",
    "SweepResult",
    "SweepSpec",
    "SweepTelemetry",
    "WorkerTelemetry",
    "WorkerTelemetryConfig",
    "install_worker_telemetry",
    "stitch_events",
    "dataset_key",
    "derive_seed",
    "execute_job",
    "expand_grid",
    "load_dataset",
    "load_spec",
    "parse_spec",
    "payload_metrics",
    "rung_budgets",
    "run_jobs",
    "run_sweep",
    "select_survivors",
]
