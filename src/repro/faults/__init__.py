"""``repro.faults`` — crash-safety primitives and fault injection.

Three parts of one robustness story:

* :mod:`repro.faults.atomic` — the atomic-write helpers (tmp + fsync +
  ``os.replace`` + sha256) every on-disk artifact goes through, so a
  crash can never leave a torn readable file;
* :mod:`repro.faults.inject` — the deterministic fault-injection
  harness (named :func:`fault_point` sites, ``REPRO_FAULTS`` seeded
  schedules, raise/kill/partial-write/corrupt-bytes modes) that the
  crash-replay test suite uses to *prove* it;
* :mod:`repro.faults.records` — the record files built on both: the
  one tolerant JSONL reader, the one self-healing JSONL appender and
  the one fingerprint-checked progress file.

See ``docs/robustness.md``.
"""

from __future__ import annotations

from .atomic import (
    atomic_write_bytes,
    atomic_write_hashed,
    atomic_write_json,
    atomic_write_lines,
    atomic_write_npy,
    atomic_write_npz,
    atomic_write_text,
    atomic_write_with,
    json_bytes,
    sha256_file,
)
from .inject import (
    ENV_VAR,
    KILL_EXIT_CODE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_point,
    inject,
    install,
    is_active,
    parse_plan,
    reset,
)
from .records import ProgressFile, append_jsonl, open_jsonl, read_jsonl

__all__ = [
    "ENV_VAR", "KILL_EXIT_CODE",
    "InjectedFault", "FaultRule", "FaultPlan",
    "fault_point", "parse_plan", "install", "reset", "active_plan",
    "is_active", "inject",
    "atomic_write_bytes", "atomic_write_text", "atomic_write_json",
    "atomic_write_lines", "atomic_write_with", "atomic_write_npz",
    "atomic_write_npy", "atomic_write_hashed", "json_bytes", "sha256_file",
    "read_jsonl", "open_jsonl", "append_jsonl", "ProgressFile",
]
