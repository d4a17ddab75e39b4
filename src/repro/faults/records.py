"""Record files: the one JSONL reader, JSONL appender and progress file.

Every append-only event log in the project — the run ledger, the
quality bus, the sweep telemetry buses — and every resume file
(``cv_progress.json``, ``sweep_progress.json``) goes through here:

* :func:`read_jsonl` — tolerant reader.  Blank lines are ignored;
  malformed and non-object lines are counted as ``skipped``, never
  fatal.  A *finished* read parses the whole file, so a valid
  unterminated last line is kept and a torn one is skipped; a *live*
  read (``live=True``) stops at the last newline, because a writer may
  still be mid-append — the unterminated tail is neither consumed nor
  counted, and the returned offset resumes right before it.
* :func:`open_jsonl` / :func:`append_jsonl` — self-healing appender.
  Opening terminates a torn last line left by a crashed writer, so the
  fragment costs exactly one skipped line and new records stay
  readable; each record is one sorted-key line written in one
  ``write`` call and flushed.
* :class:`ProgressFile` — completed-job store keyed by job id, stamped
  with a config fingerprint and rewritten atomically after every job.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..fingerprint import config_fingerprint
from .atomic import atomic_write_json
from .inject import fault_point

__all__ = ["read_jsonl", "open_jsonl", "append_jsonl", "ProgressFile"]


def read_jsonl(path: Path | str, offset: int = 0, *,
               live: bool = False) -> tuple[list[dict], int, int]:
    """Read the JSON-object lines of ``path`` from byte ``offset``.

    Returns ``(records, next_offset, skipped)``.  A missing file reads
    as empty.  See the module docstring for the live/finished contract.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read()
    except OSError:
        return [], offset, 0
    if live:
        blob = blob[:blob.rfind(b"\n") + 1]
    records: list[dict] = []
    skipped = 0
    for line in blob.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(record, dict):
            skipped += 1
            continue
        records.append(record)
    return records, offset + len(blob), skipped


def open_jsonl(path: Path | str):
    """Open ``path`` for appending (creating parent directories),
    terminating a torn last line first; returns the binary handle."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+b")
    if handle.seek(0, os.SEEK_END) > 0:
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            handle.write(b"\n")
            handle.flush()
    return handle


def append_jsonl(handle, record: dict, site: str | None = None) -> None:
    """Append ``record`` as one line to a handle from :func:`open_jsonl`.

    ``site`` names a fault point fired with the line's bytes just
    before the write, so the crash-replay suite can tear it.
    """
    line = json.dumps(record, sort_keys=True, default=str).encode("utf-8") \
        + b"\n"
    if site is not None:
        fault_point(site, path=handle.name, data=line)
    handle.write(line)
    handle.flush()


class ProgressFile:
    """Completed jobs of one run, keyed by job id, in one JSON file.

    The file records the run's config and its fingerprint
    (:func:`~repro.fingerprint.config_fingerprint`, environment
    excluded); loading a file written under another config raises
    instead of merging incomparable jobs.  Reads and rewrites fire the
    ``site`` fault point; rewrites are atomic.
    """

    def __init__(self, path: Path | str, config: dict, site: str):
        self.path = Path(path)
        self.config = dict(config)
        self.site = site
        self.fingerprint = config_fingerprint(self.config, include_env=False)
        self.jobs: dict[str, dict] = {}

    def load(self) -> dict[str, dict]:
        """Restore completed jobs; ``{}`` when starting fresh.

        Raises :class:`RuntimeError` on a damaged file (writes are
        atomic, so damage came from outside) and :class:`ValueError`
        on a fingerprint mismatch.
        """
        if not self.path.is_file():
            return {}
        fault_point(self.site, path=self.path)
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise RuntimeError(
                f"unreadable progress file {self.path}: {error}") from error
        if not isinstance(data, dict):
            raise RuntimeError(f"unreadable progress file {self.path}: "
                               f"not a JSON object")
        if data.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"progress at {self.path} was written for "
                f"{data.get('config')}, not {self.config}; use a fresh "
                f"--workdir or checkpoint directory")
        self.jobs = dict(data.get("jobs", {}))
        return dict(self.jobs)

    def record(self, job_id: str, payload: dict) -> None:
        """Add one completed job and atomically rewrite the file."""
        self.jobs[job_id] = payload
        atomic_write_json(self.path, {
            "schema": 1,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "jobs": self.jobs,
        }, site=self.site)
