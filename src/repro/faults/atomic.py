"""Crash-safe file writing: tmp + fsync + ``os.replace``.

Every on-disk artifact this project produces (datasets, checkpoints,
snapshots, manifests, CSV exports) goes through one of these writers:
the payload is written to a ``*.tmp`` sibling, flushed and fsynced,
then promoted with :func:`os.replace` — so a reader can only ever see
the old complete file or the new complete file, never a torn one.  A
crash leaves at worst a stale ``*.tmp`` sibling, which writers ignore
and overwrite.

Each writer names a fault site (see :mod:`repro.faults.inject`): the
site fires with ``stage="pre"`` on the tmp file just before promotion
(crash simulation — ``raise`` / ``kill`` / ``partial``) and with
``stage="post"`` on the final artifact (``corrupt`` simulation), which
is how the crash-replay suite proves the atomicity actually holds.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path
from typing import Callable

import numpy as np

from .inject import fault_point

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_lines",
    "atomic_write_with",
    "atomic_write_hashed",
    "atomic_write_npz",
    "atomic_write_npy",
    "json_bytes",
    "sha256_file",
]


def _promote(tmp: Path, path: Path, site: str | None) -> None:
    """Fsync and promote a fully-written tmp file to its final name."""
    if site is not None:
        fault_point(site, path=tmp, stage="pre")
    os.replace(tmp, path)
    if site is not None:
        fault_point(site, path=path, stage="post")


def _fsync_handle(handle) -> None:
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except OSError:  # e.g. filesystems without fsync; best effort
        pass


def atomic_write_bytes(path: Path | str, payload: bytes,
                       site: str | None = None) -> Path:
    """Atomically write ``payload`` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        _fsync_handle(handle)
    _promote(tmp, path, site)
    return path


def atomic_write_text(path: Path | str, text: str,
                      site: str | None = None) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"), site=site)


def json_bytes(payload, indent: int | None = 2) -> bytes:
    """The bytes :func:`atomic_write_json` writes for ``payload``."""
    text = json.dumps(payload, indent=indent, sort_keys=True, default=str)
    return (text + "\n").encode("utf-8")


def atomic_write_json(path: Path | str, payload,
                      site: str | None = None, indent: int | None = 2) -> Path:
    return atomic_write_bytes(path, json_bytes(payload, indent), site=site)


def atomic_write_lines(path: Path | str, lines,
                       site: str | None = None) -> Path:
    """Atomically write an iterable of (unterminated) text lines."""
    return atomic_write_text(path, "".join(line + "\n" for line in lines),
                             site=site)


def atomic_write_with(path: Path | str, writer: Callable,
                      site: str | None = None, mode: str = "wb") -> Path:
    """Atomically write via ``writer(handle)`` — for payloads that are
    produced by a streaming API (``np.save``, ``csv.writer`` …)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    kwargs = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
    with open(tmp, mode, **kwargs) as handle:
        writer(handle)
        _fsync_handle(handle)
    _promote(tmp, path, site)
    return path


def atomic_write_hashed(path: Path | str, *chunks, site: str) -> str:
    """Atomically write the concatenated ``chunks`` (bytes-like objects);
    returns the sha256 hex digest of the bytes written.

    The digest is taken from the in-memory chunks, so it describes what
    was written: damage to the file after the write fails a later
    :func:`sha256_file` check instead of being hashed into a manifest.
    """
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)

    def write(handle) -> None:
        for chunk in chunks:
            handle.write(chunk)

    atomic_write_with(path, write, site=site)
    return digest.hexdigest()


def atomic_write_npz(path: Path | str, arrays: dict, *, site: str) -> str:
    """Atomically write ``arrays`` as an uncompressed ``.npz``; returns
    the sha256 hex digest of the bytes written (see
    :func:`atomic_write_hashed`).  There is deliberately no compression:
    zlib shrinks float training state by ~5% at ~20x the write time.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with buffer.getbuffer() as payload:
        return atomic_write_hashed(path, payload, site=site)


def atomic_write_npy(path: Path | str, array: np.ndarray, *, site: str) -> str:
    """Atomically write one array as ``.npy`` (what :func:`numpy.save`
    writes); returns the sha256 hex digest of the bytes written (see
    :func:`atomic_write_hashed`).  The array's buffer is hashed and
    written in place, without a serialized copy."""
    array = np.ascontiguousarray(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array))
    return atomic_write_hashed(path, header.getvalue(),
                               array.reshape(-1).view(np.uint8), site=site)


def sha256_file(path: Path | str) -> str:
    """Streaming sha256 of a file (hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
