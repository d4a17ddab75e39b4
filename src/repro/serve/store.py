"""Versioned on-disk embedding store for the serving layer.

Training is the expensive step; serving must reload its artifacts in
milliseconds and survive redeploys.  An :class:`EmbeddingStore` is a
directory of immutable versions::

    store/
      manifest.json            # version registry + checksums + metadata
      v001/
        source_matrix.npy      # mmap-able (np.load(..., mmap_mode="r"))
        target_matrix.npy
        vocab.json             # entity name lists + metric + model name
      v002/ ...

Matrices are stored as raw ``.npy`` (not inside an ``.npz`` archive)
precisely so :func:`numpy.load` can memory-map them — a zipped archive
would force a full copy into RAM at every load.  The manifest is JSON
so operators can inspect a deployment with ``cat``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..faults import (
    atomic_write_hashed,
    atomic_write_json,
    atomic_write_npy,
    atomic_write_npz,
    fault_point,
    json_bytes,
    sha256_file,
)
from ..pipeline.checkpoint import EmbeddingSnapshot
from .index import ANNIndex, make_index

__all__ = ["EmbeddingStore", "StoredEmbeddings", "StoreCorruption"]

_MANIFEST = "manifest.json"
_VOCAB = "vocab.json"
_SOURCE = "source_matrix.npy"
_TARGET = "target_matrix.npy"


@dataclass
class StoredEmbeddings:
    """One loaded store version; matrices may be ``np.memmap`` views."""

    version: str
    sources: list[str]
    targets: list[str]
    source_matrix: np.ndarray
    target_matrix: np.ndarray
    metric: str = "cosine"
    name: str = "snapshot"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.sources) != len(self.source_matrix):
            raise ValueError("source names and matrix rows disagree")
        if len(self.targets) != len(self.target_matrix):
            raise ValueError("target names and matrix rows disagree")
        self._source_row = {e: i for i, e in enumerate(self.sources)}
        self._target_row = {e: i for i, e in enumerate(self.targets)}

    def source_row(self, entity: str) -> int:
        return self._source_row[entity]

    def target_row(self, entity: str) -> int:
        return self._target_row[entity]

    @property
    def dim(self) -> int:
        return int(self.source_matrix.shape[1])

    def snapshot(self) -> EmbeddingSnapshot:
        """Materialize as an in-memory :class:`EmbeddingSnapshot`."""
        return EmbeddingSnapshot(
            self.sources, np.asarray(self.source_matrix),
            self.targets, np.asarray(self.target_matrix),
            metric=self.metric, name=self.name,
        )


class StoreCorruption(RuntimeError):
    """A store artifact exists but fails its manifest sha256 check."""


class EmbeddingStore:
    """Append-only registry of embedding versions under one root."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.root / _MANIFEST

    def describe(self) -> dict:
        """The manifest contents (``{"versions": [...]}``)."""
        path = self._manifest_path()
        if not path.exists():
            return {"versions": []}
        return json.loads(path.read_text(encoding="utf-8"))

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_json(self._manifest_path(), manifest,
                          site="store.manifest")

    def _find_entry(self, version: str | None) -> dict:
        manifest = self.describe()
        if not manifest["versions"]:
            raise FileNotFoundError(f"empty embedding store at {self.root}")
        if version is None:
            return manifest["versions"][-1]
        matches = [e for e in manifest["versions"] if e["id"] == version]
        if not matches:
            raise KeyError(
                f"version {version!r} not in store (have {self.versions()})"
            )
        return matches[0]

    def versions(self) -> list[str]:
        return [entry["id"] for entry in self.describe()["versions"]]

    def latest(self) -> str | None:
        versions = self.versions()
        return versions[-1] if versions else None

    # ------------------------------------------------------------------
    def save(self, snapshot: EmbeddingSnapshot,
             metadata: dict | None = None) -> str:
        """Persist a snapshot as the next version; returns its id."""
        manifest = self.describe()
        version = f"v{len(manifest['versions']) + 1:03d}"
        directory = self.root / version
        directory.mkdir(parents=True, exist_ok=False)
        # the manifest records the digests of the bytes as written, so
        # damage after the write fails verify() instead of being hashed in
        checksums = {
            fname: atomic_write_npy(directory / fname, matrix, site="store.save")
            for fname, matrix in ((_SOURCE, snapshot.source_matrix),
                                  (_TARGET, snapshot.target_matrix))
        }
        vocab = {
            "sources": list(snapshot.sources),
            "targets": list(snapshot.targets),
            "metric": snapshot.metric,
            "name": snapshot.name,
        }
        checksums[_VOCAB] = atomic_write_hashed(
            directory / _VOCAB, json_bytes(vocab), site="store.save")
        manifest["versions"].append({
            "id": version,
            "name": snapshot.name,
            "metric": snapshot.metric,
            "n_sources": len(snapshot.sources),
            "n_targets": len(snapshot.targets),
            "dim": int(snapshot.source_matrix.shape[1]),
            "checksums": checksums,
            "metadata": dict(metadata or {}),
        })
        self._write_manifest(manifest)
        return version

    def save_cv_result(self, result, pairs: list[tuple[str, str]],
                       metadata: dict | None = None) -> str:
        """Persist the best fold of a :class:`repro.pipeline.CVResult`.

        Picks the fold with the highest test Hits@1 — the model a
        deployment would actually promote — and records which fold won.
        """
        if not result.folds:
            raise ValueError("CVResult has no folds to persist")
        best = max(range(len(result.folds)),
                   key=lambda i: result.folds[i].metrics.hits_at(1))
        approach = result.folds[best].approach
        snapshot = EmbeddingSnapshot.from_approach(approach, pairs,
                                                   name=result.name)
        info = {"dataset": result.dataset, "fold": best,
                "hits@1": result.folds[best].metrics.hits_at(1)}
        info.update(metadata or {})
        return self.save(snapshot, metadata=info)

    # ------------------------------------------------------------------
    def verify(self, version: str | None = None,
               include_index: bool = False) -> str:
        """Check a version's manifest checksums; returns its id.

        Raises :class:`StoreCorruption` naming the first damaged file —
        a flipped bit in an embedding matrix would otherwise serve
        silently-wrong alignments.  The persisted ANN index file is
        excluded by default: it is verified by :meth:`load_index`, whose
        callers can *survive* its corruption by degrading to exact
        search, whereas matrix corruption is fatal.
        """
        entry = self._find_entry(version)
        directory = self.root / entry["id"]
        index_file = entry.get("index", {}).get("file")
        for fname, expected in entry.get("checksums", {}).items():
            if fname == index_file and not include_index:
                continue
            path = directory / fname
            if not path.is_file():
                raise StoreCorruption(
                    f"store file {path} is missing (manifest lists it)"
                )
            if sha256_file(path) != expected:
                raise StoreCorruption(
                    f"store file {path} fails its sha256 check"
                )
        return entry["id"]

    def load(self, version: str | None = None,
             mmap: bool = True, verify: bool = False) -> StoredEmbeddings:
        """Load a version (default: latest), memory-mapped by default.

        ``verify=True`` checks all manifest checksums first (reads every
        byte, so it defeats mmap laziness once — the serving layer pays
        this at startup, not per query).
        """
        entry = self._find_entry(version)
        if verify:
            self.verify(entry["id"])
        directory = self.root / entry["id"]
        vocab = json.loads((directory / _VOCAB).read_text(encoding="utf-8"))
        mmap_mode = "r" if mmap else None
        return StoredEmbeddings(
            version=entry["id"],
            sources=vocab["sources"],
            targets=vocab["targets"],
            source_matrix=np.load(directory / _SOURCE, mmap_mode=mmap_mode),
            target_matrix=np.load(directory / _TARGET, mmap_mode=mmap_mode),
            metric=vocab["metric"],
            name=vocab["name"],
            metadata=dict(entry.get("metadata", {})),
        )

    # -- persisted ANN indexes -----------------------------------------
    def save_index(self, index: ANNIndex, version: str | None = None) -> Path:
        """Persist a built index's state next to a version's matrices.

        The index must expose ``state_arrays()`` (currently
        :class:`~repro.serve.index.IVFIndex`; exact search needs no
        state).  The digest of the bytes written goes into the manifest,
        uncompressed like every ``.npz`` artifact, so a damaged
        index is detected at load time and serving degrades to exact
        search instead of answering from garbage centroids.
        """
        state = getattr(index, "state_arrays", None)
        if state is None:
            raise TypeError(
                f"{type(index).__name__} has no persistable state "
                f"(only kinds with state_arrays(), e.g. 'ivf', can be saved)"
            )
        manifest = self.describe()
        entry = self._find_entry(version)
        # _find_entry re-reads the manifest; mutate the copy we persist.
        entry = next(e for e in manifest["versions"]
                     if e["id"] == entry["id"])
        directory = self.root / entry["id"]
        fname = f"index_{index.kind}.npz"
        path = directory / fname
        entry.setdefault("checksums", {})[fname] = atomic_write_npz(
            path, state(), site="store.save")
        entry["index"] = {"kind": index.kind, "file": fname,
                          "params": index.params()}
        self._write_manifest(manifest)
        return path

    def load_index(self, version: str | None = None,
                   stored: StoredEmbeddings | None = None) -> ANNIndex:
        """Rebuild the persisted index of a version, checksum-verified.

        Raises :class:`FileNotFoundError` when the version never saved
        an index and :class:`StoreCorruption` when the saved state fails
        its sha256 check or no longer matches the target matrix — the
        caller (:meth:`repro.serve.QueryEngine.from_store`) treats both
        corruption and load failure as a cue to degrade to exact search.
        """
        entry = self._find_entry(version)
        info = entry.get("index")
        if not info:
            raise FileNotFoundError(
                f"version {entry['id']} has no persisted index"
            )
        directory = self.root / entry["id"]
        path = directory / info["file"]
        fault_point("serve.index_load", path=path)
        if not path.is_file():
            raise StoreCorruption(f"persisted index {path} is missing")
        expected = entry.get("checksums", {}).get(info["file"])
        if expected and sha256_file(path) != expected:
            raise StoreCorruption(
                f"persisted index {path} fails its sha256 check"
            )
        if stored is None or stored.version != entry["id"]:
            stored = self.load(entry["id"])
        index = make_index(info["kind"], **info.get("params", {}))
        with np.load(path, allow_pickle=False) as npz:
            index.load_state(np.asarray(stored.target_matrix), dict(npz))
        return index
