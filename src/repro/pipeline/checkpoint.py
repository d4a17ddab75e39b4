"""Persist trained entity embeddings for later analysis.

Training is the expensive step; the geometric analyses (§6.1) and the
alignment-module comparisons (Table 6) only need the final embedding
matrices.  A :class:`EmbeddingSnapshot` captures them, round-trips
through a single ``.npz`` file, and offers the same evaluate/predict
surface as a trained approach.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..alignment import csls as csls_rescale
from ..alignment import infer_alignment, rank_metrics, similarity_matrix
from ..approaches.base import EmbeddingApproach
from ..faults import atomic_write_with

__all__ = ["EmbeddingSnapshot", "save_snapshot", "load_snapshot"]


class EmbeddingSnapshot:
    """Frozen source/target embeddings with the alignment-module API."""

    def __init__(self, sources: list[str], source_matrix: np.ndarray,
                 targets: list[str], target_matrix: np.ndarray,
                 metric: str = "cosine", name: str = "snapshot"):
        if len(sources) != len(source_matrix):
            raise ValueError("source names and matrix rows disagree")
        if len(targets) != len(target_matrix):
            raise ValueError("target names and matrix rows disagree")
        self.sources = list(sources)
        self.targets = list(targets)
        self.source_matrix = np.asarray(source_matrix, dtype=np.float64)
        self.target_matrix = np.asarray(target_matrix, dtype=np.float64)
        self.metric = metric
        self.name = name
        self._source_row = {entity: i for i, entity in enumerate(self.sources)}
        self._target_row = {entity: i for i, entity in enumerate(self.targets)}

    @classmethod
    def from_approach(
        cls, approach: EmbeddingApproach,
        pairs: list[tuple[str, str]], name: str | None = None,
    ) -> "EmbeddingSnapshot":
        """Capture an approach's embeddings for the entities of ``pairs``."""
        sources = [a for a, _ in pairs]
        targets = [b for _, b in pairs]
        return cls(
            sources, approach._source_matrix(sources),
            targets, approach._target_matrix(targets),
            metric=approach.info.metric,
            name=name or approach.info.name,
        )

    # ------------------------------------------------------------------
    def similarity_between(self, sources, targets, metric=None, csls_k=0):
        """Similarity matrix between named entities (snapshot rows)."""
        matrix = similarity_matrix(
            self.source_matrix[[self._source_row[e] for e in sources]],
            self.target_matrix[[self._target_row[e] for e in targets]],
            metric or self.metric,
        )
        if csls_k > 0:
            matrix = csls_rescale(matrix, k=csls_k)
        return matrix

    def evaluate(self, pairs, hits_at=(1, 5, 10), metric=None, csls_k=0):
        """Rank metrics over ``pairs`` (targets are the candidate set)."""
        sources = [a for a, _ in pairs]
        targets = [b for _, b in pairs]
        similarity = self.similarity_between(sources, targets, metric, csls_k)
        return rank_metrics(similarity, np.arange(len(pairs)), hits_at=hits_at)

    def predict(self, pairs, strategy="greedy", metric=None, csls_k=0):
        """Predicted alignment over the entities of ``pairs``."""
        sources = [a for a, _ in pairs]
        targets = [b for _, b in pairs]
        similarity = self.similarity_between(sources, targets, metric, csls_k)
        assignment = infer_alignment(similarity, strategy)
        return [
            (source, targets[int(j)])
            for source, j in zip(sources, assignment)
            if j >= 0
        ]


def save_snapshot(snapshot: EmbeddingSnapshot, path: Path | str) -> None:
    """Atomically write a snapshot to a single ``.npz`` file."""
    atomic_write_with(
        path,
        lambda handle: np.savez_compressed(
            handle,
            sources=np.array(snapshot.sources, dtype=object),
            targets=np.array(snapshot.targets, dtype=object),
            source_matrix=snapshot.source_matrix,
            target_matrix=snapshot.target_matrix,
            metric=np.array(snapshot.metric),
            name=np.array(snapshot.name),
        ),
        site="snapshot.save",
    )


def load_snapshot(path: Path | str) -> EmbeddingSnapshot:
    """Load a snapshot written by :func:`save_snapshot`."""
    with np.load(path, allow_pickle=True) as data:
        return EmbeddingSnapshot(
            sources=[str(s) for s in data["sources"]],
            source_matrix=data["source_matrix"],
            targets=[str(t) for t in data["targets"]],
            target_matrix=data["target_matrix"],
            metric=str(data["metric"]),
            name=str(data["name"]),
        )
