"""Unsupervised entity alignment (paper §7.2, future direction 1).

The paper observes that *no* surveyed approach works without seed
alignment and sketches two remedies: distilling distant supervision from
auxiliary features, and unsupervised cross-lingual word alignment
techniques such as orthogonal Procrustes.  This module implements that
sketch:

1. **distant supervision** — pseudo-seeds are collected from rare literal
   values shared across the KGs (no labels consumed);
2. two TransE spaces are trained independently, one per KG;
3. an **orthogonal Procrustes** rotation maps space 1 onto space 2 using
   the pseudo-seeds;
4. optional **iterative refinement** re-estimates the seed set from
   mutual nearest neighbors and re-solves Procrustes (the MUSE recipe).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..embedding import TransE, margin_ranking_loss, uniform_corrupt
from ..kg import EntityIndex, KnowledgeGraph
from .base import ApproachConfig, ApproachInfo, EmbeddingApproach, permuted_chunks

__all__ = ["UnsupervisedProcrustes", "orthogonal_procrustes"]


def orthogonal_procrustes(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The rotation ``R`` minimizing ``||source R - target||_F`` with
    ``R^T R = I`` (Schönemann 1966): ``R = U V^T`` from the SVD of
    ``source^T target``."""
    if source.shape != target.shape:
        raise ValueError(
            f"paired matrices must match: {source.shape} != {target.shape}"
        )
    u, _, vt = np.linalg.svd(source.T @ target)
    return u @ vt


class _SingleKGSpace:
    """A TransE embedding space for one KG (no cross-KG interaction)."""

    def __init__(self, kg: KnowledgeGraph, dim: int, rng: np.random.Generator):
        self.index = EntityIndex(sorted(kg.entities))
        relations = EntityIndex(sorted(kg.relations) or ["_none_"])
        triples = [
            (self.index.id_of(h), relations.id_of(r), self.index.id_of(t))
            for h, r, t in kg.relation_triples
        ]
        self.triples = (
            np.array(triples, dtype=np.int64)
            if triples else np.zeros((0, 3), dtype=np.int64)
        )
        self.model = TransE(len(self.index), len(relations), dim, rng)

    def embeddings(self, entities: list[str]) -> np.ndarray:
        ids = [self.index.id_of(e) for e in entities]
        return self.model.entity_embeddings()[ids]


class UnsupervisedProcrustes(EmbeddingApproach):
    """Unsupervised alignment via distant supervision + Procrustes.

    ``fit`` ignores ``split.train`` entirely (asserted in the tests): the
    seed substitute comes from rare shared literals.
    """

    info = ApproachInfo(
        name="UnsupProcrustes", relation_embedding="Triple",
        attribute_embedding="Literal", metric="cosine",
        combination="Transformation", learning="Supervised",
        uses_attributes=True, requires_attributes=True,
    )

    def __init__(self, config: ApproachConfig | None = None,
                 refinement_rounds: int = 2, literal_blend: float = 0.4):
        super().__init__(config)
        self.refinement_rounds = refinement_rounds
        self.literal_blend = literal_blend

    # ------------------------------------------------------------------
    def _setup(self, pair, split, rng):
        self.space1 = _SingleKGSpace(pair.kg1, self.config.dim, rng)
        self.space2 = _SingleKGSpace(pair.kg2, self.config.dim, rng)
        self.pseudo_seeds = self._distant_supervision(pair)
        self.rotation = np.eye(self.config.dim)
        from .literals import value_word_vectors

        lang1 = pair.metadata.get("lang1", "en")
        lang2 = pair.metadata.get("lang2", "en")
        self._literals1 = value_word_vectors(pair.kg1, lang1, dim=self.config.dim)
        self._literals2 = value_word_vectors(pair.kg2, lang2, dim=self.config.dim)

    @staticmethod
    def _distant_supervision(pair) -> list[tuple[str, str]]:
        """Pseudo-seeds: rare literal values appearing once in each KG."""
        def singletons(kg):
            holders: dict[str, list[str]] = defaultdict(list)
            for entity, _, value in kg.attribute_triples:
                holders[value].append(entity)
            return {v: es[0] for v, es in holders.items() if len(es) == 1}

        rare1 = singletons(pair.kg1)
        rare2 = singletons(pair.kg2)
        seen1: set[str] = set()
        seen2: set[str] = set()
        seeds = []
        for value, entity1 in rare1.items():
            entity2 = rare2.get(value)
            if entity2 is None or entity1 in seen1 or entity2 in seen2:
                continue
            seen1.add(entity1)
            seen2.add(entity2)
            seeds.append((entity1, entity2))
        return seeds

    def _parameters(self):
        return self.space1.model.parameters() + self.space2.model.parameters()

    def _trained_spaces(self) -> list[_SingleKGSpace]:
        return [space for space in (self.space1, self.space2)
                if len(space.triples)]

    def _batches(self, epoch, rng):
        """Space 1's batches, then space 2's: the spaces never interact."""
        for space in self._trained_spaces():
            for triples in permuted_chunks(space.triples, self.config.batch_size, rng):
                yield space, triples

    def _negatives(self, batch, rng):
        space, triples = batch
        return uniform_corrupt(triples, len(space.index), self.config.n_negatives, rng)

    def _loss(self, batch, negatives, rng):
        space, triples = batch
        positive = space.model.score(triples[:, 0], triples[:, 1], triples[:, 2])
        negative = space.model.score(
            negatives[:, 0], negatives[:, 1], negatives[:, 2]
        ).reshape(len(triples), self.config.n_negatives).mean(axis=1)
        return margin_ranking_loss(positive, negative, self.config.margin)

    def _end_epoch(self, epoch, rng):
        for space in self._trained_spaces():
            self._normalize(space.model)

    def fit(self, pair, split, **options):
        """Unsupervised: the training seeds in ``split`` are never read."""
        log = super().fit(pair, split, **options)
        self._solve_procrustes()
        for _ in range(self.refinement_rounds):
            self._refine()
        return log

    # ------------------------------------------------------------------
    def _solve_procrustes(self) -> None:
        if not self.pseudo_seeds:
            return
        source = self.space1.embeddings([a for a, _ in self.pseudo_seeds])
        target = self.space2.embeddings([b for _, b in self.pseudo_seeds])
        self.rotation = orthogonal_procrustes(source, target)

    def _refine(self) -> None:
        """MUSE-style refinement: mutual nearest neighbors become the new
        seed set for the next Procrustes solve."""
        entities1 = self.space1.index.items()
        entities2 = self.space2.index.items()
        source = self._matrix(entities1, side=1)
        target = self._matrix(entities2, side=2)
        similarity = source @ target.T
        best1 = similarity.argmax(axis=1)
        best2 = similarity.argmax(axis=0)
        mutual = [
            (entities1[i], entities2[int(j)])
            for i, j in enumerate(best1)
            if best2[int(j)] == i
        ]
        if len(mutual) >= self.config.dim:
            self.pseudo_seeds = mutual
            self._solve_procrustes()

    # ------------------------------------------------------------------
    def _matrix(self, entities, side: int) -> np.ndarray:
        def normalize(matrix):
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            return matrix / np.maximum(norms, 1e-12)

        if side == 1:
            struct = normalize(self.space1.embeddings(entities) @ self.rotation)
            literals = self._literals1
        else:
            struct = normalize(self.space2.embeddings(entities))
            literals = self._literals2
        from .literals import vectors_to_matrix

        lit = normalize(vectors_to_matrix(literals, list(entities), self.config.dim))
        blend = self.literal_blend
        return np.concatenate(
            [np.sqrt(1.0 - blend) * struct, np.sqrt(blend) * lit], axis=1
        )

    def _source_matrix(self, entities):
        return self._matrix(entities, side=1)

    def _target_matrix(self, entities):
        return self._matrix(entities, side=2)
