"""Neighborhood-based alignment approaches: GCNAlign and RDGCN.

Both encode the union graph of the two KGs with graph convolutions
(Eq. 3) and calibrate seed pairs with a margin loss.  GCNAlign adds an
attribute-bag channel; RDGCN initializes features from literals, weights
edges by relation specificity (its dual relation-aware graph, condensed)
and refines through highway-gated layers.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor
from ..embedding import GCNEncoder, normalized_adjacency
from .base import ApproachInfo, EmbeddingApproach, PairData
from .literals import name_vectors, value_word_vectors, vectors_to_matrix

__all__ = ["GCNAlign", "RDGCN"]


class GCNApproachBase(EmbeddingApproach):
    """Shared GCN training: full-graph forward + seed margin loss."""

    n_layers = 2
    relation_aware = False
    steps_per_epoch = 10

    def _setup(self, pair, split, rng):
        self.data = PairData(pair, split, merge_seeds=False)
        self.seeds = self.data.seed_id_pairs(split.train)
        edges, weights = self._edges(pair)
        self.adjacency = normalized_adjacency(self.data.n_entities, edges, weights)
        self.encoders = self._build_encoders(pair, rng)

    def _edges(self, pair) -> tuple[np.ndarray, np.ndarray | None]:
        triples = self.data.triples
        if not len(triples):
            return np.zeros((0, 2), dtype=np.int64), None
        edges = triples[:, [0, 2]]
        if not self.relation_aware:
            return edges, None
        # Relation-aware weighting (RDGCN's dual graph, condensed): edges
        # carried by rare relations are more alignment-discriminative.
        counts = np.bincount(triples[:, 1], minlength=self.data.n_relations)
        weights = 1.0 / np.sqrt(np.maximum(counts[triples[:, 1]], 1.0))
        return edges, weights

    def _build_encoders(self, pair, rng) -> list[tuple[GCNEncoder, float]]:
        """Return (encoder, blend weight) channels."""
        raise NotImplementedError

    def _parameters(self):
        return [p for encoder, _ in self.encoders for p in encoder.parameters()]

    def _batches(self, epoch, rng):
        """Full-graph steps: every step calibrates all seed pairs."""
        if len(self.seeds):
            for _ in range(self.steps_per_epoch):
                yield self.seeds

    def _loss(self, seeds, negatives, rng):
        loss = Tensor(0.0)
        for encoder, _ in self.encoders:
            hidden = encoder()
            e1 = hidden.gather(seeds[:, 0])
            e2 = hidden.gather(seeds[:, 1])
            positive = (e1 - e2).abs().sum(axis=1)
            wrong = rng.integers(0, self.data.n_entities, size=len(seeds))
            negative = (e1 - hidden.gather(wrong)).abs().sum(axis=1)
            loss = loss + (positive - negative + self.config.margin).relu().mean()
        return loss

    input_blend = 0.0  # weight of the raw input features at inference

    def _matrix(self, entities) -> np.ndarray:
        ids = self.data.entity_ids(entities)
        parts = []
        for encoder, weight in self.encoders:
            emb = encoder.embeddings()[ids]
            norms = np.linalg.norm(emb, axis=1, keepdims=True)
            parts.append(np.sqrt(weight) * emb / np.maximum(norms, 1e-12))
        if self.input_blend > 0.0:
            raw = self.encoders[0][0].features.data[ids]
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
            parts = [np.sqrt(1.0 - self.input_blend) * p for p in parts]
            parts.append(np.sqrt(self.input_blend) * raw / np.maximum(norms, 1e-12))
        return np.concatenate(parts, axis=1)

    def _source_matrix(self, entities):
        return self._matrix(entities)

    _target_matrix = _source_matrix


class GCNAlign(GCNApproachBase):
    """Wang et al. (2018): GCN alignment with structure + attribute channels.

    The structure channel learns free features over the joint graph; the
    attribute channel propagates a constant bag-of-attributes signal.
    Attribute *names* are per-KG, so (as Figure 6 finds) this channel adds
    little without attribute alignment.
    """

    info = ApproachInfo(
        name="GCNAlign", relation_embedding="Neighbor", attribute_embedding="Att.",
        metric="manhattan", combination="Calibration", learning="Supervised",
        uses_attributes=True,
    )

    def _build_encoders(self, pair, rng):
        config = self.config
        encoders = [
            (
                GCNEncoder(
                    self.adjacency, in_dim=config.dim,
                    hidden_dims=[config.dim] * self.n_layers, rng=rng,
                ),
                0.85,
            )
        ]
        if config.use_attributes:
            features = self._attribute_bag_features(pair, dim=config.dim)
            encoders.append(
                (
                    GCNEncoder(
                        self.adjacency, in_dim=config.dim,
                        hidden_dims=[config.dim], rng=rng,
                        features=features, trainable_features=False,
                    ),
                    0.15,
                )
            )
        return encoders

    def _attribute_bag_features(self, pair, dim: int) -> np.ndarray:
        """Hashed bag-of-attribute-names per entity (no values)."""
        from zlib import crc32

        features = np.zeros((self.data.n_entities, dim))
        for side, kg in ((1, pair.kg1), (2, pair.kg2)):
            for entity, attribute, _ in kg.attribute_triples:
                row = self.data.entity_id(entity)
                column = crc32(f"{side}:{attribute}".encode("utf-8")) % dim
                features[row, column] += 1.0
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        return features / np.maximum(norms, 1e-12)


class RDGCN(GCNApproachBase):
    """Wu et al. (2019): relation-aware dual-graph convolutional network.

    Entity features start from literal embeddings (the paper initializes
    with word vectors), flow through relation-aware weighted convolutions
    and highway gates, and are calibrated on the seeds.  The literal
    initialization is what pushes it to the top of Table 5.
    """

    info = ApproachInfo(
        name="RDGCN", relation_embedding="Neighbor", attribute_embedding="Literal",
        metric="manhattan", combination="Calibration", learning="Supervised",
        uses_attributes=True, requires_attributes=True,
        uses_word_embeddings=True,
    )
    relation_aware = True
    steps_per_epoch = 4
    lr_scale = 0.1  # literal-initialized features refine gently
    input_blend = 0.5

    def _build_encoders(self, pair, rng):
        config = self.config
        features = self._literal_features(pair)
        encoder = GCNEncoder(
            self.adjacency, in_dim=config.dim,
            hidden_dims=[config.dim] * self.n_layers, rng=rng,
            highway=True, features=features, trainable_features=True,
        )
        return [(encoder, 1.0)]

    def _literal_features(self, pair) -> np.ndarray:
        config = self.config
        if not config.use_attributes:
            rng = np.random.default_rng(config.seed)
            return rng.normal(scale=0.3, size=(self.data.n_entities, config.dim))
        lang1 = pair.metadata.get("lang1", "en")
        lang2 = pair.metadata.get("lang2", "en")
        features = np.zeros((self.data.n_entities, config.dim))
        for kg, lang in ((pair.kg1, lang1), (pair.kg2, lang2)):
            names = name_vectors(kg, language=lang, dim=config.dim, seed=config.seed)
            values = value_word_vectors(kg, language=lang, dim=config.dim, seed=config.seed)
            entities = sorted(kg.entities)
            matrix = 0.4 * vectors_to_matrix(names, entities, config.dim)
            matrix += 0.6 * vectors_to_matrix(values, entities, config.dim)
            rows = self.data.entity_ids(entities)
            features[rows] = matrix
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        return features / np.maximum(norms, 1e-12)
