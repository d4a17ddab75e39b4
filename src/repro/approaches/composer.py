"""Declarative composition of new alignment approaches (Figure 4).

The paper's library exposes its embedding module, alignment module and
interaction modes as interchangeable components so that "users can
freely call and combine different techniques ... to develop new
approaches".  :func:`compose_approach` is that facility: pick one option
per axis and get a ready-to-train approach class.

Axes and options
----------------
* ``relation_model`` — any name from
  :data:`repro.embedding.RELATION_MODELS` (``transe``, ``transh``,
  ``rotate``, ``conve``, ...);
* ``combination`` — ``sharing`` (seed ids merged), ``swapping`` (seed
  triples duplicated), ``calibration`` (seed-distance loss);
* ``loss`` — ``marginal``, ``logistic`` or ``limited``;
* ``negative_sampling`` — ``uniform`` or ``truncated`` (BootEA-style);
* ``attribute_channel`` — ``None``, ``"word"`` (IDF-weighted word
  vectors), ``"char"`` (character-level, AttrE-style), ``"name"``
  (label-like literals) or ``"correlation"`` (AC2Vec);
* ``self_training`` — augment the seeds from mutual nearest neighbors
  every few epochs (BootEA-style editing included).

Example
-------
>>> Approach = compose_approach(relation_model="transh",
...                             combination="swapping",
...                             negative_sampling="truncated",
...                             attribute_channel="word")
>>> approach = Approach(ApproachConfig(dim=32, epochs=40))
"""

from __future__ import annotations

from ..embedding import RELATION_MODELS, TruncatedSampler
from .attr_family import JAPE, LiteralBlendApproach
from .base import ApproachConfig, ApproachInfo
from .literals import char_vectors, name_vectors, value_word_vectors

__all__ = ["compose_approach", "COMBINATIONS", "ATTRIBUTE_CHANNELS"]

COMBINATIONS = ("sharing", "swapping", "calibration")
ATTRIBUTE_CHANNELS = (None, "word", "char", "name", "correlation")
LOSSES = ("marginal", "logistic", "limited")
NEGATIVE_SAMPLERS = ("uniform", "truncated")


def compose_approach(
    relation_model: str = "transe",
    combination: str = "sharing",
    loss: str = "marginal",
    negative_sampling: str = "uniform",
    attribute_channel: str | None = None,
    attribute_weight: float = 0.4,
    self_training: bool = False,
    self_training_every: int = 10,
    metric: str = "cosine",
    name: str | None = None,
):
    """Build an approach class from component choices.

    Returns a class (instantiate it with an
    :class:`~repro.approaches.base.ApproachConfig`); invalid component
    names raise ``ValueError`` immediately.
    """
    if relation_model not in RELATION_MODELS:
        raise ValueError(
            f"unknown relation model {relation_model!r}; "
            f"choose from {sorted(RELATION_MODELS)}"
        )
    if combination not in COMBINATIONS:
        raise ValueError(f"combination must be one of {COMBINATIONS}")
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}")
    if negative_sampling not in NEGATIVE_SAMPLERS:
        raise ValueError(f"negative_sampling must be one of {NEGATIVE_SAMPLERS}")
    if attribute_channel not in ATTRIBUTE_CHANNELS:
        raise ValueError(f"attribute_channel must be one of {ATTRIBUTE_CHANNELS}")

    display_name = name or "+".join(
        filter(None, [
            relation_model, combination,
            attribute_channel and f"attr:{attribute_channel}",
            "selftrain" if self_training else None,
        ])
    )
    info = ApproachInfo(
        name=display_name,
        relation_embedding="Triple",
        attribute_embedding=(
            "-" if attribute_channel is None
            else ("Att." if attribute_channel == "correlation" else "Literal")
        ),
        metric=metric,
        combination=combination.capitalize(),
        learning="Semi-supervised" if self_training else "Supervised",
        uses_attributes=attribute_channel is not None,
    )

    channel = attribute_channel
    weight = attribute_weight
    train_every = self_training_every

    class ComposedApproach(LiteralBlendApproach):
        """An approach assembled by :func:`compose_approach`."""

        merge_seeds = combination == "sharing"
        swapping = combination == "swapping"
        calibration_weight = 1.0 if combination == "calibration" else 0.0
        loss_name = loss
        structure_weight = 1.0 - (weight if channel else 0.0)

        def _setup(self, pair, split, rng):
            super()._setup(pair, split, rng)
            self.model = RELATION_MODELS[relation_model](
                self.data.n_entities, self.data.n_relations,
                self.config.dim, rng,
            )
            if negative_sampling == "truncated":
                self.sampler = TruncatedSampler(self.data.n_entities)
            else:
                self.sampler = None

        def _negatives(self, batch, rng):
            if self.sampler is not None:
                return self.sampler.corrupt(batch, self.config.n_negatives, rng)
            return super()._negatives(batch, rng)

        def _build_channels(self, pair, rng) -> None:
            if channel is None:
                return
            dim, seed = self.config.dim, self.config.seed
            lang1 = pair.metadata.get("lang1", "en")
            lang2 = pair.metadata.get("lang2", "en")
            if channel == "word":
                vecs1 = value_word_vectors(pair.kg1, lang1, dim=dim, seed=seed)
                vecs2 = value_word_vectors(pair.kg2, lang2, dim=dim, seed=seed)
            elif channel == "char":
                vecs1 = char_vectors(pair.kg1, dim=dim, seed=seed)
                vecs2 = char_vectors(pair.kg2, dim=dim, seed=seed)
            elif channel == "name":
                vecs1 = name_vectors(pair.kg1, lang1, dim=dim, seed=seed)
                vecs2 = name_vectors(pair.kg2, lang2, dim=dim, seed=seed)
            else:  # correlation: reuse JAPE's AC2Vec channel construction
                JAPE._build_channels(self, pair, rng)
                self.channels = [(weight, c[1], c[2]) for c in self.channels]
                return
            self.channels = [(weight, vecs1, vecs2)]

        def _after_epoch(self, epoch, rng):
            if self.sampler is not None and epoch % 5 == 0:
                self.sampler.refresh(self.model.entity_embeddings())
            if self_training and train_every and epoch % train_every == 0:
                proposals = self._propose_pairs(0.7, mutual=True)
                for a, b in proposals:
                    self.augmented[self.data.entity_id(a)] = self.data.entity_id(b)
                if self.swapping:
                    self._swapped = self._make_swapped()
                self._record_augmentation(epoch // train_every, proposals)

    ComposedApproach.info = info
    ComposedApproach.__name__ = f"Composed_{display_name.replace('+', '_').replace(':', '_')}"
    return ComposedApproach
