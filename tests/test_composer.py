"""Tests for the declarative approach composer (Figure 4 composability)."""

import numpy as np
import pytest

from repro.approaches import (
    ATTRIBUTE_CHANNELS,
    COMBINATIONS,
    ApproachConfig,
    compose_approach,
)


@pytest.fixture
def tiny_config():
    return ApproachConfig(dim=16, epochs=8, lr=0.05, valid_every=4,
                          n_negatives=3)


def test_compose_validates_component_names():
    with pytest.raises(ValueError):
        compose_approach(relation_model="fancynet")
    with pytest.raises(ValueError):
        compose_approach(combination="telepathy")
    with pytest.raises(ValueError):
        compose_approach(loss="perceptual")
    with pytest.raises(ValueError):
        compose_approach(negative_sampling="adversarial")
    with pytest.raises(ValueError):
        compose_approach(attribute_channel="emoji")


def test_compose_default_name_encodes_choices():
    cls = compose_approach(relation_model="rotate", combination="calibration",
                           attribute_channel="char", self_training=True)
    assert cls.info.name == "rotate+calibration+attr:char+selftrain"
    assert cls.info.learning == "Semi-supervised"
    assert cls.info.combination == "Calibration"


def test_compose_custom_name():
    cls = compose_approach(name="MySystem")
    assert cls.info.name == "MySystem"


@pytest.mark.parametrize("combination", COMBINATIONS)
def test_composed_combination_flags(combination):
    cls = compose_approach(combination=combination)
    assert cls.merge_seeds == (combination == "sharing")
    assert cls.swapping == (combination == "swapping")
    assert (cls.calibration_weight > 0) == (combination == "calibration")


@pytest.mark.parametrize("channel", [c for c in ATTRIBUTE_CHANNELS if c])
def test_composed_channels_build(channel, enfr_pair, enfr_split, tiny_config):
    cls = compose_approach(attribute_channel=channel)
    approach = cls(tiny_config)
    approach.fit(enfr_pair, enfr_split)
    assert approach.channels, f"channel {channel} did not build"
    metrics = approach.evaluate(enfr_split.test, hits_at=(1,))
    assert np.isfinite(metrics.mr)


def test_composed_truncated_sampler_used(enfr_pair, enfr_split, tiny_config):
    cls = compose_approach(negative_sampling="truncated")
    approach = cls(tiny_config)
    approach.fit(enfr_pair, enfr_split)
    assert approach.sampler is not None
    assert approach.sampler.ready  # refreshed during training


def test_composed_self_training_records(enfr_pair, enfr_split, tiny_config):
    cls = compose_approach(self_training=True, self_training_every=4)
    approach = cls(tiny_config)
    approach.fit(enfr_pair, enfr_split)
    assert approach.log.augmentation


def test_composed_model_swap(enfr_pair, enfr_split, tiny_config):
    cls = compose_approach(relation_model="distmult", loss="logistic")
    approach = cls(tiny_config)
    approach.fit(enfr_pair, enfr_split)
    assert type(approach.model).__name__ == "DistMult"


def test_composed_beats_random(enfr_pair, enfr_split, tiny_config):
    cls = compose_approach(relation_model="transe", combination="sharing",
                           attribute_channel="word")
    approach = cls(tiny_config)
    approach.fit(enfr_pair, enfr_split)
    hits1 = approach.evaluate(enfr_split.test, hits_at=(1,)).hits_at(1)
    assert hits1 > 3.0 / len(enfr_split.test)

def test_composed_lazy_normalize_renormalizes_touched_rows():
    """The composed model is the one the optimizer tracks, so lazy
    normalization finds its touched rows and projects them back."""
    from repro.datagen import smoke_pair

    pair = smoke_pair()
    split = pair.five_fold_splits(seed=0)[0]
    approach = compose_approach()(
        ApproachConfig(dim=16, epochs=2, valid_every=0, lazy_normalize=True))
    approach.fit(pair, split)
    touched = np.unique(approach.data.triples[:, [0, 2]])
    norms = np.linalg.norm(approach.model.entity_embeddings()[touched], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
