"""Tests for embedding snapshots (save/load trained embeddings) and for
training state round-tripping through ``TrainingCheckpointer``."""

import numpy as np
import pytest

from repro.approaches import get_approach
from repro.pipeline import EmbeddingSnapshot, load_snapshot, save_snapshot


@pytest.fixture(scope="module")
def snapshot_setup():
    from repro.approaches import ApproachConfig
    from repro.datagen import benchmark_pair

    pair = benchmark_pair("EN-FR", size=150, method="direct", seed=0)
    split = pair.split(seed=0)
    approach = get_approach("BootEA", ApproachConfig(dim=16, epochs=10,
                                                     valid_every=5))
    approach.fit(pair, split)
    snapshot = EmbeddingSnapshot.from_approach(approach, split.test)
    return approach, split, snapshot


def test_snapshot_matches_approach_metrics(snapshot_setup):
    approach, split, snapshot = snapshot_setup
    original = approach.evaluate(split.test, hits_at=(1, 5))
    frozen = snapshot.evaluate(split.test, hits_at=(1, 5))
    assert frozen.hits_at(1) == pytest.approx(original.hits_at(1))
    assert frozen.mrr == pytest.approx(original.mrr)


def test_snapshot_predict_matches(snapshot_setup):
    approach, split, snapshot = snapshot_setup
    assert snapshot.predict(split.test) == approach.predict(split.test)


def test_snapshot_roundtrip(snapshot_setup, tmp_path):
    _, split, snapshot = snapshot_setup
    path = tmp_path / "emb.npz"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    assert loaded.name == snapshot.name
    assert loaded.metric == snapshot.metric
    np.testing.assert_allclose(loaded.source_matrix, snapshot.source_matrix)
    before = snapshot.evaluate(split.test, hits_at=(1,)).hits_at(1)
    after = loaded.evaluate(split.test, hits_at=(1,)).hits_at(1)
    assert before == pytest.approx(after)


def test_snapshot_csls_and_strategies(snapshot_setup):
    _, split, snapshot = snapshot_setup
    plain = snapshot.evaluate(split.test, hits_at=(1,))
    scaled = snapshot.evaluate(split.test, hits_at=(1,), csls_k=5)
    assert np.isfinite(scaled.mr)
    sm = snapshot.predict(split.test, strategy="stable_marriage")
    rights = [b for _, b in sm]
    assert len(rights) == len(set(rights))
    del plain


def test_snapshot_validates_shapes():
    with pytest.raises(ValueError):
        EmbeddingSnapshot(["a"], np.zeros((2, 3)), ["b"], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        EmbeddingSnapshot(["a"], np.zeros((1, 3)), ["b", "c"], np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# training-state checkpoints (parameters + optimizer state)
# ---------------------------------------------------------------------------
def _train_steps(parameters, optimizer, steps, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        optimizer.zero_grad()
        for p in parameters:
            p.grad = rng.normal(size=p.shape)
        optimizer.step()


def test_training_state_roundtrip_resumes_exactly(tmp_path):
    from repro.approaches import TrainingCheckpointer
    from repro.autodiff import Adam, Parameter

    rng = np.random.default_rng(5)
    params = [Parameter(rng.normal(size=(6, 4)), name="entities"),
              Parameter(rng.normal(size=(3, 4)), name="relations")]
    optimizer = Adam(params, lr=0.05)
    _train_steps(params, optimizer, steps=4, seed=1)

    TrainingCheckpointer(tmp_path).save(epoch=1, parameters=params,
                                        optimizer=optimizer)
    _train_steps(params, optimizer, steps=3, seed=2)
    reference = [p.data.copy() for p in params]

    fresh = [Parameter(np.zeros((6, 4)), name="entities"),
             Parameter(np.zeros((3, 4)), name="relations")]
    fresh_opt = Adam(fresh, lr=0.9)  # lr deliberately wrong; restored from file
    TrainingCheckpointer(tmp_path).restore(fresh, optimizer=fresh_opt)
    assert fresh_opt.lr == pytest.approx(0.05)
    _train_steps(fresh, fresh_opt, steps=3, seed=2)

    for restored, expected in zip(fresh, reference):
        np.testing.assert_allclose(restored.data, expected, atol=1e-12)


def test_training_state_roundtrips_momentum_underscore_keys(tmp_path):
    """SGD momentum state includes a ``last_step`` key whose underscore
    must survive the checkpoint's ``opt_{index}_{key}`` npz encoding."""
    from repro.approaches import TrainingCheckpointer
    from repro.autodiff import SGD, Parameter

    params = [Parameter(np.ones((4, 2)))]
    optimizer = SGD(params, lr=0.1, momentum=0.9)
    _train_steps(params, optimizer, steps=2, seed=3)

    TrainingCheckpointer(tmp_path).save(epoch=1, parameters=params,
                                        optimizer=optimizer)

    fresh = [Parameter(np.ones((4, 2)))]
    fresh_opt = SGD(fresh, lr=0.1, momentum=0.9)
    TrainingCheckpointer(tmp_path).restore(fresh, optimizer=fresh_opt)
    restored = fresh_opt.state_dict()["state"][0]
    original = optimizer.state_dict()["state"][0]
    assert "last_step" in original
    assert set(restored) == set(original)
    for key in original:
        np.testing.assert_allclose(np.asarray(restored[key]),
                                   np.asarray(original[key]), atol=1e-12)


def test_training_state_validates_parameter_count_and_shape(tmp_path):
    from repro.approaches import CheckpointCorruption, TrainingCheckpointer
    from repro.autodiff import Parameter

    params = [Parameter(np.ones((3, 2)))]
    checkpointer = TrainingCheckpointer(tmp_path)
    checkpointer.save(epoch=1, parameters=params)
    with pytest.raises(CheckpointCorruption, match="parameters"):
        checkpointer.restore([])
    with pytest.raises(CheckpointCorruption, match="shape mismatch"):
        checkpointer.restore([Parameter(np.ones((2, 2)))])


def test_training_state_without_optimizer(tmp_path):
    from repro.approaches import TrainingCheckpointer
    from repro.autodiff import Parameter

    params = [Parameter(np.arange(6.0).reshape(3, 2))]
    TrainingCheckpointer(tmp_path).save(epoch=1, parameters=params)
    fresh = [Parameter(np.zeros((3, 2)))]
    TrainingCheckpointer(tmp_path).restore(fresh)
    np.testing.assert_allclose(fresh[0].data, params[0].data)
