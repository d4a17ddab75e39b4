"""The one base-owned training loop, checked across every approach.

* every approach counts its optimizer steps and emits one ``step`` span
  per step, parented by ``epoch``;
* per-approach epoch losses and step counts are pinned, so an edit to
  the shared loop that changes RNG interleaving, batching or loss
  accounting for any family fails here;
* UnsupervisedProcrustes checkpoints and resumes bit for bit;
* the calibration loss's cached seed/augmented id array follows every
  change the epoch-end hook and a resume make to ``augmented``.
"""

import numpy as np
import pytest

from repro import faults, obs
from repro.approaches import APPROACHES, AliNet, ApproachConfig, BootEA
from repro.approaches.unsupervised import UnsupervisedProcrustes
from repro.datagen import smoke_pair
from repro.faults import InjectedFault

CLASSES = {**APPROACHES, "AliNet": AliNet,
           "UnsupProcrustes": UnsupervisedProcrustes}

# (epoch losses, steps_run) after 2 epochs at dim 16 on smoke_pair().
# IPTransE and UnsupProcrustes report the plain mean over all of an
# epoch's steps; RSN4EA and UnsupProcrustes count their steps.
PINNED = {
    "MTransE": ([2.8545282620702706, 1.980468150416425], 10),
    "IPTransE": ([1.3885861532129509, 1.300218066432543], 12),
    "JAPE": ([1.4945372386995683, 1.4354201970901646], 10),
    "KDCoE": ([1.7067969549496702, 1.6373446356921793], 10),
    "BootEA": ([3.014863682720877, 2.3004689430582643], 12),
    "GCNAlign": ([2.84591653699984, 1.2261905118986902], 20),
    "AttrE": ([1.8640865390074979, 1.7493810478490723], 10),
    "IMUSE": ([1.4816049072479922, 1.4227940015580507], 10),
    "SEA": ([4.121571220012565, 2.6776570305357748], 10),
    "RSN4EA": ([2.317815679000319, 1.627708690576716], 16),
    "MultiKE": ([2.7908528005164475, 2.092734867523552], 12),
    "RDGCN": ([0.22192853840746224, 0.19681613794661654], 8),
    "AliNet": ([1.3812779307649152, 0.40988162563549296], 20),
    "UnsupProcrustes": ([1.4854025437224163, 1.4541919609830993], 12),
}


@pytest.fixture(scope="module")
def smoke():
    pair = smoke_pair()
    return pair, pair.five_fold_splits(seed=0)[0]


@pytest.fixture(scope="module", params=sorted(CLASSES))
def traced_fit(request, smoke):
    """A 2-epoch fit of one approach with every span captured."""
    pair, split = smoke
    approach = CLASSES[request.param](
        ApproachConfig(dim=16, epochs=2, seed=0, valid_every=0))
    with obs.capture() as cap:
        log = approach.fit(pair, split)
    return request.param, log, cap.events


def test_every_approach_counts_steps_inside_epochs(traced_fit):
    _, log, events = traced_fit
    by_id = {event["id"]: event for event in events}
    steps = [event for event in events if event["name"] == "step"]
    assert log.steps_run > 0
    assert log.steps_run == len(steps)
    for leaf in ("neg_sampling", "forward", "backward"):
        assert sum(e["name"] == leaf for e in events) == len(steps)
    for step in steps:
        assert by_id[step["parent_id"]]["name"] == "epoch"


def test_losses_and_steps_are_pinned(traced_fit):
    name, log, _ = traced_fit
    losses, steps_run = PINNED[name]
    np.testing.assert_allclose(log.losses, losses, rtol=1e-9)
    assert log.steps_run == steps_run


def test_procrustes_resume_is_bit_identical(smoke, tmp_path):
    pair, split = smoke

    def fit(**options):
        approach = UnsupervisedProcrustes(
            ApproachConfig(dim=16, epochs=4, seed=0, valid_every=0))
        log = approach.fit(pair, split, **options)
        return approach, log

    reference, _ = fit()
    # the third epoch.end raises: the epoch-2 checkpoint is the last one
    with faults.inject("epoch.end:nth=3:mode=raise"):
        with pytest.raises(InjectedFault):
            fit(checkpoint_dir=tmp_path, checkpoint_every=1)
    resumed, log = fit(checkpoint_dir=tmp_path, resume_from=True)

    assert log.status == "resumed"
    assert log.resumed_from_epoch == 2
    assert log.epochs_run == 4
    for got, expected in zip(resumed._parameters(), reference._parameters()):
        np.testing.assert_array_equal(got.data, expected.data)
    np.testing.assert_array_equal(resumed.rotation, reference.rotation)


def _calibration_reference(approach):
    """The calibration loss as written before its id array was cached."""
    pairs = ([(int(a), int(b)) for a, b in approach.seeds]
             + list(approach.augmented.items()))
    ids = np.array(pairs, dtype=np.int64)
    e1 = approach.model.entities(ids[:, 0])
    e2 = approach.model.entities(ids[:, 1])
    return approach.calibration_weight * (e1 - e2).square().sum(axis=1).mean()


def test_calibration_pairs_follow_the_epoch_hook_and_resume(smoke):
    pair, split = smoke
    approach = BootEA(ApproachConfig(dim=16, epochs=1, seed=0))
    approach.fit(pair, split)

    def check():
        assert (approach._calibration_loss().item()
                == _calibration_reference(approach).item())

    check()
    approach._after_epoch = lambda epoch, rng: approach.augmented.update(
        {0: 1, 2: 3})
    approach._end_epoch(2, np.random.default_rng(0))
    assert approach.augmented == {0: 1, 2: 3}
    check()
    approach._load_extra_state({"augmented": [[4, 5]]})
    check()
