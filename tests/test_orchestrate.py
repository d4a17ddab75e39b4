"""Unit tests for repro.orchestrate: job identity, seeds, halving,
progress files, the scheduler's crash handling and the shared config
fingerprint."""

import json
import os

import numpy as np
import pytest

from repro import faults
from repro.faults import ProgressFile
from repro.fingerprint import config_fingerprint, fingerprint
from repro.obs.ledger import record_sweep_id, sweep_where
from repro.orchestrate import (
    HalvingSchedule,
    JobSpec,
    derive_seed,
    expand_grid,
    load_spec,
    parse_spec,
    run_jobs,
    rung_budgets,
    select_survivors,
)

DATASET = {"family": "EN-FR", "size": 120, "method": "direct"}


# ---------------------------------------------------------------------------
# job identity and seeds
# ---------------------------------------------------------------------------
def test_job_id_is_deterministic_and_sensitive():
    a = JobSpec(approach="MTransE", dataset=DATASET, fold=1, epochs=4)
    b = JobSpec(approach="MTransE", dataset=DATASET, fold=1, epochs=4)
    assert a.job_id == b.job_id
    assert len(a.job_id) == 16
    assert a.job_id != JobSpec(approach="MTransE", dataset=DATASET,
                               fold=2, epochs=4).job_id
    assert a.job_id != JobSpec(approach="JAPE", dataset=DATASET,
                               fold=1, epochs=4).job_id


def test_lineage_ignores_budget_but_job_id_does_not():
    base = JobSpec(approach="MTransE", dataset=DATASET, fold=1,
                   candidate="lr=0.1", config={"lr": 0.1},
                   epochs=2, stage="tune", rung=0)
    promoted = base.at_budget(4, rung=1)
    final = base.at_budget(8, stage="final", rung=-1)
    assert base.lineage_id == promoted.lineage_id == final.lineage_id
    assert len({base.job_id, promoted.job_id, final.job_id}) == 3


def test_seed_is_pure_function_of_identity():
    a = JobSpec(approach="MTransE", dataset=DATASET, fold=1, epochs=2)
    assert a.seed() == a.at_budget(16).seed()  # budget never moves the seed
    others = [
        JobSpec(approach="MTransE", dataset=DATASET, fold=2, epochs=2),
        JobSpec(approach="JAPE", dataset=DATASET, fold=1, epochs=2),
        JobSpec(approach="MTransE", dataset=DATASET, fold=1, epochs=2,
                base_seed=7),
    ]
    seeds = {a.seed()} | {o.seed() for o in others}
    assert len(seeds) == 4  # distinct streams per fold/approach/base seed


def test_derive_seed_matches_seedsequence():
    lineage = fingerprint({"x": 1})
    expected = np.random.SeedSequence(
        entropy=3, spawn_key=(int(lineage, 16),)).generate_state(1)[0]
    assert derive_seed(3, lineage) == int(expected)


def test_job_config_validation():
    with pytest.raises(ValueError, match="unknown ApproachConfig"):
        JobSpec(approach="MTransE", dataset=DATASET,
                config={"learning_rate": 0.1})
    with pytest.raises(ValueError, match="seed"):
        JobSpec(approach="MTransE", dataset=DATASET, config={"seed": 3})
    with pytest.raises(ValueError, match="epochs"):
        JobSpec(approach="MTransE", dataset=DATASET, config={"epochs": 3})


# ---------------------------------------------------------------------------
# successive halving
# ---------------------------------------------------------------------------
def test_rung_budgets_geometric_below_max():
    assert rung_budgets(1, 16) == [1, 2, 4, 8]
    assert rung_budgets(3, 30, eta=3) == [3, 9, 27]
    assert rung_budgets(5, 4) == [2]  # degenerate: single short rung
    with pytest.raises(ValueError):
        rung_budgets(0, 8)
    with pytest.raises(ValueError):
        rung_budgets(1, 8, eta=1)


def test_select_survivors_breaks_ties_lexicographically():
    scores = {"b": 0.5, "a": 0.5, "c": 0.9, "d": 0.1}
    assert select_survivors(scores, 2) == ["c", "a"]
    assert select_survivors(scores, 1) == ["c"]
    with pytest.raises(ValueError):
        select_survivors(scores, 0)


def test_halving_prunes_at_least_half_before_full_budget():
    plan = HalvingSchedule(n_candidates=8, max_epochs=16)
    assert plan.budgets() == [1, 2, 4, 8]
    alive = plan.n_candidates
    after_first = plan.keep_after(0, alive)
    # the acceptance criterion: >= 50% of the grid dies at the first
    # rung, long before anything trains at max_epochs
    assert after_first <= alive // 2
    for rung in range(len(plan.budgets())):
        alive = plan.keep_after(rung, alive)
    assert alive == 1
    assert "winner" in plan.describe()


def test_expand_grid_is_sorted_and_stable():
    grid = {"lr": [0.1, 0.01], "dim": [8]}
    candidates = expand_grid(grid)
    assert [cand for cand, _ in candidates] == ["dim=8,lr=0.1",
                                                "dim=8,lr=0.01"]
    assert candidates[0][1] == {"dim": 8, "lr": 0.1}
    assert expand_grid({}) == [("", {})]


# ---------------------------------------------------------------------------
# sweep specs
# ---------------------------------------------------------------------------
def _raw_spec():
    return {
        "sweep": {"name": "unit", "n_folds": 2, "epochs": 4},
        "datasets": [dict(DATASET)],
        "approaches": [{"name": "MTransE", "config": {"dim": 8},
                        "grid": {"lr": [0.01, 0.1]}}],
    }


def test_parse_spec_and_sweep_id_stability():
    spec = parse_spec(_raw_spec())
    again = parse_spec(_raw_spec())
    assert spec.sweep_id == again.sweep_id
    assert spec.sweep_id.startswith("unit@")
    changed = _raw_spec()
    changed["approaches"][0]["grid"]["lr"].append(0.5)
    assert parse_spec(changed).sweep_id != spec.sweep_id


def test_parse_spec_rejects_bad_input():
    with pytest.raises(ValueError, match="datasets"):
        parse_spec({"approaches": [{"name": "MTransE"}]})
    with pytest.raises(ValueError, match="approaches"):
        parse_spec({"datasets": [dict(DATASET)]})
    bad = _raw_spec()
    bad["approaches"][0]["grid"] = {"epochs": [1, 2]}
    with pytest.raises(ValueError, match="halving budget"):
        parse_spec(bad)
    bad = _raw_spec()
    bad["sweep"]["n_folds"] = 9
    with pytest.raises(ValueError, match="n_folds"):
        parse_spec(bad)


def test_load_spec_toml_and_json_agree(tmp_path):
    raw = _raw_spec()
    toml_path = tmp_path / "s.toml"
    toml_path.write_text(
        '[sweep]\nname = "unit"\nn_folds = 2\nepochs = 4\n'
        '[[datasets]]\nfamily = "EN-FR"\nsize = 120\nmethod = "direct"\n'
        '[[approaches]]\nname = "MTransE"\n'
        'config = { dim = 8 }\ngrid = { lr = [0.01, 0.1] }\n',
        encoding="utf-8",
    )
    json_path = tmp_path / "s.json"
    json_path.write_text(json.dumps(raw), encoding="utf-8")
    assert load_spec(toml_path).sweep_id == load_spec(json_path).sweep_id
    with pytest.raises(ValueError, match="unsupported"):
        load_spec(tmp_path / "s.yaml")


# ---------------------------------------------------------------------------
# progress file
# ---------------------------------------------------------------------------
def _sweep_progress(workdir, config):
    return ProgressFile(workdir / "sweep_progress.json", config,
                        site="sweep.progress")


def test_sweep_progress_roundtrip_and_mismatch(tmp_path):
    progress = _sweep_progress(tmp_path, {"name": "a"})
    assert progress.load() == {}
    progress.record("job1", {"score": 0.5})
    progress.record("job2", {"score": 0.7})
    reopened = _sweep_progress(tmp_path, {"name": "a"})
    assert reopened.load() == {"job1": {"score": 0.5},
                               "job2": {"score": 0.7}}
    with pytest.raises(ValueError, match="fresh --workdir"):
        _sweep_progress(tmp_path, {"name": "b"}).load()


def test_sweep_progress_rejects_corrupt_file(tmp_path):
    progress = _sweep_progress(tmp_path, {"name": "a"})
    progress.record("job1", {"score": 0.5})
    progress.path.write_text("{not json", encoding="utf-8")
    with pytest.raises(RuntimeError, match="unreadable"):
        _sweep_progress(tmp_path, {"name": "a"}).load()


def test_sweep_progress_env_does_not_change_fingerprint(monkeypatch,
                                                        tmp_path):
    before = _sweep_progress(tmp_path, {"name": "a"}).fingerprint
    monkeypatch.setenv("REPRO_BENCH_TRACE", "1")
    assert _sweep_progress(tmp_path, {"name": "a"}).fingerprint == before


# ---------------------------------------------------------------------------
# shared fingerprint (satellite 1)
# ---------------------------------------------------------------------------
def test_config_fingerprint_env_flavours(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_TRACE", raising=False)
    clean = config_fingerprint({"a": 1})
    assert clean == config_fingerprint({"a": 1}, include_env=True)
    assert len(clean) == 16
    monkeypatch.setenv("REPRO_BENCH_TRACE", "1")
    assert config_fingerprint({"a": 1}) != clean  # ledger flavour moves
    # resume flavour must not: telemetry toggles never invalidate resume
    assert config_fingerprint({"a": 1}, include_env=False) == \
        config_fingerprint({"a": 1}, include_env=False)


def test_ledger_reexports_shared_fingerprint():
    from repro.obs import ledger

    assert ledger.config_fingerprint is config_fingerprint


def test_sweep_where_matches_id_and_name():
    record = {"config": {"sweep_id": "tables@1a2b3c4d"}}
    assert record_sweep_id(record) == "tables@1a2b3c4d"
    assert record_sweep_id({"config": {}}) is None
    assert sweep_where("tables@1a2b3c4d")(record)
    assert sweep_where("tables")(record)
    assert not sweep_where("tables@ffffffff")(record)
    assert not sweep_where("smoke")(record)
    assert not sweep_where("tables")({"config": {}})


# ---------------------------------------------------------------------------
# scheduler crash handling (fake runners, no training)
# ---------------------------------------------------------------------------
class _Task:
    def __init__(self, n):
        self.n = n

    @property
    def job_id(self):
        return f"task_{self.n}"


def _ok_runner(task):
    return {"n": task.n}


def _poison_runner(task):
    if task.n == 1:
        os._exit(137)
    return {"n": task.n}


def _flaky_runner(task):
    faults.fault_point("sweep.job.test")
    return {"n": task.n}


def test_run_jobs_serial_and_restore():
    specs = [_Task(n) for n in range(4)]
    results, stats = run_jobs(specs, jobs=1, runner=_ok_runner,
                              already={"task_2": {"n": "restored"}})
    assert results["task_2"] == {"n": "restored"}
    assert sorted(stats.restored) == ["task_2"]
    assert len(stats.executed) == 3 and not stats.failed


def test_run_jobs_parallel_matches_serial():
    specs = [_Task(n) for n in range(6)]
    serial, _ = run_jobs(specs, jobs=1, runner=_ok_runner)
    parallel, stats = run_jobs(specs, jobs=3, runner=_ok_runner)
    assert serial == parallel
    assert len(stats.executed) == 6
    assert not stats.failed and not stats.requeued


def test_run_jobs_fails_poison_job_but_completes_rest():
    specs = [_Task(n) for n in range(3)]
    results, stats = run_jobs(specs, jobs=2, runner=_poison_runner,
                              max_attempts=2)
    assert results["task_0"] == {"n": 0}
    assert results["task_2"] == {"n": 2}
    assert "task_1" in stats.failed
    assert "died" in stats.failed["task_1"]
    assert stats.worker_deaths >= 2  # one per charged attempt


def test_run_jobs_reports_worker_exceptions():
    def boom(task):
        raise KeyError(f"bad {task.n}")

    results, stats = run_jobs([_Task(0)], jobs=1, runner=boom)
    assert results == {}
    assert "KeyError" in stats.failed["task_0"]


def test_run_jobs_counts_metrics(tmp_path):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    run_jobs([_Task(n) for n in range(3)], jobs=1, runner=_ok_runner,
             label="unit-sweep", registry=registry)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["sweep.jobs_completed{sweep=unit-sweep}"] == 3
