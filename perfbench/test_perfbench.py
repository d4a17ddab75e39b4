"""The benchmark's own tests: smoke runs of every workload, traced and
untraced, plus the span arithmetic behind the per-layer table.

Run from the repository root::

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import span_coverage, span_layers  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert metric["better"] in ("lower", "higher")
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["obs.trace_overhead"] > 0
        assert 0.9 <= values["obs.span_coverage"] <= 1.0
        assert values["serve.degraded"] == values["serve.abstained"] == 0


def test_same_seed_same_outputs():
    outputs = []
    for _ in range(2):
        proc = _run("--workload", WORKLOADS[0], "--seed", "5",
                    "--seconds", "0.2", "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr[-3000:]
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        outputs.append({k: metrics[k]["value"] for k in
                        ("hits_at_1", "mrr", "recall_at_10",
                         "serve_hits_at_1")})
    assert outputs[0] == outputs[1]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_recipe_matches_benchmark_pair(tmp_path):
    from repro import benchmark_pair
    from workloads import WORKLOADS as SPECS, set_up, smoke_workload

    workload = smoke_workload(SPECS[WORKLOADS[0]])
    prep = set_up(workload, seed=2, store_dir=tmp_path / "store")
    library = benchmark_pair("EN-FR", size=workload.size, seed=2)
    assert prep.pair.alignment == library.alignment
    assert prep.pair.kg1.relation_triples == library.kg1.relation_triples


def _tracer():
    from repro.obs import Tracer

    ticks = iter(range(1000))
    return Tracer(clock=lambda: float(next(ticks)), cpu_clock=lambda: 0.0,
                  rss=lambda: 0)


def test_span_layers_attribute_time_to_layers_and_approaches():
    tracer = _tracer()
    with tracer.span("cycle"):
        with tracer.span("approaches.fit", approach="MTransE"):
            with tracer.span("epoch"):
                with tracer.span("step"):
                    pass
            with tracer.span("checkpoint"):
                pass
        with tracer.span("alignment.similarity", metric="manhattan", mb=3.0):
            pass
    layers = span_layers(tracer.events)
    assert layers["autodiff.step_s"] == 1.0
    assert layers["approaches.MTransE.epoch_s_p50"] == 3.0
    assert layers["approaches.MTransE.fit_s"] == 7.0
    assert layers["approaches.checkpoints"] == 1
    assert layers["alignment.similarity_s.manhattan"] == 1.0
    assert layers["alignment.similarity_mb"] == 3.0
    assert layers["approaches.BootEA.fit_s"] == 0.0


def test_span_coverage_counts_gaps_between_children():
    tracer = _tracer()
    with tracer.span("cycle"):          # 1 .. 10 (tick 0 is the epoch)
        with tracer.span("a"):          # 2 .. 3
            pass
        tracer.event("gap", "x")        # 4: uncovered
        tracer.event("gap", "x")        # 5: uncovered
        with tracer.span("b"):          # 6 .. 9
            with tracer.span("c"):      # 7 .. 8, inside b
                pass
    assert span_coverage(tracer.events) == pytest.approx(4 / 9)
