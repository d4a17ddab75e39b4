"""Distributed tracing + live telemetry for parallel sweeps.

Covers the observability stack of docs/observability.md ("Distributed
tracing & live dashboards"): a ``jobs=2`` sweep must emit per-worker
heartbeat JSONL, stitch one Chrome trace under a single ``trace_id``
whose job spans cover ≥90% of every worker's parent-measured job wall
time, surface a kill -9'd worker as a dead row in the dashboard state,
agree with ``sweep_progress.json`` through ``obs-top --once --json``,
and — above all — leave the computed metrics bit-identical to a serial
run (telemetry observes; it never perturbs seeding or scheduling).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.faults import read_jsonl
from repro.obs import (MetricsRegistry, StallDetector, format_top,
                       label_snapshot, peak_rss_bytes,
                       peak_rss_children_bytes, peak_rss_tree_bytes,
                       read_state, set_registry)
from repro.obs.report import load_events_merged
from repro.orchestrate import (SweepTelemetry, parse_spec, payload_metrics,
                               run_sweep, stitch_events)

RAW_SPEC = {
    "sweep": {"name": "tele", "n_folds": 2, "seed": 0, "epochs": 8},
    "datasets": [{"family": "EN-FR", "size": 150, "method": "direct"}],
    "approaches": [
        {"name": "MTransE", "config": {"dim": 16, "valid_every": 0}},
    ],
}

# Enough jobs that every worker generation picks up a second one — the
# ``sweep.job:nth=2:mode=kill`` fault needs that to fire.
CRASHY_SPEC = {
    "sweep": {"name": "tele-crash", "n_folds": 2, "seed": 0, "epochs": 4},
    "halving": {"min_epochs": 1, "eta": 2},
    "datasets": [{"family": "EN-FR", "size": 120, "method": "direct"}],
    "approaches": [
        {"name": "MTransE", "config": {"dim": 8, "valid_every": 2},
         "grid": {"lr": [0.01, 0.05, 0.2, 1.0]}},
    ],
}


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.install(None)


@pytest.fixture(scope="module")
def sweep2(tmp_path_factory):
    """One jobs=2 telemetered sweep shared by the read-only assertions."""
    workdir = tmp_path_factory.mktemp("sweep2")
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        result = run_sweep(parse_spec(RAW_SPEC), jobs=2, workdir=workdir,
                           record=False, heartbeat_interval=0.05)
    finally:
        set_registry(previous)
    assert not result.stats.failed
    return {"workdir": workdir, "telemetry": workdir / "telemetry",
            "result": result, "snapshot": registry.snapshot()}


def _parent_events(telemetry_dir: Path) -> list[dict]:
    lines = (telemetry_dir / "parent.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# heartbeats
# ---------------------------------------------------------------------------
def test_each_worker_writes_heartbeat_jsonl(sweep2):
    tdir = sweep2["telemetry"]
    buses = sorted(p for p in tdir.glob("worker_*.jsonl")
                   if not p.name.endswith(".trace.jsonl"))
    assert len(buses) == 2
    for index, bus in enumerate(buses):
        beats = [json.loads(line) for line in bus.read_text().splitlines()]
        beats = [b for b in beats if b.get("type") == "heartbeat"]
        assert beats, f"{bus} carries no heartbeats"
        for beat in beats:
            assert beat["worker"] == index
            assert beat["pid"] > 0
            assert beat["ts_unix"] > 0
            assert beat["rss_bytes"] > 0
        # the heartbeat loop reported at least one real training stage
        assert any(b.get("stage") == "train" for b in beats)


def test_summary_has_worker_rss_coverage_and_zero_stalls(sweep2):
    summary = json.loads(
        (sweep2["telemetry"] / "summary.json").read_text())
    assert summary["workers_stalled"] == 0
    assert summary["error"] is None
    assert set(summary["workers"]) == {"0", "1"}
    for info in summary["workers"].values():
        assert info["peak_rss_bytes"] > 0
        assert info["heartbeats"] >= 1
        assert 0.0 < info["heartbeat_coverage"] <= 1.0
    # the parent reports max(self, reaped children)
    assert summary["parent_peak_rss_bytes"] >= max(
        info["peak_rss_bytes"] for info in summary["workers"].values())
    # and the same numbers flow into the sweep's ledger scalars
    scalars_keys = {"workers_stalled", "peak_rss_bytes",
                    "worker0_peak_rss_bytes", "worker1_peak_rss_bytes",
                    "heartbeat_coverage_min"}
    telemetry = SweepTelemetry(sweep2["workdir"], sweep_id="x")
    telemetry.summary = summary
    scalars = telemetry.scalars()
    assert scalars_keys <= set(scalars)
    assert scalars["workers_stalled"] == 0.0


# ---------------------------------------------------------------------------
# the stitched distributed trace
# ---------------------------------------------------------------------------
def test_one_chrome_trace_with_a_row_per_process(sweep2):
    trace = json.loads((sweep2["telemetry"] / "trace.json").read_text())
    events = trace["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    meta = {e["pid"]: e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"}
    pids = {e["pid"] for e in spans}
    assert len(pids) == 3  # parent + 2 workers
    assert sorted(meta[p] for p in pids) == \
        ["sweep parent", "worker 0", "worker 1"]
    names = {e["name"] for e in spans}
    assert {"sweep.root", "sweep", "sweep.schedule", "job", "fit"} <= names


def test_worker_spans_share_trace_id_and_parent_under_root(sweep2):
    tdir = sweep2["telemetry"]
    meta = json.loads((tdir / "meta.json").read_text())
    worker_files = sorted(tdir.glob("worker_*.trace.jsonl"))
    assert len(worker_files) == 2
    for path in worker_files:
        for line in path.read_text().splitlines():
            event = json.loads(line)
            assert event["trace_id"] == meta["trace_id"]

    events, process_names, skipped = stitch_events(
        [], meta["parent_pid"], meta["started_unix"],
        meta["root_span_id"], meta["trace_id"], worker_files)
    assert skipped == 0
    spans = [e for e in events if e.get("type") == "span"]
    assert len({e["id"] for e in spans}) == len(spans), "id collision"
    roots = [e for e in spans if str(e["parent_id"]).startswith("p")]
    assert roots, "no worker span was re-parented under the sweep root"
    for root in roots:
        assert root["parent_id"] == f"p{meta['root_span_id']}"
        assert root["name"] == "job"


def test_job_spans_cover_90pct_of_parent_measured_wall(sweep2):
    """Per worker: Σ(job span dur) ≥ 0.9 × Σ(parent running→done wall)."""
    tdir = sweep2["telemetry"]
    running, wall = {}, {}
    for event in _parent_events(tdir):
        if event.get("type") != "job_state":
            continue
        if event["state"] == "running":
            running[event["job_id"]] = (event["worker"], event["ts_unix"])
        elif event["state"] == "done":
            worker, started = running[event["job_id"]]
            wall[worker] = wall.get(worker, 0.0) + \
                (event["ts_unix"] - started)
    spans = {}
    for path in tdir.glob("worker_*.trace.jsonl"):
        for line in path.read_text().splitlines():
            event = json.loads(line)
            if event.get("type") == "span" and event["name"] == "job":
                worker = event["worker"]
                spans[worker] = spans.get(worker, 0.0) + event["dur_s"]
    assert set(wall) == {0, 1}
    for worker, total in wall.items():
        assert total > 0
        ratio = spans.get(worker, 0.0) / total
        assert ratio >= 0.9, (
            f"worker {worker} job spans cover only {ratio:.1%} of its "
            f"parent-measured job wall time")


def test_merged_report_reader_handles_multiprocess_files(sweep2, tmp_path):
    tdir = sweep2["telemetry"]
    files = sorted(tdir.glob("worker_*.trace.jsonl"))
    events, skipped = load_events_merged(files)
    assert skipped == 0
    spans = [e for e in events if e.get("type") == "span"]
    # per-pid namespacing: no id collides across worker files
    assert len({e["id"] for e in spans}) == len(spans)
    # ordered by (trace_id, ts) within the single sweep trace
    stamps = [e.get("ts_unix", e.get("ts", 0.0)) for e in events]
    assert stamps == sorted(stamps)
    # a torn trailing line is skipped, not fatal
    torn = tmp_path / "torn.jsonl"
    torn.write_text('{"type": "span", "name": "x", "id": 1, '
                    '"parent_id": null, "ts": 0, "dur_s": 1}\n'
                    '{"type": "span", "broken...')
    merged, skipped = load_events_merged([files[0], torn])
    assert skipped == 1
    assert any(e.get("name") == "x" for e in merged)


# ---------------------------------------------------------------------------
# worker-labelled metrics
# ---------------------------------------------------------------------------
def test_merged_snapshot_carries_worker_labels(sweep2):
    counters = sweep2["snapshot"]["counters"]
    sweep_id = sweep2["result"].sweep_id
    # the unlabelled aggregate survives...
    assert counters[f"sweep.jobs_completed{{sweep={sweep_id}}}"] == 2
    # ...and per-worker series exist alongside it
    per_worker = [key for key in counters
                  if key.startswith("sweep.jobs_completed{")
                  and "worker=" in key]
    assert len(per_worker) == 2
    assert sum(counters[key] for key in per_worker) == 2
    heartbeat_keys = [key for key in counters
                      if key.startswith("sweep.heartbeats{")]
    assert heartbeat_keys and all("worker=" in key
                                  for key in heartbeat_keys)


def test_label_snapshot_adds_labels_without_clobbering():
    registry = MetricsRegistry()
    registry.counter("a", x="1").inc(3)
    registry.counter("b").inc()
    out = label_snapshot(registry.snapshot(), worker="7")
    assert out["counters"]["a{worker=7,x=1}"] == 3
    assert out["counters"]["b{worker=7}"] == 1


# ---------------------------------------------------------------------------
# stall detection
# ---------------------------------------------------------------------------
def test_stall_detector_fake_clock():
    now = [0.0]
    detector = StallDetector(timeout=5.0, clock=lambda: now[0])
    detector.beat("w0")
    detector.beat("w1")
    assert detector.check() == ([], [])
    now[0] = 4.0
    assert detector.check() == ([], [])
    now[0] = 6.0
    detector.beat("w1")  # w1 keeps beating, w0 goes silent
    assert detector.check() == (["w0"], [])
    assert detector.stalled == {"w0"}
    assert detector.check() == ([], [])  # stalls report once
    detector.beat("w0")
    assert detector.check() == ([], ["w0"])
    assert detector.stalled == set()
    now[0] = 20.0
    detector.forget("w0")  # exited workers never count as stalled
    newly, _ = detector.check()
    assert "w0" not in newly


def test_sweep_telemetry_flags_silent_worker(tmp_path):
    """Parent-side stall path with an injected clock: a worker whose
    heartbeats stop arriving trips the counter, the warning event and
    ``stalled_workers`` — and recovers when beats resume."""
    now = [0.0]
    registry = MetricsRegistry()
    telemetry = SweepTelemetry(tmp_path, sweep_id="unit", jobs=1,
                               registry=registry, heartbeat_interval=1.0,
                               stall_intervals=3, clock=lambda: now[0])
    with telemetry:
        telemetry.worker_spawned(0, 12345)
        bus = tmp_path / "telemetry" / "worker_0.jsonl"
        bus.write_text(json.dumps({"type": "heartbeat", "worker": 0,
                                   "pid": 12345, "ts_unix": 1.0,
                                   "rss_bytes": 1024}) + "\n")
        now[0] = 1.0
        telemetry.poll()
        assert telemetry.stalled_workers == set()
        now[0] = 10.0  # silent for > 3 intervals
        telemetry.poll()
        assert telemetry.stalled_workers == {0}
        with open(bus, "a") as handle:
            handle.write(json.dumps({"type": "heartbeat", "worker": 0,
                                     "pid": 12345, "ts_unix": 10.5,
                                     "rss_bytes": 2048}) + "\n")
        now[0] = 10.2
        telemetry.poll()
        assert telemetry.stalled_workers == set()
    counters = registry.snapshot()["counters"]
    assert counters["sweep.workers_stalled{sweep=unit}"] == 1
    events = [json.loads(line) for line in
              (tmp_path / "telemetry" / "parent.jsonl")
              .read_text().splitlines()]
    kinds = [(e.get("event")) for e in events if e.get("type") == "worker"]
    assert kinds == ["spawned", "stalled", "recovered"]
    assert telemetry.summary["workers_stalled"] == 1


def test_retired_worker_never_stalls_across_pools(tmp_path):
    """A worker that sent its clean goodbye beat (its pool's queue
    drained) is retired from stall watching: one sweep runs several
    scheduler pools, and a worker from an earlier rung must not read
    as stalled while later rungs run."""
    now = [0.0]
    registry = MetricsRegistry()
    telemetry = SweepTelemetry(tmp_path, sweep_id="unit", jobs=1,
                               registry=registry, heartbeat_interval=1.0,
                               stall_intervals=3, clock=lambda: now[0])
    with telemetry:
        telemetry.worker_spawned(0, 111)
        bus = tmp_path / "telemetry" / "worker_0.jsonl"
        bus.write_text(
            json.dumps({"type": "heartbeat", "worker": 0, "pid": 111,
                        "ts_unix": 1.0, "rss_bytes": 1024}) + "\n" +
            json.dumps({"type": "heartbeat", "worker": 0, "pid": 111,
                        "ts_unix": 1.5, "rss_bytes": 1024,
                        "final": True}) + "\n")
        now[0] = 1.0
        telemetry.poll()
        now[0] = 50.0  # far past the stall timeout: a later rung's pool
        telemetry.poll()
        assert telemetry.stalled_workers == set()
    assert telemetry.summary["workers_stalled"] == 0
    counters = registry.snapshot()["counters"]
    assert "sweep.workers_stalled{sweep=unit}" not in counters
    kinds = [e.get("event") for e in _parent_events(tmp_path / "telemetry")
             if e.get("type") == "worker"]
    assert kinds == ["spawned", "exited"]
    state = read_state(tmp_path)
    assert state["workers"][0]["status"] == "exited"
    assert not state["workers"][0]["alive"]


def test_killed_worker_death_is_visible_in_dashboard_state(tmp_path):
    """kill -9 mid-sweep: the sweep survives (requeue) and the dead
    worker shows up as a dead row with a terminal heartbeat gap."""
    faults.install("sweep.job:nth=2:mode=kill")
    result = run_sweep(parse_spec(CRASHY_SPEC), jobs=2, record=False,
                       workdir=tmp_path / "sweep",
                       heartbeat_interval=0.05)
    faults.install(None)
    assert not result.stats.failed
    assert result.stats.worker_deaths > 0
    state = read_state(tmp_path / "sweep")
    assert state["finished"]
    dead = [w for w in state["workers"].values() if w["status"] == "dead"]
    assert len(dead) == result.stats.worker_deaths
    # the death is a heartbeat gap, not a clean goodbye: the dead
    # worker's last beat predates the end of the sweep
    finished_unix = max(e["ts_unix"] for e in
                        _parent_events(tmp_path / "sweep" / "telemetry"))
    for worker in dead:
        assert worker["last_beat_unix"] is None or \
            worker["last_beat_unix"] < finished_unix
    assert state["requeues"] == len(result.stats.requeued)
    assert state["counts"]["failed"] == 0


# ---------------------------------------------------------------------------
# obs-top
# ---------------------------------------------------------------------------
def test_obs_top_json_counts_match_progress_file(sweep2):
    workdir = sweep2["workdir"]
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs-top", str(workdir),
         "--json"],
        capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent
                               / "src"), "PATH": "/usr/bin:/bin"},
    )
    state = json.loads(out.stdout)
    progress = json.loads((workdir / "sweep_progress.json").read_text())
    assert state["finished"]
    assert state["counts"]["done"] == len(progress["jobs"])
    assert state["counts"]["running"] == 0
    assert state["counts"]["pending"] == 0
    assert state["counts"]["failed"] == 0
    assert set(state["jobs"]) == set(progress["jobs"])
    # the human rendering works off the same state
    top = subprocess.run(
        [sys.executable, "-m", "repro.cli", "obs-top", str(workdir),
         "--once"],
        capture_output=True, text=True, check=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent
                               / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert "[finished]" in top.stdout
    assert f"{len(progress['jobs'])} done" in top.stdout


# ---------------------------------------------------------------------------
# bus-reader tolerance: torn tails and unknown event kinds
# ---------------------------------------------------------------------------
def test_read_state_tolerates_torn_lines_and_unknown_kinds(tmp_path):
    """Dashboard readers must survive (a) a torn trailing line a live
    writer is mid-appending, (b) a malformed complete line from a torn
    write, and (c) event kinds from a newer writer they don't know."""
    tdir = tmp_path / "telemetry"
    tdir.mkdir()
    (tdir / "meta.json").write_text(json.dumps(
        {"sweep_id": "t", "jobs": 1, "heartbeat_interval": 1.0,
         "started_unix": 0.0}))
    parent = tdir / "parent.jsonl"
    parent.write_text(
        json.dumps({"type": "job_state", "job_id": "j1",
                    "state": "running", "worker": 0, "ts_unix": 1.0}) + "\n"
        + json.dumps({"type": "quality_blob", "hits": [1, 2, 3]}) + "\n"
        + '{"type": "job_state", "broken...}\n'
        + json.dumps({"type": "job_state", "job_id": "j1", "state": "done",
                      "ts_unix": 2.0, "score": 0.4}) + "\n"
        + '{"type": "job_state", "state": "torn-mid-wri')
    bus = tdir / "worker_0.jsonl"
    bus.write_text(
        json.dumps({"type": "heartbeat", "worker": 0, "pid": 1,
                    "ts_unix": 1.5, "rss_bytes": 1024, "job_id": "j1",
                    "hits1": 0.25}) + "\n"
        + json.dumps({"type": "mystery", "payload": {"x": 1}}) + "\n"
        + '{"type": "heartbeat", "worker": 0, "ts_un')

    events, _, skipped = read_jsonl(parent, live=True)
    assert skipped == 1  # the malformed complete line only
    assert [e["type"] for e in events] == \
        ["job_state", "quality_blob", "job_state"]

    state = read_state(tmp_path, now_unix=3.0)
    assert state["skipped_lines"] == 1
    job = state["jobs"]["j1"]
    assert job["state"] == "done"
    assert job["score"] == 0.4
    assert job["hits1"] == 0.25  # heartbeat attribution survived the noise
    assert state["workers"][0]["hits1"] == 0.25
    assert state["best_hits1"] == 0.4
    # the rendering works off that state too, unknown kinds and all
    top = format_top(state)
    assert "best H@1: 0.400" in top
    assert "torn/unreadable" in top


# ---------------------------------------------------------------------------
# quality in the dashboard: live Hits@1 and diverged jobs
# ---------------------------------------------------------------------------
QUALITY_SPEC = {
    "sweep": {"name": "tele-quality", "n_folds": 2, "seed": 0, "epochs": 4},
    "halving": {"min_epochs": 2, "eta": 2},
    "datasets": [{"family": "EN-FR", "size": 120, "method": "direct"}],
    "approaches": [
        {"name": "MTransE",
         "config": {"dim": 8, "valid_every": 2, "optimizer": "sgd",
                    "probe_every": 2, "probe_sample": 32,
                    "sentinel": True},
         "grid": {"lr": [0.05, 10000.0]}},
    ],
}


def test_sweep_surfaces_probe_hits_and_diverged_jobs(tmp_path):
    """The lr=1e4 candidate must be sentinel-aborted and flagged in the
    dashboard, while the sweep completes and reports its best Hits@1."""
    result = run_sweep(parse_spec(QUALITY_SPEC), jobs=2, record=False,
                       workdir=tmp_path / "sweep",
                       heartbeat_interval=0.05)
    assert not result.stats.failed
    diverged_payloads = [job_id for job_id, payload
                         in result.job_payloads.items()
                         if payload.get("status") == "diverged"]
    assert diverged_payloads, "the lr=1e4 candidate should diverge"
    state = read_state(tmp_path / "sweep")
    assert state["finished"]
    assert set(state["diverged_jobs"]) == set(diverged_payloads)
    assert isinstance(state["best_hits1"], float)
    assert state["best_hits1"] >= 0.0
    top = format_top(state)
    assert "best H@1" in top
    assert "hits@1" in top  # per-worker column header
    assert "diverged:" in top
    assert f"{len(diverged_payloads)} diverged" in top


# ---------------------------------------------------------------------------
# determinism: telemetry must only observe
# ---------------------------------------------------------------------------
def test_parallel_telemetered_sweep_bit_identical_to_serial(sweep2,
                                                            tmp_path):
    serial = run_sweep(parse_spec(RAW_SPEC), jobs=1,
                       workdir=tmp_path / "serial", record=False,
                       heartbeat_interval=0.05)
    parallel = sweep2["result"]
    assert serial.job_payloads.keys() == parallel.job_payloads.keys()
    for job_id, payload in serial.job_payloads.items():
        assert payload_metrics(payload) == \
            payload_metrics(parallel.job_payloads[job_id]), job_id


# ---------------------------------------------------------------------------
# RUSAGE_CHILDREN
# ---------------------------------------------------------------------------
def test_peak_rss_tree_sees_reaped_children():
    assert peak_rss_children_bytes() >= 0
    subprocess.run([sys.executable, "-c", "x = bytearray(1 << 20)"],
                   check=True)
    assert peak_rss_children_bytes() > 0
    assert peak_rss_tree_bytes() >= peak_rss_bytes()
    assert peak_rss_tree_bytes() >= peak_rss_children_bytes()
