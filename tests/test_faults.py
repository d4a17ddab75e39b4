"""Unit tests for the repro.faults injection harness and atomic writers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_lines,
    atomic_write_text,
    atomic_write_with,
    fault_point,
    parse_plan,
    sha256_file,
)


# ---------------------------------------------------------------- parsing
def test_parse_plan_grammar():
    plan = parse_plan("checkpoint.write:nth=3:mode=kill;io.read:p=0.5:seed=7")
    assert plan.sites == ["checkpoint.write", "io.read"]
    (rule,) = plan.rules_for("checkpoint.write")
    assert rule.nth == 3 and rule.mode == "kill"
    (rule,) = plan.rules_for("io.read")
    assert rule.p == 0.5 and rule.seed == 7


def test_parse_plan_rejects_bad_mode():
    with pytest.raises(ValueError):
        parse_plan("site:mode=explode")


def test_inactive_by_default():
    assert not faults.is_active()
    fault_point("anything")  # no plan installed: must be a no-op


# ---------------------------------------------------------------- firing
def test_nth_rule_fires_once_at_nth_hit():
    with faults.inject("site.a:nth=3:mode=raise") as plan:
        fault_point("site.a")
        fault_point("site.a")
        with pytest.raises(InjectedFault):
            fault_point("site.a")
        fault_point("site.a")  # nth rules default to firing once
    assert plan.hits("site.a") == 3  # exhausted rules stop counting
    assert plan.log == [("site.a", "raise")]


def test_probability_rule_is_deterministic():
    def run():
        fired = []
        with faults.inject("site.p:p=0.5:seed=11:times=100"):
            for i in range(50):
                try:
                    fault_point("site.p")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
        return fired

    first, second = run(), run()
    assert first == second
    assert any(first) and not all(first)


def test_sites_are_independent():
    with faults.inject("site.a:nth=1:mode=raise"):
        fault_point("site.b")  # different site: untouched
        with pytest.raises(InjectedFault):
            fault_point("site.a")


def test_inject_restores_previous_plan():
    assert faults.active_plan() is None
    with faults.inject("x:nth=1"):
        assert faults.active_plan() is not None
    assert faults.active_plan() is None


def test_stage_matching():
    # corrupt rules default to the post stage, crash rules to pre
    rule = FaultRule(site="s", mode="corrupt")
    assert rule.stage == "post"
    rule = FaultRule(site="s", mode="kill")
    assert rule.stage == "pre"
    # a stageless call site accepts any rule
    assert FaultRule(site="s", mode="raise").matches_stage(None)


def test_partial_mode_tears_the_file(tmp_path):
    path = tmp_path / "data.bin"
    payload = b"0123456789" * 10
    with faults.inject("io.write:nth=1:mode=partial:stage=pre"):
        with pytest.raises(InjectedFault):
            atomic_write_bytes(path, payload, site="io.write")
    # the tear happened on the tmp file; the final path never appeared
    assert not path.exists()
    tmp_file = path.with_name(path.name + ".tmp")
    assert tmp_file.exists()
    assert 0 < tmp_file.stat().st_size < len(payload)


def test_corrupt_mode_flips_bytes_silently(tmp_path):
    path = tmp_path / "data.bin"
    payload = bytes(range(256))
    with faults.inject("io.write:nth=1:mode=corrupt"):
        atomic_write_bytes(path, payload, site="io.write")  # no exception
    assert path.read_bytes() != payload
    assert path.stat().st_size == len(payload)


def test_kill_mode_exits_137(tmp_path):
    code = (
        "from repro import faults\n"
        "with faults.inject('boom:nth=1:mode=kill'):\n"
        "    faults.fault_point('boom')\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == faults.KILL_EXIT_CODE == 137


def test_env_plan_installs_in_subprocess(tmp_path):
    code = (
        "from repro.faults import fault_point\n"
        "fault_point('env.site')\n"
    )
    env = dict(os.environ, PYTHONPATH="src",
               REPRO_FAULTS="env.site:nth=1:mode=raise")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            cwd=Path(__file__).resolve().parents[1])
    assert result.returncode != 0
    assert "InjectedFault" in result.stderr


# ---------------------------------------------------------------- atomic
def test_atomic_writers_round_trip(tmp_path):
    text_path = atomic_write_text(tmp_path / "a.txt", "hello\n")
    assert text_path.read_text() == "hello\n"
    json_path = atomic_write_json(tmp_path / "a.json", {"x": [1, 2]})
    assert json.loads(json_path.read_text()) == {"x": [1, 2]}
    lines_path = atomic_write_lines(tmp_path / "a.lines", ["one", "two"])
    assert lines_path.read_text() == "one\ntwo\n"
    npz_path = atomic_write_with(
        tmp_path / "a.npz",
        lambda handle: np.savez(handle, x=np.arange(3)),
    )
    with np.load(npz_path) as npz:
        assert list(npz["x"]) == [0, 1, 2]


def test_atomic_write_preserves_old_file_on_crash(tmp_path):
    path = tmp_path / "table.txt"
    atomic_write_text(path, "old complete contents\n", site="io.write")
    with faults.inject("io.write:nth=1:mode=raise:stage=pre"):
        with pytest.raises(InjectedFault):
            atomic_write_text(path, "new contents\n", site="io.write")
    # reader still sees the previous complete file, never a torn one
    assert path.read_text() == "old complete contents\n"


def test_sha256_file_matches_hashlib(tmp_path):
    import hashlib

    path = tmp_path / "blob"
    payload = os.urandom(4096)
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_fault_plan_add_and_times():
    plan = FaultPlan()
    plan.add(FaultRule(site="s", mode="raise", p=1.0, times=2))
    faults.install(plan)
    try:
        with pytest.raises(InjectedFault):
            fault_point("s")
        with pytest.raises(InjectedFault):
            fault_point("s")
        fault_point("s")  # times=2 exhausted
    finally:
        faults.reset()


# ---------------------------------------------------------------- trace export
def test_trace_writers_preserve_old_file_on_crash(tmp_path):
    from repro.obs.trace import Tracer

    tracer = Tracer()
    with tracer.span("first"):
        pass
    events_path = tmp_path / "events.jsonl"
    trace_path = tmp_path / "trace.json"
    tracer.write_jsonl(events_path)
    tracer.write_chrome_trace(trace_path)
    old_events = events_path.read_bytes()
    old_trace = trace_path.read_bytes()
    with tracer.span("second"):
        pass
    with faults.inject("trace.write:nth=1:mode=partial"):
        with pytest.raises(InjectedFault):
            tracer.write_jsonl(events_path)
    with faults.inject("trace.write:nth=1:mode=partial"):
        with pytest.raises(InjectedFault):
            tracer.write_chrome_trace(trace_path)
    # the torn bytes landed in the tmp siblings, never the final files
    assert events_path.read_bytes() == old_events
    assert trace_path.read_bytes() == old_trace
    assert json.loads(trace_path.read_text())["traceEvents"]


# ---------------------------------------------------------------- site table
def _documented_sites() -> set[str]:
    import re

    doc = Path(__file__).resolve().parents[1] / "docs" / "robustness.md"
    sites: set[str] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            sites.update(re.findall(r"`([^`]+)`", first_cell))
    return sites


def test_every_fault_site_is_documented():
    import re

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    pattern = re.compile(r'(?:fault_point\(\s*|site=)"([^"]+)"')
    fired = set()
    for path in src.rglob("*.py"):
        fired.update(pattern.findall(path.read_text(encoding="utf-8")))
    assert len(fired) >= 18
    missing = sorted(fired - _documented_sites())
    assert not missing, (
        f"fault sites missing from the docs/robustness.md table: {missing}")
