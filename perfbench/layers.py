"""Per-layer metrics from the span events of a traced pass.

The benchmark wraps each library call in a span named after its layer
(``datagen.source_pair``, ``approaches.fit``, ``alignment.similarity``,
``serve.store_save`` ...); ``fit`` adds its own spans beneath
(``setup``, ``epoch``, ``validate``, ``checkpoint``, ``normalize`` and,
for the translational family, ``neg_sampling`` / ``forward`` /
``backward`` / ``step``).  This module sums them into the rows that
``BENCHMARK.json`` lists under ``per_layer``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# span name -> per-layer metric (seconds summed over every occurrence)
SUMMED = {
    "datagen.source_pair": "datagen.source_pair_s",
    "sampling.ids_sample": "sampling.ids_s",
    "setup": "approaches.setup_s",
    "normalize": "approaches.normalize_s",
    "validate": "approaches.validate_s",
    "checkpoint": "approaches.checkpoint_s",
    "neg_sampling": "embedding.neg_sampling_s",
    "forward": "autodiff.forward_s",
    "backward": "autodiff.backward_s",
    "step": "autodiff.step_s",
    "alignment.rank": "alignment.rank_s",
    "alignment.csls": "alignment.csls_s",
    "alignment.infer": "alignment.infer_s",
    "serve.store_save": "serve.store_save_s",
    "serve.index_build": "serve.index_build_s",
    "serve.index_save": "serve.index_save_s",
    "serve.store_load": "serve.store_load_s",
}
SIMILARITY_METRICS = ("cosine", "euclidean", "manhattan")
# per-approach rows for the approaches every workload trains
PER_APPROACH = ("MTransE", "BootEA", "GCNAlign")


def _spans(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("type") == "span"]


def _enclosing_approach(events: list[dict]) -> dict[int, str]:
    """span id -> approach of the nearest enclosing ``approaches.fit``."""
    by_id = {e["id"]: e for e in events}
    out: dict[int, str] = {}
    for event in events:
        node = event
        while node is not None:
            if node["name"] == "approaches.fit":
                out[event["id"]] = node["attrs"]["approach"]
                break
            node = by_id.get(node.get("parent_id"))
    return out


def span_layers(events: list[dict]) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    spans = _spans(events)
    out = {metric: 0.0 for metric in SUMMED.values()}
    out.update({f"alignment.similarity_s.{m}": 0.0
                for m in SIMILARITY_METRICS})
    out["alignment.similarity_mb"] = 0.0
    out["approaches.checkpoints"] = 0
    approach_of = _enclosing_approach(spans)
    fit_s: dict[str, float] = defaultdict(float)
    epochs: dict[str, list[float]] = defaultdict(list)
    for event in spans:
        name, dur = event["name"], event["dur_s"]
        if name in SUMMED:
            out[SUMMED[name]] += dur
        if name == "checkpoint":
            out["approaches.checkpoints"] += 1
        elif name == "alignment.similarity":
            attrs = event["attrs"]
            out[f"alignment.similarity_s.{attrs['metric']}"] += dur
            out["alignment.similarity_mb"] = max(
                out["alignment.similarity_mb"], attrs["mb"])
        elif name == "approaches.fit":
            fit_s[event["attrs"]["approach"]] += dur
        elif name == "epoch" and event["id"] in approach_of:
            epochs[approach_of[event["id"]]].append(dur)
    for approach in PER_APPROACH:
        out[f"approaches.{approach}.fit_s"] = fit_s.get(approach, 0.0)
        out[f"approaches.{approach}.epoch_s_p50"] = (
            statistics.median(epochs[approach]) if epochs[approach] else 0.0)
    return out


def span_coverage(events: list[dict], root: str = "cycle") -> float:
    """Share of the root span's wall time covered by its child spans."""
    spans = _spans(events)
    roots = [e for e in spans if e["name"] == root]
    if len(roots) != 1:
        raise ValueError(f"expected one {root!r} span, found {len(roots)}")
    top = roots[0]
    intervals = sorted((e["ts"], e["ts"] + e["dur_s"]) for e in spans
                       if e.get("parent_id") == top["id"])
    covered, end = 0.0, top["ts"]
    for start, stop in intervals:
        start = max(start, end)
        if stop > start:
            covered += stop - start
            end = stop
    return covered / top["dur_s"]


def op_layers(profile_rows: list[dict], names: list[str]) -> dict[str, float]:
    """Self time of each op kind named ``autodiff.op.<kind>_s``."""
    self_s = {row["kind"]: row["self_s"] for row in profile_rows}
    prefix, suffix = "autodiff.op.", "_s"
    return {name: self_s.get(name[len(prefix):-len(suffix)], 0.0)
            for name in names}
