"""Model-quality observability: probes, sentinels, paper conformance.

Three layers on one theme — watching *model quality*, not systems health
(docs/observability.md):

* :class:`QualityMonitor` — streaming evaluation probes inside
  ``EmbeddingApproach.fit``.  Every ``probe_every`` epochs it scores
  Hits@1/5/10 + MRR on a sampled validation-candidate subset (O(sample²),
  see :func:`repro.alignment.evaluate.sampled_rank_metrics`), plus
  embedding health (norm mean/spread, inter-epoch drift, nearest-neighbour
  collapse ratio) and gradient health (NaN/Inf counts, grad-norm EWMA).
  Probe results land in ``TrainingLog.probes``, a ``quality.jsonl`` bus,
  registry gauges (when tracing is on) and the live-progress sink that
  feeds sweep worker heartbeats.

* Divergence sentinels — rules evaluated by the same monitor: non-finite
  loss or parameters, loss explosion against its own EWMA, and (when
  probes run) probe-Hits@1 regression or stagnation.  A tripped sentinel
  returns a reason string; ``fit`` latches an abort at the epoch boundary
  exactly like SIGTERM and marks ``TrainingLog.status == "diverged"``.

* Paper conformance — :func:`conformance_report` joins ledger CV/sweep
  records against the checked-in reference tables
  (``benchmarks/reference/paper_tables.json``) and reports per
  approach/dataset metric deltas.  Exit-code contract (``obs-conformance``
  CLI): 0 within tolerance, 1 drifted, 2 no joinable runs.

Probe determinism contract: probes never touch the training RNG.  Each
probe epoch derives its own generator from ``(config.seed, epoch)``, so a
probe-on run is bit-identical to a probe-off run and crash-resumed probe
histories replay exactly (monitor state rides in the checkpoint under the
reserved extra key ``"__quality__"``).
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..alignment.evaluate import sample_candidate_indices, sampled_rank_metrics
from ..alignment.metrics import similarity_matrix
from ..autodiff.sparse import SparseGrad
from ..faults import append_jsonl, open_jsonl
from .live import report_progress
from .registry import get_registry
from .trace import tracing_enabled

__all__ = [
    "QualityMonitor",
    "ConformanceRow",
    "ConformanceReport",
    "load_reference",
    "conformance_report",
    "DEFAULT_REFERENCE_PATH",
]

# EWMA smoothing for loss / grad-norm trend tracking.
_EWMA_ALPHA = 0.3
# Loss-explosion and probe checks only fire once the EWMA has warmed up.
_EWMA_WARMUP = 2
# Hits@1 improvements below this are treated as stagnation, not progress.
_HITS_MIN_DELTA = 1e-9
# The Hits@1-regression rule only arms once the best probe represents at
# least this many actual hits: on a small sample a best of 3/22 can fall
# to 0/22 by draw noise alone, which must not abort a healthy run.
_MIN_HITS_EVIDENCE = 5.0


class QualityMonitor:
    """Streaming quality probes + divergence sentinels for one ``fit``.

    Built by ``EmbeddingApproach.fit`` when ``config.probe_every > 0`` or
    ``config.sentinel`` is set; :meth:`observe` runs once per epoch after
    the loss is recorded and returns a divergence reason (or ``None``).
    All state needed to replay probe histories bit-identically across a
    crash/resume lives in :meth:`state_dict`.
    """

    def __init__(self, approach, pairs, path: Path | str | None = None):
        self.approach = approach
        self.config = approach.config
        self.pairs = list(pairs or [])
        self.path = Path(path) if path is not None else None
        self._bus = None
        # probe/sentinel state (checkpointed via state_dict)
        self.epochs_observed = 0
        self.loss_ewma: float | None = None
        self.grad_ewma: float | None = None
        self.best_hits1: float | None = None
        self.last_hits1: float | None = None
        self.stagnant_probes = 0
        self._prev_health: np.ndarray | None = None
        # timing is observability-only and never serialized
        self.probe_seconds = 0.0
        # the health sample is fixed for the whole run (derived from the
        # seed only) so inter-epoch drift compares the same rows
        rng = np.random.default_rng([_seed_entropy(self.config.seed), 0])
        indices = sample_candidate_indices(
            len(self.pairs), int(self.config.probe_sample), rng
        )
        self._health_sources = [self.pairs[int(i)][0] for i in indices]
        self._health_targets = [self.pairs[int(i)][1] for i in indices]

    # ------------------------------------------------------------------
    # checkpointable state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable monitor state (checkpoint ``extra`` payload)."""
        return {
            "epochs_observed": self.epochs_observed,
            "loss_ewma": self.loss_ewma,
            "grad_ewma": self.grad_ewma,
            "best_hits1": self.best_hits1,
            "last_hits1": self.last_hits1,
            "stagnant_probes": self.stagnant_probes,
            "prev_health": (
                None if self._prev_health is None
                else [[float(v) for v in row] for row in self._prev_health]
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output after a checkpoint resume."""
        if not state:
            return
        self.epochs_observed = int(state.get("epochs_observed", 0))
        self.loss_ewma = state.get("loss_ewma")
        self.grad_ewma = state.get("grad_ewma")
        self.best_hits1 = state.get("best_hits1")
        self.last_hits1 = state.get("last_hits1")
        self.stagnant_probes = int(state.get("stagnant_probes", 0))
        prev = state.get("prev_health")
        self._prev_health = (
            None if prev is None else np.array(prev, dtype=np.float64)
        )

    # ------------------------------------------------------------------
    # per-epoch hook
    # ------------------------------------------------------------------
    def observe(self, epoch: int, loss: float) -> str | None:
        """Record epoch ``loss``, probe if due, evaluate sentinel rules.

        Returns a human-readable divergence reason when a sentinel trips
        (``fit`` latches the abort at the epoch boundary), else ``None``.
        """
        config = self.config
        reason: str | None = None
        loss = float(loss)
        previous_ewma = self.loss_ewma
        if math.isfinite(loss):
            self.loss_ewma = (
                loss if previous_ewma is None
                else _EWMA_ALPHA * loss + (1.0 - _EWMA_ALPHA) * previous_ewma
            )
        if config.sentinel:
            if not math.isfinite(loss):
                reason = f"non-finite loss at epoch {epoch}"
            elif (
                self.epochs_observed >= _EWMA_WARMUP
                and previous_ewma is not None
                and previous_ewma > 0.0
                and loss > config.sentinel_loss_factor * previous_ewma
            ):
                reason = (
                    f"loss explosion at epoch {epoch}: {loss:.4g} > "
                    f"{config.sentinel_loss_factor:g}x EWMA {previous_ewma:.4g}"
                )
        self.epochs_observed += 1

        probe_due = (
            config.probe_every > 0
            and epoch % config.probe_every == 0
            and self.pairs
        )
        if probe_due or (config.sentinel and reason is None):
            started = time.perf_counter()
            if probe_due:
                record, probe_reason = self._probe(epoch, loss)
                if reason is None:
                    reason = probe_reason
                self.approach.log.probes.append(record)
                self._emit(dict(record, type="probe"))
                self._gauges(record)
                report_progress(hits1=record["hits_at_1"])
            elif not _params_finite(self.approach._parameters()):
                # cheap per-epoch guard between probes: a summed-NaN scan,
                # not the full gradient walk the probe pays for
                reason = f"non-finite parameters at epoch {epoch}"
            self.probe_seconds += time.perf_counter() - started
        if reason is not None:
            self._emit({"type": "sentinel", "epoch": epoch, "reason": reason})
            report_progress(diverged=True)
            if tracing_enabled():
                get_registry().counter(
                    "quality.diverged", approach=self.approach.info.name
                ).inc()
        return reason

    def close(self) -> None:
        if self._bus is not None:
            self._bus.close()
            self._bus = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _probe(self, epoch: int, loss: float):
        """One full probe pass: gradient health, sampled ranking metrics
        and embedding health, plus the probe-level sentinel rules."""
        config = self.config
        approach = self.approach
        grad_sq, grad_nan, grad_inf, params_finite = _gradient_health(
            approach._parameters()
        )
        reason: str | None = None
        if config.sentinel and not params_finite:
            reason = f"non-finite parameters at epoch {epoch}"

        grad_norm = math.sqrt(grad_sq)
        self.grad_ewma = (
            grad_norm if self.grad_ewma is None
            else _EWMA_ALPHA * grad_norm + (1.0 - _EWMA_ALPHA) * self.grad_ewma
        )
        # ranking probe on a per-epoch sample: fresh rows each probe so a
        # lucky subset cannot hide regressions, deterministic by (seed, epoch)
        rng = np.random.default_rng([_seed_entropy(config.seed), int(epoch)])
        metrics = sampled_rank_metrics(
            approach.similarity_between,
            self.pairs,
            sample=int(config.probe_sample),
            rng=rng,
        )
        health = _embedding_health(
            approach, self._health_sources, self._health_targets,
            self._prev_health,
        )
        self._prev_health = health.pop("_matrix")

        hits1 = float(metrics.hits_at(1))
        self.last_hits1 = hits1
        if config.sentinel and reason is None and metrics.n > 0:
            if (
                self.best_hits1 is not None
                and self.best_hits1 * metrics.n >= _MIN_HITS_EVIDENCE
                and self.epochs_observed > _EWMA_WARMUP
                and hits1 < self.best_hits1 * (1.0 - config.sentinel_hits_drop)
            ):
                reason = (
                    f"probe Hits@1 regression at epoch {epoch}: "
                    f"{hits1:.3f} < {1.0 - config.sentinel_hits_drop:g}x "
                    f"best {self.best_hits1:.3f}"
                )
            elif (
                config.sentinel_patience > 0
                and self.best_hits1 is not None
                and hits1 <= self.best_hits1 + _HITS_MIN_DELTA
                and self.stagnant_probes + 1 >= config.sentinel_patience
            ):
                reason = (
                    f"probe Hits@1 stagnation at epoch {epoch}: "
                    f"{self.stagnant_probes + 1} probes without improvement"
                )
        if self.best_hits1 is None or hits1 > self.best_hits1 + _HITS_MIN_DELTA:
            self.best_hits1 = hits1
            self.stagnant_probes = 0
        else:
            self.stagnant_probes += 1

        record = {
            "epoch": int(epoch),
            "loss": loss,
            "loss_ewma": float(self.loss_ewma) if self.loss_ewma is not None else None,
            "hits_at_1": hits1,
            "hits_at_5": float(metrics.hits_at(5)),
            "hits_at_10": float(metrics.hits_at(10)),
            "mrr": float(metrics.mrr),
            "n": int(metrics.n),
            "grad_norm": grad_norm,
            "grad_norm_ewma": float(self.grad_ewma),
            "grad_nan": int(grad_nan),
            "grad_inf": int(grad_inf),
            **health,
        }
        return record, reason

    def _emit(self, record: dict) -> None:
        if self.path is None:
            return
        if self._bus is None:
            self._bus = open_jsonl(self.path)
        append_jsonl(self._bus, dict(
            record,
            approach=self.approach.info.name,
            ts_unix=time.time(),
        ))

    def _gauges(self, record: dict) -> None:
        if not tracing_enabled():
            return
        registry = get_registry()
        name = self.approach.info.name
        for metric in ("hits_at_1", "hits_at_5", "hits_at_10", "mrr",
                       "norm_mean", "norm_std", "drift", "collapse_ratio",
                       "grad_norm_ewma"):
            value = record.get(metric)
            if value is not None:
                registry.gauge(f"quality.{metric}", approach=name).set(value)
        if record.get("grad_nan") or record.get("grad_inf"):
            registry.counter("quality.grad_nonfinite", approach=name) \
                .inc(record["grad_nan"] + record["grad_inf"])


def _seed_entropy(seed: int) -> int:
    """Non-negative entropy word for SeedSequence from any int seed."""
    return int(seed) & 0x7FFFFFFFFFFFFFFF


def _params_finite(parameters) -> bool:
    """Fast non-finite parameter scan: a summed reduction per parameter
    (NaN/Inf poison the sum), avoiding the bool-array allocation of a
    full ``isfinite`` walk on the per-epoch sentinel path."""
    for parameter in parameters:
        if not math.isfinite(float(np.asarray(parameter.data).sum())):
            return False
    return True


def _gradient_health(parameters):
    """(grad_sq, nan_count, inf_count, params_finite) over all parameters.

    Walks gradients the same SparseGrad-aware way as the epoch gauges;
    also checks parameter values for non-finite entries (the cheapest
    reliable divergence signal)."""
    grad_sq = 0.0
    grad_nan = 0
    grad_inf = 0
    params_finite = True
    for parameter in parameters:
        data = np.asarray(parameter.data)
        if params_finite and not np.isfinite(data).all():
            params_finite = False
        grad = parameter.grad
        if grad is None:
            continue
        if isinstance(grad, SparseGrad):
            values = np.asarray(grad.coalesce().values)
        else:
            values = np.asarray(grad)
        grad_nan += int(np.isnan(values).sum())
        grad_inf += int(np.isinf(values).sum())
        finite = values[np.isfinite(values)] if (grad_nan or grad_inf) else values
        grad_sq += float((finite ** 2).sum())
    return grad_sq, grad_nan, grad_inf, params_finite


def _embedding_health(approach, sources, targets, prev_matrix):
    """Norm / drift / nearest-neighbour collapse stats on the fixed sample.

    Returns a dict including ``"_matrix"`` (the stacked source+target
    sample in comparison space) for the caller to keep as the next
    epoch's drift baseline."""
    if not sources:
        return {"norm_mean": 0.0, "norm_std": 0.0, "drift": 0.0,
                "collapse_ratio": 0.0, "_matrix": None}
    source = np.asarray(approach._source_matrix(sources), dtype=np.float64)
    target = np.asarray(approach._target_matrix(targets), dtype=np.float64)
    matrix = np.concatenate([source, target], axis=0)
    norms = np.linalg.norm(matrix, axis=1)
    norm_mean = float(norms.mean())
    norm_std = float(norms.std())
    drift = 0.0
    if prev_matrix is not None and prev_matrix.shape == matrix.shape:
        step = np.linalg.norm(matrix - prev_matrix, axis=1)
        drift = float(step.mean() / (norm_mean + 1e-12))
    # nearest-neighbour collapse: fraction of sources whose NN target is
    # shared with another source (1 - unique/k); embeddings collapsing to
    # a point drive this toward 1.  Reuses the matrices built above.
    similarity = similarity_matrix(source, target, approach.info.metric)
    nearest = np.asarray(similarity).argmax(axis=1)
    collapse = 1.0 - len(np.unique(nearest)) / float(len(sources))
    return {
        "norm_mean": norm_mean,
        "norm_std": norm_std,
        "drift": drift,
        "collapse_ratio": float(collapse),
        "_matrix": matrix,
    }


# ----------------------------------------------------------------------
# paper conformance
# ----------------------------------------------------------------------

DEFAULT_REFERENCE_PATH = Path("benchmarks/reference/paper_tables.json")

_CONFORMANCE_METRICS = ("hits_at_1", "hits_at_5", "hits_at_10", "mrr")


@dataclass(frozen=True)
class ConformanceRow:
    """One (approach, dataset, metric) comparison against the reference."""

    approach: str
    dataset: str
    metric: str
    value: float
    reference: float
    tolerance: float
    run_name: str = ""

    @property
    def delta(self) -> float:
        return self.value - self.reference

    @property
    def rel_delta(self) -> float:
        if self.reference == 0.0:
            return 0.0 if self.value == 0.0 else math.inf
        return (self.value - self.reference) / abs(self.reference)

    @property
    def within(self) -> bool:
        return abs(self.rel_delta) <= self.tolerance


@dataclass
class ConformanceReport:
    """Joined ledger-vs-paper comparison with the CLI exit-code contract."""

    rows: list[ConformanceRow] = field(default_factory=list)
    unmatched: list[str] = field(default_factory=list)

    @property
    def drifted(self) -> list[ConformanceRow]:
        return [row for row in self.rows if not row.within]

    @property
    def status(self) -> str:
        if not self.rows:
            return "no-runs"
        return "drift" if self.drifted else "within"

    @property
    def exit_code(self) -> int:
        return {"within": 0, "drift": 1, "no-runs": 2}[self.status]

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "unmatched": list(self.unmatched),
            "rows": [
                {
                    "approach": row.approach,
                    "dataset": row.dataset,
                    "metric": row.metric,
                    "value": row.value,
                    "reference": row.reference,
                    "delta": row.delta,
                    "rel_delta": row.rel_delta,
                    "tolerance": row.tolerance,
                    "within": row.within,
                    "run": row.run_name,
                }
                for row in self.rows
            ],
        }

    def format(self) -> str:
        if not self.rows:
            return "conformance: no ledger runs join the reference tables"
        lines = [
            f"{'approach':<12s} {'dataset':<14s} {'metric':<10s} "
            f"{'run':>7s} {'paper':>7s} {'Δrel':>8s}  verdict"
        ]
        for row in self.rows:
            rel = (
                f"{row.rel_delta:+8.1%}" if math.isfinite(row.rel_delta)
                else "     inf"
            )
            verdict = "ok" if row.within else "DRIFT"
            lines.append(
                f"{row.approach:<12s} {row.dataset:<14s} {row.metric:<10s} "
                f"{row.value:7.3f} {row.reference:7.3f} {rel}  {verdict}"
            )
        drifted = len(self.drifted)
        lines.append(
            f"-- {len(self.rows)} comparisons, {drifted} drifted "
            f"({self.status})"
        )
        if self.unmatched:
            lines.append(
                "unmatched reference entries: " + ", ".join(self.unmatched)
            )
        return "\n".join(lines)


def load_reference(path: Path | str | None = None) -> dict:
    """Load ``paper_tables.json`` (defaults to the checked-in copy)."""
    path = Path(path) if path is not None else DEFAULT_REFERENCE_PATH
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _norm_key(value: str) -> str:
    return re.sub(r"[^a-z0-9]", "", str(value).lower())


def _record_identity(record: dict) -> tuple[str, str]:
    """(approach, dataset) of a ledger record, best effort."""
    config = record.get("config") or {}
    approach = config.get("approach") or ""
    dataset = config.get("dataset") or ""
    if isinstance(dataset, dict):
        dataset = dataset.get("family") or dataset.get("path") or ""
    if not approach or not dataset:
        parts = [p for p in str(record.get("name") or "").split("/") if p]
        if not approach and len(parts) >= 2:
            approach = parts[-2] if len(parts) >= 2 else ""
        if not dataset and parts:
            dataset = parts[-1]
    return str(approach), str(dataset)


def conformance_report(
    records: list[dict],
    reference: dict,
    rel_tolerance: float | None = None,
) -> ConformanceReport:
    """Join ledger records against the paper reference tables.

    A reference entry ``{"approach": ..., "dataset": ..., "metrics": {...}}``
    matches the *latest* ledger record whose approach matches and whose
    dataset name starts with the entry's dataset family (normalized:
    ``"EN-FR"`` joins runs on ``"EN-FR-150-V1"``).  Only records that
    actually carry a referenced metric scalar participate.
    """
    default_tolerance = (
        rel_tolerance if rel_tolerance is not None
        else float(reference.get("default_rel_tolerance", 0.15))
    )
    report = ConformanceReport()
    entries = reference.get("entries", [])
    for entry in entries:
        ref_approach = _norm_key(entry.get("approach", ""))
        ref_dataset = _norm_key(entry.get("dataset", ""))
        metrics = entry.get("metrics") or {}
        tolerance = float(entry.get("rel_tolerance", default_tolerance))
        match = None
        for record in records:
            approach, dataset = _record_identity(record)
            if _norm_key(approach) != ref_approach:
                continue
            if not _norm_key(dataset).startswith(ref_dataset):
                continue
            scalars = record.get("scalars") or {}
            if not any(m in scalars for m in metrics):
                continue
            match = record  # keep scanning: latest matching record wins
        if match is None:
            report.unmatched.append(
                f"{entry.get('approach')}/{entry.get('dataset')}"
            )
            continue
        scalars = match.get("scalars") or {}
        approach, dataset = _record_identity(match)
        for metric in _CONFORMANCE_METRICS:
            if metric not in metrics or metric not in scalars:
                continue
            report.rows.append(ConformanceRow(
                approach=approach,
                dataset=dataset,
                metric=metric,
                value=float(scalars[metric]),
                reference=float(metrics[metric]),
                tolerance=tolerance,
                run_name=str(match.get("name") or ""),
            ))
    return report
