"""Scoring of predicted diffuser sets against observed labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConfigurationError, EmptyEvaluationError
from .gated import DiffuserSet, SimilarityGate, diffuse_user_content, diffuse_user_user
from .graph import RumorContent, SocialGraph, _write_json
from .config import GATED_MODELS, ModelKind
from .similarity import _SHAPE_SCORES


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts over all labeled users, with derived accuracy."""

    true_pos: int
    true_neg: int
    false_pos: int
    false_neg: int
    predicted_count: int

    @property
    def total(self) -> int:
        return self.true_pos + self.true_neg + self.false_pos + self.false_neg

    @property
    def accuracy(self) -> float:
        return (self.true_pos + self.true_neg) / self.total

    @property
    def error(self) -> float:
        return 1.0 - self.accuracy


def evaluate(predicted, profiles: Mapping) -> EvalReport:
    """Score a predicted diffuser set against profiles' observed labels.

    Every profiled user counts exactly once; users predicted positive but
    absent from the profiles are not scored (``validate`` reports them).
    ``predicted`` is a DiffuserSet or any set of user ids.
    """
    members = predicted.members if isinstance(predicted, DiffuserSet) else set(predicted)
    if not profiles:
        raise EmptyEvaluationError("no labeled users to evaluate against")
    tp = tn = fp = fn = 0
    for uid, profile in profiles.items():
        pred = uid in members
        if pred and profile.observed_diffuser:
            tp += 1
        elif pred:
            fp += 1
        elif profile.observed_diffuser:
            fn += 1
        else:
            tn += 1
    return EvalReport(tp, tn, fp, fn, len(members))


def metric_sweep(
    graph: SocialGraph,
    profiles: Mapping,
    rumor: RumorContent | None,
    initials,
    metrics,
    threshold: float,
    model: ModelKind = ModelKind.GATED_USER_USER,
    decisions: Mapping | None = None,
) -> list:
    """Run the gated algorithm once per distinct gate and score each result.

    Metrics that share a scoring function (both Jaccard forms) share one
    run, and so do all metrics when a ``decisions`` table replaces scoring.
    Returns [(metric, EvalReport), ...] ordered by accuracy descending with
    ties broken on metric name, so the best-performing metric comes first.
    """
    if not metrics:
        raise ConfigurationError("metric sweep needs at least one metric")
    if model not in GATED_MODELS:
        raise ConfigurationError(f"metric sweep requires a gated model, got {model.value}")
    rows = []
    reports = {}
    for metric in metrics:
        key = None if decisions is not None else _SHAPE_SCORES.get(metric, metric)
        if key not in reports:
            gate = SimilarityGate(metric, threshold, decisions)
            if model is ModelKind.GATED_USER_CONTENT:
                result = diffuse_user_content(graph, profiles, rumor, initials, gate)
            else:
                result = diffuse_user_user(graph, profiles, initials, gate)
            reports[key] = evaluate(result, profiles)
        rows.append((metric, reports[key]))
    rows.sort(key=lambda row: (-row[1].accuracy, row[0].value))
    return rows


def sweep_rows(rows, threshold: float) -> list:
    """JSON-friendly rows for eval.json, in the sweep's deterministic order."""
    return [
        {
            "metric": metric.value,
            "threshold": threshold,
            "tp": report.true_pos,
            "tn": report.true_neg,
            "fp": report.false_pos,
            "fn": report.false_neg,
            "accuracy": report.accuracy,
            "predicted_count": report.predicted_count,
        }
        for metric, report in rows
    ]


def write_eval_json(rows, threshold: float, path) -> None:
    _write_json(path, sweep_rows(rows, threshold))
