"""Confusion counting, accuracy/error arithmetic, and the metric sweep."""

from __future__ import annotations

import importlib
import json

import pytest

from helpers import FIXTURE_DIR
from rumorsim import (
    ConfigurationError,
    DiffuserSet,
    EmptyEvaluationError,
    EvalReport,
    Metric,
    ModelKind,
    SimilarityGate,
    diffuse_user_user,
    evaluate,
    load_edges,
    load_rumor,
    load_users,
    metric_sweep,
    sweep_rows,
    write_eval_json,
)


@pytest.fixture(scope="module")
def fixture_inputs():
    graph = load_edges(FIXTURE_DIR / "edges.csv")
    profiles = load_users(FIXTURE_DIR / "users.csv")
    rumor = load_rumor(FIXTURE_DIR / "rumor.txt")
    return graph, profiles, rumor


class TestEvaluate:
    def test_perfect_prediction(self, fixture_inputs):
        _, profiles, _ = fixture_inputs
        report = evaluate({1, 2, 4, 6, 8, 10}, profiles)
        assert (report.true_pos, report.true_neg) == (6, 4)
        assert (report.false_pos, report.false_neg) == (0, 0)
        assert report.accuracy == 1.0
        assert report.error == 0.0
        assert report.predicted_count == 6

    def test_one_miss(self, fixture_inputs):
        _, profiles, _ = fixture_inputs
        report = evaluate({1, 2, 4, 6, 8}, profiles)
        assert (report.true_pos, report.true_neg) == (5, 4)
        assert (report.false_pos, report.false_neg) == (0, 1)
        assert report.accuracy == 0.9

    def test_mixed_errors(self, fixture_inputs):
        _, profiles, _ = fixture_inputs
        report = evaluate({1, 2, 3}, profiles)
        assert (report.true_pos, report.false_pos) == (2, 1)
        assert (report.false_neg, report.true_neg) == (4, 3)
        assert report.accuracy == 0.5
        assert report.total == len(profiles)

    def test_every_labeled_user_scored_once(self, fixture_inputs):
        _, profiles, _ = fixture_inputs
        for predicted in (set(), {5}, {1, 3, 5, 7, 9}, set(profiles)):
            report = evaluate(predicted, profiles)
            assert report.total == len(profiles)

    def test_unlabeled_predictions_not_scored(self, fixture_inputs):
        _, profiles, _ = fixture_inputs
        with_stranger = evaluate({1, 2, 4, 6, 8, 10, 999}, profiles)
        without = evaluate({1, 2, 4, 6, 8, 10}, profiles)
        assert with_stranger.accuracy == without.accuracy
        assert with_stranger.total == without.total
        # the stranger still shows up in the raw prediction size
        assert with_stranger.predicted_count == 7

    def test_diffuser_set_and_plain_set_agree(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        result = diffuse_user_user(graph, profiles, (1,), SimilarityGate(Metric.COSINE, 0.5))
        assert evaluate(result, profiles) == evaluate(set(result.members), profiles)

    def test_empty_labels_rejected(self):
        with pytest.raises(EmptyEvaluationError):
            evaluate({1}, {})

    def test_accuracy_plus_error_is_exactly_one(self):
        for tp in range(4):
            for tn in range(4):
                for fp in range(4):
                    for fn in range(4):
                        if tp + tn + fp + fn == 0:
                            continue
                        report = EvalReport(tp, tn, fp, fn, tp + fp)
                        assert report.accuracy + report.error == 1.0


class TestMetricSweep:
    def test_rows_match_direct_evaluation(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        metrics = (Metric.COSINE, Metric.JACCARD_SET, Metric.DICE, Metric.AVERAGE)
        rows = metric_sweep(graph, profiles, None, (1,), metrics, 0.5)
        assert len(rows) == 4
        for metric, report in rows:
            gate = SimilarityGate(metric, 0.5)
            direct = diffuse_user_user(graph, profiles, (1,), gate)
            assert report == evaluate(direct, profiles)

    def test_fixture_accuracies_and_order(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        metrics = (Metric.JACCARD_SET, Metric.AVERAGE, Metric.DICE, Metric.COSINE)
        rows = metric_sweep(graph, profiles, None, (1,), metrics, 0.5)
        # ties on accuracy fall back to the metric name
        assert [(m.value, r.accuracy) for m, r in rows] == [
            ("cosine", 1.0),
            ("dice", 1.0),
            ("average", 0.9),
            ("jaccard", 0.9),
        ]

    def test_user_content_model_uses_rumor(self, fixture_inputs):
        graph, profiles, rumor = fixture_inputs
        rows = metric_sweep(
            graph, profiles, rumor, (1,), (Metric.COSINE,), 0.5,
            model=ModelKind.GATED_USER_CONTENT,
        )
        assert rows[0][1].accuracy == 1.0

    def test_empty_metrics_rejected(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        with pytest.raises(ConfigurationError):
            metric_sweep(graph, profiles, None, (1,), (), 0.5)

    def test_non_gated_model_rejected(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        with pytest.raises(ConfigurationError):
            metric_sweep(graph, profiles, None, (1,), (Metric.COSINE,), 0.5, model=ModelKind.SIR)

    def test_threshold_changes_outcomes(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        strict = metric_sweep(graph, profiles, None, (1,), (Metric.JACCARD_SET,), 0.9)
        loose = metric_sweep(graph, profiles, None, (1,), (Metric.JACCARD_SET,), 0.0)
        assert strict[0][1].predicted_count < loose[0][1].predicted_count
        assert loose[0][1].predicted_count == len(graph.nodes)

    @pytest.mark.parametrize(
        "metrics, decisions",
        [
            ((Metric.JACCARD_SET, Metric.JACCARD_VECTOR), None),
            ((Metric.COSINE, Metric.LEVENSHTEIN, Metric.DICE), {(1, 2): True, (2, 3): True}),
        ],
        ids=["shared_scoring", "decisions_table"],
    )
    def test_one_run_per_distinct_gate(self, fixture_inputs, monkeypatch, metrics, decisions):
        graph, profiles, _ = fixture_inputs
        alone = [
            metric_sweep(graph, profiles, None, (1,), (m,), 0.5, decisions=decisions)[0] for m in metrics
        ]
        runs = []

        def counting(*args):
            runs.append(args[-1])
            return diffuse_user_user(*args)

        # the package exports a function named ``evaluate`` over the module name
        monkeypatch.setattr(importlib.import_module("rumorsim.evaluate"), "diffuse_user_user", counting)
        rows = metric_sweep(graph, profiles, None, (1,), metrics, 0.5, decisions=decisions)
        assert len(runs) == 1
        assert len(rows) == len(metrics)
        assert dict(rows) == dict(alone)


class TestReportsOnDisk:
    def test_sweep_rows_shape(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        rows = metric_sweep(graph, profiles, None, (1,), (Metric.COSINE, Metric.DICE), 0.5)
        dicts = sweep_rows(rows, 0.5)
        assert [d["metric"] for d in dicts] == ["cosine", "dice"]
        for d in dicts:
            assert set(d) == {
                "metric", "threshold", "tp", "tn", "fp", "fn", "accuracy", "predicted_count",
            }
            assert d["threshold"] == 0.5
            assert d["tp"] + d["tn"] + d["fp"] + d["fn"] == len(profiles)

    def test_eval_json_round_trips(self, tmp_path, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        rows = metric_sweep(graph, profiles, None, (1,), (Metric.COSINE,), 0.5)
        path = tmp_path / "eval.json"
        write_eval_json(rows, 0.5, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == sweep_rows(rows, 0.5)
        # trailing newline keeps the file friendly to line-based tooling
        assert path.read_text(encoding="utf-8").endswith("\n")


class TestDiffusionCurve:
    def test_curve_enumerates_counts(self, fixture_inputs):
        graph, profiles, _ = fixture_inputs
        from rumorsim import SimulationConfig, run_simulation

        cfg = SimulationConfig(
            edges_path=FIXTURE_DIR / "edges.csv",
            users_path=FIXTURE_DIR / "users.csv",
            max_time=20,
            trials=1,
            seed=42,
            initials=(1,),
        )
        trace = run_simulation(cfg, graph, profiles)
        counts = trace.counts
        assert counts[0] == 1
        assert counts[-1] == 6
        assert len(counts) == 21
        assert all(a <= b for a, b in zip(counts, counts[1:]))
