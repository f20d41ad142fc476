"""Confusion-matrix metrics and the Monte-Carlo coin-flip baseline."""
from __future__ import annotations

import math

import pytest

from blinkpipe.core import BlinkLabel
from blinkpipe.eval import (
    ConfusionMatrix,
    EmptyMatrix,
    Metrics,
    format_metrics_table,
    macro_metrics,
    metrics,
    metrics_report,
    random_baseline,
    swap_positive,
)


class TestConfusionMatrix:
    def test_from_predictions_counts_all_cells(self):
        v, i = BlinkLabel.VOLUNTARY, BlinkLabel.INVOLUNTARY
        truth = [v, v, v, i, i, i, v, i]
        pred = [v, i, v, v, i, i, i, v]
        cm = ConfusionMatrix.from_predictions(truth, pred)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 2, 2, 2)
        assert cm.n == 8

    def test_accepts_raw_ints(self):
        cm = ConfusionMatrix.from_predictions([0, 1, 0], [0, 0, 1])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_predictions([0, 1], [0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)

    def test_swap_positive(self):
        cm = ConfusionMatrix(tp=3, fp=1, fn=2, tn=4)
        sw = swap_positive(cm)
        assert (sw.tp, sw.fp, sw.fn, sw.tn) == (4, 2, 1, 3)
        assert swap_positive(sw) == cm


class TestMetrics:
    def test_hand_worked_small_matrix(self):
        cm = ConfusionMatrix(tp=3, fp=1, fn=2, tn=4)
        m = metrics(cm)
        assert m.accuracy == pytest.approx(0.7, abs=1e-12)
        assert m.recall == pytest.approx(0.6, abs=1e-12)
        assert m.precision == pytest.approx(0.75, abs=1e-12)
        f1 = 2 * 0.75 * 0.6 / (0.75 + 0.6)
        assert m.f1 == pytest.approx(f1, abs=1e-12)
        assert m.undefined == frozenset()

    def test_published_operating_point(self):
        cm = ConfusionMatrix(tp=700, fn=300, fp=329, tn=1292)
        m = metrics(cm)
        assert m.accuracy == pytest.approx(0.76, abs=0.005)
        assert m.accuracy == pytest.approx(1992 / 2621, abs=1e-12)
        assert m.recall == pytest.approx(0.7, abs=1e-12)
        assert m.precision == pytest.approx(700 / 1029, abs=1e-12)
        p, r = 700 / 1029, 0.7
        assert m.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_perfect_classifier(self):
        m = metrics(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
        assert m == Metrics(1.0, 1.0, 1.0, 1.0)

    def test_no_positive_truth_flags_recall(self):
        m = metrics(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
        assert m.recall == 0.0
        assert "recall" in m.undefined and "f1" in m.undefined
        assert "precision" not in m.undefined

    def test_no_positive_predictions_flags_precision(self):
        m = metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert m.precision == 0.0
        assert "precision" in m.undefined and "f1" in m.undefined

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyMatrix):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_macro_average_is_mean_over_conventions(self):
        cm = ConfusionMatrix(tp=700, fn=300, fp=329, tn=1292)
        a, b = metrics(cm), metrics(swap_positive(cm))
        mm = macro_metrics(cm)
        assert mm.accuracy == a.accuracy
        assert mm.recall == pytest.approx((a.recall + b.recall) / 2, abs=1e-15)
        assert mm.precision == pytest.approx(
            (a.precision + b.precision) / 2, abs=1e-15)
        assert mm.f1 == pytest.approx((a.f1 + b.f1) / 2, abs=1e-15)


class TestRandomBaseline:
    def test_accuracy_near_half(self):
        labels = [BlinkLabel.VOLUNTARY] * 300 + [BlinkLabel.INVOLUNTARY] * 700
        rep = random_baseline(labels, seed=4, trials=4000)
        # Per-trial accuracy is Binomial(n, 0.5)/n; bound the mean of
        # `trials` draws by three standard errors.
        se = 0.5 / math.sqrt(1000 * 4000)
        assert abs(rep.accuracy_mean - 0.5) < 3 * se
        assert rep.accuracy_std == pytest.approx(0.5 / math.sqrt(1000), rel=0.1)
        assert rep.n == 1000 and rep.trials == 4000

    def test_deterministic_per_seed(self):
        labels = [0, 1] * 50
        a = random_baseline(labels, seed=9, trials=500)
        b = random_baseline(labels, seed=9, trials=500)
        assert a == b
        c = random_baseline(labels, seed=10, trials=500)
        assert a != c

    def test_recall_and_precision_near_half(self):
        labels = [0] * 500 + [1] * 500
        rep = random_baseline(labels, seed=2, trials=3000)
        assert rep.recall_mean == pytest.approx(0.5, abs=0.01)
        assert rep.precision_mean == pytest.approx(0.5, abs=0.01)
        assert rep.f1_mean == pytest.approx(0.5, abs=0.01)

    def test_all_one_class_undefined_metrics_count_as_zero(self):
        rep = random_baseline([1] * 40, seed=0, trials=200)
        assert rep.recall_mean == 0.0
        assert rep.precision_mean == 0.0
        assert rep.accuracy_mean == pytest.approx(0.5, abs=0.05)

    def test_empty_labels_raise(self):
        with pytest.raises(EmptyMatrix):
            random_baseline([], seed=0)

    def test_bad_trial_count(self):
        with pytest.raises(ValueError):
            random_baseline([0, 1], seed=0, trials=0)

    def test_exhaustive_two_blink_mean(self):
        # n=2, truth (V, I): the four equally likely prediction patterns give
        # accuracies 1, 0.5, 0.5, 0 so the long-run mean is exactly 0.5.
        rep = random_baseline([0, 1], seed=3, trials=20000)
        assert rep.accuracy_mean == pytest.approx(0.5, abs=0.02)


class TestReporting:
    def test_report_keys_and_values(self):
        cm = ConfusionMatrix(tp=3, fp=1, fn=2, tn=4)
        rep = metrics_report(cm)
        assert rep["accuracy"] == pytest.approx(0.7, abs=1e-12)
        assert rep["confusion"] == {"tp": 3, "fp": 1, "fn": 2, "tn": 4}
        assert rep["n"] == 10
        assert set(rep["macro"]) == {"recall", "precision", "f1"}
        mm = macro_metrics(cm)
        assert rep["macro"]["f1"] == pytest.approx(mm.f1, abs=1e-15)

    def test_table_formatting(self):
        rows = {
            "model": metrics(ConfusionMatrix(tp=700, fn=300, fp=329, tn=1292)),
            "baseline": Metrics(0.5, 0.5, 0.5, 0.5),
        }
        text = format_metrics_table(rows)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == [
            "classifier", "accuracy", "recall", "precision", "f1"]
        assert lines[1].split() == ["model", "0.7600", "0.7000", "0.6803",
                                    "0.6900"]
        assert lines[2].split()[0] == "baseline"
