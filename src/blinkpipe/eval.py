"""Classification metrics and the coin-flip baseline.

Positive class is Voluntary (class index 0) throughout; macro averaging
over both class conventions is available separately. Metrics whose
denominator is zero come back as 0.0 with the metric's name recorded in
`undefined` rather than raising.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence

import numpy as np

from .core import BlinkLabel, DataError

DEFAULT_BASELINE_TRIALS = 10_000


class EmptyMatrix(DataError):
    """Metrics over zero evaluated blinks are undefined."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @classmethod
    def from_predictions(cls, truth: Iterable, predicted: Iterable) -> "ConfusionMatrix":
        """Count outcomes; inputs are BlinkLabels or ints (0 = Voluntary)."""
        t = np.asarray([x.value if isinstance(x, BlinkLabel) else int(x)
                        for x in truth])
        p = np.asarray([x.value if isinstance(x, BlinkLabel) else int(x)
                        for x in predicted])
        if t.shape != p.shape:
            raise ValueError("truth and prediction lengths differ")
        return cls(
            tp=int(((p == 0) & (t == 0)).sum()),
            fp=int(((p == 0) & (t != 0)).sum()),
            fn=int(((p != 0) & (t == 0)).sum()),
            tn=int(((p != 0) & (t != 0)).sum()),
        )


def swap_positive(cm: ConfusionMatrix) -> ConfusionMatrix:
    """The same outcomes with Involuntary treated as the positive class."""
    return ConfusionMatrix(tp=cm.tn, fp=cm.fn, fn=cm.fp, tn=cm.tp)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    recall: float
    precision: float
    f1: float
    undefined: FrozenSet[str] = frozenset()


def metrics(cm: ConfusionMatrix) -> Metrics:
    """accuracy=(tp+tn)/n, recall=tp/(tp+fn), precision=tp/(tp+fp), f1=2pr/(p+r)."""
    n = cm.n
    if n == 0:
        raise EmptyMatrix("no evaluated blinks")
    flags = set()
    accuracy = (cm.tp + cm.tn) / n
    recall = precision = f1 = 0.0
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        flags.add("recall")
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        flags.add("precision")
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        flags.add("f1")
    return Metrics(accuracy, recall, precision, f1, frozenset(flags))


def macro_metrics(cm: ConfusionMatrix) -> Metrics:
    """Unweighted mean of the per-class metrics over both class conventions."""
    a = metrics(cm)
    b = metrics(swap_positive(cm))
    return Metrics(
        accuracy=a.accuracy,
        recall=(a.recall + b.recall) / 2,
        precision=(a.precision + b.precision) / 2,
        f1=(a.f1 + b.f1) / 2,
        undefined=a.undefined | b.undefined,
    )


@dataclass(frozen=True)
class BaselineReport:
    trials: int
    n: int
    accuracy_mean: float
    accuracy_std: float
    recall_mean: float
    precision_mean: float
    f1_mean: float


def random_baseline(test_labels: Sequence, seed: int = 0,
                    trials: int = DEFAULT_BASELINE_TRIALS) -> BaselineReport:
    """Monte-Carlo coin-flip classifier over the given true labels.

    Each trial predicts every blink with an independent fair coin; reported
    numbers are means over trials (accuracy also gets its across-trial
    standard deviation).
    """
    truth = np.asarray([x.value if isinstance(x, BlinkLabel) else int(x)
                        for x in test_labels])
    n = truth.shape[0]
    if n == 0:
        raise EmptyMatrix("no evaluated blinks")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    preds = rng.integers(0, 2, size=(trials, n))
    pos = truth == 0
    tp = ((preds == 0) & pos).sum(axis=1).astype(np.float64)
    fp = ((preds == 0) & ~pos).sum(axis=1).astype(np.float64)
    fn = ((preds != 0) & pos).sum(axis=1).astype(np.float64)
    tn = n - tp - fp - fn
    acc = (tp + tn) / n
    rec = np.divide(tp, tp + fn, out=np.zeros_like(tp), where=(tp + fn) > 0)
    prec = np.divide(tp, tp + fp, out=np.zeros_like(tp), where=(tp + fp) > 0)
    pr = prec + rec
    f1 = np.divide(2 * prec * rec, pr, out=np.zeros_like(tp), where=pr > 0)
    return BaselineReport(
        trials=trials,
        n=n,
        accuracy_mean=float(acc.mean()),
        accuracy_std=float(acc.std()),
        recall_mean=float(rec.mean()),
        precision_mean=float(prec.mean()),
        f1_mean=float(f1.mean()),
    )


def metrics_report(cm: ConfusionMatrix) -> Dict:
    """JSON-ready report with voluntary-positive and macro numbers."""
    m = metrics(cm)
    mm = macro_metrics(cm)
    return {
        "accuracy": m.accuracy,
        "recall": m.recall,
        "precision": m.precision,
        "f1": m.f1,
        "macro": {"recall": mm.recall, "precision": mm.precision, "f1": mm.f1},
        "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
        "n": cm.n,
    }


def format_metrics_table(rows: Dict[str, Metrics]) -> str:
    """Plain-text table, one classifier per row."""
    out = [f"{'classifier':<16}{'accuracy':>10}{'recall':>10}"
           f"{'precision':>11}{'f1':>10}"]
    for name, m in rows.items():
        out.append(f"{name:<16}{m.accuracy:>10.4f}{m.recall:>10.4f}"
                   f"{m.precision:>11.4f}{m.f1:>10.4f}")
    return "\n".join(out)
