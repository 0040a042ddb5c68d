"""Confusion matrices and every performance measure the toolkit reports.

Matrix orientation is fixed: rows are forecasts, columns are actual
outcomes. Cells may be counts or percentages; every metric is invariant
to rescaling all cells by a positive constant, so the bundled percentage
fixtures and raw count matrices go through the same arithmetic.

Ratios with zero denominators are reported as None ("undefined"), never
as 0: a silent zero would corrupt downstream fairness comparisons.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .data.schema import check_marginals, number_text
from .errors import DataError

ROW_HEADER = "Forecast/Actual"


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K forecast-by-actual weights with an ordered label set."""

    labels: tuple[str, ...]
    cells: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        cells = np.asarray(self.cells, dtype=float)
        K = len(labels)
        if K < 2 or len(set(labels)) != K:
            raise DataError("need >= 2 distinct labels")
        if cells.shape != (K, K):
            raise DataError(f"cells are {cells.shape}, labels imply ({K}, {K})")
        if (cells < 0).any() or not np.isfinite(cells).all():
            raise DataError("cells must be finite and nonnegative")
        if not cells.sum() > 0:
            raise DataError("matrix total must be positive")
        cells = cells.copy()
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def total(self) -> float:
        return float(self.cells.sum())

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DataError(f"no label named {label!r}") from None

    # -- CSV round-trip (also the bundled fixture format) ---------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([ROW_HEADER, *self.labels])
            for i, name in enumerate(self.labels):
                writer.writerow([name] + [number_text(v) for v in self.cells[i]])

    @classmethod
    def from_csv(cls, path) -> "ConfusionMatrix":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
        if not rows:
            raise DataError(f"{path}: empty matrix file")
        labels = tuple(h.strip() for h in rows[0][1:])
        if len(rows) != len(labels) + 1:
            raise DataError(f"{path}: expected {len(labels)} data rows")
        cells = np.empty((len(labels), len(labels)))
        for i, row in enumerate(rows[1:]):
            if row[0].strip() != labels[i]:
                raise DataError(
                    f"{path}: row header {row[0]!r} does not match {labels[i]!r}")
            try:
                cells[i] = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataError(f"{path}: row {labels[i]}: {exc}") from None
        return cls(labels=labels, cells=cells)


def confusion_from_predictions(pred, actual, labels) -> ConfusionMatrix:
    """Tally forecast/actual label pairs into a matrix."""
    labels = tuple(labels)
    pred = list(pred)
    actual = list(actual)
    if len(pred) != len(actual):
        raise DataError(f"{len(pred)} predictions vs {len(actual)} actuals")
    if not pred:
        raise DataError("need at least one pair")
    index = {name: i for i, name in enumerate(labels)}
    cells = np.zeros((len(labels), len(labels)))
    for p, a in zip(pred, actual):
        try:
            cells[index[p], index[a]] += 1
        except KeyError as exc:
            raise DataError(f"unknown label {exc}") from None
    return ConfusionMatrix(labels=labels, cells=cells)


# -- derived measures ------------------------------------------------------


@dataclass(frozen=True)
class LabelMetrics:
    """One-vs-rest measures for a single label. None means undefined."""

    sensitivity: float | None
    specificity: float | None
    precision: float | None
    false_discovery_rate: float | None
    false_omission_rate: float | None


@dataclass(frozen=True)
class MetricReport:
    labels: tuple[str, ...]
    overall_accuracy: float
    per_label: dict[str, LabelMetrics]
    very_dangerous: float | None = None
    very_cautious: float | None = None
    dangerous_rate: float | None = None
    cautious_rate: float | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def to_markdown(self) -> str:
        def pct(v):
            return "undefined" if v is None else f"{100 * v:.2f}%"

        lines = ["| Measure | Value | Label |", "| --- | --- | --- |",
                 f"| Overall accuracy | {pct(self.overall_accuracy)} | |"]
        for name in self.labels:
            lines.append(
                f"| Sensitivity / recall | {pct(self.per_label[name].sensitivity)}"
                f" | {name} |")
        for name in self.labels:
            lines.append(
                f"| Precision | {pct(self.per_label[name].precision)} | {name} |")
        if self.very_dangerous is not None or self.very_cautious is not None:
            lines.append(f"| Very dangerous errors | {pct(self.very_dangerous)} | |")
            lines.append(f"| Very cautious errors | {pct(self.very_cautious)} | |")
        for note in self.notes:
            lines.append(f"| note | {note} | |")
        return "\n".join(lines) + "\n"


def _ratio(num: float, den: float) -> float | None:
    return float(num / den) if den > 0 else None


def derive_metrics(cm: ConfusionMatrix, high_label: str | None = None,
                   low_label: str | None = None) -> MetricReport:
    """Overall accuracy, one-vs-rest per-label measures, and policy errors.

    ``high_label`` / ``low_label`` designate the risk roles used for the
    dangerous/cautious error rates; leave them None for matrices without
    that reading.
    """
    cells = cm.cells
    total = cm.total
    notes = []
    per_label: dict[str, LabelMetrics] = {}
    for i, name in enumerate(cm.labels):
        tp = cells[i, i]
        fp = cells[i].sum() - tp
        fn = cells[:, i].sum() - tp
        tn = total - tp - fp - fn
        lm = LabelMetrics(
            sensitivity=_ratio(tp, tp + fn),
            specificity=_ratio(tn, tn + fp),
            precision=_ratio(tp, tp + fp),
            false_discovery_rate=_ratio(fp, tp + fp),
            false_omission_rate=_ratio(fn, fn + tn),
        )
        per_label[name] = lm
        for field_name in ("sensitivity", "specificity", "precision"):
            if getattr(lm, field_name) is None:
                notes.append(f"{field_name}({name}) undefined (zero denominator)")

    very_dangerous = very_cautious = dangerous_rate = cautious_rate = None
    if high_label is not None and low_label is not None:
        hi, lo = cm.index(high_label), cm.index(low_label)
        if hi == lo:
            raise DataError("high_label and low_label must differ")
        very_dangerous = _ratio(cells[lo, hi], cells[lo].sum())
        very_cautious = _ratio(cells[hi, lo], cells[hi].sum())
        if very_dangerous is None:
            notes.append("very_dangerous undefined (no low-risk forecasts)")
        if very_cautious is None:
            notes.append("very_cautious undefined (no high-risk forecasts)")
        dangerous_rate = float(cells[:, hi].sum() - cells[hi, hi]) / total
        cautious_rate = float(cells[:, lo].sum() - cells[lo, lo]) / total

    return MetricReport(
        labels=cm.labels,
        overall_accuracy=float(np.trace(cells)) / total,
        per_label=per_label,
        very_dangerous=very_dangerous,
        very_cautious=very_cautious,
        dangerous_rate=dangerous_rate,
        cautious_rate=cautious_rate,
        notes=tuple(notes),
    )


def random_baseline(marginals) -> float:
    """Accuracy of guessing labels from the class marginals: sum of p_i^2."""
    m = check_marginals(marginals)
    return float(m @ m)


# -- ROC / AUC -------------------------------------------------------------


def finite_scores(scores) -> np.ndarray:
    """``scores`` as a float array; a NaN or infinite score is refused, as
    no threshold can rank it."""
    s = np.asarray(scores, dtype=float)
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise DataError(f"score {bad[0]} is {float(s.flat[bad[0]])},"
                        " not a finite number")
    return s


def _check_binary(scores, actual):
    s = finite_scores(scores)
    a = np.asarray(actual)
    if s.shape != a.shape or s.ndim != 1:
        raise DataError("scores and labels must be equal-length vectors")
    if not np.isin(a, (0, 1)).all():
        raise DataError("labels must be binary (0/1)")
    P = int(a.sum())
    N = int(a.size - P)
    if P == 0 or N == 0:
        raise DataError("need both classes present (tpr or fpr undefined)")
    return s, a, P, N


def distinct_scores(scores: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty score vector, ascending."""
    s = np.sort(scores)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def at_or_above(scores: np.ndarray, positive: np.ndarray, thresholds):
    """(tp, fp): how many positive and how many negative rows score at or
    above each threshold."""
    pos = np.sort(scores[positive])
    neg = np.sort(scores[~positive])
    return (pos.size - np.searchsorted(pos, thresholds),
            neg.size - np.searchsorted(neg, thresholds))


def roc_points(scores, actual) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs, one per distinct decision threshold.

    A row is called positive when its score is at or above the threshold;
    sweeping the threshold from above the maximum score down to the
    minimum produces the curve from (0, 0) to (1, 1), sorted by fpr; each
    distinct score calls one row or more positive, so no point repeats.
    """
    s, a, P, N = _check_binary(scores, actual)
    tp, fp = at_or_above(s, a == 1, distinct_scores(s)[::-1])
    return [(0.0, 0.0), *zip((fp / N).tolist(), (tp / P).tolist())]


def auc(scores, actual) -> float:
    """Trapezoidal area under the ROC curve.

    Equals the probability that a random positive outscores a random
    negative, counting score ties as one half.
    """
    pts = roc_points(scores, actual)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


# -- rater agreement -------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    labels: tuple[str, ...]
    per_label: dict[str, float]
    overall: float


def agreement_table(rater_a, rater_b, labels) -> AgreementReport:
    """Fraction of rows on which both raters assign each label.

    The per-label rates always sum to the overall agreement rate.
    """
    labels = tuple(labels)
    a = list(rater_a)
    b = list(rater_b)
    if len(a) != len(b):
        raise DataError(f"{len(a)} vs {len(b)} assignments")
    if not a:
        raise DataError("need at least one pair")
    unknown = {v for v in a + b if v not in labels}
    if unknown:
        raise DataError(f"unknown labels: {sorted(unknown)}")
    n = len(a)
    per_label = {
        name: sum(1 for x, y in zip(a, b) if x == y == name) / n for name in labels
    }
    overall = sum(1 for x, y in zip(a, b) if x == y) / n
    return AgreementReport(labels=labels, per_label=per_label, overall=overall)
