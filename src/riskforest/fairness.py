"""Group fairness criteria and an exhaustive joint-infeasibility search.

All criteria compare a per-group statistic and pass when the largest
pairwise absolute gap is at most epsilon AND every statistic is defined.
An undefined statistic (say, precision in a group with no positive
predictions) fails the criterion with a note: degenerate classifiers
must not pass silently.

The criteria, with the positive label designating the binary reduction:

* statistical parity: fraction predicted positive;
* calibration: precision among positive predictions;
* equalized odds: sensitivity and specificity, both within epsilon;
* error-rate balance: false positive and false negative rates. Since
  FPR = 1 - specificity and FNR = 1 - sensitivity, its verdicts always
  agree with equalized odds at equal epsilon.

``impossibility_search`` thresholds real scores per group and scans
every threshold pair, demonstrating on concrete data that calibration
and error-rate balance cannot hold together when base rates differ.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .metrics import at_or_above, distinct_scores, finite_scores

DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class GroupOutcome:
    """Predictions or scores for one group, with actual labels."""

    actuals: np.ndarray
    predictions: np.ndarray | None = None
    scores: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "actuals", np.asarray(self.actuals))
        if self.predictions is not None:
            p = np.asarray(self.predictions)
            if p.shape != self.actuals.shape:
                raise DataError("predictions and actuals differ in length")
            object.__setattr__(self, "predictions", p)
        if self.scores is not None:
            s = finite_scores(self.scores)
            if s.shape != self.actuals.shape:
                raise DataError("scores and actuals differ in length")
            object.__setattr__(self, "scores", s)
        if self.actuals.size == 0:
            raise DataError("empty group")


@dataclass(frozen=True)
class GroupedOutcomes:
    groups: dict
    positive_label: object

    def __post_init__(self):
        if len(self.groups) < 2:
            raise DataError("need at least two groups")

    @classmethod
    def from_predictions(cls, per_group: dict, positive_label) -> "GroupedOutcomes":
        groups = {g: GroupOutcome(actuals=np.asarray(a),
                                  predictions=np.asarray(p))
                  for g, (p, a) in per_group.items()}
        return cls(groups=groups, positive_label=positive_label)

    @classmethod
    def from_scores(cls, per_group: dict, positive_label) -> "GroupedOutcomes":
        groups = {g: GroupOutcome(actuals=np.asarray(a), scores=s)
                  for g, (s, a) in per_group.items()}
        return cls(groups=groups, positive_label=positive_label)

    def binary(self, group) -> tuple[np.ndarray, np.ndarray]:
        """(predicted positive, actually positive) boolean vectors."""
        out = self.groups[group]
        if out.predictions is None:
            raise DataError(f"group {group!r} carries no predictions")
        return (out.predictions == self.positive_label,
                out.actuals == self.positive_label)


@dataclass(frozen=True)
class FairnessVerdict:
    criterion: str
    per_group: dict
    gap: float | None
    epsilon: float
    passed: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "per_group": _str_keys(self.per_group)}


def _str_keys(by_group: dict | None) -> dict | None:
    """A group-keyed dict with its keys as JSON needs them."""
    return None if by_group is None else {str(g): v for g, v in by_group.items()}


def _max_pair_gap(values) -> float | None:
    defined = [v for v in values if v is not None]
    if len(defined) < 2:
        return None
    return max(defined) - min(defined)


def _verdict(criterion, per_group, epsilon) -> FairnessVerdict:
    """Combine per-group statistic dicts into a verdict.

    The gap is the max pairwise difference over every statistic; a pass
    needs every statistic defined in every group and every gap <= eps.
    """
    stat_names = next(iter(per_group.values())).keys()
    notes = []
    gaps = []
    undefined = False
    for stat in stat_names:
        values = [per_group[g][stat] for g in per_group]
        for g in per_group:
            if per_group[g][stat] is None:
                undefined = True
                notes.append(f"{stat} undefined in group {g!r}")
        gap = _max_pair_gap(values)
        if gap is not None:
            gaps.append(gap)
    overall_gap = max(gaps) if gaps else None
    passed = (not undefined) and overall_gap is not None and overall_gap <= epsilon
    return FairnessVerdict(criterion=criterion, per_group=per_group,
                           gap=overall_gap, epsilon=epsilon, passed=passed,
                           notes=tuple(notes))


def check_statistical_parity(g: GroupedOutcomes,
                             epsilon: float = DEFAULT_EPSILON) -> FairnessVerdict:
    per_group = {}
    for name in g.groups:
        pred_pos, _ = g.binary(name)
        per_group[name] = {"positive_rate": float(pred_pos.mean())}
    return _verdict("statistical_parity", per_group, epsilon)


def check_calibration(g: GroupedOutcomes,
                      epsilon: float = DEFAULT_EPSILON) -> FairnessVerdict:
    per_group = {}
    for name in g.groups:
        pred_pos, act_pos = g.binary(name)
        n_pos_pred = int(pred_pos.sum())
        precision = (float((pred_pos & act_pos).sum() / n_pos_pred)
                     if n_pos_pred else None)
        per_group[name] = {"precision": precision}
    return _verdict("calibration", per_group, epsilon)


def _odds_stats(pred_pos, act_pos):
    pos = int(act_pos.sum())
    neg = int((~act_pos).sum())
    sensitivity = float((pred_pos & act_pos).sum() / pos) if pos else None
    specificity = float((~pred_pos & ~act_pos).sum() / neg) if neg else None
    return sensitivity, specificity


def check_equalized_odds(g: GroupedOutcomes,
                         epsilon: float = DEFAULT_EPSILON) -> FairnessVerdict:
    per_group = {}
    for name in g.groups:
        sens, spec = _odds_stats(*g.binary(name))
        per_group[name] = {"sensitivity": sens, "specificity": spec}
    return _verdict("equalized_odds", per_group, epsilon)


def check_error_rate_balance(g: GroupedOutcomes,
                             epsilon: float = DEFAULT_EPSILON) -> FairnessVerdict:
    per_group = {}
    for name in g.groups:
        sens, spec = _odds_stats(*g.binary(name))
        per_group[name] = {
            "false_positive_rate": None if spec is None else 1.0 - spec,
            "false_negative_rate": None if sens is None else 1.0 - sens,
        }
    return _verdict("error_rate_balance", per_group, epsilon)


ALL_CHECKS = (
    check_statistical_parity,
    check_calibration,
    check_equalized_odds,
    check_error_rate_balance,
)


# -- exhaustive threshold search -------------------------------------------


@dataclass(frozen=True)
class ImpossibilityReport:
    epsilon: float
    criteria: tuple[str, ...]
    best_gaps: dict
    jointly_feasible: bool
    witness: dict | None
    pairs_scanned: int
    base_rates: dict
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "witness": _str_keys(self.witness),
                "base_rates": _str_keys(self.base_rates)}


def _threshold_stats(scores: np.ndarray, act_pos: np.ndarray,
                     thresholds: np.ndarray):
    """precision, fpr, fnr arrays over thresholds (NaN where undefined)."""
    pos = int(act_pos.sum())
    neg = act_pos.size - pos
    if pos == 0 or neg == 0:
        raise DataError("each group needs both actual classes")
    tp, fp = at_or_above(scores, act_pos, thresholds)
    npred = tp + fp
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(npred > 0, tp / npred, np.nan)
    fpr = fp / neg
    fnr = (pos - tp) / pos
    return precision, fpr, fnr


def default_threshold_grid(scores) -> np.ndarray:
    """Every distinct score, plus a sentinel that predicts nobody positive."""
    s = distinct_scores(np.asarray(scores, dtype=float))
    return np.append(s, s[-1] + 1.0)


def impossibility_search(g: GroupedOutcomes, epsilon: float) -> ImpossibilityReport:
    """Scan every pair of per-group thresholds, each group's
    ``default_threshold_grid``, for joint criterion feasibility.

    Considers calibration (precision), FPR balance, and FNR balance. The
    scan itself is the evidence: either some pair satisfies all three
    within epsilon (witness returned) or none of the scanned pairs does.
    Warns instead of concluding anything when base rates coincide, since
    equal base rates remove the obstruction.
    """
    names = list(g.groups)
    if len(names) != 2:
        raise DataError("impossibility search expects exactly two groups")
    prepared = {}
    base_rates = {}
    for name in names:
        out = g.groups[name]
        if out.scores is None:
            raise DataError(f"group {name!r} carries no scores")
        act_pos = out.actuals == g.positive_label
        prepared[name] = (out.scores, act_pos, default_threshold_grid(out.scores))
        base_rates[name] = float(act_pos.mean())

    warnings = []
    if abs(base_rates[names[0]] - base_rates[names[1]]) < 1e-12:
        warnings.append(
            "groups have equal base rates; joint satisfaction is not obstructed")

    # The precision, fpr and fnr gap of every threshold pair; a precision
    # gap is NaN where either precision is undefined, and then fails.
    criteria = ("calibration", "false_positive_rate", "false_negative_rate")
    stats = [_threshold_stats(*prepared[name]) for name in names]
    gaps = [np.abs(a[:, None] - b[None, :]) for a, b in zip(*stats)]
    cal_gap, fpr_gap, fnr_gap = gaps
    joint = (cal_gap <= epsilon) & (fpr_gap <= epsilon) & (fnr_gap <= epsilon)

    def best(gap):
        return float(np.nanmin(gap)) if not np.isnan(gap).all() else None

    feasible = bool(joint.any())
    witness = None
    if feasible:
        witness = {name: float(prepared[name][2][k])
                   for name, k in zip(names, np.argwhere(joint)[0])}
    return ImpossibilityReport(
        epsilon=epsilon,
        criteria=criteria,
        best_gaps={c: best(gap) for c, gap in zip(criteria, gaps)},
        jointly_feasible=feasible,
        witness=witness,
        pairs_scanned=int(joint.size),
        base_rates=base_rates,
        warnings=tuple(warnings),
    )


def impossibility_recipe(seed: int = 20) -> GroupedOutcomes:
    """The bundled demonstration instance: base rates 0.30 vs 0.60.

    Group A holds 600 outcomes with a 0.30 positive rate, group B 400
    with 0.60. Scores are informative conditional draws over a graded
    ten-point alphabet: positives favor high score values, negatives low
    ones. The discrete alphabet keeps the threshold grids small and
    rules out the near-empty prediction sets that would otherwise let
    all three criteria coincide by accident, so single criteria can be
    matched across groups while the three together cannot.
    """
    rng = np.random.default_rng(seed)
    alphabet = np.linspace(0.05, 0.95, 10)
    p_pos = alphabet ** 2 / (alphabet ** 2).sum()
    p_neg = (1 - alphabet) ** 2 / ((1 - alphabet) ** 2).sum()

    def draw(n, base_rate):
        actual = (rng.random(n) < base_rate).astype(int)
        scores = np.where(actual == 1,
                          rng.choice(alphabet, n, p=p_pos),
                          rng.choice(alphabet, n, p=p_neg))
        return scores, actual

    return GroupedOutcomes.from_scores(
        {"A": draw(600, 0.30), "B": draw(400, 0.60)}, positive_label=1)
