"""Synthetic custody-style data with a tunable label signal.

Rows are drawn label-first from the requested marginals. Every feature
at an even schema position is "informative": with probability equal to
``signal_strength`` its value comes from a label-conditional
distribution, otherwise from a label-free base distribution. At
signal_strength 0 every feature is therefore independent of the label;
at 1 the informative half separates the classes strongly enough for a
single depth-limited tree to score well.

Generation is a pure function of (schema, n, marginals, signal_strength,
seed): identical inputs produce identical datasets.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, SchemaError
from .dataset import Dataset, check_setting
from .schema import FeatureSchema, check_marginals, hart_schema

#: Label marginals of the bundled validation-scale fixture
#: (High, Moderate, Low shares of the 14,882-event test year).
VALIDATION_MARGINALS = (0.1186, 0.4835, 0.3979)


def _check_draw(n: int, signal_strength: float) -> None:
    check_setting("row count", n, 1)
    if not 0.0 <= signal_strength <= 1.0:
        raise DataError(f"signal_strength {signal_strength} outside [0, 1]")


def generate_synthetic(schema: FeatureSchema, n: int, marginals,
                       signal_strength: float, seed: int) -> Dataset:
    """Draw n labeled rows with label information scaled by signal_strength."""
    _check_draw(n, signal_strength)
    m = check_marginals(marginals, schema.n_labels)
    rng = np.random.default_rng(seed)
    y = rng.choice(schema.n_labels, size=n, p=m)
    X = _features_for_labels(schema, y, signal_strength, rng)
    groups = None
    if schema.group_attribute is not None:
        groups = rng.choice(np.array(["A", "B"], dtype=object), size=n)
    tag = (f"synthetic(n={n}, signal={signal_strength}, seed={seed},"
           f" marginals={tuple(float(v) for v in m)})")
    return Dataset(schema, X, y, groups, provenance=tag)


def generate_two_group(schema: FeatureSchema, n: int, marginals, gap: float,
                       signal_strength: float, seed: int) -> Dataset:
    """Two-group variant planting a high-risk base-rate gap between groups.

    Group "A" uses the given marginals; group "B" moves ``gap`` extra mass
    onto the highest-risk label, taken proportionally from the rest. With
    an informative signal the trained model's positive-prediction rates
    inherit roughly the same gap, so parity audits have something to find.
    """
    _check_draw(n, signal_strength)
    if schema.group_attribute is None:
        raise SchemaError("two-group generation needs a schema group attribute")
    m_a = check_marginals(marginals, schema.n_labels)
    if not 0.0 < gap <= 1.0 - m_a[0]:
        raise DataError(f"gap {gap} not in (0, {1.0 - m_a[0]:.4f}]")
    m_b = m_a.copy()
    m_b[0] += gap
    m_b[1:] *= (1.0 - m_b[0]) / m_a[1:].sum()
    rng = np.random.default_rng(seed)
    groups = rng.choice(np.array(["A", "B"], dtype=object), size=n)
    y = np.empty(n, dtype=np.int64)
    for value, marg in (("A", m_a), ("B", m_b)):
        rows = np.flatnonzero(groups == value)
        y[rows] = rng.choice(schema.n_labels, size=rows.size, p=marg)
    X = _features_for_labels(schema, y, signal_strength, rng)
    tag = (f"synthetic-two-group(n={n}, gap={gap}, signal={signal_strength},"
           f" seed={seed})")
    return Dataset(schema, X, y, groups, provenance=tag)


def hart_synthetic(n: int = 10_000, signal_strength: float = 0.8,
                   seed: int = 7) -> Dataset:
    """The bundled desk-scale dataset: 34-feature schema, validation marginals."""
    return generate_synthetic(hart_schema(), n, VALIDATION_MARGINALS,
                              signal_strength, seed)


# -- feature draws -------------------------------------------------------


def _features_for_labels(schema: FeatureSchema, y: np.ndarray,
                         signal_strength: float, rng) -> np.ndarray:
    n = y.shape[0]
    K = schema.n_labels
    # risk 1.0 for the highest-risk label, 0.0 for the lowest
    risk = (K - 1 - y) / (K - 1)
    X = np.empty((n, schema.n_features))
    for j, spec in enumerate(schema.specs):
        informative = j % 2 == 0
        p_cond = signal_strength if informative else 0.0
        conditional = rng.random(n) < p_cond
        col = np.empty(n)
        base_rows = np.flatnonzero(~conditional)
        cond_rows = np.flatnonzero(conditional)
        if spec.kind == "numeric":
            mu = 26.0 + 2.0 * (j % 7)
            sig = 6.0 + (j % 3)
            col[cond_rows] = rng.normal(
                mu + (risk[cond_rows] - 0.5) * 1.8 * sig, sig)
            col[base_rows] = rng.normal(mu, 1.3 * sig, size=base_rows.size)
            np.clip(col, 10.0, 90.0, out=col)
            np.round(col, 1, out=col)
        elif spec.kind == "count":
            scale = 1.0 + (j % 3)
            lam = 0.3 + 2.2 * scale * risk[cond_rows] ** 1.3
            col[cond_rows] = rng.poisson(lam)
            col[base_rows] = rng.poisson(1.2, size=base_rows.size)
        elif spec.kind == "years-since":
            code = spec.sentinel.code
            has_hist = rng.random(n) < np.where(
                conditional, 0.20 + 0.65 * risk, 0.55)
            recency = np.minimum(
                rng.exponential(np.where(conditional,
                                         4.0 + 10.0 * (1.0 - risk), 9.0)),
                60.0,
            )
            col[:] = np.where(has_hist, np.round(recency, 1), code)
        elif spec.kind == "binary":
            p = np.where(conditional, 0.18 + 0.55 * risk, 0.35)
            col[:] = (rng.random(n) < p).astype(float)
        else:  # categorical
            C = len(spec.categories)
            base_p = 0.97 ** np.arange(C)
            base_p /= base_p.sum()
            col[base_rows] = rng.choice(C, size=base_rows.size, p=base_p)
            for label in range(K):
                rows = cond_rows[y[cond_rows] == label]
                if rows.size == 0:
                    continue
                anchor = (K - 1 - label) / (K - 1) * (C - 1)
                tilt = 1.0 + 2.0 * np.exp(
                    -((np.arange(C) - anchor) / (0.12 * C + 1.0)) ** 2)
                p = base_p * tilt
                p /= p.sum()
                col[rows] = rng.choice(C, size=rows.size, p=p)
        X[:, j] = col
    return X
