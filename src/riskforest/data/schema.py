"""Feature schemas for custody-risk tabular data.

A schema is an ordered list of feature specs plus an ordered label set.
It drives CSV parsing, value validation, synthetic generation, and the
kind of split predicate a tree may apply to each column. One check,
``FeatureSchema.check_rows``, applies the kind rules to every row matrix:
a parsed CSV chunk, a ``Dataset``'s rows and a row ``predict_forest``
scores. Labels are ordered from highest to lowest risk; vote tie-breaking
and the dangerous/cautious error roles rely on that ordering.

Schemas serialize to a small line-oriented text format, one feature per
line, so they stay hand-editable:

    labels: High, Moderate, Low
    group: Ethnicity
    feature: CustodyAge | numeric
    feature: Gender | binary | Male, Female
    feature: PriorCustodyLatestYears | years-since | sentinel=100 null
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources

import numpy as np

from ..errors import DataError, SchemaError

KINDS = ("numeric", "count", "years-since", "categorical", "binary")
NUMERIC_KINDS = frozenset({"numeric", "count", "years-since"})
SUBSET_KINDS = frozenset({"categorical", "binary"})

OTHER = "OTHER"
MISSING_HISTORY_CODE = 100.0
LABEL_COLUMN = "label"

_FORMAT_LINE = "riskforest-schema v1"


@dataclass(frozen=True)
class SentinelRule:
    """Missing-history convention for a years-since column.

    ``code`` is stored as a literal value in the data (100 by default) so
    trees can split on it. When ``null_allowed`` is set, blank or
    null-ish cells are normalized to ``code`` at load time.
    """

    code: float = MISSING_HISTORY_CODE
    null_allowed: bool = False


@dataclass(frozen=True)
class FeatureSpec:
    """One input column: a name, a kind, and kind-specific rules."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()
    sentinel: SentinelRule | None = None

    def __post_init__(self):
        if not self.name or any(c in self.name for c in ",|:\n"):
            raise SchemaError(f"bad feature name: {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"{self.name}: unknown kind {self.kind!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == "binary" and not self.categories:
            object.__setattr__(self, "categories", ("No", "Yes"))
        if self.kind == "categorical":
            if len(self.categories) < 2:
                raise SchemaError(f"{self.name}: categorical needs >= 2 categories")
            if self.categories.count(OTHER) != 1:
                raise SchemaError(
                    f"{self.name}: categorical needs exactly one {OTHER} bucket"
                )
        elif self.kind == "binary":
            if len(self.categories) != 2:
                raise SchemaError(f"{self.name}: binary needs exactly 2 categories")
        elif self.categories:
            raise SchemaError(f"{self.name}: {self.kind} takes no categories")
        if self.categories and len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"{self.name}: duplicate categories")
        if self.kind == "years-since":
            if self.sentinel is None or self.sentinel.code is None:
                raise SchemaError(
                    f"{self.name}: years-since requires a missing-history sentinel code"
                )
        elif self.sentinel is not None:
            raise SchemaError(f"{self.name}: only years-since takes a sentinel")

    @property
    def other_index(self) -> int | None:
        return self.categories.index(OTHER) if OTHER in self.categories else None


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature specs, risk-ordered label names, optional group column."""

    specs: tuple[FeatureSpec, ...]
    label_set: tuple[str, ...]
    group_attribute: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "label_set", tuple(self.label_set))
        names = [s.name for s in self.specs]
        if not names:
            raise SchemaError("schema has no features")
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        if len(self.label_set) < 2 or len(set(self.label_set)) != len(self.label_set):
            raise SchemaError("label_set needs >= 2 distinct names")
        reserved = set(names) | {LABEL_COLUMN}
        if self.group_attribute is not None and self.group_attribute in reserved:
            raise SchemaError(
                f"group attribute {self.group_attribute!r} collides with a column"
            )

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    @property
    def n_features(self) -> int:
        return len(self.specs)

    @property
    def n_labels(self) -> int:
        return len(self.label_set)

    def spec_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise SchemaError(f"no feature named {name!r}") from None

    @cached_property
    def _cell_bounds(self):
        """Arrays of each column's least and greatest value and whether it
        may hold a fraction."""
        top = np.finfo(float).max  # so that an infinity is out of range
        least = np.array([-top if s.kind == "numeric" else 0.0 for s in self.specs])
        greatest = np.array([len(s.categories) - 1 if s.kind in SUBSET_KINDS
                             else top for s in self.specs])
        fractional = np.array([s.kind in ("numeric", "years-since")
                               for s in self.specs])
        return least, greatest, fractional

    def check_rows(self, X: np.ndarray) -> None:
        """Refuse a float matrix that is not (rows, n_features), or else its
        first cell, in row then column order, that breaks its kind's rule:
        values finite, counts and years not negative, counts and category
        codes whole, codes below the category count, naming row and feature."""
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(f"feature matrix is {X.shape},"
                            f" schema has {self.n_features} features")
        least, greatest, fractional = self._cell_bounds
        # A NaN fails every comparison, so it is refused with the rest.
        ok = (X >= least) & (X <= greatest) & ((X == np.floor(X)) | fractional)
        if np.count_nonzero(ok) == ok.size:
            return
        r, c = map(int, np.argwhere(~ok)[0])
        spec, value = self.specs[c], float(X[r, c])
        if not math.isfinite(value):
            raise DataError(f"non-finite feature value {value!r} at row {r},"
                            f" column {spec.name}", row=r, column=spec.name)
        raise DataError(f"value {value!r} invalid for {spec.kind} feature"
                        f" {spec.name}", row=r, column=spec.name)

    def with_group(self, name: str) -> "FeatureSchema":
        return replace(self, group_attribute=name)

    def fingerprint(self) -> str:
        """Stable hex digest of the model-facing schema contents.

        The group attribute is audit metadata, not a training input, so
        grouped and ungrouped variants of one schema fingerprint alike
        and interoperate with the same models.
        """
        canonical = self if self.group_attribute is None else replace(
            self, group_attribute=None)
        return hashlib.sha256(canonical.to_text().encode()).hexdigest()[:16]

    # -- text format --------------------------------------------------

    def to_text(self) -> str:
        lines = [_FORMAT_LINE, "labels: " + ", ".join(self.label_set)]
        if self.group_attribute is not None:
            lines.append("group: " + self.group_attribute)
        for spec in self.specs:
            parts = [spec.name, spec.kind]
            if spec.kind in ("categorical", "binary"):
                parts.append(", ".join(spec.categories))
            elif spec.kind == "years-since":
                tokens = [f"sentinel={number_text(spec.sentinel.code)}"]
                if spec.sentinel.null_allowed:
                    tokens.append("null")
                parts.append(" ".join(tokens))
            lines.append("feature: " + " | ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FeatureSchema":
        labels: tuple[str, ...] | None = None
        group = None
        specs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line or line == _FORMAT_LINE:
                continue
            key, _, rest = line.partition(":")
            key = key.strip().lower()
            rest = rest.strip()
            if key == "labels":
                labels = tuple(t.strip() for t in rest.split(",") if t.strip())
            elif key == "group":
                group = rest
            elif key == "feature":
                specs.append(_parse_feature_line(rest, lineno))
            else:
                raise SchemaError(f"line {lineno}: unknown entry {key!r}")
        if labels is None:
            raise SchemaError("schema text has no labels: line")
        return cls(specs=tuple(specs), label_set=labels, group_attribute=group)

    @classmethod
    def load(cls, path) -> "FeatureSchema":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
        return cls.from_text(text)


def number_text(value: float) -> str:
    """``str(int(value))`` for an integral value, else the float's ``repr``."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def check_marginals(marginals, n_labels: int | None = None) -> np.ndarray:
    """Label shares as a float array: numbers >= 0 summing to 1, and
    ``n_labels`` of them when that is given."""
    m = np.asarray(marginals, dtype=float)
    if n_labels is not None and m.shape != (n_labels,):
        raise DataError(f"need {n_labels} marginals,"
                        f" got {m.size if m.ndim == 1 else m.shape}")
    # Written so that NaN fails both checks.
    if not (m >= 0).all():
        raise DataError(f"marginals must be nonnegative numbers, got {m.tolist()}")
    if not abs(m.sum() - 1.0) <= 1e-9:
        raise DataError(f"marginals sum to {float(m.sum())!r}, not 1")
    return m


def _parse_feature_line(rest: str, lineno: int) -> FeatureSpec:
    parts = [p.strip() for p in rest.split("|")]
    if len(parts) < 2:
        raise SchemaError(f"line {lineno}: feature needs 'name | kind'")
    name, kind = parts[0], parts[1]
    extra = parts[2] if len(parts) > 2 else ""
    categories: tuple[str, ...] = ()
    sentinel = None
    if kind in ("categorical", "binary"):
        if extra:
            categories = tuple(t.strip() for t in extra.split(",") if t.strip())
    elif kind == "years-since":
        code = MISSING_HISTORY_CODE
        null_allowed = False
        for token in extra.split():
            if token.startswith("sentinel="):
                text = token.split("=", 1)[1]
                try:
                    code = float(text)
                except ValueError:
                    code = math.nan
                if not 0 <= code < math.inf:
                    raise SchemaError(f"line {lineno}: bad sentinel code {text!r}"
                                      " (want a finite number >= 0)")
            elif token == "null":
                null_allowed = True
            else:
                raise SchemaError(f"line {lineno}: unknown sentinel token {token!r}")
        sentinel = SentinelRule(code=code, null_allowed=null_allowed)
    elif extra:
        raise SchemaError(f"line {lineno}: {kind} takes no extra field")
    return FeatureSpec(name=name, kind=kind, categories=categories, sentinel=sentinel)


# -- cell encode/decode ----------------------------------------------

_NULLISH = frozenset({"", "null", "none", "na", "n/a"})


def encode_cell(spec: FeatureSpec, cell: str) -> float:
    """Parse one CSV cell into the numeric column encoding.

    Categorical and binary cells become category indices; everything else
    is a float. Raises ValueError with a bare reason; callers attach
    row/column context.
    """
    text = cell.strip()
    if spec.kind in ("categorical", "binary"):
        if text in spec.categories:
            return float(spec.categories.index(text))
        if spec.other_index is not None:
            return float(spec.other_index)
        raise ValueError(f"unknown category {text!r}")
    if spec.kind == "years-since" and text.lower() in _NULLISH:
        if spec.sentinel.null_allowed:
            return float(spec.sentinel.code)
        raise ValueError("blank cell (null not allowed here)")
    if spec.kind == "count":
        value = int(text)
        if value < 0:
            raise ValueError(f"negative count {text!r}")
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"count of {len(text)} digits too large") from None
    # numeric or years-since
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    if value < 0 and spec.kind == "years-since":
        raise ValueError(f"negative years value {text!r}")
    return value


def decode_column(spec: FeatureSpec, values) -> list[str]:
    """The CSV text of every value of a 1-d float array of one column: the
    category name, or ``number_text``'s rule, written out inline because
    this is write_csv's inner loop. encode_cell reads each back to the same
    value."""
    floats = values.tolist()
    if spec.kind in SUBSET_KINDS:
        return list(map(spec.categories.__getitem__, map(int, floats)))
    return [str(int(v)) if v.is_integer() else repr(v) for v in floats]


# -- the bundled 34-feature custody schema ----------------------------


def hart_schema(group_attribute: str | None = None) -> FeatureSchema:
    """The bundled 34-feature custody schema with High/Moderate/Low labels,
    read from the ``hart_schema`` fixture: editing that file changes every
    model's fingerprint.

    Years-since columns use the literal 100 code for "no history" and
    accept blank cells as that code.
    """
    schema = FeatureSchema.from_text(
        fixture_path("hart_schema").read_text(encoding="utf-8"))
    return schema if group_attribute is None else schema.with_group(group_attribute)


def fixture_path(name: str):
    """Path to a bundled fixture file (context-manager free for local installs)."""
    return resources.files("riskforest.fixtures").joinpath(name)
