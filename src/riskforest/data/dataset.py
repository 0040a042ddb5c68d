"""Validated tabular datasets and CSV round-tripping.

A Dataset is immutable after construction: its arrays are marked
read-only so every tree trained on it can share them. Feature values
live in a float matrix; categorical and binary cells are stored as
category indices, years-since "no history" as the literal sentinel code.
One schema check, ``FeatureSchema.check_rows``, judges the values of a
parsed CSV chunk, a Dataset's matrix and a scored row alike; the CSV
parser only converts cell text.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from ..errors import DataError, SchemaError, SchemaMismatchError
from .schema import (
    LABEL_COLUMN,
    SUBSET_KINDS,
    FeatureSchema,
    FeatureSpec,
    decode_column,
    encode_cell,
)

#: The most rows numpy can index; a larger row count or bootstrap is refused.
MAX_ROWS = int(np.iinfo(np.intp).max)


def check_setting(name: str, value, least: int) -> int:
    """An integer setting (not a bool) from ``least`` to MAX_ROWS, as an int:
    the one check of every forest setting and seed."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and least <= value <= MAX_ROWS):
        return int(value)
    raise DataError(f"{name} {value!r} is not an integer from {least}"
                    f" to {MAX_ROWS}")


@dataclass(frozen=True)
class Dataset:
    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray
    groups: np.ndarray | None = None
    provenance: str = ""

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.int64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.groups is not None:
            groups = np.asarray(self.groups, dtype=object)
            object.__setattr__(self, "groups", groups)
        _validate(self.schema, X, y, self.groups)
        X.flags.writeable = False
        y.flags.writeable = False
        if self.groups is not None:
            self.groups.flags.writeable = False

    def __len__(self) -> int:
        return self.X.shape[0]

    @cached_property
    def ranks(self) -> "ColumnRanks":
        """Each column's distinct values and each cell's index among them.

        Computed on first use and then shared, read-only, by every tree
        trained on this dataset.
        """
        return ColumnRanks(self.X)

    def label_marginals(self) -> np.ndarray:
        counts = np.bincount(self.y, minlength=self.schema.n_labels)
        return counts / counts.sum()

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        groups = self.groups[idx] if self.groups is not None else None
        return Dataset(self.schema, self.X[idx], self.y[idx], groups,
                       provenance=self.provenance)

    def rows_equal(self, other: "Dataset") -> bool:
        groups = [g if g is None else list(g) for g in (self.groups, other.groups)]
        return (self.schema.fingerprint() == other.schema.fingerprint()
                and np.array_equal(self.X, other.X)
                and np.array_equal(self.y, other.y) and groups[0] == groups[1])


class ColumnRanks:
    """Per-column sorted distinct values and the rank of every cell.

    Column j's distinct values are ``values[start[j]:start[j + 1]]`` in
    ascending order, and ``rank[i, j]`` is the index of ``X[i, j]`` among
    them, so comparing ranks compares values.
    """

    def __init__(self, X: np.ndarray):
        n, d = X.shape
        self.rank = np.empty((n, d), dtype=np.int32)
        columns = []
        for j in range(d):
            distinct, self.rank[:, j] = np.unique(X[:, j], return_inverse=True)
            columns.append(distinct)
        self.n_values = np.array([c.size for c in columns], dtype=np.int64)
        self.start = np.concatenate(([0], np.cumsum(self.n_values)))
        self.values = np.concatenate(columns)
        for a in (self.rank, self.n_values, self.start, self.values):
            a.flags.writeable = False


def _validate(schema: FeatureSchema, X: np.ndarray, y: np.ndarray, groups) -> None:
    schema.check_rows(X)
    n = X.shape[0]
    if y.shape != (n,):
        raise DataError("label vector length does not match row count")
    if n and (y.min() < 0 or y.max() >= schema.n_labels):
        bad = int(np.flatnonzero((y < 0) | (y >= schema.n_labels))[0])
        raise DataError(f"label index out of range at row {bad}", row=bad)
    if groups is not None and len(groups) != n:
        raise DataError("group vector length does not match row count")


# -- CSV ---------------------------------------------------------------


def load_csv(path, schema: FeatureSchema) -> Dataset:
    """Load a labeled dataset, validating every cell against the schema."""
    X, y, groups = _parse_csv(path, schema, require_label=True)
    return Dataset(schema, X, y, groups, provenance=str(path))


def load_unlabeled_csv(path, schema: FeatureSchema):
    """Load features (and groups, if present) from a CSV that may lack labels.

    Returns (X, y_or_None, groups_or_None).
    """
    return _parse_csv(path, schema, require_label=False)


#: Records parsed or written together; bounds the cell strings held at once.
CSV_CHUNK_ROWS = 128


def _parse_csv(path, schema: FeatureSchema, require_label: bool):
    """Column by column, in chunks of rows. The first bad input in file
    order (row, then the row's cells in schema order, then its label)
    raises the DataError a row-by-row read would, with the reason
    encode_cell gives for the bad cell's text."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = _read_records(path, reader, 1)
        if not first:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in first[0]]
        expected = set(schema.feature_names) | {LABEL_COLUMN}
        if schema.group_attribute is not None:
            expected.add(schema.group_attribute)
        missing = [n for n in schema.feature_names if n not in header]
        has_label = LABEL_COLUMN in header
        if require_label and not has_label:
            missing.append(LABEL_COLUMN)
        extra = [h for h in header if h not in expected]
        if missing or extra:
            raise SchemaMismatchError(
                f"{path}: columns do not match schema"
                f" (missing: {', '.join(missing) or 'none'};"
                f" extra: {', '.join(extra) or 'none'})",
                missing=missing, extra=extra,
            )
        col_of = {name: header.index(name) for name in header}
        has_group = (
            schema.group_attribute is not None and schema.group_attribute in header
        )

        blocks, labels, groups = [], [], []
        done = 0  # rows before this chunk
        while chunk := _read_records(path, reader, CSV_CHUNK_ROWS):
            lengths = np.fromiter(map(len, chunk), dtype=np.int64,
                                  count=len(chunk))
            bad = np.flatnonzero(lengths != len(header))
            good = chunk[:bad[0]] if bad.size else chunk
            columns = list(zip(*good)) if good else [()] * len(header)
            errors = []  # (row, position in the row, error)
            if bad.size:
                r = done + int(bad[0]) + 1
                errors.append((r, -1, DataError(
                    f"row {r}: expected {len(header)} cells,"
                    f" got {len(chunk[bad[0]])}", row=r)))
            # A cell after its column's first conversion fault stays 0,
            # which every kind accepts, so check_rows names only real faults.
            block = np.zeros((len(good), schema.n_features))
            cells = [columns[col_of[spec.name]] for spec in schema.specs]
            faults = []  # (index in the chunk, column) of bad cells
            for j, spec in enumerate(schema.specs):
                i = _encode_column(spec, cells[j], block[:, j])
                if i is not None:
                    faults.append((i, j))
            try:
                schema.check_rows(block)
            except DataError as exc:
                faults.append((exc.row, schema.spec_index(exc.column)))
            if faults:
                i, j = min(faults)
                spec, r = schema.specs[j], done + i + 1
                try:
                    encode_cell(spec, cells[j][i])
                except ValueError as exc:
                    errors.append((r, j, DataError(
                        f"row {r}, column {spec.name}: {exc}",
                        row=r, column=spec.name)))
            if has_label:
                codes, fault = _encode_labels(schema, columns[col_of[LABEL_COLUMN]])
                if fault is not None:
                    r = done + fault[0] + 1
                    errors.append((r, schema.n_features, DataError(
                        f"row {r}: label {fault[1]!r} not in"
                        f" {'/'.join(schema.label_set)}",
                        row=r, column=LABEL_COLUMN)))
                labels.append(codes)
            if errors:
                raise min(errors, key=lambda e: e[:2])[2]
            blocks.append(block)
            if has_group:
                groups += map(str.strip, columns[col_of[schema.group_attribute]])
            done += len(chunk)

    if not blocks:
        raise DataError(f"{path}: no data rows")
    y = np.concatenate(labels) if has_label else None
    g = np.asarray(groups, dtype=object) if has_group else None
    return np.concatenate(blocks), y, g


def _read_records(path, reader, n: int) -> list[list[str]]:
    """The next n records or fewer; one the csv module cannot read (say, a
    cell over its field size limit) raises a DataError naming the line."""
    try:
        return list(islice(reader, n))
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _encode_column(spec: FeatureSpec, cells, out: np.ndarray):
    """Write the value of each cell's text into ``out``, unjudged; return
    None, or the index of the first cell encode_cell refuses.

    Most columns convert in one pass of C-level conversions. A column that
    fails it (a blank, an unknown or padded category, a malformed number)
    is walked cell by cell with encode_cell up to its first refused cell.
    """
    try:
        if spec.kind in SUBSET_KINDS:
            codes = {c: float(i) for i, c in enumerate(spec.categories)}
            values = map(codes.__getitem__, cells)
        elif spec.kind == "count":
            values = map(float, map(int, cells))
        else:
            values = map(float, cells)
        out[:] = np.fromiter(values, dtype=float, count=len(cells))
        return None
    except (KeyError, ValueError, OverflowError):
        pass
    for i, cell in enumerate(cells):
        try:
            out[i] = encode_cell(spec, cell)
        except ValueError:
            return i
    return None


def _encode_labels(schema: FeatureSchema, cells):
    """(label indices, None), or (None, (index, stripped text)) of the
    first cell that names no label."""
    index = {name: i for i, name in enumerate(schema.label_set)}
    try:
        return np.fromiter(map(index.__getitem__, cells), dtype=np.int64,
                           count=len(cells)), None
    except KeyError:
        pass
    codes = np.empty(len(cells), dtype=np.int64)
    for i, cell in enumerate(cells):
        text = cell.strip()
        if text not in index:
            return None, (i, text)
        codes[i] = index[text]
    return codes, None


def write_csv(dataset: Dataset, path) -> None:
    """Write the dataset in the canonical cell formatting (round-trip safe)."""
    schema = dataset.schema
    header = list(schema.feature_names) + [LABEL_COLUMN]
    if dataset.groups is not None:
        if schema.group_attribute is None:
            raise SchemaError("dataset has groups but schema names no group column")
        header.append(schema.group_attribute)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(dataset), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            columns = [decode_column(spec, dataset.X[rows, j])
                       for j, spec in enumerate(schema.specs)]
            columns.append(list(map(schema.label_set.__getitem__,
                                    dataset.y[rows].tolist())))
            if dataset.groups is not None:
                columns.append(list(map(str, dataset.groups[rows])))
            writer.writerows(zip(*columns))


# -- holdout splitting ---------------------------------------------------


def split_holdout(dataset: Dataset, fraction: float, seed: int):
    """Disjoint (rest, holdout) split; the holdout gets round(fraction * n) rows.

    Row order within each part follows the original dataset. Deterministic
    for a fixed seed.
    """
    n = len(dataset)
    if n < 2:
        raise DataError("need at least 2 rows to split")
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction {fraction} outside (0, 1)")
    n_hold = int(round(fraction * n))
    if n_hold == 0 or n_hold == n:
        raise DataError(f"fraction {fraction} of {n} rows leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n)
    hold = np.sort(perm[:n_hold])
    rest = np.sort(perm[n_hold:])
    return dataset.take(rest), dataset.take(hold)
