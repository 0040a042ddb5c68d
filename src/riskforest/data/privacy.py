"""k-anonymity measurement over released tables.

The k of a table under a quasi-identifier set is the smallest number of
rows sharing any quasi-identifier value combination that occurs: every
combination in the release matches at least k individuals. Measurement
only; no anonymizing transformations here.
"""

from __future__ import annotations

from collections import Counter

from ..errors import DataError, SchemaError
from .dataset import Dataset
from .schema import LABEL_COLUMN, decode_column


def k_anonymity(table, quasi_identifiers) -> int:
    """Minimum multiplicity over occurring quasi-identifier combinations.

    ``table`` is either a Dataset (quasi-identifiers are column names:
    features, the group attribute, or the label column) or a plain
    sequence of rows (quasi-identifiers are column indices).
    """
    qis = list(quasi_identifiers)
    if not qis:
        raise DataError("quasi_identifiers must be nonempty")
    if isinstance(table, Dataset):
        rows = _dataset_rows(table, qis)
    else:
        rows = [tuple(row[q] for q in qis) for row in table]
    if not rows:
        raise DataError("k-anonymity is undefined for an empty table")
    return min(Counter(rows).values())


def _dataset_rows(ds: Dataset, qis):
    columns = []
    for name in qis:
        if name == LABEL_COLUMN:
            columns.append([ds.schema.label_set[v] for v in ds.y])
        elif name == ds.schema.group_attribute:
            if ds.groups is None:
                raise SchemaError(f"table carries no {name!r} values")
            columns.append(list(ds.groups))
        else:
            j = ds.schema.spec_index(name)
            columns.append(decode_column(ds.schema.specs[j], ds.X[:, j]))
    return list(zip(*columns)) if columns else []
