"""Published performance figures that the bundled fixtures reproduce.

The two confusion-matrix fixtures carry percentage cells rounded to two
decimals, so every figure recomputed from them can drift from the
printed value by a rounding residue; comparisons use an absolute
tolerance of 0.0015.
"""

#: Absolute tolerance for comparing recomputed figures against printed ones.
TABLE_TOLERANCE = 0.0015

#: Printed performance figures, keyed by fixture, in the row order of
#: the ``reproduce-tables`` report.
PUBLISHED = {
    "oob_construction": {
        "fixture": "table3_oob.csv",
        "overall_accuracy": 0.6850,
        "very_dangerous": 0.0240,
        "very_cautious": 0.1080,
        "sensitivity": {"High": 0.7260, "Moderate": 0.7020, "Low": 0.6530},
        "precision": {"High": 0.4850, "Moderate": 0.7020, "Low": 0.7560},
    },
    "validation_2013": {
        "fixture": "table4_validation.csv",
        "overall_accuracy": 0.6280,
        "very_dangerous": 0.0238,
        "very_cautious": 0.1206,
        "sensitivity": {"High": 0.5275, "Moderate": 0.6728, "Low": 0.6035},
        "precision": {"High": 0.3383, "Moderate": 0.6384, "Low": 0.7860},
    },
}
