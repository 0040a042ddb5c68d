"""Schemas, datasets, synthetic generation, and privacy measurement."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "dataset": ("Dataset", "load_csv", "load_unlabeled_csv", "split_holdout",
                "write_csv"),
    "privacy": ("k_anonymity",),
    "schema": ("LABEL_COLUMN", "MISSING_HISTORY_CODE", "OTHER",
               "FeatureSchema", "FeatureSpec", "SentinelRule",
               "fixture_path", "hart_schema"),
    "synth": ("VALIDATION_MARGINALS", "generate_synthetic",
              "generate_two_group", "hart_synthetic"),
})
