"""Cost-sensitive random forests for custody risk scoring, plus the audit
toolkit that goes with them: confusion-matrix measures, ROC/AUC, group
fairness criteria, and k-anonymity measurement."""

__version__ = "0.17.0"

from ._lazy import attach

# Each public name imports its submodule on first use, so that a process
# loads only the layers it runs.
__getattr__, __dir__, __all__ = attach(__name__, {
    "data": ("Dataset", "FeatureSchema", "FeatureSpec", "SentinelRule",
             "VALIDATION_MARGINALS", "fixture_path", "generate_synthetic",
             "generate_two_group", "hart_schema", "hart_synthetic",
             "k_anonymity", "load_csv", "split_holdout", "write_csv"),
    "fairness": ("GroupedOutcomes", "check_calibration",
                 "check_equalized_odds", "check_error_rate_balance",
                 "check_statistical_parity", "impossibility_recipe",
                 "impossibility_search"),
    "forest": ("CalibrationResult", "Forest", "ForestConfig",
               "calibrate_cost_ratio", "load_forest", "oob_predict",
               "predict_dataset", "predict_forest", "save_forest",
               "train_forest"),
    "metrics": ("ConfusionMatrix", "MetricReport", "agreement_table", "auc",
                "confusion_from_predictions", "derive_metrics",
                "random_baseline", "roc_points"),
    "tree": ("SplitRule", "TreeNode", "predict_tree", "train_tree"),
})
