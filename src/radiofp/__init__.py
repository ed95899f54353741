"""Radiometric device identification from SDR error-signal phase statistics.

Ten fluctuation parameters are extracted from the per-sample phase of the
error signal left after subtracting a known trans-noise reference from a
synchronized capture; a from-scratch random forest (plus kNN / logistic
baselines) classifies the transmitting device, with point-biserial
significance analysis and local surrogate explanations on top.
"""

from .classify import (
    CVResult,
    ForestParams,
    HyperparamGrid,
    RandomForestModel,
    cross_validate,
    evaluate,
    feature_importances,
    load_model,
    logistic_regression_train,
    model_from_text,
    model_to_text,
    random_grid_search,
    save_model,
    stratified_kfold,
    train_forest,
    train_knn,
    train_tree,
)
from .dataset import FeatureStats, LabeledFeatureSet
from .explain import ExplainConfig, Explanation, explain_instance, perturb
from .features import FEATURE_NAMES, feature_matrix
from .pipeline import (
    DEFAULT_FRAME_LEN,
    ImpairmentProfile,
    error_phase,
    gen_transnoise,
    run_capture_pipeline,
    simulate_device,
    transnoise_etalon,
)
from .stats import (
    histogram,
    p_value_two_sided,
    pearson,
    pearson_matrix,
    significance_report,
)

__version__ = "0.1.0"
