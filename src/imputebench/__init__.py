"""Masked-matrix imputation benchmark toolkit.

Synthetic low-rank data generation, thirteen missingness mechanisms, an
entry-wise featurization with a ridge consumer, classical baseline
imputers, permutation plus adaptive two-model ensembling, an adaptive
pattern-proportion scheduler, and a seeded evaluation grid with normalized
accuracy reporting.
"""

from .core import (
    DataMatrix,
    DegenerateMaskError,
    Mask,
    MaskedDataset,
    SeedSpec,
    ShapeMismatchError,
    apply_mask,
    missing_fraction,
)
from .datagen import (
    Dirichlet,
    Gaussian,
    Laplace,
    LfmSpec,
    SpikeAndSlab,
    StudentT,
    sample_latent,
    sample_lfm,
)
from .missingness import (
    CalibrationError,
    PATTERN_DEFAULTS,
    PATTERN_TAGS,
    PatternSpec,
    calibrate_intercept,
    generate,
)
from .featurize import FeatureTable, SingularSystemError, build_features, ridge_on_features
from .imputers import (
    METHOD_DEFAULTS,
    METHOD_TAGS,
    ImputationResult,
    Imputer,
    impute_col_mean,
    impute_featurized_ridge,
    impute_ice,
    impute_knn,
    impute_soft,
    make_imputer,
)
from .ensemble import EnsembleSpec, adaptive_weight, blend, permutation_ensemble
from .scheduler import ProportionState, softmax_proportions, step, uniform_state
from .bench import (
    BenchReport,
    DatasetFormatError,
    DatasetRecord,
    discover_datasets,
    emit_report,
    imputation_accuracy,
    load_csv,
    load_mask_csv,
    rmse,
    run_benchmark,
    save_csv,
    save_mask_csv,
    standardize_observed,
)

__version__ = "0.1.0"
