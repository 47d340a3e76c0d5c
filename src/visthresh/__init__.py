"""Learning local distortion-visibility thresholds from image quality scores."""

from .errors import DataError, NumericError
from .evaluation import (
    EvalResult,
    MonotoneCubic,
    PairedData,
    evaluate,
    fit_monotonic_cubic,
    intensity_histogram,
    load_groundtruth,
    pair_with_map,
    plcc,
    rmse,
)
from .features import (
    FeatureMaps,
    augment_patch,
    feature_planes,
    gaussian_window,
    local_moments,
    mscn_map,
)
from .image_io import (
    GrayImage,
    ManifestRecord,
    QualityRecord,
    load_manifest,
    load_pgm,
    load_quality_records,
    normalize_score,
    save_pgm,
)
from .inference import (
    ThresholdMap,
    decimate_map,
    export_map,
    load_map,
    normalize_map,
    predict_map,
)
from .quality_model import T_MIN, grad_wrt_threshold_scale, mean_abs_error, predict_quality, sample_loss
from .regressor import (
    PNetParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .synthetic import SynthConfig, generate
from .training import (
    TrainConfig,
    TrainingSample,
    TrainReport,
    adam_step,
    build_samples,
    gradcheck,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "DataError", "NumericError",
    "EvalResult", "MonotoneCubic", "PairedData", "evaluate", "fit_monotonic_cubic",
    "intensity_histogram", "load_groundtruth", "pair_with_map", "plcc", "rmse",
    "FeatureMaps", "augment_patch", "feature_planes", "gaussian_window",
    "local_moments", "mscn_map",
    "GrayImage", "ManifestRecord", "QualityRecord", "load_manifest", "load_pgm",
    "load_quality_records", "normalize_score", "save_pgm",
    "ThresholdMap", "decimate_map", "export_map", "load_map", "normalize_map", "predict_map",
    "T_MIN", "grad_wrt_threshold_scale", "mean_abs_error", "predict_quality", "sample_loss",
    "PNetParams", "backward", "forward", "init_params",
    "load_checkpoint", "save_checkpoint",
    "SynthConfig", "generate",
    "TrainConfig", "TrainingSample", "TrainReport", "adam_step", "build_samples",
    "gradcheck", "train",
]
