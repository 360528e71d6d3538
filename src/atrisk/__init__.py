"""atrisk: imbalanced-classification toolkit for early at-risk prediction.

Pipeline pieces: cohort simulation, one-hot task encoding, stratified
splits, SMOTE/ADASYN oversampling, a from-scratch classifier suite,
threshold-tuned evaluation with grid search, and PCA scatter diagnostics.
Everything is seeded and deterministic; see the `atrisk` CLI for the
end-to-end workflow.
"""

from .data import (Cohort, LabeledDataset, SplitSpec, TaskId, TaskManifest,
                   encode, load_cohort, save_cohort, split)
from .evaluation import (EvalReport, GridSpec, evaluate, grid_search,
                         mann_whitney_auc, score_arm, sweep_thresholds)
from .models import ModelSpec, TrainedModel, fit, load_model
from .neighbors import knn_indices
from .pca import PcaModel, export_scatter, fit_pca, reconstruct, transform
from .resampling import (Provenance, ResampleConfig, ResampleResult, adasyn,
                         load_resampled, resample, smote)
from .simulate import SimConfig, build_manifest, default_manifest, simulate

__version__ = "0.1.0"

__all__ = [
    "Cohort", "LabeledDataset", "SplitSpec", "TaskId", "TaskManifest",
    "encode", "load_cohort", "save_cohort", "split",
    "EvalReport", "GridSpec", "evaluate", "grid_search", "mann_whitney_auc",
    "score_arm", "sweep_thresholds",
    "ModelSpec", "TrainedModel", "fit", "load_model",
    "knn_indices",
    "PcaModel", "export_scatter", "fit_pca", "reconstruct", "transform",
    "Provenance", "ResampleConfig", "ResampleResult", "adasyn",
    "load_resampled", "resample", "smote",
    "SimConfig", "build_manifest", "default_manifest", "simulate",
    "__version__",
]
