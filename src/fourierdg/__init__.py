"""Domain-generalizing drug-response toolkit.

Trains a response classifier on multiple labeled source domains (cancer
types) and scores unseen domains.  Encoder features are projected onto a
fixed orthogonal real-Fourier basis; an asymmetric cosine loss clusters
drug-sensitive samples in frequency space while a gradient-reversal
adversary removes domain information.
"""

from .data import (
    GeneMatrix,
    NormStats,
    SampleMeta,
    align_genes,
    binarize_ic50,
    load_expression,
    load_metadata,
    lodo_split,
    select_hvg,
    write_expression,
    write_metadata,
    zscore_fit_apply,
)
from .errors import FourierDGError, TrainingDivergedError
from .evaluate import (
    ablate_faac,
    auroc,
    lodo_run,
    roc_points,
)
from .fourier import FourierBasis, build_basis, project, reconstruct
from .losses import (
    LossBreakdown,
    asymmetric_loss,
    class_cosines,
    classification_loss,
    domain_adversarial_loss,
    total_loss,
)
from .model import (
    Checkpoint,
    GrlConfig,
    ModelParams,
    checkpoint_to_json,
    encode,
    forward_full,
    gradient_suite,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .synth import SynthConfig, generate
from .tensor_core import GradTape, Param, RngState, grad_check
from .train import EpochLog, TrainConfig, fit, make_batches, predict

__version__ = "0.1.0"

__all__ = [
    "GeneMatrix", "NormStats", "SampleMeta", "align_genes", "binarize_ic50",
    "load_expression", "load_metadata", "lodo_split", "select_hvg",
    "write_expression", "write_metadata", "zscore_fit_apply",
    "FourierDGError", "TrainingDivergedError",
    "ablate_faac", "auroc", "lodo_run", "roc_points",
    "FourierBasis", "build_basis", "project", "reconstruct",
    "LossBreakdown", "asymmetric_loss", "class_cosines",
    "classification_loss", "domain_adversarial_loss", "total_loss",
    "Checkpoint", "GrlConfig", "ModelParams", "checkpoint_to_json", "encode",
    "forward_full", "gradient_suite", "init_params", "load_checkpoint",
    "save_checkpoint",
    "SynthConfig", "generate",
    "GradTape", "Param", "RngState", "grad_check",
    "EpochLog", "TrainConfig", "fit", "make_batches", "predict",
]
