"""Domain-adaptive text classification: a CNN sentiment classifier trained
jointly on labeled source documents and unlabeled target documents via
feature-distribution alignment, entropy minimization, and self-ensemble
bootstrapping, on a self-contained float64 autodiff tape."""

from .autodiff import GradCheckReport, Tape, Tensor, grad_check
from .config import TrainConfig, parse_config_file
from .data import (
    Corpus,
    Document,
    Vocab,
    build_vocab,
    load_corpus,
    load_pretrained_embeddings,
    map_rating_to_label,
    save_corpus,
    split_dev,
    tokenize,
)
from .ensemble import EnsembleState, predict_all
from .errors import ConfigError, DataError, NumericalError, ShapeError, TextdaError
from .evaluation import (
    EvalReport,
    FilterReport,
    accuracy,
    confusion_matrix,
    evaluate_corpus,
    filter_analysis,
    macro_f1,
    render_filter_report,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    bootstrap_loss,
    entropy_min_loss,
    feature_adaptation_loss,
    mmd_rbf,
    rampup_weight,
    source_cross_entropy,
    symmetric_kl,
    total_loss,
)
from .model import ModelParams, init_params, load_checkpoint, save_checkpoint
from .synth import SyntheticSpec, generate_synthetic
from .trainer import History, RunResult, run_multi_seed, run_seed, select_model, train

__version__ = "0.1.0"
