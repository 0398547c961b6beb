"""One-shot factorization-guided pruning with sparsity-preserving training.

Weights are scored by how poorly a low-rank non-negative factorization
reconstructs them, binary masks are fixed once via statistically scaled
thresholds (with an automated search hitting a global sparsity target), and
the sparse network is then trained with strict gradient and weight masking so
the zero pattern never changes.
"""

from .checkpoint import CheckpointError, load_checkpoint, read_container, save_checkpoint, write_container
from .datasets import CsvSource, Dataset, DatasetError, IdxSource, SyntheticBlobs, load_dataset
from .masking import (
    GammaSearchConfig,
    GammaSearchResult,
    GammaTraceEntry,
    LayerSparsity,
    LayerThreshold,
    SparsityReport,
    ThresholdConfig,
    generate_all_masks,
    layer_thresholds,
    sparsity_report,
    tune_gamma,
)
from .network import (
    Conv2d,
    Flatten,
    FlopsEstimate,
    Linear,
    Network,
    ReLU,
    convert_to_masked,
    count_zero_weights,
    flops_estimate,
    init_network,
    softmax_cross_entropy,
)
from .nmf import MagnitudeScorer, NmfConfig, NmfResult, factorize, score_layer, score_magnitude
from .pipeline import RunReport, StageError, compute_scores, run_pipeline
from .runconfig import ConfigError, RunConfig, load_config, parse_config
from .seeds import derive_seed
from .trainer import (
    EpochMetrics,
    SparsityViolationError,
    TrainConfig,
    evaluate,
    lr_at,
    masked_train_step,
    momentum_buffers,
    run_training,
    sgd_step,
)

__version__ = "0.1.0"
