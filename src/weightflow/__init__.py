"""weightflow: generative modeling in neural-network weight space.

Train a population of small networks, canonicalize them modulo permutation
symmetry, optionally PCA-compress the flat weight vectors, fit a
flow-matching model, and sample new working checkpoints.
"""

from .bn_recalib import PooledStats, recalibrate
from .canonicalize import (AttentionAssignment, PermutationAssignment,
                           apply_attention_assignment, apply_permutation,
                           canonicalize_population, solve_lap_max,
                           solve_lap_min, transfusion_align, weight_match)
from .checkpoint_io import load_population, save_population
from .config import RunConfig, parse_config
from .data import LabeledDataset, load_idx, load_iris, make_blobs
from .errors import (ArgumentError, ConfigError, DataError, IntegrationError,
                     NumericError, ShapeError, TrainingDivergedError,
                     WeightFlowError)
from .flow import (FlowConfig, FlowModel, init_flow_model, load_flow,
                   rk4_integrate, sample, save_flow, train_flow)
from .metrics import (distribution_distances, iou, jensen_shannon, max_iou,
                      wasserstein_1d, wrong_set)
from .nn_core import (ArchitectureSpec, AttentionSpec, EvalResult, Population,
                      TrainHyper, evaluate, forward, init_population,
                      mha_forward, train_population)
from .pca import (PcaModel, default_latent_dim, fit_dual, fit_incremental,
                  fit_standard, inverse_transform, load_pca, save_pca,
                  transform)
from .pipeline import run_pipeline
from .rng import make_rng

__version__ = "0.1.0"
