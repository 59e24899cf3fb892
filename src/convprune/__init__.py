"""convprune: salience-based edge pruning, pooled global descriptors, and
triplet fine-tuning for small instance-retrieval CNNs."""

from .dataset import RetrievalDataset, generate_dataset
from .finetune import FinetuneConfig, Triplet, sample_triplets, train_baseline, triplet_loss
from .network import NetworkModel, forward_features, init_network, load_model, save_model, tinynet_architecture
from .pooling import Descriptor, RoiGrid, pool_features, rmac_grid, rmac_pool, sqp_pool
from .pruner import PruneReport, apply_pruning, layer_size_report, select_threshold
from .retrieval import DescriptorIndex, EvalResult, average_precision, evaluate, rank, recall4, similarity
from .salience import (ActivationStats, SalienceMap, collect_activation_stats,
                       salience_h1, salience_h2, salience_h3, salience_h4)
from .tensor import GradientTape, ShapeError

__version__ = "0.1.0"
