"""Community detection for attributed networks.

The pipeline refines human labels into connected sub-communities, trains a
graph-convolutional encoder against pairwise co-membership targets, and
clusters the embedding with a CF-tree. Individual stages are usable on their
own: Leiden optimization, label refinement, the metrics suite, and the
synthetic benchmark generator.
"""

from .graph import (
    Graph,
    Partition,
    induced_subgraph,
    merge_partitions,
    split_into_components,
)
from .metrics import (
    conductance,
    connectivity_score,
    f1_score,
    modularity,
    nmi,
)
from .leiden import LeidenConfig, best_of_runs, leiden
from .refine import RefineConfig, ThresholdRule, refine_labels
from .gcn import (
    GcnModel,
    TrainingDiverged,
    load_checkpoint,
    normalized_adjacency,
    save_checkpoint,
    train,
)
from .loss import PairwiseTarget, pairwise_loss
from .birch import BirchConfig, birch_cluster
from .data_io import (
    DataError,
    DatasetBundle,
    SyntheticSpec,
    adjacency_as_features,
    generate_synthetic,
    load_dataset,
    load_partition,
    write_bundle,
    write_results,
)
from .pipeline import (
    RunConfig,
    RunMode,
    RunResult,
    metric_report,
    resolve_mu,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Partition",
    "induced_subgraph",
    "merge_partitions",
    "split_into_components",
    "conductance",
    "connectivity_score",
    "f1_score",
    "modularity",
    "nmi",
    "LeidenConfig",
    "best_of_runs",
    "leiden",
    "RefineConfig",
    "ThresholdRule",
    "refine_labels",
    "GcnModel",
    "TrainingDiverged",
    "load_checkpoint",
    "normalized_adjacency",
    "save_checkpoint",
    "train",
    "PairwiseTarget",
    "pairwise_loss",
    "BirchConfig",
    "birch_cluster",
    "DataError",
    "DatasetBundle",
    "SyntheticSpec",
    "adjacency_as_features",
    "generate_synthetic",
    "load_dataset",
    "load_partition",
    "write_bundle",
    "write_results",
    "RunConfig",
    "RunMode",
    "RunResult",
    "metric_report",
    "resolve_mu",
    "run",
    "__version__",
]
