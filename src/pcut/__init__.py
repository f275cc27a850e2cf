"""Minimum-cut graph partitioning under cluster-size floors.

The package builds families of rank-modulated-degree graphs over feature
data or raw networks, generates candidate partitions with spectral methods
or harmonic label propagation, and selects the feasible partition with the
smallest cut on a fixed baseline graph.
"""

__version__ = "0.1.0"

from .construction import (FeatureMatrix, avg_knn_distance, baseline_graph,
                           knn_graph)
from .engine import CandidateCut, PCutConfig, generate_candidates, pcut_select
from .errors import (ConstraintError, InputError, NoFeasiblePartitionError,
                     NumericError, ParameterError, PCutError)
from .evaluation import ErrorReport, clustering_error, hungarian_match
from .graph import Partition, WeightedGraph, connected_components, cut_value
from .propagation import LabelSet, grf_propagate, grf_scores
from .ranking import eta_connectivity, eta_similarity, rank
from .rmd import modulated_k, rmd_connectivity_graph, rmd_similarity_graph
from .spectral import (SpectralConfig, kmeans, laplacian,
                       smallest_eigenvectors, spectral_clustering)
from .synth import (SbmSpec, crescent_dataset, gaussian_mixture, sbm_bounds,
                    sbm_generate)

__all__ = [
    "CandidateCut", "ConstraintError", "ErrorReport", "FeatureMatrix",
    "InputError", "LabelSet", "NoFeasiblePartitionError", "NumericError",
    "ParameterError", "PCutConfig", "PCutError", "Partition", "SbmSpec",
    "SpectralConfig", "WeightedGraph",
    "avg_knn_distance", "baseline_graph", "clustering_error",
    "connected_components", "crescent_dataset",
    "cut_value", "eta_connectivity", "eta_similarity", "gaussian_mixture",
    "generate_candidates",
    "grf_propagate", "grf_scores", "hungarian_match", "kmeans", "knn_graph",
    "laplacian", "modulated_k", "pcut_select", "rank",
    "rmd_connectivity_graph", "rmd_similarity_graph", "sbm_bounds",
    "sbm_generate", "smallest_eigenvectors", "spectral_clustering",
]
