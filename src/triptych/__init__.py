"""Metric-weighted multivariate analysis built on one eigendecomposition.

A triple bundles a data matrix with a variable metric and observation
weights; its generalized eigendecomposition (:mod:`.linalg`) is the
single computational core.  Principal components, correspondence
analysis, discriminant analysis, instrumental-variable analysis and
canonical correlations (:mod:`.methods`) differ only in how they build
the triple; graph smoothness analysis (:mod:`.graph`) reaches the same
eigenproblem through the Laplacian; :mod:`.compare` measures closeness
of two analyses through the RV coefficient.
"""

from .linalg import (
    NotPositiveDefiniteError,
    Triple,
    Decomposition,
    TransitionResiduals,
    make_triple,
    center_columns,
    decompose,
    decompose_gram_metric,
    transition_check,
    characterizing_operators,
)
from .compare import covv, rv, rv_triples, rv_max
from .scree import ScreeRow, ScreeTable
from .methods import (
    ContingencyTable,
    GroupCoding,
    MethodResult,
    pca,
    ca,
    chi_square,
    lda,
    pcaiv,
    cca,
)
from .graph import (
    Graph,
    GraphSpectrum,
    make_graph,
    laplacian,
    component_subgraphs,
    local_variance,
    geary,
    classical_geary,
    local_covariance,
    spectrum,
    layout,
    regress_on_covariates,
)
from .io import (
    Dataset,
    read_table,
    read_edges,
    read_weights,
    write_scree,
    write_coordinates,
    write_manifest,
)

__version__ = "0.1.0"

__all__ = [
    "NotPositiveDefiniteError",
    "Triple",
    "Decomposition",
    "TransitionResiduals",
    "make_triple",
    "center_columns",
    "decompose",
    "decompose_gram_metric",
    "transition_check",
    "characterizing_operators",
    "covv",
    "rv",
    "rv_triples",
    "rv_max",
    "ScreeRow",
    "ScreeTable",
    "ContingencyTable",
    "GroupCoding",
    "MethodResult",
    "pca",
    "ca",
    "chi_square",
    "lda",
    "pcaiv",
    "cca",
    "Graph",
    "GraphSpectrum",
    "make_graph",
    "laplacian",
    "component_subgraphs",
    "local_variance",
    "geary",
    "classical_geary",
    "local_covariance",
    "spectrum",
    "layout",
    "regress_on_covariates",
    "Dataset",
    "read_table",
    "read_edges",
    "read_weights",
    "write_scree",
    "write_coordinates",
    "write_manifest",
    "__version__",
]
