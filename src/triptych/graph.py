"""Variance over a neighborhood graph: Geary ratio, spectrum, layout.

A simple undirected graph carries a notion of local variance for a node
covariate: the average squared difference across edges.  Its ratio to
the ordinary variance (the Geary ratio) measures smoothness, and
minimizing it leads to the generalized eigenproblem

    (Dg - M) x = mu * Dg x,

with M the adjacency matrix and Dg the diagonal degree matrix.  The
nontrivial eigenvectors of smallest mu are the smoothest nonconstant
node scores; the first two give a planar layout.  The same eigenproblem
is the correspondence analysis of M read as a contingency table, with
eigenvalue relation lambda = (1 - mu)^2.  It is solved in the symmetric
form (I - S M S) y = mu y with S = Dg^(-1/2) and x = S y, where S M S is
the standardized table of that correspondence analysis (eigenvalues 1 - mu).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .linalg import _as_float_matrix, _frozen, _orient_columns, _tie_flags
from .methods import MethodResult, _check_labels, pcaiv

__all__ = [
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
]

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as a symmetric 0/1 adjacency matrix.

    ``total_degree`` is the sum of all degrees, i.e. twice the edge
    count.  Build through :func:`make_graph`.
    """

    adjacency: np.ndarray
    degrees: np.ndarray
    total_degree: int
    node_labels: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return self.total_degree // 2


def make_graph(adjacency, node_labels=None) -> Graph:
    """Validate an adjacency matrix: square, 0/1, symmetric, no self loops."""
    M = _as_float_matrix(adjacency, "adjacency")
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"adjacency must be square, got {M.shape}")
    if not np.all(np.isin(M, (0.0, 1.0))):
        i, j = np.argwhere(~np.isin(M, (0.0, 1.0)))[0]
        raise ValueError(f"adjacency entries must be 0 or 1 (entry ({i}, {j}) is not)")
    if not np.array_equal(M, M.T):
        i, j = np.argwhere(M != M.T)[0]
        raise ValueError(f"adjacency must be symmetric (entries ({i}, {j}) / ({j}, {i}) differ)")
    loops = np.flatnonzero(np.diagonal(M))
    if loops.size:
        raise ValueError(f"self loops are not allowed (node {int(loops[0])})")
    labels = _check_labels(node_labels, n, "node", "v")
    degrees = M.sum(axis=1)
    return Graph(
        adjacency=_frozen(M),
        degrees=_frozen(degrees),
        total_degree=int(degrees.sum()),
        node_labels=labels,
    )


def laplacian(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency; annihilates the constant vector."""
    return np.diag(g.degrees) - g.adjacency


def component_subgraphs(g: Graph) -> list[tuple[np.ndarray, Graph]]:
    """Connected components as (node index array, subgraph) pairs,
    ordered by smallest node index.  A connected graph is returned as
    itself, ``[(np.arange(n), g)]``."""
    n_comp, labels = connected_components(csr_matrix(g.adjacency), directed=False)
    if n_comp == 1:
        return [(np.arange(g.n_nodes), g)]
    out = []
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        sub = make_graph(
            g.adjacency[np.ix_(idx, idx)],
            node_labels=[g.node_labels[i] for i in idx],
        )
        out.append((idx, sub))
    return out


def _covariates(g: Graph, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] != g.n_nodes:
        raise ValueError(
            f"covariates must have one row per node ({g.n_nodes}), got shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("covariates contain non-finite entries")
    return X


def local_variance(g: Graph, X) -> np.ndarray:
    """Average squared difference across edges, per covariate column.

    For column x this is the double sum of adjacency-weighted squared
    differences over ordered node pairs, divided by twice the total
    degree; equivalently x' (Dg - M) x / total_degree.  Zero exactly for
    constant columns.
    """
    if g.total_degree == 0:
        raise ValueError("local variance needs at least one edge")
    X = _covariates(g, X)
    L = laplacian(g)
    # Ordered-pair double sum = 2 x'Lx, then the 1/(2 * total_degree) factor.
    return np.einsum("ij,ik,kj->j", X, L, X) / g.total_degree


def geary(g: Graph, x) -> float:
    """Generalized Geary ratio x'(Dg - M)x / x'Dg x of a node vector.

    Zero for the constant vector; equals mu when x is an eigenvector of
    the graph eigenproblem (a Rayleigh quotient).
    """
    if g.total_degree == 0:
        raise ValueError("geary needs at least one edge")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != g.n_nodes:
        raise ValueError(f"x must have length {g.n_nodes}, got {x.shape[0]}")
    if not np.any(x):
        raise ValueError("geary is undefined for the zero vector")
    num = x @ laplacian(g) @ x
    den = np.sum(g.degrees * x * x)
    if den == 0.0:
        raise ValueError("geary is undefined: x is supported only on isolated nodes")
    return float(num / den)


def classical_geary(g: Graph, X) -> np.ndarray:
    """Classical Geary ratio per covariate column: local variance divided
    by the (uniform-weight) variance of the column."""
    X = _covariates(g, X)
    loc = local_variance(g, X)
    var = np.mean((X - np.mean(X, axis=0)) ** 2, axis=0)
    dead = np.flatnonzero(var == 0.0)
    if dead.size:
        raise ValueError(
            f"classical geary is undefined for constant column {int(dead[0])}"
        )
    return loc / var


def local_covariance(g: Graph, X) -> np.ndarray:
    """Covariance-like matrix X' (Dg - M) X / (2 * total_degree).

    Its diagonal is half the per-column local variance (the two source
    formulas differ by that factor, kept as stated).  For a graph of
    disjoint same-size complete groups this matrix is proportional to
    the within-group covariance of a discriminant analysis on those
    groups.
    """
    if g.total_degree == 0:
        raise ValueError("local covariance needs at least one edge")
    X = _covariates(g, X)
    V = X.T @ laplacian(g) @ X / (2 * g.total_degree)
    return (V + V.T) / 2.0


@dataclass(frozen=True)
class GraphSpectrum:
    """Nontrivial eigenpairs of (Dg - M) x = mu Dg x.

    ``eigenvalues`` is nondecreasing in [0, 2]; ``vectors`` has one
    column per eigenpair, orthonormal in the degree metric
    (vectors' Dg vectors = I).  The trivial pair (mu = 0, constant
    vector) is dropped, once per connected component.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    trivial_dropped: bool
    n_components: int


def spectrum(g: Graph, k: int | None = None, per_component: bool = False) -> GraphSpectrum:
    """Smallest-mu nontrivial eigenpairs of the graph eigenproblem.

    Parameters
    ----------
    g : Graph
    k : int, optional
        Number of eigenpairs to return; all nontrivial ones by default.
        A connected graph on n nodes has n - 1.  ``k`` is checked before
        any eigensolve, and only the pairs it asks for are computed.
    per_component : bool
        A disconnected graph is rejected unless this is set, in which
        case each connected component is analyzed separately (each
        dropping its own constant vector) and the eigenpairs are pooled
        in nondecreasing mu order, with vectors supported on their
        component and zero elsewhere.

    Raises
    ------
    ValueError
        Disconnected graph without ``per_component``; an isolated node
        (degenerate weight matrix); k larger than the number of
        nontrivial pairs.
    """
    n = g.n_nodes
    parts = component_subgraphs(g)
    n_comp = len(parts)
    if n_comp > 1 and not per_component:
        raise ValueError(
            f"graph is disconnected ({n_comp} components); "
            "pass per_component=True to analyze components separately"
        )
    for idx, sub in parts:
        if idx.size < 2:
            raise ValueError(
                f"node '{sub.node_labels[0]}' is isolated; "
                "the degree weighting is degenerate there"
            )
    total = n - n_comp
    if k is None:
        k = total
    elif not 1 <= k <= total:
        raise ValueError(
            f"k must be in [1, {total}] (the graph has {total} nontrivial eigenpairs)"
        )
    mus, blocks = [np.zeros(0)], [np.zeros((n, 0))]
    for idx, sub in parts:
        s = 1.0 / np.sqrt(sub.degrees)
        mu, Y = eigh(np.eye(idx.size) - s[:, None] * sub.adjacency * s,
                     subset_by_index=[0, min(k, idx.size - 1)])
        # The component is connected, so exactly one trivial pair leads.
        if mu[0] > 1e-8:
            raise np.linalg.LinAlgError(
                f"expected a zero leading eigenvalue, got {mu[0]:.3e}"
            )
        block = np.zeros((n, mu.size - 1))
        block[idx] = s[:, None] * Y[:, 1:]
        mus.append(mu[1:])
        blocks.append(block)
    mu = np.concatenate(mus)
    take = np.argsort(mu, kind="stable")[:k]
    vectors = np.hstack(blocks)[:, take]
    _orient_columns(vectors)
    return GraphSpectrum(
        eigenvalues=_frozen(mu[take]),
        vectors=_frozen(vectors),
        trivial_dropped=True,
        n_components=n_comp,
    )


def layout(g: Graph) -> np.ndarray:
    """Planar coordinates from the two smoothest nontrivial eigenvectors.

    Each of the two vectors is scaled by sqrt(1 - mu) when that is
    positive; at or beyond mu = 1 the vector is left unscaled (still
    orthonormal in the degree metric).  When the two eigenvalues are
    tied, or the second ties with the third, the returned pair is one
    arbitrary orthonormal choice from the degenerate eigenspace and a
    warning is issued.
    """
    if g.n_nodes < 3:
        raise ValueError("layout needs at least 3 nodes")
    sp = spectrum(g, k=min(3, g.n_nodes - 1))
    mu = sp.eigenvalues
    if np.any(_tie_flags(mu[::-1])):
        warnings.warn(
            "layout eigenvalues are degenerate; the coordinate pair is one "
            "arbitrary orthonormal choice from the tied eigenspace",
            stacklevel=2,
        )
    coords = np.array(sp.vectors[:, :2])
    for j in range(2):
        if 1.0 - mu[j] > 1e-12:
            coords[:, j] *= np.sqrt(1.0 - mu[j])
    return coords


def regress_on_covariates(g: Graph, X, k: int, q: int | None = None) -> MethodResult:
    """Explain the smoothest graph eigenvectors by node covariates.

    Takes the k smallest-mu nontrivial eigenvectors as the response
    block and runs :func:`triptych.methods.pcaiv` of the covariates onto
    them with uniform node weights, at analysis rank ``q``.

    Extras add ``graph_eigenvalues`` (the k response mu values) and
    ``explained_share``: per response eigenvector, the fraction of its
    (uniform-weight) variance reproduced by the covariates.
    """
    sp = spectrum(g, k=k)
    Y = np.asarray(sp.vectors)
    X = _covariates(g, X)
    res = pcaiv(X, Y, q=q)
    Yc = Y - np.mean(Y, axis=0)
    fitted = res.extras["fitted_responses"]
    share = np.sum(fitted**2, axis=0) / np.sum(Yc**2, axis=0)
    extras = dict(res.extras)
    extras["graph_eigenvalues"] = sp.eigenvalues
    extras["explained_share"] = share
    return MethodResult(
        method="graph_regress",
        decomposition=res.decomposition,
        scree=res.scree,
        row_coords=res.row_coords,
        col_coords=res.col_coords,
        extras=extras,
    )
