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

The graph is stored sparse, as a CSR adjacency and its degree vector, so
reading, validating, splitting into components and the local variance
statistics (sums over the edge list) all take O(|E|) memory.  An n x n
array is built only when a caller asks for that operator:
``Graph.adjacency`` and :func:`laplacian`.  :func:`spectrum` solves a
connected graph (the eigenproblem splits over :func:`component_subgraphs`)
for only the pairs it returns, and a request for mu alone (a scree)
builds no vector matrix.  A graph that needs few pairs for its size, as
:func:`layout` and :func:`regress_on_covariates` usually do, runs
ARPACK's Lanczos iteration on the sparse S M S, stopped once its work
reaches about that of a dense solve.  Any other request, such as
the full spectrum, runs a dense ``eigh``, which is also the fallback when
ARPACK stops short: on paths and cycles the smallest mu crowd together as
1/n^2 and Lanczos needs more work than the dense solve.

scipy is imported inside the functions that use it, so the table
analyses, which import this module through the package, run on numpy
alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _orient_columns, _scaled_back, _tie_flags, _unit_scaled
from .methods import MethodResult, _check_labels, pcaiv

if TYPE_CHECKING:
    from scipy.sparse import csr_array

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

# ARPACK is tried when a graph needs at most one eigenpair per this
# many nodes.  Measured against dense eigh for the same pairs (two BLAS
# threads, ring-with-chords graphs and grids): at 1000 to 2000 nodes it
# takes 0.1 of the dense time for 4 pairs and 0.55 to 0.65 at one pair
# per 31 nodes; below about 500 nodes the two are within a few ms.
_NODES_PER_SPARSE_PAIR = 32
# ARPACK's work is counted as products with S M S times its basis size
# ncv; a dense eigh on n nodes costs n**2 / 21 to n**2 / 48 such units
# (n = 250 to 3000, ncv = 20).  Each ARPACK run gets n**2 / this many
# units and then gives way to the dense solve, so a graph Lanczos is slow
# on costs at most about two dense solves.
_DENSE_SOLVE_PER_LANCZOS_UNIT = 32


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as a sparse symmetric 0/1 adjacency matrix.

    ``csr`` is the adjacency in canonical CSR form (sorted indices, no
    duplicate or explicit zero entries) over read-only ``data``,
    ``indices`` and ``indptr`` arrays.  ``total_degree`` is the sum of
    all degrees, i.e. twice the edge count.  Build through
    :func:`make_graph`.
    """

    _csr: csr_array = field(repr=False)
    degrees: np.ndarray
    total_degree: int
    node_labels: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return self.degrees.shape[0]

    @property
    def n_edges(self) -> int:
        return self.total_degree // 2

    @property
    def csr(self) -> csr_array:
        """Sparse adjacency, a new array object on each access over the
        graph's read-only arrays: inserting entries into it builds new
        arrays for that object only and cannot change the graph."""
        from scipy.sparse import csr_array

        A = self._csr
        return csr_array((A.data, A.indices, A.indptr), shape=A.shape, copy=False)

    @property
    def adjacency(self) -> np.ndarray:
        """Dense n x n adjacency, built on each access, read-only."""
        M = self.csr.toarray()
        M.setflags(write=False)
        return M


def _csr_rows(A: csr_array) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def make_graph(adjacency, node_labels=None) -> Graph:
    """Validate an adjacency matrix, dense or scipy-sparse: finite, square,
    0/1, symmetric, no self loops.  Duplicate sparse entries are summed
    first, and each error names the first offending entry in row-major
    order."""
    from scipy.sparse import csr_array, issparse

    sparse = issparse(adjacency)
    M = adjacency if sparse else np.asarray(adjacency, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"adjacency must be a 2-D matrix, got ndim={M.ndim}")
    # Copy sparse input: the canonicalization below works in place.
    A = csr_array(M, dtype=float, copy=sparse)
    A.sum_duplicates()
    A.eliminate_zeros()
    rows = _csr_rows(A)

    def first(mask) -> tuple[int, int]:
        e = np.flatnonzero(mask)[0]
        return int(rows[e]), int(A.indices[e])

    if not np.all(np.isfinite(A.data)):
        i, j = first(~np.isfinite(A.data))
        raise ValueError(f"adjacency contains non-finite entries (entry ({i}, {j}))")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"adjacency must be square, got {A.shape}")
    if np.any(A.data != 1.0):
        i, j = first(A.data != 1.0)
        raise ValueError(f"adjacency entries must be 0 or 1 (entry ({i}, {j}) is not)")
    skew = A - A.T
    skew.sum_duplicates()
    skew.eliminate_zeros()
    if skew.nnz:
        i, j = int(_csr_rows(skew)[0]), int(skew.indices[0])
        raise ValueError(f"adjacency must be symmetric (entries ({i}, {j}) / ({j}, {i}) differ)")
    loops = rows[rows == A.indices]
    if loops.size:
        raise ValueError(f"self loops are not allowed (node {int(loops[0])})")
    return _frozen_graph(A, _check_labels(node_labels, n, "node", "v"))


def _frozen_graph(A: csr_array, labels: tuple[str, ...]) -> Graph:
    """Graph over a validated canonical CSR, its arrays made read-only."""
    degrees = np.diff(A.indptr).astype(float)
    for part in (A.data, A.indices, A.indptr, degrees):
        part.setflags(write=False)
    return Graph(_csr=A, degrees=degrees, total_degree=int(A.nnz), node_labels=labels)


def laplacian(g: Graph) -> np.ndarray:
    """Dense degree matrix minus adjacency; annihilates the constant vector."""
    return np.diag(g.degrees) - g.adjacency


def component_subgraphs(g: Graph) -> list[tuple[np.ndarray, Graph]]:
    """Connected components as (node index array, subgraph) pairs,
    ordered by smallest node index.  A connected graph is returned as
    itself, ``[(np.arange(n), g)]``."""
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(g.csr, directed=False)
    if n_comp == 1:
        return [(np.arange(g.n_nodes), g)]
    # Components are numbered by their smallest node.  One stable permutation
    # makes each a contiguous diagonal block, still in canonical CSR form.
    order = np.argsort(labels, kind="stable")
    P = g.csr[order][:, order]
    bounds = np.r_[0, np.cumsum(np.bincount(labels))]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        sub = _frozen_graph(P[lo:hi, lo:hi], tuple(g.node_labels[i] for i in idx))
        out.append((idx, sub))
    return out


def _covariates(g: Graph, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[0] != g.n_nodes:
        raise ValueError(
            f"covariates must have one row per node ({g.n_nodes}), got shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("covariates contain non-finite entries")
    return X if X.ndim == 2 else X[:, None]


def _scaled_edges(g: Graph, X, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check for an edge and validate X; return (X, E, e) with column j of X
    divided by 2**e_j, the power of two of its max |entry| (which is exact),
    and E its differences x_u - x_v, one row per edge {u, v} with u < v."""
    if g.total_degree == 0:
        raise ValueError(f"{name} needs at least one edge")
    X, e = _unit_scaled(_covariates(g, X), axis=0)
    A = g.csr
    rows = _csr_rows(A)
    upper = rows < A.indices
    return X, X[rows[upper]] - X[A.indices[upper]], e


def local_variance(g: Graph, X) -> np.ndarray:
    """Average squared difference across edges, per covariate column.

    For column x this is the double sum of adjacency-weighted squared
    differences over ordered node pairs, divided by twice the total
    degree; equivalently x' (Dg - M) x / total_degree.  Summed over the edge list
    on each column scaled by its own power of two: exactly zero for a constant
    column, inf above the float range, 0 or subnormal below it, no warning.
    """
    _, E, e = _scaled_edges(g, X, "local variance")
    # Each edge is two ordered pairs, cancelling the 1/2 of 1/(2 * total_degree).
    return _scaled_back(np.sum(E**2, axis=0) / g.total_degree, 2 * e)


def geary(g: Graph, x) -> float:
    """Generalized Geary ratio x'(Dg - M)x / x'Dg x of a node vector.

    x must be finite.  Zero for the constant vector; equals mu when x is an
    eigenvector of the graph eigenproblem (a Rayleigh quotient).  Computed on
    x scaled by a power of two, which is exact, so it is defined at any scale.
    """
    x, E, _ = _scaled_edges(g, np.ravel(x), "geary")
    if not np.any(x):
        raise ValueError("geary is undefined for the zero vector")
    den = np.sum(g.degrees * x[:, 0] * x[:, 0])
    if den == 0.0:
        raise ValueError("geary is undefined: x is supported only on isolated nodes")
    return float(np.sum(E**2) / den)


def classical_geary(g: Graph, X) -> np.ndarray:
    """Classical Geary ratio per covariate column: local variance divided
    by the (uniform-weight) variance, both of the column scaled by its own
    power of two, so the ratio is the same at any scale."""
    X, E, _ = _scaled_edges(g, X, "classical geary")
    var = np.var(X, axis=0)
    dead = np.flatnonzero(var == 0.0)
    if dead.size:
        raise ValueError(f"classical geary is undefined for constant column {int(dead[0])}")
    return np.sum(E**2, axis=0) / g.total_degree / var


def local_covariance(g: Graph, X) -> np.ndarray:
    """Covariance-like matrix X' (Dg - M) X / (2 * total_degree).

    Its diagonal is half the per-column local variance (the two source formulas differ
    by that factor, kept as stated).  For a graph of disjoint same-size complete groups
    this matrix is proportional to the within-group covariance of a discriminant analysis
    on those groups.  Computed on each column scaled by its own power of two: an entry
    past the float range is inf or -inf, one below it 0 or subnormal, no warning.
    """
    _, E, e = _scaled_edges(g, X, "local covariance")
    V = E.T @ E / (2 * g.total_degree)
    return _scaled_back((V + V.T) / 2.0, e[:, None] + e)


@dataclass(frozen=True)
class GraphSpectrum:
    """Nontrivial eigenpairs of (Dg - M) x = mu Dg x on a connected graph.

    ``eigenvalues`` is nondecreasing in [0, 2]; ``vectors`` has one
    column per eigenpair, orthonormal in the degree metric
    (vectors' Dg vectors = I), or none when only eigenvalues were asked
    for.  The trivial pair (mu = 0, constant vector) is dropped.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def spectrum(g: Graph, k: int | None = None, *, vectors: bool = True) -> GraphSpectrum:
    """Smallest-mu nontrivial eigenpairs of a connected graph's eigenproblem.

    Parameters
    ----------
    g : Graph
    k : int, optional
        Number of eigenpairs to return; all n - 1 nontrivial ones by
        default.  ``k`` is checked before any eigensolve, and only the
        pairs it asks for are computed.
    vectors : bool, default True
        When False, only the eigenvalues are wanted: a dense solve then
        builds no eigenvector matrix, and ``vectors`` comes back n x 0.

    Raises
    ------
    ValueError
        No nodes, or a single node (degenerate weight matrix); a
        disconnected graph (the eigenproblem splits over components: solve
        each :func:`component_subgraphs` part instead); k outside
        [1, n - 1].
    """
    from scipy.sparse.csgraph import connected_components

    n = g.n_nodes
    if n == 0:
        raise ValueError("graph has no nodes")
    if n < 2:
        raise ValueError(
            f"node '{g.node_labels[0]}' is isolated; "
            "the degree weighting is degenerate there"
        )
    n_comp = connected_components(g.csr, directed=False, return_labels=False)
    if n_comp > 1:
        raise ValueError(
            f"graph is disconnected ({n_comp} components); "
            "analyze each connected component separately"
        )
    if k is None:
        k = n - 1
    elif not 1 <= k <= n - 1:
        raise ValueError(
            f"k must be in [1, {n - 1}] (the graph has {n - 1} nontrivial eigenpairs)"
        )
    mu, X = _smallest_pairs(g, k, vectors)
    # The graph is connected, so exactly one trivial pair leads.
    if mu[0] > 1e-8:
        raise np.linalg.LinAlgError(
            f"expected a zero leading eigenvalue, got {mu[0]:.3e}"
        )
    eigenvalues = mu[1:]
    X = np.ascontiguousarray(X[:, 1:]) if vectors else np.empty((n, 0))
    _orient_columns(X)
    for out in (eigenvalues, X):
        out.setflags(write=False)
    return GraphSpectrum(eigenvalues=eigenvalues, vectors=X)


def _smallest_pairs(
    g: Graph, m: int, vectors: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The m + 1 smallest eigenpairs (mu, x) of a connected graph, mu
    ascending, x orthonormal in the degree metric.  Without ``vectors``
    the dense solve returns x as None."""
    from scipy.linalg import eigh
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n = g.n_nodes
    s = 1.0 / np.sqrt(g.degrees)
    mu = None
    A = g.csr
    SMS = csr_array((s[_csr_rows(A)] * A.data * s[A.indices], A.indices, A.indptr), shape=(n, n))
    if (m + 1) * _NODES_PER_SPARSE_PAIR <= n:
        # scipy's default basis size; each restart adds ncv - (m + 1) products.
        ncv = max(2 * m + 3, 20)
        restarts = n * n // (_DENSE_SOLVE_PER_LANCZOS_UNIT * ncv * (ncv - m - 1))
        try:
            # The largest 1 - mu are the smallest mu.  A fixed seed fixes the
            # starting vector and any restart, so results repeat exactly.
            w, Y = eigsh(SMS, k=m + 1, which="LA", tol=0, rng=0, ncv=ncv,
                         maxiter=max(restarts, 1))
            mu, Y = 1.0 - w[::-1], Y[:, ::-1]
        except ArpackNoConvergence:
            pass
    if mu is None:
        B = SMS.toarray(order="F")
        np.negative(B, out=B)
        # M has no loops, so this diagonal is zero before the identity is added.
        np.fill_diagonal(B, 1.0)
        out = eigh(B, overwrite_a=True, subset_by_index=[0, m], eigvals_only=not vectors)
        if not vectors:
            return out, None
        mu, Y = out
    Y *= s[:, None]
    return mu, Y


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
    X = _covariates(g, X)
    sp = spectrum(g, k=k)
    Y = np.asarray(sp.vectors)
    res = pcaiv(X, Y, q=q)
    Yc = Y - np.mean(Y, axis=0)
    fitted = res.extras["fitted_responses"]
    share = np.sum(fitted**2, axis=0) / np.sum(Yc**2, axis=0)
    extras = dict(res.extras)
    extras["graph_eigenvalues"] = sp.eigenvalues
    extras["explained_share"] = share
    return replace(res, method="graph_regress", extras=extras)
