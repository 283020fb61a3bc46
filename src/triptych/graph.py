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

The graph is stored sparse, as a CSR adjacency (row pointers and column
indices; every stored entry is 1) and its degree vector, so reading,
validating, splitting into components and the local variance statistics
(sums over the edge list) all take O(|E|) memory.  An n x n array is
built only when a caller asks for that operator: ``Graph.adjacency`` and
:func:`laplacian`.  :func:`spectrum` solves a connected graph (the
eigenproblem splits over :func:`component_subgraphs`) for only the pairs
it returns, and a request for mu alone (a scree) builds no vector matrix.
A graph that needs few pairs for its size, as :func:`layout` and
:func:`regress_on_covariates` usually do, runs ARPACK's Lanczos iteration
on the sparse S M S, stopped once its work reaches about that of a dense
solve.  Any other request, such as the full spectrum, runs a dense
symmetric eigensolve, which is also the fallback when ARPACK stops short:
on paths and cycles the smallest mu crowd together as 1/n^2 and Lanczos
needs more work than the dense solve.

scipy is imported only for the Lanczos iteration, a dense solve that
returns vectors, and ``Graph.csr``; everything else, a mu-only spectrum
included, runs on numpy alone.
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

    The adjacency is held in canonical CSR form (sorted indices, no
    duplicate or explicit zero entries) as read-only row pointer and
    column index arrays; every stored entry is 1.  ``total_degree`` is
    the sum of all degrees, i.e. twice the edge count.  Build through
    :func:`make_graph`.
    """

    _indptr: np.ndarray = field(repr=False)
    _indices: np.ndarray = field(repr=False)
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
        """Sparse adjacency (imports scipy), a new array object on each access
        over the graph's read-only index arrays and read-only ones: inserting
        entries into it builds new arrays for that object only."""
        from scipy.sparse import csr_array

        data = np.ones(self.total_degree)
        data.setflags(write=False)
        return csr_array((data, self._indices, self._indptr), shape=(self.n_nodes,) * 2)

    @property
    def adjacency(self) -> np.ndarray:
        """Dense n x n adjacency, built on each access, read-only."""
        M = np.zeros((self.n_nodes, self.n_nodes))
        M[_rows(self), self._indices] = 1.0
        M.setflags(write=False)
        return M


def _rows(g: Graph) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(g.n_nodes), np.diff(g._indptr))


def make_graph(adjacency, node_labels=None) -> Graph:
    """Validate an adjacency matrix, dense or scipy-sparse: finite, square,
    0/1, symmetric, no self loops.  Duplicate sparse entries are summed
    first, and each error names the first offending entry in row-major
    order."""
    sparse = hasattr(adjacency, "tocoo")
    M = adjacency.tocoo() if sparse else np.asarray(adjacency, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"adjacency must be a 2-D matrix, got ndim={M.ndim}")
    rows, cols = M.coords if sparse else np.nonzero(M)
    data = np.asarray(M.data if sparse else M[rows, cols], dtype=float)
    # Entries as sorted codes row * width + col; duplicates summed, zeros dropped.
    width = max(M.shape[1], 1)
    code, at = np.unique(rows.astype(np.int64) * width + cols, return_inverse=True)
    data = np.bincount(at, weights=data, minlength=code.size)
    code, data = code[data != 0], data[data != 0]
    rows, cols = np.divmod(code, width)

    def first(mask) -> tuple[int, int]:
        e = np.flatnonzero(mask)[0]
        return int(rows[e]), int(cols[e])

    if not np.all(np.isfinite(data)):
        i, j = first(~np.isfinite(data))
        raise ValueError(f"adjacency contains non-finite entries (entry ({i}, {j}))")
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"adjacency must be square, got {M.shape}")
    if np.any(data != 1.0):
        i, j = first(data != 1.0)
        raise ValueError(f"adjacency entries must be 0 or 1 (entry ({i}, {j}) is not)")
    # The smallest code in one of the pattern and its transpose but not both.
    skew = np.setxor1d(code, cols * n + rows, assume_unique=True)
    if skew.size:
        i, j = divmod(int(skew[0]), n)
        raise ValueError(f"adjacency must be symmetric (entries ({i}, {j}) / ({j}, {i}) differ)")
    loops = rows[rows == cols]
    if loops.size:
        raise ValueError(f"self loops are not allowed (node {int(loops[0])})")
    labels = _check_labels(node_labels, n, "node", "v")
    # Index arrays keep the sparse input's integer width, as scipy does.
    return _coded_graph(code, labels, np.result_type(np.int32, *M.coords) if sparse else np.int32)


def _coded_graph(code: np.ndarray, labels: tuple[str, ...], index_dtype) -> Graph:
    """Graph, its arrays read-only, over the sorted entry codes row * n + col of a
    valid adjacency on n = len(labels) nodes, indexed by ``index_dtype`` if it fits."""
    n = len(labels)
    if max(code.size, n) > np.iinfo(np.int32).max:
        index_dtype = np.int64
    rows, cols = np.divmod(code, n)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(index_dtype)
    indices = cols.astype(index_dtype)
    degrees = np.diff(indptr).astype(float)
    for part in (indptr, indices, degrees):
        part.setflags(write=False)
    return Graph(indptr, indices, degrees, int(indptr[-1]), labels)


def laplacian(g: Graph) -> np.ndarray:
    """Dense degree matrix minus adjacency; annihilates the constant vector."""
    return np.diag(g.degrees) - g.adjacency


def _components(g: Graph) -> tuple[int, np.ndarray]:
    """Number of components, and the component of each node numbered by
    smallest node.  Root hooking with pointer jumping (Shiloach & Vishkin
    1982): each root hooks onto the smallest root it touches, then pointers
    jump until each node points at its root, the smallest node of its tree."""
    rows, cols = _rows(g), g._indices
    root = np.arange(g.n_nodes)
    while np.any(cross := root[rows] != root[cols]):
        np.minimum.at(root, root[rows[cross]], root[cols[cross]])
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    roots, labels = np.unique(root, return_inverse=True)
    return roots.size, labels


def component_subgraphs(g: Graph) -> list[tuple[np.ndarray, Graph]]:
    """Connected components as (node index array, subgraph) pairs,
    ordered by smallest node index.  A connected graph is returned as
    itself, ``[(np.arange(n), g)]``."""
    n_comp, labels = _components(g)
    if n_comp == 1:
        return [(np.arange(g.n_nodes), g)]
    # One stable permutation makes each component a contiguous diagonal block
    # [lo, hi), whose entries are a contiguous run of the sorted codes.
    n = g.n_nodes
    order = np.argsort(labels, kind="stable")
    where = np.argsort(order)
    code = np.sort(where[_rows(g)] * n + where[g._indices])
    bounds = np.r_[0, np.cumsum(np.bincount(labels))].tolist()
    cuts = np.searchsorted(code, np.multiply(bounds, n)).tolist()
    out = []
    for lo, hi, a, b in zip(bounds, bounds[1:], cuts, cuts[1:]):
        rows, cols = np.divmod(code[a:b] - lo * (n + 1), n)
        idx = order[lo:hi]
        names = tuple(g.node_labels[i] for i in idx)
        out.append((idx, _coded_graph(rows * (hi - lo) + cols, names, g._indices.dtype)))
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
    rows, cols = _rows(g), g._indices
    upper = rows < cols
    return X, X[rows[upper]] - X[cols[upper]], e


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
    n = g.n_nodes
    if n == 0:
        raise ValueError("graph has no nodes")
    if n < 2:
        raise ValueError(
            f"node '{g.node_labels[0]}' is isolated; "
            "the degree weighting is degenerate there"
        )
    n_comp = _components(g)[0]
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
    the dense solve returns x as None and loads no scipy module."""
    n = g.n_nodes
    s = 1.0 / np.sqrt(g.degrees)
    rows, cols = _rows(g), g._indices
    sms = s[rows] * s[cols]
    mu = None
    if (m + 1) * _NODES_PER_SPARSE_PAIR <= n:
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        # scipy's default basis size; each restart adds ncv - (m + 1) products.
        ncv = max(2 * m + 3, 20)
        restarts = n * n // (_DENSE_SOLVE_PER_LANCZOS_UNIT * ncv * (ncv - m - 1))
        try:
            # The largest 1 - mu are the smallest mu.  A fixed seed fixes the
            # starting vector and any restart, so results repeat exactly.
            w, Y = eigsh(csr_array((sms, cols, g._indptr), shape=(n, n)), k=m + 1,
                         which="LA", tol=0, rng=0, ncv=ncv, maxiter=max(restarts, 1))
            mu, Y = 1.0 - w[::-1], Y[:, ::-1]
        except ArpackNoConvergence:
            pass
    if mu is None:
        B = np.zeros((n, n), order="F")
        B[rows, cols] = -sms
        # M has no loops, so this diagonal is zero before the identity is added.
        np.fill_diagonal(B, 1.0)
        if not vectors:
            return np.linalg.eigvalsh(B)[:m + 1], None
        from scipy.linalg import eigh
        mu, Y = eigh(B, overwrite_a=True, subset_by_index=[0, m])
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
