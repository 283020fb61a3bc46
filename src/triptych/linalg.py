"""Weighted data triples and their generalized eigendecomposition.

The central object is the :class:`Triple`: a data matrix ``X`` (n
observations by p variables) together with a factor ``G`` of the
variable metric ``Q = G.T @ G`` (p by p) and positive observation
weights: a length-n vector ``w``, the diagonal of ``D = diag(w)``, which
is never formed.  Every analysis in this package reduces to the
generalized eigendecomposition of such a triple, computed by one routine,
:func:`decompose`: take the singular value decomposition of
``sqrt(w)[:, None] * X @ G.T``, rescale its left factor into the
component basis and recover the axis basis through the transition
identity below.  Signs are fixed on the axis basis.  :func:`make_triple`
factors a positive-definite ``Q`` by Cholesky, and
:func:`decompose_gram_metric` a semidefinite one by eigendecomposition.

Two square operators characterize a triple: ``V @ Q`` acting on variable
space and ``W @ D`` acting on observation space, where ``V = X.T @ D @ X``
and ``W = X @ Q @ X.T``.  They share their nonzero eigenvalues, and the
eigenbases on the two sides are linked by exact transition identities
(``X @ Q @ Z`` equals the principal components, ``X.T @ D @ L`` equals the
principal axes), which :func:`transition_check` measures numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
]

# Relative threshold below which an eigenvalue does not count toward the rank.
ZERO_EIGENVALUE_RTOL = 1e-12
# Relative gap under which two consecutive eigenvalues are flagged as tied.
TIE_RTOL = 1e-9
# Largest relative asymmetry repaired by averaging; anything worse is rejected.
SYMMETRY_RTOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """A metric failed its Cholesky factorization or a weight is not positive.

    Attributes
    ----------
    pivot : int
        Zero-based index of the first non-positive pivot or weight.
    """

    def __init__(self, name: str, pivot: int):
        self.pivot = pivot
        super().__init__(
            f"{name} is not positive definite (pivot {pivot} is not positive)"
        )


def _as_float_matrix(M, name: str) -> np.ndarray:
    # C order fixes the summation order, so results do not depend on the
    # caller's memory layout.
    M = np.asarray(M, dtype=float, order="C")
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _frozen(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _unit_scaled(a, axis=None):
    """``(a / 2**e, e)`` with max|a| = m * 2**e, 0.5 <= m < 1, over the whole array
    or along ``axis`` (e = 0 for no nonzero entry).  The division is exact unless
    an entry underflows, so a scale-free formula (a share, a ratio) gives the same
    bits on the scaled array and cannot overflow there."""
    e = np.frexp(np.max(np.abs(a), axis=axis, initial=0.0))[1]
    return np.ldexp(a, -e), e


def _scaled_back(a, e):
    """``a * 2**e``, the way back from :func:`_unit_scaled`: exact while the result is a
    normal float, inf past the float range, 0 or subnormal below it, no warning either way."""
    with np.errstate(over="ignore"):
        return np.ldexp(a, e)


def _symmetrize(M: np.ndarray, name: str) -> np.ndarray:
    """Average ``M`` with its transpose; reject if visibly asymmetric."""
    scale = np.max(np.abs(M)) if M.size else 0.0
    skew = np.max(np.abs(M - M.T)) if M.size else 0.0
    if skew > SYMMETRY_RTOL * max(scale, np.finfo(float).tiny):
        raise ValueError(f"{name} is not symmetric (max |M - M.T| = {skew:.3e})")
    return (M + M.T) / 2.0


def _weight_vector(D, n: int, name: str) -> np.ndarray:
    """Row weights as ``n`` finite positive entries, from the vector or
    its diagonal matrix."""
    w = np.asarray(D, dtype=float)
    if w.shape == (n, n):
        # the off-diagonal is zero iff the diagonal holds every nonzero
        if np.count_nonzero(w) != np.count_nonzero(np.diagonal(w)):
            raise ValueError(f"{name} must be diagonal: row weights are a vector")
        w = np.diagonal(w)
    if w.shape != (n,):
        raise ValueError(f"{name} must be a vector of length {n}, got shape {w.shape}")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(f"{name} contains non-finite entry {bad[0]} ({w[bad[0]]})")
    if np.any(w <= 0.0):
        raise NotPositiveDefiniteError(name, int(np.flatnonzero(w <= 0.0)[0]))
    return w


def _cholesky_upper(M: np.ndarray, name: str) -> np.ndarray:
    """Upper-triangular factor ``R`` with ``R.T @ R = M``, through LAPACK
    so the failing pivot can be reported."""
    # imported here: no table method factors by Cholesky, so they run on numpy alone
    from scipy.linalg.lapack import dpotrf

    factor, info = dpotrf(M, lower=0, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(name, int(info) - 1)
    if info < 0:
        raise ValueError(f"Cholesky of {name} failed (bad argument {-info})")
    return factor


def _semidefinite_factor(M: np.ndarray, name: str) -> np.ndarray:
    """``G`` with ``G.T @ G = M`` for a semidefinite ``M``: one row per eigenvalue
    above 1e-12 of the largest; one below -1e-8 of the largest is rejected."""
    ev, E = np.linalg.eigh(M)
    scale = max(ev[-1], 0.0) if ev.size else 0.0
    keep = ev > ZERO_EIGENVALUE_RTOL * scale
    if np.any(ev < -1e-8 * scale):
        raise ValueError(f"{name} has a significantly negative eigenvalue")
    return (E[:, keep] * np.sqrt(ev[keep])).T


@dataclass(frozen=True)
class Triple:
    """A data matrix with its variable metric factor and observation weights.

    Parameters
    ----------
    data : (n, p) ndarray
        Observations in rows, variables in columns.
    factor : (m, p) or (p,) ndarray
        A factor ``G`` of the inner product ``Q = G.T @ G`` on variable
        space; a 1-D ``G`` stands for the diagonal factor ``diag(G)``.
    weights : (n,) ndarray
        Positive observation weights: the diagonal of the inner product
        ``D = diag(weights)`` on observation space.

    Instances are immutable.  :func:`make_triple` validates shapes,
    symmetry and definiteness, stores read-only copies and factors ``Q``
    by Cholesky; the constructor checks nothing.
    """

    data: np.ndarray
    factor: np.ndarray
    weights: np.ndarray

    @property
    def metric(self) -> np.ndarray:
        """The metric ``Q = G.T @ G``, as a fresh read-only array."""
        G = self.factor
        Q = np.diag(G * G) if G.ndim == 1 else G.T @ G
        Q.setflags(write=False)
        return Q

    @property
    def n_observations(self) -> int:
        return self.data.shape[0]

    @property
    def n_variables(self) -> int:
        return self.data.shape[1]


def _checked_metric(Q, p: int, name: str, block: str = "X") -> np.ndarray:
    """``Q`` as a finite symmetric metric on the ``p`` columns of ``block``;
    its shape is checked before its symmetry."""
    Q = _as_float_matrix(Q, name)
    if Q.shape != (p, p):
        raise ValueError(f"{name} must be {p}x{p} to match {block} with {p} columns, "
                         f"got {Q.shape}")
    return _symmetrize(Q, name)


def _checked_parts(X, Q, D, q_name: str, d_name: str):
    """``(X, Q, w)`` validated as a triple's parts: a finite data matrix, a
    finite symmetric metric sized to its columns and positive weights."""
    X = _as_float_matrix(X, "X")
    return X, _checked_metric(Q, X.shape[1], q_name), _weight_vector(D, X.shape[0], d_name)


def make_triple(X, Q, D) -> Triple:
    """Validate and assemble a :class:`Triple`.

    Parameters
    ----------
    X : (n, p) array_like
        Data matrix.
    Q : (p, p) array_like
        Variable metric.  Symmetrized by averaging with its transpose when
        the asymmetry is within roundoff; rejected otherwise.
    D : (n,) or (n, n) array_like
        Positive observation weights, or their diagonal matrix (any
        nonzero off-diagonal entry is rejected).  Stored as the vector.

    Returns
    -------
    Triple
        Its factor is the upper-triangular Cholesky factor ``R`` of the
        symmetrized ``Q`` (``R.T @ R = Q``), the one :func:`decompose` uses.

    Raises
    ------
    ValueError
        On dimension mismatch, visible asymmetry, non-finite weights or a
        non-diagonal ``D``.
    NotPositiveDefiniteError
        When ``Q`` has a non-positive pivot or ``D`` a non-positive
        weight; the message carries its index.
    """
    X, Q, w = _checked_parts(X, Q, D, "Q", "D")
    R = _cholesky_upper(Q, "Q")
    R.setflags(write=False)  # the factor is fresh; X and w may be the caller's
    return Triple(data=_frozen(X), factor=R, weights=_frozen(w))


def center_columns(t: Triple) -> Triple:
    """Remove the weighted column means from the data matrix.

    Subtracts ``w @ X / sum(w)`` from every row, so the returned triple
    satisfies ``X.T @ w = 0`` in exact arithmetic; metric factor and
    weights are unchanged.  Centering an already-centered triple is a no-op.
    """
    w = t.weights
    centered = t.data - w @ t.data / w.sum()
    centered.setflags(write=False)
    return Triple(data=centered, factor=t.factor, weights=t.weights)


@dataclass(frozen=True)
class Decomposition:
    """Generalized eigendecomposition of a triple, as read-only arrays.

    Attributes
    ----------
    eigenvalues : (r,) ndarray
        All positive eigenvalues, nonincreasing.  ``r`` is the rank: the
        count of eigenvalues above the zero threshold.
    rank : int
        Same as ``len(eigenvalues)``.
    n_axes : int
        Number of columns retained in the four basis matrices; equals the
        rank unless a smaller rank was requested.
    axis_basis : (p, n_axes) ndarray
        Metric-orthonormal basis of variable space:
        ``axis_basis.T @ Q @ axis_basis = I``.
    principal_axes : (p, n_axes) ndarray
        ``axis_basis`` rescaled by the singular values;
        ``principal_axes.T @ Q @ principal_axes = diag(eigenvalues)``.
    component_basis : (n, n_axes) ndarray
        Weight-orthonormal basis of observation space:
        ``component_basis.T @ D @ component_basis = I`` with
        ``D = diag(weights)``.
    principal_components : (n, n_axes) ndarray
        ``component_basis`` rescaled by the singular values;
        ``principal_components.T @ D @ principal_components
        = diag(eigenvalues)``.
    inertia : float
        Trace of the characterizing operator: the sum of every
        eigenvalue, including any below the zero threshold.
    tie_flags : (r,) ndarray of bool
        True for eigenvalues whose relative gap to a neighbor is under
        the tie threshold.  Individual axes inside such a group are not
        stable even though their span is; downstream reporting should
        warn before an axis cut lands inside a flagged group.
    """

    eigenvalues: np.ndarray
    rank: int
    n_axes: int
    axis_basis: np.ndarray
    principal_axes: np.ndarray
    component_basis: np.ndarray
    principal_components: np.ndarray
    inertia: float
    tie_flags: np.ndarray = field(repr=False)

    @property
    def singular_values(self) -> np.ndarray:
        """Square roots of the retained eigenvalues, length ``n_axes``."""
        return np.sqrt(self.eigenvalues[: self.n_axes])


def _tie_flags(lam: np.ndarray) -> np.ndarray:
    flags = np.zeros(lam.shape[0], dtype=bool)
    gaps = (lam[:-1] - lam[1:]) / lam[:-1]
    close = gaps < TIE_RTOL
    flags[:-1] |= close
    flags[1:] |= close
    return flags


def _orient_columns(primary: np.ndarray, *linked: np.ndarray) -> None:
    """Flip column signs in place so each primary column's largest-magnitude entry
    (the first within TIE_RTOL of it) is positive; linked matrices get the same flips."""
    if not primary.size:  # argmax refuses a matrix with no rows
        return
    lead = np.argmax(np.abs(primary) >= (1.0 - TIE_RTOL) * np.abs(primary).max(axis=0), axis=0)
    flip = primary[lead, np.arange(primary.shape[1])] < 0
    for M in (primary, *linked):
        np.negative(M, out=M, where=flip)


def decompose(t: Triple, rank_request: int | None = None) -> Decomposition:
    """Generalized eigendecomposition of a triple.

    Reads the data ``X``, the metric factor ``G`` (``G.T @ G = Q``; a 1-D
    ``G`` is scaled into the columns) and the weight vector ``w``.  With
    ``K = diag(sqrt(w))``, applied as a row scaling, it takes the singular
    value decomposition ``K @ X @ G.T = U @ S @ T.T``; the eigenvalues are
    the squared singular values, the component basis is
    ``U / sqrt(w)[:, None]`` and the axis basis comes from the transition
    identity ``X.T @ D @ component_basis / s``.
    Column signs are fixed by orienting each axis-basis column so its
    largest-magnitude entry is positive, which makes the output
    deterministic.

    Parameters
    ----------
    t : Triple
    rank_request : int, optional
        Keep only the first ``rank_request`` columns of the basis
        matrices (a reduced-rank analysis).  Must not exceed
        ``min(n, p)``.  The eigenvalue vector, rank and inertia always
        describe the full spectrum.

    Returns
    -------
    Decomposition

    Raises
    ------
    ValueError
        If ``rank_request`` is negative or exceeds ``min(n, p)``, or if the
        weighted data, the leading eigenvalue or the inertia overflows.
    numpy.linalg.LinAlgError
        If the singular value decomposition fails to converge.
    """
    X, G, w = t.data, t.factor, t.weights
    n, p = X.shape
    if rank_request is not None:
        if rank_request < 0:
            raise ValueError("rank_request must be nonnegative")
        if rank_request > min(n, p):
            raise ValueError(
                f"rank_request {rank_request} exceeds min(n, p) = {min(n, p)}"
            )
    k = np.sqrt(w)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        KX = k * X
        B = KX * G if G.ndim == 1 else KX @ G.T
    if not np.all(np.isfinite(B)):
        raise ValueError(
            "the weighted data times the metric factor overflows; rescale the data"
        )
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    if s.size and s[0] > np.sqrt(np.finfo(float).max):
        raise ValueError(
            f"the leading eigenvalue overflows (singular value {s[0]:.3e}); rescale the data"
        )
    lam_all = s**2
    lam1 = lam_all[0] if lam_all.size else 0.0
    rank = int(np.count_nonzero(lam_all > ZERO_EIGENVALUE_RTOL * max(lam1, 1.0)))
    n_axes = rank if rank_request is None else min(rank_request, rank)
    s, U = s[:n_axes], U[:, :n_axes]
    # Transition identity: axis_basis = X.T @ D @ component_basis / s, and
    # D @ component_basis = sqrt(w) * U.
    Z = KX.T @ U / s
    L = U / k
    _orient_columns(Z, L)
    eigenvalues = lam_all[:rank]
    with np.errstate(over="ignore"):
        inertia = float(np.sum(lam_all))
    if inertia == np.inf:
        raise ValueError("the total inertia overflows; rescale the data")
    principal_axes, principal_components = Z * s, L * s
    tie_flags = _tie_flags(eigenvalues)
    for out in (eigenvalues, Z, principal_axes, L, principal_components, tie_flags):
        out.setflags(write=False)
    return Decomposition(
        eigenvalues=eigenvalues,
        rank=rank,
        n_axes=n_axes,
        axis_basis=Z,
        principal_axes=principal_axes,
        component_basis=L,
        principal_components=principal_components,
        inertia=inertia,
        tie_flags=tie_flags,
    )


def decompose_gram_metric(
    X: np.ndarray, metric: np.ndarray, weights: np.ndarray,
    rank_request: int | None = None,
) -> Decomposition:
    """Eigendecomposition of a triple whose metric may be rank-deficient.

    Used when the variable metric is a Gram-type product (such as an
    instrumental-variable metric) and therefore only positive
    semidefinite.  The metric is factored through its eigendecomposition,
    ``G.T @ G = Q`` with one row of ``G`` per metric eigenvalue above 1e-12 of
    the largest, instead of a Cholesky; one below -1e-8 of the largest is
    rejected.  ``X``, ``metric`` and ``weights`` are validated as ``X``, ``Q``
    and ``D`` in :func:`make_triple`; the triple they form with that
    factor goes to :func:`decompose`.

    The strict :func:`make_triple` path intentionally rejects semidefinite
    metrics; this routine is the sanctioned detour for metrics that are
    semidefinite by construction rather than by data error.
    """
    X, metric, w = _checked_parts(X, metric, weights, "metric", "weights")
    return decompose(Triple(X, _semidefinite_factor(metric, "metric"), w), rank_request)


@dataclass(frozen=True)
class TransitionResiduals:
    """Max-norm residuals of the two transition identities."""

    components: float  # || X @ Q @ axis_basis - principal_components ||_max
    axes: float        # || X.T @ D @ component_basis - principal_axes ||_max


def transition_check(t: Triple, d: Decomposition) -> TransitionResiduals:
    """Measure how well the transition identities hold for ``d`` over its
    retained columns.  Both residuals are zero in exact arithmetic for a
    decomposition produced from ``t``."""
    via_axes = t.data @ t.metric @ d.axis_basis
    via_components = t.data.T @ (t.weights[:, None] * d.component_basis)
    res_c = via_axes - d.principal_components
    res_a = via_components - d.principal_axes
    return TransitionResiduals(
        components=float(np.max(np.abs(res_c))) if res_c.size else 0.0,
        axes=float(np.max(np.abs(res_a))) if res_a.size else 0.0,
    )


def characterizing_operators(t: Triple) -> tuple[np.ndarray, np.ndarray]:
    """The two square operators of a triple.

    Returns
    -------
    (p, p) ndarray
        ``X.T @ D @ X @ Q``, acting on variable space.
    (n, n) ndarray
        ``X @ Q @ X.T @ D``, acting on observation space, with
        ``D = diag(weights)``.

    The two share their nonzero eigenvalues.
    """
    X, Q, w = t.data, t.metric, t.weights
    V = X.T @ (w[:, None] * X)
    W = X @ Q @ X.T
    return V @ Q, W * w
