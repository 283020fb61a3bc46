"""Classical multivariate methods as triple constructors.

Each method here builds a :class:`.linalg.Triple` of the data matrix, a
factor of the variable metric and the observation weights appropriate to
its question, hands it to :func:`.linalg.decompose`, and packages the
output as a :class:`MethodResult` with row and column coordinates, the
scree of that decomposition's spectrum and method-specific extras.

Methods
-------
- :func:`pca`: weighted principal component analysis, optionally on
  standardized variables.
- :func:`ca` / :func:`chi_square`: correspondence analysis of a
  contingency table; total inertia times the grand total equals the
  chi-square statistic.
- :func:`lda`: linear discriminant analysis: the group means under the
  inverse total covariance.
- :func:`pcaiv`: principal components with respect to instrumental
  variables (reduced-rank regression ordination).
- :func:`cca`: canonical correlation analysis of two variable blocks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .linalg import (
    Decomposition,
    Triple,
    decompose,
    # unused here; perfbench/tracing.py rebinds them in this module
    make_triple, center_columns, decompose_gram_metric,  # noqa: F401
    _as_float_matrix,
    _frozen,
    _semidefinite_factor,
    _symmetrize,
    _weight_vector,
)
from .scree import ScreeTable

__all__ = [
    "ContingencyTable",
    "GroupCoding",
    "MethodResult",
    "pca",
    "ca",
    "chi_square",
    "lda",
    "pcaiv",
    "cca",
]


def _normalized_weights(weights, n: int) -> np.ndarray:
    """Row-weight vector summing to one; uniform 1/n when omitted."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = _weight_vector(weights, n, "weights")
    # a weight that underflows in the rescaling is rejected, not kept as 0
    return _weight_vector(w / np.sum(w), n, "weights")


class ContingencyTable:
    """Nonnegative count matrix with row and column labels.

    Rejects negative counts and zero marginals outright: correspondence
    analysis needs every row and column to carry mass.  The ``triptych
    ca`` command, not :func:`triptych.io.read_table`, drops all-zero rows
    and columns with a warning before this constructor runs.
    """

    def __init__(self, counts, row_labels=None, col_labels=None):
        counts = _as_float_matrix(counts, "counts")
        m, p = counts.shape
        if m == 0 or p == 0:
            raise ValueError("contingency table must have at least one row and column")
        self.row_labels = _check_labels(row_labels, m, "row", "r")
        self.col_labels = _check_labels(col_labels, p, "column", "c")
        for i, j in np.argwhere(counts < 0):
            raise ValueError(
                f"counts must be nonnegative (row '{self.row_labels[i]}', "
                f"column '{self.col_labels[j]}' is negative)"
            )
        with np.errstate(over="ignore"):
            total = float(counts.sum())
        if total == np.inf:
            raise ValueError("the grand total of the counts overflows; rescale the counts")
        row_tot = counts.sum(axis=1)
        col_tot = counts.sum(axis=0)
        for i in np.flatnonzero(row_tot == 0):
            raise ValueError(
                f"row '{self.row_labels[i]}' has zero total; drop empty rows first"
            )
        for j in np.flatnonzero(col_tot == 0):
            raise ValueError(
                f"column '{self.col_labels[j]}' has zero total; drop empty columns first"
            )
        self.counts = _frozen(counts)
        self.total = total

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape


def _check_labels(labels, count: int, what: str, prefix: str, path=None) -> tuple[str, ...]:
    """``count`` distinct labels (``prefix`` + 1-based index if omitted)."""
    if labels is None:
        return tuple(f"{prefix}{i + 1}" for i in range(count))
    labels = tuple(str(x) for x in labels)
    if len(labels) != count:
        raise ValueError(f"expected {count} {what} labels, got {len(labels)}")
    dupes = sorted(x for x, k in Counter(labels).items() if k > 1)
    if dupes:
        raise ValueError(f"{path + ': ' if path else ''}duplicate {what} labels: {dupes}")
    return labels


class GroupCoding:
    """Zero/one group membership matrix: one 1 per row, no empty group."""

    def __init__(self, indicator, group_labels=None):
        Y = _as_float_matrix(indicator, "indicator")
        n, g = Y.shape
        self.group_labels = _check_labels(group_labels, g, "group", "g")
        for i, j in np.argwhere(~np.isin(Y, (0.0, 1.0))):
            raise ValueError(
                f"indicator entries must be 0 or 1 (entry ({i}, {j}) of group "
                f"'{self.group_labels[j]}' is not)"
            )
        bad_rows = np.flatnonzero(Y.sum(axis=1) != 1)
        if bad_rows.size:
            raise ValueError(
                f"each row must have exactly one 1 (row {int(bad_rows[0])} does not)"
            )
        empty = np.flatnonzero(Y.sum(axis=0) == 0)
        if empty.size:
            raise ValueError(f"group '{self.group_labels[int(empty[0])]}' has no members")
        self.indicator = _frozen(Y)

    @classmethod
    def from_labels(cls, labels) -> "GroupCoding":
        """Build a coding from a sequence of group labels, in order of
        first appearance."""
        labels = [str(x) for x in labels]
        index = {lab: k for k, lab in enumerate(dict.fromkeys(labels))}
        Y = np.zeros((len(labels), len(index)))
        for i, lab in enumerate(labels):
            Y[i, index[lab]] = 1.0
        return cls(Y, group_labels=list(index))

    @property
    def n_groups(self) -> int:
        return self.indicator.shape[1]


@dataclass(frozen=True)
class MethodResult:
    """Uniform output bundle for every method.

    Attributes
    ----------
    method : str
        Method tag ("pca", "ca", ...).
    decomposition : Decomposition
        The eigendecomposition of the method's triple.
    scree : ScreeTable
        Eigenvalue / inertia% / cumulative% rows of that decomposition's
        spectrum, set from it on construction.
    row_coords : ndarray
        One row per observation (or table row), one column per axis.
    col_coords : ndarray
        One row per variable (or table column), one column per axis.
    extras : dict
        Method-specific payload; see each method's docstring.
    """

    method: str
    decomposition: Decomposition
    scree: ScreeTable = field(init=False)
    row_coords: np.ndarray
    col_coords: np.ndarray
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        scree = ScreeTable.from_eigenvalues(self.decomposition.eigenvalues)
        object.__setattr__(self, "scree", scree)


def pca(X, standardize: bool = False, weights=None, col_labels=None) -> MethodResult:
    """Weighted principal component analysis.

    Centers ``X`` with respect to the row weights, uses the identity
    variable metric (or the inverse variances under ``standardize``) and
    decomposes.  Row coordinates are the principal components, column
    coordinates the principal axes.

    Parameters
    ----------
    X : (n, p) array_like
        Data, n >= 2 observations in rows.
    standardize : bool
        Scale each variable to unit weighted variance via the metric
        ``diag(1/var_j)``.  Standardized full-rank data has inertia p.
    weights : (n,) array_like, optional
        Positive row weights; rescaled to sum to one.  Default uniform.
    col_labels : sequence of str, optional
        Used only to name an offending column in error messages.

    Extras: ``weights`` (normalized vector), ``standardized`` (bool),
    ``column_variances`` (weighted variances of the centered columns).
    """
    X = _as_float_matrix(X, "X")
    n, p = X.shape
    if n < 2:
        raise ValueError(f"pca needs at least 2 observations, got {n}")
    w = _normalized_weights(weights, n)
    Xc = X - w @ X / w.sum()
    variances = np.einsum("ij,i,ij->j", Xc, w, Xc)
    dead = ~np.isfinite(variances)
    if standardize:
        dead |= np.sqrt(variances) <= 1e-12 * np.max(np.abs(X), axis=0)
    for j in np.flatnonzero(dead)[:1]:
        name = col_labels[j] if col_labels is not None else f"column {j}"
        if np.isfinite(variances[j]):
            raise ValueError(f"cannot standardize: {name} has zero variance")
        raise ValueError(f"{name} has overflowing variance")
    G = np.sqrt(1.0 / variances) if standardize else np.ones(p)
    d = decompose(Triple(Xc, G, w))
    return MethodResult(
        method="pca",
        decomposition=d,
        row_coords=d.principal_components,
        col_coords=d.principal_axes,
        extras={
            "weights": w,
            "standardized": bool(standardize),
            "column_variances": variances,
        },
    )


def chi_square(tbl: ContingencyTable) -> tuple[float, int]:
    """Chi-square departure from independence and its degrees of freedom.

    Returns ``sum((observed - expected)**2 / expected)`` over all cells,
    with expected counts from the product of the margins, and
    ``(m - 1) * (p - 1)``.
    """
    N = tbl.counts
    m, p = N.shape
    row_tot = N.sum(axis=1)
    col_tot = N.sum(axis=0)
    # Dividing a margin by the total first keeps the expected counts finite.
    expected = np.outer(row_tot / tbl.total, col_tot)
    stat = float(np.sum(((N - expected) / np.sqrt(expected)) ** 2))
    return stat, (m - 1) * (p - 1)


def ca(tbl: ContingencyTable) -> MethodResult:
    """Correspondence analysis of a contingency table.

    Builds the triple whose data matrix holds the relative departures
    from independence (the doubly centered ratio of observed to expected
    proportions), with the column-mass metric and row-mass weights, and
    decomposes it.  The total inertia equals chi-square divided by the
    grand total; the rank is at most min(m, p) - 1.

    Row and column coordinates are both principal (the symmetric map):
    row coordinates are the principal components, column coordinates the
    principal axes, each with weighted sum of squares equal to the
    eigenvalue per axis.

    Extras: ``chi_square``, ``dof``, ``row_masses``, ``col_masses``.
    """
    F = tbl.counts / tbl.total
    r = _weight_vector(F.sum(axis=1), F.shape[0], "row masses")
    c = _weight_vector(F.sum(axis=0), F.shape[1], "column masses")
    X = _as_float_matrix(F / np.outer(r, c) - 1.0, "X")
    d = decompose(Triple(X, np.sqrt(c), r))
    stat, dof = chi_square(tbl)
    return MethodResult(
        method="ca",
        decomposition=d,
        row_coords=d.principal_components,
        col_coords=d.principal_axes,
        extras={"chi_square": stat, "dof": dof, "row_masses": r, "col_masses": c},
    )


# Relative size of |R_jj| below which a block column is constant or collinear.
COLLINEAR_RTOL = 1e-12


def _weighted_qr(X: np.ndarray, w: np.ndarray, name: str, other=None,
                 hint="reduce dimensionality (drop collinear columns or run pca first)"):
    """Centre a block with the row weights and factor ``sqrt(w) * Xc = Q @ R``.

    Returns ``Xc``, ``inv(R)`` (``inv(R).T`` factors the inverse covariance)
    and ``Q.T @ (sqrt(w) * other)`` for a centred ``other``, read off the QR
    of both blocks side by side.  Rejects p >= n, or a column whose |R_jj|
    is negligible (constant, or collinear with the columns before it).
    """
    n, p = X.shape
    if p >= n:
        raise ValueError(f"{name} is singular ({p} columns, {n} rows); {hint}")
    mean = w @ X
    Xc = X - mean
    k = p + (0 if other is None else other.shape[1])
    # LAPACK factors a column-major copy in place, with no Q formed
    joint = np.empty((n, k), order="F")
    np.concatenate([Xc] if other is None else [Xc, other], axis=1, out=joint)
    joint *= np.sqrt(w)[:, None]
    # numpy's own LAPACK binding factors in place, where np.linalg.qr copies
    # twice.  It is undocumented (checked on numpy 2.4.6), so it is imported
    # here: a numpy without it breaks only the methods that factor by QR.
    from numpy.linalg.lapack_lite import dgeqrf

    def factor(work, lwork):
        # joint.T is C-contiguous, as the binding requires, and holds joint
        # in column-major order
        info = dgeqrf(n, k, joint.T, n, tau, work, lwork, 0)["info"]
        if info:
            raise np.linalg.LinAlgError(f"LAPACK dgeqrf failed (info = {info})")

    tau, work = np.empty(min(n, k)), np.empty(1)
    factor(work, -1)  # workspace size query
    work = np.empty(int(work[0]))
    factor(work, work.size)
    R = np.triu(joint[:p])
    scale = np.abs(mean) + np.max(np.abs(R[:, :p]), axis=0)
    dead = np.flatnonzero(np.abs(np.diagonal(R)) <= COLLINEAR_RTOL * scale)
    if dead.size:
        raise ValueError(
            f"{name} is singular: column {dead[0]} is constant or collinear "
            f"with the columns before it; {hint}"
        )
    # column-major, as a LAPACK triangular solve returns it: the products
    # of lda, pcaiv and cca with inv(R) depend on the layout in the last bits
    return Xc, np.asfortranarray(np.linalg.inv(R[:, :p])), R[:, p:]


def lda(X, groups: GroupCoding, weights=None) -> MethodResult:
    """Linear discriminant analysis.

    Centers ``X`` with the row weights, splits the total covariance T
    into between-group B plus within-group W (an identity this routine
    verifies), and decomposes the triple whose data matrix holds the
    group means, with the inverse total covariance (factored by weighted
    QR, never inverted) as variable metric and the group masses as
    weights.  Eigenvalues are the discriminating ratios a'Ba / a'Ta in [0, 1].

    Row coordinates are the observation scores on the discriminant
    vectors (each scaled so a'Ta = 1); column coordinates are the
    principal axes of the group-means triple.

    Parameters
    ----------
    X : (n, p) array_like
    groups : GroupCoding or sequence of labels
        Membership of each observation; at least two groups.
    weights : (n,) array_like, optional
        Positive row weights, rescaled to sum to one.

    Extras: ``discriminant_vectors`` (p x q), ``discriminating_ratios``,
    ``group_means`` (g x p), ``group_scores`` (g x q), ``between``,
    ``within``, ``total`` (the three p x p covariance matrices),
    ``group_labels``, ``split_residual`` (max-norm of T - B - W).

    Raises
    ------
    ValueError
        If the total covariance is singular (the message names the column):
        reduce dimensionality (drop collinear columns or run pca first).
    """
    if not isinstance(groups, GroupCoding):
        groups = GroupCoding.from_labels(groups)
    X = _as_float_matrix(X, "X")
    Y = groups.indicator
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError(f"groups describe {Y.shape[0]} rows, data has {n}")
    g = Y.shape[1]
    if g < 2:
        raise ValueError("lda needs at least two groups")
    w = _normalized_weights(weights, n)
    Xc, Ri, _ = _weighted_qr(X, w, "total covariance")
    wXc = w[:, None] * Xc
    T = _symmetrize(wXc.T @ Xc, "T")
    group_mass = w @ Y
    means = (Y.T @ wXc) / group_mass[:, None]
    between = _symmetrize((group_mass[:, None] * means).T @ means, "B")
    resid_mat = Xc - Y @ means
    within = _symmetrize((w[:, None] * resid_mat).T @ resid_mat, "W")
    split_residual = float(np.max(np.abs(T - between - within)))
    if split_residual > 1e-8 * max(np.max(np.abs(T)), 1.0):
        raise np.linalg.LinAlgError(
            f"covariance split failed numerically (residual {split_residual:.3e})"
        )
    d = decompose(Triple(means, Ri.T, group_mass))
    disc = Ri @ (Ri.T @ d.axis_basis)
    return MethodResult(
        method="lda",
        decomposition=d,
        row_coords=Xc @ disc,
        col_coords=d.principal_axes,
        extras={
            "discriminant_vectors": disc,
            "discriminating_ratios": d.eigenvalues,
            "group_means": means,
            "group_scores": d.principal_components,
            "between": between,
            "within": within,
            "total": T,
            "group_labels": groups.group_labels,
            "split_residual": split_residual,
        },
    )


def pcaiv(X, Y, response_metric=None, weights=None, q: int | None = None) -> MethodResult:
    """Principal components with respect to instrumental variables.

    Explains the responses ``Y`` by the explanatory block ``X``: both are
    centered with the row weights, and ``X`` is analyzed under the
    instrumental metric

        R = inv(Sxx) @ Sxy @ Qy @ Syx @ inv(Sxx),

    where Sxx and Sxy are the weighted covariance blocks and ``Qy`` the
    metric on response space.  The triple (X, R, D) is decomposed; its
    axes are the directions of X-space best reproducing the response
    operator, and at rank ``q`` the fitted operator built from the
    leading axes is the best rank-q approximation.

    No covariance is inverted: the weighted QR of X gives the regression
    coefficients ``A = inv(Sxx) @ Sxy``, so ``R = A @ Qy @ A.T`` has the
    metric factor ``Gy @ A.T`` with ``Gy.T @ Gy = Qy`` (an eigen-factor, as
    ``Qy`` may be semidefinite).  ``R``, usually singular, is not factored.

    Parameters
    ----------
    X : (n, p) array_like
        Explanatory block; weighted covariance must be invertible.
    Y : (n, py) array_like
        Response block.
    response_metric : (py, py) array_like, optional
        Symmetric metric on response space (identity by default).
    weights : (n,) array_like, optional
        Positive row weights, rescaled to sum to one.
    q : int, optional
        Analysis rank; at most the attainable rank of the triple.

    Extras: ``instrumental_metric`` (R), ``constrained_metric`` (the
    rank-q metric M = R B B' R built from the leading axes, for which
    the fitted operator X M X' D is the rank-q truncation of the n x n
    X R X' D = F Qy F' D, never formed), ``fitted_responses`` (F, the
    projection of Y onto the column space of X), ``response_metric``.
    """
    X = _as_float_matrix(X, "X")
    Y = _as_float_matrix(Y, "Y")
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError(f"X and Y must have equal row counts, got {n} and {Y.shape[0]}")
    if q is not None and q < 1:
        raise ValueError("q must be at least 1")
    w = _normalized_weights(weights, n)
    Yc = Y - w @ Y
    if response_metric is None:
        Qy = np.eye(Y.shape[1])
    else:
        Qy = _symmetrize(_as_float_matrix(response_metric, "response_metric"),
                         "response_metric")
        if Qy.shape != (Y.shape[1], Y.shape[1]):
            raise ValueError(
                f"response_metric must be {Y.shape[1]}x{Y.shape[1]}, got {Qy.shape}"
            )
    Xc, Ri, QtY = _weighted_qr(X, w, "explanatory covariance", Yc)
    A = Ri @ QtY
    R = _symmetrize(A @ Qy @ A.T, "R")
    d = decompose(Triple(Xc, _semidefinite_factor(Qy, "response_metric") @ A.T, w), q)
    if q is not None and q > d.rank:
        raise ValueError(f"requested rank {q} exceeds the attainable rank {d.rank}")
    Zq = d.axis_basis
    constrained = _symmetrize(R @ Zq @ Zq.T @ R, "M")
    return MethodResult(
        method="pcaiv",
        decomposition=d,
        row_coords=d.principal_components,
        col_coords=d.principal_axes,
        extras={
            "instrumental_metric": R,
            "constrained_metric": constrained,
            "fitted_responses": Xc @ A,
            "response_metric": Qy,
        },
    )


def cca(X1, X2, weights=None) -> MethodResult:
    """Canonical correlation analysis of two variable blocks.

    Each block is centred and factored by weighted QR,
    ``sqrt(w) * Xkc = Qk @ Rk``.  The decomposition is that of the cross
    triple: the cross-covariance in whitened block-2 coordinates,
    ``Q2.T @ (sqrt(w) * X1c) = inv(R2).T @ S21``, under the block-1
    inverse covariance and unit weights.  Its eigenvalues, and so the
    scree, are the squared canonical correlations, and its inertia is
    their sum.  Its axis basis gives the block-1 canonical coefficients
    (through the block-1 inverse covariance) and its component basis, in
    QR-whitened block-2 coordinates, the block-2 coefficients (through
    ``inv(R2)``); each canonical variable has unit weighted variance, and
    paired canonical variables have weighted covariance rho.

    Row coordinates are the block-1 canonical scores; column coordinates
    stack the block-1 and block-2 coefficient matrices.

    Extras: ``canonical_correlations``, ``coefficients_1`` (p1 x q),
    ``coefficients_2`` (p2 x q), ``scores_1``, ``scores_2`` (n x q).
    """
    X1 = _as_float_matrix(X1, "X1")
    X2 = _as_float_matrix(X2, "X2")
    n = X1.shape[0]
    if X2.shape[0] != n:
        raise ValueError(
            f"blocks must have equal row counts, got {n} and {X2.shape[0]}"
        )
    w = _normalized_weights(weights, n)
    X1c, R1i, _ = _weighted_qr(X1, w, "block-1 covariance",
                               hint="reduce dimensionality of the first block")
    X2c, R2i, cross_data = _weighted_qr(X2, w, "block-2 covariance", X1c,
                                        "reduce dimensionality of the second block")
    # whitening block 2 leaves the cross triple unit weights
    cross = decompose(Triple(cross_data, R1i.T, np.ones(X2c.shape[1])))
    rho = np.sqrt(cross.eigenvalues)
    coef1 = R1i @ (R1i.T @ cross.axis_basis)
    coef2 = R2i @ cross.component_basis
    scores1 = X1c @ coef1
    return MethodResult(
        method="cca",
        decomposition=cross,
        row_coords=scores1,
        col_coords=np.vstack([coef1, coef2]),
        extras={
            "canonical_correlations": rho,
            "coefficients_1": coef1,
            "coefficients_2": coef2,
            "scores_1": scores1,
            "scores_2": X2c @ coef2,
        },
    )
