"""Operator covariance and the RV coefficient.

Two analyses of the same observations can be compared through their
observation-space operators ``W @ D``.  The trace inner product
``covv(O1, O2) = trace(O1.T @ O2)`` makes the set of such operators a
Euclidean space; the RV coefficient is the cosine it induces.  For
operators built from single centered variables the RV coefficient reduces
to the squared Pearson correlation.

:func:`rv_max` gives the closed-form best RV attainable by any rank-q
approximation of a decomposition, reached by keeping the leading q
eigenvectors.
"""

from __future__ import annotations

import numpy as np

from .linalg import Triple, _as_float_matrix

__all__ = ["covv", "rv", "rv_triples", "rv_max"]


def _operator_pair(O1, O2) -> tuple[np.ndarray, np.ndarray]:
    """Two finite square operators of one shape, as float arrays."""
    O1, O2 = _as_float_matrix(O1, "O1"), _as_float_matrix(O2, "O2")
    if O1.shape[0] != O1.shape[1]:
        raise ValueError(f"operators must be square, got {O1.shape}")
    if O2.shape != O1.shape:
        raise ValueError(f"operator shapes differ: {O1.shape} vs {O2.shape}")
    return O1, O2


def covv(O1, O2) -> float:
    """Trace inner product ``trace(O1.T @ O2)`` of two square operators."""
    O1, O2 = _operator_pair(O1, O2)
    # trace(O1.T @ O2) is the entrywise sum, computed without the product.
    return float(np.sum(O1 * O2))


def rv(O1, O2) -> float:
    """Normalized trace inner product of two operators.

    Lies in [0, 1] when both operators are positive semidefinite; for
    general matrices the value can be negative and is returned as-is.

    Raises
    ------
    ValueError
        If either operator is identically zero (the ratio is undefined).
    """
    O1, O2 = _operator_pair(O1, O2)
    n11 = np.sum(O1 * O1)
    n22 = np.sum(O2 * O2)
    if n11 == 0.0 or n22 == 0.0:
        raise ValueError("rv is undefined for a zero operator")
    return float(np.sum(O1 * O2) / np.sqrt(n11 * n22))


def _covv_triples(t1: Triple, t2: Triple) -> float:
    """``covv`` of the triples' operators in p-space: trace(Q1 X1'D^2 X2 Q2 X2'X1)."""
    A = t1.metric @ (t1.data.T * t1.weights**2) @ t2.data
    return float(np.sum(A * (t2.metric @ t2.data.T @ t1.data).T))


def rv_triples(t1: Triple, t2: Triple) -> float:
    """RV coefficient between the observation-space operators of two triples.

    The triples must describe the same observations: equal row counts and
    identical weight vectors.  (Both trace formulas weight observation
    pairs through the common ``D = diag(weights)``; comparing across
    different weightings is not meaningful.)
    """
    if t1.n_observations != t2.n_observations:
        raise ValueError(
            f"triples describe different observation counts: "
            f"{t1.n_observations} vs {t2.n_observations}"
        )
    if not np.array_equal(t1.weights, t2.weights):
        raise ValueError("triples must share the same observation weights")
    n11, n22 = _covv_triples(t1, t1), _covv_triples(t2, t2)
    if n11 == 0.0 or n22 == 0.0:
        raise ValueError("rv is undefined for a zero operator")
    return float(_covv_triples(t1, t2) / np.sqrt(n11 * n22))


def rv_max(eigenvalues, q: int) -> float:
    """Best RV attainable by a rank-``q`` approximation.

    For a decomposition with eigenvalues ``lam`` the optimum is
    ``sqrt(sum(lam[:q]**2) / sum(lam**2))``, attained by the operator
    built from the leading ``q`` eigenvectors scaled so their weighted
    cross-product reproduces the leading eigenvalue block.

    Parameters
    ----------
    eigenvalues : array_like
        Nonincreasing nonnegative spectrum.
    q : int
        Approximation rank, between 1 and ``len(eigenvalues)``.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise ValueError("eigenvalues must be a vector")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues contain non-finite entries")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be nonnegative")
    if np.any(np.diff(lam) > 0):
        raise ValueError("eigenvalues must be nonincreasing")
    if not 1 <= q <= lam.shape[0]:
        raise ValueError(f"q must be in [1, {lam.shape[0]}], got {q}")
    total = np.sum(lam**2)
    if total == 0.0:
        raise ValueError("rv_max is undefined for an all-zero spectrum")
    return float(np.sqrt(np.sum(lam[:q] ** 2) / total))
