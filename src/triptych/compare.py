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

from .linalg import Triple, _as_float_matrix, _unit_scaled
from .scree import _checked_eigenvalues

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
    Each operator is scaled by a power of two first, which is exact, so the
    sums neither overflow nor underflow at any scale of the operators.

    Raises
    ------
    ValueError
        If either operator is identically zero (the ratio is undefined).
    """
    O1, O2 = (_unit_scaled(O)[0] for O in _operator_pair(O1, O2))
    n11, n22 = np.sum(O1 * O1), np.sum(O2 * O2)
    if n11 == 0.0 or n22 == 0.0:
        raise ValueError("rv is undefined for a zero operator")
    return float(np.sum(O1 * O2) / np.sqrt(n11 * n22))


def _covv_triples(X1, Q1, X2, Q2, w) -> float:
    """``covv`` of two triples' operators in p-space: trace(Q1 X1'D^2 X2 Q2 X2'X1)."""
    A = Q1 @ (X1.T * w**2) @ X2
    return float(np.sum(A * (Q2 @ X2.T @ X1).T))


def rv_triples(t1: Triple, t2: Triple) -> float:
    """RV coefficient between the observation-space operators of two triples.

    The triples must describe the same observations: equal row counts and
    identical weight vectors, as both trace formulas weight observation
    pairs through the common ``D = diag(weights)``.  Each array is scaled by
    a power of two first, which is exact and leaves RV unchanged at any scale.
    """
    if t1.n_observations != t2.n_observations:
        raise ValueError(
            f"triples describe different observation counts: "
            f"{t1.n_observations} vs {t2.n_observations}"
        )
    if not np.array_equal(t1.weights, t2.weights):
        raise ValueError("triples must share the same observation weights")
    X1, Q1, X2, Q2, w = (_unit_scaled(a)[0]
                         for a in (t1.data, t1.metric, t2.data, t2.metric, t1.weights))
    n11, n22 = _covv_triples(X1, Q1, X1, Q1, w), _covv_triples(X2, Q2, X2, Q2, w)
    if n11 == 0.0 or n22 == 0.0:
        raise ValueError("rv is undefined for a zero operator")
    return float(_covv_triples(X1, Q1, X2, Q2, w) / np.sqrt(n11 * n22))


def rv_max(eigenvalues, q: int) -> float:
    """Best RV attainable by a rank-``q`` approximation.

    For a decomposition with eigenvalues ``lam`` the optimum is
    ``sqrt(sum(lam[:q]**2) / sum(lam**2))``, attained by the operator
    built from the leading ``q`` eigenvectors scaled so their weighted
    cross-product reproduces the leading eigenvalue block.  It is
    computed on the spectrum scaled by a power of two, so it is defined
    at any scale.

    Parameters
    ----------
    eigenvalues : array_like
        Finite, nonnegative, nonincreasing spectrum.
    q : int
        Approximation rank, between 1 and ``len(eigenvalues)``.
    """
    lam = _checked_eigenvalues(eigenvalues)
    if not 1 <= q <= lam.shape[0]:
        raise ValueError(f"q must be in [1, {lam.shape[0]}], got {q}")
    lam, _ = _unit_scaled(lam)  # the ratio is scale-free
    total = np.sum(lam**2)
    if total == 0.0:
        raise ValueError("rv_max is undefined for an all-zero spectrum")
    return float(np.sqrt(np.sum(lam[:q] ** 2) / total))
