"""Property tests of scale invariance: ca under count scaling, the RV
coefficients under scaling one operator or one triple's data, and, bit for
bit under a power of two, the RV coefficients, the Geary ratios, the local
variance and covariance of node covariates, the weighted methods under
scaled weights, and lda and pcaiv under scaled data.

hypothesis is in the ``test`` extra; without it this module is skipped
and the rest of the suite still runs.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sps

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import (  # noqa: E402
    ContingencyTable, ca, classical_geary, geary, lda, local_covariance, local_variance,
    make_graph, make_triple, pca, pcaiv, rv, rv_triples,
)

from graph_helpers import ring_with_chords  # noqa: E402


def scales(decades):
    """A scale factor 10**e, with e drawn from [-decades, decades]."""
    return st.floats(-decades, decades).map(lambda e: 10.0**e)


@st.composite
def matrices(draw, rows, cols, low=-9, high=9):
    """An integer-valued float matrix of ``rows`` x ``cols`` (ints or ranges)."""
    m = rows if isinstance(rows, int) else draw(st.integers(*rows))
    p = cols if isinstance(cols, int) else draw(st.integers(*cols))
    cells = draw(st.lists(st.integers(low, high), min_size=m * p, max_size=m * p))
    return np.array(cells, dtype=float).reshape(m, p)


# An RV of 0 (operators with orthogonal ranges) is rounding noise at
# either scale, so it is compared on an absolute scale as well.
RV_ATOL = 1e-14


@settings(max_examples=200, deadline=None)
@given(matrices((2, 8), (2, 8), low=1, high=50), scales(100))
def test_ca_ignores_count_scale(counts, c):
    ref = ca(ContingencyTable(counts)).decomposition
    got = ca(ContingencyTable(counts * c)).decomposition
    assert got.rank == ref.rank
    if ref.rank:
        npt.assert_allclose(got.eigenvalues, ref.eigenvalues, rtol=0,
                            atol=1e-12 * ref.eigenvalues[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    matrices(n, (1, 4)), matrices(n, (1, 4)))), scales(150))
def test_rv_of_psd_operators_is_bounded_and_scale_free(factors, c):
    A1, A2 = factors
    assume(np.any(A1) and np.any(A2))
    O1, O2 = A1 @ A1.T, A2 @ A2.T
    ref = rv(O1, O2)
    assert -RV_ATOL <= ref <= 1.0 + 1e-12
    npt.assert_allclose(rv(c * O1, O2), ref, rtol=1e-12, atol=RV_ATOL)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    matrices(n, (1, 4)), matrices(n, (1, 4)), matrices(n, 1, low=1, high=9))),
    scales(150))
def test_rv_triples_is_bounded_and_scale_free(parts, c):
    X1, X2, w = parts
    assume(np.any(X1) and np.any(X2))
    I1, I2 = np.eye(X1.shape[1]), np.eye(X2.shape[1])
    # Under uniform weights both operators are PSD, so RV lies in [0, 1].
    # Under other weights trace(O1.T @ O2) can be negative (ROADMAP item 1).
    for weights, bounded in ((np.ones(X1.shape[0]), True), (w[:, 0], False)):
        t2 = make_triple(X2, I2, weights)
        ref = rv_triples(make_triple(X1, I1, weights), t2)
        if bounded:
            assert -RV_ATOL <= ref <= 1.0 + 1e-12
        got = rv_triples(make_triple(c * X1, I1, weights), t2)
        npt.assert_allclose(got, ref, rtol=1e-12, atol=RV_ATOL)


# Exponents k for which 2**k times the integer-valued data above neither
# underflows nor overflows, so the scaling is exact.
exponents = st.integers(-1000, 1000)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    matrices(n, (1, 4)), matrices(n, (1, 4)))), exponents)
def test_rv_is_bitwise_unchanged_by_a_power_of_two(factors, k):
    A1, A2 = factors
    assume(np.any(A1) and np.any(A2))
    O1, O2 = A1 @ A1.T, A2 @ A2.T
    assert rv(np.ldexp(O1, k), O2) == rv(O1, O2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), st.integers(1, 4), st.data(), exponents)
def test_rv_triples_is_bitwise_unchanged_by_a_power_of_two(n, p1, p2, data, k):
    X1, X2 = data.draw(matrices(n, p1)), data.draw(matrices(n, p2))
    A = data.draw(matrices(p1, p1))
    w = data.draw(matrices(n, 1, low=1, high=9))[:, 0]
    assume(np.any(X1) and np.any(X2))
    Q1, I2 = A.T @ A + np.eye(p1), np.eye(p2)
    t2 = make_triple(X2, I2, w)
    ref = rv_triples(make_triple(X1, Q1, w), t2)
    assert rv_triples(make_triple(np.ldexp(X1, k), Q1, w), t2) == ref
    # the metric's Cholesky factor scales exactly under an even power
    assert rv_triples(make_triple(X1, np.ldexp(Q1, 2 * (k // 2)), w), t2) == ref
    wk = np.ldexp(w, k)
    assert rv_triples(make_triple(X1, Q1, wk), make_triple(X2, I2, wk)) == ref


def ring_graph(n, seed):
    a, b = ring_with_chords(np.random.default_rng(seed), n).T
    return make_graph(sps.coo_array((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])),
                                    shape=(n, n)))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.data(), exponents)
def test_geary_is_bitwise_unchanged_by_a_power_of_two(n, seed, data, k):
    g = ring_graph(n, seed)
    x = data.draw(matrices(n, 1))[:, 0]
    assume(np.any(x))
    assert geary(g, np.ldexp(x, k)) == geary(g, x)


def _representable(ref):
    """Entries that are zero or normal floats, so they hold their exact value;
    a subnormal or inf reference is already rounded."""
    normal = np.abs(ref) >= np.finfo(float).tiny
    return np.isfinite(ref) & ((ref == 0) | normal)


def _assert_scaled(got, ref, k):
    """``got`` equals ``ref * 2**k`` bit for bit wherever ``ref`` is representable,
    the out-of-range ends included: there ``ref * 2**k`` and ``got`` round once
    from the same exact value to inf, a subnormal or 0."""
    with np.errstate(over="ignore", under="ignore"):
        want = np.ldexp(ref, k)
    keep = _representable(ref)
    npt.assert_array_equal(got[keep], want[keep], strict=True)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_covariate_statistics_follow_each_columns_power_of_two(n, p, seed, data):
    g = ring_graph(n, seed)
    X = data.draw(matrices(n, p))
    k = np.array(data.draw(st.lists(exponents, min_size=p, max_size=p)))
    Xk = np.ldexp(X, k)
    if np.all(np.ptp(X, axis=0) > 0):
        npt.assert_array_equal(classical_geary(g, Xk), classical_geary(g, X), strict=True)
    _assert_scaled(local_variance(g, Xk), local_variance(g, X), 2 * k)
    _assert_scaled(local_covariance(g, Xk), local_covariance(g, X), k[:, None] + k)


@settings(max_examples=100, deadline=None)
@given(st.integers(6, 20), st.integers(1, 3), st.integers(0, 2**32 - 1), exponents)
def test_weighted_methods_are_bitwise_unchanged_by_scaling_weights(n, p, seed, k):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    w = rng.integers(1, 10, n).astype(float)
    groups = [f"g{i % 2}" for i in range(n)]
    for run in (lambda v: pca(X, weights=v), lambda v: pca(X, standardize=True, weights=v),
                lambda v: lda(X, groups, weights=v)):
        ref, got = run(w), run(np.ldexp(w, k))
        for a, b in ((ref.decomposition.eigenvalues, got.decomposition.eigenvalues),
                     (ref.row_coords, got.row_coords), (ref.col_coords, got.col_coords)):
            npt.assert_array_equal(b, a, strict=True)


# Data exponents for lda and pcaiv.  Their covariances and metrics scale as
# 4**k or 4**-k, so near |k| = 512 they reach the ends of the float range;
# two thirds of the draws fall there, half on each side.
data_exponents = (st.integers(-600, 600) | st.integers(496, 540)
                  | st.integers(-540, -496))


def _blocks(n, p, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, p)), rng.standard_normal((n, 2)),
            rng.integers(1, 10, n).astype(float))


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 30), st.integers(1, 3), st.integers(0, 2**32 - 1), data_exponents)
def test_lda_follows_the_datas_power_of_two(n, p, seed, k):
    X, _, w = _blocks(n, p, seed)
    groups = [f"g{i % 3}" for i in range(n)]
    ref, got = lda(X, groups, weights=w), lda(np.ldexp(X, k), groups, weights=w)
    npt.assert_array_equal(got.extras["discriminating_ratios"],
                           ref.extras["discriminating_ratios"], strict=True)
    for name in ("total", "between", "within"):
        _assert_scaled(got.extras[name], ref.extras[name], 2 * k)


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 30), st.integers(1, 3), st.integers(0, 2**32 - 1), data_exponents)
def test_pcaiv_follows_the_datas_power_of_two(n, p, seed, k):
    X, Y, w = _blocks(n, p, seed)
    ref, got = pcaiv(X, Y, weights=w), pcaiv(np.ldexp(X, k), Y, weights=w)
    npt.assert_array_equal(got.decomposition.eigenvalues, ref.decomposition.eigenvalues,
                           strict=True)
    _assert_scaled(got.extras["instrumental_metric"], ref.extras["instrumental_metric"],
                   -2 * k)
