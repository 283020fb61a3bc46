"""Property tests of scale invariance: ca under count scaling, and the RV
coefficients under scaling one operator or one triple's data.

hypothesis is in the ``test`` extra; without it this module is skipped
and the rest of the suite still runs.
"""

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import ContingencyTable, ca, make_triple, rv, rv_triples  # noqa: E402


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
