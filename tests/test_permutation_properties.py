"""Property tests of row-permutation equivariance for the methods.

Permuting the observations (with their responses, group coding and
weights; for ca, the table's rows) permutes the row coordinates the same
way and leaves the eigenvalues and column coordinates as they were.  A
permutation changes the order of summation, so the comparison is at the
unit-test tolerances, not bitwise.

hypothesis is in the ``test`` extra; without it this module is skipped
and the rest of the suite still runs.
"""

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import ContingencyTable, ca, cca, lda, pca, pcaiv  # noqa: E402

# Axes inside a tie are arbitrary, so draws whose eigenvalues lie closer
# than this, relative to the leading one, are skipped.
TIE_GAP = 1e-6


def _methods(rng, n):
    """Each method as a function of a row permutation, on one random draw."""
    p = int(rng.integers(1, 4))
    X = rng.standard_normal((n, p))
    Y = rng.standard_normal((n, int(rng.integers(1, 3))))
    w = rng.uniform(0.5, 2.0, n)
    groups = np.array([f"g{i % 3}" for i in range(n)])
    counts = rng.integers(1, 20, (n, int(rng.integers(2, 6)))).astype(float)
    return {
        "pca": lambda s: pca(X[s]),
        "pca-standardized": lambda s: pca(X[s], standardize=True),
        "pca-weighted": lambda s: pca(X[s], weights=w[s]),
        "ca": lambda s: ca(ContingencyTable(counts[s])),
        "lda": lambda s: lda(X[s], list(groups[s]), weights=w[s]),
        "pcaiv": lambda s: pcaiv(X[s], Y[s], weights=w[s]),
        "cca": lambda s: cca(X[s], Y[s], weights=w[s]),
    }


@pytest.mark.parametrize("method", ["pca", "pca-standardized", "pca-weighted", "ca",
                                    "lda", "pcaiv", "cca"])
@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 30), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_row_permutation_permutes_row_coordinates(method, n, seed, data):
    run = _methods(np.random.default_rng(seed), n)[method]
    perm = np.array(data.draw(st.permutations(range(n))))
    ref, got = run(np.arange(n)), run(perm)
    lam = ref.decomposition.eigenvalues
    assume(lam.size and np.all(np.diff(lam) < -TIE_GAP * lam[0]))
    npt.assert_allclose(got.decomposition.eigenvalues, lam, rtol=1e-10, atol=1e-12 * lam[0])
    for a, b in ((got.row_coords, ref.row_coords[perm]), (got.col_coords, ref.col_coords)):
        npt.assert_allclose(a, b, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(b))))
