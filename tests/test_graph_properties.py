"""Property tests of the graph eigenproblem on random connected graphs.

hypothesis is in the ``test`` extra; without it this module is skipped
and the rest of the suite still runs.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sps

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import make_graph, spectrum  # noqa: E402

from graph_helpers import ring_edges  # noqa: E402


@st.composite
def ring_plus_chords(draw):
    """A connected graph: a cycle on 3 to 60 nodes plus random chords."""
    n = draw(st.integers(3, 60))
    node = st.integers(0, n - 1)
    chords = np.array(draw(st.lists(st.tuples(node, node), max_size=2 * n)), dtype=int)
    chords = chords.reshape(-1, 2)
    chords = chords[chords[:, 0] != chords[:, 1]]
    a, b = np.unique(np.sort(np.vstack([ring_edges(n), chords]), axis=1), axis=0).T
    M = sps.coo_array((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    return make_graph(M)


@settings(max_examples=60, deadline=None)
@given(ring_plus_chords())
def test_nontrivial_mu_sum_to_n(g):
    # trace(I - S M S) = n for a loop-free graph, and the trivial mu is 0.
    n = g.n_nodes
    full = spectrum(g).eigenvalues
    only = spectrum(g, vectors=False).eigenvalues
    for mu in (full, only):
        assert abs(np.sum(mu) - n) <= 1e-10 * n
    npt.assert_allclose(only, full, rtol=0, atol=1e-13)
