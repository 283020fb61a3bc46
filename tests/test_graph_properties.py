"""Property tests of graph construction, components and the eigenproblem.

``make_graph`` and ``component_subgraphs`` are checked against scipy's
canonical CSR form and ``connected_components``; the eigenproblem on
random connected graphs.

hypothesis is in the ``test`` extra; without it this module is skipped
and the rest of the suite still runs.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sps
from scipy.sparse.csgraph import connected_components

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import component_subgraphs, make_graph, spectrum  # noqa: E402

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


def _scipy_make_graph(adjacency):
    """make_graph's contract computed with scipy's own canonicalization: the
    canonical CSR arrays of a valid adjacency, or the message of its first
    error (each names the first offending entry in row-major order)."""
    sparse = sps.issparse(adjacency)
    M = adjacency if sparse else np.asarray(adjacency, dtype=float)
    if M.ndim != 2:
        return f"adjacency must be a 2-D matrix, got ndim={M.ndim}"
    A = sps.csr_array(M, dtype=float, copy=sparse)
    A.sum_duplicates()
    A.eliminate_zeros()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))

    def first(mask):
        e = np.flatnonzero(mask)[0]
        return int(rows[e]), int(A.indices[e])

    if not np.all(np.isfinite(A.data)):
        return "adjacency contains non-finite entries (entry ({}, {}))".format(
            *first(~np.isfinite(A.data)))
    n = A.shape[0]
    if A.shape[1] != n:
        return f"adjacency must be square, got {A.shape}"
    if np.any(A.data != 1.0):
        return "adjacency entries must be 0 or 1 (entry ({}, {}) is not)".format(
            *first(A.data != 1.0))
    skew = A - A.T
    skew.sum_duplicates()
    skew.eliminate_zeros()
    if skew.nnz:
        i, j = int(np.repeat(np.arange(n), np.diff(skew.indptr))[0]), int(skew.indices[0])
        return f"adjacency must be symmetric (entries ({i}, {j}) / ({j}, {i}) differ)"
    loops = rows[rows == A.indices]
    if loops.size:
        return f"self loops are not allowed (node {int(loops[0])})"
    return A


# Every partial sum of these is exact, so duplicates add up to the same bits
# in any order (scipy's in-row sort is not stable).
VALUES = st.sampled_from([1.0, 1.0, 1.0, 0.5, 0.0, -1.0, 2.0, np.nan, np.inf, -np.inf])


@st.composite
def adjacencies(draw):
    """A dense, COO or raw CSR adjacency: a random symmetric 0/1 pattern on
    0 to 9 nodes, with some of: entries split into duplicates, explicit
    zeros, a stray (possibly non-0/1 or non-finite) entry, a self loop, an
    extra column, and 64-bit indices."""
    n = draw(st.integers(0, 9))
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    pairs = draw(st.lists(cells, max_size=3 * n)) if n else []
    r = [i for i, j in pairs if i != j] + [j for i, j in pairs if i != j]
    c = [j for i, j in pairs if i != j] + [i for i, j in pairs if i != j]
    r, c = (list(x) for x in zip(*sorted(set(zip(r, c))))) if r else ([], [])
    v = [1.0] * len(r)
    width = n + draw(st.sampled_from([0, 0, 0, 0, 1]))
    if r and draw(st.booleans()):
        k = draw(st.integers(0, len(r) - 1))
        r, c, v = r + [r[k]], c + [c[k]], v[:k] + [0.5] + v[k + 1:] + [0.5]
    extras = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(width - 1, 0)), VALUES)
    for i, j, x in draw(st.lists(extras, max_size=2)) if n and width else []:
        r, c, v = r + [i], c + [j], v + [x]
    order = draw(st.permutations(range(len(r))))
    r, c, v = (np.array([x[k] for k in order]) for x in (r, c, v))
    v = v.astype(float)
    shape = (n, width)
    kind = draw(st.sampled_from(["dense", "coo", "csr"]))
    index = np.int64 if draw(st.booleans()) else np.int32
    if kind == "dense":
        M = np.zeros(shape)
        with np.errstate(invalid="ignore"):
            np.add.at(M, (r.astype(int), c.astype(int)), v)
        return M
    r, c = r.astype(index), c.astype(index)
    if kind == "coo":
        return sps.coo_array((v, (r, c)), shape=shape)
    # CSR over these very entries: rows grouped, columns unsorted, duplicates kept.
    by_row = np.argsort(r, kind="stable")
    indptr = np.searchsorted(r[by_row], np.arange(n + 1)).astype(index)
    return sps.csr_array((v[by_row], c[by_row], indptr), shape=shape)


@settings(max_examples=400, deadline=None)
@given(adjacencies())
def test_make_graph_matches_scipy_canonical_form(adjacency):
    want = _scipy_make_graph(adjacency)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = make_graph(adjacency)
    except ValueError as err:
        assert str(err) == want
        return
    assert not isinstance(want, str), want
    A = g.csr
    for got, ref in ((A.indptr, want.indptr), (A.indices, want.indices), (A.data, want.data)):
        if sps.issparse(adjacency) and adjacency.format == "coo" and adjacency.nnz == 0:
            # The one difference: scipy turns a COO input with no stored entries into
            # a fresh 32-bit CSR; make_graph keeps the width of its coordinates.
            ref = ref.astype(np.result_type(ref, *adjacency.coords))
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    npt.assert_array_equal(g.degrees, np.diff(want.indptr))


def _blocks_graph(blocks, seed):
    """Disjoint paths, stars, cycles and isolated nodes, nodes shuffled."""
    edges, n = [], 0
    for kind, m in blocks:
        if kind == "path":
            edges += [(n + i, n + i + 1) for i in range(m - 1)]
        elif kind == "star":
            edges += [(n, n + i) for i in range(1, m)]
        elif kind == "cycle" and m > 2:
            edges += [(n + i, n + (i + 1) % m) for i in range(m)]
        n += m if kind != "isolated" else 1
    perm = np.random.default_rng(seed).permutation(n)
    a, b = perm[np.array(edges, dtype=int).reshape(-1, 2).T]
    M = sps.coo_array((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    return make_graph(M)


BLOCKS = st.tuples(st.sampled_from(["path", "star", "cycle", "isolated"]), st.integers(1, 30))


@settings(max_examples=150, deadline=None)
@given(st.lists(BLOCKS, min_size=1, max_size=40), st.integers(0, 2**32 - 1))
@example([("path", 20000)], 1)
@example([("path", 20000), ("star", 3), ("isolated", 1)], 2)
@example([("star", 5000)], 3)
def test_components_match_scipy(blocks, seed):
    g = _blocks_graph(blocks, seed)
    n_comp, labels = connected_components(g.csr, directed=False)
    parts = component_subgraphs(g)
    assert len(parts) == n_comp
    for k, (idx, sub) in enumerate(parts):
        npt.assert_array_equal(idx, np.flatnonzero(labels == k))
        ref = g.csr[idx][:, idx]
        ref.sort_indices()
        npt.assert_array_equal(sub.csr.indptr, ref.indptr)
        npt.assert_array_equal(sub.csr.indices, ref.indices)
    if n_comp > 1 and g.n_nodes > 1:
        with pytest.raises(ValueError, match=rf"disconnected \({n_comp} components\)"):
            spectrum(g)
