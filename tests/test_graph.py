import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

import triptych.graph
from triptych import (
    ContingencyTable,
    ca,
    classical_geary,
    component_subgraphs,
    geary,
    laplacian,
    layout,
    lda,
    local_covariance,
    local_variance,
    make_graph,
    regress_on_covariates,
    spectrum,
)

from graph_helpers import ring_edges, ring_with_chords


def path_graph(n=3):
    M = np.zeros((n, n))
    for i in range(n - 1):
        M[i, i + 1] = M[i + 1, i] = 1
    return make_graph(M)


def complete_graph(n):
    return make_graph(np.ones((n, n)) - np.eye(n))


def cycle_graph(n):
    M = np.zeros((n, n))
    for i in range(n):
        M[i, (i + 1) % n] = M[(i + 1) % n, i] = 1
    return make_graph(M)


def two_triangles():
    M = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        M[a, b] = M[b, a] = 1
    return make_graph(M)


def linked_triangles():
    g = two_triangles()
    M = np.array(g.adjacency)
    M[2, 3] = M[3, 2] = 1
    return make_graph(M)


def random_connected(rng, n):
    # random spanning tree plus a few extra edges
    M = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        M[u, v] = M[v, u] = 1
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            M[i, j] = M[j, i] = 1
    return make_graph(M)


def sparse_graph(n, edges):
    """Graph on n nodes from an (m, 2) array of undirected edges, built
    without a dense n x n array."""
    a, b = np.asarray(edges).T
    M = sps.coo_array((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    return make_graph(M)


def brute_pair_sum(M, x, y):
    s = 0.0
    n = M.shape[0]
    for i in range(n):
        for j in range(n):
            s += M[i, j] * (x[i] - x[j]) * (y[i] - y[j])
    return s


class TestMakeGraph:
    def test_basic_fields(self):
        g = path_graph(4)
        npt.assert_array_equal(g.degrees, [1, 2, 2, 1])
        assert g.total_degree == 6
        assert g.n_edges == 3
        assert g.n_nodes == 4
        assert g.node_labels == ("v1", "v2", "v3", "v4")

    def test_custom_labels(self):
        g = make_graph([[0, 1], [1, 0]], node_labels=["left", "right"])
        assert g.node_labels == ("left", "right")

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            make_graph(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="0 or 1"):
            make_graph([[0, 0.5], [0.5, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            make_graph([[0, 1], [0, 0]])
        with pytest.raises(ValueError, match="self loops"):
            make_graph([[1, 1], [1, 0]])
        with pytest.raises(ValueError, match="expected 2"):
            make_graph([[0, 1], [1, 0]], node_labels=["a"])
        with pytest.raises(ValueError, match="duplicate"):
            make_graph([[0, 1], [1, 0]], node_labels=["a", "a"])

    def test_three_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match="adjacency must be a 2-D matrix, got ndim=3"):
            make_graph(np.zeros((2, 2, 2)))

    def test_adjacency_immutable(self):
        g = path_graph()
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_component_subgraphs(self):
        g = two_triangles()
        comps = component_subgraphs(g)
        assert len(comps) == 2
        idx0, sub0 = comps[0]
        npt.assert_array_equal(idx0, [0, 1, 2])
        assert sub0.n_edges == 3
        assert sub0.node_labels == ("v1", "v2", "v3")

    def test_component_subgraphs_match_make_graph(self, monkeypatch):
        # Components of shuffled random graphs, compared with make_graph of
        # the same slice; the split itself must not revalidate.
        rng = np.random.default_rng(91)
        cases = []
        for n_comp in range(1, 21):
            sizes = rng.integers(1, 9, n_comp)
            M = scipy.linalg.block_diag(*[
                random_connected(rng, int(m)).adjacency for m in sizes])
            perm = rng.permutation(M.shape[0])
            g = make_graph(M[perm][:, perm], [f"n{i}" for i in perm])
            cases.append((g, n_comp))
        with monkeypatch.context() as m:
            m.setattr(triptych.graph, "make_graph", None)
            parts = [component_subgraphs(g) for g, _ in cases]
        for (g, n_comp), comps in zip(cases, parts):
            assert len(comps) == n_comp
            npt.assert_array_equal(np.sort(np.concatenate([i for i, _ in comps])),
                                   np.arange(g.n_nodes))
            for idx, sub in comps:
                ref = make_graph(g.csr[idx][:, idx], [g.node_labels[i] for i in idx])
                assert sub.node_labels == ref.node_labels
                assert sub.total_degree == ref.total_degree
                for got, want in ((sub.csr.data, ref.csr.data),
                                  (sub.csr.indices, ref.csr.indices),
                                  (sub.csr.indptr, ref.csr.indptr),
                                  (sub.degrees, ref.degrees)):
                    assert got.dtype == want.dtype
                    npt.assert_array_equal(got, want)
                    assert not got.flags.writeable


class TestSparseInput:
    def test_sparse_matches_dense_twin(self):
        rng = np.random.default_rng(80)
        dense = random_connected(rng, 12)
        M = np.asarray(dense.adjacency)
        labels = [f"n{i}" for i in range(12)]
        for sparse in (sps.csr_array(M), sps.coo_matrix(M), sps.csc_array(M)):
            g = make_graph(sparse, node_labels=labels)
            twin = make_graph(M, node_labels=labels)
            npt.assert_array_equal(g.degrees, twin.degrees)
            assert g.node_labels == twin.node_labels
            npt.assert_array_equal(g.adjacency, twin.adjacency)
            a, b = spectrum(g), spectrum(twin)
            npt.assert_array_equal(a.eigenvalues, b.eigenvalues)
            npt.assert_array_equal(a.vectors, b.vectors)

    def test_csr_arrays_read_only(self):
        g = make_graph(sps.csr_array(np.asarray(path_graph(4).adjacency)))
        for part in (g.csr.data, g.csr.indices, g.csr.indptr, g.degrees):
            assert not part.flags.writeable

    def test_csr_view_cannot_change_graph(self):
        g = path_graph()
        A = g.csr
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sps.SparseEfficiencyWarning)
            for entry in ((0, 2), (0, 1)):
                try:
                    A[entry] = 5.0
                except ValueError:
                    pass  # the shared arrays are read-only
        A.resize((4, 4))
        assert g.csr.shape == (3, 3) and g.csr.nnz == 4
        npt.assert_array_equal(g.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        npt.assert_array_equal(g.degrees, [1, 2, 1])
        assert g.total_degree == 4

    def test_input_not_modified(self):
        # unsorted row 0 with an explicit zero on the diagonal
        before = sps.csr_array((np.array([1.0, 0.0, 1.0]), np.array([1, 0, 0]),
                                np.array([0, 2, 3])), shape=(2, 2))
        data = before.data.copy()
        make_graph(before)
        npt.assert_array_equal(before.data, data)
        assert before.nnz == 3

    @pytest.mark.parametrize("dense, sparse, pattern", [
        ([[0, 0.5], [0.5, 0]], None, r"0 or 1 \(entry \(0, 1\) is not\)"),
        ([[0, 2], [2, 0]],
         sps.coo_array((np.ones(4), ([0, 0, 1, 1], [1, 1, 0, 0])), shape=(2, 2)),
         r"0 or 1 \(entry \(0, 1\) is not\)"),
        ([[0, 1, 1], [1, 0, 0], [0, 0, 0]], None,
         r"symmetric \(entries \(0, 2\) / \(2, 0\) differ\)"),
        ([[0, 1, 0], [1, 1, 0], [0, 0, 0]], None, r"self loops .* \(node 1\)"),
        (np.zeros((2, 3)), None, r"square, got \(2, 3\)"),
        ([[0, 1], [np.nan, 0]], None, r"non-finite entries \(entry \(1, 0\)\)"),
    ], ids=["non-binary", "duplicates-sum-to-2", "asymmetric", "self-loop",
            "non-square", "non-finite"])
    def test_errors_name_entry_as_dense(self, dense, sparse, pattern):
        with pytest.raises(ValueError, match=pattern) as dense_err:
            make_graph(dense)
        if sparse is None:
            sparse = sps.csr_array(np.asarray(dense, dtype=float))
        with pytest.raises(ValueError) as sparse_err:
            make_graph(sparse)
        assert str(sparse_err.value) == str(dense_err.value)


class TestLaplacian:
    def test_annihilates_constants_exactly(self):
        rng = np.random.default_rng(60)
        for n in (3, 6, 10):
            g = random_connected(rng, n)
            L = laplacian(g)
            assert np.all(L @ np.ones(n) == 0.0)
            npt.assert_array_equal(L, L.T)

    def test_quadratic_form_splits_degree_form(self):
        rng = np.random.default_rng(61)
        g = random_connected(rng, 7)
        x = rng.standard_normal(7)
        lhs = x @ laplacian(g) @ x + x @ g.adjacency @ x
        npt.assert_allclose(lhs, np.sum(g.degrees * x * x), rtol=1e-12)


class TestLocalVariance:
    def test_constant_is_zero(self):
        g = path_graph(5)
        npt.assert_array_equal(local_variance(g, np.full(5, 3.7)), [0.0])

    def test_path_example(self):
        g = path_graph(3)
        x = np.array([1.0, 2.0, 3.0])
        got = local_variance(g, x)[0]
        brute = brute_pair_sum(np.asarray(g.adjacency), x, x) / (2 * g.total_degree)
        npt.assert_allclose(got, brute, rtol=1e-14)
        npt.assert_allclose(got, 0.5, rtol=1e-14)

    def test_random_against_brute(self):
        rng = np.random.default_rng(62)
        g = random_connected(rng, 9)
        X = rng.standard_normal((9, 3))
        got = local_variance(g, X)
        M = np.asarray(g.adjacency)
        brute = [
            brute_pair_sum(M, X[:, j], X[:, j]) / (2 * g.total_degree)
            for j in range(3)
        ]
        npt.assert_allclose(got, brute, rtol=1e-12)

    def test_complete_graph_inflates_variance(self):
        rng = np.random.default_rng(63)
        n = 6
        g = complete_graph(n)
        x = rng.standard_normal(n)
        var = np.mean((x - x.mean()) ** 2)
        npt.assert_allclose(local_variance(g, x)[0], n / (n - 1) * var, rtol=1e-12)

    def test_edgeless_rejected(self):
        g = make_graph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="edge"):
            local_variance(g, np.arange(3.0))


class TestGeary:
    def test_constant_is_zero(self):
        assert geary(path_graph(4), np.ones(4)) == 0.0

    def test_path_example(self):
        npt.assert_allclose(geary(path_graph(3), [1.0, 2.0, 3.0]), 1 / 9,
                            rtol=1e-14)

    def test_eigenvector_gives_eigenvalue(self):
        rng = np.random.default_rng(64)
        g = random_connected(rng, 8)
        sp = spectrum(g)
        for j in range(sp.eigenvalues.size):
            npt.assert_allclose(
                geary(g, sp.vectors[:, j]), sp.eigenvalues[j], rtol=1e-10,
                atol=1e-12,
            )

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_extreme_scales(self, c):
        g = cycle_graph(6)
        x = np.array([1.0, 2.0, 4.0, 3.0, 5.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            npt.assert_allclose(geary(g, x * c), geary(g, x), rtol=1e-12)

    def test_errors(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="zero vector"):
            geary(g, np.zeros(3))
        with pytest.raises(ValueError,
                           match=r"covariates must have one row per node \(3\), got shape \(4,\)"):
            geary(g, np.ones(4))
        with pytest.raises(ValueError, match="edge"):
            geary(make_graph(np.zeros((2, 2))), np.ones(2))

    def test_isolated_support_rejected(self):
        M = np.zeros((3, 3))
        M[0, 1] = M[1, 0] = 1
        # third node has degree zero but the graph still has an edge
        g = make_graph(M)
        with pytest.raises(ValueError, match="isolated"):
            geary(g, [0.0, 0.0, 1.0])


class TestClassicalGeary:
    def test_ratio_definition(self):
        rng = np.random.default_rng(65)
        g = random_connected(rng, 7)
        X = rng.standard_normal((7, 2))
        got = classical_geary(g, X)
        var = np.mean((X - X.mean(axis=0)) ** 2, axis=0)
        npt.assert_allclose(got, local_variance(g, X) / var, rtol=1e-12)

    def test_constant_column_rejected(self):
        g = path_graph(4)
        X = np.column_stack([np.arange(4.0), np.full(4, 2.0)])
        with pytest.raises(ValueError, match="column 1"):
            classical_geary(g, X)

    def test_edgeless_rejected_by_name(self):
        with pytest.raises(ValueError, match="^classical geary needs at least one edge$"):
            classical_geary(make_graph(np.zeros((3, 3))), np.arange(3.0))


@pytest.mark.parametrize("k", [508, -540])
def test_covariate_statistics_scale_each_column_by_its_own_power_of_two(k):
    # At 2**508 the squared differences overflow, at 2**-540 they underflow,
    # unless each column is first scaled by the power of two of its max |entry|.
    rng = np.random.default_rng(69)
    g = sparse_graph(1000, ring_with_chords(rng, 1000))
    X = rng.standard_normal((1000, 3))
    ks = np.array([k, 0, -k // 2])
    Xk = np.ldexp(X, ks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        npt.assert_array_equal(classical_geary(g, Xk), classical_geary(g, X), strict=True)
        assert [geary(g, x) for x in Xk.T] == [geary(g, x) for x in X.T]
        npt.assert_array_equal(local_variance(g, Xk),
                               np.ldexp(local_variance(g, X), 2 * ks), strict=True)
        npt.assert_array_equal(local_covariance(g, Xk),
                               np.ldexp(local_covariance(g, X), ks[:, None] + ks),
                               strict=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("covariate_function", [
    local_variance, classical_geary, local_covariance, geary,
    lambda g, x: regress_on_covariates(g, x, k=2),
], ids=["local_variance", "classical_geary", "local_covariance", "geary",
        "regress_on_covariates"])
def test_non_finite_covariates_rejected_alike(covariate_function, bad):
    x = np.array([1.0, 2.0, 4.0, 3.0, 5.0, 0.0])
    x[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^covariates contain non-finite entries$"):
            covariate_function(sparse_graph(6, ring_edges(6)), x)


class TestLocalCovariance:
    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="local covariance needs at least one edge"):
            local_covariance(make_graph(np.zeros((3, 3))), np.ones((3, 2)))

    @pytest.mark.parametrize("X, message", [
        (np.ones((3, 2)), r"one row per node \(4\), got shape \(3, 2\)"),
        (np.ones((4, 2, 1)), r"one row per node \(4\), got shape \(4, 2, 1\)"),
        ([[1.0], [np.nan], [0.0], [2.0]], "covariates contain non-finite entries"),
    ], ids=["rows", "3-D", "nan"])
    def test_bad_covariates_rejected(self, X, message):
        with pytest.raises(ValueError, match=message):
            local_covariance(path_graph(4), X)

    def test_constant_columns_are_zero(self):
        g = path_graph(4)
        V = local_covariance(g, np.ones((4, 2)))
        npt.assert_array_equal(V, np.zeros((2, 2)))

    def test_path_single_column(self):
        npt.assert_allclose(
            local_covariance(path_graph(3), [1.0, 2.0, 3.0]), [[0.25]],
            rtol=1e-14,
        )

    def test_brute_pair_sums(self):
        rng = np.random.default_rng(66)
        g = random_connected(rng, 8)
        X = rng.standard_normal((8, 3))
        V = local_covariance(g, X)
        M = np.asarray(g.adjacency)
        for a in range(3):
            for b in range(3):
                brute = brute_pair_sum(M, X[:, a], X[:, b]) / (4 * g.total_degree)
                npt.assert_allclose(V[a, b], brute, rtol=1e-11, atol=1e-14)

    def test_diagonal_is_half_local_variance(self):
        rng = np.random.default_rng(67)
        g = random_connected(rng, 10)
        X = rng.standard_normal((10, 4))
        npt.assert_allclose(
            np.diag(local_covariance(g, X)), local_variance(g, X) / 2.0,
            rtol=1e-12,
        )

    def test_disjoint_cliques_proportional_to_within_covariance(self):
        # two disjoint triangles: the graph knows only the grouping, so the
        # local covariance reproduces the within-group covariance up to the
        # clique factor s / (2 (s - 1))
        rng = np.random.default_rng(68)
        g = two_triangles()
        X = rng.standard_normal((6, 2))
        V = local_covariance(g, X)
        labels = ["a", "a", "a", "b", "b", "b"]
        W = lda(X, labels).extras["within"]
        ratio = np.sum(V * W) / np.sum(W * W)
        npt.assert_allclose(ratio, 0.75, rtol=1e-10)
        assert np.max(np.abs(V - ratio * W)) <= 1e-10 * np.max(np.abs(V))


class TestSpectrum:
    def test_path_three_nodes(self):
        sp = spectrum(path_graph(3))
        npt.assert_allclose(sp.eigenvalues, [1.0, 2.0], rtol=1e-10)
        # mu = 1 eigenvector vanishes on the middle node, mu = 2 alternates
        v1, v2 = sp.vectors[:, 0], sp.vectors[:, 1]
        npt.assert_allclose(v1[1], 0.0, atol=1e-12)
        npt.assert_allclose(v1[0], -v1[2], rtol=1e-10)
        npt.assert_allclose(v2[0], v2[2], rtol=1e-10)
        assert np.sign(v2[0]) != np.sign(v2[1])

    def test_random_graphs_match_brute_oracle(self):
        rng = np.random.default_rng(69)
        for _ in range(10):
            n = int(rng.integers(4, 14))
            g = random_connected(rng, n)
            sp = spectrum(g)
            Dg = np.diag(np.asarray(g.degrees, float))
            brute = np.sort(
                np.linalg.eigvals(np.linalg.solve(Dg, laplacian(g))).real
            )
            npt.assert_allclose(brute[0], 0.0, atol=1e-10)
            npt.assert_allclose(sp.eigenvalues, brute[1:], rtol=1e-8, atol=1e-8)
            assert np.all(sp.eigenvalues >= -1e-10)
            assert np.all(sp.eigenvalues <= 2.0 + 1e-10)
            # eigenvectors orthonormal in the degree metric
            V = sp.vectors
            npt.assert_allclose(V.T @ Dg @ V, np.eye(n - 1), atol=1e-8)

    def test_eigen_equation(self):
        rng = np.random.default_rng(70)
        g = random_connected(rng, 9)
        sp = spectrum(g)
        L = laplacian(g)
        Dg = np.diag(np.asarray(g.degrees, float))
        resid = L @ sp.vectors - Dg @ sp.vectors * sp.eigenvalues
        assert np.max(np.abs(resid)) <= 1e-10

    def test_k_selects_smallest(self):
        rng = np.random.default_rng(71)
        g = random_connected(rng, 8)
        full = spectrum(g)
        part = spectrum(g, k=3)
        npt.assert_allclose(part.eigenvalues, full.eigenvalues[:3], rtol=1e-12)
        npt.assert_allclose(part.vectors, full.vectors[:, :3], atol=1e-10)
        with pytest.raises(ValueError, match=r"k must be in \[1, 7\]"):
            spectrum(g, k=8)

    def test_disconnected_rejected_by_default(self):
        with pytest.raises(
            ValueError,
            match=r"disconnected \(2 components\); analyze each connected component separately",
        ):
            spectrum(two_triangles())

    def test_per_component_parts(self):
        parts = component_subgraphs(two_triangles())
        assert len(parts) == 2
        for _, sub in parts:
            sp = spectrum(sub)
            npt.assert_allclose(sp.eigenvalues, [1.5, 1.5], rtol=1e-10)
            Dg = np.diag(np.asarray(sub.degrees, float))
            npt.assert_allclose(sp.vectors.T @ Dg @ sp.vectors, np.eye(2),
                                atol=1e-10)

    def test_isolated_node_rejected(self):
        M = np.zeros((3, 3))
        M[0, 1] = M[1, 0] = 1
        g = make_graph(M, node_labels=["a", "b", "lonely"])
        _, lonely = component_subgraphs(g)[1]
        with pytest.raises(ValueError, match="node 'lonely' is isolated"):
            spectrum(lonely)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph has no nodes"):
            spectrum(make_graph(np.zeros((0, 0))))

    def test_deterministic(self):
        rng = np.random.default_rng(72)
        g = random_connected(rng, 10)
        s1, s2 = spectrum(g), spectrum(g)
        npt.assert_array_equal(s1.vectors, s2.vectors)

    @pytest.mark.parametrize("k", [None, 2])
    def test_eigenvalues_only(self, k):
        g = random_connected(np.random.default_rng(73), 9)
        full, only = spectrum(g, k=k), spectrum(g, k=k, vectors=False)
        npt.assert_allclose(only.eigenvalues, full.eigenvalues, rtol=0, atol=1e-13)
        assert only.vectors.shape == (9, 0)
        assert not only.vectors.flags.writeable
        assert not only.eigenvalues.flags.writeable

    def test_nonzero_leading_eigenvalue_rejected(self, monkeypatch):
        """A connected graph's leading mu is 0; a solver that returns anything
        else is caught before the trivial pair is dropped."""
        solve = triptych.graph._smallest_pairs

        def shifted(g, m, vectors):
            mu, X = solve(g, m, vectors)
            return mu + 0.1, X

        monkeypatch.setattr(triptych.graph, "_smallest_pairs", shifted)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"expected a zero leading eigenvalue, got 1\.000e-01"):
            spectrum(path_graph(4))

    @pytest.mark.parametrize("vectors", [True, False])
    def test_errors_with_and_without_vectors(self, vectors):
        with pytest.raises(ValueError, match=r"disconnected \(2 components\)"):
            spectrum(two_triangles(), vectors=vectors)
        for k in (0, 4):
            with pytest.raises(ValueError, match=r"k must be in \[1, 3\]"):
                spectrum(path_graph(4), k=k, vectors=vectors)
        with pytest.raises(ValueError, match="node 'solo' is isolated"):
            spectrum(make_graph(np.zeros((1, 1)), node_labels=["solo"]), vectors=vectors)


def _grid_edges(m):
    idx = np.arange(m * m).reshape(m, m)
    return np.vstack([
        np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()]),
        np.column_stack([idx[:-1].ravel(), idx[1:].ravel()]),
    ])


def _complete_bipartite_edges(a, b):
    left, right = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return np.column_stack([left.ravel(), right.ravel()])


_LARGE_GRAPHS = {
    "cycle-500": lambda: sparse_graph(500, ring_edges(500)),
    "cycle-2000": lambda: sparse_graph(2000, ring_edges(2000)),
    "grid-40x40": lambda: sparse_graph(1600, _grid_edges(40)),
    "complete-500": lambda: sparse_graph(500, np.column_stack(np.triu_indices(500, 1))),
    "star-500": lambda: sparse_graph(
        501, np.column_stack([np.zeros(500, int), np.arange(1, 501)])),
    "bipartite-250-250": lambda: sparse_graph(500, _complete_bipartite_edges(250, 250)),
    "chords-600": lambda: sparse_graph(
        600, ring_with_chords(np.random.default_rng(81), 600)),
    "chords-1500": lambda: sparse_graph(
        1500, ring_with_chords(np.random.default_rng(82), 1500)),
    "two-components": lambda: sparse_graph(900, np.vstack([
        ring_with_chords(np.random.default_rng(83), 600),
        ring_with_chords(np.random.default_rng(84), 300, offset=600),
    ])),
}


class TestSparseSpectrum:
    """ARPACK pairs above the dense cutoff against a dense eigh oracle, on
    graphs whose mu are doubled (cycles, grid) or repeated hundreds of
    times (complete, star, complete bipartite).  On the cycles ARPACK
    runs out of its work budget and the dense fallback answers."""

    def test_arpack_work_capped_at_dense_cost(self, monkeypatch):
        # The smallest mu of a cycle are 1 - cos(2 pi j / n), each doubled,
        # and crowd together as 1/n^2: Lanczos would need thousands of products.
        n = 1000
        g = sparse_graph(n, ring_edges(n))
        real_eigsh = scipy.sparse.linalg.eigsh
        products, outcomes = [], []

        def counting_eigsh(A, **kwargs):
            def matvec(x):
                products.append(1)
                return A @ x

            op = LinearOperator(A.shape, matvec=matvec, dtype=float)
            try:
                out = real_eigsh(op, **kwargs)
            except ArpackNoConvergence:
                outcomes.append("stopped")
                raise
            outcomes.append("converged")
            return out

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
        sp = spectrum(g, k=3)
        assert outcomes == ["stopped"]
        ncv = 20
        budget = n * n // (triptych.graph._DENSE_SOLVE_PER_LANCZOS_UNIT * ncv)
        assert len(products) <= budget + ncv
        mu = 1.0 - np.cos(2 * np.pi * np.array([1, 1, 2]) / n)
        npt.assert_allclose(sp.eigenvalues, mu, rtol=0, atol=1e-12)

    def test_eigenvalues_only_match_arpack_pairs(self):
        g = _LARGE_GRAPHS["chords-600"]()
        full, only = spectrum(g, k=3), spectrum(g, k=3, vectors=False)
        npt.assert_array_equal(only.eigenvalues, full.eigenvalues)
        assert only.vectors.shape == (600, 0)

    @pytest.mark.parametrize("name", sorted(_LARGE_GRAPHS))
    def test_matches_dense_oracle(self, name, monkeypatch):
        # A disconnected graph is checked part by part, as it is solved.
        refs = []
        for _, g in component_subgraphs(_LARGE_GRAPHS[name]()):
            deg = np.asarray(g.degrees)
            s = 1.0 / np.sqrt(deg)
            M = np.asarray(g.adjacency)
            mu_ref, Y = scipy.linalg.eigh(np.eye(g.n_nodes) - s[:, None] * M * s,
                                          subset_by_index=[0, 11])
            npt.assert_allclose(mu_ref[0], 0.0, atol=1e-12)
            refs.append((g, deg, mu_ref[1:], s[:, None] * Y[:, 1:]))
        real_eigsh = scipy.sparse.linalg.eigsh
        sparse_calls = []

        def counting_eigsh(*args, **kwargs):
            sparse_calls.append(kwargs["k"])
            return real_eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
        for k in (3, 5, 10):
            sparse_calls.clear()
            for g, deg, mu_ref, X_ref in refs:
                sp = spectrum(g, k=k)
                npt.assert_allclose(sp.eigenvalues, mu_ref[:k], rtol=0, atol=1e-12)
                V = sp.vectors
                npt.assert_allclose(V.T @ (deg[:, None] * V), np.eye(k), rtol=0, atol=1e-12)
                gaps = np.diff(np.r_[0.0, mu_ref[:k + 1]])
                for j in np.flatnonzero(np.minimum(gaps[:k], gaps[1:]) > 1e-6):
                    sign = np.sign(V[:, j] @ (deg * X_ref[:, j]))
                    npt.assert_allclose(V[:, j], sign * X_ref[:, j], rtol=0, atol=1e-10)
                again = spectrum(g, k=k)
                npt.assert_array_equal(again.eigenvalues, sp.eigenvalues)
                npt.assert_array_equal(again.vectors, sp.vectors)
            assert sparse_calls, f"k={k} did not reach the sparse solver"


class TestAdjacencyCorrespondence:
    # correspondence analysis of the adjacency table sees the same axes as
    # the graph eigenproblem, with eigenvalues folded to (1 - mu)^2

    @pytest.mark.parametrize("seed", [73, 74, 75])
    def test_eigenvalue_folding(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected(rng, 8)
        mu = spectrum(g).eigenvalues
        kept = np.sort([(1 - m) ** 2 for m in mu if abs(1 - m) > 1e-6])[::-1]
        res = ca(ContingencyTable(np.asarray(g.adjacency, int)))
        lam = res.decomposition.eigenvalues
        assert lam.size == len(kept)
        npt.assert_allclose(lam, kept, rtol=1e-8, atol=1e-10)

    def test_axes_span_matching_eigenspaces(self):
        rng = np.random.default_rng(76)
        g = random_connected(rng, 7)
        sp = spectrum(g)
        mu = sp.eigenvalues
        res = ca(ContingencyTable(np.asarray(g.adjacency, int)))
        lam = res.decomposition.eigenvalues
        C = res.row_coords
        Dg = np.diag(np.asarray(g.degrees, float))
        for j, l in enumerate(lam):
            # pool graph eigenvectors whose folded eigenvalue matches; both
            # the mu and 2 - mu branches fold onto the same value
            match = np.flatnonzero(np.abs((1 - mu) ** 2 - l) <= 1e-8 * max(lam[0], 1))
            assert match.size > 0
            V = sp.vectors[:, match]
            proj = V @ (V.T @ Dg @ C[:, j])
            resid = np.linalg.norm(C[:, j] - proj) / np.linalg.norm(C[:, j])
            assert resid <= 1e-6


class TestLayout:
    def test_cycle_four_degenerate_plane(self):
        g = cycle_graph(4)
        with pytest.warns(UserWarning, match="degenerate"):
            coords = layout(g)
        assert coords.shape == (4, 2)
        # the mu = 1 eigenspace of the 4-cycle: opposite nodes cancel
        for j in range(2):
            v = coords[:, j]
            npt.assert_allclose(v[0] + v[2], 0.0, atol=1e-10)
            npt.assert_allclose(v[1] + v[3], 0.0, atol=1e-10)
        # mu = 1 means no shrinking: still orthonormal in the degree metric
        Dg = np.diag(np.asarray(g.degrees, float))
        npt.assert_allclose(coords.T @ Dg @ coords, np.eye(2), atol=1e-10)

    def test_complete_four_unscaled(self):
        g = complete_graph(4)
        with pytest.warns(UserWarning, match="degenerate"):
            coords = layout(g)
        Dg = np.diag(np.asarray(g.degrees, float))
        npt.assert_allclose(coords.T @ Dg @ coords, np.eye(2), atol=1e-10)

    def test_linked_clusters_separate_on_first_axis(self):
        coords = layout(linked_triangles())
        first = coords[:, 0]
        assert len(set(np.sign(first[:3]))) == 1
        assert len(set(np.sign(first[3:]))) == 1
        assert np.sign(first[0]) != np.sign(first[3])

    def test_matches_scaled_spectrum(self):
        rng = np.random.default_rng(77)
        g = random_connected(rng, 9)
        sp = spectrum(g, k=2)
        expected = np.array(sp.vectors[:, :2])
        for j in range(2):
            if 1.0 - sp.eigenvalues[j] > 1e-12:
                expected[:, j] *= np.sqrt(1.0 - sp.eigenvalues[j])
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            coords = layout(g)
        npt.assert_allclose(coords, expected, atol=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError, match="3 nodes"):
            layout(make_graph([[0, 1], [1, 0]]))


class TestRegressOnCovariates:
    def test_eigenvector_covariate_fully_explained(self):
        rng = np.random.default_rng(78)
        g = random_connected(rng, 10)
        sp = spectrum(g, k=2)
        res = regress_on_covariates(g, sp.vectors[:, 0], k=2)
        share = res.extras["explained_share"]
        npt.assert_allclose(share[0], 1.0, atol=1e-10)
        assert np.all(share >= -1e-12) and np.all(share <= 1 + 1e-10)
        npt.assert_allclose(res.extras["graph_eigenvalues"], sp.eigenvalues,
                            rtol=1e-12)
        assert res.method == "graph_regress"

    def test_single_pair_share_is_squared_correlation(self):
        g = linked_triangles()
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        res = regress_on_covariates(g, x, k=1)
        v = spectrum(g, k=1).vectors[:, 0]
        r = np.corrcoef(x, v)[0, 1]
        npt.assert_allclose(res.extras["explained_share"][0], r**2, rtol=1e-10)

    def test_covariates_checked_before_the_eigensolve(self, monkeypatch):
        calls = []
        real = triptych.graph.spectrum
        monkeypatch.setattr(triptych.graph, "spectrum",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        with pytest.raises(ValueError, match="covariates contain non-finite entries"):
            regress_on_covariates(path_graph(5), [0.0, 1.0, np.nan, 3.0, 4.0], k=2)
        assert calls == []

    def test_constant_covariate_rejected(self):
        g = path_graph(5)
        with pytest.raises(ValueError, match="singular"):
            regress_on_covariates(g, np.ones(5), k=2)

    def test_rank_limit(self):
        rng = np.random.default_rng(79)
        g = random_connected(rng, 8)
        X = rng.standard_normal((8, 3))
        with pytest.raises(ValueError, match="exceeds the attainable rank"):
            regress_on_covariates(g, X, k=2, q=3)
