import numpy as np
import numpy.testing as npt
import pytest

from triptych import covv, decompose, make_triple, rv, rv_max, rv_triples


def operator_of(x, weights=None):
    """n x n observation-space operator of a one-column triple with Q = 1."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    n = x.shape[0]
    D = np.eye(n) / n if weights is None else np.diag(weights)
    return x @ x.T @ D


class TestCovv:
    def test_identity_with_itself(self):
        npt.assert_allclose(covv(np.eye(3), np.eye(3)), 3.0)

    def test_orthogonal_pair(self):
        O1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        O2 = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert covv(O1, O2) == 0.0

    def test_hand_value(self):
        npt.assert_allclose(covv(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)), 5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            covv(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        O = np.eye(2)
        O[0, 1] = bad
        with pytest.raises(ValueError, match="O2 contains non-finite entries"):
            covv(np.eye(2), O)


class TestRv:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(20)
        O = rng.standard_normal((4, 4))
        npt.assert_allclose(rv(O, O), 1.0, rtol=1e-14)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            rv(np.zeros((2, 2)), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        O = np.eye(2)
        O[1, 1] = bad
        with pytest.raises(ValueError, match="O1 contains non-finite entries"):
            rv(O, np.eye(2))

    def test_opposite_variables(self):
        x = np.array([-1.0, 0.0, 1.0])
        y = -x
        npt.assert_allclose(rv(operator_of(x), operator_of(y)), 1.0, rtol=1e-14)

    def test_single_variable_pair_is_squared_correlation(self):
        x = np.array([-1.0, 0.0, 1.0])
        y = np.array([-1.0, -1.0, 2.0]) / 3
        r = np.corrcoef(x, y)[0, 1]
        npt.assert_allclose(rv(operator_of(x), operator_of(y)), r**2, rtol=1e-12)
        npt.assert_allclose(rv(operator_of(x), operator_of(y)), 0.75, rtol=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((5, 5))
        O1, O2 = A @ A.T, np.abs(rng.standard_normal((5, 5))) + np.eye(5)
        npt.assert_allclose(rv(O1, O2), rv(O2, O1), rtol=1e-14)
        npt.assert_allclose(rv(3.7 * O1, O2), rv(O1, O2), rtol=1e-14)

    def test_bounded_by_one_for_psd_operators(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            val = rv(A @ A.T, B @ B.T)
            assert 0.0 <= val <= 1.0 + 1e-12


class TestRvTriples:
    def test_same_triple(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((6, 3))
        t = make_triple(X, np.eye(3), np.eye(6) / 6)
        npt.assert_allclose(rv_triples(t, t), 1.0, rtol=1e-12)

    def test_scaled_data(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((5, 2))
        D = np.eye(5) / 5
        t1 = make_triple(X, np.eye(2), D)
        t2 = make_triple(2.5 * X, np.eye(2), D)
        npt.assert_allclose(rv_triples(t1, t2), 1.0, rtol=1e-12)

    def test_weight_mismatch_rejected(self):
        X = np.ones((4, 2))
        t1 = make_triple(X, np.eye(2), np.eye(4) / 4)
        w = np.array([0.4, 0.3, 0.2, 0.1])
        t2 = make_triple(X, np.eye(2), np.diag(w))
        with pytest.raises(ValueError, match="weights"):
            rv_triples(t1, t2)

    def test_matches_direct_operator_formula(self):
        rng = np.random.default_rng(25)
        n = 7
        w = rng.uniform(0.5, 2.0, n)
        D = np.diag(w / w.sum())
        X1 = rng.standard_normal((n, 3))
        X2 = rng.standard_normal((n, 4))
        t1 = make_triple(X1, np.eye(3), D)
        t2 = make_triple(X2, np.eye(4), D)
        O1 = X1 @ X1.T @ D
        O2 = X2 @ X2.T @ D
        expected = np.sum(O1 * O2) / np.sqrt(np.sum(O1 * O1) * np.sum(O2 * O2))
        got = rv_triples(t1, t2)
        npt.assert_allclose(got, expected, rtol=1e-12)
        assert 0.0 <= got <= 1.0 + 1e-12
        # non-identity metrics: diagonal Q1, random SPD Q2
        Q1 = np.diag(rng.uniform(0.5, 3.0, 3))
        A = rng.standard_normal((4, 4))
        Q2 = A @ A.T + 4 * np.eye(4)
        O1 = X1 @ Q1 @ X1.T @ D
        O2 = X2 @ Q2 @ X2.T @ D
        expected = np.sum(O1 * O2) / np.sqrt(np.sum(O1 * O1) * np.sum(O2 * O2))
        got = rv_triples(make_triple(X1, Q1, D), make_triple(X2, Q2, D))
        npt.assert_allclose(got, expected, rtol=1e-12)


class TestRvMax:
    def test_full_rank_cut_reaches_one(self):
        lam = np.array([4.0, 2.0, 1.0])
        npt.assert_allclose(rv_max(lam, 3), 1.0, rtol=1e-14)

    def test_flat_spectrum(self):
        lam = np.ones(4)
        for q in range(1, 5):
            npt.assert_allclose(rv_max(lam, q), np.sqrt(q / 4), rtol=1e-14)

    def test_six_eigenvalue_example_against_surrogate_triple(self):
        # oracle: build a diagonal triple carrying exactly this spectrum and
        # compare its best rank-q approximation to the full operator via rv
        lam = np.array([5.0, 3.0, 1.5, 0.8, 0.3, 0.1])
        q = 2
        n = lam.size
        X = np.diag(np.sqrt(lam * n))
        D = np.eye(n) / n
        t_full = make_triple(X, np.eye(n), D)
        t_cut = make_triple(X[:, :q], np.eye(q), D)
        oracle = rv_triples(t_full, t_cut)
        npt.assert_allclose(rv_max(lam, q), oracle, rtol=1e-12)
        expected = lam[:q] @ lam[:q] / np.sqrt((lam @ lam) * (lam[:q] @ lam[:q]))
        npt.assert_allclose(rv_max(lam, q), expected, rtol=1e-14)

    def test_monotone_in_q(self):
        lam = np.array([6.0, 3.0, 2.0, 0.5])
        vals = [rv_max(lam, q) for q in range(1, 5)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        npt.assert_allclose(vals[-1], 1.0, rtol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            rv_max([1.0, 2.0], 1)
        with pytest.raises(ValueError, match="negative"):
            rv_max([1.0, -0.5], 1)
        with pytest.raises(ValueError):
            rv_max([2.0, 1.0], 0)
        with pytest.raises(ValueError):
            rv_max([2.0, 1.0], 3)
        with pytest.raises(ValueError, match="zero"):
            rv_max([0.0, 0.0], 1)

    @pytest.mark.parametrize("lam", [[np.inf, 1.0], [2.0, np.nan], [np.nan, np.nan]])
    def test_non_finite_eigenvalues_rejected(self, lam):
        with pytest.raises(ValueError, match="eigenvalues contain non-finite entries"):
            rv_max(lam, 1)


class TestRankQOptimality:
    def _fixture(self, seed, n=10, p=6, q=2):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        X -= X.mean(axis=0)
        t = make_triple(X, np.eye(p), np.eye(n) / n)
        d = decompose(t)
        return rng, t, d, q

    def test_principal_components_achieve_bound(self):
        rng, t, d, q = self._fixture(26)
        D = np.diag(t.weights)
        O_full = t.data @ t.metric @ t.data.T @ D
        F = d.principal_components[:, :q]
        O_cut = F @ F.T @ D
        bound = rv_max(d.eigenvalues, q)
        npt.assert_allclose(rv(O_full, O_cut), bound, atol=1e-10)

    def test_bound_dominates_random_competitors(self):
        rng, t, d, q = self._fixture(27)
        D = np.diag(t.weights)
        O_full = t.data @ t.metric @ t.data.T @ D
        bound = rv_max(d.eigenvalues, q)
        lam_q = d.eigenvalues[:q]
        n = t.n_observations
        for _ in range(100):
            G = rng.standard_normal((n, q))
            G -= G.mean(axis=0)
            # D-orthonormalize, then scale columns to carry the top spectrum
            M = G.T @ D @ G
            w, E = np.linalg.eigh(M)
            G = G @ E @ np.diag(1.0 / np.sqrt(w)) @ E.T
            F = G * np.sqrt(lam_q)
            npt.assert_allclose(F.T @ D @ F, np.diag(lam_q), atol=1e-8)
            assert rv(O_full, F @ F.T @ D) <= bound + 1e-10
