import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg.lapack

from triptych import (
    NotPositiveDefiniteError,
    center_columns,
    characterizing_operators,
    decompose,
    decompose_gram_metric,
    make_triple,
    transition_check,
)


def random_spd(rng, k):
    A = rng.standard_normal((k, k))
    return A @ A.T + (k + 1) * np.eye(k)


def random_triple(rng, n, p):
    X = rng.standard_normal((n, p))
    Q = random_spd(rng, p)
    w = rng.uniform(0.2, 2.0, n)
    return make_triple(X, Q, np.diag(w / w.sum()))


class TestMakeTriple:
    def test_zero_matrix_is_valid(self):
        t = make_triple(np.zeros((3, 2)), np.eye(2), np.eye(3) / 3)
        assert t.n_observations == 3 and t.n_variables == 2
        assert decompose(t).inertia == 0.0

    def test_indefinite_diagonal_metric_rejected_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            make_triple(np.ones((3, 2)), np.diag([1.0, -1.0]), np.eye(3) / 3)
        assert err.value.pivot == 1
        assert "Q" in str(err.value)

    def test_indefinite_dense_metric_rejected_with_pivot(self):
        # eigenvalues 3 and -1; the second Cholesky pivot fails
        with pytest.raises(NotPositiveDefiniteError) as err:
            make_triple(np.ones((3, 2)), [[1.0, 2.0], [2.0, 1.0]], np.eye(3) / 3)
        assert err.value.pivot == 1

    def test_indefinite_weights_rejected(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            make_triple(np.ones((2, 2)), np.eye(2), np.diag([0.5, 0.0]))
        assert err.value.pivot == 1
        assert "D" in str(err.value)

    def test_small_valid_triple(self):
        t = make_triple([[1.0, -1.0], [-1.0, 1.0]], np.eye(2), np.eye(2) / 2)
        npt.assert_array_equal(t.data, [[1.0, -1.0], [-1.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="Q must be"):
            make_triple(np.ones((3, 2)), np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="D must be"):
            make_triple(np.ones((3, 2)), np.eye(2), np.eye(2))

    def test_visibly_asymmetric_rejected(self):
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            make_triple(np.ones((3, 2)), Q, np.eye(3))

    def test_roundoff_asymmetry_averaged(self):
        Q = np.array([[2.0, 0.3 + 1e-13], [0.3, 2.0]])
        t = make_triple(np.ones((3, 2)), Q, np.eye(3))
        npt.assert_array_equal(t.metric, t.metric.T)

    def test_one_cholesky_from_make_triple_to_decompose(self, monkeypatch):
        calls = []
        real_dpotrf = scipy.linalg.lapack.dpotrf

        def counting_dpotrf(*args, **kwargs):
            calls.append(1)
            return real_dpotrf(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counting_dpotrf)
        rng = np.random.default_rng(55)
        decompose(make_triple(rng.standard_normal((9, 4)), random_spd(rng, 4),
                              rng.uniform(0.2, 2.0, 9)))
        assert len(calls) == 1

    def test_metric_is_the_factor_product(self):
        rng = np.random.default_rng(56)
        Q = random_spd(rng, 6)
        Q[0, 1] += 1e-13
        t = make_triple(rng.standard_normal((9, 6)), Q, np.ones(9))
        M = t.metric
        npt.assert_array_equal(M, M.T)
        with pytest.raises(ValueError):
            M[0, 0] = 5.0
        sym = (Q + Q.T) / 2
        assert np.max(np.abs(M - sym)) <= 4 * np.finfo(float).eps * np.max(np.abs(sym))

    def test_arrays_immutable(self):
        t = make_triple(np.ones((2, 2)), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_nonfinite_rejected(self):
        X = np.ones((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            make_triple(X, np.eye(2), np.eye(2))


class TestWeightVector:
    def test_vector_same_as_diagonal_matrix(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((9, 4))
        Q = random_spd(rng, 4)
        w = rng.uniform(0.2, 2.0, 9)
        tv, tm = make_triple(X, Q, w), make_triple(X, Q, np.diag(w))
        assert tv.weights.shape == (9,)
        npt.assert_array_equal(tv.weights, tm.weights)
        dv, dm = decompose(tv), decompose(tm)
        npt.assert_array_equal(dv.eigenvalues, dm.eigenvalues)
        npt.assert_array_equal(dv.axis_basis, dm.axis_basis)
        npt.assert_array_equal(dv.component_basis, dm.component_basis)

    def test_gram_metric_vector_same_as_diagonal_matrix(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((9, 4))
        B = rng.standard_normal((4, 2))
        w = rng.uniform(0.2, 2.0, 9)
        dv = decompose_gram_metric(X, B @ B.T, w)
        dm = decompose_gram_metric(X, B @ B.T, np.diag(w))
        npt.assert_array_equal(dv.eigenvalues, dm.eigenvalues)
        npt.assert_array_equal(dv.axis_basis, dm.axis_basis)
        npt.assert_array_equal(dv.component_basis, dm.component_basis)

    def test_non_diagonal_weights_rejected(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((7, 3))
        with pytest.raises(ValueError, match="D must be diagonal"):
            make_triple(X, np.eye(3), random_spd(rng, 7) / 7)
        D = np.eye(7) / 7
        D[0, 6] = D[6, 0] = 1e-3
        with pytest.raises(ValueError, match="D must be diagonal"):
            make_triple(X, np.eye(3), D)
        with pytest.raises(ValueError, match="weights must be diagonal"):
            decompose_gram_metric(X, np.eye(3), D)


class TestCenterColumns:
    def test_uniform_weights(self):
        t = make_triple([[1.0], [2.0], [3.0]], np.eye(1), np.eye(3) / 3)
        npt.assert_allclose(center_columns(t).data, [[-1.0], [0.0], [1.0]], atol=1e-15)

    def test_nonuniform_weights(self):
        # weighted mean 0.75*1 + 0.25*3 = 1.5; check X'D1 = 0 directly
        t = make_triple([[1.0], [3.0]], np.eye(1), np.diag([0.75, 0.25]))
        c = center_columns(t)
        npt.assert_allclose(c.data, [[-0.5], [1.5]], atol=1e-15)
        npt.assert_allclose(c.data.T @ np.diag(c.weights) @ np.ones(2), [0.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        t = center_columns(random_triple(rng, 6, 3))
        npt.assert_allclose(center_columns(t).data, t.data, atol=1e-15)

    def test_metric_and_weights_unchanged(self):
        rng = np.random.default_rng(4)
        t = random_triple(rng, 5, 2)
        c = center_columns(t)
        npt.assert_array_equal(c.metric, t.metric)
        npt.assert_array_equal(c.weights, t.weights)


class TestDecompose:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_eigenvalue_is_an_error(self):
        # s**2 would overflow to inf and the rank cut would return rank 0
        rng = np.random.default_rng(35)
        X = rng.standard_normal((50, 3))
        w = rng.uniform(0.5, 2.0, 50)
        with pytest.raises(ValueError, match="leading eigenvalue overflows"):
            decompose(make_triple(X * 1e155, np.eye(3), w / w.sum()))
        assert decompose(make_triple(X * 1e150, np.eye(3), w / w.sum())).rank == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_inertia_is_an_error(self):
        # each eigenvalue fits in a float, their sum does not
        rng = np.random.default_rng(36)
        Q, _ = np.linalg.qr(rng.standard_normal((50, 3)))
        with pytest.raises(ValueError, match="total inertia overflows"):
            decompose(make_triple(Q * 1.3e154, np.eye(3), np.ones(50)))
        d = decompose(make_triple(Q * 5e153, np.eye(3), np.ones(50)))
        npt.assert_allclose(d.inertia, 7.5e307, rtol=1e-12)

    @pytest.mark.parametrize("route", ["decompose", "gram-metric"])
    def test_overflowing_product_is_an_error(self, route):
        # every input is finite; sqrt(w) * X @ G.T is not
        X = np.random.default_rng(37).standard_normal((50, 3)) * 1e300
        with pytest.raises(ValueError, match="metric factor overflows; rescale the data"):
            if route == "decompose":
                decompose(make_triple(X, np.eye(3) * 1e300, np.ones(50)))
            else:
                decompose_gram_metric(X, np.eye(3) * 1e100, np.ones(50))

    def test_rank_one_example(self):
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        t = make_triple(X, np.eye(2), np.eye(2) / 2)
        # oracle: direct eigensolve of the variable-side operator
        VQ = X.T @ (np.eye(2) / 2) @ X @ np.eye(2)
        oracle = np.sort(np.linalg.eigvals(VQ).real)[::-1]
        d = decompose(t)
        assert d.rank == 1
        npt.assert_allclose(d.eigenvalues, oracle[:1], rtol=1e-12)
        npt.assert_allclose(d.eigenvalues[0], 2.0, rtol=1e-12)
        npt.assert_allclose(d.inertia, 2.0, rtol=1e-12)

    def test_zero_matrix(self):
        t = make_triple(np.zeros((3, 2)), np.eye(2), np.eye(3) / 3)
        d = decompose(t)
        assert d.rank == 0
        assert d.eigenvalues.shape == (0,)
        assert d.axis_basis.shape == (2, 0)
        assert d.component_basis.shape == (3, 0)
        assert d.inertia == 0.0

    def test_standardized_inertia_is_variable_count(self):
        rng = np.random.default_rng(5)
        n, p = 12, 4
        X = rng.standard_normal((n, p))
        Xc = X - X.mean(axis=0)
        var = np.mean(Xc**2, axis=0)
        t = make_triple(Xc, np.diag(1.0 / var), np.eye(n) / n)
        npt.assert_allclose(decompose(t).inertia, p, rtol=1e-10)

    def test_invariants_random(self):
        rng = np.random.default_rng(6)
        eps = 1e-10
        for _ in range(20):
            n = int(rng.integers(2, 15))
            p = int(rng.integers(1, 7))
            t = random_triple(rng, n, p)
            d = decompose(t)
            Q, D = t.metric, np.diag(t.weights)
            Z, A = d.axis_basis, d.principal_axes
            L, C = d.component_basis, d.principal_components
            lam = d.eigenvalues
            lam1 = lam[0] if lam.size else 0.0
            eye = np.eye(d.n_axes)
            assert np.max(np.abs(Z.T @ Q @ Z - eye)) <= eps
            assert np.max(np.abs(L.T @ D @ L - eye)) <= eps
            assert np.max(np.abs(A.T @ Q @ A - np.diag(lam))) <= eps * (1 + lam1)
            assert np.max(np.abs(C.T @ D @ C - np.diag(lam))) <= eps * (1 + lam1)
            res = transition_check(t, d)
            assert res.components <= eps * (1 + lam1)
            assert res.axes <= eps * (1 + lam1)

    def test_both_operators_share_spectrum_and_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            p = int(rng.integers(1, 6))
            t = random_triple(rng, n, p)
            d = decompose(t)
            VQ, WD = characterizing_operators(t)
            ev_v = np.sort(np.linalg.eigvals(VQ).real)[::-1]
            ev_w = np.sort(np.linalg.eigvals(WD).real)[::-1]
            r = d.rank
            assert r == np.linalg.matrix_rank(t.data)
            npt.assert_allclose(ev_v[:r], d.eigenvalues, rtol=1e-9, atol=1e-11)
            npt.assert_allclose(ev_w[:r], d.eigenvalues, rtol=1e-9, atol=1e-11)
            npt.assert_allclose(np.trace(VQ), d.inertia, rtol=1e-10)
            npt.assert_allclose(np.trace(WD), d.inertia, rtol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(8)
        t = random_triple(rng, 9, 4)
        d = decompose(t)
        perm = rng.permutation(9)
        P = np.eye(9)[perm]
        w = t.weights
        tp_ = make_triple(t.data[perm], t.metric, np.diag(w[perm]))
        dp = decompose(tp_)
        npt.assert_allclose(dp.eigenvalues, d.eigenvalues, rtol=1e-12)
        npt.assert_allclose(dp.axis_basis, d.axis_basis, atol=1e-10)
        npt.assert_allclose(dp.component_basis, P @ d.component_basis, atol=1e-10)

    def test_rank_request_truncates_matrices_not_spectrum(self):
        rng = np.random.default_rng(9)
        t = random_triple(rng, 8, 4)
        full = decompose(t)
        d = decompose(t, rank_request=2)
        assert d.n_axes == 2
        assert d.rank == full.rank
        npt.assert_allclose(d.eigenvalues, full.eigenvalues, rtol=1e-15)
        npt.assert_allclose(d.axis_basis, full.axis_basis[:, :2], atol=1e-15)
        assert d.singular_values.shape == (2,)
        npt.assert_allclose(d.inertia, full.inertia, rtol=1e-15)

    def test_rank_request_bounds(self):
        rng = np.random.default_rng(10)
        t = random_triple(rng, 5, 3)
        with pytest.raises(ValueError, match="exceeds"):
            decompose(t, rank_request=4)
        with pytest.raises(ValueError, match="nonnegative"):
            decompose(t, rank_request=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            decompose_gram_metric(t.data, t.metric, t.weights, rank_request=-1)
        assert decompose(t, rank_request=0).n_axes == 0

    def test_sign_convention_identity_metric(self):
        # axis-basis columns are oriented so the largest-magnitude entry is
        # positive: for Q = I, a random SPD Q, and a rank-deficient PSD Q
        # through the semidefinite path
        rng = np.random.default_rng(11)
        D = np.eye(7) / 7
        for _ in range(5):
            X = rng.standard_normal((7, 4))
            B = rng.standard_normal((4, 2))
            bases = [
                decompose(make_triple(X, np.eye(4), D)).axis_basis,
                decompose(make_triple(X, random_spd(rng, 4), D)).axis_basis,
                decompose_gram_metric(X, B @ B.T, D).axis_basis,
            ]
            for Z in bases:
                assert Z.shape[1] > 0
                for j in range(Z.shape[1]):
                    col = Z[:, j]
                    assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(12)
        t = random_triple(rng, 8, 3)
        d1, d2 = decompose(t), decompose(t)
        npt.assert_array_equal(d1.axis_basis, d2.axis_basis)
        npt.assert_array_equal(d1.component_basis, d2.component_basis)

    def test_tie_flags(self):
        t = make_triple(np.eye(2), np.eye(2), np.eye(2))
        d = decompose(t)
        npt.assert_allclose(d.eigenvalues, [1.0, 1.0])
        assert d.tie_flags.tolist() == [True, True]

        t2 = make_triple(np.diag([3.0, 1.0]), np.eye(2), np.eye(2))
        assert decompose(t2).tie_flags.tolist() == [False, False]


class TestGramMetricPath:
    def test_singular_metric_invariants(self):
        rng = np.random.default_rng(13)
        eps = 1e-10
        for _ in range(10):
            n, p, k = 9, 5, 2
            X = rng.standard_normal((n, p))
            X -= X.mean(axis=0)
            B = rng.standard_normal((p, k))
            R = B @ B.T  # PSD, rank k < p
            w = rng.uniform(0.5, 2.0, n)
            D = np.diag(w / w.sum())
            d = decompose_gram_metric(X, R, D)
            assert d.rank <= k
            r = d.n_axes
            Z, L, C = d.axis_basis, d.component_basis, d.principal_components
            lam = d.eigenvalues
            lam1 = lam[0] if lam.size else 0.0
            assert np.max(np.abs(Z.T @ R @ Z - np.eye(r))) <= eps
            assert np.max(np.abs(L.T @ D @ L - np.eye(r))) <= eps
            assert np.max(np.abs(X @ R @ Z - C)) <= eps * (1 + lam1)
            # variable-side eigen equation under the semidefinite metric
            V = X.T @ D @ X
            assert np.max(np.abs(V @ R @ Z - Z * lam[:r])) <= eps * (1 + lam1)
            # oracle: brute eigensolve of the characterizing operator
            ev = np.sort(np.linalg.eigvals(V @ R).real)[::-1]
            npt.assert_allclose(ev[: d.rank], lam, rtol=1e-8, atol=1e-10)

    def test_matches_strict_path_on_definite_metric(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((8, 4))
        Q = random_spd(rng, 4)
        D = np.eye(8) / 8
        strict = decompose(make_triple(X, Q, D))
        gram = decompose_gram_metric(X, Q, D)
        npt.assert_allclose(gram.eigenvalues, strict.eigenvalues, rtol=1e-9)
        # both paths share one sign orientation, so the bases agree signed
        npt.assert_allclose(gram.axis_basis, strict.axis_basis, atol=1e-8)

    def test_zero_metric(self):
        d = decompose_gram_metric(np.ones((4, 3)), np.zeros((3, 3)), np.eye(4) / 4)
        assert d.rank == 0
        assert d.axis_basis.shape == (3, 0)

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            decompose_gram_metric(np.ones((3, 2)), np.diag([1.0, -1.0]), np.eye(3))

    def test_metric_of_another_size_rejected(self):
        with pytest.raises(ValueError,
                           match="metric must be 3x3 to match X with 3 columns"):
            decompose_gram_metric(np.ones((5, 3)), np.eye(4), np.ones(5))


class TestTransitionCheck:
    def test_identity_for_fresh_decomposition(self):
        rng = np.random.default_rng(15)
        t = random_triple(rng, 10, 4)
        d = decompose(t)
        res = transition_check(t, d)
        bound = 1e-10 * (1 + d.eigenvalues[0])
        assert res.components <= bound
        assert res.axes <= bound

    def test_corruption_detected(self):
        rng = np.random.default_rng(16)
        t = random_triple(rng, 6, 3)
        d = decompose(t)
        bad = dataclasses.replace(d, principal_components=2 * d.principal_components)
        res = transition_check(t, bad)
        assert res.components > 0.1

    def test_rank_zero(self):
        t = make_triple(np.zeros((3, 2)), np.eye(2), np.eye(3) / 3)
        res = transition_check(t, decompose(t))
        assert res.components == 0.0 and res.axes == 0.0


class TestCharacterizingOperators:
    def test_small_example(self):
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        t = make_triple(X, np.eye(2), np.eye(2) / 2)
        VQ, WD = characterizing_operators(t)
        npt.assert_allclose(VQ, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_identity_data(self):
        t = make_triple(np.eye(2), np.eye(2), np.eye(2))
        VQ, WD = characterizing_operators(t)
        npt.assert_array_equal(VQ, np.eye(2))
        npt.assert_array_equal(WD, np.eye(2))

    def test_shared_nonzero_spectrum(self):
        rng = np.random.default_rng(17)
        t = random_triple(rng, 5, 3)
        VQ, WD = characterizing_operators(t)
        ev_v = np.sort(np.linalg.eigvals(VQ).real)[::-1][:3]
        ev_w = np.sort(np.linalg.eigvals(WD).real)[::-1][:3]
        npt.assert_allclose(ev_v, ev_w, rtol=1e-10, atol=1e-12)
