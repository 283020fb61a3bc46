import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.stats

import triptych.methods
from triptych import (
    ContingencyTable,
    GroupCoding,
    NotPositiveDefiniteError,
    ScreeTable,
    Triple,
    ca,
    cca,
    center_columns,
    chi_square,
    covv,
    decompose,
    decompose_gram_metric,
    geary,
    layout,
    lda,
    local_covariance,
    local_variance,
    make_graph,
    make_triple,
    pca,
    pcaiv,
    read_edges,
    regress_on_covariates,
    rv_triples,
)
from triptych.methods import _weighted_qr

from graph_helpers import ring_with_chords, write_edges


def weighted_op_norm2(S, D):
    # squared norm of the observation-space operator S @ D in the
    # weight-aware inner product; equals the plain Frobenius norm of
    # D^(1/2) S D^(1/2)
    return float(np.trace(S @ D @ S @ D))


class TestPca:
    def test_standardized_inertia_and_spectrum(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((10, 4))
        res = pca(X, standardize=True)
        npt.assert_allclose(res.decomposition.inertia, 4.0, rtol=1e-10)
        # oracle: eigenvalues of the weighted correlation matrix
        Xc = X - X.mean(axis=0)
        S = Xc.T @ Xc / 10
        sd = np.sqrt(np.diag(S))
        corr = S / np.outer(sd, sd)
        oracle = np.sort(np.linalg.eigvalsh(corr))[::-1]
        r = res.decomposition.rank
        npt.assert_allclose(res.decomposition.eigenvalues, oracle[:r], rtol=1e-10)

    def test_duplicated_column_spectrum(self):
        rng = np.random.default_rng(31)
        base = rng.standard_normal((8, 3))
        X = np.hstack([base, base[:, :1]])
        res = pca(X, standardize=True)
        Xc = X - X.mean(axis=0)
        S = Xc.T @ Xc / 8
        sd = np.sqrt(np.diag(S))
        corr = S / np.outer(sd, sd)
        oracle = np.sort(np.linalg.eigvalsh(corr))[::-1]
        r = res.decomposition.rank
        assert r == 3
        npt.assert_allclose(res.decomposition.eigenvalues, oracle[:r], rtol=1e-9)
        npt.assert_allclose(res.decomposition.inertia, 4.0, rtol=1e-10)

    def test_identical_rows_rank_zero(self):
        res = pca(np.ones((3, 2)) * 7.0)
        assert res.decomposition.rank == 0
        assert len(res.scree) == 0
        assert res.row_coords.shape == (3, 0)

    def test_single_informative_axis(self):
        res = pca([[1.0, 0.0], [-1.0, 0.0]])
        d = res.decomposition
        # oracle: covariance eigensolve
        oracle = np.linalg.eigvalsh(np.array([[1.0, 0.0], [0.0, 0.0]]))[::-1]
        assert d.rank == 1
        npt.assert_allclose(d.eigenvalues, oracle[:1], rtol=1e-12)
        npt.assert_allclose(d.axis_basis[:, 0], [1.0, 0.0], atol=1e-12)
        npt.assert_allclose(res.row_coords[:, 0], [1.0, -1.0], atol=1e-12)

    def test_weights_match_row_repetition(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((4, 3))
        doubled = np.vstack([X[:1], X])
        res_w = pca(X, weights=[2.0, 1.0, 1.0, 1.0])
        res_r = pca(doubled)
        npt.assert_allclose(
            res_w.decomposition.eigenvalues, res_r.decomposition.eigenvalues,
            rtol=1e-10,
        )
        npt.assert_allclose(
            res_w.extras["column_variances"], res_r.extras["column_variances"],
            rtol=1e-12,
        )

    @pytest.mark.parametrize("weights, named", [
        ([1.0, 1.0, 1.0], "length 4"),
        ([1.0, 0.0, 1.0, 1.0], "pivot 1"),
        ([1.0, 1.0, np.nan, 1.0], "entry 2"),
    ])
    def test_bad_weights_rejected(self, weights, named):
        X = np.random.default_rng(33).standard_normal((4, 3))
        with pytest.raises(ValueError, match=named):
            pca(X, weights=weights)

    def test_weights_whose_sum_overflows_normalized(self):
        X = np.random.default_rng(33).standard_normal((4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pca(X, weights=[1e308, 1e308, 1.0, 1.0])
        w = res.extras["weights"]
        assert w[0] == w[1] == 0.5
        assert np.all(w > 0)
        for a in (res.decomposition.eigenvalues, res.row_coords, res.col_coords,
                  res.extras["column_variances"]):
            assert np.all(np.isfinite(a))
        assert res.decomposition.rank == 1

    def test_scree_built_once_when_first_read(self, monkeypatch):
        calls = []
        build = ScreeTable.from_eigenvalues
        monkeypatch.setattr(ScreeTable, "from_eigenvalues",
                            staticmethod(lambda lam: calls.append(1) or build(lam)))
        res = pca(np.random.default_rng(34).standard_normal((10, 3)))
        assert calls == []
        assert res.scree is res.scree
        assert len(calls) == 1

    def test_zero_variance_column_named(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(ValueError, match="price"):
            pca(X, standardize=True, col_labels=["size", "price"])
        with pytest.raises(ValueError, match="column 1"):
            pca(X, standardize=True)
        # without standardization the dead column is fine
        assert pca(X).decomposition.rank == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_variance_named(self):
        # Plain pca too: an error naming the column, not rank 0 with inf
        # column variances.
        X = np.random.default_rng(34).standard_normal((6, 3))
        assert pca(X * 1e150).decomposition.rank == 3
        X[:, 1] *= 1e160
        for standardize in (True, False):
            with pytest.raises(ValueError, match="price has overflowing variance"):
                pca(X, standardize=standardize, col_labels=["size", "price", "age"])
            with pytest.raises(ValueError, match="column 1 has overflowing variance"):
                pca(X, standardize=standardize)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            pca([[1.0, 2.0]])

    def test_scree_matches_eigenvalues(self):
        rng = np.random.default_rng(33)
        res = pca(rng.standard_normal((9, 3)))
        lam = res.decomposition.eigenvalues
        rows = list(res.scree)
        npt.assert_allclose([r.eigenvalue for r in rows], lam, rtol=1e-15)
        npt.assert_allclose(
            [r.inertia_pct for r in rows], 100 * lam / lam.sum(), rtol=1e-12
        )
        assert rows[-1].cumulative_pct == pytest.approx(100.0)


class TestContingencyTable:
    def test_auto_labels_and_accessors(self):
        tbl = ContingencyTable([[1, 2], [3, 4], [5, 6]])
        assert tbl.row_labels == ("r1", "r2", "r3")
        assert tbl.col_labels == ("c1", "c2")
        assert tbl.shape == (3, 2)
        assert tbl.total == 21.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ContingencyTable([[1, -2], [3, 4]])

    def test_zero_marginal_named(self):
        with pytest.raises(ValueError, match="mid"):
            ContingencyTable([[1, 2], [0, 0], [3, 4]],
                             row_labels=["top", "mid", "bot"])
        with pytest.raises(ValueError, match="c2"):
            ContingencyTable([[1, 0], [3, 0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_total_rejected(self):
        with pytest.raises(ValueError, match="grand total of the counts overflows"):
            ContingencyTable(np.full((2, 2), 1e308))
        assert ContingencyTable(np.full((2, 2), 1e307)).total == 4e307

    def test_label_validation(self):
        with pytest.raises(ValueError, match="expected 2"):
            ContingencyTable([[1, 2], [3, 4]], row_labels=["only"])
        with pytest.raises(ValueError, match="duplicate"):
            ContingencyTable([[1, 2], [3, 4]], col_labels=["x", "x"])


class TestGroupCoding:
    def test_from_labels_first_appearance_order(self):
        g = GroupCoding.from_labels(["b", "a", "b", "c", "a"])
        assert g.group_labels == ("b", "a", "c")
        assert g.n_groups == 3
        npt.assert_array_equal(
            g.indicator,
            [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]],
        )

    def test_indicator_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            GroupCoding([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="exactly one"):
            GroupCoding([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="exactly one"):
            GroupCoding([[0.0, 0.0], [0.0, 1.0]])

    def test_empty_group_named(self):
        with pytest.raises(ValueError, match="'ghost'"):
            GroupCoding([[1.0, 0.0], [1.0, 0.0]], group_labels=["real", "ghost"])


class TestChiSquare:
    def test_flat_table(self):
        assert chi_square(ContingencyTable([[1, 1], [1, 1]])) == (0.0, 1)

    def test_diagonal_table(self):
        stat, dof = chi_square(ContingencyTable([[2, 0], [0, 2]]))
        npt.assert_allclose(stat, 4.0, rtol=1e-14)
        assert dof == 1

    def test_scipy_cross_check(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            counts = rng.integers(1, 30, size=(4, 6))
            stat, dof = chi_square(ContingencyTable(counts))
            ref = scipy.stats.chi2_contingency(counts, correction=False)
            npt.assert_allclose(stat, ref.statistic, rtol=1e-12)
            assert dof == ref.dof

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_counts_stay_finite(self):
        # expected counts of 1e200 would overflow as a product of margins
        assert chi_square(ContingencyTable(np.full((2, 2), 1e200))) == (0.0, 1)
        counts = np.array([[1.0, 2.0], [3.0, 4.0]])
        stat, _ = chi_square(ContingencyTable(counts * 1e200))
        npt.assert_allclose(stat, 1e200 * chi_square(ContingencyTable(counts))[0],
                            rtol=1e-12)


class TestCa:
    def test_tied_axis_entries_orient_alike_in_any_row_order(self):
        """Equal column totals make both entries of the one axis tie in
        magnitude; the first leads whatever order the rows come in, so
        roundoff does not pick the sign."""
        N = np.array([[2.0, 8.0], [3.0, 2.0], [8.0, 2.0], [4.0, 5.0]])
        perm = [3, 2, 0, 1]
        ref, got = ca(ContingencyTable(N)), ca(ContingencyTable(N[perm]))
        assert ref.col_coords[0, 0] > 0
        npt.assert_allclose(got.col_coords, ref.col_coords, rtol=1e-12)
        npt.assert_allclose(got.row_coords, ref.row_coords[perm], rtol=1e-12)

    def test_exact_independence(self):
        counts = np.outer([1, 2, 3], [2, 1, 1, 4])
        res = ca(ContingencyTable(counts))
        assert res.decomposition.inertia <= 1e-12
        assert res.decomposition.rank == 0
        npt.assert_allclose(res.extras["chi_square"], 0.0, atol=1e-12)

    def test_perfect_association(self):
        res = ca(ContingencyTable([[2, 0], [0, 2]]))
        d = res.decomposition
        assert d.rank == 1
        npt.assert_allclose(d.eigenvalues, [1.0], rtol=1e-12)
        npt.assert_allclose(d.inertia, 1.0, rtol=1e-12)
        npt.assert_allclose(res.extras["chi_square"], 4.0, rtol=1e-12)
        assert res.extras["dof"] == 1

    def test_inertia_is_chi_square_over_total(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            m, p = rng.integers(3, 8, size=2)
            counts = rng.integers(1, 40, size=(m, p))
            tbl = ContingencyTable(counts)
            res = ca(tbl)
            stat, _ = chi_square(tbl)
            npt.assert_allclose(
                res.decomposition.inertia * tbl.total, stat, rtol=1e-10
            )
            assert res.decomposition.rank <= min(m, p) - 1

    def test_matches_independently_built_triple(self):
        counts = np.array([[10, 3, 5], [2, 8, 1], [4, 4, 9], [1, 2, 6]], float)
        F = counts / counts.sum()
        r = F.sum(axis=1)
        c = F.sum(axis=0)
        X = F / np.outer(r, c) - 1.0
        oracle = decompose(make_triple(X, np.diag(c), np.diag(r)))
        res = ca(ContingencyTable(counts))
        npt.assert_allclose(res.decomposition.eigenvalues, oracle.eigenvalues,
                            rtol=1e-12)
        npt.assert_allclose(res.row_coords, oracle.principal_components, atol=1e-12)
        npt.assert_allclose(res.col_coords, oracle.principal_axes, atol=1e-12)
        npt.assert_allclose(res.extras["row_masses"], r, rtol=1e-15)
        npt.assert_allclose(res.extras["col_masses"], c, rtol=1e-15)

    def test_degenerate_masses_rejected(self):
        # the grand total overflows (rejected by the table itself)
        with pytest.raises(ValueError):
            ca(ContingencyTable(np.full((2, 2), 1e308)))
        # row 0's mass underflows to 0 against the others
        counts = [[1e-300, 1e-300], [1e300, 1e300], [1e300, 2e300]]
        with pytest.raises(NotPositiveDefiniteError, match=r"row masses .*pivot 0"):
            ca(ContingencyTable(counts))

    def test_principal_coordinate_normalization(self):
        rng = np.random.default_rng(36)
        counts = rng.integers(1, 25, size=(5, 4))
        res = ca(ContingencyTable(counts))
        d = res.decomposition
        lam = np.diag(d.eigenvalues[: d.n_axes])
        Dr = np.diag(res.extras["row_masses"])
        Dc = np.diag(res.extras["col_masses"])
        npt.assert_allclose(res.row_coords.T @ Dr @ res.row_coords, lam, atol=1e-12)
        npt.assert_allclose(res.col_coords.T @ Dc @ res.col_coords, lam, atol=1e-12)


_ROUTE_CASES = ["pca", "pca-weighted", "pca-standardized", "pca-standardized-weighted", "ca"]


def _method_and_triple_route(case):
    """Two calls on the same input: the pca or ca method, and the
    decomposition of its triple built through the public Triple route."""
    rng = np.random.default_rng(37)
    if case == "ca":
        tbl = ContingencyTable(rng.integers(1, 30, (40, 25)))
        F = tbl.counts / tbl.total
        r, c = F.sum(axis=1), F.sum(axis=0)
        X = F / np.outer(r, c) - 1.0
        return lambda: ca(tbl), lambda: decompose(make_triple(X, np.diag(c), r))
    X = rng.standard_normal((60, 12)) * rng.uniform(0.1, 10, 12) + 3.0
    weights = rng.uniform(0.2, 3.0, 60) if "weighted" in case else None
    w = np.full(60, 1 / 60) if weights is None else weights / weights.sum()
    standardize = "standardized" in case

    def triple_route():
        t = center_columns(make_triple(X, np.eye(12), w))
        if standardize:
            var = np.einsum("ij,i,ij->j", t.data, w, t.data)
            t = make_triple(t.data, np.diag(1.0 / var), w)
        return decompose(t)

    return lambda: pca(X, standardize=standardize, weights=weights), triple_route


class TestTripleRoute:
    """pca and ca hand their factored triple straight to the core; the
    result is the public Triple route's, bit for bit, without a Cholesky."""

    @pytest.mark.parametrize("case", _ROUTE_CASES)
    def test_bitwise_equal_to_triple_route(self, case):
        method, triple_route = _method_and_triple_route(case)
        d, ref = method().decomposition, triple_route()
        for name in ("eigenvalues", "axis_basis", "principal_axes", "component_basis",
                     "principal_components", "inertia", "tie_flags"):
            assert np.array_equal(getattr(d, name), getattr(ref, name)), name
        assert (d.rank, d.n_axes) == (ref.rank, ref.n_axes)

    @pytest.mark.parametrize("case", _ROUTE_CASES)
    def test_no_cholesky(self, case, monkeypatch):
        calls = []
        real_dpotrf = scipy.linalg.lapack.dpotrf

        def counting_dpotrf(*args, **kwargs):
            calls.append(1)
            return real_dpotrf(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counting_dpotrf)
        method, triple_route = _method_and_triple_route(case)
        method()
        assert calls == []
        triple_route()
        assert calls  # the count does see the Triple route's factorizations


@pytest.mark.parametrize("method", ["pca", "pca-standardized", "lda", "pcaiv", "cca"])
def test_weight_that_rounds_to_zero_rejected(method):
    rng = np.random.default_rng(39)
    X = rng.standard_normal((30, 3))
    w = np.r_[1e-300, np.full(29, 1e300 / 29)]
    run = {
        "pca": lambda: pca(X, weights=w),
        "pca-standardized": lambda: pca(X, standardize=True, weights=w),
        "lda": lambda: lda(X, [f"g{i % 2}" for i in range(30)], weights=w),
        "pcaiv": lambda: pcaiv(X, rng.standard_normal((30, 2)), weights=w),
        "cca": lambda: cca(X, rng.standard_normal((30, 2)), weights=w),
    }[method]
    with pytest.raises(NotPositiveDefiniteError, match=r"weights .*pivot 0"):
        run()


_LAYOUT_CASES = {
    "ca": lambda X, Y, N: ca(ContingencyTable(N)),
    "pca": lambda X, Y, N: pca(X),
    "pca-standardized": lambda X, Y, N: pca(X, standardize=True),
    "lda": lambda X, Y, N: lda(X, [f"g{i % 3}" for i in range(X.shape[0])]),
    "pcaiv": lambda X, Y, N: pcaiv(X, Y),
    "cca": lambda X, Y, N: cca(X, Y),
}


@pytest.mark.parametrize("method", list(_LAYOUT_CASES))
def test_results_ignore_memory_layout(method):
    """A Fortran-ordered copy of the input gives the same bits."""
    rng = np.random.default_rng(43)
    X = rng.standard_normal((150, 12)) * rng.uniform(0.1, 10, 12) + 3.0
    Y = X[:, :4] @ rng.standard_normal((4, 5)) + rng.standard_normal((150, 5))
    N = rng.integers(0, 30, (150, 100)) + 1
    run = _LAYOUT_CASES[method]
    res = run(X, Y, N)
    alt = run(np.asfortranarray(X), np.asfortranarray(Y), np.asfortranarray(N))
    assert np.array_equal(alt.decomposition.eigenvalues, res.decomposition.eigenvalues)
    assert np.array_equal(alt.row_coords, res.row_coords)
    assert np.array_equal(alt.col_coords, res.col_coords)


@pytest.mark.parametrize("case", [*_LAYOUT_CASES, "decompose", "decompose_gram_metric",
                                  "center_columns"])
def test_returned_arrays_are_read_only(case):
    """Every array of a returned decomposition, and a centred triple's
    data, is read-only: assigning into it raises."""
    rng = np.random.default_rng(44)
    X = rng.standard_normal((30, 4))
    Y = X[:, :2] @ rng.standard_normal((2, 3)) + rng.standard_normal((30, 3))
    N = rng.integers(1, 30, (12, 9))
    w = rng.uniform(0.5, 2.0, 30)
    if case == "center_columns":
        arrays = [center_columns(make_triple(X, np.eye(4), w)).data]
    else:
        if case == "decompose":
            d = decompose(make_triple(X, np.eye(4) + 0.1, w))
        elif case == "decompose_gram_metric":
            d = decompose_gram_metric(X, np.outer(Y[:4, 0], Y[:4, 0]) + np.eye(4), w)
        else:
            d = _LAYOUT_CASES[case](X, Y, N).decomposition
        assert d.rank >= 2
        arrays = [d.eigenvalues, d.axis_basis, d.principal_axes, d.component_basis,
                  d.principal_components, d.tie_flags]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


class TestLda:
    def test_equal_group_means_rank_zero(self):
        # two groups sharing the global mean: nothing to discriminate
        X = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]])
        res = lda(X, ["a", "a", "b", "b"])
        assert res.decomposition.rank == 0
        npt.assert_allclose(res.extras["between"], 0.0, atol=1e-14)

    def test_mirror_construction_exact(self):
        a, b = 0.5, 2.0
        pts = []
        for cx in (1.0, -1.0):
            for dx in (a, -a):
                for dy in (b, -b):
                    pts.append([cx + dx, dy])
        X = np.array(pts)
        labels = ["A"] * 4 + ["B"] * 4
        res = lda(X, labels)
        npt.assert_allclose(res.extras["between"], np.diag([1.0, 0.0]), atol=1e-12)
        npt.assert_allclose(res.extras["within"], np.diag([a**2, b**2]), atol=1e-12)
        d = res.decomposition
        assert d.rank == 1
        npt.assert_allclose(d.eigenvalues, [1 / (1 + a**2)], rtol=1e-12)
        disc = res.extras["discriminant_vectors"][:, 0]
        npt.assert_allclose(np.abs(disc), [1 / np.sqrt(1 + a**2), 0.0], atol=1e-12)
        # group means sit at +-1 on the first variable
        means = res.extras["group_means"]
        npt.assert_allclose(np.sort(means[:, 0]), [-1.0, 1.0], atol=1e-12)

    def test_ratios_match_direct_eigensolve(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((20, 3))
        labels = rng.choice(["u", "v", "w"], size=20).tolist()
        labels[:3] = ["u", "v", "w"]  # force all groups present
        res = lda(X, labels)
        T = res.extras["total"]
        B = res.extras["between"]
        oracle = np.sort(np.linalg.eigvals(np.linalg.solve(T, B)).real)[::-1]
        r = res.decomposition.rank
        npt.assert_allclose(res.decomposition.eigenvalues, oracle[:r], rtol=1e-9)
        assert np.all(res.decomposition.eigenvalues >= -1e-12)
        assert np.all(res.decomposition.eigenvalues <= 1 + 1e-10)

    def test_covariance_split(self):
        rng = np.random.default_rng(38)
        for _ in range(5):
            n = 15
            X = rng.standard_normal((n, 4))
            w = rng.uniform(0.5, 2.0, n)
            labels = (["g1"] * 5) + (["g2"] * 5) + (["g3"] * 5)
            res = lda(X, labels, weights=w)
            T = res.extras["total"]
            B = res.extras["between"]
            W = res.extras["within"]
            assert np.max(np.abs(T - B - W)) <= 1e-12 * np.max(np.abs(T))
            assert res.extras["split_residual"] <= 1e-12 * np.max(np.abs(T))

    def test_discriminant_scaling(self):
        rng = np.random.default_rng(39)
        X = rng.standard_normal((12, 3))
        labels = ["a", "b", "c"] * 4
        res = lda(X, labels)
        T = res.extras["total"]
        disc = res.extras["discriminant_vectors"]
        B = res.extras["between"]
        q = disc.shape[1]
        npt.assert_allclose(disc.T @ T @ disc, np.eye(q), atol=1e-10)
        npt.assert_allclose(
            np.diag(disc.T @ B @ disc),
            res.decomposition.eigenvalues[:q],
            rtol=1e-10,
        )

    def test_failed_covariance_split_rejected(self, monkeypatch):
        """T = B + W is checked, not assumed: a within-group covariance that
        comes back doubled is caught before anything is scaled back."""
        symmetrize = triptych.methods._symmetrize
        monkeypatch.setattr(triptych.methods, "_symmetrize",
                            lambda M, name: symmetrize(M, name) * (2.0 if name == "W" else 1.0))
        X = np.random.default_rng(40).standard_normal((12, 2))
        with pytest.raises(np.linalg.LinAlgError,
                           match="covariance split failed numerically"):
            lda(X, ["a", "b", "c"] * 4)

    def test_singular_total_covariance(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        with pytest.raises(ValueError, match="reduce dimensionality"):
            lda(X, ["a", "a", "b", "b"])

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match="two groups"):
            lda(np.eye(3), ["same", "same", "same"])

    def test_coding_of_another_row_count_rejected(self):
        with pytest.raises(ValueError,
                           match="X and groups must have equal row counts, got 5 and 4"):
            lda(np.ones((5, 2)), ["a", "b", "a", "b"])

    def test_accepts_prebuilt_coding(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
        g = GroupCoding.from_labels(["p", "q", "p", "q"])
        res1 = lda(X, g)
        res2 = lda(X, ["p", "q", "p", "q"])
        npt.assert_array_equal(res1.decomposition.eigenvalues,
                               res2.decomposition.eigenvalues)
        assert res1.extras["group_labels"] == ("p", "q")


class TestPcaiv:
    def test_self_explanation_recovers_pca(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((12, 4))
        res = pcaiv(X, X)
        ref = pca(X)
        npt.assert_allclose(
            res.decomposition.eigenvalues, ref.decomposition.eigenvalues,
            rtol=1e-10,
        )
        npt.assert_allclose(res.extras["instrumental_metric"], np.eye(4), atol=1e-10)

    def test_orthogonal_responses_rank_zero(self):
        rng = np.random.default_rng(41)
        n = 10
        x = rng.standard_normal(n)
        x -= x.mean()
        y = rng.standard_normal(n)
        y -= y.mean()
        y -= x * (x @ y) / (x @ x)
        res = pcaiv(x.reshape(-1, 1), y.reshape(-1, 1))
        assert res.decomposition.rank == 0
        assert len(res.scree) == 0
        npt.assert_allclose(res.extras["fitted_responses"], 0.0, atol=1e-12)

    def test_fitted_responses_are_regression_fits(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((15, 3))
        Y = rng.standard_normal((15, 2))
        res = pcaiv(X, Y)
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        fit, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
        npt.assert_allclose(res.extras["fitted_responses"], Xc @ fit, atol=1e-10)

    def test_pythagoras_uniform_weights(self):
        rng = np.random.default_rng(43)
        n = 14
        X = rng.standard_normal((n, 4))
        Y = rng.standard_normal((n, 3))
        res = pcaiv(X, Y, q=2)
        D = np.eye(n) / n
        Xc = X - X.mean(axis=0)
        Yc = Y - Y.mean(axis=0)
        O_y = Yc @ Yc.T @ D
        fitted = Xc @ np.linalg.lstsq(Xc, Yc, rcond=None)[0]
        O_r = fitted @ fitted.T @ D
        O_m = Xc @ res.extras["constrained_metric"] @ Xc.T @ D
        lhs = covv(O_y - O_m, O_y - O_m)
        rhs = covv(O_y - O_r, O_y - O_r) + covv(O_r - O_m, O_r - O_m)
        npt.assert_allclose(lhs, rhs, rtol=1e-10)
        # full-rank fit closes the second gap
        full = pcaiv(X, Y)
        O_m_full = Xc @ full.extras["constrained_metric"] @ Xc.T @ D
        assert covv(O_r - O_m_full, O_r - O_m_full) <= 1e-10 * covv(O_r, O_r)

    def test_pythagoras_weighted_any_symmetric_metric(self):
        rng = np.random.default_rng(44)
        n = 12
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, 4))
        w = rng.uniform(0.5, 2.0, n)
        res = pcaiv(X, Y, weights=w)
        D = np.diag(w / w.sum())
        Xc = X - (w / w.sum()) @ X
        Yc = Y - (w / w.sum()) @ Y
        R = res.extras["instrumental_metric"]
        S_y = Yc @ Yc.T
        S_r = Xc @ R @ Xc.T
        for _ in range(5):
            M = rng.standard_normal((3, 3))
            M = M + M.T
            S_m = Xc @ M @ Xc.T
            lhs = weighted_op_norm2(S_y - S_m, D)
            rhs = (weighted_op_norm2(S_y - S_r, D)
                   + weighted_op_norm2(S_r - S_m, D))
            npt.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_rank_q_operator_is_spectral_truncation(self):
        rng = np.random.default_rng(45)
        n = 13
        X = rng.standard_normal((n, 5))
        Y = rng.standard_normal((n, 4))
        q = 2
        res = pcaiv(X, Y, q=q)
        w = np.full(n, 1.0 / n)
        D = np.diag(w)
        Xc = X - X.mean(axis=0)
        C = res.decomposition.principal_components
        O_m = Xc @ res.extras["constrained_metric"] @ Xc.T @ D
        O_trunc = C @ C.T @ D
        npt.assert_allclose(O_m, O_trunc, atol=1e-12)

    def test_rank_request_errors(self):
        rng = np.random.default_rng(46)
        X = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="at least 1"):
            pcaiv(X, y, q=0)
        with pytest.raises(ValueError, match="exceeds the attainable rank"):
            pcaiv(X, y, q=2)

    def test_indefinite_response_metric_rejected(self):
        rng = np.random.default_rng(47)
        X = rng.standard_normal((10, 2))
        Y = rng.standard_normal((10, 2))
        with pytest.raises(ValueError, match="response_metric has a significantly negative"):
            pcaiv(X, Y, response_metric=np.diag([1.0, -1.0]))

    def test_collinear_explanatory_block_rejected(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValueError, match="reduce dimensionality"):
            pcaiv(X, np.array([[1.0], [0.0], [-1.0]]))

    def test_response_of_another_row_count_rejected(self):
        with pytest.raises(ValueError,
                           match="X and Y must have equal row counts, got 5 and 4"):
            pcaiv(np.ones((5, 2)), np.ones((4, 2)))

    def test_response_metric_of_another_size_rejected(self):
        rng = np.random.default_rng(46)
        with pytest.raises(ValueError, match=r"response_metric must be 2x2 to match Y "
                                             r"with 2 columns, got \(3, 3\)"):
            pcaiv(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)),
                  response_metric=np.eye(3))

    def test_non_square_response_metric_rejected_by_its_shape(self):
        rng = np.random.default_rng(46)
        with pytest.raises(ValueError, match=r"response_metric must be 2x2 to match Y "
                                             r"with 2 columns, got \(2, 3\)"):
            pcaiv(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)),
                  response_metric=np.ones((2, 3)))


class TestLdaPcaivEquivalence:
    def test_same_spectrum(self):
        rng = np.random.default_rng(47)
        n = 18
        X = rng.standard_normal((n, 3))
        labels = (["a"] * 6) + (["b"] * 6) + (["c"] * 6)
        w = rng.uniform(0.5, 2.0, n)
        res_lda = lda(X, labels, weights=w)
        g = GroupCoding.from_labels(labels)
        Y = g.indicator
        wn = w / w.sum()
        group_mass = Y.T @ np.diag(wn) @ Y
        res_iv = pcaiv(X, Y, response_metric=np.linalg.inv(group_mass), weights=w)
        r = res_lda.decomposition.rank
        assert res_iv.decomposition.rank == r
        npt.assert_allclose(
            res_iv.decomposition.eigenvalues,
            res_lda.decomposition.eigenvalues,
            rtol=1e-10,
        )


_TRIPLE_METHODS = ["pca", "ca", "lda", "pcaiv", "cca", "regress_on_covariates"]


def _run_method(method):
    rng = np.random.default_rng(54)
    X, Y = rng.standard_normal((30, 3)), rng.standard_normal((30, 2))
    u, v = ring_with_chords(rng, 30).T
    M = np.zeros((30, 30))
    M[u, v] = M[v, u] = 1.0
    run = {
        "pca": lambda: pca(X),
        "ca": lambda: ca(ContingencyTable(rng.integers(1, 9, (5, 4)))),
        "lda": lambda: lda(X, ["a", "b", "c"] * 10),
        "pcaiv": lambda: pcaiv(X, Y, q=1),
        "cca": lambda: cca(X, Y),
        "regress_on_covariates": lambda: regress_on_covariates(make_graph(M), X, k=2),
    }
    return run[method]()


@pytest.mark.parametrize("method", _TRIPLE_METHODS)
def test_scree_is_the_decomposition_spectrum(method):
    res = _run_method(method)
    assert len(res.scree) > 0
    want = ScreeTable.from_eigenvalues(res.decomposition.eigenvalues)
    assert res.scree.rows == want.rows


@pytest.mark.parametrize("method", _TRIPLE_METHODS)
def test_one_decompose_call(method, monkeypatch):
    """Every method builds one triple and reaches the core through the
    public ``decompose``, the name the benchmark's tracer rebinds."""
    calls = []
    real_decompose = triptych.methods.decompose

    def counting_decompose(t, *args, **kwargs):
        assert isinstance(t, Triple)
        calls.append(real_decompose(t, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(triptych.methods, "decompose", counting_decompose)
    res = _run_method(method)
    assert len(calls) == 1
    assert res.decomposition is calls[0]


def _merged_triple(X1, X2):
    """Decomposition of cca's merged triple under uniform weights, built
    through the public API: both centred blocks side by side under the
    block-diagonal metric of the two inverse within-block covariances."""
    n = X1.shape[0]
    X1c, X2c = X1 - X1.mean(axis=0), X2 - X2.mean(axis=0)
    Q = scipy.linalg.block_diag(np.linalg.inv(X1c.T @ X1c / n), np.linalg.inv(X2c.T @ X2c / n))
    return decompose(make_triple(np.hstack([X1c, X2c]), Q, np.full(n, 1.0 / n)))


class TestCca:
    def test_runs_one_svd(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(47)
        res = cca(rng.standard_normal((40, 3)), rng.standard_normal((40, 4)))
        assert res.decomposition.rank == 3
        assert len(calls) == 1

    def test_identical_blocks(self):
        rng = np.random.default_rng(48)
        X = rng.standard_normal((10, 3))
        res = cca(X, X @ np.array([[2.0, 0, 1], [0, 1, 0], [0, 0, 3.0]]))
        npt.assert_allclose(res.extras["canonical_correlations"], np.ones(3),
                            rtol=1e-8)

    def test_uncorrelated_blocks(self):
        # block 2 built orthogonal to block 1 under uniform weights
        rng = np.random.default_rng(49)
        n = 12
        X1 = rng.standard_normal((n, 2))
        X1 -= X1.mean(axis=0)
        X2 = rng.standard_normal((n, 2))
        X2 -= X2.mean(axis=0)
        X2 -= X1 @ np.linalg.lstsq(X1, X2, rcond=None)[0]
        res = cca(X1, X2)
        assert res.decomposition.rank == 0
        assert res.extras["canonical_correlations"].size == 0
        # merged spectrum collapses onto 1
        npt.assert_allclose(_merged_triple(X1, X2).eigenvalues, np.ones(4), atol=1e-10)

    def test_against_classical_eigensolve(self):
        rng = np.random.default_rng(50)
        n, p1, p2 = 25, 3, 4
        X1 = rng.standard_normal((n, p1))
        X2 = rng.standard_normal((n, p2))
        res = cca(X1, X2)
        X1c = X1 - X1.mean(axis=0)
        X2c = X2 - X2.mean(axis=0)
        S11 = X1c.T @ X1c / n
        S22 = X2c.T @ X2c / n
        S12 = X1c.T @ X2c / n
        M = np.linalg.solve(S11, S12) @ np.linalg.solve(S22, S12.T)
        oracle = np.sqrt(np.sort(np.linalg.eigvals(M).real)[::-1])
        rho = res.extras["canonical_correlations"]
        npt.assert_allclose(rho, oracle[: rho.size], rtol=1e-9)
        # scree carries the squared correlations
        npt.assert_allclose(
            [row.eigenvalue for row in res.scree], rho**2, rtol=1e-9
        )

    def test_merged_spectrum_pairs_around_one(self):
        rng = np.random.default_rng(51)
        n, p1, p2 = 20, 3, 2
        X1 = rng.standard_normal((n, p1))
        X2 = rng.standard_normal((n, p2))
        res = cca(X1, X2)
        rho = res.extras["canonical_correlations"]
        expected = np.sort(np.concatenate([
            1.0 + rho, 1.0 - rho, np.ones(p1 + p2 - 2 * rho.size)
        ]))[::-1]
        merged = _merged_triple(X1, X2)
        npt.assert_allclose(np.sort(merged.eigenvalues)[::-1],
                            expected, rtol=1e-8, atol=1e-10)
        npt.assert_allclose(merged.inertia, p1 + p2, rtol=1e-10)

    def test_score_normalization_and_pairing(self):
        rng = np.random.default_rng(52)
        n = 30
        X1 = rng.standard_normal((n, 3))
        X2 = rng.standard_normal((n, 3))
        res = cca(X1, X2)
        D = np.eye(n) / n
        U = res.extras["scores_1"]
        V = res.extras["scores_2"]
        rho = res.extras["canonical_correlations"]
        q = rho.size
        npt.assert_allclose(U.T @ D @ U, np.eye(q), atol=1e-10)
        npt.assert_allclose(V.T @ D @ V, np.eye(q), atol=1e-10)
        cross = U.T @ D @ V
        npt.assert_allclose(np.diag(cross), rho, rtol=1e-9)
        # paired scores correlate positively and off-pairs vanish
        npt.assert_allclose(cross, np.diag(rho), atol=1e-8)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(53)
        X1 = rng.standard_normal((15, 4))
        X2 = rng.standard_normal((15, 3))
        rho_a = cca(X1, X2).extras["canonical_correlations"]
        rho_b = cca(X1[:, [2, 0, 3, 1]], X2).extras["canonical_correlations"]
        npt.assert_allclose(rho_a, rho_b, rtol=1e-9)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            cca(np.ones((3, 2)), np.ones((4, 2)))


def _whitened_basis(M, w):
    """Orthonormal basis of sqrt(w) * (M centred with weights w), by QR."""
    Mc = M - w @ M
    return np.linalg.qr(np.sqrt(w)[:, None] * Mc)[0]


def _near_collinear(seed=7, n=400):
    """Block 1's fourth column is its third plus 1e-7 noise, so its
    covariance has condition number near 1e14; groups and responses both
    depend on that near-null direction."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    X[:, 3] = X[:, 2] + 1e-7 * rng.standard_normal(n)
    labels = [f"g{i % 3}" for i in range(n)]
    G = GroupCoding.from_labels(labels).indicator
    X[:, 3] += 1e-7 * (G @ np.array([0.0, 1.0, -1.0]))
    X2 = X[:, :3] @ rng.standard_normal((3, 3)) + rng.standard_normal((n, 3))
    Y = X @ rng.standard_normal((4, 3)) + rng.standard_normal((n, 3))
    Y += 1e6 * np.outer(X[:, 3] - X[:, 2], np.ones(3))
    w = rng.uniform(0.5, 2.0, n)
    return X, X2, Y, labels, G, w


@pytest.mark.parametrize("n,p,q,collinear", [
    (200, 6, 3, False),
    (400, 70, 5, False),   # wider than LAPACK's block size
    (500, 70, 4, True),
])
def test_weighted_qr_matches_scipy_oracle(n, p, q, collinear):
    """R (through its inverse) and the cross block of the weighted QR
    against scipy's QR and triangular solve of the same scaled blocks."""
    rng = np.random.default_rng(p + q)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
    if collinear:
        X[:, -1] = X[:, 3] + 1e-6 * rng.standard_normal(n)
    w = rng.uniform(0.5, 2.0, n)
    w /= w.sum()
    other = rng.standard_normal((n, q))
    Xc, Ri, cross = _weighted_qr(X, w, "X", other)
    npt.assert_array_equal(Xc, X - w @ X)
    R = scipy.linalg.qr(np.hstack([Xc, other]) * np.sqrt(w)[:, None], mode="r")[0][:p]
    R11 = R[:, :p]
    ref = scipy.linalg.solve_triangular(R11, np.eye(p))
    # both inverses are accurate to about cond(R11) ulps
    tol = 1e-15 * np.linalg.cond(R11)
    npt.assert_allclose(Ri, ref, rtol=0, atol=tol * np.max(np.abs(ref)))
    npt.assert_allclose(R11 @ Ri, np.eye(p), rtol=0, atol=tol)
    npt.assert_allclose(cross, R[:, p:], rtol=0, atol=1e-14 * np.max(np.abs(R[:, p:])))


def test_weighted_qr_reports_lapack_failure(monkeypatch):
    import numpy.linalg.lapack_lite

    monkeypatch.setattr(numpy.linalg.lapack_lite, "dgeqrf", lambda *args: {"info": -4})
    X = np.random.default_rng(3).standard_normal((20, 3))
    with pytest.raises(np.linalg.LinAlgError, match=r"dgeqrf failed \(info = -4\)"):
        _weighted_qr(X, np.full(20, 0.05), "X")


class TestNearCollinearBlocks:
    """Blocks whose covariance is too ill-conditioned to invert still have a
    well-conditioned weighted QR; results match test-local QR oracles."""

    def test_cca_correlations(self):
        X, X2, _, _, _, w = _near_collinear()
        wn = w / w.sum()
        oracle = np.linalg.svd(
            _whitened_basis(X, wn).T @ _whitened_basis(X2, wn), compute_uv=False
        )
        rho = cca(X, X2, weights=w).extras["canonical_correlations"]
        npt.assert_allclose(rho, oracle, rtol=1e-8)

    def test_lda_ratios(self):
        X, _, _, labels, G, w = _near_collinear()
        wn = w / w.sum()
        mass = wn @ G
        scaled = np.sqrt(wn)[:, None] * G / np.sqrt(mass)
        oracle = np.linalg.svd(_whitened_basis(X, wn).T @ scaled, compute_uv=False) ** 2
        ratios = lda(X, labels, weights=w).extras["discriminating_ratios"]
        assert ratios.size == 2
        npt.assert_allclose(ratios, oracle[:2], rtol=1e-8)

    def test_pcaiv_eigenvalues(self):
        X, _, Y, _, _, w = _near_collinear()
        wn = w / w.sum()
        Yc = Y - wn @ Y
        oracle = np.linalg.svd(
            _whitened_basis(X, wn).T @ (np.sqrt(wn)[:, None] * Yc), compute_uv=False
        ) ** 2
        lam = pcaiv(X, Y, weights=w).decomposition.eigenvalues
        npt.assert_allclose(lam, oracle, rtol=1e-8)

    @pytest.mark.parametrize("method", ["lda", "pcaiv", "cca"])
    def test_constant_or_collinear_column_named(self, method):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 3))
        labels = [f"g{i % 2}" for i in range(30)]
        run = {
            "lda": lambda M: lda(M, labels),
            "pcaiv": lambda M: pcaiv(M, rng.standard_normal((30, 2))),
            "cca": lambda M: cca(M, rng.standard_normal((30, 2))),
        }[method]
        offset = X.copy()
        offset[:, 1] = 1e6
        with pytest.raises(ValueError, match="column 1 is constant or collinear"):
            run(offset)
        collinear = X.copy()
        collinear[:, 2] = 3.0 * X[:, 0] - X[:, 1]
        with pytest.raises(ValueError, match="column 2 is constant or collinear"):
            run(collinear)


def _unit_free_problem():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((60, 5)) @ (np.eye(5) + 0.3 * rng.standard_normal((5, 5)))
    Y = X[:, :2] @ rng.standard_normal((2, 3)) + rng.standard_normal((60, 3))
    return X, Y, rng.uniform(0.5, 2.0, 60)


_UNIT_FREE = {
    "lda": lambda X, Y, w: lda(X, [f"g{i % 3}" for i in range(len(X))], weights=w)
    .extras["discriminating_ratios"],
    "cca": lambda X, Y, w: cca(X[:, :3], X[:, 3:], weights=w)
    .extras["canonical_correlations"],
    "pcaiv": lambda X, Y, w: pcaiv(X, Y, weights=w).decomposition.eigenvalues,
    "pca": lambda X, Y, w: pca(X, standardize=True, weights=w).decomposition.eigenvalues,
}


@pytest.mark.parametrize(
    "method,c",
    [(m, c) for m in ("lda", "cca") for c in (1e-160, 1e-7, 1e7, 1e160)]
    + [("pcaiv", c) for c in (1e-160, 1e-150, 1e-7, 1e7, 1e150)]
    + [("pca", c) for c in (1e-150, 1e-13, 1e13, 1e150)],
)
def test_unit_free_results_ignore_data_scale(method, c):
    """lda ratios, cca correlations, pcaiv eigenvalues and standardized
    pca eigenvalues of (X * c, Y) equal those of (X, Y) across the double
    range."""
    X, Y, w = _unit_free_problem()
    ref = _UNIT_FREE[method](X, Y, w)
    assert ref.size >= 2
    npt.assert_allclose(_UNIT_FREE[method](X * c, Y, w), ref, rtol=1e-12)


def test_lda_extras_past_the_float_range_are_inf():
    """At X * 1e160 the covariances (~1e320) do not fit in a float: they come
    back inf, without a warning, while the ratios and the split residual,
    formed at unit scale, stay right."""
    X, _, w = _unit_free_problem()
    groups = [f"g{i % 3}" for i in range(60)]
    ref = lda(X, groups, weights=w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lda(X * 1e160, groups, weights=w)
    npt.assert_allclose(got.extras["discriminating_ratios"],
                        ref.extras["discriminating_ratios"], rtol=1e-12)
    for name in ("total", "between", "within"):
        assert np.all(np.isposinf(np.diagonal(got.extras[name]))), name
        assert not np.any(np.isnan(got.extras[name])), name
    assert np.isfinite(got.extras["split_residual"])
    npt.assert_allclose(got.extras["group_means"], ref.extras["group_means"] * 1e160,
                        rtol=1e-12)


def test_pcaiv_extras_past_the_float_range_are_inf():
    """At X * 1e-160 the instrumental metric R grows as 1e320: it comes back
    inf, not nan, without a warning, and the eigenvalues stay right."""
    X, Y, w = _unit_free_problem()
    ref = pcaiv(X, Y, weights=w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pcaiv(X * 1e-160, Y, weights=w)
    npt.assert_allclose(got.decomposition.eigenvalues, ref.decomposition.eigenvalues,
                        rtol=1e-12)
    for name in ("instrumental_metric", "constrained_metric"):
        assert np.all(np.isposinf(np.diagonal(got.extras[name]))), name
        assert not np.any(np.isnan(got.extras[name])), name


# One n x n float array at n = 3000 takes 72 MB; O(n p) work stays far below.
_TALL_N = 3000
_TALL_CALLS = {
    "pca": lambda X, w, N: pca(X),
    "pca-weighted": lambda X, w, N: pca(X, weights=w),
    "pca-standardized": lambda X, w, N: pca(X, standardize=True),
    "lda": lambda X, w, N: lda(X, [f"g{i % 3}" for i in range(_TALL_N)]),
    "cca": lambda X, w, N: cca(X[:, :6], X[:, 6:]),
    "pcaiv": lambda X, w, N: pcaiv(X[:, :6], X[:, 6:], weights=w),
    "ca": lambda X, w, N: ca(ContingencyTable(N)),
    "rv_triples": lambda X, w, N: rv_triples(
        make_triple(X[:, :6], np.eye(6), w), make_triple(X[:, 6:], np.eye(4), w)
    ),
}


# Graph cases run on a 3000-node ring with two random chords per node:
# O(|E|) work, while one dense adjacency or Laplacian is again 72 MB.
_GRAPH_CALLS = {
    "graph-read_edges": lambda g, X, path: read_edges(path),
    "graph-local_variance": lambda g, X, path: local_variance(g, X),
    "graph-geary": lambda g, X, path: geary(g, X[:, 0]),
    "graph-local_covariance": lambda g, X, path: local_covariance(g, X),
    "graph-layout": lambda g, X, path: layout(g),
    "graph-regress": lambda g, X, path: regress_on_covariates(g, X, k=3),
}


@pytest.mark.parametrize("name", sorted(_TALL_CALLS) + sorted(_GRAPH_CALLS))
def test_peak_memory_has_no_n_by_n_term(name, tmp_path):
    rng = np.random.default_rng(41)
    if name in _TALL_CALLS:
        X = rng.standard_normal((_TALL_N, 10))
        w = rng.uniform(0.5, 2.0, _TALL_N)
        N = rng.integers(1, 20, (_TALL_N, 10))
        call, args = _TALL_CALLS[name], (X, w, N)
    else:
        path = tmp_path / "edges.csv"
        write_edges(path, ring_with_chords(rng, _TALL_N))
        g = read_edges(str(path))
        call, args = _GRAPH_CALLS[name], (g, rng.standard_normal((_TALL_N, 3)), str(path))
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MB"
