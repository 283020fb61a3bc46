"""Acceptance gate: eight criteria, one pass/fail line each.

Each criterion function returns (ok, message); ok may be None for a
skip.  Run under pytest normally, or as a script to see every line:

    python3 tests/test_acceptance.py
"""

import contextlib
import io
import os
import tempfile
import time

import numpy as np
import pytest

from triptych import (
    ContingencyTable,
    GroupCoding,
    ca,
    characterizing_operators,
    chi_square,
    covv,
    decompose,
    geary,
    laplacian,
    lda,
    local_covariance,
    make_graph,
    make_triple,
    pca,
    pcaiv,
    read_table,
    rv,
    rv_max,
    spectrum,
    transition_check,
)
from triptych.cli import run_command


def _random_triple(rng, n, p):
    X = rng.standard_normal((n, p))
    A = rng.standard_normal((p, p))
    Q = A @ A.T + (p + 1) * np.eye(p)
    D = np.diag(rng.uniform(0.1, 2.0, n))
    return make_triple(X, Q, D)


def criterion_1():
    """Orthonormality and transition invariants on 200 random triples."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, 11))
        t = _random_triple(rng, n, p)
        d = decompose(t)
        Q, D = t.metric, np.diag(t.weights)
        Z, A = d.axis_basis, d.principal_axes
        L, C = d.component_basis, d.principal_components
        lam = d.eigenvalues[: d.n_axes]
        scale = max(1.0, lam[0] if lam.size else 0.0)
        eye = np.eye(d.n_axes)
        resid = max(
            np.max(np.abs(Z.T @ Q @ Z - eye), initial=0.0),
            np.max(np.abs(L.T @ D @ L - eye), initial=0.0),
            np.max(np.abs(A.T @ Q @ A - np.diag(lam)), initial=0.0) / scale,
            np.max(np.abs(C.T @ D @ C - np.diag(lam)), initial=0.0) / scale,
        )
        trans = transition_check(t, d)
        resid = max(resid, trans.components / scale, trans.axes / scale)
        VQ, _ = characterizing_operators(t)
        resid = max(resid, abs(np.trace(VQ) - d.inertia) / max(1.0, d.inertia))
        worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    return ok, f"worst invariant residual {worst:.2e} over 200 triples in {elapsed:.1f}s"


def criterion_2():
    """Total inertia of a correspondence analysis carries the chi-square."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        while True:
            m = int(rng.integers(5, 13))
            p = int(rng.integers(5, 13))
            counts = rng.integers(0, 51, size=(m, p))
            if counts.sum(axis=0).all() and counts.sum(axis=1).all():
                break
        tbl = ContingencyTable(counts)
        stat, _ = chi_square(tbl)
        res = ca(tbl)
        rel = abs(res.decomposition.inertia * tbl.total - stat) / max(stat, 1.0)
        worst = max(worst, rel)
    indep_worst = 0.0
    for _ in range(5):
        a = rng.integers(1, 9, size=6)
        b = rng.integers(1, 9, size=5)
        res = ca(ContingencyTable(np.outer(a, b)))
        indep_worst = max(indep_worst, res.decomposition.inertia)
    ok = worst <= 1e-10 and indep_worst <= 1e-12
    return ok, (
        f"n*inertia vs chi-square rel {worst:.2e} on 100 tables; "
        f"independence inertia {indep_worst:.2e}"
    )


def criterion_3():
    """Total covariance splits into between plus within, to roundoff."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        g = int(rng.integers(2, 6))
        p = int(rng.integers(1, 6))
        n = int(rng.integers(g + p + 2, 30))
        X = rng.standard_normal((n, p))
        labels = [f"g{i}" for i in range(g)] + [
            f"g{int(j)}" for j in rng.integers(0, g, size=n - g)
        ]
        w = rng.uniform(0.5, 2.0, n) if rng.random() < 0.5 else None
        res = lda(X, labels, weights=w)
        T = res.extras["total"]
        gap = np.max(np.abs(T - res.extras["between"] - res.extras["within"]))
        worst = max(worst, gap / np.max(np.abs(T)))
    ok = worst <= 1e-12
    return ok, f"worst relative split residual {worst:.2e} on 100 instances"


def criterion_4():
    """Similarity coefficient: self, two-variable, and rank-q optimality."""
    rng = np.random.default_rng(104)
    self_worst = 0.0
    for _ in range(20):
        A = rng.standard_normal((6, 6))
        O = A @ A.T
        self_worst = max(self_worst, abs(rv(O, O) - 1.0))
    corr_worst = 0.0
    D = np.eye(15) / 15
    for _ in range(20):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        xc, yc = x - x.mean(), y - y.mean()
        got = rv(np.outer(xc, xc) @ D, np.outer(yc, yc) @ D)
        r = np.corrcoef(x, y)[0, 1]
        corr_worst = max(corr_worst, abs(got - r**2))
    n, p, q = 12, 6, 2
    X = rng.standard_normal((n, p))
    X -= X.mean(axis=0)
    t = make_triple(X, np.eye(p), np.eye(n) / n)
    d = decompose(t)
    Dw = np.diag(t.weights)
    O_full = X @ X.T @ Dw
    F = d.principal_components[:, :q]
    bound = rv_max(d.eigenvalues, q)
    attain_gap = abs(rv(O_full, F @ F.T @ Dw) - bound)
    lam_q = d.eigenvalues[:q]
    dominated = True
    for _ in range(100):
        G = rng.standard_normal((n, q))
        G -= G.mean(axis=0)
        M = G.T @ Dw @ G
        w_eig, E = np.linalg.eigh(M)
        G = G @ E @ np.diag(1.0 / np.sqrt(w_eig)) @ E.T
        comp = G * np.sqrt(lam_q)
        if rv(O_full, comp @ comp.T @ Dw) > bound + 1e-10:
            dominated = False
    ok = (self_worst <= 1e-12 and corr_worst <= 1e-12
          and attain_gap <= 1e-10 and dominated)
    return ok, (
        f"self {self_worst:.1e}, squared-correlation {corr_worst:.1e}, "
        f"rank-q attainment {attain_gap:.1e}, 100 competitors dominated: {dominated}"
    )


def criterion_5():
    """Constrained-analysis identities: projection split and reductions."""
    rng = np.random.default_rng(105)
    n = 16
    X = rng.standard_normal((n, 4))
    Y = rng.standard_normal((n, 3))
    D = np.eye(n) / n
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    O_y = Yc @ Yc.T @ D
    scale = covv(O_y, O_y)
    res_full = pcaiv(X, Y)
    fitted = Xc @ np.linalg.lstsq(Xc, Yc, rcond=None)[0]
    O_r = fitted @ fitted.T @ D
    split_worst = 0.0
    second_at_r = covv(
        O_r - Xc @ res_full.extras["constrained_metric"] @ Xc.T @ D,
        O_r - Xc @ res_full.extras["constrained_metric"] @ Xc.T @ D,
    )
    minimized = second_at_r <= 1e-10 * scale
    for q in (1, 2):
        res = pcaiv(X, Y, q=q)
        O_m = Xc @ res.extras["constrained_metric"] @ Xc.T @ D
        lhs = covv(O_y - O_m, O_y - O_m)
        rhs = covv(O_y - O_r, O_y - O_r) + covv(O_r - O_m, O_r - O_m)
        split_worst = max(split_worst, abs(lhs - rhs) / scale)
        if lhs < covv(O_y - O_r, O_y - O_r) - 1e-10 * scale:
            minimized = False
    pca_gap = 0.0
    res_self = pcaiv(X, X)
    ref = pca(X)
    lam_a = res_self.decomposition.eigenvalues
    lam_b = ref.decomposition.eigenvalues
    pca_gap = np.max(np.abs(lam_a - lam_b)) / max(1.0, lam_b[0])
    labels = (["a"] * 6) + (["b"] * 5) + (["c"] * 5)
    res_lda = lda(X, labels)
    Yg = GroupCoding.from_labels(labels).indicator
    mass = Yg.T @ D @ Yg
    res_iv = pcaiv(X, Yg, response_metric=np.linalg.inv(mass))
    r = res_lda.decomposition.rank
    lda_gap = np.max(np.abs(
        res_iv.decomposition.eigenvalues[:r] - res_lda.decomposition.eigenvalues
    )) / max(1.0, res_lda.decomposition.eigenvalues[0])
    ok = (split_worst <= 1e-10 and minimized and pca_gap <= 1e-10
          and lda_gap <= 1e-10)
    return ok, (
        f"projection split residual {split_worst:.1e} (minimum at the fitted "
        f"metric: {minimized}), self-explained vs plain spectrum {pca_gap:.1e}, "
        f"discriminant vs instrumental spectrum {lda_gap:.1e}"
    )


def _random_connected(rng, n):
    M = np.zeros((n, n))
    for v in range(1, n):
        u = int(rng.integers(0, v))
        M[u, v] = M[v, u] = 1
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            M[i, j] = M[j, i] = 1
    return make_graph(M)


def criterion_6():
    """Graph suite: Laplacian, Geary, spectrum oracle, folded axes, cliques."""
    rng = np.random.default_rng(106)
    messages = []
    ok = True

    kernel_exact = True
    for _ in range(10):
        g = _random_connected(rng, int(rng.integers(3, 15)))
        if not np.all(laplacian(g) @ np.ones(g.n_nodes) == 0.0):
            kernel_exact = False
    ok &= kernel_exact
    messages.append(f"constant kernel exact: {kernel_exact}")

    geary_worst = 0.0
    for _ in range(5):
        g = _random_connected(rng, 10)
        sp = spectrum(g)
        for j in range(sp.eigenvalues.size):
            gap = abs(geary(g, sp.vectors[:, j]) - sp.eigenvalues[j])
            geary_worst = max(geary_worst, gap / max(1.0, sp.eigenvalues[j]))
    ok &= geary_worst <= 1e-10
    messages.append(f"eigenvector Geary gap {geary_worst:.1e}")

    spec_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 21))
        g = _random_connected(rng, n)
        sp = spectrum(g)
        Dg = np.diag(np.asarray(g.degrees, float))
        brute = np.sort(np.linalg.eigvals(np.linalg.solve(Dg, laplacian(g))).real)
        spec_worst = max(spec_worst, np.max(np.abs(sp.eigenvalues - brute[1:])))
    ok &= spec_worst <= 1e-8
    messages.append(f"spectrum vs brute oracle {spec_worst:.1e} on 50 graphs")

    axes_ok = True
    for seed in (1060, 1061, 1062):
        rng2 = np.random.default_rng(seed)
        g = _random_connected(rng2, 8)
        sp = spectrum(g)
        mu = sp.eigenvalues
        res = ca(ContingencyTable(np.asarray(g.adjacency, int)))
        lam = res.decomposition.eigenvalues
        kept = np.sort([(1 - m) ** 2 for m in mu if abs(1 - m) > 1e-6])[::-1]
        if lam.size != len(kept) or np.max(np.abs(lam - kept)) > 1e-8:
            axes_ok = False
            continue
        Dg = np.diag(np.asarray(g.degrees, float))
        for j, l in enumerate(lam):
            match = np.flatnonzero(
                np.abs((1 - mu) ** 2 - l) <= 1e-8 * max(lam[0], 1.0)
            )
            V = sp.vectors[:, match]
            c = res.row_coords[:, j]
            proj = V @ (V.T @ Dg @ c)
            if np.linalg.norm(c - proj) > 1e-6 * np.linalg.norm(c):
                axes_ok = False
    ok &= axes_ok
    messages.append(f"folded axes match: {axes_ok}")

    s = 4
    M = np.zeros((2 * s, 2 * s))
    for base in (0, s):
        M[base:base + s, base:base + s] = 1 - np.eye(s)
    g = make_graph(M)
    Xn = rng.standard_normal((2 * s, 3))
    V = local_covariance(g, Xn)
    labels = (["a"] * s) + (["b"] * s)
    W = lda(Xn, labels).extras["within"]
    ratio = np.sum(V * W) / np.sum(W * W)
    clique_gap = np.max(np.abs(V - ratio * W)) / np.max(np.abs(V))
    ok &= clique_gap <= 1e-10
    messages.append(f"clique covariance ratio gap {clique_gap:.1e}")

    return ok, "; ".join(messages)


# Frozen benchmark values for the externally supplied 32x7 sentence-ending
# count table (stress patterns by book).  Eigenvalues within 5e-5,
# percentages within 0.05.
_BENCH_EIGENVALUES = [0.09170, 0.02120, 0.00911, 0.00603, 0.00276, 0.00217]
_BENCH_PCTS = [68.96, 15.94, 6.86, 4.53, 2.07, 1.64]
_BENCH_CUM2 = 84.90
_BENCH_PROFILES = {
    "UUUUU": [1.1, 2.4, 3.3, 2.5, 1.7, 2.8, 2.4],
    "-UUUU": [1.6, 3.8, 2.0, 2.8, 2.5, 3.6, 3.9],
    "U-UUU": [1.7, 1.9, 2.0, 2.1, 3.1, 3.4, 6.0],
    "UU-UU": [1.9, 2.6, 1.3, 2.6, 2.6, 2.6, 1.8],
    "UUU-U": [2.1, 3.0, 6.7, 4.0, 3.3, 2.4, 3.4],
    "UUUU-": [2.0, 3.8, 4.0, 4.8, 2.9, 2.5, 3.5],
    "--UUU": [2.1, 2.7, 3.3, 4.3, 3.3, 3.3, 3.4],
    "-U-UU": [2.2, 1.8, 2.0, 1.5, 2.3, 4.0, 3.4],
    "-UU-U": [2.8, 0.6, 1.3, 0.7, 0.4, 2.1, 1.7],
    "-UUU-": [4.6, 8.8, 6.0, 6.5, 4.0, 2.3, 3.3],
}


def _benchmark_table_path():
    env = os.environ.get("PLATO_TABLE_PATH")
    if env:
        return env if os.path.exists(env) else None
    local = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "data", "plato_sentence_endings.csv",
    )
    return local if os.path.exists(local) else None


def criterion_7():
    """Conditional reproduction of the sentence-ending benchmark."""
    path = _benchmark_table_path()
    if path is None:
        return None, "benchmark table not supplied (set PLATO_TABLE_PATH)"
    ds = read_table(path)
    M, row_labels = ds.matrix, list(ds.row_labels)
    if M.shape == (7, 32):
        M, row_labels = M.T, list(ds.col_labels)
    if M.shape != (32, 7):
        return False, f"expected a 32x7 count table, got {M.shape}"
    res = ca(ContingencyTable(M, row_labels, None))
    d = res.decomposition
    problems = []
    if d.rank != 6:
        problems.append(f"rank {d.rank} != 6")
    lam = d.eigenvalues
    for i, ref in enumerate(_BENCH_EIGENVALUES):
        if i >= lam.size or abs(lam[i] - ref) > 5e-5:
            problems.append(f"eigenvalue {i + 1}: {lam[i]:.5f} != {ref}")
    rows = res.scree.rows
    for i, ref in enumerate(_BENCH_PCTS):
        if i >= len(rows) or abs(rows[i].inertia_pct - ref) > 0.05:
            problems.append(f"pct {i + 1}: {rows[i].inertia_pct:.2f} != {ref}")
    if len(rows) >= 2 and abs(rows[1].cumulative_pct - _BENCH_CUM2) > 0.05:
        problems.append(f"cumulative at 2: {rows[1].cumulative_pct:.2f}")
    profiles = 100.0 * M / M.sum(axis=0)
    by_label = {lab: i for i, lab in enumerate(row_labels)}
    for k, (pattern, ref) in enumerate(_BENCH_PROFILES.items()):
        i = by_label.get(pattern, k)
        gap = np.max(np.abs(profiles[i] - np.array(ref)))
        if gap > 0.05:
            problems.append(f"profile row {pattern}: max gap {gap:.3f}")
    if problems:
        return False, "; ".join(problems[:6])
    return True, (
        "scree, rank, and first 10 profile rows all within printed precision"
    )


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def criterion_8():
    """CLI contract: scree-first, near-tie warning interval, exit codes."""
    start = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        def write_two_var(name, ratio):
            # two orthogonal variables with eigenvalue ratio lam2/lam1 = ratio
            b = float(np.sqrt(ratio))
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                fh.write("id,x,y\n")
                for lab, row in zip(
                    ("r1", "r2", "r3", "r4"),
                    ((1.0, 0.0), (-1.0, 0.0), (0.0, b), (0.0, -b)),
                ):
                    fh.write(f"{lab},{row[0]:.17g},{row[1]:.17g}\n")
            return path

        table = write_two_var("plain.csv", 0.25)
        code, out, err = _run_cli(["pca", table])
        if code != 0 or "axis\teigenvalue" not in out:
            problems.append("scree-first output missing")
        stem = os.path.join(tmp, "plain")
        if os.path.exists(stem + "_rows.tsv"):
            problems.append("scree-only run wrote files")

        code, out, err = _run_cli(["pca", table, "--axes", "2"])
        if code != 0:
            problems.append("axes run failed")
        for suffix in ("_scree.tsv", "_rows.tsv", "_cols.tsv", "_manifest.txt"):
            if not os.path.exists(stem + suffix):
                problems.append(f"missing output {suffix}")

        for name, ratio, expect_warning in (
            ("tie.csv", 1.0, True),
            ("near.csv", 1.0 - 5e-4, True),
            ("clear.csv", 1.0 - 2e-3, False),
        ):
            path = write_two_var(name, ratio)
            code, out, err = _run_cli(["pca", path, "--axes", "1"])
            if code != 0:
                problems.append(f"{name}: exit {code}")
            if ("WARNING" in err) != expect_warning:
                problems.append(
                    f"{name}: warning {'missing' if expect_warning else 'spurious'}"
                )

        code, _, _ = _run_cli(["pca", os.path.join(tmp, "absent.csv")])
        if code != 1:
            problems.append(f"missing file gave exit {code}")
        code, _, _ = _run_cli(["no-such-command"])
        if code != 2:
            problems.append(f"unknown command gave exit {code}")
        code, _, _ = _run_cli(["pca", table, "--axes", "0"])
        if code != 2:
            problems.append(f"--axes 0 gave exit {code}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    if problems:
        return False, "; ".join(problems)
    return True, f"scree-first, warning interval, and exit codes hold in {elapsed:.1f}s"


_CRITERIA = [
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
]


def _report(num, ok, msg):
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    print(f"[criterion {num}] {status}: {msg}")


@pytest.mark.parametrize("num,func", _CRITERIA, ids=[f"criterion_{n}" for n, _ in _CRITERIA])
def test_criterion(num, func):
    ok, msg = func()
    _report(num, ok, msg)
    if ok is None:
        pytest.skip(msg)
    assert ok, f"criterion {num}: {msg}"


if __name__ == "__main__":
    failed = False
    for num, func in _CRITERIA:
        ok, msg = func()
        _report(num, ok, msg)
        failed = failed or ok is False
    raise SystemExit(1 if failed else 0)
