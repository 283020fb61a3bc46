"""Seeded inputs, steps and oracles for the benchmark workloads.

A workload is a fixed cycle of steps.  A step is one analysis asked twice:
of the ``triptych`` CLI, as a subprocess reading the files written here, and
of the library, as one call on the same values already in memory.  The seed
decides the data; the methods and input sizes of the cycle are fixed, so
runs with different seeds do the same work.

Every result is checked: the library result against an oracle the benchmark
computes itself with plain numpy and scipy, and the CLI's printed tables and
written ``_scree``/``_rows`` files against the library result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.linalg as sla

WORKLOADS = ("tall", "square", "graph")

# Printed precision of the CLI's stdout tables (eigenvalues to 5 decimals,
# total inertia to 4, Geary tables to 6 significant digits).
SCREE_ATOL = 1e-5
INERTIA_ATOL = 1e-4
GEARY_RTOL = 2e-5
# Agreement of values written at 17 digits with the in-process result.
FILE_RTOL = 1e-9
# Agreement of the library with the oracles, relative to the largest value.
ORACLE_RTOL = 1e-8
# Graph oracles come from another eigensolver; eigenvectors carry an extra
# error of order eps / gap, and generated graphs keep their gaps above this.
GRAPH_VECTOR_RTOL = 1e-7
MIN_RELATIVE_GAP = 1e-4


@dataclass
class Step:
    """One analysis of a workload cycle.

    ``cli`` holds the CLI arguments (output stem appended when ``writes``),
    or None for a library-only step.  ``lib`` runs the library call given the
    package namespace.  ``check_lib(result)`` and
    ``check_cli(stdout, stem, result)`` return lists of failure messages.
    """

    kind: str
    size: str
    cli: list[str] | None
    writes: bool
    lib: Callable[[Any], Any]
    check_lib: Callable[[Any], list[str]]
    check_cli: Callable[[str, str, Any], list[str]] | None = None


@dataclass
class Workload:
    steps: list[Step]
    inputs: list[str]


# --- comparison helpers -----------------------------------------------------

def _close(what, got, want, atol) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= atol:
        return [f"{what}: max error {err:.3g} exceeds {atol:.3g}"]
    return []


def _rel_close(what, got, want, rtol) -> list[str]:
    want = np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return _close(what, got, want, rtol * scale)


def _same_up_to_sign(what, got, want, rtol) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    errs = []
    for j in range(want.shape[1]):
        sign = 1.0 if got[:, j] @ want[:, j] >= 0 else -1.0
        errs += _rel_close(f"{what} column {j + 1}", sign * got[:, j], want[:, j], rtol)
    return errs


def _read_tsv(path: str) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    return [r[0] for r in rows], np.array([[float(x) for x in r[1:]] for r in rows])


def _check_files(stem, result, q, row_labels) -> list[str]:
    """The CLI's ``_scree`` and ``_rows`` files against the library result."""
    _, scree = _read_tsv(stem + "_scree.tsv")
    labels, rows = _read_tsv(stem + "_rows.tsv")
    errs = _rel_close("scree file", scree[:, 0],
                      [r.eigenvalue for r in result.scree], FILE_RTOL)
    if labels != list(row_labels):
        errs.append("rows file: row labels differ from the input order")
    return errs + _rel_close("rows file", rows, result.row_coords[:, :q], FILE_RTOL)


def _printed_scree(stdout: str) -> tuple[np.ndarray, float]:
    lam, inertia = [], None
    for line in stdout.splitlines():
        cells = line.split("\t")
        if line.startswith("total inertia:"):
            inertia = float(line.split(":")[1])
        elif len(cells) == 4 and cells[0].isdigit():
            lam.append(float(cells[1]))
    if inertia is None:
        raise ValueError("no total inertia line in the scree output")
    return np.array(lam), inertia


def _check_printed_scree(stdout, result) -> list[str]:
    lam, inertia = _printed_scree(stdout)
    want = [r.eigenvalue for r in result.scree]
    return (_close("printed scree", lam, want, SCREE_ATOL)
            + _close("printed inertia", inertia, result.decomposition.inertia,
                     INERTIA_ATOL))


def _eigen_oracle(what, result, want) -> list[str]:
    got = result.decomposition.eigenvalues
    return _rel_close(f"{what} eigenvalues", got, want, ORACLE_RTOL)


def _rank(lam: np.ndarray) -> np.ndarray:
    """Descending spectrum without its numerically zero tail."""
    lam = np.sort(lam)[::-1]
    return lam[lam > 1e-9 * lam[0]]


# --- file writers -----------------------------------------------------------

def _write_table(path, row_labels, col_labels, M, fmt=repr) -> None:
    lines = ["id," + ",".join(col_labels)]
    lines += [lab + "," + ",".join(map(fmt, row))
              for lab, row in zip(row_labels, M.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_shuffled(path, rng, row_labels, col_labels, M, fmt=repr) -> None:
    """Rows in a seeded order, so the CLI has to realign them by label."""
    order = rng.permutation(len(row_labels))
    _write_table(path, [row_labels[i] for i in order], col_labels, M[order], fmt)


# --- tall: n >> p tables ----------------------------------------------------

# (rows, columns, second-block columns) of the cycle's tables.  Two small
# tables give the median many samples of like cost; the tail is the middle
# and largest sizes, with pcaiv (n x n fitted operator) at the largest.
# Shapes are fixed so that every seed does the same work.
TALL_SHAPES = {"full": ((1000, 6, 5), (1000, 18, 12), (2000, 12, 8), (4000, 10, 6)),
               "tiny": ((40, 6, 5), (45, 18, 12), (50, 12, 8), (60, 10, 6))}
_ALL_TALL = ("pca", "pca-std", "pca-w", "lda", "pcaiv", "cca")
TALL_CYCLE = (
    *[(kind, 0) for kind in _ALL_TALL], ("rv", 0),
    *[(kind, 1) for kind in _ALL_TALL],
    ("pca", 2), ("pca-w", 2), ("lda", 2), ("pcaiv", 2), ("cca", 2), ("rv", 2),
    ("pca", 3), ("pcaiv", 3),
)
N_GROUPS = 4


def _tall_table(rng, n, p, py, d, tmp) -> dict:
    labels = [f"r{i}" for i in range(n)]
    group = rng.permutation(np.arange(n) % N_GROUPS)
    scales = np.exp(rng.uniform(-1.5, 1.5, p))
    # A well-conditioned mixing keeps every axis clear of the rank cut.
    mixing = np.eye(p) + 0.3 * rng.standard_normal((p, p)) / np.sqrt(p)
    X = (rng.standard_normal((n, p)) @ mixing) * scales
    X += rng.standard_normal((N_GROUPS, p))[group] * scales + rng.uniform(-5, 5, p)
    Y = X[:, : min(p, 3)] @ rng.standard_normal((min(p, 3), py)) / scales[: min(p, 3)].mean()
    Y += rng.standard_normal((n, py))
    w = rng.uniform(0.5, 2.0, n)
    indicator = np.eye(N_GROUPS)[group]
    files = {k: str(Path(tmp) / f"tall{d}_{k}") for k in ("x.csv", "y.csv", "g.csv", "w.txt")}
    _write_table(files["x.csv"], labels, [f"x{j}" for j in range(p)], X)
    _write_shuffled(files["y.csv"], rng, labels, [f"y{j}" for j in range(py)], Y)
    _write_shuffled(files["g.csv"], rng, labels, [f"g{k}" for k in range(N_GROUPS)],
                    indicator, fmt=lambda v: "%d" % v)
    Path(files["w.txt"]).write_text("\n".join(map(repr, w.tolist())) + "\n")
    return {"n": n, "p": p, "py": py, "labels": labels, "X": X, "Y": Y, "w": w,
            "indicator": indicator, "files": files}


def _weighted_cov(X, w):
    w = w / w.sum()
    Xc = X - w @ X
    return Xc, Xc.T @ (w[:, None] * Xc)


def _cca_oracle(X1, X2):
    Q1 = np.linalg.qr(X1 - X1.mean(axis=0))[0]
    Q2 = np.linalg.qr(X2 - X2.mean(axis=0))[0]
    return np.linalg.svd(Q1.T @ Q2, compute_uv=False)


def _tall_steps(t, kinds, api_make_triple) -> dict[str, Step]:
    n, X, Y, w, f = t["n"], t["X"], t["Y"], t["w"], t["files"]
    uniform = np.full(n, 1.0 / n)
    Xc, S = _weighted_cov(X, uniform)
    _, Sw = _weighted_cov(X, w)
    sd = np.sqrt(np.diag(S))
    Yc = Y - Y.mean(axis=0)
    Sxy = Xc.T @ Yc / n
    B = np.zeros_like(S)
    for k in range(N_GROUPS):
        members = t["indicator"][:, k] == 1
        m = Xc[members].mean(axis=0)
        B += members.mean() * np.outer(m, m)
    oracle = {
        "pca": _rank(np.linalg.eigvalsh(S)),
        "pca-std": _rank(np.linalg.eigvalsh(S / np.outer(sd, sd))),
        "pca-w": _rank(np.linalg.eigvalsh(Sw)),
        "lda": _rank(sla.eigh(B, S, eigvals_only=True)),
        "pcaiv": _rank(np.linalg.eigvalsh(Sxy.T @ np.linalg.solve(S, Sxy))),
    }
    rho = _cca_oracle(X, Y)
    # RV between the pca triple and the pcaiv triple (fitted responses under
    # the identity metric), uniform weights: ||X1'X2||^2 / (||X1'X1|| ||X2'X2||).
    fitted = Xc @ np.linalg.lstsq(Xc, Yc, rcond=None)[0]
    rv_oracle = (np.linalg.norm(Xc.T @ fitted) ** 2
                 / (np.linalg.norm(Xc.T @ Xc) * np.linalg.norm(fitted.T @ fitted)))
    if "rv" in kinds:  # n x n weights: build only where the cycle uses them
        D = np.eye(n) / n
        t1 = api_make_triple(Xc, np.eye(t["p"]), D)
        t2 = api_make_triple(fitted, np.eye(t["py"]), D)
    labels = t["labels"]
    size = f"n={n}"

    def files_check(q=2):
        return lambda out, stem, r: _check_files(stem, r, q, labels)

    def eig(kind):
        return lambda r: _eigen_oracle(kind, r, oracle[kind])

    x, y, g, wt = f["x.csv"], f["y.csv"], f["g.csv"], f["w.txt"]
    ax = ["--axes", "2"]
    return {
        "pca": Step("pca", size, ["pca", x, *ax], True,
                    lambda api: api.pca(X), eig("pca"), files_check()),
        "pca-std": Step("pca-std", size, ["pca", x, "--standardize", *ax], True,
                        lambda api: api.pca(X, standardize=True), eig("pca-std"),
                        files_check()),
        "pca-w": Step("pca-w", size, ["pca", x, "--weights", wt, *ax], True,
                      lambda api: api.pca(X, weights=w), eig("pca-w"), files_check()),
        "lda": Step("lda", size, ["lda", x, g, *ax], True,
                    lambda api: api.lda(X, api.GroupCoding(
                        t["indicator"], [f"g{k}" for k in range(N_GROUPS)])),
                    eig("lda"), files_check()),
        "pcaiv": Step("pcaiv", size, ["pcaiv", x, y, *ax], True,
                      lambda api: api.pcaiv(X, Y, q=2), eig("pcaiv"), files_check()),
        "cca": Step("cca", size, ["cca", x, y, *ax], True,
                    lambda api: api.cca(X, Y),
                    lambda r: _rel_close("canonical correlations",
                                         r.extras["canonical_correlations"], rho,
                                         ORACLE_RTOL),
                    files_check()),
        "rv": Step("rv", size, None, False, lambda api: api.rv_triples(t1, t2),
                   lambda r: _close("rv", r, rv_oracle, ORACLE_RTOL)),
    }


def _tall(rng, tmp, scale, api) -> Workload:
    shapes = TALL_SHAPES[scale]
    tables = [_tall_table(rng, *shape, d, tmp) for d, shape in enumerate(shapes)]
    per_size = [_tall_steps(t, {k for k, e in TALL_CYCLE if e == d}, api.make_triple)
                for d, t in enumerate(tables)]
    steps = [per_size[d][kind] for kind, d in TALL_CYCLE]
    inputs = [f"{t['n']}x{t['p']} table, {t['py']}-column second block" for t in tables]
    return Workload(steps, inputs)


# --- square: contingency and near-square tables -----------------------------

SQUARE_CA = {"full": ((150, 100), (300, 200), (450, 300), (600, 400)),
             "tiny": ((15, 10), (30, 20), (45, 30), (60, 40))}
SQUARE_PCA = {"full": (400, 300), "tiny": (40, 30)}
SQUARE_PCA_TABLES = 2


def _counts(rng, m, p) -> np.ndarray:
    a = rng.gamma(2.0, 1.0, m)
    b = rng.gamma(2.0, 1.0, p)
    u = rng.standard_normal(m)
    v = rng.standard_normal(p)
    lam = 3.0 * np.outer(a / a.mean(), b / b.mean()) * np.exp(0.3 * np.outer(u, v))
    N = rng.poisson(lam).astype(float)
    # Every row and column keeps a positive count.
    N[np.arange(m), np.arange(m) % p] += 1
    N[np.arange(p) % m, np.arange(p)] += 1
    return N


def _ca_oracle(N):
    P = N / N.sum()
    r, c = P.sum(axis=1), P.sum(axis=0)
    E = np.outer(r, c)
    S = (P - E) / np.sqrt(E)
    chi2 = N.sum() * float(np.sum((P - E) ** 2 / E))
    return _rank(np.linalg.svd(S, compute_uv=False) ** 2), chi2


def _scree_and_full(kind, size, path, lib, check_lib, q, rows) -> list[Step]:
    """One analysis twice: printed as a scree only, and written with all q axes."""
    return [
        Step(f"{kind}-scree", size, [kind, path], False, lib, check_lib,
             lambda out, stem, r: _check_printed_scree(out, r)),
        Step(f"{kind}-full", size, [kind, path, "--axes", str(q)], True, lib, check_lib,
             lambda out, stem, r: _check_files(stem, r, q, rows)),
    ]


def _ca_steps(rng, m, p, tmp) -> list[Step]:
    N = _counts(rng, m, p)
    rows, cols = [f"r{i}" for i in range(m)], [f"c{j}" for j in range(p)]
    path = str(Path(tmp) / f"ca_{m}x{p}.csv")
    _write_table(path, rows, cols, N, fmt=lambda v: "%d" % v)
    lam, chi2 = _ca_oracle(N)
    inertia = chi2 / N.sum()

    def check_lib(r):
        return (_eigen_oracle("ca", r, lam)
                + _close("ca chi-square", r.extras["chi_square"], chi2, ORACLE_RTOL * chi2)
                + _close("ca inertia", r.decomposition.inertia, inertia, ORACLE_RTOL * inertia))

    return _scree_and_full("ca", f"{m}x{p}", path,
                           lambda api: api.ca(api.ContingencyTable(N, rows, cols)),
                           check_lib, len(lam), rows)


def _pca_steps(rng, n, p, k, tmp) -> list[Step]:
    X = rng.standard_normal((n, p)) * np.exp(rng.uniform(-1, 1, p))
    rows = [f"r{i}" for i in range(n)]
    path = str(Path(tmp) / f"pca_{k}.csv")
    _write_table(path, rows, [f"v{j}" for j in range(p)], X)
    lam = _rank(np.linalg.eigvalsh(_weighted_cov(X, np.ones(n))[1]))
    return _scree_and_full("pca", f"{n}x{p}", path, lambda api: api.pca(X),
                           lambda r: _eigen_oracle("pca", r, lam), len(lam), rows)


def _square(rng, tmp, scale, api) -> Workload:
    steps = [s for m, p in SQUARE_CA[scale] for s in _ca_steps(rng, m, p, tmp)]
    n, p = SQUARE_PCA[scale]
    steps += [s for k in range(SQUARE_PCA_TABLES) for s in _pca_steps(rng, n, p, k, tmp)]
    inputs = [f"ca {m}x{p} counts" for m, p in SQUARE_CA[scale]]
    inputs.append(f"pca {n}x{p}, {SQUARE_PCA_TABLES} tables")
    return Workload(steps, inputs)


# --- graph: sparse connected graphs with node covariates ---------------------

# Node counts of the cycle's graphs.  Every command runs on two graphs of
# each smaller size, so the median and the tail percentile each fall among
# several samples of like cost; the dense n=2000 spectrum is the far tail.
GRAPH_SIZES = {"full": (500, 500, 1000, 1000, 2000), "tiny": (30, 35, 40, 45, 60)}
_ALL_GRAPH = ("layout-axes2", "layout-scree", "geary", "regress")
GRAPH_CYCLE = (
    *[(kind, d) for d in (0, 1, 2, 3) for kind in _ALL_GRAPH],
    ("layout-axes2", 4), ("geary", 4),
)
CHORDS_PER_NODE = 2
N_COVARIATES = 3
REGRESS_K = 3


def _graph_oracle(M):
    """Dense oracle for (Dg - M) x = mu Dg x through the symmetric form."""
    s = 1.0 / np.sqrt(M.sum(axis=1))
    mu, V = sla.eigh(np.eye(len(M)) - s[:, None] * M * s[None, :], driver="evd")
    return mu[1:], s[:, None] * V[:, 1:REGRESS_K + 1]


def _ring_with_chords(rng, n):
    while True:
        chords = rng.integers(0, n, (CHORDS_PER_NODE * n, 2))
        chords = chords[chords[:, 0] != chords[:, 1]]
        ring = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        edges = np.vstack([ring, chords])
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        # Nodes in order of first appearance, the numbering read_edges uses.
        _, first = np.unique(edges.ravel(), return_index=True)
        order = edges.ravel()[np.sort(first)]
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        M = np.zeros((n, n))
        M[pos[edges[:, 0]], pos[edges[:, 1]]] = 1.0
        M = np.maximum(M, M.T)
        mu, vectors = _graph_oracle(M)
        lead = mu[: REGRESS_K + 1]
        # Layout and the regressed eigenvectors are defined up to sign only
        # when the leading eigenvalues are simple.
        if np.all(np.diff(lead) > MIN_RELATIVE_GAP * lead[1:]):
            return edges, order, M, mu, vectors


def _graph(rng, tmp, scale, api) -> Workload:
    per_size = []
    inputs = []
    for d, n in enumerate(GRAPH_SIZES[scale]):
        edges, order, M, mu, vectors = _ring_with_chords(rng, n)
        labels = [f"n{i}" for i in order]
        edge_path = str(Path(tmp) / f"edges{d}.csv")
        Path(edge_path).write_text(
            "source,target\n" + "".join(f"n{a},n{b}\n" for a, b in edges.tolist()),
            encoding="utf-8")
        angle = 2 * np.pi * order / n
        X = np.column_stack([np.sin(angle), rng.standard_normal(n), M.sum(axis=1)])
        X += 0.1 * rng.standard_normal((n, N_COVARIATES))
        cov_path = str(Path(tmp) / f"nodes{d}.csv")
        _write_shuffled(cov_path, rng, labels, [f"z{j}" for j in range(N_COVARIATES)], X)
        g = api.make_graph(M, node_labels=labels)
        inputs.append(f"{n} nodes, {g.n_edges} edges")
        per_size.append(_graph_steps(g, labels, X, mu, vectors, edge_path, cov_path))
    return Workload([per_size[d][kind] for kind, d in GRAPH_CYCLE], inputs)


def _graph_steps(g, labels, X, mu, vectors, edge_path, cov_path) -> dict[str, Step]:
    size = f"n={g.n_nodes}"
    coords = vectors[:, :2] * np.sqrt(np.maximum(1.0 - mu[:2], 0.0))
    diff = X[g.adjacency.nonzero()[0]] - X[g.adjacency.nonzero()[1]]
    xlx = 0.5 * np.sum(diff**2, axis=0)
    geary_oracle = np.column_stack([
        xlx / g.total_degree,
        X.var(axis=0),
        xlx / g.total_degree / X.var(axis=0),
        xlx / (g.degrees @ X**2),
    ])
    Xc = X - X.mean(axis=0)
    Yc = vectors - vectors.mean(axis=0)
    Sxy = Xc.T @ Yc / len(X)
    regress_lam = _rank(np.linalg.eigvalsh(Sxy.T @ np.linalg.solve(Xc.T @ Xc / len(X), Sxy)))

    def check_layout_files(out, stem, coords_lib):
        file_labels, rows = _read_tsv(stem + "_rows.tsv")
        _, scree = _read_tsv(stem + "_scree.tsv")
        errs = [] if file_labels == labels else ["layout rows: node labels differ"]
        return (errs + _rel_close("layout rows file", rows, coords_lib, FILE_RTOL)
                + _close("layout mu file", scree[:, 0], mu, ORACLE_RTOL))

    def check_printed_mu(out, stem, sp):
        printed = [float(line.split("\t")[1]) for line in out.splitlines()[1:]]
        return _close("printed mu", printed, sp.eigenvalues, SCREE_ATOL)

    def lib_geary(api):
        return np.column_stack([
            api.local_variance(g, X),
            X.var(axis=0),
            api.classical_geary(g, X),
            [api.geary(g, X[:, j]) for j in range(X.shape[1])],
        ])

    def check_printed_geary(out, stem, table):
        printed = np.array([[float(c) for c in line.split("\t")[1:]]
                            for line in out.splitlines()[1:]])
        if printed.shape != table.shape:
            return [f"printed geary: shape {printed.shape}, expected {table.shape}"]
        err = float(np.max(np.abs(printed - table) / np.abs(table)))
        return [] if err <= GEARY_RTOL else [f"printed geary: relative error {err:.3g}"]

    return {
        "layout-axes2": Step(
            "layout-axes2", size, ["layout", edge_path, "--axes", "2"], True,
            lambda api: api.layout(g),
            lambda c: _same_up_to_sign("layout", c, coords, GRAPH_VECTOR_RTOL),
            check_layout_files),
        "layout-scree": Step(
            "layout-scree", size, ["layout", edge_path], False,
            lambda api: api.spectrum(g),
            lambda sp: _close("spectrum", sp.eigenvalues, mu, ORACLE_RTOL),
            check_printed_mu),
        "geary": Step(
            "geary", size, ["geary", edge_path, cov_path], False, lib_geary,
            lambda table: _rel_close("geary", table, geary_oracle, ORACLE_RTOL),
            check_printed_geary),
        "regress": Step(
            "regress", size,
            ["graph-regress", edge_path, cov_path, "--k", str(REGRESS_K), "--axes", "1"],
            True, lambda api: api.regress_on_covariates(g, X, k=REGRESS_K, q=1),
            lambda r: _rel_close("graph-regress eigenvalues", r.decomposition.eigenvalues,
                                 regress_lam, GRAPH_VECTOR_RTOL),
            lambda out, stem, r: _check_files(stem, r, 1, labels)),
    }


def build(name: str, seed: int, tmp: str, api, tiny: bool = False) -> Workload:
    """Write the workload's seeded inputs under ``tmp`` and return its cycle."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    scale = "tiny" if tiny else "full"
    return {"tall": _tall, "square": _square, "graph": _graph}[name](rng, tmp, scale, api)
