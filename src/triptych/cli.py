"""Command-line interface.

Every eigenvalue-producing subcommand follows the scree-first
discipline: invoked without --axes it only prints the scree table, so
the number of axes to keep is chosen after looking at the spectrum;
invoked with --axes q it writes the scree, row and column coordinate
files and a run manifest, warning when the cut splits two nearly equal
eigenvalues.

Exit codes: 0 success, 1 data or numerical error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from itertools import compress

import numpy as np

from . import __version__
from .graph import (
    classical_geary,
    component_subgraphs,
    geary,
    layout,
    local_variance,
    regress_on_covariates,
    spectrum,
)
from .io import (
    Dataset,
    read_edges,
    read_table,
    read_weights,
    write_coordinates,
    write_manifest,
    write_scree,
)
from .linalg import TIE_RTOL, ZERO_EIGENVALUE_RTOL, _scaled_back, _unit_scaled
from .methods import ContingencyTable, GroupCoding, MethodResult, ca, cca, lda, pca, pcaiv

# Relative eigenvalue gap under which an axis cut triggers a WARNING.
NEAR_TIE_RTOL = 1e-3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triptych",
        description="Metric-weighted multivariate analysis from one eigendecomposition core.",
    )
    parser.add_argument("--version", action="version", version=f"triptych {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True):
        p.add_argument("--axes", type=int, default=None, metavar="Q",
                       help="number of axes to keep; omit to print the scree only")
        p.add_argument("--out", default=None, metavar="STEM",
                       help="output file stem (default: input path without extension)")
        p.add_argument("--delimiter", default=None, metavar="C",
                       help="field delimiter (default: sniff tab or comma)")
        if weights:
            p.add_argument("--weights", default=None, metavar="FILE",
                           help="row weight file, one number per line")

    p = sub.add_parser("pca", help="principal component analysis of a data table")
    p.add_argument("table")
    p.add_argument("--standardize", action="store_true",
                   help="scale variables to unit weighted variance")
    common(p)

    p = sub.add_parser("ca", help="correspondence analysis of a contingency table")
    p.add_argument("table")
    common(p, weights=False)

    p = sub.add_parser("lda", help="linear discriminant analysis")
    p.add_argument("table")
    p.add_argument("groups", help="0/1 group coding table aligned with the data rows")
    common(p)

    p = sub.add_parser("pcaiv", help="principal components w.r.t. instrumental variables")
    p.add_argument("table", help="explanatory data table")
    p.add_argument("response", help="response data table")
    common(p)

    p = sub.add_parser("cca", help="canonical correlation analysis of two tables")
    p.add_argument("table")
    p.add_argument("second")
    common(p)

    p = sub.add_parser("geary", help="Geary ratio of node covariates over a graph")
    p.add_argument("edges")
    p.add_argument("table", help="node covariate table")
    p.add_argument("--delimiter", default=None, metavar="C")

    p = sub.add_parser("layout", help="planar spectral layout of a graph")
    p.add_argument("edges")
    p.add_argument("--axes", type=int, default=None, metavar="Q",
                   help="must be 2 (planar); omit to print the eigenvalue spectrum")
    p.add_argument("--out", default=None, metavar="STEM")
    p.add_argument("--delimiter", default=None, metavar="C")

    p = sub.add_parser("graph-regress",
                       help="regress graph eigenvectors on node covariates")
    p.add_argument("edges")
    p.add_argument("table", help="node covariate table")
    p.add_argument("--k", type=int, default=2, metavar="K",
                   help="number of graph eigenvectors to explain (default 2)")
    common(p, weights=False)

    return parser


def _align_rows(ds: Dataset, labels, context: str) -> np.ndarray:
    """Reorder a table's rows to a reference label order."""
    if tuple(ds.row_labels) == tuple(labels):
        return ds.matrix
    pos = {lab: i for i, lab in enumerate(ds.row_labels)}
    missing = [lab for lab in labels if lab not in pos]
    if missing:
        raise ValueError(f"{context}: missing rows for {missing[:5]}")
    wanted = set(labels)
    extra = [lab for lab in ds.row_labels if lab not in wanted]
    if extra:
        raise ValueError(f"{context}: unexpected extra rows {extra[:5]}")
    return ds.matrix[[pos[lab] for lab in labels]]


def _emit(args, result: MethodResult, inputs: list[str],
          row_labels, col_labels, extra_manifest: dict | None = None) -> int:
    scree = result.scree
    if args.axes is None:
        print(scree.format() if len(scree) else "no positive eigenvalues (rank 0)")
        print(f"total inertia: {result.decomposition.inertia:.4f}")
        return 0
    q = args.axes
    available = result.row_coords.shape[1]
    if q > available:
        raise ValueError(f"requested {q} axes but only {available} are available")
    lam = result.decomposition.eigenvalues
    if q < len(lam) and lam[q - 1] > 0 and (lam[q - 1] - lam[q]) <= NEAR_TIE_RTOL * lam[q - 1]:
        print(
            f"WARNING: the cut at {q} axes splits a near-tie "
            f"(eigenvalue {q} = {lam[q - 1]:.6g}, eigenvalue {q + 1} = {lam[q]:.6g}); "
            "axes inside the tie are not individually stable",
            file=sys.stderr,
        )
    stem = args.out or os.path.splitext(inputs[0])[0]
    write_scree(f"{stem}_scree.tsv", scree)
    write_coordinates(f"{stem}_rows.tsv", row_labels, result.row_coords[:, :q])
    write_coordinates(f"{stem}_cols.tsv", col_labels, result.col_coords[:, :q])
    manifest = {
        "tool": f"triptych {__version__}",
        "method": result.method,
        "inputs": "; ".join(inputs),
        "rows": len(row_labels),
        "columns": len(col_labels),
        "axes": q,
        "total_inertia": format(result.decomposition.inertia, ".17g"),
        "zero_eigenvalue_rtol": ZERO_EIGENVALUE_RTOL,
        "tie_rtol": TIE_RTOL,
        "near_tie_warning_rtol": NEAR_TIE_RTOL,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    write_manifest(f"{stem}_manifest.txt", manifest)
    cum = scree.rows[q - 1].cumulative_pct
    print(f"kept {q} axes, cumulative inertia {cum:.2f}%")
    print(
        f"wrote {stem}_scree.tsv, {stem}_rows.tsv, {stem}_cols.tsv, {stem}_manifest.txt"
    )
    return 0


def _cmd_pca(args) -> int:
    ds = read_table(args.table, args.delimiter)
    w = read_weights(args.weights) if args.weights else None
    result = pca(ds.matrix, standardize=args.standardize, weights=w,
                 col_labels=ds.col_labels)
    return _emit(args, result, [args.table], ds.row_labels, ds.col_labels)


def _cmd_ca(args) -> int:
    ds = read_table(args.table, args.delimiter)
    counts, rows, cols = ds.matrix, ds.row_labels, ds.col_labels
    # A row like [-1, 1] is not empty: it is kept, and rejected as negative.
    keep_r = np.any(counts != 0, axis=1)
    keep_c = np.any(counts != 0, axis=0)
    dropped = [*compress(rows, ~keep_r), *compress(cols, ~keep_c)]
    if dropped:
        print(f"WARNING: {args.table}: dropping all-zero rows/columns: {dropped}",
              file=sys.stderr)
        counts = counts[keep_r][:, keep_c]
        rows, cols = list(compress(rows, keep_r)), list(compress(cols, keep_c))
    tbl = ContingencyTable(counts, rows, cols)
    result = ca(tbl)
    extra = {
        "chi_square": format(result.extras["chi_square"], ".17g"),
        "dof": result.extras["dof"],
    }
    return _emit(args, result, [args.table], tbl.row_labels, tbl.col_labels, extra)


def _cmd_lda(args) -> int:
    ds = read_table(args.table, args.delimiter)
    gds = read_table(args.groups, args.delimiter)
    coding = GroupCoding(_align_rows(gds, ds.row_labels, args.groups),
                         group_labels=gds.col_labels)
    w = read_weights(args.weights) if args.weights else None
    result = lda(ds.matrix, coding, weights=w)
    return _emit(args, result, [args.table, args.groups],
                 ds.row_labels, ds.col_labels)


def _cmd_pcaiv(args) -> int:
    xds = read_table(args.table, args.delimiter)
    yds = read_table(args.response, args.delimiter)
    Y = _align_rows(yds, xds.row_labels, args.response)
    w = read_weights(args.weights) if args.weights else None
    result = pcaiv(xds.matrix, Y, weights=w, q=args.axes)
    return _emit(args, result, [args.table, args.response],
                 xds.row_labels, xds.col_labels)


def _cmd_cca(args) -> int:
    ds1 = read_table(args.table, args.delimiter)
    ds2 = read_table(args.second, args.delimiter)
    X2 = _align_rows(ds2, ds1.row_labels, args.second)
    w = read_weights(args.weights) if args.weights else None
    result = cca(ds1.matrix, X2, weights=w)
    merged_cols = list(ds1.col_labels) + list(ds2.col_labels)
    extra = {
        "canonical_correlations": " ".join(
            format(r, ".17g") for r in result.extras["canonical_correlations"]
        )
    }
    return _emit(args, result, [args.table, args.second],
                 ds1.row_labels, merged_cols, extra)


def _cmd_geary(args) -> int:
    g = read_edges(args.edges, args.delimiter)
    ds = read_table(args.table, args.delimiter)
    X = _align_rows(ds, g.node_labels, args.table)
    loc = local_variance(g, X)
    Xs, e = _unit_scaled(X, axis=0)
    var = _scaled_back(np.var(Xs, axis=0), 2 * e)
    classical = classical_geary(g, X)
    general = [geary(g, X[:, j]) for j in range(X.shape[1])]
    # Out of range: inf, or below the normal range though positive, as the variance always
    # is (classical_geary rejects constant columns) and the local variance where the ratio is.
    tiny = np.finfo(float).tiny
    lost = {"local variance": (loc == np.inf) | (loc < tiny) & (classical > 0),
            "variance": (var == np.inf) | (var < tiny)}
    print("column\tlocal_variance\tvariance\tclassical_ratio\tgeary_c")
    for j, lab in enumerate(ds.col_labels):
        print(f"{lab}\t{loc[j]:.6g}\t{var[j]:.6g}\t{classical[j]:.6g}\t{general[j]:.6g}")
        names = [s for s, out in lost.items() if out[j]]
        if names:
            print(f"WARNING: {args.table}: column '{lab}': {' and '.join(names)} "
                  f"do{'es' * (len(names) == 1)} not fit in a float", file=sys.stderr)
    return 0


def _spectrum_lines(mu) -> str:
    lines = ["axis\tmu"]
    for i, value in enumerate(mu, start=1):
        lines.append(f"{i}\t{value:.5f}")
    return "\n".join(lines)


def _cmd_layout(args) -> int:
    g = read_edges(args.edges, args.delimiter)
    parts = component_subgraphs(g)
    if len(parts) > 1:
        print(f"WARNING: {args.edges}: graph has {len(parts)} components; "
              "each is solved on its own", file=sys.stderr)
    mu = np.sort(np.concatenate([spectrum(sub, vectors=False).eigenvalues
                                 for _, sub in parts]))
    if args.axes is None:
        print(_spectrum_lines(mu))
        return 0
    coords = np.zeros((g.n_nodes, 2))
    for idx, sub in parts:
        where = f"component of node '{sub.node_labels[0]}'"
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                coords[idx] = layout(sub)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        for w in caught:
            print(f"WARNING: {where}: {w.message}", file=sys.stderr)
    stem = args.out or os.path.splitext(args.edges)[0]
    write_coordinates(f"{stem}_rows.tsv", g.node_labels, coords)
    write_coordinates(f"{stem}_scree.tsv", [str(i + 1) for i in range(mu.size)],
                      mu[:, None], axis_names=["mu"])
    write_manifest(f"{stem}_manifest.txt", {
        "tool": f"triptych {__version__}",
        "method": "layout",
        "inputs": args.edges,
        "nodes": g.n_nodes,
        "edges": g.n_edges,
        "axes": 2,
        "components": len(parts),
    })
    print(f"wrote {stem}_rows.tsv, {stem}_scree.tsv, {stem}_manifest.txt")
    return 0


def _cmd_graph_regress(args) -> int:
    g = read_edges(args.edges, args.delimiter)
    ds = read_table(args.table, args.delimiter)
    X = _align_rows(ds, g.node_labels, args.table)
    result = regress_on_covariates(g, X, k=args.k, q=args.axes)
    share = result.extras["explained_share"]
    extra = {
        "k": args.k,
        "explained_share": " ".join(format(s, ".17g") for s in share),
    }
    code = _emit(args, result, [args.edges, args.table],
                 g.node_labels, ds.col_labels, extra)
    if args.axes is None:
        print("explained share per graph eigenvector: "
              + " ".join(f"{s:.4f}" for s in share))
    return code


_HANDLERS = {
    "pca": _cmd_pca,
    "ca": _cmd_ca,
    "lda": _cmd_lda,
    "pcaiv": _cmd_pcaiv,
    "cca": _cmd_cca,
    "geary": _cmd_geary,
    "layout": _cmd_layout,
    "graph-regress": _cmd_graph_regress,
}


def run_command(argv) -> int:
    """Parse and execute; returns the exit code instead of exiting."""
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    usage = [f"--{flag} must be at least 1" for flag in ("axes", "k")
             if (value := getattr(args, flag, None)) is not None and value < 1]
    if args.command == "layout" and args.axes not in (None, 2):
        usage.append("layout is planar; --axes must be 2")
    if args.delimiter is not None and len(args.delimiter) != 1:
        usage.append(f"--delimiter must be a single character, got {args.delimiter!r}")
    if usage:
        print(f"error: {usage[0]}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
