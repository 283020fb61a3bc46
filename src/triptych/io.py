"""Reading labeled tables and edge lists; writing result files.

Tables are CSV or TSV with a header row of column labels and a first
column of row labels; the delimiter is sniffed from the first line
unless forced.  Output files are tab-separated with full-precision
decimal floats (17 significant digits, so a write/read round trip is
exact) and are written atomically: to a temporary file first, then
renamed into place.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import Graph, make_graph
from .methods import _check_labels

__all__ = [
    "Dataset",
    "read_table",
    "read_edges",
    "read_weights",
    "write_scree",
    "write_coordinates",
    "write_manifest",
]

# Header pairs recognized at the top of an edge list.
_EDGE_HEADERS = {("source", "target"), ("from", "to"), ("node1", "node2")}


@dataclass(frozen=True)
class Dataset:
    """A labeled numeric table."""

    matrix: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def _sniff_delimiter(fh, path: str, forced: str | None) -> str:
    """``forced``, or the delimiter found in the first line of ``fh``, which is rewound."""
    first = fh.readline()
    fh.seek(0)
    if not first.strip():
        raise ValueError(f"{path}: empty file")
    if forced is not None:
        if len(forced) != 1:
            raise ValueError(f"delimiter must be a single character, got {forced!r}")
        return forced
    if "\t" in first:
        return "\t"
    if "," in first:
        return ","
    raise ValueError("could not detect delimiter (no tab or comma in first line)")


def _nonblank_rows(fh, path: str, sep: str):
    """The csv rows of ``fh`` that have a non-blank cell; a row the csv module
    refuses (a field over its size limit) raises ValueError."""
    try:
        for row in csv.reader(fh, delimiter=sep):
            if any(c.strip() for c in row):
                yield row
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_rows(path: str, delimiter: str | None) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(_nonblank_rows(fh, path, _sniff_delimiter(fh, path, delimiter)))
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows


def read_table(path: str, delimiter: str | None = None) -> Dataset:
    """Parse a labeled table of finite numbers, and nothing else.

    The first row holds column labels (its first cell, the corner, is
    ignored); the first column holds row labels.  A ragged row, a
    non-numeric cell and a non-finite cell are reported with their row
    and column label.  Negative counts and empty margins are rejected by
    :class:`~triptych.methods.ContingencyTable`, codings that are not
    0/1 by :class:`~triptych.methods.GroupCoding`.  Edge lists have
    their own reader, :func:`read_edges`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        sep = _sniff_delimiter(fh, path, delimiter)
        rows = _nonblank_rows(fh, path, sep)
        header = next(rows, [])
        first = next((line for line in fh if line.strip("\r\n")), None)
        row_labels: list[str] = []
        data = None
        if len(header) >= 2 and first is not None:
            # numpy's reader parses a cell as float() does or refuses it
            # (underscores, non-ASCII digits), and refuses blank-celled
            # lines and ragged rows.  Such a file, or one with a
            # non-finite cell, goes through the csv walk, which reads it
            # or names what is wrong.
            try:
                data = np.loadtxt(
                    chain([first], fh), delimiter=sep, quotechar='"', comments=None,
                    ndmin=2, dtype=float,
                    converters={0: lambda cell: row_labels.append(cell.strip()) or 0.0},
                )
            except ValueError:
                pass
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        return _read_table_csv(path, delimiter)
    col_labels = _check_labels([c.strip() for c in header[1:]], len(header) - 1,
                               "column", "c", path)
    row_tuple = _check_labels(row_labels, len(row_labels), "row", "r", path)
    return Dataset(matrix=data[:, 1:].copy(), row_labels=row_tuple, col_labels=col_labels)


def _read_table_csv(path: str, delimiter: str | None) -> Dataset:
    """:func:`read_table` by a walk over the ``csv`` rows, which names what is wrong."""
    rows = _read_rows(path, delimiter)
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one data column after the label column")
    col_labels = _check_labels([c.strip() for c in header[1:]], len(header) - 1,
                               "column", "c", path)
    body = rows[1:]
    if not body:
        raise ValueError(f"{path}: no data rows")
    row_labels = [row[0].strip() for row in body]
    for label, row in zip(row_labels, body):
        if len(row) - 1 != len(col_labels):
            raise ValueError(
                f"{path}: row '{label}' has {len(row) - 1} cells, expected {len(col_labels)}"
            )
    try:
        data = np.array([row[1:] for row in body], dtype=float)
    except ValueError:
        # Parse cell by cell only to name the one that failed.
        for label, row in zip(row_labels, body):
            for col, cell in zip(col_labels, row[1:]):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: cell at row '{label}', column '{col}' "
                        f"is not numeric: {cell.strip()!r}"
                    ) from None
        raise
    for i, j in np.argwhere(~np.isfinite(data)):
        raise ValueError(
            f"{path}: cell at row '{row_labels[i]}', column '{col_labels[j]}' "
            f"is not finite"
        )
    row_tuple = _check_labels(row_labels, len(row_labels), "row", "r", path)
    return Dataset(matrix=data, row_labels=row_tuple, col_labels=col_labels)


def read_edges(path: str, delimiter: str | None = None) -> Graph:
    """Parse a two-column edge list of node labels into a Graph.

    A first line like "source,target" (or from/to, node1/node2) is
    treated as a header.  Repeated edges, in either order, collapse to
    one; a self loop is an error.  Nodes are numbered in order of first
    appearance.
    """
    from scipy.sparse import csr_array

    rows = _read_rows(path, delimiter)
    if rows and tuple(c.strip().lower() for c in rows[0][:2]) in _EDGE_HEADERS:
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no edges")
    nodes: list[str] = []
    index: dict[str, int] = {}
    pairs: set[tuple[int, int]] = set()
    for lineno, row in enumerate(rows, start=1):
        cells = [c.strip() for c in row if c.strip()]
        if len(cells) != 2:
            raise ValueError(
                f"{path}: line {lineno}: expected two node labels, got {len(cells)}"
            )
        u, v = cells
        if u == v:
            raise ValueError(f"{path}: line {lineno}: self loop at node '{u}'")
        for lab in (u, v):
            if lab not in index:
                index[lab] = len(nodes)
                nodes.append(lab)
        a, b = sorted((index[u], index[v]))
        pairs.add((a, b))
    a, b = np.array(list(pairs)).T
    n = len(nodes)
    M = csr_array((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    return make_graph(M, node_labels=nodes)


def read_weights(path: str) -> np.ndarray:
    """Read a one-number-per-line weight vector."""
    values: list[float] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno} is not a number: {text!r}"
                ) from None
    if not values:
        raise ValueError(f"{path}: no weights found")
    return np.array(values)


def _atomic_write(path: str, lines) -> None:
    """Write each of ``lines`` and a newline to a temporary file, then rename it to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_scree(path: str, scree) -> None:
    """Full-precision TSV of a ScreeTable."""
    rows = ("%s\t%.17g\t%.17g\t%.17g" % (r.index, r.eigenvalue, r.inertia_pct, r.cumulative_pct)
            for r in scree)
    _atomic_write(path, chain(["axis\teigenvalue\tinertia_pct\tcumulative_pct"], rows))


def write_coordinates(path: str, labels, coords, axis_names=None) -> None:
    """Labeled coordinate matrix as full-precision TSV."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] != len(labels):
        raise ValueError(
            f"coordinates shape {coords.shape} does not match {len(labels)} labels"
        )
    if axis_names is None:
        axis_names = [f"axis_{j + 1}" for j in range(coords.shape[1])]
    # One %-format per row gives format(x, ".17g") for each value.
    row_format = "\t".join(["%.17g"] * coords.shape[1])
    rows = (str(lab) + "\t" + row_format % tuple(r.tolist()) for lab, r in zip(labels, coords))
    _atomic_write(path, chain(["label\t" + "\t".join(axis_names)], rows))


def write_manifest(path: str, entries: dict) -> None:
    """Plain key: value run manifest."""
    _atomic_write(path, (f"{key}: {value}" for key, value in entries.items()))
