"""Property tests: the readers give what a plain walk over the rows gives.

``read_table`` parses the body with numpy's reader and falls back to the
``csv`` walk for a file numpy refuses.  The walk is the reference: for
every generated table both give the same matrix bits and labels, or the
same error.  ``read_edges`` numbers and dedupes with numpy; a per-row
loop with scipy's CSR is its reference.  hypothesis is in the ``test`` extra; without it this module
is skipped and the rest of the suite still runs.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sps

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import read_edges, read_table  # noqa: E402
from triptych.io import _EDGE_HEADERS, _read_rows, _read_table_csv  # noqa: E402

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.floats(-1e3, 1e3).map(lambda x: f" {x!r}  "),
)
ODD_CELLS = st.sampled_from(["1_0", "+3", "nan", "1e400", "-inf", "-0", "", " ", "x", "\u0661"])
ODD_LINES = st.sampled_from(["", "", "   ", ",", ",,", "\t", " , "])


def _label(sep, tag):
    """A cell ending in ``tag``: plain, padded or starting with '#', or quoted
    around the delimiter, a quote or a line break."""
    plain = st.text("ab#x -1", max_size=4).map(lambda s: s + tag)
    quoted = st.text(f'ab#x 1"\n{sep}', max_size=4).map(
        lambda s: '"' + (s + tag).replace('"', '""') + '"')
    return st.one_of(plain, plain, quoted)


@st.composite
def tables(draw):
    """Table text with at most one odd cell, one ragged row and two odd lines,
    each present in about a third of the tables."""
    sometimes = st.sampled_from([True, False, False])
    sep = draw(st.sampled_from([",", "\t"]))
    p = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    rows = [[draw(_label(sep, f"c{j}")) for j in range(p + 1)]]
    rows += [[draw(_label(sep, f"r{i}"))] + draw(st.lists(NUMBERS, min_size=p, max_size=p))
             for i in range(n)]
    if n and draw(sometimes):
        rows[draw(st.integers(1, n))][draw(st.integers(1, p))] = draw(ODD_CELLS)
    if n and draw(sometimes):
        i = draw(st.integers(1, n))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["7"]
    lines = [sep.join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(ODD_LINES).replace(",", sep))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(read, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = read(path, None)
    except ValueError as err:
        return "error", str(err)
    return ds.matrix.shape, ds.matrix.tobytes(), ds.row_labels, ds.col_labels


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
@example("id,a\r\n\r\n")
@example('id,a\n\n"r\n\n1",2\n')
def test_read_table_matches_csv_walk(tmp_path, text):
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(read_table, str(path)) == _outcome(_read_table_csv, str(path))


def _read_edges_loop(path):
    """``read_edges`` as a loop over the rows: labels in order of first
    appearance, the canonical CSR built by scipy, or the first error."""
    rows = _read_rows(path, None)
    if rows and tuple(c.strip().lower() for c in rows[0][:2]) in _EDGE_HEADERS:
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no edges")
    index: dict[str, int] = {}
    pairs = set()
    for lineno, row in enumerate(rows, start=1):
        cells = [c.strip() for c in row if c.strip()]
        if len(cells) != 2:
            raise ValueError(f"{path}: line {lineno}: expected two node labels, got {len(cells)}")
        u, v = cells
        if u == v:
            raise ValueError(f"{path}: line {lineno}: self loop at node '{u}'")
        for lab in (u, v):
            index.setdefault(lab, len(index))
        pairs.add(tuple(sorted((index[u], index[v]))))
    a, b = np.array(sorted(pairs)).T
    n = len(index)
    A = sps.csr_array((np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    A.sum_duplicates()
    return tuple(index), A


@st.composite
def edge_lists(draw):
    """Edge-list text over a few labels: maybe a header, repeated and reversed
    pairs, padded cells, blank lines, and now and then a row with the wrong
    cell count or a self loop."""
    sep = draw(st.sampled_from([",", "\t"]))
    label = st.sampled_from(["a", "b", "c", " d", "e ", "ff", "n1", "N1", "10"])
    pair = st.tuples(label, label).filter(lambda p: p[0].strip() != p[1].strip())
    rows = [list(p) for p in draw(st.lists(pair, min_size=1, max_size=12))]
    rows += [list(p)[::-1] for p in draw(st.lists(st.sampled_from(rows), max_size=3))]
    rows = draw(st.permutations(rows))
    odd = st.sampled_from([["a"], ["a", "b", "c"], ["a", "", "b"], ["", "a"], ["x", "x"],
                           [" c", "c "], ["a", " "]])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    lines = [sep.join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["source,target", "From, To", "NODE1,node2",
                                              "source", "u,v"])).replace(",", sep))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", sep])))
    return "\n".join(lines) + "\n"


def _edges_outcome(read, path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = read(path)
    except ValueError as err:
        return "error", str(err)
    labels, A = (out.node_labels, out.csr) if hasattr(out, "csr") else out
    return labels, [(x.dtype, x.tobytes()) for x in (A.indptr, A.indices, A.data)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_lists())
def test_read_edges_matches_row_loop(tmp_path, text):
    path = tmp_path / "e.csv"
    path.write_text(text, encoding="utf-8")
    assert _edges_outcome(read_edges, str(path)) == _edges_outcome(_read_edges_loop, str(path))
