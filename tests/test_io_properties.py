"""Property test: ``read_table`` gives what the ``csv`` walk gives.

``read_table`` parses the body with numpy's reader and falls back to the
``csv`` walk for a file numpy refuses.  The walk is the reference: for
every generated table both give the same matrix bits and labels, or the
same error.  hypothesis is in the ``test`` extra; without it this module
is skipped and the rest of the suite still runs.
"""

import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triptych import read_table  # noqa: E402
from triptych.io import _read_table_csv  # noqa: E402

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
