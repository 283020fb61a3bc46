import warnings

import numpy as np
import numpy.testing as npt
import pytest

from triptych import (
    ScreeTable,
    read_edges,
    read_table,
    read_weights,
    rv_max,
    write_coordinates,
    write_manifest,
    write_scree,
)


def make_file(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestReadTable:
    def test_comma_sniffed(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "id,a,b\nr1,1,2\nr2,3.5,4\n")
        ds = read_table(path)
        npt.assert_array_equal(ds.matrix, [[1.0, 2.0], [3.5, 4.0]])
        assert ds.row_labels == ("r1", "r2")
        assert ds.col_labels == ("a", "b")

    def test_tab_sniffed(self, tmp_path):
        path = make_file(tmp_path, "t.tsv", "id\ta\tb\nr1\t1\t2\n")
        ds = read_table(path)
        npt.assert_array_equal(ds.matrix, [[1.0, 2.0]])

    def test_forced_delimiter(self, tmp_path):
        # commas inside a tab-separated file stay in the labels when forced
        path = make_file(tmp_path, "t.txt", "id\ta,x\tb\nr1\t1\t2\n")
        ds = read_table(path, delimiter="\t")
        assert ds.col_labels == ("a,x", "b")

    def test_library_delimiter_must_be_one_character(self, tmp_path):
        # the CLI rejects such a --delimiter as a usage error; library callers
        # get this check
        table = make_file(tmp_path, "t.csv", "id,a\nr1,1\n")
        edges = make_file(tmp_path, "e.csv", "a,b\nb,c\n")
        with pytest.raises(ValueError, match="delimiter must be a single character"):
            read_table(table, delimiter="ab")
        with pytest.raises(ValueError, match="delimiter must be a single character"):
            read_edges(edges, delimiter="")

    def test_blank_lines_skipped(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "id,a\n\nr1,1\n\n\nr2,2\n")
        ds = read_table(path)
        assert ds.row_labels == ("r1", "r2")

    def test_bad_cell_named(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "id,a,b\nr1,1,2\nr2,oops,4\n")
        with pytest.raises(ValueError, match="row 'r2', column 'a'"):
            read_table(path)
        rows = "".join(f"r{i},{i},{-i}\n" for i in range(50))
        path = make_file(tmp_path, "u.csv", "id,a,b\n" + rows + "r50,1,\n")
        with pytest.raises(ValueError) as err:
            read_table(path)
        assert str(err.value) == f"{path}: cell at row 'r50', column 'b' is not numeric: ''"

    def test_nonfinite_cell_named(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "id,a\nr1,inf\n")
        with pytest.raises(ValueError, match="not finite"):
            read_table(path)
        path = make_file(tmp_path, "u.csv", "id,a,b\nr1,1,2\nr2,3,1e400\nr3,nan,4\n")
        with pytest.raises(ValueError) as err:
            read_table(path)
        assert str(err.value) == f"{path}: cell at row 'r2', column 'b' is not finite"

    def test_ragged_row(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "id,a,b\nr1,1\n")
        with pytest.raises(ValueError, match="row 'r1' has 1 cells"):
            read_table(path)
        # Row lengths are checked before any cell is parsed.
        path = make_file(tmp_path, "u.csv", "id,a,b\nr1,oops,2\nr2,3,4,5\n")
        with pytest.raises(ValueError) as err:
            read_table(path)
        assert str(err.value) == f"{path}: row 'r2' has 3 cells, expected 2"

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = [
            [" 1.5 ", "1_0", "\u0661\u0662", "-1"],
            ["-0", "+3", "\uff11\uff12", "1e-400"],
            [".5", "5.", "4.9e-324", "1.7976931348623157e308"],
            ["-1E3", " -0.0", "0.1", "123456789012345678901234567890"],
        ]
        text = "id,a,b,c,d\n" + "".join(
            f"r{i}," + ",".join(row) + "\n" for i, row in enumerate(cells))
        path = make_file(tmp_path, "t.csv", text)
        matrix = read_table(path).matrix
        expected = np.array([[float(c) for c in row] for row in cells])
        assert matrix.tobytes() == expected.tobytes()

    def test_duplicate_labels(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "id,a,a\nr1,1,2\n")
        with pytest.raises(ValueError, match="duplicate column") as err:
            read_table(path)
        assert str(err.value) == f"{path}: duplicate column labels: ['a']"
        path2 = make_file(tmp_path, "u.csv", "id,a\nr1,1\nr1,2\n")
        with pytest.raises(ValueError, match="duplicate row") as err:
            read_table(path2)
        assert str(err.value) == f"{path2}: duplicate row labels: ['r1']"

    def test_empty_file(self, tmp_path):
        path = make_file(tmp_path, "t.csv", "")
        with pytest.raises(ValueError, match="empty"):
            read_table(path)


class TestReadEdges:
    def test_path_graph(self, tmp_path):
        path = make_file(tmp_path, "e.csv", "a,b\nb,c\n")
        g = read_edges(path)
        assert g.node_labels == ("a", "b", "c")
        npt.assert_array_equal(g.degrees, [1, 2, 1])

    def test_header_skipped(self, tmp_path):
        path = make_file(tmp_path, "e.csv", "source,target\na,b\n")
        g = read_edges(path)
        assert g.node_labels == ("a", "b")
        assert g.n_edges == 1

    def test_duplicate_and_reversed_edges_collapse(self, tmp_path):
        path = make_file(tmp_path, "e.csv", "a,b\nb,a\na,b\n")
        g = read_edges(path)
        assert g.n_edges == 1

    def test_self_loop_line_number(self, tmp_path):
        path = make_file(tmp_path, "e.csv", "a,b\nc,c\n")
        with pytest.raises(ValueError, match="line 2: self loop"):
            read_edges(path)

    def test_wrong_cell_count(self, tmp_path):
        path = make_file(tmp_path, "e.csv", "a,b,c\n")
        with pytest.raises(ValueError, match="expected two node labels"):
            read_edges(path)

    def test_tab_delimited(self, tmp_path):
        path = make_file(tmp_path, "e.tsv", "x\ty\ny\tz\n")
        assert read_edges(path).node_labels == ("x", "y", "z")


class TestReadWeights:
    def test_basic(self, tmp_path):
        path = make_file(tmp_path, "w.txt", "1.5\n\n2\n0.25\n")
        npt.assert_array_equal(read_weights(path), [1.5, 2.0, 0.25])

    def test_bad_line(self, tmp_path):
        path = make_file(tmp_path, "w.txt", "1\nxyz\n")
        with pytest.raises(ValueError, match="line 2"):
            read_weights(path)

    def test_empty(self, tmp_path):
        path = make_file(tmp_path, "w.txt", "\n\n")
        with pytest.raises(ValueError, match="no weights"):
            read_weights(path)


class TestWriters:
    def test_scree_round_trip_exact(self, tmp_path):
        lam = np.array([np.pi, np.e / 3, 0.0123456789012345678])
        scree = ScreeTable.from_eigenvalues(lam)
        path = str(tmp_path / "x_scree.tsv")
        write_scree(path, scree)
        lines = open(path).read().splitlines()
        assert lines[0] == "axis\teigenvalue\tinertia_pct\tcumulative_pct"
        got = np.array([line.split("\t")[1] for line in lines[1:]], dtype=float)
        npt.assert_array_equal(got, lam)

    def test_coordinates_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        coords = rng.standard_normal((4, 3))
        path = str(tmp_path / "x_rows.tsv")
        write_coordinates(path, ["a", "b", "c", "d"], coords)
        lines = open(path).read().splitlines()
        assert lines[0] == "label\taxis_1\taxis_2\taxis_3"
        back = np.array(
            [line.split("\t")[1:] for line in lines[1:]], dtype=float
        )
        npt.assert_array_equal(back, coords)

    def test_coordinates_custom_axis_names(self, tmp_path):
        path = str(tmp_path / "x_rows.tsv")
        write_coordinates(path, ["n1"], [[0.5, 1.5]], axis_names=["mu", "nu"])
        assert open(path).read().splitlines()[0] == "label\tmu\tnu"

    def test_coordinates_shape_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="does not match"):
            write_coordinates(str(tmp_path / "x.tsv"), ["a", "b"], [[1.0]])

    def test_manifest(self, tmp_path):
        path = str(tmp_path / "x_manifest.txt")
        write_manifest(path, {"tool": "triptych", "axes": 2})
        assert open(path).read() == "tool: triptych\naxes: 2\n"

    def test_atomic_replace(self, tmp_path):
        path = str(tmp_path / "x_scree.tsv")
        scree = ScreeTable.from_eigenvalues([2.0, 1.0])
        write_scree(path, scree)
        write_scree(path, ScreeTable.from_eigenvalues([5.0]))
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert not leftovers


    # Every float class a writer can meet: signed zero, subnormal, smallest
    # normal, an inexact decimal, an integer, 1e16 and the largest double.
    EDGE_VALUES = [1.7976931348623157e308, 1e16, 1.0, 0.1,
                   2.2250738585072014e-308, 5e-324, 0.0, -0.0]

    def test_values_written_as_format_17g(self, tmp_path):
        path = str(tmp_path / "x_rows.tsv")
        write_coordinates(path, ["only"], [self.EDGE_VALUES])
        expected = "\t".join(format(x, ".17g") for x in self.EDGE_VALUES)
        assert open(path).read().splitlines()[1] == "only\t" + expected
        write_coordinates(path, ["a", "b"], np.empty((2, 0)))
        assert open(path).read() == "label\t\na\t\nb\t\n"
        write_scree(path, ScreeTable.from_eigenvalues(self.EDGE_VALUES))
        lines = open(path).read().splitlines()
        rows = ScreeTable.from_eigenvalues(self.EDGE_VALUES)
        assert lines[1:] == [
            "\t".join([str(r.index)] + [format(x, ".17g") for x in
                                        (r.eigenvalue, r.inertia_pct, r.cumulative_pct)])
            for r in rows
        ]
        assert lines[-1].split("\t")[1] == "-0"

    def test_failed_row_keeps_old_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text")

        path = tmp_path / "x_rows.tsv"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError, match="no text"):
            write_coordinates(str(path), ["a", "b", Unprintable()], np.ones((3, 2)))
        assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x_rows.tsv"]


class TestScreeTable:
    def test_empty(self):
        t = ScreeTable.from_eigenvalues([])
        assert len(t) == 0
        assert t.format() == "axis\teigenvalue\tinertia_pct\tcumulative_pct"

    def test_rows_and_percentages(self):
        t = ScreeTable.from_eigenvalues([3.0, 1.0])
        rows = list(t)
        assert [r.index for r in rows] == [1, 2]
        npt.assert_allclose([r.inertia_pct for r in rows], [75.0, 25.0])
        npt.assert_allclose([r.cumulative_pct for r in rows], [75.0, 100.0])

    def test_format_precision(self):
        t = ScreeTable.from_eigenvalues([0.123456, 0.054321])
        body = t.format().splitlines()[1]
        assert body.split("\t")[1] == "0.12346"

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            ScreeTable.from_eigenvalues([1.0, 2.0])

    @pytest.mark.parametrize("lam, message", [
        ([1.0, np.nan], "eigenvalues contain non-finite entries"),
        ([np.inf, 1.0], "eigenvalues contain non-finite entries"),
        ([2.0, -1.0], "eigenvalues must be nonnegative"),
        ([1.0, 2.0], "eigenvalues must be nonincreasing"),
        ([[1.0]], "eigenvalues must be a vector"),
    ], ids=["nan", "inf", "negative", "increasing", "matrix"])
    def test_bad_spectrum_rejected_as_rv_max_rejects_it(self, lam, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (ScreeTable.from_eigenvalues, lambda lam: rv_max(lam, 1)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    check(lam)

    def test_shares_at_extreme_scale(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = list(ScreeTable.from_eigenvalues([1e308, 1e308]))
        assert [r.eigenvalue for r in rows] == [1e308, 1e308]
        assert [r.inertia_pct for r in rows] == [50.0, 50.0]
        assert [r.cumulative_pct for r in rows] == [50.0, 100.0]

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ScreeTable.from_eigenvalues([0.0, 0.0])
