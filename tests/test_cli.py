import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from triptych import (
    ca,
    cca,
    component_subgraphs,
    ContingencyTable,
    layout,
    lda,
    pca,
    read_edges,
    spectrum,
)
from triptych.cli import run_command

from graph_helpers import ring_edges, ring_with_chords, write_edges


@pytest.fixture
def measurements(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "id,a,b,c\n"
        "s1,2.0,1.0,0.5\n"
        "s2,-2.0,0.0,1.5\n"
        "s3,0.0,-1.0,-0.5\n"
        "s4,1.0,2.0,-1.0\n"
        "s5,-1.0,-2.0,-0.5\n"
    )
    return path


@pytest.fixture
def tied_square(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(
        "id,x,y\ns1,1,1\ns2,1,-1\ns3,-1,1\ns4,-1,-1\n"
    )
    return path


@pytest.fixture
def path_edges(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("n1,n2\nn2,n3\n")
    return path


def read_tsv_matrix(path):
    lines = path.read_text().splitlines()
    labels = [line.split("\t")[0] for line in lines[1:]]
    values = np.array([line.split("\t")[1:] for line in lines[1:]], dtype=float)
    return labels, values


class TestBasics:
    def test_version_exits_zero(self, capsys):
        assert run_command(["--version"]) == 0
        assert "triptych" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_arguments(self, capsys):
        assert run_command(["pca"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert run_command(["pca", str(tmp_path / "nope.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_cell(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,a,b\nr1,1,huh\nr2,2,3\n")
        assert run_command(["pca", str(bad)]) == 1
        assert "huh" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "id,{big}\nr1,1\nr2,2\n",  # read by the csv module
        "id,a\n{big},1\nr2,nan\n",  # numpy refuses nan, so the csv walk reads it
    ], ids=["header", "csv-fallback"])
    def test_oversized_table_field_named(self, tmp_path, capsys, text):
        path = tmp_path / "wide.csv"
        path.write_text(text.format(big="x" * 200_000))
        assert run_command(["pca", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: field larger than field limit")

    def test_oversized_edge_label_named(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text(f"a,{'b' * 200_000}\nb,c\n")
        assert run_command(["layout", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: field larger than field limit")

    @pytest.mark.parametrize("delimiter", ["", "ab"], ids=["empty", "two-characters"])
    def test_delimiter_checked_before_reading(self, tmp_path, capsys, delimiter):
        ring = write_edges(tmp_path / "ring.csv", ring_edges(6))
        for path in (ring, tmp_path / "missing.csv"):
            assert run_command(["layout", str(path), "--delimiter", delimiter]) == 2
            assert capsys.readouterr().err == (
                f"error: --delimiter must be a single character, got {delimiter!r}\n")

    @pytest.mark.parametrize("command, text, message", [
        (["pca"], ",,\n,,\n", "empty file"),
        (["pca", "--delimiter", ","], "id\nr1\nr2\n",
         "need at least one data column after the label column"),
        (["layout"], "source,target\n", "no edges"),
    ], ids=["blank-cells", "one-column", "header-only-edges"])
    def test_input_without_data_named(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert run_command([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_entry_point_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "triptych.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "triptych" in proc.stdout


def test_table_commands_load_no_scipy(tmp_path):
    """The table commands and --version run on numpy alone."""
    rng = np.random.default_rng(98)

    def table(name, M):
        path = tmp_path / name
        path.write_text(
            "id," + ",".join(f"c{j}" for j in range(M.shape[1])) + "\n"
            + "".join(f"r{i}," + ",".join(repr(float(v)) for v in row) + "\n"
                      for i, row in enumerate(M))
        )
        return str(path)

    X = table("x.csv", rng.standard_normal((30, 4)))
    Y = table("y.csv", rng.standard_normal((30, 3)))
    N = table("n.csv", rng.integers(1, 20, (6, 5)).astype(float))
    G = table("g.csv", np.repeat(np.eye(3), 10, axis=0))
    commands = [
        ["--version"],
        ["pca", X, "--axes", "2", "--standardize"],
        ["ca", N, "--axes", "2"],
        ["lda", X, G, "--axes", "1"],
        ["pcaiv", X, Y, "--axes", "2"],
        ["cca", X, Y, "--axes", "2"],
    ]
    script = (
        "import json, sys\n"
        "import triptych\n"
        "from triptych.cli import run_command\n"
        "codes = [run_command(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.partition('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert loaded == []


def test_graph_commands_load_no_scipy(tmp_path):
    """geary, scree-only layout and the graph calls they make run on numpy alone."""
    ring = write_edges(tmp_path / "ring.csv", ring_with_chords(np.random.default_rng(99), 40))
    two = tmp_path / "two.csv"
    two.write_text("a,b\nb,c\na,c\nx,y\ny,z\nx,z\n")
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,x,y\n" + "".join(f"v{i},{i % 7},{(i * i) % 11}\n" for i in range(40)))
    commands = [
        ["geary", str(ring), str(nodes)],
        ["layout", str(ring)],
        ["layout", str(two)],
    ]
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from triptych import (classical_geary, component_subgraphs, geary, laplacian,\n"
        "                      local_covariance, local_variance, make_graph, read_edges)\n"
        "from triptych.cli import run_command\n"
        "argv, ring, two = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]\n"
        "codes = [run_command(a) for a in argv]\n"
        "g = read_edges(ring)\n"
        "X = np.arange(2.0 * g.n_nodes).reshape(-1, 2) % 5\n"
        "local_variance(g, X), classical_geary(g, X), local_covariance(g, X)\n"
        "geary(g, X[:, 0]), laplacian(g)\n"
        "assert len(component_subgraphs(make_graph(np.asarray(g.adjacency)))) == 1\n"
        "assert len(component_subgraphs(read_edges(two))) == 2\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.partition('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands), str(ring), str(two)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert loaded == []


class TestScreeFirst:
    def test_scree_only_without_axes(self, measurements, tmp_path, capsys):
        assert run_command(["pca", str(measurements)]) == 0
        out = capsys.readouterr().out
        assert "axis\teigenvalue\tinertia_pct\tcumulative_pct" in out
        assert "total inertia:" in out
        assert not (tmp_path / "data_rows.tsv").exists()
        assert not (tmp_path / "data_scree.tsv").exists()

    def test_axes_writes_files(self, measurements, tmp_path, capsys):
        assert run_command(["pca", str(measurements), "--axes", "2"]) == 0
        out = capsys.readouterr().out
        assert "kept 2 axes" in out
        for suffix in ("_scree.tsv", "_rows.tsv", "_cols.tsv", "_manifest.txt"):
            assert (tmp_path / f"data{suffix}").exists()
        labels, coords = read_tsv_matrix(tmp_path / "data_rows.tsv")
        assert labels == ["s1", "s2", "s3", "s4", "s5"]
        ds = np.array([
            [2.0, 1.0, 0.5], [-2.0, 0.0, 1.5], [0.0, -1.0, -0.5],
            [1.0, 2.0, -1.0], [-1.0, -2.0, -0.5],
        ])
        expected = pca(ds).row_coords[:, :2]
        npt.assert_allclose(coords, expected, atol=1e-12)
        manifest = (tmp_path / "data_manifest.txt").read_text()
        assert "method: pca" in manifest
        assert "axes: 2" in manifest
        assert "zero_eigenvalue_rtol: 1e-12" in manifest

    def test_near_tie_warning(self, tied_square, capsys):
        assert run_command(["pca", str(tied_square), "--axes", "1"]) == 0
        err = capsys.readouterr().err
        assert "WARNING" in err
        assert "near-tie" in err

    def test_no_warning_with_clear_gap(self, measurements, capsys):
        assert run_command(["pca", str(measurements), "--axes", "1"]) == 0
        assert "WARNING" not in capsys.readouterr().err

    def test_axes_zero_is_usage_error(self, measurements, capsys):
        assert run_command(["pca", str(measurements), "--axes", "0"]) == 2

    def test_axes_beyond_rank(self, measurements, capsys):
        assert run_command(["pca", str(measurements), "--axes", "9"]) == 1
        assert "available" in capsys.readouterr().err

    def test_out_stem(self, measurements, tmp_path, capsys):
        stem = str(tmp_path / "custom")
        assert run_command(
            ["pca", str(measurements), "--axes", "1", "--out", stem]
        ) == 0
        assert (tmp_path / "custom_rows.tsv").exists()

    def test_deterministic_reruns(self, measurements, tmp_path, capsys):
        run_command(["pca", str(measurements), "--axes", "2"])
        first = (tmp_path / "data_rows.tsv").read_text()
        run_command(["pca", str(measurements), "--axes", "2"])
        assert (tmp_path / "data_rows.tsv").read_text() == first

    def test_weights_file(self, measurements, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        weights = [2.0, 1.0, 1.0, 0.5, 0.5]
        wpath.write_text("".join(f"{w}\n" for w in weights))
        assert run_command(
            ["pca", str(measurements), "--weights", str(wpath), "--axes", "2"]
        ) == 0
        _, scree = read_tsv_matrix(tmp_path / "data_scree.tsv")
        ds = np.array([
            [2.0, 1.0, 0.5], [-2.0, 0.0, 1.5], [0.0, -1.0, -0.5],
            [1.0, 2.0, -1.0], [-1.0, -2.0, -0.5],
        ])
        expected = pca(ds, weights=weights).decomposition.eigenvalues
        npt.assert_allclose(scree[:, 0], expected, rtol=1e-15)

    @pytest.mark.parametrize("weights, named", [
        ([1.0, 1.0, 1.0], "length 5"),
        ([1.0, 1.0, 0.0, 1.0, 1.0], "pivot 2"),
        ([1.0, 1.0, 1.0, float("nan"), 1.0], "entry 3"),
    ])
    def test_bad_weights_file(self, measurements, tmp_path, capsys, weights, named):
        wpath = tmp_path / "w.txt"
        wpath.write_text("".join(f"{w}\n" for w in weights))
        assert run_command(["pca", str(measurements), "--weights", str(wpath)]) == 1
        err = capsys.readouterr().err
        assert "weights" in err and named in err

    def test_standardize_flag(self, measurements, capsys):
        assert run_command(["pca", str(measurements), "--standardize"]) == 0
        assert "total inertia: 3.0000" in capsys.readouterr().out

    def test_rank_zero_scree(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("id,a,b\ns1,1,2\ns2,1,2\ns3,1,2\n")
        assert run_command(["pca", str(path)]) == 0
        assert capsys.readouterr().out == (
            "no positive eigenvalues (rank 0)\ntotal inertia: 0.0000\n"
        )


class TestCa:
    def test_end_to_end(self, tmp_path, capsys):
        table = tmp_path / "counts.csv"
        table.write_text("id,u,v,w\nr1,10,2,4\nr2,3,8,2\nr3,5,1,9\n")
        assert run_command(["ca", str(table), "--axes", "2"]) == 0
        counts = np.array([[10, 2, 4], [3, 8, 2], [5, 1, 9]], float)
        ref = ca(ContingencyTable(counts))
        _, scree = read_tsv_matrix(tmp_path / "counts_scree.tsv")
        npt.assert_allclose(scree[:, 0], ref.decomposition.eigenvalues,
                            rtol=1e-15)
        manifest = (tmp_path / "counts_manifest.txt").read_text()
        assert "chi_square:" in manifest
        assert "dof: 4" in manifest
        labels, coords = read_tsv_matrix(tmp_path / "counts_cols.tsv")
        assert labels == ["u", "v", "w"]
        npt.assert_allclose(coords, ref.col_coords[:, :2], atol=1e-12)

    def test_negative_count_named(self, tmp_path, capsys):
        table = tmp_path / "counts.csv"
        table.write_text("id,a,b\nr1,1,-2\nr2,3,4\n")
        assert run_command(["ca", str(table)]) == 1
        err = capsys.readouterr().err
        assert "nonnegative" in err
        assert "row 'r1', column 'b'" in err
        # a row whose entries cancel is not empty: it is rejected, not dropped
        table.write_text("id,a,b\nr1,-1,1\nr2,3,4\n")
        assert run_command(["ca", str(table)]) == 1
        err = capsys.readouterr().err
        assert "row 'r1', column 'a'" in err
        assert "WARNING" not in err

    def test_zero_rows_and_columns_dropped(self, tmp_path, capsys):
        table = tmp_path / "counts.csv"
        table.write_text("id,a,b,c\nr1,1,0,2\nr2,0,0,0\nr3,3,0,4\n")
        assert run_command(["ca", str(table), "--axes", "1"]) == 0
        err = capsys.readouterr().err
        assert err == f"WARNING: {table}: dropping all-zero rows/columns: ['r2', 'b']\n"
        ref = ca(ContingencyTable([[1.0, 2.0], [3.0, 4.0]]))
        labels, coords = read_tsv_matrix(tmp_path / "counts_rows.tsv")
        assert labels == ["r1", "r3"]
        npt.assert_allclose(coords, ref.row_coords[:, :1], atol=1e-12)
        labels, coords = read_tsv_matrix(tmp_path / "counts_cols.tsv")
        assert labels == ["a", "c"]
        npt.assert_allclose(coords, ref.col_coords[:, :1], atol=1e-12)
        manifest = (tmp_path / "counts_manifest.txt").read_text()
        assert "rows: 2\ncolumns: 2\n" in manifest

    def test_all_zero_table(self, tmp_path, capsys):
        table = tmp_path / "counts.csv"
        table.write_text("id,a,b\nr1,0,0\nr2,0,0\n")
        assert run_command(["ca", str(table)]) == 1
        err = capsys.readouterr().err
        assert "dropping all-zero rows/columns: ['r1', 'r2', 'a', 'b']" in err
        assert "error: contingency table must have at least one row and column" in err


class TestLda:
    def _write(self, tmp_path, shuffle_groups=False):
        table = tmp_path / "obs.csv"
        table.write_text(
            "id,a,b\n"
            "o1,1.0,2.0\no2,1.5,1.0\no3,2.0,2.5\n"
            "o4,-1.0,-2.0\no5,-1.5,-1.5\no6,-2.0,-1.0\n"
        )
        rows = ["o1,1,0", "o2,1,0", "o3,1,0", "o4,0,1", "o5,0,1", "o6,0,1"]
        if shuffle_groups:
            rows = [rows[i] for i in (3, 0, 5, 2, 4, 1)]
        groups = tmp_path / "grp.csv"
        groups.write_text("id,g1,g2\n" + "\n".join(rows) + "\n")
        return table, groups

    def test_end_to_end(self, tmp_path, capsys):
        table, groups = self._write(tmp_path)
        assert run_command(["lda", str(table), str(groups), "--axes", "1"]) == 0
        X = np.array([[1.0, 2.0], [1.5, 1.0], [2.0, 2.5],
                      [-1.0, -2.0], [-1.5, -1.5], [-2.0, -1.0]])
        ref = lda(X, ["g1"] * 3 + ["g2"] * 3)
        _, scree = read_tsv_matrix(tmp_path / "obs_scree.tsv")
        npt.assert_allclose(scree[:, 0], ref.decomposition.eigenvalues,
                            rtol=1e-12)

    def test_group_rows_aligned_by_label(self, tmp_path, capsys):
        table, groups = self._write(tmp_path, shuffle_groups=True)
        assert run_command(["lda", str(table), str(groups), "--axes", "1"]) == 0
        t2, g2 = self._write(tmp_path, shuffle_groups=False)
        first = (tmp_path / "obs_rows.tsv").read_text()
        assert run_command(["lda", str(t2), str(g2), "--axes", "1"]) == 0
        assert (tmp_path / "obs_rows.tsv").read_text() == first

    def test_missing_group_row(self, tmp_path, capsys):
        table, groups = self._write(tmp_path)
        groups.write_text("id,g1,g2\no1,1,0\no2,1,0\n")
        assert run_command(["lda", str(table), str(groups)]) == 1
        assert "missing rows" in capsys.readouterr().err

    def test_groups_must_be_binary(self, tmp_path, capsys):
        table, groups = self._write(tmp_path)
        groups.write_text(groups.read_text().replace("o5,0,1", "o5,0,2"))
        assert run_command(["lda", str(table), str(groups)]) == 1
        err = capsys.readouterr().err
        assert "0 or 1" in err
        assert "group 'g2'" in err


class TestPcaiv:
    def _write(self, tmp_path, shuffle_response=False):
        rng = np.random.default_rng(90)
        X = rng.standard_normal((8, 3))
        Y = rng.standard_normal((8, 2))
        labels = [f"r{i}" for i in range(1, 9)]
        xpath = tmp_path / "expl.csv"
        xpath.write_text(
            "id,x1,x2,x3\n"
            + "\n".join(
                lab + "," + ",".join(repr(float(v)) for v in row)
                for lab, row in zip(labels, X)
            )
            + "\n"
        )
        order = np.arange(8)
        if shuffle_response:
            order = np.array([4, 2, 7, 0, 5, 1, 6, 3])
        ypath = tmp_path / "resp.csv"
        ypath.write_text(
            "id,y1,y2\n"
            + "\n".join(
                labels[i] + "," + ",".join(repr(float(v)) for v in Y[i])
                for i in order
            )
            + "\n"
        )
        return xpath, ypath

    def test_scree_then_files(self, tmp_path, capsys):
        xpath, ypath = self._write(tmp_path)
        assert run_command(["pcaiv", str(xpath), str(ypath)]) == 0
        out = capsys.readouterr().out
        assert "axis\teigenvalue" in out
        assert run_command(["pcaiv", str(xpath), str(ypath), "--axes", "1"]) == 0
        _, coords = read_tsv_matrix(tmp_path / "expl_rows.tsv")
        assert coords.shape == (8, 1)
        manifest = (tmp_path / "expl_manifest.txt").read_text()
        assert "method: pcaiv" in manifest

    def test_response_rows_aligned_by_label(self, tmp_path, capsys):
        xpath, ypath = self._write(tmp_path, shuffle_response=True)
        assert run_command(["pcaiv", str(xpath), str(ypath), "--axes", "1"]) == 0
        shuffled = (tmp_path / "expl_scree.tsv").read_text()
        xpath2, ypath2 = self._write(tmp_path, shuffle_response=False)
        assert run_command(["pcaiv", str(xpath2), str(ypath2), "--axes", "1"]) == 0
        assert (tmp_path / "expl_scree.tsv").read_text() == shuffled

    def test_axes_zero_usage_error(self, tmp_path, capsys):
        xpath, ypath = self._write(tmp_path)
        assert run_command(["pcaiv", str(xpath), str(ypath), "--axes", "0"]) == 2

    def test_unexpected_extra_response_row(self, tmp_path, capsys):
        xpath, ypath = self._write(tmp_path, shuffle_response=True)
        with open(ypath, "a") as fh:
            fh.write("r99,0.5,-0.5\n")
        assert run_command(["pcaiv", str(xpath), str(ypath)]) == 1
        err = capsys.readouterr().err
        assert "unexpected extra rows" in err and "r99" in err


class TestCca:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(91)
        A = rng.standard_normal((9, 2))
        B = rng.standard_normal((9, 2))
        apath, bpath = tmp_path / "one.csv", tmp_path / "two.csv"
        for path, M, names in ((apath, A, "p,q"), (bpath, B, "r,s")):
            path.write_text(
                f"id,{names}\n"
                + "\n".join(
                    f"r{i}," + ",".join(repr(float(v)) for v in row)
                    for i, row in enumerate(M)
                )
                + "\n"
            )
        assert run_command(["cca", str(apath), str(bpath), "--axes", "1"]) == 0
        labels, _ = read_tsv_matrix(tmp_path / "one_cols.tsv")
        assert labels == ["p", "q", "r", "s"]
        manifest = (tmp_path / "one_manifest.txt").read_text()
        assert "canonical_correlations:" in manifest

    def test_inertia_is_the_sum_of_squared_correlations(self, tmp_path, capsys):
        rng = np.random.default_rng(92)
        A = rng.standard_normal((12, 3))
        B = A[:, :2] + rng.standard_normal((12, 2))
        apath, bpath = tmp_path / "one.csv", tmp_path / "two.csv"
        for path, M in ((apath, A), (bpath, B)):
            path.write_text("id" + "".join(f",c{j}" for j in range(M.shape[1])) + "\n"
                            + "".join(f"r{i}," + ",".join(map(repr, row.tolist())) + "\n"
                                      for i, row in enumerate(M)))
        res = cca(A, B)
        rho = res.extras["canonical_correlations"]
        npt.assert_allclose(res.decomposition.inertia, np.sum(rho**2), rtol=1e-12)
        assert run_command(["cca", str(apath), str(bpath)]) == 0
        assert f"total inertia: {np.sum(rho**2):.4f}\n" in capsys.readouterr().out
        assert run_command(["cca", str(apath), str(bpath), "--axes", "1"]) == 0
        manifest = (tmp_path / "one_manifest.txt").read_text()
        assert f"total_inertia: {format(res.decomposition.inertia, '.17g')}\n" in manifest


class TestSingularBlocks:
    @pytest.mark.parametrize("command", ["lda", "pcaiv", "cca"])
    @pytest.mark.parametrize("rows", [6, 3])
    def test_rejected_with_hint(self, tmp_path, capsys, command, rows):
        # 6 rows: column 2 is exactly column 0 - 2 * column 1; 3 rows: p = n
        rng = np.random.default_rng(96)
        X = rng.standard_normal((rows, 3))
        X[:, 2] = X[:, 0] - 2.0 * X[:, 1]
        other = {
            "lda": np.eye(2)[np.arange(rows) % 2],
            "pcaiv": rng.standard_normal((rows, 1)),
            "cca": rng.standard_normal((rows, 1)),
        }[command]
        paths = []
        for name, M in (("x", X), ("o", other)):
            path = tmp_path / f"{name}.csv"
            path.write_text(
                "id," + ",".join(f"{name}{j}" for j in range(M.shape[1])) + "\n"
                + "".join(f"r{i}," + ",".join(repr(float(v)) for v in M[i]) + "\n"
                          for i in range(rows))
            )
            paths.append(str(path))
        assert run_command([command, *paths]) == 1
        err = capsys.readouterr().err
        assert "reduce dimensionality" in err
        assert ("column 2 is constant or collinear" in err) == (rows == 6)


def _geary_on_ci_ring(tmp_path, name, c):
    """Run ``python -W error -m triptych.cli geary`` on the CI workflow's 6-node
    ring with its two covariates times ``c``, written to ``name``; return the
    table path, the output rows split on tabs, and stderr."""
    ring = tmp_path / "ring.csv"
    ring.write_text("a,b\nb,c\nc,d\nd,e\ne,f\nf,a\na,d\n")
    rows = {"a": (1, 0), "b": (2, 1), "c": (4, 0), "d": (3, 2), "e": (5, 1), "f": (0, 3)}
    table = tmp_path / name
    table.write_text("id,x,y\n" + "".join(f"{k},{x * c!r},{y * c!r}\n"
                                            for k, (x, y) in rows.items()))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "triptych.cli", "geary", str(ring), str(table)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return table, [line.split("\t") for line in proc.stdout.splitlines()[1:]], proc.stderr


class TestGraphCommands:
    def test_geary_table(self, path_edges, tmp_path, capsys):
        table = tmp_path / "nodes.csv"
        table.write_text("id,val\nn1,1\nn2,2\nn3,3\n")
        assert run_command(["geary", str(path_edges), str(table)]) == 0
        out = capsys.readouterr().out
        assert "column\tlocal_variance\tvariance\tclassical_ratio\tgeary_c" in out
        line = out.splitlines()[1].split("\t")
        assert line[0] == "val"
        npt.assert_allclose(float(line[1]), 0.5)
        npt.assert_allclose(float(line[4]), 1 / 9, rtol=1e-4)

    def test_geary_ratios_at_any_scale(self, tmp_path, capsys):
        ring = write_edges(tmp_path / "ring.csv", ring_edges(6))
        x = [1.0, 2.0, 4.0, 3.0, 5.0, 0.0]
        lines = []
        for c in (1.0, 1e-200):
            table = tmp_path / "nodes.csv"
            table.write_text("id,x\n" + "".join(f"v{i},{v * c!r}\n" for i, v in enumerate(x)))
            assert run_command(["geary", str(ring), str(table)]) == 0
            lines.append(capsys.readouterr().out.splitlines()[1].split("\t"))
        # classical_ratio and geary_c
        assert lines[1][3:] == lines[0][3:]
        assert lines[0][3:] == ["1.02857", "0.327273"]

    def test_geary_names_columns_past_the_float_range(self, tmp_path):
        """Covariates x 1e200: both raw-unit columns (~1e400) print inf with
        one WARNING line per column, the ratios print as at unit scale, and
        no Python warning is raised."""
        _, unit_rows, _ = _geary_on_ci_ring(tmp_path, "nodes.csv", 1.0)
        table, huge_rows, err = _geary_on_ci_ring(tmp_path, "huge.csv", 1e200)
        assert err.splitlines() == [
            f"WARNING: {table}: column '{col}': local variance and variance "
            "do not fit in a float" for col in "xy"
        ]
        for unit, huge in zip(unit_rows, huge_rows):
            assert huge[1:3] == ["inf", "inf"]
            assert huge[3:] == unit[3:]

    def test_geary_names_columns_below_the_float_range(self, tmp_path):
        """Covariates x 1e-200: both raw-unit columns (~1e-400) print 0 with
        one WARNING line per column, the ratios print as at unit scale, and
        no Python warning is raised; at unit scale stderr stays empty."""
        _, unit_rows, unit_err = _geary_on_ci_ring(tmp_path, "nodes.csv", 1.0)
        table, tiny_rows, err = _geary_on_ci_ring(tmp_path, "tiny.csv", 1e-200)
        assert unit_err == ""
        assert err.splitlines() == [
            f"WARNING: {table}: column '{col}': local variance and variance "
            "do not fit in a float" for col in "xy"
        ]
        for unit, tiny in zip(unit_rows, tiny_rows):
            assert tiny[1:3] == ["0", "0"]
            assert tiny[3:] == unit[3:]

    def test_geary_names_only_a_positive_value_below_the_float_range(self, tmp_path, capsys):
        # constant on each of two triangles: the local variance is exactly 0
        # and fits, the variance (~1e-400) does not
        edges = tmp_path / "two.csv"
        edges.write_text("a,b\nb,c\na,c\nx,y\ny,z\nx,z\n")
        table = tmp_path / "nodes.csv"
        table.write_text("id,v\n" + "".join(f"{k},{1e-200 * (k in 'xyz')!r}\n" for k in "abcxyz"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(["geary", str(edges), str(table)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1].split("\t")[1:4] == ["0", "0", "0"]
        assert err == f"WARNING: {table}: column 'v': variance does not fit in a float\n"

    def test_geary_names_the_one_column_past_the_float_range(self, tmp_path, capsys):
        # alternating +-a: the local variance 4a^2 overflows, the variance a^2 does not
        ring = write_edges(tmp_path / "ring.csv", ring_edges(6))
        table = tmp_path / "nodes.csv"
        table.write_text("id,x\n" + "".join(f"v{i},{(-1) ** i * 1e154!r}\n" for i in range(6)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_command(["geary", str(ring), str(table)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[1].split("\t")[1:3] == ["inf", "1e+308"]
        assert err == f"WARNING: {table}: column 'x': local variance does not fit in a float\n"

    def test_layout_spectrum_mode(self, path_edges, capsys):
        assert run_command(["layout", str(path_edges)]) == 0
        out = capsys.readouterr().out
        assert "axis\tmu" in out
        assert "1\t1.00000" in out
        assert "2\t2.00000" in out

    def test_layout_writes_files(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text("a,b\nb,c\nc,d\nd,e\na,c\n")
        assert run_command(["layout", str(edges), "--axes", "2"]) == 0
        labels, coords = read_tsv_matrix(tmp_path / "net_rows.tsv")
        g = read_edges(str(edges))
        assert labels == list(g.node_labels)
        npt.assert_allclose(coords, layout(g), atol=1e-12)
        scree_text = (tmp_path / "net_scree.tsv").read_text()
        assert scree_text.splitlines()[0] == "label\tmu"
        manifest = (tmp_path / "net_manifest.txt").read_text().splitlines()
        assert "method: layout" in manifest
        assert "components: 1" in manifest

    def test_layout_axes_must_be_two(self, path_edges, capsys):
        assert run_command(["layout", str(path_edges), "--axes", "3"]) == 2
        assert "must be 2" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_layout_disconnected(self, tmp_path, capsys):
        edges = tmp_path / "split.csv"
        edges.write_text("a,b\nb,c\na,c\nx,y\ny,z\nx,z\n")
        assert run_command(["layout", str(edges), "--axes", "2"]) == 0
        assert (f"WARNING: {edges}: graph has 2 components; each is solved on its own"
                in capsys.readouterr().err.splitlines())
        assert "components: 2" in (tmp_path / "split_manifest.txt").read_text().splitlines()
        labels, coords = read_tsv_matrix(tmp_path / "split_rows.tsv")
        g = read_edges(str(edges))
        assert labels == list(g.node_labels)
        assert coords.shape == (6, 2)
        assert np.all(np.isfinite(coords))
        for idx, sub in component_subgraphs(g):
            npt.assert_allclose(coords[idx], layout(sub), atol=1e-12)
        _, mu = read_tsv_matrix(tmp_path / "split_scree.tsv")
        # each triangle contributes mu = 1.5 twice
        npt.assert_allclose(mu[:, 0], [1.5, 1.5, 1.5, 1.5], atol=1e-12)

    def test_layout_per_component_small_component(self, tmp_path, capsys):
        edges = tmp_path / "tripair.csv"
        edges.write_text("a,b\nb,c\na,c\nd,e\n")
        assert run_command(["layout", str(edges)]) == 0
        # triangle: mu = 1.5 twice; the 2-node component: mu = 2
        assert capsys.readouterr().out.splitlines() == [
            "axis\tmu", "1\t1.50000", "2\t1.50000", "3\t2.00000"]
        assert run_command(["layout", str(edges), "--axes", "2"]) == 1
        assert ("error: component of node 'd': layout needs at least 3 nodes"
                in capsys.readouterr().err)

    def test_layout_per_component_memory(self, tmp_path, capsys):
        # 300 ten-node components: the pooled n x (n - c) eigenvector matrix
        # of the whole graph would take 62 MB.
        rng = np.random.default_rng(12)
        edges = np.vstack([ring_with_chords(rng, 10, offset=10 * c) for c in range(300)])
        path = write_edges(tmp_path / "many.csv", edges)
        tracemalloc.start()
        try:
            code = run_command(["layout", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 300 * 9
        assert peak < 16 * 2**20, f"peaked at {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("edges", [
        ring_edges(300),
        np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
    ], ids=["cycle-300", "two-triangles"])
    def test_layout_warnings_are_plain_lines(self, tmp_path, edges):
        path = write_edges(tmp_path / "g.csv", edges)
        proc = subprocess.run(
            [sys.executable, "-m", "triptych.cli", "layout", str(path), "--axes", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "WARNING: component of node 'v0': layout eigenvalues are degenerate" in proc.stderr
        assert "UserWarning" not in proc.stderr
        assert ".py:" not in proc.stderr

    def test_layout_per_component_flag_removed(self, path_edges, capsys):
        assert run_command(["layout", str(path_edges), "--per-component"]) == 2
        assert "--per-component" in capsys.readouterr().err

    def test_layout_axes_checked_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run_command(["layout", str(missing), "--axes", "3"]) == 2
        assert "must be 2" in capsys.readouterr().err

    def test_layout_solves_full_spectrum_once(self, tmp_path, monkeypatch, capsys):
        n = 40
        edges = write_edges(tmp_path / "ring.csv", ring_with_chords(np.random.default_rng(7), n))
        full_solves = []
        real_eigh, real_eigvalsh = scipy.linalg.eigh, np.linalg.eigvalsh

        def counting_eigh(a, *args, **kwargs):
            subset = kwargs.get("subset_by_index")
            if subset is None or list(subset) == [0, a.shape[0] - 1]:
                full_solves.append((a.shape[0], kwargs.get("eigvals_only", False)))
            return real_eigh(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            full_solves.append((a.shape[0], True))
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert run_command(["layout", str(edges), "--axes", "2"]) == 0
        # The scree's one full solve builds no eigenvectors.
        assert full_solves == [(n, True)]

    def test_arpack_no_convergence_falls_back_to_dense(self, tmp_path, monkeypatch,
                                                       capsys):
        n = 200
        edges = write_edges(tmp_path / "ring.csv", ring_with_chords(np.random.default_rng(8), n))
        g = read_edges(str(edges))
        deg = np.asarray(g.degrees)
        s = 1.0 / np.sqrt(deg)
        mu, Y = scipy.linalg.eigh(np.eye(n) - s[:, None] * np.asarray(g.adjacency) * s,
                                  subset_by_index=[0, 3])
        mu, X = mu[1:], s[:, None] * Y[:, 1:]
        requested = []

        def failing_eigsh(*args, **kwargs):
            requested.append(kwargs["k"])
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((n, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        sp = spectrum(g, k=3)
        npt.assert_allclose(sp.eigenvalues, mu, rtol=0, atol=1e-12)
        signs = np.sign(np.sum(sp.vectors * deg[:, None] * X, axis=0))
        npt.assert_allclose(sp.vectors, X * signs, rtol=0, atol=1e-10)
        coords = layout(g)
        npt.assert_allclose(coords, sp.vectors[:, :2] * np.sqrt(1.0 - mu[:2]),
                            rtol=0, atol=1e-12)
        assert run_command(["layout", str(edges), "--axes", "2"]) == 0
        labels, rows = read_tsv_matrix(tmp_path / "ring_rows.tsv")
        assert labels == list(g.node_labels)
        npt.assert_allclose(rows, coords, rtol=0, atol=1e-12)
        # spectrum, layout and the CLI's layout each tried ARPACK first
        assert requested == [4, 4, 4]

    def test_graph_regress_scree_mode(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text("a,b\nb,c\nc,d\nd,a\na,c\n")
        table = tmp_path / "cov.csv"
        table.write_text("id,f1,f2\na,1,0.5\nb,2,-0.5\nc,1.5,1\nd,0.5,2\n")
        assert run_command(
            ["graph-regress", str(edges), str(table), "--k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "explained share per graph eigenvector:" in out

    def test_graph_regress_writes_files(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text("a,b\nb,c\nc,d\nd,a\na,c\n")
        table = tmp_path / "cov.csv"
        table.write_text("id,f1,f2\na,1,0.5\nb,2,-0.5\nc,1.5,1\nd,0.5,2\n")
        assert run_command(
            ["graph-regress", str(edges), str(table), "--k", "2", "--axes", "1"]
        ) == 0
        manifest = (tmp_path / "net_manifest.txt").read_text()
        assert "method: graph_regress" in manifest
        assert "k: 2" in manifest
        assert "explained_share:" in manifest

    def test_graph_regress_disconnected(self, tmp_path, capsys):
        edges = tmp_path / "split.csv"
        edges.write_text("a,b\nb,c\na,c\nx,y\ny,z\nx,z\n")
        table = tmp_path / "cov.csv"
        table.write_text("id,f1\na,1\nb,2\nc,1.5\nx,0.5\ny,3\nz,2.5\n")
        assert run_command(["graph-regress", str(edges), str(table), "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert "disconnected" in err
        assert "per_component" not in err

    def test_graph_regress_k_checked_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run_command(["graph-regress", missing, missing, "--k", "0"]) == 2
        assert capsys.readouterr().err == "error: --k must be at least 1\n"

    def test_graph_regress_axes_zero_usage_error(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text("a,b\nb,c\nc,d\nd,a\na,c\n")
        table = tmp_path / "cov.csv"
        table.write_text("id,f1,f2\na,1,0.5\nb,2,-0.5\nc,1.5,1\nd,0.5,2\n")
        assert run_command(
            ["graph-regress", str(edges), str(table), "--k", "2", "--axes", "0"]
        ) == 2
        assert "--axes must be at least 1" in capsys.readouterr().err
