import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift.dataio import Dataset, read_csv, write_csv
from vineshift.errors import ParseError, SchemaError


class TestDataset:
    def test_basic_access(self):
        ds = Dataset(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert ds.n == 2 and ds.d == 2
        assert_allclose(ds.column("b"), [2.0, 4.0])

    def test_missing_column(self):
        ds = Dataset(["a"], [[1.0]])
        with pytest.raises(SchemaError):
            ds.column("zz")

    def test_target_resolution(self):
        ds = Dataset(["x0", "x1", "y"], np.zeros((3, 3)))
        assert ds.target_index() == 2
        assert ds.target_index("x1") == 1
        with pytest.raises(SchemaError):
            ds.target_index("nope")

    def test_drop(self):
        ds = Dataset(["a", "b", "c"], np.arange(6.0).reshape(2, 3))
        out = ds.drop("b")
        assert out.names == ["a", "c"]
        assert_allclose(out.X, [[0.0, 2.0], [3.0, 5.0]])

    def test_drop_absent_column_names_no_target(self):
        # it said "target column 'z' not found" for a column that is not a target
        with pytest.raises(SchemaError, match="^no column named 'z'$"):
            Dataset(["a", "b"], np.zeros((2, 2))).drop("z")

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(["a"], np.zeros(3))
        with pytest.raises(ValueError):
            Dataset(["a", "b"], np.zeros((2, 3)))
        with pytest.raises(ParseError):
            Dataset(["a", "a"], np.zeros((2, 2)))

    def test_names_rule(self):
        # "ab" was split into the names "a" and "b"
        with pytest.raises(ValueError, match="^names must be a list of strings, got 'ab'$"):
            Dataset("ab", np.zeros((2, 2)))
        # it said "duplicate column names"
        with pytest.raises(ParseError, match="^name 'a' is given twice$"):
            Dataset(["a", "b", "a"], np.zeros((2, 3)))
        assert Dataset([0, 1], np.zeros((2, 2))).names == ["0", "1"]


class TestReadCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        ds = Dataset(["p", "q"], rng.standard_normal((40, 2)))
        path = tmp_path / "d.csv"
        write_csv(path, ds)
        back = read_csv(path)
        assert back.names == ["p", "q"]
        # repr round-trip: float for float
        assert np.array_equal(back.X, ds.X)

    def test_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ParseError, match="header"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_csv(path)

    def test_ragged_row_diagnostic(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 3"):
            read_csv(path)

    def test_non_numeric_cell_diagnostic(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match="row 3, column 'b'"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_diagnostic(self, tmp_path, cell):
        path = tmp_path / "nf.csv"
        path.write_text(f"a,b\n1.0,2.0\n{cell},4.0\n")
        with pytest.raises(ParseError, match="row 3, column 'a': non-finite"):
            read_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "bl.csv"
        path.write_text("a,b\n1.0,2.0\n\n3.0,4.0\n")
        ds = read_csv(path)
        assert ds.n == 2

    def test_repeated_header_name_names_the_file(self, tmp_path):
        # it said "name 'a' is given twice", with no path
        path = tmp_path / "rep.csv"
        path.write_text("a,b, a\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: name 'a' is given twice$"):
            read_csv(path)

    def test_header_whitespace_stripped(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text(" a , b\n1.0,2.0\n")
        assert read_csv(path).names == ["a", "b"]
