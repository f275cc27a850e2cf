import re

import numpy as np
import pytest

from pcut.errors import InputError
from pcut.graph import WeightedGraph
from pcut.io import (file_digest, read_edge_list, read_features_csv,
                     read_labels_csv, write_edge_list, write_features_csv,
                     write_labels_csv)


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = WeightedGraph(4, [(0, 1, 2.0), (1, 2), (2, 3, 0.25)])
        path = tmp_path / "g.edges"
        write_edge_list(path, g)
        back = read_edge_list(path)
        assert list(back.edges()) == list(g.edges())

    def test_one_based_autodetect(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n2 3\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert {(u, v) for u, v, _ in g.edges()} == {(0, 1), (1, 2)}

    def test_zero_based_kept(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n")
        assert read_edge_list(path).n == 3

    def test_default_weight_one(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n0 2 0.5\n")
        weights = {(u, v): w for u, v, w in read_edge_list(path).edges()}
        assert weights[(0, 1)] == 1.0
        assert weights[(0, 2)] == 0.5

    def test_duplicate_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(InputError, match=":2"):
            read_edge_list(path)

    @pytest.mark.parametrize("line, message", [
        ("2 3 nan", r"edge \(2,3\) has weight nan; weights must be finite and positive"),
        ("2 3 inf", r"edge \(2,3\) has weight inf; weights must be finite and positive"),
        ("3 2 0", r"edge \(2,3\) has weight 0\.0; weights must be finite and positive"),
        ("2 3 -1", r"edge \(2,3\) has weight -1\.0; weights must be finite and positive"),
        ("2 2", r"self-loop on node 2 is not allowed"),
        ("2 1 0.5", r"duplicate edge \(1,2\) \(first at line 1\)"),
    ])
    def test_edge_error_names_line_and_ids_as_written(self, tmp_path, line,
                                                      message):
        # 1-based ids; the blank line still counts toward the line number
        path = tmp_path / "bad.edges"
        path.write_text(f"1 2\n\n3 4\n{line}\n4 5\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:4: {message}$"):
            read_edge_list(path)

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\nfoo bar\n")
        with pytest.raises(InputError, match=":2"):
            read_edge_list(path)


class TestFeaturesCsv:
    def test_roundtrip(self, tmp_path):
        x = np.array([[0.5, -1.25], [3.0, 4.0]])
        path = tmp_path / "f.csv"
        write_features_csv(path, x)
        assert np.array_equal(read_features_csv(path), x)

    def test_header_detected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        x = read_features_csv(path)
        assert x.shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputError, match=":2"):
            read_features_csv(path)


class TestLabelsCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "l.csv"
        write_labels_csv(path, {3: 1, 0: 0})
        assert read_labels_csv(path) == {0: 0, 3: 1}

    def test_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("node_id,class\n0,1\n0,0\n")
        with pytest.raises(InputError):
            read_labels_csv(path)


def test_file_digest_changes_with_content(tmp_path):
    p = tmp_path / "x"
    p.write_text("a")
    d1 = file_digest(p)
    p.write_text("b")
    assert file_digest(p) != d1
