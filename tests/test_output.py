"""CSV and report writers: lossless floats, atomicity, determinism."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from bandlayer.errors import ConfigError
from bandlayer.output import (atomic_write_text, gnuplot_loglog_script,
                              gnuplot_velocity_script, write_csv,
                              write_text_report)


class TestCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        p = str(tmp_path / "t.csv")
        vals = np.array([math.pi, 1.0 / 3.0, 6.02214076e23, 5e-324,
                         -2.2250738585072014e-308, 0.1 + 0.2])
        write_csv(p, ["v"], [vals])
        back = np.genfromtxt(p, delimiter=",", names=True)["v"]
        assert np.array_equal(back, vals)

    def test_header_and_shape(self, tmp_path):
        p = str(tmp_path / "t.csv")
        write_csv(p, ["a", "b"], [np.arange(3.0), np.arange(3.0) * 2])
        lines = Path(p).read_text().split("\n")
        assert lines[0] == "a,b"
        assert len(lines) == 5 and lines[-1] == ""  # trailing LF

    def test_lf_line_endings(self, tmp_path):
        p = str(tmp_path / "t.csv")
        write_csv(p, ["a"], [np.arange(4.0)])
        raw = Path(p).read_bytes()
        assert b"\r" not in raw

    def test_nan_and_inf_render(self, tmp_path):
        p = str(tmp_path / "t.csv")
        write_csv(p, ["a"], [np.array([np.nan, np.inf, -np.inf])])
        body = Path(p).read_text().splitlines()[1:]
        assert body == ["nan", "inf", "-inf"]

    def test_string_column(self, tmp_path):
        p = str(tmp_path / "t.csv")
        write_csv(p, ["z", "w"], [np.array([1.5, 2.5]), ["NT", "LAYER"]])
        body = Path(p).read_text().splitlines()[1:]
        assert body[0] == "1.5,NT"

    def test_mismatched_header_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_csv(str(tmp_path / "t.csv"), ["a"], [np.arange(2.0)] * 2)

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                      [np.arange(2.0), np.arange(3.0)])

    def test_reruns_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        vals = np.linspace(0, 1, 17) ** 3
        write_csv(p1, ["v"], [vals])
        write_csv(p2, ["v"], [vals])
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestAtomicity:
    def test_no_temp_residue(self, tmp_path):
        p = str(tmp_path / "x.txt")
        atomic_write_text(p, "hello\n")
        assert os.listdir(tmp_path) == ["x.txt"]

    def test_failure_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # force the final rename to fail: the target must not appear and
        # the temp file must be cleaned up
        p = str(tmp_path / "y.csv")

        def broken_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk gone"):
            write_csv(p, ["a"], [np.arange(3.0)])
        assert not os.path.exists(p)
        assert os.listdir(tmp_path) == []

    def test_overwrite_replaces_whole_file(self, tmp_path):
        p = str(tmp_path / "z.txt")
        atomic_write_text(p, "long first version\n" * 10)
        atomic_write_text(p, "short\n")
        assert Path(p).read_text() == "short\n"


class TestReports:
    def test_text_report_joins_lines(self, tmp_path):
        p = str(tmp_path / "r.txt")
        write_text_report(p, ["one", "two"])
        assert Path(p).read_text() == "one\ntwo\n"

    def test_loglog_script_references_csv(self):
        s = gnuplot_loglog_script("shift.csv", 1, 2, "eta", "shift",
                                  slope=0.333, prefactor=1e-3)
        assert "shift.csv" in s and "logscale" in s
        assert "0.333" in s

    def test_velocity_script_optional_pieces(self):
        s = gnuplot_velocity_script("prof.csv", 1, 2, composite_col=3,
                                    boundary=5e-4)
        assert "prof.csv" in s
        s2 = gnuplot_velocity_script("prof.csv", 1, 2)
        assert "prof.csv" in s2 and len(s2) < len(s)
