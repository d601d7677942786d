"""Atomic file outputs: CSV tables, plain-text summaries, gnuplot scripts.

All writers go through a temp-file-plus-rename so a crash mid-write never
leaves a truncated file behind.  CSV rows are streamed into the temp file
in blocks of ``_CSV_BLOCK_ROWS``, so a write holds one block of text, not
the whole table.  Reals are rendered with 17 significant digits, which
round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile

import numpy as np

from .errors import ConfigError

# CSV rows formatted and written per block
_CSV_BLOCK_ROWS = 4096
# printf pattern by dtype kind: labels as they are, bools 1/0, else real
_PATTERNS = {"U": "%s", "O": "%s", "b": "%d"}


def _format_real(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a same-directory temp file that replaces ``path``
    on a clean exit and is unlinked on any error."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_csv(path: str, header, columns) -> None:
    """Write named columns as comma-separated text with LF endings.

    ``columns`` may mix real arrays, bool arrays (written 1/0) and labels,
    string sequences or object arrays of strings; real entries get the
    lossless 17-digit rendering, which spells nan and +-inf as
    :func:`_format_real` does.  The rows
    are formatted and written ``_CSV_BLOCK_ROWS`` at a time through the
    same temp-file-plus-rename as :func:`atomic_write_text`, so an error
    in any block leaves neither the target nor a temp file behind.
    """
    header = list(header)
    cols = [np.asarray(c) for c in columns]
    if len(header) != len(cols):
        raise ConfigError("write_csv: header and column counts differ")
    if not cols:
        raise ConfigError("write_csv: need at least one column")
    n = cols[0].shape[0]
    for c in cols:
        if c.ndim != 1 or c.shape[0] != n:
            raise ConfigError("write_csv: columns must be 1-d, equal length")
    # one printf pattern per row, applied to each block's columns
    # converted to Python scalars once
    fmt = ",".join(_PATTERNS.get(c.dtype.kind, "%.17g") for c in cols)
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = zip(*(c[start:start + _CSV_BLOCK_ROWS].tolist()
                          for c in cols))
            fh.write("\n".join(fmt % row for row in block) + "\n")


def write_text_report(path: str, lines) -> None:
    atomic_write_text(path, "\n".join(str(l) for l in lines) + "\n")


# ----------------------------------------------------------------- gnuplot


def _gnuplot_preamble(csv_basename: str):
    """Opening lines of every script: a PNG beside its comma-separated CSV."""
    stem = os.path.splitext(csv_basename)[0]
    return ["set terminal pngcairo size 900,600", f"set output '{stem}.png'",
            "set datafile separator ','", "set datafile missing 'nan'"]


def gnuplot_loglog_script(csv_basename: str, xcol: int, ycol: int,
                          xlabel: str, ylabel: str, slope: float,
                          prefactor: float, title: str) -> str:
    """Log-log scatter of one CSV column pair and its fitted power law.

    Column indices are 1-based as gnuplot counts them.  The script is
    self-contained next to its CSV; run `gnuplot <script>` to get a PNG
    beside it.
    """
    lines = [
        *_gnuplot_preamble(csv_basename),
        "set logscale xy",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key left top",
        f"set title '{title}'",
        f"plot '{csv_basename}' every ::1 using {xcol}:{ycol} "
        f"with points pt 7 ps 1.4 title 'measured', "
        f"{_format_real(prefactor)}*x**{_format_real(slope)} "
        f"with lines lw 2 title 'fit slope {slope:.3f}'",
    ]
    return "\n".join(lines) + "\n"


def gnuplot_velocity_script(csv_basename: str, theta_col: int, v_col: int,
                            composite_col: int, boundary: float,
                            title: str) -> str:
    """Trading-speed profile against the asymptotic curve, with the
    (finite) boundary marked."""
    lines = [
        *_gnuplot_preamble(csv_basename),
        "set xlabel 'position'",
        "set ylabel 'trading speed'",
        "set key left bottom",
        f"set title '{title}'",
        f"set arrow from {_format_real(boundary)}, graph 0 to "
        f"{_format_real(boundary)}, graph 1 nohead dt 2",
        f"plot '{csv_basename}' every ::1 using {theta_col}:{v_col} "
        f"with lines lw 2 title 'solver', '{csv_basename}' every ::1 using "
        f"{theta_col}:{composite_col} with lines lw 2 dt 3 "
        "title 'matched expansion'",
    ]
    return "\n".join(lines) + "\n"
