"""``ioutil.write_csv`` (a column writer) against the row writer it
replaced.

``_row_writer_bytes`` is that writer: ``csv.writer`` over rows, each
float cell as ``repr(float(value))``.  The column writer must give the
same bytes for the tables the CLI writes, and every value must read back.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statorlab import ioutil
from statorlab.errors import DomainError

EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1 + 0.2, 1.5, 3680.0,
        2.5e-9, 1e16, 123456789.123]


def _row_writer_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(c)) if isinstance(c, (float, np.floating))
                         else c for c in row])
    return buf.getvalue().encode("utf-8")


def _read_back(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _same_float(text, value):
    parsed = float(text)
    if math.isnan(value):
        return math.isnan(parsed)
    return parsed == value and math.copysign(1, parsed) == math.copysign(1, value)


def test_probes_shaped_table(tmp_path):
    times = np.array(EDGE[:6] + [1e-5 * k for k in range(30)])
    displacement = [np.array(EDGE * 3)[:times.size] * s for s in (1, -2, 3)]
    header = ("time_s", "point_id", "displacement_m")
    rows = [(float(t), pid, float(u)) for pid, d in enumerate(displacement)
            for t, u in zip(times, d)]
    path = tmp_path / "probes.csv"
    # as cmd_respond writes it: the shared times column formatted once
    ioutil.write_csv(path, header,
                     (ioutil.format_cells(times) * 3,
                      np.repeat(np.arange(3), times.size),
                      np.concatenate(displacement)))
    assert path.read_bytes() == _row_writer_bytes(header, rows)
    back = _read_back(path)
    assert tuple(back[0]) == header and len(back) == 1 + len(rows)
    for (t, pid, u), cells in zip(rows, back[1:]):
        assert _same_float(cells[0], t) and int(cells[1]) == pid
        assert _same_float(cells[2], u)


def test_modes_shaped_table(tmp_path):
    header = ("n", "orientation", "family", "frequency_hz")
    rows = [(n, orient, 0, f) for n, f in zip(range(1, 7), EDGE[6:])
            for orient in ("cos", "sin")]
    rows.append((0, "cos", 1, np.float64(-0.0)))      # numpy scalar cell
    path = tmp_path / "modes.csv"
    ioutil.write_csv(path, header, zip(*rows))
    assert path.read_bytes() == _row_writer_bytes(header, rows)
    assert b"np." not in path.read_bytes()
    for row, cells in zip(rows, _read_back(path)[1:]):
        assert [int(cells[0]), cells[1], int(cells[2])] == list(row[:3])
        assert _same_float(cells[3], row[3])


def test_fit_shaped_table(tmp_path):
    header = ("strobe_phase_deg", "n", "A_m", "phi_rad", "delta_m",
              "residual_m")
    rows = [(30.0 * k, 4, EDGE[k], -EDGE[k + 1], EDGE[k + 2], 5e-324)
            for k in range(6)]
    path = tmp_path / "fit.csv"
    ioutil.write_csv(path, header, zip(*rows))
    assert path.read_bytes() == _row_writer_bytes(header, rows)
    for row, cells in zip(rows, _read_back(path)[1:]):
        assert int(cells[1]) == row[1]
        assert all(_same_float(cells[k], row[k]) for k in (0, 2, 3, 4, 5))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.integers(-2**70, 2**70),
                          st.floats(width=32).map(np.float32)),
                min_size=1, max_size=40))
def test_any_float_and_int_table(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = ("a", "b", "c")
    ioutil.write_csv(path, header, zip(*rows))
    assert path.read_bytes() == _row_writer_bytes(header, rows)
    for row, cells in zip(rows, _read_back(path)[1:]):
        assert _same_float(cells[0], row[0]) and int(cells[1]) == row[1]
        assert _same_float(cells[2], float(row[2]))


def test_empty_table_is_the_header(tmp_path):
    path = tmp_path / "t.csv"
    ioutil.write_csv(path, ("a", "b"), ([], np.array([])))
    assert path.read_bytes() == b"a,b\r\n"


@pytest.mark.parametrize("header, columns", [
    (("a", "b"), ([1.0], ["x,y"])),
    (("a", "b"), ([1.0], ['say "x"'])),
    (("a", "b"), ([1.0], ["two\nlines"])),
    (("a,b",), ([1.0],)),
])
def test_cells_that_need_quoting_are_refused(tmp_path, header, columns):
    with pytest.raises(DomainError, match="quoting"):
        ioutil.write_csv(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        ioutil.write_csv(tmp_path / "t.csv", ("a", "b"), ([1.0, 2.0], [3.0]))
    assert not (tmp_path / "t.csv").exists()


def test_a_list_of_strings_is_passed_through(tmp_path):
    # as cmd_respond hands write_csv the time column: formatted once, repeated
    times = ioutil.format_cells(np.array(EDGE)) * 3
    assert ioutil.format_cells(times) is times
    ioutil.write_csv(tmp_path / "t.csv", ("time_s",), (times,))
    assert (tmp_path / "t.csv").read_bytes() == (
        "\r\n".join(["time_s", *times]) + "\r\n").encode()
