"""Serialization helpers: stable formatting, digests, tomography CSV schema."""

import csv
import io as stdio
import json

import numpy as np
import pytest

from coexpm import cli, io
from coexpm.errors import ConfigError, ValidationError


def test_float_formatting_round_trips():
    for x in (1.0, 0.1, 2.0 / 3.0, 1.3307e6, 5.425e-06):
        assert float(io.format_float(x)) == x


def test_config_digest_is_order_insensitive():
    a = io.config_digest({"b": 1, "a": [1, 2]})
    b = io.config_digest({"a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 64
    assert io.config_digest({"a": [2, 1], "b": 1}) != a


def test_write_csv_and_json_are_deterministic(tmp_path):
    rows = [(1.0, 2.0 / 3.0), (0.1, 5.425e-06)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_csv(p1, ["x", "y"], rows)
    io.write_csv(p2, ["x", "y"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    io.write_json(j1, {"z": 1, "a": rows[0]})
    io.write_json(j2, {"a": rows[0], "z": 1})
    assert j1.read_bytes() == j2.read_bytes()  # sorted keys


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_json_writers_reject_non_finite_numbers_and_leave_no_file(tmp_path, bad):
    path = tmp_path / "leak.json"
    with pytest.raises(ValidationError, match="leak.json"):
        io.write_json(path, {"ok": 1.0, "nested": {"rows": [[0.5, bad]]}})
    assert not path.exists()
    with pytest.raises(ValidationError, match="config"):
        io.config_digest({"stats": {"tau_c_s": bad}})


def test_write_json_bytes_are_the_indented_sorted_dump(tmp_path):
    payload = {"b": [1.0, 2.0 / 3.0, np.float64(5.425e-06)], "a": {"z": None, "y": True, "x": "s"}}
    io.write_json(tmp_path / "p.json", payload)
    expected = json.dumps(io._jsonable(payload), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "p.json").read_text() == expected


class _LoudFloat(float):
    """A float subclass with its own repr, which format_float does not use."""

    def __repr__(self):
        return "loud"


def _reference_csv(header, rows) -> bytes:
    """The csv module's rendering of every cell formatted by format_float."""
    want = stdio.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([io.format_float(v) for v in row])
    return want.getvalue().encode()


def test_write_csv_renders_every_value_by_format_float(tmp_path):
    nan, inf = float("nan"), float("inf")
    mixed = [1.0, 2.0 / 3.0, -0.0, 1e-300, nan, inf, -inf, np.float64(0.1), np.float64(nan),
             np.float32(0.1), 3, np.int64(-4), True, None, "a,b", 'say "hi"']
    # rows of exact floats only beside numpy floats, a float subclass and a
    # one-cell row: all of them go through the csv module
    all_float = [-0.0, nan, inf, -inf, 5e-324, 1e16, 1e-5, 0.0, 0.1, 2.0 / 3.0, 1.7976931348623157e308]
    rows = [
        mixed, tuple(reversed(mixed)), np.array([0.1, 2.0 / 3.0, nan]), range(3),
        all_float, tuple(reversed(all_float)), [1e-5], [np.float64(v) for v in all_float],
        [0.25, _LoudFloat(0.1), 1e16], [_LoudFloat(2.0 / 3.0)], (v for v in all_float[:4]), [],
    ]
    header = [f"c{k}" for k in range(len(mixed))]
    path = tmp_path / "mixed.csv"
    io.write_csv(path, header, iter(rows))
    # the generator row is read once by write_csv; the reference reads a copy
    rows[-2] = all_float[:4]
    want = _reference_csv(header, rows)
    assert path.read_bytes() == want
    text = want.decode()
    assert "np.float" not in text and ",None," in text and "loud" not in text
    assert "-0.0,nan,inf,-inf,5e-324,1e+16,1e-05,0.0," in text and "\n0.25,0.1,1e+16\n" in text


_NAN, _INF = float("nan"), float("inf")
_FLOAT_TABLE = np.array(
    [
        [0.0, 0.0, -0.0, 5e-324, 1e-05, 1e16, 0.0, 0.0],  # opens and closes with zero runs
        [1e300, _INF, -_INF, _NAN, 0.0, 2.0 / 3.0, -1e-300, 0.1],  # ends on a cell that is not zero
        [0.0] * 8,  # all zero
        [-0.0] * 8,  # -0.0 is not +0.0's bits: every cell takes its repr
        [0.0, 0.1, 0.0, -0.0, 0.0, 5e-324, 0.0, 0.0],  # runs of one cell
        [0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-05],
    ]
)


@pytest.mark.parametrize(
    "table",
    [
        _FLOAT_TABLE,
        _FLOAT_TABLE[::-1, ::-1],  # a view with negative strides
        np.asfortranarray(_FLOAT_TABLE),
        _FLOAT_TABLE[:, ::3],
        _FLOAT_TABLE[:, :1],  # one column
        _FLOAT_TABLE[2:3],  # one all-zero row
        _FLOAT_TABLE[:, :0],  # rows of no cells and no rows: not the array path
        _FLOAT_TABLE[:0],
        np.array([[0.0, 0.1, -0.0], [0.0, 0.0, 2.5]], dtype=np.float32),  # not float64: not the array path
    ],
)
def test_a_float_array_is_written_like_its_rows(tmp_path, table):
    header = [f"c{k}" for k in range(table.shape[1])]
    io.write_csv(tmp_path / "array.csv", header, table)
    io.write_csv(tmp_path / "rows.csv", header, [list(row) for row in table.tolist()])
    want = _reference_csv(header, table)
    assert (tmp_path / "array.csv").read_bytes() == want
    assert (tmp_path / "rows.csv").read_bytes() == want


@pytest.mark.parametrize(
    "command, tables",
    [
        ("jspd", ("jspd.csv", "jspd_marginals.csv")),
        ("design", ("design_curve.csv",)),
        ("montecarlo", ("montecarlo.csv", "montecarlo_entanglement.csv")),
        ("fringes", ("fringes.csv",)),
    ],
)
def test_default_cli_tables_are_the_csv_module_bytes(tmp_path, command, tables):
    # every float table of the CLI is a float64 array, which write_csv joins itself
    artifacts, _ = cli._COMMANDS[command][0](cli.DEFAULT_CONFIG[command], 0, "csv")
    for name in tables:
        header, rows = artifacts[name]
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2 and rows.size
        io.write_csv(tmp_path / name, header, rows)
        assert (tmp_path / name).read_bytes() == _reference_csv(header, rows)


def test_density_matrix_dict_round_trip():
    from coexpm.biphoton import as_density_matrix

    rho = as_density_matrix(
        np.array(
            [
                [0.5, 0.0, 0.1j, 0.0],
                [0.0, 0.2, 0.0, 0.0],
                [-0.1j, 0.0, 0.2, 0.0],
                [0.0, 0.0, 0.0, 0.1],
            ]
        )
    )
    d = io.density_matrix_to_dict(rho)
    assert d["basis"] == ["HH", "HV", "VH", "VV"]
    back = io.density_matrix_from_dict(d)
    assert np.allclose(back.matrix, rho.matrix)


def test_tomography_csv_round_trip(tmp_path):
    records = [
        {
            "setting_signal": a,
            "setting_idler": b,
            "coincidences": float(10 * k),
            "integration_time_s": 10.0,
        }
        for k, (a, b) in enumerate([("H", "H"), ("H", "V"), ("D", "R")], start=1)
    ]
    path = tmp_path / "counts.csv"
    io.write_tomography_counts(path, records)
    back = io.read_tomography_counts(path)
    # the reader normalizes the optional accidentals column to 0.0
    assert back == [dict(r, accidentals=0.0) for r in records]


def test_tomography_csv_error_reports_line(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "setting_signal,setting_idler,coincidences,integration_time_s\n"
        "H,H,10,10\n"
        "H,V,not_a_number,10\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        io.read_tomography_counts(path)
    assert ":3:" in str(err.value)  # file:line prefix points at the bad row


def test_tomography_csv_missing_column(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("setting_signal,coincidences\nH,10\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        io.read_tomography_counts(path)
