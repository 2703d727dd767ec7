"""Serialization helpers: stable formatting, digests, tomography CSV schema."""

import csv
import io as stdio

import numpy as np
import pytest

from coexpm import io
from coexpm.errors import ConfigError


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


def test_write_csv_renders_every_value_by_format_float(tmp_path):
    nan, inf = float("nan"), float("inf")
    mixed = [1.0, 2.0 / 3.0, -0.0, 1e-300, nan, inf, -inf, np.float64(0.1), np.float64(nan),
             np.float32(0.1), 3, np.int64(-4), True, None, "a,b", 'say "hi"']
    rows = [mixed, tuple(reversed(mixed)), np.array([0.1, 2.0 / 3.0, nan]), range(3)]
    header = [f"c{k}" for k in range(len(mixed))]
    path = tmp_path / "mixed.csv"
    io.write_csv(path, header, iter(rows))
    want = stdio.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([io.format_float(v) for v in row])
    assert path.read_bytes() == want.getvalue().encode()
    assert "np.float" not in want.getvalue() and ",None," in want.getvalue()


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
