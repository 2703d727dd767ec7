"""Deterministic file interfaces: tomography count tables, density matrices,
CSV/JSON writers.

All writers produce byte-stable output for identical inputs: JSON keys are
sorted, floats are formatted with a fixed repr-style rule, and no timestamps
or environment details are embedded.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .biphoton import DensityMatrix4
from .errors import ConfigError, ValidationError
from .util import _check_array

__all__ = [
    "format_float",
    "write_csv",
    "write_json",
    "config_digest",
    "read_tomography_counts",
    "write_tomography_counts",
    "density_matrix_to_dict",
    "density_matrix_from_dict",
]


def format_float(x) -> str:
    """Stable decimal rendering (shortest round-trip repr for floats)."""
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    """CSV with every cell rendered by format_float.

    A row of exact Python floats (type float, no subclass) is written as the
    comma join of their reprs: that is what format_float returns for each,
    and what the csv module would write, since it writes a float as str(x),
    the repr, and a float's repr never needs quoting. Every other row goes
    through the csv module, its cells that are not exact floats formatted
    first: the module would write None as "" and np.float32(0.1) as "0.1",
    where format_float writes the float64 value.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            row = list(row)  # a row may be any iterable; it is read twice below
            if {*map(type, row)} == {float}:
                fh.write(",".join(map(float.__repr__, row)) + "\n")
            else:
                w.writerow([v if type(v) is float else format_float(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _strict_json(obj, what: str, **layout) -> str:
    """JSON text of obj; NaN or Infinity raise ValidationError naming `what`."""
    try:
        return json.dumps(_jsonable(obj), sort_keys=True, allow_nan=False, **layout)
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON, serialized before the file is opened: a non-finite number
    raises ValidationError and leaves no partial file."""
    text = _strict_json(payload, str(path), indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def config_digest(config: dict) -> str:
    """sha256 over the canonical JSON form of an effective configuration."""
    blob = _strict_json(config, "config", separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _label(cell: str) -> str:
    return cell.strip().upper()


def _finite(cell) -> float:
    x = float(cell)
    if not np.isfinite(x):
        raise ValueError(f"{cell!r} is not finite")
    return x


# The tomography count table: each column, the parser of its CSV cells and,
# for the one optional column, the value of an absent column or empty cell.
_TOMO_COLUMNS = {
    "setting_signal": (_label, None),
    "setting_idler": (_label, None),
    "coincidences": (_finite, None),
    "integration_time_s": (_finite, None),
    "accidentals": (_finite, 0.0),  # expected accidental counts
}


def _tomo_cell(row: dict, column: str):
    """Parsed cell of `column`; the optional column reads its default when absent or empty."""
    parse, default = _TOMO_COLUMNS[column]
    return default if default is not None and not row.get(column) else parse(row[column])


def read_tomography_counts(path) -> list[dict]:
    """Tomography count table from a UTF-8 CSV file with the columns of
    _TOMO_COLUMNS. Analyzer labels are stripped and upper-cased; numbers
    must be finite. A file that cannot be decoded or parsed, a missing or
    repeated column, a row whose length differs from the header's, or a bad
    field raises ConfigError.
    """
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{path}: empty counts file")
            repeated = sorted({c for c in reader.fieldnames if reader.fieldnames.count(c) > 1})
            if repeated:  # DictReader would keep the last of them
                raise ConfigError(f"{path}: repeated columns {repeated}")
            required = [c for c, (_, default) in _TOMO_COLUMNS.items() if default is None]
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise ConfigError(f"{path}: missing columns {missing}")
            for ln, row in enumerate(reader, start=2):
                if None in row or None in row.values():  # DictReader's marks of a long or short row
                    raise ConfigError(f"{path}:{ln}: row length differs from the header's")
                try:
                    records.append({c: _tomo_cell(row, c) for c in _TOMO_COLUMNS})
                except ValueError as exc:
                    raise ConfigError(f"{path}:{ln}: bad numeric field ({exc})") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a readable UTF-8 CSV file ({exc})") from None
    if not records:
        raise ConfigError(f"{path}: no count rows")
    return records


def _tomography_table(records: list[dict]) -> tuple[list[str], list[list]]:
    """(header, rows) of the count table in the column order of _TOMO_COLUMNS;
    a record without the optional column takes its default."""
    rows = [
        [r[c] if default is None else r.get(c, default) for c, (_, default) in _TOMO_COLUMNS.items()]
        for r in records
    ]
    return list(_TOMO_COLUMNS), rows


def write_tomography_counts(path: Path, records: list[dict]) -> None:
    """Count table as CSV, see _tomography_table."""
    write_csv(path, *_tomography_table(records))


def density_matrix_to_dict(rho: DensityMatrix4) -> dict:
    """JSON-ready {real, imag} representation (row-major 4x4)."""
    m = rho.matrix
    return {
        "basis": ["HH", "HV", "VH", "VV"],
        "real": np.real(m).tolist(),
        "imag": np.imag(m).tolist(),
    }


def density_matrix_from_dict(payload: dict) -> DensityMatrix4:
    try:
        real, imag = (_check_array(f"density matrix {part}", payload[part]) for part in ("real", "imag"))
        m = real + 1j * imag
    except (KeyError, TypeError, ValueError) as exc:  # ValidationError among them
        raise ConfigError(f"bad density matrix payload: {exc}") from None
    try:
        return DensityMatrix4(m)
    except ValidationError as exc:
        raise ConfigError(f"density matrix payload fails validation: {exc}") from None
