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

    The csv module writes a Python float as str(x), which equals the repr
    that format_float returns, so exact floats go to it as they are. Every
    other value is formatted first: the module would write None as "" and
    np.float32(0.1) as "0.1", where format_float writes the float64 value.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([v if type(v) is float else format_float(v) for v in row] for row in rows)


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


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def config_digest(config: dict) -> str:
    """sha256 over the canonical JSON form of an effective configuration."""
    blob = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


_TOMO_COLUMNS = [
    "setting_signal",
    "setting_idler",
    "coincidences",
    "integration_time_s",
    "accidentals",
]


def read_tomography_counts(path) -> list[dict]:
    """Tomography count table from CSV.

    Required columns: setting_signal, setting_idler, coincidences,
    integration_time_s; optional: accidentals (expected accidental counts).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty counts file")
        missing = [c for c in _TOMO_COLUMNS[:4] if c not in reader.fieldnames]
        if missing:
            raise ConfigError(f"{path}: missing columns {missing}")
        records = []
        for ln, row in enumerate(reader, start=2):
            try:
                records.append(
                    {
                        "setting_signal": row["setting_signal"].strip().upper(),
                        "setting_idler": row["setting_idler"].strip().upper(),
                        "coincidences": float(row["coincidences"]),
                        "integration_time_s": float(row["integration_time_s"]),
                        "accidentals": float(row.get("accidentals") or 0.0),
                    }
                )
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{ln}: bad numeric field ({exc})") from None
    if not records:
        raise ConfigError(f"{path}: no count rows")
    return records


def write_tomography_counts(path: Path, records: list[dict]) -> None:
    rows = [
        [
            r["setting_signal"],
            r["setting_idler"],
            r["coincidences"],
            r["integration_time_s"],
            r.get("accidentals", 0.0),
        ]
        for r in records
    ]
    write_csv(path, _TOMO_COLUMNS, rows)


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
        m = np.asarray(payload["real"], dtype=float) + 1j * np.asarray(payload["imag"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad density matrix payload: {exc}") from None
    try:
        return DensityMatrix4(m)
    except ValidationError as exc:
        raise ConfigError(f"density matrix payload fails validation: {exc}") from None
