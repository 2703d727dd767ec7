"""Refractive-index models for the crystals used by the designer.

Coefficients are loaded from ``data/sellmeier.json`` and are quoted verbatim
from their sources:

* KTP n_y, n_z: K. Kato and E. Takaoka, Appl. Opt. 41, 5040-5044 (2002)
  (flux-grown KTiOPO4; Sellmeier valid 0.43-3.54 um, thermo-optic polynomials
  referenced to 20 C).
* LiNbO3 n_e: D. H. Jundt, Opt. Lett. 22, 1553-1555 (1997) (congruent
  material, temperature dependence built into the Sellmeier form).

Wavelengths are vacuum wavelengths in micrometers inside the formulas; the
public helpers below also accept nanometer arguments where noted. All
evaluators broadcast over numpy arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from .errors import RangeError, ValidationError
from .util import _check_text, _real_array

__all__ = [
    "CrystalDispersion",
    "available_entries",
    "load_dispersion",
    "ktp_axes",
    "refractive_index",
    "wavevector",
]

_DATA_PACKAGE = "coexpm.data"
_DATA_FILE = "sellmeier.json"


@dataclass(frozen=True)
class CrystalDispersion:
    """One crystal axis: Sellmeier form, coefficients and validity metadata."""

    crystal: str
    axis: str
    form: str
    coefficients: dict
    thermo_form: str
    thermo_coefficients: tuple
    reference_temperature_c: float
    valid_wavelength_um: tuple
    valid_temperature_c: tuple
    citation: str


@cache
def _load_table() -> list[dict]:
    """Entries of the bundled table, parsed once per process; callers only read them."""
    text = resources.files(_DATA_PACKAGE).joinpath(_DATA_FILE).read_text()
    table = json.loads(text)
    if table.get("schema_version") != 1:
        raise ValidationError("unsupported sellmeier data schema_version")
    return table["entries"]


def available_entries() -> list[tuple[str, str]]:
    """(crystal, axis) pairs present in the bundled data file."""
    return [(e["crystal"], e["axis"]) for e in _load_table()]


def load_dispersion(crystal: str, axis: str) -> CrystalDispersion:
    """Load one axis of a crystal from the bundled coefficient table."""
    crystal, axis = _check_text("crystal", crystal), _check_text("axis", axis)
    for e in _load_table():
        if e["crystal"].lower() == crystal.lower() and e["axis"].lower() == axis.lower():
            return CrystalDispersion(
                crystal=e["crystal"],
                axis=e["axis"],
                form=e["form"],
                coefficients=dict(e["coefficients"]),
                thermo_form=e["thermo_form"],
                thermo_coefficients=tuple(e["thermo_coefficients"]),
                reference_temperature_c=float(e["reference_temperature_c"]),
                valid_wavelength_um=tuple(e["valid_wavelength_um"]),
                valid_temperature_c=tuple(e["valid_temperature_c"]),
                citation=e["citation"],
            )
    known = ", ".join(f"{c}/{a}" for c, a in available_entries())
    raise ValidationError(f"no dispersion entry for crystal={crystal!r} axis={axis!r}; available: {known}")


def ktp_axes() -> dict[str, CrystalDispersion]:
    """The two KTP axes used by a type-II collinear source, keyed 'y'/'z'."""
    return {"y": load_dispersion("KTP", "y"), "z": load_dispersion("KTP", "z")}


def _check_range(value, lo: float, hi: float, what: str, unit: str) -> np.ndarray:
    """value as a float array under util's array rule for types, with every
    value within [lo, hi]: NaN or any value outside is a RangeError naming the
    bound."""
    arr = _real_array(what, value)
    if arr.size:
        # min and max propagate NaN, and every comparison with NaN is False,
        # so NaN fails this test too
        amin, amax = arr.min(), arr.max()
        if not (amin >= lo and amax <= hi):
            bad = float(amin if amin < lo else amax)
            raise RangeError(
                f"{what} {bad:g} {unit} outside validity range [{lo:g}, {hi:g}] {unit}"
            )
    return arr


def _sellmeier_two_pole(c: dict, lam_um):
    l2 = np.square(lam_um)
    n2 = c["A"] + c["B1"] / (l2 - c["C1"]) + c["B2"] / (l2 - c["C2"])
    return np.sqrt(n2)


def _dndt_inverse_lambda_poly(coeffs, lam_um):
    # coeffs are (c0, c1, c2, c3) for c0 + c1/lam + c2/lam^2 + c3/lam^3, per degC
    inv = 1.0 / np.asarray(lam_um, dtype=float)
    out = 0.0
    for k, ck in enumerate(coeffs):
        out = out + ck * inv**k
    return out

def _jundt_ne(c: dict, lam_um, temperature_c):
    # temperature factor f = (T - 24.5)(T + 570.82), T in degC
    f = (temperature_c - c["t_offset_c"]) * (temperature_c + c["t_sum_c"])
    l2 = np.square(lam_um)
    n2 = (
        c["a1"]
        + c["b1"] * f
        + (c["a2"] + c["b2"] * f) / (l2 - np.square(c["a3"] + c["b3"] * f))
        + (c["a4"] + c["b4"] * f) / (l2 - np.square(c["a5"]))
        - c["a6"] * l2
    )
    return np.sqrt(n2)


def refractive_index(disp: CrystalDispersion, wavelength_um, temperature_c=25.0):
    """Refractive index at vacuum wavelength (um) and temperature (degC).

    Validates both arguments against the entry's documented ranges and raises
    RangeError naming the violated bound. Broadcasts over wavelength and
    temperature arrays.
    """
    lam = _check_range(wavelength_um, *disp.valid_wavelength_um, what="wavelength", unit="um")
    temp = _check_range(temperature_c, *disp.valid_temperature_c, what="temperature", unit="degC")
    n = _index(disp, lam, temp)
    if lam.ndim == 0 and temp.ndim == 0:
        return float(n)
    return np.asarray(n)


def _index(disp: CrystalDispersion, lam, temp):
    """refractive_index of float arrays already checked against the entry's
    ranges; the phase-matching solvers call it inside a checked bracket."""
    if disp.form == "sellmeier_two_pole":
        n = _sellmeier_two_pole(disp.coefficients, lam)
        if disp.thermo_form == "dndt_inverse_lambda_poly":
            n = n + _dndt_inverse_lambda_poly(disp.thermo_coefficients, lam) * (
                temp - disp.reference_temperature_c
            )
        elif disp.thermo_form != "none":
            raise ValidationError(f"unknown thermo form {disp.thermo_form!r}")
    elif disp.form == "jundt_ne_temperature":
        n = _jundt_ne(disp.coefficients, lam, temp)
    else:
        raise ValidationError(f"unknown dispersion form {disp.form!r}")
    return n


def wavevector(disp: CrystalDispersion, wavelength_um, temperature_c: float = 25.0):
    """Wavevector magnitude k = 2 pi n / lambda in rad/um."""
    n = refractive_index(disp, wavelength_um, temperature_c)
    k = 2.0 * np.pi * n / np.asarray(wavelength_um, dtype=float)
    # a float where refractive_index gives one: both arguments 0-D
    return float(k) if isinstance(n, float) else k


def _wavevector(disp: CrystalDispersion, lam, temp):
    """wavevector of float arrays already checked, as _index takes them."""
    return 2.0 * np.pi * _index(disp, lam, temp) / lam
